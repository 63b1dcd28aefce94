//! Fault-tolerant sharded campaigns: the shard supervisor's byte-identity
//! guarantee ({1,2,4} shards × {thread, subprocess} workers merge to
//! `Campaign::run`'s exact CSV output), worker-death recovery via
//! retry+resume, straggler reclamation through the journal-progress
//! heartbeat, graceful degradation after retry exhaustion, a journal whose
//! assignment line the plan does not have refused by supervisor and worker
//! alike, and the typed merge-validation errors (overlap, duplicates,
//! foreign fingerprints, empty journals).
//!
//! Subprocess workers self-exec this very test binary: the supervisor
//! spawns `current_exe shard_worker_entry --exact` with the shard journal
//! in `CHASER_SHARD_JOURNAL` (the worker reads its assignment from the
//! journal's line 2) and the campaign parameters in `CHASER_TEST_*` env
//! vars, and the [`shard_worker_entry`] "test" becomes the worker main.

#[path = "support/temp_dir.rs"]
mod temp_dir;

use chaser::{
    merge_shard_journals, shard_journal_path, AppSpec, Campaign, CampaignConfig, ChaosKind,
    JournalError, Outcome, ShardChaos, ShardError, ShardMeta, ShardSupervision, ShardWorkers,
    TermCause,
};
use chaser_isa::InsnClass;
use chaser_workloads::matvec;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;
use temp_dir::TempDir;

const RUNS: u64 = 12;
const SEED: u64 = 0x5EED;

/// Campaign parameters a subprocess worker needs to rebuild the campaign
/// (everything else is the shared default, and operational knobs are not
/// fingerprinted).
const ENV_TEST_SEED: &str = "CHASER_TEST_SEED";
const ENV_TEST_RUNS: &str = "CHASER_TEST_RUNS";
const ENV_TEST_SHARDS: &str = "CHASER_TEST_SHARDS";

/// Serializes the tests that mutate process environment (the subprocess
/// campaign parameters are inherited via env).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn cfg(runs: u64, seed: u64, shards: u64) -> CampaignConfig {
    CampaignConfig {
        runs,
        seed,
        shards,
        parallelism: 2,
        classes: vec![InsnClass::Mov],
        ..CampaignConfig::default()
    }
}

fn campaign(cfg: CampaignConfig) -> Campaign {
    let mv = matvec::MatvecConfig::default();
    let app = AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 4);
    Campaign::new(app, cfg)
}

/// The argv prefix that re-launches this test binary as a shard worker.
fn self_exec_argv() -> Vec<String> {
    let exe = std::env::current_exe().expect("current exe");
    vec![
        exe.display().to_string(),
        "shard_worker_entry".into(),
        "--exact".into(),
        "--test-threads=1".into(),
        "--quiet".into(),
    ]
}

fn env_u64(var: &str) -> u64 {
    std::env::var(var)
        .unwrap_or_else(|_| panic!("{var} unset"))
        .parse()
        .unwrap_or_else(|_| panic!("{var} not a number"))
}

/// Subprocess worker main, disguised as a test: a plain `cargo test` run
/// sees no `CHASER_SHARD_JOURNAL` and passes trivially; the supervisor's
/// self-exec launches land here with a shard assignment to execute.
#[test]
fn shard_worker_entry() {
    if std::env::var(chaser::ENV_SHARD_JOURNAL).is_err() {
        return;
    }
    let c = campaign(cfg(
        env_u64(ENV_TEST_RUNS),
        env_u64(ENV_TEST_SEED),
        env_u64(ENV_TEST_SHARDS),
    ));
    c.shard_worker_from_env().expect("shard worker");
}

/// Runs the sharded campaign and the unsharded reference, returning
/// `(sharded_result, reference_result)` after asserting byte-identity of
/// the outcome CSV and the stats CSV.
fn assert_byte_identical(
    name: &str,
    mut config: CampaignConfig,
) -> (chaser::CampaignResult, chaser::CampaignResult) {
    let dir = TempDir::new(&format!("shard-{name}"));
    let sharded = campaign(config.clone())
        .run_sharded(&dir.join("campaign.jsonl"))
        .expect("sharded campaign");

    // The reference is the same campaign in memory: `Campaign::run` shares
    // the per-run worker loop with the shard workers, not the supervisor,
    // its journals or its merge.
    config.shard_chaos.clear();
    config.shard_workers = ShardWorkers::Thread;
    let reference = campaign(config).run();

    assert_eq!(
        sharded.to_csv(),
        reference.to_csv(),
        "outcome CSV must be byte-identical ({name})"
    );
    assert_eq!(
        sharded.stats_csv(),
        reference.stats_csv(),
        "stats CSV must be byte-identical ({name})"
    );
    (sharded, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Merged sharded output is byte-identical to the in-memory
    /// `Campaign::run` across {1,2,4} shards × {thread, subprocess}
    /// workers.
    #[test]
    fn sharded_output_is_byte_identical_to_unsharded(
        shards in prop_oneof![Just(1u64), Just(2), Just(4)],
        subprocess in any::<bool>(),
    ) {
        let mut config = cfg(RUNS, SEED, shards);
        let _env = ENV_LOCK.lock().expect("env lock");
        if subprocess {
            std::env::set_var(ENV_TEST_SEED, SEED.to_string());
            std::env::set_var(ENV_TEST_RUNS, RUNS.to_string());
            std::env::set_var(ENV_TEST_SHARDS, shards.to_string());
            config.shard_workers = ShardWorkers::Subprocess(self_exec_argv());
        }
        let kind = if subprocess { "proc" } else { "thread" };
        let (sharded, _) =
            assert_byte_identical(&format!("ident-{shards}-{kind}"), config);
        prop_assert_eq!(sharded.shard_stats.shards, shards);
        prop_assert_eq!(sharded.shard_stats.retries, 0);
        prop_assert_eq!(sharded.shard_stats.quarantined_runs, 0);
        prop_assert_eq!(sharded.shard_stats.per_shard.len() as u64, shards);
    }
}

/// A thread worker that dies mid-shard (cooperative kill chaos on its
/// first attempt) is retried; the retry resumes the shard journal, and the
/// merged output is still byte-identical with zero lost or duplicated rows.
#[test]
fn killed_thread_worker_is_retried_and_resumed() {
    let mut config = cfg(RUNS, SEED, 2);
    config.shard_supervision = ShardSupervision {
        backoff_base_ms: 1,
        backoff_cap_ms: 5,
        ..ShardSupervision::default()
    };
    config.shard_chaos = vec![ShardChaos {
        shard: 1,
        after_rows: 2,
        attempts: 1,
        kind: ChaosKind::Kill,
    }];
    let (sharded, _) = assert_byte_identical("thread-kill", config);
    assert_eq!(sharded.shard_stats.quarantined_runs, 0);
    assert!(
        sharded.shard_stats.retries >= 1,
        "the harassed shard must have retried: {:?}",
        sharded.shard_stats
    );
    assert!(
        sharded.shard_stats.reassignments >= 1,
        "the dead worker's unfinished runs must have been reassigned: {:?}",
        sharded.shard_stats
    );
    let shard1 = sharded.shard_stats.per_shard[1];
    assert!(
        shard1.attempts >= 2,
        "shard 1 took {} attempt(s)",
        shard1.attempts
    );
}

/// A subprocess worker killed abruptly (exit(9) mid-campaign, the SIGKILL
/// shape) is detected and relaunched; the relaunch resumes the journal.
#[test]
fn killed_subprocess_worker_is_retried_and_resumed() {
    let _env = ENV_LOCK.lock().expect("env lock");
    std::env::set_var(ENV_TEST_SEED, SEED.to_string());
    std::env::set_var(ENV_TEST_RUNS, RUNS.to_string());
    std::env::set_var(ENV_TEST_SHARDS, "2");
    let mut config = cfg(RUNS, SEED, 2);
    config.shard_workers = ShardWorkers::Subprocess(self_exec_argv());
    config.shard_supervision = ShardSupervision {
        backoff_base_ms: 1,
        backoff_cap_ms: 5,
        ..ShardSupervision::default()
    };
    config.shard_chaos = vec![ShardChaos {
        shard: 0,
        after_rows: 2,
        attempts: 1,
        kind: ChaosKind::Kill,
    }];
    let (sharded, _) = assert_byte_identical("proc-kill", config);
    assert_eq!(sharded.shard_stats.quarantined_runs, 0);
    assert!(
        sharded.shard_stats.retries >= 1,
        "{:?}",
        sharded.shard_stats
    );
}

/// A subprocess worker that hangs without exiting (stall chaos) stops
/// journaling; the supervisor's journal-progress heartbeat reclaims it and
/// the retry completes the shard.
#[test]
fn stalled_subprocess_worker_is_reclaimed_by_the_heartbeat() {
    let _env = ENV_LOCK.lock().expect("env lock");
    std::env::set_var(ENV_TEST_SEED, SEED.to_string());
    std::env::set_var(ENV_TEST_RUNS, RUNS.to_string());
    std::env::set_var(ENV_TEST_SHARDS, "2");
    let mut config = cfg(RUNS, SEED, 2);
    config.shard_workers = ShardWorkers::Subprocess(self_exec_argv());
    config.shard_supervision = ShardSupervision {
        heartbeat_timeout_ms: 400,
        backoff_base_ms: 1,
        backoff_cap_ms: 5,
        ..ShardSupervision::default()
    };
    config.shard_chaos = vec![ShardChaos {
        shard: 1,
        after_rows: 1,
        attempts: 1,
        kind: ChaosKind::Stall,
    }];
    let (sharded, _) = assert_byte_identical("proc-stall", config);
    assert_eq!(sharded.shard_stats.quarantined_runs, 0);
    assert!(
        sharded.shard_stats.retries >= 1,
        "{:?}",
        sharded.shard_stats
    );
}

/// ISSUE 7 acceptance: exhausting a shard's retry budget degrades its
/// unfinished runs to quarantined `HarnessFault` rows naming the shard —
/// and the campaign still completes with every index accounted for, never
/// a hang or abort.
#[test]
fn retry_exhaustion_degrades_to_quarantined_rows() {
    let dir = TempDir::new("shard-degrade");
    let mut config = cfg(RUNS, SEED, 2);
    config.shard_supervision = ShardSupervision {
        max_retries: 1,
        backoff_base_ms: 1,
        backoff_cap_ms: 5,
        ..ShardSupervision::default()
    };
    // Chaos on every attempt: shard 1's workers never survive.
    config.shard_chaos = vec![ShardChaos {
        shard: 1,
        after_rows: 1,
        attempts: u32::MAX,
        kind: ChaosKind::Kill,
    }];
    let result = campaign(config)
        .run_sharded(&dir.join("campaign.jsonl"))
        .expect("degraded campaign still completes");

    // Complete: every run index has a row (finished, skipped, or
    // quarantined).
    assert_eq!(result.outcomes.len() as u64 + result.skipped, RUNS);
    assert!(
        result.shard_stats.quarantined_runs > 0,
        "{:?}",
        result.shard_stats
    );

    let degraded: Vec<_> = result
        .outcomes
        .iter()
        .filter(|o| chaser::is_shard_lost(&o.outcome))
        .collect();
    assert_eq!(degraded.len() as u64, result.shard_stats.quarantined_runs);
    for row in &degraded {
        match &row.outcome {
            Outcome::HarnessFault { payload, cause, .. } => {
                assert_eq!(*cause, Some(TermCause::ShardLost { shard: 1 }));
                assert!(payload.contains("shard 1 lost"), "{payload}");
            }
            other => panic!("expected a harness fault, got {other}"),
        }
    }
    // The degraded rows land in the termination-free HarnessFault bucket.
    assert_eq!(
        result.outcome_counts().harness_faults as usize,
        degraded.len()
    );
}

/// A sharded campaign whose supervisor was killed resumes: re-running
/// `run_sharded` over existing shard journals revalidates and completes
/// them instead of restarting.
#[test]
fn rerun_over_existing_shard_journals_resumes() {
    let dir = TempDir::new("shard-rerun");
    let base = dir.join("campaign.jsonl");
    let config = cfg(RUNS, SEED, 2);
    let first = campaign(config.clone())
        .run_sharded(&base)
        .expect("first run");
    // Second supervisor run over the same journals: everything already
    // done, nothing re-executed, identical output.
    let second = campaign(config).run_sharded(&base).expect("re-run");
    assert_eq!(first.to_csv(), second.to_csv());
    assert_eq!(first.stats_csv(), second.stats_csv());
    assert_eq!(second.shard_stats.retries, 0);
    for s in &second.shard_stats.per_shard {
        assert_eq!(s.attempts, 0, "already-complete shard relaunched: {s:?}");
    }
}

/// A shard journal whose assignment line disagrees with the campaign's
/// plan is refused with `MetaMismatch`: by the supervisor before any
/// worker runs, and by a self-exec subprocess worker launched on it
/// directly, which has no other copy of its assignment to go by. Neither
/// appends a row.
#[test]
fn an_assignment_the_plan_does_not_have_is_refused() {
    let (dir, paths, _) = merged_fixture("wrong-assignment");
    // 12 runs in 2 shards: the plan gives shard 1 the runs 6..12.
    let mut lines = journal_lines(&paths[1]);
    let doctored = lines[1].replace("\"start\":6", "\"start\":5");
    assert_ne!(doctored, lines[1], "assignment line carries the range");
    lines[1] = doctored;
    let text = format!("{}\n", lines.join("\n"));
    fs::write(&paths[1], &text).expect("rewrite");

    match campaign(cfg(RUNS, SEED, 2)).run_sharded(&dir.join("campaign.jsonl")) {
        Err(ShardError::MetaMismatch {
            expected, found, ..
        }) => {
            assert_eq!((expected.start, expected.end), (6, 12));
            assert_eq!(
                found,
                ShardMeta {
                    start: 5,
                    ..expected
                }
            );
        }
        other => panic!("supervisor accepted the assignment: {other:?}"),
    }

    let argv = self_exec_argv();
    let worker = Command::new(&argv[0])
        .args(&argv[1..])
        .env(chaser::ENV_SHARD_JOURNAL, &paths[1])
        .env(ENV_TEST_SEED, SEED.to_string())
        .env(ENV_TEST_RUNS, RUNS.to_string())
        .env(ENV_TEST_SHARDS, "2")
        .output()
        .expect("spawn worker");
    let report = String::from_utf8_lossy(&worker.stdout) + String::from_utf8_lossy(&worker.stderr);
    assert!(!worker.status.success(), "worker accepted the assignment");
    assert!(report.contains("MetaMismatch"), "{report}");
    let after = fs::read_to_string(&paths[1]).expect("journal readable");
    assert_eq!(after, text, "a refused journal gains no row");
}

// ---------------------------------------------------------------------------
// Merge validation (satellite): every malformed shard set is a typed error
// (or a silent dedup for byte-identical duplicates) — never a bad merge.
// ---------------------------------------------------------------------------

/// Runs a 2-shard campaign and returns (dir, shard paths, campaign header).
fn merged_fixture(name: &str) -> (TempDir, Vec<PathBuf>, chaser::JournalHeader) {
    let dir = TempDir::new(&format!("shard-{name}"));
    let base = dir.join("campaign.jsonl");
    campaign(cfg(RUNS, SEED, 2))
        .run_sharded(&base)
        .expect("fixture campaign");
    let paths = vec![shard_journal_path(&base, 0), shard_journal_path(&base, 1)];
    let (header, _, _) = chaser::CampaignJournal::read_shard(&paths[0]).expect("fixture header");
    (dir, paths, header)
}

/// Returns the 1-based text lines of a shard journal: header, meta, rows.
fn journal_lines(path: &PathBuf) -> Vec<String> {
    fs::read_to_string(path)
        .expect("journal readable")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn merge_accepts_exact_duplicate_rows_by_dedup() {
    let (_dir, paths, header) = merged_fixture("dup-exact");
    let clean = merge_shard_journals(&paths, &header).expect("clean merge");

    // Append a byte-identical copy of an existing row: determinism says a
    // re-executed run produces the same bytes, so this must dedup.
    let lines = journal_lines(&paths[0]);
    let dup = lines[2].clone();
    fs::write(&paths[0], format!("{}\n{dup}\n", lines.join("\n"))).expect("rewrite");
    let merged = merge_shard_journals(&paths, &header).expect("dedup merge");
    assert_eq!(
        merged.len(),
        clean.len(),
        "dedup must not change the row set"
    );
}

#[test]
fn merge_rejects_conflicting_duplicate_rows() {
    let (_dir, paths, header) = merged_fixture("dup-conflict");
    // Forge a second row for shard 0's first run index out of a different
    // row's bytes: same index, different content.
    let lines = journal_lines(&paths[0]);
    let (row_a, row_b) = (&lines[2], &lines[3]);
    let idx_of = |line: &str| {
        let at = line.find("\"run_idx\":").expect("run_idx field") + "\"run_idx\":".len();
        let end = line[at..]
            .find(|c: char| !c.is_ascii_digit())
            .map_or(line.len(), |i| at + i);
        line[at..end].to_string()
    };
    let (ia, ib) = (idx_of(row_a), idx_of(row_b));
    assert_ne!(ia, ib);
    let forged = row_b.replace(&format!("\"run_idx\":{ib}"), &format!("\"run_idx\":{ia}"));
    fs::write(&paths[0], format!("{}\n{forged}\n", lines.join("\n"))).expect("rewrite");
    match merge_shard_journals(&paths, &header) {
        Err(ShardError::ConflictingDuplicate { path, run_idx }) => {
            assert!(path.ends_with("campaign.shard-0.jsonl"), "{path}");
            assert_eq!(run_idx.to_string(), ia);
        }
        other => panic!("conflicting duplicate accepted: {other:?}"),
    }
}

#[test]
fn merge_rejects_overlapping_shard_ranges() {
    let (dir, paths, header) = merged_fixture("overlap");
    // A third journal claiming shard 0's range under a different id.
    let clone = dir.join("campaign.shard-5.jsonl");
    let text = fs::read_to_string(&paths[0])
        .expect("journal readable")
        .replace("\"chaser_shard\":0", "\"chaser_shard\":5");
    fs::write(&clone, text).expect("write clone");
    let mut all = paths.clone();
    all.push(clone);
    match merge_shard_journals(&all, &header) {
        Err(ShardError::OverlappingShards { shard: 5, other: 0 }) => {}
        other => panic!("overlapping ranges accepted: {other:?}"),
    }
}

#[test]
fn merge_rejects_a_foreign_fingerprint() {
    let (_dir, paths, header) = merged_fixture("foreign");
    let lines = journal_lines(&paths[1]);
    let at = lines[0].find("\"config_hash\":").expect("hash field") + "\"config_hash\":".len();
    let end = lines[0][at..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(lines[0].len(), |i| at + i);
    let mut h: Vec<char> = lines[0].chars().collect();
    // Flip the hash's last digit (the first could overflow u64).
    h[end - 1] = if h[end - 1] == '9' { '1' } else { '9' };
    let mut doctored = lines.clone();
    doctored[0] = h.into_iter().collect();
    fs::write(&paths[1], format!("{}\n", doctored.join("\n"))).expect("rewrite");
    match merge_shard_journals(&paths, &header) {
        Err(ShardError::Journal(JournalError::HeaderMismatch { path, .. })) => {
            assert!(path.ends_with("campaign.shard-1.jsonl"), "{path}");
        }
        other => panic!("foreign journal accepted: {other:?}"),
    }
}

#[test]
fn merge_rejects_a_v9_shard_journal() {
    let (_dir, paths, header) = merged_fixture("v9-shard");
    assert_eq!(header.version, 11);
    let lines = journal_lines(&paths[1]);
    let doctored = lines[0].replace("\"chaser_journal\":11", "\"chaser_journal\":9");
    assert_ne!(doctored, lines[0], "header must carry the version field");
    let mut all = lines.clone();
    all[0] = doctored;
    fs::write(&paths[1], format!("{}\n", all.join("\n"))).expect("rewrite");
    match merge_shard_journals(&paths, &header) {
        Err(ShardError::Journal(JournalError::HeaderMismatch {
            path,
            expected,
            found,
        })) => {
            assert!(path.ends_with("campaign.shard-1.jsonl"), "{path}");
            assert_eq!(expected.differing_fields(&found), ["version"]);
        }
        other => panic!("v9 shard journal accepted: {other:?}"),
    }
}

#[test]
fn merge_rejects_mixed_trace_regimes() {
    let (_dir, paths, header) = merged_fixture("mixed-regime");
    // Doctor shard-1's header to claim it ran trace=off while the campaign
    // (and shard 0) ran the default full regime: the header mismatch names
    // the regime field.
    let lines = journal_lines(&paths[1]);
    let doctored = lines[0].replace("\"trace_regime\":\"full\"", "\"trace_regime\":\"off\"");
    assert_ne!(doctored, lines[0], "header must carry the regime field");
    let mut all = lines.clone();
    all[0] = doctored;
    fs::write(&paths[1], format!("{}\n", all.join("\n"))).expect("rewrite");
    match merge_shard_journals(&paths, &header) {
        Err(ShardError::Journal(JournalError::HeaderMismatch {
            path,
            expected,
            found,
        })) => {
            assert!(path.ends_with("campaign.shard-1.jsonl"), "{path}");
            assert_eq!(expected.differing_fields(&found), ["trace_regime"]);
            assert_eq!(found.trace_regime, chaser::TraceRegime::Off);
        }
        other => panic!("mixed-regime merge accepted: {other:?}"),
    }
}

#[test]
fn merge_rejects_an_empty_shard_journal() {
    let (_dir, paths, header) = merged_fixture("empty");
    fs::write(&paths[1], "").expect("truncate");
    match merge_shard_journals(&paths, &header) {
        Err(ShardError::Journal(JournalError::Malformed { path, .. })) => {
            assert!(path.ends_with("campaign.shard-1.jsonl"), "{path}");
        }
        other => panic!("empty journal accepted: {other:?}"),
    }
}

#[test]
fn merge_rejects_a_journal_missing_its_shard_assignment() {
    let (_dir, paths, header) = merged_fixture("no-meta");
    // Header only — the shard-assignment line never made it to disk.
    let lines = journal_lines(&paths[1]);
    fs::write(&paths[1], format!("{}\n", lines[0])).expect("rewrite");
    match merge_shard_journals(&paths, &header) {
        Err(ShardError::Journal(JournalError::Malformed { path, msg, .. })) => {
            assert!(path.ends_with("campaign.shard-1.jsonl"), "{path}");
            assert!(msg.contains("shard-assignment"), "{msg}");
        }
        other => panic!("meta-less journal accepted: {other:?}"),
    }
}

#[test]
fn merge_reports_missing_runs() {
    let (_dir, paths, header) = merged_fixture("missing");
    let mut lines = journal_lines(&paths[0]);
    lines.remove(2); // drop one row
    fs::write(&paths[0], format!("{}\n", lines.join("\n"))).expect("rewrite");
    match merge_shard_journals(&paths, &header) {
        Err(ShardError::MissingRuns { count: 1, .. }) => {}
        other => panic!("incomplete merge accepted: {other:?}"),
    }
}

#[test]
fn merge_rejects_rows_outside_their_shard_range() {
    let (_dir, paths, header) = merged_fixture("out-of-range");
    // Graft a shard-1 row into shard-0's journal: valid bytes, wrong file.
    let stray = journal_lines(&paths[1])[2].clone();
    let lines = journal_lines(&paths[0]);
    fs::write(&paths[0], format!("{}\n{stray}\n", lines.join("\n"))).expect("rewrite");
    match merge_shard_journals(&paths, &header) {
        Err(ShardError::RowOutOfRange { path, .. }) => {
            assert!(path.ends_with("campaign.shard-0.jsonl"), "{path}");
        }
        other => panic!("out-of-range row accepted: {other:?}"),
    }
}
