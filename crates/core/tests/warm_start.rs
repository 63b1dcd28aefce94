//! The checkpoint ladder at campaign level: every run restores from a rung,
//! classifies exactly as the same fault executed from launch, and skips a
//! measurable share of the golden run doing so. (`tests/prop_ladder.rs`
//! holds the full equivalence contract; the `warm_start` field these
//! configs still set is inert.)

use chaser::{
    run_app, run_warm, AppSpec, Campaign, CampaignConfig, CampaignResult, JournalError, RankPool,
    ShardError,
};
use chaser_isa::InsnClass;
use chaser_workloads::matvec;
use resume::{journaled, resume_cut};
use temp_dir::TempDir;

#[path = "../../../tests/support/resume.rs"]
mod resume;
#[path = "../../../tests/support/temp_dir.rs"]
mod temp_dir;

const RUNS: u64 = 24;

/// Matvec on a fine scheduling quantum, so the golden run spans ~50 rounds
/// and the ladder has a full set of rungs.
fn app() -> AppSpec {
    let mv = matvec::MatvecConfig::default();
    let mut app = AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 2);
    app.cluster.quantum = 200;
    app
}

fn config(warm_start: bool, tracing: bool) -> CampaignConfig {
    CampaignConfig {
        runs: RUNS,
        seed: 0x5EED_CAFE,
        parallelism: 2,
        classes: vec![InsnClass::FpArith],
        rank_pool: RankPool::Random,
        tracing,
        warm_start,
        ..CampaignConfig::default()
    }
}

/// What a row says about its run, as the outcome CSV would.
type Row = (u64, String, u32, u64, u64, u64, u64, u64, Option<u64>);

fn campaign_rows(result: &CampaignResult) -> Vec<Row> {
    result
        .outcomes
        .iter()
        .map(|o| {
            (
                o.run_idx,
                o.outcome.to_string(),
                o.rank,
                o.trigger_n,
                o.taint_reads,
                o.taint_writes,
                o.cross_rank,
                o.total_insns,
                o.record.as_ref().map(|r| r.pc),
            )
        })
        .collect()
}

/// The same rows from runs that never see a snapshot: each fault executed
/// from launch. Returns them with the number of faults that never fired.
fn rows_from_launch(campaign: &Campaign, app: &AppSpec) -> (Vec<Row>, u64) {
    let prepared = campaign.prepare();
    let mut rows = Vec::new();
    let mut skipped = 0;
    for idx in 0..RUNS {
        let Some((spec, trigger_n)) = campaign.fault_for(&prepared, idx) else {
            skipped += 1;
            continue;
        };
        let rank = spec.target_rank;
        let report = run_app(app, &campaign.run_options(spec));
        if !report.injected() {
            skipped += 1;
            continue;
        }
        let trace = report.trace.as_ref();
        rows.push((
            idx,
            report.classify_against(&prepared.golden).to_string(),
            rank,
            trigger_n,
            trace.map_or(0, |t| t.taint_reads),
            trace.map_or(0, |t| t.taint_writes),
            report.cluster.cross_rank_tainted_deliveries,
            report.cluster.total_insns,
            report.injections.first().map(|r| r.pc),
        ));
    }
    (rows, skipped)
}

#[test]
fn warm_campaign_matches_cold_byte_for_byte() {
    let campaign = Campaign::new(app(), config(true, false));
    let result = campaign.run();
    let (expected, skipped) = rows_from_launch(&campaign, &app());
    assert_eq!(campaign_rows(&result), expected);
    assert_eq!(result.skipped, skipped);
    // The retired knob changes nothing, CSV included.
    let unset = Campaign::new(app(), config(false, false)).run();
    assert_eq!(unset.to_csv(), result.to_csv());
    assert_eq!(unset.snapshot_stats, result.snapshot_stats);

    // Every run that reaches a cluster restores exactly once. Runs whose
    // drawn rank has no viable class skip before that (the master never
    // computes fp).
    let prepared = campaign.prepare();
    let executed = (0..RUNS)
        .filter(|&idx| campaign.fault_for(&prepared, idx).is_some())
        .count() as u64;
    let s = result.snapshot_stats;
    assert_eq!(s.restores, executed);
    assert!(executed > RUNS / 2);
    assert!(s.pages_shared > 0, "restores must adopt shared pages");
    assert!(
        s.pages_cow < s.pages_shared,
        "the suffix dirty set must stay below full residency (CoW wins)"
    );

    // What the ladder is for: on average a run skips at least 30 % of the
    // golden run (uniform triggers put the mean fault half-way in, and the
    // rung below it is at most a sixteenth of the run further back).
    let golden = prepared.golden.cluster.total_insns;
    assert!(
        s.insns_skipped * 10 >= 3 * executed * golden,
        "{} insns skipped over {executed} runs of a {golden}-insn golden run",
        s.insns_skipped
    );
    let mut skipped_sum = 0;
    for idx in 0..RUNS {
        let Some((spec, _)) = campaign.fault_for(&prepared, idx) else {
            continue;
        };
        let report = run_warm(&prepared, &campaign.run_options(spec), true);
        assert_eq!(report.snapshot.restores, 1);
        assert!(
            report.cluster.total_insns >= report.snapshot.insns_skipped,
            "reported totals must include the restored prefix"
        );
        skipped_sum += report.snapshot.insns_skipped;
    }
    assert_eq!(skipped_sum, s.insns_skipped);
}

#[test]
fn resume_rejects_journal_from_a_different_execution_regime() {
    let dir = TempDir::new("warm-journal");
    journaled(&Campaign::new(app(), config(false, false)), &dir).expect("journaled run");

    // `warm_start` is no longer a regime: it left the config fingerprint
    // with the choice it used to make.
    let flipped = resume_cut(&Campaign::new(app(), config(true, false)), &dir, 5, 0);
    assert!(flipped.is_ok(), "the inert field must not bind a journal");
    // The scheduler's thread count still is one.
    let mut cfg = config(false, false);
    cfg.rank_threads = 2;
    let threaded = resume_cut(&Campaign::new(app(), cfg), &dir, 5, 0);
    assert!(
        matches!(
            threaded,
            Err(ShardError::Journal(JournalError::HeaderMismatch { .. }))
        ),
        "resume accepted a journal from a different rank_threads regime"
    );

    // Unchanged config still resumes cleanly.
    let same = resume_cut(&Campaign::new(app(), config(false, false)), &dir, 5, 0);
    assert!(same.is_ok(), "identical config must resume");
}

#[test]
fn warm_campaign_matches_cold_with_tracing() {
    let campaign = Campaign::new(app(), config(true, true));
    let result = campaign.run();
    let (expected, skipped) = rows_from_launch(&campaign, &app());
    assert_eq!(campaign_rows(&result), expected);
    assert_eq!(result.skipped, skipped);
    assert!(
        expected.iter().any(|row| row.4 + row.5 > 0),
        "a traced campaign must observe tainted accesses"
    );
    assert!(result.snapshot_stats.restores > 0);
}
