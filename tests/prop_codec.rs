//! Fuzzing the journal codec on the bytes the service forwards: the
//! streamer splices shard journal lines into row frames without parsing
//! them, so whatever a damaged journal holds reaches `parse_json` (client
//! side) and `CampaignJournal::read_shard` (merge side) as it is. Both
//! must answer random bytes, truncations and single-byte mutations of real
//! rows with a value or a typed error, never a panic. Real rows come from
//! small bfs and clamr_sim campaigns and a bfs campaign whose shard is
//! quarantined.

use chaser::{
    encode_json, parse_json, shard_journal_path, AppSpec, Campaign, CampaignConfig,
    CampaignJournal, ChaosKind, JournalError, ShardChaos, ShardSupervision,
};
use chaser_isa::InsnClass;
use chaser_workloads::{bfs, clamr};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

#[path = "support/damage.rs"]
mod support;
use support::damage;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chaser-codec-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn journal_of(name: &str, app: AppSpec, cfg: CampaignConfig) -> Vec<u8> {
    let dir = temp_dir(name);
    let base = dir.join("campaign.jsonl");
    Campaign::new(app, cfg)
        .run_sharded(&base)
        .expect("fixture campaign");
    let bytes = std::fs::read(shard_journal_path(&base, 0)).expect("fixture journal");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// Whole shard journals: bfs, clamr_sim, and bfs with four of its six
/// runs quarantined (one attempt, no retry, the worker bails after two
/// rows).
fn journals() -> &'static [Vec<u8>] {
    static JOURNALS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    JOURNALS.get_or_init(|| {
        let bfs_app = || AppSpec::single(bfs::program(&bfs::BfsConfig::default()));
        // One worker: rows land in run order, so the fixtures (and a
        // failing case drawn from them) are the same on every run.
        let cfg = CampaignConfig {
            runs: 6,
            shards: 1,
            parallelism: 1,
            classes: vec![InsnClass::Mov, InsnClass::IntAlu],
            ..CampaignConfig::default()
        };
        let clamr_cfg = clamr::ClamrConfig {
            ncells: 16,
            ranks: 2,
            ..clamr::ClamrConfig::default()
        };
        let clamr_app = AppSpec::replicated(clamr::program(&clamr_cfg), 2, 2);
        let quarantined = CampaignConfig {
            shard_supervision: ShardSupervision {
                max_retries: 0,
                ..ShardSupervision::default()
            },
            shard_chaos: vec![ShardChaos {
                shard: 0,
                after_rows: 2,
                attempts: 1,
                kind: ChaosKind::Kill,
            }],
            ..cfg.clone()
        };
        vec![
            journal_of("bfs", bfs_app(), cfg.clone()),
            journal_of(
                "clamr",
                clamr_app,
                CampaignConfig {
                    runs: 4,
                    classes: vec![InsnClass::FpArith],
                    ..cfg
                },
            ),
            journal_of("quarantined", bfs_app(), quarantined),
        ]
    })
}

/// Every line of every fixture journal (headers, assignments, rows).
fn lines() -> Vec<&'static str> {
    journals()
        .iter()
        .flat_map(|j| std::str::from_utf8(j).expect("UTF-8").lines())
        .collect()
}

/// What a parse may answer: a value that re-encodes to a fixed point, or
/// a `Malformed` error.
fn check_parse(text: &str) -> Result<(), TestCaseError> {
    match parse_json(text) {
        Ok(v) => {
            let mut once = String::new();
            encode_json(&v, &mut once);
            prop_assert_eq!(parse_json(&once).ok(), Some(v), "{}", text);
        }
        Err(e) => prop_assert!(matches!(e, JournalError::Malformed { .. }), "{e}"),
    }
    Ok(())
}

#[test]
fn real_lines_are_canonical() {
    for line in lines() {
        let mut again = String::new();
        encode_json(&parse_json(line).expect("real line parses"), &mut again);
        assert_eq!(again, line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn parse_json_answers_damaged_rows(
        pick in any::<usize>(),
        kind in 0u8..5,
        at in any::<u64>(),
        byte in any::<u8>(),
        noise in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let lines = lines();
        let bytes = damage(lines[pick % lines.len()].as_bytes(), kind, at, byte, &noise);
        check_parse(&String::from_utf8_lossy(&bytes))?;
    }
}

fn read_damaged(path: &Path, bytes: &[u8]) -> Result<(), TestCaseError> {
    std::fs::write(path, bytes).expect("write damaged journal");
    match CampaignJournal::read_shard(path) {
        Ok((_, _, rows)) => {
            prop_assert!(rows.len() <= bytes.iter().filter(|&&b| b == b'\n').count() + 1);
        }
        Err(JournalError::Io { .. } | JournalError::Malformed { .. }) => {}
        Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn read_shard_answers_damaged_journals(
        pick in any::<usize>(),
        kind in 0u8..5,
        at in any::<u64>(),
        byte in any::<u8>(),
        noise in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let journals = journals();
        let bytes = damage(&journals[pick % journals.len()], kind, at, byte, &noise);
        let dir = temp_dir("read-shard");
        let outcome = read_damaged(&dir.join("j.jsonl"), &bytes);
        let _ = std::fs::remove_dir_all(&dir);
        outcome?;
    }
}
