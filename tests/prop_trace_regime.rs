//! Property tests for the trace-regime knob: `Off`, `TaintOnly` and
//! `Full` are *observationally equivalent* on everything the statistical
//! mode keeps — every run's terminal classification and the campaign's
//! golden digest — across cold, warm-started and journal-resumed
//! executions; and the Full-vs-Off outcome CSVs differ **only** in the
//! trace-derived columns.

#[path = "support/resume.rs"]
mod resume;
#[path = "support/temp_dir.rs"]
mod temp_dir;

use chaser::{AppSpec, Campaign, CampaignConfig, CampaignResult, TraceRegime};
use chaser_isa::InsnClass;
use chaser_workloads::matvec;
use proptest::prelude::*;
use resume::{journal_path, journaled, resume_cut};
use std::fs;
use temp_dir::TempDir;

const RUNS: u64 = 8;

/// How the campaign reaches its result.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Cold,
    WarmStart,
    JournalResume,
}

fn campaign(regime: TraceRegime, seed: u64, warm_start: bool) -> Campaign {
    let mv = matvec::MatvecConfig::default();
    let app = AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 4);
    Campaign::new(
        app,
        CampaignConfig {
            runs: RUNS,
            seed,
            parallelism: 2,
            classes: vec![InsnClass::Mov],
            tracing: regime == TraceRegime::Full,
            provenance: regime == TraceRegime::Full,
            trace_regime: regime,
            warm_start,
            ..CampaignConfig::default()
        },
    )
}

/// Runs one regime leg under `mode`, returning the result plus the journal
/// header's `golden_digest` field (the digest the classification compared
/// against).
fn run_leg(
    regime: TraceRegime,
    seed: u64,
    mode: Mode,
    keep_rows: usize,
) -> (CampaignResult, String) {
    let dir = TempDir::new(&format!("regime-prop-{seed}-{}-{keep_rows}", regime.name()));
    let campaign = campaign(regime, seed, matches!(mode, Mode::WarmStart));
    let mut result = journaled(&campaign, &dir).expect("journaled run");
    let header = fs::read_to_string(journal_path(&dir))
        .expect("journal readable")
        .lines()
        .next()
        .expect("header line")
        .to_string();
    if let Mode::JournalResume = mode {
        // Kill the journal after `keep_rows` complete rows and resume it:
        // the regime must survive the fingerprint check and replay to the
        // same result.
        result = resume_cut(&campaign, &dir, keep_rows, 0).expect("resume");
    }
    let at = header.find("\"golden_digest\":").expect("digest field");
    let digest: String = header[at..]
        .chars()
        .take_while(|c| *c != ',' && *c != '}')
        .collect();
    (result, digest)
}

/// A run's terminal classification, projected without trace-derived data.
fn classification(result: &CampaignResult) -> String {
    result
        .outcomes
        .iter()
        .map(|run| format!("{}|{}|{:?}\n", run.run_idx, run.outcome, run.class))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn regimes_agree_on_classification_and_digest(
        seed in prop_oneof![Just(0xD1CEu64), Just(0xBEE5), Just(0x5EED5)],
        mode_sel in 0u8..3,
        keep_rows in 0usize..=(RUNS as usize),
    ) {
        let mode = match mode_sel {
            0 => Mode::Cold,
            1 => Mode::WarmStart,
            _ => Mode::JournalResume,
        };
        let (off, off_digest) = run_leg(TraceRegime::Off, seed, mode, keep_rows);
        let (taint, taint_digest) = run_leg(TraceRegime::TaintOnly, seed, mode, keep_rows);
        let (full, full_digest) = run_leg(TraceRegime::Full, seed, mode, keep_rows);

        // Terminal classifications agree run for run across all regimes.
        let reference = classification(&full);
        prop_assert_eq!(&classification(&off), &reference);
        prop_assert_eq!(&classification(&taint), &reference);

        // All three classified against the same golden digest.
        prop_assert_eq!(&off_digest, &full_digest);
        prop_assert_eq!(&taint_digest, &full_digest);

        // Full vs Off CSVs differ only in the trace-derived columns:
        // re-rendering the Full result under the Off stamp (which empties
        // exactly those columns) must reproduce the Off CSV byte for byte.
        let mut full_as_off = full.clone();
        full_as_off.trace_regime = TraceRegime::Off;
        prop_assert_eq!(full_as_off.to_csv(), off.to_csv());
        // The Off CSV keeps the schema with those columns empty; Full's
        // carry real data.
        prop_assert!(off.to_csv().lines().skip(1).all(|l| l.contains(",,,,,,,")));
        prop_assert_ne!(off.to_csv(), full.to_csv());
    }
}
