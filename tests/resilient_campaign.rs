//! Resilience guarantees of the campaign engine: harness panics are
//! quarantined as [`Outcome::HarnessFault`] rows while every other run
//! completes, watchdog budgets classify runaways deterministically, and a
//! journaled campaign killed mid-way resumes to a byte-identical result.

#[path = "support/resume.rs"]
mod resume;
#[path = "support/temp_dir.rs"]
mod temp_dir;

use chaser::{AppSpec, Campaign, CampaignConfig, JournalError, Outcome, ShardError, TermCause};
use chaser_isa::InsnClass;
use chaser_mpi::{BudgetKind, RunBudget};
use chaser_workloads::matvec;
use resume::{journal_path, journaled, resume_cut};
use std::fs;
use temp_dir::TempDir;

fn campaign(cfg: CampaignConfig) -> Campaign {
    let mv = matvec::MatvecConfig::default();
    let app = AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 4);
    Campaign::new(app, cfg)
}

fn base_cfg(runs: u64) -> CampaignConfig {
    CampaignConfig {
        runs,
        seed: 0xC0DE,
        parallelism: 2,
        classes: vec![InsnClass::Mov],
        ..CampaignConfig::default()
    }
}

/// The ISSUE 2 acceptance campaign: one forced harness panic plus a budget
/// tight enough to stop the longest-lived runs, in one 20-run campaign.
/// Every remaining run must still complete and classify normally.
#[test]
fn panics_and_budget_stops_are_quarantined_not_fatal() {
    let mut cfg = base_cfg(20);
    cfg.panic_runs = vec![3];
    // Above every injection point, below the full-length (benign/SDC) runs:
    // long-lived runs hit the watchdog, early crashes keep their own cause.
    cfg.run_budget = RunBudget {
        max_insns: 4_500,
        max_rounds: 0,
    };
    let result = campaign(cfg.clone()).run();

    // The campaign completed: every run index is accounted for.
    assert_eq!(result.outcomes.len() as u64 + result.skipped, 20);

    // Exactly the forced panic came back quarantined, with the run index
    // and panic message preserved in the row.
    let faults: Vec<_> = result.harness_faults().collect();
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].run_idx, 3);
    match &faults[0].outcome {
        Outcome::HarnessFault {
            run_idx,
            payload,
            cause,
        } => {
            assert_eq!(*run_idx, 3);
            assert!(payload.contains("forced harness panic"), "{payload}");
            // A quarantined panic is not a degraded shard row.
            assert_eq!(*cause, None);
        }
        other => panic!("expected a harness fault, got {other}"),
    }
    assert_eq!(result.outcome_counts().harness_faults, 1);

    // The watchdog fired on the long-lived runs and is attributed in the
    // termination breakdown. The budget is checked once at the round
    // start — every rank that was runnable gets the remaining allowance as
    // its slice cap — so the stop overshoots the boundary by at most one
    // round, and by the same amount for every `rank_threads` value (the
    // replay comparison below pins the exact figure).
    let budget_rows: Vec<_> = result
        .outcomes
        .iter()
        .filter(|o| {
            matches!(
                o.outcome,
                Outcome::Terminated(TermCause::BudgetExhausted(BudgetKind::Insns))
            )
        })
        .collect();
    assert!(!budget_rows.is_empty(), "no run hit the watchdog");
    for row in &budget_rows {
        assert!(row.total_insns >= 4_500, "stopped short of the budget");
        assert!(
            row.total_insns < 4_500 + 4 * 4_500,
            "overshoot exceeds one round: {}",
            row.total_insns
        );
    }
    assert_eq!(
        result.termination_breakdown().budget_exhausted,
        budget_rows.len() as u64
    );

    // Other causes survive alongside: the budget quarantines runaways, it
    // does not repaint crashes that happened first.
    assert!(result.outcomes.iter().any(|o| matches!(
        o.outcome,
        Outcome::Terminated(TermCause::OsException { .. })
    )));

    // Harness faults say nothing about the target: excluded from the
    // Fig. 6 percentages.
    assert_eq!(
        result.outcome_counts().total() + 1 + result.skipped,
        20,
        "classified + quarantined + skipped must cover the campaign"
    );

    // Deterministic replay: the identical configuration reproduces the
    // identical rows, panic and budget stops included.
    let replay = campaign(cfg).run();
    assert_eq!(result.to_csv(), replay.to_csv());
}

/// A budget no run reaches must not perturb a single outcome.
#[test]
fn unreached_budget_changes_nothing() {
    let unlimited = campaign(base_cfg(15)).run();
    let mut cfg = base_cfg(15);
    cfg.run_budget = RunBudget {
        max_insns: u64::MAX / 2,
        max_rounds: u64::MAX / 2,
    };
    let generous = campaign(cfg).run();
    assert_eq!(unlimited.to_csv(), generous.to_csv());
    assert_eq!(unlimited.skipped, generous.skipped);
}

/// Kill-and-resume: truncate the journal mid-row (the shape a SIGKILL
/// leaves behind) and resume; the merged result must match an
/// uninterrupted campaign byte for byte.
#[test]
fn resume_after_kill_reproduces_the_campaign_byte_for_byte() {
    let cfg = base_cfg(20);
    let clean = campaign(cfg.clone()).run();

    let dir = TempDir::new("resilient-kill");
    let full = journaled(&campaign(cfg.clone()), &dir).expect("journal");
    assert_eq!(clean.to_csv(), full.to_csv());

    // Simulate the kill: keep the header, the assignment line, the first
    // 6 complete rows and half of the 7th.
    let resumed = resume_cut(&campaign(cfg.clone()), &dir, 6, 50).expect("resume");
    assert_eq!(clean.to_csv(), resumed.to_csv());
    assert_eq!(clean.skipped, resumed.skipped);
    assert_eq!(clean.outcome_counts(), resumed.outcome_counts());

    // The journal now holds every run again; a second resume re-executes
    // nothing and still reproduces the result.
    let re_resumed = journaled(&campaign(cfg), &dir).expect("second resume");
    assert_eq!(clean.to_csv(), re_resumed.to_csv());
    assert!(re_resumed
        .shard_stats
        .per_shard
        .iter()
        .all(|s| s.attempts == 0));
}

/// A journal whose header was tampered with — or that belongs to a
/// different campaign — must be rejected, not silently merged.
#[test]
fn tampered_or_foreign_journals_are_rejected() {
    let cfg = base_cfg(8);
    let dir = TempDir::new("resilient-tamper");
    journaled(&campaign(cfg.clone()), &dir).expect("journal");

    // Different campaign (other seed): header mismatch.
    let mut other = cfg.clone();
    other.seed ^= 1;
    match journaled(&campaign(other), &dir) {
        Err(ShardError::Journal(JournalError::HeaderMismatch {
            path,
            expected,
            found,
        })) => {
            assert_ne!(expected.seed, found.seed);
            // Header-mismatch errors name the offending file.
            assert!(path.ends_with(".jsonl"), "path context: {path:?}");
        }
        other => panic!("foreign journal accepted: {other:?}"),
    }

    // Same campaign, doctored golden digest: header mismatch.
    let path = journal_path(&dir);
    let text = fs::read_to_string(&path).expect("journal readable");
    let (header, rest) = text.split_once('\n').expect("header line");
    let needle = "\"golden_digest\":";
    let at = header.find(needle).expect("digest field") + needle.len();
    let digit_end = header[at..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(header.len(), |i| at + i);
    let digit = &header[at..digit_end];
    let doctored: u64 = digit.parse::<u64>().expect("digit").wrapping_add(1);
    let tampered = format!(
        "{}{}{}\n{}",
        &header[..at],
        doctored,
        &header[digit_end..],
        rest
    );
    fs::write(&path, tampered).expect("tamper");
    match journaled(&campaign(cfg), &dir) {
        Err(ShardError::Journal(JournalError::HeaderMismatch {
            expected, found, ..
        })) => {
            assert_ne!(expected.golden_digest, found.golden_digest);
        }
        other => panic!("tampered journal accepted: {other:?}"),
    }
}
