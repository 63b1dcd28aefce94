//! Journaled resume: a campaign journaled as one shard and run again over
//! its journal reproduces the uninterrupted campaign's outcome CSV byte for
//! byte, no matter where a kill lands — after any complete row, with any
//! torn prefix of the next row — and a journal that does not belong to the
//! campaign, or is damaged anywhere but its final row, is refused.

#[path = "support/resume.rs"]
mod resume;
#[path = "support/temp_dir.rs"]
mod temp_dir;

use chaser::{AppSpec, Campaign, CampaignConfig, JournalError, ShardError, TraceRegime};
use chaser_isa::InsnClass;
use chaser_workloads::matvec;
use proptest::prelude::*;
use resume::{journal_path, journaled, resume_cut};
use std::fs;
use std::sync::OnceLock;
use temp_dir::TempDir;

const RUNS: u64 = 12;

fn campaign() -> Campaign {
    campaign_with(TraceRegime::default())
}

fn campaign_with(regime: TraceRegime) -> Campaign {
    let mv = matvec::MatvecConfig::default();
    let app = AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 4);
    Campaign::new(
        app,
        CampaignConfig {
            runs: RUNS,
            seed: 0xBEEF,
            parallelism: 2,
            classes: vec![InsnClass::Mov],
            trace_regime: regime,
            ..CampaignConfig::default()
        },
    )
}

/// The uninterrupted reference CSV, computed once.
fn clean_csv() -> &'static str {
    static CSV: OnceLock<String> = OnceLock::new();
    CSV.get_or_init(|| campaign().run().to_csv())
}

/// Writes a real journal, hands its text to `mangle`, writes the result
/// back and returns the journal error that running the campaign again
/// over it ends in.
fn resume_mangled(tag: &str, mangle: impl FnOnce(String) -> String) -> JournalError {
    let dir = TempDir::new(&format!("journal-neg-{tag}"));
    journaled(&campaign(), &dir).expect("journaled run");
    let path = journal_path(&dir);
    let text = fs::read_to_string(&path).expect("journal readable");
    fs::write(&path, mangle(text)).expect("rewrite journal");
    match journaled(&campaign(), &dir) {
        Err(ShardError::Journal(err)) => err,
        other => panic!("mangled journal resumed: {other:?}"),
    }
}

#[test]
fn resume_rejects_an_empty_journal() {
    let err = resume_mangled("empty", |_| String::new());
    assert!(
        err.to_string().contains("empty journal"),
        "unexpected error: {err}"
    );
}

#[test]
fn resume_rejects_a_corrupt_config_fingerprint() {
    // Flip one digit of the header's config hash: the journal then claims
    // to belong to a differently-configured campaign.
    let err = resume_mangled("fingerprint", |text| {
        let (header, rest) = text.split_once('\n').expect("header line");
        let at = header.find("\"config_hash\":").expect("hash field") + "\"config_hash\":".len();
        let mut h: Vec<char> = header.chars().collect();
        // Flip the *last* digit: flipping the leading digit of a 20-digit
        // hash can push it past u64::MAX and fail parsing instead.
        let mut end = at;
        while end < h.len() && h[end].is_ascii_digit() {
            end += 1;
        }
        h[end - 1] = if h[end - 1] == '9' { '1' } else { '9' };
        format!("{}\n{rest}", h.into_iter().collect::<String>())
    });
    assert!(
        matches!(err, JournalError::HeaderMismatch { .. }),
        "unexpected error: {err}"
    );
}

#[test]
fn resume_rejects_a_v10_journal() {
    assert_eq!(chaser::JOURNAL_VERSION, 11);
    let err = resume_mangled("v10", |text| {
        let doctored = text.replacen("\"chaser_journal\":11", "\"chaser_journal\":10", 1);
        assert_ne!(doctored, text, "header must carry the version field");
        doctored
    });
    match &err {
        JournalError::HeaderMismatch {
            expected, found, ..
        } => assert_eq!(expected.differing_fields(found), ["version"]),
        other => panic!("unexpected error: {other}"),
    }
}

/// Writes a journal under `wrote` and resumes it under `resumed`,
/// asserting the cross-regime resume is refused with a header mismatch
/// whose message names the `trace_regime` field.
fn assert_regime_flip_rejected(wrote: TraceRegime, resumed: TraceRegime) {
    let dir = TempDir::new(&format!(
        "journal-regime-{}-{}",
        wrote.name(),
        resumed.name()
    ));
    journaled(&campaign_with(wrote), &dir).expect("journaled run");
    match resume_cut(&campaign_with(resumed), &dir, 4, 0) {
        Err(ShardError::Journal(err @ JournalError::HeaderMismatch { .. })) => assert!(
            err.to_string().contains("trace_regime"),
            "mismatch must name the regime field: {err}"
        ),
        other => panic!("cross-regime resume must be refused: {other:?}"),
    }
}

#[test]
fn resume_rejects_an_off_journal_under_full_config() {
    assert_regime_flip_rejected(TraceRegime::Off, TraceRegime::Full);
}

#[test]
fn resume_rejects_a_full_journal_under_off_config() {
    assert_regime_flip_rejected(TraceRegime::Full, TraceRegime::Off);
}

#[test]
fn resume_rejects_a_truncated_header() {
    // A kill during the very first write leaves a torn header; unlike a
    // torn trailing *row*, that is not recoverable.
    let err = resume_mangled("torn-header", |text| {
        let header = text.split('\n').next().expect("header line");
        header[..header.len() / 2].to_string()
    });
    match &err {
        JournalError::Malformed { path, line, .. } => {
            // Errors must name the offending journal and line.
            assert!(
                path.ends_with("campaign.shard-0.jsonl"),
                "path context: {path:?}"
            );
            assert_eq!(*line, 1, "header lives on line 1");
        }
        other => panic!("unexpected error: {other}"),
    }
    assert!(
        err.to_string().contains("campaign.shard-0.jsonl:1"),
        "display carries path:line context: {err}"
    );
}

#[test]
fn resume_rejects_corruption_before_the_final_row() {
    // Only the final unterminated line may be damaged (the kill
    // signature); a mangled row in the middle is real corruption.
    let err = resume_mangled("mid-row", |text| {
        let mut lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() > 3, "need rows to corrupt");
        lines[2] = "{\"run_idx\":bogus";
        format!("{}\n", lines.join("\n"))
    });
    match &err {
        JournalError::Malformed { path, line, .. } => {
            assert!(
                path.ends_with("campaign.shard-0.jsonl"),
                "path context: {path:?}"
            );
            assert_eq!(*line, 3, "corrupted row lives on line 3");
        }
        other => panic!("unexpected error: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn resume_from_any_kill_point_is_byte_identical(
        keep_rows in 0usize..=(RUNS as usize),
        torn_percent in 0usize..100,
    ) {
        let dir = TempDir::new(&format!("journal-prop-{keep_rows}-{torn_percent}"));
        journaled(&campaign(), &dir).expect("journaled run");
        let resumed = resume_cut(&campaign(), &dir, keep_rows, torn_percent).expect("resume");
        prop_assert_eq!(clean_csv(), resumed.to_csv());
    }
}
