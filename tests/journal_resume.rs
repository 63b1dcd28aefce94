//! Property test for journaled resume: no matter where a kill lands in the
//! journal — after any complete row, with any torn prefix of the next row —
//! resuming reproduces the uninterrupted campaign's outcome CSV byte for
//! byte.

use chaser::{AppSpec, Campaign, CampaignConfig, TraceRegime};
use chaser_isa::InsnClass;
use chaser_workloads::matvec;
use proptest::prelude::*;
use std::fs;
use std::sync::OnceLock;

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
/// back and returns what `resume` says about it.
fn resume_mangled(
    tag: &str,
    mangle: impl FnOnce(String) -> String,
) -> Result<chaser::CampaignResult, chaser::JournalError> {
    let dir = std::env::temp_dir().join(format!("chaser-journal-neg-{}-{tag}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("campaign.jsonl");
    campaign().run_journaled(&path).expect("journaled run");
    let text = fs::read_to_string(&path).expect("journal readable");
    fs::write(&path, mangle(text)).expect("rewrite journal");
    let out = campaign().resume(&path);
    let _ = fs::remove_dir_all(&dir);
    out
}

#[test]
fn resume_rejects_an_empty_journal() {
    let err = resume_mangled("empty", |_| String::new()).expect_err("empty file must not resume");
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
    })
    .expect_err("corrupt fingerprint must not resume");
    assert!(
        matches!(err, chaser::JournalError::HeaderMismatch { .. }),
        "unexpected error: {err}"
    );
}

#[test]
fn resume_rejects_a_v9_journal() {
    assert_eq!(chaser::JOURNAL_VERSION, 10);
    let err = resume_mangled("v9", |text| {
        let doctored = text.replacen("\"chaser_journal\":10", "\"chaser_journal\":9", 1);
        assert_ne!(doctored, text, "header must carry the version field");
        doctored
    })
    .expect_err("a v9 journal must not resume");
    match &err {
        chaser::JournalError::HeaderMismatch {
            expected, found, ..
        } => assert_eq!(expected.differing_fields(found), ["version"]),
        other => panic!("unexpected error: {other}"),
    }
}

/// Writes a journal under `wrote` and resumes it under `resumed`,
/// asserting the cross-regime resume is refused with a header mismatch
/// whose message names the `trace_regime` field.
fn assert_regime_flip_rejected(wrote: TraceRegime, resumed: TraceRegime) {
    let dir = std::env::temp_dir().join(format!(
        "chaser-journal-regime-{}-{}-{}",
        std::process::id(),
        wrote.name(),
        resumed.name()
    ));
    fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("campaign.jsonl");
    campaign_with(wrote)
        .run_journaled(&path)
        .expect("journaled run");
    let err = campaign_with(resumed)
        .resume(&path)
        .expect_err("cross-regime resume must be refused");
    let _ = fs::remove_dir_all(&dir);
    assert!(
        matches!(err, chaser::JournalError::HeaderMismatch { .. }),
        "unexpected error: {err}"
    );
    assert!(
        err.to_string().contains("trace_regime"),
        "mismatch must name the regime field: {err}"
    );
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
    })
    .expect_err("torn header must not resume");
    match &err {
        chaser::JournalError::Malformed { path, line, .. } => {
            // Satellite: errors must name the offending journal and line.
            assert!(path.ends_with("campaign.jsonl"), "path context: {path:?}");
            assert_eq!(*line, 1, "header lives on line 1");
        }
        other => panic!("unexpected error: {other}"),
    }
    assert!(
        err.to_string().contains("campaign.jsonl:1"),
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
    })
    .expect_err("mid-journal corruption must not resume");
    match &err {
        chaser::JournalError::Malformed { path, line, .. } => {
            assert!(path.ends_with("campaign.jsonl"), "path context: {path:?}");
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
        tear_frac in 0u64..100,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "chaser-journal-prop-{}-{keep_rows}-{tear_frac}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("campaign.jsonl");

        campaign().run_journaled(&path).expect("journaled run");
        let text = fs::read_to_string(&path).expect("journal readable");
        let lines: Vec<&str> = text.lines().collect();

        // Kill after the header + `keep_rows` complete rows, tearing off a
        // prefix of the next row when there is one.
        let keep = (1 + keep_rows).min(lines.len());
        let mut truncated = lines[..keep].join("\n");
        truncated.push('\n');
        if let Some(next) = lines.get(keep) {
            let cut = (next.len() as u64 * tear_frac / 100) as usize;
            truncated.push_str(&next[..cut]);
        }
        fs::write(&path, truncated).expect("truncate");

        let resumed_csv = campaign().resume(&path).expect("resume").to_csv();
        prop_assert_eq!(clean_csv(), resumed_csv.as_str());

        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
    }
}
