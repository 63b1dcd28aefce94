//! The kill-and-resume leg of a journaled campaign. A campaign with
//! `shards` 0 or 1 journals to one shard journal; a kill leaves its
//! header and assignment lines, some rows and perhaps a torn next row; and
//! running the campaign again over that journal is the resume.

// Each test binary uses the part it needs.
#![allow(dead_code)]

use chaser::{shard_journal_path, Campaign, CampaignResult, ShardError};
use std::path::{Path, PathBuf};

/// Runs `campaign` journaled under `dir`, or resumes it over the journal
/// already there.
pub fn journaled(campaign: &Campaign, dir: &Path) -> Result<CampaignResult, ShardError> {
    campaign.run_sharded(&dir.join("campaign.jsonl"))
}

/// The one journal [`journaled`] writes under `dir`.
pub fn journal_path(dir: &Path) -> PathBuf {
    shard_journal_path(&dir.join("campaign.jsonl"), 0)
}

/// Cuts the journal under `dir` as a kill leaves it — the header and
/// assignment lines, the first `rows` rows, and `torn_percent` % of the
/// next row — and runs `campaign` over it again.
pub fn resume_cut(
    campaign: &Campaign,
    dir: &Path,
    rows: usize,
    torn_percent: usize,
) -> Result<CampaignResult, ShardError> {
    let path = journal_path(dir);
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let lines: Vec<&str> = text.lines().collect();
    let keep = (2 + rows).min(lines.len());
    let mut cut = lines[..keep].join("\n");
    cut.push('\n');
    if let Some(next) = lines.get(keep) {
        cut.push_str(&next[..next.len() * torn_percent / 100]);
    }
    std::fs::write(&path, cut).expect("cut journal");
    journaled(campaign, dir)
}
