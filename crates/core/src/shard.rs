//! Shard supervisor: fault-tolerant sharded campaigns.
//!
//! [`Campaign::run_sharded`] splits a campaign's run-index range into a
//! [`ShardPlan`] of contiguous shards and executes each shard as an
//! isolated worker — an in-process thread by default, or a self-exec
//! subprocess ([`ShardWorkers::Subprocess`]) told its journal through
//! `CHASER_SHARD_JOURNAL`. Every shard appends to its own
//! fingerprint-validated journal (`<base>.shard-K.jsonl`, its assignment
//! on line 2), so worker death costs at most one torn line. Running a
//! campaign again over its journals is how it resumes.
//!
//! The supervisor watches each worker's *journal progress* (file growth vs.
//! [`ShardSupervision::heartbeat_timeout_ms`]): a subprocess that stops
//! appending is a straggler and gets killed. Dead or incomplete workers are
//! relaunched with capped exponential backoff; each relaunch *resumes* the
//! shard journal (replay intact rows, re-execute only the missing
//! indices), so retries never redo finished work and never duplicate rows.
//! A shard that exhausts [`ShardSupervision::max_retries`] is degraded
//! gracefully: its unfinished run indices become quarantined
//! [`Outcome::HarnessFault`] rows whose cause is [`TermCause::ShardLost`],
//! and the campaign still completes.
//!
//! [`merge_shard_journals`] then stitches the shard journals back together
//! deterministically: every header must match the campaign fingerprint,
//! shard ranges must be disjoint and cover the campaign, rows must fall
//! inside their shard's range, and duplicates are either byte-identical
//! (deduped — determinism makes re-executed rows identical) or a typed
//! error. Only a repeated run index is re-encoded for that comparison. The
//! merged [`CampaignResult`], outcome CSV and stats CSV are
//! byte-identical to a single-process [`Campaign::run`] of the same seed
//! and configuration.
//!
//! Each shard journal is decoded once at the end: a supervisor's last
//! completeness check reads the whole journal, and when that read finds
//! the shard complete it goes to the merge in place of the merge's own
//! read. A shard quarantined after its last check, drained or unreadable
//! is read from disk by the merge as before.

use crate::campaign::{quarantined_outcome, Campaign, CampaignResult, ReplayBase};
use crate::journal::{CampaignJournal, JournalError, JournalHeader, JournalRow, ShardMeta};
use crate::outcome::{Outcome, TermCause};
use crate::session::PreparedApp;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Env var carrying the shard journal path to a subprocess worker; the
/// worker reads its assignment from the journal's line 2.
pub const ENV_SHARD_JOURNAL: &str = "CHASER_SHARD_JOURNAL";
/// Env var carrying a chaos directive (`kill:<rows>` / `stall:<rows>`) to a
/// subprocess worker; absent on unharassed launches.
pub const ENV_SHARD_CHAOS: &str = "CHASER_SHARD_CHAOS";

/// How shard workers execute.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ShardWorkers {
    /// In-process worker threads (the default): cheapest, shares the
    /// supervisor's [`PreparedApp`], and a worker "death" can only come
    /// from the cooperative chaos knob.
    #[default]
    Thread,
    /// Self-exec subprocess workers: the argv prefix to spawn (program,
    /// then arguments — e.g. `["/path/chaser_cli", "serve-worker"]`).
    /// The worker finds its journal through `CHASER_SHARD_JOURNAL` and its
    /// assignment on the journal's line 2, so one prefix serves every
    /// shard and attempt.
    /// Process isolation means a worker crash (OOM, abort, SIGKILL) cannot
    /// take the supervisor down.
    Subprocess(Vec<String>),
}

/// A shared, raise-once stop signal: the drain lever the `chaser-serve`
/// daemon (or any embedder) pulls to checkpoint an in-flight sharded
/// campaign. All clones observe the same flag. Once raised, supervisors
/// stop relaunching workers, thread workers drain at run granularity,
/// subprocess workers are reclaimed, and
/// [`Campaign::run_sharded_with`] returns [`ShardError::Interrupted`]
/// instead of degrading the unfinished indices — the shard journals stay
/// resumable.
#[derive(Debug, Clone, Default)]
pub struct StopSignal(Arc<AtomicBool>);

impl StopSignal {
    /// A fresh, unraised signal.
    pub fn new() -> StopSignal {
        StopSignal::default()
    }

    /// Raises the signal. Idempotent and irrevocable.
    pub fn raise(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Has the signal been raised?
    pub fn raised(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Liveness and retry policy for shard workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSupervision {
    /// A subprocess worker whose journal has not grown for this long is
    /// declared a straggler and killed (liveness is *journal progress*,
    /// not process existence — a hung worker is as dead as a crashed one).
    pub heartbeat_timeout_ms: u64,
    /// Relaunches allowed per shard beyond the first attempt; a shard that
    /// is still incomplete after `1 + max_retries` attempts is degraded to
    /// quarantined [`TermCause::ShardLost`] rows.
    pub max_retries: u32,
    /// Backoff before retry `n` is `backoff_base_ms << (n - 1)`, capped at
    /// [`ShardSupervision::backoff_cap_ms`].
    pub backoff_base_ms: u64,
    /// Upper bound on the exponential backoff.
    pub backoff_cap_ms: u64,
}

impl Default for ShardSupervision {
    fn default() -> ShardSupervision {
        ShardSupervision {
            heartbeat_timeout_ms: 30_000,
            max_retries: 3,
            backoff_base_ms: 50,
            backoff_cap_ms: 5_000,
        }
    }
}

/// What a chaos directive does to a worker when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Die abruptly: subprocess workers `exit(9)` mid-campaign (the
    /// SIGKILL shape — possibly leaving a torn final line, which the
    /// reader tolerates); thread workers stop taking indices and drain.
    Kill,
    /// Stop making progress while staying alive: subprocess workers sleep
    /// forever so only the supervisor's journal-progress heartbeat can
    /// reclaim them; thread workers degrade to [`ChaosKind::Kill`].
    Stall,
}

/// One chaos directive for the shard supervisor's fault-injection knob
/// (`CampaignConfig::shard_chaos`): harass `shard`'s workers after they
/// journal `after_rows` rows, on every attempt up to and including
/// `attempts`. Later attempts run unharassed — which is exactly what lets
/// the retry path prove itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardChaos {
    /// The shard whose workers are harassed.
    pub shard: u64,
    /// Rows the worker journals before the chaos fires.
    pub after_rows: u64,
    /// Highest 1-based attempt number still harassed.
    pub attempts: u32,
    /// What happens when it fires.
    pub kind: ChaosKind,
}

/// Per-shard supervision report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard id.
    pub shard: u64,
    /// First run index (inclusive).
    pub start: u64,
    /// End run index (exclusive).
    pub end: u64,
    /// Worker launches this shard took (1 = no retries).
    pub attempts: u64,
    /// Run indices re-dispatched to a relaunched worker (missing rows at
    /// the moment a retry started).
    pub reassigned: u64,
    /// Run indices degraded to quarantined [`TermCause::ShardLost`] rows.
    pub quarantined: u64,
    /// Wall-clock milliseconds from first launch to shard completion.
    pub wall_ms: u64,
}

/// Shard-supervision counters for a whole campaign
/// (`CampaignResult::shard_stats`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shards the campaign ran with (0 = the campaign was not sharded).
    pub shards: u64,
    /// Worker relaunches across all shards.
    pub retries: u64,
    /// Run indices re-dispatched to relaunched workers.
    pub reassignments: u64,
    /// Run indices quarantined after retry exhaustion.
    pub quarantined_runs: u64,
    /// Per-shard detail.
    pub per_shard: Vec<ShardReport>,
}

impl ShardStats {
    /// Renders the per-shard supervision counters as CSV. Deliberately a
    /// separate artifact from `CampaignResult::stats_csv`: wall times are
    /// wall-clock facts, while the per-run stats CSV must stay
    /// byte-identical between sharded and unsharded executions.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("shard,start,end,attempts,reassigned,quarantined,wall_ms\n");
        for s in &self.per_shard {
            out.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                s.shard, s.start, s.end, s.attempts, s.reassigned, s.quarantined, s.wall_ms,
            ));
        }
        out
    }
}

/// The deterministic split of a campaign's run-index range into contiguous
/// shards: pure arithmetic over `(runs, shards)`, so the supervisor and
/// every subprocess worker derive the identical plan independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Total runs covered.
    pub runs: u64,
    /// The shard ranges, in shard-id order; disjoint, contiguous, and
    /// covering `0..runs` exactly.
    pub ranges: Vec<ShardMeta>,
}

impl ShardPlan {
    /// Splits `runs` indices into `shards` near-equal contiguous chunks
    /// (the first `runs % shards` chunks get one extra index). `shards` is
    /// clamped to `1..=runs` (min one shard; never more shards than runs,
    /// except that zero-run campaigns still get one empty shard).
    pub fn split(runs: u64, shards: u64) -> ShardPlan {
        let shards = shards.clamp(1, runs.max(1));
        let base = runs / shards;
        let extra = runs % shards;
        let mut ranges = Vec::with_capacity(shards as usize);
        let mut start = 0;
        for shard in 0..shards {
            let len = base + u64::from(shard < extra);
            ranges.push(ShardMeta {
                shard,
                start,
                end: start + len,
            });
            start += len;
        }
        ShardPlan { runs, ranges }
    }
}

/// Errors from the shard supervisor and the journal merge.
#[derive(Debug)]
pub enum ShardError {
    /// A shard journal failed to read, validate, or write.
    Journal(JournalError),
    /// A shard journal's assignment line disagrees with the campaign's
    /// [`ShardPlan`] (wrong shard id or range for its position).
    MetaMismatch {
        /// The offending journal file.
        path: String,
        /// The assignment the plan dictates.
        expected: ShardMeta,
        /// The assignment the file recorded.
        found: ShardMeta,
    },
    /// A shard journal's range is not contained in `0..runs`.
    BadRange {
        /// The offending journal file.
        path: String,
        /// The recorded assignment.
        meta: ShardMeta,
        /// The campaign's run count.
        runs: u64,
    },
    /// Two shard journals claim overlapping run-index ranges.
    OverlappingShards {
        /// One claimant.
        shard: u64,
        /// The other claimant.
        other: u64,
    },
    /// A row's run index falls outside its journal's declared range.
    RowOutOfRange {
        /// The offending journal file.
        path: String,
        /// The stray row's run index.
        run_idx: u64,
        /// The journal's declared range start (inclusive).
        start: u64,
        /// The journal's declared range end (exclusive).
        end: u64,
    },
    /// Two different rows claim the same run index (byte-identical
    /// duplicates are deduped instead — determinism makes honest
    /// re-executions identical, so a *conflicting* duplicate means the
    /// journals do not belong together).
    ConflictingDuplicate {
        /// The journal file containing the second, conflicting copy.
        path: String,
        /// The contested run index.
        run_idx: u64,
    },
    /// The merged journals do not cover every run index.
    MissingRuns {
        /// How many indices have no row.
        count: u64,
        /// The lowest uncovered index.
        first: u64,
    },
    /// A [`StopSignal`] was raised before every shard finished. Not a
    /// failure: every completed row is in the shard journals, and running
    /// the same campaign over them again resumes exactly the missing
    /// indices.
    Interrupted {
        /// Run indices without a journal row at stop time.
        missing: u64,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Journal(e) => write!(f, "{e}"),
            ShardError::MetaMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "shard journal {path} carries the wrong assignment (expected {expected:?}, found {found:?})"
            ),
            ShardError::BadRange { path, meta, runs } => write!(
                f,
                "shard journal {path} claims range {}..{} outside the campaign's {runs} runs",
                meta.start, meta.end
            ),
            ShardError::OverlappingShards { shard, other } => {
                write!(f, "shards {shard} and {other} claim overlapping run ranges")
            }
            ShardError::RowOutOfRange {
                path,
                run_idx,
                start,
                end,
            } => write!(
                f,
                "shard journal {path} holds run {run_idx} outside its range {start}..{end}"
            ),
            ShardError::ConflictingDuplicate { path, run_idx } => write!(
                f,
                "shard journal {path} holds a conflicting duplicate of run {run_idx}"
            ),
            ShardError::MissingRuns { count, first } => write!(
                f,
                "merged shard journals are missing {count} run(s), first {first}"
            ),
            ShardError::Interrupted { missing } => write!(
                f,
                "sharded campaign stopped with {missing} run(s) unfinished (shard journals are resumable)"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<JournalError> for ShardError {
    fn from(e: JournalError) -> ShardError {
        ShardError::Journal(e)
    }
}

/// What a worker does when its chaos directive fires.
#[derive(Debug, Clone, Copy)]
enum ChaosAction {
    /// Stop taking indices and drain (thread workers).
    Bail,
    /// `exit(9)` — abrupt subprocess death, SIGKILL shape.
    Exit,
    /// Stop appending but stay alive, so only the heartbeat reclaims us.
    Stall,
}

/// The shard worker's control block: counts journal appends (the liveness
/// signal the supervisor watches through the file), carries the chaos
/// directive, and holds the stop flag that drains worker threads.
#[derive(Debug, Default)]
pub(crate) struct ShardCtl {
    appended: AtomicU64,
    stop: AtomicBool,
    chaos: Option<(u64, ChaosAction)>,
    /// External drain lever: when the embedder's [`StopSignal`] is raised,
    /// thread workers stop taking indices just as if the internal stop
    /// flag fired, but without marking the attempt dead.
    ext_stop: Option<StopSignal>,
}

impl ShardCtl {
    fn new(chaos: Option<(u64, ChaosAction)>, ext_stop: Option<StopSignal>) -> ShardCtl {
        ShardCtl {
            chaos,
            ext_stop,
            ..ShardCtl::default()
        }
    }

    /// Should workers stop taking new run indices?
    pub(crate) fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || self.ext_stop.as_ref().is_some_and(StopSignal::raised)
    }

    /// Called by the campaign worker loop after every journal append.
    pub(crate) fn on_row(&self) {
        let n = self.appended.fetch_add(1, Ordering::SeqCst) + 1;
        let Some((after_rows, action)) = self.chaos else {
            return;
        };
        if n != after_rows {
            return;
        }
        // Raise the stop flag first in every case: sibling worker threads
        // must stop appending too, or the "dead" worker would keep making
        // journal progress and the heartbeat would never fire.
        self.stop.store(true, Ordering::SeqCst);
        match action {
            ChaosAction::Bail => {}
            ChaosAction::Exit => std::process::exit(9),
            ChaosAction::Stall => loop {
                std::thread::sleep(Duration::from_millis(50));
            },
        }
    }
}

/// The shard journal path for shard `shard` of the campaign journaled at
/// `base`: `campaign.jsonl` → `campaign.shard-K.jsonl`.
pub fn shard_journal_path(base: &Path, shard: u64) -> PathBuf {
    let stem = base.file_stem().map_or_else(
        || "campaign".to_string(),
        |s| s.to_string_lossy().into_owned(),
    );
    base.with_file_name(format!("{stem}.shard-{shard}.jsonl"))
}

/// One shard journal as [`CampaignJournal::read_shard`] returns it.
type ShardRead = (JournalHeader, ShardMeta, Vec<JournalRow>);

/// Reads the shard journals at `paths`, validates them against `expected`
/// (the campaign's journal header) and each other, and returns the rows
/// stitched into run-index order.
///
/// Merge invariants, each with a typed [`ShardError`]:
/// * every header equals `expected` (same seed, config fingerprint and
///   golden digest);
/// * every declared range lies inside `0..expected.runs` and ranges are
///   pairwise disjoint;
/// * every row's run index lies inside its journal's declared range;
/// * duplicate run indices carry byte-identical rows (deduped) — anything
///   else is [`ShardError::ConflictingDuplicate`];
/// * the union of rows covers every run index exactly once.
///
/// # Errors
///
/// [`ShardError`] naming the offending file and row; never a silent bad
/// merge.
pub fn merge_shard_journals(
    paths: &[PathBuf],
    expected: &JournalHeader,
) -> Result<Vec<JournalRow>, ShardError> {
    merge_shard_reads(paths.iter().map(|p| (p.as_path(), None)), expected)
}

/// The merge behind [`merge_shard_journals`]. Each shard comes with the
/// read its supervisor already holds, or `None` to read the file here;
/// files are read in order as the merge reaches them, so the first bad
/// file is the one reported either way.
fn merge_shard_reads<'a>(
    shards: impl IntoIterator<Item = (&'a Path, Option<ShardRead>)>,
    expected: &JournalHeader,
) -> Result<Vec<JournalRow>, ShardError> {
    let mut metas: Vec<ShardMeta> = Vec::new();
    let mut by_idx: Vec<Option<JournalRow>> = std::iter::repeat_with(|| None)
        .take(expected.runs as usize)
        .collect();
    for (path, held) in shards {
        let (header, meta, rows) = match held {
            Some(read) => read,
            None => CampaignJournal::read_shard(path)?,
        };
        check_shard(path, header, meta, expected, None)?;
        let path_str = || path.display().to_string();
        for prev in &metas {
            if meta.start < prev.end && prev.start < meta.end {
                return Err(ShardError::OverlappingShards {
                    shard: meta.shard,
                    other: prev.shard,
                });
            }
        }
        metas.push(meta);
        for row in rows {
            let idx = row.run_idx();
            if idx < meta.start || idx >= meta.end {
                return Err(ShardError::RowOutOfRange {
                    path: path_str(),
                    run_idx: idx,
                    start: meta.start,
                    end: meta.end,
                });
            }
            // Only a repeated index pays for the canonical comparison.
            match &by_idx[idx as usize] {
                None => by_idx[idx as usize] = Some(row),
                Some(first) if first.canonical_line() == row.canonical_line() => {} // exact dup: drop
                Some(_) => {
                    return Err(ShardError::ConflictingDuplicate {
                        path: path_str(),
                        run_idx: idx,
                    })
                }
            }
        }
    }
    let mut missing = by_idx.iter().enumerate().filter(|(_, row)| row.is_none());
    if let Some((first, _)) = missing.next() {
        return Err(ShardError::MissingRuns {
            count: 1 + missing.count() as u64,
            first: first as u64,
        });
    }
    Ok(by_idx.into_iter().flatten().collect())
}

/// The one check a shard journal passes before any of its rows is used:
/// its header must be `expected` (a mismatch names the fields that differ,
/// `trace_regime` among them), and its assignment must be `want` where the
/// caller knows the shard's plan entry, or else lie inside the campaign's
/// `0..runs`.
fn check_shard(
    path: &Path,
    header: JournalHeader,
    meta: ShardMeta,
    expected: &JournalHeader,
    want: Option<ShardMeta>,
) -> Result<(), ShardError> {
    let path = || path.display().to_string();
    if header != *expected {
        return Err(JournalError::HeaderMismatch {
            path: path(),
            expected: *expected,
            found: header,
        }
        .into());
    }
    match want {
        Some(want) if meta != want => Err(ShardError::MetaMismatch {
            path: path(),
            expected: want,
            found: meta,
        }),
        None if meta.start > meta.end || meta.end > expected.runs => Err(ShardError::BadRange {
            path: path(),
            meta,
            runs: expected.runs,
        }),
        _ => Ok(()),
    }
}

/// Parses a `CHASER_SHARD_CHAOS` directive (`kill:<rows>` / `stall:<rows>`).
fn parse_chaos_env(text: &str) -> Option<(u64, ChaosAction)> {
    let (kind, rows) = text.split_once(':')?;
    let rows = rows.parse().ok()?;
    match kind {
        "kill" => Some((rows, ChaosAction::Exit)),
        "stall" => Some((rows, ChaosAction::Stall)),
        _ => None,
    }
}

/// The run indices of `meta`'s range with no journal row yet, plus the
/// read they were computed from. Read failures count as "everything
/// missing": the journal may be mid-torn from a kill, and the retry's
/// `append_to_with` trim will repair it.
fn shard_progress(path: &Path, meta: ShardMeta) -> (Vec<u64>, Option<ShardRead>) {
    match CampaignJournal::read_shard(path) {
        Ok(read) => {
            let done: BTreeSet<u64> = read.2.iter().map(JournalRow::run_idx).collect();
            let missing = (meta.start..meta.end)
                .filter(|i| !done.contains(i))
                .collect();
            (missing, Some(read))
        }
        Err(_) => ((meta.start..meta.end).collect(), None),
    }
}

impl Campaign {
    /// Executes the campaign sharded: splits `0..runs` into
    /// `cfg.shards` chunks, runs each as a supervised worker with its own
    /// journal next to `journal_base` (`<stem>.shard-K.jsonl`), recovers
    /// dead/hung/straggler workers by resuming their journals with capped
    /// exponential backoff, degrades shards that exhaust their retry
    /// budget into quarantined rows, and deterministically merges the
    /// shard journals. The merged result, outcome CSV and stats CSV are
    /// byte-identical to [`Campaign::run`] on the same seed/config (absent
    /// degradation, which only ever *adds* quarantined
    /// [`TermCause::ShardLost`] rows for runs no worker could finish).
    /// `shards` 0 or 1 journals the campaign in `<stem>.shard-0.jsonl`.
    ///
    /// Existing shard journals from a previous (killed) supervisor are
    /// validated and resumed rather than restarted, so the whole campaign
    /// is crash-tolerant end to end.
    ///
    /// # Errors
    ///
    /// [`ShardError`] when a shard journal cannot be created, validated or
    /// merged. Worker failures are not errors — they are retried, then
    /// degraded.
    pub fn run_sharded(&self, journal_base: &Path) -> Result<CampaignResult, ShardError> {
        self.run_sharded_with(&self.prepare(), journal_base, None)
    }

    /// [`Campaign::run_sharded`] with the preparation and the stop lever
    /// externalized — the embedding surface the `chaser-serve` daemon runs
    /// jobs through. `prepared` may be shared across campaigns with the
    /// same prepare-relevant configuration (the warmed-pool path), and
    /// raising `stop` drains the supervisors: workers finish or checkpoint
    /// their current run, nothing is relaunched, nothing is quarantined,
    /// and the call returns [`ShardError::Interrupted`] with the journals
    /// left resumable. A later `run_sharded_with` over the same journals
    /// (same campaign, `stop` unraised) finishes exactly the missing
    /// indices and merges a result byte-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`ShardError`] as for [`Campaign::run_sharded`], plus
    /// [`ShardError::Interrupted`] when `stop` was raised before every
    /// shard finished.
    pub fn run_sharded_with(
        &self,
        prepared: &PreparedApp,
        journal_base: &Path,
        stop: Option<&StopSignal>,
    ) -> Result<CampaignResult, ShardError> {
        let header = self.journal_header(prepared);
        let plan = ShardPlan::split(self.cfg.runs, self.cfg.shards);
        let paths: Vec<PathBuf> = plan
            .ranges
            .iter()
            .map(|m| shard_journal_path(journal_base, m.shard))
            .collect();

        // Create or revalidate every shard journal up front: a header or
        // assignment mismatch must abort before any worker runs.
        for (meta, path) in plan.ranges.iter().zip(&paths) {
            if path.exists() {
                let (found, found_meta, _) = CampaignJournal::read_shard(path)?;
                check_shard(path, found, found_meta, &header, Some(*meta))?;
            } else {
                CampaignJournal::create_shard(path, header, *meta, self.cfg.journal_sync_rows)?;
            }
        }

        let (per_shard, reads): (Vec<ShardReport>, Vec<Option<ShardRead>>) =
            std::thread::scope(|scope| {
                let supervisors: Vec<_> = plan
                    .ranges
                    .iter()
                    .zip(&paths)
                    .map(|(meta, path)| {
                        scope.spawn(move || self.supervise_shard(prepared, *meta, path, stop))
                    })
                    .collect();
                supervisors
                    .into_iter()
                    .map(|h| h.join().expect("shard supervisor panicked"))
                    .unzip()
            });

        // A raised stop signal with unfinished indices is a checkpoint,
        // not a merge failure: report how much is left and leave the
        // journals exactly as the drained workers did.
        if stop.is_some_and(StopSignal::raised) {
            let missing: u64 = plan
                .ranges
                .iter()
                .zip(&paths)
                .map(|(m, p)| shard_progress(p, *m).0.len() as u64)
                .sum();
            if missing > 0 {
                return Err(ShardError::Interrupted { missing });
            }
        }

        // Each supervisor's final completeness check already decoded its
        // journal; the merge takes those reads and goes to disk only for a
        // shard it has none of (quarantined, drained or never readable).
        let rows = merge_shard_reads(paths.iter().map(PathBuf::as_path).zip(reads), &header)?;
        let mut base = ReplayBase::default();
        for row in &rows {
            base.absorb(row);
        }
        // Fold the merged rows through the campaign's own assembly path
        // (execute with nothing left to run), so the result is shaped
        // identically to an unsharded campaign's.
        let mut result = self.execute(prepared, &[], None, base, None);
        result.shard_stats = ShardStats {
            shards: plan.ranges.len() as u64,
            retries: per_shard.iter().map(|r| r.attempts.saturating_sub(1)).sum(),
            reassignments: per_shard.iter().map(|r| r.reassigned).sum(),
            quarantined_runs: per_shard.iter().map(|r| r.quarantined).sum(),
            per_shard,
        };
        Ok(result)
    }

    /// Entry point for a subprocess shard worker: finds its shard journal
    /// through `CHASER_SHARD_JOURNAL` and runs one attempt over it, exactly
    /// as a thread worker does. The worker's campaign must be configured
    /// identically to the supervisor's — the journal header check enforces
    /// it.
    ///
    /// # Errors
    ///
    /// [`ShardError`] when the environment names no journal, or the
    /// journal does not belong to this campaign or carries an assignment
    /// its plan does not ([`ShardError::MetaMismatch`]).
    pub fn shard_worker_from_env(&self) -> Result<(), ShardError> {
        let path = std::env::var(ENV_SHARD_JOURNAL).map_err(|_| {
            ShardError::Journal(JournalError::Malformed {
                path: String::new(),
                line: 0,
                msg: format!("shard worker env var `{ENV_SHARD_JOURNAL}` missing"),
            })
        })?;
        let chaos = std::env::var(ENV_SHARD_CHAOS)
            .ok()
            .as_deref()
            .and_then(parse_chaos_env);
        let prepared = self.prepare();
        let ctl = ShardCtl::new(chaos, None);
        self.run_shard_attempt(&prepared, Path::new(&path), &ctl)
    }

    /// One worker attempt over a shard journal: check its header and the
    /// assignment on its line 2 against this campaign's [`ShardPlan`],
    /// replay what is done, execute what is missing. Shared by thread
    /// workers (called in-process) and subprocess workers (via
    /// [`Campaign::shard_worker_from_env`]).
    fn run_shard_attempt(
        &self,
        prepared: &PreparedApp,
        path: &Path,
        ctl: &ShardCtl,
    ) -> Result<(), ShardError> {
        let (header, meta, rows) = CampaignJournal::read_shard(path)?;
        let expected = self.journal_header(prepared);
        // A shard id the plan does not have owns no runs.
        let empty = ShardMeta {
            start: self.cfg.runs,
            end: self.cfg.runs,
            ..meta
        };
        let plan = ShardPlan::split(self.cfg.runs, self.cfg.shards);
        let want = plan.ranges.get(meta.shard as usize).unwrap_or(&empty);
        check_shard(path, header, meta, &expected, Some(*want))?;
        let done: BTreeSet<u64> = rows.iter().map(JournalRow::run_idx).collect();
        let missing: Vec<u64> = (meta.start..meta.end)
            .filter(|i| !done.contains(i))
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        let journal = CampaignJournal::append_to_with(path, self.cfg.journal_sync_rows)?;
        // The attempt's CampaignResult is discarded: shard results only
        // ever materialize through the merge, so every regime (thread,
        // subprocess, retried, degraded) reports through one code path.
        self.execute(
            prepared,
            &missing,
            Some(&journal),
            ReplayBase::default(),
            Some(ctl),
        );
        Ok(())
    }

    /// Supervises one shard to completion: launch, watch, retry with
    /// backoff, and finally degrade. Infallible by design — supervision
    /// failures become retries, and retry exhaustion becomes quarantined
    /// rows, never a hang or abort. Returns the shard's report and, when
    /// the last completeness check found the shard complete, that check's
    /// read of the journal for the merge.
    fn supervise_shard(
        &self,
        prepared: &PreparedApp,
        meta: ShardMeta,
        path: &Path,
        stop: Option<&StopSignal>,
    ) -> (ShardReport, Option<ShardRead>) {
        let sup = self.cfg.shard_supervision;
        let t0 = Instant::now();
        let mut attempts: u64 = 0;
        let mut reassigned: u64 = 0;
        let mut quarantined: u64 = 0;
        let mut complete = None;
        loop {
            let (missing, read) = shard_progress(path, meta);
            if missing.is_empty() {
                complete = read;
                break;
            }
            if stop.is_some_and(StopSignal::raised) {
                // Drain, never degrade: the missing indices stay missing so
                // a later supervisor can resume this journal.
                break;
            }
            if attempts > u64::from(sup.max_retries) {
                // Retry budget exhausted: degrade the shard's unfinished
                // indices to quarantined rows so the campaign completes.
                quarantined = self.quarantine_shard(path, meta, &missing, attempts);
                break;
            }
            if attempts > 0 {
                reassigned += missing.len() as u64;
                let shift = (attempts - 1).min(16) as u32;
                let backoff = sup
                    .backoff_base_ms
                    .saturating_mul(1u64 << shift)
                    .min(sup.backoff_cap_ms);
                // Sleep in slices so a drain does not wait out the backoff.
                let mut remaining = backoff;
                while remaining > 0 && !stop.is_some_and(StopSignal::raised) {
                    let step = remaining.min(10);
                    std::thread::sleep(Duration::from_millis(step));
                    remaining -= step;
                }
            }
            attempts += 1;
            let chaos = self
                .cfg
                .shard_chaos
                .iter()
                .find(|c| c.shard == meta.shard && attempts <= u64::from(c.attempts))
                .copied();
            match &self.cfg.shard_workers {
                ShardWorkers::Thread => {
                    // Thread chaos is cooperative: both kinds degrade to a
                    // bail (an in-process worker cannot really die without
                    // taking the supervisor with it).
                    let ctl = ShardCtl::new(
                        chaos.map(|c| (c.after_rows, ChaosAction::Bail)),
                        stop.cloned(),
                    );
                    let _ = self.run_shard_attempt(prepared, path, &ctl);
                }
                ShardWorkers::Subprocess(argv) => {
                    self.run_subprocess_attempt(argv, path, chaos, sup, stop);
                }
            }
        }
        let report = ShardReport {
            shard: meta.shard,
            start: meta.start,
            end: meta.end,
            attempts,
            reassigned,
            quarantined,
            wall_ms: t0.elapsed().as_millis() as u64,
        };
        (report, complete)
    }

    /// Degrades a shard: appends a quarantined [`TermCause::ShardLost`]
    /// row for every unfinished index. Returns how many were quarantined
    /// (0 if even the degradation append fails — the merge will then
    /// report the missing rows as a typed error instead of hanging).
    fn quarantine_shard(
        &self,
        path: &Path,
        meta: ShardMeta,
        missing: &[u64],
        attempts: u64,
    ) -> u64 {
        let Ok(journal) = CampaignJournal::append_to_with(path, self.cfg.journal_sync_rows) else {
            return 0;
        };
        let mut written = 0;
        for &idx in missing {
            let outcome = quarantined_outcome(
                idx,
                format!(
                    "shard {} lost: worker retries exhausted after {attempts} attempt(s)",
                    meta.shard
                ),
                Some(TermCause::ShardLost { shard: meta.shard }),
            );
            if journal.append_outcome(&outcome).is_err() {
                break;
            }
            written += 1;
        }
        let _ = journal.sync_now();
        written
    }

    /// Launches one subprocess worker attempt and babysits it: polls for
    /// exit, watches the shard journal for progress, and kills the process
    /// when the heartbeat window passes without the file growing (the
    /// straggler path). Spawn failures simply end the attempt — the
    /// supervisor's completeness check turns them into retries.
    fn run_subprocess_attempt(
        &self,
        argv: &[String],
        path: &Path,
        chaos: Option<ShardChaos>,
        sup: ShardSupervision,
        stop: Option<&StopSignal>,
    ) {
        let Some((program, rest)) = argv.split_first() else {
            return;
        };
        let mut cmd = Command::new(program);
        cmd.args(rest)
            .env(ENV_SHARD_JOURNAL, path)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(c) = chaos {
            let kind = match c.kind {
                ChaosKind::Kill => "kill",
                ChaosKind::Stall => "stall",
            };
            cmd.env(ENV_SHARD_CHAOS, format!("{kind}:{}", c.after_rows));
        }
        let Ok(mut child) = cmd.spawn() else {
            return;
        };
        let timeout = Duration::from_millis(sup.heartbeat_timeout_ms.max(1));
        let mut last_len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let mut last_progress = Instant::now();
        loop {
            if stop.is_some_and(StopSignal::raised) {
                // Drain: reclaim the worker now. Its journal keeps every
                // fully appended row; a torn final line from the kill is
                // trimmed when the journal is resumed.
                let _ = child.kill();
                let _ = child.wait();
                break;
            }
            match child.try_wait() {
                Ok(Some(_)) | Err(_) => break,
                Ok(None) => {}
            }
            let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(last_len);
            if len != last_len {
                last_len = len;
                last_progress = Instant::now();
            } else if last_progress.elapsed() > timeout {
                // Straggler: alive but journaling nothing. Reclaim it; the
                // retry loop resumes whatever it did manage to append.
                let _ = child.kill();
                let _ = child.wait();
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Degraded rows are ordinary quarantined harness faults; this helper is
/// what tests use to recognize them.
pub fn is_shard_lost(outcome: &Outcome) -> bool {
    matches!(
        outcome,
        Outcome::HarnessFault {
            cause: Some(TermCause::ShardLost { .. }),
            ..
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_covers_range_with_near_equal_chunks() {
        for runs in [0u64, 1, 7, 10, 100] {
            for shards in [1u64, 2, 3, 4, 7, 200] {
                let plan = ShardPlan::split(runs, shards);
                assert_eq!(plan.runs, runs);
                assert!(!plan.ranges.is_empty());
                assert!(plan.ranges.len() as u64 <= shards.max(1));
                let mut next = 0;
                for (i, m) in plan.ranges.iter().enumerate() {
                    assert_eq!(m.shard, i as u64);
                    assert_eq!(m.start, next, "contiguous at {runs}/{shards}");
                    assert!(m.end >= m.start);
                    next = m.end;
                }
                assert_eq!(next, runs, "covers 0..runs at {runs}/{shards}");
                let lens: Vec<u64> = plan.ranges.iter().map(|m| m.end - m.start).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "near-equal at {runs}/{shards}: {lens:?}");
            }
        }
    }

    #[test]
    fn shard_paths_derive_from_the_base_stem() {
        assert_eq!(
            shard_journal_path(Path::new("/tmp/x/campaign.jsonl"), 3),
            PathBuf::from("/tmp/x/campaign.shard-3.jsonl")
        );
        assert_eq!(
            shard_journal_path(Path::new("run"), 0),
            PathBuf::from("run.shard-0.jsonl")
        );
    }

    #[test]
    fn chaos_env_round_trips() {
        assert!(matches!(
            parse_chaos_env("kill:5"),
            Some((5, ChaosAction::Exit))
        ));
        assert!(matches!(
            parse_chaos_env("stall:2"),
            Some((2, ChaosAction::Stall))
        ));
        assert!(parse_chaos_env("nonsense").is_none());
        assert!(parse_chaos_env("kill:x").is_none());
    }

    #[test]
    fn shard_stats_csv_lists_every_shard() {
        let stats = ShardStats {
            shards: 2,
            retries: 1,
            reassignments: 3,
            quarantined_runs: 0,
            per_shard: vec![
                ShardReport {
                    shard: 0,
                    start: 0,
                    end: 5,
                    attempts: 1,
                    reassigned: 0,
                    quarantined: 0,
                    wall_ms: 10,
                },
                ShardReport {
                    shard: 1,
                    start: 5,
                    end: 10,
                    attempts: 2,
                    reassigned: 3,
                    quarantined: 0,
                    wall_ms: 25,
                },
            ],
        };
        let csv = stats.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "shard,start,end,attempts,reassigned,quarantined,wall_ms"
        );
        assert_eq!(lines[1], "0,0,5,1,0,0,10");
        assert_eq!(lines[2], "1,5,10,2,3,0,25");
    }

    #[test]
    fn stop_signal_is_shared_and_sticky() {
        let signal = StopSignal::new();
        let clone = signal.clone();
        assert!(!clone.raised());
        signal.raise();
        assert!(clone.raised());
        signal.raise(); // idempotent
        assert!(signal.raised());
    }

    #[test]
    fn external_stop_drains_thread_workers() {
        let stop = StopSignal::new();
        let ctl = ShardCtl::new(None, Some(stop.clone()));
        assert!(!ctl.stopped());
        stop.raise();
        assert!(ctl.stopped());
    }

    #[test]
    fn shard_lost_recognizer_matches_only_degraded_rows() {
        assert!(is_shard_lost(&Outcome::HarnessFault {
            run_idx: 1,
            payload: "x".into(),
            cause: Some(TermCause::ShardLost { shard: 0 }),
        }));
        assert!(!is_shard_lost(&Outcome::HarnessFault {
            run_idx: 1,
            payload: "x".into(),
            cause: None,
        }));
        assert!(!is_shard_lost(&Outcome::Benign));
    }
}
