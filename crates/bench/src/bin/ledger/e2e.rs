//! The end-to-end pass: set-up samples, then timed repetitions of the
//! campaign body with tracing off, then the output checks. Uses only the
//! frozen API surface (see the README): `Campaign::{new, prepare, run}`,
//! `CampaignResult::{outcomes, skipped, to_csv}` and the `chaser_serve`
//! client calls. Nothing here reads a `*Stats` struct.

use crate::metrics::{self, END_TO_END};
use crate::stats::{self, RunResult};
use crate::workloads::{self, Workload};
use chaser::{Campaign, CampaignResult, PreparedApp};
use chaser_serve::{drain, results, submit, Daemon, Frame, ServeConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// From-scratch set-up samples behind `setup_s`.
const SETUP_SAMPLES: usize = 31;
/// Fewest timed repetitions behind `injections_per_sec`.
const MIN_REPS: usize = 5;
/// How long the host probe keeps the thread busy before anything is timed.
const HOST_WARM_UP_S: f64 = 1.5;
/// Probe samples on each side of a timed repetition (or of the set-up).
const PROBES_PER_SIDE: usize = 3;
/// What one repetition of a campaign body takes on the development host;
/// the run counts in `workloads.rs` are sized to it.
const REP_NOMINAL_S: f64 = 2.0;

/// A scratch directory under `target/ledger/` of the current directory
/// (journals, sockets, daemon state), removed when dropped — on success
/// and on unwind alike. Relative on purpose: Unix socket paths are short.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `target/ledger/tmp-<pid>-<n>/` under the current directory.
    pub fn new() -> Scratch {
        Scratch::under(Path::new("target/ledger"))
    }

    /// Creates a fresh `tmp-<pid>-<n>/` under `base`.
    pub fn under(base: &Path) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = base.join(format!("tmp-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    /// A path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Exact facts about a workload at one seed. A speed-only change must leave
/// them identical; for the default seed they are stored in
/// `invariants.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invariants {
    /// Rows delivered per repetition (outcome rows + skipped).
    pub rows: u64,
    /// Runs whose fault never fired.
    pub skipped: u64,
    /// Instructions the golden run retired.
    pub golden_insns: u64,
    /// Scheduler rounds of the golden run.
    pub golden_rounds: u64,
    /// FNV-1a of the outcome CSV.
    pub outcome_csv_fnv64: u64,
}

/// What the end-to-end pass produces.
#[derive(Debug, Clone)]
pub struct Report {
    /// The result line.
    pub result: RunResult,
    /// The invariants observed.
    pub invariants: Invariants,
    /// Human-readable lines (quartiles, sample counts, failed share, noise).
    pub notes: Vec<String>,
}

/// One repetition of a campaign body.
struct Rep {
    wall_s: f64,
    rows: u64,
    skipped: u64,
    failed: u64,
    csv_fnv: u64,
}

fn failed_rows(result: &CampaignResult) -> u64 {
    // HarnessFault covers both harness panics and ShardLost degradation.
    result
        .outcomes
        .iter()
        .filter(|r| r.outcome.is_harness_fault())
        .count() as u64
}

fn standalone_rep(campaign: &Campaign, runs: u64) -> Rep {
    let (wall_s, result) = stats::time_s(|| campaign.run());
    let rows = result.outcomes.len() as u64 + result.skipped;
    Rep {
        wall_s,
        rows,
        skipped: result.skipped,
        failed: failed_rows(&result) + runs.saturating_sub(rows),
        csv_fnv: stats::fnv64(result.to_csv().as_bytes()),
    }
}

/// Builds the application and prepares it from scratch; returns the
/// seconds that took with everything a repetition needs.
fn standalone_setup(w: &Workload, seed: u64, runs: u64) -> (f64, Campaign, PreparedApp) {
    let t = Instant::now();
    let campaign = Campaign::new(
        workloads::build_app(w),
        workloads::campaign_config(w, seed, runs),
    );
    let prepared = campaign.prepare();
    (t.elapsed().as_secs_f64(), campaign, prepared)
}

/// A daemon with its pool warmed by a one-run primer job.
pub struct Served {
    daemon: Daemon,
    /// The Unix socket the daemon listens on.
    pub endpoint: String,
}

impl Served {
    /// `Daemon::start` plus a primer job run to `Done`; returns the seconds
    /// that took. `dir` must be fresh.
    pub fn start(dir: &Path, seed: u64) -> (f64, Served) {
        std::fs::create_dir_all(dir).expect("create daemon directory");
        let endpoint = dir.join("sock").display().to_string();
        let t = Instant::now();
        let daemon = Daemon::start(&endpoint, &dir.join("state"), ServeConfig::default())
            .expect("daemon starts");
        let primer = workloads::served_spec("primer", seed, 1);
        let terminal = submit(&endpoint, &primer, |_, _| {}).expect("primer job");
        assert!(matches!(terminal, Frame::Done { .. }), "{terminal:?}");
        (t.elapsed().as_secs_f64(), Served { daemon, endpoint })
    }

    /// Drains the daemon and waits for every thread it started.
    pub fn stop(self) {
        drain(&self.endpoint).expect("drain");
        self.daemon.wait();
    }
}

/// What one closed-loop tenant saw for one submitted job.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantJob {
    /// Job id (0 when the submit itself failed).
    pub job: u64,
    /// `Row` frames received.
    pub rows: u64,
    /// Skip rows the `Done` frame reported.
    pub skipped: u64,
    /// Quarantined runs plus client-side errors.
    pub failed: u64,
    /// Submit → first `Row`, seconds.
    pub first_row_s: f64,
    /// Last `Row` → terminal frame, seconds.
    pub done_lag_s: f64,
}

/// Submits one job and streams it to its terminal frame.
pub fn tenant_job(endpoint: &str, tenant: &str, seed: u64, runs: u64) -> TenantJob {
    let spec = workloads::served_spec(tenant, seed, runs);
    let mut out = TenantJob::default();
    let t = Instant::now();
    let mut last_row = t;
    let terminal = submit(endpoint, &spec, |job, _| {
        let now = Instant::now();
        if out.rows == 0 {
            out.first_row_s = (now - t).as_secs_f64();
        }
        last_row = now;
        out.job = job;
        out.rows += 1;
    });
    out.done_lag_s = last_row.elapsed().as_secs_f64();
    match terminal {
        Ok(Frame::Done {
            skipped,
            quarantined,
            ..
        }) => {
            out.skipped = skipped;
            out.failed = quarantined;
        }
        // A rejected, failed or checkpointed job delivered nothing usable.
        _ => out.failed = runs,
    }
    out
}

/// Both tenants, concurrently, one outstanding job each.
pub fn two_tenants(endpoint: &str, seed: u64, runs: u64) -> (f64, [TenantJob; 2]) {
    stats::time_s(|| {
        std::thread::scope(|s| {
            let a = s.spawn(|| tenant_job(endpoint, "tenant-a", seed, runs));
            let b = s.spawn(|| tenant_job(endpoint, "tenant-b", seed, runs));
            [a.join().expect("tenant a"), b.join().expect("tenant b")]
        })
    })
}

fn served_rep(served: &Served, seed: u64, runs: u64) -> (Rep, Vec<String>) {
    let (wall_s, jobs) = two_tenants(&served.endpoint, seed, runs);
    let mut rep = Rep {
        wall_s,
        rows: jobs.iter().map(|j| j.rows).sum(),
        skipped: jobs.iter().map(|j| j.skipped).sum(),
        failed: jobs.iter().map(|j| j.failed).sum(),
        csv_fnv: 0,
    };
    rep.failed += (2 * runs).saturating_sub(rep.rows);
    // Fetched after the clock stopped: results are a post-hoc artifact.
    let csvs: Vec<String> = jobs
        .iter()
        .filter(|j| j.job != 0)
        .filter_map(|j| results(&served.endpoint, j.job).ok())
        .map(|r| r.outcome_csv)
        .collect();
    rep.failed += runs * (2 - csvs.len() as u64);
    rep.csv_fnv = stats::fnv64(csvs.concat().as_bytes());
    (rep, csvs)
}

fn quartile_note(what: &str, unit: &str, values: &[f64]) -> String {
    if values.len() < 2 {
        return format!("{what}: {:.6} {unit} (n=1)", values[0]);
    }
    let (q1, med, q3) = stats::quartiles(values);
    format!(
        "{what}: median {med:.6} {unit}, quartiles {q1:.6}..{q3:.6}, n={}",
        values.len()
    )
}

/// The campaign seed of timed repetition `k`. Repetition 0 (and the
/// warm-up) run `--seed` itself; the others derive from it, so one
/// invocation covers several fault sets and a single unlucky draw does not
/// decide its median.
fn rep_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs the end-to-end pass of `w`. The timed repetitions are sized to fill
/// `seconds` (one per [`REP_NOMINAL_S`], at least [`MIN_REPS`]); their count
/// is fixed up front so the allocator sees the same history on every host.
/// `quick` cuts the campaign to a tenth and takes one repetition and three
/// set-up samples.
///
/// Both timings are normalised to a host on which [`stats::host_mops`] reads
/// [`stats::HOST_REF_MOPS`]: the probe runs before and after the set-up
/// samples and between repetitions, and each timing is scaled by the host
/// speed measured around it. The raw values go into the notes.
pub fn run(w: &Workload, seed: u64, seconds: f64, quick: bool) -> Report {
    let runs = if quick { (w.runs / 10).max(1) } else { w.runs };
    let (setup_count, rep_count) = if quick {
        (3, 1)
    } else {
        (
            SETUP_SAMPLES,
            MIN_REPS.max((seconds / REP_NOMINAL_S).round() as usize),
        )
    };
    let scratch = Scratch::new();
    let mut correct = true;
    let mut notes = Vec::new();
    if !quick {
        stats::host_warm_up(HOST_WARM_UP_S);
    }

    // Set-up: from-scratch samples, the last one kept for the body.
    let setup_host_before = stats::host_mops_mean(PROBES_PER_SIDE);
    let mut setup_raw = Vec::new();
    let mut kept = None;
    let mut served = None;
    for sample in 0..setup_count {
        if w.tenants == 0 {
            let (s, campaign, prepared) = standalone_setup(w, seed, runs);
            setup_raw.push(s);
            kept = Some((campaign, prepared));
        } else {
            if let Some(previous) = served.take() {
                Served::stop(previous);
            }
            let (s, started) = Served::start(&scratch.path(&format!("daemon-{sample}")), seed);
            setup_raw.push(s);
            served = Some(started);
        }
    }
    let setup_host = (setup_host_before + stats::host_mops_mean(PROBES_PER_SIDE)) / 2.0;
    // The served workload's standalone twin supplies its golden facts and
    // the byte-identity reference.
    let (campaign, prepared) = kept.unwrap_or_else(|| {
        let (_, campaign, prepared) = standalone_setup(w, seed, runs);
        (campaign, prepared)
    });
    if prepared.golden.outputs[0] != workloads::reference_output(w) {
        correct = false;
        notes.push("CHECK FAILED: golden output differs from reference_output".to_string());
    }

    // Body: one discarded warm-up repetition on `--seed`, then the timed
    // ones, each on its own derived seed and bracketed by host probes.
    let campaigns: Vec<Campaign> = (1..rep_count)
        .map(|k| {
            Campaign::new(
                workloads::build_app(w),
                workloads::campaign_config(w, rep_seed(seed, k), runs),
            )
        })
        .collect();
    let one_rep = |k: usize| match &served {
        None => (
            standalone_rep(if k == 0 { &campaign } else { &campaigns[k - 1] }, runs),
            Vec::new(),
        ),
        Some(s) => served_rep(s, rep_seed(seed, k), runs),
    };
    let warm_up = (!quick).then(|| one_rep(0).0);
    let mut host = vec![stats::host_mops_mean(PROBES_PER_SIDE)];
    let mut reps = Vec::new();
    let mut served_csvs = Vec::new();
    for k in 0..rep_count {
        let (rep, csvs) = one_rep(k);
        host.push(stats::host_mops_mean(PROBES_PER_SIDE));
        reps.push(rep);
        if k == 0 {
            served_csvs = csvs;
        }
    }
    let first = &reps[0];
    let mut invariants = Invariants {
        rows: first.rows,
        skipped: first.skipped,
        golden_insns: prepared.golden.cluster.total_insns,
        golden_rounds: prepared.golden.cluster.rounds,
        outcome_csv_fnv64: first.csv_fnv,
    };
    // The warm-up and repetition 0 ran the same campaign.
    if warm_up.is_some_and(|w| w.csv_fnv != first.csv_fnv || w.rows != first.rows) {
        correct = false;
        notes.push("CHECK FAILED: outcome CSV differs between repetitions".to_string());
    }
    if let Some(s) = served {
        let twin = campaign.run().to_csv();
        if served_csvs.len() != 2 || served_csvs.iter().any(|csv| *csv != twin) {
            correct = false;
            notes.push("CHECK FAILED: served outcome CSV differs from standalone".to_string());
        }
        // One tenant's CSV is the invariant; both equal the twin.
        invariants.outcome_csv_fnv64 = stats::fnv64(twin.as_bytes());
        Served::stop(s);
    }

    // `host[k]` and `host[k + 1]` bracket repetition `k`.
    let ips_raw: Vec<f64> = reps.iter().map(|r| r.rows as f64 / r.wall_s).collect();
    let ips: Vec<f64> = ips_raw
        .iter()
        .enumerate()
        .map(|(k, raw)| raw * stats::HOST_REF_MOPS / ((host[k] + host[k + 1]) / 2.0))
        .collect();
    // The served set-up waits out the row streamer's poll interval; it is
    // not compute-bound, so the host's speed must not rescale it.
    let setup_scale = if w.tenants == 0 {
        setup_host / stats::HOST_REF_MOPS
    } else {
        1.0
    };
    let setup: Vec<f64> = setup_raw.iter().map(|raw| raw * setup_scale).collect();
    let attempted = reps.len() as u64 * runs * w.tenants.max(1);
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let (lo, hi) = host
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &h| (lo.min(h), hi.max(h)));
    let drift = hi / lo;

    notes.push(quartile_note("injections_per_sec", "runs/s", &ips));
    notes.push(quartile_note(
        "injections_per_sec (raw)",
        "runs/s",
        &ips_raw,
    ));
    notes.push(format!("repetitions (raw runs/s): {ips_raw:.2?}"));
    notes.push(quartile_note("setup_s", "s", &setup));
    notes.push(quartile_note("setup_s (raw)", "s", &setup_raw));
    notes.push(format!(
        "failed_share: {} ({failed} of {attempted} runs)",
        failed as f64 / attempted as f64
    ));
    notes.push(format!(
        "host.spin_mops: {host:.1?} between repetitions, {setup_host:.1} around set-up (reference {:.0}), host.spin_drift {drift:.3}{}",
        stats::HOST_REF_MOPS,
        if drift > 1.10 { " — NOISY" } else { "" }
    ));
    let measured = [
        ("injections_per_sec", stats::median(&ips)),
        ("setup_s", stats::median(&setup)),
        ("peak_rss_mb", stats::peak_rss_mb()),
    ];
    Report {
        result: RunResult {
            correct: correct && failed == 0,
            attempted,
            failed,
            metrics: metrics::report(END_TO_END.iter().map(|m| (m.name, m.unit)), &measured),
        },
        invariants,
        notes,
    }
}
