//! Statistical fault-injection campaigns: thousands of seeded single-fault
//! runs executed in parallel, classified against a golden run.

use crate::injector::InjectionRecord;
use crate::journal::{
    golden_digest, CampaignJournal, Fnv1a, JournalError, JournalHeader, JournalRow, JOURNAL_VERSION,
};
use crate::outcome::{Outcome, TermCause};
use crate::provenance::ProvenanceGraph;
use crate::session::{
    prepare_with_ladder, run_app, run_warm, AppSpec, PreparedApp, RunOptions, RunReport,
    SnapshotStats, TraceRegime,
};
use crate::shard::{ShardChaos, ShardCtl, ShardStats, ShardSupervision, ShardWorkers};
use crate::spec::{Corruption, InjectionSpec, OperandSel, Trigger};
use crate::tracer::TracerConfig;
use chaser_isa::InsnClass;
use chaser_mpi::{ParallelStats, RunBudget};
use chaser_tcg::CacheStats;
use chaser_vm::EngineStats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// Which rank receives the fault in each run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RankPool {
    /// Always the master (rank 0) — the paper's Matvec setup.
    Master,
    /// A uniformly random rank per run — the CLAMR setup.
    Random,
}

impl RankPool {
    /// The wire name used by campaign specs (`"master"` / `"random"`).
    pub fn name(self) -> &'static str {
        match self {
            RankPool::Master => "master",
            RankPool::Random => "random",
        }
    }

    /// Parses a wire name back into a pool; `None` on unknown names.
    pub fn from_name(s: &str) -> Option<RankPool> {
        match s {
            "master" => Some(RankPool::Master),
            "random" => Some(RankPool::Random),
            _ => None,
        }
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of injection runs.
    pub runs: u64,
    /// Master seed; run `i` derives its own stream from it.
    pub seed: u64,
    /// Worker threads (0 = all available cores).
    pub parallelism: usize,
    /// Instruction classes faults may target (one is drawn per run).
    pub classes: Vec<InsnClass>,
    /// Which rank gets the fault.
    pub rank_pool: RankPool,
    /// Bits flipped per fault.
    pub bits_per_fault: u32,
    /// Which operand is corrupted.
    pub operand: OperandSel,
    /// Trace fault propagation during each run.
    pub tracing: bool,
    /// Tracer parameters when tracing.
    pub tracer: TracerConfig,
    /// Record a fault-propagation provenance graph per run and journal its
    /// aggregates (rank reach, blast radius, message-edge count, digest).
    pub provenance: bool,
    /// Tracing regime: [`TraceRegime::Full`] (default) honors the
    /// `tracing`/`provenance` flags above; [`TraceRegime::Off`] is the
    /// ZOFI-style statistical mode that never arms taint or provenance and
    /// classifies runs purely from termination cause plus golden-digest
    /// comparison. Part of the journal config fingerprint (v6).
    pub trace_regime: TraceRegime,
    /// Inert: every campaign run restores from the checkpoint ladder
    /// ([`crate::WarmStart`]) whatever this says, and it is not part of the
    /// config fingerprint. Kept only because the frozen benchmark sets it;
    /// the next benchmark PR deletes it.
    pub warm_start: bool,
    /// Per-run watchdog budget (instructions / rounds) applied to every
    /// injection run; merged with the cluster configuration's own budget,
    /// tighter bound wins. Default unlimited.
    pub run_budget: RunBudget,
    /// Worker threads each run's scheduler fans its nodes out over during
    /// the compute phase of every round (intra-run parallelism, on top of
    /// the inter-run `parallelism` workers). Outcomes, provenance digests
    /// and journals are byte-identical for any value; >1 only pays off when
    /// a run spans several nodes. 0 and 1 both mean serial.
    pub rank_threads: usize,
    /// Chaos knob: run indices whose execution deliberately panics *inside
    /// the harness* (not the guest). Used by the resilience tests and the
    /// CI smoke run to prove panic isolation: these runs must come back as
    /// quarantined [`Outcome::HarnessFault`] rows while every other run
    /// completes normally.
    pub panic_runs: Vec<u64>,
    /// Shard count for [`Campaign::run_sharded`]: the run-index range is
    /// split into this many contiguous shards, each executed by an isolated
    /// worker writing its own journal. 0 and 1 both mean one shard. Part of
    /// the journal config fingerprint (v5): a shard journal may only be
    /// finished — or merged — under the shard plan that created it.
    pub shards: u64,
    /// How shard workers execute: in-process threads (default) or self-exec
    /// subprocess workers driven by the `CHASER_SHARD_*` environment
    /// protocol. Operational only (like `parallelism`): excluded from the
    /// config fingerprint, and merged outputs are byte-identical either
    /// way.
    pub shard_workers: ShardWorkers,
    /// Liveness and retry policy for shard workers: journal-progress
    /// heartbeat timeout, capped exponential backoff, retry budget.
    /// Operational only, excluded from the fingerprint.
    pub shard_supervision: ShardSupervision,
    /// Journal durability: `fsync` campaign and shard journals every this
    /// many appended rows (0 = flush to the OS only, never fsync). Every
    /// row is still flushed as one whole line, so a killed worker loses at
    /// most the torn final line the reader already tolerates; this knob
    /// bounds what a power loss can take with it. Operational only,
    /// excluded from the fingerprint.
    pub journal_sync_rows: u64,
    /// Chaos knob for the shard supervisor (resilience tests / CI smoke):
    /// deliberately kill or stall shard workers after they journal N rows,
    /// to prove retry-with-resume and straggler recovery. Excluded from the
    /// fingerprint: a killed-and-retried shard journals exactly the rows an
    /// unharassed one would.
    pub shard_chaos: Vec<ShardChaos>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            runs: 100,
            seed: 0xC4A5E12,
            parallelism: 0,
            classes: vec![InsnClass::FpArith],
            rank_pool: RankPool::Master,
            bits_per_fault: 1,
            operand: OperandSel::Random,
            tracing: false,
            tracer: TracerConfig::default(),
            provenance: false,
            trace_regime: TraceRegime::default(),
            warm_start: false,
            run_budget: RunBudget::default(),
            rank_threads: 1,
            panic_runs: Vec::new(),
            shards: 0,
            shard_workers: ShardWorkers::Thread,
            shard_supervision: ShardSupervision::default(),
            journal_sync_rows: crate::journal::DEFAULT_SYNC_ROWS,
            shard_chaos: Vec::new(),
        }
    }
}

/// The compact per-run result a campaign keeps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Run index.
    pub run_idx: u64,
    /// Classified outcome.
    pub outcome: Outcome,
    /// Targeted class this run.
    pub class: InsnClass,
    /// Targeted rank.
    pub rank: u32,
    /// The deterministic trigger count drawn.
    pub trigger_n: u64,
    /// Whether the fault actually fired.
    pub injected: bool,
    /// Tainted-memory reads observed (tracing runs only).
    pub taint_reads: u64,
    /// Tainted-memory writes observed.
    pub taint_writes: u64,
    /// Tainted point-to-point deliveries (fault crossed ranks).
    pub cross_rank: u64,
    /// Always 0: the TaintHub is a reliable service, so no tainted
    /// delivery loses its sync. Kept as a column because journal v10 rows
    /// and the stats CSV carry it.
    pub taint_sync_lost: u64,
    /// Ranks the fault reached, per the provenance graph (0 when
    /// provenance recording was off).
    pub prov_rank_reach: u32,
    /// Provenance blast radius: distinct tainted `(rank, byte)` write
    /// destinations.
    pub prov_blast_radius: u64,
    /// Cross-rank message edges in the provenance graph.
    pub prov_msg_edges: u64,
    /// Digest of the run's canonical provenance-graph JSON (replay
    /// fingerprint; 0 when provenance recording was off).
    pub prov_digest: u64,
    /// Total guest instructions the run retired.
    pub total_insns: u64,
    /// The injection record, when the fault fired.
    pub record: Option<InjectionRecord>,
    /// Translation-cache statistics for this run (all nodes combined).
    /// Like the two counter structs below, it covers the suffix executed
    /// after the run's ladder rung, not the skipped prefix.
    pub cache_stats: CacheStats,
    /// Hot-path engine counters for this run (all nodes combined): chain
    /// hits/severs and fast- vs slow-path memory operations.
    pub engine_stats: EngineStats,
    /// Scheduler-parallelism counters for this run (threads used, rounds
    /// fanned out, per-worker instruction balance).
    pub parallel: ParallelStats,
}

impl RunOutcome {
    /// Did the fault propagate across rank/node boundaries?
    pub fn propagated(&self) -> bool {
        self.cross_rank > 0
    }
}

/// Aggregate outcome counts (the Fig. 6 bars).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeCounts {
    /// Bitwise-identical outputs.
    pub benign: u64,
    /// Silent data corruptions.
    pub sdc: u64,
    /// Abnormal terminations.
    pub terminated: u64,
    /// Quarantined harness failures — tool faults, excluded from
    /// [`OutcomeCounts::total`] and the Fig. 6 percentages because they say
    /// nothing about the target.
    pub harness_faults: u64,
}

impl OutcomeCounts {
    /// Total classified runs (quarantined harness faults excluded).
    pub fn total(&self) -> u64 {
        self.benign + self.sdc + self.terminated
    }

    /// `(benign, sdc, terminated)` as percentages.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            100.0 * self.benign as f64 / t,
            100.0 * self.sdc as f64 / t,
            100.0 * self.terminated as f64 / t,
        )
    }
}

/// Termination attribution (the Table III rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TerminationBreakdown {
    /// OS exceptions on the injected (master) rank.
    pub os_exceptions: u64,
    /// MPI-runtime detected errors.
    pub mpi_errors: u64,
    /// OS exceptions on a non-injected rank ("Slave Node failed").
    pub slave_node_failed: u64,
    /// Application-checker aborts.
    pub assertions: u64,
    /// Hangs.
    pub hangs: u64,
    /// Voluntary non-zero exits.
    pub abnormal_exits: u64,
    /// Watchdog budget stops (deterministic runaway detection).
    pub budget_exhausted: u64,
    /// Runs quarantined because their shard's workers kept dying
    /// ([`TermCause::ShardLost`]).
    pub shard_lost: u64,
}

impl TerminationBreakdown {
    /// Total terminated runs.
    pub fn total(&self) -> u64 {
        self.os_exceptions
            + self.mpi_errors
            + self.slave_node_failed
            + self.assertions
            + self.hangs
            + self.abnormal_exits
            + self.budget_exhausted
            + self.shard_lost
    }

    fn add(&mut self, cause: &TermCause) {
        match cause {
            TermCause::OsException { rank: 0, .. } => self.os_exceptions += 1,
            TermCause::OsException { .. } => self.slave_node_failed += 1,
            TermCause::MpiError(_) => self.mpi_errors += 1,
            TermCause::AssertionFailure { .. } => self.assertions += 1,
            TermCause::Hang => self.hangs += 1,
            TermCause::AbnormalExit { .. } => self.abnormal_exits += 1,
            TermCause::BudgetExhausted(_) => self.budget_exhausted += 1,
            // Never reached from Outcome::Terminated — ShardLost only
            // appears as a HarnessFault cause — but keep the bucket so the
            // breakdown stays total over TermCause.
            TermCause::ShardLost { .. } => self.shard_lost += 1,
        }
    }
}

/// Service-side counters stamped onto a campaign that ran under the
/// `chaser-serve` daemon: how the shared prepared-app pool treated this
/// job's key, and how deep the admission queue got while it waited. All
/// zero for standalone campaigns — and deliberately *never* part of the
/// outcome or per-run stats CSVs, which must stay byte-identical between
/// served and standalone executions of the same seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Campaigns that found their warmed [`crate::PreparedApp`] already in
    /// the pool.
    pub prepared_hits: u64,
    /// Campaigns that had to prepare (golden pass, base cache, profiled
    /// pass with its checkpoint ladder) from scratch.
    pub prepared_misses: u64,
    /// Prepared apps evicted to make room (LRU order).
    pub prepared_evictions: u64,
    /// High-water mark of the daemon's admission queue depth.
    pub queue_depth_hwm: u64,
}

impl PoolStats {
    /// Renders the pool counters as CSV (header + one row). A separate
    /// artifact from [`CampaignResult::stats_csv`] for the same reason
    /// [`ShardStats::to_csv`] is: service facts must not perturb the
    /// byte-identity of the per-run CSVs.
    pub fn to_csv(&self) -> String {
        format!(
            "prepared_hits,prepared_misses,prepared_evictions,queue_depth_hwm\n{},{},{},{}\n",
            self.prepared_hits, self.prepared_misses, self.prepared_evictions, self.queue_depth_hwm,
        )
    }
}

/// Everything a finished campaign knows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Per-run outcomes (injected runs only; see `skipped`).
    pub outcomes: Vec<RunOutcome>,
    /// Runs whose fault never fired (kept for accounting, not classified).
    pub skipped: u64,
    /// Instructions the golden run retired.
    pub golden_insns: u64,
    /// Dynamic execution counts per `(rank, class index)` from profiling.
    pub profile_counts: BTreeMap<(u32, usize), u64>,
    /// Translation-cache statistics summed over every injection run
    /// (skipped runs included; the golden and profiling runs are not).
    pub cache_stats: CacheStats,
    /// Snapshot/restore counters summed over the injection runs this
    /// process executed: one restore per run that reached a cluster, and
    /// in `insns_skipped` the fault-free prefix the ladder saved (rows a
    /// resume replayed from a journal contribute nothing — the row codec
    /// carries outcomes, not performance counters).
    pub snapshot_stats: SnapshotStats,
    /// Hot-path engine counters summed over every classified run (skipped
    /// runs excluded), each covering the suffix the run executed after its
    /// rung. Outcome rows journal their own counters, so a resumed campaign
    /// reports the same totals as an uninterrupted one.
    pub engine_stats: EngineStats,
    /// Scheduler-parallelism counters summed over every classified run
    /// (skipped runs excluded; journaled per row like `engine_stats`, and
    /// like them covering the executed suffix).
    pub parallel_stats: ParallelStats,
    /// Shard-supervision counters (shards, worker retries, reassigned and
    /// quarantined runs, per-shard wall times); all zero/empty unless the
    /// result came from [`Campaign::run_sharded`]. Rendered by
    /// [`ShardStats::to_csv`], never folded into
    /// [`CampaignResult::stats_csv`] — worker wall-times are wall-clock
    /// facts, and the per-run stats CSV must stay byte-identical between
    /// sharded and unsharded executions of the same seed.
    pub shard_stats: ShardStats,
    /// Prepared-app pool and admission-queue counters; all zero unless the
    /// campaign ran under the `chaser-serve` daemon, which stamps them on.
    /// Rendered by [`PoolStats::to_csv`], never folded into the per-run
    /// CSVs.
    pub pool_stats: PoolStats,
    /// The tracing regime the campaign executed under. Stamped by
    /// [`Campaign::run`] from the config; [`CampaignResult::to_csv`]
    /// renders the trace-derived columns as empty under
    /// [`TraceRegime::Off`] (no taint machinery ran, so a zero would be a
    /// lie — an empty cell keeps the schema while marking "not measured").
    pub trace_regime: TraceRegime,
}

impl CampaignResult {
    /// Outcome counts over the injected runs.
    pub fn outcome_counts(&self) -> OutcomeCounts {
        let mut c = OutcomeCounts::default();
        for run in &self.outcomes {
            match run.outcome {
                Outcome::Benign => c.benign += 1,
                Outcome::Sdc => c.sdc += 1,
                Outcome::Terminated(_) => c.terminated += 1,
                Outcome::HarnessFault { .. } => c.harness_faults += 1,
            }
        }
        c
    }

    /// Quarantined harness-failure rows (tool faults, not target outcomes).
    pub fn harness_faults(&self) -> impl Iterator<Item = &RunOutcome> {
        self.outcomes
            .iter()
            .filter(|r| r.outcome.is_harness_fault())
    }

    /// Table III attribution over all terminated runs.
    pub fn termination_breakdown(&self) -> TerminationBreakdown {
        let mut b = TerminationBreakdown::default();
        for run in &self.outcomes {
            if let Outcome::Terminated(cause) = &run.outcome {
                b.add(cause);
            }
        }
        b
    }

    /// Table III attribution restricted to runs whose fault crossed ranks.
    pub fn termination_breakdown_propagated(&self) -> TerminationBreakdown {
        let mut b = TerminationBreakdown::default();
        for run in self.outcomes.iter().filter(|r| r.propagated()) {
            if let Outcome::Terminated(cause) = &run.outcome {
                b.add(cause);
            }
        }
        b
    }

    /// Runs whose fault crossed a rank boundary.
    pub fn propagated_runs(&self) -> impl Iterator<Item = &RunOutcome> {
        self.outcomes.iter().filter(|r| r.propagated())
    }

    /// The CLAMR-study detected/undetected split:
    /// `(detected, undetected_benign, undetected_sdc)`.
    pub fn detection_split(&self) -> (u64, u64, u64) {
        let mut detected = 0;
        let mut benign = 0;
        let mut sdc = 0;
        for run in &self.outcomes {
            match run.outcome {
                Outcome::Terminated(_) => detected += 1,
                Outcome::Benign => benign += 1,
                Outcome::Sdc => sdc += 1,
                Outcome::HarnessFault { .. } => {}
            }
        }
        (detected, benign, sdc)
    }

    /// Renders the per-run outcomes as CSV (header + one row per run) for
    /// external plotting — the harness binaries accept `--csv <path>` to
    /// persist it.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "run_idx,outcome,class,rank,trigger_n,taint_reads,taint_writes,cross_rank,taint_sync_lost,prov_rank_reach,prov_blast_radius,prov_msg_edges,prov_digest,total_insns,site_pc,insn
",
        );
        for run in &self.outcomes {
            let (pc, insn) = run
                .record
                .as_ref()
                .map(|r| (format!("{:#x}", r.pc), r.insn.replace(',', ";")))
                .unwrap_or_default();
            // Under the statistical regime no taint machinery ran: the
            // trace-derived columns are emitted empty (schema-compatible,
            // but visibly "not measured" rather than a fake zero).
            let trace_cols = if self.trace_regime == TraceRegime::Off {
                ",,,,,,,".to_string()
            } else {
                format!(
                    "{},{},{},{},{},{},{},{:#x}",
                    run.taint_reads,
                    run.taint_writes,
                    run.cross_rank,
                    run.taint_sync_lost,
                    run.prov_rank_reach,
                    run.prov_blast_radius,
                    run.prov_msg_edges,
                    run.prov_digest,
                )
            };
            out.push_str(&format!(
                "{},{},{:?},{},{},{},{},{},{}
",
                run.run_idx,
                run.outcome,
                run.class,
                run.rank,
                run.trigger_n,
                trace_cols,
                run.total_insns,
                pc,
                insn,
            ));
        }
        out
    }

    /// Renders the per-run hot-path engine counters as CSV. Kept separate
    /// from [`CampaignResult::to_csv`] on purpose: outcome CSVs must stay
    /// byte-identical across `rank_threads` and the test-only
    /// `ExecTuning` reference paths, while these counters are exactly what
    /// those change.
    pub fn stats_csv(&self) -> String {
        let mut out = String::from(
            "run_idx,tb_chain_hits,chain_severs,fast_path_insns,slow_path_insns,tb_lookups,tb_misses,rank_threads,parallel_rounds,max_worker_insns,total_worker_insns
",
        );
        for run in &self.outcomes {
            let e = run.engine_stats;
            let p = run.parallel;
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{}
",
                run.run_idx,
                e.tb_chain_hits,
                e.chain_severs,
                e.fast_path_insns,
                e.slow_path_insns,
                run.cache_stats.lookups,
                run.cache_stats.misses,
                p.threads,
                p.parallel_rounds,
                p.max_worker_insns,
                p.total_worker_insns,
            ));
        }
        out
    }

    /// Histogram of a per-run metric with fixed-width buckets:
    /// returns `(bucket lower bound, count)` pairs.
    pub fn histogram(
        &self,
        bucket_width: u64,
        metric: impl Fn(&RunOutcome) -> u64,
    ) -> Vec<(u64, u64)> {
        let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
        for run in &self.outcomes {
            let v = metric(run);
            *buckets
                .entry(v / bucket_width.max(1) * bucket_width.max(1))
                .or_insert(0) += 1;
        }
        buckets.into_iter().collect()
    }

    /// `(reads>writes, reads-only, writes-only)` run counts over traced
    /// runs with any taint activity — the paper's Fig. 8/9 side stats.
    pub fn read_write_split(&self) -> (u64, u64, u64) {
        let mut more_reads = 0;
        let mut reads_only = 0;
        let mut writes_only = 0;
        for run in &self.outcomes {
            let (r, w) = (run.taint_reads, run.taint_writes);
            if r > w && w > 0 {
                more_reads += 1;
            } else if r > 0 && w == 0 {
                reads_only += 1;
            } else if w > 0 && r == 0 {
                writes_only += 1;
            }
        }
        (more_reads, reads_only, writes_only)
    }
}

/// Per-injection-site vulnerability statistics (grouped by the targeted
/// instruction's address): the paper's hardening-candidate analysis —
/// "the injection points that resulted in higher tainted memory operations
/// should be considered candidates for further hardening".
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SiteVulnerability {
    /// Disassembly of the instruction at this site.
    pub insn: String,
    /// Faults injected at this site.
    pub injections: u64,
    /// How many ended benign.
    pub benign: u64,
    /// How many ended as SDC.
    pub sdc: u64,
    /// How many terminated the run.
    pub terminated: u64,
    /// Total tainted memory operations caused by faults at this site.
    pub taint_ops: u64,
    /// How many of its faults crossed rank boundaries.
    pub propagated: u64,
}

impl SiteVulnerability {
    /// Fraction of this site's faults that did *not* end benign.
    pub fn vulnerability(&self) -> f64 {
        if self.injections == 0 {
            return 0.0;
        }
        (self.sdc + self.terminated) as f64 / self.injections as f64
    }

    /// Mean tainted memory operations per fault at this site.
    pub fn mean_taint_ops(&self) -> f64 {
        if self.injections == 0 {
            return 0.0;
        }
        self.taint_ops as f64 / self.injections as f64
    }
}

impl CampaignResult {
    /// Groups the campaign's outcomes by injection-site address.
    pub fn site_vulnerability(&self) -> BTreeMap<u64, SiteVulnerability> {
        let mut map: BTreeMap<u64, SiteVulnerability> = BTreeMap::new();
        for run in &self.outcomes {
            let Some(rec) = &run.record else { continue };
            let site = map.entry(rec.pc).or_default();
            if site.insn.is_empty() {
                site.insn = rec.insn.clone();
            }
            site.injections += 1;
            match run.outcome {
                Outcome::Benign => site.benign += 1,
                Outcome::Sdc => site.sdc += 1,
                Outcome::Terminated(_) => site.terminated += 1,
                // Unreachable in practice: quarantined rows carry no record.
                Outcome::HarnessFault { .. } => continue,
            }
            site.taint_ops += run.taint_reads + run.taint_writes;
            if run.propagated() {
                site.propagated += 1;
            }
        }
        map
    }

    /// The `n` sites with the most tainted memory operations per fault —
    /// the paper's hardening candidates.
    pub fn hardening_candidates(&self, n: usize) -> Vec<(u64, SiteVulnerability)> {
        let mut v: Vec<(u64, SiteVulnerability)> = self.site_vulnerability().into_iter().collect();
        v.sort_by(|a, b| {
            b.1.mean_taint_ops()
                .total_cmp(&a.1.mean_taint_ops())
                .then(a.0.cmp(&b.0))
        });
        v.truncate(n);
        v
    }
}

/// Rows replayed from a journal before a resume re-executes the rest.
#[derive(Debug, Default)]
pub(crate) struct ReplayBase {
    pub(crate) outcomes: Vec<RunOutcome>,
    pub(crate) skipped: u64,
    pub(crate) cache_stats: CacheStats,
}

impl ReplayBase {
    /// Folds one replayed journal row into the base.
    pub(crate) fn absorb(&mut self, row: &JournalRow) {
        match row {
            JournalRow::Outcome(o) => {
                self.cache_stats.absorb(o.cache_stats);
                self.outcomes.push((**o).clone());
            }
            JournalRow::Skip { cache_stats, .. } => {
                self.cache_stats.absorb(*cache_stats);
                self.skipped += 1;
            }
        }
    }
}

thread_local! {
    /// Set on campaign worker threads so the quarantine panic hook knows a
    /// panic there is caught and reported as a [`RunOutcome`], not printed.
    static QUARANTINE: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that suppresses the default
/// stderr backtrace for panics on quarantined campaign workers. Panics on
/// any other thread still reach the previous hook untouched.
fn install_quarantine_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUARANTINE.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Renders a `catch_unwind` payload as a short single-line message fit for
/// the journal (one row per line) and the outcome CSV (comma-separated).
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    let mut clean: String = text
        .chars()
        .map(|c| match c {
            '\n' | '\r' => ' ',
            ',' => ';',
            c => c,
        })
        .collect();
    if clean.len() > 200 {
        let mut cut = 200;
        while !clean.is_char_boundary(cut) {
            cut -= 1;
        }
        clean.truncate(cut);
        clean.push_str("...");
    }
    clean
}

/// The quarantine row for a run the harness could not execute: a harness
/// panic (`cause: None`) or a degraded run whose shard's workers kept dying
/// (`cause: Some(TermCause::ShardLost { .. })`). The campaign keeps going,
/// and the row says nothing about the target application.
pub(crate) fn quarantined_outcome(
    idx: u64,
    payload: String,
    cause: Option<TermCause>,
) -> RunOutcome {
    RunOutcome {
        run_idx: idx,
        outcome: Outcome::HarnessFault {
            run_idx: idx,
            payload,
            cause,
        },
        class: InsnClass::Any,
        rank: 0,
        trigger_n: 0,
        injected: false,
        taint_reads: 0,
        taint_writes: 0,
        cross_rank: 0,
        taint_sync_lost: 0,
        prov_rank_reach: 0,
        prov_blast_radius: 0,
        prov_msg_edges: 0,
        prov_digest: 0,
        total_insns: 0,
        record: None,
        cache_stats: CacheStats::default(),
        engine_stats: EngineStats::default(),
        parallel: ParallelStats::default(),
    }
}

/// The quarantine row for a run whose *harness* (not guest) panicked.
fn harness_fault_outcome(idx: u64, payload: Box<dyn std::any::Any + Send>) -> RunOutcome {
    quarantined_outcome(idx, payload_message(payload), None)
}

/// A fault-injection campaign over one application.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub(crate) app: AppSpec,
    pub(crate) cfg: CampaignConfig,
}

impl Campaign {
    /// A campaign over `app` with `cfg`.
    pub fn new(app: AppSpec, cfg: CampaignConfig) -> Campaign {
        Campaign { app, cfg }
    }

    /// The golden run (fault-free), exposed for output inspection.
    pub fn golden(&self) -> RunReport {
        run_app(&self.app, &RunOptions::golden())
    }

    /// Prepares the application for this campaign in two fault-free
    /// passes: the hook-free golden pass (reference outputs and the
    /// per-node base translation caches every worker shares), then one
    /// profiled pass under the regime the injection runs execute with,
    /// which yields both the per-`(rank, class)` execution counts and the
    /// checkpoint ladder ([`crate::WarmStart`]) every run restores from.
    pub fn prepare(&self) -> PreparedApp {
        let (tracing, provenance) = self
            .cfg
            .trace_regime
            .effective(self.cfg.tracing, self.cfg.provenance);
        prepare_with_ladder(&self.app, &self.cfg.classes, tracing || provenance)
    }

    /// Executes the campaign: [`Campaign::prepare`], then `cfg.runs` seeded
    /// injection runs across worker threads, each restored from the ladder
    /// rung below its trigger and started from the golden-warmed base
    /// translation cache.
    pub fn run(&self) -> CampaignResult {
        let prepared = self.prepare();
        let indices: Vec<u64> = (0..self.cfg.runs).collect();
        self.execute(&prepared, &indices, None, ReplayBase::default(), None)
    }

    /// Like [`Campaign::run`], journaling every finished run to `path` as
    /// an append-only checkpoint. A campaign killed mid-way can be finished
    /// with [`Campaign::resume`] on the same journal.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on filesystem failures.
    pub fn run_journaled(&self, path: &Path) -> Result<CampaignResult, JournalError> {
        let prepared = self.prepare();
        let journal = CampaignJournal::create_with(
            path,
            self.journal_header(&prepared),
            self.cfg.journal_sync_rows,
        )?;
        let indices: Vec<u64> = (0..self.cfg.runs).collect();
        Ok(self.execute(
            &prepared,
            &indices,
            Some(&journal),
            ReplayBase::default(),
            None,
        ))
    }

    /// Resumes a journaled campaign: validates that the journal belongs to
    /// *this* campaign (seed, configuration fingerprint, golden-output
    /// digest), replays the intact rows, and re-executes only the missing
    /// run indices. The result is byte-identical to an uninterrupted
    /// [`Campaign::run`] — per-run outcomes are deterministic functions of
    /// `(seed, run index)`, so it does not matter which process computed
    /// each row.
    ///
    /// # Errors
    ///
    /// [`JournalError::HeaderMismatch`] when the journal was written by a
    /// different campaign; [`JournalError::Malformed`] on a damaged
    /// journal (a truncated final line is tolerated, anything else is not).
    pub fn resume(&self, path: &Path) -> Result<CampaignResult, JournalError> {
        let prepared = self.prepare();
        let expected = self.journal_header(&prepared);
        let (found, rows) = CampaignJournal::read(path)?;
        if found != expected {
            return Err(JournalError::HeaderMismatch {
                path: path.display().to_string(),
                expected,
                found,
            });
        }
        // Last-wins dedup: a killed-and-resumed campaign may have journaled
        // a run twice; per-run determinism makes the copies identical, but
        // only one may be replayed.
        let mut by_idx: BTreeMap<u64, JournalRow> = BTreeMap::new();
        for row in rows {
            by_idx.insert(row.run_idx(), row);
        }
        let mut base = ReplayBase::default();
        for row in by_idx.values() {
            base.absorb(row);
        }
        let missing: Vec<u64> = (0..self.cfg.runs)
            .filter(|i| !by_idx.contains_key(i))
            .collect();
        let journal = CampaignJournal::append_to_with(path, self.cfg.journal_sync_rows)?;
        Ok(self.execute(&prepared, &missing, Some(&journal), base, None))
    }

    /// The header binding a journal to this campaign.
    pub(crate) fn journal_header(&self, prepared: &PreparedApp) -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            seed: self.cfg.seed,
            runs: self.cfg.runs,
            config_hash: self.config_fingerprint(),
            golden_digest: golden_digest(&prepared.golden.outputs),
            trace_regime: self.cfg.trace_regime,
        }
    }

    /// Fingerprint of every configuration knob that shapes the journal's
    /// contents or provenance. Operational knobs are excluded: which worker
    /// computed a row never changes it, so `parallelism`, the shard worker
    /// kind (`shard_workers`), the supervision timing (`shard_supervision`),
    /// the durability interval (`journal_sync_rows`) and the supervisor
    /// chaos knob (`shard_chaos`) stay out. `rank_threads` *is* included
    /// even though it is replay-equivalent — a journal must be finished
    /// under the exact execution regime that started it, or its rows mix
    /// provenances silently (the journaled parallelism counters would be
    /// incomparable across rows). `shards` is included (v5) because it
    /// fixes the shard plan: a shard journal's meta line is only meaningful
    /// under the plan that created it. `trace_regime` is included (v6): the
    /// regime decides whether taint counters in the journaled rows are
    /// measurements or never-armed zeros, so rows from different regimes
    /// must never mix.
    fn config_fingerprint(&self) -> u64 {
        let c = &self.cfg;
        let mut h = Fnv1a::new();
        h.write(
            format!(
                "{};{};{:?};{:?};{};{:?};{};{:?};{};{:?};{};{:?};{};{}",
                c.runs,
                c.seed,
                c.classes,
                c.rank_pool,
                c.bits_per_fault,
                c.operand,
                c.tracing,
                c.tracer,
                c.provenance,
                c.run_budget,
                c.rank_threads,
                c.panic_runs,
                c.shards,
                c.trace_regime.name(),
            )
            .as_bytes(),
        );
        h.finish()
    }

    /// The shared worker loop behind [`Campaign::run`], `run_journaled`,
    /// `resume` and the shard workers: executes `indices` across worker
    /// threads, each run isolated under `catch_unwind` so a harness panic
    /// quarantines that one run (as [`Outcome::HarnessFault`]) instead of
    /// poisoning the campaign, and folds the results into `base` (the rows
    /// a resume replayed from the journal). `ctl`, when present, is the
    /// shard worker's control block: it counts journal appends for the
    /// supervisor's liveness heartbeat, carries the chaos trigger, and its
    /// stop flag makes workers drain without taking new indices.
    pub(crate) fn execute(
        &self,
        prepared: &PreparedApp,
        indices: &[u64],
        journal: Option<&CampaignJournal>,
        base: ReplayBase,
        ctl: Option<&ShardCtl>,
    ) -> CampaignResult {
        let workers = if self.cfg.parallelism == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            self.cfg.parallelism
        };

        install_quarantine_hook();
        let next = AtomicUsize::new(0);
        let outcomes = Mutex::new(base.outcomes);
        let cache_stats = Mutex::new(base.cache_stats);
        let snapshot_stats = Mutex::new(SnapshotStats::default());
        let skipped = AtomicU64::new(base.skipped);

        std::thread::scope(|scope| {
            for _ in 0..workers.min(indices.len()).max(1) {
                scope.spawn(|| {
                    QUARANTINE.with(|q| q.set(true));
                    loop {
                        if ctl.is_some_and(ShardCtl::stopped) {
                            break;
                        }
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&idx) = indices.get(slot) else { break };
                        match catch_unwind(AssertUnwindSafe(|| self.one_run(idx, prepared))) {
                            Ok((run_cache, run_snap, Some(outcome))) => {
                                cache_stats.lock().expect("poisoned").absorb(run_cache);
                                snapshot_stats.lock().expect("poisoned").absorb(run_snap);
                                if let Some(j) = journal {
                                    let _ = j.append_outcome(&outcome);
                                }
                                if let Some(c) = ctl {
                                    c.on_row();
                                }
                                outcomes.lock().expect("poisoned").push(outcome);
                            }
                            Ok((run_cache, run_snap, None)) => {
                                cache_stats.lock().expect("poisoned").absorb(run_cache);
                                snapshot_stats.lock().expect("poisoned").absorb(run_snap);
                                if let Some(j) = journal {
                                    let _ = j.append_skip(idx, run_cache);
                                }
                                if let Some(c) = ctl {
                                    c.on_row();
                                }
                                skipped.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(payload) => {
                                let outcome = harness_fault_outcome(idx, payload);
                                if let Some(j) = journal {
                                    let _ = j.append_outcome(&outcome);
                                }
                                if let Some(c) = ctl {
                                    c.on_row();
                                }
                                outcomes.lock().expect("poisoned").push(outcome);
                            }
                        }
                    }
                });
            }
        });

        let mut outcomes = outcomes.into_inner().expect("poisoned");
        outcomes.sort_by_key(|o| o.run_idx);
        let mut engine_stats = EngineStats::default();
        let mut parallel_stats = ParallelStats::default();
        for o in &outcomes {
            engine_stats.absorb(o.engine_stats);
            parallel_stats.absorb(o.parallel);
        }
        CampaignResult {
            outcomes,
            skipped: skipped.load(Ordering::Relaxed),
            golden_insns: prepared.golden.cluster.total_insns,
            profile_counts: prepared.profile_counts.clone().into_iter().collect(),
            cache_stats: cache_stats.into_inner().expect("poisoned"),
            snapshot_stats: snapshot_stats.into_inner().expect("poisoned"),
            engine_stats,
            parallel_stats,
            shard_stats: ShardStats::default(),
            pool_stats: PoolStats::default(),
            trace_regime: self.cfg.trace_regime,
        }
    }

    /// The fault run `idx` injects — target rank, class, trigger count and
    /// corruption seed, all drawn from `(cfg.seed, idx)` and `prepared`'s
    /// profile counts — and its trigger count again on its own. `None` when
    /// the drawn rank executes none of the campaign's classes (the run is
    /// skipped without touching a cluster). This is the whole recipe of a
    /// row: [`crate::run_app`] on it reproduces the run from launch.
    pub fn fault_for(&self, prepared: &PreparedApp, idx: u64) -> Option<(InjectionSpec, u64)> {
        let profile = &prepared.profile_counts;
        let mut rng = SmallRng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_add(idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let rank = match self.cfg.rank_pool {
            RankPool::Master => 0,
            RankPool::Random => rng.gen_range(0..self.app.nranks()),
        };
        // Draw a class with a non-zero dynamic count for this rank.
        let viable: Vec<usize> = (0..self.cfg.classes.len())
            .filter(|&ci| profile.get(&(rank, ci)).copied().unwrap_or(0) > 0)
            .collect();
        let &class_idx = viable.get(
            rng.gen_range(0..viable.len().max(1))
                .min(viable.len().saturating_sub(1)),
        )?;
        let trigger_n = rng.gen_range(1..=profile[&(rank, class_idx)]);
        let spec = InjectionSpec {
            target_program: self.app.name.clone(),
            target_rank: rank,
            class: self.cfg.classes[class_idx],
            trigger: Trigger::AfterN(trigger_n),
            corruption: Corruption::FlipRandomBits(self.cfg.bits_per_fault),
            operand: self.cfg.operand,
            max_injections: 1,
            seed: rng.gen(),
        };
        Some((spec, trigger_n))
    }

    /// The per-run options every injection run of this campaign executes
    /// under, injecting `spec`.
    pub fn run_options(&self, spec: InjectionSpec) -> RunOptions {
        RunOptions {
            spec: Some(spec),
            tracing: self.cfg.tracing,
            tracer: self.cfg.tracer,
            provenance: self.cfg.provenance,
            regime: self.cfg.trace_regime,
            hook_mpi_symbols: false,
            budget: self.cfg.run_budget,
            rank_threads: self.cfg.rank_threads,
            ..RunOptions::default()
        }
    }

    /// Executes run `idx`: draws its fault ([`Campaign::fault_for`]) and
    /// runs it from the ladder rung below the trigger. Always returns the
    /// run's cache and snapshot statistics; the outcome is `None` when the
    /// fault never fired.
    fn one_run(
        &self,
        idx: u64,
        prepared: &PreparedApp,
    ) -> (CacheStats, SnapshotStats, Option<RunOutcome>) {
        if self.cfg.panic_runs.contains(&idx) {
            panic!("forced harness panic (run {idx})");
        }
        let Some((spec, trigger_n)) = self.fault_for(prepared, idx) else {
            return (CacheStats::default(), SnapshotStats::default(), None);
        };
        let (class, rank) = (spec.class, spec.target_rank);
        let report = run_warm(prepared, &self.run_options(spec), true);
        let cache_stats = report.cache_stats;
        let snap_stats = report.snapshot;
        if !report.injected() {
            return (cache_stats, snap_stats, None);
        }
        let outcome = report.classify_against(&prepared.golden);
        let prov = report.provenance.as_ref();
        let outcome = RunOutcome {
            run_idx: idx,
            outcome,
            class,
            rank,
            trigger_n,
            injected: true,
            taint_reads: report.trace.as_ref().map_or(0, |t| t.taint_reads),
            taint_writes: report.trace.as_ref().map_or(0, |t| t.taint_writes),
            cross_rank: report.cluster.cross_rank_tainted_deliveries,
            taint_sync_lost: report.cluster.taint_sync_lost,
            prov_rank_reach: prov.map_or(0, |g| g.rank_reach().len() as u32),
            prov_blast_radius: prov.map_or(0, ProvenanceGraph::blast_radius_bytes),
            prov_msg_edges: prov.map_or(0, |g| g.msg_edges.len() as u64),
            prov_digest: prov.map_or(0, ProvenanceGraph::digest),
            total_insns: report.cluster.total_insns,
            record: report.injections.first().cloned(),
            cache_stats,
            engine_stats: report.engine_stats,
            parallel: report.parallel,
        };
        (cache_stats, snap_stats, Some(outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaser_vm::Signal;

    fn outcome(o: Outcome, reads: u64, writes: u64, cross: u64) -> RunOutcome {
        RunOutcome {
            run_idx: 0,
            outcome: o,
            class: InsnClass::Fadd,
            rank: 0,
            trigger_n: 1,
            injected: true,
            taint_reads: reads,
            taint_writes: writes,
            cross_rank: cross,
            taint_sync_lost: 0,
            prov_rank_reach: 0,
            prov_blast_radius: 0,
            prov_msg_edges: 0,
            prov_digest: 0,
            total_insns: 100,
            record: None,
            cache_stats: CacheStats::default(),
            engine_stats: EngineStats::default(),
            parallel: ParallelStats::default(),
        }
    }

    fn result(outcomes: Vec<RunOutcome>) -> CampaignResult {
        CampaignResult {
            outcomes,
            skipped: 0,
            golden_insns: 0,
            profile_counts: BTreeMap::new(),
            cache_stats: CacheStats::default(),
            snapshot_stats: SnapshotStats::default(),
            engine_stats: EngineStats::default(),
            parallel_stats: ParallelStats::default(),
            shard_stats: ShardStats::default(),
            pool_stats: PoolStats::default(),
            trace_regime: TraceRegime::default(),
        }
    }

    #[test]
    fn outcome_counts_and_percentages() {
        let r = result(vec![
            outcome(Outcome::Benign, 0, 0, 0),
            outcome(Outcome::Sdc, 0, 0, 0),
            outcome(
                Outcome::Terminated(TermCause::OsException {
                    rank: 0,
                    signal: Signal::Segv,
                }),
                0,
                0,
                0,
            ),
            outcome(Outcome::Benign, 0, 0, 0),
        ]);
        let c = r.outcome_counts();
        assert_eq!((c.benign, c.sdc, c.terminated), (2, 1, 1));
        let (b, s, t) = c.percentages();
        assert!((b - 50.0).abs() < 1e-9);
        assert!((s - 25.0).abs() < 1e-9);
        assert!((t - 25.0).abs() < 1e-9);
    }

    #[test]
    fn termination_breakdown_buckets() {
        let r = result(vec![
            outcome(
                Outcome::Terminated(TermCause::OsException {
                    rank: 0,
                    signal: Signal::Segv,
                }),
                0,
                0,
                0,
            ),
            outcome(
                Outcome::Terminated(TermCause::OsException {
                    rank: 2,
                    signal: Signal::Segv,
                }),
                0,
                0,
                1,
            ),
            outcome(
                Outcome::Terminated(TermCause::MpiError(chaser_mpi::MpiErrorKind::InvalidRank)),
                0,
                0,
                0,
            ),
            outcome(Outcome::Terminated(TermCause::Hang), 0, 0, 0),
        ]);
        let b = r.termination_breakdown();
        assert_eq!(b.os_exceptions, 1);
        assert_eq!(b.slave_node_failed, 1);
        assert_eq!(b.mpi_errors, 1);
        assert_eq!(b.hangs, 1);
        assert_eq!(b.total(), 4);
        // The propagated subset only sees the slave failure.
        let p = r.termination_breakdown_propagated();
        assert_eq!(p.total(), 1);
        assert_eq!(p.slave_node_failed, 1);
    }

    #[test]
    fn read_write_split_matches_definitions() {
        let r = result(vec![
            outcome(Outcome::Benign, 10, 2, 0), // more reads
            outcome(Outcome::Benign, 5, 0, 0),  // reads only
            outcome(Outcome::Benign, 0, 3, 0),  // writes only
            outcome(Outcome::Benign, 2, 5, 0),  // more writes: none of the three
        ]);
        assert_eq!(r.read_write_split(), (1, 1, 1));
    }

    #[test]
    fn pool_stats_csv_is_header_plus_one_row() {
        let stats = PoolStats {
            prepared_hits: 3,
            prepared_misses: 1,
            prepared_evictions: 2,
            queue_depth_hwm: 5,
        };
        assert_eq!(
            stats.to_csv(),
            "prepared_hits,prepared_misses,prepared_evictions,queue_depth_hwm\n3,1,2,5\n"
        );
        assert_eq!(
            PoolStats::default().to_csv(),
            "prepared_hits,prepared_misses,prepared_evictions,queue_depth_hwm\n0,0,0,0\n"
        );
    }

    #[test]
    fn rank_pool_names_round_trip() {
        for pool in [RankPool::Master, RankPool::Random] {
            assert_eq!(RankPool::from_name(pool.name()), Some(pool));
        }
        assert_eq!(RankPool::from_name("everyone"), None);
    }

    #[test]
    fn histogram_buckets_by_width() {
        let r = result(vec![
            outcome(Outcome::Benign, 5, 0, 0),
            outcome(Outcome::Benign, 15, 0, 0),
            outcome(Outcome::Benign, 17, 0, 0),
        ]);
        let h = r.histogram(10, |o| o.taint_reads);
        assert_eq!(h, vec![(0, 1), (10, 2)]);
    }
}
