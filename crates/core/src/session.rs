//! The Chaser session: wires injector, tracer and hooks into a cluster and
//! executes single runs.

use crate::injector::{FnHookLogger, Injector, InjectorHandle, ProfileHandle, ProfileHook};
use crate::outcome::{classify, Outcome};
use crate::plugin::{FiInterface, FiPlugin, HostState, PluginError, PluginHost};
use crate::provenance::{ProvenanceGraph, ProvenanceRecorder, PROV_LOG_CAPACITY};
use crate::spec::{InjectionSpec, Trigger};
use crate::tracer::{TraceSummary, Tracer, TracerConfig};
use chaser_isa::{abi, InsnClass, Program};
use chaser_mpi::{
    Cluster, ClusterConfig, ClusterRun, ClusterSnapshot, NetStats, ParallelStats, RunBudget,
    SharedMpiObserver,
};
use chaser_tainthub::HubStats;
use chaser_tcg::{BaseLayer, CacheStats};
use chaser_vm::{
    EngineStats, ExecTuning, InjectCountdown, InjectSink, SharedFnHookSink, SharedInjectSink,
    SharedTaintSink, SharedTranslateHook, SharedVmiSink, VmiSink,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// The application under test: one guest program per rank plus the cluster
/// configuration to run it on.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// The target program name (what VMI screens for).
    pub name: String,
    /// One program per rank (rank i = `programs[i]`, master = rank 0).
    pub programs: Vec<Program>,
    /// Cluster parameters.
    pub cluster: ClusterConfig,
}

impl AppSpec {
    /// A single-process application on a one-node cluster.
    pub fn single(program: Program) -> AppSpec {
        let name = program.name().to_string();
        AppSpec {
            name,
            programs: vec![program],
            cluster: ClusterConfig {
                nodes: 1,
                ..ClusterConfig::default()
            },
        }
    }

    /// `ranks` copies of the same program on `nodes` machines.
    pub fn replicated(program: Program, ranks: usize, nodes: usize) -> AppSpec {
        let name = program.name().to_string();
        AppSpec {
            name,
            programs: vec![program; ranks],
            cluster: ClusterConfig {
                nodes,
                ..ClusterConfig::default()
            },
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> u32 {
        self.programs.len() as u32
    }
}

/// How much of the tracing machinery a run (or campaign) arms.
///
/// The paper's enhancement over plain fault injection is elastic taint
/// tracing; ZOFI-style *statistical* campaigns need none of it — inject,
/// run at native speed, classify against the golden digest. This knob
/// selects between those worlds without touching the individual
/// `tracing`/`provenance` flags, so it composes with existing configs:
///
/// * [`TraceRegime::Full`] (the default) honors the `tracing` and
///   `provenance` flags exactly as configured — today's behavior.
/// * [`TraceRegime::TaintOnly`] forces taint tracing on and the provenance
///   *recorder* off: no graph is built. The provenance *shadow* is still
///   maintained — the injector stamps each fault's set under every traced
///   regime and the tracer's `prov` column carries it. A block that
///   starts with no tainted register pays for shadow work at its memory
///   ops only, even while memory holds taint (the engine's clean-register
///   regime, `DESIGN.md` §9).
/// * [`TraceRegime::Off`] forces both off: the taint policy is
///   `Disabled`, so no shadow state is ever materialised, no taint sink
///   or observer hooks are registered, the TaintHub never publishes, and
///   every memory op takes the shadow-free tier of the two.
///   Outcomes are still classified soundly — see `DESIGN.md` §13.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceRegime {
    /// Statistical mode: never arm taint or provenance, whatever the
    /// `tracing`/`provenance` flags say.
    Off,
    /// Taint tracing without provenance graphs (the provenance shadow is
    /// still maintained; only the recorder is off). Blocks with no tainted
    /// register at entry run without per-op shadow work.
    TaintOnly,
    /// Honor the `tracing`/`provenance` flags as configured.
    #[default]
    Full,
}

impl TraceRegime {
    /// The wire name (`off` / `taint` / `full`) used by journals, CLI
    /// tokens and campaign specs.
    pub fn name(self) -> &'static str {
        match self {
            TraceRegime::Off => "off",
            TraceRegime::TaintOnly => "taint",
            TraceRegime::Full => "full",
        }
    }

    /// Parses a wire name produced by [`TraceRegime::name`].
    pub fn from_name(name: &str) -> Option<TraceRegime> {
        match name {
            "off" => Some(TraceRegime::Off),
            "taint" => Some(TraceRegime::TaintOnly),
            "full" => Some(TraceRegime::Full),
            _ => None,
        }
    }

    /// The effective `(tracing, provenance)` pair after this regime is
    /// applied to the configured flags. Every consumer of the raw flags
    /// goes through here, so the regime cannot be half-applied.
    pub fn effective(self, tracing: bool, provenance: bool) -> (bool, bool) {
        match self {
            TraceRegime::Off => (false, false),
            TraceRegime::TaintOnly => (true, false),
            TraceRegime::Full => (tracing, provenance),
        }
    }
}

/// Per-run options.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// The fault to inject, if any.
    pub spec: Option<InjectionSpec>,
    /// Enable the fault-propagation tracer.
    pub tracing: bool,
    /// Tracer parameters.
    pub tracer: TracerConfig,
    /// Record a per-run fault-propagation [`ProvenanceGraph`] (taint
    /// machinery stays on even without `tracing`).
    pub provenance: bool,
    /// Tracing regime: [`TraceRegime::Full`] (default) honors the
    /// `tracing`/`provenance` flags above; `TaintOnly` and `Off` override
    /// them — see [`TraceRegime`].
    pub regime: TraceRegime,
    /// Hook the guest MPI wrapper functions by symbol address (the paper's
    /// interception mechanism; mostly useful for demos and tests — the
    /// runtime-level observers carry the actual taint synchronisation).
    pub hook_mpi_symbols: bool,
    /// Per-run watchdog budget, merged (tighter bound wins) with the
    /// cluster configuration's own [`RunBudget`].
    pub budget: RunBudget,
    /// Hot-path engine paths (TB chaining, clean-block regime). Test-only:
    /// no campaign surface sets it; the knobs-off paths are the reference
    /// the inertness tests compare the defaults against — see `DESIGN.md`
    /// §9 and §16.
    pub exec_tuning: ExecTuning,
    /// Worker threads the cluster scheduler's compute phase may fan nodes
    /// out over. `0` inherits the application's own
    /// [`ClusterConfig::rank_threads`]; any other value overrides it.
    /// Observationally inert — see `DESIGN.md` §10.
    pub rank_threads: usize,
}

impl RunOptions {
    /// Options for a golden (fault-free, untraced) run.
    pub fn golden() -> RunOptions {
        RunOptions::default()
    }

    /// Options injecting `spec` with tracing and provenance recording on.
    pub fn inject_traced(spec: InjectionSpec) -> RunOptions {
        RunOptions {
            spec: Some(spec),
            tracing: true,
            provenance: true,
            ..RunOptions::default()
        }
    }

    /// Options injecting `spec` without tracing.
    pub fn inject(spec: InjectionSpec) -> RunOptions {
        RunOptions {
            spec: Some(spec),
            tracing: false,
            ..RunOptions::default()
        }
    }

    /// The effective `(tracing, provenance)` pair after the regime is
    /// applied — what the run actually arms.
    pub fn effective_trace(&self) -> (bool, bool) {
        self.regime.effective(self.tracing, self.provenance)
    }
}

/// Snapshot/restore counters for one run (or summed over a campaign).
/// A run restored from a ladder rung ([`run_warm`], which is how every
/// campaign run executes) reports one restore plus its copy-on-write page
/// traffic; the single-run API ([`run_app`], [`run_prepared`]) executes from
/// launch and reports all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotStats {
    /// Cluster restores performed (1 for a run restored from a rung).
    pub restores: u64,
    /// Pages adopted `Arc`-shared (zero-copy) from the rung.
    pub pages_shared: u64,
    /// Shared pages privatised by a suffix write (the run's dirty set).
    pub pages_cow: u64,
    /// Guest instructions the restored rung covered — fault-free prefix
    /// work the run did *not* re-execute.
    pub insns_skipped: u64,
}

impl SnapshotStats {
    /// Accumulates `other` into `self` (campaign-level aggregation).
    pub fn absorb(&mut self, other: SnapshotStats) {
        self.restores += other.restores;
        self.pages_shared += other.pages_shared;
        self.pages_cow += other.pages_cow;
        self.insns_skipped += other.insns_skipped;
    }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The cluster-level result.
    pub cluster: ClusterRun,
    /// Per-rank result-file bytes (fd 3).
    pub outputs: Vec<Vec<u8>>,
    /// Per-rank stdout bytes.
    pub stdouts: Vec<Vec<u8>>,
    /// Faults actually placed.
    pub injections: Vec<crate::injector::InjectionRecord>,
    /// Executions of the targeted class observed by the injector.
    pub injector_exec_count: u64,
    /// Trace results when tracing was enabled.
    pub trace: Option<TraceSummary>,
    /// TaintHub counters.
    pub hub_stats: HubStats,
    /// TaintHub records still queued (unconsumed) at run end — a campaign
    /// over a healthy hub sees this drain to 0 on completed runs.
    pub hub_pending: usize,
    /// Taint records published to the hub over the whole run (lifetime
    /// counter; unaffected by consumption and GC).
    pub hub_published: u64,
    /// Interconnect counters: messages sent and delivered, payload bytes.
    pub net: NetStats,
    /// Guest MPI function-hook hits when `hook_mpi_symbols` was set:
    /// `(hook id, pc, args)`.
    pub fn_hook_hits: Vec<(u64, u64, [u64; 6])>,
    /// Translation-cache statistics aggregated over the run's nodes.
    pub cache_stats: CacheStats,
    /// Hot-path engine counters aggregated over the run's nodes (chain
    /// hits/severs, fast- vs slow-path memory operations).
    pub engine_stats: EngineStats,
    /// Snapshot/restore counters (all zero on runs executed from launch).
    pub snapshot: SnapshotStats,
    /// Scheduler-parallelism counters: threads used, rounds that ran work
    /// on more than one worker, and the per-worker instruction balance.
    pub parallel: ParallelStats,
    /// The fault-propagation provenance graph when
    /// [`RunOptions::provenance`] was set.
    pub provenance: Option<ProvenanceGraph>,
}

impl RunReport {
    /// Classifies this run against a golden run's outputs.
    pub fn classify_against(&self, golden: &RunReport) -> Outcome {
        classify(&self.cluster, &self.outputs, &golden.outputs)
    }

    /// Did the injector fire at least once?
    pub fn injected(&self) -> bool {
        !self.injections.is_empty()
    }

    /// The corrupted regions of this run's outputs relative to a golden
    /// run (empty unless the run is an SDC).
    pub fn corrupted_regions(&self, golden: &RunReport) -> Vec<crate::CorruptedRegion> {
        crate::diff_outputs(&self.outputs, &golden.outputs)
    }
}

/// The one typed hook-wiring builder shared by every run flavour: collects
/// whichever sinks a run needs and installs them all in a single pass.
/// Node-level hooks (translate / inject / VMI / guest-function sinks) land
/// on every node; taint sinks and MPI observers register at the cluster so
/// their events commit in canonical rank order at the round barrier. Must
/// be applied before launch so VMI observes process creation.
#[derive(Default)]
pub struct HookRegistry {
    translate: Option<SharedTranslateHook>,
    inject: Option<SharedInjectSink>,
    inject_countdown: Option<Arc<InjectCountdown>>,
    vmi: Option<SharedVmiSink>,
    fn_hook_sink: Option<SharedFnHookSink>,
    taint_sinks: Vec<SharedTaintSink>,
    observers: Vec<SharedMpiObserver>,
}

impl HookRegistry {
    /// An empty registry.
    pub fn new() -> HookRegistry {
        HookRegistry::default()
    }

    /// Installs `hook` as the translate hook and `handle` as both the
    /// inject sink receiving its `CallInject` callbacks (with the countdown
    /// it shares, if any) and the VMI sink screening process events.
    pub fn instrument<H>(mut self, hook: SharedTranslateHook, handle: H) -> HookRegistry
    where
        H: InjectSink + VmiSink + Send + 'static,
    {
        self.inject_countdown = handle.countdown();
        let handle = Arc::new(Mutex::new(handle));
        self.translate = Some(hook);
        self.inject = Some(Arc::clone(&handle) as SharedInjectSink);
        self.vmi = Some(handle as SharedVmiSink);
        self
    }

    /// Registers a cluster-level taint-event sink (tracer, provenance
    /// recorder); events are drained to it at each round barrier.
    pub fn taint_sink(mut self, sink: SharedTaintSink) -> HookRegistry {
        self.taint_sinks.push(sink);
        self
    }

    /// Registers an MPI runtime observer.
    pub fn observer(mut self, obs: SharedMpiObserver) -> HookRegistry {
        self.observers.push(obs);
        self
    }

    /// Installs the guest function-entry sink.
    pub fn fn_hook_sink(mut self, sink: SharedFnHookSink) -> HookRegistry {
        self.fn_hook_sink = Some(sink);
        self
    }

    /// Wires everything collected into `cluster`.
    pub fn apply(self, cluster: &mut Cluster) {
        cluster.for_each_node_mut(|node| {
            let hooks = node.hooks_mut();
            if let Some(translate) = &self.translate {
                hooks.translate = Some(Arc::clone(translate));
            }
            if let Some(inject) = &self.inject {
                hooks.inject = Some(Arc::clone(inject));
            }
            if let Some(countdown) = &self.inject_countdown {
                hooks.inject_countdown = Arc::clone(countdown);
            }
            if let Some(vmi) = &self.vmi {
                hooks.vmi.push(Arc::clone(vmi));
            }
            if let Some(sink) = &self.fn_hook_sink {
                hooks.fn_hook_sink = Some(Arc::clone(sink));
            }
        });
        for sink in self.taint_sinks {
            cluster.add_taint_sink(sink);
        }
        for obs in self.observers {
            cluster.add_observer(obs);
        }
    }
}

/// Collects per-rank result-file and stdout bytes.
fn collect_rank_files(cluster: &Cluster) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut outputs = Vec::new();
    let mut stdouts = Vec::new();
    for rank in 0..cluster.nranks() {
        let files = cluster.rank_files(rank);
        outputs.push(files.output.clone());
        stdouts.push(files.stdout.clone());
    }
    (outputs, stdouts)
}

/// Executes one run of `app` under `opts`.
pub fn run_app(app: &AppSpec, opts: &RunOptions) -> RunReport {
    run_app_inner(app, opts, None)
}

/// The cluster configuration a run actually executes under. The paper's
/// "fault propagation tracing" switch governs the whole taint machinery
/// (DECAF++-style elastic tainting): with tracing off, no shadow state is
/// maintained at all, which is what makes the FI-only configuration nearly
/// free (Fig. 10). The per-run watchdog budget is merged in (tighter bound
/// wins). The checkpoint ladder is captured under this same effective taint
/// policy ([`run_warm`] asserts it); the budget only decides which rungs a
/// run may use.
fn effective_cluster_cfg(app: &AppSpec, opts: &RunOptions) -> ClusterConfig {
    let mut cluster_cfg = app.cluster.clone();
    let (tracing, provenance) = opts.effective_trace();
    if !tracing && !provenance {
        cluster_cfg.taint_policy = chaser_taint::TaintPolicy::Disabled;
    }
    cluster_cfg.run_budget = cluster_cfg.run_budget.merge(opts.budget);
    cluster_cfg.exec_tuning = opts.exec_tuning;
    if opts.rank_threads != 0 {
        cluster_cfg.rank_threads = opts.rank_threads;
    }
    if opts.hook_mpi_symbols {
        // Function-entry hits are logged in firing order from inside the
        // compute phase; keep that order deterministic by running serial.
        cluster_cfg.rank_threads = 1;
    }
    cluster_cfg
}

/// Drives `cluster` to completion, sampling tainted-byte counts into the
/// tracer after every round.
fn run_sampled(cluster: &mut Cluster, tracer: Option<&Arc<Mutex<Tracer>>>) -> ClusterRun {
    cluster.run_with(|c| {
        if let Some(tr) = tracer {
            let total = c.total_insns();
            let tainted: usize = c
                .nodes()
                .iter()
                .map(|n| n.taint().mem().tainted_bytes())
                .sum();
            tr.lock().maybe_sample(total, tainted);
        }
    })
}

/// Assembles the [`RunReport`] shared by every run flavour.
fn build_report(
    cluster: &Cluster,
    cluster_run: ClusterRun,
    injector: Option<&Arc<Injector>>,
    tracer: Option<Arc<Mutex<Tracer>>>,
    fn_logger: Option<Arc<Mutex<FnHookLogger>>>,
    snapshot: SnapshotStats,
    recorder: Option<Arc<Mutex<ProvenanceRecorder>>>,
) -> RunReport {
    let provenance = recorder.map(|rec| {
        let mut rank_of: BTreeMap<(u32, u64), u32> = BTreeMap::new();
        for rank in 0..cluster.nranks() {
            let (ni, pid) = cluster.rank_location(rank);
            rank_of.insert((ni as u32, pid), rank);
        }
        rec.lock().to_graph(&rank_of)
    });
    let (outputs, stdouts) = collect_rank_files(cluster);
    RunReport {
        cluster: cluster_run,
        outputs,
        stdouts,
        injections: injector.map(|i| i.records()).unwrap_or_default(),
        injector_exec_count: injector.map_or(0, |i| i.exec_count()),
        trace: tracer.map(|tr| tr.lock().take_summary()),
        hub_stats: cluster.hub().stats(),
        hub_pending: cluster.hub().pending(),
        hub_published: cluster.hub().published_total(),
        net: cluster.net_stats(),
        fn_hook_hits: fn_logger.map_or_else(Vec::new, |l| l.lock().hits.clone()),
        cache_stats: cluster.tb_cache_stats(),
        engine_stats: cluster.engine_stats(),
        snapshot,
        parallel: cluster.parallel_stats(),
        provenance,
    }
}

/// Builds the hook registry every injection-run flavour shares: injector
/// instrumentation, the tracer and provenance recorder as barrier-drained
/// taint sinks, and the recorder doubling as the cross-rank MPI observer.
fn run_registry(
    injector: Option<&Arc<Injector>>,
    tracer: Option<&Arc<Mutex<Tracer>>>,
    recorder: Option<&Arc<Mutex<ProvenanceRecorder>>>,
) -> HookRegistry {
    let mut registry = HookRegistry::new();
    if let Some(inj) = injector {
        registry = registry.instrument(
            Arc::clone(inj) as SharedTranslateHook,
            InjectorHandle(Arc::clone(inj)),
        );
    }
    if let Some(tr) = tracer {
        registry = registry.taint_sink(Arc::clone(tr) as SharedTaintSink);
    }
    if let Some(rec) = recorder {
        registry = registry
            .taint_sink(Arc::clone(rec) as SharedTaintSink)
            .observer(Arc::clone(rec) as SharedMpiObserver);
    }
    registry
}

fn run_app_inner(
    app: &AppSpec,
    opts: &RunOptions,
    base_caches: Option<&[Arc<BaseLayer>]>,
) -> RunReport {
    let mut cluster = Cluster::new(effective_cluster_cfg(app, opts));
    if let Some(bases) = base_caches {
        cluster.install_base_caches(bases);
    }

    let injector = opts.spec.clone().map(Injector::new);
    let (tracing, provenance) = opts.effective_trace();
    let tracer = tracing.then(|| Arc::new(Mutex::new(Tracer::new(opts.tracer))));
    let recorder =
        provenance.then(|| Arc::new(Mutex::new(ProvenanceRecorder::new(PROV_LOG_CAPACITY))));
    let fn_logger = opts
        .hook_mpi_symbols
        .then(|| Arc::new(Mutex::new(FnHookLogger::default())));

    let mut registry = run_registry(injector.as_ref(), tracer.as_ref(), recorder.as_ref());
    if let Some(logger) = &fn_logger {
        registry = registry.fn_hook_sink(Arc::clone(logger) as SharedFnHookSink);
    }
    registry.apply(&mut cluster);

    let program_refs: Vec<&Program> = app.programs.iter().collect();
    cluster.launch(&program_refs).expect("launch application");

    // Hook the guest MPI wrapper symbols by address, per rank.
    if opts.hook_mpi_symbols {
        for rank in 0..cluster.nranks() {
            let (ni, pid) = cluster.rank_location(rank);
            let program = &app.programs[rank as usize];
            for (hook_id, sym) in [
                abi::symbols::MPI_SEND,
                abi::symbols::MPI_RECV,
                abi::symbols::MPI_BCAST,
                abi::symbols::MPI_REDUCE,
            ]
            .iter()
            .enumerate()
            {
                if let Some(addr) = program.symbol(sym) {
                    cluster
                        .node_mut(ni)
                        .hooks_mut()
                        .fn_hooks
                        .insert((pid, addr), hook_id as u64);
                }
            }
        }
    }

    let cluster_run = run_sampled(&mut cluster, tracer.as_ref());
    build_report(
        &cluster,
        cluster_run,
        injector.as_ref(),
        tracer,
        fn_logger,
        SnapshotStats::default(),
        recorder,
    )
}

/// An application prepared for repeated campaign runs: the golden
/// (fault-free) reference report, per-`(rank, class)` dynamic execution
/// counts, and one immutable base translation cache per node, sealed from
/// a hook-free warm-up run. Cheap to share across worker threads — the
/// base layers are read-only `Arc`s that every run's overlay sits on top
/// of, so workers skip almost all translation work.
#[derive(Debug, Clone)]
pub struct PreparedApp {
    /// The application under test.
    pub app: AppSpec,
    /// The golden reference report (produced by the warm-up run).
    pub golden: RunReport,
    /// Dynamic execution counts per `(rank, class index)`.
    pub profile_counts: HashMap<(u32, usize), u64>,
    /// Clean-TB base layers, one per node, warmed by the golden run.
    pub base_caches: Vec<Arc<BaseLayer>>,
    /// The checkpoint ladder, when one was built: always on a
    /// [`crate::Campaign::prepare`]d application, only after an explicit
    /// [`warm_start_for`] on a [`prepare_app`]ed one.
    pub warm: Option<WarmStart>,
}

/// Instruction-spaced rungs a ladder places above rung 0, at most. A mean
/// run re-executes half a spacing below its trigger — 6.3 %, 3.1 %, 1.6 %
/// of a golden run at 8, 16, 32 — and every doubling costs the pages
/// dirtied per interval once more: measured on the ledger at 8 / 16 / 32,
/// `clamr4_off_warm` 830 / 906 / 958 runs/s at 7.8 / 9.1 / 11.6 MiB peak
/// RSS and `matvec4_full_cold` 1 613 / 1 868 / 2 313 at 11.1 / 11.8 /
/// 13.7 MiB. 16 is the largest count at which every ledger workload still
/// peaks below the ladder-free parent (11.9 and 13.9 MiB on those two);
/// DESIGN §7 has the table.
const LADDER_MAX_RUNGS: u64 = 16;

/// Guest pages (4 KiB each) the rungs above rung 0 may keep alive between
/// them; a ladder over this drops every other rung until it fits. 1 024
/// pages = 4 MiB: the 16-rung ladders of the ledger's applications hold
/// 66 (lud48), 120 (matvec64), 180 (clamr256) and 4 (bfs512) pages, so none
/// of them is thinned, while an application that rewrites megabytes per
/// rung interval gets a shorter ladder instead of a resident set that grows
/// with the golden run's length.
const LADDER_PAGE_BUDGET: u64 = 1024;

/// One rung of the checkpoint ladder: the fault-free cluster frozen at a
/// round boundary, annotated with how many instructions of each campaign
/// class every rank had executed by then.
#[derive(Debug, Clone)]
struct Rung {
    snapshot: Arc<ClusterSnapshot>,
    /// `[rank * classes.len() + class index]`, as [`ProfileHook`] counts.
    counts: Vec<u64>,
}

impl Rung {
    /// Does a run under `budget` pass through this rung's state? Every
    /// slice of the prefix retired fewer instructions than the budget had
    /// left (strictly: a slice that *reaches* its cap reports the budget
    /// stop), and the round counter is below the round cap.
    fn within(&self, budget: RunBudget) -> bool {
        (budget.max_insns == 0 || self.snapshot.total_insns() < budget.max_insns)
            && (budget.max_rounds == 0 || self.snapshot.round() < budget.max_rounds)
    }
}

/// The checkpoint ladder every injection run of a campaign restores from:
/// copy-on-write snapshots of the fault-free execution at round boundaries,
/// spaced evenly in retired instructions. Rung 0 is the post-launch state.
///
/// A run whose fault fires at the `n`-th instruction of a class on a rank
/// restores the last rung at which that rank had executed **fewer than
/// `n`** of them (strictly — the injector fires when its counter *reaches*
/// `n`, so the `n`-th execution itself must happen in the run) and arms the
/// injector with the rung's count. The prefix it skips is bit-identical to
/// the one it would have executed, so the report equals a run from launch
/// in everything but the work counters — see [`run_warm`].
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// The lowest rung (post-launch, nothing executed). Guest pages inside
    /// are `Arc`-shared across rungs and worker threads; each run
    /// privatises only the pages its suffix writes.
    pub snapshot: Arc<ClusterSnapshot>,
    /// Guest instructions [`WarmStart::snapshot`] had retired (0).
    pub prefix_insns: u64,
    /// The class list the rung counts are indexed by.
    classes: Vec<InsnClass>,
    /// Whether the rungs were captured with the taint machinery armed.
    taint_armed: bool,
    /// Ascending in round, instructions and every count.
    rungs: Vec<Rung>,
}

impl WarmStart {
    /// Number of rungs, rung 0 included.
    pub fn rungs(&self) -> usize {
        self.rungs.len()
    }

    /// The rung a run of `app` injecting `spec` under `budget` restores,
    /// and the count to arm its injector with. Anything the ladder cannot
    /// place — no fault, a trigger other than [`Trigger::AfterN`], a class
    /// it was not built for, a program or rank that never arms — restores
    /// rung 0.
    fn rung_for(
        &self,
        app: &AppSpec,
        spec: Option<&InjectionSpec>,
        budget: RunBudget,
    ) -> (&Rung, u64) {
        let placed = spec.and_then(|s| {
            let Trigger::AfterN(n) = s.trigger else {
                return None;
            };
            let class_idx = self.classes.iter().position(|c| *c == s.class)?;
            let arms = s.target_program == app.name
                && s.target_rank < app.nranks()
                && s.max_injections > 0;
            arms.then_some((s.target_rank as usize * self.classes.len() + class_idx, n))
        });
        let Some((slot, n)) = placed else {
            return (&self.rungs[0], 0);
        };
        // Counts, instructions and rounds all grow along the ladder, so the
        // usable rungs are a prefix of it (rung 0 always is).
        let usable = self
            .rungs
            .partition_point(|r| r.counts[slot] < n && r.within(budget));
        let rung = &self.rungs[usable.max(1) - 1];
        (rung, rung.counts[slot])
    }
}

/// What a ladder must know about the campaign it serves.
#[derive(Debug, Clone)]
pub struct WarmStartOptions {
    /// Instruction classes faults may target.
    pub classes: Vec<InsnClass>,
    /// Ranks faults may target. Unused: rungs are annotated for every rank.
    pub ranks: Vec<u32>,
    /// Whether campaign runs trace fault propagation.
    pub tracing: bool,
    /// Whether campaign runs record provenance graphs (keeps the taint
    /// machinery on, like `tracing`).
    pub provenance: bool,
    /// The campaign's per-run watchdog budget. Unused at capture: a run's
    /// own budget decides which rungs it may restore.
    pub budget: RunBudget,
}

/// A cluster of `app` under `cfg`, launched with a [`ProfileHook`] for
/// `classes` wired in.
fn launch_profiled(
    app: &AppSpec,
    cfg: ClusterConfig,
    classes: &[InsnClass],
) -> (Cluster, Arc<ProfileHook>) {
    let mut cluster = Cluster::new(cfg);
    let profile = ProfileHook::new(app.name.clone(), classes.to_vec(), app.nranks());
    HookRegistry::new()
        .instrument(
            Arc::clone(&profile) as SharedTranslateHook,
            ProfileHandle(Arc::clone(&profile)),
        )
        .apply(&mut cluster);
    let program_refs: Vec<&Program> = app.programs.iter().collect();
    cluster.launch(&program_refs).expect("launch application");
    (cluster, profile)
}

/// Guest pages `rungs` keep alive beyond what rung 0 holds anyway.
fn pages_above_rung0(rungs: &[Rung]) -> u64 {
    let mut ids = HashSet::new();
    for rung in rungs {
        rung.snapshot.for_each_page_id(|id| {
            ids.insert(id);
        });
    }
    ids.len() as u64 - rungs[0].snapshot.resident_pages()
}

/// Drops every other rung (never rung 0) until the rest keep at most
/// `budget` pages alive above rung 0.
fn thin(rungs: &mut Vec<Rung>, budget: u64) {
    while rungs.len() > 1 && pages_above_rung0(rungs) > budget {
        *rungs = std::mem::take(rungs).into_iter().step_by(2).collect();
    }
}

/// The one profiled fault-free pass behind a campaign: runs `app` to
/// completion under the taint policy injection runs will execute with
/// (`taint_armed`: they trace or record provenance), counting `classes` per
/// rank, and freezes a rung after launch and then at
/// the first round boundary past every `golden_insns / LADDER_MAX_RUNGS`
/// retired instructions (rounds differ in length by two orders of magnitude,
/// so spacing by rounds would bunch the rungs). Returns the final counts and
/// the ladder.
///
/// Capturing from the *profiled* cluster is sound because nothing the
/// profile adds is snapshot state: hooks, translated blocks and engine
/// counters stay behind, and the callbacks never touch the guest.
fn ladder_pass(
    app: &AppSpec,
    golden_insns: u64,
    classes: &[InsnClass],
    taint_armed: bool,
) -> (HashMap<(u32, usize), u64>, WarmStart) {
    let run_opts = RunOptions {
        tracing: taint_armed,
        ..RunOptions::default()
    };
    let (mut cluster, profile) =
        launch_profiled(app, effective_cluster_cfg(app, &run_opts), classes);
    let capture = |cluster: &mut Cluster| Rung {
        snapshot: Arc::new(cluster.snapshot()),
        counts: profile.counts_dense(),
    };
    let spacing = golden_insns.div_ceil(LADDER_MAX_RUNGS).max(1);
    let mut rungs = vec![capture(&mut cluster)];
    let mut next = spacing;
    while !cluster.finished() {
        cluster.step_round();
        let insns = cluster.total_insns();
        if insns >= next && !cluster.finished() {
            rungs.push(capture(&mut cluster));
            next = (insns / spacing + 1) * spacing;
        }
    }
    thin(&mut rungs, LADDER_PAGE_BUDGET);
    let warm = WarmStart {
        snapshot: Arc::clone(&rungs[0].snapshot),
        prefix_insns: rungs[0].snapshot.total_insns(),
        classes: classes.to_vec(),
        taint_armed,
        rungs,
    };
    (profile.counts(), warm)
}

/// Builds the checkpoint ladder for `prepared` under `wopts` (see
/// [`WarmStart`]): one profiled fault-free pass. Always `Some` — rung 0
/// exists for every application; the `Option` is the signature the
/// benchmark was frozen with.
pub fn warm_start_for(prepared: &PreparedApp, wopts: &WarmStartOptions) -> Option<WarmStart> {
    let (_, warm) = ladder_pass(
        &prepared.app,
        prepared.golden.cluster.total_insns,
        &wopts.classes,
        wopts.tracing || wopts.provenance,
    );
    Some(warm)
}

/// Runs the prepared application once from its checkpoint ladder: picks the
/// rung for `opts.spec` (see [`WarmStart`]), restores it (zero-copy; guest
/// pages go copy-on-write), wires this run's hooks, replays VMI
/// process-creation events so the injector arms exactly as it would at
/// launch — with the rung's class count already on its trigger counter —
/// and executes only the suffix. With `share_base_caches`, nodes are also
/// born holding the golden-warmed base translation layers; campaigns always
/// pass `true`, and `false` is the translate-from-scratch reference the
/// tests compare against (`DESIGN.md` §16).
///
/// The report equals [`run_prepared`]'s under the same options in every
/// field except the work counters `cache_stats`, `engine_stats`, `parallel`
/// and `snapshot`, which describe the executed suffix, and
/// `trace.tainted_byte_samples`, whose series starts at the rung. A budget
/// that ends before a rung excludes that rung, so a run the watchdog stops
/// early still stops at the same instruction.
///
/// # Panics
///
/// Panics when `prepared` carries no ladder, when the ladder was captured
/// under a different effective tracing regime than `opts` asks for, or when
/// `opts.hook_mpi_symbols` is set (unsupported on this path).
pub fn run_warm(prepared: &PreparedApp, opts: &RunOptions, share_base_caches: bool) -> RunReport {
    let warm = prepared
        .warm
        .as_ref()
        .expect("prepared application has no checkpoint ladder");
    assert!(
        !opts.hook_mpi_symbols,
        "symbol hooks are not supported on the ladder path"
    );
    let (tracing, provenance) = opts.effective_trace();
    assert_eq!(
        tracing || provenance,
        warm.taint_armed,
        "the ladder was captured under a different tracing regime"
    );
    let cfg = effective_cluster_cfg(&prepared.app, opts);
    let (rung, seen) = warm.rung_for(&prepared.app, opts.spec.as_ref(), cfg.run_budget);
    run_from(prepared, rung, seen, cfg, opts, share_base_caches)
}

/// [`run_warm`] from a given `rung`, its injector armed with `seen`
/// executions of the targeted class.
fn run_from(
    prepared: &PreparedApp,
    rung: &Rung,
    seen: u64,
    cfg: ClusterConfig,
    opts: &RunOptions,
    share_base_caches: bool,
) -> RunReport {
    let (tracing, provenance) = opts.effective_trace();
    let mut cluster = Cluster::from_snapshot(cfg, &rung.snapshot);

    let injector = opts.spec.clone().map(|s| Injector::resuming(s, seen));
    let tracer = tracing.then(|| Arc::new(Mutex::new(Tracer::new(opts.tracer))));
    let recorder =
        provenance.then(|| Arc::new(Mutex::new(ProvenanceRecorder::new(PROV_LOG_CAPACITY))));
    run_registry(injector.as_ref(), tracer.as_ref(), recorder.as_ref()).apply(&mut cluster);
    cluster.replay_vmi_creations();
    if share_base_caches {
        cluster.install_base_caches(&prepared.base_caches);
    }

    let cluster_run = run_sampled(&mut cluster, tracer.as_ref());
    let mem = cluster.mem_stats();
    let snapshot = SnapshotStats {
        restores: 1,
        pages_shared: mem.pages_shared,
        pages_cow: mem.pages_cow,
        insns_skipped: rung.snapshot.total_insns(),
    };
    build_report(
        &cluster,
        cluster_run,
        injector.as_ref(),
        tracer,
        None,
        snapshot,
        recorder,
    )
}

/// The hook-free golden pass: the reference report and every node's
/// translation cache sealed into a shareable base layer.
///
/// It must be hook-free: with no translate hook installed every block
/// translates clean, so sealing captures the whole guest working set.
/// [`ProfileHook`] instruments the target's blocks, and sealing drops
/// instrumented TBs.
///
/// # Panics
///
/// Panics when the golden run hangs — the application or cluster
/// configuration is broken.
fn golden_pass(app: &AppSpec) -> (RunReport, Vec<Arc<BaseLayer>>) {
    let mut cluster_cfg = app.cluster.clone();
    cluster_cfg.taint_policy = chaser_taint::TaintPolicy::Disabled;
    let mut cluster = Cluster::new(cluster_cfg);
    let program_refs: Vec<&Program> = app.programs.iter().collect();
    cluster.launch(&program_refs).expect("launch application");
    let cluster_run = cluster.run();
    assert!(
        !cluster_run.hang,
        "golden run hung — application or cluster configuration is broken"
    );
    let golden = build_report(
        &cluster,
        cluster_run,
        None,
        None,
        None,
        SnapshotStats::default(),
        None,
    );
    (golden, cluster.seal_tb_caches())
}

/// Prepares `app` the way a campaign does: the golden pass, then the one
/// profiled pass that yields both `profile_counts` and the checkpoint
/// ladder, captured with the taint machinery on when `taint_armed` (the
/// campaign's regime-effective `tracing || provenance`).
pub(crate) fn prepare_with_ladder(
    app: &AppSpec,
    classes: &[InsnClass],
    taint_armed: bool,
) -> PreparedApp {
    let (golden, base_caches) = golden_pass(app);
    let (profile_counts, warm) = ladder_pass(app, golden.cluster.total_insns, classes, taint_armed);
    PreparedApp {
        app: app.clone(),
        golden,
        profile_counts,
        base_caches,
        warm: Some(warm),
    }
}

/// Prepares `app` for repeated single runs ([`run_prepared`]): the golden
/// pass (reference report + sealed base caches) and a profiling pass for the
/// dynamic execution counts of `classes`. Carries no checkpoint ladder —
/// campaigns prepare through [`crate::Campaign::prepare`], which folds
/// profiling and ladder capture into one pass.
///
/// # Panics
///
/// Panics when the golden run hangs — the application or cluster
/// configuration is broken.
pub fn prepare_app(app: &AppSpec, classes: &[InsnClass]) -> PreparedApp {
    let (golden, base_caches) = golden_pass(app);
    let (_, profile_counts) = profile_app(app, classes);
    PreparedApp {
        app: app.clone(),
        golden,
        profile_counts,
        base_caches,
        warm: None,
    }
}

/// Runs the prepared application once under `opts`, with every node born
/// holding the shared base translation cache. Semantics are identical to
/// [`run_app`] on [`PreparedApp::app`] — instrumented blocks always
/// translate fresh into the per-run overlay, and flushes clear only the
/// overlay — so same options and seed give the same [`RunReport`] contents
/// (modulo `cache_stats`).
pub fn run_prepared(prepared: &PreparedApp, opts: &RunOptions) -> RunReport {
    run_app_inner(&prepared.app, opts, Some(&prepared.base_caches))
}

/// Runs `app` fault-free while counting dynamic executions of each class in
/// `classes`, per rank. Returns the golden report and the counts keyed
/// `(rank, class index)`.
pub fn profile_app(
    app: &AppSpec,
    classes: &[InsnClass],
) -> (RunReport, HashMap<(u32, usize), u64>) {
    let (mut cluster, profile) = launch_profiled(app, app.cluster.clone(), classes);
    let cluster_run = cluster.run();
    let report = build_report(
        &cluster,
        cluster_run,
        None,
        None,
        None,
        SnapshotStats::default(),
        None,
    );
    (report, profile.counts())
}

/// The top-level session object: owns the plugin registry and pending
/// injection commands, and runs experiments.
#[derive(Debug, Default)]
pub struct Chaser {
    host: PluginHost,
    state: HostState,
    loaded: Vec<FiInterface>,
}

impl Chaser {
    /// A fresh session with no plugins loaded.
    pub fn new() -> Chaser {
        Chaser::default()
    }

    /// Loads a plugin: calls its `plugin_init` against the registry.
    pub fn load_plugin(&mut self, plugin: &mut dyn FiPlugin) -> FiInterface {
        let iface = plugin.plugin_init(&mut self.host);
        self.loaded.push(iface.clone());
        iface
    }

    /// Executes a terminal command registered by a loaded plugin (e.g.
    /// `inject_fault matvec mov 1000 5`).
    ///
    /// # Errors
    ///
    /// [`PluginError`] on unknown commands or bad arguments.
    pub fn exec_command(&mut self, line: &str) -> Result<String, PluginError> {
        self.host.exec(&mut self.state, line)
    }

    /// The spec deposited by the last `inject_fault`-style command.
    pub fn pending_spec(&self) -> Option<&InjectionSpec> {
        self.state.pending_spec.as_ref()
    }

    /// Takes (and clears) the pending spec.
    pub fn take_pending_spec(&mut self) -> Option<InjectionSpec> {
        self.state.pending_spec.take()
    }

    /// All commands currently registered.
    pub fn commands(&self) -> Vec<crate::plugin::CommandSpec> {
        self.host.commands().to_vec()
    }

    /// Runs `app` once under `opts`.
    pub fn run(&self, app: &AppSpec, opts: &RunOptions) -> RunReport {
        run_app(app, opts)
    }

    /// Runs `app` once injecting the pending command's spec (with tracing),
    /// consuming the pending spec.
    ///
    /// # Panics
    ///
    /// Panics when no spec is pending — execute an `inject_fault` command
    /// first.
    pub fn run_pending(&mut self, app: &AppSpec) -> RunReport {
        let spec = self
            .take_pending_spec()
            .expect("no pending injection spec; run an inject_fault command first");
        run_app(app, &RunOptions::inject_traced(spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Corruption, OperandSel};
    use chaser_workloads::matvec;

    /// Matvec on a fine quantum: ~50 rounds, so a full ladder.
    fn app() -> AppSpec {
        let mv = matvec::MatvecConfig::default();
        let mut app = AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 4);
        app.cluster.quantum = 200;
        app
    }

    const CLASSES: [InsnClass; 2] = [InsnClass::Mov, InsnClass::FpArith];

    fn ladder(app: &AppSpec, tracing: bool) -> WarmStart {
        let golden = run_app(app, &RunOptions::golden()).cluster.total_insns;
        ladder_pass(app, golden, &CLASSES, tracing).1
    }

    fn spec(rank: u32, class: InsnClass, trigger: Trigger) -> InjectionSpec {
        InjectionSpec {
            target_program: "matvec".into(),
            target_rank: rank,
            class,
            trigger,
            corruption: Corruption::FlipBits(vec![3]),
            operand: OperandSel::Dst,
            max_injections: 1,
            seed: 1,
        }
    }

    /// Index of the rung `rung_for` picked.
    fn picked(
        warm: &WarmStart,
        app: &AppSpec,
        spec: Option<&InjectionSpec>,
        budget: RunBudget,
    ) -> (usize, u64) {
        let (rung, seen) = warm.rung_for(app, spec, budget);
        let idx = warm
            .rungs
            .iter()
            .position(|r| Arc::ptr_eq(&r.snapshot, &rung.snapshot))
            .expect("a rung of this ladder");
        (idx, seen)
    }

    #[test]
    fn rungs_are_spaced_in_instructions_from_the_launch_state_up() {
        let app = app();
        let golden = run_app(&app, &RunOptions::golden()).cluster;
        let warm = ladder(&app, false);
        assert!(warm.rungs() > 8 && warm.rungs() as u64 <= LADDER_MAX_RUNGS + 1);
        assert_eq!(warm.prefix_insns, 0);
        assert!(Arc::ptr_eq(&warm.snapshot, &warm.rungs[0].snapshot));
        assert_eq!(warm.rungs[0].snapshot.round(), 0);
        assert!(warm.rungs[0].counts.iter().all(|&c| c == 0));
        let spacing = golden.total_insns.div_ceil(LADDER_MAX_RUNGS);
        for pair in warm.rungs.windows(2) {
            let (lo, hi) = (&pair[0], &pair[1]);
            assert!(lo.snapshot.round() < hi.snapshot.round());
            // Never two rungs inside one spacing interval.
            assert!(lo.snapshot.total_insns() / spacing < hi.snapshot.total_insns() / spacing);
            assert!(lo.counts.iter().zip(&hi.counts).all(|(a, b)| a <= b));
        }
        let last = warm.rungs.last().expect("rungs");
        assert!(last.snapshot.total_insns() < golden.total_insns);
        assert!(pages_above_rung0(&warm.rungs) <= LADDER_PAGE_BUDGET);
    }

    #[test]
    fn thinning_halves_the_ladder_until_it_fits_and_keeps_rung_0() {
        let warm = ladder(&app(), false);
        let full = pages_above_rung0(&warm.rungs);
        assert!(full > 8, "matvec dirties pages between rungs");
        let mut rungs = warm.rungs.clone();
        thin(&mut rungs, full / 2);
        assert!(rungs.len() < warm.rungs() && pages_above_rung0(&rungs) <= full / 2);
        assert!(Arc::ptr_eq(&rungs[0].snapshot, &warm.snapshot));
        // What is left is every 2^k-th rung, in order.
        let stride = (0..8)
            .map(|k| 1usize << k)
            .find(|stride| (warm.rungs() - 1) / stride + 1 == rungs.len())
            .expect("a whole number of halvings");
        assert!(stride > 1);
        for (i, rung) in rungs.iter().enumerate() {
            assert!(Arc::ptr_eq(
                &rung.snapshot,
                &warm.rungs[i * stride].snapshot
            ));
        }
        thin(&mut rungs, 0);
        assert_eq!(rungs.len(), 1, "an impossible budget leaves rung 0 alone");
    }

    #[test]
    fn rung_selection_is_strict_at_the_boundary() {
        let app = app();
        let warm = ladder(&app, false);
        let unlimited = RunBudget::default();
        // Worker rank 1's integer moves (class index 0): find a rung with
        // the count moving on both sides, so each boundary separates two
        // distinct rungs.
        let slot = CLASSES.len();
        let count = |k: usize| warm.rungs[k].counts[slot];
        let k = (1..warm.rungs() - 1)
            .find(|&k| count(k - 1) < count(k) && count(k) < count(k + 1))
            .expect("rank 1 executes moves across three rungs");
        let at_k = count(k);
        let mov = |n| spec(1, InsnClass::Mov, Trigger::AfterN(n));

        // count == n - 1: the n-th execution is still ahead — taken.
        assert_eq!(
            picked(&warm, &app, Some(&mov(at_k + 1)), unlimited),
            (k, at_k)
        );
        // count == n: the n-th execution is in the rung's past — not taken.
        let (below, seen) = picked(&warm, &app, Some(&mov(at_k)), unlimited);
        assert!(below < k && seen < at_k);
        // A trigger past the golden count restores the last rung.
        assert_eq!(
            picked(&warm, &app, Some(&mov(u64::MAX)), unlimited).0,
            warm.rungs() - 1
        );

        // Everything the ladder cannot place restores rung 0, unseeded.
        let rung0 = (0, 0);
        assert_eq!(picked(&warm, &app, None, unlimited), rung0);
        for trigger in [
            Trigger::WithProbability(0.5),
            Trigger::Always,
            Trigger::Periodic {
                start: at_k + 1,
                period: 2,
            },
            Trigger::AfterN(0),
        ] {
            let s = spec(1, InsnClass::Mov, trigger);
            assert_eq!(picked(&warm, &app, Some(&s), unlimited), rung0, "{s:?}");
        }
        let foreign_class = spec(1, InsnClass::Fmul, Trigger::AfterN(at_k + 1));
        assert_eq!(picked(&warm, &app, Some(&foreign_class), unlimited), rung0);
        let mut stranger = mov(at_k + 1);
        stranger.target_program = "other".into();
        assert_eq!(picked(&warm, &app, Some(&stranger), unlimited), rung0);
        let mut disarmed = mov(at_k + 1);
        disarmed.max_injections = 0;
        assert_eq!(picked(&warm, &app, Some(&disarmed), unlimited), rung0);
        let no_such_rank = spec(9, InsnClass::Mov, Trigger::AfterN(at_k + 1));
        assert_eq!(picked(&warm, &app, Some(&no_such_rank), unlimited), rung0);

        // A budget that ends at the rung (or before) excludes it; one
        // instruction, or one round, more lets it in.
        let snap = &warm.rungs[k].snapshot;
        for (tight, enough) in [
            (
                RunBudget {
                    max_insns: snap.total_insns(),
                    max_rounds: 0,
                },
                RunBudget {
                    max_insns: snap.total_insns() + 1,
                    max_rounds: 0,
                },
            ),
            (
                RunBudget {
                    max_insns: 0,
                    max_rounds: snap.round(),
                },
                RunBudget {
                    max_insns: 0,
                    max_rounds: snap.round() + 1,
                },
            ),
        ] {
            assert!(picked(&warm, &app, Some(&mov(at_k + 1)), tight).0 < k);
            assert_eq!(picked(&warm, &app, Some(&mov(at_k + 1)), enough).0, k);
        }
    }

    #[test]
    fn run_warm_restores_the_selected_rung() {
        let app = app();
        let campaign = crate::Campaign::new(
            app.clone(),
            crate::CampaignConfig {
                classes: CLASSES.to_vec(),
                ..crate::CampaignConfig::default()
            },
        );
        let prepared = campaign.prepare();
        let warm = prepared.warm.as_ref().expect("campaigns carry a ladder");
        let last = warm.rungs.last().expect("rungs");
        let late = spec(1, InsnClass::FpArith, Trigger::AfterN(u64::MAX));
        let report = run_warm(&prepared, &RunOptions::inject(late), true);
        assert_eq!(report.snapshot.restores, 1);
        assert_eq!(report.snapshot.insns_skipped, last.snapshot.total_insns());
        assert_eq!(
            report.cluster.total_insns,
            prepared.golden.cluster.total_insns
        );
        // Seeded with the rung's count, it ends on the profiled count.
        assert_eq!(report.injector_exec_count, prepared.profile_counts[&(1, 1)]);
        let fault_free = run_warm(&prepared, &RunOptions::golden(), true);
        assert_eq!(fault_free.snapshot.insns_skipped, 0);
        assert_eq!(fault_free.outputs, prepared.golden.outputs);
    }

    /// `trace=off` is taint-free: under [`TaintPolicy::Disabled`] the
    /// injector's taint sources are no-ops, so a fault placed in a
    /// register or in memory leaves every node's shadow state idle and the
    /// engine in its fully-clean regime for the rest of the run.
    ///
    /// [`TaintPolicy::Disabled`]: chaser_taint::TaintPolicy::Disabled
    #[test]
    fn an_injection_under_disabled_taint_leaves_the_shadow_idle() {
        let mut app = app();
        app.cluster.taint_policy = chaser_taint::TaintPolicy::Disabled;
        for (class, operand) in [
            (InsnClass::FpArith, OperandSel::Dst),
            (InsnClass::Mov, OperandSel::Memory),
        ] {
            let mut cluster = Cluster::new(app.cluster.clone());
            let injector = Injector::new(InjectionSpec {
                operand,
                ..spec(1, class, Trigger::AfterN(40))
            });
            run_registry(Some(&injector), None, None).apply(&mut cluster);
            let programs: Vec<&Program> = app.programs.iter().collect();
            cluster.launch(&programs).expect("launch");
            cluster.run();
            assert_eq!(injector.injections_done(), 1, "{class:?} fired");
            for node in cluster.nodes() {
                assert!(node.taint().regs_idle(), "{class:?}: a tainted register");
                assert!(node.taint().fully_idle(), "{class:?}: tainted memory");
            }
        }
    }

    /// The engine's trigger countdown against an independent counter. A
    /// never-firing injector sees its class through one callback and a
    /// countdown of skipped executions, settled when read; [`ProfileHook`]
    /// counts every execution by its own `fetch_add`. The two agree for
    /// every rank and class, from launch and from every rung.
    #[test]
    fn never_firing_injector_counts_what_the_profile_counts_from_every_rung() {
        use chaser_workloads::{bfs, clamr, lud};
        let classes = [InsnClass::Mov, InsnClass::FpArith, InsnClass::Any];
        let clamr = {
            let cfg = clamr::ClamrConfig {
                ncells: 32,
                ranks: 2,
                steps: 8,
                check_interval: 2,
                checkpoint_interval: 4,
                ..clamr::ClamrConfig::default()
            };
            let mut app = AppSpec::replicated(clamr::program(&cfg), 2, 2);
            app.cluster.quantum = 500;
            app
        };
        let mut lud = AppSpec::single(lud::program(&lud::LudConfig { n: 10, seed: 17 }));
        lud.cluster.quantum = 1_000;
        let mut bfs = AppSpec::single(bfs::program(&bfs::BfsConfig {
            nodes: 32,
            ..bfs::BfsConfig::default()
        }));
        bfs.cluster.quantum = 200;
        for app in [app(), clamr, lud, bfs] {
            let prepared = prepare_with_ladder(&app, &classes, false);
            let warm = prepared.warm.as_ref().expect("a ladder");
            assert!(warm.rungs() > 1, "{}: rungs to start from", app.name);
            for rank in 0..app.nranks() {
                for (class_idx, class) in classes.into_iter().enumerate() {
                    let counted = prepared
                        .profile_counts
                        .get(&(rank, class_idx))
                        .copied()
                        .unwrap_or(0);
                    assert!(counted > 0 || class != InsnClass::Any);
                    let spec =
                        InjectionSpec::deterministic(app.name.clone(), class, u64::MAX, vec![0])
                            .with_rank(rank);
                    let opts = RunOptions::inject(spec);
                    let what = format!("{} rank {rank} {class:?}", app.name);
                    let launched = run_app(&app, &opts);
                    assert!(!launched.injected());
                    assert_eq!(launched.injector_exec_count, counted, "{what} from launch");
                    let slot = rank as usize * classes.len() + class_idx;
                    for (k, rung) in warm.rungs.iter().enumerate() {
                        let cfg = effective_cluster_cfg(&app, &opts);
                        let resumed =
                            run_from(&prepared, rung, rung.counts[slot], cfg, &opts, true);
                        assert_eq!(resumed.injector_exec_count, counted, "{what} from rung {k}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "different tracing regime")]
    fn run_warm_refuses_a_ladder_from_another_regime() {
        let prepared = prepare_with_ladder(&app(), &CLASSES, false);
        let traced = spec(1, InsnClass::FpArith, Trigger::AfterN(1));
        run_warm(&prepared, &RunOptions::inject_traced(traced), true);
    }

    /// The profiled pass the rungs are captured from must not perturb the
    /// state: every rung restores to exactly what a hook-free cluster holds
    /// after the same number of rounds.
    #[test]
    fn every_rung_restores_the_state_a_hook_free_cluster_reaches() {
        let app = app();
        for tracing in [false, true] {
            let warm = ladder(&app, tracing);
            let opts = RunOptions {
                tracing,
                ..RunOptions::default()
            };
            let cfg = effective_cluster_cfg(&app, &opts);
            let mut reference = Cluster::new(cfg.clone());
            let programs: Vec<&Program> = app.programs.iter().collect();
            reference.launch(&programs).expect("launch");
            for rung in &warm.rungs {
                while reference.round() < rung.snapshot.round() {
                    reference.step_round();
                }
                assert_eq!(reference.total_insns(), rung.snapshot.total_insns());
                let restored = Cluster::from_snapshot(cfg.clone(), &rung.snapshot);
                assert_eq!(
                    restored.state_digest(),
                    reference.state_digest(),
                    "rung at round {} (tracing {tracing})",
                    rung.snapshot.round()
                );
            }
        }
    }
}
