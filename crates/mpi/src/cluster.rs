//! The simulated cluster: rank placement, the deterministic round
//! scheduler and the taint-event drain. MPI call servicing lives in
//! `service.rs`, collectives in `collective.rs`, snapshots and the state
//! digest in `snapshot.rs`.

use crate::collective::CollectiveSlot;
use crate::envelope::MpiError;
use crate::net::{Interconnect, NetStats};
use crate::pool::RankPool;
use crate::service::RankState;
use chaser_isa::Program;
use chaser_taint::TaintPolicy;
use chaser_tainthub::TaintHub;
use chaser_tcg::{BaseLayer, CacheStats};
use chaser_vm::{
    BufferedTaintEvent, EngineStats, ExitStatus, Node, ProcState, ProcessFiles, SharedTaintSink,
    SliceExit,
};
use parking_lot::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// Per-run watchdog budgets, enforced by the scheduler (rounds) and down in
/// the `chaser-vm` engine loop (instructions). `0` disables a bound.
///
/// The cluster's `hang_rounds` heuristic only catches runs that stop making
/// progress; a fault that turns a bounded loop *unbounded* keeps retiring
/// instructions forever and is caught by these budgets instead,
/// deterministically, at the same instruction on every replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Stop the run after this many total retired guest instructions.
    pub max_insns: u64,
    /// Stop the run after this many scheduler rounds.
    pub max_rounds: u64,
}

impl RunBudget {
    /// No bounds at all (the default).
    pub fn unlimited() -> RunBudget {
        RunBudget::default()
    }

    /// The tighter of each pair of bounds (`0` = unset loses to any bound).
    pub fn merge(self, other: RunBudget) -> RunBudget {
        fn min_set(a: u64, b: u64) -> u64 {
            match (a, b) {
                (0, b) => b,
                (a, 0) => a,
                (a, b) => a.min(b),
            }
        }
        RunBudget {
            max_insns: min_set(self.max_insns, other.max_insns),
            max_rounds: min_set(self.max_rounds, other.max_rounds),
        }
    }
}

/// Which [`RunBudget`] bound stopped the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// `max_insns` fired (runaway computation).
    Insns,
    /// `max_rounds` fired (runaway scheduling, e.g. livelock).
    Rounds,
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetKind::Insns => write!(f, "instruction budget"),
            BudgetKind::Rounds => write!(f, "round budget"),
        }
    }
}

/// What a live rank was doing when the run was stopped by the watchdog
/// (hang declaration or budget exhaustion) — the debuggable part of a hang
/// report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingOp {
    /// Blocked in `MPI_Recv`.
    Recv,
    /// Blocked in `MPI_Wait` on a nonblocking request.
    Wait,
    /// Waiting in a collective for peers to join.
    Collective,
    /// Blocked in the MPI runtime with no recorded wait reason.
    Mpi,
    /// Runnable user code — a runaway loop, not a communication wait.
    Compute,
}

/// One live rank in a hang/budget report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HangRank {
    /// The rank that was still live.
    pub rank: u32,
    /// What it was waiting on (or doing) when the run was stopped.
    pub pending: PendingOp,
}

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of simulated machines (the paper's testbed has 4).
    pub nodes: usize,
    /// Instructions per scheduling slice.
    pub quantum: u64,
    /// Interconnect delivery latency in scheduler rounds.
    pub net_latency: u64,
    /// Abort the run as hung past this many total guest instructions.
    pub max_total_insns: u64,
    /// Abort the run as hung after this many progress-free rounds (see the
    /// threshold note at the hang check in [`Cluster::step_round`]).
    pub hang_rounds: u64,
    /// Guest RAM per node.
    pub phys_bytes: u64,
    /// Taint propagation policy for every node.
    pub taint_policy: TaintPolicy,
    /// Per-run watchdog budgets (instructions / rounds); default unlimited.
    pub run_budget: RunBudget,
    /// Worker threads the compute phase of [`Cluster::step_round`] may fan
    /// nodes out over (`0` and `1` both mean serial). Observationally
    /// inert: every thread count produces byte-identical outcomes, state
    /// digests and event streams — the knob only buys wall-clock time.
    pub rank_threads: usize,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            nodes: 4,
            quantum: 10_000,
            net_latency: 1,
            max_total_insns: 500_000_000,
            hang_rounds: 64,
            phys_bytes: chaser_vm::DEFAULT_PHYS_BYTES,
            taint_policy: TaintPolicy::Precise,
            run_budget: RunBudget::default(),
            rank_threads: 1,
        }
    }
}

/// One tainted payload crossing a rank boundary: the provenance subsystem's
/// message-edge record, emitted when a delivery (point-to-point or
/// collective fan-out) carries taint into the destination rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossRankEdge {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dest: u32,
    /// MPI message tag (collectives use their operation discriminant).
    pub tag: u64,
    /// Sender-side sequence number of the message (0 for collectives).
    pub seq: u64,
    /// Scheduler round at which the payload landed in the receiver.
    pub round: u64,
    /// Number of tainted payload bytes that crossed.
    pub tainted_bytes: usize,
    /// Union of the per-byte fault provenance that crossed (raw `ProvSet`
    /// bits; 0 when the sender tracked no provenance).
    pub prov_bits: u32,
}

/// Observer of cluster-level MPI traffic (Chaser's tracer hooks in here to
/// log cross-rank propagation).
pub trait MpiObserver {
    /// A delivery carried taint across a rank boundary: a point-to-point
    /// message copied into the receiver's buffer, or a collective fan-out.
    fn on_tainted_delivery(&mut self, edge: &CrossRankEdge);
}

/// A shared, `Send`-clean MPI observer handle. Observers only ever fire in
/// the serial exchange phase, so the mutex is uncontended; it exists so the
/// same sink can also be wired as a node hook or held by the caller.
pub type SharedMpiObserver = Arc<Mutex<dyn MpiObserver + Send>>;

/// Deterministic counters describing how the phased scheduler used its
/// compute-phase workers. Integer-only by design: wall-clock barrier times
/// would differ between machines and replays, so the barrier cost is
/// captured as counts (`parallel_rounds` — one barrier wait per fanned-out
/// round) and the imbalance as instruction totals. "Worker" means a chunk
/// of the *configured* fan-out (`min(rank_threads, nodes)`): the counters
/// are a function of the configuration and per-node icount deltas, never of
/// how many threads the host really ran, so they replay on any machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Largest worker count a compute phase was fanned out over.
    pub threads: u64,
    /// Scheduler rounds executed.
    pub rounds: u64,
    /// Rounds whose compute phase ran on more than one worker; each one
    /// joined at the round barrier (a barrier wait).
    pub parallel_rounds: u64,
    /// Sum over rounds of the busiest worker's retired instructions — the
    /// critical path of all compute phases.
    pub max_worker_insns: u64,
    /// Total instructions retired in compute phases (all workers).
    pub total_worker_insns: u64,
}

impl ParallelStats {
    /// Rank imbalance: critical path relative to a perfectly balanced
    /// fan-out (`1.0` = perfectly balanced, `threads` = fully serial).
    pub fn imbalance(&self) -> f64 {
        if self.total_worker_insns == 0 || self.threads == 0 {
            return 1.0;
        }
        self.max_worker_insns as f64 / (self.total_worker_insns as f64 / self.threads as f64)
    }

    /// Folds another run's counters into this aggregate (campaign totals).
    pub fn absorb(&mut self, other: ParallelStats) {
        self.threads = self.threads.max(other.threads);
        self.rounds += other.rounds;
        self.parallel_rounds += other.parallel_rounds;
        self.max_worker_insns += other.max_worker_insns;
        self.total_worker_insns += other.total_worker_insns;
    }
}

/// Result of one scheduling round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundReport {
    /// Something ran or completed this round.
    pub progress: bool,
    /// The run is over (all ranks exited, job aborted, or hang declared).
    pub finished: bool,
    /// Total retired guest instructions across all nodes.
    pub total_insns: u64,
}

/// Final state of a cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterRun {
    /// Per-rank exit status; `None` when the rank was still live at a hang.
    pub rank_exits: Vec<Option<ExitStatus>>,
    /// The first MPI runtime error, if any (aborts the whole job, like
    /// `MPI_Abort`).
    pub mpi_error: Option<MpiError>,
    /// The run was declared hung.
    pub hang: bool,
    /// The [`RunBudget`] bound that stopped the run, if one fired.
    pub budget_exhausted: Option<BudgetKind>,
    /// Total retired guest instructions.
    pub total_insns: u64,
    /// Scheduler rounds executed.
    pub rounds: u64,
    /// Tainted point-to-point deliveries (cross-rank fault propagation).
    pub cross_rank_tainted_deliveries: u64,
    /// Always 0. It counted tainted deliveries whose TaintHub poll failed
    /// on an unreliable hub link; the hub is a reliable service, so no poll
    /// fails. Kept because journal rows, the stats CSV and the state
    /// digest carry the slot.
    pub taint_sync_lost: u64,
    /// The ranks still live when the watchdog (hang or budget) stopped the
    /// run, with what each was waiting on. Empty for completed runs.
    pub live_at_stop: Vec<HangRank>,
}

impl ClusterRun {
    /// Did every rank exit with `exit(0)`?
    pub fn all_success(&self) -> bool {
        !self.hang
            && self.budget_exhausted.is_none()
            && self.mpi_error.is_none()
            && self
                .rank_exits
                .iter()
                .all(|e| e.is_some_and(|s| s.is_success()))
    }
}

/// A multi-node cluster running one MPI job (plus any number of standalone
/// single-rank programs).
pub struct Cluster {
    pub(crate) cfg: ClusterConfig,
    pub(crate) nodes: Vec<Node>,
    /// rank → (node index, pid)
    pub(crate) ranks: Vec<(usize, u64)>,
    pub(crate) state: Vec<RankState>,
    pub(crate) net: Interconnect,
    pub(crate) coll: Option<CollectiveSlot>,
    pub(crate) hub: Arc<TaintHub>,
    pub(crate) observers: Vec<SharedMpiObserver>,
    /// Tainted deliveries recorded and not yet reported to the observers
    /// (a collective reports its edges once all its data has moved).
    pub(crate) edges: Vec<CrossRankEdge>,
    /// The cluster-level taint-event sink: per-node buffers drain into it
    /// in canonical `(round, rank)` order at every round barrier.
    pub(crate) taint_sink: Option<SharedTaintSink>,
    /// Deterministic scheduler-parallelism counters for this run.
    pub(crate) pstats: ParallelStats,
    pub(crate) round: u64,
    pub(crate) stuck_rounds: u64,
    pub(crate) mpi_error: Option<MpiError>,
    pub(crate) hang: bool,
    pub(crate) budget_exhausted: Option<BudgetKind>,
    pub(crate) send_seq: u64,
    pub(crate) cross_rank_tainted_deliveries: u64,
    /// Compute-phase helper threads: spawned by the first round with two
    /// busy chunks, joined when the cluster drops. Never part of a
    /// snapshot — a restored cluster grows its own.
    pub(crate) pool: Option<RankPool>,
    /// The host's `available_parallelism`, capping how many threads a
    /// compute phase really uses (never what [`ParallelStats`] reports).
    pub(crate) host_cores: usize,
    /// Per-round buffers, reused so a steady-state round allocates nothing.
    pub(crate) scratch: RoundScratch,
}

/// The vectors one [`Cluster::step_round`] fills and reads back.
#[derive(Default)]
pub(crate) struct RoundScratch {
    /// Per node, the `(rank, pid)`s runnable at the round start.
    per_node: Vec<Vec<(u32, u64)>>,
    /// Per rank: blocked in MPI at the round start.
    blocked: Vec<bool>,
    /// Per rank: how its compute slice ended.
    slice_exits: Vec<Option<SliceExit>>,
    /// Per node: retired instructions before the compute phase.
    pre_icounts: Vec<u64>,
    /// Slice exits in completion order, before the scatter by rank.
    exits: Vec<(u32, SliceExit)>,
    /// Execution chunks with at least one runnable rank.
    busy: Vec<usize>,
}

/// `available_parallelism`, read once per process (it walks cgroup files).
pub(crate) fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("ranks", &self.ranks)
            .field("round", &self.round)
            .field("mpi_error", &self.mpi_error)
            .field("hang", &self.hang)
            .finish()
    }
}

impl Cluster {
    /// An empty cluster with `cfg.nodes` machines.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        let nodes = (0..cfg.nodes)
            .map(|i| Node::with_config(i as u32, cfg.phys_bytes, cfg.taint_policy))
            .collect();
        Cluster {
            nodes,
            ranks: Vec::new(),
            state: Vec::new(),
            net: Interconnect::new(0, cfg.net_latency),
            coll: None,
            hub: Arc::new(TaintHub::new()),
            observers: Vec::new(),
            edges: Vec::new(),
            taint_sink: None,
            pstats: ParallelStats::default(),
            round: 0,
            stuck_rounds: 0,
            mpi_error: None,
            hang: false,
            budget_exhausted: None,
            send_seq: 0,
            cross_rank_tainted_deliveries: 0,
            pool: None,
            host_cores: host_cores(),
            scratch: RoundScratch::default(),
            cfg,
        }
    }

    /// Launches one program per rank, placing rank `i` on node
    /// `i % nodes` (rank 0 — the master — lands on the head node).
    ///
    /// # Errors
    ///
    /// Propagates [`chaser_vm::SpawnError`] from process creation.
    pub fn launch(&mut self, programs: &[&Program]) -> Result<(), chaser_vm::SpawnError> {
        for prog in programs {
            let node_idx = self.ranks.len() % self.nodes.len();
            let pid = self.nodes[node_idx].spawn(prog)?;
            self.ranks.push((node_idx, pid));
            self.state.push(RankState::default());
        }
        self.net = Interconnect::new(self.ranks.len(), self.cfg.net_latency);
        if let Some(slot) = &self.coll {
            debug_assert!(slot.is_empty());
        }
        Ok(())
    }

    /// Launches `copies` ranks of the same program.
    ///
    /// # Errors
    ///
    /// Propagates [`chaser_vm::SpawnError`] from process creation.
    pub fn launch_replicated(
        &mut self,
        program: &Program,
        copies: usize,
    ) -> Result<(), chaser_vm::SpawnError> {
        let programs: Vec<&Program> = std::iter::repeat_n(program, copies).collect();
        self.launch(&programs)
    }

    /// Number of ranks.
    pub fn nranks(&self) -> u32 {
        self.ranks.len() as u32
    }

    /// The node hosting `rank` and the rank's pid on it.
    pub fn rank_location(&self, rank: u32) -> (usize, u64) {
        self.ranks[rank as usize]
    }

    /// Shared TaintHub instance.
    pub fn hub(&self) -> &Arc<TaintHub> {
        &self.hub
    }

    /// Immutable node access.
    pub fn node(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    /// Mutable node access (for installing Chaser hooks).
    pub fn node_mut(&mut self, idx: usize) -> &mut Node {
        &mut self.nodes[idx]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Applies `f` to every node (hook installation convenience).
    pub fn for_each_node_mut(&mut self, mut f: impl FnMut(&mut Node)) {
        for node in &mut self.nodes {
            f(node);
        }
    }

    /// Installs shared base translation caches node-index-wise: `bases[i]`
    /// becomes node `i`'s immutable clean-TB layer. Extra entries (either
    /// side) are ignored, so a base set sealed from an identically
    /// configured cluster always lines up.
    pub fn install_base_caches(&mut self, bases: &[Arc<BaseLayer>]) {
        for (node, base) in self.nodes.iter_mut().zip(bases) {
            node.install_base_cache(Arc::clone(base));
        }
    }

    /// Seals every node's translation cache into an immutable base layer
    /// (clean blocks only), for sharing with other clusters running the
    /// same guest code layout.
    pub fn seal_tb_caches(&self) -> Vec<Arc<BaseLayer>> {
        self.nodes.iter().map(Node::seal_cache).collect()
    }

    /// Aggregated translation-cache statistics across all nodes.
    pub fn tb_cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for node in &self.nodes {
            total.absorb(node.cache_stats());
        }
        total
    }

    /// Aggregated hot-path execution counters across all nodes.
    pub fn engine_stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for node in &self.nodes {
            total.absorb(node.engine_stats());
        }
        total
    }

    /// Registers a cluster-level MPI traffic observer. Observers fire only
    /// in the serial exchange phase, in canonical rank order, regardless of
    /// [`ClusterConfig::rank_threads`].
    pub fn add_observer(&mut self, obs: SharedMpiObserver) {
        self.observers.push(obs);
    }

    /// Installs the taint-event sink and opens the per-node event gate.
    /// Events buffered during compute slices are replayed into it at the
    /// round barrier, in canonical `(round, rank)` order, one batch per
    /// rank stamped with its round and rank.
    pub fn set_taint_sink(&mut self, sink: SharedTaintSink) {
        self.taint_sink = Some(sink);
        for node in &mut self.nodes {
            node.hooks_mut().taint_events = true;
        }
    }

    /// This run's deterministic scheduler-parallelism counters.
    pub fn parallel_stats(&self) -> ParallelStats {
        self.pstats
    }

    /// The output files of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if the rank does not exist.
    pub fn rank_files(&self, rank: u32) -> &ProcessFiles {
        let (ni, pid) = self.rank_location(rank);
        &self.nodes[ni].process(pid).expect("rank process").files
    }

    /// The exit status of `rank`, if it has exited.
    pub fn rank_exit(&self, rank: u32) -> Option<ExitStatus> {
        let (ni, pid) = self.rank_location(rank);
        self.nodes[ni]
            .process(pid)
            .expect("rank process")
            .exit_status()
    }

    /// Total retired guest instructions across all nodes.
    pub fn total_insns(&self) -> u64 {
        self.nodes.iter().map(Node::total_icount).sum()
    }

    /// Interconnect statistics.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Scheduler rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The first MPI error, if the job aborted on one.
    pub fn mpi_error(&self) -> Option<MpiError> {
        self.mpi_error
    }

    /// Is the run over?
    pub fn finished(&self) -> bool {
        self.hang
            || self.budget_exhausted.is_some()
            || self.ranks.iter().all(|&(ni, pid)| {
                self.nodes[ni]
                    .process(pid)
                    .is_some_and(|p| p.state == ProcState::Exited)
            })
    }

    /// Executes one scheduling round in two phases.
    ///
    /// **Compute phase**: every rank that was `Runnable` at the round start
    /// advances by one quantum on its node, with whole nodes fanned out
    /// over up to [`ClusterConfig::rank_threads`] threads — this one plus
    /// the cluster's persistent helpers, see `compute_phase`
    /// (ranks sharing a node run sequentially in ascending rank order, and
    /// processes own disjoint address spaces, so per-node results are
    /// independent of node placement on workers). Nothing shared mutates
    /// here: MPI calls, taint events and slice exits are only *recorded*.
    ///
    /// **Exchange phase** (serial, canonical rank order): recorded MPI
    /// calls are serviced, pending receives and requests of ranks that were
    /// blocked at the round start are pumped, collectives complete, and the
    /// per-node taint-event buffers drain into the registered sinks. Every
    /// cross-rank effect — interconnect envelopes, TaintHub records,
    /// observer callbacks, taint events — commits at this barrier, which is
    /// why every `rank_threads` value replays byte-identically.
    pub fn step_round(&mut self) -> RoundReport {
        let mut progress = false;

        // ---- Compute phase ----
        // The instruction budget is checked once, at the round start: every
        // runnable rank gets the same remaining allowance as its slice cap,
        // so the (bounded) overshoot is identical for every thread count.
        let mut slice_budget = u64::MAX;
        if self.cfg.run_budget.max_insns != 0 {
            let remaining = self
                .cfg
                .run_budget
                .max_insns
                .saturating_sub(self.total_insns());
            if remaining == 0 {
                self.budget_exhausted.get_or_insert(BudgetKind::Insns);
            } else {
                slice_budget = remaining;
            }
        }

        // Rank states sampled at the round start steer the whole round:
        // completions during the exchange phase make a rank runnable next
        // round, never mid-round.
        let mut scratch = std::mem::take(&mut self.scratch);
        let s = &mut scratch;
        s.per_node.resize_with(self.nodes.len(), Vec::new);
        s.per_node.iter_mut().for_each(Vec::clear);
        s.blocked.clear();
        s.blocked.resize(self.ranks.len(), false);
        s.slice_exits.clear();
        s.slice_exits.resize(self.ranks.len(), None);
        if !self.finished() {
            for rank in 0..self.ranks.len() as u32 {
                let (ni, pid) = self.ranks[rank as usize];
                match self.nodes[ni].process(pid).expect("rank process").state {
                    ProcState::Exited => {}
                    ProcState::BlockedMpi => s.blocked[rank as usize] = true,
                    ProcState::Runnable => s.per_node[ni].push((rank, pid)),
                }
            }
        }

        let threads = self.cfg.rank_threads.max(1).min(self.nodes.len().max(1));
        if s.per_node.iter().any(|v| !v.is_empty()) {
            s.pre_icounts.clear();
            s.pre_icounts
                .extend(self.nodes.iter().map(Node::total_icount));
            self.compute_phase(s, threads, slice_budget);
            for (rank, exit) in s.exits.drain(..) {
                s.slice_exits[rank as usize] = Some(exit);
            }

            // Deterministic parallelism accounting: per-worker retired
            // instructions come from icount deltas under the *configured*
            // chunking, not from wall clocks or from what the pool did.
            let chunk = self.nodes.len().div_ceil(threads);
            let (mut workers_used, mut busiest, mut total) = (0u64, 0u64, 0u64);
            for (nodes, pres) in self.nodes.chunks(chunk).zip(s.pre_icounts.chunks(chunk)) {
                let retired: u64 = nodes
                    .iter()
                    .zip(pres)
                    .map(|(n, &pre)| n.total_icount() - pre)
                    .sum();
                workers_used += u64::from(retired > 0);
                busiest = busiest.max(retired);
                total += retired;
            }
            self.pstats.threads = self.pstats.threads.max(threads as u64);
            if threads > 1 && workers_used > 1 {
                self.pstats.parallel_rounds += 1;
            }
            self.pstats.max_worker_insns += busiest;
            self.pstats.total_worker_insns += total;
        }
        self.pstats.rounds += 1;

        // ---- Exchange phase (serial, ascending rank order) ----
        for rank in 0..self.ranks.len() as u32 {
            // An earlier rank's exchange can abort the whole job (or
            // exhaust the budget); recorded calls of later ranks then
            // belong to dead processes and must not be serviced.
            if self.finished() || self.mpi_error.is_some() {
                break;
            }
            if s.blocked[rank as usize] {
                if self.state[rank as usize].pending_recv.is_some() && self.try_complete_recv(rank)
                {
                    progress = true;
                }
                if self.pump_requests(rank) {
                    progress = true;
                }
            }
            match s.slice_exits[rank as usize].take() {
                None | Some(SliceExit::Blocked) => {}
                Some(SliceExit::QuantumExpired) | Some(SliceExit::Exited(_)) => progress = true,
                Some(SliceExit::MpiCall(req)) => {
                    progress = true;
                    self.service(rank, req);
                }
                Some(SliceExit::BudgetExhausted) => {
                    // The slice did retire instructions, so this is
                    // progress — but the run-level watchdog fired.
                    progress = true;
                    self.budget_exhausted.get_or_insert(BudgetKind::Insns);
                }
            }
        }

        if self.check_collective() {
            progress = true;
        }
        // A rank's death can strand peers blocked in receives on it.
        for rank in 0..self.ranks.len() as u32 {
            let st = &self.state[rank as usize];
            if (st.pending_recv.is_some() || st.waiting_on.is_some())
                && self.check_dead_sender(rank)
            {
                progress = true;
            }
        }

        // Taint events commit at the barrier, before the round advances, so
        // every event is attributed to the round it executed in.
        self.drain_taint_events();

        self.round += 1;
        if self.cfg.run_budget.max_rounds != 0
            && self.round >= self.cfg.run_budget.max_rounds
            && !self.finished()
        {
            self.budget_exhausted.get_or_insert(BudgetKind::Rounds);
        }
        if progress {
            self.stuck_rounds = 0;
        } else {
            self.stuck_rounds += 1;
        }
        let total_insns = self.total_insns();
        // Hang threshold: a round with zero progress anywhere is only
        // conclusive once every message that was in flight at the start of
        // the stall has had time to land. Messages mature after
        // `net_latency` rounds, so we wait `hang_rounds` grace rounds
        // *plus* `net_latency` drain rounds before declaring a hang. A budget stop takes precedence: a run
        // that exhausted its watchdog budget is classified as
        // BudgetExhausted, never as a hang.
        if self.budget_exhausted.is_none()
            && (self.stuck_rounds > self.cfg.hang_rounds + self.cfg.net_latency
                || total_insns > self.cfg.max_total_insns)
        {
            self.hang = true;
        }
        self.scratch = scratch;
        RoundReport {
            progress,
            finished: self.finished(),
            total_insns,
        }
    }

    /// Runs every runnable rank's slice, filling `s.exits`.
    ///
    /// The nodes are cut into as many contiguous chunks as threads can
    /// really run (`threads` capped by the host's cores). Fewer than two
    /// chunks with runnable ranks: everything runs here, in order, with no
    /// handoff. Otherwise the calling thread keeps the lowest busy chunks
    /// and *moves* each of the others into a pool helper's slot, taking the
    /// nodes back — in place — once the helper is done.
    ///
    /// A panicking slice unwinds out of this call with its original
    /// payload at every thread count; of several, the one serial execution
    /// would have hit first (lowest node) wins.
    fn compute_phase(&mut self, s: &mut RoundScratch, threads: usize, slice_budget: u64) {
        let quantum = self.cfg.quantum;
        let total = self.nodes.len();
        let span = total.div_ceil(threads.min(self.host_cores));
        s.busy.clear();
        if span < total {
            let chunks = s.per_node.chunks(span).enumerate();
            s.busy.extend(
                chunks
                    .filter(|(_, c)| c.iter().any(|ranks| !ranks.is_empty()))
                    .map(|(i, _)| i),
            );
        }
        let Cluster { nodes, pool, .. } = self;
        let lend = if s.busy.len() < 2 {
            0
        } else {
            let pool = pool.get_or_insert_with(|| RankPool::spawn(total.div_ceil(span) - 1));
            pool.helpers().min(s.busy.len() - 1)
        };
        if lend == 0 {
            run_chunk(nodes, &s.per_node, quantum, slice_budget, &mut s.exits);
            return;
        }
        let pool = pool.as_ref().expect("lending implies a pool");

        let (own, lent) = s.busy.split_at(s.busy.len() - lend);
        let range_of = |c: usize| c * span..((c + 1) * span).min(total);
        // Lend from the tail, so the ranges below a drained chunk hold.
        for (i, &c) in lent.iter().enumerate().rev() {
            pool.post(i, |job| {
                let ranks = &s.per_node[range_of(c)];
                job.ranks.resize_with(ranks.len(), Vec::new);
                for (dst, src) in job.ranks.iter_mut().zip(ranks) {
                    dst.clear();
                    dst.extend_from_slice(src);
                }
                job.nodes.extend(nodes.drain(range_of(c)));
                job.quantum = quantum;
                job.slice_budget = slice_budget;
            });
        }
        // The helpers hold nodes of this cluster: an unwind must not leave
        // before they are back, so the owner's share is caught too.
        let mut panic = catch_unwind(AssertUnwindSafe(|| {
            for &c in own {
                let range = range_of(c);
                run_chunk(
                    &mut nodes[range.clone()],
                    &s.per_node[range],
                    quantum,
                    slice_budget,
                    &mut s.exits,
                );
            }
        }))
        .err();
        // Ascending order: everything below a chunk is back in place by the
        // time it is re-inserted at its own start.
        for (i, &c) in lent.iter().enumerate() {
            let start = range_of(c).start;
            let theirs = pool.collect(i, |job| {
                nodes.splice(start..start, job.nodes.drain(..));
                s.exits.append(&mut job.exits);
            });
            panic = panic.or(theirs);
        }
        if let Some(payload) = panic {
            self.pool = None; // joins the helpers before the unwind leaves
            resume_unwind(payload);
        }
    }

    /// Runs to completion.
    pub fn run(&mut self) -> ClusterRun {
        self.run_with(|_| {})
    }

    /// Runs to completion, invoking `observer` after every round (Chaser's
    /// tracer samples tainted-byte counts here).
    pub fn run_with(&mut self, mut observer: impl FnMut(&Cluster)) -> ClusterRun {
        while !self.finished() {
            self.step_round();
            observer(self);
        }
        self.result()
    }

    /// Snapshot of the final state.
    pub fn result(&self) -> ClusterRun {
        let stopped_by_watchdog = self.hang || self.budget_exhausted.is_some();
        ClusterRun {
            rank_exits: (0..self.nranks()).map(|r| self.rank_exit(r)).collect(),
            mpi_error: self.mpi_error,
            hang: self.hang,
            budget_exhausted: self.budget_exhausted,
            total_insns: self.total_insns(),
            rounds: self.round,
            cross_rank_tainted_deliveries: self.cross_rank_tainted_deliveries,
            taint_sync_lost: 0,
            live_at_stop: if stopped_by_watchdog {
                self.live_at_stop()
            } else {
                Vec::new()
            },
        }
    }

    /// The ranks still live right now, with what each is blocked on — the
    /// hang-report payload ("which ranks were alive and what were they
    /// waiting for" from the paper's hang diagnosis workflow).
    pub fn live_at_stop(&self) -> Vec<HangRank> {
        (0..self.nranks())
            .filter(|&r| self.rank_alive(r))
            .map(|rank| {
                let st = &self.state[rank as usize];
                let (ni, pid) = self.ranks[rank as usize];
                let proc_state = self.nodes[ni].process(pid).expect("live rank").state;
                let pending = if st.pending_recv.is_some() {
                    PendingOp::Recv
                } else if st.waiting_on.is_some() {
                    PendingOp::Wait
                } else if st.in_collective {
                    PendingOp::Collective
                } else if proc_state == ProcState::BlockedMpi {
                    PendingOp::Mpi
                } else {
                    PendingOp::Compute
                };
                HangRank { rank, pending }
            })
            .collect()
    }

    /// Aggregated copy-on-write counters over all nodes (pages adopted
    /// shared at restore, pages privatised by suffix writes).
    pub fn mem_stats(&self) -> chaser_vm::MemStats {
        let mut total = chaser_vm::MemStats::default();
        for node in &self.nodes {
            total.absorb(&node.mem_stats());
        }
        total
    }

    /// Drains every node's buffered taint events into the sink in canonical
    /// `(round, rank)` order. Within one rank the events keep execution
    /// order (ranks sharing a node run sequentially, so a node's buffer is
    /// already segmented by rank). The sink is locked once per round and
    /// receives one batch per rank, the non-rank processes' batch last.
    fn drain_taint_events(&mut self) {
        let Some(sink) = &self.taint_sink else {
            // No consumer: clear any buffers so a gate opened without a
            // sink cannot grow without bound.
            for node in &mut self.nodes {
                node.take_taint_events();
            }
            return;
        };
        let unranked = self.ranks.len();
        let mut per_rank: Vec<Vec<BufferedTaintEvent>> = Vec::new();
        let mut rank_of: Vec<((u32, u64), usize)> = Vec::new();
        for node in &mut self.nodes {
            let events = node.take_taint_events();
            if events.is_empty() {
                continue;
            }
            if per_rank.is_empty() {
                // Built once per drain, and only for a round that logged
                // something: `(node, pid) → rank`, sorted for search.
                per_rank.resize_with(unranked + 1, Vec::new);
                rank_of = self
                    .ranks
                    .iter()
                    .enumerate()
                    .map(|(rank, &(ni, pid))| ((ni as u32, pid), rank))
                    .collect();
                rank_of.sort_unstable();
            }
            for ev in events {
                let rank = rank_of
                    .binary_search_by_key(&(ev.ev.node, ev.ev.pid), |&(key, _)| key)
                    .map_or(unranked, |i| rank_of[i].1);
                per_rank[rank].push(ev);
            }
        }
        if per_rank.is_empty() {
            return;
        }
        let mut s = sink.lock();
        for (rank, events) in per_rank.iter().enumerate() {
            if !events.is_empty() {
                let rank = (rank < unranked).then_some(rank as u32);
                s.on_taint_events(self.round, rank, events);
            }
        }
    }
}

/// Compute-phase worker body: advances every listed `(rank, pid)` of every
/// node by one quantum, in node then ascending rank order (`ranks[i]`
/// belongs to `nodes[i]`). Pure node-local work — anything cross-rank is
/// recorded in `out` (and in the node's taint buffer) for the serial
/// exchange phase.
pub(crate) fn run_chunk(
    nodes: &mut [Node],
    ranks: &[Vec<(u32, u64)>],
    quantum: u64,
    slice_budget: u64,
    out: &mut Vec<(u32, SliceExit)>,
) {
    for (node, ranks) in nodes.iter_mut().zip(ranks) {
        for &(rank, pid) in ranks {
            if slice_budget != u64::MAX {
                node.set_insn_budget(slice_budget);
            }
            out.push((rank, node.run_slice(pid, quantum)));
        }
    }
}

/// The compute-phase pool from the inside: which rounds hand chunks to
/// helpers, how many helpers exist, and that none of it shows in results.
#[cfg(test)]
mod pool_tests {
    use super::*;
    use chaser_isa::{abi, Asm, Cond, Instruction, Reg};
    use chaser_vm::NodeTranslateHook;

    /// Six rounds of "spin `40 × (rank + 1)` iterations, then allreduce":
    /// ranks finish their compute at different rounds, so busy chunks come
    /// and go, and every rank exits with the same global sum.
    fn staggered_program() -> Program {
        let mut a = Asm::new("stagger");
        a.data_i64("mine", &[0]);
        a.data_i64("sum", &[0]);
        a.hypercall(abi::MPI_INIT);
        a.hypercall(abi::MPI_COMM_RANK);
        a.mov(Reg::R7, Reg::R0);
        a.movi(Reg::R10, 0);
        a.label("outer");
        a.mov(Reg::R11, Reg::R7);
        a.addi(Reg::R11, 1);
        a.muli(Reg::R11, 40);
        a.label("spin");
        a.subi(Reg::R11, 1);
        a.cmpi(Reg::R11, 0);
        a.jcc(Cond::Ne, "spin");
        a.lea(Reg::R8, "mine");
        a.ld(Reg::R9, Reg::R8, 0);
        a.add(Reg::R9, Reg::R7);
        a.add(Reg::R9, Reg::R10);
        a.st(Reg::R9, Reg::R8, 0);
        a.lea(Reg::R1, "mine");
        a.lea(Reg::R2, "sum");
        a.movi(Reg::R3, 1); // count
        a.movi(Reg::R4, 1); // I64
        a.movi(Reg::R5, 1); // Sum
        a.hypercall(abi::MPI_ALLREDUCE);
        a.addi(Reg::R10, 1);
        a.cmpi(Reg::R10, 6);
        a.jcc(Cond::Ne, "outer");
        a.lea(Reg::R8, "sum");
        a.ld(Reg::R9, Reg::R8, 0);
        a.hypercall(abi::MPI_FINALIZE);
        a.exit_with(Reg::R9);
        a.assemble().expect("assemble")
    }

    fn config(nodes: usize, rank_threads: usize) -> ClusterConfig {
        ClusterConfig {
            nodes,
            quantum: 100,
            phys_bytes: 8 << 20,
            rank_threads,
            ..ClusterConfig::default()
        }
    }

    /// A launched cluster that believes the host has `cores` cores.
    fn launched(nodes: usize, ranks: usize, rank_threads: usize, cores: usize) -> Cluster {
        let mut cluster = Cluster::new(config(nodes, rank_threads));
        cluster.host_cores = cores;
        cluster
            .launch_replicated(&staggered_program(), ranks)
            .expect("launch");
        cluster
    }

    fn helpers(cluster: &Cluster) -> Option<usize> {
        cluster.pool.as_ref().map(RankPool::helpers)
    }

    /// Runs to completion, checking after every round that the helper
    /// count only ever goes from "no pool" to `expect` and stays there.
    fn run_checked(cluster: &mut Cluster, expect: usize) -> (ClusterRun, u64) {
        while !cluster.finished() {
            cluster.step_round();
            let now = helpers(cluster);
            assert!(
                now.is_none_or(|n| n == expect),
                "{now:?} helpers, not {expect}"
            );
        }
        let run = cluster.result();
        let first = run.rank_exits[0];
        assert!(matches!(first, Some(ExitStatus::Exited(_))), "{run:?}");
        assert!(run.rank_exits.iter().all(|e| *e == first), "{run:?}");
        (run, cluster.state_digest())
    }

    #[test]
    fn uneven_shapes_match_serial() {
        // (nodes, rank_threads, host cores, helpers the pool must hold)
        for (nodes, threads, cores, expect) in [
            (3, 2, 8, 1), // chunks {0,1} {2}
            (5, 4, 8, 2), // chunks {0,1} {2,3} {4}: three chunks for four threads
            (2, 8, 8, 1), // threads > nodes: one node per chunk
            (4, 4, 2, 1), // four configured, two cores: chunks {0,1} {2,3}
            (5, 3, 8, 2), // chunks {0,1} {2,3} {4}
        ] {
            let (serial, serial_digest) = run_checked(&mut launched(nodes, nodes, 1, cores), 0);
            let mut cluster = launched(nodes, nodes, threads, cores);
            let (parallel, digest) = run_checked(&mut cluster, expect);
            assert_eq!(helpers(&cluster), Some(expect), "{nodes} nodes / {threads}");
            assert_eq!(serial, parallel, "{nodes} nodes / {threads} threads");
            assert_eq!(serial_digest, digest, "{nodes} nodes / {threads} threads");
            // The stats follow the configuration, not the pool.
            let stats = cluster.parallel_stats();
            assert_eq!(stats.threads, threads.min(nodes) as u64);
            assert!(stats.parallel_rounds > 0);
        }
    }

    #[test]
    fn parallel_stats_ignore_the_host() {
        let stats = |cores: usize| {
            let mut cluster = launched(4, 4, 4, cores);
            run_checked(&mut cluster, cores.min(4) - 1);
            cluster.parallel_stats()
        };
        assert_eq!(stats(1), stats(2));
        assert_eq!(stats(1), stats(8));
    }

    #[test]
    fn one_core_host_runs_inline() {
        let mut cluster = launched(4, 4, 4, 1);
        run_checked(&mut cluster, 0);
        assert_eq!(helpers(&cluster), None, "no helper on a one-core host");
    }

    #[test]
    fn a_single_busy_chunk_runs_inline() {
        // Two ranks on nodes 0 and 1, both in chunk 0 of {0,1} {2,3}: no
        // round ever has work for a second chunk.
        let mut cluster = launched(4, 2, 2, 8);
        run_checked(&mut cluster, 0);
        assert_eq!(helpers(&cluster), None, "one busy chunk must not hand off");
        assert_eq!(cluster.parallel_stats().parallel_rounds, 0);
    }

    #[test]
    fn a_restored_cluster_grows_its_own_pool() {
        let mut original = launched(4, 4, 2, 8);
        for _ in 0..3 {
            original.step_round();
        }
        assert_eq!(helpers(&original), Some(1));
        let snap = original.snapshot();
        let mut restored = Cluster::from_snapshot(config(4, 2), &snap);
        restored.host_cores = 8;
        assert_eq!(helpers(&restored), None, "a pool is never restored");
        let (run_a, digest_a) = run_checked(&mut original, 1);
        let (run_b, digest_b) = run_checked(&mut restored, 1);
        assert_eq!(helpers(&restored), Some(1));
        assert_eq!(run_a, run_b);
        assert_eq!(digest_a, digest_b);
    }

    /// Instruments nothing; panics when asked about `node`'s code.
    struct PanicOnNode(u32);

    impl NodeTranslateHook for PanicOnNode {
        fn inject_point(&self, node: u32, _pid: u64, pc: u64, _insn: &Instruction) -> Option<u64> {
            assert!(node != self.0, "hook refused node {node} at pc {pc:#x}");
            None
        }
    }

    #[test]
    fn a_slice_panic_keeps_its_payload_at_every_thread_count() {
        let message = |rank_threads: usize| {
            // Node 1 is chunk 1 of {0} {1}: with two threads the panic is
            // raised on the helper.
            let mut cluster = launched(2, 2, rank_threads, 8);
            cluster.for_each_node_mut(|n| n.hooks_mut().translate = Some(Arc::new(PanicOnNode(1))));
            let payload = catch_unwind(AssertUnwindSafe(|| cluster.run())).expect_err("must panic");
            assert!(cluster.pool.is_none(), "pool torn down before the unwind");
            assert_eq!(cluster.nodes.len(), 2, "lent nodes came back");
            drop(cluster); // must return: nothing left to join, nothing wedged
            payload
                .downcast::<String>()
                .map(|s| *s)
                .expect("assert! with arguments panics with a String")
        };
        let serial = message(1);
        assert!(
            serial.starts_with("hook refused node 1 at pc 0x"),
            "{serial}"
        );
        assert_eq!(serial, message(2));
    }
}
