//! The simulated cluster: rank placement, deterministic scheduling and the
//! MPI runtime service layer.

use crate::collective::{CollKind, CollReq, CollectiveSlot};
use crate::envelope::{Envelope, MpiError, MpiErrorKind, MAX_MSG_BYTES};
use crate::net::{Interconnect, NetStats};
use crate::pool::RankPool;
use chaser_isa::abi::{self, MpiDatatype, MpiOp};
use chaser_isa::Program;
use chaser_taint::{ProvSet, TaintPolicy};
use chaser_tainthub::{HubSnapshot, MsgId, TaintHub};
use chaser_tcg::{BaseLayer, CacheStats};
use chaser_vm::{
    BufferedTaintEvent, EngineStats, ExitStatus, MpiRequest, Node, NodeSnapshot, ProcState,
    ProcessFiles, SharedTaintSink, Signal, SliceExit,
};
use parking_lot::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

/// Scheduler rounds a published hub record survives before
/// [`TaintHub::gc`] (run every 64 rounds) may expire it: records for
/// receivers that died mid-communication are never polled.
const HUB_RECORD_TTL: u64 = 4096;

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

#[derive(Debug, Clone, Default)]
struct RankState {
    inited: bool,
    finalized: bool,
    pending_recv: Option<RecvArgs>,
    in_collective: bool,
    /// Nonblocking request table (handles are indices).
    requests: Vec<Request>,
    /// Request handle an `MPI_Wait` is blocked on.
    waiting_on: Option<usize>,
}

/// A nonblocking communication request.
#[derive(Debug, Clone, Copy)]
enum Request {
    /// An `MPI_Irecv` still waiting for its message.
    RecvPending(RecvArgs),
    /// Completed (eager `MPI_Isend`s are born completed).
    Done,
}

#[derive(Debug, Clone, Copy)]
struct RecvArgs {
    buf: u64,
    count: u64,
    dtype: MpiDatatype,
    /// `None` = `MPI_ANY_SOURCE`.
    source: Option<u32>,
    /// `None` = `MPI_ANY_TAG`.
    tag: Option<u64>,
}

/// Outcome of a delivery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Deliver {
    /// No mature matching message.
    NoMatch,
    /// Delivered; the request/receive is satisfied.
    Done,
    /// The receive ended the job (MPI error) or killed the rank.
    Fatal,
}

/// A multi-node cluster running one MPI job (plus any number of standalone
/// single-rank programs).
pub struct Cluster {
    cfg: ClusterConfig,
    nodes: Vec<Node>,
    /// rank → (node index, pid)
    ranks: Vec<(usize, u64)>,
    state: Vec<RankState>,
    net: Interconnect,
    coll: Option<CollectiveSlot>,
    hub: Arc<TaintHub>,
    observers: Vec<SharedMpiObserver>,
    /// The cluster-level taint-event sink: per-node buffers drain into it
    /// in canonical `(round, rank)` order at every round barrier.
    taint_sink: Option<SharedTaintSink>,
    /// Deterministic scheduler-parallelism counters for this run.
    pstats: ParallelStats,
    round: u64,
    stuck_rounds: u64,
    mpi_error: Option<MpiError>,
    hang: bool,
    budget_exhausted: Option<BudgetKind>,
    send_seq: u64,
    cross_rank_tainted_deliveries: u64,
    /// Compute-phase helper threads: spawned by the first round with two
    /// busy chunks, joined when the cluster drops. Never part of a
    /// snapshot — a restored cluster grows its own.
    pool: Option<RankPool>,
    /// The host's `available_parallelism`, capping how many threads a
    /// compute phase really uses (never what [`ParallelStats`] reports).
    host_cores: usize,
    /// Per-round buffers, reused so a steady-state round allocates nothing.
    scratch: RoundScratch,
}

/// The vectors one [`Cluster::step_round`] fills and reads back.
#[derive(Default)]
struct RoundScratch {
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
fn host_cores() -> usize {
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
        if self.round.is_multiple_of(64) {
            self.hub.gc(self.round, HUB_RECORD_TTL);
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

    // ---- Snapshot / fork ----

    /// Freezes the entire cluster into a [`ClusterSnapshot`]: every node's
    /// CPU/memory/taint state (`Arc`-shared pages, zero-copy), the MPI rank
    /// table and per-rank runtime state, in-flight interconnect envelopes,
    /// queued TaintHub records, the scheduler clock and the *current
    /// positions* of every seeded RNG stream. The capture point must be a
    /// round boundary (the quantum safe point — every process is at an
    /// architectural instruction boundary or blocked), which is the only
    /// place `step_round` returns control anyway.
    ///
    /// Hooks, observers and translation caches are not captured: they are
    /// per-run wiring and derived state, re-attached after a restore the
    /// same way a cold run wires them.
    pub fn snapshot(&mut self) -> ClusterSnapshot {
        let total_insns = self.total_insns();
        ClusterSnapshot {
            nodes: self.nodes.iter_mut().map(Node::snapshot).collect(),
            ranks: self.ranks.clone(),
            state: self.state.clone(),
            net: self.net.clone(),
            coll: self.coll.clone(),
            hub: self.hub.snapshot(),
            round: self.round,
            stuck_rounds: self.stuck_rounds,
            mpi_error: self.mpi_error,
            hang: self.hang,
            budget_exhausted: self.budget_exhausted,
            send_seq: self.send_seq,
            cross_rank_tainted_deliveries: self.cross_rank_tainted_deliveries,
            total_insns,
        }
    }

    /// Reconstructs a cluster from a snapshot under `cfg`.
    ///
    /// `cfg` must describe the same cluster shape the snapshot was taken
    /// under (node count, quantum, latency, budgets...) — the snapshot
    /// carries the dynamic state, the config carries the rules, and replay
    /// equivalence holds only when the rules match the original run's. RNG
    /// streams are restored at their captured positions, never re-seeded.
    ///
    /// The restored cluster has no hooks, observers or translated blocks;
    /// wire hooks, then call [`Cluster::replay_vmi_creations`] so
    /// creation-keyed consumers (fault injectors) arm, then install base
    /// translation caches as usual.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.nodes` disagrees with the snapshot's node count.
    pub fn from_snapshot(cfg: ClusterConfig, snap: &ClusterSnapshot) -> Cluster {
        assert_eq!(
            cfg.nodes,
            snap.nodes.len(),
            "config node count must match the snapshot"
        );
        let hub = TaintHub::new();
        hub.restore(&snap.hub);
        Cluster {
            nodes: snap.nodes.iter().map(Node::from_snapshot).collect(),
            ranks: snap.ranks.clone(),
            state: snap.state.clone(),
            net: snap.net.clone(),
            coll: snap.coll.clone(),
            hub: Arc::new(hub),
            observers: Vec::new(),
            taint_sink: None,
            pstats: ParallelStats::default(),
            round: snap.round,
            stuck_rounds: snap.stuck_rounds,
            mpi_error: snap.mpi_error,
            hang: snap.hang,
            budget_exhausted: snap.budget_exhausted,
            send_seq: snap.send_seq,
            cross_rank_tainted_deliveries: snap.cross_rank_tainted_deliveries,
            pool: None,
            host_cores: host_cores(),
            scratch: RoundScratch::default(),
            cfg,
        }
    }

    /// Re-fires VMI process-creation events in original creation order
    /// (rank order, interleaving across nodes — exactly the order
    /// [`Cluster::launch`] spawned them). Call after wiring hooks on a
    /// restored cluster so injectors that arm on the Nth creation of a
    /// program name observe the same sequence a cold run produced.
    pub fn replay_vmi_creations(&mut self) {
        for i in 0..self.ranks.len() {
            let (ni, pid) = self.ranks[i];
            self.nodes[ni].replay_vmi_creation(pid);
        }
    }

    /// A 64-bit FNV-1a digest over the cluster's complete observable state:
    /// scheduler clock, rank tables, per-process architectural state and
    /// output files, resident guest memory, tainted shadow pages, in-flight
    /// envelopes and queued hub records. Two executions that reach the same
    /// state produce the same digest regardless of how they got there
    /// (cold prefix vs snapshot restore), which is what the snapshot
    /// property tests assert.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.round);
        h.write_u64(self.stuck_rounds);
        h.write_u64(self.send_seq);
        h.write_u64(self.cross_rank_tainted_deliveries);
        // The retired `taint_sync_lost` slot: pinned digests hash it.
        h.write_u64(0);
        h.write_str(&format!(
            "{:?};{};{:?}",
            self.mpi_error, self.hang, self.budget_exhausted
        ));
        for (rank, &(ni, pid)) in self.ranks.iter().enumerate() {
            h.write_u64(rank as u64);
            h.write_u64(ni as u64);
            h.write_u64(pid);
            h.write_str(&format!("{:?}", self.state[rank]));
        }
        for node in &self.nodes {
            for proc in node.processes() {
                h.write_u64(proc.pid());
                h.write_str(proc.name());
                h.write_str(&format!(
                    "{:?};{:?};{:?};{:?}",
                    proc.cpu, proc.state, proc.exit, proc.pending_mpi
                ));
                h.write_u64(proc.icount);
                h.write_u64(proc.brk);
                h.write(&proc.files.stdout);
                h.write(&proc.files.output);
            }
            node.for_each_resident_page(|base, bytes| {
                h.write_u64(base);
                h.write(bytes);
            });
            node.taint().mem().for_each_tainted_page(|base, masks| {
                h.write_u64(base);
                h.write(masks);
            });
            node.taint().prov_mem().for_each(|paddr, p| {
                h.write_u64(paddr);
                h.write_u64(u64::from(p.bits()));
            });
        }
        self.net.for_each_in_flight(|dest, deliver_at, seq, env| {
            h.write_u64(u64::from(dest));
            h.write_u64(deliver_at);
            h.write_u64(seq);
            // Spelled out as the envelope's derived `Debug` once printed
            // it, with the retired `taint_header` slot: pinned digests
            // hash it.
            h.write_str(&format!(
                "Envelope {{ src: {}, dest: {}, tag: {}, dtype: {:?}, count: {}, data: {:?}, \
                 taint_header: None, seq: {} }}",
                env.src, env.dest, env.tag, env.dtype, env.count, env.data, env.seq
            ));
        });
        h.write_u64(self.net.seq_counter());
        self.hub
            .snapshot()
            .for_each_record(|id, rec| h.write_str(&format!("{id:?};{rec:?}")));
        h.finish()
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

    // ---- MPI service layer ----

    fn complete(&mut self, rank: u32, ret: u64) {
        let (ni, pid) = self.ranks[rank as usize];
        self.nodes[ni].complete_mpi(pid, ret);
    }

    fn kill_rank(&mut self, rank: u32, sig: Signal) {
        let (ni, pid) = self.ranks[rank as usize];
        self.nodes[ni].abort_process(pid, ExitStatus::Signaled(sig));
        self.state[rank as usize].pending_recv = None;
    }

    /// Records the first MPI error and aborts the whole job (`MPI_Abort`
    /// semantics: the paper's "MPI runtime exceptions" terminations).
    fn mpi_abort(&mut self, rank: u32, kind: MpiErrorKind) {
        if self.mpi_error.is_none() {
            self.mpi_error = Some(MpiError { rank, kind });
        }
        for r in 0..self.ranks.len() as u32 {
            let (ni, pid) = self.ranks[r as usize];
            let alive = self.nodes[ni]
                .process(pid)
                .is_some_and(|p| p.state != ProcState::Exited);
            if alive {
                self.nodes[ni].abort_process(pid, ExitStatus::MpiAborted);
            }
            self.state[r as usize].pending_recv = None;
            self.state[r as usize].waiting_on = None;
        }
        self.coll = None;
    }

    fn rank_alive(&self, rank: u32) -> bool {
        let (ni, pid) = self.ranks[rank as usize];
        self.nodes[ni]
            .process(pid)
            .is_some_and(|p| p.state != ProcState::Exited)
    }

    fn service(&mut self, rank: u32, req: MpiRequest) {
        let a = req.args;
        let n = self.nranks() as u64;
        let st = &mut self.state[rank as usize];
        match req.num {
            abi::MPI_INIT => {
                st.inited = true;
                self.complete(rank, 0);
            }
            abi::MPI_COMM_RANK => {
                if !st.inited {
                    return self.mpi_abort(rank, MpiErrorKind::NotInitialized);
                }
                self.complete(rank, rank as u64);
            }
            abi::MPI_COMM_SIZE => {
                if !st.inited {
                    return self.mpi_abort(rank, MpiErrorKind::NotInitialized);
                }
                self.complete(rank, n);
            }
            abi::MPI_SEND => self.do_send(rank, a),
            abi::MPI_RECV => {
                if !st.inited || st.finalized {
                    return self.mpi_abort(rank, MpiErrorKind::NotInitialized);
                }
                let Some(dtype) = MpiDatatype::from_code(a[2]) else {
                    return self.mpi_abort(rank, MpiErrorKind::InvalidDatatype);
                };
                if a[1].saturating_mul(dtype.size()) > MAX_MSG_BYTES {
                    return self.mpi_abort(rank, MpiErrorKind::InvalidCount);
                }
                let Some(args) = self.parse_recv_args(rank, a, dtype) else {
                    return; // job already aborted
                };
                self.state[rank as usize].pending_recv = Some(args);
                self.try_complete_recv(rank);
            }
            abi::MPI_ISEND => {
                let id = self.state[rank as usize].requests.len() as u64;
                // Eager buffered send: the request is born complete.
                self.state[rank as usize].requests.push(Request::Done);
                self.do_send_ret(rank, a, id);
            }
            abi::MPI_IRECV => {
                if !st.inited || st.finalized {
                    return self.mpi_abort(rank, MpiErrorKind::NotInitialized);
                }
                let Some(dtype) = MpiDatatype::from_code(a[2]) else {
                    return self.mpi_abort(rank, MpiErrorKind::InvalidDatatype);
                };
                if a[1].saturating_mul(dtype.size()) > MAX_MSG_BYTES {
                    return self.mpi_abort(rank, MpiErrorKind::InvalidCount);
                }
                let Some(args) = self.parse_recv_args(rank, a, dtype) else {
                    return;
                };
                let id = self.state[rank as usize].requests.len();
                self.state[rank as usize]
                    .requests
                    .push(Request::RecvPending(args));
                // Complete immediately when a matching message is mature.
                self.try_complete_request(rank, id);
                self.complete(rank, id as u64);
            }
            abi::MPI_WAIT => {
                let id = a[0] as usize;
                let st = &mut self.state[rank as usize];
                match st.requests.get(id) {
                    None => self.mpi_abort(rank, MpiErrorKind::InvalidOp),
                    Some(Request::Done) => self.complete(rank, 0),
                    Some(Request::RecvPending(_)) => {
                        st.waiting_on = Some(id);
                        // Retry now; otherwise the round loop keeps trying.
                        if self.try_complete_request(rank, id) {
                            self.finish_wait(rank);
                        }
                    }
                }
            }
            abi::MPI_WTIME => {
                let (ni, pid) = self.ranks[rank as usize];
                let icount = self.nodes[ni].process(pid).map_or(0, |p| p.icount);
                self.complete(rank, icount);
            }
            abi::MPI_BARRIER => self.join_collective(
                rank,
                CollReq {
                    kind: CollKind::Barrier,
                    sendbuf: 0,
                    recvbuf: 0,
                    count: 0,
                    dtype: None,
                    op: None,
                    root: 0,
                },
            ),
            abi::MPI_BCAST => {
                let Some(dtype) = MpiDatatype::from_code(a[2]) else {
                    return self.mpi_abort(rank, MpiErrorKind::InvalidDatatype);
                };
                self.join_collective(
                    rank,
                    CollReq {
                        kind: CollKind::Bcast,
                        sendbuf: a[0],
                        recvbuf: a[0],
                        count: a[1],
                        dtype: Some(dtype),
                        op: None,
                        root: a[3] as u32,
                    },
                )
            }
            abi::MPI_REDUCE | abi::MPI_ALLREDUCE => {
                let Some(dtype) = MpiDatatype::from_code(a[3]) else {
                    return self.mpi_abort(rank, MpiErrorKind::InvalidDatatype);
                };
                let Some(op) = MpiOp::from_code(a[4]) else {
                    return self.mpi_abort(rank, MpiErrorKind::InvalidOp);
                };
                if dtype == MpiDatatype::Byte {
                    return self.mpi_abort(rank, MpiErrorKind::InvalidDatatype);
                }
                let (kind, root) = if req.num == abi::MPI_REDUCE {
                    (CollKind::Reduce, a[5] as u32)
                } else {
                    (CollKind::Allreduce, 0)
                };
                self.join_collective(
                    rank,
                    CollReq {
                        kind,
                        sendbuf: a[0],
                        recvbuf: a[1],
                        count: a[2],
                        dtype: Some(dtype),
                        op: Some(op),
                        root,
                    },
                )
            }
            abi::MPI_SCATTER | abi::MPI_GATHER => {
                let Some(dtype) = MpiDatatype::from_code(a[3]) else {
                    return self.mpi_abort(rank, MpiErrorKind::InvalidDatatype);
                };
                let kind = if req.num == abi::MPI_SCATTER {
                    CollKind::Scatter
                } else {
                    CollKind::Gather
                };
                self.join_collective(
                    rank,
                    CollReq {
                        kind,
                        sendbuf: a[0],
                        recvbuf: a[1],
                        count: a[2],
                        dtype: Some(dtype),
                        op: None,
                        root: a[4] as u32,
                    },
                )
            }
            abi::MPI_FINALIZE => {
                st.finalized = true;
                self.complete(rank, 0);
            }
            _ => self.mpi_abort(rank, MpiErrorKind::InvalidOp),
        }
    }

    /// Validates receive arguments (wildcards allowed); `None` means the
    /// job was aborted.
    fn parse_recv_args(&mut self, rank: u32, a: [u64; 6], dtype: MpiDatatype) -> Option<RecvArgs> {
        let n = self.nranks() as u64;
        let source = if a[3] == abi::MPI_ANY {
            None
        } else {
            if a[3] >= n {
                self.mpi_abort(rank, MpiErrorKind::InvalidRank);
                return None;
            }
            Some(a[3] as u32)
        };
        let tag = if a[4] == abi::MPI_ANY {
            None
        } else {
            Some(a[4])
        };
        Some(RecvArgs {
            buf: a[0],
            count: a[1],
            dtype,
            source,
            tag,
        })
    }

    /// Completes a finished `MPI_Wait`.
    fn finish_wait(&mut self, rank: u32) {
        self.state[rank as usize].waiting_on = None;
        self.complete(rank, 0);
    }

    fn do_send(&mut self, rank: u32, a: [u64; 6]) {
        self.do_send_ret(rank, a, 0)
    }

    fn do_send_ret(&mut self, rank: u32, a: [u64; 6], ret: u64) {
        let (buf, count, dtype_code, dest, tag) = (a[0], a[1], a[2], a[3], a[4]);
        let n = self.nranks() as u64;
        {
            let st = &self.state[rank as usize];
            if !st.inited || st.finalized {
                return self.mpi_abort(rank, MpiErrorKind::NotInitialized);
            }
        }
        let Some(dtype) = MpiDatatype::from_code(dtype_code) else {
            return self.mpi_abort(rank, MpiErrorKind::InvalidDatatype);
        };
        let bytes = count.saturating_mul(dtype.size());
        if bytes > MAX_MSG_BYTES {
            return self.mpi_abort(rank, MpiErrorKind::InvalidCount);
        }
        if dest >= n {
            return self.mpi_abort(rank, MpiErrorKind::InvalidRank);
        }
        let dest = dest as u32;
        if !self.rank_alive(dest) {
            return self.mpi_abort(rank, MpiErrorKind::RankDied);
        }

        let (ni, pid) = self.ranks[rank as usize];
        // A corrupted buffer pointer faults inside the "MPI library": the
        // rank dies with an OS exception, exactly like real MPI.
        let data = match self.nodes[ni].read_guest(pid, buf, bytes) {
            Ok(d) => d,
            Err(_) => return self.kill_rank(rank, Signal::Segv),
        };
        let taint_on = self.cfg.taint_policy != TaintPolicy::Disabled;
        let masks = if taint_on {
            self.nodes[ni]
                .read_guest_taint(pid, buf, bytes)
                .unwrap_or_else(|_| vec![0; bytes as usize])
        } else {
            vec![0; bytes as usize]
        };
        let tainted_bytes = tainted_count(&masks);

        let seq = self.send_seq;
        self.send_seq += 1;

        if tainted_bytes > 0 {
            // Tainted sends also carry their fault provenance, so the
            // receiver can extend the propagation graph across the rank
            // boundary. Empty when the sender tracks no provenance.
            let provs = if self.nodes[ni].taint().prov_any() {
                self.nodes[ni]
                    .read_guest_prov(pid, buf, bytes)
                    .map(|ps| ps.iter().map(|p| p.bits()).collect())
                    .unwrap_or_default()
            } else {
                Vec::new()
            };
            self.hub.publish_full(
                MsgId {
                    src: rank,
                    dest,
                    tag,
                },
                seq,
                masks,
                self.round,
                provs,
            );
        }

        let env = Envelope {
            src: rank,
            dest,
            tag,
            dtype,
            count,
            data,
            seq,
        };
        self.net.send(env, self.round);
        self.complete(rank, ret);
    }

    /// Attempts to deliver into one pending nonblocking receive request.
    fn try_complete_request(&mut self, rank: u32, id: usize) -> bool {
        let Some(Request::RecvPending(args)) = self.state[rank as usize].requests.get(id).copied()
        else {
            return false;
        };
        match self.deliver_into(rank, &args) {
            Deliver::NoMatch => false,
            Deliver::Done | Deliver::Fatal => {
                if let Some(slot) = self.state[rank as usize].requests.get_mut(id) {
                    *slot = Request::Done;
                }
                true
            }
        }
    }

    /// Attempts every pending request and any blocked `MPI_Wait` of `rank`;
    /// returns `true` on progress.
    fn pump_requests(&mut self, rank: u32) -> bool {
        let mut progress = false;
        let ids: Vec<usize> = self.state[rank as usize]
            .requests
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Request::RecvPending(_)))
            .map(|(i, _)| i)
            .collect();
        for id in ids {
            if self.try_complete_request(rank, id) {
                progress = true;
            }
        }
        if let Some(id) = self.state[rank as usize].waiting_on {
            if matches!(
                self.state[rank as usize].requests.get(id),
                Some(Request::Done)
            ) {
                self.finish_wait(rank);
                progress = true;
            }
        }
        progress
    }

    fn try_complete_recv(&mut self, rank: u32) -> bool {
        let Some(args) = self.state[rank as usize].pending_recv else {
            return false;
        };
        match self.deliver_into(rank, &args) {
            Deliver::NoMatch => false,
            Deliver::Done => {
                self.state[rank as usize].pending_recv = None;
                self.complete(rank, 0);
                true
            }
            Deliver::Fatal => {
                self.state[rank as usize].pending_recv = None;
                true
            }
        }
    }

    /// Matches a mature message against `args` and copies it (data and
    /// taint) into the receiver.
    fn deliver_into(&mut self, rank: u32, args: &RecvArgs) -> Deliver {
        let Some(env) = self.net.try_match(rank, args.source, args.tag, self.round) else {
            return Deliver::NoMatch;
        };
        if env.dtype != args.dtype {
            self.mpi_abort(rank, MpiErrorKind::TypeMismatch);
            return Deliver::Fatal;
        }
        if env.count > args.count {
            self.mpi_abort(rank, MpiErrorKind::Truncation);
            return Deliver::Fatal;
        }
        let (ni, pid) = self.ranks[rank as usize];
        if self.nodes[ni]
            .write_guest(pid, args.buf, &env.data)
            .is_err()
        {
            self.kill_rank(rank, Signal::Segv);
            return Deliver::Fatal;
        }
        // The hub hands over the sender's masks and provenance (empty when
        // the sender tracks none); a miss means the payload arrived clean.
        let id = MsgId {
            src: env.src,
            dest: rank,
            tag: env.tag,
        };
        let (masks, mut provs) = match self.hub.poll_matching(id, env.seq) {
            Some(rec) => (
                Some(rec.masks),
                rec.provs.iter().map(|&b| ProvSet::from_bits(b)).collect(),
            ),
            None => (None, Vec::new()),
        };
        let tainted_bytes = masks.as_deref().map_or(0, tainted_count);
        // Incoming data overwrites whatever taint the buffer carried, then
        // the carried taint is re-applied. Under `Disabled` no shadow holds
        // taint and there is nothing to overwrite.
        if self.cfg.taint_policy != TaintPolicy::Disabled {
            let len = env.data.len();
            let masks = masks.unwrap_or_else(|| vec![0; len]);
            let _ = self.nodes[ni].write_guest_taint(pid, args.buf, &masks);
            if !provs.is_empty() || self.nodes[ni].taint().prov_any() {
                provs.resize(len, ProvSet::EMPTY);
                let _ = self.nodes[ni].write_guest_prov(pid, args.buf, &provs);
            }
        }
        if tainted_bytes > 0 {
            self.cross_rank_tainted_deliveries += 1;
        }
        if tainted_bytes > 0 {
            let edge = CrossRankEdge {
                src: env.src,
                dest: rank,
                tag: env.tag,
                seq: env.seq,
                round: self.round,
                tainted_bytes,
                prov_bits: prov_union(&provs),
            };
            for obs in &self.observers {
                obs.lock().on_tainted_delivery(&edge);
            }
        }
        Deliver::Done
    }

    /// A receive whose source died with nothing in flight can never
    /// complete: surface it as `RankDied` (real MPI: the job dies once the
    /// failure detector fires).
    fn check_dead_sender(&mut self, rank: u32) -> bool {
        let args = match (
            self.state[rank as usize].pending_recv,
            self.state[rank as usize].waiting_on,
        ) {
            (Some(args), _) => args,
            (None, Some(id)) => match self.state[rank as usize].requests.get(id) {
                Some(Request::RecvPending(args)) => *args,
                _ => return false,
            },
            (None, None) => return false,
        };
        let senders_dead = match args.source {
            Some(src) => !self.rank_alive(src),
            // ANY_SOURCE: hopeless only when every other rank has exited.
            None => (0..self.nranks()).all(|r| r == rank || !self.rank_alive(r)),
        };
        if !senders_dead {
            return false;
        }
        if self.net.has_in_flight(rank, args.source, args.tag) {
            return false;
        }
        self.mpi_abort(rank, MpiErrorKind::RankDied);
        true
    }

    fn join_collective(&mut self, rank: u32, req: CollReq) {
        {
            let st = &self.state[rank as usize];
            if !st.inited || st.finalized {
                return self.mpi_abort(rank, MpiErrorKind::NotInitialized);
            }
        }
        if req.root as u64 >= self.nranks() as u64 {
            return self.mpi_abort(rank, MpiErrorKind::InvalidRank);
        }
        if let Some(dtype) = req.dtype {
            if req.count.saturating_mul(dtype.size()) > MAX_MSG_BYTES {
                return self.mpi_abort(rank, MpiErrorKind::InvalidCount);
            }
        }
        let n = self.ranks.len();
        let slot = self.coll.get_or_insert_with(|| CollectiveSlot::new(n));
        if !slot.join(rank, req) {
            return self.mpi_abort(rank, MpiErrorKind::TypeMismatch);
        }
        self.state[rank as usize].in_collective = true;
        self.check_collective();
    }

    /// Completes the current collective if every rank has joined; detects
    /// dead participants. Returns `true` when something completed or
    /// errored.
    fn check_collective(&mut self) -> bool {
        let Some(slot) = &self.coll else { return false };
        if slot.is_empty() {
            return false;
        }
        let n = self.ranks.len();
        let all = vec![true; n];
        let live: Vec<bool> = (0..n as u32).map(|r| self.rank_alive(r)).collect();
        if slot.complete(&all) {
            let slot = self.coll.take().expect("checked above");
            self.execute_collective(slot);
            return true;
        }
        if slot.complete(&live) {
            // Every live rank is waiting on a dead one.
            let waiter = (0..n as u32).find(|&r| live[r as usize]).unwrap_or(0);
            self.mpi_abort(waiter, MpiErrorKind::RankDied);
            return true;
        }
        false
    }

    fn execute_collective(&mut self, slot: CollectiveSlot) {
        let n = self.ranks.len() as u32;
        let shape = slot.shape();
        for r in 0..n {
            self.state[r as usize].in_collective = false;
        }
        let elem = shape.dtype.map_or(0, MpiDatatype::size);
        let bytes = shape.count * elem;
        // Under `Disabled` no shadow holds taint, so a collective does no
        // taint work at all (`None` below).
        let taint_on = self.cfg.taint_policy != TaintPolicy::Disabled;

        macro_rules! read_buf {
            ($rank:expr, $addr:expr, $len:expr) => {{
                let (ni, pid) = self.ranks[$rank as usize];
                match self.nodes[ni].read_guest(pid, $addr, $len) {
                    Ok(d) => d,
                    Err(_) => {
                        self.kill_rank($rank, Signal::Segv);
                        self.mpi_abort($rank, MpiErrorKind::RankDied);
                        return;
                    }
                }
            }};
        }
        macro_rules! write_buf {
            ($rank:expr, $addr:expr, $data:expr, $taint:expr) => {{
                let (ni, pid) = self.ranks[$rank as usize];
                if self.nodes[ni].write_guest(pid, $addr, $data).is_err() {
                    self.kill_rank($rank, Signal::Segv);
                    self.mpi_abort($rank, MpiErrorKind::RankDied);
                    return;
                }
                let taint: Option<(&[u8], &[ProvSet])> = $taint;
                if let Some((masks, provs)) = taint {
                    let _ = self.nodes[ni].write_guest_taint(pid, $addr, masks);
                    if provs.iter().any(|p| !p.is_empty()) || self.nodes[ni].taint().prov_any() {
                        let _ = self.nodes[ni].write_guest_prov(pid, $addr, provs);
                    }
                }
            }};
        }
        // The masks and provenance a payload carries from `$rank`'s buffer.
        macro_rules! read_taint {
            ($rank:expr, $addr:expr, $len:expr) => {{
                let (ni, pid) = self.ranks[$rank as usize];
                let node = &self.nodes[ni];
                if !taint_on {
                    None
                } else {
                    let masks = node
                        .read_guest_taint(pid, $addr, $len)
                        .unwrap_or_else(|_| vec![0; $len as usize]);
                    let provs = if node.taint().prov_any() {
                        node.read_guest_prov(pid, $addr, $len)
                            .unwrap_or_else(|_| vec![ProvSet::EMPTY; $len as usize])
                    } else {
                        vec![ProvSet::EMPTY; $len as usize]
                    };
                    Some((masks, provs))
                }
            }};
        }
        let tag = coll_tag(shape.kind);
        // Tainted cross-rank movements observed during this collective;
        // fired to observers once the data movement is complete.
        let mut edges: Vec<CrossRankEdge> = Vec::new();

        match shape.kind {
            CollKind::Barrier => {}
            CollKind::Bcast => {
                let data = read_buf!(shape.root, shape.sendbuf, bytes);
                let taint = read_taint!(shape.root, shape.sendbuf, bytes);
                let (tainted_bytes, prov_bits) = summary(view(&taint));
                for (r, req) in slot.requests() {
                    if r != shape.root {
                        write_buf!(r, req.sendbuf, &data, view(&taint));
                        if tainted_bytes > 0 {
                            self.cross_rank_tainted_deliveries += 1;
                            edges.push(CrossRankEdge {
                                src: shape.root,
                                dest: r,
                                tag,
                                seq: 0,
                                round: self.round,
                                tainted_bytes,
                                prov_bits,
                            });
                        }
                    }
                }
            }
            CollKind::Reduce | CollKind::Allreduce => {
                let dtype = shape.dtype.expect("reduce has a datatype");
                let op = shape.op.expect("reduce has an operator");
                let mut acc: Vec<u8> = Vec::new();
                let mut acc_taint: PayloadTaint = taint_on.then(|| {
                    (
                        vec![0u8; bytes as usize],
                        vec![ProvSet::EMPTY; bytes as usize],
                    )
                });
                let mut contributions: Vec<Vec<u8>> = Vec::new();
                let mut tainted_ranks: Vec<u32> = Vec::new();
                // Per contributing rank: tainted byte count + provenance
                // union, for the edge records.
                let mut taint_srcs: Vec<(u32, usize, u32)> = Vec::new();
                for (r, req) in slot.requests() {
                    let data = read_buf!(r, req.sendbuf, bytes);
                    if taint_on {
                        let taint = read_taint!(r, req.sendbuf, bytes);
                        let (tainted_bytes, prov_bits) = summary(view(&taint));
                        if tainted_bytes > 0 {
                            tainted_ranks.push(r);
                            taint_srcs.push((r, tainted_bytes, prov_bits));
                        }
                        if let (Some((masks, provs)), Some((acc_masks, acc_provs))) =
                            (&taint, &mut acc_taint)
                        {
                            for (m, a) in masks.iter().zip(acc_masks.iter_mut()) {
                                *a |= m;
                            }
                            for (p, a) in provs.iter().zip(acc_provs.iter_mut()) {
                                *a = a.union(*p);
                            }
                        }
                    }
                    if acc.is_empty() {
                        acc = data;
                    } else {
                        contributions.push(data);
                    }
                }
                for data in &contributions {
                    reduce_into(&mut acc, data, dtype, op);
                }
                if shape.kind == CollKind::Reduce {
                    let root_req = slot
                        .requests()
                        .find(|(r, _)| *r == shape.root)
                        .map(|(_, req)| *req)
                        .expect("root joined");
                    write_buf!(shape.root, root_req.recvbuf, &acc, view(&acc_taint));
                    if tainted_ranks.iter().any(|&t| t != shape.root) {
                        self.cross_rank_tainted_deliveries += 1;
                    }
                    for &(t, tainted_bytes, prov_bits) in &taint_srcs {
                        if t != shape.root {
                            edges.push(CrossRankEdge {
                                src: t,
                                dest: shape.root,
                                tag,
                                seq: 0,
                                round: self.round,
                                tainted_bytes,
                                prov_bits,
                            });
                        }
                    }
                } else {
                    for (r, req) in slot.requests() {
                        write_buf!(r, req.recvbuf, &acc, view(&acc_taint));
                        if tainted_ranks.iter().any(|&t| t != r) {
                            self.cross_rank_tainted_deliveries += 1;
                        }
                        for &(t, tainted_bytes, prov_bits) in &taint_srcs {
                            if t != r {
                                edges.push(CrossRankEdge {
                                    src: t,
                                    dest: r,
                                    tag,
                                    seq: 0,
                                    round: self.round,
                                    tainted_bytes,
                                    prov_bits,
                                });
                            }
                        }
                    }
                }
            }
            CollKind::Scatter => {
                let total = bytes * n as u64;
                let data = read_buf!(shape.root, shape.sendbuf, total);
                let taint = read_taint!(shape.root, shape.sendbuf, total);
                for (r, req) in slot.requests() {
                    let chunk = (r as u64 * bytes) as usize..((r + 1) as u64 * bytes) as usize;
                    let chunk_taint =
                        view(&taint).map(|(m, p)| (&m[chunk.clone()], &p[chunk.clone()]));
                    let (tainted_bytes, prov_bits) = summary(chunk_taint);
                    write_buf!(r, req.recvbuf, &data[chunk], chunk_taint);
                    if tainted_bytes > 0 && r != shape.root {
                        self.cross_rank_tainted_deliveries += 1;
                        edges.push(CrossRankEdge {
                            src: shape.root,
                            dest: r,
                            tag,
                            seq: 0,
                            round: self.round,
                            tainted_bytes,
                            prov_bits,
                        });
                    }
                }
            }
            CollKind::Gather => {
                let root_req = slot
                    .requests()
                    .find(|(r, _)| *r == shape.root)
                    .map(|(_, req)| *req)
                    .expect("root joined");
                for (r, req) in slot.requests() {
                    let data = read_buf!(r, req.sendbuf, bytes);
                    let taint = read_taint!(r, req.sendbuf, bytes);
                    let (tainted_bytes, prov_bits) = summary(view(&taint));
                    let dst = root_req.recvbuf + r as u64 * bytes;
                    write_buf!(shape.root, dst, &data, view(&taint));
                    if tainted_bytes > 0 && r != shape.root {
                        self.cross_rank_tainted_deliveries += 1;
                        edges.push(CrossRankEdge {
                            src: r,
                            dest: shape.root,
                            tag,
                            seq: 0,
                            round: self.round,
                            tainted_bytes,
                            prov_bits,
                        });
                    }
                }
            }
        }

        for edge in edges {
            for obs in &self.observers {
                obs.lock().on_tainted_delivery(&edge);
            }
        }

        for (r, _) in slot.requests() {
            if self.rank_alive(r) {
                self.complete(r, 0);
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

/// Number of tainted bytes in a payload's masks: the one pass a message's
/// taint bookkeeping makes over them.
fn tainted_count(masks: &[u8]) -> usize {
    masks.iter().filter(|&&m| m != 0).count()
}

/// The union of a payload's per-byte provenance, as raw bits.
fn prov_union(provs: &[ProvSet]) -> u32 {
    provs
        .iter()
        .fold(ProvSet::EMPTY, |acc, p| acc.union(*p))
        .bits()
}

/// A collective payload's masks and provenance, `None` under
/// `TaintPolicy::Disabled`.
type PayloadTaint = Option<(Vec<u8>, Vec<ProvSet>)>;

/// A payload's taint as slices.
fn view(t: &PayloadTaint) -> Option<(&[u8], &[ProvSet])> {
    t.as_ref().map(|(m, p)| (m.as_slice(), p.as_slice()))
}

/// A payload's tainted byte count and, when it has any, its provenance
/// union: one pass over the masks.
fn summary(t: Option<(&[u8], &[ProvSet])>) -> (usize, u32) {
    match t.map(|(m, p)| (tainted_count(m), p)) {
        Some((n, p)) if n > 0 => (n, prov_union(p)),
        _ => (0, 0),
    }
}

/// The synthetic message tag [`CrossRankEdge`]s use for collective data
/// movements (collectives have no user tag; point-to-point tags are small,
/// so a high base keeps the ranges disjoint).
fn coll_tag(kind: CollKind) -> u64 {
    const COLL_TAG_BASE: u64 = 0xC0_11_EC_00;
    COLL_TAG_BASE
        + match kind {
            CollKind::Barrier => 0,
            CollKind::Bcast => 1,
            CollKind::Reduce => 2,
            CollKind::Allreduce => 3,
            CollKind::Scatter => 4,
            CollKind::Gather => 5,
        }
}

/// Elementwise reduction of `src` into `acc`.
fn reduce_into(acc: &mut [u8], src: &[u8], dtype: MpiDatatype, op: MpiOp) {
    debug_assert_eq!(acc.len(), src.len());
    let n = acc.len() / 8;
    for i in 0..n {
        let range = i * 8..(i + 1) * 8;
        let a = u64::from_le_bytes(acc[range.clone()].try_into().expect("8 bytes"));
        let b = u64::from_le_bytes(src[range.clone()].try_into().expect("8 bytes"));
        let out = match dtype {
            MpiDatatype::F64 => {
                let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
                let r = match op {
                    MpiOp::Sum => fa + fb,
                    MpiOp::Min => fa.min(fb),
                    MpiOp::Max => fa.max(fb),
                    MpiOp::Prod => fa * fb,
                };
                r.to_bits()
            }
            MpiDatatype::I64 => {
                let (ia, ib) = (a as i64, b as i64);
                let r = match op {
                    MpiOp::Sum => ia.wrapping_add(ib),
                    MpiOp::Min => ia.min(ib),
                    MpiOp::Max => ia.max(ib),
                    MpiOp::Prod => ia.wrapping_mul(ib),
                };
                r as u64
            }
            MpiDatatype::Byte => unreachable!("byte reduce rejected at validation"),
        };
        acc[range].copy_from_slice(&out.to_le_bytes());
    }
}

// ---- Cluster snapshots ----

/// A deterministic checkpoint of a whole simulated cluster.
///
/// Captures per-node CPU/FPU state, guest memory as `Arc`-shared
/// copy-on-write pages, taint shadow state, the VMI process tables,
/// in-flight interconnect envelopes, queued TaintHub records, instruction
/// counts and the *current positions* of every seeded RNG stream. `Send +
/// Sync` and cheap to clone, so a campaign wraps one in an `Arc` and every
/// worker restores from the same snapshot concurrently — the machine-state
/// analogue of the layered TB cache's shared base layer.
///
/// Not captured (re-attached after restore, like on a cold run): hooks,
/// MPI observers, and translated blocks.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    nodes: Vec<NodeSnapshot>,
    ranks: Vec<(usize, u64)>,
    state: Vec<RankState>,
    net: Interconnect,
    coll: Option<CollectiveSlot>,
    hub: HubSnapshot,
    round: u64,
    stuck_rounds: u64,
    mpi_error: Option<MpiError>,
    hang: bool,
    budget_exhausted: Option<BudgetKind>,
    send_seq: u64,
    cross_rank_tainted_deliveries: u64,
    total_insns: u64,
}

impl ClusterSnapshot {
    /// The scheduler round the snapshot was taken at.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Total retired guest instructions at capture — the work a run
    /// restored from here skips.
    pub fn total_insns(&self) -> u64 {
        self.total_insns
    }

    /// Resident guest-RAM pages captured across all nodes.
    pub fn resident_pages(&self) -> u64 {
        self.nodes.iter().map(NodeSnapshot::resident_pages).sum()
    }

    /// Visits the storage identity of every captured guest-RAM page.
    /// Successive snapshots of one cluster share the pages no write touched
    /// in between, so the distinct identities over a set of snapshots count
    /// the pages that set keeps alive.
    pub fn for_each_page_id(&self, mut f: impl FnMut(usize)) {
        for node in &self.nodes {
            node.for_each_page_id(&mut f);
        }
    }
}

/// 64-bit FNV-1a over a byte stream: the workspace's stable,
/// dependency-free hash (cluster state digests, journal fingerprints,
/// provenance digests).
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Absorbs `v` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a string with a terminator so adjacent fields can't alias.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// The 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;

    #[test]
    fn snapshot_is_send_sync_and_clone() {
        fn assert_bounds<T: Send + Sync + Clone>() {}
        assert_bounds::<ClusterSnapshot>();
    }
}

/// The compute-phase pool from the inside: which rounds hand chunks to
/// helpers, how many helpers exist, and that none of it shows in results.
#[cfg(test)]
mod pool_tests {
    use super::*;
    use chaser_isa::{Asm, Cond, Instruction, Reg};
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
