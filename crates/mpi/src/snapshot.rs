//! Cluster snapshots, restore and the state digest.

use crate::cluster::{host_cores, BudgetKind, Cluster, ClusterConfig, ParallelStats, RoundScratch};
use crate::collective::CollectiveSlot;
use crate::envelope::MpiError;
use crate::net::Interconnect;
use crate::service::RankState;
use chaser_tainthub::{HubSnapshot, TaintHub};
use chaser_vm::{Node, NodeSnapshot};
use std::sync::Arc;

impl Cluster {
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
            edges: Vec::new(),
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
}

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
