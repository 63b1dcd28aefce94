//! Collective operations: the slot ranks join, and their execution.

use crate::cluster::Cluster;
use crate::envelope::MpiErrorKind;
use crate::service::Payload;
use chaser_isa::abi::{MpiDatatype, MpiOp};
use chaser_vm::Signal;

/// Which collective a rank joined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollKind {
    /// `MPI_Barrier`.
    Barrier,
    /// `MPI_Bcast`.
    Bcast,
    /// `MPI_Reduce`.
    Reduce,
    /// `MPI_Allreduce`.
    Allreduce,
    /// `MPI_Scatter`.
    Scatter,
    /// `MPI_Gather`.
    Gather,
}

/// One rank's arguments to a collective call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollReq {
    /// The collective.
    pub kind: CollKind,
    /// Send-side guest buffer (or the in/out buffer for bcast).
    pub sendbuf: u64,
    /// Receive-side guest buffer (unused by barrier/bcast).
    pub recvbuf: u64,
    /// Element count (per rank for scatter/gather).
    pub count: u64,
    /// Element datatype (`None` for barrier).
    pub dtype: Option<MpiDatatype>,
    /// Reduction operator (reduce/allreduce only).
    pub op: Option<MpiOp>,
    /// Root rank (bcast/reduce/scatter/gather).
    pub root: u32,
}

impl CollReq {
    /// Do two ranks' requests describe the same collective? (Shape check —
    /// a mismatch is the `TypeMismatch` MPI error.)
    pub fn compatible(&self, other: &CollReq) -> bool {
        self.kind == other.kind
            && self.count == other.count
            && self.dtype == other.dtype
            && self.op == other.op
            && self.root == other.root
    }
}

/// Tracks the globally current collective until every live rank has joined.
#[derive(Debug, Default, Clone)]
pub struct CollectiveSlot {
    arrived: Vec<Option<CollReq>>,
}

impl CollectiveSlot {
    /// A slot for `ranks` participants.
    pub fn new(ranks: usize) -> CollectiveSlot {
        CollectiveSlot {
            arrived: vec![None; ranks],
        }
    }

    /// Records rank `rank`'s request. Returns `false` when it clashes with
    /// an earlier participant's shape.
    pub fn join(&mut self, rank: u32, req: CollReq) -> bool {
        if let Some(first) = self.arrived.iter().flatten().next() {
            if !first.compatible(&req) {
                return false;
            }
        }
        self.arrived[rank as usize] = Some(req);
        true
    }

    /// The request `rank` joined with, if it has joined.
    pub fn request(&self, rank: u32) -> Option<&CollReq> {
        self.arrived.get(rank as usize)?.as_ref()
    }

    /// Has every rank that `awaited` names joined?
    pub fn complete(&self, awaited: impl Fn(u32) -> bool) -> bool {
        self.arrived
            .iter()
            .enumerate()
            .all(|(rank, slot)| slot.is_some() || !awaited(rank as u32))
    }

    /// True if nobody has joined yet.
    pub fn is_empty(&self) -> bool {
        self.arrived.iter().all(Option::is_none)
    }

    /// The requests of all joined ranks.
    pub fn requests(&self) -> impl Iterator<Item = (u32, &CollReq)> {
        self.arrived
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (i as u32, r)))
    }

    /// The shape every participant agreed on.
    ///
    /// # Panics
    ///
    /// Panics when the slot is empty.
    pub fn shape(&self) -> CollReq {
        *self
            .arrived
            .iter()
            .flatten()
            .next()
            .expect("shape of an empty collective")
    }
}

impl Cluster {
    /// Adds `rank`'s checked request to the current collective and runs
    /// the collective once every rank has joined; `TypeMismatch` when the
    /// request's shape clashes with an earlier participant's.
    pub(crate) fn join_collective(&mut self, rank: u32, req: CollReq) -> Result<(), MpiErrorKind> {
        let n = self.ranks.len();
        let slot = self.coll.get_or_insert_with(|| CollectiveSlot::new(n));
        if !slot.join(rank, req) {
            return Err(MpiErrorKind::TypeMismatch);
        }
        self.state[rank as usize].in_collective = true;
        self.check_collective();
        Ok(())
    }

    /// Completes the current collective if every rank has joined; detects
    /// dead participants. Returns `true` when something completed or
    /// errored.
    pub(crate) fn check_collective(&mut self) -> bool {
        let Some(slot) = &self.coll else { return false };
        if slot.is_empty() {
            return false;
        }
        if slot.complete(|_| true) {
            let slot = self.coll.take().expect("checked above");
            self.execute_collective(slot);
            return true;
        }
        if slot.complete(|r| self.rank_alive(r)) {
            // Every live rank is waiting on a dead one.
            let n = self.ranks.len() as u32;
            let waiter = (0..n).find(|&r| self.rank_alive(r)).unwrap_or(0);
            self.mpi_abort(waiter, MpiErrorKind::RankDied);
            return true;
        }
        false
    }

    fn execute_collective(&mut self, slot: CollectiveSlot) {
        for st in &mut self.state {
            st.in_collective = false;
        }
        // A faulting buffer kills its rank inside the "MPI library" and
        // ends the job; the deliveries made before it report no edges.
        if let Err(rank) = self.move_collective(&slot) {
            self.edges.clear();
            self.kill_rank(rank, Signal::Segv);
            return self.mpi_abort(rank, MpiErrorKind::RankDied);
        }
        self.report_edges();
        for (r, _) in slot.requests() {
            self.complete(r, 0);
        }
    }

    /// Moves a collective's payloads, recording each tainted delivery.
    /// Bcast, Scatter and (All)reduce read every source before their first
    /// write; Gather reads and writes one contribution at a time.
    /// `Err(rank)` names the rank whose buffer faulted.
    fn move_collective(&mut self, slot: &CollectiveSlot) -> Result<(), u32> {
        let shape = slot.shape();
        let len = shape.count * shape.dtype.map_or(0, MpiDatatype::size);
        let (root, tag) = (shape.root, coll_tag(shape.kind));
        // `shape` is the lowest rank's request; the root reads and writes its own.
        let root_req = *slot.request(root).expect("every rank joined");
        match shape.kind {
            CollKind::Barrier => {}
            CollKind::Bcast => {
                let p = self.read_payload(root, root_req.sendbuf, len)?;
                for (r, req) in slot.requests().filter(|&(r, _)| r != root) {
                    self.write_payload(r, req.sendbuf, &p)?;
                    self.record_delivery(r, tag, 0, [(root, p.taint())]);
                }
            }
            CollKind::Reduce | CollKind::Allreduce => {
                let dtype = shape.dtype.expect("reduce has a datatype");
                let op = shape.op.expect("reduce has an operator");
                let mut acc = Payload::default();
                let mut srcs = Vec::with_capacity(self.ranks.len());
                for (r, req) in slot.requests() {
                    let p = self.read_payload(r, req.sendbuf, len)?;
                    srcs.push((r, p.taint()));
                    acc.fold(p, dtype, op);
                }
                // `MPI_Reduce` is an allreduce with the root as its only
                // receiver.
                let receivers = slot
                    .requests()
                    .filter(|&(r, _)| shape.kind == CollKind::Allreduce || r == root);
                for (r, req) in receivers {
                    self.write_payload(r, req.recvbuf, &acc)?;
                    let others = srcs.iter().filter(|&&(src, _)| src != r);
                    self.record_delivery(r, tag, 0, others.copied());
                }
            }
            CollKind::Scatter => {
                let all =
                    self.read_payload(root, root_req.sendbuf, len * self.ranks.len() as u64)?;
                let len = len as usize;
                for (r, req) in slot.requests() {
                    let part = all.part(r as usize * len..(r as usize + 1) * len);
                    self.write_payload(r, req.recvbuf, &part)?;
                    if r != root {
                        self.record_delivery(r, tag, 0, [(root, part.taint())]);
                    }
                }
            }
            CollKind::Gather => {
                for (r, req) in slot.requests() {
                    let p = self.read_payload(r, req.sendbuf, len)?;
                    self.write_payload(root, root_req.recvbuf + u64::from(r) * len, &p)?;
                    if r != root {
                        self.record_delivery(root, tag, 0, [(r, p.taint())]);
                    }
                }
            }
        }
        Ok(())
    }
}

/// The synthetic message tag [`CrossRankEdge`](crate::CrossRankEdge)s use
/// for collective data movements (collectives have no user tag;
/// point-to-point tags are small, so a high base keeps the ranges
/// disjoint).
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
pub(crate) fn reduce_into(acc: &mut [u8], src: &[u8], dtype: MpiDatatype, op: MpiOp) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn req(kind: CollKind) -> CollReq {
        CollReq {
            kind,
            sendbuf: 0x1000,
            recvbuf: 0x2000,
            count: 4,
            dtype: Some(MpiDatatype::F64),
            op: None,
            root: 0,
        }
    }

    #[test]
    fn all_ranks_must_join() {
        let mut slot = CollectiveSlot::new(3);
        let live = [true, true, true];
        assert!(slot.join(0, req(CollKind::Barrier)));
        assert!(!slot.complete(|r| live[r as usize]));
        assert!(slot.join(2, req(CollKind::Barrier)));
        assert!(!slot.complete(|r| live[r as usize]));
        assert!(slot.join(1, req(CollKind::Barrier)));
        assert!(slot.complete(|r| live[r as usize]));
    }

    #[test]
    fn dead_ranks_are_not_awaited() {
        let mut slot = CollectiveSlot::new(3);
        let live = [true, false, true];
        slot.join(0, req(CollKind::Barrier));
        slot.join(2, req(CollKind::Barrier));
        assert!(slot.complete(|r| live[r as usize]));
    }

    #[test]
    fn mismatched_kinds_are_rejected() {
        let mut slot = CollectiveSlot::new(2);
        assert!(slot.join(0, req(CollKind::Bcast)));
        assert!(!slot.join(1, req(CollKind::Reduce)));
    }

    #[test]
    fn mismatched_counts_are_rejected() {
        let mut slot = CollectiveSlot::new(2);
        assert!(slot.join(0, req(CollKind::Bcast)));
        let mut other = req(CollKind::Bcast);
        other.count = 8;
        assert!(!slot.join(1, other));
    }

    #[test]
    fn join_state_queries() {
        let mut slot = CollectiveSlot::new(2);
        assert!(slot.is_empty());
        slot.join(1, req(CollKind::Barrier));
        assert!(!slot.is_empty());
        assert!(slot.request(1).is_some());
        assert!(slot.request(0).is_none());
        assert_eq!(slot.requests().count(), 1);
        assert_eq!(slot.shape().kind, CollKind::Barrier);
    }
}
