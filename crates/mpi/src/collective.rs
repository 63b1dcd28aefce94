//! Collective-operation bookkeeping.

use chaser_isa::abi::{MpiDatatype, MpiOp};

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

    /// Has `rank` joined already?
    pub fn has_joined(&self, rank: u32) -> bool {
        self.arrived[rank as usize].is_some()
    }

    /// Are all of `live` (a per-rank liveness mask) present?
    pub fn complete(&self, live: &[bool]) -> bool {
        self.arrived
            .iter()
            .zip(live)
            .all(|(slot, alive)| slot.is_some() || !alive)
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
        assert!(!slot.complete(&live));
        assert!(slot.join(2, req(CollKind::Barrier)));
        assert!(!slot.complete(&live));
        assert!(slot.join(1, req(CollKind::Barrier)));
        assert!(slot.complete(&live));
    }

    #[test]
    fn dead_ranks_are_not_awaited() {
        let mut slot = CollectiveSlot::new(3);
        let live = [true, false, true];
        slot.join(0, req(CollKind::Barrier));
        slot.join(2, req(CollKind::Barrier));
        assert!(slot.complete(&live));
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
        assert!(slot.has_joined(1));
        assert!(!slot.has_joined(0));
        assert_eq!(slot.requests().count(), 1);
        assert_eq!(slot.shape().kind, CollKind::Barrier);
    }
}
