//! MPI call servicing and point-to-point messaging.

use crate::cluster::{Cluster, CrossRankEdge};
use crate::collective::{reduce_into, CollKind, CollReq};
use crate::envelope::{Envelope, MpiError, MpiErrorKind, MAX_MSG_BYTES};
use chaser_isa::abi::{self, MpiDatatype, MpiOp};
use chaser_taint::{ProvSet, TaintPolicy};
use chaser_tainthub::{MsgId, TaintRecord};
use chaser_vm::{ExitStatus, MpiRequest, Node, ProcState, Signal};
use std::borrow::Cow;
use std::ops::Range;

#[derive(Debug, Clone, Default)]
pub(crate) struct RankState {
    pub(crate) inited: bool,
    pub(crate) finalized: bool,
    pub(crate) pending_recv: Option<RecvArgs>,
    pub(crate) in_collective: bool,
    /// Nonblocking request table (handles are indices).
    pub(crate) requests: Vec<Request>,
    /// Request handle an `MPI_Wait` is blocked on.
    pub(crate) waiting_on: Option<usize>,
}

/// A nonblocking communication request.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Request {
    /// An `MPI_Irecv` still waiting for its message.
    RecvPending(RecvArgs),
    /// Completed (eager `MPI_Isend`s are born completed).
    Done,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct RecvArgs {
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

impl Cluster {
    // ---- MPI service layer ----

    /// Returns `ret` from `rank`'s MPI call, unless the call ended the
    /// rank (a delivery into a bad buffer) or the job (an MPI error).
    pub(crate) fn complete(&mut self, rank: u32, ret: u64) {
        if self.rank_alive(rank) {
            let (ni, pid) = self.ranks[rank as usize];
            self.nodes[ni].complete_mpi(pid, ret);
        }
    }

    pub(crate) fn kill_rank(&mut self, rank: u32, sig: Signal) {
        let (ni, pid) = self.ranks[rank as usize];
        self.nodes[ni].abort_process(pid, ExitStatus::Signaled(sig));
        self.state[rank as usize].pending_recv = None;
    }

    /// Records the first MPI error and aborts the whole job (`MPI_Abort`
    /// semantics: the paper's "MPI runtime exceptions" terminations).
    pub(crate) fn mpi_abort(&mut self, rank: u32, kind: MpiErrorKind) {
        if self.mpi_error.is_none() {
            self.mpi_error = Some(MpiError { rank, kind });
        }
        for r in 0..self.ranks.len() as u32 {
            if self.rank_alive(r) {
                let (ni, pid) = self.ranks[r as usize];
                self.nodes[ni].abort_process(pid, ExitStatus::MpiAborted);
            }
            self.state[r as usize].pending_recv = None;
            self.state[r as usize].waiting_on = None;
        }
        self.coll = None;
    }

    pub(crate) fn rank_alive(&self, rank: u32) -> bool {
        let (ni, pid) = self.ranks[rank as usize];
        self.nodes[ni]
            .process(pid)
            .is_some_and(|p| p.state != ProcState::Exited)
    }

    pub(crate) fn service(&mut self, rank: u32, req: MpiRequest) {
        if let Err(kind) = self.serve(rank, req.num, req.args) {
            self.mpi_abort(rank, kind);
        }
    }

    /// Services one MPI call; an `Err` aborts the job with that error.
    fn serve(&mut self, rank: u32, num: u16, a: [u64; 6]) -> Result<(), MpiErrorKind> {
        match num {
            abi::MPI_INIT => {
                self.state[rank as usize].inited = true;
                self.complete(rank, 0);
            }
            abi::MPI_COMM_RANK | abi::MPI_COMM_SIZE => {
                self.check_state(rank, true)?;
                let ret = if num == abi::MPI_COMM_RANK {
                    rank
                } else {
                    self.nranks()
                };
                self.complete(rank, u64::from(ret));
            }
            abi::MPI_SEND => self.send(rank, a, 0)?,
            abi::MPI_ISEND => {
                let requests = &mut self.state[rank as usize].requests;
                let id = requests.len() as u64;
                // Eager buffered send: the request is born complete.
                requests.push(Request::Done);
                self.send(rank, a, id)?;
            }
            abi::MPI_RECV => {
                self.state[rank as usize].pending_recv = Some(self.recv_args(rank, a)?);
                self.try_complete_recv(rank);
            }
            abi::MPI_IRECV => {
                let args = self.recv_args(rank, a)?;
                let requests = &mut self.state[rank as usize].requests;
                let id = requests.len();
                requests.push(Request::RecvPending(args));
                // Complete immediately when a matching message is mature.
                self.try_complete_request(rank, id);
                self.complete(rank, id as u64);
            }
            abi::MPI_WAIT => {
                let id = a[0] as usize;
                match self.state[rank as usize].requests.get(id) {
                    None => return Err(MpiErrorKind::InvalidOp),
                    Some(Request::Done) => self.complete(rank, 0),
                    Some(Request::RecvPending(_)) => {
                        self.state[rank as usize].waiting_on = Some(id);
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
            abi::MPI_BARRIER
            | abi::MPI_BCAST
            | abi::MPI_REDUCE
            | abi::MPI_ALLREDUCE
            | abi::MPI_SCATTER
            | abi::MPI_GATHER => self.collective(rank, num, a)?,
            abi::MPI_FINALIZE => {
                self.state[rank as usize].finalized = true;
                self.complete(rank, 0);
            }
            _ => return Err(MpiErrorKind::InvalidOp),
        }
        Ok(())
    }

    // ---- Argument checks (DESIGN §6), each raising one error kind ----

    /// `NotInitialized` unless `rank` has called `MPI_Init` and, unless
    /// `finalized_ok`, not yet `MPI_Finalize`.
    fn check_state(&self, rank: u32, finalized_ok: bool) -> Result<(), MpiErrorKind> {
        let st = &self.state[rank as usize];
        if st.inited && (finalized_ok || !st.finalized) {
            Ok(())
        } else {
            Err(MpiErrorKind::NotInitialized)
        }
    }

    /// `InvalidRank` unless `r` names a rank.
    fn check_rank(&self, r: u64) -> Result<u32, MpiErrorKind> {
        if r < u64::from(self.nranks()) {
            Ok(r as u32)
        } else {
            Err(MpiErrorKind::InvalidRank)
        }
    }

    /// Checks a point-to-point receive's arguments: state, datatype, count
    /// and source (wildcards allowed).
    fn recv_args(&self, rank: u32, a: [u64; 6]) -> Result<RecvArgs, MpiErrorKind> {
        self.check_state(rank, false)?;
        let dtype = check_dtype(a[2])?;
        check_count(a[1], dtype)?;
        let source = match a[3] {
            abi::MPI_ANY => None,
            source => Some(self.check_rank(source)?),
        };
        Ok(RecvArgs {
            buf: a[0],
            count: a[1],
            dtype,
            source,
            tag: (a[4] != abi::MPI_ANY).then_some(a[4]),
        })
    }

    /// Checks a collective call's arguments (datatype and operator, then
    /// state, root and count) and joins the current collective.
    fn collective(&mut self, rank: u32, num: u16, a: [u64; 6]) -> Result<(), MpiErrorKind> {
        let [a0, a1, a2, a3, a4, a5] = a;
        // (kind, sendbuf, recvbuf, count, datatype, operator, root)
        let (kind, sendbuf, recvbuf, count, dtype, op, root) = match num {
            abi::MPI_BARRIER => (CollKind::Barrier, 0, 0, 0, None, None, 0),
            abi::MPI_BCAST => (CollKind::Bcast, a0, a0, a1, Some(a2), None, a3),
            abi::MPI_REDUCE => (CollKind::Reduce, a0, a1, a2, Some(a3), Some(a4), a5),
            abi::MPI_ALLREDUCE => (CollKind::Allreduce, a0, a1, a2, Some(a3), Some(a4), 0),
            abi::MPI_SCATTER => (CollKind::Scatter, a0, a1, a2, Some(a3), None, a4),
            _ => (CollKind::Gather, a0, a1, a2, Some(a3), None, a4),
        };
        let dtype = dtype.map(check_dtype).transpose()?;
        let op = op
            .zip(dtype)
            .map(|(op, dtype)| check_op(op, dtype))
            .transpose()?;
        self.check_state(rank, false)?;
        // The root is truncated to 32 bits before its range check; `dest`
        // and `source` are checked on all 64 (DESIGN §6).
        let root = self.check_rank(u64::from(root as u32))?;
        if let Some(dtype) = dtype {
            check_count(count, dtype)?;
        }
        let req = CollReq {
            kind,
            sendbuf,
            recvbuf,
            count,
            dtype,
            op,
            root,
        };
        self.join_collective(rank, req)
    }

    /// Completes a finished `MPI_Wait`.
    fn finish_wait(&mut self, rank: u32) {
        self.state[rank as usize].waiting_on = None;
        self.complete(rank, 0);
    }

    /// `MPI_Send`/`MPI_Isend`: checks state, datatype, count and
    /// destination, then sends eagerly and returns `ret` to the caller.
    fn send(&mut self, rank: u32, a: [u64; 6], ret: u64) -> Result<(), MpiErrorKind> {
        self.check_state(rank, false)?;
        let dtype = check_dtype(a[2])?;
        let bytes = check_count(a[1], dtype)?;
        let dest = self.check_rank(a[3])?;
        if !self.rank_alive(dest) {
            return Err(MpiErrorKind::RankDied);
        }
        // A corrupted buffer pointer faults inside the "MPI library": the
        // rank dies with an OS exception, exactly like real MPI.
        let Ok(p) = self.read_payload(rank, a[0], bytes) else {
            self.kill_rank(rank, Signal::Segv);
            return Ok(());
        };
        let (tag, seq) = (a[4], self.send_seq);
        self.send_seq += 1;
        if p.tainted > 0 {
            // Tainted sends also carry their fault provenance, so the
            // receiver can extend the propagation graph across the rank
            // boundary. Empty when the sender tracks no provenance.
            let provs = p.provs.iter().map(|p| p.bits()).collect();
            let id = MsgId {
                src: rank,
                dest,
                tag,
            };
            self.hub
                .publish_full(id, seq, p.masks.into_owned(), 0, provs);
        }
        let env = Envelope {
            src: rank,
            dest,
            tag,
            dtype,
            count: a[1],
            data: p.data.into_owned(),
            seq,
        };
        self.net.send(env, self.round);
        self.complete(rank, ret);
        Ok(())
    }

    /// Attempts to deliver into one pending nonblocking receive request.
    pub(crate) fn try_complete_request(&mut self, rank: u32, id: usize) -> bool {
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
    pub(crate) fn pump_requests(&mut self, rank: u32) -> bool {
        let mut progress = false;
        // No request is added while the pump runs, and each one is checked
        // for a pending receive at its turn.
        for id in 0..self.state[rank as usize].requests.len() {
            progress |= self.try_complete_request(rank, id);
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

    pub(crate) fn try_complete_recv(&mut self, rank: u32) -> bool {
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
        // The hub hands over the sender's masks and provenance once the
        // bytes have landed; a miss means the payload arrived clean.
        let id = MsgId {
            src: env.src,
            dest: rank,
            tag: env.tag,
        };
        let rec = self.hub.poll_matching(id, env.seq);
        let p = Payload::received(env.data, rec);
        if self.taint_on() {
            p.write_taint(&mut self.nodes[ni], pid, args.buf);
        }
        self.record_delivery(rank, env.tag, env.seq, [(env.src, p.taint())]);
        self.report_edges();
        Deliver::Done
    }

    /// A receive whose source died with nothing in flight can never
    /// complete: surface it as `RankDied` (real MPI: the job dies once the
    /// failure detector fires).
    pub(crate) fn check_dead_sender(&mut self, rank: u32) -> bool {
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

    // ---- The payload mover ----

    fn taint_on(&self) -> bool {
        self.cfg.taint_policy != TaintPolicy::Disabled
    }

    /// Reads `len` bytes at `addr` of `rank`'s memory with their taint.
    /// `Err(rank)` when the buffer is not mapped.
    pub(crate) fn read_payload(
        &self,
        rank: u32,
        addr: u64,
        len: u64,
    ) -> Result<Payload<'static>, u32> {
        let (ni, pid) = self.ranks[rank as usize];
        let node = &self.nodes[ni];
        let data = node.read_guest(pid, addr, len).map_err(|_| rank)?;
        let mut p = Payload {
            data: data.into(),
            ..Payload::default()
        };
        if self.taint_on() {
            let masks = node.read_guest_taint(pid, addr, len).map_err(|_| rank)?;
            p.tainted = tainted_count(&masks);
            p.masks = masks.into();
            if p.tainted > 0 && node.taint().prov_any() {
                p.provs = node
                    .read_guest_prov(pid, addr, len)
                    .map_err(|_| rank)?
                    .into();
            }
        }
        Ok(p)
    }

    /// Writes `p` at `addr` of `rank`'s memory: the bytes, then their taint
    /// over whatever taint the buffer carried. `Err(rank)` when the buffer
    /// is not mapped writable.
    pub(crate) fn write_payload(&mut self, rank: u32, addr: u64, p: &Payload) -> Result<(), u32> {
        let taint_on = self.taint_on();
        let (ni, pid) = self.ranks[rank as usize];
        let node = &mut self.nodes[ni];
        node.write_guest(pid, addr, &p.data).map_err(|_| rank)?;
        if taint_on {
            p.write_taint(node, pid, addr);
        }
        Ok(())
    }

    /// Records one delivery into `dest` of the taint of `srcs` (`(rank,
    /// (tainted bytes, provenance bits))`): each tainted source is one
    /// [`CrossRankEdge`], and a delivery with any counts once in
    /// `cross_rank_tainted_deliveries`. [`Cluster::report_edges`] hands the
    /// edges to the observers.
    pub(crate) fn record_delivery(
        &mut self,
        dest: u32,
        tag: u64,
        seq: u64,
        srcs: impl IntoIterator<Item = (u32, (usize, u32))>,
    ) {
        let before = self.edges.len();
        for (src, (tainted_bytes, prov_bits)) in srcs {
            if tainted_bytes > 0 {
                self.edges.push(CrossRankEdge {
                    src,
                    dest,
                    tag,
                    seq,
                    round: self.round,
                    tainted_bytes,
                    prov_bits,
                });
            }
        }
        if self.edges.len() > before {
            self.cross_rank_tainted_deliveries += 1;
        }
    }

    /// Hands the recorded edges to every observer, in recording order.
    pub(crate) fn report_edges(&mut self) {
        for edge in self.edges.drain(..) {
            for obs in &self.observers {
                obs.lock().on_tainted_delivery(&edge);
            }
        }
    }
}

/// A payload on its way from one rank's buffer into another's: the bytes,
/// their taint masks (none under `TaintPolicy::Disabled`, nor for a clean
/// point-to-point message) and their provenance (none unless the payload
/// is tainted and its source tracks provenance, so a clean payload
/// allocates none). Borrowed for one rank's part of a scatter.
#[derive(Default)]
pub(crate) struct Payload<'a> {
    data: Cow<'a, [u8]>,
    masks: Cow<'a, [u8]>,
    provs: Cow<'a, [ProvSet]>,
    /// Bytes with a non-zero mask.
    tainted: usize,
}

impl Payload<'_> {
    /// A point-to-point payload at its receiver: the envelope's bytes with
    /// the taint its sender published to the hub, clean on a miss.
    fn received(data: Vec<u8>, rec: Option<TaintRecord>) -> Payload<'static> {
        let mut p = Payload {
            data: data.into(),
            ..Payload::default()
        };
        if let Some(rec) = rec {
            p.tainted = tainted_count(&rec.masks);
            p.masks = rec.masks.into();
            p.provs = rec.provs.into_iter().map(ProvSet::from_bits).collect();
        }
        p
    }

    /// Bytes `range` of the payload.
    pub(crate) fn part(&self, range: Range<usize>) -> Payload<'_> {
        let masks = self.masks.get(range.clone()).unwrap_or_default();
        Payload {
            data: Cow::Borrowed(&self.data[range.clone()]),
            tainted: tainted_count(masks),
            masks: Cow::Borrowed(masks),
            provs: Cow::Borrowed(self.provs.get(range).unwrap_or_default()),
        }
    }

    /// The payload's tainted byte count and the union of its provenance,
    /// as raw bits: what its [`CrossRankEdge`] carries.
    pub(crate) fn taint(&self) -> (usize, u32) {
        let provs = self
            .provs
            .iter()
            .fold(ProvSet::EMPTY, |acc, p| acc.union(*p));
        (self.tainted, provs.bits())
    }

    /// Folds contribution `p` into this reduction: the bytes by `op`, the
    /// masks and provenance by union. The first contribution is taken as
    /// it is.
    pub(crate) fn fold(&mut self, p: Payload<'static>, dtype: MpiDatatype, op: MpiOp) {
        if self.data.is_empty() {
            *self = p;
            return;
        }
        reduce_into(self.data.to_mut(), &p.data, dtype, op);
        for (acc, m) in self.masks.to_mut().iter_mut().zip(p.masks.iter()) {
            *acc |= m;
        }
        if !p.provs.is_empty() {
            let provs = self.provs.to_mut();
            provs.resize(p.provs.len(), ProvSet::EMPTY);
            for (acc, q) in provs.iter_mut().zip(p.provs.iter()) {
                *acc = acc.union(*q);
            }
        }
        self.tainted = tainted_count(&self.masks);
    }

    /// Writes the masks and provenance over the buffer at `addr` (whose
    /// bytes are already written, so no write can fault). Clean bytes, or
    /// tainted ones without provenance, first clean whatever the buffer
    /// held, allocating nothing.
    fn write_taint(&self, node: &mut Node, pid: u64, addr: u64) {
        if self.tainted == 0 || self.provs.is_empty() {
            let _ = node.clear_guest_taint(pid, addr, self.data.len() as u64);
        }
        if self.tainted > 0 {
            let _ = node.write_guest_taint(pid, addr, &self.masks);
        }
        if !self.provs.is_empty() {
            let _ = node.write_guest_prov(pid, addr, &self.provs);
        }
    }
}

/// Number of tainted bytes in a payload's masks.
fn tainted_count(masks: &[u8]) -> usize {
    masks.iter().filter(|&&m| m != 0).count()
}

/// `InvalidDatatype` for an unknown datatype code.
fn check_dtype(code: u64) -> Result<MpiDatatype, MpiErrorKind> {
    MpiDatatype::from_code(code).ok_or(MpiErrorKind::InvalidDatatype)
}

/// `InvalidCount` when `count` elements of `dtype` exceed
/// [`MAX_MSG_BYTES`]; otherwise the payload's length in bytes.
fn check_count(count: u64, dtype: MpiDatatype) -> Result<u64, MpiErrorKind> {
    match count.saturating_mul(dtype.size()) {
        bytes if bytes > MAX_MSG_BYTES => Err(MpiErrorKind::InvalidCount),
        bytes => Ok(bytes),
    }
}

/// `InvalidOp` for an unknown reduction operator, then `InvalidDatatype`
/// for a byte reduction (bytes have no elementwise arithmetic).
fn check_op(code: u64, dtype: MpiDatatype) -> Result<MpiOp, MpiErrorKind> {
    let op = MpiOp::from_code(code).ok_or(MpiErrorKind::InvalidOp)?;
    if dtype == MpiDatatype::Byte {
        return Err(MpiErrorKind::InvalidDatatype);
    }
    Ok(op)
}
