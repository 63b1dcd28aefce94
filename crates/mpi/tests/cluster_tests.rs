//! End-to-end cluster tests with hand-written guest MPI programs.

use chaser_isa::{abi, Asm, Cond, Program, Reg, PAGE_SIZE};
use chaser_mpi::{
    BudgetKind, Cluster, ClusterConfig, CrossRankEdge, Envelope, MpiErrorKind, MpiObserver,
    PendingOp, RunBudget, TaintCarrier,
};
use chaser_taint::{ProvSet, TaintMask};
use chaser_vm::{ExitStatus, Signal};
use parking_lot::Mutex;
use std::sync::Arc;

fn small_config(nodes: usize) -> ClusterConfig {
    ClusterConfig {
        nodes,
        quantum: 1000,
        phys_bytes: 8 << 20,
        hang_rounds: 32,
        ..ClusterConfig::default()
    }
}

/// Emits `hcall MPI_SEND(buf_sym, count, dtype, dest, tag)`.
fn emit_send(a: &mut Asm, buf: &str, count: i64, dtype: i64, dest: i64, tag: i64) {
    a.lea(Reg::R1, buf);
    a.movi(Reg::R2, count);
    a.movi(Reg::R3, dtype);
    a.movi(Reg::R4, dest);
    a.movi(Reg::R5, tag);
    a.hypercall(abi::MPI_SEND);
}

fn emit_recv(a: &mut Asm, buf: &str, count: i64, dtype: i64, source: i64, tag: i64) {
    a.lea(Reg::R1, buf);
    a.movi(Reg::R2, count);
    a.movi(Reg::R3, dtype);
    a.movi(Reg::R4, source);
    a.movi(Reg::R5, tag);
    a.hypercall(abi::MPI_RECV);
}

/// Rank 0 sends 42 to rank 1; rank 1 increments and returns it; rank 0
/// exits with the value.
fn ping_pong_program() -> Program {
    let mut a = Asm::new("pingpong");
    a.data_i64("buf", &[42]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    a.cmpi(Reg::R7, 0);
    a.jcc(Cond::Ne, "slave");
    // master
    emit_send(&mut a, "buf", 1, 1, 1, 7);
    emit_recv(&mut a, "buf", 1, 1, 1, 8);
    a.lea(Reg::R8, "buf");
    a.ld(Reg::R9, Reg::R8, 0);
    a.hypercall(abi::MPI_FINALIZE);
    a.exit_with(Reg::R9);
    // slave
    a.label("slave");
    emit_recv(&mut a, "buf", 1, 1, 0, 7);
    a.lea(Reg::R8, "buf");
    a.ld(Reg::R9, Reg::R8, 0);
    a.addi(Reg::R9, 1);
    a.st(Reg::R9, Reg::R8, 0);
    emit_send(&mut a, "buf", 1, 1, 0, 8);
    a.hypercall(abi::MPI_FINALIZE);
    a.exit(0);
    a.assemble().expect("assemble")
}

#[test]
fn ping_pong_round_trip() {
    let mut cluster = Cluster::new(small_config(2));
    let prog = ping_pong_program();
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert!(!run.hang, "must not hang");
    assert_eq!(run.mpi_error, None);
    assert_eq!(run.rank_exits[0], Some(ExitStatus::Exited(43)));
    assert_eq!(run.rank_exits[1], Some(ExitStatus::Exited(0)));
    assert!(cluster.net_stats().delivered >= 2);
}

/// Root broadcasts 10; every rank computes rank*10 and all-reduce-sums.
/// With 3 ranks: (0+1+2)*10 = 30; every rank exits with 30.
fn bcast_reduce_program() -> Program {
    let mut a = Asm::new("bcastreduce");
    a.data_i64("x", &[0]);
    a.data_i64("mine", &[0]);
    a.data_i64("sum", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    // root rank 0 sets x = 10
    a.cmpi(Reg::R7, 0);
    a.jcc(Cond::Ne, "after_init");
    a.lea(Reg::R8, "x");
    a.movi(Reg::R9, 10);
    a.st(Reg::R9, Reg::R8, 0);
    a.label("after_init");
    // bcast x from root 0
    a.lea(Reg::R1, "x");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1); // I64
    a.movi(Reg::R4, 0); // root
    a.hypercall(abi::MPI_BCAST);
    // mine = rank * x
    a.lea(Reg::R8, "x");
    a.ld(Reg::R9, Reg::R8, 0);
    a.mul(Reg::R9, Reg::R7);
    a.lea(Reg::R8, "mine");
    a.st(Reg::R9, Reg::R8, 0);
    // allreduce sum
    a.lea(Reg::R1, "mine");
    a.lea(Reg::R2, "sum");
    a.movi(Reg::R3, 1); // count
    a.movi(Reg::R4, 1); // I64
    a.movi(Reg::R5, 1); // Sum
    a.hypercall(abi::MPI_ALLREDUCE);
    a.lea(Reg::R8, "sum");
    a.ld(Reg::R9, Reg::R8, 0);
    a.hypercall(abi::MPI_FINALIZE);
    a.exit_with(Reg::R9);
    a.assemble().expect("assemble")
}

#[test]
fn bcast_and_allreduce() {
    let mut cluster = Cluster::new(small_config(3));
    let prog = bcast_reduce_program();
    cluster.launch_replicated(&prog, 3).expect("launch");
    let run = cluster.run();
    assert!(!run.hang);
    assert_eq!(run.mpi_error, None);
    for r in 0..3 {
        assert_eq!(run.rank_exits[r], Some(ExitStatus::Exited(30)));
    }
}

/// Scatter 4 values from root, each rank doubles its element, gather back;
/// root checks the result.
fn scatter_gather_program(nranks: i64) -> Program {
    let mut a = Asm::new("scatgath");
    a.data_i64("sendbuf", &[10, 20, 30, 40]);
    a.data_i64("elem", &[0]);
    a.data_i64("recvbuf", &[0, 0, 0, 0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    // scatter(sendbuf -> elem), 1 elem per rank, root 0
    a.lea(Reg::R1, "sendbuf");
    a.lea(Reg::R2, "elem");
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 1); // I64
    a.movi(Reg::R5, 0); // root
    a.hypercall(abi::MPI_SCATTER);
    // elem *= 2
    a.lea(Reg::R8, "elem");
    a.ld(Reg::R9, Reg::R8, 0);
    a.muli(Reg::R9, 2);
    a.st(Reg::R9, Reg::R8, 0);
    // gather(elem -> recvbuf)
    a.lea(Reg::R1, "elem");
    a.lea(Reg::R2, "recvbuf");
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 1);
    a.movi(Reg::R5, 0);
    a.hypercall(abi::MPI_GATHER);
    a.hypercall(abi::MPI_FINALIZE);
    // root sums recvbuf and exits with it; others exit 0
    a.cmpi(Reg::R7, 0);
    a.jcc(Cond::Ne, "done");
    a.lea(Reg::R8, "recvbuf");
    a.movi(Reg::R9, 0);
    a.movi(Reg::R10, 0);
    a.label("sumloop");
    a.ldx(Reg::R11, Reg::R8, Reg::R10);
    a.add(Reg::R9, Reg::R11);
    a.addi(Reg::R10, 1);
    a.cmpi(Reg::R10, nranks);
    a.jcc(Cond::Lt, "sumloop");
    a.exit_with(Reg::R9);
    a.label("done");
    a.exit(0);
    a.assemble().expect("assemble")
}

#[test]
fn scatter_then_gather() {
    let mut cluster = Cluster::new(small_config(4));
    let prog = scatter_gather_program(4);
    cluster.launch_replicated(&prog, 4).expect("launch");
    let run = cluster.run();
    assert!(!run.hang);
    assert_eq!(run.mpi_error, None);
    // (10+20+30+40)*2 = 200
    assert_eq!(run.rank_exits[0], Some(ExitStatus::Exited(200)));
}

/// A send to a nonexistent rank must abort the job with InvalidRank.
#[test]
fn corrupted_dest_rank_is_an_mpi_error() {
    let mut a = Asm::new("baddest");
    a.data_i64("buf", &[1]);
    a.hypercall(abi::MPI_INIT);
    emit_send(&mut a, "buf", 1, 1, 99, 7);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    let err = run.mpi_error.expect("MPI error");
    assert_eq!(err.kind, MpiErrorKind::InvalidRank);
    assert!(run
        .rank_exits
        .iter()
        .all(|e| *e == Some(ExitStatus::MpiAborted)));
}

/// A corrupted datatype code is caught by validation.
#[test]
fn corrupted_datatype_is_an_mpi_error() {
    let mut a = Asm::new("baddtype");
    a.data_i64("buf", &[1]);
    a.hypercall(abi::MPI_INIT);
    emit_send(&mut a, "buf", 1, 77, 0, 7);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(1));
    cluster.launch_replicated(&prog, 1).expect("launch");
    let run = cluster.run();
    assert_eq!(
        run.mpi_error.expect("err").kind,
        MpiErrorKind::InvalidDatatype
    );
}

/// An absurd count (as from a corrupted register) is caught.
#[test]
fn corrupted_count_is_an_mpi_error() {
    let mut a = Asm::new("badcount");
    a.data_i64("buf", &[1]);
    a.hypercall(abi::MPI_INIT);
    a.lea(Reg::R1, "buf");
    a.movi(Reg::R2, 1 << 40);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 0);
    a.movi(Reg::R5, 7);
    a.hypercall(abi::MPI_SEND);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(1));
    cluster.launch_replicated(&prog, 1).expect("launch");
    let run = cluster.run();
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::InvalidCount);
}

/// A corrupted buffer pointer dies with SIGSEGV inside the MPI library —
/// an OS exception, not an MPI error.
#[test]
fn corrupted_buffer_pointer_is_an_os_exception() {
    let mut a = Asm::new("badbuf");
    a.hypercall(abi::MPI_INIT);
    a.movi(Reg::R1, 0x6000_0000);
    a.movi(Reg::R2, 4);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 1);
    a.movi(Reg::R5, 7);
    a.hypercall(abi::MPI_SEND);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    // Rank 1 waits on a message that never comes from the dead rank 0.
    let mut b = Asm::new("waiter");
    b.data_i64("buf", &[0]);
    b.hypercall(abi::MPI_INIT);
    emit_recv(&mut b, "buf", 1, 1, 0, 7);
    b.exit(0);
    let waiter = b.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch(&[&prog, &waiter]).expect("launch");
    let run = cluster.run();
    assert_eq!(
        run.rank_exits[0],
        Some(ExitStatus::Signaled(Signal::Segv)),
        "sender dies of SIGSEGV"
    );
    // The stranded receiver surfaces as an MPI RankDied abort.
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::RankDied);
    assert_eq!(run.rank_exits[1], Some(ExitStatus::MpiAborted));
}

/// Receive with nobody sending (both ranks receive) must be detected as a
/// hang.
#[test]
fn deadlocked_receives_hang() {
    let mut a = Asm::new("deadlock");
    a.data_i64("buf", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    a.movi(Reg::R6, 1);
    a.sub(Reg::R6, Reg::R7); // peer = 1 - rank
    a.lea(Reg::R1, "buf");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.mov(Reg::R4, Reg::R6);
    a.movi(Reg::R5, 7);
    a.hypercall(abi::MPI_RECV);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert!(run.hang, "cross-receive deadlock must be detected");
    assert_eq!(run.rank_exits[0], None);
    assert_eq!(run.rank_exits[1], None);
}

/// Mismatched collectives (one rank in barrier, one in bcast) abort.
#[test]
fn mismatched_collectives_abort() {
    let mut a = Asm::new("mismatch");
    a.data_i64("buf", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.cmpi(Reg::R0, 0);
    a.jcc(Cond::Ne, "other");
    a.hypercall(abi::MPI_BARRIER);
    a.exit(0);
    a.label("other");
    a.lea(Reg::R1, "buf");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 0);
    a.hypercall(abi::MPI_BCAST);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::TypeMismatch);
}

/// Using MPI before MPI_Init aborts.
#[test]
fn mpi_before_init_aborts() {
    let mut a = Asm::new("noinit");
    a.hypercall(abi::MPI_COMM_RANK);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(1));
    cluster.launch_replicated(&prog, 1).expect("launch");
    let run = cluster.run();
    assert_eq!(
        run.mpi_error.expect("err").kind,
        MpiErrorKind::NotInitialized
    );
}

/// Taint on the sender's buffer crosses to the receiver through the hub,
/// and does not cross when the carrier is disabled.
#[test]
fn taint_crosses_ranks_via_hub() {
    for (carrier, expect_cross) in [
        (TaintCarrier::Hub, true),
        (TaintCarrier::Header, true),
        (TaintCarrier::None, false),
    ] {
        let mut cfg = small_config(2);
        cfg.taint_carrier = carrier;
        let mut cluster = Cluster::new(cfg);
        let prog = ping_pong_program();
        cluster.launch_replicated(&prog, 2).expect("launch");

        // Taint the master's send buffer before anything runs — as if an
        // injector had corrupted it.
        let buf = prog.symbol("buf").expect("buf symbol");
        let (ni, pid) = cluster.rank_location(0);
        cluster
            .node_mut(ni)
            .write_guest_taint(pid, buf, &TaintMask::ALL.0.to_le_bytes().map(|_| 0xffu8))
            .expect("taint");

        let run = cluster.run();
        assert!(!run.hang);
        assert_eq!(run.rank_exits[0], Some(ExitStatus::Exited(43)));

        // Check the slave's buffer shadow after its receive.
        let (ni1, pid1) = cluster.rank_location(1);
        let slave_masks = cluster
            .node(ni1)
            .read_guest_taint(pid1, buf, 8)
            .expect("slave taint");
        let crossed = slave_masks.iter().any(|&m| m != 0);
        assert_eq!(
            crossed, expect_cross,
            "carrier {carrier:?}: cross-rank taint expectation"
        );
        if expect_cross {
            assert!(run.cross_rank_tainted_deliveries >= 1);
        } else {
            assert_eq!(run.cross_rank_tainted_deliveries, 0);
        }
        if carrier == TaintCarrier::Hub {
            let stats = cluster.hub().stats();
            assert!(stats.published >= 1, "hub must have been used");
            assert!(stats.hits >= 1);
        }
    }
}

/// The hub must not mis-apply a later tainted message's record to an
/// earlier clean message (seq alignment).
#[test]
fn clean_then_tainted_messages_stay_aligned() {
    // master sends buf (clean), then buf2; slave receives into rbuf1, rbuf2
    // and exits with rbuf1's taint status unknown to the guest — we check
    // shadows from outside.
    let mut a = Asm::new("aligned");
    a.data_i64("buf1", &[1]);
    a.data_i64("buf2", &[2]);
    a.data_i64("rbuf1", &[0]);
    a.data_i64("rbuf2", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.cmpi(Reg::R0, 0);
    a.jcc(Cond::Ne, "slave");
    emit_send(&mut a, "buf1", 1, 1, 1, 7);
    emit_send(&mut a, "buf2", 1, 1, 1, 7);
    a.exit(0);
    a.label("slave");
    emit_recv(&mut a, "rbuf1", 1, 1, 0, 7);
    emit_recv(&mut a, "rbuf2", 1, 1, 0, 7);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");

    // Taint only buf2 on the master.
    let buf2 = prog.symbol("buf2").expect("buf2");
    let (ni, pid) = cluster.rank_location(0);
    cluster
        .node_mut(ni)
        .write_guest_taint(pid, buf2, &[0xff; 8])
        .expect("taint");

    let run = cluster.run();
    assert!(!run.hang);
    assert_eq!(run.mpi_error, None);

    let (ni1, pid1) = cluster.rank_location(1);
    let rbuf1 = prog.symbol("rbuf1").expect("rbuf1");
    let rbuf2 = prog.symbol("rbuf2").expect("rbuf2");
    let m1 = cluster
        .node(ni1)
        .read_guest_taint(pid1, rbuf1, 8)
        .expect("m1");
    let m2 = cluster
        .node(ni1)
        .read_guest_taint(pid1, rbuf2, 8)
        .expect("m2");
    assert!(
        m1.iter().all(|&m| m == 0),
        "first (clean) message must stay clean"
    );
    assert!(
        m2.iter().any(|&m| m != 0),
        "second (tainted) message must carry taint"
    );
}

/// A receive with a smaller buffer than the matched message must abort
/// with a truncation error.
#[test]
fn truncated_receive_is_an_mpi_error() {
    let mut a = Asm::new("trunc");
    a.data_i64("big", &[1, 2, 3, 4]);
    a.data_i64("small", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.cmpi(Reg::R0, 0);
    a.jcc(Cond::Ne, "recv_side");
    emit_send(&mut a, "big", 4, 1, 1, 7);
    a.exit(0);
    a.label("recv_side");
    emit_recv(&mut a, "small", 1, 1, 0, 7);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::Truncation);
}

/// Sender and receiver disagreeing on the datatype must abort.
#[test]
fn datatype_mismatch_is_an_mpi_error() {
    let mut a = Asm::new("dtmismatch");
    a.data_i64("buf", &[1]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.cmpi(Reg::R0, 0);
    a.jcc(Cond::Ne, "recv_side");
    emit_send(&mut a, "buf", 1, 1, 1, 7); // sends I64
    a.exit(0);
    a.label("recv_side");
    emit_recv(&mut a, "buf", 1, 2, 0, 7); // expects F64
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::TypeMismatch);
}

/// All four reduction operators over I64 and F64.
#[test]
fn reduce_operators_compute_correctly() {
    // rank contributes (rank+1); with 3 ranks: sum=6, min=1, max=3, prod=6
    for (op, expect) in [(1i64, 6i64), (2, 1), (3, 3), (4, 6)] {
        let mut a = Asm::new("redop");
        a.data_i64("mine", &[0]);
        a.data_i64("out", &[0]);
        a.hypercall(abi::MPI_INIT);
        a.hypercall(abi::MPI_COMM_RANK);
        a.mov(Reg::R7, Reg::R0);
        a.addi(Reg::R7, 1);
        a.lea(Reg::R8, "mine");
        a.st(Reg::R7, Reg::R8, 0);
        a.lea(Reg::R1, "mine");
        a.lea(Reg::R2, "out");
        a.movi(Reg::R3, 1);
        a.movi(Reg::R4, 1); // I64
        a.movi(Reg::R5, op);
        a.hypercall(abi::MPI_ALLREDUCE);
        a.lea(Reg::R8, "out");
        a.ld(Reg::R9, Reg::R8, 0);
        a.exit_with(Reg::R9);
        let prog = a.assemble().expect("assemble");

        let mut cluster = Cluster::new(small_config(3));
        cluster.launch_replicated(&prog, 3).expect("launch");
        let run = cluster.run();
        assert_eq!(run.mpi_error, None, "op {op}");
        for r in 0..3 {
            assert_eq!(
                run.rank_exits[r],
                Some(ExitStatus::Exited(expect)),
                "op {op} rank {r}"
            );
        }
    }
}

/// A byte-typed reduce is rejected (no meaningful elementwise op).
#[test]
fn byte_reduce_is_rejected() {
    let mut a = Asm::new("bytereduce");
    a.data_i64("buf", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.lea(Reg::R1, "buf");
    a.lea(Reg::R2, "buf");
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 3); // Byte
    a.movi(Reg::R5, 1);
    a.hypercall(abi::MPI_ALLREDUCE);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(1));
    cluster.launch_replicated(&prog, 1).expect("launch");
    let run = cluster.run();
    assert_eq!(
        run.mpi_error.expect("err").kind,
        MpiErrorKind::InvalidDatatype
    );
}

/// A runaway guest loop (as a corrupted branch produces) is caught by the
/// instruction budget and declared a hang.
#[test]
fn runaway_loop_is_declared_hung() {
    let mut a = Asm::new("spin");
    a.label("forever");
    a.jmp("forever");
    let prog = a.assemble().expect("assemble");

    let mut cfg = small_config(1);
    cfg.max_total_insns = 100_000;
    let mut cluster = Cluster::new(cfg);
    cluster.launch_replicated(&prog, 1).expect("launch");
    let run = cluster.run();
    assert!(run.hang);
    assert_eq!(run.rank_exits[0], None);
    assert!(run.total_insns >= 100_000);
}

/// Collectives work with a non-zero root.
#[test]
fn bcast_from_nonzero_root() {
    let mut a = Asm::new("root2");
    a.data_i64("x", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    a.cmpi(Reg::R7, 2);
    a.jcc(Cond::Ne, "join");
    a.lea(Reg::R8, "x");
    a.movi(Reg::R9, 55);
    a.st(Reg::R9, Reg::R8, 0);
    a.label("join");
    a.lea(Reg::R1, "x");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 2); // root = 2
    a.hypercall(abi::MPI_BCAST);
    a.lea(Reg::R8, "x");
    a.ld(Reg::R9, Reg::R8, 0);
    a.hypercall(abi::MPI_FINALIZE);
    a.exit_with(Reg::R9);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(3));
    cluster.launch_replicated(&prog, 3).expect("launch");
    let run = cluster.run();
    assert_eq!(run.mpi_error, None);
    for r in 0..3 {
        assert_eq!(run.rank_exits[r], Some(ExitStatus::Exited(55)), "rank {r}");
    }
}

/// Nonblocking exchange: both ranks post an Irecv first, then Isend, then
/// Wait — the standard deadlock-free halo pattern that *blocking* cross
/// receives (see `deadlocked_receives_hang`) cannot express.
#[test]
fn nonblocking_exchange_avoids_the_deadlock() {
    let mut a = Asm::new("isendirecv");
    a.data_i64("mine", &[0]);
    a.data_i64("theirs", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    // mine = rank + 100
    a.mov(Reg::R9, Reg::R7);
    a.addi(Reg::R9, 100);
    a.lea(Reg::R8, "mine");
    a.st(Reg::R9, Reg::R8, 0);
    // peer = 1 - rank
    a.movi(Reg::R10, 1);
    a.sub(Reg::R10, Reg::R7);
    // irecv(theirs) from peer
    a.lea(Reg::R1, "theirs");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.mov(Reg::R4, Reg::R10);
    a.movi(Reg::R5, 7);
    a.hypercall(abi::MPI_IRECV);
    a.mov(Reg::R11, Reg::R0); // request handle
                              // isend(mine) to peer
    a.lea(Reg::R1, "mine");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.mov(Reg::R4, Reg::R10);
    a.movi(Reg::R5, 7);
    a.hypercall(abi::MPI_ISEND);
    // wait(recv request)
    a.mov(Reg::R1, Reg::R11);
    a.hypercall(abi::MPI_WAIT);
    a.lea(Reg::R8, "theirs");
    a.ld(Reg::R9, Reg::R8, 0);
    a.hypercall(abi::MPI_FINALIZE);
    a.exit_with(Reg::R9);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert!(!run.hang, "nonblocking exchange must not deadlock");
    assert_eq!(run.mpi_error, None);
    assert_eq!(run.rank_exits[0], Some(ExitStatus::Exited(101)));
    assert_eq!(run.rank_exits[1], Some(ExitStatus::Exited(100)));
}

/// ANY_SOURCE/ANY_TAG receives collect messages from every sender.
#[test]
fn wildcard_receive_from_any_source() {
    let mut a = Asm::new("anysrc");
    a.data_i64("mine", &[0]);
    a.data_i64("got", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    a.cmpi(Reg::R7, 0);
    a.jcc(Cond::Eq, "master");
    // workers send rank (with tag = 40 + rank)
    a.lea(Reg::R8, "mine");
    a.st(Reg::R7, Reg::R8, 0);
    a.lea(Reg::R1, "mine");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 0);
    a.mov(Reg::R5, Reg::R7);
    a.addi(Reg::R5, 40);
    a.hypercall(abi::MPI_SEND);
    a.exit(0);
    // master: three wildcard receives, sum all payloads
    a.label("master");
    a.movi(Reg::R9, 0); // sum
    a.movi(Reg::R10, 0); // i
    a.label("recv_loop");
    a.cmpi(Reg::R10, 2);
    a.jcc(Cond::Ge, "done");
    a.lea(Reg::R1, "got");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, abi::MPI_ANY as i64); // ANY_SOURCE
    a.movi(Reg::R5, abi::MPI_ANY as i64); // ANY_TAG
    a.hypercall(abi::MPI_RECV);
    a.lea(Reg::R8, "got");
    a.ld(Reg::R11, Reg::R8, 0);
    a.add(Reg::R9, Reg::R11);
    a.addi(Reg::R10, 1);
    a.jmp("recv_loop");
    a.label("done");
    a.exit_with(Reg::R9);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(3));
    cluster.launch_replicated(&prog, 3).expect("launch");
    let run = cluster.run();
    assert!(!run.hang);
    assert_eq!(run.mpi_error, None);
    assert_eq!(run.rank_exits[0], Some(ExitStatus::Exited(3)), "1 + 2");
}

/// Waiting on a bogus request handle is caught.
#[test]
fn wait_on_invalid_request_is_an_mpi_error() {
    let mut a = Asm::new("badwait");
    a.hypercall(abi::MPI_INIT);
    a.movi(Reg::R1, 42);
    a.hypercall(abi::MPI_WAIT);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(1));
    cluster.launch_replicated(&prog, 1).expect("launch");
    let run = cluster.run();
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::InvalidOp);
}

/// A Wait stranded by a dead sender surfaces as RankDied.
#[test]
fn wait_on_dead_sender_is_rank_died() {
    let mut a = Asm::new("deadwait");
    a.data_i64("buf", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.cmpi(Reg::R0, 0);
    a.jcc(Cond::Ne, "peer");
    // rank 0: irecv from 1, then wait — but rank 1 exits without sending.
    a.lea(Reg::R1, "buf");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 1);
    a.movi(Reg::R5, 7);
    a.hypercall(abi::MPI_IRECV);
    a.mov(Reg::R1, Reg::R0);
    a.hypercall(abi::MPI_WAIT);
    a.exit(0);
    a.label("peer");
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(2));
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::RankDied);
}

/// MPI_Wtime ticks forward.
#[test]
fn wtime_is_monotonic() {
    let mut a = Asm::new("wtime");
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_WTIME);
    a.mov(Reg::R7, Reg::R0);
    a.nop();
    a.nop();
    a.hypercall(abi::MPI_WTIME);
    a.cmp(Reg::R0, Reg::R7);
    a.jcc(Cond::Gt, "ok");
    a.exit(1);
    a.label("ok");
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(1));
    cluster.launch_replicated(&prog, 1).expect("launch");
    let run = cluster.run();
    assert_eq!(run.rank_exits[0], Some(ExitStatus::Exited(0)));
}

/// The per-run instruction budget stops a runaway loop at exactly the same
/// instruction on every replay, and is classified as a budget stop, not a
/// hang.
#[test]
fn insn_budget_stops_runaway_deterministically() {
    let spin = {
        let mut a = Asm::new("spin");
        a.label("forever");
        a.jmp("forever");
        a.assemble().expect("assemble")
    };
    let mut totals = Vec::new();
    for _ in 0..2 {
        let mut cfg = small_config(1);
        cfg.run_budget = RunBudget {
            max_insns: 50_000,
            max_rounds: 0,
        };
        let mut cluster = Cluster::new(cfg);
        cluster.launch_replicated(&spin, 1).expect("launch");
        let run = cluster.run();
        assert_eq!(run.budget_exhausted, Some(BudgetKind::Insns));
        assert!(!run.hang, "budget stop must not be classified as a hang");
        assert_eq!(run.rank_exits[0], None);
        assert_eq!(run.total_insns, 50_000, "budget binds exactly");
        assert_eq!(run.live_at_stop.len(), 1);
        assert_eq!(run.live_at_stop[0].pending, PendingOp::Compute);
        totals.push(run.total_insns);
    }
    assert_eq!(totals[0], totals[1], "deterministic across replays");
}

/// The round budget stops a deadlocked job before the hang heuristic gets a
/// chance to, and the report names the live ranks and their pending ops.
#[test]
fn round_budget_fires_before_the_hang_heuristic() {
    let mut a = Asm::new("deadlock");
    a.data_i64("buf", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    a.movi(Reg::R6, 1);
    a.sub(Reg::R6, Reg::R7);
    a.lea(Reg::R1, "buf");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.mov(Reg::R4, Reg::R6);
    a.movi(Reg::R5, 7);
    a.hypercall(abi::MPI_RECV);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cfg = small_config(2);
    cfg.run_budget = RunBudget {
        max_insns: 0,
        max_rounds: 10,
    };
    let mut cluster = Cluster::new(cfg);
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert_eq!(run.budget_exhausted, Some(BudgetKind::Rounds));
    assert!(!run.hang);
    assert_eq!(run.rounds, 10);
    let pending: Vec<PendingOp> = run.live_at_stop.iter().map(|h| h.pending).collect();
    assert_eq!(pending, vec![PendingOp::Recv, PendingOp::Recv]);
}

/// A genuine hang report names the live ranks and what they wait on.
#[test]
fn hang_report_names_live_ranks_and_pending_ops() {
    let mut a = Asm::new("halfdeadlock");
    a.data_i64("buf", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.cmpi(Reg::R0, 0);
    a.jcc(Cond::Ne, "spin");
    // Rank 0 blocks in a receive rank 1 never serves, while rank 1 spins
    // in user code — live-but-stuck, so the stall is a hang, not RankDied.
    emit_recv(&mut a, "buf", 1, 1, 1, 7);
    a.exit(0);
    a.label("spin");
    a.label("forever");
    a.jmp("forever");
    let prog = a.assemble().expect("assemble");

    let mut cfg = small_config(2);
    cfg.max_total_insns = 200_000;
    let mut cluster = Cluster::new(cfg);
    cluster.launch_replicated(&prog, 2).expect("launch");
    let run = cluster.run();
    assert!(run.hang);
    assert_eq!(run.live_at_stop.len(), 2);
    assert_eq!(run.live_at_stop[0].rank, 0);
    assert_eq!(run.live_at_stop[0].pending, PendingOp::Recv);
    assert_eq!(run.live_at_stop[1].rank, 1);
    assert_eq!(run.live_at_stop[1].pending, PendingOp::Compute);
}

/// Mid-collective process death: one rank dies before joining a barrier
/// the others already entered; the job must abort with RankDied instead of
/// hanging.
#[test]
fn death_before_joining_a_collective_aborts() {
    let mut a = Asm::new("collpartial");
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.cmpi(Reg::R0, 2);
    a.jcc(Cond::Eq, "die");
    a.hypercall(abi::MPI_BARRIER);
    a.exit(0);
    a.label("die");
    // Rank 2 dereferences a wild pointer instead of joining.
    a.movi(Reg::R1, 0x5555_0000);
    a.ld(Reg::R2, Reg::R1, 0);
    a.exit(0);
    let prog = a.assemble().expect("assemble");

    let mut cluster = Cluster::new(small_config(3));
    cluster.launch_replicated(&prog, 3).expect("launch");
    let run = cluster.run();
    assert!(!run.hang, "must be detected as an error, not a hang");
    assert_eq!(run.rank_exits[2], Some(ExitStatus::Signaled(Signal::Segv)));
    assert_eq!(run.mpi_error.expect("err").kind, MpiErrorKind::RankDied);
}

/// Elements per rank in the collective taint test: 4 800 B of `i64`, so
/// every buffer straddles a guest page boundary.
const COLL_COUNT: u64 = 600;
const COLL_BYTES: usize = COLL_COUNT as usize * 8;

/// Per-byte masks and provenance of a guest buffer.
type Pattern = (Vec<u8>, Vec<ProvSet>);

/// Taint pattern `seed` over `len` bytes: tainted and clean runs across the
/// whole buffer (both sides of its page boundary), each tainted byte
/// naming fault `2·seed` or `2·seed + 1`.
fn coll_pattern(seed: u32, len: usize) -> Pattern {
    let masks: Vec<u8> = (0..len)
        .map(|i| {
            if (i * 7 + seed as usize * 13) % 11 < 4 {
                (i as u8 ^ seed as u8) | 1
            } else {
                0
            }
        })
        .collect();
    let provs = masks
        .iter()
        .enumerate()
        .map(|(i, &m)| match m {
            0 => ProvSet::EMPTY,
            _ => ProvSet::single(2 * seed + (i % 2) as u32),
        })
        .collect();
    (masks, provs)
}

/// Per-byte union of two patterns: what a reduction hands its receivers.
fn coll_union((ma, pa): &Pattern, (mb, pb): &Pattern) -> Pattern {
    (
        ma.iter().zip(mb).map(|(a, b)| a | b).collect(),
        pa.iter().zip(pb).map(|(a, b)| a.union(*b)).collect(),
    )
}

fn coll_edge_of(src: u32, dest: u32, (masks, provs): &Pattern) -> (u32, u32, usize, u32) {
    let tainted = masks.iter().filter(|&&m| m != 0).count();
    let bits = provs.iter().fold(ProvSet::EMPTY, |a, p| a.union(*p)).bits();
    (src, dest, tainted, bits)
}

/// Records every cross-rank taint edge.
#[derive(Default)]
struct EdgeLog(Vec<CrossRankEdge>);

impl MpiObserver for EdgeLog {
    fn on_send(&mut self, _env: &Envelope, _tainted_bytes: usize) {}
    fn on_delivered(&mut self, _env: &Envelope, _tainted_bytes: usize) {}
    fn on_tainted_delivery(&mut self, edge: &CrossRankEdge) {
        self.0.push(edge.clone());
    }
}

/// Taint and provenance move through every collective byte for byte, from
/// and into buffers that straddle a page boundary: bcast copies the root's
/// pattern, reduce and allreduce deliver the per-byte union of the
/// contributions, scatter hands each rank its chunk (overwriting the taint
/// its buffer had), gather lays the contributions side by side; clean
/// contributors add no edge.
#[test]
fn taint_moves_through_every_collective() {
    let mut a = Asm::new("colltaint");
    let n = COLL_COUNT as i64;
    for (name, elems) in [
        ("b", n),
        ("rs", n),
        ("rr", n),
        ("as", n),
        ("ar", n),
        ("ss", 3 * n),
        ("sr", n),
        ("gs", n),
        ("gr", 3 * n),
    ] {
        a.bss(name, elems as u64 * 8);
    }
    a.hypercall(abi::MPI_INIT);
    a.lea(Reg::R1, "b");
    a.movi(Reg::R2, n);
    a.movi(Reg::R3, 1); // I64
    a.movi(Reg::R4, 0); // root
    a.hypercall(abi::MPI_BCAST);
    a.lea(Reg::R1, "rs");
    a.lea(Reg::R2, "rr");
    a.movi(Reg::R3, n);
    a.movi(Reg::R4, 1); // I64
    a.movi(Reg::R5, 1); // Sum
    a.movi(Reg::R6, 1); // root
    a.hypercall(abi::MPI_REDUCE);
    a.lea(Reg::R1, "as");
    a.lea(Reg::R2, "ar");
    a.movi(Reg::R3, n);
    a.movi(Reg::R4, 1);
    a.movi(Reg::R5, 1);
    a.hypercall(abi::MPI_ALLREDUCE);
    for (send, recv, root, call) in [
        ("ss", "sr", 2, abi::MPI_SCATTER),
        ("gs", "gr", 0, abi::MPI_GATHER),
    ] {
        a.lea(Reg::R1, send);
        a.lea(Reg::R2, recv);
        a.movi(Reg::R3, n);
        a.movi(Reg::R4, 1);
        a.movi(Reg::R5, root);
        a.hypercall(call);
    }
    a.hypercall(abi::MPI_FINALIZE);
    a.exit(0);
    let prog = a.assemble().expect("assemble");
    let sym = |name: &str| prog.symbol(name).expect("symbol");
    for name in ["b", "rs", "rr", "as", "ar", "sr", "gs"] {
        let start = sym(name);
        assert_ne!(
            start / PAGE_SIZE,
            (start + COLL_BYTES as u64 - 1) / PAGE_SIZE,
            "{name} straddles a page"
        );
    }

    let mut cluster = Cluster::new(small_config(3));
    cluster.launch_replicated(&prog, 3).expect("launch");
    let log = Arc::new(Mutex::new(EdgeLog::default()));
    cluster.add_observer(log.clone());
    let taint = |cluster: &mut Cluster, rank: u32, name: &str, pat: &Pattern| {
        let (ni, pid) = cluster.rank_location(rank);
        let node = cluster.node_mut(ni);
        node.write_guest_taint(pid, sym(name), &pat.0)
            .expect("taint");
        node.write_guest_prov(pid, sym(name), &pat.1).expect("prov");
    };
    let bcast = coll_pattern(1, COLL_BYTES);
    taint(&mut cluster, 0, "b", &bcast);
    let (reduce0, reduce1) = (coll_pattern(2, COLL_BYTES), coll_pattern(3, COLL_BYTES));
    taint(&mut cluster, 0, "rs", &reduce0);
    taint(&mut cluster, 1, "rs", &reduce1);
    let (all1, all2) = (coll_pattern(4, COLL_BYTES), coll_pattern(5, COLL_BYTES));
    taint(&mut cluster, 1, "as", &all1);
    taint(&mut cluster, 2, "as", &all2);
    let scatter = coll_pattern(6, 3 * COLL_BYTES);
    taint(&mut cluster, 2, "ss", &scatter);
    taint(&mut cluster, 1, "sr", &coll_pattern(9, COLL_BYTES));
    let (gather0, gather2) = (coll_pattern(7, COLL_BYTES), coll_pattern(8, COLL_BYTES));
    taint(&mut cluster, 0, "gs", &gather0);
    taint(&mut cluster, 2, "gs", &gather2);

    let run = cluster.run();
    assert!(!run.hang);
    assert_eq!(run.mpi_error, None);
    assert!(run
        .rank_exits
        .iter()
        .all(|e| *e == Some(ExitStatus::Exited(0))));

    let clean = (vec![0u8; COLL_BYTES], vec![ProvSet::EMPTY; COLL_BYTES]);
    let chunk = |(m, p): &Pattern, r: usize| {
        let range = r * COLL_BYTES..(r + 1) * COLL_BYTES;
        (m[range.clone()].to_vec(), p[range].to_vec())
    };
    let reduced = coll_union(&reduce0, &reduce1);
    let all = coll_union(&all1, &all2);
    let gathered = (
        [gather0.0.clone(), clean.0.clone(), gather2.0.clone()].concat(),
        [gather0.1.clone(), clean.1.clone(), gather2.1.clone()].concat(),
    );
    let expect: Vec<(u32, &str, &Pattern)> = vec![
        (1, "b", &bcast),
        (2, "b", &bcast),
        (1, "rr", &reduced),
        (0, "ar", &all),
        (1, "ar", &all),
        (2, "ar", &all),
        (0, "gr", &gathered),
    ];
    let scattered: Vec<_> = (0..3).map(|r| chunk(&scatter, r)).collect();
    let read = |rank: u32, name: &str, len: usize| {
        let (ni, pid) = cluster.rank_location(rank);
        let node = cluster.node(ni);
        (
            node.read_guest_taint(pid, sym(name), len as u64)
                .expect("masks"),
            node.read_guest_prov(pid, sym(name), len as u64)
                .expect("provs"),
        )
    };
    for (rank, name, want) in expect {
        assert!(
            read(rank, name, want.0.len()) == *want,
            "rank {rank} {name}"
        );
    }
    for (r, want) in scattered.iter().enumerate() {
        assert!(read(r as u32, "sr", COLL_BYTES) == *want, "rank {r} sr");
    }

    assert_eq!(run.cross_rank_tainted_deliveries, 2 + 1 + 3 + 2 + 1);
    let mut edges: Vec<_> = log
        .lock()
        .0
        .iter()
        .map(|e| (e.src, e.dest, e.tainted_bytes, e.prov_bits))
        .collect();
    let mut want = vec![
        coll_edge_of(0, 1, &bcast),
        coll_edge_of(0, 2, &bcast),
        coll_edge_of(0, 1, &reduce0),
        coll_edge_of(1, 0, &all1),
        coll_edge_of(1, 2, &all1),
        coll_edge_of(2, 0, &all2),
        coll_edge_of(2, 1, &all2),
        coll_edge_of(2, 0, &scattered[0]),
        coll_edge_of(2, 1, &scattered[1]),
        coll_edge_of(2, 0, &gather2),
    ];
    edges.sort_unstable();
    want.sort_unstable();
    assert_eq!(edges, want);
}
