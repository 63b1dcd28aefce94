//! Property tests for the cluster snapshot/fork subsystem: freezing a
//! cluster at any round boundary and resuming from the copy-on-write
//! checkpoint must be observably equivalent to never having stopped —
//! identical state digest, identical run outcome — across random snapshot
//! points, workloads, rank counts and scheduling quanta.

use chaser_isa::{abi, Asm, Cond, Program, Reg};
use chaser_mpi::{Cluster, ClusterConfig, ClusterRun};
use proptest::prelude::*;

fn config(nodes: usize, quantum: u64) -> ClusterConfig {
    ClusterConfig {
        nodes,
        quantum,
        phys_bytes: 8 << 20,
        hang_rounds: 32,
        ..ClusterConfig::default()
    }
}

/// Collective workload: `iters` rounds of bcast (root increments a counter
/// first) followed by an allreduce-sum of `rank * x`; every rank exits
/// with its accumulated sum. Valid for any rank count.
fn collective_program(iters: i64) -> Program {
    let mut a = Asm::new("collloop");
    a.data_i64("x", &[0]);
    a.data_i64("mine", &[0]);
    a.data_i64("sum", &[0]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    a.movi(Reg::R12, iters);
    a.movi(Reg::R13, 0); // acc
    a.label("top");
    // root: x += 1
    a.cmpi(Reg::R7, 0);
    a.jcc(Cond::Ne, "bcast");
    a.lea(Reg::R8, "x");
    a.ld(Reg::R9, Reg::R8, 0);
    a.addi(Reg::R9, 1);
    a.st(Reg::R9, Reg::R8, 0);
    a.label("bcast");
    a.lea(Reg::R1, "x");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1); // I64
    a.movi(Reg::R4, 0); // root
    a.hypercall(abi::MPI_BCAST);
    // mine = x * rank
    a.lea(Reg::R8, "x");
    a.ld(Reg::R9, Reg::R8, 0);
    a.mul(Reg::R9, Reg::R7);
    a.lea(Reg::R8, "mine");
    a.st(Reg::R9, Reg::R8, 0);
    a.lea(Reg::R1, "mine");
    a.lea(Reg::R2, "sum");
    a.movi(Reg::R3, 1); // count
    a.movi(Reg::R4, 1); // I64
    a.movi(Reg::R5, 1); // Sum
    a.hypercall(abi::MPI_ALLREDUCE);
    a.lea(Reg::R8, "sum");
    a.ld(Reg::R9, Reg::R8, 0);
    a.add(Reg::R13, Reg::R9);
    a.subi(Reg::R12, 1);
    a.cmpi(Reg::R12, 0);
    a.jcc(Cond::Ne, "top");
    a.hypercall(abi::MPI_FINALIZE);
    a.exit_with(Reg::R13);
    a.assemble().expect("assemble")
}

/// Point-to-point workload: rank 0 ping-pongs an incrementing value with
/// rank 1 `iters` times (the other ranks just exit) — keeps envelopes in
/// flight across many round boundaries.
fn pingpong_program(iters: i64) -> Program {
    let mut a = Asm::new("pploop");
    a.data_i64("buf", &[5]);
    a.hypercall(abi::MPI_INIT);
    a.hypercall(abi::MPI_COMM_RANK);
    a.mov(Reg::R7, Reg::R0);
    a.movi(Reg::R12, iters);
    a.cmpi(Reg::R7, 0);
    a.jcc(Cond::Eq, "master");
    a.cmpi(Reg::R7, 1);
    a.jcc(Cond::Eq, "slave");
    a.hypercall(abi::MPI_FINALIZE);
    a.exit(0);

    a.label("master");
    a.lea(Reg::R1, "buf");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1); // I64
    a.movi(Reg::R4, 1); // dest
    a.movi(Reg::R5, 7); // tag
    a.hypercall(abi::MPI_SEND);
    a.lea(Reg::R1, "buf");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 1); // source
    a.movi(Reg::R5, 8);
    a.hypercall(abi::MPI_RECV);
    a.subi(Reg::R12, 1);
    a.cmpi(Reg::R12, 0);
    a.jcc(Cond::Ne, "master");
    a.lea(Reg::R8, "buf");
    a.ld(Reg::R9, Reg::R8, 0);
    a.hypercall(abi::MPI_FINALIZE);
    a.exit_with(Reg::R9);

    a.label("slave");
    a.lea(Reg::R1, "buf");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 0);
    a.movi(Reg::R5, 7);
    a.hypercall(abi::MPI_RECV);
    a.lea(Reg::R8, "buf");
    a.ld(Reg::R9, Reg::R8, 0);
    a.addi(Reg::R9, 1);
    a.st(Reg::R9, Reg::R8, 0);
    a.lea(Reg::R1, "buf");
    a.movi(Reg::R2, 1);
    a.movi(Reg::R3, 1);
    a.movi(Reg::R4, 0);
    a.movi(Reg::R5, 8);
    a.hypercall(abi::MPI_SEND);
    a.subi(Reg::R12, 1);
    a.cmpi(Reg::R12, 0);
    a.jcc(Cond::Ne, "slave");
    a.hypercall(abi::MPI_FINALIZE);
    a.exit(0);
    a.assemble().expect("assemble")
}

fn launch(prog: &Program, ranks: u32, nodes: usize, quantum: u64) -> Cluster {
    let mut cluster = Cluster::new(config(nodes, quantum));
    cluster
        .launch_replicated(prog, ranks as usize)
        .expect("launch");
    cluster
}

/// Runs the equivalence check: an uninterrupted reference execution vs an
/// execution snapshotted after `snap_round` rounds, restored into a fresh
/// cluster, and resumed. Also resumes the *snapshotted original*, proving
/// capture itself does not perturb execution.
fn check_equivalence(
    prog: &Program,
    ranks: u32,
    nodes: usize,
    quantum: u64,
    snap_round: u64,
) -> Result<(), TestCaseError> {
    let mut reference = launch(prog, ranks, nodes, quantum);
    let ref_run = reference.run();
    let ref_digest = reference.state_digest();
    prop_assert!(!ref_run.hang, "workload must terminate");

    let mut original = launch(prog, ranks, nodes, quantum);
    let mut stepped = 0;
    while stepped < snap_round && !original.finished() {
        original.step_round();
        stepped += 1;
    }
    let captured = original.state_digest();
    let snap = original.snapshot();
    prop_assert_eq!(
        original.state_digest(),
        captured,
        "capturing must not change the captured state"
    );

    // The snapshotted original resumes unperturbed (CoW leaves it intact).
    let orig_run = original.run();
    prop_assert_eq!(original.state_digest(), ref_digest);
    prop_assert_eq!(dump(&orig_run), dump(&ref_run));

    // A restored clone resumes to the same final state and outcome.
    let mut restored = Cluster::from_snapshot(config(nodes, quantum), &snap);
    prop_assert_eq!(
        restored.state_digest(),
        captured,
        "restore must reproduce the captured state exactly"
    );
    restored.replay_vmi_creations(); // no hooks wired: must be a no-op
    let res_run = restored.run();
    prop_assert_eq!(restored.state_digest(), ref_digest);
    prop_assert_eq!(dump(&res_run), dump(&ref_run));
    Ok(())
}

fn dump(run: &ClusterRun) -> String {
    format!("{run:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn collective_workload_survives_snapshot_anywhere(
        snap_round in 0u64..60,
        ranks in 2u32..5,
        nodes in 1usize..4,
        iters in 1i64..5,
        quantum in proptest::sample::select(vec![50u64, 200, 1000]),
    ) {
        let prog = collective_program(iters);
        check_equivalence(&prog, ranks, nodes, quantum, snap_round)?;
    }

    #[test]
    fn pingpong_workload_survives_snapshot_anywhere(
        snap_round in 0u64..60,
        ranks in 2u32..4,
        iters in 1i64..6,
        quantum in proptest::sample::select(vec![50u64, 300]),
    ) {
        let prog = pingpong_program(iters);
        check_equivalence(&prog, ranks, 2, quantum, snap_round)?;
    }
}
