//! The compute-phase helpers of a `rank_threads > 1` cluster are joined
//! when the cluster drops. Alone in its test binary on purpose: the OS
//! thread count of the process is only meaningful while no other test is
//! spawning threads.
//!
//! A joined thread can still be counted in `/proc/self/status` for a
//! moment: `join` returns once the thread has run its last instruction,
//! before the kernel has finished tearing the task down. Every read waits
//! (boundedly) for the count to come down to the value it is compared
//! with; a leaked helper never does, and the comparison still fails.

use chaser_isa::{abi, Asm, Program};
use chaser_mpi::{Cluster, ClusterConfig};
use std::time::{Duration, Instant};

fn barrier_program() -> Program {
    let mut a = Asm::new("barriers");
    a.hypercall(abi::MPI_INIT);
    for _ in 0..4 {
        a.hypercall(abi::MPI_BARRIER);
    }
    a.hypercall(abi::MPI_FINALIZE);
    a.exit(0);
    a.assemble().expect("assemble")
}

/// The `Threads:` line of `/proc/self/status`.
fn os_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line["Threads:".len()..].trim().parse().ok()
}

/// The thread count once it has come down to `want` or below, or the last
/// count read when five seconds pass without that happening. Nothing
/// spawns threads while this polls, so the count can only fall.
fn os_threads_settled(want: u64) -> Option<u64> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = os_threads();
        if now.is_none_or(|n| n <= want) || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn helpers_are_joined_when_the_cluster_drops() {
    let Some(before) = os_threads() else {
        eprintln!("no /proc/self/status on this platform; skipped");
        return;
    };
    let program = barrier_program();
    let mut fanned_out = 0;
    for _ in 0..200 {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 4,
            phys_bytes: 8 << 20,
            rank_threads: 2,
            ..ClusterConfig::default()
        });
        cluster.launch_replicated(&program, 4).expect("launch");
        let run = cluster.run();
        assert!(run.all_success(), "{run:?}");
        // The previous cluster's helper may still be being torn down.
        let live = os_threads_settled(before + 1);
        if live > Some(before) {
            fanned_out += 1;
            assert_eq!(live, Some(before + 1), "one helper per cluster");
        }
    }
    assert_eq!(
        os_threads_settled(before),
        Some(before),
        "every helper was joined"
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    assert_eq!(fanned_out, if cores > 1 { 200 } else { 0 }, "{cores} cores");
}
