//! Property tests for intra-run rank parallelism: `rank_threads` is a
//! pure wall-clock knob. Compute phases fan whole nodes out over worker
//! threads, but every cross-rank effect commits at the serial round
//! barrier in canonical rank order — so rank outputs, outcome CSVs,
//! provenance digests and exports, injection records and the final
//! cluster state digest must be byte-identical for every thread count,
//! whether a campaign runs cold, warm-started, or resumed from a
//! truncated journal.

use chaser::{
    run_app, AppSpec, Campaign, CampaignConfig, Corruption, InjectionSpec, OperandSel, RankPool,
    RunOptions, Trigger,
};
use chaser_isa::{InsnClass, Program};
use chaser_mpi::{BudgetKind, Cluster, ClusterConfig, RunBudget};
use chaser_workloads::matvec;
use proptest::prelude::*;
use resume::{journaled, resume_cut};
use temp_dir::TempDir;

#[path = "support/resume.rs"]
mod resume;
#[path = "support/temp_dir.rs"]
mod temp_dir;

/// One matvec rank per node, so `rank_threads > 1` genuinely runs
/// compute slices concurrently (ranks sharing a node stay sequential).
fn app(quantum: u64) -> AppSpec {
    let mv = matvec::MatvecConfig::default();
    let mut app = AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 4);
    app.cluster.quantum = quantum;
    app
}

fn spec(rank: u32, class: InsnClass, n: u64, flip: Option<u32>) -> InjectionSpec {
    InjectionSpec {
        target_program: "matvec".into(),
        target_rank: rank,
        class,
        trigger: Trigger::AfterN(n),
        corruption: match flip {
            Some(bit) => Corruption::FlipBits(vec![bit]),
            None => Corruption::Identity,
        },
        operand: OperandSel::Dst,
        max_injections: 1,
        seed: 0,
    }
}

fn threads_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(2usize), Just(3), Just(4)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// An injected, traced run is byte-identical at every thread count:
    /// same rank outputs/exits, same injection records, same provenance
    /// exports and digest.
    #[test]
    fn rank_parallelism_is_inert_on_injected_runs(
        rank in 1u32..4,
        class in prop_oneof![Just(InsnClass::Fadd), Just(InsnClass::Fmul)],
        n in 1u64..4,
        flip in prop_oneof![Just(None), (0u32..52).prop_map(Some).boxed()],
        threads in threads_strategy(),
        quantum in prop_oneof![Just(200u64), Just(1000)],
    ) {
        let s = spec(rank, class, n, flip);
        let run = |rank_threads: usize| {
            let opts = RunOptions {
                rank_threads,
                ..RunOptions::inject_traced(s.clone())
            };
            run_app(&app(quantum), &opts)
        };
        let serial = run(1);
        let parallel = run(threads);
        prop_assert_eq!(&serial.outputs, &parallel.outputs);
        prop_assert_eq!(&serial.stdouts, &parallel.stdouts);
        prop_assert_eq!(&serial.cluster.rank_exits, &parallel.cluster.rank_exits);
        prop_assert_eq!(serial.cluster.total_insns, parallel.cluster.total_insns);
        prop_assert_eq!(&serial.injections, &parallel.injections);
        let (ga, gb) = (serial.provenance.unwrap(), parallel.provenance.unwrap());
        prop_assert_eq!(ga.to_json(), gb.to_json());
        prop_assert_eq!(ga.to_dot(), gb.to_dot());
        prop_assert_eq!(ga.digest(), gb.digest());
        // The knob was honoured, not silently clamped to serial.
        prop_assert_eq!(parallel.parallel.threads, threads as u64);
    }

    /// A fault-free cluster reaches the same final state digest at every
    /// thread count, at any quantum.
    #[test]
    fn rank_parallelism_is_inert_on_cluster_state(
        threads in threads_strategy(),
        quantum in prop_oneof![Just(100u64), Just(500), Just(2000)],
    ) {
        let digest = |rank_threads: usize| {
            let mv = matvec::MatvecConfig::default();
            let program = matvec::program(&mv);
            let mut cluster = Cluster::new(ClusterConfig {
                nodes: 4,
                quantum,
                rank_threads,
                ..ClusterConfig::default()
            });
            let programs: Vec<&Program> = (0..mv.ranks).map(|_| &program).collect();
            cluster.launch(&programs).expect("launch");
            let run = cluster.run();
            prop_assert!(!run.hang, "fault-free matvec must not hang");
            Ok(cluster.state_digest())
        };
        prop_assert_eq!(digest(1)?, digest(threads)?);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Campaign-level inertness, across every execution mode: the serial
    /// baseline, a parallel cold campaign, a parallel warm-started
    /// campaign and a parallel journal-resumed campaign (cut off after a
    /// random number of rows, finished under the same `rank_threads` —
    /// the knob is part of the config fingerprint) all produce the same
    /// outcome CSV and per-run provenance digests.
    #[test]
    fn rank_parallelism_is_inert_on_campaigns(
        seed in any::<u64>(),
        keep_rows in 0usize..6,
        threads in threads_strategy(),
        warm_start in any::<bool>(),
    ) {
        let config = |rank_threads: usize, warm: bool| CampaignConfig {
            runs: 6,
            seed,
            parallelism: 2,
            classes: vec![InsnClass::FpArith],
            rank_pool: RankPool::Random,
            provenance: true,
            warm_start: warm,
            rank_threads,
            ..CampaignConfig::default()
        };
        let baseline = Campaign::new(app(200), config(1, false)).run();

        // Parallel, cold.
        let cold = Campaign::new(app(200), config(threads, false)).run();
        prop_assert_eq!(baseline.to_csv(), cold.to_csv());

        // Parallel, warm-started.
        let warm = Campaign::new(app(200), config(threads, warm_start)).run();
        prop_assert_eq!(baseline.to_csv(), warm.to_csv());

        // Parallel, journaled, truncated after `keep_rows` rows, resumed.
        let dir = TempDir::new(&format!("rank-par-prop-{seed:x}-{keep_rows}-{threads}"));
        let campaign = Campaign::new(app(200), config(threads, warm_start));
        journaled(&campaign, &dir).expect("journaled run");
        let resumed = resume_cut(&campaign, &dir, keep_rows, 0).expect("resume");
        prop_assert_eq!(baseline.to_csv(), resumed.to_csv());

        let a: Vec<u64> = baseline.outcomes.iter().map(|r| r.prov_digest).collect();
        let b: Vec<u64> = resumed.outcomes.iter().map(|r| r.prov_digest).collect();
        prop_assert_eq!(a, b);
    }
}

/// An injection whose trigger fires *mid-round* — deep inside a compute
/// slice, while other ranks are advancing on sibling worker threads —
/// lands on the identical instruction with the identical corruption at
/// every thread count. The default 10k-instruction quantum guarantees the
/// third fp instruction of a worker rank is nowhere near a round
/// boundary.
#[test]
fn mid_round_injection_is_identical_across_thread_counts() {
    let s = spec(2, InsnClass::Fmul, 3, Some(17));
    let run = |rank_threads: usize| {
        let opts = RunOptions {
            rank_threads,
            ..RunOptions::inject_traced(s.clone())
        };
        run_app(&app(10_000), &opts)
    };
    let serial = run(1);
    let parallel = run(4);

    assert_eq!(serial.injections.len(), 1, "the fault must fire");
    assert_eq!(
        serial.injections, parallel.injections,
        "mid-round injection must land on the same (pc, icount, bits)"
    );
    assert_eq!(serial.outputs, parallel.outputs);
    assert_eq!(serial.cluster.total_insns, parallel.cluster.total_insns);
    let (ga, gb) = (
        serial.provenance.expect("provenance"),
        parallel.provenance.expect("provenance"),
    );
    assert_eq!(ga.digest(), gb.digest());

    // The parallel run genuinely fanned out: multiple workers retired
    // instructions in the same round at least once.
    assert_eq!(parallel.parallel.threads, 4);
    assert!(
        parallel.parallel.parallel_rounds > 0,
        "no round ran on more than one worker"
    );
    assert_eq!(serial.parallel.threads, 1);
    assert_eq!(serial.parallel.parallel_rounds, 0);
}

/// A run stopped by the instruction budget — every rank cut off mid-compute,
/// the overshoot bounded by the allowance sampled at the round start — ends
/// in the identical cluster state, outcome CSV and work counters at every
/// thread count, including one (3) that does not divide the node count.
#[test]
fn budget_exhausted_runs_are_identical_across_thread_counts() {
    let golden = run_app(&app(200), &RunOptions::golden());
    let budget = RunBudget {
        max_insns: golden.cluster.total_insns / 2,
        max_rounds: 0,
    };

    let stopped = |rank_threads: usize| {
        let mv = matvec::MatvecConfig::default();
        let program = matvec::program(&mv);
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 4,
            quantum: 200,
            rank_threads,
            run_budget: budget,
            ..ClusterConfig::default()
        });
        cluster
            .launch_replicated(&program, mv.ranks as usize)
            .expect("launch");
        let run = cluster.run();
        assert_eq!(run.budget_exhausted, Some(BudgetKind::Insns));
        (run, cluster.state_digest(), cluster.parallel_stats())
    };
    let (serial_run, serial_digest, serial_stats) = stopped(1);
    for threads in [2, 3, 4] {
        let (run, digest, stats) = stopped(threads);
        assert_eq!(serial_run, run, "rank_threads={threads}");
        assert_eq!(serial_digest, digest, "rank_threads={threads}");
        // The thread count shows in the stats as configured; the work does
        // not depend on it, and a replay reproduces every counter.
        assert_eq!(stats.threads, threads as u64);
        assert_eq!(stats.rounds, serial_stats.rounds);
        assert_eq!(stats.total_worker_insns, serial_stats.total_worker_insns);
        assert_eq!(stats, stopped(threads).2, "rank_threads={threads} replay");
    }

    let campaign = |rank_threads: usize| {
        Campaign::new(
            app(200),
            CampaignConfig {
                runs: 6,
                seed: 0xB0D6E7,
                parallelism: 2,
                classes: vec![InsnClass::FpArith],
                rank_pool: RankPool::Random,
                run_budget: budget,
                rank_threads,
                ..CampaignConfig::default()
            },
        )
        .run()
    };
    let serial = campaign(1);
    let parallel = campaign(3);
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert!(serial.to_csv().contains("budget"), "{}", serial.to_csv());
    for (a, b) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(a.parallel.rounds, b.parallel.rounds);
        assert_eq!(a.parallel.total_worker_insns, b.parallel.total_worker_insns);
        assert_eq!(b.parallel.threads, 3);
    }
}
