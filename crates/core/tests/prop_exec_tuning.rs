//! Property tests for the hot-path execution knobs: `tb_chaining` and
//! `taint_fast_path` are pure performance ablations. Every observable
//! artifact — rank outputs, outcome CSVs, provenance digests and exports,
//! and the final cluster state digest — must be byte-identical with the
//! knobs on and off, whether the campaign runs cold, warm-started, or
//! resumed from a truncated journal.

use chaser::{
    run_app, AppSpec, Campaign, CampaignConfig, Corruption, InjectionSpec, OperandSel, RankPool,
    RunOptions, Trigger,
};
use chaser_isa::{InsnClass, Program};
use chaser_mpi::{Cluster, ClusterConfig};
use chaser_vm::ExecTuning;
use chaser_workloads::matvec;
use proptest::prelude::*;

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

fn class_strategy() -> impl Strategy<Value = InsnClass> {
    prop_oneof![Just(InsnClass::Fadd), Just(InsnClass::Fmul)]
}

fn flip_strategy() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), (0u32..52).prop_map(Some).boxed()]
}

/// Any partially-ablated tuning: everything but the fully-optimized
/// default, so each case proves one knob subset inert against it.
fn tuning_strategy() -> impl Strategy<Value = ExecTuning> {
    prop_oneof![
        Just(ExecTuning {
            tb_chaining: false,
            taint_fast_path: false,
        }),
        Just(ExecTuning {
            tb_chaining: true,
            taint_fast_path: false,
        }),
        Just(ExecTuning {
            tb_chaining: false,
            taint_fast_path: true,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// An injected, traced run is byte-identical under the optimized and
    /// any ablated tuning: same rank outputs/exits, same provenance
    /// exports and digest.
    #[test]
    fn knobs_are_inert_on_injected_runs(
        rank in 1u32..4,
        class in class_strategy(),
        n in 1u64..4,
        flip in flip_strategy(),
        ablated in tuning_strategy(),
        quantum in prop_oneof![Just(200u64), Just(1000)],
    ) {
        let s = spec(rank, class, n, flip);
        let run = |tuning: ExecTuning| {
            let opts = RunOptions {
                exec_tuning: tuning,
                ..RunOptions::inject_traced(s.clone())
            };
            run_app(&app(quantum), &opts)
        };
        let on = run(ExecTuning::default());
        let off = run(ablated);
        prop_assert_eq!(&on.outputs, &off.outputs);
        prop_assert_eq!(&on.stdouts, &off.stdouts);
        prop_assert_eq!(&on.cluster.rank_exits, &off.cluster.rank_exits);
        prop_assert_eq!(on.cluster.total_insns, off.cluster.total_insns);
        let (ga, gb) = (on.provenance.unwrap(), off.provenance.unwrap());
        prop_assert_eq!(ga.to_json(), gb.to_json());
        prop_assert_eq!(ga.to_dot(), gb.to_dot());
        prop_assert_eq!(ga.digest(), gb.digest());
    }

    /// A fault-free cluster reaches the same final state digest under the
    /// optimized and any ablated tuning, at any quantum.
    #[test]
    fn knobs_are_inert_on_cluster_state(
        ablated in tuning_strategy(),
        quantum in prop_oneof![Just(100u64), Just(500), Just(2000)],
    ) {
        let digest = |tuning: ExecTuning| {
            let mv = matvec::MatvecConfig::default();
            let program = matvec::program(&mv);
            let mut cluster = Cluster::new(ClusterConfig {
                nodes: 2,
                quantum,
                exec_tuning: tuning,
                ..ClusterConfig::default()
            });
            let programs: Vec<&Program> = (0..mv.ranks).map(|_| &program).collect();
            cluster.launch(&programs).expect("launch");
            let run = cluster.run();
            prop_assert!(!run.hang, "fault-free matvec must not hang");
            Ok(cluster.state_digest())
        };
        prop_assert_eq!(digest(ExecTuning::default())?, digest(ablated)?);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Campaign-level inertness, across every execution mode: a cold
    /// knobs-off campaign, an ablated cold campaign, an ablated
    /// warm-started campaign and an ablated journal-resumed campaign (cut
    /// off after a random number of rows) all produce the same outcome CSV
    /// and per-run provenance digests.
    #[test]
    fn knobs_are_inert_on_campaigns(
        seed in any::<u64>(),
        keep_rows in 0usize..6,
        ablated in tuning_strategy(),
        warm_start in any::<bool>(),
    ) {
        let config = |tuning: ExecTuning, warm: bool| CampaignConfig {
            runs: 6,
            seed,
            parallelism: 2,
            classes: vec![InsnClass::FpArith],
            rank_pool: RankPool::Random,
            provenance: true,
            warm_start: warm,
            tb_chaining: tuning.tb_chaining,
            taint_fast_path: tuning.taint_fast_path,
            ..CampaignConfig::default()
        };
        let baseline = Campaign::new(app(200), config(ExecTuning::default(), false)).run();

        // Ablated, cold.
        let cold = Campaign::new(app(200), config(ablated, false)).run();
        prop_assert_eq!(baseline.to_csv(), cold.to_csv());

        // Ablated, warm-started.
        let warm = Campaign::new(app(200), config(ablated, warm_start)).run();
        prop_assert_eq!(baseline.to_csv(), warm.to_csv());

        // Ablated, journaled, truncated after `keep_rows` rows, resumed.
        let dir = std::env::temp_dir().join(format!(
            "chaser-tuning-prop-{}-{seed:x}-{keep_rows}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("campaign.jsonl");
        Campaign::new(app(200), config(ablated, warm_start))
            .run_journaled(&path)
            .expect("journaled run");
        let full = std::fs::read_to_string(&path).expect("read journal");
        let keep: Vec<&str> = full.lines().take(1 + keep_rows).collect();
        std::fs::write(&path, format!("{}\n", keep.join("\n"))).expect("truncate journal");
        let resumed = Campaign::new(app(200), config(ablated, warm_start))
            .resume(&path)
            .expect("resume");
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(baseline.to_csv(), resumed.to_csv());

        let a: Vec<u64> = baseline.outcomes.iter().map(|r| r.prov_digest).collect();
        let b: Vec<u64> = resumed.outcomes.iter().map(|r| r.prov_digest).collect();
        prop_assert_eq!(a, b);
    }
}
