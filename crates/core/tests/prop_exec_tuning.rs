//! Property tests for the hot-path execution paths: `ExecTuning`'s
//! `tb_chaining` and `taint_fast_path` select pure performance paths, and
//! the knobs-off paths are the reference the defaults are checked against.
//! Every observable artifact — rank outputs, provenance digests and
//! exports, the final cluster state digest, and every contract field of a
//! campaign run restored from its ladder rung — must be byte-identical
//! with the knobs on and off.

use chaser::{
    run_app, run_warm, AppSpec, Campaign, CampaignConfig, Corruption, InjectionSpec, OperandSel,
    RankPool, RunOptions, TraceRegime, Trigger,
};
use chaser_isa::{InsnClass, Program};
use chaser_mpi::{Cluster, ClusterConfig};
use chaser_vm::ExecTuning;
use chaser_workloads::{lud, matvec};
use proptest::prelude::*;

#[path = "../../../tests/support/contract.rs"]
mod support;
use support::contract_diff;

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

    /// Ladder-level inertness, on the path every campaign run takes: each
    /// fault a campaign draws, restored from its rung (`from_snapshot`
    /// re-applies the tuning), reports the same under the default and any
    /// ablated tuning in every field of the equivalence contract. No
    /// campaign surface sets the tuning, so there is no journal leg.
    #[test]
    fn knobs_are_inert_on_campaigns(
        seed in any::<u64>(),
        ablated in tuning_strategy(),
    ) {
        let campaign = Campaign::new(app(200), CampaignConfig {
            runs: 6,
            seed,
            classes: vec![InsnClass::FpArith],
            rank_pool: RankPool::Random,
            provenance: true,
            ..CampaignConfig::default()
        });
        let prepared = campaign.prepare();
        for idx in 0..6 {
            let Some((spec, _)) = campaign.fault_for(&prepared, idx) else { continue };
            let opts = campaign.run_options(spec);
            let on = run_warm(&prepared, &opts, true);
            let off = run_warm(&prepared, &RunOptions { exec_tuning: ablated, ..opts }, true);
            prop_assert_eq!(contract_diff(&off, &on), None, "run {}", idx);
            prop_assert_eq!(off.snapshot, on.snapshot, "run {}: same rung, same dirty set", idx);
            // The ablated run really took the reference paths.
            prop_assert!(ablated.tb_chaining || off.engine_stats.tb_chain_hits == 0);
            prop_assert!(ablated.taint_fast_path || off.engine_stats.fast_path_insns == 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The clean-register regime on the traffic it serves: lud is
    /// SDC-heavy, and a memory-operand fault puts taint in memory while
    /// every register stays clean, so most blocks after the fault start in
    /// that regime and leave it at the first tainted load. Each fault
    /// matches, in every contract field (trace events and provenance
    /// exports included), the run that executes every op's shadow path.
    #[test]
    fn clean_register_regime_matches_the_per_op_reference_on_lud(
        seed in any::<u64>(),
        operand in prop_oneof![Just(OperandSel::Memory), Just(OperandSel::Dst)],
        regime in prop_oneof![Just(TraceRegime::TaintOnly), Just(TraceRegime::Full)],
        tb_chaining in any::<bool>(),
    ) {
        let campaign = Campaign::new(AppSpec::single(lud::program(&lud::LudConfig::default())), CampaignConfig {
            runs: 6,
            seed,
            classes: vec![InsnClass::FMov, InsnClass::Mov, InsnClass::FpArith],
            operand,
            tracing: true,
            provenance: true,
            trace_regime: regime,
            ..CampaignConfig::default()
        });
        let prepared = campaign.prepare();
        let reference = ExecTuning { tb_chaining, taint_fast_path: false };
        for idx in 0..6 {
            let Some((spec, _)) = campaign.fault_for(&prepared, idx) else { continue };
            let opts = campaign.run_options(spec);
            let fast = run_warm(&prepared, &opts, true);
            let per_op = run_warm(&prepared, &RunOptions { exec_tuning: reference, ..opts }, true);
            prop_assert_eq!(contract_diff(&fast, &per_op), None, "run {}", idx);
            prop_assert_eq!(per_op.engine_stats.fast_path_insns, 0);
        }
    }
}
