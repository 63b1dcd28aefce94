//! Property tests for the propagation provenance subsystem: the graph a
//! run records is a pure function of the injection spec and seed —
//! replaying the run, restoring it from a warm-start checkpoint, or
//! resuming a journaled campaign after an interruption must all reproduce
//! the canonical DOT/JSON exports (and hence the digest) byte for byte.

use chaser::{
    prepare_app, run_app, run_warm, warm_start_for, AppSpec, Campaign, CampaignConfig, Corruption,
    InjectionSpec, OperandSel, RankPool, RunOptions, Trigger, WarmStartOptions,
};
use chaser_isa::InsnClass;
use chaser_mpi::RunBudget;
use chaser_workloads::matvec;
use proptest::prelude::*;
use resume::{journaled, resume_cut};
use temp_dir::TempDir;

#[path = "../../../tests/support/resume.rs"]
mod resume;
#[path = "../../../tests/support/temp_dir.rs"]
mod temp_dir;

fn app(quantum: u64) -> AppSpec {
    let mv = matvec::MatvecConfig::default();
    let mut app = AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 4);
    app.cluster.quantum = quantum;
    app
}

/// A deterministic worker fault drawn from the property inputs. Identity
/// corruption keeps control flow on the golden path (the taint still
/// propagates), so every case terminates quickly; bit-flip corruption is
/// exercised too since divergent paths must replay just as exactly.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same spec, same app ⇒ byte-identical exports on independent runs.
    #[test]
    fn replay_reproduces_exports(
        rank in 1u32..4,
        class in class_strategy(),
        n in 1u64..4,
        flip in flip_strategy(),
        quantum in prop_oneof![Just(200u64), Just(500), Just(1000)],
    ) {
        let s = spec(rank, class, n, flip);
        let a = run_app(&app(quantum), &RunOptions::inject_traced(s.clone()));
        let b = run_app(&app(quantum), &RunOptions::inject_traced(s));
        let (ga, gb) = (a.provenance.unwrap(), b.provenance.unwrap());
        prop_assert_eq!(ga.to_json(), gb.to_json());
        prop_assert_eq!(ga.to_dot(), gb.to_dot());
        prop_assert_eq!(ga.digest(), gb.digest());
    }

    /// A run restored from the warm-start checkpoint records the same
    /// graph as the cold run of the same spec — round attribution
    /// included, since the restored cluster resumes its round counter.
    #[test]
    fn warm_restore_preserves_exports(
        rank in 1u32..4,
        class in class_strategy(),
        n in 1u64..4,
        flip in flip_strategy(),
    ) {
        let s = spec(rank, class, n, flip);
        let application = app(200);
        let cold = run_app(&application, &RunOptions::inject_traced(s.clone()));

        let mut prepared = prepare_app(&application, std::slice::from_ref(&class));
        prepared.warm = warm_start_for(&prepared, &WarmStartOptions {
            classes: vec![class],
            ranks: vec![rank],
            tracing: true,
            provenance: true,
            budget: RunBudget::unlimited(),
        });
        prop_assume!(prepared.warm.is_some());
        let warm = run_warm(&prepared, &RunOptions::inject_traced(s), false);

        let (gc, gw) = (cold.provenance.unwrap(), warm.provenance.unwrap());
        prop_assert_eq!(gc.to_json(), gw.to_json());
        prop_assert_eq!(gc.to_dot(), gw.to_dot());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A journaled provenance campaign cut off after a random number of
    /// rows resumes to the same per-run digests (and full CSV) as the
    /// uninterrupted campaign: journaled rows replay, the rest re-execute.
    #[test]
    fn journal_resume_preserves_digests(
        seed in any::<u64>(),
        keep_rows in 0usize..8,
        warm_start in any::<bool>(),
    ) {
        let config = CampaignConfig {
            runs: 8,
            seed,
            parallelism: 2,
            classes: vec![InsnClass::FpArith],
            rank_pool: RankPool::Random,
            provenance: true,
            warm_start,
            ..CampaignConfig::default()
        };
        let straight = Campaign::new(app(200), config.clone()).run();

        let dir = TempDir::new(&format!("prov-prop-{seed:x}-{keep_rows}"));
        let campaign = Campaign::new(app(200), config);
        journaled(&campaign, &dir).expect("journaled run");
        let resumed = resume_cut(&campaign, &dir, keep_rows, 0).expect("resume");

        prop_assert_eq!(straight.to_csv(), resumed.to_csv());
        let a: Vec<u64> = straight.outcomes.iter().map(|r| r.prov_digest).collect();
        let b: Vec<u64> = resumed.outcomes.iter().map(|r| r.prov_digest).collect();
        prop_assert_eq!(a, b);
    }
}
