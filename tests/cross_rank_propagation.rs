//! Cross-rank propagation tests: a fault injected on the master of matvec
//! must reach the slaves' memory through the TaintHub, and the hub's
//! miss-path must stay cheap when no fault is in flight.

use chaser::{
    run_app, AppSpec, Campaign, CampaignConfig, Corruption, InjectionSpec, OperandSel, RankPool,
    RunOptions, Trigger,
};
use chaser_isa::InsnClass;
use chaser_mpi::TaintCarrier;
use chaser_workloads::{clamr, matvec};

fn matvec_app(carrier: TaintCarrier) -> (AppSpec, matvec::MatvecConfig) {
    let cfg = matvec::MatvecConfig::default();
    let mut app = AppSpec::replicated(matvec::program(&cfg), cfg.ranks as usize, 4);
    app.cluster.taint_carrier = carrier;
    (app, cfg)
}

/// An identity fault in a slave's dot-product accumulator: taints the row
/// results the slave sends back to the master without changing behaviour,
/// guaranteeing the taint flows through point-to-point MPI. (Faults on the
/// *master* of matvec do not cross ranks through sends — the master only
/// receives — which is exactly why the paper's Table III "propagated"
/// subset is so small.)
fn slave_identity_spec() -> InjectionSpec {
    InjectionSpec {
        target_program: "matvec".into(),
        target_rank: 1,
        class: InsnClass::Fadd,
        trigger: Trigger::AfterN(1),
        corruption: Corruption::Identity,
        operand: OperandSel::Dst,
        max_injections: 1,
        seed: 0,
    }
}

#[test]
fn slave_fault_reaches_the_master_via_hub() {
    let (app, cfg) = matvec_app(TaintCarrier::Hub);
    let report = run_app(&app, &RunOptions::inject_traced(slave_identity_spec()));
    assert!(report.injected());
    assert!(report.cluster.all_success(), "{:?}", report.cluster);
    assert_eq!(report.outputs[0], matvec::reference_output(&cfg));

    // The identity fault taints an FP value that feeds the dot products;
    // the slaves' row results carry taint back to the master, so tainted
    // deliveries must have happened in both directions.
    assert!(
        report.cluster.cross_rank_tainted_deliveries > 0,
        "taint must cross rank boundaries"
    );
    let stats = report.hub_stats;
    assert!(stats.published > 0, "senders published taint records");
    assert!(stats.hits > 0, "receivers retrieved them");
    assert!(
        stats.polls >= stats.hits,
        "every hit comes from a poll ({stats:?})"
    );

    // The provenance graph carries the fault across ranks too.
    let graph = report.provenance.as_ref().expect("provenance recorded");
    assert!(
        !graph.msg_edges.is_empty(),
        "the fault must cross rank boundaries as a message edge"
    );
    let reach = graph.rank_reach();
    assert!(reach.len() >= 2, "tainted accesses on {reach:?} only");
    assert!(graph.blast_radius_bytes() > 0, "tainted writes must land");

    // Taint activity is visible on more than one (node, pid).
    let trace = report.trace.expect("traced");
    let procs: std::collections::HashSet<_> = trace
        .reads_per_proc
        .keys()
        .chain(trace.writes_per_proc.keys())
        .collect();
    assert!(
        procs.len() > 1,
        "taint accesses must appear on multiple ranks, got {procs:?}"
    );
}

#[test]
fn without_a_carrier_taint_stays_local() {
    let (app, _) = matvec_app(TaintCarrier::None);
    let report = run_app(&app, &RunOptions::inject_traced(slave_identity_spec()));
    assert!(report.injected());
    assert_eq!(
        report.cluster.cross_rank_tainted_deliveries, 0,
        "no carrier, no cross-rank propagation"
    );
    assert_eq!(report.hub_stats.published, 0);
}

#[test]
fn header_carrier_also_propagates() {
    let (app, _) = matvec_app(TaintCarrier::Header);
    let report = run_app(&app, &RunOptions::inject_traced(slave_identity_spec()));
    assert!(report.injected());
    assert!(report.cluster.cross_rank_tainted_deliveries > 0);
    // The header scheme does not touch the hub at all.
    assert_eq!(report.hub_stats.published, 0);
    assert_eq!(report.hub_stats.polls, 0);
}

#[test]
fn hub_miss_path_is_poll_only_when_fault_free() {
    let (app, _) = matvec_app(TaintCarrier::Hub);
    let report = run_app(&app, &RunOptions::golden());
    assert!(report.cluster.all_success());
    let stats = report.hub_stats;
    assert_eq!(stats.published, 0, "clean senders publish nothing");
    assert_eq!(stats.hits, 0);
    assert!(
        stats.polls > 0,
        "receivers poll (the cheap miss) on every message"
    );
}

#[test]
fn clamr_halo_exchange_spreads_taint_to_neighbours() {
    let cfg = clamr::ClamrConfig::default();
    let mut app = AppSpec::replicated(clamr::program(&cfg), cfg.ranks as usize, 4);
    app.cluster.taint_carrier = TaintCarrier::Hub;
    // Identity-taint an FP value early in rank 2's solve.
    let spec = InjectionSpec {
        target_program: "clamr_sim".into(),
        target_rank: 2,
        class: InsnClass::Fadd,
        trigger: Trigger::AfterN(200),
        corruption: Corruption::Identity,
        operand: OperandSel::Dst,
        max_injections: 1,
        seed: 0,
    };
    let report = run_app(&app, &RunOptions::inject_traced(spec));
    assert!(report.injected());
    assert!(report.cluster.all_success(), "{:?}", report.cluster);
    assert!(
        report.cluster.cross_rank_tainted_deliveries > 0,
        "halo exchange must carry the taint to neighbour ranks"
    );
}

/// A traced campaign of slave FP faults: the tainted dot products ride MPI
/// back to the master, so the seed must show cross-rank propagation, and
/// the reliable hub loses no synchronisation on any run.
#[test]
fn traced_slave_fp_campaign_crosses_ranks_without_lost_syncs() {
    let (app, _) = matvec_app(TaintCarrier::Hub);
    let cfg = CampaignConfig {
        runs: 15,
        seed: 0xFADE,
        parallelism: 2,
        classes: vec![InsnClass::FpArith],
        rank_pool: RankPool::Random,
        tracing: true,
        ..CampaignConfig::default()
    };
    let result = Campaign::new(app, cfg).run();
    let crossed: u64 = result.outcomes.iter().map(|o| o.cross_rank).sum();
    assert!(crossed > 0, "seed must produce cross-rank propagation");
    for o in &result.outcomes {
        assert_eq!(o.taint_sync_lost, 0, "run {}", o.run_idx);
    }
}
