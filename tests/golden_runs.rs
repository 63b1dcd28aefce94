//! Golden-run integration tests: every workload, executed fault-free on
//! the full simulated stack, must produce output *bitwise identical* to
//! its host-side reference — the property the SDC classifier depends on —
//! and must be deterministic across repeated runs.

use chaser::{run_app, AppSpec, RunOptions};
use chaser_workloads::{bfs, clamr, kmeans, lud, matvec};

#[test]
fn bfs_golden_matches_reference() {
    let cfg = bfs::BfsConfig::default();
    let app = AppSpec::single(bfs::program(&cfg));
    let report = run_app(&app, &RunOptions::golden());
    assert!(report.cluster.all_success(), "{:?}", report.cluster);
    assert_eq!(report.outputs[0], bfs::reference_output(&cfg));
}

#[test]
fn kmeans_golden_matches_reference() {
    let cfg = kmeans::KmeansConfig::default();
    let app = AppSpec::single(kmeans::program(&cfg));
    let report = run_app(&app, &RunOptions::golden());
    assert!(report.cluster.all_success(), "{:?}", report.cluster);
    assert_eq!(report.outputs[0], kmeans::reference_output(&cfg));
}

#[test]
fn lud_golden_matches_reference() {
    let cfg = lud::LudConfig::default();
    let app = AppSpec::single(lud::program(&cfg));
    let report = run_app(&app, &RunOptions::golden());
    assert!(report.cluster.all_success(), "{:?}", report.cluster);
    assert_eq!(report.outputs[0], lud::reference_output(&cfg));
}

#[test]
fn matvec_golden_matches_reference() {
    let cfg = matvec::MatvecConfig::default();
    let app = AppSpec::replicated(matvec::program(&cfg), cfg.ranks as usize, 4);
    let report = run_app(&app, &RunOptions::golden());
    assert!(report.cluster.all_success(), "{:?}", report.cluster);
    // The master (rank 0) writes b; slaves write nothing.
    assert_eq!(report.outputs[0], matvec::reference_output(&cfg));
    for r in 1..cfg.ranks as usize {
        assert!(report.outputs[r].is_empty());
    }
}

#[test]
fn clamr_golden_matches_reference() {
    let cfg = clamr::ClamrConfig::default();
    let app = AppSpec::replicated(clamr::program(&cfg), cfg.ranks as usize, 4);
    let report = run_app(&app, &RunOptions::golden());
    assert!(report.cluster.all_success(), "{:?}", report.cluster);
    assert_eq!(report.outputs[0], clamr::reference_output(&cfg));
}

#[test]
fn clamr_runs_on_a_single_rank_too() {
    // Periodic halo exchange with self-sends must work for ranks = 1.
    let cfg = clamr::ClamrConfig {
        ranks: 1,
        ..clamr::ClamrConfig::default()
    };
    let app = AppSpec::replicated(clamr::program(&cfg), 1, 1);
    let report = run_app(&app, &RunOptions::golden());
    assert!(report.cluster.all_success(), "{:?}", report.cluster);
    assert_eq!(report.outputs[0], clamr::reference_output(&cfg));
}

#[test]
fn golden_runs_are_deterministic() {
    let cfg = matvec::MatvecConfig::default();
    let app = AppSpec::replicated(matvec::program(&cfg), cfg.ranks as usize, 4);
    let a = run_app(&app, &RunOptions::golden());
    let b = run_app(&app, &RunOptions::golden());
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(a.cluster.total_insns, b.cluster.total_insns);
    assert_eq!(a.cluster.rounds, b.cluster.rounds);
}

#[test]
fn golden_runs_stay_taint_free() {
    let cfg = clamr::ClamrConfig::default();
    let app = AppSpec::replicated(clamr::program(&cfg), cfg.ranks as usize, 4);
    let report = run_app(
        &app,
        &RunOptions {
            tracing: true,
            ..RunOptions::default()
        },
    );
    assert!(report.cluster.all_success());
    let trace = report.trace.expect("tracing was on");
    assert_eq!(trace.taint_reads, 0);
    assert_eq!(trace.taint_writes, 0);
    assert_eq!(trace.final_tainted_bytes(), 0);
    assert_eq!(report.hub_stats.published, 0);
}

#[test]
fn network_timing_does_not_change_results() {
    // MPI semantics must be timing-independent: a slow interconnect (high
    // latency) reorders scheduling but not results. Matvec's compute hides
    // a latency of up to 7 rounds; 20 shows in the round count.
    let cfg = matvec::MatvecConfig::default();
    let mut app = AppSpec::replicated(matvec::program(&cfg), cfg.ranks as usize, 4);
    app.cluster.net_latency = 20;
    let report = run_app(&app, &RunOptions::golden());
    assert!(report.cluster.all_success(), "{:?}", report.cluster);
    assert_eq!(report.outputs[0], matvec::reference_output(&cfg));

    // The slow network must actually have slowed the run down.
    let fast = AppSpec::replicated(matvec::program(&cfg), cfg.ranks as usize, 4);
    let fast_report = run_app(&fast, &RunOptions::golden());
    assert!(report.cluster.rounds > fast_report.cluster.rounds);
}
