//! The checkpoint ladder against an oracle that is not the thing under
//! test. Every injection run of a campaign restores from a ladder rung;
//! the reference executes the same fault (`Campaign::fault_for`) from
//! launch with `run_app`, which shares neither the snapshot nor the
//! injector seeding with it. Run for run, across applications, tracing
//! regimes, `rank_threads`, watchdog budgets and seeds:
//!
//! * the ladder run's report equals the launch run's in every field of the
//!   equivalence contract (DESIGN §7) — outputs, injection records with
//!   their `icount` / `exec_count`, the injector counter, taint counts, hub
//!   and net counters, the cluster result, provenance DOT/JSON;
//! * the rows `Campaign::run` returns equal the rows rebuilt by hand from
//!   the launch runs, and exactly the same indices are skipped;
//! * a journaled campaign cut off after any number of rows and resumed is
//!   byte-identical to the uninterrupted one, journal file included.

use chaser::{
    run_app, run_warm, AppSpec, CacheStats, Campaign, CampaignConfig, CampaignResult,
    InjectionSpec, PreparedApp, RankPool, RunOutcome, RunReport, TraceRegime,
};
use chaser_isa::InsnClass;
use chaser_mpi::RunBudget;
use chaser_workloads::{clamr, lud, matvec};
use proptest::prelude::*;
use std::fs;

#[path = "support/resume.rs"]
mod resume;
#[path = "support/contract.rs"]
mod support;
#[path = "support/temp_dir.rs"]
mod temp_dir;
use resume::{journal_path, journaled, resume_cut};
use support::contract_diff;
use temp_dir::TempDir;

const RUNS: u64 = 8;

/// Small applications with many scheduler rounds, so the ladder has real
/// rungs to choose between.
fn app(kind: u8) -> AppSpec {
    match kind {
        0 => {
            let mv = matvec::MatvecConfig::default();
            let mut app = AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 4);
            app.cluster.quantum = 200;
            app
        }
        1 => {
            let cfg = clamr::ClamrConfig {
                ncells: 32,
                ranks: 2,
                steps: 8,
                check_interval: 2,
                checkpoint_interval: 4,
                ..clamr::ClamrConfig::default()
            };
            let mut app = AppSpec::replicated(clamr::program(&cfg), 2, 2);
            app.cluster.quantum = 500;
            app
        }
        _ => {
            let mut app = AppSpec::single(lud::program(&lud::LudConfig { n: 10, seed: 17 }));
            app.cluster.quantum = 1_000;
            app
        }
    }
}

fn config(regime: TraceRegime, rank_threads: usize, seed: u64) -> CampaignConfig {
    CampaignConfig {
        runs: RUNS,
        seed,
        parallelism: 1,
        classes: vec![InsnClass::Mov, InsnClass::FpArith],
        rank_pool: RankPool::Random,
        tracing: regime == TraceRegime::Full,
        provenance: regime == TraceRegime::Full,
        trace_regime: regime,
        rank_threads,
        ..CampaignConfig::default()
    }
}

/// A budget that ends a little past half the golden run: some faults fire
/// and then hit it, the rest never get to fire.
fn budget(kind: u8, prepared: &PreparedApp) -> RunBudget {
    let golden = &prepared.golden.cluster;
    match kind {
        0 => RunBudget::default(),
        1 => RunBudget {
            max_insns: golden.total_insns * 3 / 5,
            max_rounds: 0,
        },
        _ => RunBudget {
            max_insns: 0,
            max_rounds: golden.rounds * 3 / 5,
        },
    }
}

/// A row without the three work-counter structs, which describe the
/// executed suffix and are outside the contract.
fn row(o: &RunOutcome) -> String {
    format!(
        "{:?}",
        RunOutcome {
            cache_stats: CacheStats::default(),
            engine_stats: Default::default(),
            parallel: Default::default(),
            ..o.clone()
        }
    )
}

/// The row a fired run's report makes, rebuilt here rather than borrowed
/// from the campaign.
fn rebuild(
    idx: u64,
    spec: &InjectionSpec,
    trigger_n: u64,
    report: &RunReport,
    golden: &RunReport,
) -> RunOutcome {
    let prov = report.provenance.as_ref();
    RunOutcome {
        run_idx: idx,
        outcome: report.classify_against(golden),
        class: spec.class,
        rank: spec.target_rank,
        trigger_n,
        injected: true,
        taint_reads: report.trace.as_ref().map_or(0, |t| t.taint_reads),
        taint_writes: report.trace.as_ref().map_or(0, |t| t.taint_writes),
        cross_rank: report.cluster.cross_rank_tainted_deliveries,
        taint_sync_lost: report.cluster.taint_sync_lost,
        prov_rank_reach: prov.map_or(0, |g| g.rank_reach().len() as u32),
        prov_blast_radius: prov.map_or(0, |g| g.blast_radius_bytes()),
        prov_msg_edges: prov.map_or(0, |g| g.msg_edges.len() as u64),
        prov_digest: prov.map_or(0, |g| g.digest()),
        total_insns: report.cluster.total_insns,
        record: report.injections.first().cloned(),
        cache_stats: report.cache_stats,
        engine_stats: report.engine_stats,
        parallel: report.parallel,
    }
}

fn rows(result: &CampaignResult) -> Vec<String> {
    result.outcomes.iter().map(row).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ladder_runs_equal_runs_from_launch(
        app_kind in 0u8..3,
        regime in prop_oneof![
            Just(TraceRegime::Off),
            Just(TraceRegime::TaintOnly),
            Just(TraceRegime::Full),
        ],
        rank_threads in 1usize..=2,
        budget_kind in 0u8..3,
        seed in any::<u64>(),
        keep_rows in 0usize..=(RUNS as usize),
    ) {
        let application = app(app_kind);
        let mut cfg = config(regime, rank_threads, seed);
        let probe = Campaign::new(application.clone(), cfg.clone()).prepare();
        cfg.run_budget = budget(budget_kind, &probe);
        let campaign = Campaign::new(application.clone(), cfg);
        let prepared = campaign.prepare();
        prop_assert!(
            prepared.warm.as_ref().is_some_and(|w| w.rungs() > 2),
            "the application must give the ladder rungs to choose between"
        );

        // The oracle: every fault from launch, rows rebuilt by hand.
        let mut expected = Vec::new();
        let mut expected_skips = 0;
        let mut skipped_prefix = 0;
        for idx in 0..RUNS {
            let Some((spec, trigger_n)) = campaign.fault_for(&prepared, idx) else {
                expected_skips += 1;
                continue;
            };
            let opts = campaign.run_options(spec.clone());
            let launch = run_app(&application, &opts);
            let ladder = run_warm(&prepared, &opts, true);
            prop_assert_eq!(contract_diff(&ladder, &launch), None, "run {}", idx);
            prop_assert_eq!(ladder.snapshot.restores, 1);
            prop_assert!(ladder.cluster.total_insns >= ladder.snapshot.insns_skipped);
            skipped_prefix += ladder.snapshot.insns_skipped;
            if launch.injected() {
                expected.push(row(&rebuild(idx, &spec, trigger_n, &launch, &prepared.golden)));
            } else {
                expected_skips += 1;
            }
        }
        prop_assert!(skipped_prefix > 0, "no run restored above rung 0");

        // The campaign, in memory and journaled.
        let dir = TempDir::new(&format!("ladder-prop-{app_kind}-{seed}"));
        let in_memory = campaign.run();
        let whole = journaled(&campaign, &dir).expect("journaled run");
        let text = fs::read_to_string(journal_path(&dir)).expect("journal readable");
        let resumed = resume_cut(&campaign, &dir, keep_rows, 0).expect("resume");
        let resumed_text = fs::read_to_string(journal_path(&dir)).expect("journal readable");

        prop_assert_eq!(&rows(&in_memory), &expected);
        prop_assert_eq!(in_memory.skipped, expected_skips);
        for other in [&whole, &resumed] {
            prop_assert_eq!(other.to_csv(), in_memory.to_csv());
            prop_assert_eq!(other.stats_csv(), in_memory.stats_csv());
            prop_assert_eq!(other.skipped, in_memory.skipped);
        }
        // One worker appends in index order, so the files match too.
        prop_assert_eq!(resumed_text, text);
    }
}
