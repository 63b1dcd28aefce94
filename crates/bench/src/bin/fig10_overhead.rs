//! Fig. 10 — the performance overhead of Chaser on Matvec and CLAMR,
//! following the paper's methodology: to keep the comparison fair, the
//! injector writes the *original* value back (no bit flips), so all four
//! configurations execute the same application work:
//!
//! 1. baseline        — no injector, no tracing;
//! 2. FI only         — identity injection, tracing off;
//! 3. tracing only    — no injector, tracing on;
//! 4. FI + tracing    — identity injection, tracing on.
//!
//! Paper: FI alone ≈ 0–2.2% overhead; fault-propagation tracing ≈ 15.7%.
//!
//! `cargo run --release -p chaser-bench --bin fig10_overhead -- --runs 9`

use chaser::{
    run_app, AppSpec, Campaign, CampaignConfig, Corruption, InjectionSpec, OperandSel, RankPool,
    RunOptions, Trigger,
};
use chaser_bench::{clamr_app, matvec_app, print_table, HarnessArgs};
use chaser_isa::InsnClass;
use chaser_workloads::matvec;
use std::time::Instant;

/// Median wall-clock seconds over `reps` runs.
fn time_runs(app: &AppSpec, opts: &RunOptions, reps: u64) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let report = run_app(app, opts);
            assert!(!report.cluster.hang, "overhead run must not hang");
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() {
    let args = HarnessArgs::parse_with(HarnessArgs {
        runs: 9, // repetitions per configuration here
        ..HarnessArgs::default()
    });
    let reps = args.runs;

    // The paper injects into fadd after 1000 executions.
    let identity = |program: &str| InjectionSpec {
        target_program: program.into(),
        target_rank: 0,
        class: InsnClass::Fadd,
        trigger: Trigger::AfterN(1000),
        corruption: Corruption::Identity,
        operand: OperandSel::Dst,
        max_injections: 1,
        seed: 0,
    };

    let mut rows = Vec::new();
    let apps: Vec<(&str, AppSpec)> = vec![
        ("Matvec", matvec_app(&args).0),
        ("CLAMR", clamr_app(&args).0),
    ];
    for (name, app) in &apps {
        let baseline = time_runs(app, &RunOptions::golden(), reps);
        let fi_only = time_runs(app, &RunOptions::inject(identity(&app.name)), reps);
        let trace_only = time_runs(
            app,
            &RunOptions {
                tracing: true,
                ..RunOptions::default()
            },
            reps,
        );
        let fi_trace = time_runs(app, &RunOptions::inject_traced(identity(&app.name)), reps);

        let norm = |t: f64| {
            format!(
                "{:.3} ({:+.1}%)",
                t / baseline,
                100.0 * (t / baseline - 1.0)
            )
        };
        rows.push(vec![
            name.to_string(),
            format!("{:.1}ms", baseline * 1e3),
            norm(fi_only),
            norm(trace_only),
            norm(fi_trace),
        ]);
    }

    print_table(
        "Fig. 10: normalized runtime overhead (median of repeated runs)",
        &["app", "baseline", "FI only", "tracing only", "FI + tracing"],
        &rows,
    );
    println!(
        "\nshape check (paper): fault injection alone costs a few percent \
         (0–2.2% in the paper — only targeted instructions are instrumented); \
         enabling fault-propagation tracing costs noticeably more (15.7%)."
    );
    println!(
        "note: absolute milliseconds are simulator times, not native times; \
         only the *ratios* correspond to the paper's figure. The criterion \
         bench (`cargo bench -p chaser-bench --bench overhead`) measures the \
         same four configurations with rigorous statistics."
    );

    shared_cache_ablation();
    hot_path_ablation();
}

/// The layered-translation-cache ablation: the same 100-run matvec
/// campaign with the golden-warmed shared base layer on vs off. Outcomes
/// must classify identically; the win is pure translation avoidance.
fn shared_cache_ablation() {
    let campaign = |shared_tb_cache: bool| {
        let mv = matvec::MatvecConfig::default();
        let app = AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 4);
        let campaign = Campaign::new(
            app,
            CampaignConfig {
                runs: 100,
                seed: 0xCAFE,
                classes: vec![InsnClass::FpArith],
                rank_pool: RankPool::Random,
                shared_tb_cache,
                ..CampaignConfig::default()
            },
        );
        let t0 = Instant::now();
        let result = campaign.run();
        (t0.elapsed().as_secs_f64(), result)
    };
    let (t_shared, shared) = campaign(true);
    let (t_cold, cold) = campaign(false);
    assert_eq!(
        shared.to_csv(),
        cold.to_csv(),
        "shared and cold campaigns must classify identically"
    );

    let row = |label: &str, t: f64, r: &chaser::CampaignResult| {
        let s = r.cache_stats;
        vec![
            label.to_string(),
            format!("{:.1}ms", t * 1e3),
            format!("{:.3}x", t / t_cold),
            format!("{}", s.misses),
            format!("{}", s.base_hits),
            format!("{:.1}%", 100.0 * s.base_hit_rate()),
        ]
    };
    print_table(
        "Layered TB cache: 100-run matvec campaign, shared base vs cold \
         (identical outcome sets)",
        &[
            "config",
            "wall clock",
            "vs cold",
            "translations",
            "base hits",
            "base hit rate",
        ],
        &[
            row("shared_tb_cache=true", t_shared, &shared),
            row("shared_tb_cache=false", t_cold, &cold),
        ],
    );
}

/// The hot-path execution ablation: the same 100-run matvec campaign with
/// TB chaining and the taint-idle fast path on vs off. Outcome CSVs must
/// be byte-identical; the engine counters show where the win comes from
/// (chained dispatches and memory ops that skipped all shadow work).
fn hot_path_ablation() {
    let campaign = |on: bool| {
        let mv = matvec::MatvecConfig::default();
        let app = AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 4);
        let campaign = Campaign::new(
            app,
            CampaignConfig {
                runs: 100,
                seed: 0xCAFE,
                classes: vec![InsnClass::FpArith],
                rank_pool: RankPool::Random,
                tb_chaining: on,
                taint_fast_path: on,
                ..CampaignConfig::default()
            },
        );
        let t0 = Instant::now();
        let result = campaign.run();
        (t0.elapsed().as_secs_f64(), result)
    };
    let (t_on, on) = campaign(true);
    let (t_off, off) = campaign(false);
    assert_eq!(
        on.to_csv(),
        off.to_csv(),
        "optimized and unoptimized campaigns must classify identically"
    );

    let row = |label: &str, t: f64, r: &chaser::CampaignResult| {
        let s = r.engine_stats;
        let mem_ops = s.fast_path_insns + s.slow_path_insns;
        vec![
            label.to_string(),
            format!("{:.1}ms", t * 1e3),
            format!("{:.3}x", t / t_off),
            format!("{}", s.tb_chain_hits),
            format!("{}", s.chain_severs),
            format!(
                "{} ({:.1}%)",
                s.fast_path_insns,
                100.0 * s.fast_path_insns as f64 / mem_ops.max(1) as f64
            ),
            format!("{}", s.slow_path_insns),
        ]
    };
    print_table(
        "Hot-path execution: 100-run matvec campaign, tb_chaining + \
         taint_fast_path on vs off (identical outcome sets)",
        &[
            "config",
            "wall clock",
            "vs off",
            "chain hits",
            "severs",
            "fast-path mem ops",
            "slow-path mem ops",
        ],
        &[row("knobs on", t_on, &on), row("knobs off", t_off, &off)],
    );
}
