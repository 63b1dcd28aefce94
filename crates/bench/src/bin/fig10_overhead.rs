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

use chaser::{run_app, AppSpec, Corruption, InjectionSpec, OperandSel, RunOptions, Trigger};
use chaser_bench::{clamr_app, lud_app, matvec_app, print_table, HarnessArgs};
use chaser_isa::InsnClass;
use chaser_mpi::TaintCarrier;
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

/// An identity fault (the original value written back) in rank 0's `class`
/// after `n` executions.
fn identity(program: &str, class: InsnClass, n: u64) -> InjectionSpec {
    InjectionSpec {
        target_program: program.into(),
        target_rank: 0,
        class,
        trigger: Trigger::AfterN(n),
        corruption: Corruption::Identity,
        operand: OperandSel::Dst,
        max_injections: 1,
        seed: 0,
    }
}

fn main() {
    let args = HarnessArgs::parse_with(HarnessArgs {
        runs: 9, // repetitions per configuration here
        ..HarnessArgs::default()
    });
    let reps = args.runs;

    // The paper injects into fadd after 1000 executions.
    let paper_fault = |program: &str| identity(program, InsnClass::Fadd, 1000);

    let mut rows = Vec::new();
    let apps: Vec<(&str, AppSpec)> = vec![
        ("Matvec", matvec_app(&args).0),
        ("CLAMR", clamr_app(&args).0),
    ];
    for (name, app) in &apps {
        let baseline = time_runs(app, &RunOptions::golden(), reps);
        let fi_only = time_runs(app, &RunOptions::inject(paper_fault(&app.name)), reps);
        let trace_only = time_runs(
            app,
            &RunOptions {
                tracing: true,
                ..RunOptions::default()
            },
            reps,
        );
        let fi_trace = time_runs(
            app,
            &RunOptions::inject_traced(paper_fault(&app.name)),
            reps,
        );

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
         only the *ratios* correspond to the paper's figure."
    );

    design_arguments(&args);
}

/// The two design arguments the paper makes with a cost attached, timed
/// like the table above. Targeted instrumentation is nearly free where
/// F-SEFI-style instrument-everything is not: identical lud runs whose
/// never-firing injector instruments nothing, `fmul` only, or every
/// instruction. And the TaintHub against per-message taint headers on the
/// receive path with no fault in flight: fault-free traced matvec.
fn design_arguments(args: &HarnessArgs) {
    const INSTR: &str = "instrumentation (lud)";
    const CARRIER: &str = "taint carrier (traced matvec, no fault)";
    let (lud, _) = lud_app(args);
    let never_firing = |class| RunOptions::inject(identity(&lud.name, class, u64::MAX));
    let traced = RunOptions {
        tracing: true,
        ..RunOptions::default()
    };
    let matvec = |carrier| {
        let (mut app, _) = matvec_app(args);
        app.cluster.taint_carrier = carrier;
        (app, traced.clone())
    };
    let configs = [
        (INSTR, "uninstrumented", (lud.clone(), RunOptions::golden())),
        (
            INSTR,
            "JIT: fmul only",
            (lud.clone(), never_firing(InsnClass::Fmul)),
        ),
        (
            INSTR,
            "F-SEFI style: every instruction",
            (lud.clone(), never_firing(InsnClass::Any)),
        ),
        (CARRIER, "TaintHub", matvec(TaintCarrier::Hub)),
        (CARRIER, "per-message header", matvec(TaintCarrier::Header)),
        (CARRIER, "none", matvec(TaintCarrier::None)),
    ];
    let mut first = ("", 0.0);
    let rows: Vec<Vec<String>> = configs
        .iter()
        .map(|(group, label, (app, opts))| {
            let t = time_runs(app, opts, args.runs);
            if first.0 != *group {
                first = (group, t);
            }
            vec![
                group.to_string(),
                label.to_string(),
                format!("{:.2}ms", t * 1e3),
                format!("{:.3}x", t / first.1),
            ]
        })
        .collect();
    print_table(
        "Design arguments: cost relative to each group's first row",
        &["argument", "configuration", "median", "vs first"],
        &rows,
    );
}
