//! # chaser-bench
//!
//! The `figures` binary regenerating every table and figure of the Chaser
//! paper's evaluation (see DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results), the `chaser_cli`
//! terminal, and the `ledger` — the repository's one performance
//! instrument (`BENCHMARK.json`, `src/bin/ledger/README.md`).
//!
//! | Artefact | `figures` argument |
//! |---|---|
//! | Table I (fault models) | `table1_models` |
//! | Table II (injector LoC) | `table2_loc` |
//! | Table III (Matvec termination breakdown) | `table3_termination` |
//! | Fig. 6 (outcome distribution per app) | `fig6_outcomes` |
//! | Cross-rank propagation provenance (Matvec) | `fig6_propagation` |
//! | Fig. 7 (tainted bytes over time) | `fig7_tainted_bytes` |
//! | Fig. 8 (tainted-read histogram) | `fig8_taint_reads` |
//! | Fig. 9 (tainted-write histogram) | `fig9_taint_writes` |
//! | Fig. 10 (runtime overhead) | `fig10_overhead` |
//! | §IV-B CLAMR detection stats | `clamr_case_study` |
//! | §IV-C hardening candidates | `hardening_candidates` |
//!
//! `figures <artefact>|all` accepts `--runs N`, `--seed N`, `--size N`,
//! `--ranks N` and `--csv PATH` so the full paper-scale campaign (thousands
//! of runs) is reproducible when given the cycles; each artefact's default
//! `--runs` keeps it in the tens of seconds. Every artefact renders into a
//! `String` ([`ARTEFACTS`]), so the binary and the test that checks
//! `EXPERIMENTS.lock` run the same code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use chaser::{
    run_app, AppSpec, Campaign, CampaignConfig, CampaignResult, Chaser, Corruption,
    DeterministicInjector, GroupInjector, InjectionSpec, OperandSel, Outcome,
    ProbabilisticInjector, RankPool, RunOptions, RunOutcome, TermCause, TerminationBreakdown,
    TracerConfig, Trigger,
};
use chaser_isa::InsnClass;
use chaser_mpi::TaintCarrier;
use chaser_workloads::{clamr, matvec};
use std::time::Instant;

/// `println!` into a `String`.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    }};
}

/// Common command-line arguments for the artefacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Injection runs per campaign.
    pub runs: u64,
    /// Master seed.
    pub seed: u64,
    /// Problem-size knob (meaning is per-workload).
    pub size: usize,
    /// MPI ranks for the parallel workloads.
    pub ranks: u32,
    /// Dump per-run campaign results as CSV to this path.
    pub csv: Option<String>,
}

impl Default for HarnessArgs {
    fn default() -> HarnessArgs {
        HarnessArgs {
            runs: 200,
            seed: 0xC4A5E12,
            size: 0, // 0 = workload default
            ranks: 4,
            csv: None,
        }
    }
}

impl HarnessArgs {
    /// Parses `--runs / --seed / --size / --ranks / --csv` from `args`,
    /// starting from the given defaults.
    ///
    /// # Errors
    ///
    /// A one-line message naming the flag that has no value, the value
    /// that is not a number, or the argument that is not a flag.
    pub fn parse_from(
        mut defaults: HarnessArgs,
        mut args: impl Iterator<Item = String>,
    ) -> Result<HarnessArgs, String> {
        fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} takes a number, got `{value}`"))
        }
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} takes a value"));
            match flag.as_str() {
                "--runs" => defaults.runs = number(&flag, &value()?)?,
                "--seed" => defaults.seed = number(&flag, &value()?)?,
                "--size" => defaults.size = number(&flag, &value()?)?,
                "--ranks" => defaults.ranks = number(&flag, &value()?)?,
                "--csv" => defaults.csv = Some(value()?),
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(defaults)
    }
}

/// One table or figure of the paper's evaluation.
pub struct Artefact {
    /// Its name on the `figures` command line.
    pub name: &'static str,
    /// Its default `--runs`.
    pub runs: u64,
    /// Renders what `figures <name>` prints.
    pub render: fn(&HarnessArgs) -> String,
}

/// Every artefact, in the order `figures all` renders them.
#[rustfmt::skip]
pub static ARTEFACTS: [Artefact; 11] = [
    Artefact { name: "table1_models", runs: 200, render: table1_models },
    Artefact { name: "table2_loc", runs: 200, render: table2_loc },
    Artefact { name: "table3_termination", runs: 200, render: table3_termination },
    Artefact { name: "fig6_outcomes", runs: 200, render: fig6_outcomes },
    Artefact { name: "fig6_propagation", runs: 100, render: fig6_propagation },
    Artefact { name: "fig7_tainted_bytes", runs: 24, render: fig7_tainted_bytes },
    Artefact { name: "fig8_taint_reads", runs: 150, render: fig8_taint_reads },
    Artefact { name: "fig9_taint_writes", runs: 150, render: fig9_taint_writes },
    // Repetitions per timed configuration, not injection runs.
    Artefact { name: "fig10_overhead", runs: 9, render: fig10_overhead },
    Artefact { name: "clamr_case_study", runs: 200, render: clamr_case_study },
    Artefact { name: "hardening_candidates", runs: 200, render: hardening_candidates },
];

/// What `figures` prints (to stderr, exit status 2) after a bad command
/// line.
pub fn usage() -> String {
    let names: Vec<&str> = ARTEFACTS.iter().map(|a| a.name).collect();
    format!(
        "usage: figures <{}|all> [--runs N] [--seed N] [--size N] [--ranks N] [--csv PATH]",
        names.join("|")
    )
}

/// Parses a `figures` command line (without the program name): an
/// artefact name or `all`, then flags over each selected artefact's
/// defaults.
///
/// # Errors
///
/// A one-line message: no artefact, an unknown one, `--csv` with `all`,
/// or any [`HarnessArgs::parse_from`] error.
pub fn parse_command_line(
    mut args: impl Iterator<Item = String>,
) -> Result<Vec<(&'static Artefact, HarnessArgs)>, String> {
    let name = args.next().ok_or("missing artefact")?;
    let flags: Vec<String> = args.collect();
    let selected: Vec<&'static Artefact> = if name == "all" {
        ARTEFACTS.iter().collect()
    } else {
        let artefact = ARTEFACTS.iter().find(|a| a.name == name);
        vec![artefact.ok_or_else(|| format!("unknown artefact `{name}`"))?]
    };
    selected
        .into_iter()
        .map(|artefact| {
            let defaults = HarnessArgs {
                runs: artefact.runs,
                ..HarnessArgs::default()
            };
            let args = HarnessArgs::parse_from(defaults, flags.iter().cloned())?;
            if name == "all" && args.csv.is_some() {
                return Err("--csv takes a single artefact, not `all`".into());
            }
            Ok((artefact, args))
        })
        .collect()
}

/// The registered application `name` at `--size` over `--ranks`.
fn build(name: &str, args: &HarnessArgs) -> AppSpec {
    chaser_serve::build_app(name, args.size, args.ranks).expect("registered app")
}

/// `--size`, or the workload's default when it is 0.
fn size_or(args: &HarnessArgs, default: usize) -> usize {
    if args.size == 0 {
        default
    } else {
        args.size
    }
}

/// Renders an aligned text table.
fn table(out: &mut String, title: &str, headers: &[&str], rows: &[Vec<String>]) {
    outln!(out, "\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    outln!(out, "{}", fmt_row(&headers));
    outln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        outln!(out, "{}", fmt_row(row));
    }
}

/// Formats `x` out of `total` as `"count (pp.pp%)"`.
fn pct(x: u64, total: u64) -> String {
    format!("{x} ({:.2}%)", 100.0 * x as f64 / total.max(1) as f64)
}

/// Writes a campaign's per-run CSV when `--csv` was given.
fn write_csv(out: &mut String, args: &HarnessArgs, result: &CampaignResult) {
    if let Some(path) = &args.csv {
        std::fs::write(path, result.to_csv()).expect("write --csv file");
        outln!(out, "(per-run results written to {path})");
    }
}

/// A crude text histogram bar.
fn bar(count: u64, max: u64, width: usize) -> String {
    let filled = ((count as f64 / max.max(1) as f64) * width as f64).round() as usize;
    "#".repeat(filled)
}

/// Runs `--runs` injections into `app` under `--seed` and `cfg`.
fn run_campaign(app: AppSpec, args: &HarnessArgs, cfg: CampaignConfig) -> CampaignResult {
    let cfg = CampaignConfig {
        runs: args.runs,
        seed: args.seed,
        ..cfg
    };
    Campaign::new(app, cfg).run()
}

/// The traced, random-rank, single-bit `FpArith` CLAMR campaign that
/// Figs. 8 and 9, §IV-B and §IV-C all read.
fn traced_clamr(args: &HarnessArgs) -> CampaignResult {
    let cfg = CampaignConfig {
        classes: vec![InsnClass::FpArith],
        rank_pool: RankPool::Random,
        bits_per_fault: 1,
        tracing: true,
        ..CampaignConfig::default()
    };
    run_campaign(build("clamr_sim", args), args, cfg)
}

/// CLAMR's cell count at `--size`.
fn clamr_cells(args: &HarnessArgs) -> usize {
    size_or(args, clamr::ClamrConfig::default().ncells)
}

/// The largest per-run `count` in `result`.
fn max_of(result: &CampaignResult, count: impl Fn(&RunOutcome) -> u64) -> u64 {
    result.outcomes.iter().map(count).max().unwrap_or(0)
}

/// Figs. 8 and 9: the traced CLAMR campaign and the histogram of one of
/// its per-run tainted-memory counts, `what` (`reads` or `writes`).
fn taint_histogram(
    args: &HarnessArgs,
    what: &str,
    count: impl Fn(&RunOutcome) -> u64 + Copy,
) -> (String, CampaignResult) {
    let mut out = String::new();
    outln!(
        out,
        "clamr_sim {} cells / {} ranks, {} traced injection runs",
        clamr_cells(args),
        args.ranks,
        args.runs
    );
    let result = traced_clamr(args);
    write_csv(&mut out, args, &result);

    // Bucket width scales with the observed maximum so the histogram is
    // readable at any problem size.
    let bucket = (max_of(&result, count) / 20).max(1);
    let hist = result.histogram(bucket, count);
    let tallest = hist.iter().map(|&(_, c)| c).max().unwrap_or(1);
    outln!(
        out,
        "\n# of tainted memory {what} per run (bucket width {bucket}):"
    );
    outln!(out, "{:>12}  {:>6}", format!("{what} >="), "runs");
    for (lo, runs) in &hist {
        outln!(out, "{lo:>12}  {runs:>6}  |{}", bar(*runs, tallest, 40));
    }
    (out, result)
}

/// Table I — the fault models Chaser supports: the model registry, each
/// model *exercised* against lud so the table is backed by running code,
/// not documentation.
fn table1_models(args: &HarnessArgs) -> String {
    let app = build("lud", args);
    let mut chaser = Chaser::new();
    chaser.load_plugin(&mut ProbabilisticInjector);
    chaser.load_plugin(&mut DeterministicInjector);
    chaser.load_plugin(&mut GroupInjector);

    let exercises = [
        (
            "Probabilistic",
            "fault injection location is based on a predefined probability distribution",
            "inject_fault_prob lud fp 0.01 1 0 7",
        ),
        (
            "Deterministic",
            "fault injection location is the exact predefined location",
            "inject_fault lud fmul 100 51",
        ),
        (
            "Group",
            "multiple faults are injected",
            "inject_fault_group lud 1.0 1 5",
        ),
    ];
    let rows: Vec<Vec<String>> = exercises
        .iter()
        .map(|&(model, function, command)| {
            chaser.exec_command(command).expect("command accepted");
            let report = chaser.run_pending(&app);
            vec![
                model.to_string(),
                function.to_string(),
                command.to_string(),
                format!("{} fault(s) placed", report.injections.len()),
            ]
        })
        .collect();

    let mut out = String::new();
    table(
        &mut out,
        "Table I: Chaser supported fault models",
        &["Fault Model", "Functions", "Exercised via", "Verified"],
        &rows,
    );
    outln!(
        out,
        "\nregistered commands: {}",
        chaser
            .commands()
            .iter()
            .map(|c| c.name.clone())
            .collect::<Vec<_>>()
            .join(", ")
    );
    out
}

/// Table II — lines of code required to develop fault injectors on
/// Chaser's exported interfaces, counted from the *actual* source of the
/// in-repo models and of the user-level example injector. Paper:
/// Probabilistic 97, Deterministic 100, Group 98 LoC (~2 hours each).
fn table2_loc(_: &HarnessArgs) -> String {
    use chaser::models::{DETERMINISTIC_SRC, GROUP_SRC, INTERMITTENT_SRC, PROBABILISTIC_SRC};

    /// Non-blank source lines excluding the unit-test module — the code a
    /// researcher actually writes to add a model — with and without
    /// comment lines.
    fn injector_loc(src: &str) -> (usize, usize) {
        let without_tests = src.split("#[cfg(test)]").next().unwrap_or(src);
        let loc = without_tests
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count();
        let code_only = without_tests
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("//"))
            .count();
        (loc, code_only)
    }

    let custom = include_str!("../../../examples/custom_injector.rs");
    let entries = [
        ("Probabilistic Injector", PROBABILISTIC_SRC, "97"),
        ("Deterministic Injector", DETERMINISTIC_SRC, "100"),
        ("Group Injector", GROUP_SRC, "98"),
        ("Intermittent Injector (extension)", INTERMITTENT_SRC, "—"),
        ("Stuck-at-one (user example)", custom, "—"),
    ];
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|&(name, src, paper)| {
            let (loc, code_only) = injector_loc(src);
            vec![
                name.to_string(),
                loc.to_string(),
                code_only.to_string(),
                paper.to_string(),
            ]
        })
        .collect();

    let mut out = String::new();
    table(
        &mut out,
        "Table II: Lines of code required to develop injectors",
        &[
            "InjectorName",
            "LOC (non-blank)",
            "LOC (code only)",
            "Paper LOC",
        ],
        &rows,
    );
    outln!(
        out,
        "\nshape check: every model lands near the paper's ~100 LoC claim, \
         confirming the interfaces carry the heavy lifting."
    );
    out
}

/// Table III — termination breakdown for the MPI application Matvec: OS
/// exceptions vs MPI-detected errors vs slave-node failures, over all
/// terminated runs and over the subset whose fault propagated between
/// ranks. Paper (total): 89.77% OS exceptions, 9.94% MPI error, 0.23%
/// slave node failed; (propagated subset): 72.77% / 27.23% / 0%.
fn table3_termination(args: &HarnessArgs) -> String {
    fn breakdown_row(label: &str, b: &TerminationBreakdown) -> Vec<String> {
        let t = b.total();
        vec![
            label.to_string(),
            pct(b.os_exceptions, t),
            pct(b.mpi_errors, t),
            pct(b.slave_node_failed, t),
            pct(b.hangs, t),
            t.to_string(),
        ]
    }

    let mut out = String::new();
    outln!(
        out,
        "matvec {n}x{n}, {r} ranks; faults: random multi-bit flips in `mov` operands \
         of the master; {} runs, seed {:#x}",
        args.runs,
        args.seed,
        n = size_or(args, matvec::MatvecConfig::default().n),
        r = args.ranks
    );

    // The paper injects into mov operands of the master only.
    let cfg = CampaignConfig {
        classes: vec![InsnClass::Mov],
        rank_pool: RankPool::Master,
        bits_per_fault: 2,
        operand: OperandSel::Random,
        tracing: true,
        ..CampaignConfig::default()
    };
    let result = run_campaign(build("matvec", args), args, cfg);
    write_csv(&mut out, args, &result);

    let counts = result.outcome_counts();
    outln!(
        out,
        "\noutcomes: {} benign, {} SDC, {} terminated ({} runs, {} skipped)",
        counts.benign,
        counts.sdc,
        counts.terminated,
        result.outcomes.len(),
        result.skipped
    );

    let total = result.termination_breakdown();
    let propagated = result.termination_breakdown_propagated();
    let rows = vec![
        breakdown_row("Total*", &total),
        breakdown_row("Propagation§", &propagated),
    ];
    table(
        &mut out,
        "Table III: Termination breakdown for MPI application Matvec",
        &[
            "Tests",
            "OS Exceptions",
            "MPI error detected",
            "Slave Node failed",
            "Hang",
            "N",
        ],
        &rows,
    );
    outln!(
        out,
        "*: all terminated runs. §: terminated runs whose fault propagated \
         between ranks ({} of {} runs propagated).",
        result.propagated_runs().count(),
        result.outcomes.len()
    );
    outln!(
        out,
        "\nshape check (paper): OS exceptions dominate ≫ MPI errors ≫ slave-node \
         failures; the propagated subset shifts weight toward MPI errors."
    );
    outln!(
        out,
        "this run: MPI errors are {} of all terminations and {} of the \
         propagated subset's; slave-node failures {} and {}.",
        pct(total.mpi_errors, total.total()),
        pct(propagated.mpi_errors, propagated.total()),
        pct(total.slave_node_failed, total.total()),
        pct(propagated.slave_node_failed, propagated.total())
    );
    out
}

/// Fig. 6 — fault-injection outcome distribution (benign / terminated /
/// SDC) for each application, with the paper's per-application fault
/// targeting: bfs `cmp` (frequent comparisons), kmeans floating point
/// (distance kernel), lud floating point and `cmp`, CLAMR floating point
/// into a random rank, Matvec `mov` into the master only.
fn fig6_outcomes(args: &HarnessArgs) -> String {
    let targets = [
        ("bfs", "bfs", vec![InsnClass::Cmp], RankPool::Master),
        (
            "kmeans",
            "kmeans",
            vec![InsnClass::FpArith, InsnClass::Fcmp],
            RankPool::Master,
        ),
        (
            "lud",
            "lud",
            vec![InsnClass::FpArith, InsnClass::Cmp],
            RankPool::Master,
        ),
        (
            "CLAMR",
            "clamr_sim",
            vec![InsnClass::FpArith],
            RankPool::Random,
        ),
        ("Matvec", "matvec", vec![InsnClass::Mov], RankPool::Master),
    ];

    let mut out = String::new();
    outln!(
        out,
        "Fig. 6: fault injection results — {} runs per application, seed {:#x}",
        args.runs,
        args.seed
    );
    outln!(
        out,
        "\n{:8} {:>6} {:>22} {:>22} {:>22}",
        "app",
        "N",
        "benign",
        "terminated",
        "SDC"
    );

    let mut series = Vec::new();
    for (label, app, classes, rank_pool) in targets {
        let cfg = CampaignConfig {
            classes,
            rank_pool,
            bits_per_fault: 1,
            ..CampaignConfig::default()
        };
        let counts = run_campaign(build(app, args), args, cfg).outcome_counts();
        let (b, s, t) = counts.percentages();
        outln!(
            out,
            "{:8} {:>6} {:>14} {:>7.2}% {:>14} {:>7.2}% {:>14} {:>7.2}%",
            label,
            counts.total(),
            counts.benign,
            b,
            counts.terminated,
            t,
            counts.sdc,
            s
        );
        series.push((label, counts));
    }

    outln!(out, "\nstacked view (each # ≈ 2.5%):");
    let mut absent = Vec::new();
    for (app, counts) in &series {
        let t = counts.total().max(1);
        let classes = [
            (*app, "benign", counts.benign),
            ("", "terminated", counts.terminated),
            ("", "SDC", counts.sdc),
        ];
        for (label, class, n) in classes {
            outln!(out, "  {label:8} {class:10} |{}", bar(n * 40 / t, 40, 40));
            if n == 0 {
                absent.push(format!("{app} {class}"));
            }
        }
    }
    let mpi_terminated: Vec<String> = series
        .iter()
        .filter(|(app, _)| matches!(*app, "CLAMR" | "Matvec"))
        .map(|(app, c)| format!("{app} {}", pct(c.terminated, c.terminated + c.sdc)))
        .collect();
    if absent.is_empty() {
        absent.push("none".into());
    }
    outln!(
        out,
        "\nshape check (paper): all three classes appear for every app; the MPI \
         apps' failures are dominated by terminations."
    );
    outln!(
        out,
        "this run: classes with no run: {}; terminations among the MPI apps' \
         failures: {}.",
        absent.join(", "),
        mpi_terminated.join(", ")
    );
    out
}

/// Propagation provenance on Matvec: one worker fault traced through the
/// cross-rank provenance graph (contamination timeline, message edges,
/// sink classification), then a provenance campaign aggregated into the
/// propagation profile — how many ranks each injected fault reaches, and
/// with what blast radius.
fn fig6_propagation(args: &HarnessArgs) -> String {
    let app = build("matvec", args);
    let mut out = String::new();

    // The traced exemplar: an identity fault in worker 1's dot-product
    // accumulator, which rides the row results back to the master.
    let exemplar = InjectionSpec {
        target_rank: 1,
        ..identity("matvec", InsnClass::Fadd, 1)
    };
    let report = run_app(&app, &RunOptions::inject_traced(exemplar));
    assert!(report.injected(), "the exemplar fault must fire");
    let graph = report.provenance.as_ref().expect("provenance graph");
    let sinks = graph.classify_sinks(&[]);
    let rows: Vec<Vec<String>> = graph
        .first_contamination_rounds()
        .iter()
        .map(|(&rank, &round)| {
            let sink = sinks
                .iter()
                .find(|s| s.rank == rank)
                .map(|s| format!("{:?}", s.kind))
                .unwrap_or_default();
            vec![
                rank.to_string(),
                round.to_string(),
                graph
                    .sites
                    .iter()
                    .filter(|s| s.rank == rank)
                    .count()
                    .to_string(),
                sink,
            ]
        })
        .collect();
    table(
        &mut out,
        "Worker-fault contamination timeline (matvec, identity fault on rank 1)",
        &["rank", "first round", "tainted sites", "sink"],
        &rows,
    );
    outln!(out, "cross-rank message edges:");
    for e in &graph.msg_edges {
        outln!(
            out,
            "  round {:>3}: rank {} -> rank {}  tag {:#x} seq {}  {} tainted byte(s)",
            e.round,
            e.src,
            e.dest,
            e.tag,
            e.seq,
            e.tainted_bytes
        );
    }
    outln!(
        out,
        "blast radius {} byte(s), graph digest {:#018x}",
        graph.blast_radius_bytes(),
        graph.digest()
    );

    // The campaign view: every run records a provenance graph; its reach
    // and blast radius are journaled per run.
    let cfg = CampaignConfig {
        classes: vec![InsnClass::FpArith, InsnClass::Mov],
        rank_pool: RankPool::Random,
        provenance: true,
        ..CampaignConfig::default()
    };
    let result = run_campaign(app, args, cfg);
    let injected: Vec<_> = result.outcomes.iter().filter(|r| r.injected).collect();
    let total = injected.len() as u64;
    let mut reach_counts = std::collections::BTreeMap::new();
    for run in &injected {
        *reach_counts.entry(run.prov_rank_reach).or_insert(0u64) += 1;
    }
    let rows: Vec<Vec<String>> = reach_counts
        .iter()
        .map(|(&reach, &count)| {
            let blast: u64 = injected
                .iter()
                .filter(|r| r.prov_rank_reach == reach)
                .map(|r| r.prov_blast_radius)
                .sum();
            vec![
                reach.to_string(),
                pct(count, total),
                format!("{:.1}", blast as f64 / count.max(1) as f64),
            ]
        })
        .collect();
    table(
        &mut out,
        &format!("Fault rank reach over {total} injected runs"),
        &["ranks reached", "runs", "avg blast (bytes)"],
        &rows,
    );
    let propagated = injected.iter().filter(|r| r.prov_msg_edges > 0).count() as u64;
    outln!(
        out,
        "runs with at least one cross-rank message edge: {}",
        pct(propagated, total)
    );
    write_csv(&mut out, args, &result);
    out
}

/// Fig. 7 — "termination analysis": the number of tainted bytes in memory
/// sampled every 100K executed instructions, for two selected CLAMR fault
/// cases re-executed with the same injected fault. Paper shape: the
/// series rises, fluctuates (drops when tainted bytes are overwritten
/// with clean data), and finally reaches a constant plateau once the
/// application stops touching the contaminated region.
fn fig7_tainted_bytes(args: &HarnessArgs) -> String {
    // A larger clamr_sim (more cells, more steps) than the registry's:
    // the run must span many 100K-instruction samples.
    let sim = clamr::ClamrConfig {
        ncells: size_or(args, 128),
        ranks: args.ranks,
        steps: 160,
        ..clamr::ClamrConfig::default()
    };
    let app = AppSpec::replicated(
        clamr::program(&sim),
        sim.ranks as usize,
        args.ranks as usize,
    );
    let mut out = String::new();
    outln!(
        out,
        "clamr_sim: {} cells, {} ranks, {} steps; sampling tainted bytes every 100K insns",
        sim.ncells,
        sim.ranks,
        sim.steps
    );

    // Draw a batch of candidate faults, then re-execute two of them (the
    // paper "randomly selected two fault injection cases ... executed
    // again with the same injected faults as the first run").
    let cfg = CampaignConfig {
        classes: vec![InsnClass::FpArith],
        rank_pool: RankPool::Random,
        bits_per_fault: 1,
        ..CampaignConfig::default()
    };
    let result = run_campaign(app.clone(), args, cfg);

    let mut selected: Vec<&RunOutcome> = result
        .outcomes
        .iter()
        .filter(|o| o.record.is_some())
        .collect();
    // Prefer completed (benign/SDC) cases — terminated runs cut the series
    // short — and among them the *earliest* injections, so the fault has
    // the whole run to propagate and reach its plateau.
    selected.sort_by_key(|o| {
        let class = match o.outcome {
            Outcome::Sdc => 0u64,
            Outcome::Benign => 1,
            Outcome::Terminated(_) => 2,
            Outcome::HarnessFault { .. } => 3,
        };
        (class, o.trigger_n)
    });
    selected.truncate(2);

    let (mut dropping, mut flat) = (0, 0);
    for (case, run) in selected.iter().enumerate() {
        let rec = run.record.as_ref().expect("filtered on record");
        let bit = rec.taint_mask.trailing_zeros().min(63);
        let spec = InjectionSpec {
            target_rank: run.rank,
            corruption: Corruption::FlipBits(vec![bit]),
            ..identity(&app.name, run.class, run.trigger_n)
        };
        let report = run_app(
            &app,
            &RunOptions {
                spec: Some(spec),
                tracing: true,
                tracer: TracerConfig {
                    sample_interval: 100_000,
                    ..TracerConfig::default()
                },
                ..RunOptions::default()
            },
        );
        let trace = report.trace.expect("traced");
        outln!(
            out,
            "\ncase {}: rank {}, `{}` exec #{}, bit {} -> outcome {}",
            case + 1,
            run.rank,
            rec.insn,
            run.trigger_n,
            bit,
            run.outcome
        );
        outln!(out, "  insns(x100K)  tainted_bytes");
        let peak = trace.peak_tainted_bytes().max(1);
        for (insns, bytes) in &trace.tainted_byte_samples {
            outln!(
                out,
                "  {:>10.1}  {:>8}  |{}",
                *insns as f64 / 100_000.0,
                bytes,
                "#".repeat(bytes * 40 / peak)
            );
        }
        outln!(
            out,
            "  peak = {} bytes; final plateau = {} bytes",
            trace.peak_tainted_bytes(),
            trace.final_tainted_bytes()
        );
        let steps: Vec<_> = trace.tainted_byte_samples.windows(2).collect();
        dropping += steps.iter().any(|w| w[1].1 < w[0].1) as usize;
        flat += steps.last().is_some_and(|w| w[1].1 == w[0].1) as usize;
    }
    outln!(
        out,
        "\nshape check (paper): the tainted-byte count rises, fluctuates — drops \
         when tainted bytes are overwritten with clean data — and settles to a \
         constant once the fault stops propagating."
    );
    outln!(
        out,
        "this run: {dropping} of {n} series ever drop; {flat} of {n} end flat \
         (last two samples equal).",
        n = selected.len()
    );
    out
}

/// Fig. 8 — distribution of the number of tainted-memory *reads* across
/// all MPI ranks per fault-injection run. Paper shape: heavily
/// right-skewed — the majority of runs sit in the low buckets, with a
/// long tail of runs whose fault contaminated hot state.
fn fig8_taint_reads(args: &HarnessArgs) -> String {
    let (mut out, result) = taint_histogram(args, "reads", |o| o.taint_reads);
    let max_reads = max_of(&result, |o| o.taint_reads);
    let median = {
        let mut v: Vec<u64> = result.outcomes.iter().map(|o| o.taint_reads).collect();
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0)
    };
    outln!(
        out,
        "\nruns: {}; max reads: {}; median reads: {}",
        result.outcomes.len(),
        max_reads,
        median
    );
    let (more_reads, reads_only, writes_only) = result.read_write_split();
    outln!(
        out,
        "runs with more reads than writes: {more_reads}; reads-only: {reads_only}; \
         writes-only: {writes_only} \
         (paper: 47.1% / 3.97% / 14.93% of 2973 runs)"
    );
    outln!(
        out,
        "\nshape check (paper): right-skewed — the majority of runs fall in the \
         low-read buckets, a minority reach the maximum."
    );
    out
}

/// Fig. 9 — distribution of the number of tainted-memory *writes* within
/// a single run across all MPI ranks (the same campaign as Fig. 8). Paper
/// shape: right-skewed like the reads, with maxima roughly two orders of
/// magnitude smaller (12K writes vs 2500K reads).
fn fig9_taint_writes(args: &HarnessArgs) -> String {
    let (mut out, result) = taint_histogram(args, "writes", |o| o.taint_writes);
    let max_writes = max_of(&result, |o| o.taint_writes);
    let max_reads = max_of(&result, |o| o.taint_reads);
    outln!(
        out,
        "\nruns: {}; max writes: {max_writes}; max reads (same campaign): {max_reads}",
        result.outcomes.len()
    );
    outln!(
        out,
        "\nshape check (paper): right-skewed, and the write maxima sit below \
         the read maxima ({:.1}x here; the paper reports 2500K reads vs 12K \
         writes — the gap narrows in clamr_sim because a 1-D stencil re-reads \
         each value fewer times than CLAMR's 2-D AMR mesh).",
        max_reads as f64 / max_writes.max(1) as f64
    );
    out
}

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

/// An identity fault (the original value written back) into the
/// destination of rank 0's `class` after `n` executions — the base every
/// single fault here is built from.
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

/// Fig. 10 — the performance overhead of Chaser on Matvec and CLAMR, the
/// median of `--runs` repetitions. As in the paper the injector writes
/// the *original* value back, so all four configurations (baseline, FI
/// only, tracing only, FI + tracing) do the same application work. Paper:
/// FI alone ≈ 0–2.2% overhead; fault-propagation tracing ≈ 15.7%.
///
/// Then the two design arguments the paper makes with a cost attached,
/// timed the same way. Targeted instrumentation is nearly free where
/// F-SEFI-style instrument-everything is not: identical lud runs whose
/// never-firing injector instruments nothing, `fmul` only, or every
/// instruction. And the TaintHub against per-message taint headers on the
/// receive path with no fault in flight: fault-free traced matvec.
fn fig10_overhead(args: &HarnessArgs) -> String {
    let reps = args.runs;
    let traced = RunOptions {
        tracing: true,
        ..RunOptions::default()
    };

    // The paper injects into fadd after 1000 executions.
    let paper_fault = |program: &str| identity(program, InsnClass::Fadd, 1000);

    let mut rows = Vec::new();
    for (name, app) in [
        ("Matvec", build("matvec", args)),
        ("CLAMR", build("clamr_sim", args)),
    ] {
        let baseline = time_runs(&app, &RunOptions::golden(), reps);
        let fi_only = time_runs(&app, &RunOptions::inject(paper_fault(&app.name)), reps);
        let trace_only = time_runs(&app, &traced, reps);
        let fi_trace = time_runs(
            &app,
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

    let mut out = String::new();
    table(
        &mut out,
        "Fig. 10: normalized runtime overhead (median of repeated runs)",
        &["app", "baseline", "FI only", "tracing only", "FI + tracing"],
        &rows,
    );
    outln!(
        out,
        "\nshape check (paper): fault injection alone costs a few percent \
         (0–2.2% in the paper — only targeted instructions are instrumented); \
         enabling fault-propagation tracing costs noticeably more (15.7%)."
    );
    outln!(
        out,
        "note: absolute milliseconds are simulator times, not native times; \
         only the *ratios* correspond to the paper's figure."
    );

    const INSTR: &str = "instrumentation (lud)";
    const CARRIER: &str = "taint carrier (traced matvec, no fault)";
    let lud = build("lud", args);
    let never_firing = |class| RunOptions::inject(identity(&lud.name, class, u64::MAX));
    let matvec = |carrier| {
        let mut app = build("matvec", args);
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
            let t = time_runs(app, opts, reps);
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
    table(
        &mut out,
        "Design arguments: cost relative to each group's first row",
        &["argument", "configuration", "median", "vs first"],
        &rows,
    );
    out
}

/// §IV-B CLAMR case study — random single-bit transient errors into the
/// floating-point instructions of CLAMR, classified into the paper's
/// detected / undetected-correct / undetected-SDC split. Paper: 5195 runs
/// → 4349 detected (83.71%), 846 undetected (16.28%), of which 618
/// (11.89%) still produced correct results and 228 (4.38%) were silent
/// data corruptions.
fn clamr_case_study(args: &HarnessArgs) -> String {
    let cfg = clamr::ClamrConfig::default();
    let mut out = String::new();
    outln!(
        out,
        "CLAMR case study: {} cells, {} ranks, {} steps, conservation checked \
         every {} steps (tol {:.0e}); {} runs of single-bit FP faults",
        clamr_cells(args),
        args.ranks,
        cfg.steps,
        cfg.check_interval,
        cfg.tolerance,
        args.runs
    );
    let result = traced_clamr(args);
    write_csv(&mut out, args, &result);

    let (detected, benign, sdc) = result.detection_split();
    let total = detected + benign + sdc;
    let rows: Vec<Vec<String>> = [
        ("detected", detected, "83.71% (4349/5195)"),
        ("undetected, correct result", benign, "11.89% (618/5195)"),
        ("undetected, SDC", sdc, "4.38% (228/5195)"),
    ]
    .iter()
    .map(|&(class, n, paper)| vec![class.into(), pct(n, total), paper.into()])
    .collect();
    table(
        &mut out,
        "CLAMR detection analysis",
        &["class", "measured", "paper"],
        &rows,
    );

    // What detected the faults?
    let mut checker = 0u64;
    let mut crashes = 0u64;
    let mut mpi = 0u64;
    let mut hangs = 0u64;
    for o in &result.outcomes {
        match o.outcome {
            Outcome::Terminated(TermCause::AssertionFailure { .. }) => checker += 1,
            Outcome::Terminated(TermCause::OsException { .. })
            | Outcome::Terminated(TermCause::AbnormalExit { .. }) => crashes += 1,
            Outcome::Terminated(TermCause::MpiError(_)) => mpi += 1,
            Outcome::Terminated(TermCause::Hang) => hangs += 1,
            _ => {}
        }
    }
    outln!(out, "\ndetection channels:");
    let channels = [
        ("mass-conservation checker", checker),
        ("crashes / OS exceptions", crashes),
        ("MPI runtime errors", mpi),
        ("hangs", hangs),
    ];
    for (channel, n) in channels {
        outln!(out, "  {channel:25} : {}", pct(n, detected.max(1)));
    }

    outln!(
        out,
        "\nshape check (paper): detected ≫ undetected, and the undetected \
         remainder splits into a majority of still-correct runs plus a \
         smaller SDC fraction — the interesting vulnerability surface."
    );
    outln!(
        out,
        "this run: {} detected; of the {} undetected runs, {} still correct \
         and {} SDC.",
        pct(detected, total),
        benign + sdc,
        pct(benign, benign + sdc),
        pct(sdc, benign + sdc)
    );
    out
}

/// Injection-site vulnerability analysis — the paper's closing argument:
/// "the injection points that resulted in higher tainted memory
/// operations should be considered candidates for further hardening via
/// resilience techniques." The traced CLAMR campaign grouped by
/// injection-site address, ranked by mean tainted memory operations per
/// fault, with each site's outcome profile.
fn hardening_candidates(args: &HarnessArgs) -> String {
    let mut out = String::new();
    outln!(
        out,
        "clamr_sim {} cells / {} ranks; {} traced single-bit FP injections",
        clamr_cells(args),
        args.ranks,
        args.runs
    );
    let result = traced_clamr(args);
    write_csv(&mut out, args, &result);
    outln!(
        out,
        "\n{} distinct injection sites hit across {} runs",
        result.site_vulnerability().len(),
        result.outcomes.len()
    );

    let rows: Vec<Vec<String>> = result
        .hardening_candidates(12)
        .into_iter()
        .map(|(pc, site)| {
            vec![
                format!("{pc:#x}"),
                site.insn.clone(),
                site.injections.to_string(),
                format!("{:.0}%", 100.0 * site.vulnerability()),
                format!("{:.0}", site.mean_taint_ops()),
                site.propagated.to_string(),
            ]
        })
        .collect();
    table(
        &mut out,
        "Hardening candidates (by mean tainted memory ops per fault)",
        &[
            "site",
            "instruction",
            "faults",
            "vulnerable",
            "taint ops/fault",
            "propagated",
        ],
        &rows,
    );
    outln!(
        out,
        "\nreading: sites whose faults contaminate the most memory are where \
         selective protection (e.g. duplication, checksums over their output \
         arrays) buys the most resilience per unit cost."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Vec<(&'static str, HarnessArgs)>, String> {
        let selected = parse_command_line(line.split_whitespace().map(String::from))?;
        Ok(selected
            .into_iter()
            .map(|(a, args)| (a.name, args))
            .collect())
    }

    #[test]
    fn parse_reads_every_flag() {
        let every_flag = HarnessArgs {
            runs: 7,
            seed: 9,
            size: 32,
            ranks: 2,
            csv: Some("out.csv".into()),
        };
        assert_eq!(
            parse("fig8_taint_reads --runs 7 --seed 9 --size 32 --ranks 2 --csv out.csv"),
            Ok(vec![("fig8_taint_reads", every_flag)])
        );
        // Each artefact starts from its own default `--runs`; `all` is
        // every artefact, in order.
        let defaults = |runs| HarnessArgs {
            runs,
            ..HarnessArgs::default()
        };
        assert_eq!(
            parse("fig8_taint_reads"),
            Ok(vec![("fig8_taint_reads", defaults(150))])
        );
        let seeded = |a: &Artefact| {
            (
                a.name,
                HarnessArgs {
                    seed: 9,
                    ..defaults(a.runs)
                },
            )
        };
        assert_eq!(
            parse("all --seed 9"),
            Ok(ARTEFACTS.iter().map(seeded).collect())
        );
    }

    #[test]
    fn parse_rejects_bad_command_lines() {
        let err = |line| parse(line).unwrap_err();
        // A trailing flag used to be dropped silently: `--runs` ran 200.
        assert_eq!(err("fig6_outcomes --seed 1 --runs"), "--runs takes a value");
        assert_eq!(
            err("fig6_outcomes --runs many"),
            "--runs takes a number, got `many`"
        );
        assert_eq!(err("fig6_outcomes --help"), "unknown argument `--help`");
        assert_eq!(err(""), "missing artefact");
        assert_eq!(err("--runs 5"), "unknown artefact `--runs`");
        assert!(ARTEFACTS.iter().all(|a| usage().contains(a.name)));
        assert_eq!(
            err("all --csv out.csv"),
            "--csv takes a single artefact, not `all`"
        );
    }

    #[test]
    fn pct_and_bar_format() {
        assert_eq!(pct(1, 4), "1 (25.00%)");
        assert_eq!(bar(5, 10, 10), "#####");
        assert_eq!(bar(0, 10, 10), "");
    }

    fn fnv64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// What a timed artefact's lock line covers: the table titles, header
    /// cells and row labels — every table cell without a digit — but no
    /// timing cell, and no rule, whose width follows the timings.
    fn untimed(text: &str) -> String {
        let mut pinned = Vec::new();
        let mut in_table = false;
        for line in text.lines() {
            if line.starts_with("===") {
                in_table = true;
                pinned.push(line);
            } else if line.is_empty() {
                in_table = false;
            } else if in_table && !line.starts_with('-') {
                pinned.extend(
                    line.split("  ")
                        .map(str::trim)
                        .filter(|c| !c.is_empty() && !c.contains(|ch: char| ch.is_ascii_digit())),
                );
            }
        }
        pinned.join("\n")
    }

    /// Every artefact's default-argument output against its digest in
    /// `EXPERIMENTS.lock`. Fig. 10 is timed: it runs at `--runs 1` and only
    /// its [`untimed`] structure is pinned.
    #[test]
    fn experiments_lock_pins_every_artefact() {
        let current: String = ARTEFACTS
            .iter()
            .map(|a| {
                let timed = a.name == "fig10_overhead";
                let args = HarnessArgs {
                    runs: if timed { 1 } else { a.runs },
                    ..HarnessArgs::default()
                };
                let text = (a.render)(&args);
                let pinned = if timed { untimed(&text) } else { text };
                format!("{} {:#018x}\n", a.name, fnv64(pinned.as_bytes()))
            })
            .collect();
        assert!(
            current == include_str!("../../../EXPERIMENTS.lock"),
            "an artefact's output moved. Re-run each moved artefact's \
             paper-size command, re-paste its EXPERIMENTS.md section, and \
             replace EXPERIMENTS.lock with:\n{current}"
        );
    }
}
