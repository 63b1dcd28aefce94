//! Campaign ledger: injections/sec on the paper's workloads, per-layer
//! numbers measured from outside the crates, one `BENCHMARK.json`.
//!
//! Two ways in (see `README.md` in this directory):
//!
//! * `ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>` —
//!   one workload in this process: the end-to-end pass (`--trace 0`) or the
//!   traced + layer pass (`--trace 1`). The last stdout line is the result
//!   object the benchmark contract asks for.
//! * `ledger [--seed <n>] [--seconds <s>] [--workload <name>] [--quick]
//!   [--check-aa] [--write-manifest] [--store-invariants]` — the whole
//!   ledger: one child process per workload and pass, every metric printed
//!   by name with its unit, non-zero exit when any check fails.
//!
//! It measures the shipped configuration and claims no gain; it is the
//! instrument later claims are read on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod e2e;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use chaser::{Campaign, Json};
use e2e::{Invariants, Scratch};
use metrics::{encode, END_TO_END, PER_LAYER};
use stats::RunResult;
use std::process::{Command, ExitCode};
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 10;
/// Where the default-seed invariants live (compiled in; rewritten by
/// `--store-invariants` when run from the repository root).
const INVARIANTS: &str = include_str!("invariants.json");
const INVARIANTS_PATH: &str = "crates/bench/src/bin/ledger/invariants.json";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    check_aa: bool,
    write_manifest: bool,
    store_invariants: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("`{flag}` takes a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--quick" => args.quick = true,
            "--check-aa" => args.check_aa = true,
            "--write-manifest" => args.write_manifest = true,
            "--store-invariants" => args.store_invariants = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &args.workload {
        if workloads::find(name).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload `{name}` (known: {known:?})"));
        }
    }
    Ok(args)
}

// ---- invariants ----

fn invariants_json(w: &Workload, seed: u64, inv: &Invariants) -> Json {
    let num = |n: u64| Json::Num(i128::from(n));
    Json::Obj(vec![
        ("workload".into(), Json::Str(w.name.into())),
        ("seed".into(), num(seed)),
        ("rows".into(), num(inv.rows)),
        ("skipped".into(), num(inv.skipped)),
        ("golden_insns".into(), num(inv.golden_insns)),
        ("golden_rounds".into(), num(inv.golden_rounds)),
        ("outcome_csv_fnv64".into(), num(inv.outcome_csv_fnv64)),
    ])
}

/// The stored invariants line for `(workload, seed)`, if any.
fn stored_invariants(w: &Workload, seed: u64) -> Option<String> {
    INVARIANTS
        .lines()
        .filter_map(|line| chaser::parse_json(line).ok())
        .find(|v| v.str("workload").ok() == Some(w.name) && v.u64("seed").ok() == Some(seed))
        .map(|v| encode(&v))
}

// ---- one workload, in this process ----

fn end_to_end(w: &Workload, seed: u64, seconds: f64, quick: bool) -> (RunResult, Vec<String>) {
    let mut report = e2e::run(w, seed, seconds, quick);
    let line = encode(&invariants_json(w, seed, &report.invariants));
    if !quick {
        if let Some(stored) = stored_invariants(w, seed) {
            if stored != line {
                report.result.correct = false;
                report.notes.push(format!(
                    "CHECK FAILED: invariants differ from stored {stored}"
                ));
            }
        }
    }
    report.notes.push(format!("invariants {line}"));
    (report.result, report.notes)
}

fn traced(w: &Workload, seed: u64, quick: bool) -> (RunResult, Vec<String>) {
    let scratch = Scratch::new();
    stats::host_warm_up(1.5);
    let spin_before = stats::host_mops_mean(3);
    let full = trace::TRACED_RUNS.min(w.runs);
    let n = if quick { (full / 10).max(1) } else { full };
    let cfg = workloads::campaign_config(w, seed, n);
    let mut notes = Vec::new();
    let mut correct = true;

    let reference = Campaign::new(workloads::build_app(w), cfg.clone()).run();
    let reference_rows: Vec<trace::RowKey> =
        reference.outcomes.iter().map(trace::row_key).collect();
    let on = trace::drive(w, seed, n, true, &scratch);
    let off = trace::drive(w, seed, n, false, &scratch);
    for (which, pass) in [("traced", &on), ("untraced-driver", &off)] {
        let rows: Vec<trace::RowKey> = pass.outcomes.iter().map(trace::row_key).collect();
        if rows != reference_rows || pass.skipped != reference.skipped {
            correct = false;
            notes.push(format!(
                "CHECK FAILED: {which} rows differ from Campaign::run rows — trace is void"
            ));
        }
    }
    if on.prepared.golden.outputs[0] != workloads::reference_output(w) {
        correct = false;
        notes.push("CHECK FAILED: golden output differs from reference_output".to_string());
    }

    let mut values = layers::fixed_inputs(seed, &scratch);
    let (workload_values, span_notes) = layers::workload(w, &cfg, &on, &off, &scratch);
    values.extend(workload_values);
    notes.extend(span_notes);
    let spin_after = stats::host_mops_mean(3);
    values.extend(layers::host(spin_before, spin_after));

    // The trace goes next to the build outputs, never into the sources.
    let path = format!("target/ledger/trace-{}.json", w.name);
    let num = |n: u64| Json::Num(i128::from(n));
    let doc = on.recorder.to_json(
        w.name,
        seed,
        vec![
            ("runs".to_string(), num(n)),
            ("rows".to_string(), num(on.outcomes.len() as u64)),
            ("skipped".to_string(), num(on.skipped)),
            (
                "outcome_csv_fnv64".to_string(),
                num(stats::fnv64(reference.to_csv().as_bytes())),
            ),
        ],
    );
    match std::fs::write(&path, encode(&doc) + "\n") {
        Ok(()) => notes.push(format!(
            "trace written to {path} ({} spans)",
            on.recorder.spans.len()
        )),
        Err(e) => {
            correct = false;
            notes.push(format!("CHECK FAILED: cannot write {path}: {e}"));
        }
    }

    let failed = on
        .outcomes
        .iter()
        .filter(|o| o.outcome.is_harness_fault())
        .count() as u64;
    let metrics = metrics::report(PER_LAYER.iter().map(|m| (m.name, m.unit)), &values);
    (
        RunResult {
            correct: correct && failed == 0,
            attempted: n,
            failed,
            metrics,
        },
        notes,
    )
}

fn one_workload(w: &Workload, args: &Args) -> ExitCode {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    let (result, notes) = if args.trace == Some(true) {
        traced(w, seed, args.quick)
    } else {
        end_to_end(w, seed, seconds, args.quick)
    };
    for note in &notes {
        println!("{note}");
    }
    println!("{}", result.to_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---- the whole ledger: one child per workload and pass ----

struct Child {
    result: RunResult,
    notes: Vec<String>,
}

fn run_child(w: &Workload, args: &Args, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &args.seed.unwrap_or(DEFAULT_SEED).to_string()])
    .args([
        "--seconds",
        &args.seconds.unwrap_or(RUN_SECONDS as f64).to_string(),
    ]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child; nothing outlives this call.
    let output = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let result = lines
        .pop()
        .and_then(|last| RunResult::from_line(&last))
        .ok_or_else(|| {
            format!(
                "{} (--trace {}) printed no result; stderr:\n{}",
                w.name,
                u8::from(trace),
                String::from_utf8_lossy(&output.stderr)
            )
        })?;
    Ok(Child {
        result,
        notes: lines,
    })
}

fn print_child(w: &Workload, pass: &str, child: &Child) {
    println!("== {} [{pass}] ==", w.name);
    for m in &child.result.metrics {
        let moves = PER_LAYER
            .iter()
            .find(|layer| layer.name == m.name)
            .map_or(String::new(), |layer| format!("  -> {}", layer.moves));
        println!("  {:<36} {:>18.6} {:<8}{moves}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<36} {:>18.6} ratio ({} of {})",
        "failed_share",
        child.result.failed as f64 / child.result.attempted.max(1) as f64,
        child.result.failed,
        child.result.attempted
    );
    for note in &child.notes {
        println!("  # {note}");
    }
    if !child.result.correct {
        println!("  !! correctness checks FAILED");
    }
}

/// Compares two end-to-end passes of one workload against the bounds.
fn check_aa(w: &Workload, first: &RunResult, second: &RunResult) -> bool {
    let mut ok = true;
    for m in &END_TO_END {
        let (Some(a), Some(b)) = (first.get(m.name), second.get(m.name)) else {
            println!("  A/A {:<20} missing", m.name);
            ok = false;
            continue;
        };
        // How much worse the second pass reads, as a share of the first.
        let worse = if m.better == "higher" {
            (a - b) / a
        } else {
            (b - a) / a
        };
        let within = worse.abs() <= m.bound;
        println!(
            "  A/A {:<20} {:>14.6} vs {:>14.6} {:<6} ratio {:.4} drift {:+.4} bound {:.2} {}",
            m.name,
            a,
            b,
            m.unit,
            b / a,
            worse,
            m.bound,
            if within { "ok" } else { "OUTSIDE" }
        );
        ok &= within;
    }
    let exact = first.failed == 0 && second.failed == 0;
    println!(
        "  A/A {:<20} {} vs {} failed runs (bound: exactly 0) {}",
        "failed_share",
        first.failed,
        second.failed,
        if exact { "ok" } else { "OUTSIDE" }
    );
    println!(
        "== {} A/A: {} ==",
        w.name,
        if ok && exact { "agree" } else { "DISAGREE" }
    );
    ok && exact
}

fn whole_ledger(args: &Args) -> ExitCode {
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    println!(
        "campaign ledger: seed {:#x}, {} compute threads at most, {} core(s) available{}",
        args.seed.unwrap_or(DEFAULT_SEED),
        2,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if args.quick {
            ", QUICK (not comparable)"
        } else {
            ""
        }
    );
    let mut ok = true;
    let mut invariant_lines = Vec::new();
    for w in &selected {
        let passes: &[(&str, bool)] = if args.check_aa {
            &[("end-to-end A", false), ("end-to-end B", false)]
        } else {
            &[("end-to-end", false), ("per-layer", true)]
        };
        let mut results = Vec::new();
        for (pass, trace) in passes {
            match run_child(w, args, *trace) {
                Ok(child) => {
                    print_child(w, pass, &child);
                    ok &= child.result.correct;
                    invariant_lines.extend(
                        child
                            .notes
                            .iter()
                            .filter_map(|n| n.strip_prefix("invariants "))
                            .map(str::to_string),
                    );
                    results.push(child.result);
                }
                Err(e) => {
                    println!("!! {e}");
                    ok = false;
                }
            }
        }
        if args.check_aa {
            ok &= results.len() == 2 && check_aa(w, &results[0], &results[1]);
        }
    }
    if !ok {
        println!("ledger: FAILED (nothing written)");
        return ExitCode::FAILURE;
    }
    let full = !args.quick && selected.len() == WORKLOADS.len();
    if args.store_invariants && full {
        invariant_lines.sort();
        invariant_lines.dedup();
        match std::fs::write(INVARIANTS_PATH, invariant_lines.join("\n") + "\n") {
            Ok(()) => println!("invariants stored in {INVARIANTS_PATH} (rebuild to pick them up)"),
            Err(e) => {
                println!("!! cannot write {INVARIANTS_PATH}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.write_manifest && full {
        match std::fs::write("BENCHMARK.json", metrics::manifest(RUN_SECONDS)) {
            Ok(()) => println!("BENCHMARK.json written"),
            Err(e) => {
                println!("!! cannot write BENCHMARK.json: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("ledger: ok");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.trace) {
        (Some(name), Some(_)) => one_workload(workloads::find(name).expect("checked"), &args),
        (None, Some(_)) => {
            eprintln!("ledger: --trace needs --workload");
            ExitCode::from(2)
        }
        _ => whole_ledger(&args),
    }
}
