//! Statistical-mode perf smoke: CI gate for `TraceRegime::Off`.
//!
//! Runs the same matched 200-run campaign under `trace=off` and
//! `trace=full` (tracing + provenance) and proves the two regimes agree on
//! every run's terminal classification — trace=off classifies purely from
//! termination cause plus golden-digest comparison, so turning the taint
//! and provenance machinery off must never change an outcome. Then it
//! times both regimes and gates trace=off at a *host-calibrated* >=2x
//! injections/sec over trace=full: the off regime is measured twice per
//! attempt and the ratio of the two identical legs calibrates the gate
//! down from the quiet-host target (never below a hard floor).
//!
//! The workload is a memory-heavy read-modify-write loop that publishes
//! its buffer as the run output (so SDC detection is a real golden-digest
//! comparison). An injected fault taints the buffer, and from the trigger
//! to the exit every load and store stays tainted: trace=full pays the
//! shadow/tracer/provenance cost on each of them, while trace=off runs
//! the identical suffix through the taint-idle fast path — the exact
//! machinery the statistical mode elides.
//!
//! Merges `injections_per_sec_off` / `injections_per_sec_full` /
//! `statistical_speedup` into `BENCH_engine.json` (perf_smoke writes the
//! file first in CI; standalone runs create it).
//!
//! `cargo run --release -p chaser-bench --bin statistical_smoke`

use chaser::{AppSpec, Campaign, CampaignConfig, CampaignResult, RankPool, TraceRegime};
use chaser_bench::gated_measurement;
use chaser_isa::{abi, Asm, Cond, InsnClass, Program, Reg};
use std::time::Instant;

/// Injection runs per campaign leg (the ISSUE's matched 200-run campaign).
const STAT_RUNS: u64 = 200;
/// Iterations of the workload loop (8 memory ops each): large enough that
/// each run's execution — the part the trace machinery instruments —
/// dominates per-run campaign plumbing, small enough that three legs of
/// `STAT_RUNS` runs stay in CI seconds.
const STAT_ITERS: i64 = 4_000;
/// Buffer slots the loop walks and then publishes as the run output.
const STAT_SLOTS: usize = 8;
/// Master seed — identical across regimes so the campaigns are matched
/// run-for-run.
const STAT_SEED: u64 = 0x57A715;
/// Quiet-host injections/sec target: trace=off vs trace=full.
const STAT_TARGET_SPEEDUP: f64 = 2.0;
/// Hard floor for the calibrated gate: no amount of measured noise
/// excuses statistical mode delivering less than this.
const STAT_MIN_SPEEDUP: f64 = 1.4;
/// Timed repetitions per leg per attempt (best-of, as in perf_smoke).
const STAT_REPS: usize = 2;
/// Full remeasurements before a below-gate speedup is a failure.
const MEASURE_ATTEMPTS: u32 = 3;
/// Cooldown between remeasurements (cgroup burst accounting recovers).
const REMEASURE_COOLDOWN: std::time::Duration = std::time::Duration::from_secs(8);

/// The statistical workload: a memory-heavy read-modify-write loop (the
/// shape of perf_smoke's hot loop) that ends by writing its buffer to the
/// result file, so a corrupted value is a *detectable* SDC and the golden
/// digest does real classification work in both regimes.
fn stat_program() -> Program {
    let mut a = Asm::new("statloop");
    a.data_u64("buf", &[0; STAT_SLOTS]);
    a.lea(Reg::R5, "buf");
    a.movi(Reg::R1, 0);
    a.label("loop");
    for slot in 0..4 {
        a.ld(Reg::R2, Reg::R5, slot * 8);
        a.addi(Reg::R2, 1);
        a.st(Reg::R2, Reg::R5, slot * 8);
    }
    a.addi(Reg::R1, 1);
    a.cmpi(Reg::R1, STAT_ITERS);
    a.jcc(Cond::Lt, "loop");
    // Publish the buffer: SDC is a digest mismatch on these bytes.
    a.movi(Reg::R1, abi::FD_OUTPUT as i64);
    a.lea(Reg::R2, "buf");
    a.movi(Reg::R3, (STAT_SLOTS * 8) as i64);
    a.hypercall(abi::SYS_WRITE);
    a.exit(0);
    a.assemble().expect("assemble statloop")
}

/// The matched campaign config under the given regime. `full` arms the
/// tracer *and* the provenance recorder — the heaviest honest baseline.
fn stat_config(regime: TraceRegime) -> CampaignConfig {
    CampaignConfig {
        runs: STAT_RUNS,
        seed: STAT_SEED,
        parallelism: 2,
        classes: vec![InsnClass::Mov],
        rank_pool: RankPool::Random,
        tracing: regime == TraceRegime::Full,
        provenance: regime == TraceRegime::Full,
        trace_regime: regime,
        ..CampaignConfig::default()
    }
}

fn run_campaign(regime: TraceRegime) -> CampaignResult {
    Campaign::new(AppSpec::single(stat_program()), stat_config(regime)).run()
}

/// One timed campaign leg: returns injections (runs) per wall-clock sec.
fn timed_leg(regime: TraceRegime) -> f64 {
    let t0 = Instant::now();
    let result = run_campaign(regime);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(result.outcomes.len() as u64, STAT_RUNS, "leg must complete");
    STAT_RUNS as f64 / secs.max(1e-9)
}

/// A run's terminal classification, projected without any trace-derived
/// data: what both regimes must agree on, byte for byte.
fn classification(result: &CampaignResult) -> String {
    result
        .outcomes
        .iter()
        .map(|run| format!("{}|{}|{:?}\n", run.run_idx, run.outcome, run.class))
        .collect()
}

/// Splices the statistical-mode fields into `BENCH_engine.json`: keeps
/// whatever perf_smoke wrote, drops any stale statistical fields from an
/// earlier run, and appends the fresh ones before the closing brace.
fn merge_bench_json(fields: &str) {
    let path = "BENCH_engine.json";
    let json = match std::fs::read_to_string(path) {
        Ok(text) => {
            let body = text
                .trim_end()
                .strip_suffix('}')
                .expect("BENCH_engine.json must be a JSON object")
                .lines()
                .filter(|l| !l.contains("\"injections_per_sec_") && !l.contains("\"statistical_"))
                .collect::<Vec<_>>()
                .join("\n");
            let body = body.trim_end().trim_end_matches(',');
            format!("{body},\n  {fields}\n}}\n")
        }
        Err(_) => format!("{{\n  {fields}\n}}\n"),
    };
    std::fs::write(path, json).expect("write BENCH_engine.json");
}

fn main() {
    // Classification agreement first: a speedup over a regime that
    // changes results would be meaningless. These untimed legs double as
    // warmup for the timed measurement below.
    let off = run_campaign(TraceRegime::Off);
    let full = run_campaign(TraceRegime::Full);
    assert_eq!(
        classification(&off),
        classification(&full),
        "trace=off and trace=full must agree on every terminal classification"
    );
    // The off CSV keeps the schema but empties the trace-derived columns.
    assert!(
        off.to_csv().lines().skip(1).all(|l| l.contains(",,,,,,,")),
        "trace=off rows must render trace-derived columns empty"
    );
    assert_ne!(
        off.to_csv(),
        full.to_csv(),
        "trace=full rows must carry real trace-derived data"
    );
    println!(
        "statistical_smoke: classification agreement passed \
         ({STAT_RUNS} matched runs, off vs full)"
    );

    // Timed legs, interleaved off/full/off per rep; best-of accumulation
    // across reps and attempts (noise only ever slows a leg down).
    let mut acc = [0.0f64; 3];
    let acc = gated_measurement(
        "statistical_smoke: trace-off speedup",
        MEASURE_ATTEMPTS,
        REMEASURE_COOLDOWN,
        |_| {
            for _ in 0..STAT_REPS {
                acc[0] = acc[0].max(timed_leg(TraceRegime::Off));
                acc[1] = acc[1].max(timed_leg(TraceRegime::Full));
                acc[2] = acc[2].max(timed_leg(TraceRegime::Off));
            }
            acc
        },
        |acc| {
            let (speedup, required, noise) = calibration(acc);
            if speedup >= required {
                Ok(())
            } else {
                Err(format!(
                    "{speedup:.2}x < calibrated gate {required:.2}x (off-leg noise {noise:.3}x)"
                ))
            }
        },
    );

    let (speedup, required, noise) = calibration(&acc);
    let off_ips = acc[0].min(acc[2]);
    let full_ips = acc[1];
    println!("statistical_smoke: injections/sec ({STAT_RUNS}-run statloop campaign, best of {STAT_REPS}):");
    println!("  trace=off  (statistical mode)        : {off_ips:>10.1}");
    println!("  trace=full (tracing + provenance)    : {full_ips:>10.1}");
    println!(
        "  speedup (off vs full)                : {speedup:.2}x \
         (calibrated gate {required:.2}x, off-leg noise {noise:.3}x)"
    );

    merge_bench_json(&format!(
        "\"statistical_workload\": \"statloop campaign x {STAT_RUNS} runs ({STAT_ITERS} iters), off vs full\",\n  \
         \"injections_per_sec_off\": {off_ips:.1},\n  \
         \"injections_per_sec_full\": {full_ips:.1},\n  \
         \"statistical_speedup\": {speedup:.3},\n  \
         \"statistical_required_speedup\": {required:.3},\n  \
         \"statistical_off_leg_noise\": {noise:.3}"
    ));
    println!("statistical_smoke: merged injections/sec into BENCH_engine.json");
    println!("statistical_smoke: PASS");
}

/// Calibrates the gate from the two identical trace=off legs: `noise` is
/// their best-of ratio (>= 1), the required speedup is the quiet-host
/// target divided by `noise` squared (floored), and the measured speedup
/// conservatively uses the *slower* off leg over the best full leg.
fn calibration(acc: &[f64; 3]) -> (f64, f64, f64) {
    let (off_a, off_b) = (acc[0], acc[2]);
    let noise = off_a.max(off_b) / off_a.min(off_b).max(1e-9);
    let required = (STAT_TARGET_SPEEDUP / (noise * noise)).max(STAT_MIN_SPEEDUP);
    let speedup = off_a.min(off_b) / acc[1].max(1e-9);
    (speedup, required, noise)
}
