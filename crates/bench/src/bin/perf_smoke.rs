//! Hot-path engine smoke: CI gate for the interpreter's fast paths (TB
//! chaining and the taint-idle memory path) and for intra-run rank
//! parallelism.
//!
//! Proves the `tb_chaining` / `taint_fast_path` knobs observationally
//! inert: a traced, provenance-recording campaign must produce
//! byte-identical outcome CSVs, an injected run must export byte-identical
//! provenance DOT/JSON, and a fault-free cluster must reach the same state
//! digest with the knobs on and off. Then gates rank parallelism (an
//! 8-rank workload must be digest-identical serial vs parallel and faster
//! by a host-calibrated margin) and records shard-scaling numbers.
//! Engine throughput itself is gated by the ledger's bounds
//! (`BENCHMARK.json`), on injection campaigns rather than a hook-free
//! node.
//!
//! Writes the measured numbers to `BENCH_engine.json` (hand-rolled JSON;
//! the vendored serde has no serializer).
//!
//! `cargo run --release -p chaser-bench --bin perf_smoke`

use chaser::{AppSpec, Campaign, CampaignConfig, RankPool, RunOptions};
use chaser_bench::gated_measurement;
use chaser_isa::{Asm, Cond, InsnClass, Program, Reg};
use chaser_mpi::{Cluster, ClusterConfig, ParallelStats};
use chaser_vm::{EngineStats, ExecTuning};
use chaser_workloads::matvec;
use std::time::Instant;

/// Iterations of the scaling workload's loop (8 memory ops each).
const LOOP_ITERS: i64 = 100_000;
/// Full remeasurements allowed before a below-gate speedup is a failure
/// (the `attempts` argument of [`chaser_bench::gated_measurement`]).
const MEASURE_ATTEMPTS: u32 = 3;
/// Pause before a remeasurement. Throttled containers (cgroup CPU burst
/// accounting) stay depressed for a few seconds after a heavy load burst,
/// so back-to-back retries would all sample the same squeezed window.
const REMEASURE_COOLDOWN: std::time::Duration = std::time::Duration::from_secs(8);

/// Ranks (one per node) in the rank-parallelism scaling workload.
const SCALING_RANKS: usize = 8;
/// Worker threads for the parallel leg of the scaling workload: as many as
/// the host can really run at once, up to 4. On a one-core host the leg
/// degenerates to serial-vs-serial and gates only the digest identity.
fn rank_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4)
}
/// Timed repetitions per scaling leg (the best is reported: noise only
/// ever slows a run down, so the fastest rep is the truest measure).
const RANK_REPS: usize = 3;
/// Required wall-clock speedup on a genuinely parallel host:
/// [`rank_threads`] workers vs serial, after the state digests are proven
/// identical.
const RANK_REQUIRED_SPEEDUP: f64 = 1.5;
/// Fraction of the host's *raw* thread-scaling capacity the engine must
/// reach. A cgroup-throttled CI container may cap even a plain busy loop
/// well below [`rank_threads`]x; the engine is gated against that measured
/// ceiling, not against hardware it does not have.
const RANK_CAPACITY_FRACTION: f64 = 0.7;

/// A memory-heavy update loop: every iteration walks four slots of a small
/// buffer with a load/add/store each — the read-modify-write access
/// pattern that dominates real numeric kernels.
fn loop_program() -> Program {
    let mut a = Asm::new("hotloop");
    a.data_u64("buf", &[0; 8]);
    a.lea(Reg::R5, "buf");
    a.movi(Reg::R1, 0);
    a.label("loop");
    for slot in 0..4 {
        a.ld(Reg::R2, Reg::R5, slot * 8);
        a.addi(Reg::R2, 1);
        a.st(Reg::R2, Reg::R5, slot * 8);
    }
    a.addi(Reg::R1, 1);
    a.cmpi(Reg::R1, LOOP_ITERS);
    a.jcc(Cond::Lt, "loop");
    a.exit(0);
    a.assemble().expect("assemble hotloop")
}

/// The matvec application the correctness gates run on.
fn matvec_app() -> AppSpec {
    let mv = matvec::MatvecConfig::default();
    AppSpec::replicated(matvec::program(&mv), mv.ranks as usize, 2)
}

/// Gate 1: a traced, provenance-recording campaign must classify
/// byte-identically with the knobs on and off, while the optimized run
/// actually exercises the fast paths.
fn assert_campaign_identity() -> (EngineStats, EngineStats) {
    let campaign = |on: bool| {
        Campaign::new(
            matvec_app(),
            CampaignConfig {
                runs: 30,
                seed: 0xFA57,
                classes: vec![InsnClass::FpArith],
                rank_pool: RankPool::Random,
                tracing: true,
                provenance: true,
                tb_chaining: on,
                taint_fast_path: on,
                ..CampaignConfig::default()
            },
        )
        .run()
    };
    let on = campaign(true);
    let off = campaign(false);
    assert_eq!(
        on.to_csv(),
        off.to_csv(),
        "outcome CSV must be byte-identical across the hot-path knobs"
    );
    assert!(
        on.engine_stats.tb_chain_hits > 0,
        "optimized campaign must follow chain links"
    );
    assert_eq!(
        off.engine_stats.tb_chain_hits, 0,
        "knobs-off campaign must never chain"
    );
    assert_eq!(
        off.engine_stats.fast_path_insns, 0,
        "knobs-off campaign must never take the taint-idle path"
    );
    (on.engine_stats, off.engine_stats)
}

/// Gate 2: an injected, traced run must export byte-identical provenance
/// DOT/JSON with the knobs on and off.
fn assert_provenance_identity() {
    let app = matvec_app();
    let report = |tuning: ExecTuning| {
        let spec = chaser::InjectionSpec {
            target_program: app.name.clone(),
            target_rank: 0,
            class: InsnClass::FpArith,
            trigger: chaser::Trigger::AfterN(3),
            corruption: chaser::Corruption::FlipRandomBits(2),
            operand: chaser::OperandSel::Dst,
            max_injections: 1,
            seed: 7,
        };
        let opts = RunOptions {
            exec_tuning: tuning,
            ..RunOptions::inject_traced(spec)
        };
        chaser::run_app(&app, &opts)
    };
    let on = report(ExecTuning::default());
    let off = report(ExecTuning {
        tb_chaining: false,
        taint_fast_path: false,
    });
    let graph_on = on.provenance.expect("provenance graph (knobs on)");
    let graph_off = off.provenance.expect("provenance graph (knobs off)");
    assert_eq!(
        graph_on.to_dot(),
        graph_off.to_dot(),
        "provenance DOT export must be byte-identical across the knobs"
    );
    assert_eq!(
        graph_on.to_json(),
        graph_off.to_json(),
        "provenance JSON export must be byte-identical across the knobs"
    );
    assert_eq!(on.outputs, off.outputs, "rank outputs must match");
}

/// Gate 3: a fault-free cluster must reach the same state digest under
/// both tunings.
fn assert_state_digest_identity() {
    let digest = |tuning: ExecTuning| {
        let mv = matvec::MatvecConfig::default();
        let program = matvec::program(&mv);
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            exec_tuning: tuning,
            ..ClusterConfig::default()
        });
        let programs: Vec<&Program> = (0..mv.ranks).map(|_| &program).collect();
        cluster.launch(&programs).expect("launch");
        let run = cluster.run();
        assert!(!run.hang, "fault-free matvec must not hang");
        cluster.state_digest()
    };
    let on = digest(ExecTuning::default());
    let off = digest(ExecTuning {
        tb_chaining: false,
        taint_fast_path: false,
    });
    assert_eq!(
        on, off,
        "cluster state digest must be identical across the hot-path knobs"
    );
}

/// One timed cluster run of the scaling workload: `SCALING_RANKS` copies
/// of the hot loop, one rank per node, advanced by `rank_threads` compute
/// workers. Returns `(insns/sec, state digest, parallel stats)`.
fn scaling_run(prog: &Program, rank_threads: usize) -> (f64, u64, ParallelStats) {
    let mut cluster = Cluster::new(ClusterConfig {
        nodes: SCALING_RANKS,
        rank_threads,
        // The default quantum on purpose: the leg measures what a round
        // barrier costs, so it must not be tuned out of the picture.
        ..ClusterConfig::default()
    });
    let programs: Vec<&Program> = (0..SCALING_RANKS).map(|_| prog).collect();
    cluster.launch(&programs).expect("launch scaling workload");
    let t0 = Instant::now();
    let run = cluster.run();
    let secs = t0.elapsed().as_secs_f64();
    assert!(!run.hang, "scaling workload must not hang");
    (
        run.total_insns as f64 / secs,
        cluster.state_digest(),
        cluster.parallel_stats(),
    )
}

/// Raw thread-scaling ceiling of this host: how much faster `threads`
/// plain busy loops finish than one, with no engine involved. On real
/// multi-core hardware this approaches `threads`; a cgroup-throttled
/// CI container may cap it near 1.
fn host_parallel_capacity(threads: usize) -> f64 {
    fn burn(n: u64) -> u64 {
        let mut x = 0u64;
        for i in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        x
    }
    const N: u64 = 200_000_000;
    let mut best = 0.0f64;
    for _ in 0..RANK_REPS {
        let t0 = Instant::now();
        std::hint::black_box(burn(N));
        let serial = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| std::hint::black_box(burn(N / threads as u64)));
            }
        });
        let par = t0.elapsed().as_secs_f64();
        best = best.max(serial / par);
    }
    best
}

/// Gate 4 + measurement: the 8-rank workload must reach the identical
/// final state digest serial and parallel, and [`rank_threads`] workers
/// must beat serial wall-clock by `RANK_REQUIRED_SPEEDUP` — or by
/// `RANK_CAPACITY_FRACTION` of the host's measured raw thread-scaling
/// ceiling when the host itself cannot deliver that much. Returns
/// `(serial ips, parallel ips, host capacity, parallel stats)`.
fn assert_and_measure_rank_scaling(prog: &Program) -> (f64, f64, f64, ParallelStats) {
    let threads = rank_threads();
    let (_, serial_digest, _) = scaling_run(prog, 1);
    gated_measurement(
        "perf_smoke: rank-parallel speedup",
        MEASURE_ATTEMPTS,
        REMEASURE_COOLDOWN,
        |_| {
            let (mut serial_ips, mut parallel_ips) = (0.0f64, 0.0f64);
            let mut pstats = ParallelStats::default();
            for _ in 0..RANK_REPS {
                let (ips, digest, _) = scaling_run(prog, 1);
                assert_eq!(digest, serial_digest, "serial digest must be stable");
                serial_ips = serial_ips.max(ips);
                let (ips, digest, p) = scaling_run(prog, threads);
                assert_eq!(
                    digest, serial_digest,
                    "rank_threads={threads} diverged from the serial run"
                );
                parallel_ips = parallel_ips.max(ips);
                pstats = p;
            }
            assert!(
                threads == 1 || pstats.parallel_rounds > 0,
                "the parallel leg never ran a round on more than one worker"
            );
            (
                serial_ips,
                parallel_ips,
                host_parallel_capacity(threads),
                pstats,
            )
        },
        |r| {
            let (serial_ips, parallel_ips, capacity) = (r.0, r.1, r.2);
            let required = RANK_REQUIRED_SPEEDUP.min(RANK_CAPACITY_FRACTION * capacity);
            let speedup = parallel_ips / serial_ips.max(1.0);
            if speedup >= required {
                Ok(())
            } else {
                Err(format!(
                    "{speedup:.2}x < {required:.2}x ({SCALING_RANKS} ranks, {threads} \
                     threads, host capacity {capacity:.2}x)"
                ))
            }
        },
    )
}

/// Campaign runs in the shard-scaling measurement.
const SHARD_RUNS: u64 = 32;
/// Shards in the sharded leg (vs. 1), thread workers, same box.
const SHARD_FANOUT: u64 = 4;
/// Timed repetitions per shard leg (best-of, as above).
const SHARD_REPS: usize = 2;

/// Shard-scaling measurement (record-only, no gate — the baseline later
/// distributed work is compared against): the same `SHARD_RUNS`-run matvec
/// campaign supervised as 1 shard and as `SHARD_FANOUT` thread-worker
/// shards, `parallelism: 1` inside each worker so the shard fan-out is the
/// only parallelism. Asserts the two merged outcome CSVs are identical
/// (shard count must never change results), then returns
/// `(runs/sec @ 1 shard, runs/sec @ SHARD_FANOUT shards, speedup)`.
fn measure_shard_scaling() -> (f64, f64, f64) {
    let campaign = |shards: u64| {
        Campaign::new(
            matvec_app(),
            CampaignConfig {
                runs: SHARD_RUNS,
                seed: 0x5CA1E,
                shards,
                parallelism: 1,
                classes: vec![InsnClass::FpArith, InsnClass::Mov],
                rank_pool: RankPool::Random,
                ..CampaignConfig::default()
            },
        )
    };
    let dir = std::env::temp_dir().join(format!("chaser-perf-shard-{}", std::process::id()));
    let mut best = [0.0f64; 2];
    let mut csvs: [Option<String>; 2] = [None, None];
    for _ in 0..SHARD_REPS {
        for (i, shards) in [1, SHARD_FANOUT].into_iter().enumerate() {
            // Fresh journals each rep: shard journals resume, and a
            // resumed rep would measure nothing.
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("shard scaling dir");
            let t0 = Instant::now();
            let result = campaign(shards)
                .run_sharded(&dir.join("campaign.jsonl"))
                .expect("shard scaling campaign");
            let secs = t0.elapsed().as_secs_f64();
            best[i] = best[i].max(SHARD_RUNS as f64 / secs);
            csvs[i] = Some(result.to_csv());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        csvs[0], csvs[1],
        "outcome CSV must be byte-identical across shard counts"
    );
    (best[0], best[1], best[1] / best[0].max(1e-9))
}

fn main() {
    // Correctness gates first: a speedup measured on a divergent engine
    // would be meaningless.
    let (stats_on, stats_off) = assert_campaign_identity();
    assert_provenance_identity();
    assert_state_digest_identity();
    println!("perf_smoke: correctness gates passed (outcome CSV, provenance exports, state digest byte-identical)");

    // Rank-parallelism scaling: digest-gated, then timed.
    let prog = loop_program();
    let (rank_serial_ips, rank_parallel_ips, capacity, rank_pstats) =
        assert_and_measure_rank_scaling(&prog);
    let rank_speedup = rank_parallel_ips / rank_serial_ips.max(1.0);
    let rank_threads = rank_threads();
    println!("perf_smoke: rank-parallel scaling ({SCALING_RANKS} ranks, best of {RANK_REPS}):");
    println!("  serial   (rank_threads=1)            : {rank_serial_ips:>12.0}");
    println!("  parallel (rank_threads={rank_threads})            : {rank_parallel_ips:>12.0}");
    println!("  speedup (digest-identical)           : {rank_speedup:.2}x");
    println!("  host raw {rank_threads}-thread capacity        : {capacity:.2}x");
    println!(
        "  parallel-run counters: {}/{} rounds parallel, {:.3} imbalance",
        rank_pstats.parallel_rounds,
        rank_pstats.rounds,
        rank_pstats.imbalance()
    );

    // Shard scaling: record-only baseline for later distributed work.
    let (shard_1_rps, shard_n_rps, shard_speedup) = measure_shard_scaling();
    println!(
        "perf_smoke: shard scaling ({SHARD_RUNS}-run campaign, thread workers, best of {SHARD_REPS}):"
    );
    println!("  1 shard                              : {shard_1_rps:>12.1} runs/sec");
    println!("  {SHARD_FANOUT} shards                             : {shard_n_rps:>12.1} runs/sec");
    println!("  speedup (CSV-identical, record-only) : {shard_speedup:.2}x");
    // The raw speedup is only meaningful next to what this host's threads
    // can deliver at all: on a cgroup-throttled box the {SHARD_FANOUT}-way
    // capacity itself sits near (or below) 1x, and a sub-1x shard speedup
    // reflects the host ceiling plus per-shard journal overhead, not a
    // sharding regression.
    let shard_capacity = host_parallel_capacity(SHARD_FANOUT as usize);
    println!("  host raw {SHARD_FANOUT}-thread capacity        : {shard_capacity:.2}x");

    let json = format!(
        "{{\n  \"campaign_chain_hits_on\": {},\n  \
         \"campaign_chain_hits_off\": {},\n  \
         \"ranks_workload\": \"hotloop x {SCALING_RANKS} ranks, one per node\",\n  \
         \"rank_threads\": {rank_threads},\n  \
         \"rank_serial_insns_per_sec\": {rank_serial_ips:.0},\n  \
         \"rank_parallel_insns_per_sec\": {rank_parallel_ips:.0},\n  \
         \"rank_parallel_speedup\": {rank_speedup:.3},\n  \
         \"host_parallel_capacity\": {capacity:.3},\n  \
         \"rank_parallel_rounds\": {},\n  \
         \"rank_imbalance\": {:.3},\n  \
         \"shard_workload\": \"matvec campaign x {SHARD_RUNS} runs, thread-worker shards\",\n  \
         \"shard_1_runs_per_sec\": {shard_1_rps:.1},\n  \
         \"shard_{SHARD_FANOUT}_runs_per_sec\": {shard_n_rps:.1},\n  \
         \"shard_speedup\": {shard_speedup:.3},\n  \
         \"shard_host_capacity\": {shard_capacity:.3},\n  \
         \"shard_note\": \"shard_speedup is bounded by shard_host_capacity (raw \
         {SHARD_FANOUT}-thread scaling of this host) plus per-shard journal overhead; \
         sub-1.0 on a throttled container is a host ceiling, not a sharding regression\"\n}}\n",
        stats_on.tb_chain_hits,
        stats_off.tb_chain_hits,
        rank_pstats.parallel_rounds,
        rank_pstats.imbalance(),
    );
    std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
    println!("perf_smoke: wrote BENCH_engine.json");
    println!("perf_smoke: PASS");
}
