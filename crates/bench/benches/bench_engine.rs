//! Hot-path engine benchmarks: four interpreter regimes on a hook-free
//! node, under criterion's statistics — cold (no base cache, knobs off),
//! warm (shared base cache, knobs off), chained (warm + TB chaining), and
//! taint-idle (warm + chaining + the taint-idle fast path) — plus
//! intra-run rank parallelism (`rank_threads` 1 vs 4 on
//! 8 compute-bound ranks), the same ladder on a fault-free golden
//! cluster run, and the three campaign trace regimes (`off` / `taint` /
//! `full`) on a small injected campaign.
//!
//! `cargo bench -p chaser-bench --bench bench_engine`

use chaser::{AppSpec, Campaign, CampaignConfig, RankPool, TraceRegime};
use chaser_isa::{Asm, Cond, InsnClass, Program, Reg};
use chaser_mpi::{Cluster, ClusterConfig};
use chaser_tcg::BaseLayer;
use chaser_vm::{ExecTuning, Node, SliceExit};
use chaser_workloads::matvec;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

const LOOP_ITERS: i64 = 20_000;

/// The same memory-heavy read-modify-write loop `perf_smoke` scales
/// across ranks.
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

fn run_to_exit(node: &mut Node, pid: u64) {
    loop {
        match node.run_slice(pid, 1_000_000) {
            SliceExit::Exited(_) => break,
            SliceExit::QuantumExpired => continue,
            other => panic!("unexpected slice exit: {other:?}"),
        }
    }
}

fn run_once(prog: &Program, tuning: ExecTuning, base: Option<&Arc<BaseLayer>>) -> u64 {
    let mut node = Node::new(0);
    node.set_exec_tuning(tuning);
    if let Some(base) = base {
        node.install_base_cache(Arc::clone(base));
    }
    let pid = node.spawn(prog).expect("spawn");
    run_to_exit(&mut node, pid);
    node.total_icount()
}

fn warmed_base(prog: &Program) -> Arc<BaseLayer> {
    let mut node = Node::new(0);
    let pid = node.spawn(prog).expect("spawn");
    run_to_exit(&mut node, pid);
    node.seal_cache()
}

fn regimes(c: &mut Criterion) {
    let prog = loop_program();
    let base = warmed_base(&prog);
    let off = ExecTuning {
        tb_chaining: false,
        taint_fast_path: false,
    };
    let chained = ExecTuning {
        tb_chaining: true,
        taint_fast_path: false,
    };
    // The vendored criterion has no throughput reporting; print the
    // retired-instruction count once so times convert to insns/sec.
    let insns = run_once(&prog, ExecTuning::default(), Some(&base));
    eprintln!("engine/hotloop: {insns} guest insns per iteration");

    let mut group = c.benchmark_group("engine/hotloop");
    group.sample_size(10);
    group.bench_function("cold", |b| b.iter(|| run_once(&prog, off, None)));
    group.bench_function("warm", |b| b.iter(|| run_once(&prog, off, Some(&base))));
    group.bench_function("chained", |b| {
        b.iter(|| run_once(&prog, chained, Some(&base)))
    });
    group.bench_function("taint_idle", |b| {
        b.iter(|| run_once(&prog, ExecTuning::default(), Some(&base)))
    });
    group.finish();
}

/// Intra-run rank parallelism: 8 compute-bound ranks (one per node)
/// advanced by 1 vs 4 compute workers. The coarse quantum keeps round
/// barriers rare, so this measures the parallel compute phase rather than
/// fork/join overhead.
fn rank_threads(c: &mut Criterion) {
    let prog = loop_program();
    let run = |rank_threads: usize| {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 8,
            rank_threads,
            quantum: 100_000,
            ..ClusterConfig::default()
        });
        let programs: Vec<&Program> = (0..8).map(|_| &prog).collect();
        cluster.launch(&programs).expect("launch");
        let result = cluster.run();
        assert!(!result.hang, "compute-bound ranks must not hang");
        result.total_insns
    };
    let insns = run(1);
    eprintln!("engine/rank_threads: {insns} guest insns per iteration");

    let mut group = c.benchmark_group("engine/rank_threads");
    group.sample_size(10);
    group.bench_function("serial", |b| b.iter(|| run(1)));
    group.bench_function("threads_4", |b| b.iter(|| run(4)));
    group.finish();
}

fn golden_cluster(c: &mut Criterion) {
    let mv = matvec::MatvecConfig::default();
    let program = matvec::program(&mv);
    let run = |tuning: ExecTuning| {
        let mut cluster = Cluster::new(ClusterConfig {
            nodes: 2,
            exec_tuning: tuning,
            ..ClusterConfig::default()
        });
        let programs: Vec<&Program> = (0..mv.ranks).map(|_| &program).collect();
        cluster.launch(&programs).expect("launch");
        let result = cluster.run();
        assert!(!result.hang, "fault-free matvec must not hang");
        result.total_insns
    };
    let insns = run(ExecTuning::default());
    eprintln!("engine/golden_matvec: {insns} guest insns per iteration");

    let mut group = c.benchmark_group("engine/golden_matvec");
    group.sample_size(10);
    group.bench_function("knobs_off", |b| {
        b.iter(|| {
            run(ExecTuning {
                tb_chaining: false,
                taint_fast_path: false,
            })
        })
    });
    group.bench_function("knobs_on", |b| b.iter(|| run(ExecTuning::default())));
    group.finish();
}

/// The three campaign trace regimes on a small injected campaign over the
/// hot loop: `off` (statistical mode — fast-path memory tier, outcomes
/// from termination cause + golden digest alone), `taint` (tracing
/// without provenance), `full` (tracing + provenance). The statistical
/// counterpart of the `statistical_smoke` CI gate.
fn trace_regime(c: &mut Criterion) {
    const CAMPAIGN_RUNS: u64 = 16;
    let run = |regime: TraceRegime| {
        let result = Campaign::new(
            AppSpec::single(loop_program()),
            CampaignConfig {
                runs: CAMPAIGN_RUNS,
                seed: 0x57A7,
                parallelism: 2,
                classes: vec![InsnClass::Mov],
                rank_pool: RankPool::Random,
                tracing: regime == TraceRegime::Full,
                provenance: regime == TraceRegime::Full,
                trace_regime: regime,
                ..CampaignConfig::default()
            },
        )
        .run();
        assert_eq!(result.outcomes.len() as u64, CAMPAIGN_RUNS);
    };
    let mut group = c.benchmark_group("engine/trace_regime");
    group.sample_size(10);
    group.bench_function("off", |b| b.iter(|| run(TraceRegime::Off)));
    group.bench_function("taint", |b| b.iter(|| run(TraceRegime::TaintOnly)));
    group.bench_function("full", |b| b.iter(|| run(TraceRegime::Full)));
    group.finish();
}

criterion_group!(benches, regimes, rank_threads, golden_cluster, trace_regime);
criterion_main!(benches);
