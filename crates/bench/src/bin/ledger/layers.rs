//! The layer pass: times calls into each crate's public functions from
//! outside, and reads the exact counters the `*Stats` structs carry. This
//! file (with `trace.rs`) is the only part of the ledger that knows layer
//! internals; the end-to-end pass never does.
//!
//! Two kinds of numbers come out. *Fixed-input* timings use the same inputs
//! whatever the workload (clamr256 text for the decoder and translator,
//! lud48 for the interpreter, a bfs512 job for the service path), so they
//! isolate a layer. *Workload* numbers are measured on the workload's own
//! application, or counted over the reports of its traced runs.

use crate::e2e::{self, Scratch, Served};
use crate::stats::{self, median, median_of, ns_per_op, tail, time_s};
use crate::trace::{ledger_header, run_once, run_options, warm_options, Traced};
use crate::workloads::{self, Workload};
use chaser::{
    merge_shard_journals, prepare_app, profile_app, shard_journal_path, warm_start_for, Campaign,
    CampaignConfig, CampaignJournal, CampaignResult, JournalRow, PreparedApp, RunOutcome,
    ShardMeta,
};
use chaser_isa::{decode, FReg, Program, Reg, CODE_BASE, DATA_BASE, INSN_LEN};
use chaser_mpi::{Cluster, ClusterConfig};
use chaser_serve::{read_frame, status, write_frame, CampaignSpec, Frame, PreparedPool};
use chaser_taint::{ProvSet, ShadowMem, TaintMask, TaintPolicy, TaintState};
use chaser_tainthub::{MsgId, TaintHub};
use chaser_tcg::{translate_block, SliceFetcher, TbCache};
use chaser_vm::{Node, SliceExit, DEFAULT_PHYS_BYTES};
use chaser_workloads::{bfs, clamr, lud};
use std::hint::black_box;
use std::io::BufReader;
use std::time::Instant;

/// `(metric name, value)` pairs, in no particular order.
pub type Values = Vec<(&'static str, f64)>;

/// Runs per tenant of the fixed service probe behind `serve.*`.
const SERVE_PROBE_RUNS: u64 = 1500;
/// Rows of the journal behind the read / merge / render timings.
const JOURNAL_ROWS: u64 = 6000;

// ---- isa, tcg ----

fn decode_and_translate(out: &mut Values) {
    let text = clamr::program(&workloads::clamr_config()).code().to_vec();
    let len = INSN_LEN as usize;
    let insns = text.len() / len;
    out.push((
        "isa.decode_ns",
        ns_per_op(31, insns, |i| {
            let at = (i % insns) * len;
            black_box(decode(black_box(&text[at..at + len])).is_ok());
        }),
    ));

    // A linear sweep: every block head the text has when entered from the
    // top, hook-free, so every block translates clean.
    let fetcher = SliceFetcher::new(CODE_BASE, &text);
    let end = CODE_BASE + text.len() as u64;
    let sweep_ns = median_of(15, || {
        let t = Instant::now();
        let (mut pc, mut translated) = (CODE_BASE, 0usize);
        while pc < end {
            let tb = translate_block(black_box(&fetcher), pc, None);
            let n = tb.insns().len().max(1);
            translated += n;
            pc += n as u64 * INSN_LEN;
        }
        t.elapsed().as_secs_f64() * 1e9 / translated as f64
    });
    out.push(("tcg.translate_ns_per_insn", sweep_ns));

    let mut cache = TbCache::new();
    cache.get_or_translate(1, CODE_BASE, || translate_block(&fetcher, CODE_BASE, None));
    out.push((
        "tcg.cache_hit_ns",
        ns_per_op(31, 20_000, |_| {
            black_box(cache.get_or_translate(1, black_box(CODE_BASE), || unreachable!("resident")));
        }),
    ));
}

// ---- vm ----

/// Runs `program` to exit on a single node; returns Minsn/s. With
/// `seed_taint`, the whole data section, `F0` and `R1` start tainted, so
/// the factorization carries live taint from its first load.
fn node_minsns_per_sec(program: &Program, policy: TaintPolicy, seed_taint: bool) -> f64 {
    let mut node = Node::with_config(0, DEFAULT_PHYS_BYTES, policy);
    let pid = node.spawn(program).expect("spawn");
    if seed_taint {
        node.write_guest_taint(pid, DATA_BASE, &vec![0x0f; program.data().len()])
            .expect("taint the data section");
        node.taint_mut().set_freg(FReg::F0, TaintMask(0xff));
        node.taint_mut().set_reg(Reg::R1, TaintMask(0xff));
    }
    let t = Instant::now();
    loop {
        match node.run_slice(pid, 1_000_000) {
            SliceExit::Exited(_) => break,
            SliceExit::QuantumExpired => {}
            other => panic!("unexpected slice exit {other:?}"),
        }
    }
    let secs = t.elapsed().as_secs_f64();
    let stats = node.engine_stats();
    assert_eq!(
        stats.slow_path_insns > 0,
        seed_taint,
        "taint seeding must decide the memory tier: {stats:?}"
    );
    node.total_icount() as f64 / secs / 1e6
}

fn interpreter(out: &mut Values) {
    let lud48 = lud::program(&workloads::LUD);
    let rate =
        |policy, seed_taint| median_of(9, || node_minsns_per_sec(&lud48, policy, seed_taint));
    out.push((
        "vm.clean_minsns_per_sec",
        rate(TaintPolicy::Disabled, false),
    ));
    out.push((
        "vm.taint_idle_minsns_per_sec",
        rate(TaintPolicy::Precise, false),
    ));
    out.push((
        "vm.tainted_minsns_per_sec",
        rate(TaintPolicy::Precise, true),
    ));

    let bfs512 = bfs::program(&workloads::bfs_config());
    out.push((
        "vm.node_spawn_us",
        ns_per_op(51, 1, |_| {
            let mut node = Node::with_config(0, DEFAULT_PHYS_BYTES, TaintPolicy::Disabled);
            black_box(node.spawn(&bfs512).expect("spawn"));
        }) / 1e3,
    ));
}

// ---- taint, tainthub ----

fn taint_and_hub(out: &mut Values) {
    // 64 shadow pages, visited in a fixed scattered order; half the masks
    // are clean so both the set and the clear paths run.
    const PAGES: u64 = 64;
    let addr = |i: usize| {
        let slot = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        (slot % (PAGES * 512)) * 8
    };
    let mask = |i: usize| {
        TaintMask(if i.is_multiple_of(2) {
            0x00ff_00ff_0000_ff00
        } else {
            0
        })
    };
    let mut shadow = ShadowMem::new();
    out.push((
        "taint.shadow_store8_ns",
        ns_per_op(31, 50_000, |i| shadow.store8(black_box(addr(i)), mask(i))),
    ));
    out.push((
        "taint.shadow_load8_ns",
        ns_per_op(31, 50_000, |i| {
            black_box(shadow.load8(black_box(addr(i))));
        }),
    ));
    let mut state = TaintState::new(TaintPolicy::Precise);
    out.push((
        "taint.prov_store8_ns",
        ns_per_op(31, 50_000, |i| {
            state.prov_store8(
                black_box(addr(i)),
                mask(i),
                ProvSet::single(1 + (i % 4) as u32),
            );
        }),
    ));

    let hub = TaintHub::new();
    let id = MsgId {
        src: 0,
        dest: 1,
        tag: 100,
    };
    out.push((
        "tainthub.publish_poll_ns",
        ns_per_op(31, 5_000, |i| {
            hub.publish_full(id, i as u64, vec![1u8; 512], 0, Vec::new());
            black_box(hub.poll_matching(id, i as u64).expect("just published"));
        }),
    ));
}

// ---- core journal / merge / render, serve codec ----

/// A bfs512 campaign small enough to run in milliseconds, whose rows stand
/// in for "a representative row" wherever one is needed.
fn row_pool(seed: u64) -> CampaignResult {
    let w = workloads::find("served_bfs_2tenant").expect("workload");
    Campaign::new(
        workloads::build_app(w),
        workloads::campaign_config(w, seed, 64),
    )
    .run()
}

fn journal_and_codec(pool: &CampaignResult, scratch: &Scratch, out: &mut Values) {
    let rows: Vec<RunOutcome> = (0..JOURNAL_ROWS)
        .map(|i| RunOutcome {
            run_idx: i,
            ..pool.outcomes[i as usize % pool.outcomes.len()].clone()
        })
        .collect();
    let header = ledger_header(0, JOURNAL_ROWS, pool.trace_regime);
    let path = shard_journal_path(&scratch.path("layers.jsonl"), 0);
    let meta = ShardMeta {
        shard: 0,
        start: 0,
        end: JOURNAL_ROWS,
    };
    // No fsync here: this journal only feeds the readers below.
    let journal = CampaignJournal::create_shard(&path, header, meta, 0).expect("create journal");
    for row in &rows {
        journal.append_outcome(row).expect("append");
    }
    drop(journal);
    let krows = |secs: f64| JOURNAL_ROWS as f64 / secs / 1e3;
    out.push((
        "core.journal_read_krows_per_sec",
        median_of(7, || {
            krows(time_s(|| CampaignJournal::read_shard(&path).expect("read")).0)
        }),
    ));
    let paths = std::slice::from_ref(&path);
    out.push((
        "core.shard_merge_krows_per_sec",
        median_of(7, || {
            krows(time_s(|| merge_shard_journals(paths, &header).expect("merge")).0)
        }),
    ));
    let big = CampaignResult {
        outcomes: rows,
        ..pool.clone()
    };
    out.push((
        "core.csv_render_ms",
        median_of(7, || time_s(|| black_box(big.to_csv().len())).0 * 1e3),
    ));

    let row = chaser::parse_json(
        &JournalRow::Outcome(Box::new(big.outcomes[0].clone())).canonical_line(),
    )
    .expect("row json");
    let frame = Frame::Row { job: 7, row };
    let mut wire = Vec::new();
    out.push((
        "serve.frame_encode_ns",
        ns_per_op(31, 2_000, |_| {
            wire.clear();
            write_frame(&mut wire, black_box(&frame)).expect("encode");
        }),
    ));
    out.push((
        "serve.frame_decode_ns",
        ns_per_op(31, 2_000, |_| {
            let mut reader = BufReader::new(black_box(&wire[..]));
            black_box(read_frame(&mut reader).expect("decode").expect("one frame"));
        }),
    ));
    let spec = workloads::served_spec("tenant-a", 1, SERVE_PROBE_RUNS);
    out.push((
        "serve.spec_roundtrip_us",
        ns_per_op(31, 500, |_| {
            black_box(CampaignSpec::from_line(&black_box(&spec).to_line()).expect("round trip"));
        }) / 1e3,
    ));
}

// ---- serve: the fixed service probe ----

fn service_probe(seed: u64, scratch: &Scratch, out: &mut Values) {
    let w = workloads::find("served_bfs_2tenant").expect("workload");
    let twin = Campaign::new(
        workloads::build_app(w),
        workloads::campaign_config(w, seed, SERVE_PROBE_RUNS),
    );
    let prepared = twin.prepare();

    let pool = PreparedPool::new(4);
    pool.get_or_prepare("probe", || prepared.clone());
    out.push((
        "serve.pool_hit_us",
        ns_per_op(31, 2_000, |_| {
            black_box(pool.get_or_prepare(black_box("probe"), || unreachable!("resident")));
        }) / 1e3,
    ));

    let (_, served) = Served::start(&scratch.path("probe-daemon"), seed);
    out.push((
        "serve.status_rtt_us",
        median_of(101, || {
            time_s(|| status(&served.endpoint).expect("status")).0 * 1e6
        }),
    ));
    let (served_s, jobs) = e2e::two_tenants(&served.endpoint, seed, SERVE_PROBE_RUNS);
    served.stop();
    assert!(
        jobs.iter()
            .all(|j| j.failed == 0 && j.rows == SERVE_PROBE_RUNS),
        "service probe lost rows: {jobs:?}"
    );
    let mean = |f: fn(&e2e::TenantJob) -> f64| jobs.iter().map(f).sum::<f64>() / 2.0 * 1e3;
    out.push(("serve.first_row_ms", mean(|j| j.first_row_s)));
    out.push(("serve.done_lag_ms", mean(|j| j.done_lag_s)));

    // The same two campaigns, concurrently, with no daemon in between.
    let (direct_s, _) = time_s(|| {
        std::thread::scope(|s| {
            for tenant in ["a", "b"] {
                let (twin, prepared) = (&twin, &prepared);
                let base = scratch.path(&format!("direct-{tenant}.jsonl"));
                s.spawn(move || {
                    let result = twin
                        .run_sharded_with(prepared, &base, None)
                        .expect("direct campaign");
                    assert_eq!(
                        result.outcomes.len() as u64 + result.skipped,
                        SERVE_PROBE_RUNS
                    );
                });
            }
        });
    });
    out.push(("serve.overhead_share", 1.0 - direct_s / served_s));
}

/// Every fixed-input timing. `seed` only picks the faults of the small bfs
/// campaigns the journal and service probes run.
pub fn fixed_inputs(seed: u64, scratch: &Scratch) -> Values {
    let mut out = Values::new();
    decode_and_translate(&mut out);
    interpreter(&mut out);
    taint_and_hub(&mut out);
    journal_and_codec(&row_pool(seed), scratch, &mut out);
    service_probe(seed, scratch, &mut out);
    out
}

// ---- workload numbers: set-up phases, scheduler rounds ----

/// The cluster configuration the workload's injection runs execute under
/// (what `effective_cluster_cfg` derives inside `chaser`), with
/// `rank_threads` overridable.
fn run_cluster_config(
    prepared: &PreparedApp,
    cfg: &CampaignConfig,
    rank_threads: usize,
) -> ClusterConfig {
    let mut cluster = prepared.app.cluster.clone();
    let (tracing, provenance) = cfg.trace_regime.effective(cfg.tracing, cfg.provenance);
    if !tracing && !provenance {
        cluster.taint_policy = TaintPolicy::Disabled;
    }
    cluster.rank_threads = rank_threads;
    cluster
}

/// A launched, hook-free cluster holding the prepared base caches.
fn launch(prepared: &PreparedApp, cfg: ClusterConfig) -> Cluster {
    let mut cluster = Cluster::new(cfg);
    cluster.install_base_caches(&prepared.base_caches);
    let programs: Vec<&Program> = prepared.app.programs.iter().collect();
    cluster.launch(&programs).expect("launch");
    cluster
}

/// Per-round spans of fault-free runs: `(start_us, round_us, rounds_sum_us)`
/// where `start_us` is what it took to get a runnable cluster (restore from
/// the campaign's checkpoint when it has one, launch otherwise) and
/// `rounds_sum_us` is the per-run total of the round spans.
fn round_spans(prepared: &PreparedApp, cfg: &ClusterConfig) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let per_run = prepared.golden.cluster.rounds.max(1) as usize;
    let reps = 400usize.div_ceil(per_run).clamp(9, 150);
    let (mut starts, mut rounds, mut sums) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        let mut cluster = match &prepared.warm {
            Some(warm) => {
                let mut c = Cluster::from_snapshot(cfg.clone(), &warm.snapshot);
                c.install_base_caches(&prepared.base_caches);
                c
            }
            None => launch(prepared, cfg.clone()),
        };
        starts.push(t.elapsed().as_secs_f64() * 1e6);
        let mut sum = 0.0;
        while !cluster.finished() {
            let t = Instant::now();
            cluster.step_round();
            let us = t.elapsed().as_secs_f64() * 1e6;
            rounds.push(us);
            sum += us;
        }
        sums.push(sum);
    }
    (starts, rounds, sums)
}

fn setup_phases(w: &Workload, cfg: &CampaignConfig, prepared: &PreparedApp, out: &mut Values) {
    const SAMPLES: usize = 11;
    let ms = |f: &mut dyn FnMut()| median_of(SAMPLES, || time_s(&mut *f).0 * 1e3);
    let app = &prepared.app;
    out.push((
        "workloads.build_program_ms",
        ms(&mut || {
            black_box(workloads::build_app(w));
        }),
    ));
    out.push((
        "core.prepare_app_ms",
        ms(&mut || {
            black_box(prepare_app(app, &cfg.classes));
        }),
    ));
    out.push((
        "core.profile_app_ms",
        ms(&mut || {
            black_box(profile_app(app, &cfg.classes));
        }),
    ));
    let (warm_ms, prefix_share) = match &prepared.warm {
        None => (0.0, 0.0),
        Some(warm) => {
            let options = warm_options(cfg, app.nranks());
            (
                ms(&mut || {
                    black_box(warm_start_for(prepared, &options));
                }),
                warm.prefix_insns as f64 / prepared.golden.cluster.total_insns as f64,
            )
        }
    };
    out.push(("core.warm_capture_ms", warm_ms));
    out.push(("core.warm_prefix_share", prefix_share));
}

fn scheduler(cfg: &CampaignConfig, prepared: &PreparedApp, out: &mut Values) {
    let effective = run_cluster_config(prepared, cfg, cfg.rank_threads);
    out.push((
        "mpi.launch_us",
        median_of(21, || {
            time_s(|| black_box(launch(prepared, effective.clone()))).0 * 1e6
        }),
    ));

    // Restore the campaign's own checkpoint when it has one; otherwise one
    // the ledger takes two rounds in, where clamr's safe prefix also ends.
    let mut probe = launch(prepared, effective.clone());
    for _ in 0..2 {
        if !probe.finished() {
            probe.step_round();
        }
    }
    out.push((
        "mpi.snapshot_us",
        median_of(21, || time_s(|| black_box(probe.snapshot())).0 * 1e6),
    ));
    let own = probe.snapshot();
    let checkpoint = prepared.warm.as_ref().map_or(&own, |w| &*w.snapshot);
    out.push((
        "mpi.restore_us",
        median_of(21, || {
            time_s(|| black_box(Cluster::from_snapshot(effective.clone(), checkpoint))).0 * 1e6
        }),
    ));

    let (starts, rounds, sums) = round_spans(prepared, &effective);
    out.push(("mpi.round_us_p50", median(&rounds)));
    out.push(("mpi.round_us_p95", tail(&rounds, 95.0).1));
    let (_, rankpar, _) = round_spans(prepared, &run_cluster_config(prepared, cfg, 2));
    out.push(("mpi.round_us_rankpar_p50", median(&rankpar)));

    // What a run costs beyond getting a cluster and stepping its rounds:
    // hook wiring, VMI replay, report assembly.
    let opts = run_options(cfg, None);
    let fault_free = median_of(sums.len(), || {
        time_s(|| black_box(run_once(prepared, &opts))).0 * 1e6
    });
    out.push((
        "core.run_fixed_us",
        fault_free - median(&starts) - median(&sums),
    ));
}

// ---- workload numbers: exact counts and span statistics ----

fn exact_counts(traced: &Traced, out: &mut Values) {
    let runs = traced.reports.len().max(1) as f64;
    let sum =
        |f: &dyn Fn(&chaser::RunReport) -> u64| traced.reports.iter().map(f).sum::<u64>() as f64;
    let per_run = |f: &dyn Fn(&chaser::RunReport) -> u64| sum(f) / runs;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };

    out.push(("tcg.misses_per_run", per_run(&|r| r.cache_stats.misses)));
    out.push((
        "tcg.translated_insns_per_run",
        per_run(&|r| r.cache_stats.translated_insns),
    ));
    out.push((
        "tcg.base_hit_rate",
        ratio(
            sum(&|r| r.cache_stats.base_hits),
            sum(&|r| r.cache_stats.lookups),
        ),
    ));
    out.push(("tcg.flushes_per_run", per_run(&|r| r.cache_stats.flushes)));
    out.push((
        "tcg.superblocks_formed_per_run",
        per_run(&|r| r.engine_stats.superblocks_formed),
    ));
    out.push((
        "tcg.superblock_bailouts_per_run",
        per_run(&|r| r.engine_stats.superblock_bailouts),
    ));
    out.push((
        "vm.chain_hit_share",
        ratio(
            sum(&|r| r.engine_stats.tb_chain_hits),
            sum(&|r| r.cache_stats.lookups) + sum(&|r| r.engine_stats.tb_chain_hits),
        ),
    ));
    let slow = sum(&|r| r.engine_stats.slow_path_insns);
    out.push((
        "vm.slow_path_mem_share",
        ratio(slow, slow + sum(&|r| r.engine_stats.fast_path_insns)),
    ));
    out.push(("mpi.rounds_per_run", per_run(&|r| r.cluster.rounds)));
    out.push(("mpi.msgs_per_run", per_run(&|r| r.net.sent)));
    out.push(("mpi.bytes_per_run", per_run(&|r| r.net.bytes)));
    out.push(("mpi.pages_cow_per_run", per_run(&|r| r.snapshot.pages_cow)));
    let mut parallel = chaser_mpi::ParallelStats::default();
    for report in &traced.reports {
        parallel.absorb(report.parallel);
    }
    out.push(("mpi.rank_imbalance", parallel.imbalance()));
    out.push(("tainthub.published_per_run", per_run(&|r| r.hub_published)));
    out.push((
        "tainthub.poll_hit_rate",
        ratio(sum(&|r| r.hub_stats.hits), sum(&|r| r.hub_stats.polls)),
    ));
    out.push(("ledger.rows", traced.outcomes.len() as f64));
    out.push(("ledger.skipped", traced.skipped as f64));
    let golden = &traced.prepared.golden.cluster;
    out.push(("ledger.golden_insns", golden.total_insns as f64));
    out.push(("ledger.golden_rounds", golden.rounds as f64));
}

fn span_statistics(
    traced: &Traced,
    untraced: &Traced,
    cfg: &CampaignConfig,
    scratch: &Scratch,
    out: &mut Values,
) -> Vec<String> {
    let rec = &traced.recorder;
    let runs = rec.durations_us("core.run");
    let (p, run_tail) = tail(&runs, 95.0);
    out.push(("core.run_us_p50", median(&runs)));
    out.push(("core.run_us_p95", run_tail));
    out.push((
        "core.classify_us",
        median(&rec.durations_us("core.classify")),
    ));

    // Journal appends are replayed from the traced rows for every
    // workload, at the fsync interval the workload's config carries, so
    // the in-memory campaigns report what journaling would cost them too.
    let path = scratch.path("append.jsonl");
    let header = ledger_header(cfg.seed, cfg.runs, cfg.trace_regime);
    let journal =
        CampaignJournal::create_with(&path, header, cfg.journal_sync_rows).expect("create journal");
    let appends: Vec<f64> = traced
        .outcomes
        .iter()
        .map(|o| time_s(|| journal.append_outcome(o).expect("append")).0 * 1e6)
        .collect();
    let (ap, append_tail) = tail(&appends, 95.0);
    out.push(("core.journal_append_us_p50", median(&appends)));
    out.push(("core.journal_append_us_p95", append_tail));

    let body = rec.find("body").expect("body span");
    let body_ns = rec.spans[body].dur_ns() as f64;
    let own = rec.self_ns();
    out.push(("core.exec_share", runs.iter().sum::<f64>() * 1e3 / body_ns));
    out.push(("core.body_self_share", own[body] as f64 / body_ns));
    out.push((
        "ledger.trace_overhead",
        traced.body_s / untraced.body_s - 1.0,
    ));
    let insns: u64 = untraced.reports.iter().map(|r| r.cluster.total_insns).sum();
    out.push((
        "vm.campaign_minsns_per_sec",
        insns as f64 / untraced.body_s / 1e6,
    ));
    vec![
        format!("core.run_us_p95 is p{p} of n={}", runs.len()),
        format!(
            "core.journal_append_us_p95 is p{ap} of n={} (fsync every {} rows)",
            appends.len(),
            cfg.journal_sync_rows
        ),
        format!(
            "span self times under body sum to {:.4} of the body span",
            rec.subtree_self_ns(body) as f64 / body_ns
        ),
    ]
}

/// Every number measured on the workload itself. Returns the values and
/// human-readable notes on which percentile and sample count each tail used.
pub fn workload(
    w: &Workload,
    cfg: &CampaignConfig,
    traced: &Traced,
    untraced: &Traced,
    scratch: &Scratch,
) -> (Values, Vec<String>) {
    let mut out = Values::new();
    setup_phases(w, cfg, &traced.prepared, &mut out);
    scheduler(cfg, &traced.prepared, &mut out);
    exact_counts(traced, &mut out);
    let notes = span_statistics(traced, untraced, cfg, scratch, &mut out);
    (out, notes)
}

/// The noise guard: `(host.spin_mops, host.spin_drift)` from probes taken
/// before and after the pass.
pub fn host(before: f64, after: f64) -> Values {
    vec![
        ("host.spin_mops", stats::median(&[before, after])),
        ("host.spin_drift", before.max(after) / before.min(after)),
    ]
}
