//! The traced pass: an in-memory span recorder and a serial driver that
//! runs the first runs of a workload's campaign through the crates' public
//! functions, one span per call into a layer. Spans live in the ledger, not
//! in the crates — instrumenting the crates themselves is a later change.
//!
//! The driver re-derives each run's fault with the campaign's documented
//! per-run formula (`Campaign::one_run`), so its rows must equal the rows
//! an untraced `Campaign::run` produces; the caller checks that and voids
//! the trace otherwise.

use crate::e2e::Scratch;
use crate::workloads::{self, Workload};
use chaser::{
    merge_shard_journals, prepare_app, run_prepared, run_warm, shard_journal_path, warm_start_for,
    CampaignConfig, CampaignJournal, Corruption, InjectionSpec, JournalHeader, Json, PreparedApp,
    ProvenanceGraph, RankPool, RunOptions, RunOutcome, RunReport, ShardMeta, TraceRegime, Trigger,
    WarmStartOptions, JOURNAL_VERSION,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Most run indices the traced pass drives.
pub const TRACED_RUNS: u64 = 240;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>` for calls into a crate; `workload`, `setup`, `body`
    /// and `run` for the ledger's own structure.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Run index, on `run` spans and their children.
    pub run: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory. With recording off, `open`/`close` read no
/// clock and store nothing, which is what `ledger.trace_overhead` compares
/// against.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    /// Every span opened so far, in open order.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; `enabled: false` makes every call a no-op.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, run: Option<u64>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        run: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, run);
        let out = f();
        self.close(id);
        out
    }

    /// Self time per span: its duration minus the time its direct children
    /// cover. The driver is serial, so children never overlap.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// Durations, in microseconds, of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// The first span called `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.name == name)
    }

    /// Sum of self times over `root` and everything below it.
    pub fn subtree_self_ns(&self, root: usize) -> u64 {
        let own = self.self_ns();
        let mut inside = vec![false; self.spans.len()];
        inside[root] = true;
        // Parents are always opened before their children.
        for (i, span) in self.spans.iter().enumerate() {
            if span.parent.is_some_and(|p| inside[p]) {
                inside[i] = true;
            }
        }
        own.iter()
            .zip(&inside)
            .filter(|(_, &inside)| inside)
            .map(|(ns, _)| ns)
            .sum()
    }

    /// The trace file: spans with their self times, integer-only so the
    /// simulator's own JSON codec can read it back.
    pub fn to_json(&self, workload: &str, seed: u64, extra: Vec<(String, Json)>) -> Json {
        let own = self.self_ns();
        let opt = |v: Option<u64>| v.map_or(Json::Null, |n| Json::Num(i128::from(n)));
        let spans = self
            .spans
            .iter()
            .zip(&own)
            .map(|(s, &self_ns)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::Num(i128::from(s.start_ns))),
                    ("end_ns".into(), Json::Num(i128::from(s.end_ns))),
                    ("self_ns".into(), Json::Num(i128::from(self_ns))),
                    ("parent".into(), opt(s.parent.map(|p| p as u64))),
                    ("run".into(), opt(s.run)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("workload".to_string(), Json::Str(workload.into())),
            ("seed".to_string(), Json::Num(i128::from(seed))),
        ];
        fields.extend(extra);
        fields.push(("spans".to_string(), Json::Arr(spans)));
        Json::Obj(fields)
    }
}

/// The per-run tuple the traced and untraced rows are compared on.
pub type RowKey = (u64, String, String, u32, u64, u64);

/// The comparison key of an outcome row.
pub fn row_key(o: &RunOutcome) -> RowKey {
    (
        o.run_idx,
        o.outcome.to_string(),
        format!("{:?}", o.class),
        o.rank,
        o.trigger_n,
        o.total_insns,
    )
}

/// Everything the traced driver hands back.
#[derive(Debug)]
pub struct Traced {
    /// The spans (empty with recording off).
    pub recorder: Recorder,
    /// Outcome rows, in run-index order.
    pub outcomes: Vec<RunOutcome>,
    /// Runs whose fault never fired.
    pub skipped: u64,
    /// One report per driven run (classified or skipped), for the exact
    /// per-run counts.
    pub reports: Vec<RunReport>,
    /// The prepared application the runs executed from.
    pub prepared: PreparedApp,
    /// Wall time of the body (the run loop plus merge), seconds.
    pub body_s: f64,
}

/// The fault of run `idx`, exactly as `Campaign::one_run` draws it; `None`
/// when the drawn rank executes none of the campaign's classes.
pub fn derive_run(
    cfg: &CampaignConfig,
    prepared: &PreparedApp,
    idx: u64,
) -> Option<(InjectionSpec, u64)> {
    let mut rng = SmallRng::seed_from_u64(
        cfg.seed
            .wrapping_add(idx.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let rank = match cfg.rank_pool {
        RankPool::Master => 0,
        RankPool::Random => rng.gen_range(0..prepared.app.nranks()),
    };
    let profile = &prepared.profile_counts;
    let viable: Vec<usize> = (0..cfg.classes.len())
        .filter(|&ci| profile.get(&(rank, ci)).copied().unwrap_or(0) > 0)
        .collect();
    let &class_idx = viable.get(
        rng.gen_range(0..viable.len().max(1))
            .min(viable.len().saturating_sub(1)),
    )?;
    let trigger_n = rng.gen_range(1..=profile[&(rank, class_idx)]);
    let spec = InjectionSpec {
        target_program: prepared.app.name.clone(),
        target_rank: rank,
        class: cfg.classes[class_idx],
        trigger: Trigger::AfterN(trigger_n),
        corruption: Corruption::FlipRandomBits(cfg.bits_per_fault),
        operand: cfg.operand,
        max_injections: 1,
        seed: rng.gen(),
    };
    Some((spec, trigger_n))
}

/// The warm-start capture options `Campaign::prepare` derives from `cfg`.
pub fn warm_options(cfg: &CampaignConfig, nranks: u32) -> WarmStartOptions {
    let (tracing, provenance) = cfg.trace_regime.effective(cfg.tracing, cfg.provenance);
    WarmStartOptions {
        classes: cfg.classes.clone(),
        ranks: match cfg.rank_pool {
            RankPool::Master => vec![0],
            RankPool::Random => (0..nranks).collect(),
        },
        tracing,
        provenance,
        budget: cfg.run_budget,
    }
}

/// The per-run options `Campaign::one_run` derives from `cfg`; `spec: None`
/// is the fault-free run.
pub fn run_options(cfg: &CampaignConfig, spec: Option<InjectionSpec>) -> RunOptions {
    RunOptions {
        spec,
        tracing: cfg.tracing,
        tracer: cfg.tracer,
        provenance: cfg.provenance,
        regime: cfg.trace_regime,
        budget: cfg.run_budget,
        rank_threads: cfg.rank_threads,
        ..RunOptions::default()
    }
}

/// One run the way the campaign executes it: from the warm-start checkpoint
/// when the prepared application carries one, from launch otherwise.
pub fn run_once(prepared: &PreparedApp, opts: &RunOptions) -> RunReport {
    if prepared.warm.is_some() {
        run_warm(prepared, opts, true)
    } else {
        run_prepared(prepared, opts)
    }
}

/// The header of a journal the ledger writes for itself. Nothing but the
/// ledger reads it back, so the fingerprint and digest fields are zero.
pub fn ledger_header(seed: u64, runs: u64, trace_regime: TraceRegime) -> JournalHeader {
    JournalHeader {
        version: JOURNAL_VERSION,
        seed,
        runs,
        config_hash: 0,
        golden_digest: 0,
        trace_regime,
    }
}

/// The row `Campaign::one_run` builds from a fired run's report.
fn build_outcome(
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
        prov_blast_radius: prov.map_or(0, ProvenanceGraph::blast_radius_bytes),
        prov_msg_edges: prov.map_or(0, |g| g.msg_edges.len() as u64),
        prov_digest: prov.map_or(0, ProvenanceGraph::digest),
        total_insns: report.cluster.total_insns,
        record: report.injections.first().cloned(),
        cache_stats: report.cache_stats,
        engine_stats: report.engine_stats,
        parallel: report.parallel,
    }
}

/// Drives run indices `0..n` of `w`'s campaign serially, recording spans
/// when `record` is set. The served workload's runs are journaled the way a
/// shard worker journals them and merged at the end; the others stay in
/// memory, as their campaigns do.
pub fn drive(w: &Workload, seed: u64, n: u64, record: bool, scratch: &Scratch) -> Traced {
    let cfg = workloads::campaign_config(w, seed, n);
    let mut rec = Recorder::new(record);
    let root = rec.open("workload", None, None);

    let setup = rec.open("setup", Some(root), None);
    let app = rec.span("workloads.program", Some(setup), None, || {
        workloads::build_app(w)
    });
    let mut prepared = rec.span("core.prepare_app", Some(setup), None, || {
        prepare_app(&app, &cfg.classes)
    });
    if cfg.warm_start {
        prepared.warm = rec.span("core.warm_start_for", Some(setup), None, || {
            warm_start_for(&prepared, &warm_options(&cfg, app.nranks()))
        });
    }
    rec.close(setup);

    let journal_base = scratch.path(&format!("traced-{}.jsonl", u8::from(record)));
    let shard_path = shard_journal_path(&journal_base, 0);
    let header = ledger_header(seed, n, cfg.trace_regime);
    let journal = (w.tenants > 0).then(|| {
        let meta = ShardMeta {
            shard: 0,
            start: 0,
            end: n,
        };
        CampaignJournal::create_shard(&shard_path, header, meta, cfg.journal_sync_rows)
            .expect("create traced journal")
    });

    let mut outcomes = Vec::new();
    let mut reports = Vec::new();
    let mut skipped = 0;
    let body_t = Instant::now();
    let body = rec.open("body", Some(root), None);
    for idx in 0..n {
        let run = rec.open("run", Some(body), Some(idx));
        let Some((spec, trigger_n)) = derive_run(&cfg, &prepared, idx) else {
            skipped += 1;
            rec.close(run);
            continue;
        };
        let opts = run_options(&cfg, Some(spec.clone()));
        let report = rec.span("core.run", Some(run), Some(idx), || {
            run_once(&prepared, &opts)
        });
        let outcome = rec.span("core.classify", Some(run), Some(idx), || {
            report
                .injected()
                .then(|| build_outcome(idx, &spec, trigger_n, &report, &prepared.golden))
        });
        if let Some(j) = &journal {
            rec.span(
                "core.journal_append",
                Some(run),
                Some(idx),
                || match &outcome {
                    Some(o) => j.append_outcome(o),
                    None => j.append_skip(idx, report.cache_stats),
                },
            )
            .expect("append traced row");
        }
        match outcome {
            Some(o) => outcomes.push(o),
            None => skipped += 1,
        }
        reports.push(report);
        rec.close(run);
    }
    if let Some(j) = journal {
        drop(j);
        let merged = rec.span("core.merge", Some(body), None, || {
            merge_shard_journals(std::slice::from_ref(&shard_path), &header)
        });
        assert_eq!(merged.expect("merge traced journal").len() as u64, n);
    }
    rec.close(body);
    let body_s = body_t.elapsed().as_secs_f64();
    rec.close(root);
    Traced {
        recorder: rec,
        outcomes,
        skipped,
        reports,
        prepared,
        body_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaser::{parse_json, Campaign};

    fn fixed(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut rec = Recorder::new(true);
        rec.spans = vec![
            fixed("body", 0, 100, None),
            fixed("run", 10, 60, Some(0)),
            fixed("core.run", 15, 45, Some(1)),
            fixed("core.classify", 45, 55, Some(1)),
            fixed("run", 60, 90, Some(0)),
            fixed("setup", 200, 230, None),
        ];
        // body: 100 - (50 + 30); first run: 50 - (30 + 10).
        assert_eq!(rec.self_ns(), vec![20, 10, 30, 10, 30, 30]);
        // Self times under a root add up to the root's duration exactly.
        assert_eq!(rec.subtree_self_ns(0), 100);
        assert_eq!(rec.subtree_self_ns(1), 50);
        assert_eq!(rec.durations_us("run"), vec![0.05, 0.03]);
        assert_eq!(rec.find("setup"), Some(5));
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.open("body", None, None);
        assert_eq!(rec.span("run", Some(id), Some(3), || 7), 7);
        rec.close(id);
        assert!(rec.spans.is_empty());
    }

    #[test]
    fn trace_file_round_trips_through_the_simulator_codec() {
        let mut rec = Recorder::new(true);
        let root = rec.open("workload", None, None);
        rec.span("run", Some(root), Some(4), || ());
        rec.close(root);
        let doc = rec.to_json(
            "served_bfs_2tenant",
            u64::MAX,
            vec![("rows".to_string(), Json::Num(240))],
        );
        let mut text = String::new();
        chaser::encode_json(&doc, &mut text);
        let back = parse_json(&text).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(back.u64("seed").expect("seed"), u64::MAX);
        let Some(Json::Arr(spans)) = back.get("spans") else {
            panic!("spans array");
        };
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].u64("run").expect("run"), 4);
        assert_eq!(spans[1].u64("parent").expect("parent"), 0);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }

    #[test]
    fn derived_specs_reproduce_campaign_rows() {
        let w = workloads::find("served_bfs_2tenant").expect("workload");
        let scratch = Scratch::under(&std::env::temp_dir());
        let traced = drive(w, 99, 16, true, &scratch);
        let reference = Campaign::new(
            workloads::build_app(w),
            workloads::campaign_config(w, 99, 16),
        )
        .run();
        assert_eq!(reference.outcomes.len() + reference.skipped as usize, 16);
        assert_eq!(traced.skipped, reference.skipped);
        let traced_rows: Vec<RowKey> = traced.outcomes.iter().map(row_key).collect();
        let untraced_rows: Vec<RowKey> = reference.outcomes.iter().map(row_key).collect();
        assert_eq!(traced_rows, untraced_rows);
        // One run span per index, each with a core.run child.
        assert_eq!(traced.recorder.durations_us("run").len(), 16);
        assert_eq!(
            traced.recorder.durations_us("core.journal_append").len(),
            16
        );
        let body = traced.recorder.find("body").expect("body span");
        assert_eq!(
            traced.recorder.subtree_self_ns(body),
            traced.recorder.spans[body].dur_ns()
        );
    }
}
