//! The Chaser terminal — the paper's user workflow in one binary: load a
//! target application, arm an injector with an `inject_fault`-family
//! command, run, and inspect outcome, propagation trace and analysis.
//!
//! Interactive: `cargo run --release -p chaser-bench --bin chaser_cli`
//! Scripted:    `... --bin chaser_cli -- --script "load lud; inject_fault lud fmul 100 51; run; quit"`
//! Service:     `... --bin chaser_cli -- serve /tmp/chaser.sock /tmp/chaser-state`
//!              then `submit`, `status`, `results` and `drain` against the
//!              same endpoint (campaign-as-a-service; see chaser-serve).

use chaser::{
    AppSpec, Campaign, CampaignResult, Chaser, DeterministicInjector, GroupInjector,
    IntermittentInjector, ProbabilisticInjector, RankPool, RunOptions, ShardWorkers, TraceRegime,
};
use chaser_isa::InsnClass;
use chaser_serve::CampaignSpec;
use std::cmp::Reverse;
use std::io::{BufRead, Write};

struct Cli {
    chaser: Chaser,
    app: Option<AppSpec>,
    /// The campaign every `campaign` command starts from: the CLI's fault
    /// model over the loaded app's `(name, size, ranks)`. Subprocess shard
    /// workers rebuild the identical campaign from it (`spec.json`).
    campaign: CampaignSpec,
    golden: Option<chaser::RunReport>,
}

impl Cli {
    fn new() -> Cli {
        let mut chaser = Chaser::new();
        chaser.load_plugin(&mut ProbabilisticInjector);
        chaser.load_plugin(&mut DeterministicInjector);
        chaser.load_plugin(&mut GroupInjector);
        chaser.load_plugin(&mut IntermittentInjector);
        Cli {
            chaser,
            app: None,
            campaign: CampaignSpec {
                runs: 50,
                shards: 0,
                classes: vec![InsnClass::FpArith, InsnClass::Mov],
                rank_pool: RankPool::Random,
                parallelism: 0,
                ..CampaignSpec::default()
            },
            golden: None,
        }
    }

    /// Executes one command line; returns `false` to quit.
    fn exec(&mut self, line: &str) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return true;
        }
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        match cmd {
            "quit" | "exit" => return false,
            "help" => self.help(),
            "apps" => println!(
                "available targets: {}",
                chaser_serve::app_names().join(", ")
            ),
            "load" => {
                let name = parts.next().unwrap_or("");
                let size: usize = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                let ranks: u32 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(4);
                match chaser_serve::build_app(name, size, ranks) {
                    Some(app) => {
                        println!(
                            "loaded `{}`: {} rank(s) on {} node(s)",
                            app.name,
                            app.nranks(),
                            app.cluster.nodes
                        );
                        self.app = Some(app);
                        self.campaign.app = name.to_string();
                        self.campaign.size = size;
                        self.campaign.ranks = ranks;
                        self.golden = None;
                    }
                    None => println!("unknown app `{name}` (try `apps`)"),
                }
            }
            "golden" => match &self.app {
                Some(app) => {
                    let report = chaser::run_app(app, &RunOptions::golden());
                    println!(
                        "golden run: {} insns, {} rounds, outputs {:?} bytes",
                        report.cluster.total_insns,
                        report.cluster.rounds,
                        report.outputs.iter().map(Vec::len).collect::<Vec<_>>()
                    );
                    self.golden = Some(report);
                }
                None => println!("no app loaded (use `load <app>` first)"),
            },
            "run" => self.run_pending(),
            "trace" => self.trace_pending(parts.next() == Some("dot")),
            "campaign" => {
                let mut spec = self.campaign.clone();
                let mut positional = 0;
                for tok in parts {
                    let parsed = if let Some(v) = tok.strip_prefix("sync=") {
                        v.parse().map(|n| spec.journal_sync_rows = n).is_ok()
                    } else if let Some(v) = tok.strip_prefix("hb=") {
                        v.parse()
                            .map(|n| spec.supervision.heartbeat_timeout_ms = n)
                            .is_ok()
                    } else if let Some(v) = tok.strip_prefix("retries=") {
                        v.parse().map(|n| spec.supervision.max_retries = n).is_ok()
                    } else if let Some(v) = tok.strip_prefix("trace=") {
                        set_trace(&mut spec, v)
                    } else if tok == "proc" {
                        spec.subprocess_workers = true;
                        true
                    } else if let Ok(n) = tok.parse::<u64>() {
                        match positional {
                            0 => spec.runs = n,
                            1 => spec.shards = n,
                            _ => {}
                        }
                        positional += 1;
                        true
                    } else {
                        false
                    };
                    if !parsed {
                        println!(
                            "unrecognised campaign argument `{tok}` \
                             (usage: campaign [runs] [shards] [proc] [trace=off|taint|full] \
                             [sync=N] [hb=MS] [retries=N])"
                        );
                        return true;
                    }
                }
                self.run_campaign(&spec);
            }
            "commands" => {
                for spec in self.chaser.commands() {
                    println!("  {}", spec.help);
                }
            }
            _ => match self.chaser.exec_command(line) {
                Ok(msg) => println!("{msg}"),
                Err(e) => println!("error: {e} (try `help`)"),
            },
        }
        true
    }

    fn run_pending(&mut self) {
        let Some(app) = self.app.clone() else {
            println!("no app loaded (use `load <app>` first)");
            return;
        };
        let Some(spec) = self.chaser.take_pending_spec() else {
            println!("no injection armed (use an inject_fault command first)");
            return;
        };
        if self.golden.is_none() {
            println!("(running golden reference first)");
            self.golden = Some(chaser::run_app(&app, &RunOptions::golden()));
        }
        let golden = self.golden.as_ref().expect("set above");

        let report = chaser::run_app(&app, &RunOptions::inject_traced(spec));
        if let Some(rec) = report.injections.first() {
            println!(
                "fault placed: node {} pid {} pc={:#x} `{}` {} {:#018x} -> {:#018x} \
                 (exec #{}, icount {})",
                rec.node,
                rec.pid,
                rec.pc,
                rec.insn,
                rec.operand,
                rec.old_bits,
                rec.new_bits,
                rec.exec_count,
                rec.icount
            );
        } else {
            println!("note: the injector never fired");
        }
        let outcome = report.classify_against(golden);
        println!("outcome: {outcome}");
        if matches!(outcome, chaser::Outcome::Sdc) {
            let regions = report.corrupted_regions(golden);
            println!("corrupted output regions ({}):", regions.len());
            for r in regions.iter().take(6) {
                println!(
                    "  rank {} bytes {}..{} (element {}..)",
                    r.rank,
                    r.offset,
                    r.offset + r.len,
                    r.offset / 8
                );
            }
        }
        if let Some(trace) = &report.trace {
            let peak = if trace.tainted_byte_samples.is_empty() {
                "n/a (run shorter than the sampling interval)".to_string()
            } else {
                format!("{} bytes", trace.peak_tainted_bytes())
            };
            println!(
                "trace: {} tainted reads, {} tainted writes, peak tainted memory {}, \
                 {} cross-rank deliveries",
                trace.taint_reads,
                trace.taint_writes,
                peak,
                report.cluster.cross_rank_tainted_deliveries
            );
        }
        // `inject_traced` records the provenance graph too: the hottest
        // tainted instruction sites (hardening candidates) and def-use
        // flows come from it.
        let Some(graph) = report.provenance.as_ref().filter(|g| !g.sites.is_empty()) else {
            return;
        };
        println!(
            "analysis: {} tainted instruction sites across {} rank(s); hottest:",
            graph.sites.len(),
            graph.rank_reach().len()
        );
        let mut sites: Vec<_> = graph.sites.iter().collect();
        sites.sort_by_key(|s| (Reverse(s.reads + s.writes), s.rank, s.eip));
        for s in sites.iter().take(5) {
            println!(
                "  rank {} pc {:#x}: {} reads, {} writes, first round {}",
                s.rank, s.eip, s.reads, s.writes, s.first_round
            );
        }
        let mut flows: Vec<_> = graph.flow_edges.iter().collect();
        flows.sort_by_key(|f| (Reverse(f.count), f.rank, f.writer_eip, f.reader_eip));
        if !flows.is_empty() {
            println!("hottest taint flows (writer pc -> reader pc):");
            for f in flows.iter().take(3) {
                println!(
                    "  rank {}: {:#x} -> {:#x}  ({}x)",
                    f.rank, f.writer_eip, f.reader_eip, f.count
                );
            }
        }
    }

    /// Runs the armed injection with provenance recording and walks the
    /// resulting cross-rank propagation graph: contamination timeline,
    /// blast radius, message edges and sink classification. With `dot` the
    /// Graphviz export is printed instead of the per-rank listing.
    fn trace_pending(&mut self, dot: bool) {
        let Some(app) = self.app.clone() else {
            println!("no app loaded (use `load <app>` first)");
            return;
        };
        let Some(spec) = self.chaser.take_pending_spec() else {
            println!("no injection armed (use an inject_fault command first)");
            return;
        };
        if self.golden.is_none() {
            println!("(running golden reference first)");
            self.golden = Some(chaser::run_app(&app, &RunOptions::golden()));
        }
        let golden = self.golden.as_ref().expect("set above");

        let report = chaser::run_app(&app, &RunOptions::inject_traced(spec));
        if report.injections.is_empty() {
            println!("note: the injector never fired");
        }
        let outcome = report.classify_against(golden);
        println!("outcome: {outcome}");
        let Some(graph) = &report.provenance else {
            println!("no provenance graph recorded");
            return;
        };
        println!(
            "provenance: {} events ({} dropped), {} sites, {} flow edges, \
             {} cross-rank message edges, digest {:#018x}",
            graph.events.len(),
            graph.dropped_events,
            graph.sites.len(),
            graph.flow_edges.len(),
            graph.msg_edges.len(),
            graph.digest()
        );
        if dot {
            println!("{}", graph.to_dot());
            return;
        }
        let reach = graph.rank_reach();
        println!(
            "rank reach: {} rank(s) {:?}; blast radius {} byte(s)",
            reach.len(),
            reach,
            graph.blast_radius_bytes()
        );
        println!("first contamination round per rank:");
        for (rank, round) in graph.first_contamination_rounds() {
            println!("  rank {rank}: round {round}");
        }
        for e in &graph.msg_edges {
            println!(
                "  msg edge: rank {} -> rank {} tag {:#x} seq {} round {} \
                 ({} tainted byte(s))",
                e.src, e.dest, e.tag, e.seq, e.round, e.tainted_bytes
            );
        }
        let corrupted: Vec<u32> = report
            .corrupted_regions(golden)
            .iter()
            .map(|r| r.rank)
            .collect();
        println!("sink classification (against golden outputs):");
        for sink in graph.classify_sinks(&corrupted) {
            match sink.last_write {
                Some(w) => println!(
                    "  rank {}: {:?} (last tainted write pc={:#x} vaddr={:#x} round {})",
                    sink.rank, sink.kind, w.eip, w.vaddr, w.round
                ),
                None => println!("  rank {}: {:?}", sink.rank, sink.kind),
            }
        }
    }

    /// Runs the campaign `spec` describes over the loaded app (every run
    /// restored from the checkpoint ladder) and dumps outcome counts plus
    /// snapshot statistics.
    /// With `shards > 1` the campaign runs under the shard supervisor in a
    /// fresh journal directory — in-process worker threads by default, or,
    /// with `subprocess_workers`, self-exec `serve-worker` subprocesses
    /// that rebuild the campaign from the directory's `spec.json`, as the
    /// daemon's workers do.
    fn run_campaign(&self, spec: &CampaignSpec) {
        if self.app.is_none() {
            println!("no app loaded (use `load <app>` first)");
            return;
        }
        let workers = if spec.subprocess_workers {
            match std::env::current_exe() {
                Ok(exe) => {
                    ShardWorkers::Subprocess(vec![exe.display().to_string(), "serve-worker".into()])
                }
                Err(e) => {
                    println!("cannot locate own binary for self-exec workers: {e}");
                    return;
                }
            }
        } else {
            ShardWorkers::Thread
        };
        let campaign = match spec.campaign(workers) {
            Ok(c) => c,
            Err(e) => {
                println!("invalid campaign: {e}");
                return;
            }
        };
        let sharded = spec.shards > 1;
        println!(
            "running {} injection runs{}...",
            spec.runs,
            if sharded {
                format!(
                    " ({} supervised {} shards)",
                    spec.shards,
                    if spec.subprocess_workers {
                        "subprocess"
                    } else {
                        "thread"
                    }
                )
            } else {
                String::new()
            }
        );
        let result = if sharded {
            // Fresh journal dir per invocation: shard journals are
            // fingerprint-bound, and a later `campaign` command with other
            // parameters must not trip over this one's files.
            static CAMPAIGNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let nth = CAMPAIGNS.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let dir = std::env::temp_dir().join(format!("chaser-cli-{}-{nth}", std::process::id()));
            let result = run_sharded(&campaign, spec, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            match result {
                Ok(r) => r,
                Err(e) => {
                    println!("sharded campaign failed: {e}");
                    return;
                }
            }
        } else {
            campaign.run()
        };
        let counts = result.outcome_counts();
        let (b, s, t) = counts.percentages();
        println!(
            "outcomes: {} benign ({b:.1}%), {} SDC ({s:.1}%), {} terminated ({t:.1}%), \
             {} skipped",
            counts.benign, counts.sdc, counts.terminated, result.skipped
        );
        let snap = result.snapshot_stats;
        if snap.restores > 0 {
            println!(
                "snapshot stats: {} restores, {} insns skipped, \
                 {} pages shared, {} privatised by CoW",
                snap.restores, snap.insns_skipped, snap.pages_shared, snap.pages_cow
            );
        } else {
            println!(
                "snapshot stats: no restores in this process (runs executed by shard workers)"
            );
        }
        let shard = &result.shard_stats;
        if shard.shards > 1 {
            println!(
                "shard stats: {} shard(s), {} retries, {} reassigned run(s), \
                 {} quarantined run(s)",
                shard.shards, shard.retries, shard.reassignments, shard.quarantined_runs
            );
            for s in &shard.per_shard {
                println!(
                    "  shard {} [{}..{}): {} attempt(s), {} ms",
                    s.shard, s.start, s.end, s.attempts, s.wall_ms
                );
            }
        }
    }

    fn help(&self) {
        println!("commands:");
        println!("  apps                         list loadable applications");
        println!("  load <app> [size] [ranks]    load a target application");
        println!("  golden                       run the fault-free reference");
        println!("  commands                     list injector commands (from plugins)");
        println!("  inject_fault …               arm the deterministic injector");
        println!("  inject_fault_prob …          arm the probabilistic injector");
        println!("  inject_fault_group …         arm the group injector");
        println!("  run                          execute the armed injection (traced)");
        println!("  trace [dot]                  run and walk the propagation provenance graph");
        println!(
            "  campaign [runs] [shards] [proc] [trace=off|taint|full] [sync=N] [hb=MS] [retries=N]"
        );
        println!("                               run an FI campaign (sharded when shards > 1;");
        println!("                               `proc` = subprocess workers; trace=off is the");
        println!("                               native-speed statistical mode, taint/full arm");
        println!("                               the tracing machinery; sync = fsync every");
        println!("                               N journal rows, hb = heartbeat timeout ms,");
        println!("                               retries = worker relaunch budget)");
        println!("  quit                         leave");
    }
}

/// Applies a `trace=` token to `spec`: `full` arms taint tracing plus
/// provenance, `taint` and `off` force their regimes
/// ([`TraceRegime::TaintOnly`] / [`TraceRegime::Off`] — the latter is the
/// native-speed statistical mode). `false` for any other token.
fn set_trace(spec: &mut CampaignSpec, token: &str) -> bool {
    let (tracing, regime) = match token {
        "full" => (true, TraceRegime::default()),
        "taint" => (false, TraceRegime::TaintOnly),
        "off" => (false, TraceRegime::Off),
        _ => return false,
    };
    spec.tracing = tracing;
    spec.provenance = tracing;
    spec.trace_regime = regime;
    true
}

/// Runs `spec`'s campaign under the shard supervisor with its journals in
/// `dir`, beside the spec itself as `spec.json` — a daemon job directory's
/// layout, from which self-exec `serve-worker` subprocesses rebuild the
/// campaign.
fn run_sharded(
    campaign: &Campaign,
    spec: &CampaignSpec,
    dir: &std::path::Path,
) -> Result<CampaignResult, String> {
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join("spec.json"), spec.to_line() + "\n"))
        .map_err(|e| format!("cannot create shard journal dir: {e}"))?;
    campaign
        .run_sharded(&dir.join("campaign.jsonl"))
        .map_err(|e| e.to_string())
}

/// `chaser_cli serve <endpoint> <state-dir> [queue=N] [concurrent=N]
/// [pool=N] [budget=N]` — run the campaign daemon until a client drains
/// it. The endpoint is `tcp:<addr>` or a Unix socket path.
fn serve_main(args: &[String]) -> ! {
    let fail = |msg: String| -> ! {
        eprintln!("serve: {msg}");
        std::process::exit(1);
    };
    let [endpoint, state_dir, rest @ ..] = args else {
        fail(
            "usage: serve <endpoint> <state-dir> [queue=N] [concurrent=N] [pool=N] [budget=N]"
                .to_string(),
        );
    };
    let mut cfg = chaser_serve::ServeConfig::default();
    for tok in rest {
        let parsed = if let Some(v) = tok.strip_prefix("queue=") {
            v.parse().map(|n| cfg.max_queue = n).is_ok()
        } else if let Some(v) = tok.strip_prefix("concurrent=") {
            v.parse().map(|n| cfg.max_concurrent = n).is_ok()
        } else if let Some(v) = tok.strip_prefix("pool=") {
            v.parse().map(|n| cfg.pool_capacity = n).is_ok()
        } else if let Some(v) = tok.strip_prefix("budget=") {
            v.parse().map(|n| cfg.tenant_run_budget = n).is_ok()
        } else {
            false
        };
        if !parsed {
            fail(format!("unrecognised serve option `{tok}`"));
        }
    }
    let daemon = match chaser_serve::Daemon::start(endpoint, std::path::Path::new(state_dir), cfg) {
        Ok(d) => d,
        Err(e) => fail(e.to_string()),
    };
    println!("chaser daemon listening on {endpoint} (state in {state_dir}); drain to stop");
    daemon.wait();
    println!("chaser daemon drained");
    std::process::exit(0);
}

/// Hidden serve-worker mode: the daemon's and the `campaign … proc`
/// subprocess shard workers self-exec `chaser_cli serve-worker` with the
/// shard journal in `CHASER_SHARD_JOURNAL` (its line 2 holds the shard
/// assignment) and the campaign spec in the journal directory's
/// `spec.json`.
fn serve_worker_main() -> ! {
    match chaser_serve::shard_worker_from_spec_env() {
        Ok(true) => std::process::exit(0),
        Ok(false) => {
            eprintln!("serve-worker: no shard journal in the environment");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("serve-worker: {e}");
            std::process::exit(1);
        }
    }
}

/// `chaser_cli submit <endpoint> <spec.json>` — submit a campaign and
/// stream its journal rows until the job finishes, checkpoints or fails.
fn submit_main(args: &[String]) -> ! {
    let fail = |msg: String| -> ! {
        eprintln!("submit: {msg}");
        std::process::exit(1);
    };
    let [endpoint, spec_path] = args else {
        fail("usage: submit <endpoint> <spec.json>".to_string());
    };
    let line = std::fs::read_to_string(spec_path)
        .unwrap_or_else(|e| fail(format!("cannot read {spec_path}: {e}")));
    let spec = chaser_serve::CampaignSpec::from_line(&line).unwrap_or_else(|e| fail(e.to_string()));
    let mut rows = 0u64;
    let terminal = chaser_serve::submit(endpoint, &spec, |job, row| {
        let mut text = String::new();
        chaser::encode_json(row, &mut text);
        println!("job {job}: {text}");
        rows += 1;
    })
    .unwrap_or_else(|e| fail(e.to_string()));
    match terminal {
        chaser_serve::Frame::Done {
            job,
            outcomes,
            skipped,
            quarantined,
        } => {
            println!(
                "job {job} done: {outcomes} outcome(s), {skipped} skipped, \
                 {quarantined} quarantined ({rows} row(s) streamed)"
            );
            std::process::exit(0);
        }
        chaser_serve::Frame::Checkpointed { job, missing } => {
            println!(
                "job {job} checkpointed with {missing} run(s) unfinished; \
                 it resumes when the daemon restarts"
            );
            std::process::exit(0);
        }
        chaser_serve::Frame::Failed { job, reason } => fail(format!("job {job} failed: {reason}")),
        other => fail(format!("unexpected terminal frame {other:?}")),
    }
}

/// `chaser_cli status <endpoint>` — print the daemon's queue, pool and
/// per-job state.
fn status_main(args: &[String]) -> ! {
    let [endpoint] = args else {
        eprintln!("status: usage: status <endpoint>");
        std::process::exit(1);
    };
    let report = match chaser_serve::status(endpoint) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("status: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "daemon: {} | queue depth {} (high water {})",
        if report.draining {
            "draining"
        } else {
            "accepting"
        },
        report.queue_depth,
        report.pool.queue_depth_hwm
    );
    println!(
        "prepared-app pool: {} hit(s), {} miss(es), {} eviction(s)",
        report.pool.prepared_hits, report.pool.prepared_misses, report.pool.prepared_evictions
    );
    for j in &report.jobs {
        println!(
            "  job {} tenant {} runs {} -> {}",
            j.job, j.tenant, j.runs, j.state
        );
    }
    std::process::exit(0);
}

/// `chaser_cli results <endpoint> <job> [--stats|--shards|--pool]` —
/// print a finished job's merged CSV (outcome CSV by default).
fn results_main(args: &[String]) -> ! {
    let fail = |msg: String| -> ! {
        eprintln!("results: {msg}");
        std::process::exit(1);
    };
    let (endpoint, job, which) = match args {
        [endpoint, job] => (endpoint, job, "--outcome"),
        [endpoint, job, which] => (endpoint, job, which.as_str()),
        _ => fail("usage: results <endpoint> <job> [--stats|--shards|--pool]".to_string()),
    };
    let job: u64 = job
        .parse()
        .unwrap_or_else(|_| fail(format!("job id is not a number: `{job}`")));
    let r = chaser_serve::results(endpoint, job).unwrap_or_else(|e| fail(e.to_string()));
    let csv = match which {
        "--outcome" => &r.outcome_csv,
        "--stats" => &r.stats_csv,
        "--shards" => &r.shard_csv,
        "--pool" => &r.pool_csv,
        other => fail(format!("unknown artifact `{other}`")),
    };
    print!("{csv}");
    std::process::exit(0);
}

/// `chaser_cli drain <endpoint>` — gracefully shut the daemon down.
fn drain_main(args: &[String]) -> ! {
    let [endpoint] = args else {
        eprintln!("drain: usage: drain <endpoint>");
        std::process::exit(1);
    };
    match chaser_serve::drain(endpoint) {
        Ok((finished, checkpointed)) => {
            println!(
                "daemon drained: {finished} job(s) finished, \
                 {checkpointed} checkpointed (resumable on restart)"
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("drain: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    match argv.get(1).map(String::as_str) {
        Some("serve") => serve_main(&argv[2..]),
        Some("serve-worker") => serve_worker_main(),
        Some("submit") => submit_main(&argv[2..]),
        Some("status") => status_main(&argv[2..]),
        Some("results") => results_main(&argv[2..]),
        Some("drain") => drain_main(&argv[2..]),
        _ => {}
    }
    let mut cli = Cli::new();

    // Scripted mode: --script "cmd; cmd; cmd"
    if let Some(pos) = argv.iter().position(|a| a == "--script") {
        let script = argv.get(pos + 1).cloned().unwrap_or_default();
        for cmd in script.split(';') {
            println!("chaser> {}", cmd.trim());
            if !cli.exec(cmd) {
                return;
            }
        }
        return;
    }

    println!("Chaser terminal — type `help` for commands");
    let stdin = std::io::stdin();
    loop {
        print!("chaser> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                if !cli.exec(&line) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}
