//! Campaign-as-a-service end-to-end: two tenants submit concurrent
//! campaigns over a Unix socket and get outcome + stats CSVs byte-identical
//! to the same campaigns run standalone in memory through
//! [`Campaign::run`], across {thread, subprocess} shard workers
//! (one subprocess worker is killed mid-campaign and must be recovered by
//! the daemon's shard supervisor); a resubmission hits the warmed
//! prepared-app pool; `drain` checkpoints an in-flight job whose
//! restart-resumed output is again byte-identical; and admission control
//! rejects unknown applications, exhausted tenant budgets and unknown job
//! ids. Streamed rows are checked by content against the shard journals
//! (the streamer forwards journal lines as bytes), and a hostile frame
//! must cost its connection, not the daemon.
//!
//! Subprocess shard workers self-exec this test binary: the daemon spawns
//! `current_exe serve_worker_entry --exact` with the shard journal in
//! `CHASER_SHARD_JOURNAL`, and the worker rebuilds the campaign from the
//! job directory's `spec.json` (the journal header check proves the
//! rebuild matched the supervisor's) and reads its assignment from the
//! journal's line 2.

#[path = "support/temp_dir.rs"]
mod temp_dir;

use chaser::{
    shard_journal_path, Campaign, CampaignResult, ChaosKind, OperandSel, ShardChaos, ShardPlan,
    ShardSupervision,
};
use chaser_isa::InsnClass;
use chaser_serve::{
    drain, results, shard_worker_from_spec_env, status, submit, CampaignSpec, Daemon, Frame,
    ServeConfig, ServeError,
};
use std::fs;
use std::io::{ErrorKind, Read, Write};
use std::path::Path;
use std::time::Duration;
use temp_dir::TempDir;

/// The argv prefix that re-launches this test binary as a serve worker.
fn self_exec_argv() -> Vec<String> {
    let exe = std::env::current_exe().expect("current exe");
    vec![
        exe.display().to_string(),
        "serve_worker_entry".into(),
        "--exact".into(),
        "--test-threads=1".into(),
        "--quiet".into(),
    ]
}

/// Subprocess worker main, disguised as a test: a plain `cargo test` run
/// sees no `CHASER_SHARD_JOURNAL` and passes trivially; the daemon's
/// self-exec launches land here with a shard assignment to execute.
#[test]
fn serve_worker_entry() {
    shard_worker_from_spec_env().expect("serve shard worker");
}

fn spec_alice(subprocess: bool) -> CampaignSpec {
    CampaignSpec {
        tenant: "alice".into(),
        runs: 10,
        seed: 0xA11CE,
        classes: vec![InsnClass::Mov],
        shards: 2,
        subprocess_workers: subprocess,
        ..CampaignSpec::default()
    }
}

/// On subprocess workers, chaos kills shard 1's first worker (exit(9), the
/// SIGKILL shape) after two journaled rows: the daemon's shard supervisor
/// must relaunch it and resume the shard journal.
fn spec_bob(subprocess: bool) -> CampaignSpec {
    let mut spec = CampaignSpec {
        tenant: "bob".into(),
        runs: 12,
        seed: 0xB0B,
        classes: vec![InsnClass::FpArith, InsnClass::Mov],
        operand: OperandSel::Dst,
        bits_per_fault: 2,
        shards: 3,
        subprocess_workers: subprocess,
        ..CampaignSpec::default()
    };
    if subprocess {
        spec.supervision = ShardSupervision {
            backoff_base_ms: 1,
            backoff_cap_ms: 10,
            ..ShardSupervision::default()
        };
        spec.chaos = vec![ShardChaos {
            shard: 1,
            after_rows: 2,
            attempts: 1,
            kind: ChaosKind::Kill,
        }];
    }
    spec
}

/// The standalone reference: the exact same config run in memory through
/// `Campaign::run`, which shares the per-run worker loop with the shard
/// workers but not the supervisor, the journals or the merge — precisely
/// the byte-identity claim under test. It has no shard workers, so the
/// spec's chaos directives (operational, not fingerprinted) go unused.
fn standalone(spec: &CampaignSpec) -> CampaignResult {
    let (app, cfg) = spec.build().expect("spec builds");
    Campaign::new(app, cfg).run()
}

fn submit_collect(endpoint: &str, spec: &CampaignSpec) -> (u64, Vec<chaser::Json>, Frame) {
    let mut rows = Vec::new();
    let mut job_id = 0;
    let terminal = submit(endpoint, spec, |job, row| {
        job_id = job;
        rows.push(row.clone());
    })
    .expect("submit");
    (job_id, rows, terminal)
}

/// Checks job `job`'s streamed rows against its shard journals in `state`.
/// Exactly once (no worker died): each shard's rows, in stream order, are
/// its journal's row lines. At least once (a worker was killed and its
/// shard resumed): every journal row line was streamed.
fn check_streamed_rows(
    state: &Path,
    job: u64,
    spec: &CampaignSpec,
    rows: &[chaser::Json],
    exactly_once: bool,
) {
    let streamed: Vec<(u64, String)> = rows
        .iter()
        .map(|row| {
            let mut line = String::new();
            chaser::encode_json(row, &mut line);
            (row.u64("run_idx").expect("row has run_idx"), line)
        })
        .collect();
    let base = state.join(format!("job-{job}/campaign.jsonl"));
    for meta in ShardPlan::split(spec.runs, spec.shards).ranges {
        let journal = fs::read_to_string(shard_journal_path(&base, meta.shard))
            .expect("shard journal readable");
        let journaled: Vec<&str> = journal.lines().skip(2).collect();
        let shard_rows: Vec<&str> = streamed
            .iter()
            .filter(|(idx, _)| (meta.start..meta.end).contains(idx))
            .map(|(_, line)| line.as_str())
            .collect();
        if exactly_once {
            assert_eq!(shard_rows, journaled, "job {job} shard {}", meta.shard);
        } else {
            for line in &journaled {
                assert!(
                    shard_rows.contains(line),
                    "job {job} shard {}: journal row never streamed: {line}",
                    meta.shard
                );
            }
        }
    }
}

/// Two tenants, different seeds and fault models, running concurrently on
/// one daemon: both must match their standalone references byte for byte.
fn run_pair(tag: &str, subprocess: bool) {
    let dir = TempDir::new(&format!("serve-{tag}"));
    let endpoint = dir.join("sock").display().to_string();
    let daemon = Daemon::start(
        &endpoint,
        &dir.join("state"),
        ServeConfig {
            max_concurrent: 2,
            worker_argv: Some(self_exec_argv()),
            ..ServeConfig::default()
        },
    )
    .expect("daemon starts");

    let alice = spec_alice(subprocess);
    let bob = spec_bob(subprocess);
    let ((job_a, rows_a, term_a), (job_b, rows_b, term_b)) = std::thread::scope(|s| {
        let ep_a = endpoint.clone();
        let ep_b = endpoint.clone();
        let alice = &alice;
        let bob = &bob;
        let ha = s.spawn(move || submit_collect(&ep_a, alice));
        let hb = s.spawn(move || submit_collect(&ep_b, bob));
        (ha.join().expect("alice"), hb.join().expect("bob"))
    });
    assert!(
        matches!(term_a, Frame::Done { quarantined: 0, .. }),
        "{term_a:?}"
    );
    assert!(
        matches!(term_b, Frame::Done { quarantined: 0, .. }),
        "{term_b:?}"
    );

    for (spec, job, rows, name) in [
        (&alice, job_a, &rows_a, "alice.jsonl"),
        (&bob, job_b, &rows_b, "bob.jsonl"),
    ] {
        let served = results(&endpoint, job).expect("results");
        let reference = standalone(spec);
        assert_eq!(served.outcome_csv, reference.to_csv(), "{name} outcome CSV");
        assert_eq!(served.stats_csv, reference.stats_csv(), "{name} stats CSV");
        // Every journaled row (outcomes + skips) was streamed; where no
        // worker died, at-least-once collapses to exactly-once.
        let journaled = reference.outcomes.len() as u64 + reference.skipped;
        check_streamed_rows(&dir.join("state"), job, spec, rows, spec.chaos.is_empty());
        if spec.chaos.is_empty() {
            assert_eq!(rows.len() as u64, journaled, "{name} streamed rows");
        } else {
            assert!(rows.len() as u64 >= journaled, "{name} streamed rows");
            // The kill was real: the chaos shard took more than one attempt.
            let shard = spec.chaos[0].shard.to_string();
            let attempts: u64 = served
                .shard_csv
                .lines()
                .skip(1)
                .map(|line| line.split(',').collect::<Vec<_>>())
                .find(|cols| cols[0] == shard)
                .map(|cols| cols[3].parse().expect("attempts column"))
                .expect("chaos shard in shards.csv");
            assert!(
                attempts >= 2,
                "{name}: {attempts} attempt(s)\n{}",
                served.shard_csv
            );
        }
    }

    // Alice's fault model was prepared once; resubmitting it must hit the
    // warmed pool (bob's classes differ, so he was a separate miss).
    let (_, _, term) = submit_collect(&endpoint, &alice);
    assert!(matches!(term, Frame::Done { .. }));
    let report = status(&endpoint).expect("status");
    assert!(report.pool.prepared_hits >= 1, "{:?}", report.pool);
    assert!(report.pool.prepared_misses >= 2, "{:?}", report.pool);
    assert!(report.jobs.iter().all(|j| j.state == "done"), "{report:?}");

    let (finished, checkpointed) = drain(&endpoint).expect("drain");
    assert_eq!((finished, checkpointed), (3, 0));
    daemon.wait();
}

#[test]
fn concurrent_tenants_thread_workers_match_standalone() {
    run_pair("pair-thread", false);
}

#[test]
fn concurrent_tenants_subprocess_workers_match_standalone() {
    run_pair("pair-subprocess", true);
}

/// Drain checkpoints an in-flight job at run granularity; a daemon
/// restarted over the same state directory requeues it, resumes from the
/// shard journals, and produces byte-identical merged output.
#[test]
fn drain_checkpoints_and_restart_resumes_byte_identically() {
    let dir = TempDir::new("serve-drain-resume");
    let endpoint = dir.join("sock").display().to_string();
    let state = dir.join("state");
    let cfg = ServeConfig {
        max_concurrent: 1,
        ..ServeConfig::default()
    };
    let daemon = Daemon::start(&endpoint, &state, cfg.clone()).expect("daemon starts");

    // Long and slow on purpose (taint tracing, one worker thread): the
    // drain below must land while runs are still in flight.
    let spec = CampaignSpec {
        tenant: "carol".into(),
        runs: 120,
        seed: 0xCA201,
        classes: vec![InsnClass::Mov],
        tracing: true,
        shards: 2,
        parallelism: 1,
        ..CampaignSpec::default()
    };
    let (first_row_tx, first_row_rx) = std::sync::mpsc::channel();
    let terminal = std::thread::scope(|s| {
        let ep = endpoint.clone();
        let spec = &spec;
        let handle = s.spawn(move || {
            submit(&ep, spec, move |_, _| {
                let _ = first_row_tx.send(());
            })
            .expect("submit")
        });
        // Drain as soon as the campaign demonstrably started streaming.
        first_row_rx.recv().expect("first streamed row");
        let (finished, checkpointed) = drain(&endpoint).expect("drain");
        assert_eq!((finished, checkpointed), (0, 1));
        handle.join().expect("submitter")
    });
    let Frame::Checkpointed { job, missing } = terminal else {
        panic!("expected a checkpointed job, got {terminal:?}");
    };
    assert!(missing > 0, "drain interrupted mid-campaign");
    daemon.wait();

    // Restart over the same state directory: the job is requeued and
    // resumed from its shard journals.
    let daemon = Daemon::start(&endpoint, &state, cfg).expect("daemon restarts");
    loop {
        let report = status(&endpoint).expect("status");
        let summary = report
            .jobs
            .iter()
            .find(|j| j.job == job)
            .expect("job survives restart");
        assert_eq!(summary.tenant, "carol");
        match summary.state.as_str() {
            "done" => break,
            "queued" | "running" => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("job reached `{other}`"),
        }
    }
    let served = results(&endpoint, job).expect("results");
    let reference = standalone(&spec);
    assert_eq!(
        served.outcome_csv,
        reference.to_csv(),
        "resumed outcome CSV"
    );
    assert_eq!(served.stats_csv, reference.stats_csv(), "resumed stats CSV");
    let (finished, checkpointed) = drain(&endpoint).expect("second drain");
    assert_eq!((finished, checkpointed), (1, 0));
    daemon.wait();
}

/// Two tenants submitting the *same* app and fault model under different
/// trace regimes must not share a prepared app — the regime joins the
/// pool key (an Off-regime PreparedApp was warmed without taint hooks and
/// would be wrong to hand to a Full campaign) — and both must stream
/// byte-identical-to-standalone results.
#[test]
fn distinct_trace_regimes_get_distinct_pool_entries() {
    let dir = TempDir::new("serve-regime-pool");
    let endpoint = dir.join("sock").display().to_string();
    let daemon = Daemon::start(
        &endpoint,
        &dir.join("state"),
        ServeConfig {
            max_concurrent: 2,
            ..ServeConfig::default()
        },
    )
    .expect("daemon starts");

    let base = CampaignSpec {
        runs: 10,
        seed: 0x0FF,
        classes: vec![InsnClass::Mov],
        shards: 2,
        ..CampaignSpec::default()
    };
    let off = CampaignSpec {
        tenant: "erin".into(),
        trace_regime: chaser::TraceRegime::Off,
        ..base.clone()
    };
    let full = CampaignSpec {
        tenant: "frank".into(),
        trace_regime: chaser::TraceRegime::Full,
        tracing: true,
        provenance: true,
        ..base
    };
    assert_ne!(
        off.pool_key(),
        full.pool_key(),
        "the trace regime must join the pool key"
    );

    for (spec, name) in [(&off, "erin.jsonl"), (&full, "frank.jsonl")] {
        let (job, rows, term) = submit_collect(&endpoint, spec);
        assert!(
            matches!(term, Frame::Done { quarantined: 0, .. }),
            "{term:?}"
        );
        let served = results(&endpoint, job).expect("results");
        let reference = standalone(spec);
        assert_eq!(served.outcome_csv, reference.to_csv(), "{name} outcome CSV");
        assert_eq!(served.stats_csv, reference.stats_csv(), "{name} stats CSV");
        assert_eq!(
            rows.len() as u64,
            reference.outcomes.len() as u64 + reference.skipped,
            "{name} streamed rows"
        );
        check_streamed_rows(&dir.join("state"), job, spec, &rows, true);
    }

    // Identical app and fault model, different regimes: two pool misses
    // and never a hit.
    let report = status(&endpoint).expect("status");
    assert_eq!(report.pool.prepared_misses, 2, "{:?}", report.pool);
    assert_eq!(report.pool.prepared_hits, 0, "{:?}", report.pool);

    drain(&endpoint).expect("drain");
    daemon.wait();
}

#[test]
fn admission_rejects_unknown_apps_budgets_and_unknown_jobs() {
    let dir = TempDir::new("serve-admission");
    let endpoint = dir.join("sock").display().to_string();
    let daemon = Daemon::start(
        &endpoint,
        &dir.join("state"),
        ServeConfig {
            max_concurrent: 1,
            tenant_run_budget: 15,
            ..ServeConfig::default()
        },
    )
    .expect("daemon starts");

    let unknown = CampaignSpec {
        app: "minesweeper".into(),
        ..CampaignSpec::default()
    };
    let err = submit(&endpoint, &unknown, |_, _| {}).expect_err("unknown app");
    assert!(matches!(err, ServeError::Rejected(_)), "{err}");

    // lud's 3000×3000 matrix does not fit the 64 MiB guest: a spec that
    // cannot launch is turned away at admission, and the daemon keeps
    // serving the jobs after it.
    let oversized = CampaignSpec {
        tenant: "erin".into(),
        app: "lud".into(),
        size: 3000,
        runs: 1,
        ..CampaignSpec::default()
    };
    let err = submit(&endpoint, &oversized, |_, _| {}).expect_err("does not fit the guest");
    assert!(matches!(err, ServeError::Rejected(_)), "{err}");

    let small = CampaignSpec {
        tenant: "dave".into(),
        runs: 10,
        classes: vec![InsnClass::Mov],
        ..CampaignSpec::default()
    };
    let term = submit(&endpoint, &small, |_, _| {}).expect("within budget");
    assert!(matches!(term, Frame::Done { .. }));
    let err = submit(&endpoint, &small, |_, _| {}).expect_err("budget exhausted");
    let ServeError::Rejected(reason) = err else {
        panic!("expected rejection");
    };
    assert!(reason.contains("budget"), "{reason}");

    let err = results(&endpoint, 999).expect_err("unknown job");
    assert!(matches!(err, ServeError::Rejected(_)), "{err}");

    drain(&endpoint).expect("drain");
    daemon.wait();
}

/// A frame nested 100 000 deep once recursed the parser off its
/// connection thread's stack and aborted the whole daemon; a line with no
/// length bound could make it buffer without limit. Each hostile line (the
/// deep nesting, and a valid `status` frame padded past the daemon's 64 KiB
/// request-line cap) is a malformed frame: the daemon drops that
/// connection, answers nothing on it, and keeps serving.
#[test]
fn a_hostile_frame_costs_its_connection_not_the_daemon() {
    let dir = TempDir::new("serve-hostile-frame");
    let endpoint = dir.join("sock").display().to_string();
    let daemon =
        Daemon::start(&endpoint, &dir.join("state"), ServeConfig::default()).expect("starts");

    let nested = "[".repeat(100_000);
    let padded = format!("{{\"frame\":\"status\"}}{}", " ".repeat(70_000));
    // The daemon stops reading mid-line, so closing its end can reset the
    // connection before all of the line is written or the close is read.
    let reset = |e: &std::io::Error| {
        matches!(
            e.kind(),
            ErrorKind::ConnectionReset | ErrorKind::BrokenPipe | ErrorKind::NotConnected
        )
    };
    for hostile in [nested, padded] {
        let mut conn = std::os::unix::net::UnixStream::connect(&endpoint).expect("connect");
        let sent = conn
            .write_all(hostile.as_bytes())
            .and_then(|()| conn.write_all(b"\n"))
            .and_then(|()| conn.shutdown(std::net::Shutdown::Write));
        if let Err(e) = sent {
            assert!(reset(&e), "send hostile frame: {e}");
        }
        let mut reply = Vec::new();
        if let Err(e) = conn.read_to_end(&mut reply) {
            assert!(reset(&e), "daemon closes the connection: {e}");
        }
        assert!(reply.is_empty(), "{}", String::from_utf8_lossy(&reply));
    }

    let report = status(&endpoint).expect("daemon still answers");
    assert!(report.jobs.is_empty(), "{report:?}");
    drain(&endpoint).expect("drain");
    daemon.wait();
}
