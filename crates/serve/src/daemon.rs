//! The campaign daemon: socket front-end, admission control, job queue,
//! executors and graceful drain.
//!
//! One daemon owns a state directory. Every accepted job gets a
//! `job-<id>/` subdirectory holding its `spec.json`, its shard journals,
//! and — once finished — its merged CSV artifacts plus a `done` marker.
//! That directory *is* the job's durable state: a daemon restarted over
//! the same state directory requeues every unfinished job and resumes it
//! from its shard journals, producing output byte-identical to an
//! uninterrupted run (the journal header check proves the respawned
//! campaign matches the submitted spec).
//!
//! Executor threads (at most `max_concurrent`) pull jobs off a bounded
//! queue and run them through [`Campaign::run_sharded_with`] under the
//! daemon-wide [`StopSignal`], so `drain` stops every in-flight shard at
//! run granularity. Submissions stream their outcome rows back over the
//! socket as the shard journals grow — the streamer tails the journal
//! files and only ever advances past complete lines, so torn tails from
//! killed workers are never surfaced. Streaming is at-least-once: a shard
//! retried after a stall can journal a row twice, and the merged result
//! (which dedups) remains the artifact of record.
//!
//! The streamer moves bytes, not rows: each new journal line is spliced
//! into a `row` frame as it is (journal lines are canonical encodings, so
//! the frame is byte-identical to encoding the parsed row), and each poll
//! sweep goes out in one write. A complete journal line that is not valid
//! JSON — which no worker writes — is forwarded too; the client's
//! [`read_frame`] rejects it as `InvalidData`, and the job itself still
//! fails at the merge.

use crate::client::{connect, Stream};
use crate::pool::PreparedPool;
use crate::proto::{
    read_frame, row_frame_head, splice_row_frame, write_frame, Frame, JobResults, JobSummary,
    StatusReport,
};
use crate::spec::CampaignSpec;
use chaser::{shard_journal_path, ShardError, ShardPlan, ShardWorkers, StopSignal};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the row streamer sleeps between journal polls.
const STREAM_POLL: Duration = Duration::from_millis(10);

/// Longest client→daemon frame line, newline included, that a connection
/// may make the daemon buffer. Far above any `submit`, `status`, `results`
/// or `drain` line; the client side reads uncapped (a `results` reply
/// carries merged CSVs).
const MAX_REQUEST_LINE: u64 = 64 * 1024;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most jobs waiting in the queue before submissions are rejected.
    pub max_queue: usize,
    /// Executor threads (concurrent campaigns).
    pub max_concurrent: usize,
    /// Warmed prepared-app pool capacity.
    pub pool_capacity: usize,
    /// Lifetime injection-run budget per tenant; admission charges each
    /// accepted job's `runs` against it and never refunds.
    pub tenant_run_budget: u64,
    /// Argv prefix for subprocess shard workers. `None` means
    /// `[current_exe, "serve-worker"]` — correct when the daemon binary
    /// itself answers the `serve-worker` argv mode.
    pub worker_argv: Option<Vec<String>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_queue: 16,
            max_concurrent: 2,
            pool_capacity: 4,
            tenant_run_budget: 1_000_000,
            worker_argv: None,
        }
    }
}

/// Daemon-side failures.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or state-directory I/O failed.
    Io(io::Error),
    /// A peer (or on-disk spec) violated the protocol.
    Protocol(String),
    /// The daemon rejected the request (admission, unknown job, drain).
    Rejected(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
            ServeError::Protocol(msg) => write!(f, "serve protocol error: {msg}"),
            ServeError::Rejected(reason) => write!(f, "request rejected: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done {
        outcomes: u64,
        skipped: u64,
        quarantined: u64,
    },
    Checkpointed {
        missing: u64,
    },
    Failed(String),
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Checkpointed { .. } => "checkpointed",
            JobState::Failed(_) => "failed",
        }
    }
}

#[derive(Debug)]
struct JobRecord {
    spec: CampaignSpec,
    state: JobState,
}

#[derive(Debug, Default)]
struct Inner {
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, JobRecord>,
    tenants: HashMap<String, u64>,
    queue_hwm: u64,
    running: usize,
    draining: bool,
    shutdown: bool,
}

#[derive(Debug)]
struct Shared {
    cfg: ServeConfig,
    state_dir: PathBuf,
    endpoint: String,
    inner: Mutex<Inner>,
    cv: Condvar,
    stop: StopSignal,
    pool: PreparedPool,
    next_job: AtomicU64,
}

enum Listener {
    Unix(std::os::unix::net::UnixListener),
    Tcp(std::net::TcpListener),
}

impl Listener {
    fn bind(endpoint: &str) -> io::Result<Listener> {
        if let Some(addr) = endpoint.strip_prefix("tcp:") {
            Ok(Listener::Tcp(std::net::TcpListener::bind(addr)?))
        } else {
            // A previous daemon's socket file would make bind fail; a live
            // daemon on the same path is the operator's error either way.
            if Path::new(endpoint).exists() {
                std::fs::remove_file(endpoint)?;
            }
            Ok(Listener::Unix(std::os::unix::net::UnixListener::bind(
                endpoint,
            )?))
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

/// A running campaign daemon. Constructed with [`Daemon::start`]; runs
/// until a client sends [`Frame::Drain`], at which point [`Daemon::wait`]
/// returns.
pub struct Daemon {
    shared: Arc<Shared>,
    accept: JoinHandle<Vec<JoinHandle<()>>>,
    executors: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds `endpoint` (`tcp:<addr>` or a Unix socket path), scans
    /// `state_dir` for jobs left behind by a previous daemon — finished
    /// jobs stay fetchable, unfinished jobs are requeued for resume — and
    /// starts the executor and accept threads.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the socket cannot be bound or the state
    /// directory is unreadable.
    pub fn start(endpoint: &str, state_dir: &Path, cfg: ServeConfig) -> Result<Daemon, ServeError> {
        std::fs::create_dir_all(state_dir)?;
        let listener = Listener::bind(endpoint)?;
        let shared = Arc::new(Shared {
            pool: PreparedPool::new(cfg.pool_capacity),
            cfg,
            state_dir: state_dir.to_path_buf(),
            endpoint: endpoint.to_string(),
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            stop: StopSignal::new(),
            next_job: AtomicU64::new(1),
        });
        recover_state(&shared)?;

        let executors = (0..shared.cfg.max_concurrent.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || executor_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(Daemon {
            shared,
            accept,
            executors,
        })
    }

    /// The endpoint this daemon is listening on.
    pub fn endpoint(&self) -> &str {
        &self.shared.endpoint
    }

    /// Blocks until the daemon has fully drained: accept loop closed,
    /// executors finished, every connection handler done.
    pub fn wait(self) {
        let handlers = self.accept.join().unwrap_or_default();
        for h in handlers {
            let _ = h.join();
        }
        for h in self.executors {
            let _ = h.join();
        }
    }
}

/// Requeues unfinished jobs (and re-registers finished ones) from a state
/// directory left behind by a previous daemon.
fn recover_state(shared: &Arc<Shared>) -> Result<(), ServeError> {
    let mut found: Vec<(u64, CampaignSpec, Option<JobState>)> = Vec::new();
    for entry in std::fs::read_dir(&shared.state_dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(id) = name
            .to_str()
            .and_then(|n| n.strip_prefix("job-"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        let dir = entry.path();
        let Ok(spec_line) = std::fs::read_to_string(dir.join("spec.json")) else {
            continue;
        };
        let spec = CampaignSpec::from_line(&spec_line)
            .map_err(|e| ServeError::Protocol(format!("job-{id}/spec.json: {e}")))?;
        let done = std::fs::read_to_string(dir.join("done"))
            .ok()
            .and_then(|line| chaser::parse_json(line.trim()).ok())
            .map(|v| JobState::Done {
                outcomes: v.u64("outcomes").unwrap_or(0),
                skipped: v.u64("skipped").unwrap_or(0),
                quarantined: v.u64("quarantined").unwrap_or(0),
            });
        found.push((id, spec, done));
    }
    found.sort_by_key(|(id, _, _)| *id);

    let mut inner = shared.inner.lock().unwrap();
    for (id, spec, done) in found {
        shared.next_job.fetch_max(id + 1, Ordering::SeqCst);
        let state = match done {
            Some(state) => state,
            None => {
                *inner.tenants.entry(spec.tenant.clone()).or_insert(0) += spec.runs;
                inner.queue.push_back(id);
                JobState::Queued
            }
        };
        inner.jobs.insert(id, JobRecord { spec, state });
    }
    inner.queue_hwm = inner.queue.len() as u64;
    shared.cv.notify_all();
    Ok(())
}

fn accept_loop(shared: &Arc<Shared>, listener: &Listener) -> Vec<JoinHandle<()>> {
    let mut handlers = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(_) => break,
        };
        if shared.inner.lock().unwrap().shutdown {
            break;
        }
        let shared = Arc::clone(shared);
        handlers.push(std::thread::spawn(move || handle_conn(&shared, stream)));
    }
    handlers
}

fn handle_conn(shared: &Arc<Shared>, stream: Stream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    // EOF, malformed input and over-long lines all end the connection
    // silently.
    while let Ok(Some(frame)) = read_request(&mut reader) {
        let ok = match frame {
            Frame::Submit { spec } => handle_submit(shared, &mut writer, spec),
            Frame::Status => write_frame(&mut writer, &Frame::StatusReport(status_report(shared))),
            Frame::Results { job } => {
                let reply = match results_report(shared, job) {
                    Ok(r) => Frame::ResultsReport(r),
                    Err(reason) => Frame::Rejected { reason },
                };
                write_frame(&mut writer, &reply)
            }
            Frame::Drain => handle_drain(shared, &mut writer),
            // Server-side frames arriving at the server are a peer bug.
            _ => write_frame(
                &mut writer,
                &Frame::Rejected {
                    reason: "unexpected frame".to_string(),
                },
            ),
        };
        if ok.is_err() {
            break;
        }
    }
}

/// Reads one client frame of at most [`MAX_REQUEST_LINE`] bytes; a line
/// that reaches the cap is `InvalidData`, whatever its prefix parses to.
fn read_request(reader: &mut BufReader<Stream>) -> io::Result<Option<Frame>> {
    let mut capped = reader.take(MAX_REQUEST_LINE);
    let frame = read_frame(&mut capped)?;
    if capped.limit() == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request frame reaches the {MAX_REQUEST_LINE}-byte cap"),
        ));
    }
    Ok(frame)
}

/// Admission control: validates the spec, enforces the drain gate, the
/// queue bound and the tenant budget, and — on acceptance — persists the
/// job and charges the tenant. Returns the assigned job id.
fn admit(shared: &Arc<Shared>, spec: &CampaignSpec) -> Result<u64, String> {
    spec.validate().map_err(|e| e.to_string())?;
    let mut inner = shared.inner.lock().unwrap();
    if inner.draining {
        return Err("daemon is draining".to_string());
    }
    if inner.queue.len() >= shared.cfg.max_queue {
        return Err(format!("queue full ({} jobs)", inner.queue.len()));
    }
    let spent = inner.tenants.get(&spec.tenant).copied().unwrap_or(0);
    if spent + spec.runs > shared.cfg.tenant_run_budget {
        return Err(format!(
            "tenant `{}` run budget exhausted ({} of {} used, {} requested)",
            spec.tenant, spent, shared.cfg.tenant_run_budget, spec.runs,
        ));
    }

    let job = shared.next_job.fetch_add(1, Ordering::SeqCst);
    let dir = shared.state_dir.join(format!("job-{job}"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("spec.json"), spec.to_line() + "\n"))
        .map_err(|e| format!("cannot persist job: {e}"))?;

    *inner.tenants.entry(spec.tenant.clone()).or_insert(0) += spec.runs;
    inner.jobs.insert(
        job,
        JobRecord {
            spec: spec.clone(),
            state: JobState::Queued,
        },
    );
    inner.queue.push_back(job);
    inner.queue_hwm = inner.queue_hwm.max(inner.queue.len() as u64);
    shared.cv.notify_all();
    Ok(job)
}

fn handle_submit(shared: &Arc<Shared>, writer: &mut Stream, spec: CampaignSpec) -> io::Result<()> {
    let job = match admit(shared, &spec) {
        Ok(job) => job,
        Err(reason) => return write_frame(writer, &Frame::Rejected { reason }),
    };
    write_frame(writer, &Frame::Accepted { job })?;
    stream_rows(shared, writer, job, &spec)
}

/// Tails one shard journal file: byte offset plus the header/meta lines
/// still to skip. Only complete `\n`-terminated lines are ever consumed,
/// so a torn tail (killed worker) is re-read after the retry trims it.
struct Tail {
    path: PathBuf,
    offset: u64,
    skip: u32,
}

impl Tail {
    /// Appends a `row` frame (after `head`, [`row_frame_head`]) to `out`
    /// for every complete journal line written since the last call.
    fn drain_new_rows(&mut self, head: &str, out: &mut Vec<u8>) {
        let Ok(mut f) = std::fs::File::open(&self.path) else {
            return;
        };
        if f.seek(SeekFrom::Start(self.offset)).is_err() {
            return;
        }
        let mut buf = Vec::new();
        if f.read_to_end(&mut buf).is_err() {
            return;
        }
        let mut consumed = 0usize;
        for line in buf.split_inclusive(|&b| b == b'\n') {
            if line.last() != Some(&b'\n') {
                break;
            }
            consumed += line.len();
            if self.skip > 0 {
                self.skip -= 1;
                continue;
            }
            let row = line.trim_ascii();
            if !row.is_empty() {
                splice_row_frame(head, row, out);
            }
        }
        self.offset += consumed as u64;
    }
}

fn terminal_frame(state: &JobState, job: u64) -> Option<Frame> {
    match state {
        JobState::Queued | JobState::Running => None,
        JobState::Done {
            outcomes,
            skipped,
            quarantined,
        } => Some(Frame::Done {
            job,
            outcomes: *outcomes,
            skipped: *skipped,
            quarantined: *quarantined,
        }),
        JobState::Checkpointed { missing } => Some(Frame::Checkpointed {
            job,
            missing: *missing,
        }),
        JobState::Failed(reason) => Some(Frame::Failed {
            job,
            reason: reason.clone(),
        }),
    }
}

/// Streams journal rows to the submitter until the job reaches a terminal
/// state, then sends the terminal frame.
fn stream_rows(
    shared: &Arc<Shared>,
    writer: &mut Stream,
    job: u64,
    spec: &CampaignSpec,
) -> io::Result<()> {
    let base = shared.state_dir.join(format!("job-{job}/campaign.jsonl"));
    let mut tails: Vec<Tail> = ShardPlan::split(spec.runs, spec.shards)
        .ranges
        .iter()
        .map(|m| Tail {
            path: shard_journal_path(&base, m.shard),
            offset: 0,
            skip: 2, // JournalHeader line + ShardMeta line
        })
        .collect();
    let head = row_frame_head(job);
    let mut sweep = Vec::new();
    loop {
        let state = {
            let inner = shared.inner.lock().unwrap();
            inner.jobs.get(&job).map(|r| r.state.clone())
        };
        let done = state.as_ref().and_then(|s| terminal_frame(s, job));
        sweep.clear();
        for tail in &mut tails {
            tail.drain_new_rows(&head, &mut sweep);
        }
        // The terminal state was read *before* the final sweep, so every
        // row journaled before completion goes out ahead of it, in the
        // same write.
        if let Some(frame) = &done {
            write_frame(&mut sweep, frame)?;
        }
        if !sweep.is_empty() {
            writer.write_all(&sweep)?;
            writer.flush()?;
        }
        if done.is_some() {
            return Ok(());
        }
        std::thread::sleep(STREAM_POLL);
    }
}

fn status_report(shared: &Arc<Shared>) -> StatusReport {
    let inner = shared.inner.lock().unwrap();
    let mut pool = shared.pool.stats();
    pool.queue_depth_hwm = inner.queue_hwm;
    StatusReport {
        draining: inner.draining,
        queue_depth: inner.queue.len() as u64,
        pool,
        jobs: inner
            .jobs
            .iter()
            .map(|(&job, r)| JobSummary {
                job,
                tenant: r.spec.tenant.clone(),
                state: r.state.name().to_string(),
                runs: r.spec.runs,
            })
            .collect(),
    }
}

fn results_report(shared: &Arc<Shared>, job: u64) -> Result<JobResults, String> {
    {
        let inner = shared.inner.lock().unwrap();
        let record = inner
            .jobs
            .get(&job)
            .ok_or_else(|| format!("unknown job {job}"))?;
        if !matches!(record.state, JobState::Done { .. }) {
            return Err(format!("job {job} is {}", record.state.name()));
        }
    }
    let dir = shared.state_dir.join(format!("job-{job}"));
    let read = |name: &str| {
        std::fs::read_to_string(dir.join(name)).map_err(|e| format!("job {job} {name}: {e}"))
    };
    Ok(JobResults {
        job,
        outcome_csv: read("outcome.csv")?,
        stats_csv: read("stats.csv")?,
        shard_csv: read("shards.csv")?,
        pool_csv: read("pool.csv")?,
    })
}

fn handle_drain(shared: &Arc<Shared>, writer: &mut Stream) -> io::Result<()> {
    let (finished, checkpointed) = {
        let mut inner = shared.inner.lock().unwrap();
        inner.draining = true;
        shared.stop.raise();
        shared.cv.notify_all();
        while inner.running > 0 {
            inner = shared.cv.wait(inner).unwrap();
        }
        // Jobs still queued never started; their (empty or resumed-from)
        // job directories are untouched, so a restart requeues them.
        while let Some(job) = inner.queue.pop_front() {
            if let Some(record) = inner.jobs.get_mut(&job) {
                record.state = JobState::Checkpointed {
                    missing: record.spec.runs,
                };
            }
        }
        inner.shutdown = true;
        shared.cv.notify_all();
        let mut finished = 0;
        let mut checkpointed = 0;
        for record in inner.jobs.values() {
            match record.state {
                JobState::Done { .. } => finished += 1,
                JobState::Checkpointed { .. } => checkpointed += 1,
                _ => {}
            }
        }
        (finished, checkpointed)
    };
    let reply = write_frame(
        writer,
        &Frame::Drained {
            finished,
            checkpointed,
        },
    );
    // The accept loop is blocked in accept(); poke it so it observes
    // `shutdown` and exits.
    let _ = connect(&shared.endpoint);
    reply
}

fn executor_loop(shared: &Arc<Shared>) {
    loop {
        let (job, spec) = {
            let mut inner = shared.inner.lock().unwrap();
            loop {
                if inner.shutdown {
                    return;
                }
                if !inner.draining {
                    if let Some(job) = inner.queue.pop_front() {
                        inner.running += 1;
                        let record = inner.jobs.get_mut(&job).expect("queued job is recorded");
                        record.state = JobState::Running;
                        break (job, record.spec.clone());
                    }
                }
                inner = shared.cv.wait(inner).unwrap();
            }
        };
        let state = run_job(shared, job, &spec);
        let mut inner = shared.inner.lock().unwrap();
        if let Some(record) = inner.jobs.get_mut(&job) {
            record.state = state;
        }
        inner.running -= 1;
        shared.cv.notify_all();
    }
}

fn default_worker_argv() -> Vec<String> {
    let exe = std::env::current_exe()
        .map(|p| p.display().to_string())
        .unwrap_or_else(|_| "chaser_cli".to_string());
    vec![exe, "serve-worker".to_string()]
}

/// Runs one job to a terminal state. Never panics the executor: every
/// failure becomes [`JobState::Failed`].
fn run_job(shared: &Arc<Shared>, job: u64, spec: &CampaignSpec) -> JobState {
    let workers = if spec.subprocess_workers {
        ShardWorkers::Subprocess(
            shared
                .cfg
                .worker_argv
                .clone()
                .unwrap_or_else(default_worker_argv),
        )
    } else {
        ShardWorkers::Thread
    };
    let campaign = match spec.campaign(workers) {
        Ok(c) => c,
        Err(e) => return JobState::Failed(e.to_string()),
    };
    let prepared = shared
        .pool
        .get_or_prepare(&spec.pool_key(), || campaign.prepare());
    let dir = shared.state_dir.join(format!("job-{job}"));
    match campaign.run_sharded_with(&prepared, &dir.join("campaign.jsonl"), Some(&shared.stop)) {
        Ok(mut result) => {
            let outcomes = result.outcomes.len() as u64;
            let skipped = result.skipped;
            let quarantined = result.shard_stats.quarantined_runs;
            let mut pool = shared.pool.stats();
            pool.queue_depth_hwm = shared.inner.lock().unwrap().queue_hwm;
            result.pool_stats = pool;
            let mut marker = String::new();
            chaser::encode_json(
                &chaser::Json::Obj(vec![
                    ("outcomes".to_string(), chaser::Json::Num(outcomes.into())),
                    ("skipped".to_string(), chaser::Json::Num(skipped.into())),
                    (
                        "quarantined".to_string(),
                        chaser::Json::Num(quarantined.into()),
                    ),
                ]),
                &mut marker,
            );
            marker.push('\n');
            let persist = std::fs::write(dir.join("outcome.csv"), result.to_csv())
                .and_then(|()| std::fs::write(dir.join("stats.csv"), result.stats_csv()))
                .and_then(|()| std::fs::write(dir.join("shards.csv"), result.shard_stats.to_csv()))
                .and_then(|()| std::fs::write(dir.join("pool.csv"), result.pool_stats.to_csv()))
                // The `done` marker is written last: its presence implies
                // every artifact above it is complete.
                .and_then(|()| std::fs::write(dir.join("done"), marker));
            match persist {
                Ok(()) => JobState::Done {
                    outcomes,
                    skipped,
                    quarantined,
                },
                Err(e) => JobState::Failed(format!("cannot persist results: {e}")),
            }
        }
        Err(ShardError::Interrupted { missing }) => JobState::Checkpointed { missing },
        Err(e) => JobState::Failed(e.to_string()),
    }
}

/// The subprocess shard-worker entry point for served campaigns.
///
/// Returns `Ok(false)` when the shard environment protocol
/// (`CHASER_SHARD_*`) is absent — the caller is a normal invocation, not
/// a worker. Otherwise reads `spec.json` from the job directory (the
/// shard journal's parent), rebuilds the identical campaign, and runs the
/// assigned shard; the journal header check proves the rebuild matched.
///
/// # Errors
///
/// [`ServeError`] when the spec is unreadable or the shard run fails.
pub fn shard_worker_from_spec_env() -> Result<bool, ServeError> {
    let Ok(journal) = std::env::var(chaser::ENV_SHARD_JOURNAL) else {
        return Ok(false);
    };
    let dir = Path::new(&journal)
        .parent()
        .ok_or_else(|| ServeError::Protocol(format!("shard journal `{journal}` has no parent")))?;
    let spec_line = std::fs::read_to_string(dir.join("spec.json"))?;
    let spec = CampaignSpec::from_line(&spec_line)
        .map_err(|e| ServeError::Protocol(format!("{}: {e}", dir.join("spec.json").display())))?;
    // Worker kind is not part of the config fingerprint, so Thread here
    // still matches the supervisor's journal header.
    let campaign = spec
        .campaign(ShardWorkers::Thread)
        .map_err(|e| ServeError::Protocol(e.to_string()))?;
    campaign
        .shard_worker_from_env()
        .map_err(|e| ServeError::Protocol(e.to_string()))?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::journals;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chaser-daemon-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn spliced_row_frames_are_the_encoded_row_frames() {
        let dir = temp_dir("splice");
        let head = row_frame_head(9);
        for journal in journals() {
            let mut expected = Vec::new();
            for row in journal.rows() {
                let row = chaser::parse_json(row).expect("journal row parses");
                write_frame(&mut expected, &Frame::Row { job: 9, row }).expect("encode");
            }
            // The tail first sees the journal cut mid-line (inside the
            // header, mid-file, inside the last row), then whole: only
            // complete lines past the two preamble lines become frames.
            let len = journal.bytes.len();
            for cut in [10, len / 2, len - 3] {
                let path = dir.join(format!("{}.jsonl", journal.name));
                std::fs::write(&path, &journal.bytes[..cut]).expect("write prefix");
                let mut tail = Tail {
                    path: path.clone(),
                    offset: 0,
                    skip: 2,
                };
                let mut spliced = Vec::new();
                tail.drain_new_rows(&head, &mut spliced);
                std::fs::write(&path, &journal.bytes).expect("write whole");
                tail.drain_new_rows(&head, &mut spliced);
                assert_eq!(
                    String::from_utf8(spliced).expect("UTF-8"),
                    String::from_utf8(expected.clone()).expect("UTF-8"),
                    "{} cut at {cut}",
                    journal.name
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupt_complete_line_reaches_the_client_as_invalid_data() {
        let dir = temp_dir("corrupt");
        let path = dir.join("j.jsonl");
        let journal = &journals()[0];
        let mut bytes = journal.bytes.clone();
        bytes.extend_from_slice(b"{\"run_idx\":3,\"outco\n");
        std::fs::write(&path, &bytes).expect("write");
        let mut tail = Tail {
            path,
            offset: 0,
            skip: 2,
        };
        let mut wire = Vec::new();
        tail.drain_new_rows(&row_frame_head(1), &mut wire);
        let mut reader = BufReader::new(&wire[..]);
        for _ in journal.rows() {
            let frame = read_frame(&mut reader).expect("intact row").expect("frame");
            assert!(matches!(frame, Frame::Row { job: 1, .. }));
        }
        let err = read_frame(&mut reader).expect_err("corrupt row");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
