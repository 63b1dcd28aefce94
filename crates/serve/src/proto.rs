//! The service wire protocol: line-delimited JSON frames.
//!
//! Every frame is one [`chaser::Json`] object per line, encoded with the
//! campaign journal's own codec — the service speaks the journal's wire
//! format, so a streamed [`Frame::Row`] *is* a journal outcome row, byte
//! for byte the same object the shard journal holds. Frames are tagged by
//! a `"frame"` key; clients send [`Frame::Submit`] / [`Frame::Status`] /
//! [`Frame::Results`] / [`Frame::Drain`], the daemon answers with the
//! rest.
//!
//! Row frames never re-serialise their row. The daemon splices each
//! journal line, as bytes, between a `{"frame":"row","job":J,"row":` head
//! and a closing `}` (`splice_row_frame`); journal lines are canonical
//! encodings, so the result is byte-identical to [`write_frame`] of the
//! parsed row. [`write_frame`] encodes a row frame straight from the
//! borrowed row and [`read_frame`] moves the parsed row into
//! [`Frame::Row`], so neither deep-copies it. The codec rejects lines
//! nested more than 32 deep as malformed, so no frame can recurse a
//! connection thread's stack away.

use crate::spec::CampaignSpec;
use chaser::{encode_json, parse_json, Json, PoolStats};
use std::io::{self, BufRead, Write};

/// One line on the wire, in either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: submit a campaign for execution.
    Submit {
        /// The campaign to run.
        spec: CampaignSpec,
    },
    /// Client → server: report daemon state.
    Status,
    /// Client → server: fetch a finished job's merged CSV artifacts.
    Results {
        /// Job id as returned by [`Frame::Accepted`].
        job: u64,
    },
    /// Client → server: graceful shutdown (stop admitting, checkpoint
    /// in-flight shards, answer with [`Frame::Drained`]).
    Drain,
    /// Server → client: the submitted job passed admission.
    Accepted {
        /// Assigned job id.
        job: u64,
    },
    /// Server → client: the submitted job failed admission.
    Rejected {
        /// Human-readable rejection cause.
        reason: String,
    },
    /// Server → client: one journal outcome row, streamed as journaled.
    Row {
        /// Job the row belongs to.
        job: u64,
        /// The journal row object, verbatim.
        row: Json,
    },
    /// Server → client: the job finished; merged totals follow.
    Done {
        /// Job id.
        job: u64,
        /// Journaled outcome rows.
        outcomes: u64,
        /// Journaled skip rows.
        skipped: u64,
        /// Runs lost to quarantined shards.
        quarantined: u64,
    },
    /// Server → client: the job was checkpointed by a drain; its shard
    /// journals are complete prefixes and the job resumes on restart.
    Checkpointed {
        /// Job id.
        job: u64,
        /// Runs still unfinished at checkpoint time.
        missing: u64,
    },
    /// Server → client: the job failed outright.
    Failed {
        /// Job id.
        job: u64,
        /// Failure cause.
        reason: String,
    },
    /// Server → client: answer to [`Frame::Status`].
    StatusReport(StatusReport),
    /// Server → client: answer to [`Frame::Results`].
    ResultsReport(JobResults),
    /// Server → client: answer to [`Frame::Drain`].
    Drained {
        /// Jobs that ran to completion before or during the drain.
        finished: u64,
        /// Jobs checkpointed (resumable on restart).
        checkpointed: u64,
    },
}

/// Daemon state snapshot returned for [`Frame::Status`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatusReport {
    /// Whether a drain is in progress or complete.
    pub draining: bool,
    /// Jobs currently queued (not yet running).
    pub queue_depth: u64,
    /// Prepared-app pool counters plus the queue high-water mark.
    pub pool: PoolStats,
    /// Every job the daemon knows about, in id order.
    pub jobs: Vec<JobSummary>,
}

/// One job's identity and lifecycle state inside a [`StatusReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSummary {
    /// Job id.
    pub job: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Lifecycle state: `queued`, `running`, `done`, `checkpointed` or
    /// `failed`.
    pub state: String,
    /// Requested injection runs.
    pub runs: u64,
}

/// A finished job's merged CSV artifacts, verbatim from disk.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobResults {
    /// Job id.
    pub job: u64,
    /// Per-run outcome table (`CampaignResult::to_csv`).
    pub outcome_csv: String,
    /// Aggregate stats table (`CampaignResult::stats_csv`).
    pub stats_csv: String,
    /// Shard supervision table (`ShardStats::to_csv`).
    pub shard_csv: String,
    /// Prepared-pool counters (`PoolStats::to_csv`).
    pub pool_csv: String,
}

fn obj(tag: &str, mut rest: Vec<(String, Json)>) -> Json {
    let mut fields = vec![("frame".to_string(), Json::Str(tag.to_string()))];
    fields.append(&mut rest);
    Json::Obj(fields)
}

fn s(key: &str, val: &str) -> (String, Json) {
    (key.to_string(), Json::Str(val.to_string()))
}

fn n(key: &str, val: u64) -> (String, Json) {
    (key.to_string(), Json::Num(val.into()))
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn need_u64(v: &Json, key: &str) -> io::Result<u64> {
    v.u64(key)
        .map_err(|_| bad(format!("frame missing numeric `{key}`")))
}

fn need_str<'a>(v: &'a Json, key: &str) -> io::Result<&'a str> {
    v.str(key)
        .map_err(|_| bad(format!("frame missing string `{key}`")))
}

/// Moves field `key` out of an object, leaving `null` in its place.
fn take_field(v: &mut Json, key: &str) -> Option<Json> {
    match v {
        Json::Obj(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, field)| std::mem::replace(field, Json::Null)),
        _ => None,
    }
}

fn pool_stats_json(p: &PoolStats) -> Json {
    Json::Obj(vec![
        n("prepared_hits", p.prepared_hits),
        n("prepared_misses", p.prepared_misses),
        n("prepared_evictions", p.prepared_evictions),
        n("queue_depth_hwm", p.queue_depth_hwm),
    ])
}

fn pool_stats_from_json(v: &Json) -> io::Result<PoolStats> {
    Ok(PoolStats {
        prepared_hits: need_u64(v, "prepared_hits")?,
        prepared_misses: need_u64(v, "prepared_misses")?,
        prepared_evictions: need_u64(v, "prepared_evictions")?,
        queue_depth_hwm: need_u64(v, "queue_depth_hwm")?,
    })
}

impl Frame {
    /// Renders the frame as a [`Json`] object.
    pub fn to_json(&self) -> Json {
        match self {
            Frame::Submit { spec } => obj("submit", vec![("spec".to_string(), spec.to_json())]),
            Frame::Status => obj("status", vec![]),
            Frame::Results { job } => obj("results", vec![n("job", *job)]),
            Frame::Drain => obj("drain", vec![]),
            Frame::Accepted { job } => obj("accepted", vec![n("job", *job)]),
            Frame::Rejected { reason } => obj("rejected", vec![s("reason", reason)]),
            Frame::Row { job, row } => obj(
                "row",
                vec![n("job", *job), ("row".to_string(), row.clone())],
            ),
            Frame::Done {
                job,
                outcomes,
                skipped,
                quarantined,
            } => obj(
                "done",
                vec![
                    n("job", *job),
                    n("outcomes", *outcomes),
                    n("skipped", *skipped),
                    n("quarantined", *quarantined),
                ],
            ),
            Frame::Checkpointed { job, missing } => {
                obj("checkpointed", vec![n("job", *job), n("missing", *missing)])
            }
            Frame::Failed { job, reason } => {
                obj("failed", vec![n("job", *job), s("reason", reason)])
            }
            Frame::StatusReport(report) => obj(
                "status_report",
                vec![
                    ("draining".to_string(), Json::Bool(report.draining)),
                    n("queue_depth", report.queue_depth),
                    ("pool".to_string(), pool_stats_json(&report.pool)),
                    (
                        "jobs".to_string(),
                        Json::Arr(
                            report
                                .jobs
                                .iter()
                                .map(|j| {
                                    Json::Obj(vec![
                                        n("job", j.job),
                                        s("tenant", &j.tenant),
                                        s("state", &j.state),
                                        n("runs", j.runs),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ],
            ),
            Frame::ResultsReport(r) => obj(
                "results_report",
                vec![
                    n("job", r.job),
                    s("outcome_csv", &r.outcome_csv),
                    s("stats_csv", &r.stats_csv),
                    s("shard_csv", &r.shard_csv),
                    s("pool_csv", &r.pool_csv),
                ],
            ),
            Frame::Drained {
                finished,
                checkpointed,
            } => obj(
                "drained",
                vec![n("finished", *finished), n("checkpointed", *checkpointed)],
            ),
        }
    }

    /// Parses a frame from its [`Json`] object, moving a row frame's row
    /// out of it rather than copying it.
    ///
    /// # Errors
    ///
    /// `InvalidData` on an unknown tag or missing/mistyped fields.
    pub fn from_json(mut v: Json) -> io::Result<Frame> {
        let tag = need_str(&v, "frame")?.to_string();
        let v = &mut v;
        Ok(match tag.as_str() {
            "submit" => {
                let spec = v.get("spec").ok_or_else(|| bad("submit without `spec`"))?;
                Frame::Submit {
                    spec: CampaignSpec::from_json(spec).map_err(|e| bad(e.to_string()))?,
                }
            }
            "status" => Frame::Status,
            "results" => Frame::Results {
                job: need_u64(v, "job")?,
            },
            "drain" => Frame::Drain,
            "accepted" => Frame::Accepted {
                job: need_u64(v, "job")?,
            },
            "rejected" => Frame::Rejected {
                reason: need_str(v, "reason")?.to_string(),
            },
            "row" => Frame::Row {
                job: need_u64(v, "job")?,
                row: take_field(v, "row").ok_or_else(|| bad("row without `row`"))?,
            },
            "done" => Frame::Done {
                job: need_u64(v, "job")?,
                outcomes: need_u64(v, "outcomes")?,
                skipped: need_u64(v, "skipped")?,
                quarantined: need_u64(v, "quarantined")?,
            },
            "checkpointed" => Frame::Checkpointed {
                job: need_u64(v, "job")?,
                missing: need_u64(v, "missing")?,
            },
            "failed" => Frame::Failed {
                job: need_u64(v, "job")?,
                reason: need_str(v, "reason")?.to_string(),
            },
            "status_report" => {
                let jobs = match v.get("jobs") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|j| {
                            Ok(JobSummary {
                                job: need_u64(j, "job")?,
                                tenant: need_str(j, "tenant")?.to_string(),
                                state: need_str(j, "state")?.to_string(),
                                runs: need_u64(j, "runs")?,
                            })
                        })
                        .collect::<io::Result<Vec<_>>>()?,
                    _ => return Err(bad("status_report without `jobs` array")),
                };
                Frame::StatusReport(StatusReport {
                    draining: v.bool_or("draining", false),
                    queue_depth: need_u64(v, "queue_depth")?,
                    pool: pool_stats_from_json(
                        v.get("pool")
                            .ok_or_else(|| bad("status_report without `pool`"))?,
                    )?,
                    jobs,
                })
            }
            "results_report" => Frame::ResultsReport(JobResults {
                job: need_u64(v, "job")?,
                outcome_csv: need_str(v, "outcome_csv")?.to_string(),
                stats_csv: need_str(v, "stats_csv")?.to_string(),
                shard_csv: need_str(v, "shard_csv")?.to_string(),
                pool_csv: need_str(v, "pool_csv")?.to_string(),
            }),
            "drained" => Frame::Drained {
                finished: need_u64(v, "finished")?,
                checkpointed: need_u64(v, "checkpointed")?,
            },
            other => return Err(bad(format!("unknown frame tag `{other}`"))),
        })
    }
}

/// Writes one frame as a single journal-codec JSON line and flushes, so
/// streamed rows reach the client without buffering delays.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let mut line = match frame {
        Frame::Row { job, row } => {
            let mut line = row_frame_head(*job);
            encode_json(row, &mut line);
            line.push('}');
            line
        }
        other => {
            let mut line = String::new();
            encode_json(&other.to_json(), &mut line);
            line
        }
    };
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// The bytes of job `job`'s [`Frame::Row`] line that precede the row
/// itself: the canonical encoding of the frame's `frame` and `job` fields.
pub(crate) fn row_frame_head(job: u64) -> String {
    format!("{{\"frame\":\"row\",\"job\":{job},\"row\":")
}

/// Appends one complete [`Frame::Row`] line to `out` by splicing the
/// journal line `row` (no newline) after `head` ([`row_frame_head`]). No
/// parse, no re-encode: for a canonical journal line the bytes equal
/// [`write_frame`] of the parsed row. A line that is not valid JSON is
/// forwarded as it is, and the client's [`read_frame`] rejects it.
pub(crate) fn splice_row_frame(head: &str, row: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(row);
    out.extend_from_slice(b"}\n");
}

/// Reads one frame; `Ok(None)` means clean EOF (peer closed).
///
/// # Errors
///
/// `InvalidData` for malformed lines, plus underlying I/O errors.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Frame>> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let v = parse_json(line.trim_end()).map_err(|e| bad(format!("malformed frame: {e}")))?;
    Frame::from_json(v).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn round_trip(frame: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("write");
        // Every frame, the row frame's direct encoding included, goes out
        // as the canonical encoding of its JSON object.
        let mut line = String::new();
        encode_json(&frame.to_json(), &mut line);
        assert_eq!(String::from_utf8(buf.clone()).expect("UTF-8"), line + "\n");
        let mut r = BufReader::new(&buf[..]);
        let back = read_frame(&mut r).expect("read").expect("one frame");
        assert_eq!(back, frame);
        assert!(read_frame(&mut r).expect("eof").is_none());
    }

    #[test]
    fn every_frame_round_trips() {
        round_trip(Frame::Submit {
            spec: CampaignSpec::default(),
        });
        round_trip(Frame::Status);
        round_trip(Frame::Results { job: 3 });
        round_trip(Frame::Drain);
        round_trip(Frame::Accepted { job: 9 });
        round_trip(Frame::Rejected {
            reason: "queue full".into(),
        });
        round_trip(Frame::Row {
            job: 2,
            row: Json::Obj(vec![
                ("run".to_string(), Json::Num(5)),
                ("outcome".to_string(), Json::Str("Masked".into())),
            ]),
        });
        round_trip(Frame::Done {
            job: 2,
            outcomes: 10,
            skipped: 1,
            quarantined: 0,
        });
        round_trip(Frame::Checkpointed { job: 4, missing: 7 });
        round_trip(Frame::Failed {
            job: 5,
            reason: "boom".into(),
        });
        round_trip(Frame::StatusReport(StatusReport {
            draining: true,
            queue_depth: 2,
            pool: PoolStats {
                prepared_hits: 1,
                prepared_misses: 2,
                prepared_evictions: 0,
                queue_depth_hwm: 3,
            },
            jobs: vec![JobSummary {
                job: 1,
                tenant: "alice".into(),
                state: "running".into(),
                runs: 40,
            }],
        }));
        round_trip(Frame::ResultsReport(JobResults {
            job: 1,
            outcome_csv: "run,outcome\n0,Masked\n".into(),
            stats_csv: "a,b\n1,2\n".into(),
            shard_csv: "shard\n0\n".into(),
            pool_csv: "hits\n1\n".into(),
        }));
        round_trip(Frame::Drained {
            finished: 2,
            checkpointed: 1,
        });
    }

    #[test]
    fn csv_payloads_with_newlines_survive_the_line_protocol() {
        // CSVs embed newlines; the codec must escape them so the frame
        // stays a single line.
        let frame = Frame::ResultsReport(JobResults {
            job: 7,
            outcome_csv: "a,b\n1,2\n3,4\n".into(),
            stats_csv: String::new(),
            shard_csv: String::new(),
            pool_csv: String::new(),
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).expect("write");
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), 1);
        round_trip(frame);
    }

    /// Frame lines as the daemon and its clients send them: a row frame
    /// for every fixture journal row, a submit carrying chaos directives
    /// (the deepest client frame) and a status report.
    fn real_frames() -> &'static [Vec<u8>] {
        static FRAMES: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
        FRAMES.get_or_init(|| {
            let mut frames = Vec::new();
            for journal in crate::fixtures::journals() {
                for row in journal.rows() {
                    let mut wire = Vec::new();
                    let row = parse_json(row).expect("journal row parses");
                    write_frame(&mut wire, &Frame::Row { job: 3, row }).expect("encode");
                    frames.push(wire);
                }
            }
            let spec = CampaignSpec {
                chaos: vec![chaser::ShardChaos {
                    shard: 1,
                    after_rows: 2,
                    attempts: 1,
                    kind: chaser::ChaosKind::Stall,
                }],
                ..CampaignSpec::default()
            };
            for frame in [
                Frame::Submit { spec },
                Frame::StatusReport(StatusReport {
                    jobs: vec![JobSummary {
                        job: 1,
                        tenant: "t\u{e9}".into(),
                        state: "running".into(),
                        runs: 4,
                    }],
                    ..StatusReport::default()
                }),
            ] {
                let mut wire = Vec::new();
                write_frame(&mut wire, &frame).expect("encode");
                frames.push(wire);
            }
            frames
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3000))]

        /// Every line of damaged wire bytes reads as a frame, a clean EOF
        /// or `InvalidData` — never a panic.
        #[test]
        fn read_frame_answers_damaged_frames(
            pick in proptest::prelude::any::<usize>(),
            kind in 0u8..5,
            at in proptest::prelude::any::<u64>(),
            byte in proptest::prelude::any::<u8>(),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..48),
        ) {
            let frames = real_frames();
            let wire = crate::damage::damage(&frames[pick % frames.len()], kind, at, byte, &noise);
            let mut r = BufReader::new(&wire[..]);
            loop {
                match read_frame(&mut r) {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        proptest::prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn malformed_and_unknown_frames_are_invalid_data() {
        let mut r = BufReader::new(&b"{\"frame\":\"warp\"}\n"[..]);
        let err = read_frame(&mut r).expect_err("unknown tag");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut r = BufReader::new(&b"{oops\n"[..]);
        assert!(read_frame(&mut r).is_err());
    }
}
