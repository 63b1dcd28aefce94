//! Outcome classification: benign / SDC / terminated, with termination
//! causes matching the paper's Table III attribution.

use chaser_mpi::{BudgetKind, ClusterRun, MpiErrorKind};
use chaser_vm::{ExitStatus, Signal};
use std::fmt;

/// Why a run terminated abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermCause {
    /// The per-run watchdog budget ([`chaser_mpi::RunBudget`]) stopped the
    /// run — a runaway execution bounded deterministically, distinct from
    /// the progress-heuristic [`TermCause::Hang`].
    BudgetExhausted(BudgetKind),
    /// A rank was killed by an OS signal. `rank == 0` is the paper's
    /// "OS exceptions" row; `rank > 0` is its "Slave Node failed" row.
    OsException {
        /// The crashed rank.
        rank: u32,
        /// The fatal signal.
        signal: Signal,
    },
    /// The MPI runtime detected an error and aborted the job.
    MpiError(MpiErrorKind),
    /// The application's own correctness checker aborted (e.g. CLAMR-sim's
    /// mass-conservation test) — a *detected* fault.
    AssertionFailure {
        /// The aborting rank.
        rank: u32,
        /// The checker's error code.
        code: i64,
    },
    /// A rank exited voluntarily with a non-zero code.
    AbnormalExit {
        /// The exiting rank.
        rank: u32,
        /// The exit code.
        code: i64,
    },
    /// The job stopped making progress (deadlock or runaway loop).
    Hang,
    /// The shard supervisor abandoned the worker that owned this run after
    /// exhausting its retry budget; the run index was quarantined without a
    /// verdict. Appears only as the `cause` of a degraded
    /// [`Outcome::HarnessFault`] row, never as a target outcome.
    ShardLost {
        /// The shard whose workers kept dying.
        shard: u64,
    },
}

impl fmt::Display for TermCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermCause::BudgetExhausted(kind) => write!(f, "{kind} exhausted"),
            TermCause::OsException { rank, signal } => {
                write!(f, "rank {rank} killed by {signal}")
            }
            TermCause::MpiError(kind) => write!(f, "MPI error: {kind}"),
            TermCause::AssertionFailure { rank, code } => {
                write!(f, "rank {rank} assertion failed (code {code})")
            }
            TermCause::AbnormalExit { rank, code } => {
                write!(f, "rank {rank} exited with code {code}")
            }
            TermCause::Hang => write!(f, "hang"),
            TermCause::ShardLost { shard } => {
                write!(f, "shard {shard} lost (worker retries exhausted)")
            }
        }
    }
}

/// The three failure-outcome classes of the paper's Fig. 6, plus the
/// harness-fault quarantine row (a tool failure, never a target outcome).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Output files compare bitwise equal to the golden run.
    Benign,
    /// The run completed but its output differs — silent data corruption.
    Sdc,
    /// The run terminated abnormally.
    Terminated(TermCause),
    /// The *harness itself* panicked while executing this run. The row is
    /// quarantined: it says nothing about the target application and is
    /// excluded from vulnerability statistics, but the campaign keeps the
    /// run index so a resume can retry or a human can debug the payload.
    HarnessFault {
        /// The campaign run index whose execution panicked.
        run_idx: u64,
        /// The panic payload, sanitised to a single CSV-safe line.
        payload: String,
        /// Why the harness gave up, when it was not a panic: `None` for the
        /// classic quarantined-panic row, `Some(TermCause::ShardLost { .. })`
        /// for a run degraded because its shard's workers kept dying.
        cause: Option<TermCause>,
    },
}

impl Outcome {
    /// Was the fault *detected* in the paper's CLAMR-study sense (any
    /// abnormal termination, including the app's own checker)?
    pub fn is_detected(&self) -> bool {
        matches!(self, Outcome::Terminated(_))
    }

    /// Is this a quarantined harness failure rather than a target outcome?
    pub fn is_harness_fault(&self) -> bool {
        matches!(self, Outcome::HarnessFault { .. })
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Benign => write!(f, "benign"),
            Outcome::Sdc => write!(f, "SDC"),
            Outcome::Terminated(cause) => write!(f, "terminated ({cause})"),
            Outcome::HarnessFault {
                run_idx, payload, ..
            } => {
                write!(f, "harness fault (run {run_idx}: {payload})")
            }
        }
    }
}

/// Classifies a finished cluster run against golden outputs.
///
/// `outputs[r]` / `golden[r]` are rank `r`'s result-file bytes. The outputs
/// are compared *bitwise*, the paper's SDC criterion.
///
/// Priority order (first match wins): budget exhaustion → hang → master OS
/// exception → application assertion → slave OS exception → MPI error →
/// abnormal voluntary exit → output comparison. A budget stop outranks the
/// hang heuristic because it is deterministic: the same bound fires at the
/// same instruction on every replay.
pub fn classify(run: &ClusterRun, outputs: &[Vec<u8>], golden: &[Vec<u8>]) -> Outcome {
    if let Some(kind) = run.budget_exhausted {
        return Outcome::Terminated(TermCause::BudgetExhausted(kind));
    }
    if run.hang {
        return Outcome::Terminated(TermCause::Hang);
    }

    let signal_of = |status: &ExitStatus| -> Option<Signal> {
        match status {
            ExitStatus::Signaled(sig) => Some(*sig),
            // A stray `halt` is a wild control transfer landing on the halt
            // encoding — morally an illegal-instruction death.
            ExitStatus::Halted => Some(Signal::Ill),
            _ => None,
        }
    };

    // Master OS exception first: the fault is injected on the master, so
    // its own crash is the primary attribution.
    if let Some(Some(sig)) = run
        .rank_exits
        .first()
        .map(|e| e.as_ref().and_then(signal_of))
    {
        return Outcome::Terminated(TermCause::OsException {
            rank: 0,
            signal: sig,
        });
    }
    for (rank, exit) in run.rank_exits.iter().enumerate() {
        if let Some(ExitStatus::AssertFailed(code)) = exit {
            return Outcome::Terminated(TermCause::AssertionFailure {
                rank: rank as u32,
                code: *code,
            });
        }
    }
    for (rank, exit) in run.rank_exits.iter().enumerate().skip(1) {
        if let Some(sig) = exit.as_ref().and_then(signal_of) {
            return Outcome::Terminated(TermCause::OsException {
                rank: rank as u32,
                signal: sig,
            });
        }
    }
    if let Some(err) = run.mpi_error {
        return Outcome::Terminated(TermCause::MpiError(err.kind));
    }
    for (rank, exit) in run.rank_exits.iter().enumerate() {
        match exit {
            Some(ExitStatus::Exited(0)) => {}
            Some(ExitStatus::Exited(code)) => {
                return Outcome::Terminated(TermCause::AbnormalExit {
                    rank: rank as u32,
                    code: *code,
                })
            }
            Some(ExitStatus::MpiAborted) => {
                // Aborted without a recorded error: treat as an MPI error
                // of unknown provenance (should not happen in practice).
                return Outcome::Terminated(TermCause::MpiError(MpiErrorKind::RankDied));
            }
            Some(_) | None => {
                return Outcome::Terminated(TermCause::Hang);
            }
        }
    }

    if outputs == golden {
        Outcome::Benign
    } else {
        Outcome::Sdc
    }
}

/// A contiguous corrupted byte range in one rank's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptedRegion {
    /// The rank whose output differs.
    pub rank: u32,
    /// Byte offset of the first differing byte.
    pub offset: usize,
    /// Length of the differing range in bytes.
    pub len: usize,
}

/// Locates the corrupted regions of an SDC: contiguous byte ranges where
/// `outputs` differ from `golden` (includes length mismatches as a
/// trailing region). Empty for bitwise-identical outputs.
pub fn diff_outputs(outputs: &[Vec<u8>], golden: &[Vec<u8>]) -> Vec<CorruptedRegion> {
    let mut regions = Vec::new();
    for (rank, (out, gold)) in outputs.iter().zip(golden).enumerate() {
        let common = out.len().min(gold.len());
        let mut start: Option<usize> = None;
        for i in 0..common {
            match (out[i] != gold[i], start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    regions.push(CorruptedRegion {
                        rank: rank as u32,
                        offset: s,
                        len: i - s,
                    });
                    start = None;
                }
                _ => {}
            }
        }
        let tail = out.len().max(gold.len());
        match start {
            Some(s) => regions.push(CorruptedRegion {
                rank: rank as u32,
                offset: s,
                len: tail - s,
            }),
            None if out.len() != gold.len() => regions.push(CorruptedRegion {
                rank: rank as u32,
                offset: common,
                len: tail - common,
            }),
            None => {}
        }
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaser_mpi::MpiError;

    fn run(rank_exits: Vec<Option<ExitStatus>>) -> ClusterRun {
        ClusterRun {
            rank_exits,
            mpi_error: None,
            hang: false,
            budget_exhausted: None,
            total_insns: 0,
            rounds: 0,
            cross_rank_tainted_deliveries: 0,
            taint_sync_lost: 0,
            live_at_stop: Vec::new(),
        }
    }

    #[test]
    fn clean_identical_run_is_benign() {
        let r = run(vec![Some(ExitStatus::Exited(0)); 2]);
        let out = vec![vec![1, 2], vec![3]];
        assert_eq!(classify(&r, &out, &out), Outcome::Benign);
    }

    #[test]
    fn differing_output_is_sdc() {
        let r = run(vec![Some(ExitStatus::Exited(0))]);
        assert_eq!(classify(&r, &[vec![1, 2]], &[vec![1, 3]]), Outcome::Sdc);
    }

    #[test]
    fn master_crash_beats_everything_but_hang() {
        let mut r = run(vec![
            Some(ExitStatus::Signaled(Signal::Segv)),
            Some(ExitStatus::MpiAborted),
        ]);
        r.mpi_error = Some(MpiError {
            rank: 1,
            kind: MpiErrorKind::RankDied,
        });
        let out = classify(&r, &[], &[]);
        assert_eq!(
            out,
            Outcome::Terminated(TermCause::OsException {
                rank: 0,
                signal: Signal::Segv
            })
        );
        assert!(out.is_detected());
    }

    #[test]
    fn slave_crash_is_slave_node_failure_and_beats_mpi_error() {
        let mut r = run(vec![
            Some(ExitStatus::MpiAborted),
            Some(ExitStatus::Signaled(Signal::Segv)),
        ]);
        r.mpi_error = Some(MpiError {
            rank: 0,
            kind: MpiErrorKind::RankDied,
        });
        let Outcome::Terminated(cause) = classify(&r, &[], &[]) else {
            panic!("must be terminated");
        };
        // The paper's "Slave Node failed": an OS exception on a rank the
        // fault was not injected into.
        assert!(matches!(cause, TermCause::OsException { rank: 1, .. }));
    }

    #[test]
    fn assertion_failure_is_detected() {
        let r = run(vec![
            Some(ExitStatus::AssertFailed(5)),
            Some(ExitStatus::Exited(0)),
        ]);
        assert_eq!(
            classify(&r, &[], &[]),
            Outcome::Terminated(TermCause::AssertionFailure { rank: 0, code: 5 })
        );
    }

    #[test]
    fn mpi_error_without_crash() {
        let mut r = run(vec![Some(ExitStatus::MpiAborted); 2]);
        r.mpi_error = Some(MpiError {
            rank: 0,
            kind: MpiErrorKind::InvalidRank,
        });
        assert_eq!(
            classify(&r, &[], &[]),
            Outcome::Terminated(TermCause::MpiError(MpiErrorKind::InvalidRank))
        );
    }

    #[test]
    fn hang_dominates() {
        let mut r = run(vec![None, None]);
        r.hang = true;
        assert_eq!(classify(&r, &[], &[]), Outcome::Terminated(TermCause::Hang));
    }

    #[test]
    fn halted_counts_as_illegal_instruction_death() {
        let r = run(vec![Some(ExitStatus::Halted)]);
        assert_eq!(
            classify(&r, &[], &[]),
            Outcome::Terminated(TermCause::OsException {
                rank: 0,
                signal: Signal::Ill
            })
        );
    }

    #[test]
    fn diff_outputs_locates_corruption() {
        let golden = vec![vec![0u8; 16], vec![1, 2, 3]];
        let mut faulty = golden.clone();
        faulty[0][4] = 0xff;
        faulty[0][5] = 0xff;
        faulty[0][12] = 0x01;
        let regions = diff_outputs(&faulty, &golden);
        assert_eq!(
            regions,
            vec![
                CorruptedRegion {
                    rank: 0,
                    offset: 4,
                    len: 2
                },
                CorruptedRegion {
                    rank: 0,
                    offset: 12,
                    len: 1
                },
            ]
        );
        assert!(diff_outputs(&golden, &golden).is_empty());
    }

    #[test]
    fn diff_outputs_reports_truncation_as_a_tail_region() {
        let golden = vec![vec![7u8; 8]];
        let faulty = vec![vec![7u8; 5]];
        let regions = diff_outputs(&faulty, &golden);
        assert_eq!(
            regions,
            vec![CorruptedRegion {
                rank: 0,
                offset: 5,
                len: 3
            }]
        );
    }

    #[test]
    fn budget_exhaustion_outranks_hang() {
        let mut r = run(vec![None]);
        r.hang = true;
        r.budget_exhausted = Some(BudgetKind::Insns);
        assert_eq!(
            classify(&r, &[], &[]),
            Outcome::Terminated(TermCause::BudgetExhausted(BudgetKind::Insns))
        );
    }

    #[test]
    fn harness_fault_is_not_a_detection() {
        let o = Outcome::HarnessFault {
            run_idx: 3,
            payload: "boom".into(),
            cause: None,
        };
        assert!(o.is_harness_fault());
        assert!(!o.is_detected());
        assert_eq!(o.to_string(), "harness fault (run 3: boom)");
    }

    #[test]
    fn nonzero_exit_is_abnormal() {
        let r = run(vec![Some(ExitStatus::Exited(3))]);
        assert_eq!(
            classify(&r, &[], &[]),
            Outcome::Terminated(TermCause::AbnormalExit { rank: 0, code: 3 })
        );
    }
}
