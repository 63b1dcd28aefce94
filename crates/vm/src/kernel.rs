//! The OS-lite kernel: signals, exit statuses and kernel hypercalls.

use std::fmt;

/// A synchronous guest signal (the paper's "OS exceptions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signal {
    /// Invalid memory access (unmapped or protection).
    Segv,
    /// Integer divide-by-zero.
    Fpe,
    /// Undecodable instruction — usually a corrupted control transfer.
    Ill,
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Signal::Segv => "SIGSEGV",
            Signal::Fpe => "SIGFPE",
            Signal::Ill => "SIGILL",
        };
        f.write_str(s)
    }
}

/// How a process ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExitStatus {
    /// Clean `exit(code)`.
    Exited(i64),
    /// Killed by a signal (OS exception).
    Signaled(Signal),
    /// The application's own checker aborted (`SYS_ASSERT_FAIL`), e.g.
    /// CLAMR-sim's mass-conservation test — the paper's "detected" outcome.
    AssertFailed(i64),
    /// The processor executed `halt` outside the kernel — abnormal.
    Halted,
    /// Terminated by the MPI runtime after a communication error.
    MpiAborted,
}

impl ExitStatus {
    /// True for the one non-error exit: `exit(0)`.
    pub fn is_success(&self) -> bool {
        matches!(self, ExitStatus::Exited(0))
    }
}

impl fmt::Display for ExitStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExitStatus::Exited(c) => write!(f, "exited({c})"),
            ExitStatus::Signaled(s) => write!(f, "killed by {s}"),
            ExitStatus::AssertFailed(c) => write!(f, "assertion failed ({c})"),
            ExitStatus::Halted => write!(f, "halted"),
            ExitStatus::MpiAborted => write!(f, "aborted by MPI runtime"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_exit_zero_is_success() {
        assert!(ExitStatus::Exited(0).is_success());
        assert!(!ExitStatus::Exited(1).is_success());
        assert!(!ExitStatus::Signaled(Signal::Segv).is_success());
        assert!(!ExitStatus::AssertFailed(0).is_success());
        assert!(!ExitStatus::Halted.is_success());
        assert!(!ExitStatus::MpiAborted.is_success());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            ExitStatus::Signaled(Signal::Segv).to_string(),
            "killed by SIGSEGV"
        );
        assert_eq!(Signal::Ill.to_string(), "SIGILL");
    }
}
