//! Message envelopes and MPI error classification.

use chaser_isa::abi::MpiDatatype;
use std::fmt;

/// Largest accepted message payload; counts beyond this are treated as
/// corrupted arguments ([`MpiErrorKind::InvalidCount`]).
pub const MAX_MSG_BYTES: u64 = 1 << 22;

/// A point-to-point message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending rank.
    pub src: u32,
    /// Destination rank.
    pub dest: u32,
    /// Message tag.
    pub tag: u64,
    /// Element datatype.
    pub dtype: MpiDatatype,
    /// Element count.
    pub count: u64,
    /// Payload bytes.
    pub data: Vec<u8>,
    /// Global send sequence number (aligns TaintHub records with the
    /// message stream; see `chaser_tainthub::TaintRecord::seq`).
    pub seq: u64,
}

impl Envelope {
    /// Payload length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.data.len() as u64
    }
}

/// Why the MPI runtime aborted the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpiErrorKind {
    /// MPI used before `MPI_Init` or after `MPI_Finalize`.
    NotInitialized,
    /// Source/destination/root rank out of range (corrupted rank argument).
    InvalidRank,
    /// Unknown datatype code (corrupted datatype argument).
    InvalidDatatype,
    /// Count negative-looking or implausibly large (corrupted count).
    InvalidCount,
    /// Unknown reduction operator.
    InvalidOp,
    /// Receive buffer smaller than the matched message.
    Truncation,
    /// Sender/receiver or collective participants disagree on type/shape.
    TypeMismatch,
    /// The peer rank terminated before/while communicating.
    RankDied,
}

impl fmt::Display for MpiErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MpiErrorKind::NotInitialized => "MPI not initialized",
            MpiErrorKind::InvalidRank => "invalid rank",
            MpiErrorKind::InvalidDatatype => "invalid datatype",
            MpiErrorKind::InvalidCount => "invalid count",
            MpiErrorKind::InvalidOp => "invalid reduction op",
            MpiErrorKind::Truncation => "message truncated",
            MpiErrorKind::TypeMismatch => "type mismatch",
            MpiErrorKind::RankDied => "peer rank died",
        };
        f.write_str(s)
    }
}

/// An MPI runtime error attributed to the rank whose call triggered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpiError {
    /// The rank whose call failed.
    pub rank: u32,
    /// What failed.
    pub kind: MpiErrorKind,
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {}: {}", self.rank, self.kind)
    }
}

impl std::error::Error for MpiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_len() {
        let env = Envelope {
            src: 0,
            dest: 1,
            tag: 5,
            dtype: MpiDatatype::F64,
            count: 2,
            data: vec![0u8; 16],
            seq: 0,
        };
        assert_eq!(env.len_bytes(), 16);
    }

    #[test]
    fn error_display() {
        let err = MpiError {
            rank: 2,
            kind: MpiErrorKind::Truncation,
        };
        assert_eq!(err.to_string(), "rank 2: message truncated");
    }
}
