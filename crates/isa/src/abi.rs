//! The guest ABI: calling convention, hypercall numbers and MPI datatypes.
//!
//! Guest programs request services with the `hypercall` instruction. Kernel
//! services (numbers `< 100`) are handled by the OS-lite kernel in
//! `chaser-vm`; MPI services (numbers `>= 100`) are surfaced to the cluster
//! runtime in `chaser-mpi`. Arguments are passed in `R1..=R6`; results come
//! back in `R0`.
//!
//! The guest-side MPI *library* (`chaser-workloads::rtlib`) wraps each MPI
//! hypercall in a function with a well-known symbol (`mpi_send`, `mpi_recv`,
//! …). Chaser hooks those function entry addresses — exactly as the paper
//! hooks MPI functions inside the guest and extracts `(buf, count, datatype,
//! tag, dest)` from stack and registers.

use crate::Reg;

/// Registers carrying hypercall / function-call arguments, in order.
pub const ARG_REGS: [Reg; 6] = [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6];

/// Register carrying a hypercall / function return value.
pub const RET_REG: Reg = Reg::R0;

// ---- kernel services ----

/// Terminate the process. `R1` = exit code.
pub const SYS_EXIT: u16 = 1;
/// Write bytes. `R1` = fd, `R2` = buffer vaddr, `R3` = length in bytes.
pub const SYS_WRITE: u16 = 2;
/// Write a decimal integer plus newline. `R1` = fd, `R2` = value.
pub const SYS_WRITE_I64: u16 = 3;
/// Write the 8 raw little-endian bytes of an f64. `R1` = fd, `R2` = bits.
pub const SYS_WRITE_F64: u16 = 4;
/// Abort with an application-level assertion failure. `R1` = error code.
///
/// This is how a workload's *correctness checker* (e.g. CLAMR-sim's mass
/// conservation test) reports a detected fault.
pub const SYS_ASSERT_FAIL: u16 = 5;
/// Grow the heap by `R1` bytes; returns the old break in `R0`.
pub const SYS_SBRK: u16 = 6;
/// Returns the process's retired-instruction count in `R0`.
pub const SYS_CLOCK: u16 = 7;

/// File descriptor for standard output.
pub const FD_STDOUT: u64 = 1;
/// File descriptor for the run's result file (`output.dat`), compared
/// bitwise against the golden run to classify SDCs.
pub const FD_OUTPUT: u64 = 3;

// ---- MPI services ----

/// `MPI_Init()`.
pub const MPI_INIT: u16 = 100;
/// `MPI_Comm_rank` → rank in `R0`.
pub const MPI_COMM_RANK: u16 = 101;
/// `MPI_Comm_size` → size in `R0`.
pub const MPI_COMM_SIZE: u16 = 102;
/// `MPI_Send(buf=R1, count=R2, datatype=R3, dest=R4, tag=R5)`.
pub const MPI_SEND: u16 = 103;
/// `MPI_Recv(buf=R1, count=R2, datatype=R3, source=R4, tag=R5)`.
pub const MPI_RECV: u16 = 104;
/// `MPI_Barrier()`.
pub const MPI_BARRIER: u16 = 105;
/// `MPI_Bcast(buf=R1, count=R2, datatype=R3, root=R4)`.
pub const MPI_BCAST: u16 = 106;
/// `MPI_Reduce(sendbuf=R1, recvbuf=R2, count=R3, datatype=R4, op=R5, root=R6)`.
pub const MPI_REDUCE: u16 = 107;
/// `MPI_Allreduce(sendbuf=R1, recvbuf=R2, count=R3, datatype=R4, op=R5)`.
pub const MPI_ALLREDUCE: u16 = 108;
/// `MPI_Scatter(sendbuf=R1, recvbuf=R2, count_per_rank=R3, datatype=R4, root=R5)`.
pub const MPI_SCATTER: u16 = 109;
/// `MPI_Gather(sendbuf=R1, recvbuf=R2, count_per_rank=R3, datatype=R4, root=R5)`.
pub const MPI_GATHER: u16 = 110;
/// `MPI_Finalize()`.
pub const MPI_FINALIZE: u16 = 111;
/// Nonblocking `MPI_Isend(buf=R1, count=R2, datatype=R3, dest=R4, tag=R5)`
/// → request handle in `R0`.
pub const MPI_ISEND: u16 = 112;
/// Nonblocking `MPI_Irecv(buf=R1, count=R2, datatype=R3, source=R4,
/// tag=R5)` → request handle in `R0`. `source`/`tag` may be the wildcard
/// [`MPI_ANY`].
pub const MPI_IRECV: u16 = 113;
/// `MPI_Wait(request=R1)` — blocks until the request completes.
pub const MPI_WAIT: u16 = 114;
/// `MPI_Wtime()` → retired-instruction count in `R0` (the simulator's
/// clock).
pub const MPI_WTIME: u16 = 115;

/// Wildcard value for `source` (`MPI_ANY_SOURCE`) and `tag`
/// (`MPI_ANY_TAG`) in receive calls.
pub const MPI_ANY: u64 = u64::MAX;

/// First hypercall number that belongs to the MPI runtime rather than the
/// kernel.
pub const MPI_BASE: u16 = 100;

/// An MPI element datatype, as passed in the `datatype` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpiDatatype {
    /// 64-bit signed integer.
    I64 = 1,
    /// IEEE-754 double.
    F64 = 2,
    /// Raw byte.
    Byte = 3,
}

impl MpiDatatype {
    /// Size of one element in bytes.
    pub fn size(self) -> u64 {
        match self {
            MpiDatatype::I64 | MpiDatatype::F64 => 8,
            MpiDatatype::Byte => 1,
        }
    }

    /// Parses the guest-supplied datatype code.
    pub fn from_code(code: u64) -> Option<MpiDatatype> {
        match code {
            1 => Some(MpiDatatype::I64),
            2 => Some(MpiDatatype::F64),
            3 => Some(MpiDatatype::Byte),
            _ => None,
        }
    }
}

/// An MPI reduction operator, as passed in the `op` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpiOp {
    /// Elementwise sum.
    Sum = 1,
    /// Elementwise minimum.
    Min = 2,
    /// Elementwise maximum.
    Max = 3,
    /// Elementwise product.
    Prod = 4,
}

impl MpiOp {
    /// Parses the guest-supplied reduction-operator code.
    pub fn from_code(code: u64) -> Option<MpiOp> {
        match code {
            1 => Some(MpiOp::Sum),
            2 => Some(MpiOp::Min),
            3 => Some(MpiOp::Max),
            4 => Some(MpiOp::Prod),
            _ => None,
        }
    }
}

/// Guest-side MPI library symbol names hooked by Chaser.
pub mod symbols {
    /// Symbol of the guest `mpi_send` wrapper.
    pub const MPI_SEND: &str = "mpi_send";
    /// Symbol of the guest `mpi_recv` wrapper.
    pub const MPI_RECV: &str = "mpi_recv";
    /// Symbol of the guest `mpi_bcast` wrapper.
    pub const MPI_BCAST: &str = "mpi_bcast";
    /// Symbol of the guest `mpi_reduce` wrapper.
    pub const MPI_REDUCE: &str = "mpi_reduce";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datatype_codes_round_trip() {
        for dt in [MpiDatatype::I64, MpiDatatype::F64, MpiDatatype::Byte] {
            assert_eq!(MpiDatatype::from_code(dt as u64), Some(dt));
        }
        assert_eq!(MpiDatatype::from_code(0), None);
        assert_eq!(MpiDatatype::from_code(99), None);
    }

    #[test]
    fn op_codes_round_trip() {
        for op in [MpiOp::Sum, MpiOp::Min, MpiOp::Max, MpiOp::Prod] {
            assert_eq!(MpiOp::from_code(op as u64), Some(op));
        }
        assert_eq!(MpiOp::from_code(0), None);
    }

    #[test]
    fn sizes() {
        assert_eq!(MpiDatatype::I64.size(), 8);
        assert_eq!(MpiDatatype::F64.size(), 8);
        assert_eq!(MpiDatatype::Byte.size(), 1);
    }

    #[test]
    fn mpi_calls_sit_above_the_kernel_range() {
        for n in [
            MPI_INIT,
            MPI_COMM_RANK,
            MPI_COMM_SIZE,
            MPI_SEND,
            MPI_RECV,
            MPI_BARRIER,
            MPI_BCAST,
            MPI_REDUCE,
            MPI_ALLREDUCE,
            MPI_SCATTER,
            MPI_GATHER,
            MPI_FINALIZE,
        ] {
            assert!(n >= MPI_BASE);
        }
        for n in [
            SYS_EXIT,
            SYS_WRITE,
            SYS_WRITE_I64,
            SYS_WRITE_F64,
            SYS_ASSERT_FAIL,
            SYS_SBRK,
            SYS_CLOCK,
        ] {
            assert!(n < MPI_BASE);
        }
    }
}
