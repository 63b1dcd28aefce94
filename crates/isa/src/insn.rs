//! The guest instruction set.

use crate::{Cond, FReg, Reg};

/// A decoded guest instruction.
///
/// All instructions occupy [`crate::INSN_LEN`] bytes in guest memory. Memory
/// operands are 64-bit; `*Idx` forms address `base + idx * 8` (an element
/// index, the common pattern in the numeric workloads). Branch and call
/// targets are absolute guest virtual addresses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instruction {
    /// No operation.
    Nop,
    /// Stop the processor; the kernel treats this as an abnormal exit.
    Halt,

    // ---- integer moves and memory ----
    /// `dst = src`.
    MovRR {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = imm`.
    MovRI {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// `dst = mem64[base + off]`.
    Ld {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        off: i32,
    },
    /// `mem64[base + off] = src`.
    St {
        /// Source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        off: i32,
    },
    /// `dst = mem64[base + idx * 8]`.
    LdIdx {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Element index register.
        idx: Reg,
    },
    /// `mem64[base + idx * 8] = src`.
    StIdx {
        /// Source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Element index register.
        idx: Reg,
    },
    /// Push `src` onto the stack (`sp -= 8; mem64[sp] = src`).
    Push {
        /// Register pushed.
        src: Reg,
    },
    /// Pop into `dst` (`dst = mem64[sp]; sp += 8`).
    Pop {
        /// Register popped into.
        dst: Reg,
    },

    // ---- integer ALU, register-register ----
    /// `dst += src`.
    Add {
        /// Destination / left operand.
        dst: Reg,
        /// Right operand.
        src: Reg,
    },
    /// `dst -= src`.
    Sub {
        /// Destination / left operand.
        dst: Reg,
        /// Right operand.
        src: Reg,
    },
    /// `dst *= src` (wrapping).
    Mul {
        /// Destination / left operand.
        dst: Reg,
        /// Right operand.
        src: Reg,
    },
    /// Signed division `dst /= src`; raises `SIGFPE` on divide-by-zero.
    Divs {
        /// Destination / dividend.
        dst: Reg,
        /// Divisor.
        src: Reg,
    },
    /// Unsigned division `dst /= src`; raises `SIGFPE` on divide-by-zero.
    Divu {
        /// Destination / dividend.
        dst: Reg,
        /// Divisor.
        src: Reg,
    },
    /// Unsigned remainder `dst %= src`; raises `SIGFPE` on divide-by-zero.
    Rem {
        /// Destination / dividend.
        dst: Reg,
        /// Divisor.
        src: Reg,
    },
    /// `dst &= src`.
    And {
        /// Destination / left operand.
        dst: Reg,
        /// Right operand.
        src: Reg,
    },
    /// `dst |= src`.
    Or {
        /// Destination / left operand.
        dst: Reg,
        /// Right operand.
        src: Reg,
    },
    /// `dst ^= src`.
    Xor {
        /// Destination / left operand.
        dst: Reg,
        /// Right operand.
        src: Reg,
    },
    /// `dst <<= src & 63`.
    Shl {
        /// Destination / left operand.
        dst: Reg,
        /// Shift amount register.
        src: Reg,
    },
    /// Logical right shift `dst >>= src & 63`.
    Shr {
        /// Destination / left operand.
        dst: Reg,
        /// Shift amount register.
        src: Reg,
    },
    /// Arithmetic right shift.
    Sar {
        /// Destination / left operand.
        dst: Reg,
        /// Shift amount register.
        src: Reg,
    },

    // ---- integer ALU, register-immediate ----
    /// `dst += imm`.
    AddI {
        /// Destination register.
        dst: Reg,
        /// Immediate operand.
        imm: i64,
    },
    /// `dst -= imm`.
    SubI {
        /// Destination register.
        dst: Reg,
        /// Immediate operand.
        imm: i64,
    },
    /// `dst *= imm` (wrapping).
    MulI {
        /// Destination register.
        dst: Reg,
        /// Immediate operand.
        imm: i64,
    },
    /// `dst &= imm`.
    AndI {
        /// Destination register.
        dst: Reg,
        /// Immediate operand.
        imm: i64,
    },
    /// `dst |= imm`.
    OrI {
        /// Destination register.
        dst: Reg,
        /// Immediate operand.
        imm: i64,
    },
    /// `dst ^= imm`.
    XorI {
        /// Destination register.
        dst: Reg,
        /// Immediate operand.
        imm: i64,
    },
    /// `dst <<= imm & 63`.
    ShlI {
        /// Destination register.
        dst: Reg,
        /// Shift amount.
        imm: i64,
    },
    /// Logical `dst >>= imm & 63`.
    ShrI {
        /// Destination register.
        dst: Reg,
        /// Shift amount.
        imm: i64,
    },
    /// Arithmetic `dst >>= imm & 63`.
    SarI {
        /// Destination register.
        dst: Reg,
        /// Shift amount.
        imm: i64,
    },
    /// `dst = -dst` (two's complement).
    Neg {
        /// Register negated in place.
        dst: Reg,
    },
    /// `dst = !dst`.
    Not {
        /// Register complemented in place.
        dst: Reg,
    },

    // ---- compare and control flow ----
    /// Compare `a` with `b` and set flags.
    Cmp {
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// Compare `a` with an immediate and set flags.
    CmpI {
        /// Left operand.
        a: Reg,
        /// Right operand immediate.
        imm: i64,
    },
    /// Unconditional jump to an absolute address.
    Jmp {
        /// Absolute target address.
        target: u64,
    },
    /// Conditional jump.
    Jcc {
        /// Condition evaluated against the flags.
        cond: Cond,
        /// Absolute target address.
        target: u64,
    },
    /// Call: push return address, jump to `target`.
    Call {
        /// Absolute target address.
        target: u64,
    },
    /// Indirect call through a register.
    CallR {
        /// Register holding the target address.
        target: Reg,
    },
    /// Return: pop the return address and jump to it.
    Ret,

    // ---- floating point ----
    /// `dst = src` (FP registers).
    FMov {
        /// Destination register.
        dst: FReg,
        /// Source register.
        src: FReg,
    },
    /// `dst = imm`.
    FMovI {
        /// Destination register.
        dst: FReg,
        /// Immediate value.
        imm: f64,
    },
    /// `dst = memf64[base + off]`.
    FLd {
        /// Destination register.
        dst: FReg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        off: i32,
    },
    /// `memf64[base + off] = src`.
    FSt {
        /// Source register.
        src: FReg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        off: i32,
    },
    /// `dst = memf64[base + idx * 8]`.
    FLdIdx {
        /// Destination register.
        dst: FReg,
        /// Base address register.
        base: Reg,
        /// Element index register.
        idx: Reg,
    },
    /// `memf64[base + idx * 8] = src`.
    FStIdx {
        /// Source register.
        src: FReg,
        /// Base address register.
        base: Reg,
        /// Element index register.
        idx: Reg,
    },
    /// `dst += src`.
    Fadd {
        /// Destination / left operand.
        dst: FReg,
        /// Right operand.
        src: FReg,
    },
    /// `dst -= src`.
    Fsub {
        /// Destination / left operand.
        dst: FReg,
        /// Right operand.
        src: FReg,
    },
    /// `dst *= src`.
    Fmul {
        /// Destination / left operand.
        dst: FReg,
        /// Right operand.
        src: FReg,
    },
    /// `dst /= src` (IEEE semantics: produces inf/NaN, never traps).
    Fdiv {
        /// Destination / left operand.
        dst: FReg,
        /// Right operand.
        src: FReg,
    },
    /// `dst = min(dst, src)`.
    Fmin {
        /// Destination / left operand.
        dst: FReg,
        /// Right operand.
        src: FReg,
    },
    /// `dst = max(dst, src)`.
    Fmax {
        /// Destination / left operand.
        dst: FReg,
        /// Right operand.
        src: FReg,
    },
    /// `dst = sqrt(dst)`.
    Fsqrt {
        /// Register transformed in place.
        dst: FReg,
    },
    /// `dst = |dst|`.
    Fabs {
        /// Register transformed in place.
        dst: FReg,
    },
    /// `dst = -dst`.
    Fneg {
        /// Register transformed in place.
        dst: FReg,
    },
    /// Compare FP registers and set flags (unordered on NaN).
    Fcmp {
        /// Left operand.
        a: FReg,
        /// Right operand.
        b: FReg,
    },
    /// Convert a signed integer to `f64`.
    CvtIF {
        /// Destination FP register.
        dst: FReg,
        /// Source integer register.
        src: Reg,
    },
    /// Convert an `f64` to a signed integer (truncating; NaN becomes 0).
    CvtFI {
        /// Destination integer register.
        dst: Reg,
        /// Source FP register.
        src: FReg,
    },
    /// Move the raw bits of an FP register into an integer register.
    MovFR {
        /// Destination integer register.
        dst: Reg,
        /// Source FP register.
        src: FReg,
    },
    /// Move an integer register's bits into an FP register.
    MovRF {
        /// Destination FP register.
        dst: FReg,
        /// Source integer register.
        src: Reg,
    },

    // ---- system ----
    /// Trap into the hypervisor / OS-lite kernel (see [`crate::abi`]).
    Hypercall {
        /// The service number.
        num: u16,
    },
}

/// A coarse instruction class used to *target* injections, matching the
/// paper's vocabulary ("inject faults into the operands of the `mov` /
/// `fadd` / `fmul` / `cmp` instructions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsnClass {
    /// Integer data movement: `mov` r/r and r/imm, loads, stores, push/pop.
    Mov,
    /// Integer arithmetic and logic.
    IntAlu,
    /// Integer compares (`cmp`).
    Cmp,
    /// Floating-point addition.
    Fadd,
    /// Floating-point subtraction.
    Fsub,
    /// Floating-point multiplication.
    Fmul,
    /// Floating-point division.
    Fdiv,
    /// Any floating-point arithmetic (`fadd`/`fsub`/`fmul`/`fdiv`/`fsqrt`/
    /// `fmin`/`fmax`/`fabs`/`fneg`).
    FpArith,
    /// Floating-point moves, loads and stores.
    FMov,
    /// Floating-point compares.
    Fcmp,
    /// Control flow (jumps, calls, returns).
    Branch,
    /// Every instruction.
    Any,
}

impl Instruction {
    /// Does this instruction belong to `class`?
    ///
    /// Classes overlap deliberately (e.g. a `fadd` is in [`InsnClass::Fadd`],
    /// [`InsnClass::FpArith`] and [`InsnClass::Any`]).
    pub fn is_in_class(&self, class: InsnClass) -> bool {
        use Instruction as I;
        match class {
            InsnClass::Any => true,
            InsnClass::Mov => matches!(
                self,
                I::MovRR { .. }
                    | I::MovRI { .. }
                    | I::Ld { .. }
                    | I::St { .. }
                    | I::LdIdx { .. }
                    | I::StIdx { .. }
                    | I::Push { .. }
                    | I::Pop { .. }
                    | I::MovFR { .. }
                    | I::MovRF { .. }
            ),
            InsnClass::IntAlu => matches!(
                self,
                I::Add { .. }
                    | I::Sub { .. }
                    | I::Mul { .. }
                    | I::Divs { .. }
                    | I::Divu { .. }
                    | I::Rem { .. }
                    | I::And { .. }
                    | I::Or { .. }
                    | I::Xor { .. }
                    | I::Shl { .. }
                    | I::Shr { .. }
                    | I::Sar { .. }
                    | I::AddI { .. }
                    | I::SubI { .. }
                    | I::MulI { .. }
                    | I::AndI { .. }
                    | I::OrI { .. }
                    | I::XorI { .. }
                    | I::ShlI { .. }
                    | I::ShrI { .. }
                    | I::SarI { .. }
                    | I::Neg { .. }
                    | I::Not { .. }
            ),
            InsnClass::Cmp => matches!(self, I::Cmp { .. } | I::CmpI { .. }),
            InsnClass::Fadd => matches!(self, I::Fadd { .. }),
            InsnClass::Fsub => matches!(self, I::Fsub { .. }),
            InsnClass::Fmul => matches!(self, I::Fmul { .. }),
            InsnClass::Fdiv => matches!(self, I::Fdiv { .. }),
            InsnClass::FpArith => matches!(
                self,
                I::Fadd { .. }
                    | I::Fsub { .. }
                    | I::Fmul { .. }
                    | I::Fdiv { .. }
                    | I::Fmin { .. }
                    | I::Fmax { .. }
                    | I::Fsqrt { .. }
                    | I::Fabs { .. }
                    | I::Fneg { .. }
            ),
            InsnClass::FMov => matches!(
                self,
                I::FMov { .. }
                    | I::FMovI { .. }
                    | I::FLd { .. }
                    | I::FSt { .. }
                    | I::FLdIdx { .. }
                    | I::FStIdx { .. }
            ),
            InsnClass::Fcmp => matches!(self, I::Fcmp { .. }),
            InsnClass::Branch => matches!(
                self,
                I::Jmp { .. } | I::Jcc { .. } | I::Call { .. } | I::CallR { .. } | I::Ret
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_overlap_as_documented() {
        let fadd = Instruction::Fadd {
            dst: FReg::F0,
            src: FReg::F1,
        };
        assert!(fadd.is_in_class(InsnClass::Fadd));
        assert!(fadd.is_in_class(InsnClass::FpArith));
        assert!(fadd.is_in_class(InsnClass::Any));
        assert!(!fadd.is_in_class(InsnClass::Fmul));
        assert!(!fadd.is_in_class(InsnClass::Mov));
    }

    #[test]
    fn mov_class_covers_loads_and_stores() {
        let ld = Instruction::Ld {
            dst: Reg::R1,
            base: Reg::R2,
            off: 16,
        };
        assert!(ld.is_in_class(InsnClass::Mov));
    }
}
