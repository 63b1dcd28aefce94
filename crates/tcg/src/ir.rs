//! The TCG-style intermediate representation.

use crate::translate::MAX_TB_LOCALS;
use chaser_isa::{Cond, FReg, Reg, NUM_FREGS, NUM_REGS};
use std::fmt;

/// An IR operand: a slot of the engine's flat `[u64]` operand frame,
/// resolved when the block is translated (TCG's fixed `CPUArchState`
/// offsets for globals, frame slots for temps).
///
/// Slots `0..16` alias the general-purpose registers (writing
/// `Temp::reg(R1)` writes the guest's `r1`), `16..32` the FP registers'
/// raw bit patterns (FP semantics are applied only inside [`Helper`]
/// calls), and `32..` the block's locals, dead at TB exit.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Temp(u16);

impl Temp {
    /// Number of global slots (both register files); locals start here.
    pub const GLOBALS: usize = NUM_REGS + NUM_FREGS;
    /// Slots in a frame: the globals plus the most locals one block uses.
    pub const FRAME_SLOTS: usize = Temp::GLOBALS + MAX_TB_LOCALS;

    /// A general-purpose register.
    pub fn reg(r: Reg) -> Temp {
        Temp(r.index() as u16)
    }

    /// An FP register (raw bits).
    pub fn freg(r: FReg) -> Temp {
        Temp((NUM_REGS + r.index()) as u16)
    }

    /// Block-local temporary number `i`.
    pub fn local(i: u16) -> Temp {
        Temp(Temp::GLOBALS as u16 + i)
    }

    /// The operand's frame slot.
    #[inline(always)]
    pub fn slot(self) -> usize {
        usize::from(self.0)
    }

    /// The local's number, or `None` for a register.
    pub(crate) fn local_index(self) -> Option<usize> {
        self.slot().checked_sub(Temp::GLOBALS)
    }
}

impl fmt::Display for Temp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.slot() {
            s if s < NUM_REGS => write!(f, "{}", Reg::ALL[s]),
            s if s < Temp::GLOBALS => write!(f, "{}", FReg::ALL[s - NUM_REGS]),
            s => write!(f, "tmp{}", s - Temp::GLOBALS),
        }
    }
}

impl fmt::Debug for Temp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A runtime helper invoked from translated code.
///
/// QEMU lowers floating-point guest instructions to helper-function calls
/// rather than inline IR; Chaser's FP taint extension attaches its
/// propagation rules to exactly these helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Helper {
    /// `d = a + b` (f64).
    Fadd,
    /// `d = a - b` (f64).
    Fsub,
    /// `d = a * b` (f64).
    Fmul,
    /// `d = a / b` (f64).
    Fdiv,
    /// `d = min(a, b)` (f64).
    Fmin,
    /// `d = max(a, b)` (f64).
    Fmax,
    /// `d = sqrt(a)` (f64).
    Fsqrt,
    /// `d = |a|` (f64).
    Fabs,
    /// `d = -a` (f64).
    Fneg,
    /// `d = (f64)(i64)a`.
    CvtIF,
    /// `d = (i64)(f64)a`, truncating; NaN → 0.
    CvtFI,
}

impl Helper {
    /// Evaluates the helper on raw-bit operands, returning raw-bit results.
    pub fn eval(self, a: u64, b: u64) -> u64 {
        let fa = f64::from_bits(a);
        let fb = f64::from_bits(b);
        match self {
            Helper::Fadd => (fa + fb).to_bits(),
            Helper::Fsub => (fa - fb).to_bits(),
            Helper::Fmul => (fa * fb).to_bits(),
            Helper::Fdiv => (fa / fb).to_bits(),
            Helper::Fmin => fa.min(fb).to_bits(),
            Helper::Fmax => fa.max(fb).to_bits(),
            Helper::Fsqrt => fa.sqrt().to_bits(),
            Helper::Fabs => fa.abs().to_bits(),
            Helper::Fneg => (-fa).to_bits(),
            Helper::CvtIF => ((a as i64) as f64).to_bits(),
            Helper::CvtFI => {
                if fa.is_nan() {
                    0
                } else {
                    // Saturating truncation, like x86 cvttsd2si clamping.
                    (fa as i64) as u64
                }
            }
        }
    }

    /// Does this helper read its second operand?
    pub fn is_binary(self) -> bool {
        matches!(
            self,
            Helper::Fadd | Helper::Fsub | Helper::Fmul | Helper::Fdiv | Helper::Fmin | Helper::Fmax
        )
    }
}

impl fmt::Display for Helper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Helper::Fadd => "helper_fadd",
            Helper::Fsub => "helper_fsub",
            Helper::Fmul => "helper_fmul",
            Helper::Fdiv => "helper_fdiv",
            Helper::Fmin => "helper_fmin",
            Helper::Fmax => "helper_fmax",
            Helper::Fsqrt => "helper_fsqrt",
            Helper::Fabs => "helper_fabs",
            Helper::Fneg => "helper_fneg",
            Helper::CvtIF => "helper_cvt_i2f",
            Helper::CvtFI => "helper_cvt_f2i",
        };
        f.write_str(name)
    }
}

/// How a translation block transfers control when it ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcgOp {
    /// Marks the start of one guest instruction's IR (QEMU's `insn_start`).
    /// Drives the retired-instruction counter and trace sampling.
    InsnStart {
        /// Guest address of the instruction.
        pc: u64,
    },
    /// `d = imm`.
    Movi {
        /// Destination.
        d: Temp,
        /// Immediate value.
        imm: u64,
    },
    /// `d = s`.
    Mov {
        /// Destination.
        d: Temp,
        /// Source.
        s: Temp,
    },
    /// `d = a + b`.
    Add {
        /// Destination.
        d: Temp,
        /// Left operand.
        a: Temp,
        /// Right operand.
        b: Temp,
    },
    /// `d = a - b`.
    Sub {
        /// Destination.
        d: Temp,
        /// Left operand.
        a: Temp,
        /// Right operand.
        b: Temp,
    },
    /// `d = a + imm` (wrapping). Folds the ISA's add/sub-immediate forms —
    /// a subtraction is an addition of the negated immediate in two's
    /// complement — saving the `Movi` dispatch a materialized immediate
    /// temp would cost. Taint-wise the immediate operand is CLEAN, so this
    /// propagates exactly like `Add` with a clean `b`.
    Addi {
        /// Destination.
        d: Temp,
        /// Left operand.
        a: Temp,
        /// Immediate addend (already negated for subtract-immediate).
        imm: u64,
    },
    /// `d = a * b` (wrapping).
    Mul {
        /// Destination.
        d: Temp,
        /// Left operand.
        a: Temp,
        /// Right operand.
        b: Temp,
    },
    /// Signed division; the engine raises `SIGFPE` when `b == 0`.
    Divs {
        /// Destination.
        d: Temp,
        /// Dividend.
        a: Temp,
        /// Divisor.
        b: Temp,
    },
    /// Unsigned division; the engine raises `SIGFPE` when `b == 0`.
    Divu {
        /// Destination.
        d: Temp,
        /// Dividend.
        a: Temp,
        /// Divisor.
        b: Temp,
    },
    /// Unsigned remainder; the engine raises `SIGFPE` when `b == 0`.
    Remu {
        /// Destination.
        d: Temp,
        /// Dividend.
        a: Temp,
        /// Divisor.
        b: Temp,
    },
    /// `d = a & b`.
    And {
        /// Destination.
        d: Temp,
        /// Left operand.
        a: Temp,
        /// Right operand.
        b: Temp,
    },
    /// `d = a | b`.
    Or {
        /// Destination.
        d: Temp,
        /// Left operand.
        a: Temp,
        /// Right operand.
        b: Temp,
    },
    /// `d = a ^ b`.
    Xor {
        /// Destination.
        d: Temp,
        /// Left operand.
        a: Temp,
        /// Right operand.
        b: Temp,
    },
    /// `d = a << (b & 63)`.
    Shl {
        /// Destination.
        d: Temp,
        /// Value.
        a: Temp,
        /// Shift amount.
        b: Temp,
    },
    /// `d = a >> (b & 63)` (logical).
    Shr {
        /// Destination.
        d: Temp,
        /// Value.
        a: Temp,
        /// Shift amount.
        b: Temp,
    },
    /// `d = a >> (b & 63)` (arithmetic).
    Sar {
        /// Destination.
        d: Temp,
        /// Value.
        a: Temp,
        /// Shift amount.
        b: Temp,
    },
    /// `d = -a`.
    Neg {
        /// Destination.
        d: Temp,
        /// Operand.
        a: Temp,
    },
    /// `d = !a`.
    Not {
        /// Destination.
        d: Temp,
        /// Operand.
        a: Temp,
    },
    /// Integer compare: sets the guest flags from `a` vs `b`.
    SetFlagsInt {
        /// Left operand.
        a: Temp,
        /// Right operand.
        b: Temp,
    },
    /// Integer compare against an immediate: sets the guest flags from `a`
    /// vs `imm`. Folding the immediate saves the `Movi` dispatch per
    /// compare-immediate, the ISA's dominant loop-control idiom.
    SetFlagsInti {
        /// Left operand.
        a: Temp,
        /// Right immediate.
        imm: u64,
    },
    /// FP compare on raw bits: sets the guest flags (unordered on NaN).
    SetFlagsFp {
        /// Left operand (raw bits).
        a: Temp,
        /// Right operand (raw bits).
        b: Temp,
    },
    /// 64-bit guest memory load (QEMU's `qemu_ld`). The effective address
    /// is `addr + disp` — folding the constant displacement into the
    /// memory op saves a `Movi`+`Add` pair per base+offset access, the
    /// dominant addressing mode.
    QemuLd {
        /// Destination.
        d: Temp,
        /// Guest virtual address base.
        addr: Temp,
        /// Constant displacement added to `addr`.
        disp: i64,
    },
    /// 64-bit guest memory store (QEMU's `qemu_st`); effective address
    /// `addr + disp` as for [`TcgOp::QemuLd`].
    QemuSt {
        /// Value stored.
        s: Temp,
        /// Guest virtual address base.
        addr: Temp,
        /// Constant displacement added to `addr`.
        disp: i64,
    },
    /// Call a runtime helper (FP arithmetic, conversions).
    CallHelper {
        /// The helper.
        helper: Helper,
        /// Result destination.
        d: Temp,
        /// First operand.
        a: Temp,
        /// Second operand (ignored by unary helpers).
        b: Temp,
    },
    /// The spliced fault-injection callback (the paper's
    /// `DECAF_inject_fault`): the engine hands control to the registered
    /// injector *before* the following guest instruction executes.
    CallInject {
        /// Identifier of the injection point (assigned by the hook).
        point: u64,
        /// Index of the targeted instruction (its address and decoding) in
        /// its block's [`crate::TranslationBlock::insns`]: the engine looks
        /// it up only when the callback runs.
        idx: u16,
    },
    /// End the block, continuing at a known address.
    ExitTb {
        /// Next program counter.
        next: u64,
    },
    /// End the block on a condition: continue at `taken` if the guest flags
    /// satisfy `cond`, else at `fallthrough`.
    ExitTbCond {
        /// Branch condition.
        cond: Cond,
        /// Target when taken.
        taken: u64,
        /// Target when not taken.
        fallthrough: u64,
    },
    /// End the block, continuing at a computed address (`ret`, `call reg`).
    ExitTbIndirect {
        /// Temp holding the next program counter.
        addr: Temp,
    },
    /// Trap to the hypervisor; execution resumes at `next` afterwards.
    Hypercall {
        /// Service number.
        num: u16,
        /// Resume address.
        next: u64,
    },
    /// Stop the virtual CPU.
    Halt,
    /// The instruction bytes could not be fetched (unmapped code page);
    /// the engine raises `SIGSEGV`.
    BadFetch {
        /// Faulting address.
        pc: u64,
    },
    /// The instruction bytes did not decode; the engine raises `SIGILL`.
    /// A fault that corrupts control flow typically lands here.
    BadDecode {
        /// Faulting address.
        pc: u64,
    },
}

impl TcgOp {
    /// The operands whose values this op reads, and the one it writes.
    /// A unary helper reads its `b` as well: the engine evaluates both.
    pub(crate) fn operands(&self) -> ([Option<Temp>; 2], Option<Temp>) {
        use TcgOp as O;
        match *self {
            O::Movi { d, .. } => ([None, None], Some(d)),
            O::Mov { d, s: a }
            | O::Addi { d, a, .. }
            | O::Neg { d, a }
            | O::Not { d, a }
            | O::QemuLd { d, addr: a, .. } => ([Some(a), None], Some(d)),
            O::Add { d, a, b }
            | O::Sub { d, a, b }
            | O::Mul { d, a, b }
            | O::Divs { d, a, b }
            | O::Divu { d, a, b }
            | O::Remu { d, a, b }
            | O::And { d, a, b }
            | O::Or { d, a, b }
            | O::Xor { d, a, b }
            | O::Shl { d, a, b }
            | O::Shr { d, a, b }
            | O::Sar { d, a, b }
            | O::CallHelper { d, a, b, .. } => ([Some(a), Some(b)], Some(d)),
            O::SetFlagsInt { a, b } | O::SetFlagsFp { a, b } | O::QemuSt { s: a, addr: b, .. } => {
                ([Some(a), Some(b)], None)
            }
            O::SetFlagsInti { a, .. } | O::ExitTbIndirect { addr: a } => ([Some(a), None], None),
            O::InsnStart { .. }
            | O::CallInject { .. }
            | O::ExitTb { .. }
            | O::ExitTbCond { .. }
            | O::Hypercall { .. }
            | O::Halt
            | O::BadFetch { .. }
            | O::BadDecode { .. } => ([None, None], None),
        }
    }
}

impl fmt::Display for TcgOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TcgOp as O;
        match self {
            O::InsnStart { pc } => write!(f, "---- insn_start {pc:#x}"),
            O::Movi { d, imm } => write!(f, "movi_i64 {d}, {imm:#x}"),
            O::Mov { d, s } => write!(f, "mov_i64 {d}, {s}"),
            O::Add { d, a, b } => write!(f, "add_i64 {d}, {a}, {b}"),
            O::Sub { d, a, b } => write!(f, "sub_i64 {d}, {a}, {b}"),
            O::Addi { d, a, imm } => write!(f, "addi_i64 {d}, {a}, {imm:#x}"),
            O::Mul { d, a, b } => write!(f, "mul_i64 {d}, {a}, {b}"),
            O::Divs { d, a, b } => write!(f, "div_i64 {d}, {a}, {b}"),
            O::Divu { d, a, b } => write!(f, "divu_i64 {d}, {a}, {b}"),
            O::Remu { d, a, b } => write!(f, "remu_i64 {d}, {a}, {b}"),
            O::And { d, a, b } => write!(f, "and_i64 {d}, {a}, {b}"),
            O::Or { d, a, b } => write!(f, "or_i64 {d}, {a}, {b}"),
            O::Xor { d, a, b } => write!(f, "xor_i64 {d}, {a}, {b}"),
            O::Shl { d, a, b } => write!(f, "shl_i64 {d}, {a}, {b}"),
            O::Shr { d, a, b } => write!(f, "shr_i64 {d}, {a}, {b}"),
            O::Sar { d, a, b } => write!(f, "sar_i64 {d}, {a}, {b}"),
            O::Neg { d, a } => write!(f, "neg_i64 {d}, {a}"),
            O::Not { d, a } => write!(f, "not_i64 {d}, {a}"),
            O::SetFlagsInt { a, b } => write!(f, "setflags_i64 {a}, {b}"),
            O::SetFlagsInti { a, imm } => write!(f, "setflagsi_i64 {a}, {imm:#x}"),
            O::SetFlagsFp { a, b } => write!(f, "setflags_f64 {a}, {b}"),
            O::QemuLd { d, addr, disp } => {
                if *disp == 0 {
                    write!(f, "qemu_ld_i64 {d}, {addr}")
                } else {
                    write!(f, "qemu_ld_i64 {d}, {addr}{disp:+}")
                }
            }
            O::QemuSt { s, addr, disp } => {
                if *disp == 0 {
                    write!(f, "qemu_st_i64 {s}, {addr}")
                } else {
                    write!(f, "qemu_st_i64 {s}, {addr}{disp:+}")
                }
            }
            O::CallHelper { helper, d, a, b } => {
                if helper.is_binary() {
                    write!(f, "call {helper} {d}, {a}, {b}")
                } else {
                    write!(f, "call {helper} {d}, {a}")
                }
            }
            O::CallInject { point, idx } => {
                write!(f, "call DECAF_inject_fault point={point} insn={idx}")
            }
            O::ExitTb { next } => write!(f, "exit_tb {next:#x}"),
            O::ExitTbCond {
                cond,
                taken,
                fallthrough,
            } => write!(f, "exit_tb_cond {cond} {taken:#x} {fallthrough:#x}"),
            O::ExitTbIndirect { addr } => write!(f, "exit_tb_ind {addr}"),
            O::Hypercall { num, next } => write!(f, "hypercall {num} next={next:#x}"),
            O::Halt => write!(f, "halt"),
            O::BadFetch { pc } => write!(f, "bad_fetch {pc:#x}"),
            O::BadDecode { pc } => write!(f, "bad_decode {pc:#x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helper_eval_basic() {
        let two = 2.0f64.to_bits();
        let three = 3.0f64.to_bits();
        assert_eq!(f64::from_bits(Helper::Fadd.eval(two, three)), 5.0);
        assert_eq!(f64::from_bits(Helper::Fsub.eval(two, three)), -1.0);
        assert_eq!(f64::from_bits(Helper::Fmul.eval(two, three)), 6.0);
        assert_eq!(f64::from_bits(Helper::Fdiv.eval(three, two)), 1.5);
        assert_eq!(f64::from_bits(Helper::Fsqrt.eval(4.0f64.to_bits(), 0)), 2.0);
        assert_eq!(
            f64::from_bits(Helper::Fabs.eval((-1.5f64).to_bits(), 0)),
            1.5
        );
        assert_eq!(f64::from_bits(Helper::Fneg.eval(1.5f64.to_bits(), 0)), -1.5);
    }

    #[test]
    fn helper_div_by_zero_is_ieee_not_trap() {
        let r = f64::from_bits(Helper::Fdiv.eval(1.0f64.to_bits(), 0.0f64.to_bits()));
        assert!(r.is_infinite());
        let r = f64::from_bits(Helper::Fdiv.eval(0.0f64.to_bits(), 0.0f64.to_bits()));
        assert!(r.is_nan());
    }

    #[test]
    fn helper_conversions() {
        assert_eq!(f64::from_bits(Helper::CvtIF.eval((-7i64) as u64, 0)), -7.0);
        assert_eq!(Helper::CvtFI.eval((-7.9f64).to_bits(), 0), (-7i64) as u64);
        assert_eq!(Helper::CvtFI.eval(f64::NAN.to_bits(), 0), 0);
    }

    #[test]
    fn display_matches_qemu_flavour() {
        let op = TcgOp::Movi {
            d: Temp::local(3),
            imm: 0xfe,
        };
        assert_eq!(op.to_string(), "movi_i64 tmp3, 0xfe");
        let op = TcgOp::Mov {
            d: Temp::freg(FReg::F15),
            s: Temp::reg(Reg::R0),
        };
        assert_eq!(op.to_string(), "mov_i64 f15, r0");
        let op = TcgOp::CallInject { point: 1, idx: 0 };
        assert!(op.to_string().contains("DECAF_inject_fault"));
    }

    #[test]
    fn call_inject_fits_the_widest_op() {
        // Carrying the instruction index costs the dispatch loop no op
        // size.
        assert_eq!(std::mem::size_of::<TcgOp>(), 24);
    }
}
