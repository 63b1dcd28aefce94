//! Architectural CPU state.

use crate::{FReg, Reg, NUM_FREGS, NUM_REGS};

/// Comparison flags set by `cmp`, `cmpi` and `fcmp`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Operands compared equal.
    pub zf: bool,
    /// Left operand was less than the right under *signed* order.
    pub lt_s: bool,
    /// Left operand was less than the right under *unsigned* order.
    pub lt_u: bool,
    /// The last FP compare was unordered (at least one NaN).
    pub uo: bool,
}

impl Flags {
    /// Evaluates a branch condition against these flags.
    pub fn holds(&self, cond: crate::Cond) -> bool {
        use crate::Cond as C;
        if self.uo {
            // Unordered compare: only `Ne` holds (x86 `ucomisd` convention).
            return cond == C::Ne;
        }
        match cond {
            C::Eq => self.zf,
            C::Ne => !self.zf,
            C::Lt => self.lt_s,
            C::Le => self.lt_s || self.zf,
            C::Gt => !(self.lt_s || self.zf),
            C::Ge => !self.lt_s,
            C::Ult => self.lt_u,
            C::Ule => self.lt_u || self.zf,
            C::Ugt => !(self.lt_u || self.zf),
            C::Uge => !self.lt_u,
        }
    }

    /// Flags resulting from an integer compare of `a` and `b`.
    pub fn from_int_cmp(a: u64, b: u64) -> Flags {
        Flags {
            zf: a == b,
            lt_s: (a as i64) < (b as i64),
            lt_u: a < b,
            uo: false,
        }
    }

    /// Flags resulting from a floating-point compare of `a` and `b`.
    pub fn from_fp_cmp(a: f64, b: f64) -> Flags {
        if a.is_nan() || b.is_nan() {
            Flags {
                zf: false,
                lt_s: false,
                lt_u: false,
                uo: true,
            }
        } else {
            Flags {
                zf: a == b,
                lt_s: a < b,
                lt_u: a < b,
                uo: false,
            }
        }
    }
}

/// The full architectural state of a guest hart.
///
/// Floating-point registers are stored as raw IEEE-754 bit patterns so a
/// fault injector can flip any of the 64 bits without a value round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuState {
    regs: [u64; NUM_REGS],
    fregs: [u64; NUM_FREGS],
    /// Current comparison flags.
    pub flags: Flags,
    /// The program counter (guest virtual address of the next instruction).
    pub pc: u64,
}

impl CpuState {
    /// A zeroed CPU with `pc` at `entry`.
    pub fn new(entry: u64) -> CpuState {
        CpuState {
            regs: [0; NUM_REGS],
            fregs: [0; NUM_FREGS],
            flags: Flags::default(),
            pc: entry,
        }
    }

    /// Reads a general-purpose register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a general-purpose register.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// Reads an FP register as a value.
    pub fn freg(&self, r: FReg) -> f64 {
        f64::from_bits(self.fregs[r.index()])
    }

    /// Reads an FP register's raw bits.
    pub fn freg_bits(&self, r: FReg) -> u64 {
        self.fregs[r.index()]
    }

    /// Writes an FP register from a value.
    pub fn set_freg(&mut self, r: FReg, v: f64) {
        self.fregs[r.index()] = v.to_bits();
    }

    /// Writes an FP register's raw bits.
    pub fn set_freg_bits(&mut self, r: FReg, bits: u64) {
        self.fregs[r.index()] = bits;
    }

    /// Copies both register files into `frame`: the general-purpose
    /// registers, then the FP registers' raw bits (the register slots of
    /// an execution engine's operand frame).
    pub fn copy_regs_to(&self, frame: &mut [u64; NUM_REGS + NUM_FREGS]) {
        let (regs, fregs) = frame.split_at_mut(NUM_REGS);
        regs.copy_from_slice(&self.regs);
        fregs.copy_from_slice(&self.fregs);
    }

    /// Loads both register files from `frame`, laid out as
    /// [`CpuState::copy_regs_to`] writes it.
    pub fn load_regs_from(&mut self, frame: &[u64; NUM_REGS + NUM_FREGS]) {
        let (regs, fregs) = frame.split_at(NUM_REGS);
        self.regs.copy_from_slice(regs);
        self.fregs.copy_from_slice(fregs);
    }

    /// The stack pointer.
    pub fn sp(&self) -> u64 {
        self.reg(Reg::SP)
    }

    /// Sets the stack pointer.
    pub fn set_sp(&mut self, v: u64) {
        self.set_reg(Reg::SP, v);
    }
}

impl Default for CpuState {
    fn default() -> CpuState {
        CpuState::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cond;

    #[test]
    fn int_cmp_flag_semantics() {
        let f = Flags::from_int_cmp(3, 5);
        assert!(f.holds(Cond::Lt) && f.holds(Cond::Ult) && f.holds(Cond::Ne));
        assert!(!f.holds(Cond::Eq) && !f.holds(Cond::Ge));

        // -1 (as u64::MAX) vs 1: signed less, unsigned greater.
        let f = Flags::from_int_cmp((-1i64) as u64, 1);
        assert!(f.holds(Cond::Lt));
        assert!(f.holds(Cond::Ugt));

        let f = Flags::from_int_cmp(7, 7);
        assert!(f.holds(Cond::Eq) && f.holds(Cond::Le) && f.holds(Cond::Uge));
        assert!(!f.holds(Cond::Lt) && !f.holds(Cond::Gt));
    }

    #[test]
    fn nan_compare_is_unordered() {
        let f = Flags::from_fp_cmp(f64::NAN, 1.0);
        assert!(f.uo);
        assert!(f.holds(Cond::Ne));
        for c in [Cond::Eq, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            assert!(!f.holds(c), "{c} should be false when unordered");
        }
    }

    #[test]
    fn fp_registers_preserve_nan_payload_bits() {
        let mut cpu = CpuState::new(0);
        cpu.set_freg_bits(FReg::F1, 0x7ff8_1234_5678_9abc);
        assert!(cpu.freg(FReg::F1).is_nan());
        assert_eq!(cpu.freg_bits(FReg::F1), 0x7ff8_1234_5678_9abc);
    }

    #[test]
    fn register_frame_round_trips() {
        let mut cpu = CpuState::new(0);
        cpu.set_reg(Reg::R3, 7);
        cpu.set_freg_bits(FReg::F3, 9);
        let mut frame = [0; NUM_REGS + NUM_FREGS];
        cpu.copy_regs_to(&mut frame);
        assert_eq!((frame[3], frame[NUM_REGS + 3]), (7, 9));
        let mut back = CpuState::new(0);
        back.load_regs_from(&frame);
        assert_eq!(back, cpu);
    }

    #[test]
    fn sp_accessors_alias_r15() {
        let mut cpu = CpuState::new(0);
        cpu.set_sp(0x1000);
        assert_eq!(cpu.reg(Reg::R15), 0x1000);
        cpu.set_reg(Reg::R15, 0x2000);
        assert_eq!(cpu.sp(), 0x2000);
    }
}
