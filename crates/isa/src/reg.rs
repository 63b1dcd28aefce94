//! General-purpose and floating-point register names.

use std::fmt;

/// Number of general-purpose registers.
pub const NUM_REGS: usize = 16;
/// Number of floating-point registers.
pub const NUM_FREGS: usize = 16;

/// A 64-bit general-purpose register.
///
/// `R15` doubles as the stack pointer ([`Reg::SP`]); the remaining registers
/// are caller-managed. The guest calling convention (see [`crate::abi`])
/// passes arguments in `R1..=R6` and returns values in `R0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Reg {
    R0 = 0,
    R1 = 1,
    R2 = 2,
    R3 = 3,
    R4 = 4,
    R5 = 5,
    R6 = 6,
    R7 = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
}

impl Reg {
    /// The stack pointer alias for `R15`.
    pub const SP: Reg = Reg::R15;

    /// All general-purpose registers in index order.
    pub const ALL: [Reg; NUM_REGS] = [
        Reg::R0,
        Reg::R1,
        Reg::R2,
        Reg::R3,
        Reg::R4,
        Reg::R5,
        Reg::R6,
        Reg::R7,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// Returns the register's index in `0..NUM_REGS`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Builds a register from an index.
    ///
    /// Returns `None` if `idx >= NUM_REGS`.
    pub fn from_index(idx: usize) -> Option<Reg> {
        Reg::ALL.get(idx).copied()
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Reg::SP {
            write!(f, "sp")
        } else {
            write!(f, "r{}", self.index())
        }
    }
}

/// A 64-bit floating-point register holding an IEEE-754 `f64`.
///
/// Values are stored as raw bits in [`crate::CpuState`] so fault injectors
/// can flip individual bits without round-tripping through `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum FReg {
    F0 = 0,
    F1 = 1,
    F2 = 2,
    F3 = 3,
    F4 = 4,
    F5 = 5,
    F6 = 6,
    F7 = 7,
    F8 = 8,
    F9 = 9,
    F10 = 10,
    F11 = 11,
    F12 = 12,
    F13 = 13,
    F14 = 14,
    F15 = 15,
}

impl FReg {
    /// All floating-point registers in index order.
    pub const ALL: [FReg; NUM_FREGS] = [
        FReg::F0,
        FReg::F1,
        FReg::F2,
        FReg::F3,
        FReg::F4,
        FReg::F5,
        FReg::F6,
        FReg::F7,
        FReg::F8,
        FReg::F9,
        FReg::F10,
        FReg::F11,
        FReg::F12,
        FReg::F13,
        FReg::F14,
        FReg::F15,
    ];

    /// Returns the register's index in `0..NUM_FREGS`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Builds a floating-point register from an index.
    ///
    /// Returns `None` if `idx >= NUM_FREGS`.
    pub fn from_index(idx: usize) -> Option<FReg> {
        FReg::ALL.get(idx).copied()
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_index_round_trip() {
        for (i, r) in Reg::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(Reg::from_index(i), Some(*r));
        }
        assert_eq!(Reg::from_index(NUM_REGS), None);
    }

    #[test]
    fn freg_index_round_trip() {
        for (i, r) in FReg::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(FReg::from_index(i), Some(*r));
        }
        assert_eq!(FReg::from_index(NUM_FREGS), None);
    }

    #[test]
    fn sp_is_r15_and_displays_as_sp() {
        assert_eq!(Reg::SP, Reg::R15);
        assert_eq!(Reg::SP.to_string(), "sp");
        assert_eq!(Reg::R3.to_string(), "r3");
        assert_eq!(FReg::F7.to_string(), "f7");
    }
}
