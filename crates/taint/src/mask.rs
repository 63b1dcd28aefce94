//! Per-value bit-level taint masks.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitOrAssign};

/// The taint of one 64-bit value: bit `i` set means bit `i` of the value is
/// tainted (derived from an injected fault).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaintMask(pub u64);

impl TaintMask {
    /// No bits tainted.
    pub const CLEAN: TaintMask = TaintMask(0);
    /// All 64 bits tainted.
    pub const ALL: TaintMask = TaintMask(u64::MAX);

    /// A mask with a single bit set.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64`.
    pub fn bit(bit: u32) -> TaintMask {
        assert!(bit < 64, "bit index {bit} out of range");
        TaintMask(1u64 << bit)
    }

    /// True when at least one bit is tainted.
    pub fn is_tainted(self) -> bool {
        self.0 != 0
    }

    /// True when no bit is tainted.
    pub fn is_clean(self) -> bool {
        self.0 == 0
    }

    /// Number of tainted bits.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// The taint of byte `i` (0 = least significant) of the value.
    pub fn byte(self, i: usize) -> u8 {
        debug_assert!(i < 8);
        (self.0 >> (8 * i)) as u8
    }

    /// Assembles a value mask from 8 per-byte masks (little-endian).
    pub fn from_bytes(bytes: [u8; 8]) -> TaintMask {
        TaintMask(u64::from_le_bytes(bytes))
    }

    /// Spreads taint upward from the lowest tainted bit — the carry-chain
    /// approximation used for additive arithmetic.
    pub fn spread_up(self) -> TaintMask {
        if self.0 == 0 {
            TaintMask::CLEAN
        } else {
            TaintMask(u64::MAX << self.0.trailing_zeros())
        }
    }

    /// `ALL` when any bit is tainted, else `CLEAN`.
    pub fn saturate(self) -> TaintMask {
        if self.0 == 0 {
            TaintMask::CLEAN
        } else {
            TaintMask::ALL
        }
    }
}

impl BitOr for TaintMask {
    type Output = TaintMask;
    fn bitor(self, rhs: TaintMask) -> TaintMask {
        TaintMask(self.0 | rhs.0)
    }
}

impl BitOrAssign for TaintMask {
    fn bitor_assign(&mut self, rhs: TaintMask) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for TaintMask {
    type Output = TaintMask;
    fn bitand(self, rhs: TaintMask) -> TaintMask {
        TaintMask(self.0 & rhs.0)
    }
}

impl fmt::Display for TaintMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl fmt::LowerHex for TaintMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for TaintMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_extraction_round_trips() {
        let m = TaintMask(0x0102_0304_0506_0708);
        let bytes: [u8; 8] = std::array::from_fn(|i| m.byte(i));
        assert_eq!(TaintMask::from_bytes(bytes), m);
        assert_eq!(m.byte(0), 0x08);
        assert_eq!(m.byte(7), 0x01);
    }

    #[test]
    fn spread_up_covers_carry_chain() {
        assert_eq!(TaintMask::bit(0).spread_up(), TaintMask::ALL);
        assert_eq!(TaintMask::bit(63).spread_up(), TaintMask(1 << 63));
        assert_eq!(TaintMask(0b1100).spread_up(), TaintMask(u64::MAX << 2));
        assert_eq!(TaintMask::CLEAN.spread_up(), TaintMask::CLEAN);
    }

    #[test]
    fn saturate_is_all_or_nothing() {
        assert_eq!(TaintMask::CLEAN.saturate(), TaintMask::CLEAN);
        assert_eq!(TaintMask::bit(17).saturate(), TaintMask::ALL);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let _ = TaintMask::bit(64);
    }
}
