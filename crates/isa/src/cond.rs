//! Branch conditions evaluated against the [`crate::Flags`] set by compare
//! instructions.

use std::fmt;

/// A condition code for `jcc`.
///
/// Signed conditions (`Lt`, `Le`, `Gt`, `Ge`) read the signed-less-than flag;
/// the `U`-prefixed variants read the unsigned flag. After an *unordered*
/// floating-point compare (either operand NaN), all ordered conditions are
/// false and only [`Cond::Ne`] holds, mirroring x86 `ucomisd` semantics —
/// this matters for fault injection because corrupted floats frequently
/// become NaN and silently change control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal (also true when the last FP compare was unordered).
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned greater-or-equal.
    Uge,
}

impl Cond {
    /// All conditions, in encoding order.
    pub const ALL: [Cond; 10] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Lt,
        Cond::Le,
        Cond::Gt,
        Cond::Ge,
        Cond::Ult,
        Cond::Ule,
        Cond::Ugt,
        Cond::Uge,
    ];

    /// The condition's encoding index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Builds a condition from its encoding index.
    pub fn from_index(idx: usize) -> Option<Cond> {
        Cond::ALL.get(idx).copied()
    }

    /// The negation of this condition (ignoring unordered subtleties; used
    /// by the assembler's structured-control helpers).
    pub fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
            Cond::Ult => Cond::Uge,
            Cond::Ule => Cond::Ugt,
            Cond::Ugt => Cond::Ule,
            Cond::Uge => Cond::Ult,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
            Cond::Ult => "ult",
            Cond::Ule => "ule",
            Cond::Ugt => "ugt",
            Cond::Uge => "uge",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for (i, c) in Cond::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(Cond::from_index(i), Some(*c));
        }
        assert_eq!(Cond::from_index(Cond::ALL.len()), None);
    }

    #[test]
    fn negation_is_involutive() {
        for c in Cond::ALL {
            assert_eq!(c.negate().negate(), c);
            assert_ne!(c.negate(), c);
        }
    }
}
