//! Taint propagation rules.

use crate::TaintMask;

/// The operation kind being propagated through, with the value context the
/// bitwise rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropKind {
    /// Plain copy (`mov`, loads into registers keep the memory mask as-is).
    Mov,
    /// Bitwise and; carries both operand *values*.
    And {
        /// Left operand value.
        a: u64,
        /// Right operand value.
        b: u64,
    },
    /// Bitwise or; carries both operand values.
    Or {
        /// Left operand value.
        a: u64,
        /// Right operand value.
        b: u64,
    },
    /// Bitwise xor.
    Xor,
    /// Addition / subtraction (carry chain spreads taint upward).
    AddSub,
    /// Multiplication.
    Mul,
    /// Division / remainder (mixes bits downward: saturating).
    Div,
    /// Left shift; `amount` is `Some` when the shift count is untainted.
    Shl {
        /// Effective shift amount when statically clean.
        amount: Option<u32>,
    },
    /// Logical right shift.
    Shr {
        /// Effective shift amount when statically clean.
        amount: Option<u32>,
    },
    /// Arithmetic right shift.
    Sar {
        /// Effective shift amount when statically clean.
        amount: Option<u32>,
    },
    /// Two's-complement negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// Floating-point helper (unary or binary) — Chaser's FP extension.
    Fp,
    /// Int↔float conversion helpers.
    Cvt,
}

/// Whether taint propagates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaintPolicy {
    /// DECAF-style value-aware bitwise propagation.
    Precise,
    /// No propagation at all — the whole taint machinery is off, like
    /// running DECAF++ with elastic tainting disabled. This is the paper's
    /// "fault propagation tracing disabled" configuration (its Fig. 10
    /// baseline for the tracing-overhead comparison).
    Disabled,
}

impl TaintPolicy {
    /// Computes the output mask for a (possibly unary) operation.
    ///
    /// For unary operations pass [`TaintMask::CLEAN`] as `tb`. The rules
    /// guarantee *clean-in ⇒ clean-out*: if every input mask is clean the
    /// result is clean (taint is only ever created by an injector).
    pub fn propagate(self, kind: PropKind, ta: TaintMask, tb: TaintMask) -> TaintMask {
        let union = ta | tb;
        if union.is_clean() || self == TaintPolicy::Disabled {
            return TaintMask::CLEAN;
        }
        match kind {
            PropKind::Mov => ta,
            PropKind::Xor | PropKind::Not => union,
            PropKind::And { a, b } => {
                // A bit of the result is tainted if that bit is tainted
                // in one operand and not masked off by a clean 0 in the
                // other (a clean 0 forces the output bit to 0).
                TaintMask((ta.0 & tb.0) | (ta.0 & b) | (tb.0 & a))
            }
            PropKind::Or { a, b } => {
                // Dual rule: a clean 1 forces the output bit to 1.
                TaintMask((ta.0 & tb.0) | (ta.0 & !b) | (tb.0 & !a))
            }
            PropKind::AddSub | PropKind::Neg | PropKind::Mul => union.spread_up(),
            PropKind::Div => union.saturate(),
            PropKind::Shl { amount } => match amount {
                Some(c) => TaintMask(ta.0 << (c & 63)),
                None => union.saturate(),
            },
            PropKind::Shr { amount } => match amount {
                Some(c) => TaintMask(ta.0 >> (c & 63)),
                None => union.saturate(),
            },
            PropKind::Sar { amount } => match amount {
                Some(c) => {
                    let c = c & 63;
                    let mut m = ta.0 >> c;
                    // A tainted sign bit replicates into the vacated
                    // high bits.
                    if ta.0 & (1 << 63) != 0 && c > 0 {
                        m |= !0u64 << (64 - c);
                    }
                    TaintMask(m)
                }
                None => union.saturate(),
            },
            PropKind::Fp | PropKind::Cvt => union.saturate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: TaintPolicy = TaintPolicy::Precise;

    #[test]
    fn clean_in_clean_out_for_every_kind() {
        let kinds = [
            PropKind::Mov,
            PropKind::And { a: !0, b: !0 },
            PropKind::Or { a: 0, b: 0 },
            PropKind::Xor,
            PropKind::AddSub,
            PropKind::Mul,
            PropKind::Div,
            PropKind::Shl { amount: Some(3) },
            PropKind::Shr { amount: None },
            PropKind::Sar { amount: Some(1) },
            PropKind::Neg,
            PropKind::Not,
            PropKind::Fp,
            PropKind::Cvt,
        ];
        for kind in kinds {
            assert_eq!(
                P.propagate(kind, TaintMask::CLEAN, TaintMask::CLEAN),
                TaintMask::CLEAN,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn precise_and_clears_taint_under_clean_zero() {
        // b is a clean constant 0 in the tainted bit's position: output bit
        // is forced to 0 so the taint dies.
        let ta = TaintMask::bit(4);
        let out = P.propagate(PropKind::And { a: 0x10, b: 0x00 }, ta, TaintMask::CLEAN);
        assert!(out.is_clean());
        // b has a 1 in that position: taint survives.
        let out = P.propagate(PropKind::And { a: 0x10, b: 0x10 }, ta, TaintMask::CLEAN);
        assert_eq!(out, ta);
    }

    #[test]
    fn precise_or_clears_taint_under_clean_one() {
        let ta = TaintMask::bit(4);
        let out = P.propagate(PropKind::Or { a: 0x10, b: 0x10 }, ta, TaintMask::CLEAN);
        assert!(out.is_clean());
        let out = P.propagate(PropKind::Or { a: 0x10, b: 0x00 }, ta, TaintMask::CLEAN);
        assert_eq!(out, ta);
    }

    #[test]
    fn addition_spreads_upward_only() {
        let out = P.propagate(PropKind::AddSub, TaintMask::bit(8), TaintMask::CLEAN);
        assert_eq!(out, TaintMask(u64::MAX << 8));
    }

    #[test]
    fn constant_shifts_move_the_mask() {
        let ta = TaintMask::bit(8);
        assert_eq!(
            P.propagate(PropKind::Shl { amount: Some(4) }, ta, TaintMask::CLEAN),
            TaintMask::bit(12)
        );
        assert_eq!(
            P.propagate(PropKind::Shr { amount: Some(4) }, ta, TaintMask::CLEAN),
            TaintMask::bit(4)
        );
    }

    #[test]
    fn sar_replicates_tainted_sign() {
        let ta = TaintMask::bit(63);
        let out = P.propagate(PropKind::Sar { amount: Some(4) }, ta, TaintMask::CLEAN);
        assert_eq!(out.0, 0xF800_0000_0000_0000);
    }

    #[test]
    fn tainted_shift_amount_saturates() {
        let out = P.propagate(
            PropKind::Shl { amount: None },
            TaintMask::CLEAN,
            TaintMask::bit(0),
        );
        assert_eq!(out, TaintMask::ALL);
    }

    #[test]
    fn fp_taints_whole_result() {
        let out = P.propagate(PropKind::Fp, TaintMask::bit(51), TaintMask::CLEAN);
        assert_eq!(out, TaintMask::ALL);
    }
}
