//! Injection specifications: what, where, when and how to inject.
//!
//! These types are the Rust rendering of the paper's `fi_cmds_st` /
//! `fi_trigger_st` structures: the user (or a fault-model plugin) fills in
//! the targeted program, instruction class, trigger condition and
//! corruption, and hands the spec to the [`crate::Chaser`] session.

use chaser_isa::InsnClass;

/// When the injector fires (the paper's `fi_trigger_st`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on the n-th execution of a targeted instruction (the
    /// deterministic fault model).
    AfterN(u64),
    /// Fire independently with probability `p` at every execution (the
    /// probabilistic fault model).
    WithProbability(f64),
    /// Fire at every execution (combined with `max_injections`, the group
    /// fault model).
    Always,
    /// Fire periodically: at executions `start`, `start + period`,
    /// `start + 2·period`, … — an *intermittent* fault (e.g. a marginal
    /// cell that misbehaves under a recurring access pattern). An
    /// extension beyond the paper's three models, built to show the
    /// trigger interface carries new semantics.
    Periodic {
        /// First firing execution count (1-based).
        start: u64,
        /// Distance between firings.
        period: u64,
    },
}

/// How the chosen operand is corrupted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Corruption {
    /// Flip exactly these bit positions (0–63).
    FlipBits(Vec<u32>),
    /// Flip `n` distinct randomly chosen bits.
    FlipRandomBits(u32),
    /// Overwrite the operand with a value.
    SetValue(u64),
    /// Write the *original* value back unchanged but mark it tainted —
    /// the paper's Fig. 10 methodology for measuring overhead without
    /// perturbing application behaviour.
    Identity,
}

/// Which operand of the targeted instruction to corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandSel {
    /// The destination register.
    Dst,
    /// The (first) source register; falls back to the destination when the
    /// instruction has no register source.
    Src,
    /// A uniformly random register operand.
    Random,
    /// The memory word the instruction is about to access (the paper's
    /// `CORRUPT_MEMORY` helper); falls back to a register operand for
    /// instructions that do not touch memory.
    Memory,
}

impl OperandSel {
    /// The wire name used by campaign specs
    /// (`"dst"` / `"src"` / `"random"` / `"memory"`).
    pub fn name(self) -> &'static str {
        match self {
            OperandSel::Dst => "dst",
            OperandSel::Src => "src",
            OperandSel::Random => "random",
            OperandSel::Memory => "memory",
        }
    }

    /// Parses a wire name back into a selector; `None` on unknown names.
    pub fn from_name(s: &str) -> Option<OperandSel> {
        match s {
            "dst" => Some(OperandSel::Dst),
            "src" => Some(OperandSel::Src),
            "random" => Some(OperandSel::Random),
            "memory" => Some(OperandSel::Memory),
            _ => None,
        }
    }
}

/// A complete injection experiment description (the paper's `fi_cmds_st`).
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionSpec {
    /// Name of the targeted application — VMI screens created processes
    /// against this.
    pub target_program: String,
    /// Which rank of the application to inject into (0 = master).
    pub target_rank: u32,
    /// The targeted instruction class (`fadd`, `mov`, `cmp`, …).
    pub class: InsnClass,
    /// When to fire.
    pub trigger: Trigger,
    /// What to do to the operand.
    pub corruption: Corruption,
    /// Which operand.
    pub operand: OperandSel,
    /// Detach after this many injections (1 for single-fault runs;
    /// larger for the group model).
    pub max_injections: u64,
    /// Seed for the injector's private randomness (probabilistic trigger,
    /// random bit/operand choices).
    pub seed: u64,
}

impl InjectionSpec {
    /// A single deterministic bit-flip: flip `bits` of the `class`
    /// instruction's destination after `n` executions in `program`.
    pub fn deterministic(
        program: impl Into<String>,
        class: InsnClass,
        n: u64,
        bits: Vec<u32>,
    ) -> InjectionSpec {
        InjectionSpec {
            target_program: program.into(),
            target_rank: 0,
            class,
            trigger: Trigger::AfterN(n),
            corruption: Corruption::FlipBits(bits),
            operand: OperandSel::Dst,
            max_injections: 1,
            seed: 0,
        }
    }

    /// Returns a copy targeting a specific rank.
    pub fn with_rank(mut self, rank: u32) -> InjectionSpec {
        self.target_rank = rank;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_constructor_defaults() {
        let spec = InjectionSpec::deterministic("matvec", InsnClass::Mov, 1000, vec![5]);
        assert_eq!(spec.target_program, "matvec");
        assert_eq!(spec.trigger, Trigger::AfterN(1000));
        assert_eq!(spec.corruption, Corruption::FlipBits(vec![5]));
        assert_eq!(spec.max_injections, 1);
        assert_eq!(spec.target_rank, 0);
    }

    #[test]
    fn operand_names_round_trip() {
        for sel in [
            OperandSel::Dst,
            OperandSel::Src,
            OperandSel::Random,
            OperandSel::Memory,
        ] {
            assert_eq!(OperandSel::from_name(sel.name()), Some(sel));
        }
        assert_eq!(OperandSel::from_name("flags"), None);
    }

    #[test]
    fn builder_style_modifiers() {
        let spec = InjectionSpec::deterministic("x", InsnClass::Fadd, 1, vec![0]).with_rank(3);
        assert_eq!(spec.target_rank, 3);
        assert_eq!(spec.seed, 0);
    }
}
