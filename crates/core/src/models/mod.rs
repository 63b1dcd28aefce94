//! The three fault models shipped with Chaser (the paper's Table I),
//! each built *only* on the exported plugin interfaces — the paper's
//! flexibility claim (Table II) is that a new model costs ~100 lines.
//!
//! | Model | Trigger | Source file |
//! |---|---|---|
//! | Probabilistic | fires with probability `p` per execution | `probabilistic.rs` |
//! | Deterministic | fires at the exact n-th execution | `deterministic.rs` |
//! | Group | injects into all floating-point instructions | `group.rs` |
//! | Intermittent (extension) | fires periodically from a start point | `intermittent.rs` |
//!
//! The per-file line counts are what the Table II artefact
//! (`figures table2_loc`) reports.

mod deterministic;
mod group;
mod intermittent;
mod probabilistic;

pub use deterministic::DeterministicInjector;
pub use group::GroupInjector;
pub use intermittent::IntermittentInjector;
pub use probabilistic::ProbabilisticInjector;

/// Source text of the probabilistic injector (for the Table II LoC count).
pub const PROBABILISTIC_SRC: &str = include_str!("probabilistic.rs");
/// Source text of the deterministic injector.
pub const DETERMINISTIC_SRC: &str = include_str!("deterministic.rs");
/// Source text of the group injector.
pub const GROUP_SRC: &str = include_str!("group.rs");
/// Source text of the intermittent injector (our extension model).
pub const INTERMITTENT_SRC: &str = include_str!("intermittent.rs");

/// Parses an instruction-class mnemonic as accepted by the model commands.
pub(crate) fn parse_class(s: &str) -> Option<chaser_isa::InsnClass> {
    use chaser_isa::InsnClass as C;
    Some(match s {
        "mov" => C::Mov,
        "cmp" => C::Cmp,
        "fadd" => C::Fadd,
        "fsub" => C::Fsub,
        "fmul" => C::Fmul,
        "fdiv" => C::Fdiv,
        "fp" | "float" => C::FpArith,
        "fmov" => C::FMov,
        "fcmp" => C::Fcmp,
        "alu" => C::IntAlu,
        "branch" => C::Branch,
        "any" => C::Any,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaser_isa::InsnClass;

    #[test]
    fn class_mnemonics_parse() {
        assert_eq!(parse_class("fadd"), Some(InsnClass::Fadd));
        assert_eq!(parse_class("mov"), Some(InsnClass::Mov));
        assert_eq!(parse_class("fp"), Some(InsnClass::FpArith));
        assert_eq!(parse_class("bogus"), None);
    }

    #[test]
    fn model_sources_are_around_a_hundred_lines() {
        for (name, src) in [
            ("probabilistic", PROBABILISTIC_SRC),
            ("deterministic", DETERMINISTIC_SRC),
            ("group", GROUP_SRC),
            ("intermittent", INTERMITTENT_SRC),
        ] {
            let loc = src.lines().filter(|l| !l.trim().is_empty()).count();
            assert!(
                (40..200).contains(&loc),
                "{name} injector is {loc} LoC — the Table II claim is ~100"
            );
        }
    }
}
