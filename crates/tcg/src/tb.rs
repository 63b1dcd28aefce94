//! Translation blocks.

use crate::TcgOp;
use chaser_isa::Instruction;

/// A translated basic block of guest code.
///
/// A TB covers guest instructions from [`TranslationBlock::start_pc`] up to
/// (and including) the first control-flow transfer, trap, or
/// [`crate::MAX_TB_INSNS`] limit. The decoded guest instructions are kept
/// alongside the IR so trace logs and injection reports can show guest-level
/// mnemonics.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslationBlock {
    start_pc: u64,
    ops: Vec<TcgOp>,
    insns: Vec<(u64, Instruction)>,
    n_locals: u16,
    instrumented: bool,
}

impl TranslationBlock {
    pub(crate) fn new(
        start_pc: u64,
        ops: Vec<TcgOp>,
        insns: Vec<(u64, Instruction)>,
        n_locals: u16,
        instrumented: bool,
    ) -> TranslationBlock {
        TranslationBlock {
            start_pc,
            ops,
            insns,
            n_locals,
            instrumented,
        }
    }

    /// Guest address of the first instruction.
    pub fn start_pc(&self) -> u64 {
        self.start_pc
    }

    /// The block's IR.
    pub fn ops(&self) -> &[TcgOp] {
        &self.ops
    }

    /// The decoded guest instructions, with their addresses.
    pub fn insns(&self) -> &[(u64, Instruction)] {
        &self.insns
    }

    /// Number of block-local temporaries the engine must allocate.
    pub fn n_locals(&self) -> u16 {
        self.n_locals
    }

    /// True when a fault-injection callback was spliced into this block.
    pub fn is_instrumented(&self) -> bool {
        self.instrumented
    }
}
