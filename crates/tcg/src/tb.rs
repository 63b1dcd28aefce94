//! Translation blocks.

use crate::{TcgOp, Temp, MAX_TB_LOCALS};
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

    /// True when every local the block reads was written by an earlier op
    /// of the block, and the block's locals fit the operand frame
    /// ([`crate::MAX_TB_LOCALS`]). The translator guarantees both; the
    /// engine relies on them to reuse the frame's local slots across
    /// blocks without clearing them.
    pub fn locals_defined_before_use(&self) -> bool {
        let n = usize::from(self.n_locals);
        if n > MAX_TB_LOCALS {
            return false;
        }
        let mut written = [false; MAX_TB_LOCALS];
        for op in &self.ops {
            let (reads, write) = op.operands();
            if reads
                .into_iter()
                .flatten()
                .filter_map(Temp::local_index)
                .any(|i| i >= n || !written[i])
            {
                return false;
            }
            if let Some(i) = write.and_then(Temp::local_index) {
                if i >= n {
                    return false;
                }
                written[i] = true;
            }
        }
        true
    }

    /// True when a fault-injection callback was spliced into this block.
    pub fn is_instrumented(&self) -> bool {
        self.instrumented
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(ops: Vec<TcgOp>, n_locals: u16) -> TranslationBlock {
        TranslationBlock::new(0, ops, Vec::new(), n_locals, false)
    }

    #[test]
    fn a_local_read_before_its_write_is_rejected() {
        let (t0, t1) = (Temp::local(0), Temp::local(1));
        let ok = vec![
            TcgOp::Movi { d: t0, imm: 8 },
            TcgOp::Add {
                d: t1,
                a: t0,
                b: t0,
            },
            TcgOp::ExitTbIndirect { addr: t1 },
        ];
        assert!(block(ok.clone(), 2).locals_defined_before_use());
        // Undercounted locals, a read before any write, an oversized block.
        assert!(!block(ok.clone(), 1).locals_defined_before_use());
        assert!(!block(ok[1..].to_vec(), 2).locals_defined_before_use());
        assert!(!block(ok, MAX_TB_LOCALS as u16 + 1).locals_defined_before_use());
    }
}
