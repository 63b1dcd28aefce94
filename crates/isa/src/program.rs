//! Assembled guest program images and the process address-space layout.

use std::collections::HashMap;

/// Guest page size in bytes.
pub const PAGE_SIZE: u64 = 4096;
/// Virtual base address of the code (text) section.
pub const CODE_BASE: u64 = 0x0040_0000;
/// Virtual base address of the data section.
pub const DATA_BASE: u64 = 0x0100_0000;
/// Virtual address one past the top of the stack (the initial `sp`).
pub const STACK_TOP: u64 = 0x7fff_f000;
/// Size of the stack mapping in bytes.
pub const STACK_SIZE: u64 = 1 << 20;

/// An assembled guest program: code and data images plus a symbol table.
///
/// Produced by [`crate::Asm::assemble`]; loaded into a process address space
/// by `chaser-vm`. Symbols are absolute guest virtual addresses and include
/// both code labels and data symbols — Chaser uses them to hook the MPI
/// library functions by address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    code: Vec<u8>,
    data: Vec<u8>,
    entry: u64,
    symbols: HashMap<String, u64>,
}

impl Program {
    pub(crate) fn new(
        name: String,
        code: Vec<u8>,
        data: Vec<u8>,
        entry: u64,
        symbols: HashMap<String, u64>,
    ) -> Program {
        Program {
            name,
            code,
            data,
            entry,
            symbols,
        }
    }

    /// The program's name (the paper's "targeted application" key: VMI
    /// screens created processes against this).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The encoded text section, loaded at [`CODE_BASE`].
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// The initialised data section, loaded at [`DATA_BASE`].
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The entry point address.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// Looks up a symbol (code label or data symbol) as an absolute address.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// All symbols.
    pub fn symbols(&self) -> &HashMap<String, u64> {
        &self.symbols
    }

    /// First heap address: the end of the data section, page aligned.
    pub fn heap_base(&self) -> u64 {
        let end = DATA_BASE + self.data.len() as u64;
        end.div_ceil(PAGE_SIZE) * PAGE_SIZE
    }

    /// Number of instructions in the text section.
    pub fn insn_count(&self) -> usize {
        self.code.len() / crate::INSN_LEN as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_base_is_page_aligned_past_data() {
        let p = Program::new("t".into(), vec![], vec![0; 5000], CODE_BASE, HashMap::new());
        assert_eq!(p.heap_base() % PAGE_SIZE, 0);
        assert!(p.heap_base() >= DATA_BASE + 5000);
        assert!(p.heap_base() < DATA_BASE + 5000 + PAGE_SIZE);
    }

    #[test]
    fn layout_regions_do_not_overlap() {
        const { assert!(CODE_BASE + (1 << 22) <= DATA_BASE) }
        const { assert!(STACK_TOP - STACK_SIZE > DATA_BASE) }
    }
}
