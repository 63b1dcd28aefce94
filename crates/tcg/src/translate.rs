//! The guest → TCG-IR translator.

use crate::ir::{Helper, TcgOp, Temp};
use crate::tb::TranslationBlock;
use chaser_isa::{decode, Instruction, INSN_LEN};

/// Maximum number of guest instructions per translation block.
pub const MAX_TB_INSNS: usize = 32;

/// Maximum number of block-local temporaries per translation block: no
/// instruction lowers to more than three (an indexed access: the scale
/// constant, the scaled index and the address). The engine's operand
/// frame holds exactly this many local slots.
pub const MAX_TB_LOCALS: usize = 3 * MAX_TB_INSNS;

/// Identifier of a spliced injection point, assigned by the
/// [`TranslateHook`] and handed back to the engine's injector callback.
pub type InjectPointId = u64;

/// Source of guest code bytes (implemented by the VM's address space).
pub trait CodeFetcher {
    /// Fetches the [`INSN_LEN`] instruction bytes at `vaddr`, or `None` if
    /// the address is unmapped or not executable.
    fn fetch_insn(&self, vaddr: u64) -> Option<[u8; INSN_LEN as usize]>;
}

/// A [`CodeFetcher`] over a flat byte slice, for tests and tools.
#[derive(Debug, Clone)]
pub struct SliceFetcher<'a> {
    base: u64,
    bytes: &'a [u8],
}

impl<'a> SliceFetcher<'a> {
    /// Wraps `bytes` as guest code starting at virtual address `base`.
    pub fn new(base: u64, bytes: &'a [u8]) -> SliceFetcher<'a> {
        SliceFetcher { base, bytes }
    }
}

impl CodeFetcher for SliceFetcher<'_> {
    fn fetch_insn(&self, vaddr: u64) -> Option<[u8; INSN_LEN as usize]> {
        let off = vaddr.checked_sub(self.base)? as usize;
        let end = off.checked_add(INSN_LEN as usize)?;
        self.bytes
            .get(off..end)
            .map(|s| s.try_into().expect("slice is INSN_LEN long"))
    }
}

/// Decides, at translation time, whether an instruction is an injection
/// target — Chaser's just-in-time instrumentation hook.
///
/// Returning `Some(id)` splices a [`TcgOp::CallInject`] in front of the
/// instruction's IR (the paper's Fig. 3); returning `None` leaves the
/// instruction's translation untouched, which is what keeps untargeted code
/// at native-translation cost.
pub trait TranslateHook {
    /// Should `insn` at `pc` get an injection callback?
    fn inject_point(&self, pc: u64, insn: &Instruction) -> Option<InjectPointId>;
}

struct Ctx {
    ops: Vec<TcgOp>,
    n_locals: u16,
}

impl Ctx {
    fn tmp(&mut self) -> Temp {
        let t = Temp::local(self.n_locals);
        self.n_locals += 1;
        t
    }

    fn emit(&mut self, op: TcgOp) {
        self.ops.push(op);
    }

    /// Materialises an immediate into a fresh temp.
    fn movi(&mut self, imm: u64) -> Temp {
        let t = self.tmp();
        self.emit(TcgOp::Movi { d: t, imm });
        t
    }

    /// Computes `base + idx * 8` into a fresh temp.
    fn addr_idx(&mut self, base: Temp, idx: Temp) -> Temp {
        let eight = self.movi(8);
        let scaled = self.tmp();
        self.emit(TcgOp::Mul {
            d: scaled,
            a: idx,
            b: eight,
        });
        let t = self.tmp();
        self.emit(TcgOp::Add {
            d: t,
            a: base,
            b: scaled,
        });
        t
    }
}

/// Translates one block of guest code starting at `start_pc`.
///
/// Translation stops at the first control-flow transfer, trap, halt,
/// undecodable instruction, unmapped fetch, or after [`MAX_TB_INSNS`]
/// instructions. Fetch and decode failures translate to [`TcgOp::BadFetch`]
/// / [`TcgOp::BadDecode`] so the *engine* raises the corresponding guest
/// signal at execution time, preserving QEMU's lazy-fault behaviour.
pub fn translate_block(
    fetcher: &dyn CodeFetcher,
    start_pc: u64,
    hook: Option<&dyn TranslateHook>,
) -> TranslationBlock {
    let mut ctx = Ctx {
        ops: Vec::new(),
        n_locals: 0,
    };
    let mut insns = Vec::new();
    let mut instrumented = false;
    let mut pc = start_pc;

    for _ in 0..MAX_TB_INSNS {
        let Some(bytes) = fetcher.fetch_insn(pc) else {
            ctx.emit(TcgOp::BadFetch { pc });
            break;
        };
        let insn = match decode(&bytes) {
            Ok(insn) => insn,
            Err(_) => {
                ctx.emit(TcgOp::BadDecode { pc });
                break;
            }
        };
        let idx = insns.len() as u16;
        insns.push((pc, insn));
        ctx.emit(TcgOp::InsnStart { pc });

        if let Some(point) = hook.and_then(|h| h.inject_point(pc, &insn)) {
            ctx.emit(TcgOp::CallInject { point, idx });
            instrumented = true;
        }

        let next = pc + INSN_LEN;
        let ends = lower(&mut ctx, &insn, next);
        if ends {
            break;
        }
        pc = next;
        // Hit the block-size limit without a terminator: exit to `pc`.
        if insns.len() == MAX_TB_INSNS {
            ctx.emit(TcgOp::ExitTb { next: pc });
        }
    }

    assert!(
        usize::from(ctx.n_locals) <= MAX_TB_LOCALS,
        "a block at {start_pc:#x} needs {} locals, the frame holds {MAX_TB_LOCALS}",
        ctx.n_locals
    );
    TranslationBlock::new(start_pc, ctx.ops, insns, ctx.n_locals, instrumented)
}

/// Lowers a single instruction; returns `true` when it terminates the block.
fn lower(ctx: &mut Ctx, insn: &Instruction, next: u64) -> bool {
    use Instruction as I;
    use TcgOp as O;
    let sp = Temp::reg(chaser_isa::Reg::SP);
    match *insn {
        I::Nop => {}
        I::Halt => {
            ctx.emit(O::Halt);
            return true;
        }
        I::MovRR { dst, src } => ctx.emit(O::Mov {
            d: Temp::reg(dst),
            s: Temp::reg(src),
        }),
        I::MovRI { dst, imm } => ctx.emit(O::Movi {
            d: Temp::reg(dst),
            imm: imm as u64,
        }),
        I::Ld { dst, base, off } => {
            ctx.emit(O::QemuLd {
                d: Temp::reg(dst),
                addr: Temp::reg(base),
                disp: off as i64,
            });
        }
        I::St { src, base, off } => {
            ctx.emit(O::QemuSt {
                s: Temp::reg(src),
                addr: Temp::reg(base),
                disp: off as i64,
            });
        }
        I::LdIdx { dst, base, idx } => {
            let addr = ctx.addr_idx(Temp::reg(base), Temp::reg(idx));
            ctx.emit(O::QemuLd {
                d: Temp::reg(dst),
                addr,
                disp: 0,
            });
        }
        I::StIdx { src, base, idx } => {
            let addr = ctx.addr_idx(Temp::reg(base), Temp::reg(idx));
            ctx.emit(O::QemuSt {
                s: Temp::reg(src),
                addr,
                disp: 0,
            });
        }
        I::Push { src } => {
            let eight = ctx.movi(8);
            ctx.emit(O::Sub {
                d: sp,
                a: sp,
                b: eight,
            });
            ctx.emit(O::QemuSt {
                s: Temp::reg(src),
                addr: sp,
                disp: 0,
            });
        }
        I::Pop { dst } => {
            let t = ctx.tmp();
            ctx.emit(O::QemuLd {
                d: t,
                addr: sp,
                disp: 0,
            });
            let eight = ctx.movi(8);
            ctx.emit(O::Add {
                d: sp,
                a: sp,
                b: eight,
            });
            ctx.emit(O::Mov {
                d: Temp::reg(dst),
                s: t,
            });
        }
        I::Add { dst, src } => bin(ctx, BinKind::Add, dst, src),
        I::Sub { dst, src } => bin(ctx, BinKind::Sub, dst, src),
        I::Mul { dst, src } => bin(ctx, BinKind::Mul, dst, src),
        I::Divs { dst, src } => bin(ctx, BinKind::Divs, dst, src),
        I::Divu { dst, src } => bin(ctx, BinKind::Divu, dst, src),
        I::Rem { dst, src } => bin(ctx, BinKind::Remu, dst, src),
        I::And { dst, src } => bin(ctx, BinKind::And, dst, src),
        I::Or { dst, src } => bin(ctx, BinKind::Or, dst, src),
        I::Xor { dst, src } => bin(ctx, BinKind::Xor, dst, src),
        I::Shl { dst, src } => bin(ctx, BinKind::Shl, dst, src),
        I::Shr { dst, src } => bin(ctx, BinKind::Shr, dst, src),
        I::Sar { dst, src } => bin(ctx, BinKind::Sar, dst, src),
        // Add/sub-immediate fold straight into `Addi` (subtraction adds the
        // negated immediate), skipping the materialized immediate temp.
        I::AddI { dst, imm } => {
            let d = Temp::reg(dst);
            ctx.emit(O::Addi {
                d,
                a: d,
                imm: imm as u64,
            });
        }
        I::SubI { dst, imm } => {
            let d = Temp::reg(dst);
            ctx.emit(O::Addi {
                d,
                a: d,
                imm: imm.wrapping_neg() as u64,
            });
        }
        I::MulI { dst, imm } => bin_imm(ctx, BinKind::Mul, dst, imm),
        I::AndI { dst, imm } => bin_imm(ctx, BinKind::And, dst, imm),
        I::OrI { dst, imm } => bin_imm(ctx, BinKind::Or, dst, imm),
        I::XorI { dst, imm } => bin_imm(ctx, BinKind::Xor, dst, imm),
        I::ShlI { dst, imm } => bin_imm(ctx, BinKind::Shl, dst, imm),
        I::ShrI { dst, imm } => bin_imm(ctx, BinKind::Shr, dst, imm),
        I::SarI { dst, imm } => bin_imm(ctx, BinKind::Sar, dst, imm),
        I::Neg { dst } => {
            let d = Temp::reg(dst);
            ctx.emit(O::Neg { d, a: d });
        }
        I::Not { dst } => {
            let d = Temp::reg(dst);
            ctx.emit(O::Not { d, a: d });
        }
        I::Cmp { a, b } => ctx.emit(O::SetFlagsInt {
            a: Temp::reg(a),
            b: Temp::reg(b),
        }),
        I::CmpI { a, imm } => ctx.emit(O::SetFlagsInti {
            a: Temp::reg(a),
            imm: imm as u64,
        }),
        I::Jmp { target } => {
            ctx.emit(O::ExitTb { next: target });
            return true;
        }
        I::Jcc { cond, target } => {
            ctx.emit(O::ExitTbCond {
                cond,
                taken: target,
                fallthrough: next,
            });
            return true;
        }
        I::Call { target } => {
            emit_push_imm(ctx, next);
            ctx.emit(O::ExitTb { next: target });
            return true;
        }
        I::CallR { target } => {
            emit_push_imm(ctx, next);
            ctx.emit(O::ExitTbIndirect {
                addr: Temp::reg(target),
            });
            return true;
        }
        I::Ret => {
            let t = ctx.tmp();
            ctx.emit(O::QemuLd {
                d: t,
                addr: sp,
                disp: 0,
            });
            let eight = ctx.movi(8);
            ctx.emit(O::Add {
                d: sp,
                a: sp,
                b: eight,
            });
            ctx.emit(O::ExitTbIndirect { addr: t });
            return true;
        }
        I::FMov { dst, src } => ctx.emit(O::Mov {
            d: Temp::freg(dst),
            s: Temp::freg(src),
        }),
        I::FMovI { dst, imm } => ctx.emit(O::Movi {
            d: Temp::freg(dst),
            imm: imm.to_bits(),
        }),
        I::FLd { dst, base, off } => {
            ctx.emit(O::QemuLd {
                d: Temp::freg(dst),
                addr: Temp::reg(base),
                disp: off as i64,
            });
        }
        I::FSt { src, base, off } => {
            ctx.emit(O::QemuSt {
                s: Temp::freg(src),
                addr: Temp::reg(base),
                disp: off as i64,
            });
        }
        I::FLdIdx { dst, base, idx } => {
            let addr = ctx.addr_idx(Temp::reg(base), Temp::reg(idx));
            ctx.emit(O::QemuLd {
                d: Temp::freg(dst),
                addr,
                disp: 0,
            });
        }
        I::FStIdx { src, base, idx } => {
            let addr = ctx.addr_idx(Temp::reg(base), Temp::reg(idx));
            ctx.emit(O::QemuSt {
                s: Temp::freg(src),
                addr,
                disp: 0,
            });
        }
        I::Fadd { dst, src } => fp_bin(ctx, Helper::Fadd, dst, src),
        I::Fsub { dst, src } => fp_bin(ctx, Helper::Fsub, dst, src),
        I::Fmul { dst, src } => fp_bin(ctx, Helper::Fmul, dst, src),
        I::Fdiv { dst, src } => fp_bin(ctx, Helper::Fdiv, dst, src),
        I::Fmin { dst, src } => fp_bin(ctx, Helper::Fmin, dst, src),
        I::Fmax { dst, src } => fp_bin(ctx, Helper::Fmax, dst, src),
        I::Fsqrt { dst } => fp_un(ctx, Helper::Fsqrt, dst),
        I::Fabs { dst } => fp_un(ctx, Helper::Fabs, dst),
        I::Fneg { dst } => fp_un(ctx, Helper::Fneg, dst),
        I::Fcmp { a, b } => ctx.emit(O::SetFlagsFp {
            a: Temp::freg(a),
            b: Temp::freg(b),
        }),
        I::CvtIF { dst, src } => ctx.emit(O::CallHelper {
            helper: Helper::CvtIF,
            d: Temp::freg(dst),
            a: Temp::reg(src),
            b: Temp::reg(src),
        }),
        I::CvtFI { dst, src } => ctx.emit(O::CallHelper {
            helper: Helper::CvtFI,
            d: Temp::reg(dst),
            a: Temp::freg(src),
            b: Temp::freg(src),
        }),
        I::MovFR { dst, src } => ctx.emit(O::Mov {
            d: Temp::reg(dst),
            s: Temp::freg(src),
        }),
        I::MovRF { dst, src } => ctx.emit(O::Mov {
            d: Temp::freg(dst),
            s: Temp::reg(src),
        }),
        I::Hypercall { num } => {
            ctx.emit(O::Hypercall { num, next });
            return true;
        }
    }
    false
}

#[derive(Clone, Copy)]
enum BinKind {
    Add,
    Sub,
    Mul,
    Divs,
    Divu,
    Remu,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Sar,
}

fn emit_bin(ctx: &mut Ctx, kind: BinKind, d: Temp, a: Temp, b: Temp) {
    use TcgOp as O;
    let op = match kind {
        BinKind::Add => O::Add { d, a, b },
        BinKind::Sub => O::Sub { d, a, b },
        BinKind::Mul => O::Mul { d, a, b },
        BinKind::Divs => O::Divs { d, a, b },
        BinKind::Divu => O::Divu { d, a, b },
        BinKind::Remu => O::Remu { d, a, b },
        BinKind::And => O::And { d, a, b },
        BinKind::Or => O::Or { d, a, b },
        BinKind::Xor => O::Xor { d, a, b },
        BinKind::Shl => O::Shl { d, a, b },
        BinKind::Shr => O::Shr { d, a, b },
        BinKind::Sar => O::Sar { d, a, b },
    };
    ctx.emit(op);
}

fn bin(ctx: &mut Ctx, kind: BinKind, dst: chaser_isa::Reg, src: chaser_isa::Reg) {
    let d = Temp::reg(dst);
    emit_bin(ctx, kind, d, d, Temp::reg(src));
}

fn bin_imm(ctx: &mut Ctx, kind: BinKind, dst: chaser_isa::Reg, imm: i64) {
    let t = ctx.movi(imm as u64);
    let d = Temp::reg(dst);
    emit_bin(ctx, kind, d, d, t);
}

fn fp_bin(ctx: &mut Ctx, helper: Helper, dst: chaser_isa::FReg, src: chaser_isa::FReg) {
    let d = Temp::freg(dst);
    ctx.emit(TcgOp::CallHelper {
        helper,
        d,
        a: d,
        b: Temp::freg(src),
    });
}

fn fp_un(ctx: &mut Ctx, helper: Helper, dst: chaser_isa::FReg) {
    let d = Temp::freg(dst);
    ctx.emit(TcgOp::CallHelper {
        helper,
        d,
        a: d,
        b: d,
    });
}

fn emit_push_imm(ctx: &mut Ctx, value: u64) {
    let sp = Temp::reg(chaser_isa::Reg::SP);
    let eight = ctx.movi(8);
    ctx.emit(TcgOp::Sub {
        d: sp,
        a: sp,
        b: eight,
    });
    let v = ctx.movi(value);
    ctx.emit(TcgOp::QemuSt {
        s: v,
        addr: sp,
        disp: 0,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaser_isa::{Asm, Cond, FReg, InsnClass, Reg, CODE_BASE};

    fn assemble(f: impl FnOnce(&mut Asm)) -> Vec<u8> {
        let mut a = Asm::new("t");
        f(&mut a);
        a.assemble().expect("assemble").code().to_vec()
    }

    struct FaddHook;
    impl TranslateHook for FaddHook {
        fn inject_point(&self, _pc: u64, insn: &Instruction) -> Option<InjectPointId> {
            insn.is_in_class(InsnClass::Fadd).then_some(42)
        }
    }

    #[test]
    fn fig3_fadd_without_injector_has_no_callback() {
        let code = assemble(|a| {
            a.fadd(FReg::F0, FReg::F1);
            a.halt();
        });
        let tb = translate_block(&SliceFetcher::new(CODE_BASE, &code), CODE_BASE, None);
        assert!(!tb.is_instrumented());
        assert!(!tb
            .ops()
            .iter()
            .any(|op| matches!(op, TcgOp::CallInject { .. })));
        assert!(tb.ops().iter().any(|op| matches!(
            op,
            TcgOp::CallHelper {
                helper: Helper::Fadd,
                ..
            }
        )));
    }

    #[test]
    fn fig3_fadd_with_injector_splices_callback_before_helper() {
        let code = assemble(|a| {
            a.fadd(FReg::F0, FReg::F1);
            a.halt();
        });
        let hook = FaddHook;
        let tb = translate_block(&SliceFetcher::new(CODE_BASE, &code), CODE_BASE, Some(&hook));
        assert!(tb.is_instrumented());
        let inject_pos = tb
            .ops()
            .iter()
            .position(|op| matches!(op, TcgOp::CallInject { point: 42, .. }))
            .expect("CallInject present");
        let helper_pos = tb
            .ops()
            .iter()
            .position(|op| {
                matches!(
                    op,
                    TcgOp::CallHelper {
                        helper: Helper::Fadd,
                        ..
                    }
                )
            })
            .expect("helper present");
        assert!(
            inject_pos < helper_pos,
            "injection callback must run before the fadd executes"
        );
    }

    #[test]
    fn untargeted_instructions_are_not_instrumented() {
        let code = assemble(|a| {
            a.movi(Reg::R1, 5);
            a.fadd(FReg::F0, FReg::F1);
            a.halt();
        });
        let hook = FaddHook;
        let tb = translate_block(&SliceFetcher::new(CODE_BASE, &code), CODE_BASE, Some(&hook));
        let count = tb
            .ops()
            .iter()
            .filter(|op| matches!(op, TcgOp::CallInject { .. }))
            .count();
        assert_eq!(count, 1, "only the fadd gets a callback");
        // The callback carries the targeted instruction's index.
        let idx = tb
            .ops()
            .iter()
            .find_map(|op| match *op {
                TcgOp::CallInject { idx, .. } => Some(idx),
                _ => None,
            })
            .expect("CallInject present");
        assert_eq!(tb.insns()[idx as usize].0, CODE_BASE + INSN_LEN);
        assert!(matches!(
            tb.insns()[idx as usize].1,
            Instruction::Fadd { .. }
        ));
    }

    #[test]
    fn block_ends_at_branch() {
        let code = assemble(|a| {
            a.movi(Reg::R1, 1);
            a.label("l");
            a.cmpi(Reg::R1, 3);
            a.jcc(Cond::Lt, "l");
            a.nop(); // unreachable from this block
            a.halt();
        });
        let tb = translate_block(&SliceFetcher::new(CODE_BASE, &code), CODE_BASE, None);
        assert_eq!(tb.insns().len(), 3);
        assert!(matches!(
            tb.ops().last(),
            Some(TcgOp::ExitTbCond { cond: Cond::Lt, .. })
        ));
    }

    #[test]
    fn block_terminators() {
        // A control transfer, a trap or a halt ends the block; a nop does not.
        type Emit = fn(&mut Asm) -> &mut Asm;
        let cases: [(Emit, usize); 5] = [
            (Asm::ret, 1),
            (|a| a.hypercall(1), 1),
            (|a| a.jmp("next"), 1),
            (Asm::halt, 1),
            (Asm::nop, 3),
        ];
        for (first, insns) in cases {
            let code = assemble(|a| {
                first(a).label("next").nop().halt();
            });
            let tb = translate_block(&SliceFetcher::new(CODE_BASE, &code), CODE_BASE, None);
            assert_eq!(tb.insns().len(), insns);
        }
    }

    #[test]
    fn block_respects_max_insns() {
        let code = assemble(|a| {
            for _ in 0..(MAX_TB_INSNS + 10) {
                a.nop();
            }
            a.halt();
        });
        let tb = translate_block(&SliceFetcher::new(CODE_BASE, &code), CODE_BASE, None);
        assert_eq!(tb.insns().len(), MAX_TB_INSNS);
        let expected_next = CODE_BASE + (MAX_TB_INSNS as u64) * chaser_isa::INSN_LEN;
        assert!(matches!(
            tb.ops().last(),
            Some(TcgOp::ExitTb { next }) if *next == expected_next
        ));
    }

    #[test]
    fn unmapped_fetch_becomes_bad_fetch() {
        let tb = translate_block(&SliceFetcher::new(CODE_BASE, &[]), CODE_BASE, None);
        assert!(matches!(tb.ops(), [TcgOp::BadFetch { pc }] if *pc == CODE_BASE));
        assert!(tb.insns().is_empty());
    }

    #[test]
    fn undecodable_bytes_become_bad_decode() {
        let bytes = [0xffu8; 12];
        let tb = translate_block(&SliceFetcher::new(CODE_BASE, &bytes), CODE_BASE, None);
        assert!(matches!(tb.ops(), [TcgOp::BadDecode { pc }] if *pc == CODE_BASE));
    }

    #[test]
    fn hypercall_ends_block_with_resume_address() {
        let code = assemble(|a| {
            a.hypercall(7);
            a.nop();
        });
        let tb = translate_block(&SliceFetcher::new(CODE_BASE, &code), CODE_BASE, None);
        assert!(matches!(
            tb.ops().last(),
            Some(TcgOp::Hypercall { num: 7, next }) if *next == CODE_BASE + chaser_isa::INSN_LEN
        ));
    }

    #[test]
    fn pop_into_sp_loads_the_popped_value() {
        // `pop sp` must leave sp = loaded value, not loaded value + 8.
        let code = assemble(|a| {
            a.pop(Reg::SP);
            a.halt();
        });
        let tb = translate_block(&SliceFetcher::new(CODE_BASE, &code), CODE_BASE, None);
        // The final Mov writes the loaded temp into sp *after* the sp += 8.
        let last_mov = tb
            .ops()
            .iter()
            .rposition(|op| {
                matches!(
                    op,
                    TcgOp::Mov { d, .. } if *d == Temp::reg(Reg::R15)
                )
            })
            .expect("mov into sp");
        let add_pos = tb
            .ops()
            .iter()
            .position(|op| matches!(op, TcgOp::Add { .. }))
            .expect("sp bump");
        assert!(last_mov > add_pos);
    }

    #[test]
    fn insn_start_precedes_every_instruction() {
        let code = assemble(|a| {
            a.movi(Reg::R1, 1);
            a.addi(Reg::R1, 2);
            a.halt();
        });
        let tb = translate_block(&SliceFetcher::new(CODE_BASE, &code), CODE_BASE, None);
        let starts: Vec<u64> = tb
            .ops()
            .iter()
            .filter_map(|op| match op {
                TcgOp::InsnStart { pc } => Some(*pc),
                _ => None,
            })
            .collect();
        assert_eq!(
            starts,
            vec![
                CODE_BASE,
                CODE_BASE + chaser_isa::INSN_LEN,
                CODE_BASE + 2 * chaser_isa::INSN_LEN
            ]
        );
    }
}
