//! Property tests for the layered translation cache.
//!
//! A node born with a warmed, `Arc`-shared base layer of clean translation
//! blocks must interpret random looping programs step-for-step identically
//! to a node translating everything fresh — including when a VMI target
//! match flushes the overlay at spawn, and when the overlay is flushed
//! mid-run (Chaser's disarm path), between re-dispatches of the same
//! blocks. The warmed node must also serve essentially every lookup from
//! the base layer, and its loop iterations from the jump cache.

use chaser_isa::{Asm, Cond, FReg, Instruction, Reg};
use chaser_vm::{Node, SliceExit, VmiAction, VmiSink};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

/// Registers the generator uses (avoids SP so the stack stays sane, and R1:
/// it counts the loop).
const REGS: [Reg; 6] = [Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6, Reg::R7];
const FREGS: [FReg; 4] = [FReg::F0, FReg::F1, FReg::F2, FReg::F3];

fn arb_reg() -> impl Strategy<Value = Reg> {
    proptest::sample::select(&REGS[..])
}

fn arb_freg() -> impl Strategy<Value = FReg> {
    proptest::sample::select(&FREGS[..])
}

/// Straight-line, memory-free, trap-free instructions (a representative
/// mix of integer, float and cross-bank moves).
fn arb_insn() -> impl Strategy<Value = Instruction> {
    use Instruction as I;
    prop_oneof![
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::MovRR { dst, src }),
        (arb_reg(), -1000i64..1000).prop_map(|(dst, imm)| I::MovRI { dst, imm }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Add { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Sub { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Mul { dst, src }),
        (arb_reg(), arb_reg()).prop_map(|(dst, src)| I::Xor { dst, src }),
        (arb_reg(), -1000i64..1000).prop_map(|(dst, imm)| I::AddI { dst, imm }),
        (arb_reg(), arb_reg()).prop_map(|(a, b)| I::Cmp { a, b }),
        (arb_freg(), -100i32..100).prop_map(|(dst, v)| I::FMovI {
            dst,
            imm: v as f64 / 4.0
        }),
        (arb_freg(), arb_freg()).prop_map(|(dst, src)| I::Fadd { dst, src }),
        (arb_freg(), arb_freg()).prop_map(|(dst, src)| I::Fmul { dst, src }),
        (arb_reg(), arb_freg()).prop_map(|(dst, src)| I::MovFR { dst, src }),
        (arb_freg(), arb_reg()).prop_map(|(dst, src)| I::MovRF { dst, src }),
    ]
}

/// `insns` as the body of a loop run `iters` times, then `exit(0)`.
fn build_program(insns: &[Instruction], iters: i64) -> chaser_isa::Program {
    let mut a = Asm::new("prop");
    a.movi(Reg::R1, iters);
    a.label("loop");
    for insn in insns {
        a.insn(*insn);
    }
    a.addi(Reg::R1, -1);
    a.cmpi(Reg::R1, 0);
    a.jcc(Cond::Gt, "loop");
    a.exit(0);
    a.assemble().expect("assemble")
}

/// Runs `prog` to completion on a fresh node and returns the sealed base
/// layer its cache produced — the campaign warm-up in miniature. Warming
/// uses the same one-instruction slices as the lockstep runs below: TBs
/// are keyed by resume pc, so a warm-up only covers later runs that slice
/// on the same quantum (campaigns share one cluster quantum for exactly
/// this reason).
fn warm_base(prog: &chaser_isa::Program) -> std::sync::Arc<chaser_vm::BaseLayer> {
    let mut node = Node::new(0);
    let pid = node.spawn(prog).expect("spawn");
    while node.run_slice(pid, 1) == SliceExit::QuantumExpired {}
    node.seal_cache()
}

/// A VMI sink standing in for Chaser's target screening: any created
/// process matching the target name triggers a cache flush (which, with a
/// layered cache, clears only the overlay).
struct FlushOnTarget {
    target: &'static str,
    fired: u32,
}

impl VmiSink for FlushOnTarget {
    fn on_process_created(&mut self, _node: u32, _pid: u64, name: &str) -> VmiAction {
        if name == self.target {
            self.fired += 1;
            VmiAction::FLUSH
        } else {
            VmiAction::NONE
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fresh vs warmed-base interpretation, in lockstep one slice at a
    /// time, with a VMI target match flushing the warmed node's overlay
    /// right at spawn.
    #[test]
    fn warmed_base_matches_fresh_translation(
        insns in proptest::collection::vec(arb_insn(), 1..60),
        iters in 1i64..5,
    ) {
        let prog = build_program(&insns, iters);
        let base = warm_base(&prog);

        let mut fresh = Node::new(0);
        let mut warmed = Node::new(0);
        warmed.install_base_cache(base);
        let sink = Arc::new(Mutex::new(FlushOnTarget { target: "prop", fired: 0 }));
        warmed.hooks_mut().vmi.push(sink.clone());

        let pf = fresh.spawn(&prog).expect("spawn fresh");
        let pw = warmed.spawn(&prog).expect("spawn warmed");
        prop_assert_eq!(sink.lock().fired, 1, "VMI did not screen the target");

        loop {
            let sf = fresh.run_slice(pf, 1);
            let sw = warmed.run_slice(pw, 1);
            prop_assert_eq!(&sf, &sw, "divergent slice exits");
            let cf = &fresh.process(pf).expect("proc").cpu;
            let cw = &warmed.process(pw).expect("proc").cpu;
            for r in REGS {
                prop_assert_eq!(cf.reg(r), cw.reg(r), "mismatch in {}", r);
            }
            for f in FREGS {
                prop_assert_eq!(cf.freg_bits(f), cw.freg_bits(f), "mismatch in {}", f);
            }
            if matches!(sf, SliceExit::Exited(_)) {
                break;
            }
        }

        // The warmed node never translated: every block came from the base
        // layer, and every later iteration's blocks from the jump cache.
        let stats = warmed.cache_stats();
        prop_assert_eq!(stats.misses, 0, "warmed node translated fresh blocks");
        prop_assert!(stats.base_hits > 0);
        prop_assert!(stats.base_hit_rate() > 0.9);
        if iters > 1 {
            prop_assert!(warmed.engine_stats().tb_chain_hits > 0, "no jump-cache hit");
        }
    }

    /// Mid-run overlay flushes (Chaser disarming injection), one every
    /// `flush_every` slices, must neither change interpretation nor force
    /// retranslation while the base holds.
    #[test]
    fn overlay_flush_mid_run_keeps_equivalence(
        insns in proptest::collection::vec(arb_insn(), 1..60),
        iters in 1i64..5,
        flush_every in 1u32..40,
    ) {
        let prog = build_program(&insns, iters);
        let base = warm_base(&prog);

        let mut fresh = Node::new(0);
        let mut warmed = Node::new(0);
        warmed.install_base_cache(base);

        let pf = fresh.spawn(&prog).expect("spawn fresh");
        let pw = warmed.spawn(&prog).expect("spawn warmed");

        let mut step = 0u32;
        loop {
            if step % flush_every == flush_every - 1 {
                warmed.flush_cache();
            }
            step += 1;
            let sf = fresh.run_slice(pf, 1);
            let sw = warmed.run_slice(pw, 1);
            prop_assert_eq!(&sf, &sw, "divergent slice exits");
            let cf = &fresh.process(pf).expect("proc").cpu;
            let cw = &warmed.process(pw).expect("proc").cpu;
            for r in REGS {
                prop_assert_eq!(cf.reg(r), cw.reg(r), "mismatch in {}", r);
            }
            for f in FREGS {
                prop_assert_eq!(cf.freg_bits(f), cw.freg_bits(f), "mismatch in {}", f);
            }
            if matches!(sf, SliceExit::Exited(_)) {
                break;
            }
        }

        let stats = warmed.cache_stats();
        prop_assert_eq!(stats.misses, 0, "base layer did not survive the flush");
        prop_assert!(stats.base_hit_rate() > 0.9);
    }
}
