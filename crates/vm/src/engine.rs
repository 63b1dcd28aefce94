//! The TCG-IR execution engine: computes values and propagates bitwise
//! taint in lock-step, firing Chaser's callbacks at the spliced points.

use crate::hooks::{BufferedTaintEvent, GuestCtx, NodeHooks, TaintAccessKind, TaintMemEvent};
use crate::kernel::{ExitStatus, Signal};
use crate::mem::{MemFault, PhysMemory};
use crate::node::SliceExit;
use crate::paging::{AddressSpace, PagePerms};
use crate::process::{MpiRequest, ProcState, Process};
use chaser_isa::{abi, Flags, Instruction, PAGE_SIZE};
use chaser_taint::{PropKind, ProvSet, TaintMask, TaintState};
use chaser_tcg::{
    translate_block, CodeFetcher, TbCache, TcgOp, Temp, TranslateHook, TranslationBlock,
};

/// Hot-path execution counters, making the fast paths observable in run
/// reports and campaign results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Block dispatches the translation cache's jump cache served (no
    /// hash lookup). The name predates the jump cache, which replaced TB
    /// chaining: the frozen ledger reads it as `vm.chain_hit_share`.
    pub tb_chain_hits: u64,
    /// Guest memory operations that skipped the shadow entirely: taint
    /// disabled, or the fully-clean regime (nothing carries taint).
    pub fast_path_insns: u64,
    /// Guest memory operations that ran the page-gated shadow path: every
    /// memory op outside the fully-clean regime, on tainted and untainted
    /// pages alike.
    pub slow_path_insns: u64,
    /// Always zero, never written. Kept only because the frozen ledger
    /// (`crates/bench/src/bin/ledger/layers.rs`) reads it; deliberately
    /// absent from `absorb`, the journal row codec and `stats_csv`. Goes
    /// with `tcg.superblocks_formed_per_run` in the next benchmark PR.
    pub superblocks_formed: u64,
    /// Always zero, never written: same as `superblocks_formed`, for the
    /// ledger's `tcg.superblock_bailouts_per_run`.
    pub superblock_bailouts: u64,
}

impl EngineStats {
    /// Accumulates `other` into `self` (for cross-node / cross-run
    /// aggregation).
    pub fn absorb(&mut self, other: EngineStats) {
        self.tb_chain_hits += other.tb_chain_hits;
        self.fast_path_insns += other.fast_path_insns;
        self.slow_path_insns += other.slow_path_insns;
    }
}

/// Slice-local hot counters. These are kept out of [`EngineStats`] during
/// dispatch so the fast-path increments touch plain locals — register
/// resident in the call-free fast tiers — instead of doing a
/// read-modify-write through the `&mut EngineStats` borrow on every memory
/// op. They are folded into the shared stats at every slice exit.
#[derive(Default)]
struct HotCounters {
    jump_hits: u64,
    fast: u64,
    slow: u64,
}

impl HotCounters {
    #[inline]
    fn flush_into(&mut self, stats: &mut EngineStats) {
        stats.tb_chain_hits += self.jump_hits;
        stats.fast_path_insns += self.fast;
        stats.slow_path_insns += self.slow;
        *self = HotCounters::default();
    }
}

/// Fetches code through a process's page tables (exec permission checked).
struct AspaceFetcher<'a> {
    aspace: &'a AddressSpace,
    phys: &'a PhysMemory,
}

impl CodeFetcher for AspaceFetcher<'_> {
    fn fetch_insn(&self, vaddr: u64) -> Option<[u8; chaser_isa::INSN_LEN as usize]> {
        let mut bytes = [0u8; chaser_isa::INSN_LEN as usize];
        for (i, b) in bytes.iter_mut().enumerate() {
            let paddr = self.aspace.translate_exec(vaddr + i as u64).ok()?;
            *b = self.phys.read_u8(paddr);
        }
        Some(bytes)
    }
}

/// Adapts the node-level translate hook to the tcg-level trait for one
/// specific (node, pid).
struct HookAdapter<'a> {
    hook: &'a dyn crate::hooks::NodeTranslateHook,
    node: u32,
    pid: u64,
}

impl TranslateHook for HookAdapter<'_> {
    fn inject_point(&self, pc: u64, insn: &Instruction) -> Option<u64> {
        self.hook.inject_point(self.node, self.pid, pc, insn)
    }
}

/// Loads a guest u64 with its taint mask and provenance; returns
/// `(value, mask, prov, paddr)`. Provenance is read only under a tainted
/// mask: a clean result carries none wherever it lands.
fn load_u64_tainted(
    aspace: &AddressSpace,
    phys: &PhysMemory,
    taint: &TaintState,
    vaddr: u64,
) -> Result<(u64, TaintMask, ProvSet, u64), MemFault> {
    let paddr = aspace.translate_read(vaddr)?;
    if vaddr % PAGE_SIZE <= PAGE_SIZE - 8 {
        let mask = taint.mem().load8(paddr);
        let prov = if mask.is_tainted() {
            taint.prov_load8(paddr)
        } else {
            ProvSet::EMPTY
        };
        Ok((phys.read_u64(paddr), mask, prov, paddr))
    } else {
        let mut val = [0u8; 8];
        let mut mask = [0u8; 8];
        let mut prov = ProvSet::EMPTY;
        for i in 0..8u64 {
            let p = aspace.translate_read(vaddr + i)?;
            val[i as usize] = phys.read_u8(p);
            mask[i as usize] = taint.mem().byte(p);
            prov = prov.union(taint.prov_byte(p));
        }
        Ok((
            u64::from_le_bytes(val),
            TaintMask::from_bytes(mask),
            prov,
            paddr,
        ))
    }
}

/// Stores a guest u64 with its taint mask and provenance; returns the first
/// byte's paddr.
fn store_u64_tainted(
    aspace: &AddressSpace,
    phys: &mut PhysMemory,
    taint: &mut TaintState,
    vaddr: u64,
    value: u64,
    mask: TaintMask,
    prov: ProvSet,
) -> Result<u64, MemFault> {
    let paddr = aspace.translate_write(vaddr)?;
    if vaddr % PAGE_SIZE <= PAGE_SIZE - 8 {
        phys.write_u64(paddr, value);
        taint.mem_mut().store8(paddr, mask);
        taint.prov_store8(paddr, mask, prov);
    } else {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            let p = aspace.translate_write(vaddr + i as u64)?;
            phys.write_u8(p, *b);
            taint.mem_mut().set_byte(p, mask.byte(i));
            let bp = if mask.byte(i) != 0 {
                prov
            } else {
                ProvSet::EMPTY
            };
            taint.set_prov_byte(p, bp);
        }
    }
    Ok(paddr)
}

/// Executes up to `quantum` guest instructions of `proc`, additionally
/// capped by the run-level `insn_budget` (`u64::MAX` = unlimited). The
/// budget is checked at the same safe resume point as the quantum; when it
/// binds first the slice reports [`SliceExit::BudgetExhausted`] so the
/// caller can stop the whole run deterministically.
// One internal call site (Node::run_slice); the flat parameter list keeps
// the hot path free of a wrapper struct build per slice.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_slice(
    node_id: u32,
    phys: &mut PhysMemory,
    cache: &mut TbCache,
    taint: &mut TaintState,
    hooks: &NodeHooks,
    proc: &mut Process,
    quantum: u64,
    insn_budget: u64,
    stats: &mut EngineStats,
    taint_buf: &mut Vec<BufferedTaintEvent>,
) -> SliceExit {
    match proc.state {
        ProcState::Runnable => {}
        ProcState::BlockedMpi => return SliceExit::Blocked,
        ProcState::Exited => {
            return SliceExit::Exited(proc.exit.expect("exited process has a status"))
        }
    }

    let mut executed: u64 = 0;
    // `proc.icount` advances in lock-step with `executed`; instead of a
    // second read-modify-write per instruction it is materialized as
    // `icount_base + executed` at every point that observes it (hook
    // contexts, taint events, kernel calls and slice exits).
    let icount_base = proc.icount;
    let mut hot = HotCounters::default();
    // The operand frame (DESIGN §9): every IR operand is one slot of it,
    // resolved at translation ([`Temp::slot`]). The register slots are the
    // live registers for the whole slice; `proc.cpu` is brought up to date
    // wherever code outside the dispatch loop reads or writes it (every
    // slice exit, the guest-context callbacks, kernel calls). A stack
    // array: its address is a fixed offset from the stack pointer.
    let mut frame = [0u64; Temp::FRAME_SLOTS];
    macro_rules! regs_in_frame {
        () => {
            frame
                .first_chunk_mut()
                .expect("the frame holds the registers")
        };
    }
    proc.cpu.copy_regs_to(regs_in_frame!());

    // Per-slice hoists: the hook wiring cannot change while we hold
    // `&NodeHooks`, so presence checks and the translate-hook adapter are
    // resolved once instead of per dispatch / per instruction.
    let pid = proc.pid();
    let adapter = hooks.translate.as_ref().map(|h| HookAdapter {
        hook: h.as_ref(),
        node: node_id,
        pid,
    });
    let has_fn_hooks = !hooks.fn_hooks.is_empty();
    let countdown = &*hooks.inject_countdown;
    // The quantum and the run budget are checked at the same resume point;
    // fusing them into one bound leaves a single compare per instruction.
    let limit = quantum.min(insn_budget);

    'outer: loop {
        let start_pc = proc.cpu.pc;
        let fetcher = AspaceFetcher {
            aspace: &proc.aspace,
            phys,
        };
        let (db, jumped) = cache.dispatch_get_or_translate_validated(
            pid,
            start_pc,
            // A clean block from the shared base layer is reusable only if
            // the active hook would leave every instruction in it
            // uninstrumented; otherwise it must be retranslated so the
            // injection callback gets spliced in.
            |tb| match &adapter {
                Some(a) => tb
                    .insns()
                    .iter()
                    .all(|(pc, insn)| a.inject_point(*pc, insn).is_none()),
                None => true,
            },
            || {
                translate_block(
                    &fetcher,
                    start_pc,
                    adapter.as_ref().map(|a| a as &dyn TranslateHook),
                )
            },
        );
        hot.jump_hits += u64::from(jumped);
        // Borrow the TB out of the dispatch block: `db` is a local `Arc`
        // that outlives the block body, so no refcount traffic is needed
        // (an `Arc::clone` here costs two atomic RMWs per block dispatch).
        let tb: &TranslationBlock = db.tb();

        // Three per-block taint regimes, chosen from O(1) counters over
        // registers and memory (temps are dead at every block boundary):
        // * fully clean — nothing carries taint or provenance;
        // * clean-register — no register does, memory may;
        // * full — a register is tainted, every op runs its shadow path.
        // In both fast regimes (`clean`) every propagation is clean-in ⇒
        // clean-out (`TaintPolicy::propagate` guarantees it), so non-memory
        // ops skip their shadow bookkeeping and the per-block local-shadow
        // reset is skipped too. Memory ops take the page-gated shadow path
        // exactly when `shadow_mem` is set: outside the fully-clean regime.
        // A fast regime ends mid-block only at a taint source — an
        // injection callback, a function hook, or (clean-register) a load
        // that reads a tainted mask.
        let taint_on = taint.is_enabled();
        // Every taint source is a no-op while taint is disabled
        // (`GuestCtx::taint_*`), so a disabled state never leaves the
        // fully-clean regime.
        debug_assert!(
            taint_on || taint.fully_idle(),
            "a disabled taint state carries taint"
        );
        let mut clean = taint.regs_idle();
        let mut shadow_mem = taint_on && !taint.fully_idle();
        if !clean {
            taint.begin_block(tb.n_locals());
        }
        // The frame's local slots still hold the previous block's values:
        // nothing clears them, because the translator writes every local
        // before reading it.
        debug_assert!(
            tb.locals_defined_before_use(),
            "block {start_pc:#x} reads a local it has not written"
        );

        let mut cur_pc = start_pc;

        macro_rules! val {
            ($t:expr) => {
                frame[$t.slot()]
            };
        }
        macro_rules! setval {
            ($t:expr, $v:expr) => {
                frame[$t.slot()] = $v
            };
        }
        // Materializes everything an observer outside the dispatch loop may
        // read: the registers (live in the frame), `proc.icount` (kept as
        // `icount_base + executed` while dispatching) and the engine
        // counters (kept in `hot`). Invoked at every slice exit.
        macro_rules! sync_out {
            () => {
                proc.cpu.load_regs_from(regs_in_frame!());
                proc.icount = icount_base + executed;
                hot.flush_into(stats);
            };
        }
        // Hands the guest function hook or the injector what it sees at the
        // instruction at `$pc` — the registers written back from the frame,
        // `icount` materialized like everywhere else — and reloads the
        // frame from the registers it may have changed.
        macro_rules! with_guest_ctx {
            ($pc:expr, |$ctx:ident| $call:expr) => {{
                proc.cpu.load_regs_from(regs_in_frame!());
                let mut $ctx = GuestCtx {
                    cpu: &mut proc.cpu,
                    aspace: &proc.aspace,
                    phys,
                    taint,
                    node: node_id,
                    pid,
                    icount: icount_base + executed,
                    pc: $pc,
                };
                let out = $call;
                proc.cpu.copy_regs_to(regs_in_frame!());
                out
            }};
        }
        macro_rules! fault {
            ($sig:expr) => {{
                sync_out!();
                proc.terminate(ExitStatus::Signaled($sig));
                return SliceExit::Exited(ExitStatus::Signaled($sig));
            }};
        }
        // Leaves a fast regime for the full one for the rest of the block.
        // Every local is clean up to this op, so rebuilding the local
        // shadow now is exact.
        macro_rules! enter_full_regime {
            () => {
                taint.begin_block(tb.n_locals());
                clean = false;
                shadow_mem = taint_on;
            };
        }
        // After an in-block taint source ran at the instruction at `$pc`:
        // a tainted register ends either fast regime, tainted memory ends
        // the fully-clean one. `cur_pc` is set here because the
        // fully-clean regime does not track it.
        macro_rules! recheck_regime {
            ($pc:expr) => {
                if clean && (!taint.regs_idle() || (!shadow_mem && !taint.mem_idle())) {
                    enter_full_regime!();
                    cur_pc = $pc;
                }
            };
        }
        // The invariant both fast regimes rest on, checked where a block
        // ends (debug builds only).
        macro_rules! assert_regime_at_exit {
            () => {
                debug_assert!(
                    !clean || taint.regs_idle(),
                    "a fast taint regime ended its block with a tainted register"
                );
            };
        }
        macro_rules! binop {
            ($d:expr, $a:expr, $b:expr, $kindv:expr, $op:expr) => {{
                let (av, bv) = (val!($a), val!($b));
                let out: u64 = $op(av, bv);
                setval!($d, out);
                if !clean {
                    let (ta, tb_) = (taint.temp($a), taint.temp($b));
                    let kind = $kindv(av, bv, tb_);
                    let m = taint.policy().propagate(kind, ta, tb_);
                    taint.set_temp2($d, m, $a, $b);
                }
            }};
        }

        let policy = taint.policy();
        for op in tb.ops() {
            match *op {
                TcgOp::InsnStart { pc } => {
                    if executed >= limit {
                        // Safe resume point: the instruction has not begun.
                        proc.cpu.pc = pc;
                        sync_out!();
                        // The budget binding is terminal for the run, so it
                        // wins over a simultaneous quantum expiry.
                        return if executed >= insn_budget {
                            SliceExit::BudgetExhausted
                        } else {
                            SliceExit::QuantumExpired
                        };
                    }
                    executed += 1;
                    if shadow_mem {
                        // Only the memory shadow path's taint events
                        // consume `cur_pc`; leaving the fully-clean regime
                        // resets it from the flip site's own `pc`.
                        cur_pc = pc;
                    }
                    // Guest function hooks (MPI interception).
                    if has_fn_hooks {
                        if let Some(&hook_id) = hooks.fn_hooks.get(&(pid, pc)) {
                            if let Some(sink) = &hooks.fn_hook_sink {
                                with_guest_ctx!(pc, |ctx| sink
                                    .lock()
                                    .on_fn_entry(hook_id, &mut ctx));
                                // The hook may have tainted registers or
                                // memory.
                                recheck_regime!(pc);
                            }
                        }
                    }
                }
                TcgOp::Movi { d, imm } => {
                    setval!(d, imm);
                    if !clean {
                        taint.set_temp(d, TaintMask::CLEAN);
                    }
                }
                TcgOp::Mov { d, s } => {
                    let v = val!(s);
                    setval!(d, v);
                    if !clean {
                        let m = taint.temp(s);
                        taint.set_temp1(d, m, s);
                    }
                }
                TcgOp::Add { d, a, b } => {
                    binop!(d, a, b, |_a, _b, _tb| PropKind::AddSub, |x: u64, y: u64| x
                        .wrapping_add(y))
                }
                TcgOp::Sub { d, a, b } => {
                    binop!(d, a, b, |_a, _b, _tb| PropKind::AddSub, |x: u64, y: u64| x
                        .wrapping_sub(y))
                }
                TcgOp::Addi { d, a, imm } => {
                    let out = val!(a).wrapping_add(imm);
                    setval!(d, out);
                    if !clean {
                        // The immediate operand is CLEAN with empty
                        // provenance, so this is exactly `Add` with a clean
                        // `b`: same kind, source provenance from `a` alone.
                        let m = policy.propagate(PropKind::AddSub, taint.temp(a), TaintMask::CLEAN);
                        taint.set_temp1(d, m, a);
                    }
                }
                TcgOp::Mul { d, a, b } => {
                    binop!(d, a, b, |_a, _b, _tb| PropKind::Mul, |x: u64, y: u64| x
                        .wrapping_mul(y))
                }
                TcgOp::Divs { d, a, b } => {
                    let (av, bv) = (val!(a), val!(b));
                    if bv == 0 {
                        fault!(Signal::Fpe);
                    }
                    let out = (av as i64).wrapping_div(bv as i64) as u64;
                    setval!(d, out);
                    if !clean {
                        let m = policy.propagate(PropKind::Div, taint.temp(a), taint.temp(b));
                        taint.set_temp2(d, m, a, b);
                    }
                }
                TcgOp::Divu { d, a, b } => {
                    let (av, bv) = (val!(a), val!(b));
                    if bv == 0 {
                        fault!(Signal::Fpe);
                    }
                    setval!(d, av / bv);
                    if !clean {
                        let m = policy.propagate(PropKind::Div, taint.temp(a), taint.temp(b));
                        taint.set_temp2(d, m, a, b);
                    }
                }
                TcgOp::Remu { d, a, b } => {
                    let (av, bv) = (val!(a), val!(b));
                    if bv == 0 {
                        fault!(Signal::Fpe);
                    }
                    setval!(d, av % bv);
                    if !clean {
                        let m = policy.propagate(PropKind::Div, taint.temp(a), taint.temp(b));
                        taint.set_temp2(d, m, a, b);
                    }
                }
                TcgOp::And { d, a, b } => binop!(
                    d,
                    a,
                    b,
                    |av, bv, _tb| PropKind::And { a: av, b: bv },
                    |x: u64, y: u64| x & y
                ),
                TcgOp::Or { d, a, b } => binop!(
                    d,
                    a,
                    b,
                    |av, bv, _tb| PropKind::Or { a: av, b: bv },
                    |x: u64, y: u64| x | y
                ),
                TcgOp::Xor { d, a, b } => {
                    binop!(d, a, b, |_a, _b, _tb| PropKind::Xor, |x: u64, y: u64| x ^ y)
                }
                TcgOp::Shl { d, a, b } => binop!(
                    d,
                    a,
                    b,
                    |_av, bv: u64, tb_: TaintMask| PropKind::Shl {
                        amount: tb_.is_clean().then_some((bv & 63) as u32)
                    },
                    |x: u64, y: u64| x << (y & 63)
                ),
                TcgOp::Shr { d, a, b } => binop!(
                    d,
                    a,
                    b,
                    |_av, bv: u64, tb_: TaintMask| PropKind::Shr {
                        amount: tb_.is_clean().then_some((bv & 63) as u32)
                    },
                    |x: u64, y: u64| x >> (y & 63)
                ),
                TcgOp::Sar { d, a, b } => binop!(
                    d,
                    a,
                    b,
                    |_av, bv: u64, tb_: TaintMask| PropKind::Sar {
                        amount: tb_.is_clean().then_some((bv & 63) as u32)
                    },
                    |x: u64, y: u64| ((x as i64) >> (y & 63)) as u64
                ),
                TcgOp::Neg { d, a } => {
                    let v = (val!(a) as i64).wrapping_neg() as u64;
                    setval!(d, v);
                    if !clean {
                        let m = policy.propagate(PropKind::Neg, taint.temp(a), TaintMask::CLEAN);
                        taint.set_temp1(d, m, a);
                    }
                }
                TcgOp::Not { d, a } => {
                    let v = !val!(a);
                    setval!(d, v);
                    if !clean {
                        let m = policy.propagate(PropKind::Not, taint.temp(a), TaintMask::CLEAN);
                        taint.set_temp1(d, m, a);
                    }
                }
                TcgOp::SetFlagsInt { a, b } => {
                    proc.cpu.flags = Flags::from_int_cmp(val!(a), val!(b));
                }
                TcgOp::SetFlagsInti { a, imm } => {
                    proc.cpu.flags = Flags::from_int_cmp(val!(a), imm);
                }
                TcgOp::SetFlagsFp { a, b } => {
                    proc.cpu.flags =
                        Flags::from_fp_cmp(f64::from_bits(val!(a)), f64::from_bits(val!(b)));
                }
                TcgOp::QemuLd { d, addr, disp } => {
                    let vaddr = val!(addr).wrapping_add(disp as u64);
                    if !shadow_mem {
                        // Fast path: taint machinery disabled, or the
                        // fully-clean regime holds — `d`'s shadow is
                        // already clean and its provenance empty, so even
                        // the destination write is skipped.
                        hot.fast += 1;
                        match proc.aspace.read_u64(phys, vaddr) {
                            Ok(value) => {
                                setval!(d, value);
                            }
                            Err(_) => fault!(Signal::Segv),
                        }
                        continue;
                    }
                    // Shadow path: one page-summary check per shadow; a
                    // taint-free page reads CLEAN without touching masks.
                    hot.slow += 1;
                    match load_u64_tainted(&proc.aspace, phys, taint, vaddr) {
                        Ok((value, mask, prov, paddr)) => {
                            setval!(d, value);
                            // Branching on the mask first keeps the
                            // taint-off loop as fast as without the
                            // clean-register regime (a `continue` under
                            // `clean` here measured -8 % on a taint-off
                            // lud node, 2-vCPU x86-64 host).
                            if mask.is_tainted() {
                                // In the clean-register regime the first
                                // tainted mask is a taint source.
                                if clean {
                                    enter_full_regime!();
                                }
                                taint.set_temp_with_prov(d, mask, prov);
                                if hooks.taint_events {
                                    taint_buf.push(BufferedTaintEvent {
                                        kind: TaintAccessKind::Read,
                                        ev: TaintMemEvent {
                                            node: node_id,
                                            pid,
                                            eip: cur_pc,
                                            vaddr,
                                            paddr,
                                            taint: mask,
                                            value,
                                            icount: icount_base + executed,
                                            prov,
                                        },
                                    });
                                }
                            } else if !clean {
                                // Full regime only: in the clean-register
                                // regime a clean mask leaves `d`'s shadow as
                                // it is (a register is clean, a local is
                                // rebuilt on exit).
                                taint.set_temp_with_prov(d, mask, prov);
                            }
                        }
                        Err(_) => fault!(Signal::Segv),
                    }
                }
                TcgOp::QemuSt { s, addr, disp } => {
                    let vaddr = val!(addr).wrapping_add(disp as u64);
                    let value = val!(s);
                    if !shadow_mem {
                        // Fast path: taint disabled, or fully clean — the
                        // stored mask is clean over an all-clean shadow,
                        // a complete no-op on every shadow structure.
                        hot.fast += 1;
                        if proc.aspace.write_u64(phys, vaddr, value).is_err() {
                            fault!(Signal::Segv);
                        }
                        continue;
                    }
                    // Shadow path: a clean store to a page with no taint
                    // and no provenance returns after the page summaries.
                    // In the clean-register regime `s` is clean (its local
                    // shadow is stale, not read) and the store clears any
                    // taint it overwrites.
                    hot.slow += 1;
                    let (mask, prov) = if clean {
                        debug_assert!(
                            taint.regs_idle(),
                            "clean-register regime with a tainted register"
                        );
                        (TaintMask::CLEAN, ProvSet::EMPTY)
                    } else {
                        (taint.temp(s), taint.temp_prov(s))
                    };
                    match store_u64_tainted(&proc.aspace, phys, taint, vaddr, value, mask, prov) {
                        Ok(paddr) => {
                            if mask.is_tainted() && hooks.taint_events {
                                taint_buf.push(BufferedTaintEvent {
                                    kind: TaintAccessKind::Write,
                                    ev: TaintMemEvent {
                                        node: node_id,
                                        pid,
                                        eip: cur_pc,
                                        vaddr,
                                        paddr,
                                        taint: mask,
                                        value,
                                        icount: icount_base + executed,
                                        prov,
                                    },
                                });
                            }
                        }
                        Err(_) => fault!(Signal::Segv),
                    }
                }
                TcgOp::CallHelper { helper, d, a, b } => {
                    let (av, bv) = (val!(a), val!(b));
                    let out = helper.eval(av, bv);
                    setval!(d, out);
                    if !clean {
                        let kind = match helper {
                            chaser_tcg::Helper::CvtIF | chaser_tcg::Helper::CvtFI => PropKind::Cvt,
                            _ => PropKind::Fp,
                        };
                        let tb_ = if helper.is_binary() {
                            taint.temp(b)
                        } else {
                            TaintMask::CLEAN
                        };
                        let m = policy.propagate(kind, taint.temp(a), tb_);
                        if helper.is_binary() {
                            taint.set_temp2(d, m, a, b);
                        } else {
                            taint.set_temp1(d, m, a);
                        }
                    }
                }
                TcgOp::CallInject { point, idx } => {
                    // An execution the sink declared unable to fire costs
                    // one decrement: no lock, no context, no lookup.
                    if countdown.tick() {
                        continue;
                    }
                    if let Some(sink) = &hooks.inject {
                        let (pc, insn) = tb.insns()[idx as usize];
                        let action = with_guest_ctx!(pc, |ctx| sink
                            .lock()
                            .on_inject_point(point, &insn, &mut ctx));
                        countdown.arm(action.skip);
                        if action.flush_tb {
                            cache.flush();
                        }
                        // If the injector fired, it may have tainted a
                        // register or memory.
                        recheck_regime!(pc);
                    }
                }
                TcgOp::ExitTb { next } => {
                    assert_regime_at_exit!();
                    proc.cpu.pc = next;
                    continue 'outer;
                }
                TcgOp::ExitTbCond {
                    cond,
                    taken,
                    fallthrough,
                } => {
                    assert_regime_at_exit!();
                    proc.cpu.pc = if proc.cpu.flags.holds(cond) {
                        taken
                    } else {
                        fallthrough
                    };
                    continue 'outer;
                }
                TcgOp::ExitTbIndirect { addr } => {
                    assert_regime_at_exit!();
                    proc.cpu.pc = val!(addr);
                    continue 'outer;
                }
                TcgOp::Hypercall { num, next } => {
                    assert_regime_at_exit!();
                    proc.cpu.pc = next;
                    // Both kinds of call read their arguments from, and
                    // kernel calls observe `icount` in, the process.
                    sync_out!();
                    if num >= abi::MPI_BASE {
                        let args = [
                            proc.cpu.reg(chaser_isa::Reg::R1),
                            proc.cpu.reg(chaser_isa::Reg::R2),
                            proc.cpu.reg(chaser_isa::Reg::R3),
                            proc.cpu.reg(chaser_isa::Reg::R4),
                            proc.cpu.reg(chaser_isa::Reg::R5),
                            proc.cpu.reg(chaser_isa::Reg::R6),
                        ];
                        let req = MpiRequest {
                            num,
                            args,
                            resume_pc: next,
                        };
                        proc.state = ProcState::BlockedMpi;
                        proc.pending_mpi = Some(req);
                        return SliceExit::MpiCall(req);
                    }
                    match handle_kernel_call(num, phys, proc) {
                        KernelOutcome::Continue => {
                            // The call may have written a register (its
                            // result in R0).
                            proc.cpu.copy_regs_to(regs_in_frame!());
                            continue 'outer;
                        }
                        KernelOutcome::Exit(status) => {
                            proc.terminate(status);
                            return SliceExit::Exited(status);
                        }
                    }
                }
                TcgOp::Halt => {
                    sync_out!();
                    proc.terminate(ExitStatus::Halted);
                    return SliceExit::Exited(ExitStatus::Halted);
                }
                TcgOp::BadFetch { .. } => fault!(Signal::Segv),
                TcgOp::BadDecode { .. } => fault!(Signal::Ill),
            }
        }
        // A well-formed TB always ends in a terminator, and every
        // terminator `continue`s or returns above.
        unreachable!("translation block fell through without a terminator");
    }
}

enum KernelOutcome {
    Continue,
    Exit(ExitStatus),
}

/// Handles kernel-range hypercalls (`num < MPI_BASE`).
fn handle_kernel_call(num: u16, phys: &mut PhysMemory, proc: &mut Process) -> KernelOutcome {
    use chaser_isa::Reg;
    let a1 = proc.cpu.reg(Reg::R1);
    let a2 = proc.cpu.reg(Reg::R2);
    let a3 = proc.cpu.reg(Reg::R3);
    match num {
        abi::SYS_EXIT => return KernelOutcome::Exit(ExitStatus::Exited(a1 as i64)),
        abi::SYS_ASSERT_FAIL => return KernelOutcome::Exit(ExitStatus::AssertFailed(a1 as i64)),
        abi::SYS_WRITE => {
            let bytes = match proc.aspace.read_bytes(phys, a2, a3) {
                Ok(b) => b,
                Err(_) => return KernelOutcome::Exit(ExitStatus::Signaled(Signal::Segv)),
            };
            append_fd(proc, a1, &bytes);
            proc.cpu.set_reg(Reg::R0, a3);
        }
        abi::SYS_WRITE_I64 => {
            let text = format!("{}\n", a2 as i64);
            append_fd(proc, a1, text.as_bytes());
            proc.cpu.set_reg(Reg::R0, 0);
        }
        abi::SYS_WRITE_F64 => {
            append_fd(proc, a1, &a2.to_le_bytes());
            proc.cpu.set_reg(Reg::R0, 0);
        }
        abi::SYS_SBRK => {
            let old = proc.brk;
            let new = old.saturating_add(a1);
            // A break whose page end does not fit in the address space
            // cannot be mapped (`old` is a break that could).
            let Some(map_to) = new.checked_next_multiple_of(PAGE_SIZE) else {
                return KernelOutcome::Exit(ExitStatus::Signaled(Signal::Segv));
            };
            let map_from = old.next_multiple_of(PAGE_SIZE);
            if map_to > map_from {
                // Extend the heap; running out of guest RAM is fatal.
                let aligned_from = old / PAGE_SIZE * PAGE_SIZE;
                if proc
                    .aspace
                    .map_region(phys, aligned_from, map_to - aligned_from, PagePerms::RW)
                    .is_err()
                {
                    return KernelOutcome::Exit(ExitStatus::Signaled(Signal::Segv));
                }
            }
            proc.brk = new;
            proc.cpu.set_reg(Reg::R0, old);
        }
        abi::SYS_CLOCK => {
            let icount = proc.icount;
            proc.cpu.set_reg(Reg::R0, icount);
        }
        _ => return KernelOutcome::Exit(ExitStatus::Signaled(Signal::Ill)),
    }
    KernelOutcome::Continue
}

fn append_fd(proc: &mut Process, fd: u64, bytes: &[u8]) {
    match fd {
        abi::FD_STDOUT => proc.files.stdout.extend_from_slice(bytes),
        abi::FD_OUTPUT => proc.files.output.extend_from_slice(bytes),
        _ => {}
    }
}
