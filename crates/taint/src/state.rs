//! Whole-CPU taint state: a shadow operand frame (registers and the
//! current block's temporaries) and shadow memory under one policy, with
//! fault provenance carried in parallel.

use crate::{ProvMem, ProvSet, ShadowMem, TaintMask, TaintPolicy};
use chaser_isa::{FReg, Reg};
use chaser_tcg::Temp;

/// Shadow state for one guest process plus the node's physical memory.
///
/// The execution engine in `chaser-vm` drives this in lock-step with the
/// value computation: for every IR op it reads operand masks, calls
/// [`TaintPolicy::propagate`], and writes the result mask back.
///
/// The operand shadow has the engine's frame layout: one mask per
/// [`Temp::slot`], registers first ([`Temp::GLOBALS`] of them), then the
/// current block's locals. Alongside each mask the state carries a
/// [`ProvSet`] naming the injected fault(s) the taint derives from.
/// Provenance follows the masks (a clean result always has empty
/// provenance) and is gated behind a `prov_any` flag so runs that never
/// inject pay one branch per shadow write. Both frames are fixed-size, so
/// a new state allocates nothing for them.
#[derive(Debug, Clone)]
pub struct TaintState {
    policy: TaintPolicy,
    masks: [TaintMask; Temp::FRAME_SLOTS],
    mem: ShadowMem,
    provs: [ProvSet; Temp::FRAME_SLOTS],
    prov_mem: ProvMem,
    /// True once any non-empty provenance has been written; while false,
    /// every provenance shadow is known-empty and reads/writes short-circuit.
    prov_any: bool,
    /// Number of tainted global shadows (slots below [`Temp::GLOBALS`]),
    /// maintained at every mask write so [`TaintState::regs_idle`] is O(1).
    tainted_globals: u32,
}

impl TaintState {
    /// A fully clean state under `policy`, shadowing a default-sized node
    /// (64 MiB).
    pub fn new(policy: TaintPolicy) -> TaintState {
        TaintState::with_capacity(policy, crate::shadow::DEFAULT_CAPACITY)
    }

    /// A fully clean state under `policy` shadowing `phys_bytes` of
    /// physical memory: a taint or provenance write past it panics.
    pub fn with_capacity(policy: TaintPolicy, phys_bytes: u64) -> TaintState {
        TaintState {
            policy,
            masks: [TaintMask::CLEAN; Temp::FRAME_SLOTS],
            mem: ShadowMem::with_capacity(phys_bytes),
            provs: [ProvSet::EMPTY; Temp::FRAME_SLOTS],
            prov_mem: ProvMem::with_capacity(phys_bytes),
            prov_any: false,
            tainted_globals: 0,
        }
    }

    /// The active propagation policy.
    pub fn policy(&self) -> TaintPolicy {
        self.policy
    }

    /// True when the taint machinery is active at all.
    pub fn is_enabled(&self) -> bool {
        self.policy != TaintPolicy::Disabled
    }

    /// Cleans the shadow of a translation block's `n_locals` temporaries
    /// (temps never outlive a block); the register slots are untouched.
    pub fn begin_block(&mut self, n_locals: u16) {
        let locals = Temp::GLOBALS..Temp::GLOBALS + usize::from(n_locals);
        self.masks[locals.clone()].fill(TaintMask::CLEAN);
        if self.prov_any {
            self.provs[locals].fill(ProvSet::EMPTY);
        }
    }

    /// Reads the mask of an IR operand.
    #[inline]
    pub fn temp(&self, t: Temp) -> TaintMask {
        self.masks[t.slot()]
    }

    /// Writes the mask of an IR operand. Provenance at the destination is
    /// cleared: a caller with provenance to record uses
    /// [`TaintState::set_temp_with_prov`] or a propagation helper.
    pub fn set_temp(&mut self, t: Temp, m: TaintMask) {
        self.write_temp_mask(t, m);
        if self.prov_any {
            self.provs[t.slot()] = ProvSet::EMPTY;
        }
    }

    /// Writes mask and provenance of an IR operand together.
    pub fn set_temp_with_prov(&mut self, t: Temp, m: TaintMask, p: ProvSet) {
        self.write_temp_mask(t, m);
        if !p.is_empty() {
            self.prov_any = true;
        }
        if self.prov_any {
            self.provs[t.slot()] = if m.is_tainted() { p } else { ProvSet::EMPTY };
        }
    }

    /// Writes the result of a binary propagation: mask `m` at `d`, with the
    /// provenance union of operands `a` and `b` when the result is tainted.
    /// Reads operand provenance before touching `d`, so `d` may alias `a`
    /// or `b`.
    pub fn set_temp2(&mut self, d: Temp, m: TaintMask, a: Temp, b: Temp) {
        if self.prov_any {
            let p = if m.is_tainted() {
                self.provs[a.slot()].union(self.provs[b.slot()])
            } else {
                ProvSet::EMPTY
            };
            self.write_temp_mask(d, m);
            self.provs[d.slot()] = p;
        } else {
            self.write_temp_mask(d, m);
        }
    }

    /// Writes the result of a unary propagation (or a copy): mask `m` at
    /// `d`, inheriting `a`'s provenance when the result is tainted.
    pub fn set_temp1(&mut self, d: Temp, m: TaintMask, a: Temp) {
        if self.prov_any {
            let p = if m.is_tainted() {
                self.provs[a.slot()]
            } else {
                ProvSet::EMPTY
            };
            self.write_temp_mask(d, m);
            self.provs[d.slot()] = p;
        } else {
            self.write_temp_mask(d, m);
        }
    }

    #[inline]
    fn write_temp_mask(&mut self, t: Temp, m: TaintMask) {
        let slot = t.slot();
        let old = self.masks[slot];
        if slot < Temp::GLOBALS {
            self.tainted_globals =
                self.tainted_globals - old.is_tainted() as u32 + m.is_tainted() as u32;
        }
        self.masks[slot] = m;
    }

    /// Reads the provenance of an IR operand.
    pub fn temp_prov(&self, t: Temp) -> ProvSet {
        if !self.prov_any {
            return ProvSet::EMPTY;
        }
        self.provs[t.slot()]
    }

    /// Reads a general-purpose register's mask.
    pub fn reg(&self, r: Reg) -> TaintMask {
        self.temp(Temp::reg(r))
    }

    /// Taints (or cleans) a general-purpose register — an injection source.
    pub fn set_reg(&mut self, r: Reg, m: TaintMask) {
        self.set_temp(Temp::reg(r), m);
    }

    /// Reads an FP register's mask.
    pub fn freg(&self, r: FReg) -> TaintMask {
        self.temp(Temp::freg(r))
    }

    /// Taints (or cleans) an FP register — an injection source.
    pub fn set_freg(&mut self, r: FReg, m: TaintMask) {
        self.set_temp(Temp::freg(r), m);
    }

    /// Taints a general-purpose register as fault `p`'s injection site.
    pub fn set_reg_with_prov(&mut self, r: Reg, m: TaintMask, p: ProvSet) {
        self.set_temp_with_prov(Temp::reg(r), m, p);
    }

    /// Taints an FP register as fault `p`'s injection site.
    pub fn set_freg_with_prov(&mut self, r: FReg, m: TaintMask, p: ProvSet) {
        self.set_temp_with_prov(Temp::freg(r), m, p);
    }

    /// A general-purpose register's provenance.
    pub fn reg_prov(&self, r: Reg) -> ProvSet {
        self.temp_prov(Temp::reg(r))
    }

    /// Shadow memory (physical-address keyed).
    pub fn mem(&self) -> &ShadowMem {
        &self.mem
    }

    /// Mutable shadow memory. Direct mask writes bypass provenance; pair
    /// them with [`TaintState::set_prov_byte`] when provenance matters.
    pub fn mem_mut(&mut self) -> &mut ShadowMem {
        &mut self.mem
    }

    /// Provenance shadow memory: empty while [`TaintState::prov_any`] is
    /// false.
    pub fn prov_mem(&self) -> &ProvMem {
        &self.prov_mem
    }

    /// The provenance of one physical byte.
    pub fn prov_byte(&self, paddr: u64) -> ProvSet {
        if !self.prov_any {
            return ProvSet::EMPTY;
        }
        self.prov_mem.byte(paddr)
    }

    /// Sets (or clears) the provenance of one physical byte.
    pub fn set_prov_byte(&mut self, paddr: u64, p: ProvSet) {
        if !p.is_empty() {
            self.prov_any = true;
        }
        if self.prov_any {
            self.prov_mem.set_byte(paddr, p);
        }
    }

    /// Union provenance of the 8 bytes at `paddr` (the provenance of an
    /// 8-byte guest load).
    #[inline]
    pub fn prov_load8(&self, paddr: u64) -> ProvSet {
        if !self.prov_any {
            return ProvSet::EMPTY;
        }
        self.prov_mem.load8(paddr)
    }

    /// Stores provenance `p` over the 8 bytes at `paddr`, byte-gated by
    /// `mask`: bytes whose taint byte is clean get empty provenance.
    #[inline]
    pub fn prov_store8(&mut self, paddr: u64, mask: TaintMask, p: ProvSet) {
        if !p.is_empty() {
            self.prov_any = true;
        }
        if self.prov_any {
            self.prov_mem.store8(paddr, mask, p);
        }
    }

    /// Sets (or clears) the provenance of the `sets.len()` bytes at
    /// `paddr`, inside one page (the bulk twin of
    /// [`TaintState::set_prov_byte`]).
    pub fn prov_write_in_page(&mut self, paddr: u64, sets: &[ProvSet]) {
        if !self.prov_any && sets.iter().any(|s| !s.is_empty()) {
            self.prov_any = true;
        }
        if self.prov_any {
            self.prov_mem.write_in_page(paddr, sets);
        }
    }

    /// Cleans the taint and provenance of the `len` bytes at `paddr`,
    /// inside one page. A page holding neither returns at once, and nothing
    /// is allocated.
    pub fn clear_in_page(&mut self, paddr: u64, len: usize) {
        self.mem.clear_in_page(paddr, len);
        self.prov_mem.clear_in_page(paddr, len);
    }

    /// True once any non-empty provenance has been recorded.
    pub fn prov_any(&self) -> bool {
        self.prov_any
    }

    /// True when *memory* carries no taint and no provenance. Two counter
    /// reads; registers and temps may still be tainted while this holds.
    /// Half of [`TaintState::fully_idle`].
    pub fn mem_idle(&self) -> bool {
        self.mem.is_idle() && (!self.prov_any || self.prov_mem.provenanced_bytes() == 0)
    }

    /// True when no register (general-purpose or FP) carries taint — and
    /// so no provenance, which only ever rides a tainted mask. One counter
    /// read. While this holds at block start every propagation in the
    /// block is clean-in ⇒ clean-out until a load brings taint in from
    /// memory: the engine's clean-register regime. The other half of
    /// [`TaintState::fully_idle`].
    pub fn regs_idle(&self) -> bool {
        self.tainted_globals == 0
    }

    /// True when no register and no memory byte carries taint or
    /// provenance. Three counter reads, no scanning. Temps are not
    /// consulted: they are dead at every block boundary, and a block's
    /// shadow paths start them clean ([`TaintState::begin_block`]). While
    /// this holds at block start, every propagation is clean-in ⇒
    /// clean-out (see [`TaintPolicy::propagate`]) and the engine skips
    /// per-op shadow bookkeeping and the memory shadow entirely — the
    /// fully-clean regime; only an injector or a function hook can break
    /// it.
    pub fn fully_idle(&self) -> bool {
        self.regs_idle() && self.mem_idle()
    }

    /// True when no register, temp or memory byte carries taint.
    pub fn is_fully_clean(&self) -> bool {
        self.masks.iter().all(|m| m.is_clean()) && self.mem.tainted_bytes() == 0
    }

    /// Removes all taint and provenance (registers, temps and memory).
    pub fn clear(&mut self) {
        self.masks = [TaintMask::CLEAN; Temp::FRAME_SLOTS];
        self.mem.clear();
        self.provs = [ProvSet::EMPTY; Temp::FRAME_SLOTS];
        self.prov_mem.clear();
        self.prov_any = false;
        self.tainted_globals = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn temps_are_clean_at_block_start() {
        let mut s = TaintState::new(TaintPolicy::Precise);
        s.set_temp(Temp::local(3), TaintMask::ALL);
        s.begin_block(8);
        assert!(s.temp(Temp::local(3)).is_clean());
    }

    #[test]
    fn globals_survive_blocks() {
        let mut s = TaintState::new(TaintPolicy::Precise);
        s.set_reg(Reg::R4, TaintMask::bit(7));
        s.begin_block(2);
        assert_eq!(s.temp(Temp::reg(Reg::R4)), TaintMask::bit(7));
        assert_eq!(s.reg(Reg::R4), TaintMask::bit(7));
    }

    #[test]
    fn freg_and_reg_files_are_distinct() {
        let mut s = TaintState::new(TaintPolicy::Precise);
        s.set_freg(FReg::F2, TaintMask::ALL);
        assert!(s.reg(Reg::R2).is_clean());
        assert_eq!(s.freg(FReg::F2), TaintMask::ALL);
    }

    #[test]
    fn fully_clean_accounting() {
        let mut s = TaintState::new(TaintPolicy::Precise);
        assert!(s.is_fully_clean());
        s.mem_mut().set_byte(100, 1);
        assert!(!s.is_fully_clean());
        s.clear();
        assert!(s.is_fully_clean());
    }

    #[test]
    fn idle_gates_read_registers_and_memory_not_temps() {
        let mut s = TaintState::new(TaintPolicy::Precise);
        s.set_temp(Temp::local(0), TaintMask::ALL);
        assert!(
            s.regs_idle() && s.fully_idle(),
            "a tainted temp is dead at the block end"
        );
        s.mem_mut().set_byte(64, 1);
        assert!(s.regs_idle() && !s.fully_idle());
        s.set_reg(Reg::R2, TaintMask::bit(0));
        assert!(!s.regs_idle());
        s.set_reg(Reg::R2, TaintMask::CLEAN);
        assert!(s.regs_idle());
    }

    #[test]
    fn every_local_slot_up_to_the_bound_is_addressable() {
        let mut s = TaintState::new(TaintPolicy::Precise);
        s.begin_block(1);
        let last = Temp::local(chaser_tcg::MAX_TB_LOCALS as u16 - 1);
        s.set_temp_with_prov(last, TaintMask::bit(1), ProvSet::single(3));
        assert_eq!(s.temp(last), TaintMask::bit(1));
        assert_eq!(s.temp_prov(last), ProvSet::single(3));
        assert!(s.regs_idle(), "a local is not a global");
        s.begin_block(chaser_tcg::MAX_TB_LOCALS as u16);
        assert!(s.temp(last).is_clean() && s.temp_prov(last).is_empty());
    }

    #[test]
    fn provenance_follows_propagation() {
        let mut s = TaintState::new(TaintPolicy::Precise);
        let p = ProvSet::single(0);
        s.set_reg_with_prov(Reg::R1, TaintMask::bit(3), p);
        assert!(s.prov_any());
        assert_eq!(s.reg_prov(Reg::R1), p);
        // Binary result inherits the operand union.
        s.set_temp2(
            Temp::reg(Reg::R2),
            TaintMask::bit(3),
            Temp::reg(Reg::R1),
            Temp::reg(Reg::R0),
        );
        assert_eq!(s.reg_prov(Reg::R2), p);
        // Clean result drops provenance.
        s.set_temp2(
            Temp::reg(Reg::R2),
            TaintMask::CLEAN,
            Temp::reg(Reg::R1),
            Temp::reg(Reg::R0),
        );
        assert_eq!(s.reg_prov(Reg::R2), ProvSet::EMPTY);
    }

    #[test]
    fn set_temp_clears_provenance_at_destination() {
        let mut s = TaintState::new(TaintPolicy::Precise);
        s.set_reg_with_prov(Reg::R1, TaintMask::ALL, ProvSet::single(2));
        s.set_temp(Temp::reg(Reg::R1), TaintMask::bit(0));
        assert_eq!(s.reg_prov(Reg::R1), ProvSet::EMPTY);
    }

    #[test]
    fn destination_aliasing_operand_keeps_provenance() {
        let mut s = TaintState::new(TaintPolicy::Precise);
        let p = ProvSet::single(1);
        s.set_reg_with_prov(Reg::R3, TaintMask::ALL, p);
        // d aliases a: provenance must be read before the write.
        s.set_temp2(
            Temp::reg(Reg::R3),
            TaintMask::ALL,
            Temp::reg(Reg::R3),
            Temp::reg(Reg::R0),
        );
        assert_eq!(s.reg_prov(Reg::R3), p);
    }

    #[test]
    fn prov_store8_is_mask_gated() {
        let mut s = TaintState::new(TaintPolicy::Precise);
        let p = ProvSet::single(0);
        // Only byte 1 of the mask is tainted.
        s.prov_store8(0x100, TaintMask(0xff00), p);
        assert_eq!(s.prov_byte(0x100), ProvSet::EMPTY);
        assert_eq!(s.prov_byte(0x101), p);
        assert_eq!(s.prov_load8(0x100), p);
    }

    #[test]
    fn clear_resets_prov_gate() {
        let mut s = TaintState::new(TaintPolicy::Precise);
        s.set_prov_byte(7, ProvSet::single(4));
        assert!(s.prov_any());
        s.clear();
        assert!(!s.prov_any());
        assert_eq!(s.prov_mem().provenanced_bytes(), 0);
    }

    const PAGE: u64 = crate::shadow::PAGE as u64;
    /// Frames the bulk-operation tests touch.
    const FRAMES: u64 = 3;

    /// Expands `(run, kind, value)` segments into `len` bytes: clean runs
    /// (kind 0), solid runs (1) and alternating runs (2); clean past the
    /// last segment. Whole clean pages, tainted pages and mixed pages all
    /// come out of it.
    fn pattern(len: usize, segs: &[(usize, u8, u8)]) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        for &(run, kind, value) in segs {
            for i in 0..run.min(len - out.len()) {
                out.push(match kind {
                    0 => 0,
                    1 => value,
                    _ if i % 2 == 0 => value,
                    _ => 0,
                });
            }
        }
        out.resize(len, 0);
        out
    }

    fn prov_of(b: u8) -> ProvSet {
        ProvSet::from_bits(u32::from(b) * 0x0101)
    }

    /// One bulk operation: `(kind, paddr, len, segments)`; kinds 0/1 write
    /// masks/provenance, 2/3 read them, 4 cleans both. The range stays
    /// inside one page.
    type BulkOp = (u8, u64, usize, Vec<(usize, u8, u8)>);

    fn arb_bulk_op() -> impl Strategy<Value = BulkOp> {
        let segs = proptest::collection::vec(
            (
                prop_oneof![1usize..16, 16usize..2 * PAGE as usize],
                0u8..3,
                any::<u8>(),
            ),
            0..4,
        );
        (0u8..5, 0..FRAMES * PAGE, 0..=PAGE as usize, segs).prop_map(|(kind, paddr, len, segs)| {
            let len = len.min((PAGE - paddr % PAGE) as usize);
            (kind, paddr, len, segs)
        })
    }

    fn tainted_pages(s: &TaintState) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        s.mem()
            .for_each_tainted_page(|base, masks| out.push((base, masks.to_vec())));
        out
    }

    fn prov_bytes(s: &TaintState) -> Vec<(u64, ProvSet)> {
        let mut out = Vec::new();
        s.prov_mem().for_each(|paddr, p| out.push((paddr, p)));
        out
    }

    proptest! {
        /// The in-page bulk reads, writes and clean-range writes against
        /// the per-byte operations as reference: same contents, counters,
        /// page summaries, `prov_any` and index length, with and without
        /// provenance, including tainted-then-clean overwrites.
        #[test]
        fn bulk_in_page_ops_match_per_byte_ops(
            ops in proptest::collection::vec(arb_bulk_op(), 1..24),
        ) {
            let mut bulk = TaintState::new(TaintPolicy::Precise);
            let mut byte = TaintState::new(TaintPolicy::Precise);
            for (kind, paddr, len, segs) in &ops {
                let (paddr, len) = (*paddr, *len);
                let bytes = pattern(len, segs);
                match kind {
                    0 => {
                        bulk.mem_mut().write_in_page(paddr, &bytes);
                        for (i, &m) in bytes.iter().enumerate() {
                            byte.mem_mut().set_byte(paddr + i as u64, m);
                        }
                    }
                    1 => {
                        let sets: Vec<ProvSet> = bytes.iter().map(|&b| prov_of(b)).collect();
                        bulk.prov_write_in_page(paddr, &sets);
                        for (i, &p) in sets.iter().enumerate() {
                            byte.set_prov_byte(paddr + i as u64, p);
                        }
                    }
                    2 => {
                        let mut got = vec![0xa5; len];
                        bulk.mem().read_in_page(paddr, &mut got);
                        let want: Vec<u8> =
                            (0..len as u64).map(|i| byte.mem().byte(paddr + i)).collect();
                        prop_assert_eq!(got, want);
                    }
                    3 => {
                        let mut got = vec![ProvSet::single(7); len];
                        bulk.prov_mem().read_in_page(paddr, &mut got);
                        let want: Vec<ProvSet> =
                            (0..len as u64).map(|i| byte.prov_byte(paddr + i)).collect();
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        bulk.clear_in_page(paddr, len);
                        for i in 0..len as u64 {
                            byte.mem_mut().set_byte(paddr + i, 0);
                            byte.set_prov_byte(paddr + i, ProvSet::EMPTY);
                        }
                    }
                }
                prop_assert_eq!(bulk.mem().tainted_bytes(), byte.mem().tainted_bytes());
                prop_assert_eq!(
                    bulk.prov_mem().provenanced_bytes(),
                    byte.prov_mem().provenanced_bytes()
                );
                prop_assert_eq!(bulk.prov_any(), byte.prov_any());
                for frame in 0..FRAMES {
                    prop_assert_eq!(
                        bulk.mem().page_tainted_bytes(frame * PAGE),
                        byte.mem().page_tainted_bytes(frame * PAGE)
                    );
                }
                prop_assert_eq!(bulk.mem().index_len(), byte.mem().index_len());
                prop_assert_eq!(bulk.prov_mem().index_len(), byte.prov_mem().index_len());
            }
            prop_assert_eq!(tainted_pages(&bulk), tainted_pages(&byte));
            prop_assert_eq!(prov_bytes(&bulk), prov_bytes(&byte));
        }
    }

    #[test]
    fn clean_bulk_writes_allocate_nothing() {
        let mut s = TaintState::new(TaintPolicy::Precise);
        s.mem_mut().write_in_page(5 * PAGE + 3, &[0; 100]);
        s.prov_write_in_page(7 * PAGE, &[ProvSet::EMPTY; 64]);
        assert_eq!(s.mem().index_len(), 0);
        assert_eq!(s.prov_mem().index_len(), 0);
        assert!(!s.prov_any(), "empty sets do not switch provenance on");
        s.mem_mut().write_in_page(2 * PAGE + 10, &[0, 3, 0, 1]);
        assert_eq!(s.mem().tainted_bytes(), 2);
        assert_eq!(s.mem().page_tainted_bytes(2 * PAGE), 2);
        assert_eq!(s.mem().index_len(), 3);
        // Tainted-then-clean: the overwrite clears and the counts follow.
        s.mem_mut().write_in_page(2 * PAGE + 8, &[0; 8]);
        assert!(s.mem().is_idle());
        assert_eq!(s.mem().page_tainted_bytes(2 * PAGE), 0);
    }
}
