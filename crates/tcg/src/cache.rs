//! The translation-block cache.
//!
//! Layered since the campaign-sharing refactor: an optional immutable
//! [`BaseLayer`] of clean (uninstrumented) blocks, shared read-only via
//! `Arc` across campaign worker threads, underneath a mutable per-run
//! overlay. Flushes invalidate only the overlay — the warm base survives
//! the VMI attach/detach flush cycle, so a 5 000-run campaign translates
//! each guest block once instead of 5 000 times.
//!
//! A direct-mapped jump cache (QEMU's `tb_jmp_cache`) fronts both layers:
//! a block dispatched again is found in one indexed compare, whichever way
//! control reached it (a direct jump, a return, an indirect jump or a slice
//! entry).

use crate::TranslationBlock;
use chaser_isa::INSN_LEN;
use std::collections::HashMap;
use std::sync::Arc;

/// Counters describing cache behaviour; used by the overhead benchmarks to
/// show the cost of Chaser's cache flushes, and by campaign reports to show
/// how much translation the shared base layer absorbed.
///
/// The lookup counters count resolutions through the hash maps: lookups
/// the jump cache served count nowhere here (the engine counts them, as
/// `EngineStats::tb_chain_hits` in `chaser-vm`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups the jump cache missed, resolved through the hash maps.
    pub lookups: u64,
    /// Resolutions that missed and required translation.
    pub misses: u64,
    /// Resolutions served by a block originating in the shared base layer
    /// (whether validated on this lookup or already memoised in the overlay).
    pub base_hits: u64,
    /// Resolutions served by a block translated into the overlay this run.
    pub overlay_hits: u64,
    /// Full-cache (overlay) flushes.
    pub flushes: u64,
    /// Guest instructions translated (over all misses).
    pub translated_insns: u64,
    /// Blocks resident in the overlay when the stats were read.
    pub overlay_blocks: u64,
    /// Blocks resident in the shared base layer when the stats were read.
    pub base_blocks: u64,
}

impl CacheStats {
    /// How often the shared base layer avoided a translation, in `[0, 1]`:
    /// `base_hits / (base_hits + misses)`. Resolutions served by run-local
    /// *fresh* blocks already in the overlay are excluded — they neither
    /// needed the base nor cost a translation — so the rate isolates what
    /// the base layer contributes on top of a plain per-run cache.
    pub fn base_hit_rate(&self) -> f64 {
        if self.base_hits + self.misses == 0 {
            0.0
        } else {
            self.base_hits as f64 / (self.base_hits + self.misses) as f64
        }
    }

    /// Accumulates `other` into `self` (gauges add too: callers aggregate
    /// stats snapshots across nodes or runs).
    pub fn absorb(&mut self, other: CacheStats) {
        self.lookups += other.lookups;
        self.misses += other.misses;
        self.base_hits += other.base_hits;
        self.overlay_hits += other.overlay_hits;
        self.flushes += other.flushes;
        self.translated_insns += other.translated_insns;
        self.overlay_blocks += other.overlay_blocks;
        self.base_blocks += other.base_blocks;
    }
}

/// An immutable layer of clean translation blocks, keyed like the cache by
/// `(asid, pc)`. Built once (typically by sealing the cache after a golden
/// run) and shared read-only across nodes and campaign worker threads.
///
/// Validity contract: a base layer describes one specific guest code layout
/// — the same programs spawned in the same order (so the same pid/asid
/// assignment). The cluster constructors enforce this by rebuilding every
/// campaign run from the same [`Program`](chaser_isa::Program) set that
/// warmed the base.
#[derive(Debug, Default)]
pub struct BaseLayer {
    map: HashMap<(u64, u64), Arc<TranslationBlock>>,
}

impl BaseLayer {
    /// Number of blocks in the layer.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the layer holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a block, without validation.
    fn get(&self, asid: u64, pc: u64) -> Option<&Arc<TranslationBlock>> {
        self.map.get(&(asid, pc))
    }
}

/// Where an overlay entry came from; decides which hit counter a repeat
/// resolution bumps and whether sealing may export the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Provenance {
    /// Validated clean block adopted from the base layer.
    FromBase,
    /// Block translated into the overlay this run.
    Fresh,
}

/// One cache's own handle on a translated block: what its overlay and jump
/// cache hold and what a lookup hands out.
///
/// Every dispatch clones the handle it resolves, so the handle's refcount
/// is touched once per executed block. The handle is per cache on purpose:
/// only the one thread running the cache touches that count. Handing out
/// the base layer's shared `Arc<TranslationBlock>` instead makes every
/// campaign worker bump the same counts. With the jump cache holding the
/// shared `Arc`s, the ledger's `lud1_taint_cold` (two campaign workers,
/// 2-core x86-64 host, 6 alternating pairs) ran 478–546 injections/s,
/// against 707–896 with per-cache handles. A serial run does not show the
/// difference.
#[derive(Debug)]
pub struct DispatchBlock {
    tb: Arc<TranslationBlock>,
}

impl DispatchBlock {
    /// The wrapped translation block.
    pub fn tb(&self) -> &Arc<TranslationBlock> {
        &self.tb
    }
}

/// Entries in the jump cache: the smallest power of two that shows no
/// conflict misses on the ledger's five workloads (128 shows them on the
/// two clamr workloads). An entry is 24 bytes, so the table is 6 KiB per
/// cache (one cache per node).
const JMP_SIZE: usize = 256;

/// The jump-cache slot of `(asid, pc)`: the instruction index of `pc`,
/// xor-ed with the top bits of a multiplicative hash of `asid`. Within one
/// address space, blocks closer than `JMP_SIZE` instructions never share a
/// slot; the asid term moves the same code of two address spaces apart.
fn jmp_slot(asid: u64, pc: u64) -> usize {
    let mix = asid.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - JMP_SIZE.trailing_zeros());
    ((pc / INSN_LEN) ^ mix) as usize & (JMP_SIZE - 1)
}

/// A jump-cache entry: the key it was resolved for and its block.
#[derive(Debug, Clone)]
struct JmpEntry {
    asid: u64,
    pc: u64,
    block: Arc<DispatchBlock>,
}

/// A cache of translated blocks, keyed by `(asid, pc)`.
///
/// `asid` is an address-space identifier (one per guest process), standing
/// in for QEMU's CR3-tagged cache. Chaser calls [`TbCache::flush`] when the
/// target process is detected via VMI so the next round of translation can
/// splice in the fault injector, and flushes again after the injection
/// completes to drop the instrumented blocks ("detach the injector").
///
/// Both flushes clear only the overlay: clean blocks adopted from the base
/// layer are re-validated (cheaply) on the next lookup, so the attach /
/// detach cycle never pays for retranslation of unaffected code.
///
/// Every lookup first probes the jump cache, a direct-mapped table of the
/// blocks resolved last, and goes to the hash maps only on a jump-cache
/// miss. The jump cache holds nothing the overlay does not: it is cleared
/// wherever the overlay is (a flush, a base swap), so it can never serve a
/// block the hash maps would not.
#[derive(Debug)]
pub struct TbCache {
    base: Option<Arc<BaseLayer>>,
    overlay: HashMap<(u64, u64), (Arc<DispatchBlock>, Provenance)>,
    jmp: Box<[Option<JmpEntry>; JMP_SIZE]>,
    stats: CacheStats,
}

impl Default for TbCache {
    fn default() -> TbCache {
        TbCache {
            base: None,
            overlay: HashMap::new(),
            jmp: vec![None; JMP_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("JMP_SIZE entries"),
            stats: CacheStats::default(),
        }
    }
}

impl TbCache {
    /// An empty cache with no base layer (the cold-cache path).
    pub fn new() -> TbCache {
        TbCache::default()
    }

    /// Installs (or replaces) the shared base layer. Existing overlay
    /// entries are dropped: their provenance would be stale.
    pub fn set_base(&mut self, base: Arc<BaseLayer>) {
        self.clear_overlay();
        self.base = Some(base);
    }

    /// Looks up the block for `pc` in address space `asid`, translating via
    /// `translate` on a miss. Base-layer candidates are accepted without
    /// validation — for callers that never instrument (golden runs, tests).
    /// Instrumenting callers must use
    /// [`Self::dispatch_get_or_translate_validated`].
    pub fn get_or_translate(
        &mut self,
        asid: u64,
        pc: u64,
        translate: impl FnOnce() -> TranslationBlock,
    ) -> Arc<TranslationBlock> {
        let (block, _) = self.dispatch_get_or_translate_validated(asid, pc, |_| true, translate);
        Arc::clone(block.tb())
    }

    /// Looks up the block for `pc` in address space `asid`, returning the
    /// cache's [`DispatchBlock`] handle and whether the jump cache served
    /// it.
    ///
    /// Resolution order:
    /// 1. jump-cache hit — returned directly, no counter moves;
    /// 2. overlay hit — returned directly (provenance decides the counter);
    /// 3. base-layer candidate — adopted into the overlay iff
    ///    `base_valid(tb)` confirms the caller's translate hook would leave
    ///    the clean block untouched (typically: no instruction in the block
    ///    is an inject point). The adoption is memoised, so validation runs
    ///    once per (asid, pc) between two flushes, not once per lookup;
    /// 4. miss — `translate` runs and the result enters the overlay.
    ///
    /// Steps 2–4 enter the result into the jump cache.
    ///
    /// Memoising the validation is sound because every hook state change
    /// (VMI arming the injector, the injector detaching after firing) is
    /// accompanied by a flush: between two flushes the hook's decision for
    /// a given block is constant.
    pub fn dispatch_get_or_translate_validated(
        &mut self,
        asid: u64,
        pc: u64,
        base_valid: impl FnOnce(&TranslationBlock) -> bool,
        translate: impl FnOnce() -> TranslationBlock,
    ) -> (Arc<DispatchBlock>, bool) {
        let slot = jmp_slot(asid, pc);
        if let Some(hit) = self.jmp[slot]
            .as_ref()
            .filter(|e| e.asid == asid && e.pc == pc)
        {
            return (Arc::clone(&hit.block), true);
        }
        let block = self.resolve(asid, pc, base_valid, translate);
        self.jmp[slot] = Some(JmpEntry {
            asid,
            pc,
            block: Arc::clone(&block),
        });
        (block, false)
    }

    /// Resolves `(asid, pc)` through the hash maps: steps 2–4 of
    /// [`Self::dispatch_get_or_translate_validated`]. Out of line so that
    /// only the jump-cache probe is inlined into the engine's loop.
    #[inline(never)]
    fn resolve(
        &mut self,
        asid: u64,
        pc: u64,
        base_valid: impl FnOnce(&TranslationBlock) -> bool,
        translate: impl FnOnce() -> TranslationBlock,
    ) -> Arc<DispatchBlock> {
        self.stats.lookups += 1;
        if let Some((block, provenance)) = self.overlay.get(&(asid, pc)) {
            match provenance {
                Provenance::FromBase => self.stats.base_hits += 1,
                Provenance::Fresh => self.stats.overlay_hits += 1,
            }
            return Arc::clone(block);
        }
        let (tb, provenance) = match self.base.as_ref().and_then(|base| base.get(asid, pc)) {
            Some(tb) if base_valid(tb) => {
                self.stats.base_hits += 1;
                (Arc::clone(tb), Provenance::FromBase)
            }
            _ => {
                self.stats.misses += 1;
                let tb = translate();
                self.stats.translated_insns += tb.insns().len() as u64;
                (Arc::new(tb), Provenance::Fresh)
            }
        };
        let block = Arc::new(DispatchBlock { tb });
        self.overlay
            .insert((asid, pc), (Arc::clone(&block), provenance));
        block
    }

    /// Drops every overlay block and empties the jump cache. The base
    /// layer (if any) survives; its blocks are re-validated on the next
    /// lookup.
    pub fn flush(&mut self) {
        self.clear_overlay();
        self.stats.flushes += 1;
    }

    /// Empties the overlay and, with it, the jump cache: the jump cache may
    /// only ever hold overlay blocks.
    fn clear_overlay(&mut self) {
        self.overlay.clear();
        self.jmp.fill(None);
    }

    /// Freezes the clean portion of this cache into an immutable base
    /// layer: every uninstrumented overlay block plus everything already in
    /// the current base. Call after a hook-free golden run to warm the
    /// layer campaign workers will share.
    pub fn seal(&self) -> Arc<BaseLayer> {
        let mut map: HashMap<(u64, u64), Arc<TranslationBlock>> = match &self.base {
            Some(base) => base.map.clone(),
            None => HashMap::new(),
        };
        for (key, (block, _)) in &self.overlay {
            if !block.tb().is_instrumented() {
                map.insert(*key, Arc::clone(block.tb()));
            }
        }
        Arc::new(BaseLayer { map })
    }

    /// Cache statistics, with the block-count gauges sampled now.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            overlay_blocks: self.overlay.len() as u64,
            base_blocks: self.base.as_ref().map_or(0, |b| b.len() as u64),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{translate_block, SliceFetcher};
    use chaser_isa::{Asm, Reg, CODE_BASE};
    use proptest::prelude::*;

    fn code() -> Vec<u8> {
        let mut a = Asm::new("t");
        a.movi(Reg::R1, 1);
        a.halt();
        a.assemble().expect("assemble").code().to_vec()
    }

    fn translate(code: &[u8]) -> TranslationBlock {
        translate_block(&SliceFetcher::new(CODE_BASE, code), CODE_BASE, None)
    }

    /// A cache over a base layer sealed from one translation of `code` at
    /// `(1, CODE_BASE)`.
    fn cache_over_base(code: &[u8]) -> (TbCache, Arc<BaseLayer>) {
        let mut warm = TbCache::new();
        warm.get_or_translate(1, CODE_BASE, || translate(code));
        let base = warm.seal();
        let mut cache = TbCache::new();
        cache.set_base(Arc::clone(&base));
        (cache, base)
    }

    #[test]
    fn second_lookup_hits() {
        let code = code();
        let mut cache = TbCache::new();
        let t1 = cache.get_or_translate(1, CODE_BASE, || translate(&code));
        let t2 = cache.get_or_translate(1, CODE_BASE, || panic!("must not retranslate"));
        assert!(Arc::ptr_eq(&t1, &t2));
        // The jump cache served the second lookup: one hash resolution.
        let stats = cache.stats();
        assert_eq!((stats.lookups, stats.misses, stats.overlay_hits), (1, 1, 0));
    }

    #[test]
    fn different_asids_do_not_share_blocks() {
        let code = code();
        let mut cache = TbCache::new();
        cache.get_or_translate(1, CODE_BASE, || translate(&code));
        let mut translated = false;
        cache.get_or_translate(2, CODE_BASE, || {
            translated = true;
            translate(&code)
        });
        assert!(translated, "asid 2 must not see asid 1's block");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn flush_forces_retranslation() {
        let code = code();
        let mut cache = TbCache::new();
        cache.get_or_translate(1, CODE_BASE, || translate(&code));
        cache.flush();
        assert_eq!(cache.stats().overlay_blocks, 0);
        let mut retranslated = false;
        cache.get_or_translate(1, CODE_BASE, || {
            retranslated = true;
            translate(&code)
        });
        assert!(retranslated);
        assert_eq!(cache.stats().flushes, 1);
    }

    #[test]
    fn sealed_base_serves_hits_across_flushes() {
        let code = code();
        let (mut cache, base) = cache_over_base(&code);
        assert_eq!(base.len(), 1);
        let t1 = cache.get_or_translate(1, CODE_BASE, || panic!("base must serve this"));
        assert!(Arc::ptr_eq(&t1, base.get(1, CODE_BASE).expect("sealed")));
        cache.flush();
        // The overlay is gone but the base still serves the block.
        cache.get_or_translate(1, CODE_BASE, || panic!("base survives the flush"));
        let stats = cache.stats();
        assert_eq!(stats.base_hits, 2);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.base_blocks, 1);
    }

    #[test]
    fn failed_validation_translates_fresh() {
        let code = code();
        let (mut cache, _) = cache_over_base(&code);
        // An "armed injector" rejects the clean block: fresh translation.
        let (block, jumped) =
            cache.dispatch_get_or_translate_validated(1, CODE_BASE, |_| false, || translate(&code));
        assert!(!jumped);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().base_hits, 0);
        // The fresh block is memoised: the validator must not run again
        // until a flush follows a hook change.
        let (again, jumped) = cache.dispatch_get_or_translate_validated(
            1,
            CODE_BASE,
            |_| panic!("validation is memoised until the next flush"),
            || panic!("already cached"),
        );
        assert!(jumped);
        assert!(Arc::ptr_eq(&block, &again));
        // After the flush ("injector detached"), the base serves it again.
        cache.flush();
        cache.dispatch_get_or_translate_validated(
            1,
            CODE_BASE,
            |_| true,
            || panic!("base serves this"),
        );
        assert_eq!(cache.stats().base_hits, 1);
    }

    #[test]
    fn validation_memoised_for_adopted_blocks() {
        let code = code();
        let (mut cache, _) = cache_over_base(&code);
        let mut validations = 0;
        for _ in 0..5 {
            cache.dispatch_get_or_translate_validated(
                1,
                CODE_BASE,
                |_| {
                    validations += 1;
                    true
                },
                || panic!("base serves this"),
            );
        }
        assert_eq!(validations, 1, "adoption memoises the validation");
        // One adoption; the jump cache served the other four.
        assert_eq!(cache.stats().base_hits, 1);
    }

    #[test]
    fn seal_skips_instrumented_blocks() {
        struct EveryInsn;
        impl crate::TranslateHook for EveryInsn {
            fn inject_point(&self, _pc: u64, _insn: &chaser_isa::Instruction) -> Option<u64> {
                Some(0)
            }
        }

        let code = code();
        let mut cache = TbCache::new();
        cache.get_or_translate(1, CODE_BASE, || translate(&code));
        cache.get_or_translate(1, CODE_BASE + 64, || {
            translate_block(
                &SliceFetcher::new(CODE_BASE + 64, &code),
                CODE_BASE + 64,
                Some(&EveryInsn),
            )
        });
        let base = cache.seal();
        assert_eq!(base.len(), 1, "instrumented block must not be exported");
        assert!(base.get(1, CODE_BASE).is_some());
        assert!(base.get(1, CODE_BASE + 64).is_none());
    }

    #[test]
    fn hook_driven_retranslation_is_not_reachable_through_stale_links() {
        // An injector arming flushes the cache; a block the injector now
        // targets is retranslated (validation fails). The clean block the
        // jump cache held before the flush must NOT be served: the flush
        // emptied the jump cache, and the lookup resolves the instrumented
        // replacement.
        let code = code();
        let (mut cache, base) = cache_over_base(&code);
        let (clean, _) =
            cache.dispatch_get_or_translate_validated(1, CODE_BASE, |_| true, || translate(&code));
        assert!(Arc::ptr_eq(
            clean.tb(),
            base.get(1, CODE_BASE).expect("sealed")
        ));
        cache.flush(); // injector armed
        let (instrumented, jumped) = cache.dispatch_get_or_translate_validated(
            1,
            CODE_BASE,
            |_| false, // armed hook rejects the clean block
            || translate(&code),
        );
        assert!(!jumped);
        assert!(!Arc::ptr_eq(&instrumented, &clean));
        assert!(!Arc::ptr_eq(instrumented.tb(), clean.tb()));
    }

    #[test]
    fn set_base_clears_the_jump_cache() {
        // A block translated before a base swap must not be served after
        // it: the next lookup adopts the new base's block.
        let code = code();
        let mut warm = TbCache::new();
        warm.get_or_translate(1, CODE_BASE, || translate(&code));
        let base = warm.seal();

        let mut cache = TbCache::new();
        let fresh = cache.get_or_translate(1, CODE_BASE, || translate(&code));
        cache.set_base(Arc::clone(&base));
        let adopted = cache.get_or_translate(1, CODE_BASE, || panic!("base serves this"));
        assert!(!Arc::ptr_eq(&fresh, &adopted));
        assert!(Arc::ptr_eq(
            &adopted,
            base.get(1, CODE_BASE).expect("sealed")
        ));
    }

    #[test]
    fn flush_frees_jump_cached_blocks() {
        // The jump cache holds its blocks strongly; a flush must release
        // them with the overlay.
        let code = code();
        let mut cache = TbCache::new();
        let (block, _) =
            cache.dispatch_get_or_translate_validated(1, CODE_BASE, |_| true, || translate(&code));
        let weak = Arc::downgrade(&block);
        drop(block);
        cache.flush();
        assert!(weak.upgrade().is_none(), "the flushed block must be freed");
    }

    #[test]
    fn dispatch_blocks_are_send_and_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<DispatchBlock>();
        assert_bounds::<TbCache>();
    }

    #[test]
    fn stats_absorb_and_hit_rate() {
        let mut a = CacheStats {
            lookups: 8,
            base_hits: 6,
            misses: 2,
            ..CacheStats::default()
        };
        let b = CacheStats {
            lookups: 2,
            base_hits: 2,
            ..CacheStats::default()
        };
        a.absorb(b);
        assert_eq!(a.lookups, 10);
        assert_eq!(a.base_hits, 8);
        // 8 base hits vs 2 translations: the base avoided 80% of the
        // translations that would otherwise have happened.
        assert!((a.base_hit_rate() - 0.8).abs() < 1e-12);
    }

    /// Keys that all share one jump-cache slot: three pcs
    /// `JMP_SIZE × INSN_LEN` apart in each of two address spaces.
    fn colliding_keys() -> Vec<(u64, u64)> {
        let slot = jmp_slot(1, CODE_BASE);
        let mut keys = Vec::new();
        for asid in [1, 2] {
            let first = (0..JMP_SIZE as u64)
                .map(|i| CODE_BASE + i * INSN_LEN)
                .find(|&pc| jmp_slot(asid, pc) == slot)
                .expect("every slot is reachable");
            for k in 0..3 {
                keys.push((asid, first + k * JMP_SIZE as u64 * INSN_LEN));
            }
        }
        assert!(keys.iter().all(|&(asid, pc)| jmp_slot(asid, pc) == slot));
        assert_ne!(
            keys[0], keys[3],
            "the two address spaces reach distinct pcs"
        );
        keys
    }

    /// A block for `pc` that records `stamp`: two blocks from different
    /// translations compare unequal.
    fn stamped(pc: u64, stamp: i64) -> TranslationBlock {
        let mut a = Asm::new("stamp");
        a.movi(Reg::R1, stamp);
        a.halt();
        let prog = a.assemble().expect("assemble");
        translate_block(&SliceFetcher::new(pc, prog.code()), pc, None)
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Look up key `i`.
        Lookup(usize),
        /// Flush; the hook then rejects the base blocks of odd keys iff
        /// `armed`.
        Flush { armed: bool },
        /// Install base layer `i`.
        SetBase(usize),
    }

    fn arb_op(keys: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..keys).prop_map(Op::Lookup),
            (0..keys).prop_map(Op::Lookup),
            (0..keys).prop_map(Op::Lookup),
            any::<bool>().prop_map(|armed| Op::Flush { armed }),
            (0usize..2).prop_map(Op::SetBase),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Over keys that collide in the jump cache, every lookup returns
        /// the block a lookup without the jump cache returns: `cached`
        /// goes through the jump cache, `plain` resolves through the hash
        /// maps alone. Both see the same flushes and base swaps.
        #[test]
        fn jump_cache_is_transparent(ops in proptest::collection::vec(arb_op(6), 1..120)) {
            let keys = colliding_keys();
            // Base 0 holds the even keys, base 1 every key, each with its
            // own stamps.
            let bases: Vec<Arc<BaseLayer>> = (0..2i64)
                .map(|b| {
                    let mut warm = TbCache::new();
                    for (i, &(asid, pc)) in keys.iter().enumerate() {
                        if b == 1 || i % 2 == 0 {
                            warm.get_or_translate(asid, pc, || stamped(pc, 1000 * (b + 1) + i as i64));
                        }
                    }
                    warm.seal()
                })
                .collect();
            let (mut cached, mut plain) = (TbCache::new(), TbCache::new());
            let (mut cached_stamp, mut plain_stamp) = (0, 0);
            let mut armed = false;
            for op in ops {
                match op {
                    Op::Lookup(i) => {
                        let (asid, pc) = keys[i];
                        let valid = |_: &TranslationBlock| !(armed && i % 2 == 1);
                        let (got, _) = cached.dispatch_get_or_translate_validated(asid, pc, valid, || {
                            cached_stamp += 1;
                            stamped(pc, cached_stamp)
                        });
                        let want = plain.resolve(asid, pc, valid, || {
                            plain_stamp += 1;
                            stamped(pc, plain_stamp)
                        });
                        prop_assert_eq!(got.tb(), want.tb(), "key {:?}", keys[i]);
                    }
                    Op::Flush { armed: a } => {
                        cached.flush();
                        plain.flush();
                        armed = a;
                    }
                    Op::SetBase(b) => {
                        cached.set_base(Arc::clone(&bases[b]));
                        plain.set_base(Arc::clone(&bases[b]));
                    }
                }
            }
            prop_assert_eq!(cached.stats().misses, plain.stats().misses);
        }
    }
}
