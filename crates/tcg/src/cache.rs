//! The translation-block cache.
//!
//! Layered since the campaign-sharing refactor: an optional immutable
//! [`BaseLayer`] of clean (uninstrumented) blocks, shared read-only via
//! `Arc` across campaign worker threads, underneath a mutable per-run
//! overlay. Flushes invalidate only the overlay — the warm base survives
//! the VMI attach/detach flush cycle, so a 5 000-run campaign translates
//! each guest block once instead of 5 000 times.

use crate::TranslationBlock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters describing cache behaviour; used by the overhead benchmarks to
/// show the cost of Chaser's cache flushes, and by campaign reports to show
/// how much translation the shared base layer absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups that missed and required translation.
    pub misses: u64,
    /// Lookups served by a block originating in the shared base layer
    /// (whether validated on this lookup or already memoised in the overlay).
    pub base_hits: u64,
    /// Lookups served by a block translated into the overlay this run.
    pub overlay_hits: u64,
    /// Full-cache (overlay) flushes.
    pub flushes: u64,
    /// Per-address-space flushes.
    pub asid_flushes: u64,
    /// Guest instructions translated (over all misses).
    pub translated_insns: u64,
    /// Blocks resident in the overlay when the stats were read.
    pub overlay_blocks: u64,
    /// Blocks resident in the shared base layer when the stats were read.
    pub base_blocks: u64,
}

impl CacheStats {
    /// How often the shared base layer avoided a translation, in `[0, 1]`:
    /// `base_hits / (base_hits + misses)`. Lookups served by run-local
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
        self.asid_flushes += other.asid_flushes;
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

    /// Looks up a block. No validation: callers that might instrument must
    /// go through [`TbCache::dispatch_get_or_translate_validated`].
    pub fn get(&self, asid: u64, pc: u64) -> Option<&Arc<TranslationBlock>> {
        self.map.get(&(asid, pc))
    }
}

/// Where an overlay entry came from; decides which hit counter a repeat
/// lookup bumps and whether sealing may export the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Provenance {
    /// Validated clean block adopted from the base layer.
    FromBase,
    /// Block translated into the overlay this run.
    Fresh,
}

/// Which successor slot of a [`DispatchBlock`] a chain link occupies.
///
/// `Taken` is the unconditional / branch-taken successor; `Fallthrough` is
/// the not-taken successor of a conditional exit. Blocks ending in an
/// indirect jump or a hypercall have no chainable slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainSlot {
    /// Unconditional exit or the taken side of a conditional exit.
    Taken,
    /// The not-taken side of a conditional exit.
    Fallthrough,
}

/// A per-cache dispatch wrapper around one translated block, carrying the
/// patchable successor slots used for TB chaining (QEMU's direct block
/// linking).
///
/// Links are deliberately *not* stored inside [`TranslationBlock`]: those
/// are `Arc`-shared across threads via the [`BaseLayer`], whereas chain
/// links are meaningful only within one cache's flush epoch. Each cache
/// wraps the blocks it dispatches in its own `Arc<DispatchBlock>`, so links
/// never leak between runs and base-layer sharing stays sound.
///
/// A successor slot is a pair of plain words — the *full* recording epoch
/// and the successor id — so the block is plain data (`Send + Sync`) and a
/// node owning a cache can move across worker threads. (An earlier packing
/// squeezed a truncated 32-bit epoch and the id into one word; after 2^32
/// epoch bumps a stale link could falsely match the current epoch, so the
/// epoch is now stored unabridged.) The id indexes the owning cache's
/// dispatch slab; links never hold a reference to the successor, so link
/// cycles (every loop back-edge is one) cannot leak blocks. The words are
/// atomic only to satisfy `Sync`; exactly one thread dispatches a given
/// cache at a time, so `Relaxed` ordering is sufficient and the epoch/id
/// pair needs no cross-word atomicity.
#[derive(Debug)]
pub struct DispatchBlock {
    tb: Arc<TranslationBlock>,
    /// This block's id in the owning cache's dispatch slab (`slab[id - 1]`);
    /// 0 is reserved as the unlinked sentinel in link slots.
    id: u32,
    /// `links[slot] = [recording epoch, successor id]`; id 0 = unlinked.
    links: [[AtomicU64; 2]; 2],
}

impl DispatchBlock {
    /// The wrapped translation block.
    pub fn tb(&self) -> &Arc<TranslationBlock> {
        &self.tb
    }

    fn slot(&self, s: ChainSlot) -> &[AtomicU64; 2] {
        &self.links[s as usize]
    }
}

/// Result of following a chain link (see [`TbCache::follow`]).
#[derive(Debug, Clone)]
pub enum ChainFollow {
    /// Live link: dispatch the successor directly, no hash lookup needed.
    Hit(Arc<DispatchBlock>),
    /// The slot was patched but the link has been severed by an intervening
    /// flush / invalidation (stale epoch).
    Severed,
    /// The slot has not been patched since the last sever.
    Unlinked,
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
/// TB chaining rides on top: lookups hand out [`DispatchBlock`] wrappers
/// whose successor slots the engine patches on first dispatch, letting
/// steady-state execution jump block-to-block without touching the hash
/// maps. Every invalidation (flush, asid flush, base swap) bumps the cache
/// `epoch`, lazily severing all outstanding links.
#[derive(Debug, Default)]
pub struct TbCache {
    base: Option<Arc<BaseLayer>>,
    overlay: HashMap<(u64, u64), (Arc<DispatchBlock>, Provenance)>,
    /// Dispatch-block registry: `slab[id - 1]` resolves the id a chain link
    /// carries. Cleared only when the whole overlay is cleared (full flush,
    /// base swap); an asid flush retains it so surviving blocks keep valid
    /// ids — the removed blocks' entries leak until the next full flush,
    /// which is bounded by the overlay's own size.
    slab: Vec<Arc<DispatchBlock>>,
    stats: CacheStats,
    /// Chain-link validity epoch; links recorded under an older epoch are
    /// dead. Bumped by every event that can invalidate a translation.
    epoch: u64,
}

impl TbCache {
    /// An empty cache with no base layer (the cold-cache path).
    pub fn new() -> TbCache {
        TbCache::default()
    }

    /// An empty overlay on top of a shared base layer.
    pub fn with_base(base: Arc<BaseLayer>) -> TbCache {
        TbCache {
            base: Some(base),
            ..TbCache::default()
        }
    }

    /// Installs (or replaces) the shared base layer. Existing overlay
    /// entries are dropped: their provenance would be stale.
    pub fn set_base(&mut self, base: Arc<BaseLayer>) {
        self.overlay.clear();
        self.slab.clear();
        self.epoch += 1;
        self.base = Some(base);
    }

    /// Wraps `tb` in a fresh dispatch block registered in the slab.
    fn alloc_dispatch(&mut self, tb: Arc<TranslationBlock>) -> Arc<DispatchBlock> {
        let id = u32::try_from(self.slab.len() + 1).expect("dispatch slab overflow");
        let db = Arc::new(DispatchBlock {
            tb,
            id,
            links: [
                [AtomicU64::new(0), AtomicU64::new(0)],
                [AtomicU64::new(0), AtomicU64::new(0)],
            ],
        });
        self.slab.push(Arc::clone(&db));
        db
    }

    /// The current chain-link epoch. Links are valid only while the epoch
    /// they were recorded under is still current.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared base layer, if one is installed.
    pub fn base(&self) -> Option<&Arc<BaseLayer>> {
        self.base.as_ref()
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
        Arc::clone(
            self.dispatch_get_or_translate_validated(asid, pc, |_| true, translate)
                .tb(),
        )
    }

    /// Looks up the block for `pc` in address space `asid`, returning the
    /// cache's [`DispatchBlock`] wrapper so the caller can participate in
    /// TB chaining ([`Self::chain`] / [`Self::follow`]).
    ///
    /// Resolution order:
    /// 1. overlay hit — returned directly (provenance decides the counter);
    /// 2. base-layer candidate — adopted into the overlay iff
    ///    `base_valid(tb)` confirms the caller's translate hook would leave
    ///    the clean block untouched (typically: no instruction in the block
    ///    is an inject point). The adoption is memoised, so validation runs
    ///    once per (asid, pc) per flush epoch, not once per lookup;
    /// 3. miss — `translate` runs and the result enters the overlay.
    ///
    /// Memoising the validation is sound because every hook state change
    /// (VMI arming the injector, the injector detaching after firing) is
    /// accompanied by a flush: within one flush epoch the hook's decision
    /// for a given block is constant.
    pub fn dispatch_get_or_translate_validated(
        &mut self,
        asid: u64,
        pc: u64,
        base_valid: impl FnOnce(&TranslationBlock) -> bool,
        translate: impl FnOnce() -> TranslationBlock,
    ) -> Arc<DispatchBlock> {
        self.stats.lookups += 1;
        if let Some((db, provenance)) = self.overlay.get(&(asid, pc)) {
            match provenance {
                Provenance::FromBase => self.stats.base_hits += 1,
                Provenance::Fresh => self.stats.overlay_hits += 1,
            }
            return Arc::clone(db);
        }
        if let Some(base) = &self.base {
            if let Some(tb) = base.get(asid, pc) {
                if base_valid(tb) {
                    self.stats.base_hits += 1;
                    let tb = Arc::clone(tb);
                    let db = self.alloc_dispatch(tb);
                    self.overlay
                        .insert((asid, pc), (Arc::clone(&db), Provenance::FromBase));
                    return db;
                }
            }
        }
        self.stats.misses += 1;
        let tb = Arc::new(translate());
        self.stats.translated_insns += tb.insns().len() as u64;
        let db = self.alloc_dispatch(tb);
        self.overlay
            .insert((asid, pc), (Arc::clone(&db), Provenance::Fresh));
        db
    }

    /// Patches `pred`'s successor `slot` to point at `succ`, tagged with
    /// the current epoch. Callers must only chain blocks of the same
    /// address space that were both dispatched in the current epoch (the
    /// engine guarantees this by patching immediately after the hash
    /// lookup that resolved the exit).
    pub fn chain(&self, pred: &DispatchBlock, slot: ChainSlot, succ: &Arc<DispatchBlock>) {
        let [epoch, id] = pred.slot(slot);
        epoch.store(self.epoch, Ordering::Relaxed);
        id.store(u64::from(succ.id), Ordering::Relaxed);
    }

    /// Follows `pred`'s successor `slot`. A link recorded under an older
    /// epoch reports [`ChainFollow::Severed`] and is cleared so the next
    /// dispatch re-resolves through the hash maps — and re-validates
    /// against the active hook state. The comparison is over the full
    /// 64-bit epoch: a link can never alias back to validity, no matter
    /// how many invalidations have happened.
    pub fn follow(&self, pred: &DispatchBlock, slot: ChainSlot) -> ChainFollow {
        let [epoch, id] = pred.slot(slot);
        let id_word = id.load(Ordering::Relaxed);
        if id_word == 0 {
            return ChainFollow::Unlinked;
        }
        if epoch.load(Ordering::Relaxed) != self.epoch {
            id.store(0, Ordering::Relaxed);
            return ChainFollow::Severed;
        }
        match self.slab.get(id_word as usize - 1) {
            Some(succ) => ChainFollow::Hit(Arc::clone(succ)),
            // Unreachable while the epoch matches (the slab only shrinks on
            // epoch bumps), but sever defensively rather than panic.
            None => {
                id.store(0, Ordering::Relaxed);
                ChainFollow::Severed
            }
        }
    }

    /// Looks up without translating (overlay first, then base, unvalidated).
    pub fn get(&self, asid: u64, pc: u64) -> Option<Arc<TranslationBlock>> {
        if let Some((db, _)) = self.overlay.get(&(asid, pc)) {
            return Some(Arc::clone(db.tb()));
        }
        self.base
            .as_ref()
            .and_then(|base| base.get(asid, pc))
            .cloned()
    }

    /// Drops every overlay block. The base layer (if any) survives; its
    /// blocks are re-validated on the next lookup. All chain links are
    /// severed (epoch bump).
    pub fn flush(&mut self) {
        self.overlay.clear();
        self.slab.clear();
        self.stats.flushes += 1;
        self.epoch += 1;
    }

    /// Drops the overlay blocks of one address space. Chain links of
    /// *every* address space are severed (epoch bump) — conservative, but
    /// links re-form on the next dispatch.
    pub fn flush_asid(&mut self, asid: u64) {
        self.overlay.retain(|(a, _), _| *a != asid);
        self.stats.asid_flushes += 1;
        self.epoch += 1;
    }

    /// Number of overlay blocks (the base layer is reported separately via
    /// [`CacheStats::base_blocks`]).
    pub fn len(&self) -> usize {
        self.overlay.len()
    }

    /// True when the overlay holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.overlay.is_empty()
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
        for (key, (db, _)) in &self.overlay {
            if !db.tb().is_instrumented() {
                map.insert(*key, Arc::clone(db.tb()));
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

    fn code() -> Vec<u8> {
        let mut a = Asm::new("t");
        a.movi(Reg::R1, 1);
        a.halt();
        a.assemble().expect("assemble").code().to_vec()
    }

    fn translate(code: &[u8]) -> TranslationBlock {
        translate_block(&SliceFetcher::new(CODE_BASE, code), CODE_BASE, None)
    }

    #[test]
    fn second_lookup_hits() {
        let code = code();
        let mut cache = TbCache::new();
        let t1 = cache.get_or_translate(1, CODE_BASE, || translate(&code));
        let t2 = cache.get_or_translate(1, CODE_BASE, || panic!("must not retranslate"));
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(cache.stats().lookups, 2);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().overlay_hits, 1);
    }

    #[test]
    fn different_asids_do_not_share_blocks() {
        let code = code();
        let mut cache = TbCache::new();
        cache.get_or_translate(1, CODE_BASE, || translate(&code));
        assert!(cache.get(2, CODE_BASE).is_none());
    }

    #[test]
    fn flush_forces_retranslation() {
        let code = code();
        let mut cache = TbCache::new();
        cache.get_or_translate(1, CODE_BASE, || translate(&code));
        cache.flush();
        assert!(cache.is_empty());
        let mut retranslated = false;
        cache.get_or_translate(1, CODE_BASE, || {
            retranslated = true;
            translate(&code)
        });
        assert!(retranslated);
        assert_eq!(cache.stats().flushes, 1);
    }

    #[test]
    fn flush_asid_only_touches_that_space() {
        let code = code();
        let mut cache = TbCache::new();
        for asid in [1, 2] {
            cache.get_or_translate(asid, CODE_BASE, || translate(&code));
        }
        cache.flush_asid(1);
        assert!(cache.get(1, CODE_BASE).is_none());
        assert!(cache.get(2, CODE_BASE).is_some());
    }

    #[test]
    fn sealed_base_serves_hits_across_flushes() {
        let code = code();
        let mut warm = TbCache::new();
        warm.get_or_translate(1, CODE_BASE, || translate(&code));
        let base = warm.seal();
        assert_eq!(base.len(), 1);

        let mut cache = TbCache::with_base(Arc::clone(&base));
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
        let mut warm = TbCache::new();
        warm.get_or_translate(1, CODE_BASE, || translate(&code));
        let base = warm.seal();

        let mut cache = TbCache::with_base(base);
        // An "armed injector" rejects the clean block: fresh translation.
        let db =
            cache.dispatch_get_or_translate_validated(1, CODE_BASE, |_| false, || translate(&code));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().base_hits, 0);
        // The fresh block is memoised: the validator must not run again
        // until a flush opens a new hook epoch.
        let again = cache.dispatch_get_or_translate_validated(
            1,
            CODE_BASE,
            |_| panic!("validation is memoised within a flush epoch"),
            || panic!("already cached"),
        );
        assert!(Arc::ptr_eq(db.tb(), again.tb()));
        assert_eq!(cache.stats().overlay_hits, 1);
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
        let mut warm = TbCache::new();
        warm.get_or_translate(1, CODE_BASE, || translate(&code));
        let base = warm.seal();

        let mut cache = TbCache::with_base(base);
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
        assert_eq!(cache.stats().base_hits, 5);
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

    fn dispatch(cache: &mut TbCache, asid: u64, pc: u64, code: &[u8]) -> Arc<DispatchBlock> {
        cache.dispatch_get_or_translate_validated(
            asid,
            pc,
            |_| true,
            || translate_block(&SliceFetcher::new(pc, code), pc, None),
        )
    }

    #[test]
    fn chain_link_follows_until_flush_severs() {
        let code = code();
        let mut cache = TbCache::new();
        let a = dispatch(&mut cache, 1, CODE_BASE, &code);
        let b = dispatch(&mut cache, 1, CODE_BASE + 64, &code);
        assert!(matches!(
            cache.follow(&a, ChainSlot::Taken),
            ChainFollow::Unlinked
        ));
        cache.chain(&a, ChainSlot::Taken, &b);
        let ChainFollow::Hit(succ) = cache.follow(&a, ChainSlot::Taken) else {
            panic!("patched link must hit");
        };
        assert!(Arc::ptr_eq(&succ, &b));
        // A full flush severs the link lazily via the epoch bump.
        cache.flush();
        assert!(matches!(
            cache.follow(&a, ChainSlot::Taken),
            ChainFollow::Severed
        ));
        // The sever clears the slot: the next follow reports Unlinked.
        assert!(matches!(
            cache.follow(&a, ChainSlot::Taken),
            ChainFollow::Unlinked
        ));
    }

    #[test]
    fn flush_asid_severs_links_of_every_address_space() {
        let code = code();
        let mut cache = TbCache::new();
        let a = dispatch(&mut cache, 1, CODE_BASE, &code);
        let b = dispatch(&mut cache, 1, CODE_BASE + 64, &code);
        cache.chain(&a, ChainSlot::Fallthrough, &b);
        cache.flush_asid(7); // unrelated asid — still bumps the epoch
        assert!(matches!(
            cache.follow(&a, ChainSlot::Fallthrough),
            ChainFollow::Severed
        ));
    }

    #[test]
    fn hook_driven_retranslation_is_not_reachable_through_stale_links() {
        // An injector arming flushes the cache; a block the injector now
        // targets is retranslated (validation fails). A predecessor chained
        // to the old clean block must NOT jump to it — the link is severed
        // and the next dispatch resolves the instrumented replacement.
        let code = code();
        let mut cache = TbCache::new();
        let pred = dispatch(&mut cache, 1, CODE_BASE, &code);
        let clean = dispatch(&mut cache, 1, CODE_BASE + 64, &code);
        cache.chain(&pred, ChainSlot::Taken, &clean);
        cache.flush(); // injector armed
        assert!(matches!(
            cache.follow(&pred, ChainSlot::Taken),
            ChainFollow::Severed
        ));
        let instrumented = cache.dispatch_get_or_translate_validated(
            1,
            CODE_BASE + 64,
            |_| false, // armed hook rejects the clean block
            || {
                translate_block(
                    &SliceFetcher::new(CODE_BASE + 64, &code),
                    CODE_BASE + 64,
                    None,
                )
            },
        );
        assert!(!Arc::ptr_eq(&instrumented, &clean));
    }

    #[test]
    fn surviving_blocks_relink_after_an_asid_flush() {
        // An asid flush severs every link (epoch bump) but keeps the
        // dispatch slab, so blocks of untouched address spaces keep valid
        // ids and can re-chain in the new epoch.
        let code = code();
        let mut cache = TbCache::new();
        let a = dispatch(&mut cache, 1, CODE_BASE, &code);
        let b = dispatch(&mut cache, 1, CODE_BASE + 64, &code);
        cache.chain(&a, ChainSlot::Taken, &b);
        cache.flush_asid(7); // unrelated asid
        assert!(matches!(
            cache.follow(&a, ChainSlot::Taken),
            ChainFollow::Severed
        ));
        cache.chain(&a, ChainSlot::Taken, &b);
        let ChainFollow::Hit(succ) = cache.follow(&a, ChainSlot::Taken) else {
            panic!("re-patched link must hit in the new epoch");
        };
        assert!(Arc::ptr_eq(&succ, &b));
    }

    #[test]
    fn self_links_do_not_leak_blocks() {
        // A one-block loop links to itself; id-based successor slots hold
        // no reference, so the block frees once the overlay and slab drop
        // it at the next full flush.
        let code = code();
        let mut cache = TbCache::new();
        let a = dispatch(&mut cache, 1, CODE_BASE, &code);
        cache.chain(&a, ChainSlot::Taken, &a);
        let weak = Arc::downgrade(&a);
        drop(a);
        cache.flush();
        assert!(
            weak.upgrade().is_none(),
            "cycle must not keep the block alive"
        );
    }

    #[test]
    fn stale_links_sever_past_u32_epoch_wraparound() {
        // Regression: the old packed-slot scheme stored only the low 32
        // bits of the epoch, so a link recorded at epoch 0 read as live
        // again after 2^32 invalidations. The full-width comparison must
        // sever it.
        let code = code();
        let mut cache = TbCache::new();
        let a = dispatch(&mut cache, 1, CODE_BASE, &code);
        let b = dispatch(&mut cache, 1, CODE_BASE + 64, &code);
        cache.chain(&a, ChainSlot::Taken, &b);
        cache.epoch += 1 << 32; // 2^32 invalidations, truncated tag aliases
        assert!(matches!(
            cache.follow(&a, ChainSlot::Taken),
            ChainFollow::Severed
        ));
        // Links recorded at a beyond-u32 epoch still work.
        cache.chain(&a, ChainSlot::Taken, &b);
        let ChainFollow::Hit(succ) = cache.follow(&a, ChainSlot::Taken) else {
            panic!("link patched in the wide epoch must hit");
        };
        assert!(Arc::ptr_eq(&succ, &b));
    }

    #[test]
    fn dispatch_blocks_are_send_and_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<DispatchBlock>();
        assert_bounds::<TbCache>();
    }

    #[test]
    fn set_base_severs_links() {
        let code = code();
        let mut warm = TbCache::new();
        warm.get_or_translate(1, CODE_BASE, || translate(&code));
        let base = warm.seal();

        let mut cache = TbCache::new();
        let a = dispatch(&mut cache, 1, CODE_BASE, &code);
        let b = dispatch(&mut cache, 1, CODE_BASE + 64, &code);
        cache.chain(&a, ChainSlot::Taken, &b);
        cache.set_base(base);
        assert!(matches!(
            cache.follow(&a, ChainSlot::Taken),
            ChainFollow::Severed
        ));
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
}
