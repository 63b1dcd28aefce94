//! The warmed prepared-app pool.
//!
//! Preparing an application — golden reference run, translation-block base
//! layer, checkpoint ladder — dominates small-campaign latency. Jobs
//! whose specs agree on every prepare-relevant field (see
//! [`crate::CampaignSpec::pool_key`]) share one [`PreparedApp`] through
//! this LRU pool; `PreparedApp` is `Sync` and campaigns only ever borrow
//! it, so one warmed instance serves concurrent campaigns with different
//! seeds, run counts and shard plans.

use chaser::{PoolStats, PreparedApp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A bounded LRU cache of warmed [`PreparedApp`]s keyed by
/// [`crate::CampaignSpec::pool_key`].
#[derive(Debug)]
pub struct PreparedPool {
    capacity: usize,
    /// Most-recently-used last. Linear scan is fine: capacity is small
    /// (single digits) and each hit saves a full golden run.
    entries: Mutex<Vec<(String, Arc<PreparedApp>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PreparedPool {
    /// Creates an empty pool holding at most `capacity` prepared apps
    /// (a capacity of 0 is treated as 1).
    pub fn new(capacity: usize) -> PreparedPool {
        PreparedPool {
            capacity: capacity.max(1),
            entries: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the pooled app for `key`, preparing (and caching) it on a
    /// miss. The pool lock is held across `prepare`: a second job with the
    /// same key blocks and then hits, rather than duplicating the most
    /// expensive operation the daemon performs. A `prepare` that panics
    /// caches nothing, so the lock it poisons guards an intact pool and
    /// the next caller takes it over.
    pub fn get_or_prepare(
        &self,
        key: &str,
        prepare: impl FnOnce() -> PreparedApp,
    ) -> Arc<PreparedApp> {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = entries.iter().position(|(k, _)| k == key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let entry = entries.remove(pos);
            let app = Arc::clone(&entry.1);
            entries.push(entry);
            return app;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let app = Arc::new(prepare());
        entries.push((key.to_string(), Arc::clone(&app)));
        while entries.len() > self.capacity {
            entries.remove(0);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        app
    }

    /// Pool counters so far. `queue_depth_hwm` is the daemon's to fill —
    /// the pool only knows about prepared apps, not the job queue.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            prepared_hits: self.hits.load(Ordering::Relaxed),
            prepared_misses: self.misses.load(Ordering::Relaxed),
            prepared_evictions: self.evictions.load(Ordering::Relaxed),
            queue_depth_hwm: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaser::prepare_app;
    use chaser_isa::InsnClass;
    use std::sync::atomic::AtomicUsize;

    fn tiny_prepared() -> PreparedApp {
        let app = crate::apps::build_app("lud", 4, 2).expect("lud builds");
        prepare_app(&app, &[InsnClass::Mov])
    }

    #[test]
    fn second_lookup_with_same_key_is_a_hit() {
        let pool = PreparedPool::new(2);
        let prepared = AtomicUsize::new(0);
        let prep = || {
            prepared.fetch_add(1, Ordering::Relaxed);
            tiny_prepared()
        };
        let a = pool.get_or_prepare("k", prep);
        let b = pool.get_or_prepare("k", || {
            prepared.fetch_add(1, Ordering::Relaxed);
            tiny_prepared()
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(prepared.load(Ordering::Relaxed), 1);
        let stats = pool.stats();
        assert_eq!((stats.prepared_hits, stats.prepared_misses), (1, 1));
        assert_eq!(stats.prepared_evictions, 0);
    }

    #[test]
    fn a_panicking_prepare_leaves_the_pool_usable() {
        let pool = PreparedPool::new(2);
        let panicked = std::panic::catch_unwind(|| {
            pool.get_or_prepare("k", || panic!("launch application: OutOfMemory"))
        });
        assert!(panicked.is_err());
        let app = pool.get_or_prepare("k", tiny_prepared);
        assert_eq!(app.app.name, "lud");
        let stats = pool.stats();
        assert_eq!((stats.prepared_hits, stats.prepared_misses), (0, 2));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let pool = PreparedPool::new(1);
        pool.get_or_prepare("a", tiny_prepared);
        pool.get_or_prepare("b", tiny_prepared);
        // "a" was evicted, so this is a miss again.
        pool.get_or_prepare("a", tiny_prepared);
        let stats = pool.stats();
        assert_eq!(stats.prepared_misses, 3);
        assert_eq!(stats.prepared_evictions, 2);
        assert_eq!(stats.prepared_hits, 0);
    }

    #[test]
    fn recency_ordering_protects_the_hot_entry() {
        let pool = PreparedPool::new(2);
        pool.get_or_prepare("a", tiny_prepared);
        pool.get_or_prepare("b", tiny_prepared);
        // Touch "a" so "b" becomes the LRU victim.
        pool.get_or_prepare("a", tiny_prepared);
        pool.get_or_prepare("c", tiny_prepared);
        pool.get_or_prepare("a", tiny_prepared);
        let stats = pool.stats();
        assert_eq!(stats.prepared_hits, 2);
        assert_eq!(stats.prepared_misses, 3);
        assert_eq!(stats.prepared_evictions, 1);
    }
}
