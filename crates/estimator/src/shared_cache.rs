//! Content-addressed estimate cache shared *across* compilations.
//!
//! A design-space sweep compiles dozens of variants of one workload, and most
//! node bodies are structurally identical across design points — only the
//! nodes whose tiling or parallel factors actually changed differ. The
//! per-compilation memoization inside [`DataflowEstimator`] cannot see that:
//! it is keyed by context identity and mutation generation, both of which are
//! fresh for every design point.
//!
//! [`SharedEstimateCache`] closes the gap. It is a `Sync` map from a
//! [`Fingerprint`] to [`NodeEstimate`], where the key combines the [content
//! hash](estimate_fingerprint) of a node subtree *plus* the physical
//! description of every buffer the node accesses with the [full device
//! description](device_fingerprint) — every field, not just the device name,
//! so sweeping device parameters (clock, bandwidth) under one name can never
//! alias. Because [`crate::latency::estimate_body`] is a pure function of
//! exactly those inputs, a cache hit returns bit-for-bit the estimate a
//! recomputation would produce — sharing is an invisible optimization, never
//! a QoR change.
//!
//! Estimators attach to a cache with
//! [`DataflowEstimator::with_shared_cache`]; a sweep engine creates one cache
//! and hands a clone of the `Arc` to every concurrent compilation.
//!
//! With [`SharedEstimateCache::with_store`], the cache additionally layers a
//! persistent, content-addressed [`EstimateStore`] underneath: in-memory
//! misses read through to the store's index of its directory, and freshly
//! computed estimates are queued on the store — so *separate processes*
//! (consecutive CLI runs, bench invocations, CI steps) pointed at the same
//! directory share estimate work too. Neither direction touches the file
//! system per estimate: whoever drives a batch of compilations calls
//! [`SharedEstimateCache::flush`] once when the batch ends, which publishes
//! the queue as one segment file, and reads
//! [`SharedEstimateCache::persistent_stats`] only after that, so `writes`
//! counts what is on disk. The in-memory counters count a store hit as a
//! cache hit, because the caller was served without computing.
//!
//! [`DataflowEstimator`]: crate::dataflow::DataflowEstimator
//! [`DataflowEstimator::with_shared_cache`]: crate::dataflow::DataflowEstimator::with_shared_cache

use crate::device::FpgaDevice;
use crate::latency::{buffer_info, NodeEstimate};
use crate::store::{EstimateStore, PersistentStoreStats};
use hida_ir_core::fingerprint::{structural_fingerprint_filtered, Fingerprint, StableHasher};
use hida_ir_core::{lock_recover, Context, OpId};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Traffic counters of a [`SharedEstimateCache`] (or of one estimator's view
/// of it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Estimates served from the shared cache.
    pub hits: u64,
    /// Estimates that had to be computed (and were then published).
    pub misses: u64,
    /// Distinct `(fingerprint, device)` entries currently stored.
    pub entries: u64,
}

impl SharedCacheStats {
    /// Fraction of lookups served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Adds `other`'s hit/miss counters onto `self` (entries: maximum, since
    /// per-estimator views share one store).
    pub fn accumulate(&mut self, other: &SharedCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries = self.entries.max(other.entries);
    }
}

impl fmt::Display for SharedCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hit / {} miss ({:.0}% hit rate, {} entries)",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.entries
        )
    }
}

/// A `Sync` node-estimate cache keyed by the combined node-plus-device
/// [`Fingerprint`] (see [`estimate_key`]), designed to be shared (behind an
/// `Arc`) by every compilation of a design-space sweep.
///
/// All internal locking recovers from mutex poison ([`lock_recover`]): a
/// worker that panics while holding the map lock cannot wedge later lookups —
/// entries are only ever inserted whole, so the map is valid even after an
/// interrupted critical section.
#[derive(Default)]
pub struct SharedEstimateCache {
    entries: Mutex<HashMap<Fingerprint, NodeEstimate>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Persistent read-through/write-back tier, when attached.
    store: Option<EstimateStore>,
}

impl SharedEstimateCache {
    /// Creates an empty, purely in-memory cache.
    pub fn new() -> Self {
        SharedEstimateCache::default()
    }

    /// Creates a cache layered over a persistent [`EstimateStore`]: lookups
    /// that miss in memory read through to disk, and published estimates are
    /// written back, so separate processes sharing the store's directory
    /// share estimate work across runs.
    pub fn with_store(store: EstimateStore) -> Self {
        SharedEstimateCache {
            store: Some(store),
            ..SharedEstimateCache::default()
        }
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&EstimateStore> {
        self.store.as_ref()
    }

    /// Publishes every estimate queued on the persistent store since the last
    /// flush as one segment (see [`EstimateStore::flush`]); a no-op without a
    /// store. Batch drivers call this when the batch ends, before they read
    /// [`persistent_stats`](Self::persistent_stats).
    pub fn flush(&self) {
        if let Some(store) = &self.store {
            store.flush();
        }
    }

    /// Traffic/maintenance counters of the persistent tier (`None` without an
    /// attached store).
    pub fn persistent_stats(&self) -> Option<PersistentStoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// Looks up the estimate cached under `key`, counting a hit or a miss.
    /// With a persistent store attached, an in-memory miss reads through to
    /// the store's index; a store hit is promoted into the in-memory map (and
    /// counted as a hit — the caller was served without computing).
    pub fn lookup(&self, key: Fingerprint) -> Option<NodeEstimate> {
        {
            let entries = lock_recover(&self.entries);
            if let Some(estimate) = entries.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(estimate.clone());
            }
        }
        // Read through to the persistent tier outside the map lock: the
        // store has a lock of its own.
        if let Some(estimate) = self.store.as_ref().and_then(|store| store.load(key)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            lock_recover(&self.entries)
                .entry(key)
                .or_insert_with(|| estimate.clone());
            return Some(estimate);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Probes the cache under `key` **without** counting hit/miss traffic and
    /// without computing anything on a miss — the surrogate query the
    /// design-space explorer uses to pre-score candidate points before
    /// deciding whether to compile them. With a persistent store attached, an
    /// in-memory miss still reads through to it (and promotes the entry),
    /// so estimates written by earlier processes feed the surrogate too. The
    /// main hit/miss counters stay untouched: a probe is a question about the
    /// cache, not a request served by it.
    pub fn peek(&self, key: Fingerprint) -> Option<NodeEstimate> {
        {
            let entries = lock_recover(&self.entries);
            if let Some(estimate) = entries.get(&key) {
                return Some(estimate.clone());
            }
        }
        let estimate = self.store.as_ref().and_then(|store| store.load(key))?;
        lock_recover(&self.entries)
            .entry(key)
            .or_insert_with(|| estimate.clone());
        Some(estimate)
    }

    /// Publishes a freshly computed estimate. The first publisher wins; a
    /// concurrent duplicate is dropped (both computed the same pure function,
    /// so the values are identical anyway). With a persistent store attached,
    /// a first publish is also queued for the next [`flush`](Self::flush).
    pub fn publish(&self, key: Fingerprint, estimate: NodeEstimate) {
        let inserted = {
            let mut entries = lock_recover(&self.entries);
            match entries.entry(key) {
                std::collections::hash_map::Entry::Occupied(_) => false,
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(estimate.clone());
                    true
                }
            }
        };
        if inserted {
            if let Some(store) = &self.store {
                store.save(key, &estimate);
            }
        }
    }

    /// Number of cached node-per-device entries.
    pub fn len(&self) -> usize {
        lock_recover(&self.entries).len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime traffic counters across every attached estimator.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

impl fmt::Debug for SharedEstimateCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedEstimateCache")
            .field("stats", &self.stats())
            .field("persistent", &self.persistent_stats())
            .finish()
    }
}

/// Presentation-only attributes excluded from the estimate key. They feed
/// only the `name` field of a [`NodeEstimate`], which
/// [`crate::dataflow::DataflowEstimator`] re-derives from the local IR when
/// serving a shared hit — so ResNet's structurally repeated basic blocks (and
/// their twins in other design points) share one cache entry despite their
/// distinct names.
const NAME_ATTRS: [&str; 3] = ["node_name", "task_name", "sym_name"];

/// The content key under which a node (or function) body's estimate may be
/// shared across compilations: the structural fingerprint of the subtree
/// rooted at `op` — ignoring the name attributes (`node_name`, `task_name`,
/// `sym_name`) — with every
/// external value folded in as the physical description of the buffer behind
/// it.
///
/// This captures *all* inputs of [`crate::latency::estimate_body`] except the
/// device (folded into the full cache key by [`estimate_key`]) and the
/// display name: loop structure, unroll / tile / pipeline annotations and
/// access patterns live inside the subtree, while buffer shapes, partition
/// factors, depths and placements are resolved through [`buffer_info`]
/// exactly like the estimator itself resolves them.
pub fn estimate_fingerprint(ctx: &Context, op: OpId) -> Fingerprint {
    let keep = |key: &str| !NAME_ATTRS.contains(&key);
    structural_fingerprint_filtered(ctx, op, keep, |hasher, value| {
        hasher.write_display(ctx.value_type(value));
        let info = buffer_info(ctx, value);
        hasher.write_i64(info.elements);
        hasher.write_u64(u64::from(info.bits));
        hasher.write_u64(info.partition_factors.len() as u64);
        for &factor in &info.partition_factors {
            hasher.write_i64(factor);
        }
        hasher.write_i64(info.depth);
        hasher.write_display(&format_args!("{:?}", info.kind));
        hasher.write_u64(info.shape.len() as u64);
        for &dim in &info.shape {
            hasher.write_i64(dim);
        }
    })
}

/// Content hash of the *entire* device description — every field, not just
/// the name — so device catalogs or sweeps that vary clock/bandwidth/latency
/// parameters under one name can never alias in the cache. Computed once per
/// estimator and combined with each node's fingerprint by [`estimate_key`].
pub fn device_fingerprint(device: &FpgaDevice) -> Fingerprint {
    let mut hasher = StableHasher::new();
    hasher.write_str(&device.name);
    hasher.write_i64(device.dsp);
    hasher.write_i64(device.bram_18k);
    hasher.write_i64(device.uram);
    hasher.write_i64(device.lut);
    hasher.write_i64(device.ff);
    hasher.write_u64(device.clock_mhz.to_bits());
    hasher.write_i64(device.axi_latency);
    hasher.write_u64(device.axi_bytes_per_cycle.to_bits());
    hasher.write_i64(device.axi_burst);
    hasher.finish()
}

/// The full cache key of one node's estimate: [`estimate_fingerprint`] of the
/// node combined with a precomputed [`device_fingerprint`]. A plain
/// `Fingerprint` again, so lookups are a single allocation-free map probe.
pub fn estimate_key(ctx: &Context, op: OpId, device: Fingerprint) -> Fingerprint {
    let node = estimate_fingerprint(ctx, op);
    let mut hasher = StableHasher::new();
    hasher.write_u64(node.hi);
    hasher.write_u64(node.lo);
    hasher.write_u64(device.hi);
    hasher.write_u64(device.lo);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::Resources;

    fn estimate(name: &str) -> NodeEstimate {
        NodeEstimate {
            name: name.to_string(),
            latency_cycles: 10,
            ii: 1,
            resources: Resources::zero(),
            macs: 5,
            external_bytes: 0,
            parallelism: 1,
        }
    }

    #[test]
    fn lookup_publish_round_trip_counts_traffic() {
        let cache = SharedEstimateCache::new();
        let key = Fingerprint { hi: 1, lo: 2 };
        let other = Fingerprint { hi: 1, lo: 3 };
        assert!(cache.lookup(key).is_none());
        cache.publish(key, estimate("n"));
        assert_eq!(cache.lookup(key).unwrap().name, "n");
        // A different combined key is a distinct entry.
        assert!(cache.lookup(other).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!(!cache.is_empty());
    }

    #[test]
    fn peek_probes_without_counting_traffic() {
        let cache = SharedEstimateCache::new();
        let key = Fingerprint { hi: 4, lo: 2 };
        assert!(cache.peek(key).is_none());
        cache.publish(key, estimate("probed"));
        assert_eq!(cache.peek(key).unwrap().name, "probed");
        // Neither the miss nor the hit moved the lookup counters.
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn first_publisher_wins() {
        let cache = SharedEstimateCache::new();
        let key = Fingerprint { hi: 7, lo: 7 };
        cache.publish(key, estimate("first"));
        cache.publish(key, estimate("second"));
        assert_eq!(cache.lookup(key).unwrap().name, "first");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_wedging_lookups() {
        hida_ir_core::fault::silence_expected_panics();
        let cache = std::sync::Arc::new(SharedEstimateCache::new());
        let key = Fingerprint { hi: 9, lo: 9 };
        cache.publish(key, estimate("survivor"));
        // Poison the entries mutex from a panicking worker.
        let poisoner = std::sync::Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.entries.lock().unwrap();
            panic!("injected fault: poison the cache lock");
        })
        .join();
        assert!(cache.entries.is_poisoned());
        // Lookups and publishes keep working after the poisoning panic.
        assert_eq!(cache.lookup(key).unwrap().name, "survivor");
        let key2 = Fingerprint { hi: 9, lo: 10 };
        cache.publish(key2, estimate("after"));
        assert_eq!(cache.lookup(key2).unwrap().name, "after");
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(key).is_some());
    }

    #[test]
    fn device_fingerprints_separate_same_named_configurations() {
        let stock = FpgaDevice::vu9p_slr();
        let overclocked = FpgaDevice {
            clock_mhz: 300.0,
            ..FpgaDevice::vu9p_slr()
        };
        // Same name, different parameters: the keys must differ, so a sweep
        // over device parameters can never be served a stale estimate.
        assert_eq!(stock.name, overclocked.name);
        assert_ne!(device_fingerprint(&stock), device_fingerprint(&overclocked));
        assert_ne!(
            device_fingerprint(&stock),
            device_fingerprint(&FpgaDevice::zu3eg())
        );
    }

    #[test]
    fn stats_accumulate_and_render() {
        let mut total = SharedCacheStats::default();
        total.accumulate(&SharedCacheStats {
            hits: 3,
            misses: 1,
            entries: 4,
        });
        total.accumulate(&SharedCacheStats {
            hits: 1,
            misses: 1,
            entries: 4,
        });
        assert_eq!(total.hits, 4);
        assert_eq!(total.misses, 2);
        assert_eq!(total.entries, 4);
        let rendered = total.to_string();
        assert!(rendered.contains("4 hit"), "{rendered}");
        assert!(rendered.contains("67% hit rate"), "{rendered}");
        assert_eq!(SharedCacheStats::default().hit_rate(), 0.0);
    }
}
