//! Content-addressed estimate cache shared *across* compilations.
//!
//! A design-space sweep compiles dozens of variants of one workload, and most
//! node bodies put the same numbers into the node model across design points
//! — only the nodes whose tiling or parallel factors actually changed differ.
//! The per-compilation memoization inside [`DataflowEstimator`] cannot see
//! that: it is keyed by context identity and mutation generation, both of
//! which are fresh for every design point.
//!
//! [`SharedEstimateCache`] closes the gap. It is a `Sync` map from a
//! [`Fingerprint`] to [`NodeEstimate`], where the key ([`inputs_key`]) hashes
//! the [`NodeModelInputs`] a body was [gathered](crate::latency::gather) into
//! with the [full device description](device_fingerprint) — every field, not
//! just the device name, so sweeping device parameters (clock, bandwidth)
//! under one name can never alias. [`crate::latency::evaluate`] takes those
//! two values and no [`Context`], so the key is the model's whole preimage by
//! signature: a cache hit returns bit-for-bit the estimate a recomputation
//! would produce — sharing is an invisible optimization, never a QoR change —
//! and two bodies share an entry exactly when the model cannot tell them
//! apart, whatever IR their inputs were read from.
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
use crate::latency::{gather, NodeEstimate, NodeModelInputs};
use crate::store::{EstimateStore, PersistentStoreStats};
use hida_dialects::analysis::profile_body;
use hida_ir_core::fingerprint::{Fingerprint, StableHasher};
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
    /// Entries currently stored: distinct node model inputs per device.
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

/// A `Sync` node-estimate cache keyed by the combined inputs-plus-device
/// [`Fingerprint`] (see [`inputs_key`]), designed to be shared (behind an
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

    /// Number of cached inputs-per-device entries.
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

/// Content hash of the *entire* device description — every field, not just
/// the name — so device catalogs or sweeps that vary clock/bandwidth/latency
/// parameters under one name can never alias in the cache. Computed once per
/// estimator and folded into each node's key by [`inputs_key`].
pub fn device_fingerprint(device: &FpgaDevice) -> Fingerprint {
    // Destructured without `..`, like the inputs in `inputs_key`.
    let FpgaDevice {
        name,
        dsp,
        bram_18k,
        uram,
        lut,
        ff,
        clock_mhz,
        axi_latency,
        axi_bytes_per_cycle,
        axi_burst,
    } = device;
    let mut hasher = StableHasher::new();
    hasher.write_str(name);
    hasher.write_i64(*dsp);
    hasher.write_i64(*bram_18k);
    hasher.write_i64(*uram);
    hasher.write_i64(*lut);
    hasher.write_i64(*ff);
    hasher.write_u64(clock_mhz.to_bits());
    hasher.write_i64(*axi_latency);
    hasher.write_u64(axi_bytes_per_cycle.to_bits());
    hasher.write_i64(*axi_burst);
    hasher.finish()
}

/// The cache key of one node model evaluation: every field of `inputs`
/// folded with a precomputed [`device_fingerprint`] — the whole preimage of
/// [`evaluate`](crate::latency::evaluate), which is handed nothing else.
/// Seventeen words and the device's two; a plain `Fingerprint` again, so a
/// lookup is one allocation-free map probe.
pub fn inputs_key(inputs: &NodeModelInputs, device: Fingerprint) -> Fingerprint {
    // Destructured without `..`: a field added to the inputs and not hashed
    // here does not compile.
    let NodeModelInputs {
        total_unroll,
        pipelined,
        is_float,
        bits,
        trip_total,
        ii,
        external_bytes,
        has_external,
        min_tile,
        depth,
        addr_dsp,
        macs,
        muls_per_iter,
        adds_per_iter,
        divs_per_iter,
        mem_per_iter,
    } = *inputs;
    let mut hasher = StableHasher::new();
    hasher.write_i64(total_unroll);
    hasher.write_u64(u64::from(pipelined));
    hasher.write_u64(u64::from(is_float));
    hasher.write_u64(u64::from(bits));
    hasher.write_i64(trip_total);
    hasher.write_i64(ii);
    hasher.write_i64(external_bytes);
    hasher.write_u64(u64::from(has_external));
    hasher.write_u64(u64::from(min_tile.is_some()));
    hasher.write_i64(min_tile.unwrap_or(0));
    hasher.write_i64(depth);
    hasher.write_i64(addr_dsp);
    hasher.write_i64(macs);
    hasher.write_i64(muls_per_iter);
    hasher.write_i64(adds_per_iter);
    hasher.write_i64(divs_per_iter);
    hasher.write_i64(mem_per_iter);
    hasher.write_u64(device.hi);
    hasher.write_u64(device.lo);
    hasher.finish()
}

/// The key `op`'s body is estimated under: [`inputs_key`] of what
/// [`gather`] reads off it. Profiles the body afresh; an estimator keys the
/// inputs it gathered from its cached profile instead.
pub fn estimate_key(ctx: &Context, op: OpId, device: Fingerprint) -> Fingerprint {
    inputs_key(&gather(ctx, op, &profile_body(ctx, op)), device)
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
    fn every_field_of_the_inputs_and_of_the_device_moves_the_key() {
        let base = NodeModelInputs {
            total_unroll: 4,
            pipelined: false,
            is_float: false,
            bits: 8,
            trip_total: 100,
            ii: 1,
            external_bytes: 64,
            has_external: false,
            min_tile: Some(8),
            depth: 6,
            addr_dsp: 1,
            macs: 1000,
            muls_per_iter: 1,
            adds_per_iter: 2,
            divs_per_iter: 0,
            mem_per_iter: 3,
        };
        let one_field_off = [
            NodeModelInputs {
                total_unroll: 5,
                ..base
            },
            NodeModelInputs {
                pipelined: true,
                ..base
            },
            NodeModelInputs {
                is_float: true,
                ..base
            },
            NodeModelInputs { bits: 9, ..base },
            NodeModelInputs {
                trip_total: 101,
                ..base
            },
            NodeModelInputs { ii: 2, ..base },
            NodeModelInputs {
                external_bytes: 65,
                ..base
            },
            NodeModelInputs {
                has_external: true,
                ..base
            },
            NodeModelInputs {
                min_tile: Some(9),
                ..base
            },
            NodeModelInputs {
                min_tile: None,
                ..base
            },
            NodeModelInputs { depth: 7, ..base },
            NodeModelInputs {
                addr_dsp: 2,
                ..base
            },
            NodeModelInputs { macs: 1001, ..base },
            NodeModelInputs {
                muls_per_iter: 2,
                ..base
            },
            NodeModelInputs {
                adds_per_iter: 3,
                ..base
            },
            NodeModelInputs {
                divs_per_iter: 1,
                ..base
            },
            NodeModelInputs {
                mem_per_iter: 4,
                ..base
            },
        ];
        let device = device_fingerprint(&FpgaDevice::zu3eg());
        let mut keys = std::collections::BTreeSet::from([inputs_key(&base, device)]);
        for inputs in &one_field_off {
            assert!(keys.insert(inputs_key(inputs, device)), "{inputs:?}");
        }
        // Tiled by nothing is not tiled by zero.
        let untiled = NodeModelInputs {
            min_tile: None,
            ..base
        };
        let zero_tile = NodeModelInputs {
            min_tile: Some(0),
            ..base
        };
        assert_ne!(inputs_key(&untiled, device), inputs_key(&zero_tile, device));

        let stock = FpgaDevice::zu3eg();
        let one_parameter_off = [
            FpgaDevice {
                name: "zu3eg-b".into(),
                ..stock.clone()
            },
            FpgaDevice {
                dsp: stock.dsp + 1,
                ..stock.clone()
            },
            FpgaDevice {
                bram_18k: stock.bram_18k + 1,
                ..stock.clone()
            },
            FpgaDevice {
                uram: stock.uram + 1,
                ..stock.clone()
            },
            FpgaDevice {
                lut: stock.lut + 1,
                ..stock.clone()
            },
            FpgaDevice {
                ff: stock.ff + 1,
                ..stock.clone()
            },
            FpgaDevice {
                clock_mhz: stock.clock_mhz + 1.0,
                ..stock.clone()
            },
            FpgaDevice {
                axi_latency: stock.axi_latency + 1,
                ..stock.clone()
            },
            FpgaDevice {
                axi_bytes_per_cycle: stock.axi_bytes_per_cycle * 2.0,
                ..stock.clone()
            },
            FpgaDevice {
                axi_burst: stock.axi_burst + 1,
                ..stock.clone()
            },
        ];
        for device in &one_parameter_off {
            let key = inputs_key(&base, device_fingerprint(device));
            assert!(keys.insert(key), "{device:?}");
        }
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
