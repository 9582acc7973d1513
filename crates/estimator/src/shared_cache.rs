//! The handle the estimators of a batch share, and the estimate key.
//!
//! A design-space sweep compiles dozens of variants of one workload, and most
//! node bodies put the same numbers into the node model across design points
//! — only the nodes whose tiling or parallel factors actually changed differ.
//! The per-compilation memoization inside [`DataflowEstimator`] cannot see
//! that: it is keyed by context identity and mutation generation, both of
//! which are fresh for every design point.
//!
//! Across compilations, an estimate is keyed ([`inputs_key`]) by the
//! [`NodeModelInputs`] a body was [gathered](crate::latency::gather) into and
//! the [full device description](device_fingerprint) — every field, not just
//! the device name, so sweeping device parameters (clock, bandwidth) under
//! one name can never alias. [`crate::latency::evaluate`] takes those two
//! values, the name it passes through and no [`Context`], so the key is the
//! model's whole preimage by signature: an entry served under it is
//! bit-for-bit the estimate a recomputation would produce, and two bodies
//! share an entry exactly when the model cannot tell them apart, whatever IR
//! their inputs were read from.
//!
//! The one place such entries live is a persistent [`EstimateStore`], so
//! *separate processes* (consecutive CLI runs, bench invocations, CI steps)
//! pointed at the same directory share estimate work. A
//! [`SharedEstimateCache`] is the handle on it that estimators attach to
//! ([`DataflowEstimator::with_shared_cache`]); without a store it holds
//! nothing and the estimator keys nothing — keying and looking up costs more
//! than the evaluation a hit would save. Neither direction touches the file
//! system per estimate: whoever drives a batch of compilations calls
//! [`SharedEstimateCache::flush`] once when the batch ends, which publishes
//! what the batch computed as one segment file, and reads
//! [`SharedEstimateCache::persistent_stats`] only after that, so `writes`
//! counts what is on disk.
//!
//! [`DataflowEstimator`]: crate::dataflow::DataflowEstimator
//! [`DataflowEstimator::with_shared_cache`]: crate::dataflow::DataflowEstimator::with_shared_cache

use crate::device::FpgaDevice;
use crate::latency::{gather, NodeModelInputs};
use crate::store::{EstimateStore, PersistentStoreStats};
use hida_dialects::analysis::profile_body;
use hida_ir_core::fingerprint::{Fingerprint, StableHasher};
use hida_ir_core::{Context, OpId};
use std::fmt;

/// Counters of the in-memory estimate tier, which is gone: nothing fills
/// them. Kept only because `benchmark/src/run.rs:446` and `:475` (frozen)
/// read them through `hida::SweepOutcome::shared_cache`, which is always
/// `None`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    pub hits: u64,
    pub misses: u64,
}

/// What the estimators of a batch share: an optional persistent
/// [`EstimateStore`], and nothing else. Attached without a store, it changes
/// nothing an estimator does.
#[derive(Default)]
pub struct SharedEstimateCache {
    store: Option<EstimateStore>,
}

impl SharedEstimateCache {
    /// A handle on no store: estimators attached to it key nothing and
    /// evaluate every node, as a lone compile does.
    pub fn new() -> Self {
        SharedEstimateCache::default()
    }

    /// A handle on a persistent [`EstimateStore`]: estimators look each node
    /// up in it under its key and save what they had to evaluate, so
    /// separate processes sharing the store's directory share estimate work.
    pub fn with_store(store: EstimateStore) -> Self {
        SharedEstimateCache { store: Some(store) }
    }

    /// The store estimators read and write through, if any.
    pub(crate) fn store(&self) -> Option<&EstimateStore> {
        self.store.as_ref()
    }

    /// Publishes every estimate saved on the persistent store since the last
    /// flush as one segment (see [`EstimateStore::flush`]); a no-op without a
    /// store. Batch drivers call this when the batch ends, before they read
    /// [`persistent_stats`](Self::persistent_stats).
    pub fn flush(&self) {
        if let Some(store) = &self.store {
            store.flush();
        }
    }

    /// Traffic/maintenance counters of the persistent store (`None` without
    /// one).
    pub fn persistent_stats(&self) -> Option<PersistentStoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }
}

impl fmt::Debug for SharedEstimateCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedEstimateCache")
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
/// [`evaluate`](crate::latency::evaluate), which is handed nothing else
/// but the name it passes through.
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
}
