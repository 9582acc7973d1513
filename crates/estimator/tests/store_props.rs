//! Property tests for the persistent estimate store: exact round-trips of the
//! on-disk entry encoding over arbitrary estimates, rejection (never a panic,
//! never a wrong value) of version-mismatched and truncated entries, handles
//! sharing a directory leaving the union of their batches, and the size
//! budget staying enforced across arbitrary batch sequences.

use hida_estimator::store::{decode_entry, encode_entry, EstimateStore, STORE_VERSION};
use hida_estimator::{NodeEstimate, Resources};
use hida_ir_core::Fingerprint;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// Name fragments covering the hostile cases a length-prefixed string must
/// survive: empty, multi-byte UTF-8, separators that look like path syntax,
/// and bytes that collide with the entry magic.
const NAME_PARTS: [&str; 6] = ["conv3x3", "", "τ-节点", "a+b/c", " ", "HIDAESTM"];

fn temp_store_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hida_store_props_{tag}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds an estimate from sampled raw material: a name concatenated from
/// `NAME_PARTS` indices and the nine numeric fields in declaration order.
fn estimate_from(parts: &[usize], words: &[i64]) -> NodeEstimate {
    NodeEstimate {
        name: parts
            .iter()
            .map(|&i| NAME_PARTS[i])
            .collect::<String>()
            .into(),
        latency_cycles: words[0],
        ii: words[1],
        resources: Resources::new(words[2], words[3], words[4], words[5]),
        macs: words[6],
        external_bytes: words[7],
        parallelism: words[8],
    }
}

const WORD_RANGE: std::ops::Range<i64> = -(1_i64 << 62)..(1_i64 << 62);

proptest! {
    /// Encoding an entry and decoding it under the same key reproduces the
    /// estimate exactly — every numeric field bit-for-bit, the name
    /// byte-for-byte. This is what makes a store hit indistinguishable from
    /// recomputation, and thereby what makes warm-process QoR byte-identical.
    #[test]
    fn entry_encoding_round_trips_exactly(
        key in (0_u64..u64::MAX, 0_u64..u64::MAX),
        parts in prop::collection::vec(0_usize..NAME_PARTS.len(), 0..5),
        words in prop::collection::vec(WORD_RANGE, 9..10),
    ) {
        let key = Fingerprint { hi: key.0, lo: key.1 };
        let estimate = estimate_from(&parts, &words);
        let bytes = encode_entry(key, &estimate);
        prop_assert_eq!(decode_entry(&bytes, key), Some(estimate));
    }

    /// An entry written by any other format version is rejected, whatever the
    /// version delta: stale estimates from an older (or newer) binary must be
    /// misses, never be decoded under today's semantics.
    #[test]
    fn version_mismatch_is_rejected(
        key in (0_u64..u64::MAX, 0_u64..u64::MAX),
        parts in prop::collection::vec(0_usize..NAME_PARTS.len(), 0..4),
        words in prop::collection::vec(WORD_RANGE, 9..10),
        other_version in 0_u32..1024,
    ) {
        prop_assume!(other_version != STORE_VERSION);
        let key = Fingerprint { hi: key.0, lo: key.1 };
        let mut bytes = encode_entry(key, &estimate_from(&parts, &words));
        // The version field sits right after the 8-byte magic.
        bytes[8..12].copy_from_slice(&other_version.to_le_bytes());
        prop_assert_eq!(decode_entry(&bytes, key), None);
    }

    /// Every strict prefix of a valid entry fails to decode: a torn write of
    /// any length is detected, never misread as a shorter valid entry.
    #[test]
    fn any_truncation_is_rejected(
        key in (0_u64..u64::MAX, 0_u64..u64::MAX),
        parts in prop::collection::vec(0_usize..NAME_PARTS.len(), 0..4),
        words in prop::collection::vec(WORD_RANGE, 9..10),
        cut in 0_u64..u64::MAX,
    ) {
        let key = Fingerprint { hi: key.0, lo: key.1 };
        let bytes = encode_entry(key, &estimate_from(&parts, &words));
        let len = (cut % bytes.len() as u64) as usize;
        prop_assert_eq!(decode_entry(&bytes[..len], key), None);
    }

    /// A version-mismatched segment on disk degrades to a counted miss and is
    /// self-healed: the segment is deleted at `open`, the fresh entry is
    /// re-published and loads in the next handle.
    #[test]
    fn stale_version_on_disk_degrades_to_miss_then_heals(
        raw_key in (0_u64..u64::MAX, 0_u64..u64::MAX),
        words in prop::collection::vec(WORD_RANGE, 9..10),
    ) {
        let key = Fingerprint { hi: raw_key.0, lo: raw_key.1 };
        let estimate = estimate_from(&[0], &words);
        let dir = temp_store_dir("version");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = encode_entry(key, &estimate);
        bytes[8..12].copy_from_slice(&(STORE_VERSION + 1).to_le_bytes());
        let stale = dir.join("stale.seg");
        std::fs::write(&stale, &bytes).unwrap();

        let store = EstimateStore::open(&dir).expect("open store");
        prop_assert_eq!(store.load(key), None);
        let stats = store.stats();
        prop_assert_eq!((stats.corrupt, stats.misses), (1, 1));
        prop_assert!(!stale.exists());
        store.save(key, &estimate);
        store.flush();
        let healed = EstimateStore::open(&dir).expect("open store");
        prop_assert_eq!(healed.stats().corrupt, 0);
        prop_assert_eq!(healed.load(key), Some(estimate));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two handles flushing into one directory leave the union of their
    /// batches, whatever the overlap; the same batch, saved in any order (as
    /// the workers of two pooled sweeps would), collapses onto the file its
    /// twin already published.
    #[test]
    fn handles_sharing_a_directory_leave_the_union_of_their_batches(
        left in prop::collection::vec(0_u64..12, 0..10),
        right in prop::collection::vec(0_u64..12, 0..10),
        words in prop::collection::vec(WORD_RANGE, 9..10),
    ) {
        let dir = temp_store_dir("union");
        let estimate_of = |lo: u64| estimate_from(&[(lo % 6) as usize], &words);
        let save_all = |store: &EstimateStore, keys: &[u64]| {
            for &lo in keys {
                store.save(Fingerprint { hi: 0xab, lo }, &estimate_of(lo));
            }
        };
        let a = EstimateStore::open(&dir).expect("open store");
        let b = EstimateStore::open(&dir).expect("open store");
        let twin = EstimateStore::open(&dir).expect("open store");
        save_all(&a, &left);
        save_all(&b, &right);
        let reversed: Vec<u64> = left.iter().rev().copied().collect();
        save_all(&twin, &reversed);
        a.flush();
        let after_a = a.disk_bytes();
        twin.flush();
        prop_assert_eq!(twin.disk_bytes(), after_a, "an identical batch adds no file");
        b.flush();

        let merged = EstimateStore::open(&dir).expect("open store");
        for lo in 0..12 {
            let expected = (left.contains(&lo) || right.contains(&lo)).then(|| estimate_of(lo));
            prop_assert_eq!(merged.load(Fingerprint { hi: 0xab, lo }), expected);
        }
        prop_assert_eq!(merged.stats().corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// After every flush under a size budget the directory fits the budget —
    /// whatever the batch sizes, a single batch larger than the whole budget
    /// included — each eviction accounts for exactly one published segment,
    /// and every surviving entry still decodes to the estimate it was saved
    /// with.
    #[test]
    fn eviction_keeps_the_store_under_budget(
        batches in prop::collection::vec(1_usize..10, 1..10),
        limit_entries in 1_u64..8,
        words in prop::collection::vec(WORD_RANGE, 9..10),
    ) {
        let dir = temp_store_dir("budget");
        let base = estimate_from(&[0], &words);
        let entry_bytes = encode_entry(Fingerprint { hi: 1, lo: 1 }, &base).len() as u64;
        let limit = limit_entries * entry_bytes;
        let store = EstimateStore::open(&dir)
            .expect("open store")
            .with_limit_bytes(limit);
        let mut saved = 0_u64;
        for (round, &batch) in batches.iter().enumerate() {
            // Same-length estimates: keys differ, payload size does not, so
            // `limit` is an exact entry-count budget.
            for _ in 0..batch {
                store.save(Fingerprint { hi: 0x10, lo: saved }, &base);
                saved += 1;
            }
            store.flush();
            prop_assert!(
                store.disk_bytes() <= limit,
                "store exceeds budget after flush {}: {} > {}",
                round,
                store.disk_bytes(),
                limit
            );
            // Eviction is oldest first: a batch that fits the budget is
            // never the one that goes, however coarse the file clock.
            if batch as u64 * entry_bytes <= limit {
                let reopened = EstimateStore::open(&dir).expect("open store");
                prop_assert!(reopened.load(Fingerprint { hi: 0x10, lo: saved - 1 }).is_some());
            }
        }
        let stats = store.stats();
        prop_assert_eq!(stats.writes, saved);
        let survivors = EstimateStore::open(&dir).expect("open store");
        let on_disk = std::fs::read_dir(&dir).unwrap().count() as u64;
        prop_assert_eq!(stats.evictions, batches.len() as u64 - on_disk);
        let mut served = 0;
        for lo in 0..saved {
            if let Some(estimate) = survivors.load(Fingerprint { hi: 0x10, lo }) {
                prop_assert_eq!(&estimate, &base);
                served += 1;
            }
        }
        prop_assert_eq!(served, survivors.disk_entries());
        prop_assert_eq!(survivors.stats().corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
