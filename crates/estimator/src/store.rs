//! Persistent, content-addressed compilation store for node estimates.
//!
//! The one cache of per-node QoR estimates that outlives a compilation.
//! Consecutive CLI invocations, bench runs and CI steps compile the same
//! TwoMm/ResNet nodes over and over — with an [`EstimateStore`] attached
//! (through [`SharedEstimateCache::with_store`]), the second process starts
//! warm instead of recomputing everything.
//!
//! [`SharedEstimateCache::with_store`]: crate::shared_cache::SharedEstimateCache::with_store
//!
//! # Layout
//!
//! The store is a flat directory of *segments*, one per flushed batch:
//!
//! ```text
//! <dir>/
//!   5f0c...9a21.seg              # entries of one batch, back to back
//!   c47e...03bd.seg              # named by the 128-bit hash of its bytes
//! ```
//!
//! Entries are keyed by a combined 128-bit fingerprint
//! ([`inputs_key`](crate::shared_cache::inputs_key)): the node
//! model's inputs folded with the full device description — so an entry
//! written by one process is valid in any other process whose node puts the
//! same numbers into the model for the same device, and for no other
//! combination. Entries carry no display name: the estimator serves each
//! under the name of the node that asked. A segment holds its batch in key order and its *name*
//! is the [`StableHasher`] digest of its content: publishing the same batch
//! twice (two processes running the same cold sweep, at any `--jobs`) lands
//! on one file, and no process id, counter or clock can make two different
//! batches collide.
//!
//! # Entry format
//!
//! Every entry is self-describing and self-checking, so a segment needs no
//! header or index of its own — it is decoded front to back:
//!
//! ```text
//! magic "HIDAESTM" (8 bytes)
//! format version   (u32 LE)     # bumping STORE_VERSION invalidates old entries
//! key.hi, key.lo   (u64 LE x2)
//! payload length   (u32 LE)
//! payload          (encoded NodeEstimate, little-endian fields)
//! checksum         (u64 LE, StableHasher over the payload)
//! ```
//!
//! # What each call costs
//!
//! * [`EstimateStore::open`] — one `read_dir` and one whole-file read per
//!   segment; every entry is decoded into an in-memory index (first
//!   publisher wins, segments in path order, so the index is deterministic).
//! * [`EstimateStore::load`] — a lookup in that index. No system call.
//! * [`EstimateStore::save`] — queues the entry for the next flush. No
//!   system call, and no `load` sees it yet.
//! * [`EstimateStore::flush`] — sorts the pending entries by key, drops the
//!   repeats of a key (equal values: an estimate is a pure function of its
//!   key), and publishes them as **one** segment: tempfile
//!   create/write/close and `rename`. Once the segment is published they
//!   join the index. The batch drivers call it once, when the batch ends;
//!   `Drop` is the backstop.
//!
//! A handle serves what the directory held at `open` plus what the handle
//! itself has flushed since; segments another handle publishes later become
//! visible at the next `open`. An entry is visible at flush, not at save, so
//! what a batch's lookups find does not depend on how its workers
//! interleave: in a cold batch every lookup misses, at any `--jobs`, and the
//! flush writes each distinct key once.
//!
//! # Guarantees
//!
//! * **Atomicity** — a segment is written to a temporary file in the store
//!   root and published with an atomic `rename`, so a concurrent reader (or a
//!   crash mid-write) never observes a torn segment under a `.seg` name.
//! * **Corruption tolerance** — any anomaly met at `open` (bad magic, version
//!   mismatch, checksum mismatch, undecodable payload, trailing garbage, an
//!   empty or unreadable file) is a *miss*, never an error, a panic or a
//!   wrong value: the segment is counted `corrupt` and deleted best-effort,
//!   the whole entries in front of the damage are served and queued for this
//!   handle's next `flush`, and what the damage took is recomputed and saved
//!   by the batch — so that flush puts all of it back in one clean segment.
//! * **Bounded size** — with [`EstimateStore::with_limit_bytes`], every
//!   `flush` that publishes evicts whole segments, oldest-published first
//!   (the one just published last), until the directory fits the budget
//!   again. Reads never write: a warm run leaves the directory untouched.

use crate::latency::NodeEstimate;
use crate::resource::Resources;
use hida_ir_core::fingerprint::{Fingerprint, StableHasher};
use hida_ir_core::{lock_recover, Symbol};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

/// Bump to invalidate every previously written entry (e.g. when the
/// [`NodeEstimate`] encoding, the key's preimage or the estimator's cost
/// model changes). A segment of another version is a corrupt one: counted,
/// removed, served as nothing. Version 1 keyed a structural fingerprint of
/// the node's IR; version 2 keys the node model's inputs.
pub const STORE_VERSION: u32 = 2;

/// Magic identifying a store entry.
const MAGIC: [u8; 8] = *b"HIDAESTM";

/// Fixed entry size before the variable-length payload: magic + version +
/// key + payload length.
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 4;

/// Segment file extension.
const SEGMENT_EXT: &str = "seg";

/// Traffic and maintenance counters of one [`EstimateStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistentStoreStats {
    /// Lookups served from the store's index.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries in the segments this handle published (tempfile + rename).
    pub writes: u64,
    /// Segments removed to stay under the size budget.
    pub evictions: u64,
    /// Segments rejected at `open` (not entirely whole valid entries); the
    /// entries they lost are ordinary misses afterwards.
    pub corrupt: u64,
    /// Entries of segments whose publish failed (tempfile or rename),
    /// swallowed as non-fatal degradations: the estimates are simply not
    /// persisted.
    pub write_errors: u64,
    /// Segments `open` could not read for a reason other than having been
    /// evicted meanwhile (EIO, permission).
    pub read_errors: u64,
}

impl fmt::Display for PersistentStoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hit / {} miss, {} written, {} evicted, {} corrupt",
            self.hits, self.misses, self.writes, self.evictions, self.corrupt
        )?;
        if self.write_errors > 0 || self.read_errors > 0 {
            write!(
                f,
                ", {} write errors, {} read errors",
                self.write_errors, self.read_errors
            )?;
        }
        Ok(())
    }
}

/// A disk-backed, content-addressed store of serialized [`NodeEstimate`]s,
/// keyed by the combined node-plus-device fingerprint. Safe to share between
/// concurrent processes pointed at the same directory: segments are published
/// by atomic rename and every entry is re-validated when `open` reads it.
/// A handle serves what the directory held when it was opened plus what it
/// has flushed itself; another handle's publishes are seen by the next
/// `open`.
#[derive(Debug)]
pub struct EstimateStore {
    dir: PathBuf,
    limit_bytes: Option<u64>,
    state: Mutex<State>,
}

/// What a handle serves and what it still owes the directory.
#[derive(Debug, Default)]
struct State {
    /// Every entry read at `open` plus every one flushed since.
    index: HashMap<Fingerprint, NodeEstimate>,
    /// The entries the next `flush` publishes: everything saved since the
    /// last one, plus what `open` salvaged from corrupt segments.
    pending: Vec<(Fingerprint, NodeEstimate)>,
    stats: PersistentStoreStats,
}

impl EstimateStore {
    /// Opens (creating if necessary) the store rooted at `dir` with no size
    /// budget and reads every segment in it into the handle's index.
    ///
    /// # Errors
    /// Propagates the failure to create the root directory; a store that
    /// cannot even be opened is a configuration error, unlike the
    /// per-segment anomalies which all degrade to misses.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<EstimateStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut state = State::default();
        for path in segment_paths(&dir) {
            let bytes = match fs::read(&path) {
                Ok(bytes) => bytes,
                // Evicted by another process since the directory was listed.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(_) => {
                    state.stats.read_errors += 1;
                    continue;
                }
            };
            let mut entries = Entries(&bytes);
            for (key, estimate) in entries.by_ref() {
                state.index.entry(key).or_insert(estimate);
            }
            // Anything but whole valid entries end to end (an empty file is
            // what a crash between rename and write-back leaves): count the
            // segment, delete it, and queue its valid prefix so the next
            // flush puts those entries back in a clean segment (self-healing).
            if bytes.is_empty() || !entries.0.is_empty() {
                state.stats.corrupt += 1;
                let _ = fs::remove_file(&path);
                state.pending.extend(Entries(&bytes));
            }
        }
        Ok(EstimateStore {
            dir,
            limit_bytes: None,
            state: Mutex::new(state),
        })
    }

    /// Sets the size budget in bytes (builder style). A `flush` that pushes
    /// the directory past the budget evicts oldest-published segments until
    /// it fits again.
    pub fn with_limit_bytes(mut self, limit: u64) -> Self {
        self.limit_bytes = Some(limit);
        self
    }

    /// The estimate stored under `key`: an index lookup, no file system
    /// access. This method never fails.
    pub fn load(&self, key: Fingerprint) -> Option<NodeEstimate> {
        let state = &mut *lock_recover(&self.state);
        let found = state.index.get(&key).copied();
        match found {
            Some(_) => state.stats.hits += 1,
            None => state.stats.misses += 1,
        }
        found
    }

    /// Queues `estimate` under `key` for the next [`flush`](Self::flush),
    /// which makes it visible to [`load`](Self::load). A key the handle
    /// already serves is left untouched.
    pub fn save(&self, key: Fingerprint, estimate: &NodeEstimate) {
        let state = &mut *lock_recover(&self.state);
        if !state.index.contains_key(&key) {
            state.pending.push((key, *estimate));
        }
    }

    /// Publishes everything saved since the last flush as one segment, in
    /// key order and each key once (the same batch is the same bytes whatever
    /// order the workers saved it in, and however often), with an atomic
    /// tempfile + rename, then serves the batch and enforces the size budget.
    /// IO failures are swallowed and counted — the store is an optimization,
    /// never a correctness dependency. Nothing pending, nothing done.
    pub fn flush(&self) {
        // Held to the end: a handle publishes and evicts one batch at a time.
        let mut state = lock_recover(&self.state);
        if state.pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut state.pending);
        pending.sort_by_key(|(key, _)| *key);
        pending.dedup_by_key(|(key, _)| *key);
        let entries = pending.len() as u64;
        let bytes: Vec<u8> = pending
            .iter()
            .flat_map(|(key, estimate)| encode_entry(*key, estimate))
            .collect();
        // A failed publish (ENOSPC, permission, read-only filesystem) is a
        // counted, non-fatal degradation, and is not retried: the batch is
        // dropped, and its keys miss again.
        let Ok(published) = self.publish(&bytes) else {
            state.stats.write_errors += entries;
            return;
        };
        state.stats.writes += entries;
        for (key, estimate) in pending {
            state.index.entry(key).or_insert(estimate);
        }
        if let Some(limit) = self.limit_bytes {
            state.stats.evictions += self.enforce_budget(limit, &published);
        }
    }

    /// Lifetime counters of this store handle.
    pub fn stats(&self) -> PersistentStoreStats {
        lock_recover(&self.state).stats
    }

    /// Exact on-disk size of every segment currently in the store, in bytes.
    /// Flushes first, so it covers what this handle saved.
    pub fn disk_bytes(&self) -> u64 {
        self.flush();
        self.segment_sizes().iter().map(|s| s.2).sum()
    }

    /// Number of whole valid entries currently on disk (flushes, then reads
    /// every segment).
    pub fn disk_entries(&self) -> usize {
        self.flush();
        segment_paths(&self.dir)
            .iter()
            .filter_map(|path| fs::read(path).ok())
            .map(|bytes| Entries(&bytes).count())
            .sum()
    }

    /// Writes `bytes` as the segment named by their hash; returns its path.
    fn publish(&self, bytes: &[u8]) -> io::Result<PathBuf> {
        let mut hasher = StableHasher::new();
        hasher.write_bytes(bytes);
        let path = self.dir.join(format!("{}.{SEGMENT_EXT}", hasher.finish()));
        // The temporary lives in the store root: same filesystem as the
        // segment, so the rename is atomic, and the name is unique per
        // (process, write) so concurrent writers never collide.
        static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, bytes)
            .and_then(|()| fs::rename(&tmp, &path))
            .inspect_err(|_| {
                let _ = fs::remove_file(&tmp);
            })?;
        Ok(path)
    }

    /// Removes oldest-published segments until the store fits `limit` and
    /// returns how many; `newest`, the one just published, goes last whatever
    /// the clock's granularity says. Concurrent processes may race individual
    /// deletions; every outcome of that race still leaves the store under
    /// budget, and a deleted segment is simply future misses.
    fn enforce_budget(&self, limit: u64, newest: &Path) -> u64 {
        let mut segments = self.segment_sizes();
        // Oldest first; paths tie-break so the order is total.
        segments.sort_by(|a, b| (a.1 == newest, a).cmp(&(b.1 == newest, b)));
        let mut total: u64 = segments.iter().map(|s| s.2).sum();
        let mut evicted = 0;
        for (_, path, bytes) in segments {
            if total <= limit {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                evicted += 1;
                total = total.saturating_sub(bytes);
            }
        }
        evicted
    }

    /// Publication time, path and size of every segment file.
    fn segment_sizes(&self) -> Vec<(SystemTime, PathBuf, u64)> {
        segment_paths(&self.dir)
            .into_iter()
            .filter_map(|path| {
                let meta = fs::metadata(&path).ok().filter(|m| m.is_file())?;
                let published = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                Some((published, path, meta.len()))
            })
            .collect()
    }
}

/// Every `*.seg` path in `dir`, in path order (stale temporaries, entry trees
/// of older builds and foreign files are ignored).
fn segment_paths(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some(SEGMENT_EXT))
        .collect();
    paths.sort();
    paths
}

impl Drop for EstimateStore {
    /// The backstop for callers that never reach a batch driver's flush.
    fn drop(&mut self) {
        self.flush();
    }
}

/// The whole valid entries at the front of a segment's bytes, in order;
/// `.0` is what has not been decoded (yet, or at all).
struct Entries<'a>(&'a [u8]);

impl Iterator for Entries<'_> {
    type Item = (Fingerprint, NodeEstimate);

    fn next(&mut self) -> Option<Self::Item> {
        let (key, estimate, rest) = decode_prefix(self.0)?;
        self.0 = rest;
        Some((key, estimate))
    }
}

/// Encodes a complete entry for `estimate` under `key`: header, payload
/// and checksum (see the module docs for the layout).
pub fn encode_entry(key: Fingerprint, estimate: &NodeEstimate) -> Vec<u8> {
    let payload = encode_estimate(estimate);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.extend_from_slice(&key.hi.to_le_bytes());
    out.extend_from_slice(&key.lo.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out
}

/// Decodes one entry, validating magic, version, key, length and checksum.
/// Any deviation returns `None` — a corrupt entry must read as a miss, never
/// as an error.
pub fn decode_entry(bytes: &[u8], key: Fingerprint) -> Option<NodeEstimate> {
    let (found, estimate, rest) = decode_prefix(bytes)?;
    // A foreign key, or trailing bytes this version never wrote.
    (found == key && rest.is_empty()).then_some(estimate)
}

/// Decodes the entry at the front of `bytes`, returning its key, its estimate
/// and the bytes that follow it; `None` unless a whole valid entry is there.
fn decode_prefix(bytes: &[u8]) -> Option<(Fingerprint, NodeEstimate, &[u8])> {
    if bytes.len() < HEADER_LEN + 8 || bytes[..8] != MAGIC {
        return None;
    }
    let mut r = Reader::new(&bytes[8..]);
    if r.u32()? != STORE_VERSION {
        return None;
    }
    let key = Fingerprint {
        hi: r.u64()?,
        lo: r.u64()?,
    };
    let payload_len = r.u32()? as usize;
    let payload = r.bytes(payload_len)?;
    let stored_checksum = u64::from_le_bytes(r.bytes(8)?.try_into().ok()?);
    if checksum(payload) != stored_checksum {
        return None; // Bit rot.
    }
    Some((key, decode_estimate(payload)?, r.bytes))
}

/// Checksum of an entry payload: both lanes of the workspace's stable hasher
/// folded into one word.
fn checksum(payload: &[u8]) -> u64 {
    let mut hasher = StableHasher::new();
    hasher.write_bytes(payload);
    let digest = hasher.finish();
    digest.hi ^ digest.lo.rotate_left(32)
}

/// Encodes a [`NodeEstimate`] as the entry payload. Every numeric field is a
/// fixed-width little-endian integer, so decoding reproduces the estimate
/// bit for bit — the property the cross-process QoR-identity CI gate relies
/// on.
pub fn encode_estimate(estimate: &NodeEstimate) -> Vec<u8> {
    let name = estimate.name.as_bytes();
    let mut out = Vec::with_capacity(name.len() + 11 * 8);
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name);
    for word in [
        estimate.latency_cycles,
        estimate.ii,
        estimate.resources.dsp,
        estimate.resources.bram_18k,
        estimate.resources.lut,
        estimate.resources.ff,
        estimate.macs,
        estimate.external_bytes,
        estimate.parallelism,
    ] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out
}

/// Decodes an entry payload back into a [`NodeEstimate`]; `None` on any
/// structural problem (short buffer, trailing garbage, invalid UTF-8 name).
pub fn decode_estimate(payload: &[u8]) -> Option<NodeEstimate> {
    let mut r = Reader::new(payload);
    let name_len = r.u32()? as usize;
    let name = Symbol::intern(std::str::from_utf8(r.bytes(name_len)?).ok()?);
    let mut word = || r.i64();
    let estimate = NodeEstimate {
        name,
        latency_cycles: word()?,
        ii: word()?,
        resources: Resources {
            dsp: word()?,
            bram_18k: word()?,
            lut: word()?,
            ff: word()?,
        },
        macs: word()?,
        external_bytes: word()?,
        parallelism: word()?,
    };
    if !r.is_empty() {
        return None; // Trailing bytes: not something this version wrote.
    }
    Some(estimate)
}

/// Bounds-checked little-endian cursor over an entry's bytes.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.bytes.len() < n {
            return None;
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Some(head)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }

    fn i64(&mut self) -> Option<i64> {
        Some(self.u64()? as i64)
    }

    fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn sample_estimate() -> NodeEstimate {
        NodeEstimate {
            name: "conv1".into(),
            latency_cycles: 12_345,
            ii: 3,
            resources: Resources::new(8, 16, 1200, 900),
            macs: 65_536,
            external_bytes: 4_096,
            parallelism: 4,
        }
    }

    fn named(name: &str) -> NodeEstimate {
        NodeEstimate {
            name: name.into(),
            ..sample_estimate()
        }
    }

    fn temp_store_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hida_store_{tag}_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Names of everything in `dir`, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn save_load_round_trip_and_stats() {
        let dir = temp_store_dir("roundtrip");
        let store = EstimateStore::open(&dir).unwrap();
        let key = Fingerprint { hi: 0xabcd, lo: 42 };
        assert!(store.load(key).is_none());
        store.save(key, &sample_estimate());
        // Visible at flush, not at save: nothing is served, nothing on disk.
        assert!(store.load(key).is_none());
        assert!(listing(&dir).is_empty());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (0, 2, 0));

        // The flush that publishes the entry makes this handle serve it.
        // Another handle's view is per open: one opened before the flush
        // does not see the entry, one opened after it does — the
        // cross-process path (same code, different process in CI).
        let early = EstimateStore::open(&dir).unwrap();
        store.flush();
        assert_eq!(store.load(key).expect("flushed entry"), sample_estimate());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 2, 1));
        assert_eq!(stats.corrupt, 0);
        assert!(early.load(key).is_none());
        let late = EstimateStore::open(&dir).unwrap();
        assert_eq!(late.load(key).unwrap(), sample_estimate());

        // One batch, one file; flushing again with nothing pending adds none.
        store.flush();
        let names = listing(&dir);
        assert_eq!(names.len(), 1, "{names:?}");
        assert!(names[0].ends_with(".seg") && names[0].len() == 32 + 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_is_first_publisher_wins() {
        let dir = temp_store_dir("repeats");
        let store = EstimateStore::open(&dir).unwrap();
        let key = Fingerprint { hi: 1, lo: 1 };
        // Two workers of one batch that both missed the key save it twice.
        store.save(key, &sample_estimate());
        store.save(key, &named("second"));
        store.flush();
        assert_eq!(store.stats().writes, 1);
        assert_eq!(store.disk_entries(), 1);
        assert_eq!(store.load(key).unwrap(), sample_estimate());
        // A key the handle serves is not queued again.
        store.save(key, &named("third"));
        store.flush();
        assert_eq!(store.stats().writes, 1);
        assert_eq!(store.load(key).unwrap(), sample_estimate());

        // The same key in two segments with different payloads: the segment
        // first in path order wins, on every open.
        fs::write(dir.join("0.seg"), encode_entry(key, &named("zero"))).unwrap();
        fs::write(dir.join("z.seg"), encode_entry(key, &named("zed"))).unwrap();
        for _ in 0..3 {
            let reopened = EstimateStore::open(&dir).unwrap();
            assert_eq!(reopened.load(key).unwrap(), named("zero"));
            assert_eq!(reopened.stats().corrupt, 0);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_a_miss_and_self_heals() {
        let dir = temp_store_dir("corrupt");
        let key = Fingerprint { hi: 2, lo: 2 };
        let store = EstimateStore::open(&dir).unwrap();
        store.save(key, &sample_estimate());
        store.flush();
        let segment = dir.join(&listing(&dir)[0]);
        fs::write(&segment, b"not an entry").unwrap();

        let reopened = EstimateStore::open(&dir).unwrap();
        assert!(reopened.load(key).is_none());
        let stats = reopened.stats();
        assert_eq!((stats.corrupt, stats.misses, stats.read_errors), (1, 1, 0));
        // Self-healed: the bad file is gone, so the next open is a plain
        // cold one and a re-save publishes the entry again.
        assert!(!segment.exists());
        let healed = EstimateStore::open(&dir).unwrap();
        assert!(healed.load(key).is_none());
        assert_eq!(healed.stats().corrupt, 0);
        healed.save(key, &sample_estimate());
        drop(healed); // `Drop` is the flush of last resort.
        let warm = EstimateStore::open(&dir).unwrap();
        assert_eq!(warm.load(key).unwrap(), sample_estimate());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cut_segment_keeps_exactly_the_entries_before_the_cut() {
        let dir = temp_store_dir("cut");
        let entries: Vec<(Fingerprint, NodeEstimate)> = ["a", "", "a longer node name"]
            .iter()
            .enumerate()
            .map(|(i, name)| {
                (
                    Fingerprint {
                        hi: 4,
                        lo: i as u64,
                    },
                    named(name),
                )
            })
            .collect();
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for (key, estimate) in &entries {
            bytes.extend_from_slice(&encode_entry(*key, estimate));
            ends.push(bytes.len());
        }
        fs::create_dir_all(&dir).unwrap();
        let segment = dir.join("cut.seg");
        for cut in 0..=bytes.len() {
            fs::write(&segment, &bytes[..cut]).unwrap();
            let store = EstimateStore::open(&dir).unwrap();
            for ((key, estimate), &end) in entries.iter().zip(&ends) {
                let expected = (end <= cut).then_some(*estimate);
                assert_eq!(
                    store.load(*key),
                    expected,
                    "cut {cut}, entry ending at {end}"
                );
            }
            // Whole entries end to end is the only healthy shape; everything
            // else is counted once and deleted.
            let healthy = ends.contains(&cut);
            assert_eq!(store.stats().corrupt, u64::from(!healthy), "cut {cut}");
            assert_eq!(segment.exists(), healthy, "cut {cut}");
            // The handle's flush puts the salvaged prefix back on disk as a
            // clean segment: the next open finds the same entries, no damage.
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(store.disk_entries(), whole, "cut {cut}");
            assert_eq!(store.stats().writes, if healthy { 0 } else { whole as u64 });
            drop(store);
            let healed = EstimateStore::open(&dir).unwrap();
            assert_eq!(healed.stats().corrupt, 0, "cut {cut}");
            for (key, _) in &entries[..whole] {
                assert!(healed.load(*key).is_some(), "cut {cut}");
            }
            fs::remove_dir_all(&dir).unwrap();
            fs::create_dir_all(&dir).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn directory_anomalies_are_counted_or_ignored_never_errors() {
        let dir = temp_store_dir("anomalies");
        let key = Fingerprint { hi: 8, lo: 8 };
        fs::create_dir_all(&dir).unwrap();
        // Trailing garbage behind a whole entry: the entry is kept.
        let mut garbage = encode_entry(key, &sample_estimate());
        garbage.extend_from_slice(b"tail");
        fs::write(dir.join("garbage.seg"), garbage).unwrap();
        // A zero-length segment, a directory with a segment's name, a stale
        // temporary of a crashed writer and the entry tree of an older build.
        fs::write(dir.join("empty.seg"), b"").unwrap();
        fs::create_dir_all(dir.join("x.seg")).unwrap();
        fs::write(dir.join(".tmp-1-0"), b"half a segm").unwrap();
        fs::create_dir_all(dir.join("ab")).unwrap();
        fs::write(dir.join("ab").join("ab12.est"), b"old layout").unwrap();

        let store = EstimateStore::open(&dir).expect("anomalies never fail an open");
        assert_eq!(store.load(key).unwrap(), sample_estimate());
        let stats = store.stats();
        assert_eq!((stats.corrupt, stats.read_errors), (2, 1), "{stats:?}");
        // The two corrupt segments are gone; what is not a segment file is
        // left alone.
        assert_eq!(listing(&dir), [".tmp-1-0", "ab", "x.seg"]);
        // The entry in front of the garbage goes back to disk with the
        // handle's next flush, in a segment of its own.
        assert_eq!(store.disk_entries(), 1);
        assert_eq!(store.stats().writes, 1);
        assert_eq!(listing(&dir).len(), 4);
        let healed = EstimateStore::open(&dir).unwrap();
        assert_eq!(healed.load(key).unwrap(), sample_estimate());
        assert_eq!(healed.stats().corrupt, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_decoding_rejects_every_tampering() {
        let key = Fingerprint { hi: 77, lo: 88 };
        let good = encode_entry(key, &sample_estimate());
        assert_eq!(decode_entry(&good, key), Some(sample_estimate()));
        // Wrong key (e.g. a file renamed by hand).
        assert_eq!(decode_entry(&good, Fingerprint { hi: 77, lo: 89 }), None);
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert_eq!(decode_entry(&bad, key), None);
        // Version mismatch.
        let mut bad = good.clone();
        bad[8] = bad[8].wrapping_add(1);
        assert_eq!(decode_entry(&bad, key), None);
        // Flipped payload bit: checksum catches it.
        let mut bad = good.clone();
        bad[HEADER_LEN + 2] ^= 0x01;
        assert_eq!(decode_entry(&bad, key), None);
        // Truncation at every prefix length is a clean miss.
        for len in 0..good.len() {
            assert_eq!(decode_entry(&good[..len], key), None, "prefix {len}");
        }
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert_eq!(decode_entry(&bad, key), None);
    }

    #[test]
    fn eviction_keeps_the_store_under_budget() {
        let dir = temp_store_dir("evict");
        let one_entry = encode_entry(Fingerprint { hi: 0, lo: 0 }, &sample_estimate()).len() as u64;
        let store = EstimateStore::open(&dir)
            .unwrap()
            .with_limit_bytes(3 * one_entry);
        // Ten one-entry batches: the budget holds three segments.
        for i in 0..10 {
            store.save(Fingerprint { hi: 9, lo: i }, &sample_estimate());
            store.flush();
            assert!(store.disk_bytes() <= 3 * one_entry);
        }
        assert_eq!(store.stats().writes, 10);
        assert_eq!(store.stats().evictions, 7, "{:?}", store.stats());
        assert_eq!(store.disk_entries(), 3);
        // One batch larger than the whole budget: published, then evicted
        // with everything older — the budget is on the directory, always.
        for i in 10..14 {
            store.save(Fingerprint { hi: 9, lo: i }, &sample_estimate());
        }
        assert_eq!(store.disk_bytes(), 0);
        assert_eq!(store.stats().writes, 14);
        assert_eq!(store.stats().evictions, 11, "{:?}", store.stats());
        // Evicted entries are still served by the handle that saved them.
        assert!(store.load(Fingerprint { hi: 9, lo: 0 }).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_store_degrades_to_counted_write_errors() {
        let dir = temp_store_dir("readonly");
        let store = EstimateStore::open(&dir).unwrap();
        // Replace the store directory by a regular file: creating the
        // temporary fails with NotADirectory regardless of privileges
        // (unlike chmod-based read-only dirs, which root bypasses).
        fs::remove_dir_all(&dir).unwrap();
        fs::write(&dir, b"not a directory").unwrap();
        let keys = [Fingerprint { hi: 3, lo: 3 }, Fingerprint { hi: 3, lo: 4 }];
        for key in keys {
            store.save(key, &sample_estimate());
        }
        store.flush();
        let stats = store.stats();
        assert_eq!(stats.writes, 0);
        assert_eq!(stats.write_errors, 2, "{stats:?}");
        // The failed batch is not retried, and its keys miss again.
        store.flush();
        assert_eq!(store.stats().write_errors, 2);
        assert!(store.load(keys[1]).is_none());
        assert_eq!(store.disk_bytes(), 0);
        let _ = fs::remove_file(&dir);
    }

    #[test]
    fn read_errors_are_counted_separately_from_cold_misses() {
        let dir = temp_store_dir("readerr");
        let store = EstimateStore::open(&dir).unwrap();
        let key = Fingerprint { hi: 6, lo: 6 };
        // Cold miss: no read error.
        assert!(store.load(key).is_none());
        assert_eq!(store.stats().read_errors, 0);
        // A directory where a segment file should be: fs::read fails with
        // something other than NotFound.
        fs::create_dir_all(dir.join("x.seg")).unwrap();
        let store = EstimateStore::open(&dir).unwrap();
        assert!(store.load(key).is_none());
        let stats = store.stats();
        assert_eq!(stats.read_errors, 1, "{stats:?}");
        assert_eq!((stats.misses, stats.corrupt), (1, 0));
        let rendered = stats.to_string();
        assert!(
            rendered.contains("0 write errors, 1 read errors"),
            "{rendered}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_recovers_the_existing_size() {
        let dir = temp_store_dir("reopen");
        let store = EstimateStore::open(&dir).unwrap();
        store.save(Fingerprint { hi: 5, lo: 5 }, &sample_estimate());
        store.save(Fingerprint { hi: 5, lo: 6 }, &sample_estimate());
        let expected = store.disk_bytes();
        let one_entry = encode_entry(Fingerprint { hi: 0, lo: 0 }, &sample_estimate()).len() as u64;
        assert_eq!(expected, 2 * one_entry);
        let reopened = EstimateStore::open(&dir).unwrap();
        assert_eq!(reopened.disk_bytes(), expected);
        assert_eq!(reopened.disk_entries(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
