//! The content-addressed on-disk store.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/ab/abcdef0123456789.tgr   entry files (first 2 hex = shard dir)
//! <root>/ledger.tsv                access ledger (append-only text)
//! ```
//!
//! Every entry is a complete `.tgr` container; `get` re-verifies the
//! trailing checksum on each read, so a corrupted entry is detected,
//! deleted, and reported as a miss — the caller recomputes and the
//! fresh bytes overwrite the bad entry. Writes go through a temp file +
//! rename so a crash never leaves a half-written entry at its final
//! address.
//!
//! The ledger is plain text, one line per access:
//!
//! ```text
//! <verb>\t<16-hex hash>\t<byte len>\t<canonical key>
//! ```
//!
//! Later lines are more recent. `gc --max-bytes N` derives each entry's
//! recency from its **last** ledger line and evicts least-recently-used
//! entries until the total is within budget — fully deterministic, no
//! clocks involved. `gc` then rewrites the ledger compacted (one line
//! per surviving entry, recency order preserved).

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use topogen_par::faults::{self, IoFault};

use crate::codec::{verify_container, CodecError};
use crate::key::key_hash;

/// Ledger file name under the store root.
pub const LEDGER_FILE: &str = "ledger.tsv";
/// Entry file extension.
pub const ENTRY_EXT: &str = "tgr";

/// Bounded retries on transient entry-I/O errors before failing open.
pub const IO_RETRIES: u32 = 3;

/// Backoff before retry `attempt` (0-based): bounded exponential
/// (0.5 ms, 1 ms, 2 ms, …) plus a deterministic SplitMix64 jitter keyed
/// by the entry hash — no clocks, no global RNG, same waits every run.
fn backoff(seed: u64, attempt: u32) -> Duration {
    let base_us = 500u64 << attempt.min(4);
    let jitter_us = faults::splitmix64(seed ^ u64::from(attempt)) % (base_us / 2 + 1);
    Duration::from_micros(base_us + jitter_us)
}

/// Monotonic counters describing store traffic since open.
#[derive(Debug, Default)]
pub struct StoreCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    corrupt: AtomicU64,
    io_retries: AtomicU64,
    io_giveups: AtomicU64,
}

/// A point-in-time copy of [`StoreCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Reads served from the store.
    pub hits: u64,
    /// Lookups that found nothing usable (including corrupt entries).
    pub misses: u64,
    /// Bytes of verified entries returned to callers.
    pub bytes_read: u64,
    /// Bytes of new entries written.
    pub bytes_written: u64,
    /// Entries found corrupt (checksum failure) and evicted on read.
    pub corrupt: u64,
    /// Transient entry-I/O errors retried after backoff.
    pub io_retries: u64,
    /// Operations abandoned after exhausting [`IO_RETRIES`] (fail-open).
    pub io_giveups: u64,
}

impl StoreCounters {
    /// Copy the current values.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
            io_giveups: self.io_giveups.load(Ordering::Relaxed),
        }
    }
}

impl CounterSnapshot {
    /// Traffic between two snapshots (`later - self`), for per-unit
    /// ledger deltas.
    pub fn delta_to(&self, later: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            hits: later.hits - self.hits,
            misses: later.misses - self.misses,
            bytes_read: later.bytes_read - self.bytes_read,
            bytes_written: later.bytes_written - self.bytes_written,
            corrupt: later.corrupt - self.corrupt,
            io_retries: later.io_retries - self.io_retries,
            io_giveups: later.io_giveups - self.io_giveups,
        }
    }

    /// True when nothing happened between the snapshots.
    pub fn is_zero(&self) -> bool {
        *self == CounterSnapshot::default()
    }
}

/// One entry as reported by [`Store::ls`].
#[derive(Debug, Clone)]
pub struct EntryInfo {
    /// 16-hex entry hash.
    pub hash: String,
    /// Entry size in bytes.
    pub bytes: u64,
    /// Canonical key string, when the ledger knows it.
    pub key: Option<String>,
}

/// Result of a [`Store::verify`] walk.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Entries whose checksum verified.
    pub ok: usize,
    /// Entries that failed, with the relative path and the error.
    pub corrupt: Vec<(String, CodecError)>,
}

/// Result of a [`Store::gc`] pass.
#[derive(Debug, Default)]
pub struct GcReport {
    /// Hashes evicted, least recently used first.
    pub evicted: Vec<String>,
    /// Bytes freed.
    pub bytes_freed: u64,
    /// Entries kept.
    pub kept: usize,
    /// Bytes remaining.
    pub bytes_kept: u64,
}

/// The content-addressed store. Cheap to share behind an `Arc`; all
/// methods take `&self`.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    counters: StoreCounters,
    ledger: Mutex<()>,
}

impl Store {
    /// Open (creating if needed) a store rooted at `root`. Stale temp
    /// files from interrupted writes (`<hash>.tmp`, possibly torn) are
    /// removed: lookups only ever read `.tgr` paths, so a leftover tmp
    /// can never shadow a valid entry — it is just dead bytes.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let store = Store {
            root,
            counters: StoreCounters::default(),
            ledger: Mutex::new(()),
        };
        store.clean_stale_tmp();
        store.recover_torn_ledger_tail();
        Ok(store)
    }

    /// Truncate a torn final ledger line (a crash mid-append leaves the
    /// file without a trailing newline). Losing the line only demotes
    /// one entry's recency — it never blocks opening the store.
    fn recover_torn_ledger_tail(&self) {
        let path = self.root.join(LEDGER_FILE);
        let Ok(bytes) = fs::read(&path) else { return };
        if bytes.is_empty() || bytes.ends_with(b"\n") {
            return;
        }
        let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let torn = bytes.len() - keep;
        let truncated = fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_len(keep as u64));
        if truncated.is_ok() {
            eprintln!("store: recovered torn ledger tail ({torn} byte(s) truncated)");
        }
    }

    /// Remove `*.tmp` leftovers from writes interrupted before rename.
    fn clean_stale_tmp(&self) {
        let Ok(shards) = fs::read_dir(&self.root) else {
            return;
        };
        for shard in shards.flatten() {
            let sp = shard.path();
            if !sp.is_dir() {
                continue;
            }
            let Ok(entries) = fs::read_dir(&sp) else {
                continue;
            };
            for e in entries.flatten() {
                let p = e.path();
                if p.extension().and_then(|s| s.to_str()) == Some("tmp") {
                    let _ = fs::remove_file(&p);
                }
            }
        }
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Traffic counters since open.
    pub fn counters(&self) -> &StoreCounters {
        &self.counters
    }

    fn entry_path(&self, hash: u64) -> PathBuf {
        let hex = format!("{hash:016x}");
        self.root.join(&hex[..2]).join(format!("{hex}.{ENTRY_EXT}"))
    }

    fn append_ledger(&self, verb: &str, hash: u64, len: usize, key: &str) {
        let _guard = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
        self.append_ledger_locked(verb, hash, len, key);
    }

    /// [`Self::append_ledger`] body; the caller must hold `self.ledger`.
    fn append_ledger_locked(&self, verb: &str, hash: u64, len: usize, key: &str) {
        let line = format!("{verb}\t{hash:016x}\t{len}\t{key}\n");
        // Ledger writes are best-effort: a failure here must not fail
        // the computation the cache is accelerating. An injected `err`
        // drops the line (recency demotion only); an injected `short`
        // leaves a torn tail for the next open to recover.
        let payload = match faults::inject_io("ledger-append", "store") {
            Some(IoFault::Err) => return,
            Some(IoFault::Short) => &line.as_bytes()[..line.len() / 2],
            None => line.as_bytes(),
        };
        let _ = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.root.join(LEDGER_FILE))
            .and_then(|mut f| f.write_all(payload));
    }

    /// Read the entry file, distinguishing torn reads from corruption:
    /// the store never truncates an entry in place (writes are tmp +
    /// rename), so a read shorter than the file on disk is transient —
    /// retry it, do not let it reach the checksum-evict path and delete
    /// a good entry.
    fn read_entry(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let bytes = match faults::inject_io("store-read", "get") {
            Some(IoFault::Err) => return Err(faults::io_error("store-read", "get")),
            Some(IoFault::Short) => {
                let b = fs::read(path)?;
                let keep = b.len() / 2;
                b[..keep].to_vec()
            }
            None => fs::read(path)?,
        };
        let expect = fs::metadata(path)?.len();
        if bytes.len() as u64 != expect {
            return Err(std::io::Error::other(format!(
                "short read: {} of {expect} bytes",
                bytes.len()
            )));
        }
        Ok(bytes)
    }

    /// [`Self::read_entry`] with bounded retries. `Ok(None)` is a clean
    /// not-found; `Err` means a transient error survived all retries.
    fn read_entry_retrying(&self, path: &Path, hash: u64) -> std::io::Result<Option<Vec<u8>>> {
        let mut attempt = 0u32;
        loop {
            match self.read_entry(path) {
                Ok(bytes) => return Ok(Some(bytes)),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
                Err(e) => {
                    if attempt >= IO_RETRIES {
                        return Err(e);
                    }
                    self.counters.io_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff(hash, attempt));
                    attempt += 1;
                }
            }
        }
    }

    /// Look up `key`. Returns the verified container bytes on a hit.
    /// A checksum failure deletes the entry and reports a miss, so the
    /// caller recomputes and rewrites. Transient I/O errors are retried
    /// with backoff; if they persist the lookup fails open to a miss
    /// (the caller recomputes — the store is an accelerator).
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        let _span = topogen_par::trace::span("store-get");
        let hash = key_hash(key);
        let path = self.entry_path(hash);
        let bytes = match self.read_entry_retrying(&path, hash) {
            Ok(Some(b)) => b,
            Ok(None) => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                self.counters.io_giveups.fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match verify_container(&bytes) {
            Ok(()) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .bytes_read
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                self.append_ledger("get", hash, bytes.len(), key);
                Some(bytes)
            }
            Err(_) => {
                // Detected corruption: evict so the recompute path
                // rewrites a clean entry.
                let _ = fs::remove_file(&path);
                self.counters.corrupt.fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Write `bytes` (a finished `.tgr` container) under `key`,
    /// atomically and durably: the temp file is fsynced before the
    /// rename and the shard directory after it, so a crash right after
    /// `put` returns cannot surface a torn entry at the final address
    /// (without the syncs, the rename could be durable while the data
    /// blocks were not — the checksum would catch it later, but only by
    /// silently discarding the warm entry). Errors are swallowed: the
    /// store is an accelerator, and a failed write only costs a miss.
    pub fn put(&self, key: &str, bytes: &[u8]) {
        let _span = topogen_par::trace::span("store-put");
        debug_assert!(verify_container(bytes).is_ok(), "put of invalid container");
        let hash = key_hash(key);
        let path = self.entry_path(hash);
        let Some(dir) = path.parent() else { return };
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = dir.join(format!("{hash:016x}.tmp"));
        let write_synced = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            match faults::inject_io("store-write", "put") {
                Some(IoFault::Err) => return Err(faults::io_error("store-write", "put")),
                Some(IoFault::Short) => {
                    // A torn write: some bytes land, then the error. The
                    // retry recreates the tmp from scratch, and even a
                    // crash here leaves only a stale `.tmp` that the
                    // next open sweeps — never a corrupt entry.
                    f.write_all(&bytes[..bytes.len() / 2])?;
                    f.sync_all()?;
                    return Err(faults::io_error("store-write", "put"));
                }
                None => {}
            }
            f.write_all(bytes)?;
            f.sync_all()?;
            Ok(())
        };
        let mut attempt = 0u32;
        loop {
            match write_synced() {
                Ok(()) => break,
                Err(_) if attempt < IO_RETRIES => {
                    self.counters.io_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(backoff(hash ^ 0x9e37_79b9, attempt));
                    attempt += 1;
                }
                Err(_) => {
                    // Exhausted: fail open. A skipped put only costs a
                    // future miss.
                    self.counters.io_giveups.fetch_add(1, Ordering::Relaxed);
                    let _ = fs::remove_file(&tmp);
                    return;
                }
            }
        }
        // Publish (rename) and record (ledger line) under the ledger
        // lock, so a concurrent `gc` can never observe the entry file
        // without its ledger line — which would demote a fresh entry to
        // the "never seen / oldest" eviction tier.
        let guard = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
        if fs::rename(&tmp, &path).is_ok() {
            // Make the rename itself durable.
            let _ = fs::File::open(dir).and_then(|d| d.sync_all());
            self.counters
                .bytes_written
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            self.append_ledger_locked("put", hash, bytes.len(), key);
        } else {
            let _ = fs::remove_file(&tmp);
        }
        drop(guard);
    }

    /// Drop the entry stored under `key`, if any. Best-effort like the
    /// rest of the store: a failed unlink is swallowed (the entry just
    /// stays warm), and removing a key that was never stored is a
    /// no-op. The ledger records the eviction so recency ranking stays
    /// honest about what is actually on disk.
    pub fn remove(&self, key: &str) {
        let hash = key_hash(key);
        let path = self.entry_path(hash);
        let guard = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
        if fs::remove_file(&path).is_ok() {
            self.append_ledger_locked("del", hash, 0, key);
        }
        drop(guard);
    }

    fn walk_entries(&self) -> Vec<(String, PathBuf, u64)> {
        let mut out = Vec::new();
        let Ok(shards) = fs::read_dir(&self.root) else {
            return out;
        };
        for shard in shards.flatten() {
            let sp = shard.path();
            if !sp.is_dir() {
                continue;
            }
            let Ok(entries) = fs::read_dir(&sp) else {
                continue;
            };
            for e in entries.flatten() {
                let p = e.path();
                if p.extension().and_then(|s| s.to_str()) != Some(ENTRY_EXT) {
                    continue;
                }
                let Some(stem) = p.file_stem().and_then(|s| s.to_str()) else {
                    continue;
                };
                if stem.len() != 16 || !stem.bytes().all(|b| b.is_ascii_hexdigit()) {
                    continue;
                }
                let len = e.metadata().map(|m| m.len()).unwrap_or(0);
                out.push((stem.to_string(), p, len));
            }
        }
        out.sort(); // deterministic order regardless of readdir order
        out
    }

    /// Map each entry hash to its canonical key and recency rank, from
    /// the ledger (last line per hash wins).
    fn ledger_index(&self) -> HashMap<String, (usize, String)> {
        let mut map = HashMap::new();
        let Ok(text) = fs::read_to_string(self.root.join(LEDGER_FILE)) else {
            return map;
        };
        for (rank, line) in text.lines().enumerate() {
            let mut parts = line.splitn(4, '\t');
            let _verb = parts.next();
            let (Some(hash), Some(_len), Some(key)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            map.insert(hash.to_string(), (rank, key.to_string()));
        }
        map
    }

    /// List entries (sorted by hash) with sizes and, where the ledger
    /// knows them, canonical keys.
    pub fn ls(&self) -> Vec<EntryInfo> {
        let index = self.ledger_index();
        self.walk_entries()
            .into_iter()
            .map(|(hash, _path, bytes)| {
                let key = index.get(&hash).map(|(_, k)| k.clone());
                EntryInfo { hash, bytes, key }
            })
            .collect()
    }

    /// Verify every entry's checksum.
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        for (hash, path, _len) in self.walk_entries() {
            let rel = format!("{}/{hash}.{ENTRY_EXT}", &hash[..2]);
            match fs::read(&path) {
                Ok(bytes) => match verify_container(&bytes) {
                    Ok(()) => report.ok += 1,
                    Err(e) => report.corrupt.push((rel, e)),
                },
                Err(e) => report.corrupt.push((
                    rel,
                    CodecError::Malformed {
                        offset: 0,
                        what: format!("unreadable: {e}"),
                    },
                )),
            }
        }
        report
    }

    /// Evict least-recently-used entries (by ledger order; entries the
    /// ledger has never seen count as oldest, in hash order) until the
    /// total size is at most `max_bytes`. Rewrites the ledger compacted.
    /// Holds the ledger lock across the whole walk-and-rewrite, which
    /// together with [`Self::put`] publishing under the same lock means
    /// no concurrent put's ledger line can be dropped by the compaction.
    pub fn gc(&self, max_bytes: u64) -> GcReport {
        let _span = topogen_par::trace::span("store-gc");
        let _guard = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
        let index = self.ledger_index();
        let mut entries = self.walk_entries();
        // Oldest first: unknown-to-ledger entries (rank 0 tier) by hash,
        // then ledger entries by recency rank.
        entries.sort_by_key(|(hash, _, _)| {
            index
                .get(hash)
                .map(|(rank, _)| (1u8, *rank, hash.clone()))
                .unwrap_or((0, 0, hash.clone()))
        });
        let total: u64 = entries.iter().map(|(_, _, len)| len).sum();
        let mut report = GcReport::default();
        let mut excess = total.saturating_sub(max_bytes);
        let mut kept = Vec::new();
        for (hash, path, len) in entries {
            if excess > 0 && fs::remove_file(&path).is_ok() {
                excess = excess.saturating_sub(len);
                report.bytes_freed += len;
                report.evicted.push(hash);
                continue;
            }
            report.kept += 1;
            report.bytes_kept += len;
            kept.push(hash);
        }
        // Compact the ledger: one line per surviving entry, oldest first
        // (preserving relative recency for future gc passes).
        let mut out = String::new();
        for hash in &kept {
            if let Some((_, key)) = index.get(hash) {
                out.push_str(&format!("kept\t{hash}\t0\t{key}\n"));
            }
        }
        let _ = fs::write(self.root.join(LEDGER_FILE), out);
        report
    }

    /// Total size of all entries in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.walk_entries().iter().map(|(_, _, len)| len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_graph, ContainerWriter, SEC_LINK_VALUES};
    use topogen_graph::Graph;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("topogen-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// A fresh store directory plus the fault-harness gate, held for the
    /// whole test: the fault tests arm process-global `store-*` and
    /// `ledger-append` faults, which would otherwise hit the writes of
    /// tests running beside them.
    fn gated_tmpdir(tag: &str) -> (std::sync::MutexGuard<'static, ()>, PathBuf) {
        (topogen_par::faults::exclusive_for_tests(), tmpdir(tag))
    }

    fn sample_container(seed: u32) -> Vec<u8> {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (0, seed % 3 + 1)]);
        encode_graph(&g)
    }

    #[test]
    fn put_get_roundtrip_and_counters() {
        let (_gate, dir) = gated_tmpdir("roundtrip");
        let store = Store::open(dir).unwrap();
        let bytes = sample_container(0);
        assert!(store.get("k1").is_none());
        store.put("k1", &bytes);
        assert_eq!(store.get("k1").as_deref(), Some(bytes.as_slice()));
        let c = store.counters().snapshot();
        assert_eq!((c.hits, c.misses), (1, 1));
        assert_eq!(c.bytes_written, bytes.len() as u64);
        assert_eq!(c.bytes_read, bytes.len() as u64);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn corrupt_entry_is_evicted_then_rewritten() {
        let (_gate, dir) = gated_tmpdir("corrupt");
        let store = Store::open(dir).unwrap();
        let bytes = sample_container(1);
        store.put("k", &bytes);
        // Corrupt the single entry on disk.
        let (hash, path, _) = store.walk_entries().pop().unwrap();
        let mut raw = fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xff;
        fs::write(&path, &raw).unwrap();
        // Detected: miss, file evicted.
        assert!(store.get("k").is_none());
        assert!(!path.exists());
        let c = store.counters().snapshot();
        assert_eq!(c.corrupt, 1);
        // Recompute path rewrites a clean entry at the same address.
        store.put("k", &bytes);
        assert_eq!(store.get("k").as_deref(), Some(bytes.as_slice()));
        let report = store.verify();
        assert_eq!(report.ok, 1);
        assert!(report.corrupt.is_empty());
        assert_eq!(store.walk_entries().pop().unwrap().0, hash);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn verify_reports_corruption() {
        let (_gate, dir) = gated_tmpdir("verify");
        let store = Store::open(dir).unwrap();
        store.put("a", &sample_container(0));
        store.put("b", &sample_container(1));
        let (_, path, _) = store.walk_entries().remove(0).clone();
        let mut raw = fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 1;
        fs::write(&path, &raw).unwrap();
        let report = store.verify();
        assert_eq!(report.ok, 1);
        assert_eq!(report.corrupt.len(), 1);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn gc_evicts_lru_deterministically() {
        let (_gate, dir) = gated_tmpdir("gc");
        let store = Store::open(dir).unwrap();
        let mut w = ContainerWriter::new();
        w.section(SEC_LINK_VALUES, &crate::codec::f64_payload(&[1.0; 64]));
        let big = w.finish();
        store.put("old", &big);
        store.put("mid", &big);
        store.put("new", &big);
        // Touch "old" so it becomes most recent.
        assert!(store.get("old").is_some());
        let each = big.len() as u64;
        let report = store.gc(2 * each);
        // LRU order is now mid, new, old — evict "mid" only.
        assert_eq!(report.evicted.len(), 1);
        assert_eq!(report.kept, 2);
        assert!(store.get("old").is_some());
        assert!(store.get("new").is_some());
        assert!(store.get("mid").is_none());
        // gc to zero clears everything.
        let report = store.gc(0);
        assert_eq!(report.kept, 0);
        assert_eq!(store.total_bytes(), 0);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn ls_shows_keys_from_ledger() {
        let (_gate, dir) = gated_tmpdir("ls");
        let store = Store::open(dir).unwrap();
        store.put("kind=test|x=1", &sample_container(0));
        let ls = store.ls();
        assert_eq!(ls.len(), 1);
        assert_eq!(ls[0].key.as_deref(), Some("kind=test|x=1"));
        assert!(ls[0].bytes > 0);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn stale_tmp_is_cleaned_and_never_shadows_a_valid_entry() {
        let (_gate, dir) = gated_tmpdir("staletmp");
        let bytes = sample_container(0);
        {
            let store = Store::open(&dir).unwrap();
            store.put("k", &bytes);
        }
        // Simulate a crash mid-write: a short (torn) tmp file next to
        // the valid entry, exactly where `put` stages its writes.
        let store = Store::open(&dir).unwrap();
        let (hash, path, _) = store.walk_entries().pop().unwrap();
        let tmp = path.with_file_name(format!("{hash}.tmp"));
        fs::write(&tmp, &bytes[..3]).unwrap();
        drop(store);

        // Reopen: the stale tmp is swept; the valid entry still serves.
        let store = Store::open(&dir).unwrap();
        assert!(!tmp.exists(), "stale tmp cleaned on open");
        assert_eq!(store.get("k").as_deref(), Some(bytes.as_slice()));
        assert_eq!(store.verify().corrupt.len(), 0);
        // And even while present, a tmp never shadows: lookups read only
        // `.tgr` paths and the walk skips non-entry extensions.
        fs::write(&tmp, &bytes[..3]).unwrap();
        assert_eq!(store.get("k").as_deref(), Some(bytes.as_slice()));
        assert_eq!(store.walk_entries().len(), 1);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn concurrent_put_and_gc_never_drop_a_ledger_line() {
        // Regression for the put/gc race: `put` used to publish the
        // entry file and append its ledger line as two unlocked steps; a
        // gc interleaving between them saw a file with no line, demoted
        // it to the "never seen / oldest" tier, and (worse) its ledger
        // compaction dropped the line appended mid-walk. With publish
        // and record under the ledger lock, every completed put survives
        // a generous-budget gc with its recency intact.
        let (_gate, dir) = gated_tmpdir("putgc");
        let store = std::sync::Arc::new(Store::open(dir).unwrap());
        const KEYS: usize = 40;
        let writer = {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..KEYS {
                    store.put(&format!("key-{i}"), &sample_container(i as u32));
                }
            })
        };
        // Budget far above the total: a correct gc evicts nothing. Any
        // eviction here means a fresh entry was mistaken for unledgered.
        for _ in 0..KEYS {
            let report = store.gc(u64::MAX / 2);
            assert!(
                report.evicted.is_empty(),
                "gc evicted {:?} under an unlimited budget",
                report.evicted
            );
        }
        writer.join().unwrap();
        // After the dust settles every put is present, ledgered, and
        // served; one more gc pass keeps all of them.
        let index = store.ledger_index();
        assert_eq!(store.walk_entries().len(), KEYS);
        for i in 0..KEYS {
            let key = format!("key-{i}");
            let hash = format!("{:016x}", key_hash(&key));
            assert!(index.contains_key(&hash), "ledger lost {key}");
            assert!(store.get(&key).is_some(), "{key} unreadable");
        }
        let report = store.gc(u64::MAX / 2);
        assert_eq!(report.kept, KEYS);
        assert!(report.evicted.is_empty());
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn snapshot_delta() {
        let a = CounterSnapshot {
            hits: 1,
            misses: 2,
            bytes_read: 10,
            bytes_written: 20,
            corrupt: 0,
            io_retries: 1,
            io_giveups: 0,
        };
        let b = CounterSnapshot {
            hits: 4,
            misses: 2,
            bytes_read: 30,
            bytes_written: 20,
            corrupt: 1,
            io_retries: 3,
            io_giveups: 1,
        };
        let d = a.delta_to(&b);
        assert_eq!(d.hits, 3);
        assert_eq!(d.misses, 0);
        assert_eq!(d.bytes_read, 20);
        assert_eq!(d.corrupt, 1);
        assert_eq!(d.io_retries, 2);
        assert_eq!(d.io_giveups, 1);
        assert!(!d.is_zero());
        assert!(a.delta_to(&a).is_zero());
    }

    #[test]
    fn torn_ledger_tail_is_recovered_on_open() {
        let (_gate, dir) = gated_tmpdir("torntail");
        let bytes = sample_container(0);
        {
            let store = Store::open(&dir).unwrap();
            store.put("a", &bytes);
            store.put("b", &bytes);
        }
        // Simulate a crash mid-append: a partial line with no newline.
        let ledger = dir.join(LEDGER_FILE);
        let before = fs::read_to_string(&ledger).unwrap();
        assert!(before.ends_with('\n'));
        fs::OpenOptions::new()
            .append(true)
            .open(&ledger)
            .unwrap()
            .write_all(b"get\t0123abc")
            .unwrap();

        // Reopen: the torn tail is truncated, complete lines survive,
        // and the store serves normally.
        let store = Store::open(&dir).unwrap();
        let after = fs::read_to_string(&ledger).unwrap();
        assert_eq!(after, before, "torn tail truncated back to last newline");
        assert_eq!(store.get("a").as_deref(), Some(bytes.as_slice()));
        assert_eq!(store.ledger_index().len(), 2);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn injected_read_faults_are_retried_without_evicting_good_entries() {
        let (_gate, dir) = gated_tmpdir("readfault");
        let store = Store::open(dir).unwrap();
        let bytes = sample_container(0);
        store.put("k", &bytes);
        // Every read attempt fails: the lookup retries, then fails open
        // to a miss — but the entry on disk must survive untouched.
        topogen_par::faults::install_spec("store-read:err:1:7").unwrap();
        assert!(store.get("k").is_none());
        topogen_par::faults::clear();
        let c = store.counters().snapshot();
        assert_eq!(c.io_retries, IO_RETRIES as u64);
        assert_eq!(c.io_giveups, 1);
        assert_eq!(c.corrupt, 0, "injected errors must not evict");
        assert_eq!(store.get("k").as_deref(), Some(bytes.as_slice()));

        // Short reads likewise retry and never reach the evict path.
        topogen_par::faults::install_spec("store-read:short:1:7").unwrap();
        assert!(store.get("k").is_none());
        topogen_par::faults::clear();
        let c = store.counters().snapshot();
        assert_eq!(c.corrupt, 0, "short reads must not evict");
        assert_eq!(store.get("k").as_deref(), Some(bytes.as_slice()));
        assert_eq!(store.verify().corrupt.len(), 0);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn injected_write_faults_never_leave_a_corrupt_entry() {
        let (_gate, dir) = gated_tmpdir("writefault");
        let store = Store::open(dir).unwrap();
        let bytes = sample_container(1);
        // All write attempts fail (rate 1): put gives up cleanly, no
        // entry and no tmp debris.
        topogen_par::faults::install_spec("store-write:short:1:3").unwrap();
        store.put("k", &bytes);
        topogen_par::faults::clear();
        let c = store.counters().snapshot();
        assert_eq!(c.io_giveups, 1);
        assert_eq!(store.walk_entries().len(), 0, "no entry published");
        assert!(store.get("k").is_none());
        assert_eq!(store.verify().corrupt.len(), 0);

        // At rate 0.5 some attempts fail but a retry lands the write;
        // the published entry must verify and serve the exact bytes.
        topogen_par::faults::install_spec("store-write:err:0.5:11").unwrap();
        store.put("k", &bytes);
        topogen_par::faults::clear();
        assert_eq!(store.get("k").as_deref(), Some(bytes.as_slice()));
        assert_eq!(store.verify().corrupt.len(), 0);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn injected_ledger_faults_only_cost_recency() {
        let (_gate, dir) = gated_tmpdir("ledgerfault");
        let store = Store::open(dir).unwrap();
        let bytes = sample_container(0);
        // A shorted ledger append leaves a torn tail; a later complete
        // append would merge lines, but reopening first recovers it.
        topogen_par::faults::install_spec("ledger-append:short:1:5").unwrap();
        store.put("k", &bytes);
        topogen_par::faults::clear();
        let root = store.root().to_path_buf();
        drop(store);
        let store = Store::open(&root).unwrap();
        let text = fs::read_to_string(root.join(LEDGER_FILE)).unwrap_or_default();
        assert!(text.is_empty() || text.ends_with('\n'));
        // The entry itself is fine — only its recency metadata was lost.
        assert_eq!(store.get("k").as_deref(), Some(bytes.as_slice()));
        fs::remove_dir_all(store.root()).unwrap();
    }
}
