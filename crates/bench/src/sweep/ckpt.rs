//! Persistent content-addressed checkpoint store.
//!
//! Stores warm machine states beside the result cache (by default
//! `results/cache/ckpt/`), one binary container per key as
//! `<32-hex-digit-key>.ckpt`: a [`MachineSnapshot`] for a single-core
//! machine, a [`MultiCoreSnapshot`] for a multi-core one (both are
//! [`Checkpoint`]s). Keys use the same 128-bit FNV-1a discipline as
//! [`super::cache`] ([`super::point_key`] with kind `"warm"` or
//! `"warm-mc"`), so a checkpoint is invalidated by exactly the same
//! changes that invalidate a cached result: mix content, warmup
//! parameters, machine seed, [`smt_sim::SimConfig`], core count and
//! migration penalty, or a [`super::CODE_SALT`] bump. Each container is
//! additionally magic-tagged, versioned and checksummed
//! ([`smt_sim::snapshot::FORMAT_VERSION`],
//! [`smt_sim::MC_FORMAT_VERSION`]), so stale, torn or wrong-kind files
//! decode to an error and are removed, never misinterpreted.
//!
//! Writes mirror the result cache: unique temp file + atomic rename, so
//! concurrent workers (or processes) racing on the same key can never
//! leave a torn entry. After every load/store the store rewrites a
//! single-line `stats.json` in its directory — CI asserts on it to prove
//! a warm run actually hit the store.

use crate::sweep::{span, CacheKey};
use smt_isa::codec::CodecError;
use smt_sim::snapshot::MachineSnapshot;
use smt_sim::{LockstepMachine, MultiCoreMachine, MultiCoreSnapshot, SmtMachine};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A snapshot container of one machine kind: what the warm pool
/// memoizes and the store persists. Capture strips instrumentation;
/// restore yields a machine that simulates bit-identically to the
/// captured one.
pub trait Checkpoint: Sized + Send + Sync + 'static {
    type Machine: LockstepMachine;
    fn capture(machine: &Self::Machine) -> Self;
    fn restore(&self) -> Self::Machine;
    fn to_bytes(&self) -> Vec<u8>;
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError>;
}

impl Checkpoint for MachineSnapshot {
    type Machine = SmtMachine;
    fn capture(machine: &SmtMachine) -> Self {
        MachineSnapshot::capture(machine)
    }
    fn restore(&self) -> SmtMachine {
        MachineSnapshot::restore(self)
    }
    fn to_bytes(&self) -> Vec<u8> {
        MachineSnapshot::to_bytes(self)
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        MachineSnapshot::from_bytes(bytes)
    }
}

impl Checkpoint for MultiCoreSnapshot {
    type Machine = MultiCoreMachine;
    fn capture(machine: &MultiCoreMachine) -> Self {
        MultiCoreSnapshot::capture(machine)
    }
    fn restore(&self) -> MultiCoreMachine {
        MultiCoreSnapshot::restore(self)
    }
    fn to_bytes(&self) -> Vec<u8> {
        MultiCoreSnapshot::to_bytes(self)
    }
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        MultiCoreSnapshot::from_bytes(bytes)
    }
}

/// On-disk store of warm machine snapshots.
pub struct CkptStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    errors: AtomicU64,
    tmp_seq: AtomicU64,
}

/// Counter snapshot of one [`CkptStore`], as written to `stats.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CkptStats {
    /// Loads that produced a usable snapshot.
    pub hits: u64,
    /// Loads that found no entry.
    pub misses: u64,
    /// Snapshots written.
    pub stores: u64,
    /// Corrupt/unreadable entries encountered (each also removed).
    pub errors: u64,
}

impl CkptStore {
    /// A store rooted at `dir`. The directory is created on the first
    /// write, so a run that never warms a machine leaves nothing on disk.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CkptStore {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        }
    }

    /// Directory this store keeps checkpoints under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.ckpt", key.hex()))
    }

    /// Look up `key`. `Ok(None)` means no entry (a plain miss); `Err`
    /// means an entry existed but was corrupt, truncated or written by a
    /// different format version — it is removed so the next store can
    /// replace it, and the caller falls back to a cold warmup.
    pub fn load<S: Checkpoint>(&self, key: CacheKey) -> Result<Option<S>, String> {
        let _sp = span::spans().begin("ckpt-load", "ckpt");
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                span::spans().bump("ckpt_misses", 1);
                self.write_stats();
                return Ok(None);
            }
        };
        match S::from_bytes(&bytes) {
            Ok(snap) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                span::spans().bump("ckpt_hits", 1);
                self.write_stats();
                Ok(Some(snap))
            }
            Err(e) => {
                let _ = std::fs::remove_file(&path);
                self.errors.fetch_add(1, Ordering::Relaxed);
                span::spans().bump("ckpt_errors", 1);
                self.write_stats();
                Err(format!("checkpoint {} unusable: {e}", key.hex()))
            }
        }
    }

    /// Store `snapshot` under `key` via temp-file + atomic rename. Storage
    /// failures are non-fatal: the caller already holds the warm state in
    /// memory.
    pub fn store<S: Checkpoint>(&self, key: CacheKey, snapshot: &S) {
        let _sp = span::spans().begin("ckpt-store", "ckpt");
        span::spans().bump("ckpt_stores", 1);
        let bytes = snapshot.to_bytes();
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".{}.{}.{}.tmp", key.hex(), std::process::id(), seq));
        let write = std::fs::create_dir_all(&self.dir)
            .and_then(|()| std::fs::write(&tmp, &bytes))
            .and_then(|()| std::fs::rename(&tmp, self.entry_path(key)));
        match write {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                self.errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("warning: checkpoint write for {} failed: {e}", key.hex());
            }
        }
        self.write_stats();
    }

    /// Current counters.
    pub fn stats(&self) -> CkptStats {
        CkptStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    /// Rewrite `stats.json` in the store directory. Best-effort: stats
    /// must never fail a sweep.
    fn write_stats(&self) {
        let s = self.stats();
        let line = format!(
            "{{\"hits\":{},\"misses\":{},\"stores\":{},\"errors\":{}}}\n",
            s.hits, s.misses, s.stores, s.errors
        );
        let _ = std::fs::create_dir_all(&self.dir)
            .and_then(|()| std::fs::write(self.dir.join("stats.json"), line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::point_key;
    use smt_isa::AppProfile;
    use smt_sim::{SimConfig, SmtMachine};
    use smt_workloads::UopStream;
    use std::sync::Arc;

    fn snapshot(seed: u64) -> MachineSnapshot {
        let streams = vec![UopStream::new(
            Arc::new(AppProfile::builder("t").build()),
            seed,
            smt_workloads::thread_addr_base(0),
        )];
        let mut m = SmtMachine::new(SimConfig::with_threads(1), streams);
        m.run(500, &mut smt_sim::RoundRobin);
        MachineSnapshot::capture(&m)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("smt-adts-ckpt-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tmp_dir("rt");
        let store = CkptStore::new(&dir);
        let key = point_key("warm", &"mix", &1u32, &"cfg");
        assert!(store.load::<MachineSnapshot>(key).unwrap().is_none());
        let snap = snapshot(7);
        store.store(key, &snap);
        let back = store
            .load::<MachineSnapshot>(key)
            .unwrap()
            .expect("entry must exist");
        assert_eq!(back.cycle(), snap.cycle());
        assert_eq!(back.to_bytes(), snap.to_bytes());
        assert_eq!(
            store.stats(),
            CkptStats {
                hits: 1,
                misses: 1,
                stores: 1,
                errors: 0
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_an_error_and_removed() {
        let dir = tmp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let store = CkptStore::new(&dir);
        let key = point_key("warm", &"mix", &2u32, &"cfg");
        std::fs::write(dir.join(format!("{}.ckpt", key.hex())), b"not a ckpt").unwrap();
        assert!(store.load::<MachineSnapshot>(key).is_err());
        assert!(!dir.join(format!("{}.ckpt", key.hex())).exists());
        // After removal the key is a plain miss again.
        assert!(store.load::<MachineSnapshot>(key).unwrap().is_none());
        assert_eq!(store.stats().errors, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_an_error_and_removed() {
        let dir = tmp_dir("trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let store = CkptStore::new(&dir);
        let key = point_key("warm", &"mix", &3u32, &"cfg");
        let bytes = snapshot(11).to_bytes();
        std::fs::write(
            dir.join(format!("{}.ckpt", key.hex())),
            &bytes[..bytes.len() / 2],
        )
        .unwrap();
        assert!(store.load::<MachineSnapshot>(key).is_err());
        assert!(!dir.join(format!("{}.ckpt", key.hex())).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_bumped_entry_is_an_error_and_removed() {
        let dir = tmp_dir("ver");
        std::fs::create_dir_all(&dir).unwrap();
        let store = CkptStore::new(&dir);
        let key = point_key("warm", &"mix", &4u32, &"cfg");
        let mut bytes = snapshot(13).to_bytes();
        bytes[8] = smt_sim::snapshot::FORMAT_VERSION as u8 + 1;
        std::fs::write(dir.join(format!("{}.ckpt", key.hex())), &bytes).unwrap();
        assert!(store.load::<MachineSnapshot>(key).is_err());
        assert!(!dir.join(format!("{}.ckpt", key.hex())).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_json_tracks_operations() {
        let dir = tmp_dir("stats");
        let store = CkptStore::new(&dir);
        let key = point_key("warm", &"mix", &5u32, &"cfg");
        store.store(key, &snapshot(17));
        let _ = store.load::<MachineSnapshot>(key).unwrap();
        let text = std::fs::read_to_string(dir.join("stats.json")).unwrap();
        assert_eq!(
            text.trim(),
            "{\"hits\":1,\"misses\":0,\"stores\":1,\"errors\":0}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
