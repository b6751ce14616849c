//! Versioned machine snapshots: capture/restore of the full [`SmtMachine`]
//! state plus a self-describing binary container.
//!
//! A snapshot is the warm-state currency of the bench layer's checkpoint
//! subsystem: `warmed_machine` captures once per (mix, config, seed,
//! warmup) point and every sweep cell restores a copy instead of paying
//! the warmup simulation again. Two guarantees anchor the design:
//!
//! - **Bit-identity.** [`MachineSnapshot::capture`] is a clean clone of
//!   the machine (instrumentation stripped — trace buffers and slot
//!   attribution are observation state, not simulated state), and
//!   [`MachineSnapshot::restore`] clones it back out, so a restored
//!   machine is *the same value* the `clone_resumes_identically` test
//!   already pins. The binary round trip preserves that: every RNG,
//!   cache stamp, predictor counter and in-flight op is encoded exactly
//!   (`snapshot → to_bytes → from_bytes → restore` is covered by the
//!   machine-equivalence proptests).
//! - **Fail-safe decoding.** The container is versioned, length-framed
//!   and checksummed; corrupt, truncated or version-bumped bytes decode
//!   to a [`CodecError`], never a panic — callers fall back to a cold
//!   warmup.
//!
//! **No fast-forward or index state is serialized.** The event-horizon
//! skip engine (`SmtMachine::stall_horizon`) is *derived* entirely from
//! state this container already carries — stall-until cycles, in-flight
//! `done_at` deadlines, the syscall drain queue — and the `skip_enabled`
//! switch plus the `skipped_cycles` odometer are host-side observability,
//! not simulated state. Serializing any of it would make snapshot bytes
//! depend on *how* a machine reached a cycle (skipped vs stepped),
//! destroying the byte-identity contract above; instead a decoded
//! machine starts with skipping on and its odometer at zero. The
//! machine's indexes over that state — the completion calendar (every
//! `Executing` op filed under its completion cycle), the wake chains and
//! `pending` counters, the issue queues' ready lists and age stamps —
//! are likewise rebuilt on decode, never stored.
//!
//! Container layout (little-endian):
//!
//! ```text
//! magic    [u8; 8]   = b"SMTCKPT\0"
//! version  u32       = FORMAT_VERSION
//! len      u64       payload byte count
//! payload  [u8; len] SmtMachine state (see machine.rs encode_into):
//!                    config, cycle, caches, predictor, per-thread
//!                    contexts (stream, wrong-path generator, window,
//!                    rename map, fetch and stall state, counters), the
//!                    int/fp/load-store queues, free registers, divider
//!                    reservations, pending syscalls, global counters,
//!                    dispatch FIFO
//! checksum u64       FNV-1a 64 of payload
//! ```

use crate::machine::SmtMachine;
use smt_isa::codec::{fnv1a_64, ByteReader, ByteWriter, CodecError};

/// Leading magic of every checkpoint container.
pub const MAGIC: [u8; 8] = *b"SMTCKPT\0";

/// Current container format version. Bump on any layout change — old
/// files then decode to [`CodecError::UnsupportedVersion`] and are
/// recomputed, never misinterpreted.
///
/// v2: `UopStream` state gained a leading backend tag (synthetic vs
/// trace replay), changing the thread payload layout.
///
/// v3: `ThreadCtx` gained `migration_stall_until` (cross-core migration
/// cold-frontend penalty), changing the thread payload layout.
///
/// v4: `ThreadCtx` dropped `min_done_at` (the per-thread completion
/// bound the completion calendar replaced), changing the thread payload
/// layout.
///
/// v5: the instruction-queue payload dropped the `deps_done` memo (an
/// entry's readiness is its rebuilt `pending == 0`), changing the int/fp
/// queue layout.
pub const FORMAT_VERSION: u32 = 5;

/// A captured warm machine state.
///
/// Cheap to clone (no instrumentation attached) and safe to share behind
/// an `Arc`: [`Self::restore`] takes `&self`.
#[derive(Clone, Debug)]
pub struct MachineSnapshot {
    state: SmtMachine,
}

impl MachineSnapshot {
    /// Capture `machine`'s complete simulated state. Instrumentation
    /// (event trace, slot attribution) is not part of the snapshot: the
    /// restored machine starts with both disabled, exactly like a machine
    /// that was never instrumented.
    pub fn capture(machine: &SmtMachine) -> Self {
        let mut state = machine.clone();
        state.disable_trace();
        state.disable_attr();
        MachineSnapshot { state }
    }

    /// A machine that will simulate bit-identically to the captured one.
    pub fn restore(&self) -> SmtMachine {
        self.state.clone()
    }

    /// Cycle count at capture time.
    pub fn cycle(&self) -> u64 {
        self.state.cycle()
    }

    /// Hardware contexts in the captured machine.
    pub fn n_threads(&self) -> usize {
        self.state.n_threads()
    }

    /// Serialize into the versioned, checksummed container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut pw = ByteWriter::with_capacity(64 << 10);
        self.state.encode_into(&mut pw);
        let payload = pw.into_bytes();
        let mut w = ByteWriter::with_capacity(payload.len() + 28);
        w.raw(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u64(payload.len() as u64);
        w.raw(&payload);
        w.u64(fnv1a_64(&payload));
        w.into_bytes()
    }

    /// Parse a container produced by [`Self::to_bytes`]. Every corruption
    /// mode returns an error: wrong magic, unknown version, truncation
    /// (length frame or payload), checksum mismatch, trailing bytes, and
    /// any structural inconsistency inside the payload itself.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let len = r.usize()?;
        let payload = r.take(len)?;
        let checksum = r.u64()?;
        r.finish()?;
        if fnv1a_64(payload) != checksum {
            return Err(CodecError::ChecksumMismatch);
        }
        let mut pr = ByteReader::new(payload);
        let state = SmtMachine::decode_from(&mut pr)?;
        pr.finish()?;
        Ok(MachineSnapshot { state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chooser::RoundRobin;
    use crate::config::SimConfig;
    use smt_isa::AppProfile;
    use smt_workloads::UopStream;
    use std::sync::Arc;

    fn machine(n: usize, seed: u64) -> SmtMachine {
        let streams = (0..n)
            .map(|i| {
                UopStream::new(
                    Arc::new(AppProfile::builder("t").build()),
                    seed + i as u64,
                    smt_workloads::thread_addr_base(i),
                )
            })
            .collect();
        SmtMachine::new(SimConfig::with_threads(n), streams)
    }

    #[test]
    fn restore_resumes_identically_in_memory() {
        let mut a = machine(2, 11);
        a.run(2_000, &mut RoundRobin);
        let snap = MachineSnapshot::capture(&a);
        let mut b = snap.restore();
        a.run(2_000, &mut RoundRobin);
        b.run(2_000, &mut RoundRobin);
        assert_eq!(a.total_committed(), b.total_committed());
        assert_eq!(a.global(), b.global());
        assert_eq!(a.counter_snapshot(), b.counter_snapshot());
    }

    #[test]
    fn binary_roundtrip_resumes_identically() {
        let mut a = machine(4, 13);
        a.run(3_000, &mut RoundRobin);
        let bytes = MachineSnapshot::capture(&a).to_bytes();
        let snap = MachineSnapshot::from_bytes(&bytes).expect("decode");
        assert_eq!(snap.cycle(), a.cycle());
        assert_eq!(snap.n_threads(), 4);
        let mut b = snap.restore();
        b.check_invariants();
        a.run(3_000, &mut RoundRobin);
        b.run(3_000, &mut RoundRobin);
        assert_eq!(a.total_committed(), b.total_committed());
        assert_eq!(a.global(), b.global());
        assert_eq!(a.counter_snapshot(), b.counter_snapshot());
    }

    #[test]
    fn capture_strips_instrumentation() {
        let mut m = machine(2, 17);
        m.enable_trace(128);
        m.enable_attr();
        m.run(500, &mut RoundRobin);
        let snap = MachineSnapshot::capture(&m);
        let restored = snap.restore();
        assert!(restored.trace().is_none());
        assert!(restored.attr().is_none());
        // The original keeps its instrumentation.
        assert!(m.trace().is_some());
    }

    #[test]
    fn serialization_is_deterministic() {
        let mut m = machine(2, 19);
        m.run(1_000, &mut RoundRobin);
        let a = MachineSnapshot::capture(&m).to_bytes();
        let b = MachineSnapshot::capture(&m).to_bytes();
        assert_eq!(a, b, "same state must serialize to identical bytes");
    }

    #[test]
    fn bad_magic_is_an_error() {
        let mut m = machine(1, 23);
        m.run(200, &mut RoundRobin);
        let mut bytes = MachineSnapshot::capture(&m).to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            MachineSnapshot::from_bytes(&bytes),
            Err(CodecError::BadMagic)
        ));
    }

    #[test]
    fn version_bump_is_an_error() {
        let mut m = machine(1, 23);
        m.run(200, &mut RoundRobin);
        let bytes = MachineSnapshot::capture(&m).to_bytes();
        // The previous layout (v4 still carried `deps_done`) and a
        // future one are both refused by version, before any decoding.
        for found in [FORMAT_VERSION - 1, FORMAT_VERSION + 1] {
            let mut old = bytes.clone();
            old[8..12].copy_from_slice(&found.to_le_bytes());
            match MachineSnapshot::from_bytes(&old) {
                Err(CodecError::UnsupportedVersion { found: f, expected }) => {
                    assert_eq!((f, expected), (found, FORMAT_VERSION));
                }
                other => panic!("v{found} container: expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_an_error_at_every_cut() {
        let mut m = machine(1, 29);
        m.run(200, &mut RoundRobin);
        let bytes = MachineSnapshot::capture(&m).to_bytes();
        // Exhaustive cuts are slow on a full snapshot; probe a spread.
        for frac in 1..20 {
            let cut = bytes.len() * frac / 20;
            assert!(
                MachineSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}/{} decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut m = machine(1, 31);
        m.run(200, &mut RoundRobin);
        let mut bytes = MachineSnapshot::capture(&m).to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            MachineSnapshot::from_bytes(&bytes),
            Err(CodecError::ChecksumMismatch)
        ));
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let mut m = machine(1, 37);
        m.run(200, &mut RoundRobin);
        let mut bytes = MachineSnapshot::capture(&m).to_bytes();
        bytes.push(0);
        assert!(MachineSnapshot::from_bytes(&bytes).is_err());
    }
}
