//! Negative-path suite for the `SMTMCKP` multi-core checkpoint container:
//! every corruption mode must surface as a typed
//! [`CodecError`](smt_isa::codec::CodecError) — never a panic, never a
//! silently-wrong machine.
//!
//! The container is `magic | version | n_cores | topology section |
//! alloc section | core sections…`, each section independently
//! length-framed and FNV-checksummed. The tests probe the framing
//! (truncation at every byte, trailing garbage, a lying core count), the
//! checksums (a flip at every byte, targeted per-core payload flips), the
//! header fields (foreign magic, future version), and the topology's
//! contents (a stale core payload version, out-of-range cores/slots,
//! doubly-assigned slots) — the latter by mutating the topology payload
//! and *restamping* its checksum, so validation and not the checksum is
//! what must catch it.

use smt_isa::codec::{fnv1a_64, CodecError};
use smt_sim::snapshot::FORMAT_VERSION;
use smt_sim::{
    MultiCoreMachine, MultiCoreSnapshot, RoundRobin, SimConfig, SmtMachine, MC_FORMAT_VERSION,
};
use smt_workloads::UopStream;
use std::sync::Arc;

fn synth(seed: u64, t: usize) -> UopStream {
    UopStream::new(
        Arc::new(smt_isa::AppProfile::builder("neg").build()),
        seed,
        smt_workloads::thread_addr_base(t),
    )
}

/// A structurally rich sample: 2 cores × 2 contexts, 3 threads, warm
/// caches, one completed migration (so the topology has non-trivial
/// migration counts and an in-flight penalty), and a non-empty
/// allocator blob.
fn sample_machine() -> MultiCoreMachine {
    let cfg = SimConfig::with_threads(2);
    let core0 = SmtMachine::new(cfg.clone(), vec![synth(1, 0), synth(3, 2)]);
    let core1 = SmtMachine::new(cfg, vec![synth(2, 1), synth(9, 5)]);
    let mut m = MultiCoreMachine::from_cores(vec![core0, core1], vec![(0, 0), (1, 0), (0, 1)], 128);
    let mut ch = [RoundRobin, RoundRobin];
    m.run(400, &mut ch);
    assert_eq!(m.apply_placement(&[0, 0, 1]), 2);
    m.run(40, &mut ch); // capture lands inside the penalty window
    m
}

const ALLOC_BLOB: &[u8] = b"\x01opaque-alloc-state\xff\x00tail";

fn sample_bytes() -> Vec<u8> {
    MultiCoreSnapshot::capture(&sample_machine(), ALLOC_BLOB.to_vec()).to_bytes()
}

/// Section layout helper: returns `(payload_start, payload_len)` of the
/// `idx`-th section (0 = topology, 1 = alloc blob, 2.. = cores), walking
/// the same framing `from_bytes` reads.
fn section_bounds(bytes: &[u8], idx: usize) -> (usize, usize) {
    let mut off = 16; // magic 8 | version 4 | n_cores 4
    for _ in 0..idx {
        let len = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()) as usize;
        off += 8 + len + 8;
    }
    let len = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()) as usize;
    (off + 8, len)
}

/// Mutate the topology payload in place, then restamp its checksum so the
/// semantic validator (not the checksum) has to reject the result.
fn with_restamped_topology(mut bytes: Vec<u8>, f: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let (start, len) = section_bounds(&bytes, 0);
    f(&mut bytes[start..start + len]);
    let sum = fnv1a_64(&bytes[start..start + len]);
    bytes[start + len..start + len + 8].copy_from_slice(&sum.to_le_bytes());
    bytes
}

#[test]
fn the_sample_is_valid_to_begin_with() {
    let m = sample_machine();
    let snap = MultiCoreSnapshot::capture(&m, ALLOC_BLOB.to_vec());
    let bytes = snap.to_bytes();
    let parsed = MultiCoreSnapshot::from_bytes(&bytes).expect("own bytes must parse");
    assert_eq!(parsed.alloc_state(), ALLOC_BLOB);
    assert_eq!(parsed.to_bytes(), bytes, "round trip must be bit-identical");
    let restored = parsed.restore();
    assert_eq!(restored.counter_snapshot(), m.counter_snapshot());
    assert_eq!(restored.placement(), m.placement());
    assert_eq!(restored.migrations(), &[0, 1, 1]);
}

/// Every structurally meaningful offset in the container: the header
/// bytes, and for each section its length field, payload edges and
/// middle, and stored checksum — plus an even spread across the file.
fn interesting_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offs: Vec<usize> = (0..16).collect(); // magic | version | n_cores
    for idx in 0..4 {
        let (start, len) = section_bounds(bytes, idx);
        offs.extend(start - 8..start); // the length field
        offs.extend([start, start + len / 3, start + len / 2, start + len - 1]);
        offs.extend(start + len..start + len + 8); // the stored checksum
    }
    for frac in 1..64 {
        offs.push(bytes.len() * frac / 64);
    }
    offs.sort_unstable();
    offs.dedup();
    offs.retain(|&o| o < bytes.len());
    offs
}

/// Truncation at every section cut (and a spread of interior cuts): each
/// proper prefix must decode to a typed, displayable error — never a
/// panic, never a valid container.
#[test]
fn truncation_at_every_section_cut_is_a_typed_error() {
    let bytes = sample_bytes();
    let mut cuts = interesting_offsets(&bytes);
    cuts.extend(interesting_offsets(&bytes).iter().map(|&o| o + 1));
    cuts.retain(|&c| c < bytes.len());
    for cut in cuts {
        let err = MultiCoreSnapshot::from_bytes(&bytes[..cut])
            .expect_err(&format!("prefix of {cut} bytes must not decode"));
        assert!(!err.to_string().is_empty());
    }
}

/// A flip at every structurally meaningful offset: the section checksums
/// plus the cross-checked framing leave no byte of the container
/// unprotected.
#[test]
fn byte_flips_at_every_structural_offset_are_detected() {
    let bytes = sample_bytes();
    for at in interesting_offsets(&bytes) {
        let mut bad = bytes.clone();
        bad[at] ^= 0x40;
        MultiCoreSnapshot::from_bytes(&bad)
            .expect_err(&format!("flip at byte {at} must be detected"));
    }
}

/// A payload flip inside each core's own section is that core's checksum
/// failure — corruption is localized to one section's verdict.
#[test]
fn per_core_payload_flips_fail_that_cores_checksum() {
    let bytes = sample_bytes();
    for core in 0..2 {
        let (start, len) = section_bounds(&bytes, 2 + core);
        assert!(len > 64, "core section implausibly small");
        for probe in [start, start + len / 2, start + len - 1] {
            let mut bad = bytes.clone();
            bad[probe] ^= 0x01;
            assert!(
                matches!(
                    MultiCoreSnapshot::from_bytes(&bad),
                    Err(CodecError::ChecksumMismatch)
                ),
                "core {core} flip at {probe} not a checksum mismatch"
            );
        }
    }
}

#[test]
fn foreign_magic_is_rejected() {
    let mut bytes = sample_bytes();
    bytes[..8].copy_from_slice(b"SMTTRACE");
    assert!(matches!(
        MultiCoreSnapshot::from_bytes(&bytes),
        Err(CodecError::BadMagic)
    ));
}

#[test]
fn future_version_is_rejected_with_both_versions_named() {
    let mut bytes = sample_bytes();
    let future = MC_FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&future.to_le_bytes());
    match MultiCoreSnapshot::from_bytes(&bytes) {
        Err(CodecError::UnsupportedVersion { found, expected }) => {
            assert_eq!(found, future);
            assert_eq!(expected, MC_FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// A container whose cores were written in an older `SmtMachine` layout
/// is refused by the core payload version its topology records (the
/// last four topology bytes), before any core is decoded.
#[test]
fn stale_core_payload_version_is_rejected_with_both_versions_named() {
    let stale = FORMAT_VERSION - 1;
    let bad = with_restamped_topology(sample_bytes(), |topo| {
        let at = topo.len() - 4;
        assert_eq!(topo[at..], FORMAT_VERSION.to_le_bytes());
        topo[at..].copy_from_slice(&stale.to_le_bytes());
    });
    match MultiCoreSnapshot::from_bytes(&bad) {
        Err(CodecError::UnsupportedVersion { found, expected }) => {
            assert_eq!((found, expected), (stale, FORMAT_VERSION));
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// The declared core count must agree with the sections actually present:
/// zero is semantically invalid, fewer leaves trailing bytes, more runs
/// off the end.
#[test]
fn core_count_mismatch_is_rejected() {
    let bytes = sample_bytes();

    let mut zero = bytes.clone();
    zero[12..16].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        MultiCoreSnapshot::from_bytes(&zero),
        Err(CodecError::Invalid(_))
    ));

    let mut fewer = bytes.clone();
    fewer[12..16].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        MultiCoreSnapshot::from_bytes(&fewer),
        Err(CodecError::TrailingBytes { .. })
    ));

    let mut more = bytes;
    more[12..16].copy_from_slice(&3u32.to_le_bytes());
    assert!(matches!(
        MultiCoreSnapshot::from_bytes(&more),
        Err(CodecError::Truncated { .. })
    ));
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = sample_bytes();
    bytes.extend_from_slice(b"\x00\xde\xad");
    assert!(matches!(
        MultiCoreSnapshot::from_bytes(&bytes),
        Err(CodecError::TrailingBytes { remaining: 3 })
    ));
}

// Topology payload layout (multicore.rs to_bytes): n_threads u64 |
// (core u32, slot u32) × n | penalty u64 | migrations u64 × n | L2… |
// core payload version u32.
// Thread g's core id therefore sits at payload offset 8 + 8g.

#[test]
fn placement_core_out_of_range_is_semantically_rejected() {
    let bad = with_restamped_topology(sample_bytes(), |topo| {
        topo[8..12].copy_from_slice(&7u32.to_le_bytes());
    });
    match MultiCoreSnapshot::from_bytes(&bad) {
        Err(CodecError::Invalid(msg)) => assert!(msg.contains("core 7"), "{msg}"),
        other => panic!("expected Invalid(core range), got {other:?}"),
    }
}

#[test]
fn placement_slot_out_of_range_is_semantically_rejected() {
    let bad = with_restamped_topology(sample_bytes(), |topo| {
        topo[12..16].copy_from_slice(&5u32.to_le_bytes());
    });
    match MultiCoreSnapshot::from_bytes(&bad) {
        Err(CodecError::Invalid(msg)) => assert!(msg.contains("slot 5"), "{msg}"),
        other => panic!("expected Invalid(slot range), got {other:?}"),
    }
}

#[test]
fn doubly_assigned_slot_is_semantically_rejected() {
    // After the [0,0,1] re-placement the sample's placement is
    // [(0,0),(0,1),(1,?)]; aliasing thread 1 onto thread 0's (0,0) slot
    // is a topology the machine could never reach.
    let bad = with_restamped_topology(sample_bytes(), |topo| {
        let g0: [u8; 8] = topo[8..16].try_into().unwrap();
        topo[16..24].copy_from_slice(&g0);
    });
    match MultiCoreSnapshot::from_bytes(&bad) {
        Err(CodecError::Invalid(msg)) => assert!(msg.contains("doubly assigned"), "{msg}"),
        other => panic!("expected Invalid(double assignment), got {other:?}"),
    }
}

#[test]
fn zero_threads_in_topology_is_semantically_rejected() {
    let bad = with_restamped_topology(sample_bytes(), |topo| {
        topo[..8].copy_from_slice(&0u64.to_le_bytes());
    });
    // With n_threads lying, the rest of the topology misparses one way or
    // another — what matters is a typed error, not a panic.
    assert!(MultiCoreSnapshot::from_bytes(&bad).is_err());
}
