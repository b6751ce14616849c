//! Property-based tests on the machine's structural models.

use proptest::prelude::*;
use smt_isa::{BranchKind, MicroOp, Tid};
use smt_sim::inflight::{find_seq, InFlight, Stage, NO_WAKE};
use smt_sim::{BranchPredictor, Cache, CacheGeometry, Hierarchy, SimConfig};
use std::collections::VecDeque;

/// The reference lookup: binary search of each contiguous part of the
/// ring, as `find_seq` did before its O(1) probes.
fn find_seq_by_search(window: &VecDeque<InFlight>, seq: u64) -> Option<usize> {
    let (a, b) = window.as_slices();
    if let Ok(i) = a.binary_search_by_key(&seq, |op| op.seq) {
        return Some(i);
    }
    b.binary_search_by_key(&seq, |op| op.seq)
        .ok()
        .map(|i| a.len() + i)
}

fn inflight(seq: u64) -> InFlight {
    InFlight {
        seq,
        uop: MicroOp::nop(seq * 4),
        wrong_path: false,
        deps: [None, None],
        stage: Stage::FrontEnd { ready_at: 0 },
        mispredicted: false,
        dmiss: false,
        pht_index: 0,
        history_at_fetch: 0,
        fetched_at: 0,
        wake_head: NO_WAKE,
    }
}

fn arb_geom() -> impl Strategy<Value = CacheGeometry> {
    (5u32..8, 0u32..4, 1u32..4).prop_map(|(log_line, log_ways, log_sets_extra)| {
        let line_bytes = 1usize << log_line;
        let ways = 1usize << log_ways;
        let sets = 1usize << (log_sets_extra + 2);
        CacheGeometry {
            size_bytes: sets * ways * line_bytes,
            line_bytes,
            ways,
            hit_latency: 1,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn cache_access_is_idempotent_hit(geom in arb_geom(), addr in 0u64..1_000_000) {
        let mut c = Cache::new(geom);
        let _ = c.access(addr);
        prop_assert!(c.access(addr), "second access to same line must hit");
        prop_assert!(c.contains(addr));
    }

    #[test]
    fn cache_same_line_aliases(geom in arb_geom(), addr in 0u64..1_000_000, off in 0u64..64) {
        let mut c = Cache::new(geom);
        let line = geom.line_bytes as u64;
        let base = addr & !(line - 1);
        let _ = c.access(base);
        prop_assert!(c.access(base + (off % line)), "same-line access must hit");
    }

    #[test]
    fn cache_holds_at_least_ways_distinct_lines_per_set(geom in arb_geom(), base in 0u64..4096) {
        // Accessing exactly `ways` lines that map to the same set must not
        // evict any of them (LRU with capacity = ways).
        let mut c = Cache::new(geom);
        let set_stride = (geom.size_bytes / geom.ways) as u64;
        let aligned = base & !(geom.line_bytes as u64 - 1);
        for w in 0..geom.ways as u64 {
            c.access(aligned + w * set_stride);
        }
        for w in 0..geom.ways as u64 {
            prop_assert!(c.contains(aligned + w * set_stride), "way {w} evicted");
        }
    }

    #[test]
    fn cache_miss_count_bounded_by_accesses(geom in arb_geom(), addrs in prop::collection::vec(0u64..100_000, 1..200)) {
        let mut c = Cache::new(geom);
        for a in &addrs {
            let _ = c.access(*a);
        }
        prop_assert_eq!(c.accesses, addrs.len() as u64);
        prop_assert!(c.misses <= c.accesses);
        prop_assert!((0.0..=1.0).contains(&c.miss_ratio()));
    }

    #[test]
    fn hierarchy_l2_catches_l1_evictions(addr in 0u64..1_000_000) {
        let small = CacheGeometry { size_bytes: 512, line_bytes: 64, ways: 2, hit_latency: 1 };
        let big = CacheGeometry { size_bytes: 64 << 10, line_bytes: 64, ways: 8, hit_latency: 10 };
        let mut h = Hierarchy::new(small, small, big, 80);
        let _ = h.data(addr);
        // Thrash L1 with conflicting lines.
        for i in 1..=2u64 {
            let _ = h.data(addr ^ (i * 256));
        }
        let r = h.data(addr);
        prop_assert!(!r.l2_miss, "L2 must retain a recently-filled line");
    }

    #[test]
    fn predictor_trains_toward_constant_direction(
        pc in 0u64..100_000,
        taken in any::<bool>(),
        reps in 4u32..32,
    ) {
        let mut p = BranchPredictor::new(&SimConfig::default());
        let mut last = None;
        for _ in 0..reps {
            let pr = p.predict(Tid(0), pc * 4, BranchKind::Conditional, taken, true);
            p.train(pc * 4, pr.pht_index, taken);
            last = Some(pr.taken);
        }
        // After ≥4 consistent trainings, prediction matches the direction.
        prop_assert_eq!(last, Some(taken));
    }

    #[test]
    fn history_repair_restores_exact_register(
        pc in 0u64..10_000,
        hist_bits in prop::collection::vec(any::<bool>(), 0..12),
    ) {
        let mut p = BranchPredictor::new(&SimConfig::default());
        for b in &hist_bits {
            let _ = p.predict(Tid(1), pc * 4, BranchKind::Conditional, *b, true);
        }
        let pr = p.predict(Tid(1), pc * 4 + 8, BranchKind::Conditional, true, true);
        // Garbage wrong-path updates...
        for _ in 0..7 {
            let _ = p.predict(Tid(1), pc * 4 + 16, BranchKind::Conditional, false, false);
        }
        // ...then the squash repair: history must equal fetch-time value
        // plus the architectural outcome bit.
        p.repair_history(Tid(1), pr.history_at_fetch, Some(true));
        let after = p.predict(Tid(1), pc * 4 + 8, BranchKind::Conditional, true, true);
        prop_assert_eq!(
            after.history_at_fetch,
            ((pr.history_at_fetch << 1) | 1) & ((1 << 12) - 1)
        );
    }

    #[test]
    fn find_seq_agrees_with_binary_search(
        first in 0u64..1_000,
        gaps in 0usize..3,
        big in prop::collection::vec(2u64..40, 1..160),
        at in 0usize..160,
        rotate in 0usize..160,
    ) {
        // Seq steps between consecutive ops: none, one or many gaps (a
        // step above 1 is a squash's gap).
        let steps: Vec<u64> = match gaps {
            0 => vec![1; big.len()],
            1 => (0..big.len()).map(|i| if i == at % big.len() { big[i] } else { 1 }).collect(),
            _ => big.iter().map(|&s| if s % 3 == 0 { s } else { 1 }).collect(),
        };
        // Rotating the ring's start before filling it makes the window
        // wrap at an arbitrary point, so `as_slices` splits it in two.
        let mut w: VecDeque<InFlight> = VecDeque::with_capacity(160);
        for _ in 0..rotate {
            w.push_back(inflight(0));
            w.pop_front();
        }
        let mut seq = first;
        for step in &steps {
            w.push_back(inflight(seq));
            seq += step;
        }
        let back = w.back().unwrap().seq;
        for probe in first.saturating_sub(3)..=back + 3 {
            prop_assert_eq!(find_seq(&w, probe), find_seq_by_search(&w, probe), "seq {}", probe);
        }
        prop_assert_eq!(find_seq(&VecDeque::new(), first), None);
    }
}
