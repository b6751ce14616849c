//! Differential property tests for the multi-core allocation layer.
//!
//! [`MultiCoreMachine::apply_placement`] is the one new piece of machinery
//! a wrong line of which would silently corrupt cross-core experiments:
//! it decides extraction order, destination slots, penalty charging, and
//! migration accounting. The first group drives random allocation scripts
//! through `apply_placement` and, in parallel, through a test-side
//! reference that performs every re-placement by hand with the public
//! [`SmtMachine::migrate_out`]/[`SmtMachine::migrate_in`] thread-state
//! transfer on an identically constructed machine — per-thread
//! architectural counters must agree after every segment.
//!
//! The second group interrupts a run mid-migration (inside the
//! cold-frontend penalty window) with a [`MultiCoreSnapshot`] capture →
//! serialize → parse → restore round trip and demands the bytes be
//! bit-identical and the restored machine indistinguishable from the
//! uninterrupted one.

use proptest::prelude::*;
use smt_isa::Tid;
use smt_sim::{
    MigratedThread, MultiCoreMachine, MultiCoreSnapshot, RoundRobin, SimConfig, SmtMachine,
};
use smt_workloads::UopStream;
use std::sync::Arc;

fn synth(seed: u64, t: usize) -> UopStream {
    UopStream::new(
        Arc::new(smt_isa::AppProfile::builder("mc").build()),
        seed,
        smt_workloads::thread_addr_base(t),
    )
}

/// Initial placement: thread `g` on core `g % n_cores`, packed into the
/// lowest free slot — the same shape the allocation layer starts from.
fn initial_placement(n_threads: usize, n_cores: usize) -> Vec<(usize, usize)> {
    let mut next_slot = vec![0usize; n_cores];
    (0..n_threads)
        .map(|g| {
            let c = g % n_cores;
            let s = next_slot[c];
            next_slot[c] += 1;
            (c, s)
        })
        .collect()
}

/// Build one copy of the core set: every core has `n_threads` context
/// slots (full migration freedom); slot (c,s) hosting global thread `g`
/// gets that thread's stream, unoccupied slots get distinct placeholders.
fn build_cores(
    n_cores: usize,
    n_threads: usize,
    placement: &[(usize, usize)],
    seed: u64,
) -> Vec<SmtMachine> {
    let mut owner = vec![vec![None; n_threads]; n_cores];
    for (g, &(c, s)) in placement.iter().enumerate() {
        owner[c][s] = Some(g);
    }
    (0..n_cores)
        .map(|c| {
            let streams = (0..n_threads)
                .map(|s| match owner[c][s] {
                    Some(g) => synth(seed + g as u64, g),
                    None => synth(seed + 0xBEEF + (c * 8 + s) as u64, n_threads + c * 8 + s),
                })
                .collect();
            SmtMachine::new(SimConfig::with_threads(n_threads), streams)
        })
        .collect()
}

/// The reference re-placement: the same contract as `apply_placement`
/// (movers out in ascending global id, back in ascending global id to the
/// lowest free slot), executed by hand through the public single-core
/// migration API against an independently tracked placement map.
fn manual_place(
    m: &mut MultiCoreMachine,
    cur: &mut [(usize, usize)],
    new_cores: &[usize],
    penalty: u64,
) -> usize {
    let mut occupied = vec![vec![false; m.core(0).n_threads()]; m.n_cores()];
    for &(c, s) in cur.iter() {
        occupied[c][s] = true;
    }
    let mut in_transit: Vec<(usize, MigratedThread)> = Vec::new();
    for (g, &dst) in new_cores.iter().enumerate() {
        let (c, s) = cur[g];
        if c == dst {
            continue;
        }
        in_transit.push((g, m.core_mut(c).migrate_out(Tid(s as u8))));
        occupied[c][s] = false;
    }
    let moved = in_transit.len();
    for (g, thread) in in_transit {
        let dst = new_cores[g];
        let slot = occupied[dst].iter().position(|&o| !o).expect("free slot");
        occupied[dst][slot] = true;
        m.core_mut(dst).migrate_in(Tid(slot as u8), thread, penalty);
        cur[g] = (dst, slot);
    }
    moved
}

/// A random allocation script: per boundary, a destination-core pick for
/// every thread plus an odd-ish segment length.
fn arb_script() -> impl Strategy<Value = Vec<(Vec<u64>, u64)>> {
    prop::collection::vec((prop::collection::vec(0u64..64, 4..5), 20u64..350), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Random allocation scripts: after every segment, every thread's
    /// architectural counters under `apply_placement` equal the manual
    /// migrate_out/migrate_in reference, and the machine's placement and
    /// migration accounting match the test-side bookkeeping.
    #[test]
    fn apply_placement_matches_manual_snapshot_transfer(
        seed in 0u64..1_000,
        n_cores in 1usize..4,
        n_threads in 1usize..5,
        penalty in 0u64..600,
        script in arb_script(),
    ) {
        let placement = initial_placement(n_threads, n_cores);
        let mut prod = MultiCoreMachine::from_cores(
            build_cores(n_cores, n_threads, &placement, seed),
            placement.clone(),
            penalty,
        );
        let mut refm = MultiCoreMachine::from_cores(
            build_cores(n_cores, n_threads, &placement, seed),
            placement.clone(),
            penalty,
        );
        let mut cur = placement;
        let mut expected_migrations = vec![0u64; n_threads];
        let mut ch: Vec<RoundRobin> = vec![RoundRobin; n_cores];

        for (dests, cycles) in script {
            let dests: Vec<usize> = dests[..n_threads]
                .iter()
                .map(|&d| (d as usize) % n_cores)
                .collect();
            for (g, &dst) in dests.iter().enumerate() {
                if cur[g].0 != dst {
                    expected_migrations[g] += 1;
                }
            }
            let moved_prod = prod.apply_placement(&dests);
            let moved_ref = manual_place(&mut refm, &mut cur, &dests, penalty);
            prop_assert_eq!(moved_prod, moved_ref, "mover counts diverge");
            prop_assert_eq!(prod.placement(), &cur[..], "placements diverge");
            prod.run(cycles, &mut ch);
            refm.run(cycles, &mut ch);
            prod.check_invariants();
            refm.check_invariants();
            prop_assert_eq!(prod.cycle(), refm.cycle());
            for (g, &(c, s)) in cur.iter().enumerate().take(n_threads) {
                prop_assert_eq!(
                    prod.thread_counters(g),
                    refm.core(c).counters(Tid(s as u8)),
                    "thread {} counters diverge after segment at ({},{})",
                    g, c, s
                );
            }
        }
        prop_assert_eq!(prod.migrations(), &expected_migrations[..]);
        // Settle past any still-open penalty window: the machines must
        // remain in agreement and able to make forward progress.
        prod.run(2 * penalty + 1_000, &mut ch);
        refm.run(2 * penalty + 1_000, &mut ch);
        prop_assert_eq!(prod.counter_snapshot().cycle, refm.counter_snapshot().cycle);
        for (g, &(c, s)) in cur.iter().enumerate().take(n_threads) {
            prop_assert_eq!(prod.thread_counters(g), refm.core(c).counters(Tid(s as u8)));
        }
        prop_assert!(prod.total_committed() > 0, "script wedged the machine");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Interrupting a run *mid-migration* (inside the cold-frontend
    /// penalty) with capture → to_bytes → from_bytes → restore is
    /// invisible: the container round-trips bit-identically and the
    /// restored machine tracks the uninterrupted one counter-for-counter.
    #[test]
    fn snapshot_roundtrip_mid_migration_is_bit_identical(
        seed in 0u64..1_000,
        n_cores in 2usize..4,
        n_threads in 2usize..5,
        pre in 50u64..400,
        post in 50u64..400,
    ) {
        let placement = initial_placement(n_threads, n_cores);
        let mut m = MultiCoreMachine::from_cores(
            build_cores(n_cores, n_threads, &placement, seed),
            placement,
            10_000, // long penalty: the capture below lands mid-stall
        );
        let mut ch: Vec<RoundRobin> = vec![RoundRobin; n_cores];
        m.run(pre, &mut ch);
        // Force at least one migration so the penalty window is live.
        let mut dests: Vec<usize> = m.placement().iter().map(|&(c, _)| c).collect();
        dests[0] = (dests[0] + 1) % n_cores;
        prop_assert!(m.apply_placement(&dests) >= 1);

        let snap = MultiCoreSnapshot::capture(&m);
        let bytes = snap.to_bytes();
        let parsed = MultiCoreSnapshot::from_bytes(&bytes).expect("own bytes must parse");
        prop_assert_eq!(parsed.to_bytes(), bytes, "container round-trip not bit-identical");

        let mut restored = parsed.restore();
        m.run(post, &mut ch);
        restored.run(post, &mut ch);
        m.check_invariants();
        restored.check_invariants();
        prop_assert_eq!(m.counter_snapshot(), restored.counter_snapshot());
        prop_assert_eq!(m.placement(), restored.placement());
        prop_assert_eq!(m.migrations(), restored.migrations());
    }
}
