//! Integration tests of the sweep engine against real simulations: worker
//! counts must not change results, panics must stay confined to their
//! point, a warm cache must replay bit-identically, the warm pool and
//! checkpoint store must not change sweep results, and telemetry must be
//! valid JSONL.

use smt_bench::sweep::{point_key, run_isolated, SweepConfig, SweepEngine, TelemetryRecord};
use smt_bench::{fixed_series, threshold_type_sweep_with, warm, ExpParams, ThresholdTypeSweep};
use smt_policies::FetchPolicy;
use smt_stats::RunSeries;
use smt_workloads::mix;
use std::path::PathBuf;

fn tiny_params() -> ExpParams {
    ExpParams {
        seed: 42,
        warmup_quanta: 1,
        quanta: 5,
        quantum_cycles: 2048,
        mix_ids: vec![1],
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("smt-adts-sweep-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The satellite determinism requirement: pushing the same seeded points
/// through the executor with 1, 2 and 8 workers yields byte-identical
/// serialized `RunSeries` in the same order.
#[test]
fn worker_count_does_not_change_serialized_results() {
    let p = tiny_params();
    let points: Vec<(usize, FetchPolicy)> = vec![
        (1, FetchPolicy::Icount),
        (9, FetchPolicy::BrCount),
        (13, FetchPolicy::L1MissCount),
        (5, FetchPolicy::RoundRobin),
    ];
    let sweep_with = |jobs: usize| -> Vec<String> {
        run_isolated(&points, jobs, |&(mi, policy)| {
            let sub = mix(mi).take_threads(4, p.seed);
            serde::json::to_string(&fixed_series(&sub, policy, &p))
        })
        .into_iter()
        .map(|r| r.expect("no point panics"))
        .collect()
    };
    let serial = sweep_with(1);
    assert_eq!(
        sweep_with(2),
        serial,
        "2 workers must replay the serial bytes"
    );
    assert_eq!(
        sweep_with(8),
        serial,
        "8 workers must replay the serial bytes"
    );
    // Distinct points must actually be distinct runs, or the assertion
    // above would be vacuous.
    assert_ne!(serial[0], serial[1]);
}

/// A poisoned simulation point fails alone; its siblings' results survive
/// and arrive in order.
#[test]
fn poisoned_simulation_point_fails_alone() {
    let p = tiny_params();
    let points = vec![1usize, 9, 13];
    let results = run_isolated(&points, 2, |&mi| {
        if mi == 9 {
            panic!("injected failure for mix {mi}");
        }
        let sub = mix(mi).take_threads(2, p.seed);
        fixed_series(&sub, FetchPolicy::Icount, &p).aggregate_ipc()
    });
    assert_eq!(results.len(), 3);
    assert!(results[0].as_ref().is_ok_and(|ipc| *ipc > 0.0));
    let err = results[1].as_ref().expect_err("mix 9 was poisoned");
    assert_eq!(err.index, 1);
    assert!(
        err.message.contains("injected failure for mix 9"),
        "{}",
        err.message
    );
    assert!(results[2].as_ref().is_ok_and(|ipc| *ipc > 0.0));
}

/// The tentpole acceptance path in miniature: a cold pass simulates and
/// stores, a warm pass must not simulate at all and must reproduce the
/// exact bytes.
#[test]
fn warm_cache_replays_real_run_bit_identically() {
    let dir = tmp_dir("warm");
    let p = tiny_params();
    let sub = mix(13).take_threads(2, p.seed);
    let key = point_key("fixed", &sub, &p, &FetchPolicy::Icount);
    let run_pass = |may_simulate: bool| -> String {
        let engine = SweepEngine::new(SweepConfig {
            jobs: Some(1),
            cache_dir: Some(dir.clone()),
            telemetry_path: None,
        });
        let series = engine.run_series("fixed", "MIX13/ICOUNT", key, || {
            assert!(may_simulate, "warm pass must be served from the cache");
            let mut m = adts_core::machine_for_mix(&sub, p.seed);
            let _ = adts_core::run_fixed(
                FetchPolicy::Icount,
                &mut m,
                p.warmup_quanta,
                p.quantum_cycles,
            );
            adts_core::run_fixed(FetchPolicy::Icount, &mut m, p.quanta, p.quantum_cycles)
        });
        serde::json::to_string(&series)
    };
    let cold = run_pass(true);
    let warm = run_pass(false);
    assert_eq!(
        cold, warm,
        "cache hit must be byte-identical to the simulated result"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every run appends one parseable telemetry record whose aggregates match
/// the series it describes.
#[test]
fn telemetry_lines_are_valid_and_match_the_run() {
    let dir = tmp_dir("telemetry");
    let path = dir.join("telemetry.jsonl");
    let p = tiny_params();
    let sub = mix(1).take_threads(2, p.seed);
    let engine = SweepEngine::new(SweepConfig {
        jobs: Some(1),
        cache_dir: None,
        telemetry_path: Some(path.clone()),
    });
    engine.begin_scope("it_telemetry");
    let key = point_key("fixed", &sub, &p, &FetchPolicy::Icount);
    let series: RunSeries = engine.run_series("fixed", "MIX01/ICOUNT", key, || {
        let mut m = adts_core::machine_for_mix(&sub, p.seed);
        adts_core::run_fixed(FetchPolicy::Icount, &mut m, p.quanta, p.quantum_cycles)
    });
    let text = std::fs::read_to_string(&path).expect("telemetry file exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1);
    let record: TelemetryRecord = serde::json::from_str(lines[0]).expect("line is valid JSON");
    assert_eq!(record.experiment, "it_telemetry");
    assert_eq!(record.kind, "fixed");
    assert_eq!(record.point, "MIX01/ICOUNT");
    assert_eq!(record.key, key.hex());
    assert_eq!(record.quanta, series.quanta.len());
    assert_eq!(record.aggregate_ipc, series.aggregate_ipc());
    assert_eq!(record.per_quantum_ipc.len(), series.quanta.len());
    let summary = engine.scope_summary();
    assert!(
        summary.contains("it_telemetry") && summary.contains("1 points"),
        "{summary}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Empty and single-item sweeps terminate and preserve shape (the executor
/// edge cases the old `par_map` handled, now with panic isolation on).
#[test]
fn empty_and_single_item_sweeps_work() {
    let none: Vec<u32> = Vec::new();
    assert!(run_isolated(&none, 4, |&x| x).is_empty());
    let p = tiny_params();
    let one = run_isolated(&[13usize], 4, |&mi| {
        let sub = mix(mi).take_threads(2, p.seed);
        fixed_series(&sub, FetchPolicy::Icount, &p).aggregate_ipc()
    });
    assert_eq!(one.len(), 1);
    assert!(one[0].as_ref().is_ok_and(|ipc| *ipc > 0.0));
}

/// Every result of a sweep, floats by their bits.
fn sweep_bits(sw: &ThresholdTypeSweep) -> Vec<u64> {
    let mut bits: Vec<u64> = sw.icount.iter().map(|v| v.to_bits()).collect();
    for c in sw.cells.iter().flatten().flatten() {
        bits.extend([
            c.ipc.to_bits(),
            c.switches as u64,
            c.judged as u64,
            c.benign as u64,
        ]);
    }
    bits
}

/// The warm pool and the checkpoint store change how sweep points warm
/// up, never what they compute: the scalar threshold×type sweep with the
/// pool off, with an empty pool writing to the store, and with the pool
/// cleared so warm state restores from the store gives bit-identical
/// results. Warmup and restore counts are not asserted: the other tests
/// in this process share the pool.
#[test]
fn sweep_results_are_bit_identical_across_pool_and_store_passes() {
    let p = ExpParams {
        seed: 42,
        warmup_quanta: 12,
        quanta: 4,
        quantum_cycles: 2048,
        mix_ids: vec![1],
    };
    let dir = tmp_dir("ckpt");
    warm::set_enabled(false);
    let cold = sweep_bits(&threshold_type_sweep_with(&p, false));
    warm::set_enabled(true);
    warm::reset_pool();
    warm::configure_store(Some(dir.clone()));
    let stored = sweep_bits(&threshold_type_sweep_with(&p, false));
    warm::reset_pool();
    let restored = sweep_bits(&threshold_type_sweep_with(&p, false));
    warm::configure_store(None);
    warm::reset_pool();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        stored == cold,
        "pool-plus-store pass diverged from pool-off"
    );
    assert!(
        restored == cold,
        "store-restore pass diverged from pool-off"
    );
}
