//! Absolute speedup floors of the three host-side accelerations. Each
//! floor is a wall-time ratio of two runs on the same host, so it holds
//! on any machine:
//!
//! - warm pool: the threshold×type sweep cold (pool off) vs warm (empty
//!   pool, one warmup per mix) is at least [`MIN_SWEEP_SPEEDUP`];
//! - lockstep batching: the sweep's 26 cells of one mix stepped scalar vs
//!   as one `MachineBatch` from the same warm snapshot is at least
//!   [`MIN_BATCH_SPEEDUP`];
//! - cycle skipping: ICOUNT on MIX13 at one thread with 600-cycle memory,
//!   skip off vs skip on, is at least [`MIN_SKIP_SPEEDUP`].
//!
//! Each floor runs [`TRIALS`] interleaved trials (both sides back to back
//! per trial) and compares the median ratio with the floor. Every trial
//! also asserts its non-timing clauses: both sides give bit-identical
//! results, and the warm pass warms each mix exactly once.
//!
//! Wall-clock ratios need a quiet, single-worker process, so the tests
//! are ignored by default. Run them by name, in release mode:
//!
//! ```text
//! cargo test --release -p smt-bench --test speedup_floors -- --ignored --test-threads=1
//! ```
//!
//! Absolute throughput is judged elsewhere: `smtbench` (see
//! `smtbench/README.md`) times the same shapes on parent vs change.

use adts_core::HeuristicKind;
use smt_bench::sweep::{self, SweepConfig};
use smt_bench::{run_mix_batch, sweep_point_cells, threshold_type_sweep_with, warm};
use smt_bench::{ExpParams, ThresholdTypeSweep};
use smt_policies::{FetchPolicy, Tsu};
use smt_sim::snapshot::MachineSnapshot;
use smt_sim::{run_scalar_quantum, SimConfig, SmtMachine};
use smt_stats::RunSeries;
use smt_workloads::mix;
use std::sync::{Mutex, MutexGuard, Once};
use std::time::Instant;

const MIN_SWEEP_SPEEDUP: f64 = 2.0;
const MIN_BATCH_SPEEDUP: f64 = 3.0;
const MIN_SKIP_SPEEDUP: f64 = 1.5;
const TRIALS: usize = 3;

/// The sweep and batch floors' parameters: one mix at short quanta, so a
/// trial takes seconds.
fn quick_params() -> ExpParams {
    ExpParams {
        seed: 42,
        warmup_quanta: 12,
        quanta: 4,
        quantum_cycles: 2048,
        mix_ids: vec![1],
    }
}

/// Serializes the tests, which share the process-wide warm pool, and
/// runs sweeps on one worker with no result cache, so the ratios time
/// simulation rather than cache hits or scheduling.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    static ENGINE: Once = Once::new();
    ENGINE.call_once(|| {
        sweep::configure(SweepConfig {
            jobs: Some(1),
            cache_dir: None,
            telemetry_path: None,
        })
    });
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Runs `trial` [`TRIALS`] times and asserts that the median of the
/// returned ratios clears `floor`.
fn assert_median_floor(what: &str, floor: f64, mut trial: impl FnMut() -> f64) {
    let mut ratios: Vec<f64> = (0..TRIALS).map(|_| trial()).collect();
    eprintln!("{what}: trials {ratios:.2?}");
    ratios.sort_by(f64::total_cmp);
    let median = ratios[TRIALS / 2];
    assert!(
        median >= floor,
        "{what}: median speedup {median:.2}x below the {floor:.1}x floor (trials {ratios:.2?})"
    );
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

#[test]
#[ignore = "timing; run by name in CI"]
fn warm_pool_sweep_clears_its_floor() {
    let _guard = exclusive();
    let p = quick_params();
    // Both passes take the scalar path: batching warms each mix once
    // whatever the pool does, which would hide what this floor measures.
    assert_median_floor("cold→warm sweep", MIN_SWEEP_SPEEDUP, || {
        warm::set_enabled(false);
        let (cold, cold_s) = timed(|| threshold_type_sweep_with(&p, false));
        warm::set_enabled(true);
        warm::reset_pool();
        let (warmed, warm_s) = timed(|| threshold_type_sweep_with(&p, false));
        assert_eq!(
            warm::stats().warmups,
            p.mix_ids.len() as u64,
            "the warm pass must warm each mix exactly once"
        );
        assert!(
            sweep_bits(&warmed) == sweep_bits(&cold),
            "warm sweep diverged from the cold one"
        );
        cold_s / warm_s
    });
}

#[test]
#[ignore = "timing; run by name in CI"]
fn batched_sweep_cells_clear_their_floor() {
    let _guard = exclusive();
    let p = quick_params();
    let mix = &p.mixes()[0];
    let thresholds = [1.0, 2.0, 3.0, 4.0, 5.0];
    let kinds = HeuristicKind::ALL;
    // Warm up outside the timed regions: both sides then restore the same
    // snapshot, and the ratio times stepping alone.
    warm::set_enabled(true);
    warm::reset_pool();
    let template = warm::warmed_machine(mix, &p);
    assert_median_floor("batched vs scalar", MIN_BATCH_SPEEDUP, || {
        let (scalar, scalar_s) = timed(|| {
            sweep_point_cells(template.n_threads(), &thresholds, &kinds, &p)
                .into_iter()
                .map(|mut cell| {
                    let mut m = template.clone();
                    for _ in 0..p.quanta {
                        run_scalar_quantum(&mut cell, &mut m);
                    }
                    cell.into_series()
                })
                .collect::<Vec<RunSeries>>()
        });
        let ((batched, stats), batch_s) = timed(|| run_mix_batch(mix, &thresholds, &kinds, &p));
        assert!(batched == scalar, "batched cells diverged from scalar");
        assert!(
            stats.machine_quanta < stats.cell_quanta,
            "no machine sharing happened: {stats:?}"
        );
        scalar_s / batch_s
    });
}

#[test]
#[ignore = "timing; run by name in CI"]
fn cycle_skipping_on_long_memory_clears_its_floor() {
    let _guard = exclusive();
    // One memory-bound thread on a 600-cycle memory: stall windows
    // stretch to the miss latency and dominate wall time.
    let m = mix(13).take_threads(1, 7);
    let mut cfg = SimConfig::with_threads(1);
    cfg.mem_latency = 600;
    let tsu = Tsu::new(FetchPolicy::Icount, 1);
    let mut warmed = SmtMachine::new(cfg, m.streams(42));
    warmed.run(20_000, &mut { tsu });
    assert_median_floor("skip on vs off (MIX13_t1_mem600)", MIN_SKIP_SPEEDUP, || {
        let mut off = warmed.clone();
        off.set_skip_enabled(false);
        let ((), step_s) = timed(|| off.run(150_000, &mut { tsu }));
        let mut on = warmed.clone();
        on.set_skip_enabled(true);
        let ((), skip_s) = timed(|| on.run(150_000, &mut { tsu }));
        assert!(
            MachineSnapshot::capture(&off).to_bytes() == MachineSnapshot::capture(&on).to_bytes()
                && off.counter_snapshot() == on.counter_snapshot(),
            "skip-on state diverged from cycle-by-cycle stepping"
        );
        step_s / skip_s
    });
}
