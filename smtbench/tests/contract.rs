//! What the benchmark guarantees: it times the work users run, counts
//! failures against points attempted, repeats per seed, and its traced
//! self times add up to the traced wall time.
//!
//! Run with `cargo test --release --manifest-path smtbench/Cargo.toml`.

use smt_bench::exp;
use smtbench::drive::{check_user_path, simulate};
use smtbench::pass::{run_pass, score, PassResult};
use smtbench::recorded;
use smtbench::spec::{Kind, PointSpec, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use smtbench::trace::budget;

/// Largest |Σ per-layer self time − root wall| / root wall accepted.
const BUDGET_TOLERANCE: f64 = 0.01;

fn reduced(kind: Kind, seed: u64) -> Workload {
    Workload::with_params(kind, kind.reduced_params(seed))
}

fn digests(pass: &PassResult) -> Vec<u64> {
    pass.outcomes
        .iter()
        .map(|o| o.as_ref().expect("point succeeded").digest)
        .collect()
}

#[test]
fn every_driver_matches_the_user_path() {
    for kind in Kind::ALL {
        let w = reduced(kind, DEFAULT_SEED);
        check_user_path(&w).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    }
}

#[test]
fn fixed_dense_reproduces_table1() {
    let w = reduced(Kind::FixedDense, DEFAULT_SEED);
    let table = exp::table1(&w.params).render();
    for point in &w.points {
        let PointSpec::Fixed { mix, policy } = &point.spec else {
            unreachable!("fixed_dense has fixed points only");
        };
        let col = 1 + smt_policies::FetchPolicy::ALL
            .iter()
            .position(|p| p == policy)
            .expect("policy in ALL");
        let row: Vec<&str> = table
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|cells| cells.first() == Some(&mix.name.as_str()))
            .expect("mix row in table1");
        for traced in [false, true] {
            let (series, _) = simulate(point, &w.params, traced);
            let ipc = format!("{:.3}", series[0].aggregate_ipc());
            assert_eq!(row[col], ipc, "{} traced={traced}", point.label);
        }
    }
}

#[test]
fn one_injected_failure_counts_once_and_the_run_continues() {
    let w = reduced(Kind::MemStall, DEFAULT_SEED);
    let n = w.points.len() as u64;
    let clean = run_pass(&w, false, None);
    for traced in [false, true] {
        let faulty = run_pass(&w, traced, Some(1));
        assert!(faulty.outcomes[1].is_err());
        for (i, o) in faulty.outcomes.iter().enumerate() {
            if i != 1 {
                assert!(o.is_ok(), "sibling point {i} lost");
            }
        }
        let passes = [run_pass(&w, false, None), faulty];
        let s = score(&w, &passes, None);
        assert_eq!((s.attempted, s.failed), (2 * n, 1), "{:?}", s.failures);
        assert!((s.fail_frac() - 1.0 / (2 * n) as f64).abs() < 1e-12);
    }
    // A digest that differs from the recorded one fails that point only.
    let mut wrong = digests(&clean);
    wrong[2] ^= 1;
    let s = score(&w, &[clean], Some(&wrong));
    assert_eq!((s.attempted, s.failed), (n, 1), "{:?}", s.failures);
}

#[test]
fn digests_repeat_per_seed_and_differ_across_seeds() {
    for kind in Kind::ALL {
        let w = reduced(kind, DEFAULT_SEED);
        let a = digests(&run_pass(&w, false, None));
        let b = digests(&run_pass(&w, false, None));
        assert_eq!(a, b, "{}: seed {DEFAULT_SEED} repeats", kind.name());
        let held = digests(&run_pass(&reduced(kind, HELD_OUT_SEED), false, None));
        for (i, (x, y)) in a.iter().zip(&held).enumerate() {
            assert_ne!(x, y, "{} point {i}: seeds must differ", kind.name());
        }
    }
}

#[test]
fn traced_self_times_sum_to_wall_and_digests_match() {
    for kind in Kind::ALL {
        let w = reduced(kind, DEFAULT_SEED);
        let plain = run_pass(&w, false, None);
        let traced = run_pass(&w, true, None);
        assert_eq!(digests(&plain), digests(&traced), "{}", kind.name());
        let b = budget(&traced.spans);
        assert!(b.root_wall_s > 0.0);
        assert!(
            b.err_frac() <= BUDGET_TOLERANCE,
            "{}: self times {:?} vs wall {}",
            kind.name(),
            b.self_s,
            b.root_wall_s
        );
        let names: Vec<&str> = traced.spans.iter().map(|s| s.name).collect();
        for want in ["workload", "point", "warm", "step"] {
            assert!(names.contains(&want), "{}: no {want} span", kind.name());
        }
        if kind == Kind::AdtsSweep {
            for want in ["quantum", "plan", "observe"] {
                assert!(names.contains(&want), "adts_sweep: no {want} span");
            }
        }
    }
}

#[test]
fn both_seeds_are_recorded_and_the_default_replays() {
    for kind in Kind::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            assert!(
                recorded::lookup(&Workload::new(kind, seed)).is_some(),
                "{} seed {seed} not recorded",
                kind.name()
            );
        }
    }
    let w = Workload::new(Kind::MemStall, DEFAULT_SEED);
    let rec = recorded::lookup(&w).expect("recorded");
    assert_eq!(digests(&run_pass(&w, false, None)), rec);
}
