//! Lockstep sweep cells: the `smt_sim::batch` drivers for this crate's
//! schedulers.
//!
//! A threshold×type sweep point is either a fixed-policy run
//! ([`crate::runner::run_fixed`]) or an adaptive run
//! ([`AdaptiveScheduler`]). [`PointCell`] wraps both behind one
//! [`LockstepCell`] implementation with a *shared* plan type
//! ([`QuantumPlan`]), so a fixed-ICOUNT cell and an adaptive cell that
//! has not (yet) switched away from ICOUNT group together and share all
//! simulation work.
//!
//! Equivalence contract (pinned by `tests/golden_batch.rs` and the
//! differential suites): driving a `PointCell` through
//! [`smt_sim::batch::run_scalar_quantum`] — and therefore through a
//! [`smt_sim::MachineBatch`] — produces a [`RunSeries`] bit-identical to
//! the scalar driver it replaces, and leaves the machine bit-identical
//! too.

use crate::adaptive::{AdaptiveScheduler, AdtsConfig, BoundaryActions, QuantumPlan};
use crate::indicators::{quantum_record, MachineSnapshot, QuantumStats};
use smt_policies::FetchPolicy;
use smt_sim::{LockstepCell, LockstepMachine, SmtMachine};
use smt_stats::RunSeries;

/// A fixed-policy sweep cell: replays exactly what
/// [`crate::runner::run_fixed`] records, one quantum per lockstep step.
#[derive(Clone, Debug)]
pub struct FixedCell {
    policy: FetchPolicy,
    quantum_cycles: u64,
    index: u64,
    before: Option<MachineSnapshot>,
    series: RunSeries,
}

impl FixedCell {
    pub fn new(policy: FetchPolicy, quantum_cycles: u64) -> Self {
        FixedCell {
            policy,
            quantum_cycles,
            index: 0,
            before: None,
            series: RunSeries::default(),
        }
    }
}

/// One sweep point driven in lockstep: fixed policy or adaptive ADTS.
///
/// Both variants share [`QuantumPlan`]/[`BoundaryActions`], so a batch
/// may hold any mixture; a fixed cell simply always plans
/// `switch: None` under its constant policy.
#[derive(Clone, Debug)]
pub enum PointCell {
    Fixed(FixedCell),
    /// Boxed: the scheduler (series, audit ring, …) dwarfs `FixedCell`.
    Adaptive(Box<AdaptiveScheduler>),
}

impl PointCell {
    /// Fixed-policy cell recording `run_fixed`-shaped quanta.
    pub fn fixed(policy: FetchPolicy, quantum_cycles: u64) -> Self {
        PointCell::Fixed(FixedCell::new(policy, quantum_cycles))
    }

    /// Adaptive cell around a fresh scheduler.
    pub fn adaptive(cfg: AdtsConfig, n_threads: usize) -> Self {
        PointCell::Adaptive(Box::new(AdaptiveScheduler::new(cfg, n_threads)))
    }

    /// The recorded series (consumes the cell).
    pub fn into_series(self) -> RunSeries {
        match self {
            PointCell::Fixed(c) => c.series,
            PointCell::Adaptive(s) => s.into_series(),
        }
    }
}

impl LockstepCell for PointCell {
    type Plan = QuantumPlan;
    type Boundary = BoundaryActions;

    fn plan(&mut self, machine: &SmtMachine) -> QuantumPlan {
        match self {
            PointCell::Fixed(c) => {
                c.before = Some(MachineSnapshot::take(machine));
                QuantumPlan {
                    quantum_cycles: c.quantum_cycles,
                    from: c.policy,
                    switch: None,
                }
            }
            PointCell::Adaptive(s) => s.plan_quantum(machine),
        }
    }

    fn execute(plan: &QuantumPlan, machine: &mut SmtMachine) {
        AdaptiveScheduler::execute_plans(std::slice::from_ref(plan), machine);
    }

    fn observe(&mut self, machine: &SmtMachine) -> BoundaryActions {
        match self {
            PointCell::Fixed(c) => {
                let before = c.before.take().expect("observe without plan");
                let stats = QuantumStats::per_core(&[before], machine.cores());
                c.series
                    .quanta
                    .push(quantum_record(c.index, c.policy.name(), &stats));
                c.index += 1;
                BoundaryActions::default()
            }
            PointCell::Adaptive(s) => s.observe_quantum(machine).1,
        }
    }

    fn apply_boundary(boundary: &BoundaryActions, machine: &mut SmtMachine) {
        AdaptiveScheduler::apply_boundary(boundary, machine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::HeuristicKind;
    use crate::runner::{machine_for_mix, run_fixed};
    use smt_sim::{run_scalar_quantum, MachineBatch};
    use smt_workloads::mix;

    const QC: u64 = 2048;

    fn test_mix() -> smt_workloads::Mix {
        mix(10).take_threads(2, 1)
    }

    fn adts(kind: HeuristicKind, m: f64) -> AdtsConfig {
        AdtsConfig {
            quantum_cycles: QC,
            ipc_threshold: m,
            heuristic: kind,
            ..Default::default()
        }
    }

    #[test]
    fn fixed_cell_reproduces_run_fixed() {
        let m = test_mix();
        let mut scalar = machine_for_mix(&m, 5);
        let expected = run_fixed(FetchPolicy::Icount, &mut scalar, 6, QC);

        let mut cell = PointCell::fixed(FetchPolicy::Icount, QC);
        let mut machine = machine_for_mix(&m, 5);
        for _ in 0..6 {
            run_scalar_quantum(&mut cell, &mut machine);
        }
        assert_eq!(cell.into_series(), expected);
        assert_eq!(machine.counter_snapshot(), scalar.counter_snapshot());
    }

    #[test]
    fn adaptive_cell_reproduces_run_quantum() {
        let m = test_mix();
        let mut scalar = machine_for_mix(&m, 6);
        let mut sched = AdaptiveScheduler::new(adts(HeuristicKind::Type3, 8.0), 2);
        for _ in 0..8 {
            sched.run_quantum(&mut scalar);
        }
        let expected = sched.into_series();

        let mut cell = PointCell::adaptive(adts(HeuristicKind::Type3, 8.0), 2);
        let mut machine = machine_for_mix(&m, 6);
        for _ in 0..8 {
            run_scalar_quantum(&mut cell, &mut machine);
        }
        assert_eq!(cell.into_series(), expected);
        assert_eq!(machine.counter_snapshot(), scalar.counter_snapshot());
    }

    #[test]
    fn batched_cells_match_their_scalar_runs() {
        let m = test_mix();
        // A mixed batch: one fixed baseline + adaptive cells whose
        // thresholds force divergence at different times.
        let build = || {
            vec![
                PointCell::fixed(FetchPolicy::Icount, QC),
                PointCell::adaptive(adts(HeuristicKind::Type3, 0.0), 2),
                PointCell::adaptive(adts(HeuristicKind::Type3, 8.0), 2),
                PointCell::adaptive(adts(HeuristicKind::Type1, 8.0), 2),
            ]
        };
        let quanta = 8;

        let scalar: Vec<RunSeries> = build()
            .into_iter()
            .map(|mut cell| {
                let mut machine = machine_for_mix(&m, 7);
                for _ in 0..quanta {
                    run_scalar_quantum(&mut cell, &mut machine);
                }
                cell.into_series()
            })
            .collect();

        let mut batch = MachineBatch::new(machine_for_mix(&m, 7), build());
        for _ in 0..quanta {
            batch.run_quantum();
        }
        let stats = batch.stats();
        let batched: Vec<RunSeries> = batch
            .into_cells()
            .into_iter()
            .map(PointCell::into_series)
            .collect();

        assert_eq!(batched, scalar);
        // The m=0 adaptive cell never switches, so it must have shared
        // every quantum with the fixed-ICOUNT cell.
        assert!(
            stats.machine_quanta < stats.cell_quanta,
            "no sharing happened: {stats:?}"
        );
    }

    #[test]
    fn never_switching_cells_stay_in_one_group() {
        let m = test_mix();
        let cells = vec![
            PointCell::fixed(FetchPolicy::Icount, QC),
            PointCell::adaptive(adts(HeuristicKind::Type3, 0.0), 2),
            PointCell::adaptive(adts(HeuristicKind::Type4, 0.0), 2),
        ];
        let mut batch = MachineBatch::new(machine_for_mix(&m, 8), cells);
        for _ in 0..5 {
            batch.run_quantum();
        }
        let stats = batch.stats();
        assert_eq!(batch.n_groups(), 1, "m=0 never switches, so no forks");
        assert_eq!(stats.machine_quanta, 5);
        assert_eq!(stats.cell_quanta, 15);
        assert_eq!(stats.plan_forks + stats.boundary_forks, 0);
    }
}
