//! Point drivers: what one point simulates, untraced and traced.
//!
//! Untraced, a point makes exactly the calls a user's run makes:
//! `warm::warmed_machine` then `run_fixed`, or a `MachineBatch` of
//! `PointCell`s. Traced, the same work runs through wrappers that open a
//! span around each call into a layer; `check_user_path` and the
//! benchmark's tests pin both modes to the user-facing functions.

use crate::spec::{Kind, Point, PointSpec, Workload};
use crate::trace::{self, Aggregate, Counts, Layer};
use adts_core::{
    machine_for_mix_with, run_fixed, BoundaryActions, MachineSnapshot, PointCell, QuantumPlan,
    QuantumStats,
};
use smt_bench::{exp, warm, ExpParams};
use smt_isa::Tid;
use smt_policies::{FetchPolicy, Tsu};
use smt_sim::{BatchStats, FetchChooser, LockstepCell, MachineBatch, PolicyView, SmtMachine};
use smt_stats::{QuantumRecord, RunSeries};
use std::time::Instant;

/// What a point delivered, reduced to what the benchmark checks and counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PointOutcome {
    /// FNV-1a digest of every simulated result of the point.
    pub digest: u64,
    /// Simulated cycles delivered: each series counts its own.
    pub cycles: u64,
    pub committed: u64,
    pub switches: u64,
    /// Switches whose outcome was known by the end of the run.
    pub judged: u64,
    pub benign: u64,
    /// Batch sharing counters (zero for unbatched points).
    pub batch: BatchStats,
}

/// Machine counters a span records the change of.
fn counts_of(m: &SmtMachine) -> Counts {
    Counts {
        cycles: m.cycle(),
        skipped: m.skipped_cycles(),
        uops: (0..m.n_threads())
            .map(|t| m.stream_generated(Tid(t as u8)))
            .sum(),
        decisions: 0,
    }
}

fn counts_since(before: Counts, m: &SmtMachine) -> Counts {
    let after = counts_of(m);
    Counts {
        cycles: after.cycles - before.cycles,
        skipped: after.skipped - before.skipped,
        uops: after.uops - before.uops,
        decisions: 0,
    }
}

/// A fetch chooser that counts and times every `prioritize` call.
pub struct TimedChooser<C> {
    inner: C,
    calls: u64,
    ns: u64,
}

impl<C> TimedChooser<C> {
    pub fn new(inner: C) -> Self {
        TimedChooser {
            inner,
            calls: 0,
            ns: 0,
        }
    }
}

impl<C: FetchChooser> FetchChooser for TimedChooser<C> {
    fn prioritize(&mut self, cycle: u64, views: &mut Vec<PolicyView>) {
        let t0 = Instant::now();
        self.inner.prioritize(cycle, views);
        self.ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
    }
}

/// `run_fixed` with a span around each quantum's stepping and the fetch
/// chooser timed inside it. Records the same series as `run_fixed`.
pub fn run_fixed_traced(
    policy: FetchPolicy,
    machine: &mut SmtMachine,
    quanta: u64,
    quantum_cycles: u64,
) -> RunSeries {
    let fetch_width = machine.config().fetch_width;
    let mut chooser = TimedChooser::new(Tsu::new(policy, machine.n_threads()));
    let mut series = RunSeries::default();
    for index in 0..quanta {
        let before = MachineSnapshot::take(machine);
        {
            let mut g = trace::span("step", Layer::Sim);
            let counts = counts_of(machine);
            let (calls, ns) = (chooser.calls, chooser.ns);
            machine.run(quantum_cycles, &mut chooser);
            g.set_counts(counts_since(counts, machine));
            g.set_aggregate(Aggregate {
                name: "prioritize",
                layer: Layer::Policies,
                calls: chooser.calls - calls,
                ns: chooser.ns - ns,
            });
        }
        let after = MachineSnapshot::take(machine);
        let stats = QuantumStats::between(&before, &after, fetch_width);
        series.quanta.push(QuantumRecord {
            index,
            policy: policy.name().to_string(),
            cycles: stats.cycles,
            committed: stats.committed,
            ipc: stats.ipc,
            l1_miss_rate: stats.l1_miss_rate,
            lsq_full_rate: stats.lsq_full_rate,
            mispredict_rate: stats.mispredict_rate,
            branch_rate: stats.branch_rate,
            idle_fetch_rate: stats.idle_fetch_rate,
        });
    }
    series
}

/// A sweep cell with spans around its plan, execute and observe calls.
pub struct TracedCell(pub PointCell);

impl LockstepCell for TracedCell {
    type Plan = QuantumPlan;
    type Boundary = BoundaryActions;

    fn plan(&mut self, machine: &SmtMachine) -> QuantumPlan {
        let mut g = trace::span("plan", Layer::Core);
        if matches!(self.0, PointCell::Adaptive(_)) {
            g.set_counts(Counts {
                decisions: 1,
                ..Counts::default()
            });
        }
        self.0.plan(machine)
    }

    fn execute(plan: &QuantumPlan, machine: &mut SmtMachine) {
        let mut g = trace::span("step", Layer::Sim);
        let counts = counts_of(machine);
        PointCell::execute(plan, machine);
        g.set_counts(counts_since(counts, machine));
    }

    fn observe(&mut self, machine: &SmtMachine) -> BoundaryActions {
        let _g = trace::span("observe", Layer::Core);
        self.0.observe(machine)
    }

    fn apply_boundary(boundary: &BoundaryActions, machine: &mut SmtMachine) {
        PointCell::apply_boundary(boundary, machine);
    }
}

fn run_batch<C: LockstepCell>(
    machine: SmtMachine,
    cells: Vec<C>,
    quanta: u64,
) -> (Vec<C>, BatchStats) {
    let mut batch = MachineBatch::new(machine, cells);
    for _ in 0..quanta {
        let _g = trace::span("quantum", Layer::Sim);
        batch.run_quantum();
    }
    let stats = batch.stats();
    (batch.into_cells(), stats)
}

fn warmed(mix: &smt_workloads::Mix, cfg: Option<smt_sim::SimConfig>, p: &ExpParams) -> SmtMachine {
    let _g = trace::span("warm", Layer::Bench);
    match cfg {
        None => warm::warmed_machine(mix, p),
        Some(cfg) => warm::warmed_machine_with(cfg, mix, p),
    }
}

/// Simulate one point: its series (one, or the sweep's 26) and batch
/// counters. `traced` selects the span-recording drivers.
pub fn simulate(point: &Point, p: &ExpParams, traced: bool) -> (Vec<RunSeries>, BatchStats) {
    let fixed = |m: &mut SmtMachine, policy: FetchPolicy| {
        if traced {
            run_fixed_traced(policy, m, p.quanta, p.quantum_cycles)
        } else {
            run_fixed(policy, m, p.quanta, p.quantum_cycles)
        }
    };
    match &point.spec {
        PointSpec::Fixed { mix, policy } => {
            let mut m = warmed(mix, None, p);
            (vec![fixed(&mut m, *policy)], BatchStats::default())
        }
        PointSpec::Stall { mix, cfg } => {
            let mut m = warmed(mix, Some((**cfg).clone()), p);
            (
                vec![fixed(&mut m, FetchPolicy::Icount)],
                BatchStats::default(),
            )
        }
        PointSpec::Sweep { mix, configs } => {
            let machine = warmed(mix, None, p);
            let n = machine.n_threads();
            let cells = std::iter::once(PointCell::fixed(FetchPolicy::Icount, p.quantum_cycles))
                .chain(configs.iter().map(|&c| PointCell::adaptive(c, n)));
            let (cells, stats) = if traced {
                let (cells, stats) = run_batch(machine, cells.map(TracedCell).collect(), p.quanta);
                (cells.into_iter().map(|c| c.0).collect::<Vec<_>>(), stats)
            } else {
                run_batch(machine, cells.collect(), p.quanta)
            };
            (
                cells.into_iter().map(PointCell::into_series).collect(),
                stats,
            )
        }
    }
}

/// Every series must cover exactly the requested quanta; a point that
/// does not has failed.
fn check_shape(series: &[RunSeries], p: &ExpParams) {
    for s in series {
        assert_eq!(s.quanta.len() as u64, p.quanta, "quanta recorded");
        for q in &s.quanta {
            assert_eq!(q.cycles, p.quantum_cycles, "cycles in quantum {}", q.index);
        }
    }
}

/// Run one point and reduce it to its outcome. Panics if the simulated
/// results are malformed.
pub fn run_point(point: &Point, p: &ExpParams, traced: bool) -> PointOutcome {
    let (series, batch) = simulate(point, p, traced);
    check_shape(&series, p);
    let mut o = PointOutcome {
        digest: digest(&series),
        batch,
        ..PointOutcome::default()
    };
    for s in &series {
        o.cycles += s.quanta.iter().map(|q| q.cycles).sum::<u64>();
        o.committed += s.quanta.iter().map(|q| q.committed).sum::<u64>();
        o.switches += s.switches.len() as u64;
        o.judged += s.judged_switches() as u64;
        o.benign += s.switches.iter().filter(|e| e.benign == Some(true)).count() as u64;
    }
    o
}

/// FNV-1a over every field of every series, floats by their bits.
pub fn digest(series: &[RunSeries]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in series {
        eat(&(s.quanta.len() as u64).to_le_bytes());
        for q in &s.quanta {
            eat(&q.index.to_le_bytes());
            eat(q.policy.as_bytes());
            eat(&q.cycles.to_le_bytes());
            eat(&q.committed.to_le_bytes());
            for x in [
                q.ipc,
                q.l1_miss_rate,
                q.lsq_full_rate,
                q.mispredict_rate,
                q.branch_rate,
                q.idle_fetch_rate,
            ] {
                eat(&x.to_bits().to_le_bytes());
            }
        }
        eat(&(s.switches.len() as u64).to_le_bytes());
        for e in &s.switches {
            eat(&e.quantum.to_le_bytes());
            eat(e.from.as_bytes());
            eat(e.to.as_bytes());
            eat(&[match e.benign {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            }]);
        }
    }
    h
}

/// Check that both driver modes give, for every point of `w`, results
/// bit-identical to the functions users run: `exp::fixed_series` (what
/// `exp::table1` runs per point), `exp::threshold_type_sweep_with(p, true)`,
/// and `run_fixed` on `machine_for_mix_with`.
pub fn check_user_path(w: &Workload) -> Result<(), String> {
    let p = &w.params;
    let sweep = (w.kind == Kind::AdtsSweep).then(|| exp::threshold_type_sweep_with(p, true));
    for (i, point) in w.points.iter().enumerate() {
        for traced in [false, true] {
            let (ours, _) = simulate(point, p, traced);
            let mode = if traced { "traced" } else { "untraced" };
            let mismatch = |what: &str| Err(format!("{} ({mode}): {what} differs", point.label));
            match &point.spec {
                PointSpec::Fixed { mix, policy } => {
                    if ours[0] != exp::fixed_series(mix, *policy, p) {
                        return mismatch("series vs exp::fixed_series");
                    }
                }
                PointSpec::Stall { mix, cfg } => {
                    let mut m = machine_for_mix_with((**cfg).clone(), mix, p.seed);
                    run_fixed(
                        FetchPolicy::Icount,
                        &mut m,
                        p.warmup_quanta,
                        p.quantum_cycles,
                    );
                    let user = run_fixed(FetchPolicy::Icount, &mut m, p.quanta, p.quantum_cycles);
                    if ours[0] != user {
                        return mismatch("series vs run_fixed");
                    }
                }
                PointSpec::Sweep { .. } => {
                    let sw = sweep.as_ref().expect("sweep computed for adts_sweep");
                    if ours[0].aggregate_ipc().to_bits() != sw.icount[i].to_bits() {
                        return mismatch("fixed ICOUNT IPC");
                    }
                    let n_kinds = sw.kinds.len();
                    for (ti, row) in sw.cells.iter().enumerate() {
                        for (ki, cells) in row.iter().enumerate() {
                            let user = &cells[i];
                            let s = &ours[1 + ti * n_kinds + ki];
                            let benign =
                                s.switches.iter().filter(|e| e.benign == Some(true)).count();
                            if s.aggregate_ipc().to_bits() != user.ipc.to_bits()
                                || s.switches.len() != user.switches
                                || s.judged_switches() != user.judged
                                || benign != user.benign
                            {
                                return mismatch(&format!(
                                    "cell m={} {}",
                                    ti + 1,
                                    sw.kinds[ki].name()
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
}
