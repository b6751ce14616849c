//! Batched lockstep stepping of near-identical machines.
//!
//! A threshold×type sweep steps dozens of machines that share one
//! workload mix, one seed, and one warmup prefix — they differ only in
//! the *decisions* a scheduling policy takes at quantum boundaries. This
//! module exploits that: a [`MachineBatch`] keeps one machine (any
//! [`LockstepMachine`]) per *equivalence group* of cells and advances
//! each group once per quantum, fanning the result out to every member
//! cell. Cells whose policies decide identically share all simulation
//! work; a group only *forks* (clones its machine) at the moment two
//! members' decisions diverge.
//!
//! The contract that makes sharing sound is determinism: the machine is
//! a pure function of its state and the per-quantum [`LockstepCell::Plan`]
//! applied to it. Two cells holding bit-identical machine state that
//! produce equal plans *must* evolve identically — this is exactly the
//! property the differential suite (`proptest_batch_equiv`) and the
//! golden batch conformance test pin.
//!
//! A quantum has two fork points:
//!
//! 1. **Plan fork** — before stepping, each member cell is asked for its
//!    `Plan` (policy for the quantum, pending-switch schedule, …).
//!    Members are partitioned by plan equality; each partition becomes a
//!    (sub-)group and is stepped once.
//! 2. **Boundary fork** — after stepping, each member observes the
//!    machine and returns a [`LockstepCell::Boundary`] describing any
//!    state mutation it wants applied at the quantum boundary (e.g. a
//!    clog-control fetch toggle). Members are partitioned by boundary
//!    equality and the (usually empty) boundary is applied once per
//!    partition.
//!
//! Partitioning is deterministic: members are kept in ascending cell
//! order, partitions form in first-appearance order, and the first
//! partition inherits the group's machine while later ones clone it.
//! Groups never merge — once diverged, cells stay apart — so the engine
//! is intended for runs with few quanta (sweeps restore a warm snapshot
//! and run a handful of measured quanta).
//!
//! Batched stepping composes with the event-horizon fast-forward for
//! free: each group's quantum executes through
//! [`LockstepMachine::run_cores`], which skips pure-stall windows
//! internally and always stops exactly at the quantum boundary — so
//! plan/boundary fork points land on the same cycles whether skipping is
//! on or off, and the bit-identity contract that makes group sharing
//! sound is untouched (pinned by `proptest_skip.rs` alongside the batch
//! conformance suite).

use crate::chooser::FetchChooser;
use crate::counters::CounterSnapshot;
use crate::machine::SmtMachine;

/// The machine view drivers and lockstep cells work through: one or more
/// [`SmtMachine`] cores stepped in lockstep. An `SmtMachine` is its own
/// single core, so a driver written against this trait makes exactly the
/// calls a single-core driver would; `MultiCoreMachine` runs the same
/// code on N cores around a shared L2.
pub trait LockstepMachine: Clone {
    /// The cores, in ascending core id (the L2 arbitration order).
    fn cores(&self) -> &[SmtMachine];

    /// Core `i`, mutable. For quantum-boundary mutations only (policy
    /// notes, fetch toggles); stepping goes through
    /// [`run_cores`](Self::run_cores) so shared state stays coherent.
    fn core_mut(&mut self, i: usize) -> &mut SmtMachine;

    /// Run every core `cycles` cycles in lockstep, core `i` fetching
    /// through `choosers[i]`.
    fn run_cores<C: FetchChooser>(&mut self, cycles: u64, choosers: &mut [C]);

    /// Refill `out` with every thread's counters, in global thread order.
    fn counter_snapshot_into(&self, out: &mut CounterSnapshot);
}

impl LockstepMachine for SmtMachine {
    fn cores(&self) -> &[SmtMachine] {
        std::slice::from_ref(self)
    }

    fn core_mut(&mut self, i: usize) -> &mut SmtMachine {
        assert_eq!(i, 0, "an SmtMachine is a single core");
        self
    }

    fn run_cores<C: FetchChooser>(&mut self, cycles: u64, choosers: &mut [C]) {
        let [chooser] = choosers else {
            panic!("one chooser per core");
        };
        self.run(cycles, chooser);
    }

    fn counter_snapshot_into(&self, out: &mut CounterSnapshot) {
        SmtMachine::counter_snapshot_into(self, out);
    }
}

/// Per-cell policy driver for lockstep stepping.
///
/// A cell owns everything about a sweep point *except* the machine: the
/// scheduler state, thresholds, and accumulated per-quantum records.
/// The machine-facing half is split into pure-ish halves so the batch
/// engine can execute one plan on one shared machine for many cells:
///
/// * [`plan`](Self::plan)/[`observe`](Self::observe) take `&mut self`
///   and may mutate cell state, but must treat the machine as
///   read-only.
/// * [`execute`](Self::execute)/[`apply_boundary`](Self::apply_boundary)
///   are associated functions with no access to the cell at all — they
///   may only depend on the plan/boundary value, which is what makes
///   running them once per *group* equivalent to once per *cell*.
pub trait LockstepCell<M: LockstepMachine = SmtMachine> {
    /// Everything that determines the machine's evolution over one
    /// quantum. Two equal plans applied to bit-identical machines must
    /// produce bit-identical machines.
    type Plan: Clone + PartialEq + std::fmt::Debug;

    /// Machine mutation requested at the quantum boundary (often a
    /// no-op). Two equal boundaries applied to bit-identical machines
    /// must produce bit-identical machines.
    type Boundary: Clone + PartialEq + std::fmt::Debug;

    /// Decide the plan for the next quantum from (read-only) machine
    /// state. May record per-quantum bookkeeping on `self`.
    fn plan(&mut self, machine: &M) -> Self::Plan;

    /// Step the machine through one quantum under `plan`.
    fn execute(plan: &Self::Plan, machine: &mut M);

    /// Inspect the post-quantum machine, record stats on `self`, and
    /// return the boundary mutation to apply.
    fn observe(&mut self, machine: &M) -> Self::Boundary;

    /// Apply the boundary mutation to the machine.
    fn apply_boundary(boundary: &Self::Boundary, machine: &mut M);
}

/// Run one full quantum of a single cell against its own machine — the
/// scalar reference path. Batched stepping of a batch of one must be
/// observationally identical to repeated calls of this function.
pub fn run_scalar_quantum<M: LockstepMachine, C: LockstepCell<M>>(cell: &mut C, machine: &mut M) {
    let plan = cell.plan(machine);
    C::execute(&plan, machine);
    let boundary = cell.observe(machine);
    C::apply_boundary(&boundary, machine);
}

/// Sharing/fork counters for one batch run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Lockstep quanta advanced (`run_quantum` calls).
    pub quanta: u64,
    /// Cell-quanta covered (what a scalar runner would have stepped).
    pub cell_quanta: u64,
    /// Machine-quanta actually simulated. `cell_quanta / machine_quanta`
    /// is the sharing factor the batch engine achieved.
    pub machine_quanta: u64,
    /// Group splits caused by diverging plans.
    pub plan_forks: u64,
    /// Group splits caused by diverging boundary actions.
    pub boundary_forks: u64,
}

/// Fork activity of one `run_quantum` call — what the engine-span layer
/// records as batch fork events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuantumForks {
    /// Group splits this quantum caused by diverging plans.
    pub plan_forks: u64,
    /// Group splits this quantum caused by diverging boundary actions.
    pub boundary_forks: u64,
    /// Live equivalence groups after the quantum.
    pub groups: usize,
}

impl QuantumForks {
    /// Did any group split this quantum?
    pub fn forked(&self) -> bool {
        self.plan_forks + self.boundary_forks > 0
    }
}

struct Group<M> {
    machine: M,
    /// Cell indices sharing `machine`, ascending.
    members: Vec<usize>,
}

/// N cells stepped in lockstep over shared machines (see module docs).
pub struct MachineBatch<C, M: LockstepMachine = SmtMachine>
where
    C: LockstepCell<M>,
{
    groups: Vec<Group<M>>,
    cells: Vec<C>,
    stats: BatchStats,
}

impl<C, M: LockstepMachine> MachineBatch<C, M>
where
    C: LockstepCell<M>,
{
    /// Build a batch whose cells all start from the same machine state
    /// (typically a warm-pool snapshot restored once).
    ///
    /// # Panics
    /// Panics if `cells` is empty.
    pub fn new(machine: M, cells: Vec<C>) -> Self {
        assert!(!cells.is_empty(), "MachineBatch needs at least one cell");
        let members = (0..cells.len()).collect();
        MachineBatch {
            groups: vec![Group { machine, members }],
            cells,
            stats: BatchStats::default(),
        }
    }

    /// Advance every cell by one quantum. Returns the quantum's fork
    /// activity (plan/boundary splits and resulting group count) so
    /// callers can stream fork events without diffing [`Self::stats`].
    pub fn run_quantum(&mut self) -> QuantumForks {
        let before = self.stats;
        self.stats.quanta += 1;
        self.stats.cell_quanta += self.cells.len() as u64;

        let groups = std::mem::take(&mut self.groups);
        let mut next = Vec::with_capacity(groups.len());
        for group in groups {
            let Group { machine, members } = group;

            // Fork point 1: partition members by plan.
            let mut parts: Vec<(C::Plan, Vec<usize>)> = Vec::new();
            for &ci in &members {
                let plan = self.cells[ci].plan(&machine);
                match parts.iter_mut().find(|(p, _)| *p == plan) {
                    Some((_, m)) => m.push(ci),
                    None => parts.push((plan, vec![ci])),
                }
            }
            self.stats.plan_forks += parts.len() as u64 - 1;

            // Step each partition once. The first partition inherits the
            // group's machine; later ones clone it (the clone happens
            // lazily, only when a next partition actually exists).
            let n_parts = parts.len();
            let mut unstepped = Some(machine);
            for (pi, (plan, members)) in parts.into_iter().enumerate() {
                let mut m = unstepped.take().expect("partition machine");
                if pi + 1 < n_parts {
                    unstepped = Some(m.clone());
                }
                C::execute(&plan, &mut m);
                self.stats.machine_quanta += 1;

                // Fork point 2: partition by boundary action.
                let mut bparts: Vec<(C::Boundary, Vec<usize>)> = Vec::new();
                for &ci in &members {
                    let b = self.cells[ci].observe(&m);
                    match bparts.iter_mut().find(|(p, _)| *p == b) {
                        Some((_, mm)) => mm.push(ci),
                        None => bparts.push((b, vec![ci])),
                    }
                }
                self.stats.boundary_forks += bparts.len() as u64 - 1;

                let n_bparts = bparts.len();
                let mut stepped = Some(m);
                for (bi, (b, members)) in bparts.into_iter().enumerate() {
                    let mut m = stepped.take().expect("boundary machine");
                    if bi + 1 < n_bparts {
                        stepped = Some(m.clone());
                    }
                    C::apply_boundary(&b, &mut m);
                    next.push(Group {
                        machine: m,
                        members,
                    });
                }
            }
        }
        self.groups = next;
        QuantumForks {
            plan_forks: self.stats.plan_forks - before.plan_forks,
            boundary_forks: self.stats.boundary_forks - before.boundary_forks,
            groups: self.groups.len(),
        }
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of live equivalence groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Sharing/fork counters so far.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// The cells, in construction order.
    pub fn cells(&self) -> &[C] {
        &self.cells
    }

    /// The machine currently backing `cell` (shared with every other
    /// member of its group).
    pub fn machine_for(&self, cell: usize) -> &M {
        &self
            .groups
            .iter()
            .find(|g| g.members.contains(&cell))
            .expect("cell index out of range")
            .machine
    }

    /// Consume the batch, returning the cells with their accumulated
    /// records.
    pub fn into_cells(self) -> Vec<C> {
        self.cells
    }
}
