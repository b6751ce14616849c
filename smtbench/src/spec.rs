//! The benchmark's workloads: fixed sets of simulation points.
//!
//! Each workload is one shape of work a user of the simulator waits on
//! (see `BENCHMARK.json` for why each was chosen). A workload is built
//! from the seed alone; the simulator receives only the generated points.

use adts_core::{AdtsConfig, HeuristicKind};
use smt_bench::ExpParams;
use smt_policies::FetchPolicy;
use smt_sim::SimConfig;
use smt_workloads::{mix, Mix};

/// Workload seed when `--seed` is not given; it becomes `ExpParams::seed`.
pub const DEFAULT_SEED: u64 = 42;

/// Seed held out from tuning: a performance claim must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_031;

/// Main-memory latency of the long-latency `mem_stall` points (the
/// `BENCH_skip.json` gate point's value; the default is 80 cycles).
const LONG_MEM_LATENCY: u64 = 600;

/// Mixes of the Table 1 and sweep workloads.
const DENSE_MIXES: [usize; 2] = [1, 9];

/// The memory-bound mix of `mem_stall`.
const STALL_MIX: usize = 13;

/// Seed `Mix::take_threads` uses to pick `mem_stall`'s threads (the one
/// the repository's skip harness uses).
const TAKE_SEED: u64 = 7;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    FixedDense,
    AdtsSweep,
    MemStall,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::FixedDense, Kind::AdtsSweep, Kind::MemStall];

    pub fn name(self) -> &'static str {
        match self {
            Kind::FixedDense => "fixed_dense",
            Kind::AdtsSweep => "adts_sweep",
            Kind::MemStall => "mem_stall",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Run length per point at benchmark scale.
    pub fn params(self, seed: u64) -> ExpParams {
        let (warmup_quanta, quanta) = match self {
            Kind::FixedDense => (2, 4),
            Kind::AdtsSweep => (2, 8),
            Kind::MemStall => (2, 24),
        };
        ExpParams {
            seed,
            warmup_quanta,
            quanta,
            quantum_cycles: 8192,
            mix_ids: self.mix_ids(),
        }
    }

    /// Reduced run length for the user-path check and the tests.
    pub fn reduced_params(self, seed: u64) -> ExpParams {
        ExpParams {
            seed,
            warmup_quanta: 1,
            quanta: 2,
            quantum_cycles: 2048,
            mix_ids: self.mix_ids(),
        }
    }

    fn mix_ids(self) -> Vec<usize> {
        match self {
            Kind::FixedDense | Kind::AdtsSweep => DENSE_MIXES.to_vec(),
            Kind::MemStall => vec![STALL_MIX],
        }
    }
}

/// What one point simulates.
#[derive(Clone, Debug)]
pub enum PointSpec {
    /// One fixed fetch policy on a warm-pool machine with the mix's
    /// default configuration: one `exp::fixed_series` point.
    Fixed { mix: Mix, policy: FetchPolicy },
    /// The 26-cell threshold × heuristic sweep of one mix as one batch:
    /// fixed ICOUNT followed by `configs`, in `exp::threshold_type_sweep`
    /// cell order.
    Sweep { mix: Mix, configs: Vec<AdtsConfig> },
    /// Fixed ICOUNT on a warm-pool machine with an explicit configuration.
    Stall { mix: Mix, cfg: Box<SimConfig> },
}

/// One simulation point.
#[derive(Clone, Debug)]
pub struct Point {
    pub label: String,
    pub spec: PointSpec,
}

impl Point {
    /// The mix the point simulates.
    pub fn mix(&self) -> &Mix {
        match &self.spec {
            PointSpec::Fixed { mix, .. }
            | PointSpec::Sweep { mix, .. }
            | PointSpec::Stall { mix, .. } => mix,
        }
    }
}

/// A workload ready to run: its points, run length and worker count.
#[derive(Clone, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub params: ExpParams,
    pub points: Vec<Point>,
    /// Worker threads of the point executor.
    pub jobs: usize,
}

/// Thresholds m of the sweep.
const THRESHOLDS: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];

/// The sweep's ADTS configurations in `exp::threshold_type_sweep` cell
/// order: threshold-major, then heuristic.
pub fn sweep_configs(p: &ExpParams) -> Vec<AdtsConfig> {
    THRESHOLDS
        .iter()
        .flat_map(|&m| {
            HeuristicKind::ALL
                .into_iter()
                .map(move |heuristic| AdtsConfig {
                    quantum_cycles: p.quantum_cycles,
                    ipc_threshold: m,
                    heuristic,
                    ..Default::default()
                })
        })
        .collect()
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Workload {
    /// The workload at benchmark scale.
    pub fn new(kind: Kind, seed: u64) -> Self {
        Workload::with_params(kind, kind.params(seed))
    }

    /// The workload's points at an explicit run length.
    pub fn with_params(kind: Kind, params: ExpParams) -> Self {
        let mixes = params.mixes();
        let (points, jobs) = match kind {
            Kind::FixedDense => {
                let points = mixes
                    .iter()
                    .flat_map(|m| {
                        FetchPolicy::ALL.into_iter().map(move |policy| Point {
                            label: format!("{}/{}", m.name, policy.name()),
                            spec: PointSpec::Fixed {
                                mix: m.clone(),
                                policy,
                            },
                        })
                    })
                    .collect();
                (points, host_parallelism())
            }
            Kind::AdtsSweep => {
                let configs = sweep_configs(&params);
                let points = mixes
                    .iter()
                    .map(|m| Point {
                        label: format!("{}/sweep26", m.name),
                        spec: PointSpec::Sweep {
                            mix: m.clone(),
                            configs: configs.clone(),
                        },
                    })
                    .collect();
                (points, host_parallelism())
            }
            Kind::MemStall => {
                let base = mix(STALL_MIX);
                let mut points = Vec::new();
                for threads in [1, 2] {
                    let m = base.take_threads(threads, TAKE_SEED);
                    for mem in [None, Some(LONG_MEM_LATENCY)] {
                        let mut cfg = SimConfig::with_threads(threads);
                        if let Some(lat) = mem {
                            cfg.mem_latency = lat;
                        }
                        points.push(Point {
                            label: format!("{}_t{threads}_mem{}", base.name, cfg.mem_latency),
                            spec: PointSpec::Stall {
                                mix: m.clone(),
                                cfg: Box::new(cfg),
                            },
                        });
                    }
                }
                (points, 1)
            }
        };
        Workload {
            kind,
            params,
            points,
            jobs,
        }
    }
}
