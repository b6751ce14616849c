//! One pass: every point of a workload, dispatched through the
//! repository's panic-isolating executor, plus the failure accounting
//! across passes.

use crate::drive::{run_point, PointOutcome};
use crate::spec::Workload;
use crate::trace::{self, Layer, Span, Tracer};
use smt_bench::sweep::run_isolated;
use smt_bench::warm::{self, WarmStats};
use std::time::Instant;

/// The result of one pass over a workload.
#[derive(Debug)]
pub struct PassResult {
    pub traced: bool,
    /// Wall time from the first point dispatched to the last finished.
    pub wall_s: f64,
    /// Per point, in workload order: its outcome or why it failed.
    pub outcomes: Vec<Result<PointOutcome, String>>,
    /// Warm-pool counters of this pass alone.
    pub warm: WarmStats,
    /// The recorded spans (empty when untraced); `spans[0]` is the root.
    pub spans: Vec<Span>,
}

/// Run every point of `w` once. The warm pool is emptied first, so each
/// pass pays the warmups a fresh uncached run pays. `inject_panic` makes
/// that point panic, to exercise the failure accounting.
pub fn run_pass(w: &Workload, traced: bool, inject_panic: Option<usize>) -> PassResult {
    warm::reset_pool();
    let tracer = traced.then(Tracer::new);
    let t = tracer.as_ref();
    let index: Vec<usize> = (0..w.points.len()).collect();
    let (wall_s, results) = trace::enter(t, || {
        let _root = trace::span("workload", Layer::Bench);
        let t0 = Instant::now();
        let results = run_isolated(&index, w.jobs, |&i| {
            trace::enter(t, || {
                let _g = trace::span("point", Layer::Bench);
                assert!(inject_panic != Some(i), "injected failure at point {i}");
                run_point(&w.points[i], &w.params, traced)
            })
        });
        (t0.elapsed().as_secs_f64(), results)
    });
    PassResult {
        traced,
        wall_s,
        outcomes: results
            .into_iter()
            .map(|r| r.map_err(|e| e.message))
            .collect(),
        warm: warm::stats(),
        spans: tracer.map(|t| t.spans()).unwrap_or_default(),
    }
}

/// Points attempted and failed across passes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Score {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed point.
    pub failures: Vec<String>,
}

impl Score {
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / (self.attempted as f64).max(1.0)
    }
}

/// Count the points of `passes`. A point fails if it panicked or if its
/// digest differs from the reference: the recorded digest for the seed
/// when there is one, else the first digest the run produced for it.
pub fn score(w: &Workload, passes: &[PassResult], recorded: Option<&[u64]>) -> Score {
    let mut reference: Vec<Option<u64>> = match recorded {
        Some(r) => r.iter().copied().map(Some).collect(),
        None => vec![None; w.points.len()],
    };
    let mut s = Score::default();
    for (k, pass) in passes.iter().enumerate() {
        for (i, o) in pass.outcomes.iter().enumerate() {
            s.attempted += 1;
            let label = &w.points[i].label;
            let why = match o {
                Err(msg) => Some(format!("panicked: {msg}")),
                Ok(o) => match reference[i] {
                    None => {
                        reference[i] = Some(o.digest);
                        None
                    }
                    Some(d) if d == o.digest => None,
                    Some(d) => Some(format!("digest {:016x}, expected {d:016x}", o.digest)),
                },
            };
            if let Some(why) = why {
                s.failed += 1;
                s.failures.push(format!("pass {k} point {label}: {why}"));
            }
        }
    }
    s
}
