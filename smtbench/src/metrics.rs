//! End-to-end and per-layer metrics, and the result line.

use crate::pass::{PassResult, Score};
use crate::spec::Workload;
use crate::trace::{budget, Layer};
use std::fmt::Write as _;
use std::time::Instant;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median wall time of `passes`.
pub fn median_wall_s(passes: &[&PassResult]) -> f64 {
    median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>())
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Simulated cycles a pass delivered, summed over its successful points.
fn delivered_cycles(pass: &PassResult) -> u64 {
    pass.outcomes.iter().flatten().map(|o| o.cycles).sum()
}

/// Peak resident memory of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics of a run, from its untraced passes.
pub fn end_to_end(setup_s: f64, untraced: &[&PassResult]) -> Vec<Metric> {
    let rates: Vec<f64> = untraced
        .iter()
        .map(|p| delivered_cycles(p) as f64 / p.wall_s)
        .collect();
    vec![
        m("setup_s", setup_s, "s"),
        m("run_s", median_wall_s(untraced), "s"),
        m("sim_cycles_per_s", median(&rates), "cycles/s"),
    ]
}

/// Per-layer metrics of one traced pass; the `workloads.*` and
/// `tracing.overhead_frac` metrics need more than one pass and are added
/// by [`finish_layer_metrics`].
pub fn layer_metrics(w: &Workload, pass: &PassResult) -> Vec<Metric> {
    let spans = &pass.spans;
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let (mut step_s, mut cycles, mut skipped, mut uops) = (0.0, 0u64, 0u64, 0u64);
    let (mut calls, mut prio_ns, mut decide_s, mut decisions) = (0u64, 0u64, 0.0, 0u64);
    let (mut warm_s, mut overhead_s) = (0.0, 0.0);
    let mut point_s = Vec::new();
    let mut lane_last_end: std::collections::BTreeMap<u32, u64> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        match s.name {
            "step" => {
                step_s += s.dur_s();
                cycles += s.counts.cycles;
                skipped += s.counts.skipped;
                uops += s.counts.uops;
                if let Some(a) = s.aggregate {
                    calls += a.calls;
                    prio_ns += a.ns;
                }
            }
            "plan" | "observe" => {
                decide_s += s.dur_s();
                decisions += s.counts.decisions;
            }
            "warm" => warm_s += s.dur_s(),
            "quantum" => overhead_s += s.dur_ns().saturating_sub(child_ns[i]) as f64 * 1e-9,
            "point" => {
                point_s.push(s.dur_s());
                let e = lane_last_end.entry(s.lane).or_default();
                *e = (*e).max(s.end_ns);
            }
            _ => {}
        }
    }
    let root_wall_s = spans.first().map_or(0.0, |r| r.dur_s());
    let workers = w.jobs.min(w.points.len()).max(1) as f64;
    let tail_idle_s = match (lane_last_end.values().max(), lane_last_end.values().min()) {
        (Some(hi), Some(lo)) => (hi - lo) as f64 * 1e-9,
        _ => 0.0,
    };

    let ok: Vec<_> = pass.outcomes.iter().flatten().collect();
    let sum = |f: &dyn Fn(&crate::drive::PointOutcome) -> u64| ok.iter().map(|o| f(o)).sum::<u64>();
    let committed = sum(&|o| o.committed);
    let delivered = sum(&|o| o.cycles);
    let judged = sum(&|o| o.judged);
    let cell_quanta = sum(&|o| o.batch.cell_quanta);
    let machine_quanta = sum(&|o| o.batch.machine_quanta);

    let b = budget(spans);
    vec![
        m("sim.step_s", step_s, "s"),
        m("sim.cycles", cycles as f64, "count"),
        m("sim.ns_per_cycle", ratio(step_s * 1e9, cycles as f64), "ns"),
        m("sim.skipped_cycles", skipped as f64, "count"),
        m(
            "sim.skip_frac",
            ratio(skipped as f64, cycles as f64),
            "frac",
        ),
        m("sim.committed", committed as f64, "count"),
        m(
            "sim.ipc",
            ratio(committed as f64, delivered as f64),
            "uops/cycle",
        ),
        m("sim.batch.cell_quanta", cell_quanta as f64, "count"),
        m("sim.batch.machine_quanta", machine_quanta as f64, "count"),
        m(
            "sim.batch.share_ratio",
            ratio(cell_quanta as f64, machine_quanta as f64),
            "ratio",
        ),
        m(
            "sim.batch.plan_forks",
            sum(&|o| o.batch.plan_forks) as f64,
            "count",
        ),
        m(
            "sim.batch.boundary_forks",
            sum(&|o| o.batch.boundary_forks) as f64,
            "count",
        ),
        m("sim.batch.overhead_s", overhead_s, "s"),
        m("core.decide_s", decide_s, "s"),
        m("core.decisions", decisions as f64, "count"),
        m("core.switches", sum(&|o| o.switches) as f64, "count"),
        m(
            "core.benign_frac",
            ratio(sum(&|o| o.benign) as f64, judged as f64),
            "frac",
        ),
        m("policies.prioritize_calls", calls as f64, "count"),
        m(
            "policies.prioritize_ns_per_call",
            ratio(prio_ns as f64, calls as f64),
            "ns",
        ),
        m("workloads.uops_generated", uops as f64, "count"),
        m("bench.warm_s", warm_s, "s"),
        m("bench.warmups", pass.warm.warmups as f64, "count"),
        m("bench.warm_pool_hits", pass.warm.pool_hits as f64, "count"),
        m("bench.point_s_p50", median(&point_s), "s"),
        m(
            "bench.point_s_max",
            point_s.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        m(
            "bench.executor_busy_frac",
            ratio(point_s.iter().sum(), workers * root_wall_s),
            "frac",
        ),
        m("bench.tail_idle_s", tail_idle_s, "s"),
        m("bench.self_s", b.layer_s(Layer::Bench), "s"),
        m("sim.self_s", b.layer_s(Layer::Sim), "s"),
        m("core.self_s", b.layer_s(Layer::Core), "s"),
        m("policies.self_s", b.layer_s(Layer::Policies), "s"),
        m("tracing.root_wall_s", b.root_wall_s, "s"),
        m("tracing.budget_err_frac", b.err_frac(), "frac"),
        m("tracing.spans", spans.len() as f64, "count"),
    ]
}

/// Cap on the µops regenerated to price generation.
const GEN_SAMPLE_UOPS: u64 = 2_000_000;

/// Host nanoseconds per µop of `next_uop` on fresh streams of the
/// workload's mixes and seed, over `uops` µops (capped) split evenly over
/// the points and their threads.
pub fn gen_ns_per_uop(w: &Workload, uops: u64) -> f64 {
    let per_point = uops.min(GEN_SAMPLE_UOPS) / w.points.len().max(1) as u64;
    let mut generated = 0u64;
    let t0 = Instant::now();
    for point in &w.points {
        let mut streams = point.mix().streams(w.params.seed);
        let per_thread = per_point / streams.len().max(1) as u64;
        for s in &mut streams {
            for _ in 0..per_thread {
                std::hint::black_box(s.next_uop());
            }
            generated += per_thread;
        }
    }
    ratio(t0.elapsed().as_secs_f64() * 1e9, generated as f64)
}

/// The per-layer metrics of a traced run: the median of each metric over
/// the traced passes, plus µop-generation cost and tracing overhead.
pub fn finish_layer_metrics(
    w: &Workload,
    traced: &[&PassResult],
    untraced_run_s: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let per_pass: Vec<Vec<Metric>> = traced.iter().map(|p| layer_metrics(w, p)).collect();
    let Some(first) = per_pass.first() else {
        return Vec::new();
    };
    let mut out: Vec<Metric> = first
        .iter()
        .enumerate()
        .map(|(k, x)| {
            let vals: Vec<f64> = per_pass.iter().map(|ms| ms[k].value).collect();
            m(x.name, median(&vals), x.unit)
        })
        .collect();
    let get =
        |out: &[Metric], name: &str| out.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
    let uops = get(&out, "workloads.uops_generated");
    let step_s = get(&out, "sim.step_s");
    let ns = gen_ns_per_uop(w, uops as u64);
    let traced_run_s = median_wall_s(traced);
    out.push(m("workloads.gen_ns_per_uop", ns, "ns"));
    out.push(m(
        "workloads.gen_share",
        ratio(uops * ns * 1e-9, step_s),
        "frac",
    ));
    out.push(m("bench.peak_rss_mb", peak_rss_mb, "MB"));
    out.push(m(
        "tracing.overhead_frac",
        ratio(traced_run_s, untraced_run_s) - 1.0,
        "frac",
    ));
    out
}

/// Format a number for JSON: finite, with all its digits.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// The human-readable metric lines.
pub fn human_lines(metrics: &[Metric]) -> String {
    let mut s = String::new();
    for x in metrics {
        let _ = writeln!(s, "  {:<34} {:>18} {}", x.name, num(x.value), x.unit);
    }
    s
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(correct: bool, score: &Score, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                num(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        score.attempted,
        score.failed,
        body.join(", ")
    )
}
