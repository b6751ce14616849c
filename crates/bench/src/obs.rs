//! `--obs` instrumented passes for `repro --obs`.
//!
//! An observability pass re-runs a canonical point with full event
//! tracing and per-quantum occupancy sampling enabled, then writes the
//! three exporter artifacts per point into the `--obs-out` directory:
//!
//! - `<point>.events.jsonl` — the retained event ring, one JSON event per
//!   line;
//! - `<point>.trace.json`  — Chrome `trace_event` timeline (open in
//!   `chrome://tracing` or Perfetto);
//! - `<point>.prom`        — Prometheus text dump of the metrics registry
//!   (occupancy histograms, fetch-slot shares, per-policy quantum IPC,
//!   switch counters).
//!
//! Instrumented runs never consult the sweep result cache — a cache hit
//! would skip simulation and thus produce no events — but each pass still
//! appends a telemetry record (kind `"observed"`, with an
//! [`sweep::ObsSummary`]) so `results/telemetry.jsonl` stays the complete
//! log of everything simulated. The pass must not change simulated
//! behavior; `tests/obs_differential.rs` pins that byte-for-byte.

use crate::params::ExpParams;
use crate::sweep;
use crate::warm::{warmed_machine, warmed_multicore};
use adts_core::{
    register_series_metrics, run_fixed_sampled, AdaptiveScheduler, AdtsConfig, AllocCell, AllocKind,
};
use smt_policies::FetchPolicy;
use smt_sim::obs::{export, MetricsRegistry, MigrationArrow, MultiCoreSampler, PipelineSampler};
use smt_sim::run_scalar_quantum;
use smt_stats::RunSeries;
use smt_workloads::Mix;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Default ring capacity: enough to retain several quanta of full
/// pipeline activity on an 8-wide machine without unbounded memory.
pub const DEFAULT_EVENTS_CAP: usize = 65_536;

/// Parsed `--obs* ` flags.
#[derive(Clone, Debug)]
pub struct ObsOptions {
    /// `--obs`: run the instrumented passes at all.
    pub enabled: bool,
    /// `--obs-out DIR`: artifact directory.
    pub out_dir: PathBuf,
    /// `--obs-events N`: trace ring capacity.
    pub events_cap: usize,
}

impl Default for ObsOptions {
    fn default() -> Self {
        ObsOptions {
            enabled: false,
            out_dir: PathBuf::from("results/obs"),
            events_cap: DEFAULT_EVENTS_CAP,
        }
    }
}

/// Where one pass's artifacts landed, plus the ring accounting.
#[derive(Clone, Debug)]
pub struct ObsArtifacts {
    pub events_path: PathBuf,
    pub trace_path: PathBuf,
    pub prom_path: PathBuf,
    pub events_recorded: u64,
    pub events_retained: u64,
}

pub(crate) fn slug(mix: &Mix, label: &str) -> String {
    format!(
        "{}_{}",
        mix.name.to_ascii_lowercase(),
        label.to_ascii_lowercase()
    )
}

/// Drain `machine`'s trace and `reg` into the three artifact files.
fn write_artifacts(
    machine: &mut smt_sim::SmtMachine,
    reg: &MetricsRegistry,
    out_dir: &Path,
    slug: &str,
) -> std::io::Result<ObsArtifacts> {
    std::fs::create_dir_all(out_dir)?;
    let buf = machine
        .disable_trace()
        .expect("observability pass ran without tracing enabled");
    let art = ObsArtifacts {
        events_path: out_dir.join(format!("{slug}.events.jsonl")),
        trace_path: out_dir.join(format!("{slug}.trace.json")),
        prom_path: out_dir.join(format!("{slug}.prom")),
        events_recorded: buf.recorded,
        events_retained: buf.len() as u64,
    };
    std::fs::write(&art.events_path, export::events_jsonl(buf.events()))?;
    std::fs::write(&art.trace_path, export::chrome_trace(buf.events()))?;
    std::fs::write(&art.prom_path, export::prometheus(reg))?;
    Ok(art)
}

/// Append one pass's telemetry record: `kind` is `"observed"` for a
/// single-core pass and `"observed_mc"` for a multi-core one; `events` is
/// (recorded, retained), summed over cores.
fn log_pass(
    kind: &str,
    point: &str,
    series: &RunSeries,
    events: (u64, u64),
    opts: &ObsOptions,
    t0: Instant,
) {
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut rec = sweep::TelemetryRecord::from_series(
        "obs",
        kind,
        point,
        "-".into(),
        sweep::CacheOutcome::Bypass,
        wall_ms,
        series,
    );
    rec.obs = Some(sweep::ObsSummary {
        events_recorded: events.0,
        events_retained: events.1,
        out_dir: opts.out_dir.display().to_string(),
    });
    sweep::engine().append_telemetry(&rec, wall_ms);
}

/// Instrumented fixed-policy pass over one mix: warm up exactly like
/// [`crate::exp`]'s `fixed_series`, then trace + sample the measured
/// quanta.
pub fn observe_fixed(
    mix: &Mix,
    policy: FetchPolicy,
    p: &ExpParams,
    opts: &ObsOptions,
) -> std::io::Result<ObsArtifacts> {
    let t0 = Instant::now();
    let mut machine = warmed_machine(mix, p);
    machine.enable_trace(opts.events_cap);
    let mut reg = MetricsRegistry::new();
    let mut sampler = PipelineSampler::new(&mut reg, &machine);
    let series = run_fixed_sampled(
        policy,
        &mut machine,
        p.quanta,
        p.quantum_cycles,
        |_, m, _| {
            sampler.sample(m, &mut reg);
        },
    );
    register_series_metrics(&mut reg, &series);
    let art = write_artifacts(&mut machine, &reg, &opts.out_dir, &slug(mix, policy.name()))?;
    log_pass(
        "observed",
        &format!("{}/{}", mix.name, policy.name()),
        &series,
        (art.events_recorded, art.events_retained),
        opts,
        t0,
    );
    Ok(art)
}

/// Instrumented adaptive (ADTS) pass over one mix, including policy-switch
/// events in the trace.
pub fn observe_adaptive(
    mix: &Mix,
    cfg: AdtsConfig,
    p: &ExpParams,
    opts: &ObsOptions,
) -> std::io::Result<ObsArtifacts> {
    let t0 = Instant::now();
    let mut machine = warmed_machine(mix, p);
    machine.enable_trace(opts.events_cap);
    let mut reg = MetricsRegistry::new();
    let mut sampler = PipelineSampler::new(&mut reg, &machine);
    let mut sched = AdaptiveScheduler::new(cfg, machine.n_threads());
    for _ in 0..p.quanta {
        sched.run_quantum(&mut machine);
        sampler.sample(&machine, &mut reg);
    }
    let series = sched.into_series();
    register_series_metrics(&mut reg, &series);
    let art = write_artifacts(&mut machine, &reg, &opts.out_dir, &slug(mix, "adts"))?;
    log_pass(
        "observed",
        &format!("{}/adts", mix.name),
        &series,
        (art.events_recorded, art.events_retained),
        opts,
        t0,
    );
    Ok(art)
}

/// Where one multi-core observe pass's artifacts landed.
#[derive(Clone, Debug)]
pub struct McObsArtifacts {
    /// One retained event ring per core, `<slug>.core<c>.events.jsonl`.
    pub core_events: Vec<PathBuf>,
    /// Merged Chrome trace: one track group per core, migration arrows
    /// between them.
    pub trace_path: PathBuf,
    pub prom_path: PathBuf,
    /// Summed across cores.
    pub events_recorded: u64,
    /// Summed across cores.
    pub events_retained: u64,
    /// Cross-core thread migrations observed over the measured quanta.
    pub migrations: usize,
}

/// Instrumented multi-core pass over one mix: warm exactly like the
/// allocation sweep, then run `fetch`+`alloc` with per-core event rings,
/// the [`MultiCoreSampler`] (per-core occupancy, thread placement,
/// shared-L2 contention) and migration arrows derived from placement
/// diffs at each quantum boundary.
pub fn observe_alloc(
    mix: &Mix,
    fetch: FetchPolicy,
    alloc: AllocKind,
    p: &ExpParams,
    cores: usize,
    penalty: u64,
    opts: &ObsOptions,
) -> std::io::Result<McObsArtifacts> {
    let t0 = Instant::now();
    let mut machine = warmed_multicore(mix, p, cores, penalty);
    machine.enable_trace(opts.events_cap);
    let mut reg = MetricsRegistry::new();
    let mut sampler = MultiCoreSampler::new(&mut reg, &machine);
    let mut cell = AllocCell::new(fetch, alloc, p.quantum_cycles, &machine);
    let mut migrations: Vec<MigrationArrow> = Vec::new();
    for _ in 0..p.quanta {
        let before = machine.placement().to_vec();
        run_scalar_quantum(&mut cell, &mut machine);
        let cycle = machine.cycle();
        for (g, (prev, now)) in before.iter().zip(machine.placement()).enumerate() {
            if prev.0 != now.0 {
                migrations.push(MigrationArrow {
                    cycle,
                    thread: g,
                    from_core: prev.0,
                    to_core: now.0,
                });
            }
        }
        sampler.sample(&machine, &mut reg);
    }
    let series = cell.into_series();
    register_series_metrics(&mut reg, &series);

    std::fs::create_dir_all(&opts.out_dir)?;
    let s = slug(mix, &format!("{}_{}_c{cores}", fetch.name(), alloc.name()));
    let bufs = machine.disable_trace();
    let mut art = McObsArtifacts {
        core_events: Vec::new(),
        trace_path: opts.out_dir.join(format!("{s}.trace.json")),
        prom_path: opts.out_dir.join(format!("{s}.prom")),
        events_recorded: 0,
        events_retained: 0,
        migrations: migrations.len(),
    };
    let mut per_core: Vec<Vec<smt_sim::TraceEvent>> = Vec::with_capacity(bufs.len());
    for (c, buf) in bufs.iter().enumerate() {
        let buf = buf
            .as_ref()
            .expect("multi-core observe pass ran without tracing enabled");
        art.events_recorded += buf.recorded;
        art.events_retained += buf.len() as u64;
        let path = opts.out_dir.join(format!("{s}.core{c}.events.jsonl"));
        std::fs::write(&path, export::events_jsonl(buf.events()))?;
        art.core_events.push(path);
        per_core.push(buf.events().copied().collect());
    }
    std::fs::write(
        &art.trace_path,
        export::chrome_multicore_trace(&per_core, &migrations),
    )?;
    std::fs::write(&art.prom_path, export::prometheus(&reg))?;

    log_pass(
        "observed_mc",
        &format!("{}/{}+{}x{cores}", mix.name, fetch.name(), alloc.name()),
        &series,
        (art.events_recorded, art.events_retained),
        opts,
        t0,
    );
    Ok(art)
}

/// `repro`'s multi-core `--obs` entry point (`--alloc --cores N`
/// with `--obs`): one instrumented pass per selected mix × allocation
/// policy, fetch fixed at ICOUNT, artifacts under `opts.out_dir`.
pub fn run_observations_multicore(
    p: &ExpParams,
    opts: &ObsOptions,
    cores: usize,
    penalty: u64,
    allocs: &[AllocKind],
) {
    sweep::engine().begin_scope("obs-mc");
    for mix in p.mixes() {
        for &alloc in allocs {
            match observe_alloc(&mix, FetchPolicy::Icount, alloc, p, cores, penalty, opts) {
                Ok(a) => println!(
                    "[obs] {} ({} events recorded, {} retained, {} migrations)",
                    a.trace_path.display(),
                    a.events_recorded,
                    a.events_retained,
                    a.migrations
                ),
                Err(e) => eprintln!(
                    "warning: multi-core obs pass for {}/{} failed: {e}",
                    mix.name,
                    alloc.name()
                ),
            }
        }
    }
    println!("{}\n", sweep::engine().scope_summary());
}

/// `repro`'s `--obs` entry point: one fixed-ICOUNT pass and one
/// adaptive pass per selected mix, artifacts under `opts.out_dir`.
pub fn run_observations(p: &ExpParams, opts: &ObsOptions) {
    sweep::engine().begin_scope("obs");
    for mix in p.mixes() {
        let adts = AdtsConfig {
            quantum_cycles: p.quantum_cycles,
            ..AdtsConfig::default()
        };
        for result in [
            observe_fixed(&mix, FetchPolicy::Icount, p, opts),
            observe_adaptive(&mix, adts, p, opts),
        ] {
            match result {
                Ok(a) => println!(
                    "[obs] {} ({} events recorded, {} retained)",
                    a.trace_path.display(),
                    a.events_recorded,
                    a.events_retained
                ),
                Err(e) => eprintln!("warning: obs pass for {} failed: {e}", mix.name),
            }
        }
    }
    println!("{}\n", sweep::engine().scope_summary());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_opts(tag: &str) -> ObsOptions {
        ObsOptions {
            enabled: true,
            out_dir: std::env::temp_dir()
                .join(format!("smt-adts-obs-test-{}-{tag}", std::process::id())),
            events_cap: 4096,
        }
    }

    fn tiny_params() -> ExpParams {
        ExpParams {
            seed: 42,
            warmup_quanta: 1,
            quanta: 2,
            quantum_cycles: 1024,
            mix_ids: vec![1],
        }
    }

    #[test]
    fn fixed_pass_writes_all_three_artifacts() {
        let opts = tmp_opts("fixed");
        let p = tiny_params();
        let mix = smt_workloads::mix(1).take_threads(2, 1);
        let art = observe_fixed(&mix, FetchPolicy::Icount, &p, &opts).unwrap();
        assert!(art.events_recorded > 0);
        for path in [&art.events_path, &art.trace_path, &art.prom_path] {
            let text = std::fs::read_to_string(path).unwrap();
            assert!(!text.is_empty(), "{} must not be empty", path.display());
        }
        // Every JSONL line parses back into an event.
        let jsonl = std::fs::read_to_string(&art.events_path).unwrap();
        for line in jsonl.lines() {
            let _: smt_sim::TraceEvent = serde::json::from_str(line).unwrap();
        }
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn multicore_pass_writes_per_core_events_and_merged_trace() {
        let opts = tmp_opts("mc");
        let p = tiny_params();
        let mix = smt_workloads::mix(1).take_threads(4, 7);
        let art = observe_alloc(
            &mix,
            FetchPolicy::Icount,
            AllocKind::Rotate,
            &p,
            2,
            64,
            &opts,
        )
        .unwrap();
        assert_eq!(art.core_events.len(), 2);
        assert!(art.events_recorded > 0);
        for path in &art.core_events {
            let text = std::fs::read_to_string(path).unwrap();
            assert!(!text.is_empty(), "{} must not be empty", path.display());
            for line in text.lines() {
                let _: smt_sim::TraceEvent = serde::json::from_str(line).unwrap();
            }
        }
        // Rotate cyclic-shifts the placement every boundary, so the merged
        // trace must carry migration arrows between core track groups.
        assert!(art.migrations > 0);
        let trace = std::fs::read_to_string(&art.trace_path).unwrap();
        assert!(trace.contains("migrate"), "arrows missing from trace");
        let prom = std::fs::read_to_string(&art.prom_path).unwrap();
        assert!(prom.contains("shared_l2_accesses"), "{prom}");
        assert!(prom.contains("core1_fetch_slots"), "{prom}");
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn adaptive_pass_writes_prometheus_with_switch_counters() {
        let opts = tmp_opts("adaptive");
        let p = tiny_params();
        let mix = smt_workloads::mix(1).take_threads(2, 1);
        let cfg = AdtsConfig {
            quantum_cycles: p.quantum_cycles,
            ..AdtsConfig::default()
        };
        let art = observe_adaptive(&mix, cfg, &p, &opts).unwrap();
        let prom = std::fs::read_to_string(&art.prom_path).unwrap();
        assert!(prom.contains("smt_policy_switches"));
        assert!(prom.contains("smt_int_iq_depth_bucket"));
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }
}
