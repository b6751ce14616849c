//! `--attr` slot-accounting "explain" passes for `repro --attr`.
//!
//! An explain pass re-runs a canonical point with the slot-attribution
//! layer enabled (and, for the adaptive pass, the decision-audit ring),
//! then renders where every fetch/issue/commit slot of every cycle went:
//!
//! - `<point>.cpi.csv` / `<point>.cpi.json` — the per-thread CPI stack
//!   (slots per category per stage), also printed as a text table;
//! - `<point>.slots.trace.json` — Chrome `trace_event` counter tracks of
//!   the per-quantum stack deltas (stacked-area view in Perfetto);
//! - `<point>.attr.prom` — the same stacks as Prometheus counters;
//! - `<point>.decisions.jsonl` (adaptive only) — one ADTS
//!   [`DecisionRecord`] per quantum;
//! - `<point>.timeline.txt` (adaptive only) — the switch timeline: each
//!   quantum's policy, IPC vs threshold, decision reason and dominant
//!   fetch-loss cause, correlating decisions with slot-stack shifts.
//!
//! Like the `--obs` passes, explain passes bypass the sweep result cache
//! (a cache hit would skip simulation) but append telemetry records, and
//! must not change simulated behavior — `tests/proptest_attr.rs` and the
//! golden suite pin that.

use crate::obs::slug;
use crate::params::ExpParams;
use crate::sweep;
use crate::warm::{warmed_machine, warmed_multicore};
use adts_core::{
    alloc_decisions_jsonl, decisions_jsonl, run_fixed_sampled, AdaptiveScheduler, AdtsConfig,
    AllocCell, AllocDecisionRecord, AllocKind, DecisionRecord,
};
use smt_policies::FetchPolicy;
use smt_sim::obs::{
    export, merge_attr_snapshots, register_attr_metrics, AttrSnapshot, CommitCause, FetchCause,
    IssueCause, MetricsRegistry, SlotStack,
};
use smt_sim::run_scalar_quantum;
use smt_stats::{percent_cell, shares, Table};
use smt_workloads::Mix;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parsed `--attr*` flags.
#[derive(Clone, Debug)]
pub struct AttrOptions {
    /// `--attr`: run the explain passes at all.
    pub enabled: bool,
    /// `--attr-out DIR`: artifact directory.
    pub out_dir: PathBuf,
}

impl Default for AttrOptions {
    fn default() -> Self {
        AttrOptions {
            enabled: false,
            out_dir: PathBuf::from("results/attr"),
        }
    }
}

/// Where one explain pass's artifacts landed.
#[derive(Clone, Debug)]
pub struct AttrArtifacts {
    pub cpi_csv: PathBuf,
    pub cpi_json: PathBuf,
    pub slots_trace: PathBuf,
    pub prom_path: PathBuf,
    /// Adaptive passes only.
    pub decisions_path: Option<PathBuf>,
    /// Adaptive passes only.
    pub timeline_path: Option<PathBuf>,
}

/// One stage's rows for the CPI table: stage label, category names, and
/// per-thread count vectors in category order.
type StageRows = (&'static str, Vec<&'static str>, Vec<Vec<u64>>);

/// The compact CPI-stack table: one row per (stage, category) with
/// per-thread slot counts and the category's share of the stage total.
pub fn cpi_table(title: &str, snap: &AttrSnapshot) -> Table {
    let n = snap.threads.len();
    let mut header: Vec<String> = vec!["stage".into(), "category".into()];
    header.extend((0..n).map(|t| format!("t{t}")));
    header.push("total".into());
    header.push("share".into());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(title, &header_refs);
    let stages: [StageRows; 3] = [
        (
            "fetch",
            FetchCause::ALL.iter().map(|c| c.name()).collect(),
            snap.threads.iter().map(|s| s.fetch.to_vec()).collect(),
        ),
        (
            "issue",
            IssueCause::ALL.iter().map(|c| c.name()).collect(),
            snap.threads.iter().map(|s| s.issue.to_vec()).collect(),
        ),
        (
            "commit",
            CommitCause::ALL.iter().map(|c| c.name()).collect(),
            snap.threads.iter().map(|s| s.commit.to_vec()).collect(),
        ),
    ];
    for (stage, names, per_thread) in stages {
        let totals: Vec<u64> = (0..names.len())
            .map(|c| per_thread.iter().map(|counts| counts[c]).sum())
            .collect();
        let stage_shares = shares(&totals);
        for (c, name) in names.iter().enumerate() {
            let mut row = vec![stage.to_string(), (*name).to_string()];
            row.extend(per_thread.iter().map(|counts| counts[c].to_string()));
            row.push(totals[c].to_string());
            row.push(percent_cell(stage_shares[c]));
            table.row(row);
        }
    }
    table
}

/// Dominant *loss* cause of a fetch stack (index 0 is the used-slot
/// category), as `(name, share-of-losses)`.
fn dominant_fetch_loss(stack: &SlotStack) -> Option<(&'static str, f64)> {
    let losses = &stack.fetch[1..];
    let idx = smt_stats::dominant(losses)?;
    let total: u64 = losses.iter().sum();
    Some((
        FetchCause::ALL[idx + 1].name(),
        losses[idx] as f64 / total as f64,
    ))
}

/// Sum a snapshot's per-thread stacks into one machine-wide stack.
fn machine_stack(snap: &AttrSnapshot) -> SlotStack {
    let mut total = SlotStack::default();
    for s in &snap.threads {
        for (acc, x) in total.fetch.iter_mut().zip(&s.fetch) {
            *acc += x;
        }
        for (acc, x) in total.issue.iter_mut().zip(&s.issue) {
            *acc += x;
        }
        for (acc, x) in total.commit.iter_mut().zip(&s.commit) {
            *acc += x;
        }
    }
    total
}

/// The switch timeline: one line per quantum correlating the ADTS decision
/// with that quantum's dominant fetch-loss cause.
fn render_timeline(audit: &[&DecisionRecord], quantum_stacks: &[SlotStack]) -> String {
    let mut out = String::from(
        "# q  policy(incumbent->chosen)  ipc/threshold  reason  fired  dominant-fetch-loss\n",
    );
    for (rec, stack) in audit.iter().zip(quantum_stacks) {
        let policy = if rec.chosen == rec.incumbent {
            rec.incumbent.name().to_string()
        } else {
            format!("{}->{}", rec.incumbent.name(), rec.chosen.name())
        };
        let fired = match &rec.trace {
            Some(t) => {
                let f = t.fired();
                if f.is_empty() {
                    "-".to_string()
                } else {
                    f.join(",")
                }
            }
            None => "-".to_string(),
        };
        let loss = match dominant_fetch_loss(stack) {
            Some((name, share)) => format!("{name} {}", percent_cell(share)),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "q={:<4} {:24} ipc={:.3}/{:.3} {:18} fired=[{}] loss={}{}\n",
            rec.quantum,
            policy,
            rec.ipc,
            rec.threshold,
            rec.reason.name(),
            fired,
            loss,
            if rec.switched { "  [SWITCH]" } else { "" },
        ));
    }
    out
}

/// Per-quantum machine-wide stack deltas from the cumulative snapshots.
fn quantum_deltas(snaps: &[AttrSnapshot]) -> Vec<SlotStack> {
    let mut out = Vec::with_capacity(snaps.len());
    let mut prev: Option<&AttrSnapshot> = None;
    for snap in snaps {
        let delta = match prev {
            Some(p) => snap.delta(p),
            None => snap.clone(),
        };
        out.push(machine_stack(&delta));
        prev = Some(snap);
    }
    out
}

fn write_attr_artifacts(
    final_snap: &AttrSnapshot,
    snaps: &[AttrSnapshot],
    audit: &[&DecisionRecord],
    out_dir: &Path,
    slug: &str,
    title: &str,
) -> std::io::Result<AttrArtifacts> {
    std::fs::create_dir_all(out_dir)?;
    let table = cpi_table(title, final_snap);
    println!("{}", table.render());
    let art = AttrArtifacts {
        cpi_csv: out_dir.join(format!("{slug}.cpi.csv")),
        cpi_json: out_dir.join(format!("{slug}.cpi.json")),
        slots_trace: out_dir.join(format!("{slug}.slots.trace.json")),
        prom_path: out_dir.join(format!("{slug}.attr.prom")),
        decisions_path: (!audit.is_empty())
            .then(|| out_dir.join(format!("{slug}.decisions.jsonl"))),
        timeline_path: (!audit.is_empty()).then(|| out_dir.join(format!("{slug}.timeline.txt"))),
    };
    table.to_csv(&art.cpi_csv)?;
    std::fs::write(&art.cpi_json, serde::json::to_string(final_snap))?;
    // Per-quantum per-thread deltas as Chrome counter tracks, ts = cycles
    // since the explain window began.
    let mut samples: Vec<(u64, u8, SlotStack)> = Vec::new();
    let mut prev: Option<&AttrSnapshot> = None;
    for snap in snaps {
        let delta = match prev {
            Some(p) => snap.delta(p),
            None => snap.clone(),
        };
        for (t, stack) in delta.threads.iter().enumerate() {
            samples.push((snap.cycles, t as u8, stack.clone()));
        }
        prev = Some(snap);
    }
    std::fs::write(
        &art.slots_trace,
        export::chrome_slot_tracks(samples.iter().map(|(ts, t, s)| (*ts, *t, s))),
    )?;
    let mut reg = MetricsRegistry::new();
    register_attr_metrics(&mut reg, final_snap);
    std::fs::write(&art.prom_path, export::prometheus(&reg))?;
    if let Some(path) = &art.decisions_path {
        std::fs::write(path, decisions_jsonl(audit.iter().copied()))?;
    }
    if let Some(path) = &art.timeline_path {
        std::fs::write(path, render_timeline(audit, &quantum_deltas(snaps)))?;
    }
    Ok(art)
}

fn log_pass(point: &str, series: &smt_stats::RunSeries, wall_ms: f64) {
    let rec = sweep::TelemetryRecord::from_series(
        "attr",
        "explained",
        point,
        "-".into(),
        sweep::CacheOutcome::Bypass,
        wall_ms,
        series,
    );
    sweep::engine().append_telemetry(&rec, wall_ms);
}

/// Fixed-policy explain pass over one mix: warm up exactly like the
/// experiment harness, then attribute every slot of the measured quanta.
pub fn explain_fixed(
    mix: &Mix,
    policy: FetchPolicy,
    p: &ExpParams,
    opts: &AttrOptions,
) -> std::io::Result<AttrArtifacts> {
    explain_warmed(warmed_machine(mix, p), &mix.name, policy, p, opts)
}

/// Fixed-policy explain pass over an already-warmed machine with an
/// explicit point name — the shared core of [`explain_fixed`] and the
/// trace-backed explain pass (`tracebench`), which build their machines
/// differently but attribute identically. Artifacts land under
/// `<name>_<policy>` (lowercased), matching the historical
/// [`explain_fixed`] slugs.
pub fn explain_warmed(
    mut machine: smt_sim::SmtMachine,
    name: &str,
    policy: FetchPolicy,
    p: &ExpParams,
    opts: &AttrOptions,
) -> std::io::Result<AttrArtifacts> {
    let t0 = Instant::now();
    machine.enable_attr();
    let mut snaps: Vec<AttrSnapshot> = Vec::with_capacity(p.quanta as usize);
    let series = run_fixed_sampled(
        policy,
        &mut machine,
        p.quanta,
        p.quantum_cycles,
        |_, m, _| {
            snaps.push(m.attr().expect("attr enabled").snapshot());
        },
    );
    let attr = machine
        .disable_attr()
        .expect("explain pass ran without attribution enabled");
    let s = format!(
        "{}_{}",
        name.to_ascii_lowercase(),
        policy.name().to_ascii_lowercase()
    );
    let title = format!(
        "CPI stack — {} under {} ({} quanta x {} cycles)",
        name,
        policy.name(),
        p.quanta,
        p.quantum_cycles
    );
    let art = write_attr_artifacts(&attr.snapshot(), &snaps, &[], &opts.out_dir, &s, &title)?;
    log_pass(
        &format!("{}/{}", name, policy.name()),
        &series,
        t0.elapsed().as_secs_f64() * 1e3,
    );
    Ok(art)
}

/// Adaptive (ADTS) explain pass: slot attribution plus the per-quantum
/// decision audit and switch timeline.
pub fn explain_adaptive(
    mix: &Mix,
    cfg: AdtsConfig,
    p: &ExpParams,
    opts: &AttrOptions,
) -> std::io::Result<AttrArtifacts> {
    let t0 = Instant::now();
    let mut machine = warmed_machine(mix, p);
    machine.enable_attr();
    let mut snaps: Vec<AttrSnapshot> = Vec::with_capacity(p.quanta as usize);
    let mut sched = AdaptiveScheduler::new(cfg, machine.n_threads());
    for _ in 0..p.quanta {
        sched.run_quantum(&mut machine);
        snaps.push(machine.attr().expect("attr enabled").snapshot());
    }
    let attr = machine
        .disable_attr()
        .expect("explain pass ran without attribution enabled");
    let (series, audit) = sched.into_recordings();
    let audit: Vec<&DecisionRecord> = audit.iter().collect();
    let s = slug(mix, "adts");
    let title = format!(
        "CPI stack — {} under ADTS ({} quanta x {} cycles)",
        mix.name, p.quanta, p.quantum_cycles
    );
    let art = write_attr_artifacts(&attr.snapshot(), &snaps, &audit, &opts.out_dir, &s, &title)?;
    log_pass(
        &format!("{}/adts", mix.name),
        &series,
        t0.elapsed().as_secs_f64() * 1e3,
    );
    Ok(art)
}

/// Where one multi-core explain pass's artifacts landed.
#[derive(Clone, Debug)]
pub struct McAttrArtifacts {
    /// One CPI-stack CSV per core, `<slug>.core<c>.cpi.csv`.
    pub core_cpi_csv: Vec<PathBuf>,
    /// Merged machine-wide snapshot ([`merge_attr_snapshots`]) as JSON.
    pub cpi_json: PathBuf,
    /// One [`AllocDecisionRecord`] per quantum boundary.
    pub decisions_path: PathBuf,
    /// Human-readable migration timeline.
    pub timeline_path: PathBuf,
}

/// The migration timeline: one line per quantum boundary naming the
/// allocation decision and every hop it caused.
fn render_migration_timeline(records: &[&AllocDecisionRecord]) -> String {
    let mut out = String::from("# q  policy  reason  migrations  moves\n");
    for rec in records {
        let moves: Vec<String> = rec
            .threads
            .iter()
            .filter(|r| r.migrated)
            .map(|r| format!("t{}:c{}->c{}", r.thread, r.from_core, r.to_core))
            .collect();
        out.push_str(&format!(
            "q={:<4} {:12} {:14} {:<3} {}\n",
            rec.quantum,
            rec.policy,
            rec.reason.name(),
            rec.migrations,
            if moves.is_empty() {
                "-".to_string()
            } else {
                moves.join(" ")
            },
        ));
    }
    out
}

/// Multi-core explain pass: slot attribution on every core plus the
/// allocation decision audit. Produces per-core CPI stacks (each
/// conserving `cycles x width` for its own core), the merged machine
/// stack, the per-quantum [`AllocDecisionRecord`] log and the migration
/// timeline. Migration stall cycles surface in the `migration` fetch
/// category of the affected threads' stacks.
pub fn explain_alloc(
    mix: &Mix,
    fetch: FetchPolicy,
    alloc: AllocKind,
    p: &ExpParams,
    cores: usize,
    penalty: u64,
    opts: &AttrOptions,
) -> std::io::Result<McAttrArtifacts> {
    let t0 = Instant::now();
    let mut machine = warmed_multicore(mix, p, cores, penalty);
    machine.enable_attr();
    let mut cell = AllocCell::new(fetch, alloc, p.quantum_cycles, &machine);
    cell.enable_audit(p.quanta as usize + 1);
    for _ in 0..p.quanta {
        run_scalar_quantum(&mut cell, &mut machine);
    }
    let per_core_snaps: Vec<AttrSnapshot> = machine
        .disable_attr()
        .into_iter()
        .map(|a| {
            a.expect("multi-core explain pass ran without attribution enabled")
                .snapshot()
        })
        .collect();
    let audit = cell
        .take_audit()
        .expect("audit ring was enabled before the run");
    let records: Vec<&AllocDecisionRecord> = audit.iter().collect();
    let series = cell.into_series();

    std::fs::create_dir_all(&opts.out_dir)?;
    let s = slug(mix, &format!("{}_{}_c{cores}", fetch.name(), alloc.name()));
    let mut art = McAttrArtifacts {
        core_cpi_csv: Vec::new(),
        cpi_json: opts.out_dir.join(format!("{s}.cpi.json")),
        decisions_path: opts.out_dir.join(format!("{s}.decisions.jsonl")),
        timeline_path: opts.out_dir.join(format!("{s}.migration_timeline.txt")),
    };
    for (c, snap) in per_core_snaps.iter().enumerate() {
        let title = format!(
            "CPI stack — {} core {c} under {}+{} ({} quanta x {} cycles)",
            mix.name,
            fetch.name(),
            alloc.name(),
            p.quanta,
            p.quantum_cycles
        );
        let table = cpi_table(&title, snap);
        println!("{}", table.render());
        let path = opts.out_dir.join(format!("{s}.core{c}.cpi.csv"));
        table.to_csv(&path)?;
        art.core_cpi_csv.push(path);
    }
    let merged = merge_attr_snapshots(&per_core_snaps);
    std::fs::write(&art.cpi_json, serde::json::to_string(&merged))?;
    std::fs::write(
        &art.decisions_path,
        alloc_decisions_jsonl(records.iter().copied()),
    )?;
    std::fs::write(&art.timeline_path, render_migration_timeline(&records))?;
    log_pass(
        &format!("{}/{}+{}x{cores}", mix.name, fetch.name(), alloc.name()),
        &series,
        t0.elapsed().as_secs_f64() * 1e3,
    );
    Ok(art)
}

/// `repro`'s multi-core `--attr` entry point (`--alloc --cores N`
/// with `--attr`): one explain pass per selected mix × allocation
/// policy, fetch fixed at ICOUNT.
pub fn run_explain_multicore(
    p: &ExpParams,
    opts: &AttrOptions,
    cores: usize,
    penalty: u64,
    allocs: &[AllocKind],
) {
    sweep::engine().begin_scope("attr-mc");
    for mix in p.mixes() {
        for &alloc in allocs {
            match explain_alloc(&mix, FetchPolicy::Icount, alloc, p, cores, penalty, opts) {
                Ok(a) => {
                    for c in &a.core_cpi_csv {
                        println!("[attr] {}", c.display());
                    }
                    println!("[attr] {}", a.decisions_path.display());
                }
                Err(e) => eprintln!(
                    "warning: multi-core attr pass for {}/{} failed: {e}",
                    mix.name,
                    alloc.name()
                ),
            }
        }
    }
    println!("{}\n", sweep::engine().scope_summary());
}

/// `repro`'s `--attr` entry point: one fixed-ICOUNT explain pass and
/// one adaptive explain pass per selected mix.
pub fn run_explain(p: &ExpParams, opts: &AttrOptions) {
    sweep::engine().begin_scope("attr");
    for mix in p.mixes() {
        let adts = AdtsConfig {
            quantum_cycles: p.quantum_cycles,
            ..AdtsConfig::default()
        };
        for result in [
            explain_fixed(&mix, FetchPolicy::Icount, p, opts),
            explain_adaptive(&mix, adts, p, opts),
        ] {
            match result {
                Ok(a) => {
                    println!("[attr] {}", a.cpi_csv.display());
                    if let Some(d) = &a.decisions_path {
                        println!("[attr] {}", d.display());
                    }
                }
                Err(e) => eprintln!("warning: attr pass for {} failed: {e}", mix.name),
            }
        }
    }
    println!("{}\n", sweep::engine().scope_summary());
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn tmp_opts(tag: &str) -> AttrOptions {
        AttrOptions {
            enabled: true,
            out_dir: std::env::temp_dir()
                .join(format!("smt-adts-attr-test-{}-{tag}", std::process::id())),
        }
    }

    fn tiny_params() -> ExpParams {
        ExpParams {
            seed: 42,
            warmup_quanta: 1,
            quanta: 3,
            quantum_cycles: 1024,
            mix_ids: vec![1],
        }
    }

    #[test]
    fn fixed_explain_writes_conserving_cpi_stack() {
        let opts = tmp_opts("fixed");
        let p = tiny_params();
        let mix = smt_workloads::mix(1).take_threads(2, 1);
        let art = explain_fixed(&mix, FetchPolicy::Icount, &p, &opts).unwrap();
        assert!(art.decisions_path.is_none());
        let json = std::fs::read_to_string(&art.cpi_json).unwrap();
        let v: Value = serde::json::from_str(&json).unwrap();
        let Some(Value::UInt(cycles)) = v.get("cycles") else {
            panic!("cycles must be an unsigned integer");
        };
        assert_eq!(*cycles, p.quanta * p.quantum_cycles);
        // Every stage stack must account for cycles x width slots.
        let Some(Value::Seq(threads)) = v.get("threads") else {
            panic!("threads must be a list");
        };
        assert_eq!(threads.len(), 2);
        let sum_stage = |stage: &str| -> u64 {
            threads
                .iter()
                .map(|t| {
                    let Some(Value::Map(stacks)) = t.get(stage) else {
                        panic!("{stage} must be a map");
                    };
                    stacks
                        .iter()
                        .map(|(_, v)| match v {
                            Value::UInt(u) => *u,
                            other => panic!("count must be uint, got {other:?}"),
                        })
                        .sum::<u64>()
                })
                .sum()
        };
        let cfg = smt_sim::SimConfig::with_threads(2);
        assert_eq!(sum_stage("fetch"), *cycles * cfg.fetch_width as u64);
        assert_eq!(sum_stage("issue"), *cycles * cfg.issue_width as u64);
        assert_eq!(sum_stage("commit"), *cycles * cfg.commit_width as u64);
        let csv = std::fs::read_to_string(&art.cpi_csv).unwrap();
        assert!(csv.contains("policy_starved"));
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn multicore_explain_conserves_slots_per_core() {
        let opts = tmp_opts("mc");
        let p = tiny_params();
        let mix = smt_workloads::mix(1).take_threads(4, 7);
        let art = explain_alloc(
            &mix,
            FetchPolicy::Icount,
            AllocKind::Rotate,
            &p,
            2,
            64,
            &opts,
        )
        .unwrap();
        assert_eq!(art.core_cpi_csv.len(), 2);
        let window = p.quanta * p.quantum_cycles;
        let cfg = smt_sim::SimConfig::with_threads(2);
        for path in &art.core_cpi_csv {
            // Re-sum the per-core CSV: each stage must account for
            // exactly cycles x width slots on its own core.
            let csv = std::fs::read_to_string(path).unwrap();
            let mut fetch_total = 0u64;
            for line in csv.lines().skip(1) {
                let cols: Vec<&str> = line.split(',').collect();
                if cols[0] == "fetch" {
                    fetch_total += cols[cols.len() - 2].parse::<u64>().unwrap();
                }
            }
            assert_eq!(
                fetch_total,
                window * cfg.fetch_width as u64,
                "{}",
                path.display()
            );
        }
        // The merged snapshot spans the same window, all threads.
        let json = std::fs::read_to_string(&art.cpi_json).unwrap();
        let v: Value = serde::json::from_str(&json).unwrap();
        assert_eq!(v.get("cycles"), Some(&Value::UInt(window)));
        let Some(Value::Seq(threads)) = v.get("threads") else {
            panic!("threads must be a list");
        };
        // Every core carries one context slot per mix thread, so the
        // merged stack has cores x threads entries (2 x 4).
        assert_eq!(threads.len(), 8);
        // One decision per quantum, each with a rotate rationale.
        let decisions = std::fs::read_to_string(&art.decisions_path).unwrap();
        assert_eq!(decisions.lines().count(), p.quanta as usize);
        for line in decisions.lines() {
            let v: Value = serde::json::from_str(line).unwrap();
            assert_eq!(v.get("policy"), Some(&Value::Str("rotate".into())));
            assert_eq!(v.get("reason"), Some(&Value::Str("cyclic_shift".into())));
        }
        let timeline = std::fs::read_to_string(&art.timeline_path).unwrap();
        assert_eq!(timeline.lines().count(), 1 + p.quanta as usize);
        assert!(timeline.contains("->c"), "rotate must migrate:\n{timeline}");
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn adaptive_explain_writes_decisions_and_timeline() {
        let opts = tmp_opts("adaptive");
        let p = tiny_params();
        let mix = smt_workloads::mix(1).take_threads(2, 1);
        let cfg = AdtsConfig {
            quantum_cycles: p.quantum_cycles,
            ipc_threshold: 8.0,
            ..AdtsConfig::default()
        };
        let art = explain_adaptive(&mix, cfg, &p, &opts).unwrap();
        let decisions = std::fs::read_to_string(art.decisions_path.as_ref().unwrap()).unwrap();
        assert_eq!(decisions.lines().count(), p.quanta as usize);
        for line in decisions.lines() {
            let v: Value = serde::json::from_str(line).unwrap();
            let Some(Value::Str(reason)) = v.get("reason") else {
                panic!("reason must be a string");
            };
            assert!(!reason.is_empty());
        }
        let timeline = std::fs::read_to_string(art.timeline_path.as_ref().unwrap()).unwrap();
        // Header plus one line per quantum.
        assert_eq!(timeline.lines().count(), 1 + p.quanta as usize);
        assert!(timeline.contains("loss="));
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }
}
