//! `repro` — regenerate every table and figure of the paper's evaluation,
//! plus the ablations, the COND_* calibration and the workload
//! characterization.
//!
//! ```text
//! repro [OPTIONS] <EXPERIMENT>...
//! ```
//!
//! `repro --help` lists every experiment and option.

use smt_bench::cli::{self, Cli, EXPERIMENTS};
use smt_bench::{
    ablate_cond, ablate_dt, ablate_fetchmech, ablate_prefetch, ablate_quantum, ablate_rotation,
    ablate_threshold, alloc_sweep, attr, calibrate, characterize, headline, headline_random,
    jobsched, obs, oracle, scaling, sweep, table1, threshold_type_sweep, tracebench,
    ThresholdTypeSweep,
};
use smt_stats::Table;
use std::path::PathBuf;
use std::time::Instant;

fn emit(table: &Table, slug: &str, out: &Option<PathBuf>) {
    println!("{}", table.render());
    if let Some(dir) = out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{slug}.csv"));
        match table.to_csv(&path) {
            Ok(()) => println!("[csv] {}\n", path.display()),
            Err(e) => eprintln!("warning: csv write failed: {e}"),
        }
    }
}

fn main() {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\nrun `repro --help` for usage");
            std::process::exit(2);
        }
    };
    if cli.help {
        println!("{}", cli::help());
        return;
    }
    sweep::configure(sweep::SweepConfig {
        jobs: cli.jobs,
        cache_dir: (!cli.no_cache).then(|| cli.cache_dir.clone()),
        telemetry_path: (!cli.no_telemetry).then(|| {
            cli.out
                .clone()
                .unwrap_or_else(|| PathBuf::from("results"))
                .join("telemetry.jsonl")
        }),
    });
    smt_bench::warm::set_enabled(cli.ckpt);
    smt_bench::warm::configure_store(cli.ckpt.then(|| cli.ckpt_dir.clone()));
    if cli.spans {
        sweep::span::set_enabled(true);
    }
    let t0 = Instant::now();
    if cli.trace_pass() {
        if let Err(e) = tracebench::run_cli(&cli) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    } else {
        run_experiments(&cli);
    }
    if cli.spans {
        match sweep::spans().write_artifacts(&cli.spans_out) {
            Ok(art) => println!("[spans] {}", art.trace.display()),
            Err(e) => eprintln!(
                "warning: engine span artifacts at {} failed: {e}",
                cli.spans_out.display()
            ),
        }
    }
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());
}

/// The selected experiments in [`EXPERIMENTS`] order, then the
/// instrumented passes.
fn run_experiments(cli: &Cli) {
    let p = &cli.params;
    println!(
        "# repro: seed={} quanta={} quantum={} mixes={:?} jobs={} cache={}\n",
        p.seed,
        p.quanta,
        p.quantum_cycles,
        p.mix_ids,
        sweep::engine().jobs(),
        if sweep::engine().cache_enabled() {
            "on"
        } else {
            "off"
        },
    );
    // Compute a table inside a named engine scope and print the scope's
    // cache/wall accounting line right after the table itself.
    let run = |slug: &str, table: &dyn Fn() -> Table| {
        sweep::engine().begin_scope(slug);
        let t = table();
        emit(&t, slug, &cli.out);
        println!("{}\n", sweep::engine().scope_summary());
    };
    // fig7 and fig8 read the same threshold x type sweep, run once.
    let mut tts: Option<ThresholdTypeSweep> = None;
    let scoped_tts = || {
        sweep::engine().begin_scope("e2_e7_threshold_type_sweep");
        let sw = threshold_type_sweep(p);
        println!("{}\n", sweep::engine().scope_summary());
        sw
    };

    for &(name, _) in EXPERIMENTS {
        if name == "all" || !cli.wants(name) {
            continue;
        }
        match name {
            "table1" => run("e1_table1", &|| table1(p)),
            "fig7" => {
                let sw = tts.get_or_insert_with(scoped_tts);
                emit(&sw.fig7a(), "e2_fig7a", &cli.out);
                emit(&sw.fig7b(), "e3_fig7b", &cli.out);
                emit(&sw.fig7c(), "e4_fig7c", &cli.out);
                emit(&sw.fig7d(), "e5_fig7d", &cli.out);
            }
            "fig8" => {
                let sw = tts.get_or_insert_with(scoped_tts);
                emit(&sw.fig8a(), "e6_fig8a", &cli.out);
                emit(&sw.fig8b(), "e7_fig8b", &cli.out);
                let (m, k, ipc) = sw.best();
                println!(
                    "best operating point: {} at m={} (mean IPC {:.3})\n",
                    k.name(),
                    m,
                    ipc
                );
            }
            "headline" => run("e8_headline", &|| headline(p)),
            "headline-random" => run("e8b_headline_random", &|| headline_random(p, 8)),
            "oracle" => run("e9_oracle", &|| oracle(p, cli.oracle_all)),
            "scaling" => run("e10_scaling", &|| scaling(p)),
            "ablate-quantum" => run("a1_quantum", &|| ablate_quantum(p)),
            "ablate-dt" => run("a2_dt", &|| ablate_dt(p)),
            "ablate-cond" => run("a3_cond", &|| ablate_cond(p)),
            "ablate-rotation" => run("a4_rotation", &|| ablate_rotation(p)),
            "ablate-fetchmech" => run("a5_fetchmech", &|| ablate_fetchmech(p)),
            "ablate-prefetch" => run("a6_prefetch", &|| ablate_prefetch(p)),
            "ablate-threshold" => run("x1_threshold", &|| ablate_threshold(p)),
            "jobsched" => run("x2_jobsched", &|| jobsched(p)),
            "alloc" => {
                sweep::engine().begin_scope("x3_alloc_sweep");
                let sw = alloc_sweep(p, cli.cores, &cli.allocs(), cli.mig_penalty);
                println!("{}\n", sweep::engine().scope_summary());
                emit(&sw.ipc_table(), "x3_alloc_ipc", &cli.out);
                emit(&sw.migration_table(), "x3_alloc_migrations", &cli.out);
                let (f, a, ipc) = sw.best();
                println!(
                    "best allocation point: {}/{} on {} cores (mean IPC {:.3})\n",
                    f.name(),
                    a.name(),
                    sw.cores,
                    ipc
                );
            }
            "calibrate" => run("w2_calibrate", &|| calibrate(p)),
            "characterize" => run("w1_characterize", &|| characterize(p)),
            other => unreachable!("experiment {other} has no dispatch arm"),
        }
    }
    // The instrumented passes, in canonical order (observe, then
    // explain). Any allocation flag makes them instrument the allocation
    // experiment on that many cores.
    if cli.obs.enabled {
        if cli.alloc_requested {
            obs::run_observations_multicore(p, &cli.obs, cli.cores, cli.mig_penalty, &cli.allocs());
        } else {
            obs::run_observations(p, &cli.obs);
        }
    }
    if cli.attr.enabled {
        if cli.alloc_requested {
            attr::run_explain_multicore(p, &cli.attr, cli.cores, cli.mig_penalty, &cli.allocs());
        } else {
            attr::run_explain(p, &cli.attr);
        }
    }
}
