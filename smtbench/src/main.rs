//! `smtbench`: run one workload for a fixed time and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path smtbench/Cargo.toml -- \
//!     --workload fixed_dense [--seed 42] [--seconds 10] [--trace 0|1]
//! ```
//!
//! A run sets the workload up and runs a pass over all its points, again
//! and again until `--seconds` have passed; each set-up is timed
//! `SETUP_REPS` times and the median over the run is reported. With
//! `--trace 1` every untraced pass is followed by a traced one; the
//! per-layer metrics come from the traced passes and the spans of the last
//! one are written to `.bench_out/`. Every point is checked
//! against the recorded digest for its seed, or else against the run's
//! first pass, and each driver is checked at reduced scale against the
//! functions users run. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and the metrics.
//!
//! `--record` runs one pass and prints the `recorded.txt` lines of the
//! seed instead.

use smtbench::drive::check_user_path;
use smtbench::metrics::{self, median, Metric};
use smtbench::pass::{run_pass, score, PassResult};
use smtbench::spec::{Kind, Workload, DEFAULT_SEED};
use smtbench::{recorded, trace};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups timed before each pass; the median over the run is reported.
const SETUP_REPS: usize = 101;

/// Untraced passes a run makes at least, however long they take.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: smtbench --workload fixed_dense|adts_sweep|mem_stall \
[--seed N] [--seconds S] [--trace 0|1] [--record]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace, mut record) =
        (None, DEFAULT_SEED, 10, false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                }
            }
            "--record" => record = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        record,
    })
}

fn write_spans(kind: Kind, seed: u64, pass: &PassResult) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans_{}_seed{seed}.jsonl", kind.name()));
    let res = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_jsonl(&pass.spans)));
    match res {
        Ok(()) => println!("spans: {} written to {}", pass.spans.len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Build the workload and look up its recorded digests `SETUP_REPS`
/// times, appending each set-up's wall time to `times`.
fn set_up(args: &Args, times: &mut Vec<f64>) -> (Workload, Option<Vec<u64>>) {
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let w = Workload::new(args.kind, args.seed);
        let rec = recorded::lookup(&w);
        smt_bench::warm::reset_pool();
        times.push(t0.elapsed().as_secs_f64());
        prepared = Some((w, rec));
    }
    prepared.expect("SETUP_REPS is positive")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut setups = Vec::new();
    let (mut w, rec) = set_up(&args, &mut setups);

    if args.record {
        let pass = run_pass(&w, false, None);
        let digests: Result<Vec<u64>, String> = pass
            .outcomes
            .into_iter()
            .map(|o| o.map(|o| o.digest))
            .collect();
        return match digests {
            Ok(d) => {
                print!("{}", recorded::lines(&w, &d));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: a point failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<PassResult> = Vec::new();
    let mut rss_mb = None;
    loop {
        // Every pass is set up afresh, so the set-up samples span the run
        // as the pass times do.
        if !passes.is_empty() {
            w = set_up(&args, &mut setups).0;
        }
        passes.push(run_pass(&w, false, None));
        if passes.len() == 1 {
            // One uncached pass is what a user's run of the workload
            // peaks at; later passes only reuse the allocator's pools.
            rss_mb = metrics::peak_rss_mb();
        }
        if args.trace {
            passes.push(run_pass(&w, true, None));
        }
        let untraced = passes.iter().filter(|p| !p.traced).count();
        if untraced >= MIN_PASSES && start.elapsed() >= budget {
            break;
        }
    }
    let sc = score(&w, &passes, rec.as_deref());
    let check = check_user_path(&Workload::with_params(
        args.kind,
        args.kind.reduced_params(args.seed),
    ));

    let untraced: Vec<&PassResult> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&PassResult> = passes.iter().filter(|p| p.traced).collect();
    let setup_s = median(&setups);
    let e2e = metrics::end_to_end(setup_s, &untraced);
    let rss_mb = rss_mb.unwrap_or_else(|| {
        eprintln!("warning: no /proc/self/status; peak RSS reported as 0");
        0.0
    });
    println!(
        "workload {} seed {} ({} digests): {} untraced + {} traced passes of {} points, jobs {}",
        args.kind.name(),
        args.seed,
        if rec.is_some() {
            "recorded"
        } else {
            "first-pass"
        },
        untraced.len(),
        traced.len(),
        w.points.len(),
        w.jobs,
    );
    let walls: Vec<String> = untraced
        .iter()
        .map(|p| format!("{:.3}", p.wall_s))
        .collect();
    println!("untraced pass walls (s): {}", walls.join(" "));
    println!("end-to-end (untraced):");
    print!("{}", metrics::human_lines(&e2e));
    // Printed on every run but not bounded: `fail_frac` is 0 while nothing
    // is broken, and `peak_rss_mb` on `adts_sweep` follows the seed's batch
    // fork count (one machine clone per fork).
    let unbounded = [
        Metric {
            name: "fail_frac",
            value: sc.fail_frac(),
            unit: "frac",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss_mb,
            unit: "MB",
        },
    ];
    print!("{}", metrics::human_lines(&unbounded));
    for f in &sc.failures {
        println!("FAILED {f}");
    }
    if let Err(e) = &check {
        println!("FAILED user-path check: {e}");
    }

    let reported = if args.trace {
        let run_s = metrics::median_wall_s(&untraced);
        let layers = metrics::finish_layer_metrics(&w, &traced, run_s, rss_mb);
        println!("per-layer (traced):");
        print!("{}", metrics::human_lines(&layers));
        if let Some(last) = traced.last() {
            write_spans(args.kind, args.seed, last);
        }
        layers
    } else {
        e2e
    };
    let correct = sc.failed == 0 && check.is_ok();
    println!("{}", metrics::result_json(correct, &sc, &reported));
    ExitCode::SUCCESS
}
