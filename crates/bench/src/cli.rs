//! `repro`'s command line: one parser, [`Cli::parse`], for every option,
//! and one experiment list, [`EXPERIMENTS`], that drives name
//! validation, `--help` and dispatch.

use crate::attr::AttrOptions;
use crate::obs::ObsOptions;
use crate::params::ExpParams;
use adts_core::AllocKind;
use std::path::PathBuf;

/// Every experiment `repro` runs, with its one-line help, in run order.
/// `all` selects every other entry.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    ("table1", "E1  fixed-policy baseline (Table 1 context)"),
    (
        "fig7",
        "E2–E5  Fig 7(a)–(d): switch counts and benign-switch probability",
    ),
    (
        "fig8",
        "E6–E7  Fig 8(a)–(d): aggregate IPC vs threshold and type",
    ),
    (
        "headline",
        "E8  ADTS (Type 3, m=2) vs fixed scheduling, per mix",
    ),
    (
        "headline-random",
        "E8b  the E8 comparison on random constrained mixes",
    ),
    (
        "oracle",
        "E9  per-quantum oracle bound (--oracle-all: all ten policies)",
    ),
    ("scaling", "E10  IPC vs thread count {1,2,4,6,8}"),
    ("ablate-quantum", "A1  quantum length"),
    ("ablate-dt", "A2  detector-thread cost model"),
    ("ablate-cond", "A3  COND_MEM / COND_BR conditions"),
    ("ablate-rotation", "A4  Type 2 rotation order"),
    ("ablate-fetchmech", "A5  fetch mechanism"),
    ("ablate-prefetch", "A6  next-line L2 prefetch"),
    ("ablate-threshold", "X1  fixed vs self-tuning IPC threshold"),
    ("jobsched", "X2  clog-mark-assisted job scheduling"),
    (
        "alloc",
        "X3  thread-to-core allocation policies (--cores/--alloc)",
    ),
    (
        "calibrate",
        "W2  COND_* thresholds: mean ICOUNT counter rates (§4.3.2)",
    ),
    (
        "characterize",
        "W1  single-thread counter character of every app",
    ),
    ("all", "every experiment above"),
];

const OPTIONS: &str = "\
options:
  --full              paper-scale runs (~1 M cycles per point)
  --smoke             tiny runs (CI)
  --seed N            root seed (default 42)
  --quanta N          measured quanta per point
  --mixes 1,9,13      restrict to selected mixes
  --out DIR           write CSVs and telemetry.jsonl into DIR (default results)
  --no-csv            skip CSV output
  --oracle-all        oracle over all ten policies too (slow)
  --jobs N            sweep worker threads (default: SMT_BENCH_JOBS, then
                      available parallelism)
  --no-cache          simulate every point even if cached
  --cache-dir DIR     result cache location (default results/cache)
  --no-telemetry      skip the telemetry.jsonl run log
  --obs               after the experiments, re-run each selected mix with event
                      tracing + metrics sampling; export JSONL / Chrome-trace /
                      Prometheus artifacts
  --obs-out DIR       obs artifact directory (default results/obs)
  --obs-events N      trace ring capacity (default 65536)
  --attr              explain mode: re-run each selected mix with slot attribution
                      and the ADTS decision audit; write CPI stacks, decisions
                      and the switch timeline
  --attr-out DIR      explain artifact directory (default results/attr)
  --spans             record a span trace of the sweep engine itself (points,
                      warmups, checkpoint I/O, batch forks, worker lanes)
  --spans-out DIR     span artifact directory (default results/spans)
  --no-ckpt           disable the warm pool and on-disk checkpoint store
  --ckpt-dir DIR      checkpoint store location (default results/cache/ckpt)
  --capture-trace F   record the selected mixes' synthetic runs to SMTTRACE files
                      (standalone: skips the experiments)
  --trace F           replay a captured trace through the threshold x type sweep
                      (with --attr: plus a replayed CPI-stack explain pass)
  --cores N           cores sharing the L2 in the alloc experiment (default 2)
  --alloc NAME        restrict the alloc sweep to this policy (repeatable;
                      default: all four)
  --mig-penalty N     cold-frontend cycles charged per migration (default 256)
  Any of --cores/--alloc/--mig-penalty makes --obs/--attr instrument the
  allocation experiment on that many cores instead of the single-core one.";

/// The `--help` text: usage line, the experiment list and the options.
pub fn help() -> String {
    let mut s = String::from("usage: repro [OPTIONS] <EXPERIMENT>...\n\nexperiments:\n");
    for (name, what) in EXPERIMENTS {
        s.push_str(&format!("  {name:<18}  {what}\n"));
    }
    s.push('\n');
    s.push_str(OPTIONS);
    s
}

/// Everything `repro`'s command line sets.
#[derive(Debug)]
pub struct Cli {
    pub params: ExpParams,
    /// Selected experiment names, each one of [`EXPERIMENTS`].
    pub experiments: Vec<String>,
    /// `--help`, `help`, or nothing to do: print [`help`] and exit.
    pub help: bool,
    /// CSV directory; `None` under `--no-csv`.
    pub out: Option<PathBuf>,
    pub oracle_all: bool,
    pub jobs: Option<usize>,
    pub no_cache: bool,
    pub cache_dir: PathBuf,
    pub no_telemetry: bool,
    pub obs: ObsOptions,
    pub attr: AttrOptions,
    /// `--no-ckpt` clears this: no warm pool and no checkpoint store.
    pub ckpt: bool,
    pub ckpt_dir: PathBuf,
    pub spans: bool,
    pub spans_out: PathBuf,
    pub capture_trace: Option<PathBuf>,
    pub trace: Option<PathBuf>,
    /// `--cores N`: cores sharing the L2 in the allocation experiment.
    pub cores: usize,
    /// `--alloc NAME` (repeatable, duplicates collapse); empty means all
    /// of [`AllocKind::ALL`].
    pub allocs: Vec<AllocKind>,
    /// `--mig-penalty N`: cold-frontend cycles charged per migration.
    pub mig_penalty: u64,
    /// Any of `--cores`/`--alloc`/`--mig-penalty` seen: `--obs`/`--attr`
    /// then instrument the allocation experiment.
    pub alloc_requested: bool,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            params: ExpParams::standard(),
            experiments: Vec::new(),
            help: false,
            out: Some(PathBuf::from("results")),
            oracle_all: false,
            jobs: None,
            no_cache: false,
            cache_dir: PathBuf::from("results/cache"),
            no_telemetry: false,
            obs: ObsOptions::default(),
            attr: AttrOptions::default(),
            ckpt: true,
            ckpt_dir: PathBuf::from("results/cache/ckpt"),
            spans: false,
            spans_out: PathBuf::from("results/spans"),
            capture_trace: None,
            trace: None,
            cores: 2,
            allocs: Vec::new(),
            mig_penalty: 256,
            alloc_requested: false,
        }
    }
}

fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value(args, flag)?
        .parse()
        .map_err(|e| format!("bad {what}: {e}"))
}

impl Cli {
    /// Parse `args` (without the program name). Every malformed value,
    /// unknown option and unknown experiment is an `Err`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => cli.params = ExpParams::full(),
                "--smoke" => cli.params = ExpParams::smoke(),
                "--seed" => cli.params.seed = number(&mut args, &a, "seed")?,
                "--quanta" => cli.params.quanta = number(&mut args, &a, "quanta")?,
                "--mixes" => {
                    cli.params.mix_ids = value(&mut args, &a)?
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<usize>()
                                .map_err(|e| format!("bad mix id: {e}"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--out" => cli.out = Some(PathBuf::from(value(&mut args, &a)?)),
                "--no-csv" => cli.out = None,
                "--oracle-all" => cli.oracle_all = true,
                "--jobs" => cli.jobs = Some(number(&mut args, &a, "jobs")?),
                "--no-cache" => cli.no_cache = true,
                "--cache-dir" => cli.cache_dir = PathBuf::from(value(&mut args, &a)?),
                "--no-telemetry" => cli.no_telemetry = true,
                "--obs" => cli.obs.enabled = true,
                "--obs-out" => cli.obs.out_dir = PathBuf::from(value(&mut args, &a)?),
                "--obs-events" => {
                    cli.obs.events_cap = number(&mut args, &a, "events cap")?;
                    if cli.obs.events_cap == 0 {
                        return Err("--obs-events must be positive".to_string());
                    }
                }
                "--attr" => cli.attr.enabled = true,
                "--attr-out" => cli.attr.out_dir = PathBuf::from(value(&mut args, &a)?),
                "--spans" => cli.spans = true,
                "--spans-out" => cli.spans_out = PathBuf::from(value(&mut args, &a)?),
                "--no-ckpt" => cli.ckpt = false,
                "--ckpt-dir" => cli.ckpt_dir = PathBuf::from(value(&mut args, &a)?),
                "--capture-trace" => cli.capture_trace = Some(PathBuf::from(value(&mut args, &a)?)),
                "--trace" => cli.trace = Some(PathBuf::from(value(&mut args, &a)?)),
                "--cores" => {
                    cli.cores = number(&mut args, &a, "core count")?;
                    if cli.cores == 0 {
                        return Err("--cores must be at least 1".to_string());
                    }
                    cli.alloc_requested = true;
                }
                "--alloc" => {
                    let name = value(&mut args, &a)?;
                    let kind = AllocKind::by_name(&name).ok_or_else(|| {
                        let known: Vec<&str> = AllocKind::ALL.iter().map(|k| k.name()).collect();
                        format!(
                            "unknown allocation policy {name:?} (known: {})",
                            known.join(", ")
                        )
                    })?;
                    if !cli.allocs.contains(&kind) {
                        cli.allocs.push(kind);
                    }
                    cli.alloc_requested = true;
                }
                "--mig-penalty" => {
                    cli.mig_penalty = number(&mut args, &a, "migration penalty")?;
                    cli.alloc_requested = true;
                }
                "--help" | "-h" | "help" => {
                    cli.help = true;
                    break;
                }
                exp if !exp.starts_with('-') => cli.experiments.push(exp.to_string()),
                other => return Err(format!("unknown option {other}")),
            }
        }
        if cli.help {
            cli.experiments.clear();
            return Ok(cli);
        }
        for e in &cli.experiments {
            if !EXPERIMENTS.iter().any(|(name, _)| name == e) {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
                return Err(format!(
                    "unknown experiment {e:?} (known: {})",
                    known.join(", ")
                ));
            }
        }
        cli.help = cli.experiments.is_empty() && !cli.trace_pass();
        Ok(cli)
    }

    /// Is experiment `name` selected (directly or through `all`)?
    pub fn wants(&self, name: &str) -> bool {
        self.experiments.iter().any(|e| e == name || e == "all")
    }

    /// `--capture-trace`/`--trace` given: run the standalone trace pass
    /// instead of the experiments.
    pub fn trace_pass(&self) -> bool {
        self.capture_trace.is_some() || self.trace.is_some()
    }

    /// The allocation policies to sweep: the `--alloc` selection, or all
    /// four.
    pub fn allocs(&self) -> Vec<AllocKind> {
        if self.allocs.is_empty() {
            AllocKind::ALL.to_vec()
        } else {
            self.allocs.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Cli, String> {
        Cli::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_both_flag_families() {
        let cli = parse(&[
            "--obs",
            "--obs-out",
            "obs_dir",
            "--obs-events",
            "128",
            "--attr",
            "--attr-out",
            "attr_dir",
            "table1",
        ])
        .unwrap();
        assert!(cli.obs.enabled && cli.attr.enabled);
        assert_eq!(cli.obs.out_dir, PathBuf::from("obs_dir"));
        assert_eq!(cli.obs.events_cap, 128);
        assert_eq!(cli.attr.out_dir, PathBuf::from("attr_dir"));
    }

    #[test]
    fn defaults_leave_everything_disabled() {
        let cli = parse(&[]).unwrap();
        assert!(!cli.obs.enabled && !cli.attr.enabled);
        assert_eq!(cli.obs.out_dir, PathBuf::from("results/obs"));
        assert_eq!(cli.attr.out_dir, PathBuf::from("results/attr"));
    }

    #[test]
    fn rejects_malformed_values_strictly() {
        assert!(parse(&["--obs-events", "0"]).is_err());
        assert!(parse(&["--obs-events", "many"]).is_err());
        assert!(parse(&["--obs-out"]).is_err());
        assert!(parse(&["--attr-out"]).is_err());
    }

    #[test]
    fn ckpt_defaults_to_enabled_beside_the_result_cache() {
        let cli = parse(&[]).unwrap();
        assert!(cli.ckpt);
        assert_eq!(cli.ckpt_dir, PathBuf::from("results/cache/ckpt"));
    }

    #[test]
    fn ckpt_flags_parse_and_validate() {
        let cli = parse(&["--no-ckpt", "--ckpt-dir", "elsewhere"]).unwrap();
        assert!(!cli.ckpt);
        assert_eq!(cli.ckpt_dir, PathBuf::from("elsewhere"));
        assert!(parse(&["--ckpt-dir"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn trace_flags_parse_and_validate() {
        assert!(!parse(&[]).unwrap().trace_pass());
        let cli = parse(&["--capture-trace", "out.smttrace", "--trace", "in.smttrace"]).unwrap();
        assert!(cli.trace_pass());
        assert!(!cli.help, "a trace pass needs no experiment");
        assert_eq!(cli.capture_trace, Some(PathBuf::from("out.smttrace")));
        assert_eq!(cli.trace, Some(PathBuf::from("in.smttrace")));
        assert!(parse(&["--capture-trace"]).is_err());
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn alloc_defaults_to_two_cores_all_policies() {
        let cli = parse(&[]).unwrap();
        assert!(!cli.alloc_requested);
        assert_eq!(cli.cores, 2);
        assert_eq!(cli.mig_penalty, 256);
        assert_eq!(cli.allocs(), AllocKind::ALL.to_vec());
    }

    #[test]
    fn alloc_flags_parse_and_validate() {
        let cli = parse(&[
            "--cores",
            "4",
            "--alloc",
            "rotate",
            "--alloc",
            "ipc-greedy",
            "--alloc",
            "rotate", // duplicates collapse
            "--mig-penalty",
            "64",
        ])
        .unwrap();
        assert!(cli.alloc_requested);
        assert_eq!(cli.cores, 4);
        assert_eq!(cli.mig_penalty, 64);
        assert_eq!(cli.allocs(), vec![AllocKind::Rotate, AllocKind::IpcGreedy]);
        for flag in [
            &["--cores", "1"][..],
            &["--alloc", "static"],
            &["--mig-penalty", "0"],
        ] {
            assert!(parse(flag).unwrap().alloc_requested, "{flag:?}");
        }
        assert!(parse(&["--cores", "0"]).is_err());
        assert!(parse(&["--cores", "many"]).is_err());
        assert!(parse(&["--alloc"]).is_err());
        let err = parse(&["--alloc", "lru"]).unwrap_err();
        assert!(err.contains("ipc-greedy"), "{err}");
        assert!(parse(&["--mig-penalty", "-1"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn spans_default_off_under_results() {
        let cli = parse(&[]).unwrap();
        assert!(!cli.spans);
        assert_eq!(cli.spans_out, PathBuf::from("results/spans"));
    }

    #[test]
    fn spans_flags_parse_and_validate() {
        let cli = parse(&["--spans", "--spans-out", "elsewhere"]).unwrap();
        assert!(cli.spans);
        assert_eq!(cli.spans_out, PathBuf::from("elsewhere"));
        assert!(parse(&["--spans-out"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn unknown_options_and_experiments_are_rejected() {
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
        let err = parse(&["--all"]).unwrap_err();
        assert!(err.contains("unknown option"), "{err}");
        let err = parse(&["table1", "tabel1"]).unwrap_err();
        assert!(
            err.contains("unknown experiment") && err.contains("characterize"),
            "{err}"
        );
    }

    #[test]
    fn every_value_flag_needs_its_value() {
        for flag in [
            "--seed",
            "--quanta",
            "--mixes",
            "--out",
            "--jobs",
            "--cache-dir",
            "--obs-out",
            "--obs-events",
            "--attr-out",
            "--spans-out",
            "--ckpt-dir",
            "--capture-trace",
            "--trace",
            "--cores",
            "--alloc",
            "--mig-penalty",
        ] {
            let err = parse(&[flag]).unwrap_err();
            assert_eq!(err, format!("{flag} needs a value"));
        }
    }

    #[test]
    fn experiments_select_through_all_and_help_wins() {
        let cli = parse(&["--smoke", "calibrate", "characterize"]).unwrap();
        assert_eq!(cli.params, ExpParams::smoke());
        assert!(cli.wants("calibrate") && cli.wants("characterize"));
        assert!(!cli.wants("table1"));
        let cli = parse(&["all"]).unwrap();
        assert!(EXPERIMENTS.iter().all(|(name, _)| cli.wants(name)));
        assert!(parse(&[]).unwrap().help, "nothing to do prints help");
        let cli = parse(&["table1", "--help", "--frobnicate"]).unwrap();
        assert!(cli.help && cli.experiments.is_empty());
        let text = help();
        assert!(EXPERIMENTS.iter().all(|(name, _)| text.contains(name)));
    }
}
