//! `repro` must reject a malformed flag from every CLI family — strictly,
//! with a nonzero exit and an error message, never by silently
//! swallowing the bad value and running with a default.
//!
//! Each case is a malformed invocation of one flag family. The binary is
//! invoked for real (via the `CARGO_BIN_EXE_*` path cargo provides to
//! integration tests), so this pins the actual argv plumbing, not a
//! reimplementation of it.

use smt_bench::cli::EXPERIMENTS;
use std::process::Command;

const BINS: &[(&str, &str)] = &[("repro", env!("CARGO_BIN_EXE_repro"))];

/// (family, malformed argv) — one representative per CLI flag family.
const CASES: &[(&str, &[&str])] = &[
    ("instrument", &["--obs-events", "many"]),
    ("instrument", &["--obs-out"]),
    ("ckpt", &["--ckpt-dir"]),
    ("trace", &["--trace"]),
    ("alloc", &["--cores", "zero"]),
    ("alloc", &["--alloc", "bogus-policy"]),
    ("spans", &["--spans-out"]),
    ("unknown", &["--frobnicate"]),
    // Retired escape hatches: batching and cycle skipping are always on.
    ("unknown", &["--no-batch"]),
    ("unknown", &["--no-skip"]),
    // Retired alias: the `all` experiment is the one spelling.
    ("unknown", &["--all"]),
];

#[test]
fn every_binary_rejects_malformed_flags_from_every_cli_group() {
    for (bin_name, bin_path) in BINS {
        for (family, argv) in CASES {
            let out = Command::new(bin_path)
                .args(*argv)
                .output()
                .unwrap_or_else(|e| panic!("cannot spawn {bin_name}: {e}"));
            assert!(
                !out.status.success(),
                "{bin_name} accepted malformed {family} flags {argv:?}"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("error"),
                "{bin_name} rejected {argv:?} without an error message; stderr: {stderr}"
            );
            assert!(
                *family != "unknown" || stderr.contains("unknown option"),
                "{bin_name} rejected {argv:?} but not as an unknown option; stderr: {stderr}"
            );
        }
    }
}

#[test]
fn jobs_value_is_parsed_strictly_where_supported() {
    // `--jobs` must be exactly as strict as the flag families: a missing
    // or malformed value is an error, never a silent default.
    for (bin_name, bin_path) in BINS {
        for argv in [&["--jobs"][..], &["--jobs", "many"][..]] {
            let out = Command::new(bin_path)
                .args(argv)
                .output()
                .unwrap_or_else(|e| panic!("cannot spawn {bin_name}: {e}"));
            assert!(
                !out.status.success(),
                "{bin_name} accepted malformed {argv:?}"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("error"),
                "{bin_name} rejected {argv:?} without an error message; stderr: {stderr}"
            );
        }
    }
}

#[test]
fn help_names_every_experiment() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--help")
        .output()
        .expect("cannot spawn repro");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in EXPERIMENTS
        .iter()
        .map(|(name, _)| *name)
        .chain(["calibrate", "characterize"])
    {
        assert!(
            stdout
                .lines()
                .any(|l| l.split_whitespace().next() == Some(name)),
            "--help does not list {name}; stdout: {stdout}"
        );
    }
}
