//! Recorded simulated results: one digest per point for the default seed
//! and the held-out seed, at benchmark scale.
//!
//! A run with one of these seeds fails every point whose digest differs.
//! A change meant only for speed must leave them unchanged; a change that
//! moves simulated results on purpose records them again with
//! `smtbench --workload NAME --seed N --record`.

use crate::spec::Workload;

const RECORDED: &str = include_str!("../recorded.txt");

/// The recorded digests of `w`'s points, if `w` is at benchmark scale and
/// its seed was recorded.
pub fn lookup(w: &Workload) -> Option<Vec<u64>> {
    if w.params != w.kind.params(w.params.seed) {
        return None;
    }
    let mut found: Vec<Option<u64>> = vec![None; w.points.len()];
    for line in RECORDED.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [seed, kind, index, label, digest] = f[..] else {
            continue;
        };
        if seed.parse() != Ok(w.params.seed) || kind != w.kind.name() {
            continue;
        }
        let (Ok(i), Ok(d)) = (index.parse::<usize>(), u64::from_str_radix(digest, 16)) else {
            continue;
        };
        if w.points.get(i).is_some_and(|p| p.label == label) {
            found[i] = Some(d);
        }
    }
    found.into_iter().collect()
}

/// `recorded.txt` lines for the digests of `w`'s points.
pub fn lines(w: &Workload, digests: &[u64]) -> String {
    w.points
        .iter()
        .zip(digests)
        .enumerate()
        .map(|(i, (p, d))| {
            format!(
                "{} {} {i} {} {d:016x}\n",
                w.params.seed,
                w.kind.name(),
                p.label
            )
        })
        .collect()
}
