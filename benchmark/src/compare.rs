//! `benchmark compare A B`: judge repeated runs of a change (B) against
//! repeated runs of its parent (A), metric by metric and workload by
//! workload.
//!
//! * `worse` — B's median is worse than A's by more than the metric's
//!   bound.
//! * `better` — B wins at least nine tenths of the run pairs (ties
//!   count for neither) and the medians differ by more than A's
//!   interquartile range.
//! * `unresolved` — neither, and the spread of A or B is wider than the
//!   bound (unless every run of B beats every run of A).
//! * `same` — within the bound, and the spread is narrow enough to say so.
//!
//! End-to-end verdicts use untraced runs; per-layer medians from traced
//! runs are printed beside them, so a verdict names the layer that moved.

use std::path::{Path, PathBuf};

use crate::results::RunResults;
use crate::spec::Spec;
use crate::stats::{median, quartiles};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` (the change) against `a` (the parent); returns the verdict
/// and the fraction of run pairs `b` wins.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let (ma, mb) = (median(a), median(b));
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| better(**y, **x)).count();
    let win_frac = wins as f64 / pairs.max(1) as f64;
    let worse_by = if higher_is_better { ma - mb } else { mb - ma } / ma.abs();
    let (qa1, qa3) = quartiles(a);
    let (qb1, qb3) = quartiles(b);
    let spread = ((qa3 - qa1) / ma.abs()).max((qb3 - qb1) / mb.abs());
    let all_b_better = a.iter().all(|x| b.iter().all(|y| better(*y, *x)));
    let v = if worse_by > bound {
        Verdict::Worse
    } else if win_frac >= 0.9 && -worse_by * ma.abs() > qa3 - qa1 {
        Verdict::Better
    } else if spread > bound && !all_b_better {
        Verdict::Unresolved
    } else {
        Verdict::Same
    };
    (v, win_frac)
}

/// Every `results.json` in `dir` or one level below it.
pub fn load_dir(dir: &Path) -> Result<Vec<RunResults>, String> {
    let mut files: Vec<PathBuf> = vec![dir.join("results.json")];
    if let Ok(entries) = std::fs::read_dir(dir) {
        files.extend(
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.path().join("results.json")),
        );
    }
    files.retain(|f| f.is_file());
    files.sort();
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

fn values<'a>(
    runs: &'a [RunResults],
    traced: bool,
    workload: &'a str,
    metric: &'a str,
) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.trace == traced)
        .flat_map(|r| &r.workloads)
        .filter(|w| w.name == workload)
        .filter_map(|w| {
            let source = if traced { &w.per_layer } else { &w.metrics };
            source.get(metric).map(|m| m.value)
        })
        .collect()
}

fn show(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v);
    format!("{:>12.4} [{:.4}, {:.4}]", median(v), q1, q3)
}

/// Print the comparison; `Ok(true)` when any verdict is `worse`.
pub fn run(a_dir: &Path, b_dir: &Path, spec: &Spec) -> Result<bool, String> {
    let a = load_dir(a_dir)?;
    let b = load_dir(b_dir)?;
    let first = a.first().or(b.first()).ok_or("no results.json found")?;
    if a.is_empty() || b.is_empty() {
        return Err(format!(
            "no results.json in {}",
            if a.is_empty() { a_dir } else { b_dir }.display()
        ));
    }
    for r in a.iter().chain(&b) {
        if !r.fingerprint.comparable(&first.fingerprint) {
            return Err(format!(
                "host fingerprints differ: {:?} vs {:?}",
                first.fingerprint, r.fingerprint
            ));
        }
        if r.smoke != first.smoke {
            return Err("smoke runs do not compare with full runs".to_string());
        }
    }
    if first.smoke {
        println!("note: smoke runs; toy inputs, not a performance result");
    }

    let mut any_worse = false;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (values(&a, false, w, &m.name), values(&b, false, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (v, wins) = verdict(&va, &vb, m.higher_is_better, bound);
            any_worse |= v == Verdict::Worse;
            println!(
                "{w:<10} {:<14} {:<5} A {}  B {}  wins {:>4.0}% of {}  bound {:>3.0}%  {}",
                m.name,
                m.unit,
                show(&va),
                show(&vb),
                wins * 100.0,
                va.len().min(vb.len()),
                bound * 100.0,
                v.name()
            );
        }
        for m in &spec.per_layer {
            let (la, lb) = (values(&a, true, w, &m.name), values(&b, true, w, &m.name));
            let (ma, mb) = (median(&la), median(&lb));
            if la.is_empty() || lb.is_empty() || (ma == 0.0 && mb == 0.0) {
                continue;
            }
            println!(
                "{w:<10}   layer {:<30} A {ma:>12.4}  B {mb:>12.4} {:<6}  {:+.1}%",
                m.name,
                m.unit,
                (mb - ma) / ma.abs() * 100.0
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
    ];

    #[test]
    fn identical_runs_are_the_same() {
        assert_eq!(verdict(&A, &A, false, 0.1).0, Verdict::Same);
    }

    #[test]
    fn a_slowdown_beyond_the_bound_is_worse() {
        let b: Vec<f64> = A.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&A, &b, false, 0.1).0, Verdict::Worse);
        // For a rate, the same numbers are a gain.
        let (v, wins) = verdict(&A, &b, true, 0.1);
        assert_eq!((v, wins), (Verdict::Better, 1.0));
    }

    #[test]
    fn a_consistent_gain_larger_than_the_spread_is_better() {
        let b: Vec<f64> = A.iter().map(|x| x * 0.95).collect();
        assert_eq!(verdict(&A, &b, false, 0.1).0, Verdict::Better);
    }

    #[test]
    fn a_wide_spread_leaves_a_small_change_unresolved() {
        let a = [80.0, 120.0, 100.0, 90.0, 110.0];
        let b = [85.0, 118.0, 99.0, 95.0, 104.0];
        assert_eq!(verdict(&a, &b, false, 0.1).0, Verdict::Unresolved);
    }
}
