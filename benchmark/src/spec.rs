//! The benchmark's declared contract, compiled in from the root
//! `BENCHMARK.json`: workload names, and each metric's unit, direction
//! and regression bound. The runner emits exactly these metrics and
//! `compare` judges against exactly these bounds, so the file is the one
//! place they are defined.

use serde::Value;

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median a metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn get<'a>(map: &'a [(String, Value)], key: &str) -> &'a Value {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing key {key:?}"))
}

fn text(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => panic!("BENCHMARK.json: expected a string, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::F64(f) => *f,
        Value::U64(n) => *n as f64,
        other => panic!("BENCHMARK.json: expected a number, got {other:?}"),
    }
}

fn metrics(v: &Value) -> Vec<MetricSpec> {
    let seq = v.as_seq().expect("BENCHMARK.json: metric list");
    seq.iter()
        .map(|m| {
            let m = m.as_map().expect("BENCHMARK.json: metric object");
            let better = text(get(m, "better"));
            assert!(
                better == "higher" || better == "lower",
                "BENCHMARK.json: better must be higher or lower, got {better:?}"
            );
            MetricSpec {
                name: text(get(m, "name")),
                unit: text(get(m, "unit")),
                higher_is_better: better == "higher",
                bound: m.iter().find(|(k, _)| k == "bound").map(|(_, b)| number(b)),
            }
        })
        .collect()
}

/// Parse the compiled-in `BENCHMARK.json`. It is part of this program's
/// source, so a malformed file is a build defect and panics.
pub fn spec() -> Spec {
    let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let root = root.as_map().expect("BENCHMARK.json: top-level object");
    let workloads = get(root, "workloads")
        .as_seq()
        .expect("BENCHMARK.json: workload list")
        .iter()
        .map(|w| text(get(w.as_map().expect("workload object"), "name")))
        .collect();
    Spec {
        run_seconds: number(get(root, "run_seconds")),
        workloads,
        end_to_end: metrics(get(root, "end_to_end")),
        per_layer: metrics(get(root, "per_layer")),
    }
}

/// FNV-1a of the compiled-in `BENCHMARK.json`, part of the host
/// fingerprint: runs of different benchmark definitions never compare.
pub fn fingerprint_hash() -> String {
    format!(
        "{:016x}",
        osn_trace::wire::fnv1a64(BENCHMARK_JSON.as_bytes())
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn declared_workloads_are_implemented_in_run_order() {
        let declared = spec().workloads;
        let in_run_order: Vec<&str> = Workload::ALL
            .iter()
            .map(|w| w.name())
            .filter(|n| declared.iter().any(|d| d == n))
            .collect();
        assert_eq!(declared, in_run_order);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_and_setup_has_the_largest() {
        let spec = spec();
        let bound = |name: &str| {
            spec.end_to_end
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| m.bound)
                .expect("bounded metric")
        };
        for m in &spec.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
            assert!(b <= bound("setup_s"), "{} bound exceeds setup_s's", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
