//! What a run records: one `WorkloadResult` per workload, written
//! together with the host fingerprint to `<out>/results.json`, and the
//! one-line summary the last line of standard output carries.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize, Value};

use crate::check::Tally;
use crate::host::{self, Fingerprint};
use crate::spec::Spec;
use crate::stats;
use crate::workloads::{Measured, Workload};

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    /// How many values each statistic was taken over.
    pub samples: BTreeMap<String, u64>,
    /// End-to-end metrics, from the untraced phase.
    pub metrics: BTreeMap<String, Metric>,
    /// Per-layer metrics; traced runs only.
    pub per_layer: BTreeMap<String, Metric>,
    /// Workload-specific context, not gated.
    pub detail: BTreeMap<String, f64>,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResults {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke runs use toy inputs; they never compare with full runs.
    pub smoke: bool,
    pub fingerprint: Fingerprint,
    pub workloads: Vec<WorkloadResult>,
}

/// Reduce one workload's measurements to its metrics. Every metric
/// `BENCHMARK.json` declares is present; a per-layer metric of a layer
/// the workload never calls is 0. A value that is not a finite number
/// is a failed op.
pub fn summarize(workload: Workload, trace: bool, m: Measured, spec: &Spec) -> WorkloadResult {
    let mut tally: Tally = m.tally;
    let op_ms_p10 = stats::quantile(&m.op_ms, 0.1);
    let e2e = [
        ("op_ms_p10", op_ms_p10),
        ("setup_s", stats::median(&m.setup_s)),
    ];
    let mut metrics = BTreeMap::new();
    for spec_metric in &spec.end_to_end {
        let value = e2e
            .iter()
            .find(|(name, _)| *name == spec_metric.name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("no value computed for {}", spec_metric.name));
        metrics.insert(
            spec_metric.name.clone(),
            Metric {
                value,
                unit: spec_metric.unit.clone(),
            },
        );
    }

    let mut per_layer = BTreeMap::new();
    if trace {
        let overhead = (stats::quantile(&m.traced_op_ms, 0.1) / op_ms_p10 - 1.0) * 100.0;
        let measured: Vec<(&str, f64)> = m
            .per_layer
            .iter()
            .copied()
            .chain([("spans.trace_overhead_pct", overhead)])
            .collect();
        for (name, _) in &measured {
            assert!(
                spec.per_layer.iter().any(|s| s.name == *name),
                "{name} is not declared in BENCHMARK.json"
            );
        }
        for spec_metric in &spec.per_layer {
            let value = measured
                .iter()
                .find(|(name, _)| *name == spec_metric.name)
                .map_or(0.0, |(_, v)| *v);
            per_layer.insert(
                spec_metric.name.clone(),
                Metric {
                    value,
                    unit: spec_metric.unit.clone(),
                },
            );
        }
    }
    for (name, metric) in metrics.iter().chain(&per_layer) {
        tally.check(metric.value.is_finite(), || {
            format!("{}: {name} is {}", workload.name(), metric.value)
        });
    }

    let mut detail: BTreeMap<String, f64> = m.detail.into_iter().collect();
    detail.insert("op_ms_p50".into(), stats::median(&m.op_ms));
    detail.insert("op_ms_p90".into(), stats::quantile(&m.op_ms, 0.9));
    detail.insert("rss_peak_mb".into(), host::peak_rss_mb());
    let samples = [
        ("ops", m.op_ms.len()),
        ("setups", m.setup_s.len()),
        ("traced_ops", m.traced_op_ms.len()),
        ("spans", m.spans.len()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v as u64))
    .collect();
    WorkloadResult {
        name: workload.name().to_string(),
        attempted: tally.attempted,
        failed: tally.failed,
        samples,
        metrics,
        per_layer,
        detail,
    }
}

/// The last line of a run's standard output: `correct`, `attempted`,
/// `failed`, and the end-to-end metrics (per-layer when traced) in
/// `BENCHMARK.json` order. With several workloads each metric is named
/// `<metric>@<workload>`.
pub fn summary_line(results: &[WorkloadResult], trace: bool, spec: &Spec) -> String {
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let specs = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Vec::new();
    for r in results {
        let source = if trace { &r.per_layer } else { &r.metrics };
        for s in specs {
            if let Some(m) = source.get(&s.name) {
                let name = if results.len() == 1 {
                    s.name.clone()
                } else {
                    format!("{}@{}", s.name, r.name)
                };
                let value = Value::Map(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]);
                metrics.push((name, value));
            }
        }
    }
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(failed == 0 && attempted > 0)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("summary serializes")
}
