//! The `benchmark` binary end to end at `--smoke` sizes: every workload
//! untraced and traced, every declared metric present with its unit,
//! no failed op, spans whose parents resolve, and a run that compares
//! with itself without a `worse` verdict.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing {key:?} in {v:?}"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::F64(f) => *f,
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        other => panic!("not a number: {other:?}"),
    }
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `benchmark run --smoke` into `dir`; returns the parsed results.
fn smoke_run(dir: &Path, extra: &[&str]) -> Value {
    let out = dir.join("out");
    let status = Command::new(BIN)
        .args(["run", "--smoke", "--out"])
        .arg(&out)
        .args(extra)
        .current_dir(dir)
        .status()
        .expect("run benchmark");
    assert!(status.success(), "benchmark run {extra:?} failed: {status}");
    read_json(&out.join("results.json"))
}

/// Every workload `BENCHMARK.json` names reports every metric of
/// `list` (finite, with the declared unit) and no failed op.
fn assert_declared_metrics(results: &Value, list: &str, key: &str) {
    let spec = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let workloads = field(results, "workloads").as_seq().expect("workload list");
    for r in workloads {
        assert_eq!(number(field(r, "failed")), 0.0, "failed ops in {r:?}");
    }
    for w in field(&spec, "workloads")
        .as_seq()
        .expect("declared workloads")
    {
        let name = text(field(w, "name"));
        let r = workloads
            .iter()
            .find(|r| text(field(r, "name")) == name)
            .unwrap_or_else(|| panic!("no result for workload {name}"));
        assert_eq!(number(field(r, "failed")), 0.0, "{name}: failed ops");
        assert!(
            number(field(r, "attempted")) >= 1.0,
            "{name}: nothing attempted"
        );
        for m in field(&spec, list).as_seq().expect("declared metrics") {
            let metric = text(field(m, "name"));
            let got = field(field(r, key), metric);
            let value = number(field(got, "value"));
            assert!(value.is_finite(), "{name}: {metric} = {value}");
            assert_eq!(
                text(field(got, "unit")),
                text(field(m, "unit")),
                "{name}: {metric}"
            );
        }
    }
}

#[test]
fn untraced_smoke_reports_every_metric_and_compares_with_itself() {
    let dir = scratch("untraced");
    let results = smoke_run(&dir, &[]);
    assert_declared_metrics(&results, "end_to_end", "metrics");

    let out = dir.join("out");
    let compare = Command::new(BIN)
        .arg("compare")
        .args([&out, &out])
        .output()
        .expect("run compare");
    let stdout = String::from_utf8_lossy(&compare.stdout);
    assert!(compare.status.success(), "compare failed:\n{stdout}");
    assert!(
        !stdout.contains(" worse"),
        "a run is worse than itself:\n{stdout}"
    );
    assert!(stdout.contains("same"), "no verdicts printed:\n{stdout}");
}

#[test]
fn traced_smoke_reports_every_layer_and_writes_resolvable_spans() {
    let dir = scratch("traced");
    let results = smoke_run(&dir, &["--trace", "1"]);
    assert_declared_metrics(&results, "per_layer", "per_layer");

    for w in field(&results, "workloads")
        .as_seq()
        .expect("workload list")
    {
        let name = text(field(w, "name"));
        let trace = read_json(&dir.join("out").join(format!("trace-{name}.json")));
        let spans = field(&trace, "spans").as_seq().expect("span list");
        assert!(!spans.is_empty(), "{name}: no spans");
        let ids: HashSet<u64> = spans
            .iter()
            .map(|s| number(field(s, "id")) as u64)
            .collect();
        for s in spans {
            let parent = field(s, "parent");
            if !parent.is_null() {
                assert!(
                    ids.contains(&(number(parent) as u64)),
                    "{name}: orphan span {s:?}"
                );
            }
            assert!(number(field(s, "end_ns")) >= number(field(s, "start_ns")));
        }
    }
}
