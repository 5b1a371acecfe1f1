//! End-to-end smoke tests: drive the real `osnoise` binary through the
//! record / analyze / info / campaign / cluster flows on a tiny config
//! in a tempdir, asserting on exit status and a few load-bearing lines
//! of output.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn osnoise(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_osnoise"))
        .args(args)
        .output()
        .expect("spawn osnoise")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osn-cli-smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `osnoise`, failing the test if it is still running after
/// `secs` seconds (a usage error must not start any work).
fn osnoise_within(args: &[&str], secs: u64) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_osnoise"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn osnoise");
    let deadline = Instant::now() + Duration::from_secs(secs);
    while child.try_wait().expect("wait osnoise").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("osnoise {args:?} still running after {secs} s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect osnoise output")
}

#[test]
fn no_arguments_prints_help_and_fails() {
    let out = osnoise(&[]);
    assert_eq!(out.status.code(), Some(2));
    let help = String::from_utf8_lossy(&out.stderr);
    assert!(help.contains("USAGE"), "{help}");
    // The usage lines come from the command table, the prose stays.
    assert!(
        help.contains("osnoise record <app> <out.osn> [--secs N]"),
        "{help}"
    );
    assert!(help.contains("[--codec raw|delta]"), "{help}");
    assert!(help.contains("osnoise export <app> --out DIR"), "{help}");
    assert!(help.contains("INJECTION:"), "{help}");
}

/// Each line must exit 2 with a message naming the flag and its value
/// — none of them may run with a default, crash, or hang.
#[test]
fn bad_flags_are_usage_errors() {
    let dir = tmpdir("usage");
    let store = dir.join("x.osn");
    let store = store.to_str().unwrap();
    let factor0 = "straggler:node=0,factor=0";
    let factor_neg = "straggler:node=0,factor=-1";
    let cluster = [
        "cluster", "sphot", "--nodes", "2", "--secs", "1", "--cpus", "2",
    ];
    let cases: Vec<(Vec<&str>, [&str; 2])> = vec![
        (
            vec!["record", "sphot", store, "--chunk", "0"],
            ["--chunk", "`0`"],
        ),
        (vec!["app", "umt", "--secs", "abc"], ["--secs", "`abc`"]),
        (
            vec!["app", "umt", "--secs", "18446744074"],
            ["--secs", "`18446744074`"],
        ),
        (vec!["app", "umt", "--seed", "xyz"], ["--seed", "`xyz`"]),
        (vec!["app", "umt", "--sec", "1"], ["--sec ", "unknown flag"]),
        (
            vec!["record", "sphot", store, "--codec", "delat"],
            ["--codec", "`delat`"],
        ),
        (
            vec!["cluster", "umt", "--stagger", "of"],
            ["--stagger", "`of`"],
        ),
        (
            vec!["serve", ".", "--threads", "abc"],
            ["--threads", "`abc`"],
        ),
        (vec!["info", ".", "--json"], ["--json", "needs a value"]),
        (vec!["capture", "--quantum", "5"], ["--quantum", "`5`"]),
        (vec!["ftq", "--samples", "0"], ["--samples", "`0`"]),
        (
            [&cluster[..], &["--inject", factor0]].concat(),
            ["--inject", factor0],
        ),
        (
            [&cluster[..], &["--inject", factor_neg]].concat(),
            ["--inject", factor_neg],
        ),
        (
            [&cluster[..], &["--tier", "sampled:2"]].concat(),
            ["--tier", "`sampled:2`"],
        ),
    ];
    for (args, needles) in cases {
        let out = osnoise_within(&args, 20);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        for needle in needles {
            assert!(
                stderr.contains(needle),
                "{args:?}: missing {needle:?} in {stderr}"
            );
        }
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    assert!(!Path::new(store).exists(), "a usage error must not write");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_numeric_flags_are_usage_errors() {
    let cases = [
        ("cluster", "--granularity-us"),
        ("scale", "--granularity-us"),
        ("cluster", "--nodes"),
        ("cluster", "--cpus"),
        ("cluster", "--workers"),
    ];
    for (command, flag) in cases {
        for value in ["0", "abc", "-1"] {
            let out = osnoise(&[command, "umt", "--secs", "1", flag, value]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{command} {flag} {value}: {stderr}"
            );
            assert!(
                stderr.contains(flag) && stderr.contains(&format!("`{value}`")),
                "{command} {flag} {value}: the error must name the flag and value: {stderr}"
            );
        }
    }
}

#[test]
fn unknown_app_fails() {
    let out = osnoise(&["app", "nonesuch", "--secs", "1"]);
    assert!(!out.status.success());
}

#[test]
fn record_analyze_info_roundtrip() {
    let dir = tmpdir("record");
    let store = dir.join("sphot.osn");
    let store_str = store.to_str().unwrap();

    let out = osnoise(&["record", "sphot", store_str, "--secs", "1", "--seed", "5"]);
    assert!(out.status.success(), "record failed: {}", stdout(&out));
    assert!(stdout(&out).contains("recorded"), "{}", stdout(&out));
    assert!(store.exists());

    let out = osnoise(&["analyze", store_str]);
    assert!(out.status.success(), "analyze failed: {}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("noise breakdown"), "{text}");
    assert!(text.contains("per-event statistics"), "{text}");

    let out = osnoise(&["info", store_str]);
    assert!(out.status.success(), "info failed: {}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("chunks:"), "{text}");
    assert!(text.contains("sphot"), "{text}");

    // `--json -` prints the JSON to stdout.
    let out = osnoise(&["info", store_str, "--json", "-"]);
    assert!(
        out.status.success(),
        "info --json - failed: {}",
        stdout(&out)
    );
    assert!(
        stdout(&out).starts_with("[\n  {\n    \"path\""),
        "{}",
        stdout(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_with_store_writes_one_file_per_app() {
    let dir = tmpdir("campaign");
    let store = dir.join("stores");
    let out = osnoise(&[
        "campaign",
        "--secs",
        "1",
        "--seed",
        "11",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "campaign failed: {}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("Fig 3"), "{text}");
    let stores: Vec<_> = std::fs::read_dir(&store)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "osn"))
        .collect();
    assert!(
        stores.len() >= 5,
        "expected one store per app, got {}",
        stores.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_report_covers_curve_and_barrier_classes() {
    let out = osnoise(&[
        "cluster", "sphot", "--nodes", "3", "--secs", "1", "--cpus", "2", "--seed", "7",
    ]);
    assert!(out.status.success(), "cluster failed: {}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("3 nodes"), "{text}");
    assert!(text.contains("amplification curve"), "{text}");
    assert!(text.contains("barrier paid by noise class"), "{text}");
    assert!(text.contains("per-rank accounting"), "{text}");
}

/// A truncated store must fail `analyze` and `info` with a typed
/// error and nonzero exit — never a panic.
#[test]
fn analyze_and_info_fail_cleanly_on_corrupt_store() {
    let dir = tmpdir("corrupt");
    let store = dir.join("torn.osn");
    let store_str = store.to_str().unwrap();
    let out = osnoise(&["record", "sphot", store_str, "--secs", "1", "--seed", "5"]);
    assert!(out.status.success(), "record failed: {}", stdout(&out));

    // Cut the file below the 24-byte header: nothing recoverable, both
    // commands must fail with a typed error.
    let bytes = std::fs::read(&store).unwrap();
    std::fs::write(&store, &bytes[..16]).unwrap();
    for cmd in ["analyze", "info"] {
        let out = osnoise(&[cmd, store_str]);
        assert!(!out.status.success(), "{cmd} must fail on a headless store");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("cannot"), "{cmd} stderr: {err}");
        assert!(!err.contains("panicked"), "{cmd} panicked: {err}");
    }

    // A sliver past the header: `info` salvages (zero chunks) by
    // design, but `analyze` has no metadata to reconstruct the run
    // from and must fail typed, not panic.
    std::fs::write(&store, &bytes[..64]).unwrap();
    let out = osnoise(&["analyze", store_str]);
    assert!(!out.status.success(), "analyze must fail on a torn store");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot"), "analyze stderr: {err}");
    assert!(!err.contains("panicked"), "analyze panicked: {err}");

    // A version from the future must be reported as such, by both.
    let mut bytes = std::fs::read(&store).unwrap();
    bytes[8] = 0xFF; // version field of the file header
    std::fs::write(&store, &bytes).unwrap();
    for cmd in ["analyze", "info"] {
        let out = osnoise(&[cmd, store_str]);
        assert!(!out.status.success(), "{cmd} must fail on a bad version");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("version"), "{cmd} stderr: {err}");
        assert!(!err.contains("panicked"), "{cmd} panicked: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `compare` opens a damaged store the way `analyze` does: one flipped
/// payload byte mid-file is recovered and noted, not a load failure.
#[test]
fn compare_recovers_a_damaged_store_like_analyze() {
    use osn_core::store::{format::CHUNK_HEADER_BYTES, Reader};
    let dir = tmpdir("compare-damaged");
    let healthy = dir.join("healthy.osn");
    let damaged = dir.join("damaged.osn");
    let (healthy_str, damaged_str) = (healthy.to_str().unwrap(), damaged.to_str().unwrap());
    let out = osnoise(&["record", "sphot", healthy_str, "--secs", "1", "--seed", "5"]);
    assert!(out.status.success(), "record failed: {}", stdout(&out));

    let chunks = Reader::open(&healthy).unwrap().chunks().to_vec();
    let victim = chunks[chunks.len() / 2];
    let mut bytes = std::fs::read(&healthy).unwrap();
    bytes[victim.offset as usize + CHUNK_HEADER_BYTES + 1] ^= 0x01;
    std::fs::write(&damaged, &bytes).unwrap();

    let out = osnoise(&["analyze", damaged_str]);
    assert!(out.status.success(), "analyze failed: {}", stdout(&out));
    assert!(
        stdout(&out).starts_with("note: recovered a damaged store — 1 torn chunk(s)"),
        "{}",
        stdout(&out)
    );

    let out = osnoise(&["compare", healthy_str, damaged_str]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "compare failed: {err}");
    let text = stdout(&out);
    assert!(
        text.starts_with(&format!(
            "note: recovered a damaged store {damaged_str} — 1 torn chunk(s)"
        )),
        "{text}"
    );
    assert!(text.contains("model:sphot/a"), "{text}");

    // Two healthy stores: no note, just the table.
    let out = osnoise(&["compare", healthy_str, healthy_str]);
    assert!(out.status.success(), "compare failed: {}", stdout(&out));
    assert!(
        stdout(&out).starts_with(&format!("model:sphot/a = {healthy_str}")),
        "{}",
        stdout(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A store whose footer metadata nests 200 000 levels deep must fail
/// `analyze` typed (exit 1) and show as unreadable metadata in `info`
/// — never abort on a stack overflow.
#[test]
fn deeply_nested_metadata_fails_cleanly() {
    use osn_core::store::{format::write_store, Options};
    let dir = tmpdir("deep-meta");
    let store = dir.join("deep.osn");
    let store_str = store.to_str().unwrap();
    let trace = osn_core::trace::Trace::default();
    write_store(&store, &trace, &vec![b'['; 200_000], Options::default()).unwrap();

    let out = osnoise(&["analyze", store_str]);
    assert_eq!(out.status.code(), Some(1), "analyze must fail typed");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("nesting"), "analyze stderr: {err}");

    let out = osnoise(&["info", store_str]);
    assert_eq!(out.status.code(), Some(0), "info lists the store");
    assert!(
        stdout(&out).contains("unreadable metadata: run metadata: nesting"),
        "{}",
        stdout(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--inject` surfaces each class: kernel-tier steal shows up in the
/// per-node traces, cluster-tier faults as injected barrier rows.
#[test]
fn cluster_inject_reports_fault_attribution() {
    let out = osnoise(&[
        "cluster",
        "sphot",
        "--nodes",
        "2",
        "--secs",
        "1",
        "--cpus",
        "2",
        "--seed",
        "7",
        "--inject",
        "crash:node=1,at=100ms,down=50ms; straggler:node=0,factor=1.3; jitter:mean=20us",
    ]);
    assert!(
        out.status.success(),
        "cluster --inject failed: {}",
        stdout(&out)
    );
    let text = stdout(&out);
    assert!(
        text.contains("barrier paid by injected fault class"),
        "{text}"
    );
    assert!(text.contains("crash"), "{text}");
    assert!(text.contains("straggler"), "{text}");

    let bad = osnoise(&[
        "cluster",
        "sphot",
        "--nodes",
        "2",
        "--secs",
        "1",
        "--inject",
        "meteor:node=0",
    ]);
    assert!(!bad.status.success(), "unknown injection kind must fail");
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown injection kind"));
}

#[test]
fn cluster_store_spills_one_osn_per_node_and_json_report() {
    let dir = tmpdir("cluster");
    let store = dir.join("nodes");
    let json = dir.join("report.json");
    let out = osnoise(&[
        "cluster",
        "sphot",
        "--nodes",
        "2",
        "--secs",
        "1",
        "--cpus",
        "2",
        "--seed",
        "7",
        "--store",
        store.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "cluster --store failed: {}",
        stdout(&out)
    );
    for i in 0..2 {
        assert!(
            store.join(format!("node-{i}.osn")).exists(),
            "node-{i}.osn missing"
        );
    }
    let report: osn_core::ClusterReport =
        serde_json::from_slice(&std::fs::read(&json).unwrap()).unwrap();
    assert_eq!(report.nodes, 2);
    assert_eq!(report.node_seeds.len(), 2);
    assert!(report.slowdown >= 1.0);
    std::fs::remove_dir_all(&dir).ok();
}

/// `info` over directories and multiple paths: one row per store, and
/// `--json` exposes the full footer metadata (config + result + ranks).
#[test]
fn info_does_not_follow_directory_link_loops() {
    let dir = tmpdir("info-loop");
    let store = dir.join("a.osn");
    let out = osnoise(&["record", "sphot", store.to_str().unwrap(), "--secs", "1"]);
    assert!(out.status.success(), "record failed: {}", stdout(&out));
    // Two links back to the directory itself: a walk that follows them
    // lists the store once per path, 2^40 paths before ELOOP ends it.
    std::os::unix::fs::symlink(".", dir.join("self")).unwrap();
    std::os::unix::fs::symlink(".", dir.join("again")).unwrap();

    let out = osnoise_within(&["info", dir.to_str().unwrap()], 30);
    assert!(out.status.success(), "info failed: {}", stdout(&out));
    let text = stdout(&out);
    assert_eq!(
        text.matches("a.osn").count(),
        1,
        "list the store once: {text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn info_walks_directories_and_exposes_run_meta_json() {
    let dir = tmpdir("info-multi");
    let nested = dir.join("sub");
    std::fs::create_dir_all(&nested).unwrap();
    let a = dir.join("sphot.osn");
    let b = nested.join("amg.osn");
    for (app, path, seed) in [("sphot", &a, "5"), ("amg", &b, "9")] {
        let out = osnoise(&[
            "record",
            app,
            path.to_str().unwrap(),
            "--secs",
            "1",
            "--seed",
            seed,
        ]);
        assert!(
            out.status.success(),
            "record {app} failed: {}",
            stdout(&out)
        );
    }

    // A directory argument recurses; two stores → two summary rows.
    let out = osnoise(&["info", dir.to_str().unwrap()]);
    assert!(out.status.success(), "info dir failed: {}", stdout(&out));
    let text = stdout(&out);
    assert!(
        text.contains("sphot.osn") && text.contains("amg.osn"),
        "{text}"
    );
    assert!(
        text.contains("seed 0x5") && text.contains("seed 0x9"),
        "{text}"
    );
    assert_eq!(text.lines().count(), 2, "one row per store: {text}");

    // Explicit multiple paths work the same.
    let out = osnoise(&["info", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(out.status.success());
    assert_eq!(stdout(&out).lines().count(), 2);

    // --json exposes StoredRunMeta per store.
    let json_path = dir.join("info.json");
    let out = osnoise(&[
        "info",
        dir.to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "info --json failed: {}", stdout(&out));
    let value: serde::Value = serde_json::from_slice(&std::fs::read(&json_path).unwrap()).unwrap();
    let serde::Value::Seq(items) = value else {
        panic!("info --json must be an array");
    };
    assert_eq!(items.len(), 2);
    for item in &items {
        let serde::Value::Map(fields) = item else {
            panic!("per-store object expected");
        };
        let get = |name: &str| {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing field {name}"))
        };
        assert!(matches!(get("events"), serde::Value::U64(n) if *n > 0));
        let serde::Value::Map(meta) = get("run_meta") else {
            panic!("run_meta must carry the footer StoredRunMeta");
        };
        for key in ["config", "result", "ranks"] {
            assert!(meta.iter().any(|(k, _)| k == key), "run_meta missing {key}");
        }
    }

    // A damaged store yields an error row and a failing exit, but the
    // healthy rows still print.
    let bytes = std::fs::read(&b).unwrap();
    std::fs::write(&b, &bytes[..16]).unwrap();
    let out = osnoise(&["info", dir.to_str().unwrap()]);
    assert!(
        !out.status.success(),
        "unreadable store must fail the exit code"
    );
    let text = stdout(&out);
    assert!(text.contains("sphot.osn"), "healthy row missing: {text}");
    assert!(text.contains("unreadable"), "error row missing: {text}");
    std::fs::remove_dir_all(&dir).ok();
}
