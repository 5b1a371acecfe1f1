//! End-to-end daemon smoke: spawn the real `osnoise serve` on an
//! ephemeral port, hit every endpoint once with the catalog client,
//! and prove `/runs/{id}/report` answers byte-for-byte what
//! `osnoise analyze --json` writes. The store is recorded at the
//! default chunk capacity, long enough to span several chunks per CPU,
//! so a narrow slice must skip chunks.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

use osn_catalog::service::RunsResponse;
use osn_catalog::Client;

fn osnoise(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_osnoise"))
        .args(args)
        .output()
        .expect("spawn osnoise")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osn-cli-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Field `name` of a served JSON object, as an unsigned integer.
fn uint(v: &serde::Value, name: &str) -> u64 {
    let map = v.as_map().expect("a JSON object");
    match map.iter().find(|(k, _)| k == name) {
        Some((_, serde::Value::U64(n))) => *n,
        other => panic!("field {name}: expected an unsigned integer, got {other:?}"),
    }
}

/// Kills the daemon even when an assertion fails mid-test.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_answers_analyze_bytes() {
    let dir = tmpdir("e2e");
    let stores = dir.join("stores");
    std::fs::create_dir_all(&stores).unwrap();
    let store = stores.join("amg.osn");
    let out = osnoise(&[
        "record",
        "amg",
        store.to_str().unwrap(),
        "--secs",
        "1",
        "--seed",
        "5",
    ]);
    assert!(out.status.success(), "record failed");

    let expected_path = dir.join("expected.json");
    let out = osnoise(&[
        "analyze",
        store.to_str().unwrap(),
        "--json",
        expected_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "analyze --json failed");
    let expected_report = std::fs::read(&expected_path).unwrap();
    assert!(!expected_report.is_empty());

    let mut child = Command::new(env!("CARGO_BIN_EXE_osnoise"))
        .args([
            "serve",
            stores.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--rescan-ms",
            "0",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let daemon = Daemon(child);

    // The daemon announces its bound address once the catalog is up.
    let mut addr: Option<SocketAddr> = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("daemon stdout");
        if let Some(rest) = line.strip_prefix("serving on http://") {
            addr = rest.trim().parse().ok();
            break;
        }
    }
    let addr = addr.expect("daemon printed its address");

    let mut client = Client::connect(addr).expect("connect");
    let (status, body) = client.get("/runs").unwrap();
    assert_eq!(status, 200);
    let runs: RunsResponse = serde_json::from_slice(&body).unwrap();
    assert_eq!(runs.count, 1, "one recorded store indexed");
    let id = runs.runs[0].id.clone();
    assert_eq!(runs.runs[0].app, "amg");
    assert_eq!(runs.runs[0].seed, 5);

    let (status, body) = client.get(&format!("/runs/{id}/report")).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        body, expected_report,
        "/runs/{{id}}/report differs from `osnoise analyze --json`"
    );

    for target in [
        format!("/runs/{id}/slice?t0=0&t1=2000000"),
        format!("/runs/{id}/histogram?class=timer_interrupt"),
        format!("/runs/{id}/paraver"),
        format!("/compare?a={id}&b={id}"),
        "/stats".to_string(),
    ] {
        let (status, body) = client.get(&target).unwrap();
        assert_eq!(status, 200, "GET {target} failed");
        assert!(!body.is_empty(), "GET {target} returned nothing");
    }

    // A narrow window decodes only the chunks it overlaps.
    let (status, body) = client
        .get(&format!("/runs/{id}/slice?t0=0&t1=2000000"))
        .unwrap();
    assert_eq!(status, 200);
    let slice: serde::Value = serde_json::from_slice(&body).unwrap();
    let (decoded, total) = (uint(&slice, "chunks_decoded"), uint(&slice, "chunks_total"));
    assert!(
        total >= 2 * runs.runs[0].ncpus as u64,
        "store should span at least two default chunks per CPU: {total} chunks"
    );
    assert!(
        decoded < total,
        "narrow slice decoded {decoded} of {total} chunks"
    );

    // A run compared with itself has composition distance 0.
    let (status, body) = client.get(&format!("/compare?a={id}&b={id}")).unwrap();
    assert_eq!(status, 200);
    let cmp: serde::Value = serde_json::from_slice(&body).unwrap();
    let cmp = cmp.as_map().expect("a JSON object");
    assert!(cmp.contains(&("distance".to_string(), serde::Value::F64(0.0))));
    assert!(cmp.contains(&("same_config".to_string(), serde::Value::Bool(true))));

    let (status, _) = client.get("/runs/nope/report").unwrap();
    assert_eq!(status, 404);

    drop(daemon);
    std::fs::remove_dir_all(&dir).ok();
}
