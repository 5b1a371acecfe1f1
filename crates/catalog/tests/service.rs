//! End-to-end service tests against a live in-process daemon:
//! byte-identity of every endpoint with the offline library path
//! (including under concurrent load), bounded chunk decoding for
//! slices, typed-error robustness for malformed requests, unknown ids,
//! and stores appearing/disappearing mid-flight, and a worker freed
//! from a client that stops reading.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use osn_analysis::{class_histogram, class_stats, EventClass, NoiseSignature, SignatureEntry};
use osn_catalog::http::IO_TIMEOUT;
use osn_catalog::service::{
    event_matches_class, slice_events, CompareResponse, HistogramResponse, RunsResponse,
    SliceResponse,
};
use osn_catalog::{Client, Service, ServiceConfig};
use osn_core::report::PaperReport;
use osn_core::store::Options;
use osn_core::{analyze_store, record_app, ExperimentConfig, StoredRunMeta};
use osn_kernel::activity::Activity;
use osn_kernel::hooks::SwitchState;
use osn_kernel::ids::CpuId;
use osn_kernel::ids::Tid;
use osn_kernel::time::Nanos;
use osn_store::{write_store, StoreReader};
use osn_trace::{merge_streams, Event, EventKind, Trace};
use osn_workloads::App;
use serde::Value;

static DIRS: AtomicUsize = AtomicUsize::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "osn-catalog-{tag}-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_config(app: App, seed: u64) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper(app, Nanos::from_millis(150)).with_seed(seed);
    config.node.cpus = 2;
    config.nranks = 2;
    config
}

/// Field `key` of a served JSON object.
fn get<'a>(v: &'a Value, key: &str) -> &'a Value {
    let map = v.as_map().expect("a JSON object");
    let (_, value) = map
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no field `{key}`"));
    value
}

fn uint(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        other => panic!("expected an unsigned integer, got {other:?}"),
    }
}

/// Small chunks so a narrow time window can actually skip chunks.
fn store_opts() -> Options {
    Options::default().with_chunk_capacity(256)
}

/// Offline twin of `/runs/{id}/report`: exactly what `osnoise analyze
/// --json` writes.
fn offline_report_bytes(path: &std::path::Path) -> Vec<u8> {
    let (report, _meta, _recovery) = osn_core::recovered_report(path).unwrap();
    serde_json::to_vec_pretty(&PaperReport { apps: vec![report] }).unwrap()
}

/// Per-class reference for a signature: ten separate `class_stats`
/// passes, the assembly the one-pass `NoiseSignature::build` replaced.
fn reference_signature(
    analysis: &osn_analysis::NoiseAnalysis,
    ranks: &[osn_kernel::ids::Tid],
) -> NoiseSignature {
    let stats: Vec<_> = EventClass::ALL
        .iter()
        .map(|c| (*c, class_stats(analysis, ranks, *c)))
        .collect();
    let total: Nanos = stats.iter().map(|(_, s)| s.total).sum();
    NoiseSignature {
        entries: stats
            .into_iter()
            .map(|(class, s)| SignatureEntry {
                class,
                freq_per_sec: s.freq_per_sec,
                mean_ns: s.avg.as_nanos() as f64,
                share: if total.is_zero() {
                    0.0
                } else {
                    s.total.as_nanos() as f64 / total.as_nanos() as f64
                },
            })
            .collect(),
        total_noise: total,
    }
}

/// Every in-window event of the store from a full, unindexed walk of
/// each CPU's column cursor, filtered on the typed events and merged —
/// the reference the seeking, column-filtering slice path must match.
fn full_walk_slice(
    reader: &StoreReader,
    t0: u64,
    t1: u64,
    class: Option<EventClass>,
) -> Vec<Event> {
    let mut streams: Vec<Vec<Event>> = Vec::new();
    for c in 0..reader.ncpus() {
        let mut cursor = reader.column_chunks(CpuId(c as u16));
        let mut stream = Vec::new();
        while let Some(block) = cursor.next_chunk() {
            stream.extend(block.unwrap().events().filter(|e| {
                e.t.as_nanos() >= t0
                    && e.t.as_nanos() < t1
                    && class.is_none_or(|cl| event_matches_class(e, cl))
            }));
        }
        streams.push(stream);
    }
    merge_streams(streams)
}

fn offline_analysis(
    path: &std::path::Path,
) -> (StoreReader, StoredRunMeta, osn_analysis::NoiseAnalysis) {
    let (reader, _rec) = StoreReader::recover(path).unwrap();
    let (meta, analysis) = analyze_store(&reader).unwrap();
    (reader, meta, analysis)
}

#[test]
fn service_end_to_end() {
    let dir = tmpdir("e2e");
    let path_a = dir.join("sphot.osn");
    let path_b = dir.join("sub").join("amg.osn");
    let path_c = dir.join("doomed.osn");
    std::fs::create_dir_all(dir.join("sub")).unwrap();
    record_app(tiny_config(App::Sphot, 7), &path_a, store_opts()).unwrap();
    record_app(tiny_config(App::Amg, 11), &path_b, store_opts()).unwrap();
    record_app(tiny_config(App::Sphot, 13), &path_c, store_opts()).unwrap();
    // A non-store .osn file must be skipped with a reason, not break
    // the catalog.
    std::fs::write(dir.join("junk.osn"), b"not a store at all").unwrap();

    let mut config = ServiceConfig::new(dir.clone());
    config.threads = 8;
    config.rescan = None; // tests drive rescans via scan_now
    let service = Service::start(config).unwrap();
    assert_eq!(service.runs(), 3);
    assert_eq!(service.skipped(), 1);
    let addr = service.addr();

    let mut client = Client::connect(addr).unwrap();

    // -- /runs: listing and filters ----------------------------------
    let (status, body) = client.get("/runs").unwrap();
    assert_eq!(status, 200);
    let runs: RunsResponse = serde_json::from_slice(&body).unwrap();
    assert_eq!(runs.count, 3);
    assert_eq!(runs.skipped.len(), 1);
    assert!(runs.skipped[0].path.contains("junk"));
    let id_a = runs
        .runs
        .iter()
        .find(|r| r.app == "sphot" && r.seed == 7)
        .unwrap()
        .id
        .clone();
    let id_b = runs
        .runs
        .iter()
        .find(|r| r.app == "amg")
        .unwrap()
        .id
        .clone();
    let id_c = runs.runs.iter().find(|r| r.seed == 13).unwrap().id.clone();
    let entry_a = runs.runs.iter().find(|r| r.id == id_a).unwrap().clone();
    assert_eq!(entry_a.ncpus, 2);
    assert_eq!(entry_a.nranks, 2);
    assert!(entry_a.events > 0);
    assert!(!entry_a.classes.is_empty());
    let (status, body) = client.get("/runs?app=amg").unwrap();
    assert_eq!(status, 200);
    let filtered: RunsResponse = serde_json::from_slice(&body).unwrap();
    assert_eq!(filtered.count, 1);
    assert_eq!(filtered.runs[0].id, id_b);
    let (status, _) = client.get("/runs?seed=notanumber").unwrap();
    assert_eq!(status, 400);

    // -- /runs/{id}/report: byte-identical to `analyze --json` -------
    let expected_report_a = offline_report_bytes(&path_a);
    let (status, body) = client.get(&format!("/runs/{id_a}/report")).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        body, expected_report_a,
        "report bytes differ from offline path"
    );

    // -- /runs/{id}/slice: ≡ filtered full cursor walk, bounded decode
    let (reader_a, meta_a, analysis_a) = offline_analysis(&path_a);
    let span = reader_a.span().unwrap();
    let quarter = (span.1.as_nanos() - span.0.as_nanos()) / 4;
    let (t0, t1) = (span.0.as_nanos() + quarter, span.1.as_nanos() - quarter);
    let (status, body) = client
        .get(&format!("/runs/{id_a}/slice?t0={t0}&t1={t1}"))
        .unwrap();
    assert_eq!(status, 200);
    let slice: Value = serde_json::from_slice(&body).unwrap();
    // Expected events: a *full* walk of every CPU's column cursor,
    // filtered by timestamp — the unindexed reference the seek path
    // must match.
    let expected_events = full_walk_slice(&reader_a, t0, t1, None);
    assert!(!expected_events.is_empty(), "window should contain events");
    assert_eq!(
        get(&slice, "events"),
        &serde_json::to_value(&expected_events).unwrap()
    );
    assert_eq!(uint(get(&slice, "count")), expected_events.len() as u64);
    // The endpoint decoded only chunks overlapping [t0, t1).
    let (decoded, total) = (
        uint(get(&slice, "chunks_decoded")),
        uint(get(&slice, "chunks_total")),
    );
    assert!(
        decoded < total,
        "narrow window must skip chunks: decoded {decoded} of {total}"
    );
    assert!(decoded >= 1);
    // And the whole response is byte-identical to the library path.
    let (lib_events, lib_decoded, lib_total) =
        slice_events(&reader_a, Nanos(t0), Nanos(t1), None, None);
    let expected_slice = serde_json::to_vec_pretty(&SliceResponse {
        run: id_a.clone(),
        t0,
        t1,
        cpu: None,
        class: None,
        chunks_total: lib_total,
        chunks_decoded: lib_decoded,
        count: lib_events.len(),
        events: lib_events,
    })
    .unwrap();
    assert_eq!(body, expected_slice);

    // Class + cpu filters.
    let (status, body) = client
        .get(&format!("/runs/{id_a}/slice?class=schedule&cpu=0"))
        .unwrap();
    assert_eq!(status, 200);
    let slice: Value = serde_json::from_slice(&body).unwrap();
    let (lib_events, _, _) = slice_events(
        &reader_a,
        span.0,
        Nanos(span.1.as_nanos() + 1),
        Some(CpuId(0)),
        Some(EventClass::Schedule),
    );
    assert_eq!(
        get(&slice, "events"),
        &serde_json::to_value(&lib_events).unwrap()
    );
    assert!(lib_events.iter().all(|e| e.cpu == CpuId(0)));

    // A wide class slice filters on the columns; its bytes must equal a
    // response built from event-side filtering of the full walk.
    let (status, body) = client
        .get(&format!(
            "/runs/{id_a}/slice?t0={t0}&t1={t1}&class=timer_interrupt"
        ))
        .unwrap();
    assert_eq!(status, 200);
    let timers = full_walk_slice(&reader_a, t0, t1, Some(EventClass::TimerInterrupt));
    assert!(!timers.is_empty(), "window should hold timer interrupts");
    let slice: Value = serde_json::from_slice(&body).unwrap();
    let expected_timer_slice = serde_json::to_vec_pretty(&SliceResponse {
        run: id_a.clone(),
        t0,
        t1,
        cpu: None,
        class: Some("timer_interrupt".to_string()),
        chunks_total: uint(get(&slice, "chunks_total")) as usize,
        chunks_decoded: uint(get(&slice, "chunks_decoded")) as usize,
        count: timers.len(),
        events: timers,
    })
    .unwrap();
    assert_eq!(body, expected_timer_slice);

    // -- /runs/{id}/histogram: ≡ class_histogram ---------------------
    let (status, body) = client
        .get(&format!("/runs/{id_a}/histogram?class=page_fault&bins=32"))
        .unwrap();
    assert_eq!(status, 200);
    let (stats, histogram) =
        class_histogram(&analysis_a, &meta_a.ranks, EventClass::PageFault, 32, 99.0);
    let expected_hist = serde_json::to_vec_pretty(&HistogramResponse {
        run: id_a.clone(),
        class: "page_fault".to_string(),
        bins: 32,
        pct: 99.0,
        stats,
        histogram,
    })
    .unwrap();
    assert_eq!(body, expected_hist);

    // -- /compare: ≡ NoiseSignature distance/drift -------------------
    let (_reader_b, meta_b, analysis_b) = offline_analysis(&path_b);
    let sig_a = NoiseSignature::build(&analysis_a, &meta_a.ranks);
    let sig_b = NoiseSignature::build(&analysis_b, &meta_b.ranks);
    let (status, body) = client.get(&format!("/compare?a={id_a}&b={id_b}")).unwrap();
    assert_eq!(status, 200);
    let cmp: Value = serde_json::from_slice(&body).unwrap();
    assert_eq!(get(&cmp, "a"), &Value::Str(id_a.clone()));
    assert_eq!(get(&cmp, "b"), &Value::Str(id_b.clone()));
    let Value::F64(distance) = get(&cmp, "distance") else {
        panic!("distance is a float");
    };
    assert!((distance - sig_a.distance(&sig_b)).abs() < 1e-12);
    assert_eq!(uint(get(&cmp, "a_total_ns")), sig_a.total_noise.as_nanos());
    assert_eq!(uint(get(&cmp, "b_total_ns")), sig_b.total_noise.as_nanos());
    assert_eq!(
        get(&cmp, "same_config"),
        &Value::Bool(false),
        "different app/seed must differ in config hash"
    );
    // The whole body equals a response built from per-class reference
    // signatures, byte for byte.
    let (ref_a, ref_b) = (
        reference_signature(&analysis_a, &meta_a.ranks),
        reference_signature(&analysis_b, &meta_b.ranks),
    );
    let expected_cmp = serde_json::to_vec_pretty(&CompareResponse {
        a: id_a.clone(),
        b: id_b.clone(),
        same_config: false,
        distance: ref_a.distance(&ref_b),
        threshold: 0.5,
        a_total_ns: ref_a.total_noise.as_nanos(),
        b_total_ns: ref_b.total_noise.as_nanos(),
        drift: ref_a.drift(&ref_b, 0.5),
        a_signature: ref_a,
        b_signature: ref_b,
    })
    .unwrap();
    assert_eq!(body, expected_cmp, "/compare bytes differ from reference");

    // -- /runs/{id}/paraver: ≡ write_full_prv ------------------------
    let trace = reader_a.read_trace().unwrap();
    let expected_prv = osn_paraver::write_full_prv(
        &trace,
        &analysis_a.instances,
        &meta_a.result.tasks,
        meta_a.result.end_time,
    );
    let (status, body) = client.get(&format!("/runs/{id_a}/paraver")).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, expected_prv.as_bytes());

    // -- byte-identity under concurrent load -------------------------
    let expected_report_b = offline_report_bytes(&path_b);
    std::thread::scope(|s| {
        for worker in 0..8 {
            let expected_report_a = &expected_report_a;
            let expected_report_b = &expected_report_b;
            let expected_slice = &expected_slice;
            let id_a = &id_a;
            let id_b = &id_b;
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..6 {
                    match (worker + round) % 3 {
                        0 => {
                            let (status, body) =
                                client.get(&format!("/runs/{id_a}/report")).unwrap();
                            assert_eq!(status, 200);
                            assert_eq!(&body, expected_report_a);
                        }
                        1 => {
                            let (status, body) =
                                client.get(&format!("/runs/{id_b}/report")).unwrap();
                            assert_eq!(status, 200);
                            assert_eq!(&body, expected_report_b);
                        }
                        _ => {
                            let (status, body) = client
                                .get(&format!("/runs/{id_a}/slice?t0={t0}&t1={t1}"))
                                .unwrap();
                            assert_eq!(status, 200);
                            assert_eq!(&body, expected_slice);
                        }
                    }
                }
            });
        }
    });
    // Bounded residency: the service's shared reader held at most one
    // decoded chunk per in-flight stream — 8 client threads plus the
    // analysis workers (≤ ncpus) bound the high-water mark.
    let snapshot = service.store_stats(&id_a).expect("reader cached");
    assert_eq!(snapshot.resident, 0, "all streams released their chunks");
    assert!(
        snapshot.peak_resident <= 8 + reader_a.ncpus(),
        "peak residency {} exceeds in-flight bound",
        snapshot.peak_resident
    );
    assert_eq!(snapshot.decode_errors, 0);

    // -- robustness: typed errors, never a panic ---------------------
    let (status, _) = client.get("/runs/no-such-run/report").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.get("/nope").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.get(&format!("/runs/{id_a}/slice?cpu=99")).unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.get(&format!("/runs/{id_a}/slice?t0=abc")).unwrap();
    assert_eq!(status, 400);
    let (status, body) = client
        .get(&format!("/runs/{id_a}/histogram?class=bogus"))
        .unwrap();
    assert_eq!(status, 400);
    assert!(
        String::from_utf8_lossy(&body).contains("page_fault"),
        "400 lists valid classes"
    );
    let (status, _) = client.get(&format!("/runs/{id_a}/histogram")).unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.get("/compare?a=only").unwrap();
    assert_eq!(status, 400);

    // Method not allowed.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"POST /runs HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi")
        .unwrap();
    let mut resp = String::new();
    raw.read_to_string(&mut resp).unwrap();
    assert!(resp.contains("HTTP/1.1 405"), "{resp}");
    // Garbage request.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"\x00\x01garbage\r\n\r\n").unwrap();
    let mut resp = Vec::new();
    raw.read_to_end(&mut resp).unwrap();
    assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 400"));

    // -- stores disappearing mid-flight ------------------------------
    // Never-queried store vanishes: catalog still lists it, but
    // touching its bytes answers 410 Gone until the next rescan.
    std::fs::remove_file(&path_c).unwrap();
    let (status, _) = client.get(&format!("/runs/{id_c}/report")).unwrap();
    assert_eq!(status, 410);
    let outcome = service.scan_now().unwrap();
    assert_eq!(outcome.removed, 1);
    let (status, _) = client.get(&format!("/runs/{id_c}/report")).unwrap();
    assert_eq!(status, 404);

    // -- stores appearing mid-flight ---------------------------------
    let path_d = dir.join("late.osn");
    record_app(tiny_config(App::Sphot, 17), &path_d, store_opts()).unwrap();
    let outcome = service.scan_now().unwrap();
    assert_eq!(outcome.indexed, 1);
    let (status, body) = client.get("/runs?seed=17").unwrap();
    assert_eq!(status, 200);
    let late: RunsResponse = serde_json::from_slice(&body).unwrap();
    assert_eq!(late.count, 1);
    let (status, body) = client
        .get(&format!("/runs/{}/report", late.runs[0].id))
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, offline_report_bytes(&path_d));

    // -- /stats observed all of it -----------------------------------
    let (status, body) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let stats: Value = serde_json::from_slice(&body).unwrap();
    assert_eq!(uint(get(&stats, "runs")), 3); // a, b, d
    let endpoints = get(&stats, "endpoints").as_seq().unwrap();
    let by_name = |name: &str, counter: &str| {
        let e = endpoints
            .iter()
            .find(|e| matches!(get(e, "endpoint"), Value::Str(s) if s.contains(name)))
            .unwrap();
        uint(get(e, counter))
    };
    assert!(by_name("report", "requests") >= 10);
    assert!(by_name("slice", "requests") >= 10);
    assert!(
        by_name("report", "errors") >= 2,
        "404/410 counted as errors"
    );
    assert!(by_name("{id}/histogram", "requests") >= 3);
    // Every request, error responses included, lands in exactly one
    // latency bucket.
    for e in endpoints {
        let buckets = get(e, "latency_log2_us").as_seq().unwrap();
        assert_eq!(buckets.len(), 32);
        assert_eq!(
            buckets.iter().map(uint).sum::<u64>(),
            uint(get(e, "requests")),
            "{:?}: latency buckets do not sum to requests",
            get(e, "endpoint")
        );
    }
    assert!(by_name("(other)", "errors") >= 2, "404 and 405 counted");

    drop(client);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second service starting over the same root must reuse the
/// persisted index (no re-analysis), and the index survives entries
/// round-tripping through JSON.
#[test]
fn persistent_index_reuse() {
    let dir = tmpdir("persist");
    record_app(
        tiny_config(App::Sphot, 5),
        &dir.join("one.osn"),
        store_opts(),
    )
    .unwrap();

    let mut config = ServiceConfig::new(dir.clone());
    config.rescan = None;
    let first = Service::start(config.clone()).unwrap();
    assert_eq!(first.runs(), 1);
    let addr = first.addr();
    let mut client = Client::connect(addr).unwrap();
    let (_, body) = client.get("/runs").unwrap();
    let first_listing: RunsResponse = serde_json::from_slice(&body).unwrap();
    drop(client);
    first.shutdown();

    assert!(dir.join(".osn-catalog.json").exists());
    let second = Service::start(config).unwrap();
    assert_eq!(second.runs(), 1);
    let outcome = second.scan_now().unwrap();
    assert_eq!(outcome.reused, 1);
    assert_eq!(outcome.indexed, 0);
    let mut client = Client::connect(second.addr()).unwrap();
    let (_, body) = client.get("/runs").unwrap();
    let second_listing: RunsResponse = serde_json::from_slice(&body).unwrap();
    assert_eq!(first_listing.runs, second_listing.runs);
    drop(client);
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scan_does_not_follow_directory_link_loops() {
    let dir = tmpdir("link-loop");
    record_app(tiny_config(App::Sphot, 5), &dir.join("a.osn"), store_opts()).unwrap();
    // Two links back to the root: a walk that follows them meets the
    // store once per path, 2^40 paths before ELOOP ends it.
    std::os::unix::fs::symlink(".", dir.join("self")).unwrap();
    std::os::unix::fs::symlink(".", dir.join("again")).unwrap();

    let (tx, rx) = std::sync::mpsc::channel();
    let root = dir.clone();
    std::thread::spawn(move || {
        tx.send(osn_catalog::scan(&root, &osn_catalog::Catalog::default()))
            .ok();
    });
    let (catalog, outcome) = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("scan still running after 30 s")
        .unwrap();
    assert_eq!(outcome.indexed, 1);
    assert_eq!(catalog.entries.len(), 1);
    assert_eq!(catalog.entries[0].path, "a.osn");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `*.osn` link to a directory cannot be read as a store (the reader
/// maps every file it opens, and a directory does not map): the scan
/// lists it under `skipped` with a reason and still indexes the real
/// store beside it.
#[test]
fn osn_link_to_a_directory_is_skipped_with_a_reason() {
    let dir = tmpdir("link-to-dir");
    record_app(tiny_config(App::Sphot, 5), &dir.join("a.osn"), store_opts()).unwrap();
    std::fs::create_dir(dir.join("sub")).unwrap();
    std::fs::write(dir.join("sub").join("notes.txt"), b"not a store").unwrap();
    std::os::unix::fs::symlink("sub", dir.join("b.osn")).unwrap();

    let (catalog, outcome) = osn_catalog::scan(&dir, &osn_catalog::Catalog::default()).unwrap();
    assert_eq!(outcome.indexed, 1);
    assert_eq!(outcome.skipped, 1);
    assert_eq!(catalog.entries.len(), 1);
    assert_eq!(catalog.entries[0].path, "a.osn");
    assert_eq!(catalog.skipped.len(), 1);
    assert_eq!(catalog.skipped[0].path, "b.osn");
    assert!(
        catalog.skipped[0].reason.starts_with("cannot open: "),
        "reason: {}",
        catalog.skipped[0].reason
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The pretty JSON every data endpoint serves, pinned by FNV-1a-64 for
/// one recorded 1-simulated-second store: a change to how JSON is
/// written must keep these bytes.
#[test]
fn served_pretty_json_matches_pinned_hashes() {
    use osn_trace::wire::fnv1a64;

    let dir = tmpdir("pinned");
    let config = |seed| {
        let mut c = ExperimentConfig::paper(App::Sphot, Nanos::from_secs(1)).with_seed(seed);
        c.node.cpus = 2;
        c.nranks = 2;
        c
    };
    let path = dir.join("sphot.osn");
    record_app(config(7), &path, store_opts()).unwrap();
    record_app(config(8), &dir.join("twin.osn"), store_opts()).unwrap();

    let mut service_config = ServiceConfig::new(dir.clone());
    service_config.rescan = None;
    let service = Service::start(service_config).unwrap();
    let mut client = Client::connect(service.addr()).unwrap();
    let (_, body) = client.get("/runs").unwrap();
    let runs: RunsResponse = serde_json::from_slice(&body).unwrap();
    let id_of = |file: &str| {
        runs.runs
            .iter()
            .find(|r| r.path == file)
            .unwrap()
            .id
            .clone()
    };
    let (id, twin) = (id_of("sphot.osn"), id_of("twin.osn"));

    let reader = StoreReader::open(&path).unwrap();
    let span = reader.span().unwrap();
    let mid = (span.0.as_nanos() + span.1.as_nanos()) / 2;
    let (t0, t1) = (mid, mid + Nanos::from_millis(10).as_nanos());
    let end = span.1.as_nanos() + 1;
    for (name, target, want) in [
        (
            "narrow slice",
            format!("/runs/{id}/slice?t0={t0}&t1={t1}"),
            0xeb07_6274_12e9_bbecu64,
        ),
        (
            "filtered slice",
            format!("/runs/{id}/slice?t0=0&t1={end}&class=timer_interrupt&cpu=1"),
            0x556b_e3da_cdb2_a1d4,
        ),
        (
            "histogram",
            format!("/runs/{id}/histogram?class=page_fault&bins=32"),
            0xd5a6_2302_058d_7ce2,
        ),
        (
            "compare",
            format!("/compare?a={id}&b={twin}"),
            0x6937_bb99_5cca_ce2f,
        ),
        (
            "report",
            format!("/runs/{id}/report"),
            0x77b6_af73_9365_b9d1,
        ),
    ] {
        let (status, body) = client.get(&target).unwrap();
        assert_eq!(status, 200, "{name}");
        let got = fnv1a64(&body);
        assert_eq!(got, want, "{name}: body hash {got:#018x} drifted");
    }
    drop(client);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every class × bins {1, 64, 4096} × pct {0, 50, 99, 100} of run `id`
/// must be served byte for byte as [`class_histogram`] builds it from
/// an offline analysis of `path`. Returns how many classes had no
/// samples.
fn assert_histograms_match_offline(client: &mut Client, id: &str, path: &Path) -> usize {
    let (_reader, meta, analysis) = offline_analysis(path);
    let mut empty_classes = 0;
    for class in EventClass::ALL {
        for bins in [1usize, 64, 4096] {
            for pct in [0.0f64, 50.0, 99.0, 100.0] {
                let target = format!(
                    "/runs/{id}/histogram?class={}&bins={bins}&pct={pct}",
                    class.name()
                );
                let (status, body) = client.get(&target).unwrap();
                assert_eq!(status, 200, "{target}");
                let (stats, histogram) = class_histogram(&analysis, &meta.ranks, class, bins, pct);
                let expected = serde_json::to_vec_pretty(&HistogramResponse {
                    run: id.to_string(),
                    class: class.name().to_string(),
                    bins,
                    pct,
                    stats,
                    histogram,
                })
                .unwrap();
                assert!(
                    body == expected,
                    "{target}: body differs from class_histogram"
                );
            }
        }
        if class_stats(&analysis, &meta.ranks, class).count == 0 {
            empty_classes += 1;
        }
    }
    empty_classes
}

/// `/histogram` serves every class, bin count and cut from the run's
/// cached columns with the bytes of the offline `class_histogram`, on a
/// healthy store and on one whose tail was torn off by a corrupt chunk.
#[test]
fn histograms_match_class_histogram_on_healthy_and_recovered_stores() {
    use osn_core::store::format::CHUNK_HEADER_BYTES;

    let dir = tmpdir("histograms");
    let healthy = dir.join("healthy.osn");
    let damaged = dir.join("damaged.osn");
    record_app(tiny_config(App::Amg, 3), &healthy, store_opts()).unwrap();
    // One flipped payload byte mid-file: recovery keeps the footer and
    // drops that chunk and everything after it.
    let chunks = StoreReader::open(&healthy).unwrap().chunks().to_vec();
    let victim = chunks[chunks.len() / 2];
    let mut bytes = std::fs::read(&healthy).unwrap();
    bytes[victim.offset as usize + CHUNK_HEADER_BYTES + 1] ^= 0x01;
    std::fs::write(&damaged, &bytes).unwrap();

    let mut config = ServiceConfig::new(dir.clone());
    config.rescan = None;
    let service = Service::start(config).unwrap();
    let mut client = Client::connect(service.addr()).unwrap();
    let (_, body) = client.get("/runs").unwrap();
    let runs: RunsResponse = serde_json::from_slice(&body).unwrap();
    assert_eq!(runs.count, 2, "both stores indexed: {:?}", runs.skipped);
    for (path, file, recovered) in [
        (&healthy, "healthy.osn", false),
        (&damaged, "damaged.osn", true),
    ] {
        let entry = runs.runs.iter().find(|r| r.path == file).unwrap();
        assert_eq!(entry.recovered, recovered, "{file}");
        let empty = assert_histograms_match_offline(&mut client, &entry.id, path);
        assert!(
            empty > 0 && empty < EventClass::ALL.len(),
            "{file}: {empty} empty classes; both shapes must be covered"
        );
    }
    drop(client);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A keep-alive client that asks for large slices and never reads the
/// answers holds its worker only until the write timeout: with a single
/// worker, a second client's `/stats` is still answered within
/// `IO_TIMEOUT` plus slack.
#[test]
fn stalled_reader_frees_its_worker() {
    let dir = tmpdir("stalled");
    let mut config = ExperimentConfig::paper(App::Sphot, Nanos::from_secs(1)).with_seed(7);
    config.node.cpus = 2;
    config.nranks = 2;
    record_app(config, &dir.join("sphot.osn"), store_opts()).unwrap();

    let mut service_config = ServiceConfig::new(dir.clone());
    service_config.rescan = None;
    service_config.threads = 1;
    let service = Service::start(service_config).unwrap();
    let addr = service.addr();
    let mut client = Client::connect(addr).unwrap();
    let (_, body) = client.get("/runs").unwrap();
    let runs: RunsResponse = serde_json::from_slice(&body).unwrap();
    let target = format!("/runs/{}/slice", runs.runs[0].id);
    let (status, body) = client.get(&target).unwrap();
    assert_eq!(status, 200);
    drop(client);

    // Pipeline enough copies of the whole-run slice that the answers
    // overflow the loopback socket buffers many times over.
    let copies = (64 << 20) / body.len() + 1;
    let request = format!("GET {target} HTTP/1.1\r\nHost: stalled\r\n\r\n").repeat(copies);
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(request.as_bytes()).unwrap();

    let (tx, rx) = std::sync::mpsc::channel();
    let second = std::thread::spawn(move || {
        let answer = Client::connect(addr).and_then(|mut c| c.get("/stats"));
        tx.send(answer.map(|(status, _)| status)).ok();
    });
    let answered = rx.recv_timeout(IO_TIMEOUT + Duration::from_secs(10));
    // Close the stalled connection before asserting, so a failure
    // cannot leave the worker (and the shutdown) blocked behind it.
    drop(stalled);
    let status = answered
        .expect("/stats unanswered while a stalled reader held the only worker")
        .unwrap();
    assert_eq!(status, 200);
    second.join().unwrap();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every activity code in the `a` word of every record kind, on each
/// of 8 CPUs: only a class's own ENTER/EXIT records may match it.
fn every_code_trace() -> Trace {
    let streams = (0..8u16)
        .map(|cpu| {
            let mut t = 0;
            let mut events = Vec::new();
            for code in 1..=22u16 {
                let act = Activity::from_code(code).unwrap();
                let mut kinds = vec![
                    EventKind::KernelEnter(act),
                    EventKind::KernelExit(act),
                    EventKind::Wakeup {
                        tid: Tid(5),
                        waker: Tid(code as u32),
                    },
                    EventKind::Migrate {
                        tid: Tid(5),
                        from: CpuId(0),
                        to: CpuId(code),
                    },
                    EventKind::SchedSwitch {
                        prev: Tid(5),
                        prev_state: SwitchState::Preempted,
                        next: Tid(code as u32),
                    },
                    EventKind::AppMark {
                        mark: code as u32,
                        value: code as u64,
                    },
                    EventKind::TaskExit {
                        tid: Tid(code as u32),
                    },
                ];
                if let Activity::Softirq(vec) = act {
                    kinds.push(EventKind::SoftirqRaise(vec));
                }
                for kind in kinds {
                    t += 1;
                    events.push(Event {
                        t: Nanos(t),
                        cpu: CpuId(cpu),
                        tid: Tid(5),
                        kind,
                    });
                }
            }
            events
        })
        .collect();
    Trace::new(merge_streams(streams), vec![0; 8])
}

/// The slice path's class filter (a bit test of each record's activity
/// code against the class's mask) selects exactly the records
/// `event_matches_class` selects on the built events: every class, every
/// record of a recorded 8-CPU store and of an 8-CPU store holding every
/// activity code in every record kind, against a full typed walk.
#[test]
fn class_mask_selects_what_event_matches_class_selects() {
    let dir = tmpdir("mask");
    let recorded = dir.join("amg.osn");
    let mut config = ExperimentConfig::paper(App::Amg, Nanos::from_millis(300)).with_seed(23);
    config.node.cpus = 8;
    record_app(config, &recorded, store_opts()).unwrap();
    let every_code = dir.join("codes.osn");
    write_store(&every_code, &every_code_trace(), b"", store_opts()).unwrap();

    for path in [recorded, every_code] {
        let reader = StoreReader::open(&path).unwrap();
        assert_eq!(reader.ncpus(), 8);
        let mut selected = 0;
        for class in EventClass::ALL {
            let (events, _, _) =
                slice_events(&reader, Nanos(0), Nanos(u64::MAX), None, Some(class));
            assert_eq!(
                events,
                full_walk_slice(&reader, 0, u64::MAX, Some(class)),
                "{} in {}",
                class.name(),
                path.display()
            );
            selected += events.len();
        }
        let all = full_walk_slice(&reader, 0, u64::MAX, None);
        assert_eq!(all.len() as u64, reader.events());
        assert!(
            selected > 0 && selected < all.len(),
            "{selected} of {}",
            all.len()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
