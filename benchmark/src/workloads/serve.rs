//! `serve` and `serve-cold`: 2 closed-loop keep-alive clients against an
//! in-process catalog `Service` with 2 worker threads. The loop is
//! closed because analysts' tools wait for each reply.
//!
//! * `serve` — over the offline workload's 10 stores with a 16-run
//!   cache warmed in set-up. A client repeats an analyst session of six
//!   calls on a rotating store: `/runs?app=`, `/report` (a cache hit), a
//!   64-bin page-fault `/histogram`, a narrow `/slice` (1 % of the
//!   span), a wide `/slice` of timer interrupts (25 % of the span) and
//!   `/compare` against the store's twin seed. Pairing never runs: time
//!   goes to HTTP, chunk seeks and per-event JSON. One op is a round of
//!   10 sessions, one per store, so every op asks the same mix; a
//!   mixed-request rate is far less steady.
//! * `serve-cold` — over 10 AMG stores with a 1-run cache. The clients
//!   take alternating ids, so every `/report` misses and rebuilds the
//!   analysis behind the catalog's products mutex; one app keeps the
//!   builds alike. One op is a burst: both clients ask for a report at
//!   the same moment, and the op lasts until both replies are back.
//!   Left to drift, the two clients fall into changing patterns of
//!   waiting on each other, and single-report latency jumps between
//!   one, two and three build times from run to run.
//!
//!   `BENCHMARK.json` does not declare `serve-cold`, so no bound gates
//!   it: two builds at once keep both cores busy, and on a shared host
//!   its burst time moved by a third between runs minutes apart.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use osn_catalog::{
    slice_events, Catalog, Client, RunsResponse, Service, ServiceConfig, SliceResponse,
};
use osn_core::analysis::EventClass;
use osn_core::kernel::time::Nanos;
use osn_core::workloads::App;
use osn_store::{StoreOptions, StoreReader};

use crate::check::Tally;
use crate::spans::{Profile, Span, Spans};
use crate::stats;
use crate::workloads::pipeline::{serial_report, store_inputs, streamed_report, StoreInput};
use crate::workloads::{timed, Ctx, Measured};

const CLIENTS: usize = 2;
const SERVICE_THREADS: usize = 2;
/// Narrow and wide slice windows per store; sessions cycle through them.
const NARROW: usize = 4;
const WIDE: usize = 2;
/// `/stats` requests timed as the HTTP floor in a traced run.
const FLOOR_REQUESTS: usize = 100;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Warm,
    Cold,
}

struct Window {
    t0: u64,
    t1: u64,
    /// Events a direct `slice_events` call returns for this window.
    count: usize,
}

struct Store {
    id: String,
    app: &'static str,
    path: PathBuf,
    report: Vec<u8>,
    /// The store of the same app under its other seed.
    twin: usize,
    narrow: Vec<Window>,
    wide: Vec<Window>,
}

struct Served {
    service: Service,
    stores: Vec<Store>,
}

pub fn run_warm(ctx: &Ctx) -> Measured {
    run(ctx, Kind::Warm)
}

pub fn run_cold(ctx: &Ctx) -> Measured {
    run(ctx, Kind::Cold)
}

fn run(ctx: &Ctx, kind: Kind) -> Measured {
    let mut m = Measured::default();
    let mut main_spans = Spans::new(ctx.trace, ctx.origin, 0);
    // Every set-up starts from nothing; only the last one is served.
    let mut served: Option<(Served, PathBuf)> = None;
    for r in 0..ctx.setups() {
        if let Some((previous, dir)) = served.take() {
            previous.service.shutdown();
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = ctx.dir.join(format!("setup-{r}"));
        let inputs = match kind {
            Kind::Warm => store_inputs(ctx, "offline", &App::ALL, 2, &dir),
            Kind::Cold => store_inputs(ctx, "serve-cold", &[App::Amg], 10, &dir),
        };
        let (s, built) = timed(|| setup(kind, &inputs, &dir, &mut main_spans, &mut m.tally));
        match built {
            Ok(built) => served = Some((built, dir)),
            Err(e) => {
                m.tally.check(false, || format!("set-up: {e}"));
                return m;
            }
        }
        m.setup_s.push(s);
    }
    let (served, _) = served.expect("at least one set-up");

    let (untraced, traced) = ctx.phases();
    let run = load(ctx, &served, kind, untraced, false);
    m.tally.merge(run.tally);
    let call = match kind {
        Kind::Warm => "session",
        Kind::Cold => "report",
    };
    m.detail = vec![
        (
            format!("{call}s_per_s"),
            run.calls_ms.len() as f64 / run.wall_s,
        ),
        (format!("{call}_ms_p50"), stats::median(&run.calls_ms)),
        (
            format!("{call}_ms_p90"),
            stats::quantile(&run.calls_ms, 0.9),
        ),
    ];
    m.op_ms = run.ops_ms;

    if let Some(traced) = traced {
        let run = load(ctx, &served, kind, traced, true);
        m.tally.merge(run.tally);
        m.traced_op_ms = run.ops_ms;
        let mut spans = run.spans;
        let stores = served.stores.len();
        match kind {
            Kind::Warm => {
                let chunks = direct_calls(&served, &mut main_spans, &mut m.tally);
                spans.extend(main_spans.finish());
                m.per_layer = per_layer(kind, &spans, stores);
                m.per_layer.push((
                    "catalog.slice_chunks_decoded",
                    chunks as f64 / stores as f64,
                ));
            }
            Kind::Cold => {
                cold_builds(&served, &mut main_spans, &mut m.tally);
                spans.extend(main_spans.finish());
                // Not gated, so its layer numbers are context.
                let layers = per_layer(kind, &spans, stores);
                m.detail
                    .extend(layers.into_iter().map(|(k, v)| (k.to_string(), v)));
            }
        }
        m.spans = spans;
    }
    served.service.shutdown();
    m
}

/// Record the stores, start the service on them, compute every
/// reference answer offline, and (warm) fill the cache.
fn setup(
    kind: Kind,
    inputs: &[StoreInput],
    dir: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
) -> io::Result<Served> {
    std::fs::create_dir_all(dir)?;
    for input in inputs {
        osn_core::record_app(input.config.clone(), &input.path, StoreOptions::default())?;
    }
    if spans.enabled() {
        // Index explicitly so the scan is timed on its own; the service
        // then reuses the persisted index.
        spans.time("catalog.scan", || {
            osn_catalog::scan(dir, &Catalog::default())
        })?;
    }
    let mut config = ServiceConfig::new(dir.to_path_buf());
    config.threads = SERVICE_THREADS;
    config.rescan = None;
    config.cache_runs = match kind {
        Kind::Warm => 16,
        Kind::Cold => 1,
    };
    let service = Service::start(config)?;
    let mut http = Client::connect(service.addr())?;
    let (status, body) = http.get("/runs")?;
    let runs: RunsResponse = serde_json::from_slice(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("/runs: {e}")))?;
    tally.check(status == 200 && runs.count == inputs.len(), || {
        format!(
            "/runs: status {status}, {} of {} stores indexed",
            runs.count,
            inputs.len()
        )
    });

    let mut stores = Vec::with_capacity(inputs.len());
    for input in inputs {
        let file = input
            .path
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or("");
        let entry = runs.runs.iter().find(|e| e.path == file).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("{file} not indexed"))
        })?;
        let (narrow, wide) = match kind {
            Kind::Warm => windows(&input.path, entry.span_start_ns, entry.span_end_ns)?,
            Kind::Cold => (Vec::new(), Vec::new()),
        };
        stores.push(Store {
            id: entry.id.clone(),
            app: input.config.app.name(),
            path: input.path.clone(),
            report: streamed_report(&input.path)?,
            twin: 0,
            narrow,
            wide,
        });
    }
    for k in 0..stores.len() {
        stores[k].twin = (0..stores.len())
            .find(|&j| j != k && stores[j].app == stores[k].app)
            .unwrap_or(k);
    }
    if kind == Kind::Warm {
        for s in &stores {
            let (status, body) = http.get(&format!("/runs/{}/report", s.id))?;
            tally.check(status == 200, || {
                format!("warm-up /report of {}: {status}", s.id)
            });
            tally.same_bytes(&body, &s.report, &format!("warm-up /report of {}", s.id));
        }
    }
    Ok(Served { service, stores })
}

/// The narrow and wide slice windows of a store, each with the event
/// count a direct library call returns for it.
fn windows(path: &Path, start: u64, end: u64) -> io::Result<(Vec<Window>, Vec<Window>)> {
    let reader = StoreReader::open(path)?;
    let span = end - start;
    let window = |t0: u64, width: u64, class: Option<EventClass>| {
        let t1 = t0 + width;
        let count = slice_events(&reader, Nanos(t0), Nanos(t1), None, class)
            .0
            .len();
        Window { t0, t1, count }
    };
    let narrow = (0..NARROW as u64)
        .map(|j| {
            window(
                start + span * (2 * j + 1) / (2 * NARROW as u64),
                span / 100,
                None,
            )
        })
        .collect();
    let wide = (0..WIDE as u64)
        .map(|w| {
            let t0 = start + span * (1 + 4 * w) / 8;
            window(t0, span / 4, Some(EventClass::TimerInterrupt))
        })
        .collect();
    Ok((narrow, wide))
}

/// What the clients did in one phase (or one client did: its share).
#[derive(Default)]
struct Load {
    /// Latency of each op (ms): a round of sessions, or a burst of reports.
    ops_ms: Vec<f64>,
    /// Latency of each call the ops are made of (ms): a session, or a report.
    calls_ms: Vec<f64>,
    tally: Tally,
    spans: Vec<Span>,
    wall_s: f64,
}

/// How the `serve-cold` clients line up each burst: both meet at the
/// barrier, client 0 decides whether the phase is over, and both read
/// that decision after meeting again.
struct Bursts {
    barrier: Barrier,
    stop: AtomicBool,
}

impl Bursts {
    fn next(&self, client: usize, deadline: Instant) -> bool {
        self.barrier.wait();
        if client == 0 {
            self.stop
                .store(Instant::now() >= deadline, Ordering::SeqCst);
        }
        self.barrier.wait();
        !self.stop.load(Ordering::SeqCst)
    }
}

/// Run the clients for `phase`.
fn load(ctx: &Ctx, served: &Served, kind: Kind, phase: Duration, traced: bool) -> Load {
    let bursts = Bursts {
        barrier: Barrier::new(CLIENTS),
        stop: AtomicBool::new(false),
    };
    let start = Instant::now();
    let deadline = start + phase;
    let shares: Vec<Load> = std::thread::scope(|s| {
        let bursts = &bursts;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut spans = Spans::new(traced, ctx.origin, 1 + c as u64);
                    let mut share = Load::default();
                    match kind {
                        Kind::Warm => sessions(served, c, deadline, &mut spans, &mut share),
                        Kind::Cold => {
                            cold_reports(served, c, deadline, bursts, &mut spans, &mut share)
                        }
                    }
                    share.spans = spans.finish();
                    share
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Load {
        wall_s: start.elapsed().as_secs_f64(),
        ..Load::default()
    };
    for share in shares {
        match kind {
            Kind::Warm => all.ops_ms.extend(share.ops_ms),
            // A burst lasts until its slower report is back.
            Kind::Cold if all.ops_ms.is_empty() => all.ops_ms = share.ops_ms,
            Kind::Cold => {
                for (op, other) in all.ops_ms.iter_mut().zip(share.ops_ms) {
                    *op = op.max(other);
                }
            }
        }
        all.calls_ms.extend(share.calls_ms);
        all.tally.merge(share.tally);
        all.spans.extend(share.spans);
    }
    all
}

fn get(
    http: &mut Client,
    spans: &mut Spans,
    name: &'static str,
    target: String,
) -> (String, io::Result<(u16, Vec<u8>)>) {
    let response = spans.time(name, || http.get(&target));
    (target, response)
}

/// The body of a 200 response; anything else is a failed op.
fn body<'a>(
    tally: &mut Tally,
    (target, response): &'a (String, io::Result<(u16, Vec<u8>)>),
) -> Option<&'a [u8]> {
    match response {
        Ok((200, body)) => {
            tally.check(true, String::new);
            Some(body)
        }
        Ok((status, _)) => {
            tally.check(false, || format!("GET {target}: status {status}"));
            None
        }
        Err(e) => {
            tally.check(false, || format!("GET {target}: {e}"));
            None
        }
    }
}

/// The top-level `"count"` of a pretty-printed catalog response, read
/// without parsing the events that follow it.
fn json_count(body: &[u8]) -> Option<usize> {
    const KEY: &[u8] = b"\"count\": ";
    let at = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits: Vec<u8> = body[at..]
        .iter()
        .copied()
        .take_while(u8::is_ascii_digit)
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

/// One client's sessions until `deadline`. An op is a complete round:
/// one session on every store, so every round asks the same mix.
fn sessions(
    served: &Served,
    client: usize,
    deadline: Instant,
    spans: &mut Spans,
    share: &mut Load,
) {
    let tally = &mut share.tally;
    let mut http = match Client::connect(served.service.addr()) {
        Ok(http) => http,
        Err(e) => {
            tally.check(false, || format!("client {client}: connect: {e}"));
            return;
        }
    };
    let n = served.stores.len();
    let mut i = 0;
    while Instant::now() < deadline {
        let s = &served.stores[(client * n / CLIENTS + i) % n];
        let twin = &served.stores[s.twin];
        let round = i / n;
        let (narrow, wide) = (&s.narrow[round % NARROW], &s.wide[round % WIDE]);
        let id = &s.id;

        spans.next_op();
        let t0 = Instant::now();
        spans.begin("serve.session");
        let runs = get(
            &mut http,
            spans,
            "catalog.runs",
            format!("/runs?app={}", s.app),
        );
        let report = get(
            &mut http,
            spans,
            "catalog.report_hit",
            format!("/runs/{id}/report"),
        );
        let histogram = get(
            &mut http,
            spans,
            "catalog.histogram",
            format!(
                "/runs/{id}/histogram?class={}&bins=64",
                EventClass::PageFault.name()
            ),
        );
        let narrow_slice = get(
            &mut http,
            spans,
            "catalog.slice_narrow",
            format!("/runs/{id}/slice?t0={}&t1={}", narrow.t0, narrow.t1),
        );
        let wide_slice = get(
            &mut http,
            spans,
            "catalog.slice_wide",
            format!(
                "/runs/{id}/slice?t0={}&t1={}&class={}",
                wide.t0,
                wide.t1,
                EventClass::TimerInterrupt.name()
            ),
        );
        let compare = get(
            &mut http,
            spans,
            "catalog.compare",
            format!("/compare?a={id}&b={}", twin.id),
        );
        spans.end();
        share.calls_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let per_app = served.stores.iter().filter(|o| o.app == s.app).count();
        if let Some(b) = body(tally, &runs) {
            tally.check(json_count(b) == Some(per_app), || {
                format!("{}: wrong run count", runs.0)
            });
        }
        if let Some(b) = body(tally, &report) {
            tally.same_bytes(b, &s.report, &report.0);
        }
        body(tally, &histogram);
        for (slice, window) in [(&narrow_slice, narrow), (&wide_slice, wide)] {
            if let Some(b) = body(tally, slice) {
                tally.check(json_count(b) == Some(window.count), || {
                    format!(
                        "{}: count differs from slice_events ({})",
                        slice.0, window.count
                    )
                });
            }
        }
        body(tally, &compare);
        i += 1;
        if i % n == 0 {
            share.ops_ms.push(share.calls_ms[i - n..].iter().sum());
        }
    }
}

/// One client's half of each burst until `deadline`: the two clients
/// request different uncached reports at the same moment. Client c
/// takes ids c, c + 2, ..., so neither ever asks for the one run the
/// cache holds. An op is a burst; this client's latency is its part.
fn cold_reports(
    served: &Served,
    client: usize,
    deadline: Instant,
    bursts: &Bursts,
    spans: &mut Spans,
    share: &mut Load,
) {
    let tally = &mut share.tally;
    // A client that cannot connect still meets the other at every burst.
    let mut http = Client::connect(served.service.addr())
        .map_err(|e| tally.check(false, || format!("client {client}: connect: {e}")))
        .ok();
    let n = served.stores.len();
    let mut j = 0;
    while bursts.next(client, deadline) {
        let s = &served.stores[(client + CLIENTS * j) % n];
        j += 1;
        let Some(http) = http.as_mut() else { continue };
        spans.next_op();
        let t0 = Instant::now();
        let report = get(
            http,
            spans,
            "serve.report",
            format!("/runs/{}/report", s.id),
        );
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        share.ops_ms.push(ms);
        share.calls_ms.push(ms);
        if let Some(b) = body(tally, &report) {
            tally.same_bytes(b, &s.report, &report.0);
        }
    }
}

/// Traced `serve` only: the HTTP floor (`/stats`), and the wide slice
/// rebuilt from the library calls the endpoint makes, split into event
/// selection and JSON rendering. Returns the chunks those slices decoded.
fn direct_calls(served: &Served, spans: &mut Spans, tally: &mut Tally) -> usize {
    let mut decoded = 0;
    match Client::connect(served.service.addr()) {
        Ok(mut http) => {
            for _ in 0..FLOOR_REQUESTS {
                spans.next_op();
                let stats = get(&mut http, spans, "catalog.http_floor", "/stats".to_string());
                body(tally, &stats);
            }
        }
        Err(e) => {
            tally.check(false, || format!("/stats client: connect: {e}"));
        }
    }
    for s in &served.stores {
        let reader = match StoreReader::open(&s.path) {
            Ok(r) => r,
            Err(e) => {
                tally.check(false, || format!("{}: {e}", s.path.display()));
                continue;
            }
        };
        let w = &s.wide[0];
        let class = EventClass::TimerInterrupt;
        spans.next_op();
        let (events, chunks_decoded, chunks_total) = spans.time("catalog.slice_events", || {
            slice_events(&reader, Nanos(w.t0), Nanos(w.t1), None, Some(class))
        });
        tally.check(events.len() == w.count, || {
            format!(
                "{}: direct slice count {} vs {}",
                s.id,
                events.len(),
                w.count
            )
        });
        decoded += chunks_decoded;
        let response = SliceResponse {
            run: s.id.clone(),
            t0: w.t0,
            t1: w.t1,
            cpu: None,
            class: Some(class.name().to_string()),
            chunks_total,
            chunks_decoded,
            count: events.len(),
            events,
        };
        let json = spans.time("catalog.slice_json", || {
            serde_json::to_vec_pretty(&response)
        });
        tally.check(json.is_ok(), || format!("{}: slice JSON", s.id));
    }
    decoded
}

/// Traced `serve-cold` only: each store's report built once more on
/// this thread from the layers' calls, so the wait behind the service's
/// lock shows as the rest of the `/report` latency.
fn cold_builds(served: &Served, spans: &mut Spans, tally: &mut Tally) {
    for s in &served.stores {
        spans.next_op();
        spans.begin("catalog.cold_build");
        let built = serial_report(&s.path, spans);
        spans.end();
        match built {
            Ok(a) => {
                tally.same_bytes(&a.bytes, &s.report, &format!("{}: cold build", s.id));
            }
            Err(e) => {
                tally.check(false, || format!("{}: cold build: {e}", s.id));
            }
        }
    }
}

fn per_layer(kind: Kind, spans: &[Span], stores: usize) -> Vec<(&'static str, f64)> {
    let p = Profile::new(spans);
    let mut out = vec![(
        "catalog.scan_ms",
        p.total_ms("catalog.scan") / p.count("catalog.scan").max(1) as f64,
    )];
    match kind {
        Kind::Warm => {
            out.extend([
                ("catalog.runs_ms_p50", p.p50_ms("catalog.runs")),
                ("catalog.report_hit_ms_p50", p.p50_ms("catalog.report_hit")),
                ("catalog.histogram_ms_p50", p.p50_ms("catalog.histogram")),
                (
                    "catalog.slice_narrow_ms_p50",
                    p.p50_ms("catalog.slice_narrow"),
                ),
                ("catalog.slice_wide_ms_p50", p.p50_ms("catalog.slice_wide")),
                ("catalog.compare_ms_p50", p.p50_ms("catalog.compare")),
                ("catalog.http_floor_ms_p50", p.p50_ms("catalog.http_floor")),
                (
                    "catalog.slice_events_ms",
                    p.total_ms("catalog.slice_events") / stores as f64,
                ),
                (
                    "catalog.slice_json_ms",
                    p.total_ms("catalog.slice_json") / stores as f64,
                ),
            ]);
        }
        Kind::Cold => {
            let build = p.total_ms("catalog.cold_build") / stores as f64;
            out.extend([
                ("catalog.cold_build_ms", build),
                (
                    "catalog.report_wait_ms_p50",
                    p.p50_ms("serve.report") - build,
                ),
            ]);
            for (span, metric) in [
                ("store.open", "store.open_ms"),
                ("store.decode", "store.decode_ms"),
                ("analysis.pairing", "analysis.pairing_ms"),
                ("analysis.merge", "analysis.merge_ms"),
                ("analysis.timelines", "analysis.timelines_ms"),
                ("analysis.tasks", "analysis.tasks_ms"),
                ("core.report_build", "core.report_build_ms"),
                ("core.json", "core.json_ms"),
            ] {
                out.push((metric, p.self_ms_per_op(span, stores)));
            }
        }
    }
    out
}
