//! The catalog query service: endpoint routing, shared read-only store
//! handles, and a bounded cache of per-run analysis products.
//!
//! Byte-identity contract — every endpoint's JSON equals the
//! corresponding offline library path, proven by the integration
//! tests:
//!
//! * `/runs/{id}/report` ≡ `serde_json::to_vec_pretty` of the
//!   [`PaperReport`] built by [`osn_core::recovered_report`] (what
//!   `osnoise analyze --json` writes);
//! * `/runs/{id}/slice` events ≡ a filtered [`StoreReader::column_chunks`]
//!   walk ([`slice_events`] is the shared implementation);
//! * `/runs/{id}/histogram` ≡ [`osn_analysis::class_histogram`];
//! * `/compare` ≡ [`NoiseSignature`] distance/drift of the two runs'
//!   signatures, built once with the run's other products;
//! * `/runs/{id}/paraver` ≡ [`osn_paraver::write_full_prv`].
//!
//! Bounded memory per endpoint:
//!
//! * slice cursors hold ≤ 1 decoded chunk per CPU at a time
//!   (the reader's [`osn_store::ChunkStatsSnapshot`] gauge proves it)
//!   and only chunks
//!   overlapping `[t0, t1)` are ever decoded (footer-index seek);
//! * report/histogram/compare serve from the products cache — at most
//!   `cache_runs` analyses resident, LRU-evicted; each run's products
//!   are built once outside the cache lock, so a cold build holds up
//!   only the requests for that run;
//! * paraver materializes one trace for the duration of the request
//!   (the one endpoint that is O(store) by nature; documented in
//!   DESIGN.md).

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use osn_analysis::{class_histogram, Drift, EventClass, EventStats, Histogram, NoiseSignature};
use osn_core::report::PaperReport;
use osn_core::{analyze_store, StoredRunMeta};
use osn_kernel::activity::Activity;
use osn_kernel::ids::CpuId;
use osn_kernel::time::Nanos;
use osn_store::{ChunkStatsSnapshot, StoreError, StoreReader};
use osn_trace::columns::code;
use osn_trace::{Event, EventColumns, EventKind};

use serde::{Deserialize, Serialize};

use crate::catalog::{self, Catalog, CatalogEntry, ScanOutcome, SkippedStore};
use crate::http::{Handler, HttpServer, Request, Response};

/// How a [`Service`] is configured.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Directory tree of `.osn` stores to serve.
    pub root: PathBuf,
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads (= max concurrent connections).
    pub threads: usize,
    /// Background rescan interval; `None` disables the thread (tests
    /// drive rescans deterministically via [`Service::scan_now`]).
    pub rescan: Option<Duration>,
    /// Max cached per-run analysis products (LRU).
    pub cache_runs: usize,
}

impl ServiceConfig {
    pub fn new(root: PathBuf) -> ServiceConfig {
        ServiceConfig {
            root,
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            rescan: Some(Duration::from_millis(500)),
            cache_runs: 4,
        }
    }
}

/// Everything derived from one store that report-shaped endpoints
/// need, built once and cached: the parsed footer meta, the streamed
/// analysis, the pretty report bytes, the ranks' noise signature, and
/// the shared reader handle.
struct RunProducts {
    meta: StoredRunMeta,
    analysis: osn_analysis::NoiseAnalysis,
    report_json: Arc<Vec<u8>>,
    signature: NoiseSignature,
    reader: Arc<StoreReader>,
}

/// One run's products slot: inserted under the map lock, filled once
/// outside it. Concurrent misses on one run wait on its slot; misses on
/// other runs and warm hits never wait on a build.
type ProductsSlot = Arc<OnceLock<Result<Arc<RunProducts>, Response>>>;

struct CachedProducts {
    mtime_ns: u64,
    bytes: u64,
    seq: u64,
    slot: ProductsSlot,
}

struct CachedReader {
    mtime_ns: u64,
    bytes: u64,
    seq: u64,
    reader: Arc<StoreReader>,
}

/// Slice queries share readers without paying for an analysis; cap is
/// generous because a reader is just a file handle + mmap + index.
const READER_CACHE: usize = 64;

const EP_RUNS: usize = 0;
const EP_REPORT: usize = 1;
const EP_SLICE: usize = 2;
const EP_HISTOGRAM: usize = 3;
const EP_COMPARE: usize = 4;
const EP_PARAVER: usize = 5;
const EP_STATS: usize = 6;
const EP_OTHER: usize = 7;
const ENDPOINT_NAMES: [&str; 8] = [
    "/runs",
    "/runs/{id}/report",
    "/runs/{id}/slice",
    "/runs/{id}/histogram",
    "/compare",
    "/runs/{id}/paraver",
    "/stats",
    "(other)",
];

#[derive(Default)]
struct Counter {
    requests: AtomicU64,
    errors: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

struct State {
    root: PathBuf,
    cache_runs: usize,
    catalog: RwLock<Catalog>,
    products: Mutex<HashMap<String, CachedProducts>>,
    readers: Mutex<HashMap<String, CachedReader>>,
    seq: AtomicU64,
    scans: AtomicU64,
    counters: [Counter; 8],
}

/// Lock `m`, recovering the guard if a handler panicked while holding
/// it: every critical section below leaves its map consistent (a single
/// insert, remove or retain), so a poisoned lock is still a valid one
/// and one panicking request must not turn every later one into a 500.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl State {
    /// The current catalog (see [`lock`] for the poison policy).
    fn catalog(&self) -> std::sync::RwLockReadGuard<'_, Catalog> {
        self.catalog.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn bump(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn record(&self, endpoint: usize, status: u16, elapsed: Duration) {
        let c = &self.counters[endpoint];
        c.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        let us = elapsed.as_micros() as u64;
        c.total_us.fetch_add(us, Ordering::Relaxed);
        c.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Re-scan the root and swap the catalog in, purging cached
    /// readers/products whose store changed or vanished.
    fn rescan(&self) -> io::Result<ScanOutcome> {
        let prev = self.catalog().clone();
        let (next, outcome) = catalog::scan(&self.root, &prev)?;
        let mut cat = self.catalog.write().unwrap_or_else(PoisonError::into_inner);
        let fresh = |id: &str, mtime_ns: u64, bytes: u64| {
            next.entries
                .iter()
                .any(|e| e.id == id && e.mtime_ns == mtime_ns && e.bytes == bytes)
        };
        lock(&self.products).retain(|id, c| fresh(id, c.mtime_ns, c.bytes));
        lock(&self.readers).retain(|id, c| fresh(id, c.mtime_ns, c.bytes));
        *cat = next;
        self.scans.fetch_add(1, Ordering::Relaxed);
        Ok(outcome)
    }
}

/// `/runs` response.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunsResponse {
    pub count: usize,
    pub runs: Vec<CatalogEntry>,
    /// Files present in the tree but not indexable, with why.
    pub skipped: Vec<SkippedStore>,
}

/// `/runs/{id}/slice` response.
#[derive(Clone, Debug, Serialize)]
pub struct SliceResponse {
    pub run: String,
    pub t0: u64,
    pub t1: u64,
    pub cpu: Option<u16>,
    pub class: Option<String>,
    /// Chunks in the store for the selected CPUs (all of them).
    pub chunks_total: usize,
    /// Chunks actually decoded: only those overlapping `[t0, t1)`.
    pub chunks_decoded: usize,
    pub count: usize,
    pub events: Vec<Event>,
}

/// `/runs/{id}/histogram` response.
#[derive(Clone, Debug, Serialize)]
pub struct HistogramResponse {
    pub run: String,
    pub class: String,
    pub bins: usize,
    pub pct: f64,
    pub stats: EventStats,
    pub histogram: Histogram,
}

/// `/compare` response: `a` compared against baseline `b`.
#[derive(Clone, Debug, Serialize)]
pub struct CompareResponse {
    pub a: String,
    pub b: String,
    pub same_config: bool,
    pub distance: f64,
    pub threshold: f64,
    pub a_total_ns: u64,
    pub b_total_ns: u64,
    pub drift: Vec<Drift>,
    pub a_signature: NoiseSignature,
    pub b_signature: NoiseSignature,
}

/// `/stats` response.
#[derive(Clone, Debug, Serialize)]
pub struct StatsResponse {
    pub runs: usize,
    pub skipped: usize,
    pub scans: u64,
    pub endpoints: Vec<EndpointStat>,
}

/// Per-endpoint request accounting.
#[derive(Clone, Debug, Serialize)]
pub struct EndpointStat {
    pub endpoint: String,
    pub requests: u64,
    pub errors: u64,
    pub total_us: u64,
    pub max_us: u64,
    pub mean_us: f64,
}

/// The running service: HTTP workers + optional rescan thread.
pub struct Service {
    http: Option<HttpServer>,
    state: Arc<State>,
    stop: Arc<AtomicBool>,
    rescan: Option<JoinHandle<()>>,
}

impl Service {
    /// Scan the root (reusing any persisted index), bind, and serve.
    pub fn start(config: ServiceConfig) -> io::Result<Service> {
        let prev = Catalog::load(&config.root);
        let (initial, _outcome) = catalog::scan(&config.root, &prev)?;
        let state = Arc::new(State {
            root: config.root,
            cache_runs: config.cache_runs.max(1),
            catalog: RwLock::new(initial),
            products: Mutex::new(HashMap::new()),
            readers: Mutex::new(HashMap::new()),
            seq: AtomicU64::new(0),
            scans: AtomicU64::new(1),
            counters: Default::default(),
        });

        let handler_state = Arc::clone(&state);
        let handler: Handler = Arc::new(move |req: &Request| {
            let start = Instant::now();
            let (endpoint, response) = route(&handler_state, req);
            handler_state.record(endpoint, response.status, start.elapsed());
            response
        });
        let http = HttpServer::bind(&config.addr, config.threads, handler)?;

        let stop = Arc::new(AtomicBool::new(false));
        let rescan = config.rescan.map(|interval| {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("osn-catalog-scan".to_string())
                .spawn(move || {
                    let step = Duration::from_millis(50);
                    'outer: loop {
                        let mut waited = Duration::ZERO;
                        while waited < interval {
                            if stop.load(Ordering::SeqCst) {
                                break 'outer;
                            }
                            std::thread::sleep(step.min(interval - waited));
                            waited += step;
                        }
                        let _ = state.rescan();
                    }
                })
                .expect("spawn rescan thread")
        });

        Ok(Service {
            http: Some(http),
            state,
            stop,
            rescan,
        })
    }

    /// Bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.http.as_ref().expect("server running").addr()
    }

    /// Indexed runs right now.
    pub fn runs(&self) -> usize {
        self.state.catalog().entries.len()
    }

    /// Unindexable files right now.
    pub fn skipped(&self) -> usize {
        self.state.catalog().skipped.len()
    }

    /// Synchronous rescan — lets tests drive store appearance and
    /// disappearance deterministically.
    pub fn scan_now(&self) -> io::Result<ScanOutcome> {
        self.state.rescan()
    }

    /// Chunk accounting of the shared reader for `id`, if one is open:
    /// the residency gauge the bounded-memory tests assert on.
    pub fn store_stats(&self, id: &str) -> Option<ChunkStatsSnapshot> {
        lock(&self.state.readers).get(id).map(|c| c.reader.stats())
    }

    /// Serve until shut down from another thread (never, in the CLI).
    pub fn join(mut self) {
        if let Some(http) = self.http.take() {
            http.join();
        }
    }

    /// Stop workers and the rescan thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.rescan.take() {
            let _ = t.join();
        }
        if let Some(http) = self.http.take() {
            http.shutdown();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.rescan.take() {
            let _ = t.join();
        }
        if let Some(http) = self.http.take() {
            http.shutdown();
        }
    }
}

// ---- routing ---------------------------------------------------------

fn route(state: &State, req: &Request) -> (usize, Response) {
    if req.method != "GET" {
        return (EP_OTHER, Response::error(405, "only GET is supported"));
    }
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["runs"] => (EP_RUNS, handle_runs(state, req)),
        ["runs", id, "report"] => (EP_REPORT, unwrap(handle_report(state, id))),
        ["runs", id, "slice"] => (EP_SLICE, unwrap(handle_slice(state, id, req))),
        ["runs", id, "histogram"] => (EP_HISTOGRAM, unwrap(handle_histogram(state, id, req))),
        ["runs", id, "paraver"] => (EP_PARAVER, unwrap(handle_paraver(state, id))),
        ["compare"] => (EP_COMPARE, unwrap(handle_compare(state, req))),
        ["stats"] => (EP_STATS, handle_stats(state)),
        _ => (EP_OTHER, Response::error(404, "no such endpoint")),
    }
}

fn unwrap(r: Result<Response, Response>) -> Response {
    r.unwrap_or_else(|e| e)
}

fn json_pretty<T: Serialize>(value: &T) -> Response {
    match serde_json::to_vec_pretty(value) {
        Ok(bytes) => Response::json(bytes),
        Err(e) => Response::error(500, &format!("serialization failed: {e}")),
    }
}

fn entry_for(state: &State, id: &str) -> Result<CatalogEntry, Response> {
    state
        .catalog()
        .get(id)
        .cloned()
        .ok_or_else(|| Response::error(404, &format!("unknown run id {id:?}")))
}

/// Shared read-only handle for `entry`'s store, cached per run id and
/// invalidated on mtime/size change. A store deleted since the last
/// scan answers `410 Gone` (the catalog entry outlives the file until
/// the next rescan).
fn reader_for(state: &State, entry: &CatalogEntry) -> Result<Arc<StoreReader>, Response> {
    let mut readers = lock(&state.readers);
    if let Some(cached) = readers.get_mut(&entry.id) {
        if cached.mtime_ns == entry.mtime_ns && cached.bytes == entry.bytes {
            cached.seq = state.bump();
            return Ok(Arc::clone(&cached.reader));
        }
        readers.remove(&entry.id);
    }
    let path = state.root.join(&entry.path);
    let reader = match StoreReader::recover(&path) {
        Ok((reader, _recovery)) => Arc::new(reader),
        Err(StoreError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
            return Err(Response::error(
                410,
                &format!("store for run {:?} vanished from disk", entry.id),
            ));
        }
        Err(e) => {
            return Err(Response::error(
                500,
                &format!("cannot open store for run {:?}: {e}", entry.id),
            ));
        }
    };
    while readers.len() >= READER_CACHE {
        let Some(oldest) = readers
            .iter()
            .min_by_key(|(_, c)| c.seq)
            .map(|(id, _)| id.clone())
        else {
            break;
        };
        readers.remove(&oldest);
    }
    readers.insert(
        entry.id.clone(),
        CachedReader {
            mtime_ns: entry.mtime_ns,
            bytes: entry.bytes,
            seq: state.bump(),
            reader: Arc::clone(&reader),
        },
    );
    Ok(reader)
}

/// Cached analysis products for `entry`, built on first use with the
/// exact pipeline `osnoise analyze` runs (recover → parse footer →
/// streamed analysis → `PaperReport` pretty JSON), so the cached
/// report bytes are identical to the offline CLI's. A failed build is
/// not cached: its slot is dropped and the next request retries.
fn products_for(state: &State, entry: &CatalogEntry) -> Result<Arc<RunProducts>, Response> {
    let slot = products_slot(state, entry);
    let built = slot.get_or_init(|| build_products(state, entry));
    if built.is_err() {
        let mut products = lock(&state.products);
        if products
            .get(&entry.id)
            .is_some_and(|c| Arc::ptr_eq(&c.slot, &slot))
        {
            products.remove(&entry.id);
        }
    }
    built.clone()
}

/// The products slot for `entry`: the cached one if the store is
/// unchanged, else a fresh empty slot inserted in its place (evicting
/// the least recently used runs past `cache_runs`). Holds the map lock
/// only for this lookup, never across a build.
fn products_slot(state: &State, entry: &CatalogEntry) -> ProductsSlot {
    let mut products = lock(&state.products);
    if let Some(cached) = products.get_mut(&entry.id) {
        if cached.mtime_ns == entry.mtime_ns && cached.bytes == entry.bytes {
            cached.seq = state.bump();
            return Arc::clone(&cached.slot);
        }
        products.remove(&entry.id);
    }
    while products.len() >= state.cache_runs {
        let Some(oldest) = products
            .iter()
            .min_by_key(|(_, c)| c.seq)
            .map(|(id, _)| id.clone())
        else {
            break;
        };
        products.remove(&oldest);
    }
    let slot = ProductsSlot::default();
    products.insert(
        entry.id.clone(),
        CachedProducts {
            mtime_ns: entry.mtime_ns,
            bytes: entry.bytes,
            seq: state.bump(),
            slot: Arc::clone(&slot),
        },
    );
    slot
}

fn build_products(state: &State, entry: &CatalogEntry) -> Result<Arc<RunProducts>, Response> {
    let reader = reader_for(state, entry)?;
    let (meta, analysis) = analyze_store(&reader)
        .map_err(|e| Response::error(500, &format!("analysis failed for {:?}: {e}", entry.id)))?;
    let report = osn_core::report::AppReport::from_analysis(
        meta.config.app,
        &meta.ranks,
        meta.config.node.net_irq_cpu,
        &analysis,
    );
    let paper = PaperReport { apps: vec![report] };
    let report_json = serde_json::to_vec_pretty(&paper)
        .map_err(|e| Response::error(500, &format!("serialization failed: {e}")))?;
    let signature = NoiseSignature::build(&analysis, &meta.ranks);
    Ok(Arc::new(RunProducts {
        meta,
        analysis,
        report_json: Arc::new(report_json),
        signature,
        reader,
    }))
}

// ---- endpoints -------------------------------------------------------

fn handle_runs(state: &State, req: &Request) -> Response {
    let catalog = state.catalog();
    let mut runs: Vec<CatalogEntry> = catalog.entries.clone();
    let skipped = catalog.skipped.clone();
    drop(catalog);
    if let Some(app) = req.param("app") {
        runs.retain(|e| e.app == app);
    }
    if let Some(seed) = req.param("seed") {
        let Ok(seed) = seed.parse::<u64>() else {
            return Response::error(400, "parameter seed must be an unsigned integer");
        };
        runs.retain(|e| e.seed == seed);
    }
    if let Some(ncpus) = req.param("ncpus") {
        let Ok(ncpus) = ncpus.parse::<usize>() else {
            return Response::error(400, "parameter ncpus must be an unsigned integer");
        };
        runs.retain(|e| e.ncpus == ncpus);
    }
    if let Some(hash) = req.param("config_hash") {
        runs.retain(|e| e.config_hash == hash);
    }
    if let Some(recovered) = req.param("recovered") {
        let Ok(want) = recovered.parse::<bool>() else {
            return Response::error(400, "parameter recovered must be true or false");
        };
        runs.retain(|e| e.recovered == want);
    }
    json_pretty(&RunsResponse {
        count: runs.len(),
        runs,
        skipped,
    })
}

fn handle_report(state: &State, id: &str) -> Result<Response, Response> {
    let entry = entry_for(state, id)?;
    let products = products_for(state, &entry)?;
    Ok(Response::json(products.report_json.as_ref().clone()))
}

/// True when `e` belongs to `class` for slicing purposes: the kernel
/// enter/exit records of a matching activity.
pub fn event_matches_class(e: &Event, class: EventClass) -> bool {
    match e.kind {
        EventKind::KernelEnter(a) | EventKind::KernelExit(a) => class.matches(a),
        _ => false,
    }
}

/// [`event_matches_class`] for record `i` of a decoded block, read off
/// its `code` and `a` columns without building the [`Event`].
fn record_matches_class(cols: &EventColumns, i: usize, class: EventClass) -> bool {
    matches!(cols.code[i], code::ENTER | code::EXIT)
        && Activity::from_code(cols.a[i] as u16).is_some_and(|a| class.matches(a))
}

/// The slice query's library path, shared verbatim by the endpoint:
/// for each selected CPU, walk a column cursor seeded with only the
/// chunks overlapping `[t0, t1)` (footer-index binary search — skipped
/// chunks are never read), narrow each block to `[t0, t1)` with two
/// binary searches on its timestamp column, filter those records by
/// class on the `code`/`a` columns, build `Event`s for the matches
/// only, and k-way merge to global `(t, cpu)` order. Returns
/// `(events, chunks_decoded, chunks_total)`.
pub fn slice_events(
    reader: &StoreReader,
    t0: Nanos,
    t1: Nanos,
    cpu: Option<CpuId>,
    class: Option<EventClass>,
) -> (Vec<Event>, usize, usize) {
    let cpus: Vec<CpuId> = match cpu {
        Some(c) => vec![c],
        None => (0..reader.ncpus() as u16).map(CpuId).collect(),
    };
    let mut chunks_total = 0;
    let mut chunks_decoded = 0;
    let mut streams: Vec<Vec<Event>> = Vec::with_capacity(cpus.len());
    for c in &cpus {
        chunks_total += reader.chunks_for(*c, None).count();
        let mut stream = Vec::new();
        if t1 > t0 {
            let mut cursor = reader.column_chunks_range(*c, t0, Nanos(t1.as_nanos() - 1));
            // A corrupt chunk ends the walk; the caller sees it in
            // `decode_errors`.
            while let Some(Ok(cols)) = cursor.next_chunk() {
                chunks_decoded += 1;
                let lo = cols.t.partition_point(|&t| t < t0.as_nanos());
                let hi = cols.t.partition_point(|&t| t < t1.as_nanos());
                stream.extend(
                    (lo..hi)
                        .filter(|&i| class.is_none_or(|cl| record_matches_class(cols, i, cl)))
                        .map(|i| cols.event(i)),
                );
            }
        }
        streams.push(stream);
    }
    (
        osn_trace::merge_streams(streams),
        chunks_decoded,
        chunks_total,
    )
}

fn parse_class(name: &str) -> Result<EventClass, Response> {
    EventClass::ALL
        .into_iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| {
            let valid: Vec<&str> = EventClass::ALL.iter().map(|c| c.name()).collect();
            Response::error(
                400,
                &format!("unknown class {name:?} (one of: {})", valid.join(", ")),
            )
        })
}

fn parse_u64_param(req: &Request, name: &str, default: u64) -> Result<u64, Response> {
    match req.param(name) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| {
            Response::error(
                400,
                &format!("parameter {name} must be an unsigned integer"),
            )
        }),
    }
}

fn handle_slice(state: &State, id: &str, req: &Request) -> Result<Response, Response> {
    let entry = entry_for(state, id)?;
    let reader = reader_for(state, &entry)?;
    let t0 = parse_u64_param(req, "t0", entry.span_start_ns)?;
    let t1 = parse_u64_param(req, "t1", entry.span_end_ns.saturating_add(1))?;
    let cpu = match req.param("cpu") {
        None => None,
        Some(s) => {
            let c: u16 = s
                .parse()
                .map_err(|_| Response::error(400, "parameter cpu must be an unsigned integer"))?;
            if (c as usize) >= reader.ncpus() {
                return Err(Response::error(
                    400,
                    &format!("cpu {c} out of range (store has {})", reader.ncpus()),
                ));
            }
            Some(c)
        }
    };
    let class = match req.param("class") {
        None => None,
        Some(name) => Some(parse_class(name)?),
    };
    let errors_before = reader.stats().decode_errors;
    let (events, chunks_decoded, chunks_total) =
        slice_events(&reader, Nanos(t0), Nanos(t1), cpu.map(CpuId), class);
    if reader.stats().decode_errors > errors_before {
        return Err(Response::error(
            500,
            &format!("chunk decode failed while slicing run {id:?}"),
        ));
    }
    Ok(json_pretty(&SliceResponse {
        run: entry.id,
        t0,
        t1,
        cpu,
        class: class.map(|c| c.name().to_string()),
        chunks_total,
        chunks_decoded,
        count: events.len(),
        events,
    }))
}

fn handle_histogram(state: &State, id: &str, req: &Request) -> Result<Response, Response> {
    let entry = entry_for(state, id)?;
    let class_name = req.param("class").ok_or_else(|| {
        let valid: Vec<&str> = EventClass::ALL.iter().map(|c| c.name()).collect();
        Response::error(
            400,
            &format!("parameter class is required (one of: {})", valid.join(", ")),
        )
    })?;
    let class = parse_class(class_name)?;
    let bins = parse_u64_param(req, "bins", 40)? as usize;
    if bins == 0 || bins > 4096 {
        return Err(Response::error(400, "bins must be between 1 and 4096"));
    }
    let pct = match req.param("pct") {
        None => 99.0,
        Some(s) => {
            let p: f64 = s
                .parse()
                .map_err(|_| Response::error(400, "parameter pct must be a number"))?;
            if !(0.0..=100.0).contains(&p) {
                return Err(Response::error(400, "pct must be between 0 and 100"));
            }
            p
        }
    };
    let products = products_for(state, &entry)?;
    let (stats, histogram) =
        class_histogram(&products.analysis, &products.meta.ranks, class, bins, pct);
    Ok(json_pretty(&HistogramResponse {
        run: entry.id,
        class: class.name().to_string(),
        bins,
        pct,
        stats,
        histogram,
    }))
}

fn handle_compare(state: &State, req: &Request) -> Result<Response, Response> {
    let a_id = req
        .param("a")
        .ok_or_else(|| Response::error(400, "parameters a and b are required"))?;
    let b_id = req
        .param("b")
        .ok_or_else(|| Response::error(400, "parameters a and b are required"))?;
    let threshold = match req.param("threshold") {
        None => 0.5,
        Some(s) => s
            .parse()
            .map_err(|_| Response::error(400, "parameter threshold must be a number"))?,
    };
    let a_entry = entry_for(state, a_id)?;
    let b_entry = entry_for(state, b_id)?;
    let a = products_for(state, &a_entry)?;
    let b = products_for(state, &b_entry)?;
    let (a_sig, b_sig) = (&a.signature, &b.signature);
    Ok(json_pretty(&CompareResponse {
        a: a_entry.id.clone(),
        b: b_entry.id.clone(),
        same_config: a_entry.config_hash == b_entry.config_hash,
        distance: a_sig.distance(b_sig),
        threshold,
        a_total_ns: a_sig.total_noise.as_nanos(),
        b_total_ns: b_sig.total_noise.as_nanos(),
        drift: a_sig.drift(b_sig, threshold),
        a_signature: a_sig.clone(),
        b_signature: b_sig.clone(),
    }))
}

fn handle_paraver(state: &State, id: &str) -> Result<Response, Response> {
    let entry = entry_for(state, id)?;
    let products = products_for(state, &entry)?;
    let trace = products
        .reader
        .read_trace()
        .map_err(|e| Response::error(500, &format!("cannot materialize trace: {e}")))?;
    let prv = osn_paraver::write_full_prv(
        &trace,
        &products.analysis.instances,
        &products.meta.result.tasks,
        products.meta.result.end_time,
    );
    Ok(Response::text(prv))
}

fn handle_stats(state: &State) -> Response {
    let catalog = state.catalog();
    let runs = catalog.entries.len();
    let skipped = catalog.skipped.len();
    drop(catalog);
    let endpoints = ENDPOINT_NAMES
        .iter()
        .zip(&state.counters)
        .map(|(name, c)| {
            let requests = c.requests.load(Ordering::Relaxed);
            let total_us = c.total_us.load(Ordering::Relaxed);
            EndpointStat {
                endpoint: name.to_string(),
                requests,
                errors: c.errors.load(Ordering::Relaxed),
                total_us,
                max_us: c.max_us.load(Ordering::Relaxed),
                mean_us: if requests == 0 {
                    0.0
                } else {
                    total_us as f64 / requests as f64
                },
            }
        })
        .collect();
    json_pretty(&StatsResponse {
        runs,
        skipped,
        scans: state.scans.load(Ordering::Relaxed),
        endpoints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use osn_core::{record_app, ExperimentConfig};
    use osn_workloads::App;

    /// A handler that panics while holding the shared locks must not
    /// wedge the daemon: later requests recover the guards and answer
    /// with the same bytes as the offline path.
    #[test]
    fn poisoned_locks_still_serve_reports() {
        let dir = std::env::temp_dir().join(format!("osn-catalog-poison-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sphot.osn");
        let mut config = ExperimentConfig::paper(App::Sphot, Nanos::from_millis(100)).with_seed(5);
        config.node.cpus = 2;
        config.nranks = 2;
        record_app(config, &path, osn_core::store::Options::default()).unwrap();

        let mut service_config = ServiceConfig::new(dir.clone());
        service_config.rescan = None;
        let service = Service::start(service_config).unwrap();
        let id = service.state.catalog().entries[0].id.clone();

        let state = Arc::clone(&service.state);
        let panicked = std::thread::spawn(move || {
            let _catalog = state.catalog.write().unwrap();
            let _products = state.products.lock().unwrap();
            let _readers = state.readers.lock().unwrap();
            panic!("handler panic while holding the shared locks");
        })
        .join();
        assert!(panicked.is_err());
        assert!(service.state.products.is_poisoned());
        assert!(service.state.readers.is_poisoned());
        assert!(service.state.catalog.is_poisoned());

        let (report, _meta, _recovery) = osn_core::recovered_report(&path).unwrap();
        let offline = serde_json::to_vec_pretty(&PaperReport { apps: vec![report] }).unwrap();
        let mut client = Client::connect(service.addr()).unwrap();
        let (status, body) = client.get(&format!("/runs/{id}/report")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, offline);
        assert_eq!(client.get("/runs").unwrap().0, 200);
        assert_eq!(client.get(&format!("/runs/{id}/slice")).unwrap().0, 200);

        service.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Products are built outside the map lock: a cold build in flight
    /// holds up neither a warm query of another run nor the map, and N
    /// simultaneous cold misses on one run analyze it once and all
    /// answer the offline bytes.
    #[test]
    fn cold_builds_run_outside_the_cache_lock() {
        const N: usize = 6;
        let dir = std::env::temp_dir().join(format!("osn-catalog-cold-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for (name, seed) in [("warm", 5), ("held", 6), ("cold", 7)] {
            let path = dir.join(format!("{name}.osn"));
            let mut config =
                ExperimentConfig::paper(App::Sphot, Nanos::from_millis(100)).with_seed(seed);
            config.node.cpus = 2;
            config.nranks = 2;
            record_app(config, &path, osn_core::store::Options::default()).unwrap();
            paths.push(path);
        }

        let mut service_config = ServiceConfig::new(dir.clone());
        service_config.rescan = None;
        service_config.threads = N;
        let service = Service::start(service_config).unwrap();
        let state = &service.state;
        let entry = |name: &str| {
            state
                .catalog()
                .entries
                .iter()
                .find(|e| e.path.contains(name))
                .unwrap()
                .clone()
        };
        let (warm, held, cold) = (entry("warm"), entry("held"), entry("cold"));
        let warm_products = products_for(state, &warm).unwrap();

        // Hold `held`'s build open, then query the warm run meanwhile.
        let slot = products_slot(state, &held);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (slot, held) = (&slot, &held);
        std::thread::scope(|s| {
            let building = s.spawn(move || {
                slot.get_or_init(|| {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    build_products(state, held)
                })
                .is_ok()
            });
            started_rx.recv().unwrap();
            // Release the build before asserting, so a failure cannot
            // leave the builder blocked.
            let again = products_for(state, &warm);
            let cached = lock(&state.products).len();
            release_tx.send(()).unwrap();
            assert!(building.join().unwrap());
            assert!(
                Arc::ptr_eq(&again.unwrap(), &warm_products),
                "warm hit rebuilt"
            );
            assert_eq!(cached, 2, "map lock is free");
        });
        let built = slot.get().unwrap().as_ref().unwrap();
        assert!(Arc::ptr_eq(&products_for(state, held).unwrap(), built));

        // N clients miss the same cold run at once. One analysis decodes
        // a fixed number of chunks, so the shared reader's count shows
        // how many ran.
        let (reader, _recovery) = StoreReader::recover(&paths[2]).unwrap();
        analyze_store(&reader).unwrap();
        let one_analysis = reader.stats().decoded;
        assert!(one_analysis > 0);
        let (report, _meta, _recovery) = osn_core::recovered_report(&paths[2]).unwrap();
        let offline = serde_json::to_vec_pretty(&PaperReport { apps: vec![report] }).unwrap();
        let barrier = std::sync::Barrier::new(N);
        let addr = service.addr();
        std::thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    let mut client = Client::connect(addr).unwrap();
                    barrier.wait();
                    let (status, body) = client.get(&format!("/runs/{}/report", cold.id)).unwrap();
                    assert_eq!(status, 200);
                    assert_eq!(body, offline);
                });
            }
        });
        assert_eq!(
            service.store_stats(&cold.id).unwrap().decoded,
            one_analysis,
            "cold run analyzed once"
        );

        service.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
