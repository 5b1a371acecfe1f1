//! `osn-catalog`: a concurrent trace catalog and HTTP query service
//! over directories of `.osn` stores.
//!
//! The paper's workflow ends at one analyst running one analysis over
//! one trace. This crate turns a directory tree of recorded runs into
//! a long-lived queryable archive:
//!
//! * [`catalog`] — scan a directory tree for `.osn` files and build a
//!   persistent index from their self-describing footers (app, seed,
//!   config hash, time span, per-class event summaries). Indexing a
//!   store costs one streamed analysis; the result is cached in
//!   `.osn-catalog.json` keyed by `(path, mtime, size)`, so restarts
//!   and rescans only pay for stores that actually changed.
//! * [`http`] — a hand-rolled HTTP/1.1 layer on `std::net` with a
//!   fixed worker-thread pool. No external dependencies: request
//!   parsing, keep-alive, and typed JSON errors are ~300 lines.
//! * [`service`] — the query endpoints (`/runs`, `/runs/{id}/report`,
//!   `/runs/{id}/slice`, `/runs/{id}/histogram`, `/compare`,
//!   `/runs/{id}/paraver`, `/stats`) wired to shared read-only
//!   [`osn_store::StoreReader`] handles and a bounded cache of
//!   analysis products. Every endpoint's JSON is byte-identical to
//!   the corresponding offline CLI/library path.
//! * [`client`] — a minimal blocking HTTP client (keep-alive GETs)
//!   used by the tests, the throughput bench, and the CI smoke.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod catalog;
pub mod client;
pub mod http;
pub mod service;

pub use catalog::{scan, Catalog, CatalogEntry, ClassSummary, ScanOutcome, SkippedStore};
pub use client::Client;
pub use http::{HttpServer, Request, Response};
pub use service::{
    slice_events, CompareResponse, HistogramResponse, RunsResponse, Service, ServiceConfig,
    SliceResponse, StatsResponse,
};
