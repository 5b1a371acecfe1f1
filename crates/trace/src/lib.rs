//! `osn-trace`: the LTT NG-NOISE tracer.
//!
//! This crate is the simulator-side equivalent of the paper's extended
//! LTTng: it implements the kernel's instrumentation surface
//! ([`osn_kernel::hooks::Probe`]) with per-CPU lock-free ring buffers
//! and nanosecond timestamps. A session ends in one of two ways: drained
//! once into an in-memory [`Trace`] (per-CPU [`EventColumns`], merged
//! into global `(t, cpu)` order on demand), or spilled by a background consumer
//! thread to an [`EventSink`] while the run produces. The crate also
//! holds the record codec the chunked store writes ([`wire`]) and the
//! instrumentation-overhead experiment of §III-A.
//!
//! ```
//! use osn_kernel::prelude::*;
//! use osn_trace::session::TraceSession;
//!
//! let cfg = NodeConfig::default().with_horizon(Nanos::from_millis(30));
//! let mut node = Node::new(cfg);
//! node.spawn_job("demo", vec![Box::new(BusyLoop::new(Nanos::from_millis(20)))]);
//! let (session, mut tracer) = TraceSession::with_defaults(8);
//! let _result = node.run(&mut tracer);
//! let trace = session.stop();
//! assert!(trace.len() > 0);
//! assert_eq!(trace.total_lost(), 0);
//! ```

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod columns;
pub mod event;
pub mod merge;
pub mod overhead;
pub mod ringbuf;
pub mod session;
pub mod wire;

pub use columns::EventColumns;
pub use event::{Event, EventKind, Trace};
pub use merge::{merge_by_key, merge_streams};
pub use session::{EventMask, EventSink, SpillSession, TraceSession, Tracer};
