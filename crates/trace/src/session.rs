//! Trace sessions: wiring the [`Probe`] instrumentation surface to
//! per-CPU lock-free ring buffers.
//!
//! A [`TraceSession`] owns one ring per CPU (LTTng's per-CPU buffer
//! architecture). The kernel side is a [`Tracer`], which implements
//! [`Probe`] and appends fixed-size records with no locking. A session
//! ends one of two ways: [`TraceSession::stop`] drains the rings once
//! into an in-memory columnar [`Trace`], or [`TraceSession::spill`]
//! hands them, with an [`EventSink`], to a background thread that
//! streams them into the sink while the run produces, mirroring
//! LTTng's consumer daemon, which drains the buffers and owns the
//! trace files it writes. [`SpillSession::stop`] hands the sink back.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use osn_kernel::activity::{Activity, SoftirqVec};
use osn_kernel::hooks::{Probe, SwitchState};
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::time::Nanos;

use crate::columns::EventColumns;
use crate::event::{Event, EventKind, Trace};
use crate::ringbuf::{ring, Consumer, Producer};

/// Which tracepoint families are enabled (LTTng channel/event enabling).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EventMask(pub u16);

impl EventMask {
    pub const KERNEL: EventMask = EventMask(1 << 0);
    pub const RAISE: EventMask = EventMask(1 << 1);
    pub const SCHED: EventMask = EventMask(1 << 2);
    pub const WAKEUP: EventMask = EventMask(1 << 3);
    pub const MIGRATE: EventMask = EventMask(1 << 4);
    pub const MARK: EventMask = EventMask(1 << 5);
    pub const TASK: EventMask = EventMask(1 << 6);

    /// Everything on — the paper's "collect all possible information".
    pub const ALL: EventMask = EventMask(0x7f);
    pub const NONE: EventMask = EventMask(0);

    #[inline]
    pub fn contains(self, other: EventMask) -> bool {
        self.0 & other.0 == other.0
    }

    #[must_use]
    pub fn with(self, other: EventMask) -> EventMask {
        EventMask(self.0 | other.0)
    }

    #[must_use]
    pub fn without(self, other: EventMask) -> EventMask {
        EventMask(self.0 & !other.0)
    }
}

impl Default for EventMask {
    fn default() -> Self {
        EventMask::ALL
    }
}

/// The producer side: implements [`Probe`] and writes into the per-CPU
/// rings. Hand `&mut Tracer` to [`osn_kernel::node::Node::run`].
pub struct Tracer {
    producers: Vec<Producer<Event>>,
    mask: EventMask,
}

impl Tracer {
    #[inline]
    fn emit(&mut self, cpu: CpuId, event: Event) {
        self.producers[cpu.index()].push(event);
    }

    /// Records lost across all CPUs so far.
    pub fn lost(&self) -> u64 {
        self.producers.iter().map(|p| p.lost()).sum()
    }
}

impl Probe for Tracer {
    #[inline]
    fn kernel_enter(&mut self, t: Nanos, cpu: CpuId, tid: Tid, activity: Activity) {
        if self.mask.contains(EventMask::KERNEL) {
            self.emit(
                cpu,
                Event {
                    t,
                    cpu,
                    tid,
                    kind: EventKind::KernelEnter(activity),
                },
            );
        }
    }

    #[inline]
    fn kernel_exit(&mut self, t: Nanos, cpu: CpuId, tid: Tid, activity: Activity) {
        if self.mask.contains(EventMask::KERNEL) {
            self.emit(
                cpu,
                Event {
                    t,
                    cpu,
                    tid,
                    kind: EventKind::KernelExit(activity),
                },
            );
        }
    }

    #[inline]
    fn softirq_raise(&mut self, t: Nanos, cpu: CpuId, vec: SoftirqVec) {
        if self.mask.contains(EventMask::RAISE) {
            self.emit(
                cpu,
                Event {
                    t,
                    cpu,
                    tid: Tid::IDLE,
                    kind: EventKind::SoftirqRaise(vec),
                },
            );
        }
    }

    #[inline]
    fn sched_switch(
        &mut self,
        t: Nanos,
        cpu: CpuId,
        prev: Tid,
        prev_state: SwitchState,
        next: Tid,
    ) {
        if self.mask.contains(EventMask::SCHED) {
            self.emit(
                cpu,
                Event {
                    t,
                    cpu,
                    tid: prev,
                    kind: EventKind::SchedSwitch {
                        prev,
                        prev_state,
                        next,
                    },
                },
            );
        }
    }

    #[inline]
    fn wakeup(&mut self, t: Nanos, cpu: CpuId, tid: Tid, waker: Tid) {
        if self.mask.contains(EventMask::WAKEUP) {
            self.emit(
                cpu,
                Event {
                    t,
                    cpu,
                    tid: waker,
                    kind: EventKind::Wakeup { tid, waker },
                },
            );
        }
    }

    #[inline]
    fn migrate(&mut self, t: Nanos, tid: Tid, from: CpuId, to: CpuId) {
        if self.mask.contains(EventMask::MIGRATE) {
            self.emit(
                from,
                Event {
                    t,
                    cpu: from,
                    tid,
                    kind: EventKind::Migrate { tid, from, to },
                },
            );
        }
    }

    #[inline]
    fn app_mark(&mut self, t: Nanos, cpu: CpuId, tid: Tid, mark: u32, value: u64) {
        if self.mask.contains(EventMask::MARK) {
            self.emit(
                cpu,
                Event {
                    t,
                    cpu,
                    tid,
                    kind: EventKind::AppMark { mark, value },
                },
            );
        }
    }

    #[inline]
    fn task_exit(&mut self, t: Nanos, cpu: CpuId, tid: Tid) {
        if self.mask.contains(EventMask::TASK) {
            self.emit(
                cpu,
                Event {
                    t,
                    cpu,
                    tid,
                    kind: EventKind::TaskExit { tid },
                },
            );
        }
    }
}

/// Destination for drained records when a session *spills* to disk
/// instead of accumulating in memory (LTTng's trace files; the
/// `osn-store` `StoreWriter` implements this). Batches for one CPU
/// arrive in ring order, which is that CPU's time order.
pub trait EventSink: Send {
    fn append(&mut self, cpu: CpuId, events: &[Event]) -> std::io::Result<()>;
}

/// How often the spill thread sweeps the rings when its last sweep
/// found them empty. The simulation produces events far faster than
/// wall time, so this is a ring-pressure knob, not a latency one.
const SPILL_POLL: Duration = Duration::from_micros(100);

/// The consumer/owner side of a tracing setup: one ring consumer per
/// CPU. End it with [`TraceSession::stop`] for an in-memory [`Trace`],
/// or hand it to [`TraceSession::spill`] to stream to a sink.
pub struct TraceSession {
    consumers: Vec<Consumer<Event>>,
}

impl TraceSession {
    /// Create a session with `per_cpu_capacity` record slots per CPU
    /// and the given tracepoint mask. Returns the session (consumer
    /// side) and the [`Tracer`] to pass to the simulator.
    pub fn new(ncpus: usize, per_cpu_capacity: usize, mask: EventMask) -> (TraceSession, Tracer) {
        let (producers, consumers) = (0..ncpus).map(|_| ring::<Event>(per_cpu_capacity)).unzip();
        (TraceSession { consumers }, Tracer { producers, mask })
    }

    /// Convenience: everything enabled, a generous buffer.
    pub fn with_defaults(ncpus: usize) -> (TraceSession, Tracer) {
        TraceSession::new(ncpus, 1 << 20, EventMask::ALL)
    }

    /// Route drained records to `sink` instead of accumulating them in
    /// memory: a background thread (LTTng's consumer daemon) takes the
    /// sink, drains every ring in bulk and appends each ring slice to
    /// it while the run is still producing — constant memory regardless
    /// of run length, and small rings survive long runs. When a sweep
    /// finds the rings empty the thread sleeps `SPILL_POLL` (100 µs).
    /// [`SpillSession::stop`] hands the sink back for its owner to
    /// finish.
    pub fn spill<S: EventSink + 'static>(self, mut sink: S) -> SpillSession<S> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let mut consumers = self.consumers;
        let handle = std::thread::spawn(move || {
            // First sink error is sticky: the rings keep draining (so
            // the producer never wedges against full rings) but nothing
            // more is written, and the error surfaces at stop.
            let mut status: std::io::Result<()> = Ok(());
            loop {
                // Read the flag before the sweep: once it is set, every
                // record published before `stop` is visible to this
                // sweep, so it is the last one needed.
                let stopping = stop2.load(Ordering::Acquire);
                let mut drained = 0;
                for (i, c) in consumers.iter_mut().enumerate() {
                    drained += c.drain(|records| {
                        if status.is_ok() {
                            status = sink.append(CpuId(i as u16), records);
                        }
                    });
                }
                if stopping {
                    break;
                }
                if drained == 0 {
                    std::thread::sleep(SPILL_POLL);
                }
            }
            status.map(|()| (sink, consumers.iter().map(|c| c.lost()).collect()))
        });
        SpillSession {
            stop,
            handle: Some(handle),
        }
    }

    /// Finish the session: drain each ring in bulk straight into its
    /// CPU's [`EventColumns`] and return the trace. Each ring holds
    /// its CPU's records in time order, so no merge or sort happens.
    pub fn stop(mut self) -> Trace {
        let columns = self
            .consumers
            .iter_mut()
            .enumerate()
            .map(|(c, ring)| {
                let mut cols = EventColumns::with_capacity(CpuId(c as u16), ring.len());
                ring.drain(|records| records.iter().for_each(|e| cols.push_event(e)));
                cols
            })
            .collect();
        let lost = self.consumers.iter().map(|c| c.lost()).collect();
        Trace::from_columns(columns, lost)
    }
}

/// What the spill thread hands back: the sink and the per-CPU loss
/// counters, or the first sink error.
type SpillResult<S> = std::io::Result<(S, Vec<u64>)>;

/// A session spilling to an [`EventSink`] on its background thread,
/// which owns the sink until [`SpillSession::stop`]. Dropping the
/// session without `stop` (as unwinding out of a run does) still stops
/// and joins the thread, which drops the sink after its last sweep.
pub struct SpillSession<S> {
    stop: Arc<AtomicBool>,
    /// Taken by `stop`; still present at drop only if `stop` never ran.
    handle: Option<JoinHandle<SpillResult<S>>>,
}

impl<S> SpillSession<S> {
    /// Finish the run: signal the spill thread, let it sweep the rings
    /// one final time into the sink, and return the sink with the
    /// per-CPU loss counters (or the first sink error). Finishing the
    /// sink — e.g. writing a store's footer with these counters — is
    /// the caller's.
    pub fn stop(mut self) -> SpillResult<S> {
        self.stop.store(true, Ordering::Release);
        let handle = self.handle.take().expect("stop runs once");
        handle.join().expect("spill thread panicked")
    }
}

impl<S> Drop for SpillSession<S> {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // A panicked spill thread is ignored here: this drop may be
            // part of an unwind, and a second panic would abort.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_operations() {
        let m = EventMask::KERNEL.with(EventMask::SCHED);
        assert!(m.contains(EventMask::KERNEL));
        assert!(m.contains(EventMask::SCHED));
        assert!(!m.contains(EventMask::WAKEUP));
        let m2 = m.without(EventMask::SCHED);
        assert!(!m2.contains(EventMask::SCHED));
        assert!(EventMask::ALL.contains(EventMask::MARK));
        assert!(!EventMask::NONE.contains(EventMask::KERNEL));
    }

    #[test]
    fn tracer_records_and_session_merges() {
        let (session, mut tracer) = TraceSession::new(2, 64, EventMask::ALL);
        tracer.kernel_enter(Nanos(5), CpuId(1), Tid(1), Activity::TimerInterrupt);
        tracer.kernel_enter(Nanos(3), CpuId(0), Tid(2), Activity::TimerInterrupt);
        tracer.kernel_exit(Nanos(9), CpuId(1), Tid(1), Activity::TimerInterrupt);
        tracer.kernel_exit(Nanos(7), CpuId(0), Tid(2), Activity::TimerInterrupt);
        let trace = session.stop();
        assert_eq!(trace.len(), 4);
        let ts: Vec<u64> = trace.events().iter().map(|e| e.t.as_nanos()).collect();
        assert_eq!(ts, vec![3, 5, 7, 9], "global time order");
        assert_eq!(trace.total_lost(), 0);
    }

    #[test]
    fn mask_filters_families() {
        let (session, mut tracer) = TraceSession::new(1, 64, EventMask::KERNEL);
        tracer.kernel_enter(Nanos(1), CpuId(0), Tid(1), Activity::TimerInterrupt);
        tracer.wakeup(Nanos(2), CpuId(0), Tid(2), Tid(1));
        tracer.app_mark(Nanos(3), CpuId(0), Tid(1), 1, 42);
        tracer.kernel_exit(Nanos(4), CpuId(0), Tid(1), Activity::TimerInterrupt);
        let trace = session.stop();
        assert_eq!(trace.len(), 2, "only KERNEL family recorded");
    }

    #[test]
    fn small_ring_counts_losses() {
        let (session, mut tracer) = TraceSession::new(1, 4, EventMask::ALL);
        for i in 0..10 {
            tracer.app_mark(Nanos(i), CpuId(0), Tid(1), 0, i);
        }
        assert!(tracer.lost() > 0);
        let trace = session.stop();
        assert_eq!(trace.len() as u64 + trace.total_lost(), 10);
    }

    /// Test sink: accumulates per-CPU records in memory, and counts
    /// the batches it was handed.
    struct VecSink {
        streams: Vec<Vec<Event>>,
        batches: usize,
    }

    impl VecSink {
        fn new(ncpus: usize) -> VecSink {
            VecSink {
                streams: vec![vec![]; ncpus],
                batches: 0,
            }
        }
    }

    impl EventSink for VecSink {
        fn append(&mut self, cpu: CpuId, events: &[Event]) -> std::io::Result<()> {
            self.streams[cpu.index()].extend_from_slice(events);
            self.batches += 1;
            Ok(())
        }
    }

    #[test]
    fn spill_routes_each_cpu_to_its_stream() {
        // Records published just before `stop` still reach the sink.
        let (session, mut tracer) = TraceSession::new(2, 64, EventMask::ALL);
        let spilling = session.spill(VecSink::new(2));
        tracer.app_mark(Nanos(1), CpuId(0), Tid(1), 0, 10);
        tracer.app_mark(Nanos(2), CpuId(1), Tid(2), 0, 20);
        tracer.app_mark(Nanos(3), CpuId(0), Tid(1), 0, 30);
        let (sink, lost) = spilling.stop().unwrap();
        assert_eq!(lost, vec![0, 0]);
        let streams = &sink.streams;
        assert_eq!(streams[0].len(), 2);
        assert_eq!(streams[1].len(), 1);
        assert!(streams[0].iter().all(|e| e.cpu == CpuId(0)));
        assert_eq!(streams[1][0].cpu, CpuId(1));
        assert!(streams[0].windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn stop_hands_back_the_sink_with_every_record_in_ring_order() {
        // 3 CPUs, 16-slot rings, 1000 records each, pushed in bursts
        // that fit a ring: the spill thread drains across the wrap
        // point many times, and the sink it hands back holds each
        // CPU's records exactly once, in push order.
        const N: u64 = 1000;
        let (session, mut tracer) = TraceSession::new(3, 16, EventMask::ALL);
        let spilling = session.spill(VecSink::new(3));
        for i in 0..N {
            for cpu in 0..3u16 {
                loop {
                    let before = tracer.lost();
                    tracer.app_mark(Nanos(i), CpuId(cpu), Tid(cpu as u32), 0, i);
                    if tracer.lost() == before {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        }
        let (sink, _lost) = spilling.stop().unwrap();
        for (cpu, stream) in sink.streams.iter().enumerate() {
            assert!(stream.iter().all(|e| e.cpu == CpuId(cpu as u16)));
            let values: Vec<u64> = stream
                .iter()
                .map(|e| match e.kind {
                    EventKind::AppMark { value, .. } => value,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(values, (0..N).collect::<Vec<_>>(), "cpu {cpu}");
        }
        // A ring slice holds at most 16 records, so every CPU's 1000
        // records took at least 63 appends.
        assert!(sink.batches >= 3 * 63, "one append per ring slice");
    }

    #[test]
    fn background_spill_keeps_small_rings_alive() {
        // Ring of 64 slots, 10_000 events: without the spill thread
        // most would be lost; with it, all arrive.
        let (session, mut tracer) = TraceSession::new(1, 64, EventMask::ALL);
        let spilling = session.spill(VecSink::new(1));
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                // Spin until accepted: the spill thread drains in
                // parallel.
                loop {
                    let before = tracer.lost();
                    tracer.app_mark(Nanos(i), CpuId(0), Tid(1), 0, i);
                    if tracer.lost() == before {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        });
        producer.join().unwrap();
        // (The spin-retry producer bumps the loss counter on every
        // rejected push, so only delivery is asserted here.)
        let (sink, _lost) = spilling.stop().unwrap();
        let streams = &sink.streams;
        assert_eq!(streams[0].len(), 10_000);
        assert!(streams[0].windows(2).all(|w| w[1].t.0 == w[0].t.0 + 1));
    }

    #[test]
    fn dropping_a_spill_session_stops_its_thread() {
        // The sink lives on the spill thread; it is dropped only when
        // that thread ends. Dropping the session without `stop` must
        // end it before the drop returns.
        struct FlagSink(Arc<AtomicBool>);
        impl EventSink for FlagSink {
            fn append(&mut self, _cpu: CpuId, _events: &[Event]) -> std::io::Result<()> {
                Ok(())
            }
        }
        impl Drop for FlagSink {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicBool::new(false));
        let (session, mut tracer) = TraceSession::new(1, 64, EventMask::ALL);
        let spilling = session.spill(FlagSink(Arc::clone(&dropped)));
        tracer.app_mark(Nanos(1), CpuId(0), Tid(1), 0, 1);
        drop(spilling);
        assert!(
            dropped.load(Ordering::SeqCst),
            "spill thread still holds the sink"
        );
    }

    #[test]
    fn spill_surfaces_sink_errors() {
        struct FailSink;
        impl EventSink for FailSink {
            fn append(&mut self, _cpu: CpuId, _events: &[Event]) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let (session, mut tracer) = TraceSession::new(1, 64, EventMask::ALL);
        let spilling = session.spill(FailSink);
        tracer.app_mark(Nanos(1), CpuId(0), Tid(1), 0, 1);
        assert!(spilling.stop().is_err());
    }
}
