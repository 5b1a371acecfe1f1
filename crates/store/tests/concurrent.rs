//! Concurrent-reader property tests: a [`StoreReader`] is a shared
//! read-only handle, so N threads streaming, range-slicing, and
//! materializing the same store must each see exactly what a
//! sequential walk sees — including on a store that needed recovery
//! from a torn file — and the chunk residency gauge must stay within
//! the per-stream bound.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use osn_kernel::activity::Activity;
use osn_kernel::hooks::SwitchState;
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::time::Nanos;
use osn_store::writer::write_store;
use osn_store::{StoreOptions, StoreReader, FILE_HEADER_BYTES};
use osn_trace::{merge_streams, Event, EventKind, Trace};

fn scratch_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "osn-concurrent-{}-{}.osn",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn activity_strategy() -> impl Strategy<Value = Activity> {
    (1u16..=22).prop_map(|code| Activity::from_code(code).expect("valid code range"))
}

fn kind_strategy() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        activity_strategy().prop_map(EventKind::KernelEnter),
        activity_strategy().prop_map(EventKind::KernelExit),
        (any::<u32>(), 0u16..=5, any::<u32>()).prop_map(|(p, s, n)| EventKind::SchedSwitch {
            prev: Tid(p),
            prev_state: SwitchState::from_code(s).expect("valid state range"),
            next: Tid(n),
        }),
        (any::<u32>(), any::<u32>()).prop_map(|(t, w)| EventKind::Wakeup {
            tid: Tid(t),
            waker: Tid(w),
        }),
    ]
}

fn stream_strategy(cpu: u16) -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((0u64..5_000, any::<u32>(), kind_strategy()), 0..200).prop_map(
        move |raw| {
            let mut t = 0u64;
            raw.into_iter()
                .map(|(dt, tid, kind)| {
                    t += dt;
                    let ctx = match kind {
                        EventKind::Wakeup { waker, .. } => waker,
                        EventKind::SchedSwitch { prev, .. } => prev,
                        _ => Tid(tid),
                    };
                    Event {
                        t: Nanos(t),
                        cpu: CpuId(cpu),
                        tid: ctx,
                        kind,
                    }
                })
                .collect()
        },
    )
}

fn trace_strategy() -> impl Strategy<Value = Trace> {
    (
        1usize..=4,
        stream_strategy(0),
        stream_strategy(1),
        stream_strategy(2),
        stream_strategy(3),
        prop::collection::vec(any::<u64>(), 4),
    )
        .prop_map(|(ncpus, s0, s1, s2, s3, mut lost)| {
            let mut streams = vec![s0, s1, s2, s3];
            streams.truncate(ncpus);
            lost.truncate(ncpus);
            Trace::new(merge_streams(streams), lost)
        })
}

const THREADS: usize = 4;

/// One CPU's records through the column cursor: every chunk, or with
/// `range` only the index-seeded chunks, narrowed to `[lo, hi]` on the
/// timestamp column.
fn walk(reader: &StoreReader, cpu: u16, range: Option<(Nanos, Nanos)>) -> Vec<Event> {
    let mut cursor = match range {
        None => reader.column_chunks(CpuId(cpu)),
        Some((lo, hi)) => reader.column_chunks_range(CpuId(cpu), lo, hi),
    };
    let (lo, hi) = range.map_or((0, u64::MAX), |(lo, hi)| (lo.as_nanos(), hi.as_nanos()));
    let mut out = Vec::new();
    while let Some(block) = cursor.next_chunk() {
        let cols = block.expect("valid store");
        let start = cols.t.partition_point(|&t| t < lo);
        let end = cols.t.partition_point(|&t| t <= hi);
        out.extend((start..end).map(|i| cols.event(i)));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N threads hammering one shared reader — full streams, range
    /// slices, and full k-way-merged traces — all observe exactly the
    /// sequential reference, whether the store opened clean or was
    /// recovered from a torn file.
    #[test]
    fn concurrent_readers_match_sequential(
        trace in trace_strategy(),
        chunk_capacity in 1usize..=32,
        compress in any::<bool>(),
        lo_frac in 0.0f64..1.0,
        span_frac in 0.0f64..1.0,
        torn in any::<bool>(),
        cut_frac in 0.5f64..1.0,
    ) {
        let path = scratch_path();
        let opts = StoreOptions::default()
            .with_chunk_capacity(chunk_capacity)
            .with_compress(compress);
        write_store(&path, &trace, b"concurrent-meta", opts).expect("write");

        let reader = if torn {
            // A crash mid-write: keep the header plus an arbitrary
            // prefix of the rest. Whatever recovery salvages is the
            // ground truth the concurrent walks must agree on.
            let bytes = std::fs::read(&path).unwrap();
            let body = bytes.len() - FILE_HEADER_BYTES;
            let cut = FILE_HEADER_BYTES + (body as f64 * cut_frac) as usize;
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (reader, _report) = StoreReader::recover(&path).expect("recover");
            reader
        } else {
            StoreReader::open(&path).expect("open")
        };
        let reader = Arc::new(reader);
        let ncpus = reader.ncpus();

        // Sequential reference walks.
        let full: Vec<Vec<Event>> = (0..ncpus)
            .map(|c| walk(&reader, c as u16, None))
            .collect();
        let (t0, t1) = match reader.span() {
            Some((lo, hi)) => {
                let width = hi.as_nanos() - lo.as_nanos();
                let start = lo.as_nanos() + (width as f64 * lo_frac) as u64;
                let span = ((width as f64) * span_frac) as u64;
                (Nanos(start), Nanos(start.saturating_add(span).max(start)))
            }
            None => (Nanos(0), Nanos(0)),
        };
        let in_range = |e: &Event| e.t >= t0 && e.t <= t1;
        let sliced: Vec<Vec<Event>> = (0..ncpus)
            .map(|c| walk(&reader, c as u16, Some((t0, t1))))
            .collect();
        let merged = reader.read_trace().expect("read").events();

        // The index seek may only skip chunks, never events: a range
        // walk narrowed to [t0, t1] equals the filtered full walk.
        for c in 0..ncpus {
            let reference: Vec<Event> = full[c].iter().filter(|e| in_range(e)).copied().collect();
            prop_assert_eq!(&sliced[c], &reference, "cpu {} range seek lost events", c);
        }

        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let reader = Arc::clone(&reader);
                let full = &full;
                let sliced = &sliced;
                let merged = &merged;
                s.spawn(move || {
                    for c in 0..ncpus {
                        let stream = walk(&reader, c as u16, None);
                        assert_eq!(&stream, &full[c], "concurrent full stream diverged");
                        let slice = walk(&reader, c as u16, Some((t0, t1)));
                        assert_eq!(&slice, &sliced[c], "concurrent slice diverged");
                    }
                    let trace = reader.read_trace().expect("concurrent read_trace");
                    assert_eq!(&trace.events(), merged, "concurrent merge diverged");
                });
            }
        });

        // Every stream released its chunk; the high-water mark is
        // bounded by one resident chunk per concurrently live stream
        // (each thread's k-way merge holds one per CPU).
        let snap = reader.stats();
        prop_assert_eq!(snap.resident, 0);
        prop_assert!(
            snap.peak_resident <= (THREADS + 1) * ncpus.max(1),
            "peak residency {} exceeds {} streams",
            snap.peak_resident,
            (THREADS + 1) * ncpus.max(1)
        );
        prop_assert_eq!(snap.decode_errors, 0);
        let _ = std::fs::remove_file(&path);
    }
}

/// A range walk builds events only for records inside `[lo, hi]`,
/// even within the edge chunks the index seek has to decode.
#[test]
fn range_stream_yields_only_in_window_events() {
    let events: Vec<Event> = (0..100u64)
        .map(|i| Event {
            t: Nanos(10 * i),
            cpu: CpuId(0),
            tid: Tid(1),
            kind: EventKind::KernelEnter(Activity::TimerInterrupt),
        })
        .collect();
    let trace = Trace::new(events.clone(), vec![0]);
    let path = scratch_path();
    let opts = StoreOptions::default().with_chunk_capacity(16);
    write_store(&path, &trace, b"", opts).expect("write");
    let reader = StoreReader::open(&path).expect("open");

    let (lo, hi) = (Nanos(105), Nanos(405));
    let mut cursor = reader.column_chunks_range(CpuId(0), lo, hi);
    let mut seeded = 0;
    while let Some(block) = cursor.next_chunk() {
        block.expect("valid store");
        seeded += 1;
    }
    assert_eq!(seeded, 3, "edge chunks straddle the window");
    let got = walk(&reader, 0, Some((lo, hi)));
    let want: Vec<Event> = events
        .into_iter()
        .filter(|e| e.t >= lo && e.t <= hi)
        .collect();
    assert_eq!(got, want);
    let _ = std::fs::remove_file(&path);
}
