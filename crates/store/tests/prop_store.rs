//! Property tests for the chunked store: lossless round-trips for
//! arbitrary valid traces across chunk sizes and codecs, file bytes
//! that do not depend on how appends are batched, recovery
//! equivalence when only the footer is missing, and readers that end
//! in a typed error, never a panic, on arbitrary or corrupted bytes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use osn_kernel::activity::{Activity, SoftirqVec};
use osn_kernel::hooks::SwitchState;
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::time::Nanos;
use osn_store::writer::write_store;
use osn_store::{StoreOptions, StoreReader, StoreWriter, TRAILER_BYTES};
use osn_trace::{merge_streams, Event, EventKind, Trace};

fn scratch_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "osn-prop-store-{}-{}.osn",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn activity_strategy() -> impl Strategy<Value = Activity> {
    (1u16..=22).prop_map(|code| Activity::from_code(code).expect("valid code range"))
}

fn softirq_strategy() -> impl Strategy<Value = EventKind> {
    any::<prop::sample::Index>()
        .prop_map(|i| EventKind::SoftirqRaise(SoftirqVec::ALL[i.index(SoftirqVec::ALL.len())]))
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
        (any::<u32>(), any::<u16>(), any::<u16>()).prop_map(|(t, f, o)| EventKind::Migrate {
            tid: Tid(t),
            from: CpuId(f),
            to: CpuId(o),
        }),
        (any::<u32>(), any::<u64>()).prop_map(|(m, v)| EventKind::AppMark { mark: m, value: v }),
        any::<u32>().prop_map(|t| EventKind::TaskExit { tid: Tid(t) }),
        softirq_strategy(),
    ]
}

/// One CPU's stream: time-ordered events all carrying that CPU id
/// (stores are per-CPU, so the chunk reassigns the id on decode).
fn stream_strategy(cpu: u16) -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((0u64..5_000, any::<u32>(), kind_strategy()), 0..300).prop_map(
        move |raw| {
            let mut t = 0u64;
            raw.into_iter()
                .map(|(dt, tid, kind)| {
                    t += dt;
                    let ctx = match kind {
                        EventKind::Wakeup { waker, .. } => waker,
                        EventKind::SchedSwitch { prev, .. } => prev,
                        EventKind::Migrate { tid, .. } | EventKind::TaskExit { tid } => tid,
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

/// One CPU's records of `trace`, in stream order.
fn cpu_stream(trace: &Trace, c: usize) -> Vec<Event> {
    trace
        .events()
        .iter()
        .filter(|e| e.cpu.index() == c)
        .copied()
        .collect()
}

/// `stream` repeated `times` times, each copy shifted past the last
/// one, so short generated streams can span several large chunks.
fn tiled(stream: &[Event], times: usize) -> Vec<Event> {
    let span = stream.last().map_or(0, |e| e.t.as_nanos() + 1);
    (0..times as u64)
        .flat_map(|k| {
            stream.iter().map(move |e| Event {
                t: Nanos(e.t.as_nanos() + k * span),
                ..*e
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The writer's file bytes do not depend on batching: each CPU's
    /// events appended as one batch, cut into arbitrary batches (empty
    /// ones included), or dealt out of the merged trace by
    /// `append_trace`, write the same file at capacities below, around
    /// and at the default 4096.
    #[test]
    fn batching_does_not_change_the_file(
        trace in trace_strategy(),
        times in 1usize..=40,
        cuts in prop::collection::vec(0usize..3_000, 0..12),
        compress in any::<bool>(),
    ) {
        let streams: Vec<Vec<Event>> = (0..trace.ncpus())
            .map(|c| tiled(&cpu_stream(&trace, c), times))
            .collect();
        let merged = Trace::new(merge_streams(streams.clone()), vec![0; streams.len()]);
        for capacity in [1usize, 7, 4096] {
            let opts = StoreOptions::default()
                .with_chunk_capacity(capacity)
                .with_compress(compress);
            let write = |fill: &dyn Fn(&mut StoreWriter)| {
                let path = scratch_path();
                let mut w = StoreWriter::create(&path, streams.len(), opts).expect("create");
                fill(&mut w);
                w.set_metadata(b"meta".to_vec());
                w.finish().expect("finish");
                let bytes = std::fs::read(&path).unwrap();
                let _ = std::fs::remove_file(&path);
                bytes
            };
            let whole = write(&|w| {
                for (c, stream) in streams.iter().enumerate() {
                    w.append(CpuId(c as u16), stream).expect("append");
                }
            });
            let batched = write(&|w| {
                for (c, stream) in streams.iter().enumerate() {
                    let cpu = CpuId(c as u16);
                    let mut rest = &stream[..];
                    for &n in &cuts {
                        let (head, tail) = rest.split_at(n.min(rest.len()));
                        w.append(cpu, head).expect("append");
                        rest = tail;
                    }
                    w.append(cpu, rest).expect("append");
                }
            });
            let dealt = write(&|w| w.append_trace(&merged).expect("append_trace"));
            prop_assert_eq!(&whole, &batched, "batched, capacity {}", capacity);
            prop_assert_eq!(&whole, &dealt, "append_trace, capacity {}", capacity);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// write → read is lossless for every chunk size and codec: the
    /// materialized trace equals the original, events and loss
    /// counters both.
    #[test]
    fn roundtrip_is_lossless(
        trace in trace_strategy(),
        chunk_capacity in 1usize..=64,
        compress in any::<bool>(),
        meta in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let path = scratch_path();
        let opts = StoreOptions::default()
            .with_chunk_capacity(chunk_capacity)
            .with_compress(compress);
        write_store(&path, &trace, &meta, opts).expect("write");

        let reader = StoreReader::open(&path).expect("open");
        prop_assert_eq!(reader.metadata(), &meta[..]);
        prop_assert_eq!(reader.events(), trace.events().len() as u64);
        let back = reader.read_trace().expect("read");
        prop_assert_eq!(&back.events(), &trace.events());
        prop_assert_eq!(&back.lost[..trace.lost.len()], &trace.lost[..]);

        // The columnar cursor yields the same per-CPU sequences, and
        // every block already carries the right CPU id.
        for c in 0..reader.ncpus() {
            let mut cursor = reader.column_chunks(CpuId(c as u16));
            let mut columnar: Vec<Event> = Vec::new();
            while let Some(block) = cursor.next_chunk() {
                let block = block.expect("valid store");
                prop_assert_eq!(block.cpu, CpuId(c as u16));
                columnar.extend(block.events());
            }
            prop_assert_eq!(columnar, cpu_stream(&trace, c));
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Stripping the footer + trailer (a crash before `finish`
    /// completed its final writes) loses only bookkeeping: recovery
    /// rescans the chunks and yields the same events.
    #[test]
    fn recover_rebuilds_index_without_footer(
        trace in trace_strategy(),
        chunk_capacity in 1usize..=64,
        compress in any::<bool>(),
    ) {
        let path = scratch_path();
        let opts = StoreOptions::default()
            .with_chunk_capacity(chunk_capacity)
            .with_compress(compress);
        write_store(&path, &trace, b"meta", opts).expect("write");

        let clean = StoreReader::open(&path).expect("open");
        let chunk_bytes: u64 = clean
            .chunks()
            .iter()
            .map(|m| osn_store::CHUNK_HEADER_BYTES as u64 + m.payload_len as u64)
            .sum();
        let expected_chunks = clean.chunks().len();
        drop(clean);

        // Truncate to exactly the chunk region (header + chunks).
        let bytes = std::fs::read(&path).unwrap();
        let cut = osn_store::FILE_HEADER_BYTES as u64 + chunk_bytes;
        prop_assert!(cut <= bytes.len() as u64 - TRAILER_BYTES as u64);
        std::fs::write(&path, &bytes[..cut as usize]).unwrap();

        prop_assert!(StoreReader::open(&path).is_err(), "strict open must fail");
        let (reader, report) = StoreReader::recover(&path).expect("recover");
        prop_assert!(!report.footer_ok);
        prop_assert_eq!(report.torn_chunks, 0);
        prop_assert_eq!(reader.chunks().len(), expected_chunks);
        let back = reader.read_trace().expect("read");
        prop_assert_eq!(&back.events(), &trace.events());
        // The loss counters lived in the footer; without it they are
        // zero, and the metadata blob is gone.
        prop_assert!(reader.lost().iter().all(|&l| l == 0));
        prop_assert!(reader.metadata().is_empty());
        let _ = std::fs::remove_file(&path);
    }

    /// Record → truncate at an arbitrary offset → recover: every byte
    /// of the truncated file is accounted for. The salvaged chunk
    /// region plus the reported dropped tail must tile the file
    /// exactly — no byte silently skipped, none double-counted — and
    /// what salvages is a per-CPU prefix of the original events.
    #[test]
    fn truncation_accounting_is_exact(
        trace in trace_strategy(),
        chunk_capacity in 1usize..=64,
        compress in any::<bool>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let path = scratch_path();
        let opts = StoreOptions::default()
            .with_chunk_capacity(chunk_capacity)
            .with_compress(compress);
        write_store(&path, &trace, b"meta", opts).expect("write");

        let bytes = std::fs::read(&path).unwrap();
        let span = bytes.len() - osn_store::FILE_HEADER_BYTES;
        // Any offset from "just the file header" up to one byte short
        // of the full file — footer and trailer included in the range,
        // so torn-footer shapes are exercised too.
        let cut = osn_store::FILE_HEADER_BYTES + (cut_frac * span as f64) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let (reader, report) = StoreReader::recover(&path).expect("recover");
        let salvaged: u64 = reader
            .chunks()
            .iter()
            .map(|m| osn_store::CHUNK_HEADER_BYTES as u64 + m.payload_len as u64)
            .sum();
        if report.footer_ok {
            // Only a cut that preserved a checksummed trailer can
            // report an intact footer — then nothing was dropped.
            prop_assert!(report.clean(), "intact footer but damage: {:?}", report);
        } else {
            prop_assert_eq!(
                osn_store::FILE_HEADER_BYTES as u64 + salvaged + report.dropped_bytes,
                cut as u64,
                "salvaged + dropped must tile the file: {:?}",
                report
            );
        }

        // Whatever survived is a prefix of each CPU's original stream.
        let back = reader.read_trace().expect("read");
        for c in 0..reader.ncpus() {
            let got = cpu_stream(&back, c);
            let orig = cpu_stream(&trace, c);
            prop_assert!(got.len() <= orig.len());
            prop_assert_eq!(&got[..], &orig[..got.len()]);
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Every read path over the file at `path`: strict open and recovery,
/// each followed by full materialization and a column walk of every
/// CPU. Any step may fail, but only with a typed `StoreError`; a panic
/// fails the calling property.
fn read_every_way(path: &Path) {
    let walk = |reader: &StoreReader| {
        let _ = reader.read_trace();
        for c in 0..reader.ncpus() {
            let mut cursor = reader.column_chunks(CpuId(c as u16));
            while let Some(block) = cursor.next_chunk() {
                if block.is_err() {
                    prop_assert!(cursor.next_chunk().is_none(), "an error ends the cursor");
                    break;
                }
            }
        }
    };
    if let Ok(reader) = StoreReader::open(path) {
        walk(&reader);
    }
    if let Ok((reader, _)) = StoreReader::recover(path) {
        walk(&reader);
    }
}

/// A valid store's file header (magic, version, CPU count, chunk
/// capacity, flags), so arbitrary bytes after it reach the chunk scan
/// and footer parser instead of stopping at the magic.
fn file_header(ncpus: u32, compress: bool) -> Vec<u8> {
    let mut out = osn_store::FILE_MAGIC.to_vec();
    for field in [osn_store::STORE_VERSION, ncpus, 4096, u32::from(compress)] {
        out.extend_from_slice(&field.to_le_bytes());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, alone or behind a valid file header, never
    /// panic any read path.
    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        data in prop::collection::vec(any::<u8>(), 0..1024),
        header in any::<bool>(),
        ncpus in 1u32..=4,
        compress in any::<bool>(),
    ) {
        let path = scratch_path();
        let mut bytes = if header { file_header(ncpus, compress) } else { Vec::new() };
        bytes.extend_from_slice(&data);
        std::fs::write(&path, &bytes).unwrap();
        read_every_way(&path);
        let _ = std::fs::remove_file(&path);
    }

    /// Any single-byte change of a valid store — header, chunk
    /// headers, payloads, footer or trailer — never panics any read
    /// path.
    #[test]
    fn flipped_byte_never_panics_the_reader(
        trace in trace_strategy(),
        chunk_capacity in 1usize..=16,
        compress in any::<bool>(),
        flip_at in any::<prop::sample::Index>(),
        xor in 1u8..,
    ) {
        let path = scratch_path();
        let opts = StoreOptions::default()
            .with_chunk_capacity(chunk_capacity)
            .with_compress(compress);
        write_store(&path, &trace, b"meta", opts).expect("write");
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = flip_at.index(bytes.len());
        bytes[idx] ^= xor;
        std::fs::write(&path, &bytes).unwrap();
        read_every_way(&path);
        let _ = std::fs::remove_file(&path);
    }
}
