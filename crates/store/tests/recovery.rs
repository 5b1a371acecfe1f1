//! Crash-recovery tests: a recorder that dies mid-write leaves a store
//! without a footer and possibly with a torn final chunk. `recover`
//! must salvage every intact chunk and charge the torn one to the
//! per-CPU loss counters — the same channel as ring-buffer drops.

use osn_kernel::activity::Activity;
use osn_kernel::ids::{CpuId, Tid};
use osn_kernel::time::Nanos;
use osn_store::writer::write_store;
use osn_store::{StoreError, StoreOptions, StoreReader, CHUNK_HEADER_BYTES, TRAILER_BYTES};
use osn_trace::wire::fnv1a64;
use osn_trace::{Event, EventKind, Trace};

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("osn-recovery-{tag}-{}.osn", std::process::id()))
}

/// `n` alternating kernel enter/exit events on one CPU.
fn synthetic_trace(n: u64) -> Trace {
    let events = (0..n)
        .map(|i| Event {
            t: Nanos(10 * i),
            cpu: CpuId(0),
            tid: Tid(1),
            kind: if i % 2 == 0 {
                EventKind::KernelEnter(Activity::TimerInterrupt)
            } else {
                EventKind::KernelExit(Activity::TimerInterrupt)
            },
        })
        .collect();
    Trace::new(events, vec![3])
}

#[test]
fn clean_file_recovers_clean() {
    let path = scratch("clean");
    let trace = synthetic_trace(100);
    write_store(
        &path,
        &trace,
        b"meta",
        StoreOptions::default().with_chunk_capacity(16),
    )
    .unwrap();

    let (reader, report) = StoreReader::recover(&path).unwrap();
    assert!(report.clean(), "clean store reported damage: {report:?}");
    assert!(report.footer_ok);
    let back = reader.read_trace().unwrap();
    assert_eq!(back.events(), trace.events());
    assert_eq!(back.lost, vec![3]);
    assert_eq!(reader.metadata(), b"meta");
    let _ = std::fs::remove_file(&path);
}

/// One flipped payload byte mid-file (bit rot, not a crash): every read
/// path goes through the same checksum and decoder, and each reports
/// it — `read_trace` as a typed error, the event stream by ending early
/// with a counted decode error, the column cursor as an `Err` item.
#[test]
fn flipped_payload_byte_fails_every_read_path() {
    let path = scratch("flipped");
    let trace = synthetic_trace(100);
    write_store(
        &path,
        &trace,
        b"meta",
        StoreOptions::default().with_chunk_capacity(16),
    )
    .unwrap();
    let victim = StoreReader::open(&path).unwrap().chunks()[2];
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[victim.offset as usize + CHUNK_HEADER_BYTES + 1] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let reader = StoreReader::open(&path).unwrap();
    assert!(matches!(
        reader.read_trace(),
        Err(StoreError::CorruptChunk { .. })
    ));

    let mut cursor = reader.column_chunks(CpuId(0));
    let mut yielded = 0;
    while let Some(Ok(cols)) = cursor.next_chunk() {
        yielded += cols.len();
    }
    assert_eq!(yielded, 2 * 16, "cursor must stop at the corrupt chunk");
    assert_eq!(reader.stats().decode_errors, 1);

    let mut cursor = reader.column_chunks(CpuId(0));
    assert!(cursor.next_chunk().unwrap().is_ok());
    assert!(cursor.next_chunk().unwrap().is_ok());
    assert!(matches!(
        cursor.next_chunk(),
        Some(Err(StoreError::CorruptChunk { .. }))
    ));
    assert!(cursor.next_chunk().is_none(), "an Err ends the cursor");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_final_chunk_by_truncation() {
    let path = scratch("truncated");
    let trace = synthetic_trace(100);
    write_store(
        &path,
        &trace,
        b"meta",
        StoreOptions::default().with_chunk_capacity(16),
    )
    .unwrap();

    // Cut the file mid-way through the final chunk's payload — the
    // footer and trailer vanish with it (a crash before `finish`).
    let clean = StoreReader::open(&path).unwrap();
    let last = *clean.chunks().last().unwrap();
    let intact_events: u64 = clean.events() - last.count as u64;
    drop(clean);
    let bytes = std::fs::read(&path).unwrap();
    let cut = last.offset as usize + CHUNK_HEADER_BYTES + last.payload_len as usize / 2;
    std::fs::write(&path, &bytes[..cut]).unwrap();

    assert!(StoreReader::open(&path).is_err(), "strict open must fail");
    let (reader, report) = StoreReader::recover(&path).unwrap();
    assert_eq!(report.torn_chunks, 1);
    assert_eq!(report.torn_events, last.count as u64);
    assert!(!report.footer_ok);
    assert!(report.dropped_bytes > 0);

    // Everything before the torn chunk survives; the torn events ride
    // the loss counters into `Trace::lost`.
    assert_eq!(reader.events(), intact_events);
    let back = reader.read_trace().unwrap();
    assert_eq!(back.events(), trace.events()[..intact_events as usize]);
    assert_eq!(back.lost, vec![last.count as u64]);
    let _ = std::fs::remove_file(&path);
}

/// A file cut inside the footer block still *starts* with
/// `FOOTER_MAGIC` at the end of the chunk region, but its trailer (and
/// with it the footer checksum) is gone. The scan must not accept
/// those four bytes as a clean end: the broken footer is a dropped
/// garbage tail, every chunk still salvages.
#[test]
fn torn_footer_is_dropped_garbage_not_clean_end() {
    let path = scratch("torn-footer");
    let trace = synthetic_trace(100);
    write_store(
        &path,
        &trace,
        b"meta",
        StoreOptions::default().with_chunk_capacity(16),
    )
    .unwrap();

    let clean = StoreReader::open(&path).unwrap();
    let last = *clean.chunks().last().unwrap();
    let chunk_end = last.offset as usize + CHUNK_HEADER_BYTES + last.payload_len as usize;
    let total_events = clean.events();
    drop(clean);
    let bytes = std::fs::read(&path).unwrap();
    // Keep FOOTER_MAGIC plus a little footer debris, lose the rest.
    let cut = chunk_end + 12;
    assert!(cut < bytes.len(), "test file too small to tear the footer");
    std::fs::write(&path, &bytes[..cut]).unwrap();

    assert!(StoreReader::open(&path).is_err(), "strict open must fail");
    let (reader, report) = StoreReader::recover(&path).unwrap();
    assert!(!report.footer_ok);
    assert!(
        !report.clean(),
        "torn footer must not report clean: {report:?}"
    );
    assert_eq!(
        report.dropped_bytes,
        (cut - chunk_end) as u64,
        "the footer debris is the dropped tail"
    );
    assert_eq!(report.torn_chunks, 0, "every chunk is intact");

    // All events salvage; the recorded ring losses die with the footer.
    assert_eq!(reader.events(), total_events);
    let back = reader.read_trace().unwrap();
    assert_eq!(back.events(), trace.events());
    assert_eq!(back.lost, vec![0]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_final_chunk_checksum_salvages_footer() {
    let path = scratch("corrupt");
    let trace = synthetic_trace(100);
    write_store(
        &path,
        &trace,
        b"meta",
        StoreOptions::default().with_chunk_capacity(16),
    )
    .unwrap();

    // Flip one payload byte of the final chunk (bit rot, not
    // truncation): the footer stays intact.
    let clean = StoreReader::open(&path).unwrap();
    let last = *clean.chunks().last().unwrap();
    let intact_events: u64 = clean.events() - last.count as u64;
    drop(clean);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[last.offset as usize + CHUNK_HEADER_BYTES] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let (reader, report) = StoreReader::recover(&path).unwrap();
    assert_eq!(report.torn_chunks, 1);
    assert_eq!(report.torn_events, last.count as u64);
    assert!(report.footer_ok, "intact footer must be salvaged");

    // Footer metadata and loss counters survive; the torn chunk's
    // events are added on top of the recorded ring losses.
    assert_eq!(reader.metadata(), b"meta");
    assert_eq!(reader.lost(), &[3 + last.count as u64]);
    let back = reader.read_trace().unwrap();
    assert_eq!(back.events(), trace.events()[..intact_events as usize]);
    let _ = std::fs::remove_file(&path);
}

/// A chunk header whose event count is inflated (one flipped high
/// byte; the payload and its checksum are untouched, so the recovery
/// scan accepts the header) fails as a typed error on every codec. It
/// must not size an allocation from the declared count first.
#[test]
fn inflated_chunk_count_is_a_typed_error() {
    for compress in [false, true] {
        let path = scratch(&format!("inflated-{compress}"));
        let opts = StoreOptions::default()
            .with_chunk_capacity(16)
            .with_compress(compress);
        write_store(&path, &synthetic_trace(100), b"meta", opts).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let count_high_byte = osn_store::FILE_HEADER_BYTES + 8 + 3;
        bytes[count_high_byte] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let reader = StoreReader::open(&path).unwrap();
        assert!(matches!(
            reader.read_trace(),
            Err(StoreError::CorruptChunk { .. })
        ));
        // The recovery scan stops at the implausible header: from there
        // on the file is a dropped tail of unknown extent.
        let (reader, report) = StoreReader::recover(&path).unwrap();
        assert_eq!(
            report.dropped_bytes,
            (bytes.len() - osn_store::FILE_HEADER_BYTES) as u64,
            "compress={compress}"
        );
        assert!(reader.read_trace().unwrap().is_empty());
        let _ = std::fs::remove_file(&path);
    }
}

/// Rewrite the footer index of the store at `path` with `forge` and
/// re-seal it with a valid checksum, as a buggy or hostile writer
/// could: the FNV checksum catches damage, not forgery. `forge` gets
/// the index entries (36 bytes each) of a one-CPU store with a
/// four-byte metadata blob.
fn forge_index(path: &std::path::Path, forge: impl Fn(&mut [u8])) {
    let mut bytes = std::fs::read(path).unwrap();
    let len = bytes.len();
    let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let footer_len = field(len - 16) as usize;
    let footer_start = len - TRAILER_BYTES - footer_len;
    // magic, version, ncpus, one lost counter, meta_len, "meta", nchunks
    let index_start = footer_start + 4 + 4 + 4 + 8 + 4 + 4 + 4;
    forge(&mut bytes[index_start..len - TRAILER_BYTES]);
    let crc = fnv1a64(&bytes[footer_start..len - TRAILER_BYTES]);
    bytes[len - 24..len - 16].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

/// A checksum-valid footer whose index declares more events than a
/// chunk's payload can hold, or two entries over the same bytes, is
/// rejected at open — before `read_trace` sizes anything from the
/// declared counts.
#[test]
fn forged_index_is_rejected_at_open() {
    let inflate_count = |index: &mut [u8]| index[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    let overlap = |index: &mut [u8]| {
        let first = index[0..8].to_vec();
        index[36..44].copy_from_slice(&first);
    };
    for (name, forge) in [
        ("count", &inflate_count as &dyn Fn(&mut [u8])),
        ("overlap", &overlap),
    ] {
        let path = scratch(&format!("forged-{name}"));
        let opts = StoreOptions::default().with_chunk_capacity(16);
        write_store(&path, &synthetic_trace(100), b"meta", opts).unwrap();
        forge_index(&path, forge);
        match StoreReader::open(&path) {
            Err(StoreError::CorruptFooter(_) | StoreError::CorruptChunk { .. }) => {}
            Err(e) => panic!("{name}: untyped rejection {e}"),
            Ok(_) => panic!("{name}: forged index accepted"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
