//! Property tests for the procfs parsers: whatever text a read of
//! `/proc/interrupts`, `/proc/schedstat`, `/proc/self/status` or
//! `/proc/self/stat` returns — arbitrary bytes, counter rows near
//! `u64::MAX`, or a committed fixture cut or spliced at any byte —
//! every parser, every counter total and the deltas between any two
//! snapshots return a value and never panic.

use proptest::prelude::*;

use osn_ftq::capture::{classify, deltas_between};
use osn_ftq::procfs::{
    parse_interrupts, parse_schedstat, parse_stat_cpu, parse_status_switches, ProcSnapshot,
};

const FIXTURES: [&str; 8] = [
    include_str!("../fixtures/interrupts_x86.txt"),
    include_str!("../fixtures/interrupts_arm64.txt"),
    include_str!("../fixtures/interrupts_hotplug.txt"),
    include_str!("../fixtures/interrupts_truncated.txt"),
    include_str!("../fixtures/schedstat.txt"),
    include_str!("../fixtures/schedstat_truncated.txt"),
    include_str!("../fixtures/self_status.txt"),
    include_str!("../fixtures/self_stat.txt"),
];

/// Words procfs text is made of, counters at the edges of `u64`
/// among them.
const WORDS: [&str; 24] = [
    "CPU0",
    "CPU1",
    "CPU3",
    "cpu0",
    "cpu1",
    "LOC:",
    "17:",
    "ERR:",
    ":",
    "0",
    "7",
    "4294967296",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "timer",
    "IO-APIC 2-edge",
    "eth0",
    "voluntary_ctxt_switches:",
    "nonvoluntary_ctxt_switches:",
    "(",
    ") R",
    "\t",
];

/// Text of up to 12 lines of up to 12 `WORDS` each.
fn word_text() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::collection::vec(0..WORDS.len(), 0..12), 0..12).prop_map(|lines| {
        lines
            .iter()
            .map(|line| line.iter().map(|&w| WORDS[w]).collect::<Vec<_>>().join(" "))
            .collect::<Vec<_>>()
            .join("\n")
    })
}

/// A counter drawn mostly from near the top of `u64`, so that sums
/// across rows, columns and CPUs pass `u64::MAX`.
fn counter() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1_000, (u64::MAX - 1_000)..=u64::MAX, any::<u64>()]
}

/// Well-formed interrupts and schedstat text whose counters sum past
/// `u64::MAX`: two CPU columns, several rows of each class, and
/// nine-field `cpuN` lines.
fn counter_text() -> impl Strategy<Value = String> {
    (
        prop::collection::vec((counter(), counter(), any::<bool>()), 1..6),
        prop::collection::vec(prop::collection::vec(counter(), 9), 1..4),
    )
        .prop_map(|(rows, cpus)| {
            let mut text = String::from("           CPU0       CPU1\n");
            for (i, (a, b, timer)) in rows.iter().enumerate() {
                let what = if *timer {
                    "Local timer interrupts"
                } else {
                    "eth0"
                };
                text.push_str(&format!("{i:>4}: {a} {b} {what}\n"));
            }
            text.push_str("version 15\ntimestamp 4294\n");
            for (c, fields) in cpus.iter().enumerate() {
                let fields: Vec<String> = fields.iter().map(u64::to_string).collect();
                text.push_str(&format!("cpu{} {}\n", c % 2, fields.join(" ")));
            }
            text
        })
}

/// Arbitrary bytes, read as procfs text would be.
fn byte_text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..512)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// `a`'s bytes before `i` followed by `b`'s bytes from `j` on: a read
/// truncated mid-write (`j` at the end of `b`) or two reads spliced.
fn splice(a: &str, i: usize, b: &str, j: usize) -> String {
    let mut bytes = a.as_bytes()[..i].to_vec();
    bytes.extend_from_slice(&b.as_bytes()[j..]);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every parser over one text, read back through every accessor.
fn snapshot(text: &str) -> ProcSnapshot {
    let snap = ProcSnapshot {
        interrupts: parse_interrupts(text),
        sched: parse_schedstat(text),
        ctxt: parse_status_switches(text),
        cpu: parse_stat_cpu(text),
    };
    let irq = &snap.interrupts;
    assert_eq!(irq.timer.len(), irq.cpu_ids.len());
    assert_eq!(irq.other.len(), irq.cpu_ids.len());
    let (timer, other) = (irq.timer_total(), irq.other_total());
    for &cpu in &irq.cpu_ids {
        assert!(irq.timer_on(cpu).is_some_and(|n| n <= timer));
        assert!(irq.other_on(cpu).is_some_and(|n| n <= other));
    }
    snap
}

/// Deltas both ways between two snapshots, classified.
fn compare(a: &ProcSnapshot, b: &ProcSnapshot) {
    classify(&deltas_between(a, b));
    classify(&deltas_between(b, a));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_never_panics(a in word_text(), b in byte_text()) {
        let (sa, sb) = (snapshot(&a), snapshot(&b));
        compare(&sa, &sb);
    }

    #[test]
    fn counters_past_u64_max_saturate(a in counter_text(), b in counter_text()) {
        let (sa, sb) = (snapshot(&a), snapshot(&b));
        prop_assert_eq!(sa.interrupts.cpu_ids.clone(), vec![0, 1]);
        prop_assert!(!sa.sched.is_empty());
        compare(&sa, &sb);
    }

    #[test]
    fn fixtures_cut_or_spliced_at_any_byte_never_panic(
        fa in 0..FIXTURES.len(),
        fb in 0..FIXTURES.len(),
        i in any::<prop::sample::Index>(),
        j in any::<prop::sample::Index>(),
    ) {
        let (a, b) = (FIXTURES[fa], FIXTURES[fb]);
        let i = i.index(a.len() + 1);
        let cut = splice(a, i, b, b.len());
        let spliced = splice(a, i, b, j.index(b.len() + 1));
        let whole = snapshot(a);
        for text in [cut, spliced] {
            compare(&whole, &snapshot(&text));
        }
    }
}
