//! Parsers for the `/proc` counter files the native capture samples
//! around each detected gap.
//!
//! All parsers take `&str` so they are unit-testable against committed
//! fixture files, and all tolerate the realities of procfs reads:
//! counters that wrapped or reset, CPUs that went offline (missing
//! columns), CPUs that came online mid-run (extra columns), and reads
//! truncated mid-write. A malformed line never panics — it parses to
//! whatever prefix was valid and the rest is dropped.

use std::io;

/// One snapshot of `/proc/interrupts`, folded to the two counters the
/// gap classifier needs: per-CPU tick-timer interrupts and per-CPU
/// everything-else device interrupts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InterruptsSnapshot {
    /// CPU number of each column, from the `CPU0 CPU1 ...` header.
    /// Non-contiguous after CPU hotplug (e.g. `[0, 2, 3]`).
    pub cpu_ids: Vec<u32>,
    /// Tick-timer interrupts per column (x86 `LOC`, arm64 `arch_timer`,
    /// legacy IO-APIC `timer`).
    pub timer: Vec<u64>,
    /// All other device interrupts per column.
    pub other: Vec<u64>,
}

impl InterruptsSnapshot {
    pub fn timer_total(&self) -> u64 {
        saturating_sum(self.timer.iter().copied())
    }

    pub fn other_total(&self) -> u64 {
        saturating_sum(self.other.iter().copied())
    }

    fn column_of(&self, cpu: u32) -> Option<usize> {
        self.cpu_ids.iter().position(|&c| c == cpu)
    }

    /// Timer-interrupt count on one CPU; `None` if that CPU has no
    /// column (offline / hotplugged away).
    pub fn timer_on(&self, cpu: u32) -> Option<u64> {
        self.column_of(cpu).map(|i| self.timer[i])
    }

    pub fn other_on(&self, cpu: u32) -> Option<u64> {
        self.column_of(cpu).map(|i| self.other[i])
    }
}

/// Sum of counters, pinned at `u64::MAX`: counters come from outside
/// the program, and a sum that wrapped would read as a small count.
pub(crate) fn saturating_sum(counts: impl IntoIterator<Item = u64>) -> u64 {
    counts.into_iter().fold(0, u64::saturating_add)
}

/// Whether an interrupt row is the periodic tick source. The label is
/// the token before the colon (`LOC`, `17`), the description is
/// everything after the counters.
fn is_timer_row(label: &str, description: &str) -> bool {
    if label.eq_ignore_ascii_case("LOC") {
        return true;
    }
    let d = description.to_ascii_lowercase();
    d.contains("timer") // "Local timer interrupts", "arch_timer", "IO-APIC 2-edge timer"
}

/// Rows with a single machine-wide count instead of per-CPU columns.
fn is_scalar_row(label: &str) -> bool {
    matches!(label, "ERR" | "MIS")
}

/// Parse the text of `/proc/interrupts`.
pub fn parse_interrupts(text: &str) -> InterruptsSnapshot {
    let mut lines = text.lines();
    let Some(header) = lines.next() else {
        return InterruptsSnapshot::default();
    };
    let cpu_ids: Vec<u32> = header
        .split_whitespace()
        .filter_map(|t| t.strip_prefix("CPU")?.parse().ok())
        .collect();
    let ncols = cpu_ids.len();
    let mut snap = InterruptsSnapshot {
        cpu_ids,
        timer: vec![0; ncols],
        other: vec![0; ncols],
    };
    if ncols == 0 {
        return snap;
    }
    for line in lines {
        let Some((label, rest)) = line.split_once(':') else {
            continue; // truncated mid-write: no complete row here
        };
        let label = label.trim();
        if label.is_empty() || is_scalar_row(label) {
            continue;
        }
        let mut counts = Vec::with_capacity(ncols);
        let mut tokens = rest.split_whitespace();
        for t in tokens.by_ref() {
            match t.parse::<u64>() {
                Ok(n) if counts.len() < ncols => counts.push(n),
                _ => {
                    // First non-numeric token starts the description.
                    // (Chip name / hwirq / action, e.g. "IO-APIC 2-edge
                    // timer".)
                    let mut description = t.to_string();
                    for rest in tokens.by_ref() {
                        description.push(' ');
                        description.push_str(rest);
                    }
                    let into = if is_timer_row(label, &description) {
                        &mut snap.timer
                    } else {
                        &mut snap.other
                    };
                    // Rows may have fewer columns than the header
                    // (hotplug drift, truncation): missing columns
                    // count 0.
                    for (i, n) in counts.iter().enumerate() {
                        into[i] = into[i].saturating_add(*n);
                    }
                    counts.clear();
                    break;
                }
            }
        }
        // Row ended inside the counter columns (truncated mid-write,
        // or a description-less row): no description to classify by;
        // treat as a device interrupt.
        for (i, n) in counts.iter().enumerate() {
            snap.other[i] = snap.other[i].saturating_add(*n);
        }
    }
    snap
}

/// One CPU's line of `/proc/schedstat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedstatCpu {
    pub cpu: u32,
    /// Cumulative time tasks spent runnable-but-waiting on this CPU
    /// (ns) — the direct preemption-pressure corroborator.
    pub run_delay: u64,
    /// Timeslices handed out on this CPU.
    pub pcount: u64,
}

/// Parse the text of `/proc/schedstat` (`cpuN` lines; domain lines and
/// the version/timestamp header are skipped). The last two fields of a
/// cpu line are run_delay and pcount in every schedstat version this
/// targets (≥ 15).
pub fn parse_schedstat(text: &str) -> Vec<SchedstatCpu> {
    let mut out = Vec::new();
    for line in text.lines() {
        let mut tokens = line.split_whitespace();
        let Some(name) = tokens.next() else { continue };
        let Some(cpu) = name.strip_prefix("cpu").and_then(|n| n.parse().ok()) else {
            continue;
        };
        let fields: Vec<u64> = tokens.filter_map(|t| t.parse().ok()).collect();
        // A full line has 9 statistics; a truncated one with fewer
        // than the trailing (run_delay, pcount) pair is dropped.
        if fields.len() < 9 {
            continue;
        }
        out.push(SchedstatCpu {
            cpu,
            run_delay: fields[fields.len() - 2],
            pcount: fields[fields.len() - 1],
        });
    }
    out
}

/// The two context-switch counters of `/proc/self/status`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtxtSwitches {
    pub voluntary: u64,
    pub nonvoluntary: u64,
}

/// Parse `voluntary_ctxt_switches` / `nonvoluntary_ctxt_switches` out
/// of `/proc/self/status` text. Missing lines (truncated read) leave
/// the corresponding counter 0.
pub fn parse_status_switches(text: &str) -> CtxtSwitches {
    let mut out = CtxtSwitches::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let Ok(n) = value.trim().parse::<u64>() else {
            continue;
        };
        match key.trim() {
            "voluntary_ctxt_switches" => out.voluntary = n,
            "nonvoluntary_ctxt_switches" => out.nonvoluntary = n,
            _ => {}
        }
    }
    out
}

/// The CPU a task last ran on: field 39 of `/proc/self/stat`. The comm
/// field may itself contain spaces and parentheses, so fields are
/// counted from after the *last* `)`.
pub fn parse_stat_cpu(text: &str) -> Option<u32> {
    let after_comm = &text[text.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); processor is field 39.
    after_comm
        .split_whitespace()
        .nth(39 - 3)
        .and_then(|t| t.parse().ok())
}

/// Monotonic-counter delta that survives a reset (CPU hotplug, counter
/// wrap): a decrease means the counter restarted, so the new value *is*
/// the delta since.
pub fn counter_delta(old: u64, new: u64) -> u64 {
    if new >= old {
        new - old
    } else {
        new
    }
}

/// One coherent sample of every counter source the classifier uses.
#[derive(Clone, Debug, Default)]
pub struct ProcSnapshot {
    pub interrupts: InterruptsSnapshot,
    /// Empty when `/proc/schedstat` is unavailable (unbuilt kernel
    /// config, non-Linux host).
    pub sched: Vec<SchedstatCpu>,
    pub ctxt: CtxtSwitches,
    /// CPU this thread last ran on, if `/proc/self/stat` parsed.
    pub cpu: Option<u32>,
}

impl ProcSnapshot {
    /// Read a live snapshot. Errors only if `/proc/interrupts` or
    /// `/proc/self/status` is unreadable (i.e. not a Linux procfs at
    /// all); a missing `/proc/schedstat` degrades to `sched: []`.
    pub fn read() -> io::Result<ProcSnapshot> {
        let interrupts = std::fs::read_to_string("/proc/interrupts")?;
        let status = std::fs::read_to_string("/proc/self/status")?;
        let sched = std::fs::read_to_string("/proc/schedstat").unwrap_or_default();
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        Ok(ProcSnapshot {
            interrupts: parse_interrupts(&interrupts),
            sched: parse_schedstat(&sched),
            ctxt: parse_status_switches(&status),
            cpu: parse_stat_cpu(&stat),
        })
    }

    /// Whether the host exposes `/proc/schedstat` (CI skip gate).
    pub fn schedstat_available() -> bool {
        std::path::Path::new("/proc/schedstat").exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X86: &str = include_str!("../fixtures/interrupts_x86.txt");
    const ARM: &str = include_str!("../fixtures/interrupts_arm64.txt");
    const HOTPLUG: &str = include_str!("../fixtures/interrupts_hotplug.txt");
    const TRUNCATED: &str = include_str!("../fixtures/interrupts_truncated.txt");
    const SCHEDSTAT: &str = include_str!("../fixtures/schedstat.txt");
    const SCHEDSTAT_TRUNC: &str = include_str!("../fixtures/schedstat_truncated.txt");
    const STATUS: &str = include_str!("../fixtures/self_status.txt");
    const STAT: &str = include_str!("../fixtures/self_stat.txt");

    #[test]
    fn x86_fixture_separates_timer_from_device_rows() {
        let s = parse_interrupts(X86);
        assert_eq!(s.cpu_ids, vec![0, 1]);
        // LOC row + IO-APIC edge timer row are both tick sources.
        assert_eq!(s.timer_on(0), Some(1_000_100 + 42));
        assert_eq!(s.timer_on(1), Some(999_900));
        // eth0 + nvme + CAL; ERR/MIS scalar rows are skipped.
        assert_eq!(s.other_on(0), Some(5_000 + 120 + 777));
        assert!(s.timer_total() > s.other_total());
    }

    #[test]
    fn arm64_fixture_finds_arch_timer() {
        let s = parse_interrupts(ARM);
        assert_eq!(s.cpu_ids, vec![0, 1, 2, 3]);
        assert_eq!(s.timer_on(3), Some(88_021));
        assert_eq!(s.other_on(0), Some(14_002 + 31));
    }

    #[test]
    fn hotplug_fixture_keeps_column_identity() {
        // CPU1 went offline: header is CPU0 CPU2 CPU3 and one stale
        // row still carries four columns while another carries two.
        let s = parse_interrupts(HOTPLUG);
        assert_eq!(s.cpu_ids, vec![0, 2, 3]);
        assert_eq!(s.timer_on(1), None, "offline CPU has no column");
        assert_eq!(s.timer_on(2), Some(2_000));
        // The short row contributes 0 to its missing columns; the
        // stale four-column row keeps its first three under the new
        // header (best-effort column drift).
        assert_eq!(s.other_on(3), Some(0));
        assert_eq!(s.other_on(0), Some(900 + 10));
    }

    #[test]
    fn truncated_fixture_parses_valid_prefix_without_panicking() {
        let s = parse_interrupts(TRUNCATED);
        assert_eq!(s.cpu_ids, vec![0, 1]);
        // The complete LOC row parsed; the row cut mid-counter kept
        // its valid columns (as device interrupts: no description
        // survived to classify by).
        assert_eq!(s.timer_on(0), Some(500));
        assert_eq!(s.other_on(0), Some(77));
        assert_eq!(s.other_on(1), Some(0));
    }

    #[test]
    fn schedstat_fixture_takes_trailing_fields() {
        let s = parse_schedstat(SCHEDSTAT);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].cpu, 0);
        assert_eq!(s[0].run_delay, 223344);
        assert_eq!(s[0].pcount, 5566);
        assert_eq!(s[1].cpu, 1);
    }

    #[test]
    fn schedstat_truncated_line_is_dropped() {
        let s = parse_schedstat(SCHEDSTAT_TRUNC);
        // cpu0 is complete, cpu1 was cut mid-write.
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].cpu, 0);
    }

    #[test]
    fn status_fixture_yields_both_switch_counters() {
        let c = parse_status_switches(STATUS);
        assert_eq!(c.voluntary, 143);
        assert_eq!(c.nonvoluntary, 17);
    }

    #[test]
    fn stat_fixture_survives_hostile_comm() {
        // comm is "a) x (b" — fields must count from the LAST ')'.
        assert_eq!(parse_stat_cpu(STAT), Some(3));
        assert_eq!(parse_stat_cpu("no parens here"), None);
    }

    #[test]
    fn counter_delta_handles_wrap_and_reset() {
        assert_eq!(counter_delta(10, 15), 5);
        assert_eq!(counter_delta(10, 10), 0);
        // Counter reset (hotplug) — the new value is the delta.
        assert_eq!(counter_delta(1_000_000, 3), 3);
    }

    #[test]
    fn empty_inputs_parse_to_empty() {
        assert_eq!(parse_interrupts(""), InterruptsSnapshot::default());
        assert!(parse_schedstat("").is_empty());
        assert_eq!(parse_status_switches(""), CtxtSwitches::default());
    }
}
