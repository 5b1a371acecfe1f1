//! The taxonomy of kernel activities the tracer instruments.
//!
//! The paper instruments "all kernel entry and exit points (interrupts,
//! system calls, exceptions, etc.) and the main OS functions (such as the
//! scheduler, softirqs, or memory management)". Section IV-A then folds
//! the activities into five noise categories: *periodic*, *page fault*,
//! *scheduling*, *preemption*, and *I/O*.

use core::fmt;

use serde::Serialize;

/// The classification of a page fault, mirroring the Linux fault paths.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum FaultKind {
    /// First touch of a fresh anonymous page (zero page mapped).
    AnonZero,
    /// Anonymous page that requires allocator work / reclaim pressure.
    AnonReclaim,
    /// File-backed page resolved from the (NFS) page cache.
    FileBacked,
    /// Copy-on-write break.
    Cow,
}

impl FaultKind {
    pub const ALL: [FaultKind; 4] = [
        FaultKind::AnonZero,
        FaultKind::AnonReclaim,
        FaultKind::FileBacked,
        FaultKind::Cow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FaultKind::AnonZero => "anon_zero",
            FaultKind::AnonReclaim => "anon_reclaim",
            FaultKind::FileBacked => "file_backed",
            FaultKind::Cow => "cow",
        }
    }
}

/// Which half of `schedule()` is executing. The paper's Fig 2b shows the
/// scheduler cost split by the context switch: "the first part of the
/// schedule (0.382 µs), the process preemption (2.215 µs), and the second
/// part of the schedule (0.179 µs)".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum SchedPart {
    /// Pick-next + dequeue work before the context switch.
    Before,
    /// Finish-task-switch work after the context switch.
    After,
}

/// Softirq vectors modeled by the simulator (the subset the paper found
/// relevant, in Linux priority order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub enum SoftirqVec {
    /// `run_timer_softirq`: expired software timers (TIMER_SOFTIRQ).
    Timer,
    /// `net_tx_action` tasklet host (NET_TX_SOFTIRQ).
    NetTx,
    /// `net_rx_action` tasklet host (NET_RX_SOFTIRQ).
    NetRx,
    /// `rcu_process_callbacks` (RCU_SOFTIRQ).
    Rcu,
    /// `run_rebalance_domains` (SCHED_SOFTIRQ).
    Rebalance,
}

impl SoftirqVec {
    /// All vectors in execution (priority) order: Linux runs the pending
    /// mask from the lowest bit upwards; NET_TX precedes NET_RX which
    /// precedes TIMER in real kernels, but for the paper's purposes the
    /// relevant property is only that they serialize on one CPU.
    pub const ALL: [SoftirqVec; 5] = [
        SoftirqVec::Timer,
        SoftirqVec::NetTx,
        SoftirqVec::NetRx,
        SoftirqVec::Rcu,
        SoftirqVec::Rebalance,
    ];

    #[inline]
    pub fn bit(self) -> u8 {
        match self {
            SoftirqVec::Timer => 1 << 0,
            SoftirqVec::NetTx => 1 << 1,
            SoftirqVec::NetRx => 1 << 2,
            SoftirqVec::Rcu => 1 << 3,
            SoftirqVec::Rebalance => 1 << 4,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            SoftirqVec::Timer => "run_timer_softirq",
            SoftirqVec::NetTx => "net_tx_action",
            SoftirqVec::NetRx => "net_rx_action",
            SoftirqVec::Rcu => "rcu_process_callbacks",
            SoftirqVec::Rebalance => "run_rebalance_domains",
        }
    }
}

/// Syscall classes modeled with distinct service costs. Syscall service
/// time is *requested* work and therefore not noise (paper §III), but it
/// is traced like every other kernel entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum SyscallKind {
    Read,
    Write,
    Mmap,
    Munmap,
    Nanosleep,
    Gettime,
    Other,
}

impl SyscallKind {
    pub fn name(self) -> &'static str {
        match self {
            SyscallKind::Read => "read",
            SyscallKind::Write => "write",
            SyscallKind::Mmap => "mmap",
            SyscallKind::Munmap => "munmap",
            SyscallKind::Nanosleep => "nanosleep",
            SyscallKind::Gettime => "clock_gettime",
            SyscallKind::Other => "syscall",
        }
    }
}

/// Every instrumented kernel activity (a kernel entry/exit pair in the
/// trace). This is the unit the paper's quantitative statistics are
/// computed over.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize)]
pub enum Activity {
    /// Periodic (tick) local timer interrupt top half.
    TimerInterrupt,
    /// High-resolution timer expiry interrupt (e.g. nanosleep wakeups).
    HrTimerInterrupt,
    /// Network device interrupt top half.
    NetworkInterrupt,
    /// Softirq bottom half.
    Softirq(SoftirqVec),
    /// Page fault exception handler.
    PageFault(FaultKind),
    /// The scheduler proper.
    Schedule(SchedPart),
    /// System call service.
    Syscall(SyscallKind),
    /// Hypervisor steal time: the vCPU is descheduled by the host and
    /// the guest makes no progress (injected perturbation; see
    /// `perturb::StealSpec`).
    Steal,
}

/// The five noise categories of the paper's Fig 3, plus a bucket for
/// requested (non-noise) kernel services so every traced activity has a
/// classification.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub enum NoiseCategory {
    /// Timer interrupt handler and `run_timer_softirq`.
    Periodic,
    /// Page fault exception handler.
    PageFault,
    /// `schedule` plus `rcu_process_callbacks` and
    /// `run_rebalance_domains`.
    Scheduling,
    /// Kernel and user daemons preempting application processes.
    Preemption,
    /// Network interrupt handler, softirqs and tasklets.
    Io,
    /// Explicitly requested kernel service (syscalls): not noise.
    Requested,
}

impl NoiseCategory {
    /// The five noise categories of Fig 3 (excludes `Requested`).
    pub const NOISE: [NoiseCategory; 5] = [
        NoiseCategory::Periodic,
        NoiseCategory::PageFault,
        NoiseCategory::Scheduling,
        NoiseCategory::Preemption,
        NoiseCategory::Io,
    ];

    pub fn name(self) -> &'static str {
        match self {
            NoiseCategory::Periodic => "periodic",
            NoiseCategory::PageFault => "page fault",
            NoiseCategory::Scheduling => "scheduling",
            NoiseCategory::Preemption => "preemption",
            NoiseCategory::Io => "I/O",
            NoiseCategory::Requested => "requested",
        }
    }
}

impl Activity {
    /// Paper §IV-A category assignment.
    pub fn category(self) -> NoiseCategory {
        match self {
            Activity::TimerInterrupt | Activity::HrTimerInterrupt => NoiseCategory::Periodic,
            Activity::Softirq(SoftirqVec::Timer) => NoiseCategory::Periodic,
            Activity::PageFault(_) => NoiseCategory::PageFault,
            Activity::Schedule(_) => NoiseCategory::Scheduling,
            Activity::Softirq(SoftirqVec::Rcu) | Activity::Softirq(SoftirqVec::Rebalance) => {
                NoiseCategory::Scheduling
            }
            Activity::NetworkInterrupt
            | Activity::Softirq(SoftirqVec::NetRx)
            | Activity::Softirq(SoftirqVec::NetTx) => NoiseCategory::Io,
            Activity::Syscall(_) => NoiseCategory::Requested,
            // The guest makes no progress while the host runs someone
            // else: to the application this is a preemption.
            Activity::Steal => NoiseCategory::Preemption,
        }
    }

    /// Whether the activity counts as OS noise when it interrupts a
    /// runnable application process.
    #[inline]
    pub fn is_noise(self) -> bool {
        self.category() != NoiseCategory::Requested
    }

    /// Whether this activity runs in hard-interrupt context and may
    /// therefore nest on top of softirqs, exceptions, and syscalls.
    #[inline]
    pub fn is_hardirq(self) -> bool {
        matches!(
            self,
            Activity::TimerInterrupt
                | Activity::HrTimerInterrupt
                | Activity::NetworkInterrupt
                | Activity::Steal
        )
    }

    pub fn name(self) -> &'static str {
        match self {
            Activity::TimerInterrupt => "timer_interrupt",
            Activity::HrTimerInterrupt => "hrtimer_interrupt",
            Activity::NetworkInterrupt => "network_interrupt",
            Activity::Softirq(v) => v.name(),
            Activity::PageFault(_) => "page_fault",
            Activity::Schedule(SchedPart::Before) => "schedule_pre",
            Activity::Schedule(SchedPart::After) => "schedule_post",
            Activity::Syscall(k) => k.name(),
            Activity::Steal => "steal",
        }
    }

    /// A stable small integer code for compact trace encoding. Codes are
    /// part of the wire format; append-only.
    pub fn code(self) -> u16 {
        match self {
            Activity::TimerInterrupt => 1,
            Activity::HrTimerInterrupt => 2,
            Activity::NetworkInterrupt => 3,
            Activity::Softirq(SoftirqVec::Timer) => 4,
            Activity::Softirq(SoftirqVec::NetTx) => 5,
            Activity::Softirq(SoftirqVec::NetRx) => 6,
            Activity::Softirq(SoftirqVec::Rcu) => 7,
            Activity::Softirq(SoftirqVec::Rebalance) => 8,
            Activity::PageFault(FaultKind::AnonZero) => 9,
            Activity::PageFault(FaultKind::AnonReclaim) => 10,
            Activity::PageFault(FaultKind::FileBacked) => 11,
            Activity::PageFault(FaultKind::Cow) => 12,
            Activity::Schedule(SchedPart::Before) => 13,
            Activity::Schedule(SchedPart::After) => 14,
            Activity::Syscall(SyscallKind::Read) => 15,
            Activity::Syscall(SyscallKind::Write) => 16,
            Activity::Syscall(SyscallKind::Mmap) => 17,
            Activity::Syscall(SyscallKind::Munmap) => 18,
            Activity::Syscall(SyscallKind::Nanosleep) => 19,
            Activity::Syscall(SyscallKind::Gettime) => 20,
            Activity::Syscall(SyscallKind::Other) => 21,
            Activity::Steal => 22,
        }
    }

    /// Inverse of [`Activity::code`].
    pub fn from_code(code: u16) -> Option<Activity> {
        Some(match code {
            1 => Activity::TimerInterrupt,
            2 => Activity::HrTimerInterrupt,
            3 => Activity::NetworkInterrupt,
            4 => Activity::Softirq(SoftirqVec::Timer),
            5 => Activity::Softirq(SoftirqVec::NetTx),
            6 => Activity::Softirq(SoftirqVec::NetRx),
            7 => Activity::Softirq(SoftirqVec::Rcu),
            8 => Activity::Softirq(SoftirqVec::Rebalance),
            9 => Activity::PageFault(FaultKind::AnonZero),
            10 => Activity::PageFault(FaultKind::AnonReclaim),
            11 => Activity::PageFault(FaultKind::FileBacked),
            12 => Activity::PageFault(FaultKind::Cow),
            13 => Activity::Schedule(SchedPart::Before),
            14 => Activity::Schedule(SchedPart::After),
            15 => Activity::Syscall(SyscallKind::Read),
            16 => Activity::Syscall(SyscallKind::Write),
            17 => Activity::Syscall(SyscallKind::Mmap),
            18 => Activity::Syscall(SyscallKind::Munmap),
            19 => Activity::Syscall(SyscallKind::Nanosleep),
            20 => Activity::Syscall(SyscallKind::Gettime),
            21 => Activity::Syscall(SyscallKind::Other),
            22 => Activity::Steal,
            _ => return None,
        })
    }

    /// Every activity variant (for exhaustive tests and report layouts).
    pub fn all() -> Vec<Activity> {
        (1..=22).filter_map(Activity::from_code).collect()
    }
}

impl fmt::Display for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Activity::PageFault(k) => write!(f, "page_fault[{}]", k.name()),
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip_is_total() {
        for a in Activity::all() {
            assert_eq!(Activity::from_code(a.code()), Some(a), "{a}");
        }
        assert_eq!(Activity::from_code(0), None);
        assert_eq!(Activity::from_code(999), None);
    }

    #[test]
    fn codes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for a in Activity::all() {
            assert!(seen.insert(a.code()), "duplicate code for {a}");
        }
        assert_eq!(seen.len(), 22);
    }

    #[test]
    fn categories_match_paper_sec_iv_a() {
        use Activity as A;
        use NoiseCategory as C;
        assert_eq!(A::TimerInterrupt.category(), C::Periodic);
        assert_eq!(A::Softirq(SoftirqVec::Timer).category(), C::Periodic);
        assert_eq!(A::PageFault(FaultKind::AnonZero).category(), C::PageFault);
        assert_eq!(A::Schedule(SchedPart::Before).category(), C::Scheduling);
        assert_eq!(A::Softirq(SoftirqVec::Rcu).category(), C::Scheduling);
        assert_eq!(A::Softirq(SoftirqVec::Rebalance).category(), C::Scheduling);
        assert_eq!(A::NetworkInterrupt.category(), C::Io);
        assert_eq!(A::Softirq(SoftirqVec::NetRx).category(), C::Io);
        assert_eq!(A::Softirq(SoftirqVec::NetTx).category(), C::Io);
        assert_eq!(A::Syscall(SyscallKind::Read).category(), C::Requested);
        assert_eq!(A::Steal.category(), C::Preemption);
    }

    #[test]
    fn syscalls_are_not_noise() {
        assert!(!Activity::Syscall(SyscallKind::Read).is_noise());
        assert!(Activity::TimerInterrupt.is_noise());
        assert!(Activity::PageFault(FaultKind::Cow).is_noise());
    }

    #[test]
    fn hardirq_flags() {
        assert!(Activity::TimerInterrupt.is_hardirq());
        assert!(Activity::NetworkInterrupt.is_hardirq());
        assert!(Activity::HrTimerInterrupt.is_hardirq());
        // Steal can land on any context, so it nests like a hard IRQ.
        assert!(Activity::Steal.is_hardirq());
        assert!(!Activity::Softirq(SoftirqVec::Timer).is_hardirq());
        assert!(!Activity::PageFault(FaultKind::AnonZero).is_hardirq());
    }

    #[test]
    fn softirq_bits_are_distinct() {
        let mut mask = 0u8;
        for v in SoftirqVec::ALL {
            assert_eq!(mask & v.bit(), 0);
            mask |= v.bit();
        }
        assert_eq!(mask.count_ones(), 5);
    }

    #[test]
    fn display_names() {
        assert_eq!(Activity::TimerInterrupt.to_string(), "timer_interrupt");
        assert_eq!(
            Activity::PageFault(FaultKind::Cow).to_string(),
            "page_fault[cow]"
        );
        assert_eq!(
            Activity::Softirq(SoftirqVec::Rebalance).to_string(),
            "run_rebalance_domains"
        );
    }
}
