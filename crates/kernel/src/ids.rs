//! Small copy identifiers used throughout the simulator.

use core::fmt;

use serde::{Deserialize, Serialize};

/// A CPU (hardware thread) index on the simulated compute node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct CpuId(pub u16);

impl CpuId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// A task (process/thread) identifier. Tid 0 is reserved for the
/// per-CPU idle tasks' family; real tasks start at 1, like Linux pids.
/// `Default` yields the idle sentinel.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Tid(pub u32);

impl Tid {
    /// Sentinel used in trace records for "no task" / idle.
    pub const IDLE: Tid = Tid(0);

    #[inline]
    pub fn is_idle(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tid{}", self.0)
    }
}

/// A virtual memory region handle inside one task's address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegionId(pub u32);

/// A software-timer handle (kernel `struct timer_list` analogue).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(pub u32);

/// An MPI-like job: a gang of ranks that synchronize on barriers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct JobId(pub u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_sentinel() {
        assert!(Tid::IDLE.is_idle());
        assert!(!Tid(3).is_idle());
    }

    #[test]
    fn display() {
        assert_eq!(CpuId(3).to_string(), "cpu3");
        assert_eq!(Tid(7).to_string(), "tid7");
    }

    #[test]
    fn cpu_index() {
        assert_eq!(CpuId(5).index(), 5usize);
    }
}
