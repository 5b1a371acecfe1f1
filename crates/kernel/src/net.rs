//! The network / NFS substrate.
//!
//! The paper's compute node "is connected to an NFS server through the
//! `rpciod` I/O daemon": application reads and writes become RPCs that
//! `rpciod` transmits; responses arrive as network interrupts followed
//! by `net_rx_action`, which wakes the blocked task *on the CPU that
//! received the interrupt* (§IV-D) — the mechanism behind LAMMPS's
//! preemption-dominated noise profile.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::ids::Tid;
use crate::rng::{Dist, Stream};
use crate::time::Nanos;

/// RPC handle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RpcId(pub u64);

/// RPC direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RpcOp {
    Read,
    Write,
}

/// An in-flight NFS RPC.
#[derive(Clone, Copy, Debug)]
pub struct Rpc {
    pub id: RpcId,
    pub issuer: Tid,
    pub op: RpcOp,
    pub bytes: u64,
    /// Whether the issuer blocks until the response (synchronous read /
    /// O_SYNC write) or the RPC is asynchronous writeback.
    pub blocking: bool,
    pub submitted_at: Nanos,
}

/// NFS server + wire model: how long after transmission the response
/// interrupt arrives.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NfsModel {
    /// Base round-trip + server service latency distribution.
    pub base_latency: Dist,
    /// Extra nanoseconds per KiB transferred (wire + server copy).
    pub ns_per_kib: f64,
    /// Floor/cap on the total response delay.
    pub min_delay: Nanos,
    pub max_delay: Nanos,
}

impl Default for NfsModel {
    fn default() -> Self {
        // A GigE-class private LAN with a lightly loaded server:
        // ~100–400 µs RTT plus ~8 µs/KiB effective (protocol + copy).
        NfsModel {
            base_latency: Dist::LogNormal {
                median_ns: 180_000.0,
                sigma: 0.5,
            },
            ns_per_kib: 8_000.0,
            min_delay: Nanos::from_micros(60),
            max_delay: Nanos::from_millis(50),
        }
    }
}

impl NfsModel {
    /// Sample the response delay for an RPC of `bytes`.
    pub fn response_delay(&self, s: &mut Stream, bytes: u64) -> Nanos {
        let base = self.base_latency.sample(s, self.min_delay, self.max_delay);
        let per_size = Nanos::from_nanos_f64(bytes as f64 / 1024.0 * self.ns_per_kib);
        (base + per_size).min(self.max_delay)
    }
}

/// The RPC subsystem state: the submit queue `rpciod` drains, plus
/// in-flight bookkeeping.
#[derive(Debug, Default)]
pub struct RpcState {
    next_id: u64,
    /// RPCs issued by tasks, not yet processed by rpciod.
    pub submit_queue: VecDeque<Rpc>,
    /// RPCs transmitted, awaiting their response interrupt.
    in_flight: Vec<Rpc>,
    /// Completed counter (stats).
    pub completed: u64,
}

impl RpcState {
    pub fn new() -> Self {
        RpcState::default()
    }

    /// Create and enqueue a new RPC for `rpciod`.
    pub fn submit(
        &mut self,
        issuer: Tid,
        op: RpcOp,
        bytes: u64,
        blocking: bool,
        now: Nanos,
    ) -> RpcId {
        let id = RpcId(self.next_id);
        self.next_id += 1;
        self.submit_queue.push_back(Rpc {
            id,
            issuer,
            op,
            bytes,
            blocking,
            submitted_at: now,
        });
        id
    }

    /// rpciod takes the next RPC to transmit.
    pub fn pop_submit(&mut self) -> Option<Rpc> {
        self.submit_queue.pop_front()
    }

    /// Mark an RPC as transmitted / awaiting response.
    pub fn mark_in_flight(&mut self, rpc: Rpc) {
        self.in_flight.push(rpc);
    }

    /// The response for `id` arrived; remove and return it.
    pub fn complete(&mut self, id: RpcId) -> Option<Rpc> {
        let idx = self.in_flight.iter().position(|r| r.id == id)?;
        self.completed += 1;
        Some(self.in_flight.swap_remove(idx))
    }

    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_lifecycle() {
        let mut st = RpcState::new();
        let id = st.submit(Tid(5), RpcOp::Read, 4096, true, Nanos(100));
        assert_eq!(st.submit_queue.len(), 1);
        let rpc = st.pop_submit().unwrap();
        assert_eq!(rpc.id, id);
        assert_eq!(rpc.issuer, Tid(5));
        assert!(st.pop_submit().is_none());
        st.mark_in_flight(rpc);
        assert_eq!(st.in_flight_len(), 1);
        let done = st.complete(id).unwrap();
        assert_eq!(done.bytes, 4096);
        assert_eq!(st.in_flight_len(), 0);
        assert_eq!(st.completed, 1);
        assert!(st.complete(id).is_none());
    }

    #[test]
    fn rpc_ids_are_unique_and_ordered() {
        let mut st = RpcState::new();
        let a = st.submit(Tid(1), RpcOp::Write, 1, false, Nanos(0));
        let b = st.submit(Tid(1), RpcOp::Write, 1, false, Nanos(0));
        assert_ne!(a, b);
        assert_eq!(st.pop_submit().unwrap().id, a, "FIFO order");
    }

    #[test]
    fn response_delay_scales_with_size() {
        let model = NfsModel::default();
        let mut s = Stream::new(1, "nfs");
        let n = 2000;
        let avg = |bytes: u64, s: &mut Stream| -> f64 {
            (0..n)
                .map(|_| model.response_delay(s, bytes).as_nanos() as f64)
                .sum::<f64>()
                / n as f64
        };
        let small = avg(512, &mut s);
        let large = avg(256 * 1024, &mut s);
        assert!(
            large > small + 1_000_000.0,
            "large {large} vs small {small}"
        );
    }

    #[test]
    fn response_delay_bounded() {
        let model = NfsModel::default();
        let mut s = Stream::new(2, "nfs");
        for _ in 0..2000 {
            let d = model.response_delay(&mut s, 1 << 20);
            assert!(d >= model.min_delay && d <= model.max_delay);
        }
    }
}
