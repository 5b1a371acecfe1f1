//! The workspace's one scoped worker pool: the sharded analysis
//! engine, `run_campaign` and the cluster campaign's node and rank jobs
//! (crates/core) all run on [`parallel_map`]. Workers pull the next
//! job index off a shared atomic counter. Results come back in index
//! order regardless of completion order, which keeps every parallel
//! stage deterministic.
//!
//! Pools nest (a cluster node's analysis runs inside a node worker), so
//! every thread carries a worker budget. A top-level thread's budget is
//! `available_parallelism()`; each worker [`parallel_map`] starts gets
//! `max(1, caller's budget / workers used)`. [`default_workers`] never
//! exceeds the calling thread's budget, so pools sized by it share one
//! host-wide thread budget instead of multiplying it. An explicit
//! worker count passed to [`parallel_map`] is taken as given.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

thread_local! {
    /// This thread's worker budget; `None` on a thread no pool started.
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The calling thread's worker budget.
fn budget() -> usize {
    BUDGET.with(Cell::get).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|w| w.get())
            .unwrap_or(1)
    })
}

/// Host threads to use for `n` independent shards: at most the calling
/// thread's worker budget.
pub fn default_workers(n: usize) -> usize {
    budget().min(n).max(1)
}

/// Map `f` over `0..n` with at most `workers` host threads, returning
/// results in index order. `workers <= 1` (or `n <= 1`) runs inline —
/// no thread is spawned, so tiny inputs pay no pool overhead. Each
/// started worker's budget is the caller's split evenly across them.
pub fn parallel_map<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.min(n).max(1);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let child_budget = (budget() / workers).max(1);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || {
                BUDGET.with(|b| b.set(Some(child_budget)));
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    if tx.send((idx, f(idx))).is_err() {
                        break;
                    }
                }
            });
        }
    });
    drop(tx);
    let mut out: Vec<Option<T>> = Vec::new();
    out.resize_with(n, || None);
    for (idx, v) in rx {
        out[idx] = Some(v);
    }
    out.into_iter()
        .map(|v| v.expect("worker panicked"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_index_order() {
        for workers in [1, 2, 5] {
            let out = parallel_map(17, workers, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_oversized_pools() {
        assert!(parallel_map(0, 4, |i| i).is_empty());
        assert_eq!(parallel_map(2, 64, |i| i), vec![0, 1]);
    }

    #[test]
    fn nested_pools_split_the_budget() {
        // As many workers as this thread's budget (at least 2, so a
        // pool starts): each worker's budget is then 1 on any host.
        let workers = default_workers(usize::MAX).max(2);
        let inner = parallel_map(workers, workers, |_| {
            let me = std::thread::current().id();
            let ran_on = parallel_map(8, default_workers(8), |_| std::thread::current().id());
            (default_workers(64), ran_on.iter().all(|&id| id == me))
        });
        assert!(inner.iter().all(|&(w, inline)| w == 1 && inline));
    }
}
