//! The workspace's one scoped worker pool: the sharded analysis
//! engine, `run_campaign` and the cluster campaign's node and rank jobs
//! (crates/core) all run on [`parallel_map`]. Workers pull the next
//! job index off a shared atomic counter, so work is bounded by the
//! worker count and never oversubscribes the host. Results come back
//! in index order regardless of completion order, which keeps every
//! parallel stage deterministic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Host threads to use for `n` independent shards.
pub fn default_workers(n: usize) -> usize {
    std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1)
        .min(n)
        .max(1)
}

/// Map `f` over `0..n` with at most `workers` host threads, returning
/// results in index order. `workers <= 1` (or `n <= 1`) runs inline —
/// no thread is spawned, so tiny inputs pay no pool overhead.
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
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                if tx.send((idx, f(idx))).is_err() {
                    break;
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
}
