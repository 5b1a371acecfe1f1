//! K-way merge of sorted streams.
//!
//! Every merge in the workspace goes through [`merge_by_key`]: the
//! per-CPU event streams ([`merge_streams`]), a trace's per-CPU columns
//! ([`crate::Trace::events`]) and the analysis's per-CPU pairing shards
//! (`osn_analysis::nesting`). The stream count is the CPU count —
//! single digits — so a linear scan over the live heads beats a binary
//! heap: no sift traffic. The heads sit in one array of their own and
//! the scan selects instead of branching, because which stream is
//! smallest changes unpredictably from record to record (runs from one
//! stream average 1.2–3 records on the paper node's instance shards).
//! It is O(n k) with k streams, and reproduces the stable-sort order
//! exactly: ties go to the earlier stream, and each stream's own order
//! is kept.

use crate::event::Event;

/// Visit the records of `lens.len()` streams, each sorted by `key`, in
/// ascending key order: `emit(i, j)` is called once for record `j` of
/// stream `i`, whose key is `key(i, j)`. Equal keys go in stream
/// order, then in each stream's order — the order of a stable sort of
/// the concatenated streams.
pub fn merge_by_key<K: Ord + Copy>(
    lens: &[usize],
    key: impl Fn(usize, usize) -> K,
    mut emit: impl FnMut(usize, usize),
) {
    // The head key, stream and cursor of every stream with records
    // left, in stream order, so the first minimum found is the earliest
    // stream.
    let mut streams: Vec<usize> = (0..lens.len()).filter(|&i| lens[i] > 0).collect();
    let mut heads: Vec<K> = streams.iter().map(|&i| key(i, 0)).collect();
    let mut cursors: Vec<usize> = vec![0; streams.len()];
    while heads.len() > 1 {
        let (mut best, mut low) = (0, heads[0]);
        for (h, &k) in heads.iter().enumerate().skip(1) {
            let less = k < low;
            best = std::hint::select_unpredictable(less, h, best);
            low = std::hint::select_unpredictable(less, k, low);
        }
        let (i, j) = (streams[best], cursors[best]);
        emit(i, j);
        if j + 1 < lens[i] {
            cursors[best] = j + 1;
            heads[best] = key(i, j + 1);
        } else {
            streams.remove(best);
            heads.remove(best);
            cursors.remove(best);
        }
    }
    if let (Some(&i), Some(&first)) = (streams.first(), cursors.first()) {
        (first..lens[i]).for_each(|j| emit(i, j));
    }
}

/// Merge already time-sorted streams into one `(t, cpu)`-ordered
/// vector. Equivalent to concatenating the streams in order and
/// stable-sorting by [`Event::key`], for any input where each stream is
/// internally sorted by key.
pub fn merge_streams(mut streams: Vec<Vec<Event>>) -> Vec<Event> {
    streams.retain(|s| !s.is_empty());
    if streams.len() <= 1 {
        return streams.pop().unwrap_or_default();
    }
    let mut out = Vec::new();
    merge_streams_into(&streams, &mut out);
    out
}

/// [`merge_streams`] into `out` (cleared first), leaving the streams
/// in place so their buffers can be refilled.
pub fn merge_streams_into(streams: &[Vec<Event>], out: &mut Vec<Event>) {
    let lens: Vec<usize> = streams.iter().map(Vec::len).collect();
    out.clear();
    out.reserve(lens.iter().sum());
    merge_by_key(
        &lens,
        // `Event::key` packed into one integer, which the merge's scan
        // compares without a branch.
        |i, j| {
            let (t, cpu) = streams[i][j].key();
            (t.as_nanos() as u128) << 16 | cpu as u128
        },
        |i, j| out.push(streams[i][j]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use osn_kernel::ids::{CpuId, Tid};
    use osn_kernel::time::Nanos;

    fn ev(t: u64, cpu: u16) -> Event {
        Event {
            t: Nanos(t),
            cpu: CpuId(cpu),
            tid: Tid(1),
            kind: EventKind::AppMark { mark: 0, value: 0 },
        }
    }

    #[test]
    fn merge_matches_stable_sort() {
        let streams = vec![
            vec![ev(1, 0), ev(5, 0), ev(5, 0), ev(9, 0)],
            vec![ev(2, 1), ev(5, 1), ev(6, 1)],
            vec![],
            vec![ev(5, 2)],
        ];
        let mut expect: Vec<Event> = streams.iter().flatten().copied().collect();
        expect.sort_by_key(|e| e.key());
        assert_eq!(merge_streams(streams), expect);
    }

    #[test]
    fn merge_empty_and_single() {
        assert!(merge_streams(vec![]).is_empty());
        assert!(merge_streams(vec![vec![], vec![]]).is_empty());
        let one = vec![ev(3, 0), ev(4, 0)];
        assert_eq!(merge_streams(vec![one.clone()]), one);
    }
}
