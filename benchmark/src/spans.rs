//! The traced run's span recorder. Each call into a layer is wrapped
//! from the benchmark's side in a span — name, start, end, parent span
//! and op id — kept in memory per thread and written out when the run
//! ends. A layer's self time is its span's duration minus the time its
//! child spans cover. Spans inside the program itself are not recorded
//! here.

use std::collections::HashMap;
use std::time::Instant;

use serde::Serialize;

use crate::stats;

#[derive(Clone, Debug, Serialize)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's recorder. Spans nest by call order: `begin` opens a
/// child of the innermost open span and `end` closes it. When disabled
/// every call is a no-op, so traced and untraced runs share one code
/// path and differ only by the recording itself.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    op: u64,
    open: Vec<(u64, &'static str, u64)>,
    done: Vec<Span>,
}

impl Spans {
    /// `thread` keeps span and op ids unique across the threads of one
    /// run; all threads share `origin` so their clocks line up.
    pub fn new(enabled: bool, origin: Instant, thread: u64) -> Spans {
        Spans {
            enabled,
            origin,
            next_id: thread << 40,
            op: thread << 40,
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start the next op: spans recorded until the next call share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        if self.enabled {
            self.next_id += 1;
            let start = self.now();
            self.open.push((self.next_id, name, start));
        }
    }

    pub fn end(&mut self) {
        if self.enabled {
            let end_ns = self.now();
            let (id, name, start_ns) = self.open.pop().expect("end() without begin()");
            self.done.push(Span {
                id,
                parent: self.open.last().map(|(p, _, _)| *p),
                name,
                op: self.op,
                start_ns,
                end_ns,
            });
        }
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open: {:?}", self.open);
        self.done
    }
}

/// Self time per span id: duration minus the summed durations of its
/// children (children of one span are sequential on one thread, so they
/// never overlap).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut out: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.duration_ns())).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            if let Some(t) = out.get_mut(&parent) {
                *t = t.saturating_sub(s.duration_ns());
            }
        }
    }
    out
}

/// Per-layer aggregates of one run's spans.
pub struct Profile<'a> {
    spans: &'a [Span],
    self_ns: HashMap<u64, u64>,
}

impl<'a> Profile<'a> {
    pub fn new(spans: &'a [Span]) -> Profile<'a> {
        Profile {
            spans,
            self_ns: self_times(spans),
        }
    }

    fn named(&self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed self time of every span named `name`, in ms per op.
    pub fn self_ms_per_op(&self, name: &str, ops: usize) -> f64 {
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.self_ns[&s.id])
            .sum();
        total as f64 / 1e6 / ops.max(1) as f64
    }

    /// Summed full duration of every span named `name`, in ms.
    pub fn total_ms(&self, name: &'a str) -> f64 {
        self.named(name).map(|s| s.duration_ns()).sum::<u64>() as f64 / 1e6
    }

    /// Durations of the spans named `name`, in ms.
    pub fn durations_ms(&self, name: &'a str) -> Vec<f64> {
        self.named(name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    pub fn p50_ms(&self, name: &'a str) -> f64 {
        stats::median(&self.durations_ms(name))
    }

    pub fn count(&self, name: &'a str) -> usize {
        self.named(name).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut spans = Spans::new(true, Instant::now(), 1);
        spans.next_op();
        spans.begin("root");
        spans.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.time("child", || ());
        spans.end();
        let spans = spans.finish();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name == "child")
            .all(|c| c.parent == Some(root.id) && c.op == root.op));
        let profile = Profile::new(&spans);
        let child_ms = profile.total_ms("child");
        assert!(child_ms >= 2.0);
        let root_self = profile.self_ms_per_op("root", 1);
        let root_ms = root.duration_ns() as f64 / 1e6;
        assert!((root_self - (root_ms - child_ms)).abs() < 1e-6);
        assert_eq!(profile.count("child"), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false, Instant::now(), 0);
        spans.begin("x");
        spans.end();
        assert!(spans.finish().is_empty());
    }
}
