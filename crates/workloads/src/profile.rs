//! Per-application stimulus profiles.
//!
//! Each profile captures how one LLNL Sequoia benchmark *stresses the
//! kernel* — its page-fault rate and placement, fault-kind mix, I/O
//! intensity, helper processes — calibrated so the per-event statistics
//! of Tables I–VI and the Fig 3 breakdown shapes re-emerge from the
//! simulator. The compute itself is abstract (the paper studies the
//! OS, not the applications).
//!
//! Calibration anchors (paper values, per-process ev/s):
//!
//! | app    | faults/s | fault profile                | net irq/s | preempt   |
//! |--------|----------|------------------------------|-----------|-----------|
//! | AMG    | 1693     | bimodal 2.5/4.5 µs, 69 ms max| 116       | low       |
//! | IRS    | 1488     | mid, 4.8 ms max              | 87        | 27 %      |
//! | LAMMPS | 231      | init/end only, one-sided     | 11        | 80 %      |
//! | SPHOT  | 25       | tiny                         | 21        | 25 %      |
//! | UMT    | 3554     | heavy, python helpers        | 77        | mixed     |

use osn_kernel::mm::Backing;
use osn_kernel::time::Nanos;

use serde::{Deserialize, Serialize};

/// Which Sequoia benchmark — or a native host capture, which is not a
/// simulated workload at all but needs an `App` identity so captured
/// `.osn` stores flow through the same metadata and report paths.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum App {
    Amg,
    Irs,
    Lammps,
    Sphot,
    Umt,
    /// The `osnoise capture` FTQ recorder running on the real host.
    /// Deliberately absent from [`App::ALL`]: campaigns and benches
    /// iterate only the simulated Sequoia apps.
    Native,
}

impl App {
    pub const ALL: [App; 5] = [App::Amg, App::Irs, App::Lammps, App::Sphot, App::Umt];

    pub fn name(self) -> &'static str {
        match self {
            App::Amg => "amg",
            App::Irs => "irs",
            App::Lammps => "lammps",
            App::Sphot => "sphot",
            App::Umt => "umt",
            App::Native => "native",
        }
    }

    pub fn profile(self, duration: Nanos) -> Profile {
        Profile::of(self, duration)
    }
}

/// A weighted mix of region backings for steady-state allocations.
#[derive(Clone, Debug)]
pub struct BackingMix {
    /// `(weight, backing)`; weights are relative.
    pub parts: Vec<(f64, Backing)>,
}

impl BackingMix {
    pub fn pick(&self, u: f64) -> Backing {
        let total: f64 = self.parts.iter().map(|(w, _)| *w).sum();
        let mut x = u * total;
        for (w, b) in &self.parts {
            if x < *w {
                return *b;
            }
            x -= w;
        }
        self.parts
            .last()
            .map(|(_, b)| *b)
            .unwrap_or(Backing::AnonFresh)
    }
}

/// The full stimulus profile of one rank of one application.
#[derive(Clone, Debug)]
pub struct Profile {
    pub app: App,
    /// Interrupt-cost inflation while this rank runs (per-app tick
    /// durations of Table V).
    pub cache_factor: f64,
    /// Approximate target duration of the run.
    pub duration: Nanos,

    // --- initialization phase ---
    /// Bytes read from NFS at startup (input deck, executable pages).
    pub input_read_bytes: u64,
    /// Pages touched during initialization.
    pub init_pages: u64,
    pub init_backing: Backing,

    // --- iteration phase ---
    /// Number of outer iterations.
    pub iterations: u64,
    /// Pure compute per iteration (before interruption).
    pub compute_per_iter: Nanos,
    /// Pages allocated + touched + freed per iteration (demand paging
    /// during computation: AMG/IRS/UMT's steady fault stream).
    pub pages_per_iter: u64,
    /// Fault-kind mix for per-iteration allocations.
    pub iter_mix: BackingMix,
    /// User work spent per touched page.
    pub work_per_page: Nanos,
    /// Barrier at each iteration end (BSP-style).
    pub barrier_per_iter: bool,
    /// Buffered (writeback) bytes, issued every `writeback_every`
    /// iterations; 0 bytes for none.
    pub buffered_write_per_iter: u64,
    /// Writeback period in iterations (≥1).
    pub writeback_every: u64,
    /// Synchronous I/O: every `sync_io_every` iterations (0 = never)
    /// read+write this many bytes, blocking.
    pub sync_io_every: u64,
    pub sync_io_bytes: u64,
    /// Issue the synchronous I/O at the iteration start (true) or just
    /// before the barrier (false). Dump-before-barrier means the
    /// completion interrupts land while peers wait at the barrier.
    pub sync_io_at_start: bool,

    // --- finalization ---
    /// Pages touched at the end (LAMMPS's end-of-run faults).
    pub final_pages: u64,
    /// Final output written synchronously.
    pub final_write_bytes: u64,

    // --- helpers ---
    /// Extra non-rank processes (UMT's Python/pyMPI scripts).
    pub helpers: u32,
}

impl Profile {
    /// The calibrated profile of `app` for a run of roughly
    /// `duration`.
    pub fn of(app: App, duration: Nanos) -> Profile {
        let secs = duration.as_secs_f64().max(0.1);
        // Iterations sized so each is ~40 ms of compute.
        let iter_len = Nanos::from_millis(40);
        let iterations =
            ((duration.as_nanos() as f64 * 0.92 / iter_len.as_nanos() as f64).ceil() as u64).max(1);
        let per_iter_faults =
            |per_sec: f64| -> u64 { ((per_sec * secs) / iterations as f64).round() as u64 };
        match app {
            App::Amg => Profile {
                app,
                cache_factor: 1.8,
                duration,
                input_read_bytes: 6 << 20,
                init_pages: 2_000,
                init_backing: Backing::AnonFresh,
                iterations,
                compute_per_iter: iter_len,
                // Table I: 1693 faults/s, spread through the run with
                // the Fig 4a bimodal (zero-page + reclaim) mix and the
                // 69 ms reclaim-storm tail.
                pages_per_iter: per_iter_faults(1693.0),
                iter_mix: BackingMix {
                    parts: vec![(0.42, Backing::AnonFresh), (0.58, Backing::AnonRecycled)],
                },
                work_per_page: Nanos(900),
                barrier_per_iter: true,
                // Table II: ≈116 net irq/s node-wide (observed from the
                // IRQ-CPU rank) from writeback of results: 8 ranks ×
                // 25 it/s × 1/2 ≈ 100 RPC/s.
                buffered_write_per_iter: 24 << 10,
                writeback_every: 1,
                sync_io_every: 0,
                sync_io_bytes: 0,
                sync_io_at_start: false,
                final_pages: 0,
                final_write_bytes: 2 << 20,
                helpers: 0,
            },
            App::Irs => Profile {
                app,
                cache_factor: 3.3,
                duration,
                input_read_bytes: 4 << 20,
                init_pages: 1_500,
                init_backing: Backing::AnonFresh,
                iterations,
                compute_per_iter: iter_len,
                // Table I: 1488 faults/s; max ≈ 4.8 ms → file-backed
                // tail rather than reclaim storms.
                pages_per_iter: per_iter_faults(1488.0),
                iter_mix: BackingMix {
                    parts: vec![
                        (0.30, Backing::AnonFresh),
                        (0.55, Backing::File),
                        (0.15, Backing::CowShared),
                    ],
                },
                work_per_page: Nanos(900),
                barrier_per_iter: true,
                buffered_write_per_iter: 16 << 10,
                writeback_every: 1,
                // Periodic checkpoint reads block: IRS's ≈27 % preemption
                // (each completion wakes the reader on the IRQ CPU,
                // displacing the rank there).
                sync_io_every: 35,
                sync_io_bytes: 48 << 10,
                sync_io_at_start: false,
                final_pages: 0,
                final_write_bytes: 1 << 20,
                helpers: 0,
            },
            App::Lammps => Profile {
                app,
                cache_factor: 2.0,
                duration,
                // Large input (atom coordinates) read at start.
                input_read_bytes: 16 << 20,
                // Fig 5b: faults "mainly located at the beginning and
                // the end".
                init_pages: (231.0 * secs * 0.75) as u64,
                init_backing: Backing::AnonFresh,
                iterations,
                compute_per_iter: iter_len,
                pages_per_iter: 0,
                iter_mix: BackingMix {
                    parts: vec![(1.0, Backing::AnonFresh)],
                },
                work_per_page: Nanos(700),
                barrier_per_iter: true,
                buffered_write_per_iter: 0,
                writeback_every: 1,
                // Synchronous trajectory dumps: few, large RPCs
                // (Table II: only ≈11 net irq/s) but every completion
                // wakes the writer on the IRQ CPU, displacing the rank
                // there (Fig 7: preemption-dominated, 80.2 %).
                sync_io_every: 10,
                sync_io_bytes: 768 << 10,
                sync_io_at_start: true,
                final_pages: (231.0 * secs * 0.25) as u64,
                final_write_bytes: 8 << 20,
                helpers: 0,
            },
            App::Sphot => Profile {
                app,
                cache_factor: 0.8,
                duration,
                input_read_bytes: 512 << 10,
                // Table I: 25 faults/s — almost everything fits.
                init_pages: 120,
                init_backing: Backing::AnonFresh,
                iterations,
                compute_per_iter: iter_len,
                pages_per_iter: per_iter_faults(25.0).max(1),
                iter_mix: BackingMix {
                    parts: vec![
                        (0.9, Backing::AnonFresh),
                        // The rare 889 µs max: a file-backed straggler.
                        (0.1, Backing::File),
                    ],
                },
                work_per_page: Nanos(700),
                barrier_per_iter: true,
                buffered_write_per_iter: 12 << 10,
                writeback_every: 5,
                sync_io_every: 0,
                sync_io_bytes: 0,
                sync_io_at_start: false,
                final_pages: 0,
                final_write_bytes: 256 << 10,
                helpers: 0,
            },
            App::Umt => Profile {
                app,
                cache_factor: 3.45,
                duration,
                input_read_bytes: 8 << 20,
                init_pages: 3_000,
                init_backing: Backing::AnonFresh,
                iterations,
                compute_per_iter: iter_len,
                // Table I: 3554 faults/s — the heaviest faulter
                // (Python object churn + mesh sweeps).
                pages_per_iter: per_iter_faults(3554.0),
                // Table I: UMT's max is only ≈50 µs — Python object
                // churn breaks COW pages and maps fresh arenas, but
                // never triggers reclaim storms.
                iter_mix: BackingMix {
                    parts: vec![(0.25, Backing::AnonFresh), (0.75, Backing::CowShared)],
                },
                work_per_page: Nanos(600),
                barrier_per_iter: true,
                buffered_write_per_iter: 24 << 10,
                writeback_every: 1,
                sync_io_every: 80,
                sync_io_bytes: 32 << 10,
                sync_io_at_start: false,
                final_pages: 0,
                final_write_bytes: 1 << 20,
                // "UMT runs several Python processes that may
                // 1) interrupt the computing tasks, and 2) trigger
                // process migration and domain balancing."
                helpers: 4,
            },
            // Native capture never runs through the simulator; the
            // profile is a compute-only placeholder so every `App` has
            // one.
            App::Native => Profile {
                app,
                cache_factor: 1.0,
                duration,
                input_read_bytes: 0,
                init_pages: 0,
                init_backing: Backing::AnonFresh,
                iterations,
                compute_per_iter: iter_len,
                pages_per_iter: 0,
                iter_mix: BackingMix {
                    parts: vec![(1.0, Backing::AnonFresh)],
                },
                work_per_page: Nanos(700),
                barrier_per_iter: false,
                buffered_write_per_iter: 0,
                writeback_every: 1,
                sync_io_every: 0,
                sync_io_bytes: 0,
                sync_io_at_start: false,
                final_pages: 0,
                final_write_bytes: 0,
                helpers: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_exist_for_all_apps() {
        for app in App::ALL {
            let p = app.profile(Nanos::from_secs(10));
            assert!(p.iterations > 0, "{}", app.name());
            assert!(p.compute_per_iter > Nanos::ZERO);
            assert!(!p.iter_mix.parts.is_empty());
        }
    }

    #[test]
    fn fault_rate_ordering_matches_table1() {
        // UMT > AMG > IRS >> LAMMPS > SPHOT in steady-state fault rate.
        let d = Nanos::from_secs(10);
        let steady = |app: App| {
            let p = app.profile(d);
            p.pages_per_iter * p.iterations + p.init_pages + p.final_pages
        };
        assert!(steady(App::Umt) > steady(App::Amg));
        assert!(steady(App::Amg) > steady(App::Irs));
        assert!(steady(App::Irs) > steady(App::Lammps));
        assert!(steady(App::Lammps) > steady(App::Sphot));
    }

    #[test]
    fn lammps_faults_are_edge_located() {
        let p = App::Lammps.profile(Nanos::from_secs(10));
        assert_eq!(p.pages_per_iter, 0, "no steady-state faults");
        assert!(p.init_pages > 0);
        assert!(p.final_pages > 0);
    }

    #[test]
    fn umt_has_helpers_and_the_most_faults() {
        let p = App::Umt.profile(Nanos::from_secs(10));
        assert!(p.helpers > 0);
    }

    #[test]
    fn backing_mix_covers_unit_interval() {
        let mix = BackingMix {
            parts: vec![(0.5, Backing::AnonFresh), (0.5, Backing::File)],
        };
        assert_eq!(mix.pick(0.0), Backing::AnonFresh);
        assert_eq!(mix.pick(0.49), Backing::AnonFresh);
        assert_eq!(mix.pick(0.51), Backing::File);
        assert_eq!(mix.pick(0.99), Backing::File);
    }

    #[test]
    fn cache_factor_ordering_matches_table5() {
        // Table V tick averages: UMT ≈ IRS > LAMMPS ≈ AMG > SPHOT.
        let d = Nanos::from_secs(5);
        let f = |a: App| a.profile(d).cache_factor;
        assert!(f(App::Umt) > f(App::Lammps));
        assert!(f(App::Irs) > f(App::Amg));
        assert!(f(App::Lammps) > f(App::Sphot));
    }
}
