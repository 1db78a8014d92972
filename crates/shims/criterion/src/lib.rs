//! Offline stand-in for the `criterion` crate (see `crates/shims/`).
//!
//! Supports the bench-harness surface `benches/store_micro.rs` uses:
//! `criterion_group!` / `criterion_main!`, benchmark groups with
//! `measurement_time` / `sample_size`, `bench_function` with
//! `BenchmarkId`, and `Bencher::{iter, iter_batched}`. Each benchmark
//! runs `sample_size` samples and prints mean wall time per sample; no
//! statistics, plots, or outlier analysis. Of upstream's command line it
//! honours `--test` (run every benchmark once, to check that it runs)
//! and a positional filter (run the benchmarks whose `group/id` contains
//! it); other flags, such as the `--bench` cargo passes, are ignored.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Batch handling mode for [`Bencher::iter_batched`]; the stand-in runs
/// one setup per routine invocation regardless of variant.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Fresh setup for every iteration.
    PerIteration,
    /// Small batches (treated as per-iteration here).
    SmallInput,
    /// Large batches (treated as per-iteration here).
    LargeInput,
}

/// A benchmark label.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Label formed from a parameter's display form.
    pub fn from_parameter<P: Display>(p: P) -> Self {
        BenchmarkId(p.to_string())
    }

    /// Label formed from a function name plus a parameter.
    pub fn new<P: Display>(name: &str, p: P) -> Self {
        BenchmarkId(format!("{name}/{p}"))
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Runs measured closures for one benchmark.
pub struct Bencher {
    samples: usize,
    /// Mean measured duration of one sample, filled in by the iter calls.
    elapsed: Duration,
}

impl Bencher {
    /// Measures `routine` with no per-iteration setup.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.samples {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed() / self.samples as u32;
    }

    /// Measures `routine` over inputs produced by `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total / self.samples as u32;
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the stand-in is bounded by
    /// `sample_size`, not wall time.
    pub fn measurement_time(&mut self, _time: Duration) -> &mut Self {
        self
    }

    /// Sets how many samples each benchmark runs.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark and prints its mean sample time.
    pub fn bench_function<F>(&mut self, id: BenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full_id = format!("{}/{}", self.name, id);
        if !self.parent.selects(&full_id) {
            return self;
        }
        let samples = if self.parent.test_mode {
            1
        } else {
            self.sample_size
        };
        let mut b = Bencher {
            samples,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        println!(
            "{full_id}: {:>12.3?} per sample ({samples} samples)",
            b.elapsed
        );
        self
    }

    /// Ends the group.
    pub fn finish(&mut self) {}
}

/// Benchmark driver.
pub struct Criterion {
    /// `--test`: one sample per benchmark.
    test_mode: bool,
    /// Positional argument: only benchmarks whose id contains it run.
    filter: Option<String>,
}

impl Default for Criterion {
    /// Configured from the process's command line.
    fn default() -> Self {
        let mut args = std::env::args().skip(1);
        Criterion {
            test_mode: std::env::args().any(|a| a == "--test"),
            filter: args.find(|a| !a.starts_with("--")),
        }
    }
}

impl Criterion {
    /// Whether the command line selects the benchmark `full_id`.
    fn selects(&self, full_id: &str) -> bool {
        self.filter.as_ref().is_none_or(|f| full_id.contains(f))
    }

    /// Starts a named group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: 10,
            parent: self,
        }
    }
}

/// Declares a function that runs each benchmark function in order.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
