//! Offline shim for the subset of `criterion` used by this workspace.
//!
//! The build environment has no network access, so the workspace
//! replaces crates.io `criterion` with this path dependency. Bench
//! sources compile unchanged; running a bench executes each closure a
//! fixed warm-up plus `sample_size` timed passes and prints a
//! mean/min/max summary line per benchmark. There is no statistical
//! analysis, outlier rejection, or HTML report — this shim exists so
//! `cargo bench` keeps producing comparable relative numbers offline
//! and so `cargo test`/`clippy --all-targets` can build bench targets.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

use std::fmt::Display;
use std::hint;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box`, matching `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Shim of `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            sample_size: 20,
        }
    }

    pub fn bench_function<F>(&mut self, name: &str, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group("default");
        group.bench_function(name, f);
        group.finish();
    }
}

/// Shim of `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id);
        run_benchmark(&label, self.sample_size, |b| f(b));
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id);
        run_benchmark(&label, self.sample_size, |b| f(b, input));
    }

    pub fn finish(self) {}
}

/// Shim of `criterion::BenchmarkId`.
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            function: function.into(),
            parameter: parameter.to_string(),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            function: String::new(),
            parameter: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.function.is_empty() {
            write!(f, "{}", self.parameter)
        } else {
            write!(f, "{}/{}", self.function, self.parameter)
        }
    }
}

/// Shim of `criterion::Bencher`: `iter` times one batch of calls.
pub struct Bencher {
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        #[expect(
            clippy::disallowed_methods,
            reason = "a bench harness times whole batches of calls"
        )]
        let start = Instant::now();
        for _ in 0..self.iters {
            hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_benchmark<F>(label: &str, samples: usize, mut run: F)
where
    F: FnMut(&mut Bencher),
{
    // Warm-up pass, also used to pick an iteration count that keeps
    // each sample around a millisecond without dragging the run out.
    let mut b = Bencher {
        elapsed: Duration::ZERO,
        iters: 1,
    };
    run(&mut b);
    let per_iter = b.elapsed.max(Duration::from_nanos(1));
    let iters = (Duration::from_millis(1).as_nanos() / per_iter.as_nanos()).clamp(1, 1000) as u64;

    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    let mut max = Duration::ZERO;
    for _ in 0..samples {
        let mut b = Bencher {
            elapsed: Duration::ZERO,
            iters,
        };
        run(&mut b);
        let per = b.elapsed / iters as u32;
        total += per;
        min = min.min(per);
        max = max.max(per);
    }
    let mean = total / samples as u32;
    println!("{label:<48} mean {mean:>12.2?}  min {min:>12.2?}  max {max:>12.2?}  ({samples} samples x {iters} iters)");
}

/// Shim of `criterion_group!` (plain `(name, targets...)` form).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Shim of `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_demo(c: &mut Criterion) {
        let mut group = c.benchmark_group("demo");
        group.sample_size(2);
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("scaled", 3), &3u64, |b, &k| {
            b.iter(|| (0..100u64).map(|x| x * k).sum::<u64>())
        });
        group.finish();
    }

    #[test]
    fn group_and_macros_run() {
        let mut criterion = Criterion::default();
        bench_demo(&mut criterion);
    }
}
