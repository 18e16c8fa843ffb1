//! A minimal micro-benchmark harness.
//!
//! The workspace builds offline, so the `criterion` dependency is gone;
//! the `cargo bench` targets use this instead. It calibrates an
//! iteration count to a small wall-clock budget, reports min / median /
//! mean / max, and makes no statistical claims beyond that — good enough to
//! compare the ablations DESIGN.md cares about (ASCII vs binary, DF vs
//! BF, learning on/off) on one machine.

use std::time::{Duration, Instant};

/// Per-iteration budget, overridable via `RESCHECK_BENCH_MS`.
fn budget() -> Duration {
    let ms = std::env::var("RESCHECK_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(1))
}

/// Timing summary of one benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Iterations measured.
    pub iters: u32,
    /// Fastest iteration.
    pub min: Duration,
    /// Median iteration.
    pub median: Duration,
    /// Mean iteration.
    pub mean: Duration,
    /// Slowest iteration.
    pub max: Duration,
}

/// Runs `f` repeatedly within the time budget and prints a summary line
/// (`name: median …  min …  mean …  (N iters)`).
pub fn bench(name: &str, mut f: impl FnMut()) -> Summary {
    // Warm up and calibrate.
    let once = {
        let t = Instant::now();
        f();
        t.elapsed().max(Duration::from_nanos(1))
    };
    let target = budget();
    let iters = (target.as_nanos() / once.as_nanos()).clamp(5, 10_000) as u32;

    let mut samples: Vec<Duration> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t = Instant::now();
        f();
        samples.push(t.elapsed());
    }
    samples.sort_unstable();
    let min = samples[0];
    let max = samples[samples.len() - 1];
    let median = samples[samples.len() / 2];
    let total: Duration = samples.iter().sum();
    let mean = total / iters;
    let summary = Summary {
        iters,
        min,
        median,
        mean,
        max,
    };
    println!(
        "{name}: median {}s  min {}s  mean {}s  ({iters} iters)",
        crate::fmt_secs(median),
        crate::fmt_secs(min),
        crate::fmt_secs(mean),
    );
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_numbers() {
        std::env::set_var("RESCHECK_BENCH_MS", "5");
        let mut n = 0u64;
        let s = bench("noop", || n = n.wrapping_add(1));
        assert!(s.iters >= 5);
        assert!(s.min <= s.median && s.median <= s.mean * 2);
        assert!(s.median <= s.max);
    }
}
