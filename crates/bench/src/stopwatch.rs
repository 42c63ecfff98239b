//! A dependency-free micro-benchmark harness.
//!
//! The workspace is `std`-only, so the `bench` binary times itself with
//! [`std::time::Instant`] instead of Criterion: warm up, run until a time
//! budget or iteration cap is hit, and report the **median** with the
//! min/max spread — the median is robust to the scheduling outliers shared
//! CI runners produce, which a mean would smear into every number.
//!
//! This module is the only non-test place in the workspace allowed to touch
//! the wall clock (enforced by `iotse-lint`'s IOTSE-W01 rule); everything
//! else observes time through the simulated clock.

use std::time::{Duration, Instant};

/// How long one benchmark is allowed to sample for by default.
pub const DEFAULT_BUDGET: Duration = Duration::from_millis(300);
/// Default minimum sample count.
pub const DEFAULT_MIN_ITERS: usize = 10;
/// Default maximum sample count.
pub const DEFAULT_MAX_ITERS: usize = 10_000;

/// The timing summary of one benchmarked closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measurement {
    /// Median-of-k wall time per iteration.
    pub median: Duration,
    /// Fastest observed iteration.
    pub min: Duration,
    /// Slowest observed iteration.
    pub max: Duration,
    /// Number of timed iterations.
    pub n: usize,
}

/// Sampling limits for [`measure_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleBudget {
    /// Wall-time budget for the sampling loop.
    pub budget: Duration,
    /// Sample at least this many iterations even past the budget.
    pub min_iters: usize,
    /// Never sample more than this many iterations.
    pub max_iters: usize,
}

impl Default for SampleBudget {
    fn default() -> Self {
        SampleBudget {
            budget: DEFAULT_BUDGET,
            min_iters: DEFAULT_MIN_ITERS,
            max_iters: DEFAULT_MAX_ITERS,
        }
    }
}

impl SampleBudget {
    /// A short budget for smoke runs (`bench --quick` and the test suite):
    /// the deterministic counters are identical either way, only the wall
    /// numbers get noisier.
    #[must_use]
    pub fn quick() -> Self {
        SampleBudget {
            budget: Duration::from_millis(20),
            min_iters: 3,
            max_iters: 100,
        }
    }
}

/// The median of a sample set: the middle element for odd counts, the mean
/// of the two middle elements for even counts. `samples` need not be
/// sorted; an empty slice yields [`Duration::ZERO`].
#[must_use]
pub fn median(samples: &[Duration]) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2
    }
}

/// Times `f` under `limits`: 3 warmup calls, then sample until the budget
/// or iteration caps are hit.
pub fn measure_with<T>(limits: SampleBudget, mut f: impl FnMut() -> T) -> Measurement {
    for _ in 0..3 {
        std::hint::black_box(f());
    }
    let mut times = Vec::new();
    let sampling = Instant::now();
    while (sampling.elapsed() < limits.budget || times.len() < limits.min_iters)
        && times.len() < limits.max_iters
    {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed());
    }
    Measurement {
        median: median(&times),
        min: times.iter().copied().min().unwrap_or(Duration::ZERO),
        max: times.iter().copied().max().unwrap_or(Duration::ZERO),
        n: times.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn median_math_is_pinned() {
        // Odd count: the middle element.
        assert_eq!(median(&[ms(5), ms(1), ms(9)]), ms(5));
        // Even count: mean of the two middle elements.
        assert_eq!(median(&[ms(1), ms(3), ms(5), ms(100)]), ms(4));
        // Order independence.
        assert_eq!(median(&[ms(100), ms(5), ms(3), ms(1)]), ms(4));
        // Degenerate cases.
        assert_eq!(median(&[]), Duration::ZERO);
        assert_eq!(median(&[ms(7)]), ms(7));
        // A single outlier cannot drag the median (it would drag a mean).
        assert_eq!(median(&[ms(2), ms(2), ms(2), ms(2), ms(10_000)]), ms(2));
    }

    #[test]
    fn measure_respects_iteration_caps() {
        let limits = SampleBudget {
            budget: Duration::from_millis(5),
            min_iters: 4,
            max_iters: 6,
        };
        let mut calls = 0u32;
        let m = measure_with(limits, || calls += 1);
        assert!(m.n >= 4 && m.n <= 6, "n={}", m.n);
        assert_eq!(calls as usize, m.n + 3, "3 warmup calls plus samples");
        assert!(m.min <= m.median && m.median <= m.max);
    }
}
