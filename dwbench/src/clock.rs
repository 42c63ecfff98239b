//! Host time and the order statistics every metric is reported with.
//!
//! All wall-clock reads of the benchmark go through [`now_ns`], so the
//! host clock is touched in exactly one place.

use std::sync::OnceLock;
// iotse-lint: allow(IOTSE-W01) host timing is what this benchmark measures
use std::time::Instant;

// iotse-lint: allow(IOTSE-W01) host timing is what this benchmark measures
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds of host time since the first call in this process.
pub fn now_ns() -> u64 {
    // iotse-lint: allow(IOTSE-W01) host timing is what this benchmark measures
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` and returns its value with the host nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = now_ns();
    let out = f();
    (out, now_ns() - t0)
}

/// The `q` quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0, so no metric is ever NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
