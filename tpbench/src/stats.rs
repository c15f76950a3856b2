//! Order statistics, the correctness ledger and the machine-speed probe.

use std::time::Instant;

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Ratio of the medians of interleaved samples taken `with` and
/// `without` some instrumentation: 1.0 means no overhead. A ratio stays
/// positive where a signed percentage would cross zero in the host's
/// noise.
#[must_use]
pub fn overhead_ratio(with: &[f64], without: &[f64]) -> f64 {
    median(with) / median(without)
}

/// The smallest of `values` (NaN when empty): the repetition least
/// slowed by the host. Interference on a shared host only ever adds
/// time, so across runs the best repetition of a run varies less than
/// its median does (see the benchmark README for the measurement).
#[must_use]
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// Linear-interpolated percentile `p` (0..=100) of `values`; 0 when
/// empty.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest whole percentile above the median, capped at 99, that
/// still has at least ten of `n` samples beyond it — the deepest tail a
/// sample of `n` can report honestly. `None` below 21 samples.
#[must_use]
pub fn deepest_tail(n: usize) -> Option<u32> {
    (51..=99)
        .rev()
        .find(|&p| n as f64 * (1.0 - f64::from(p) / 100.0) >= 10.0 - 1e-9)
}

/// Correctness ledger: every operation the run attempts, and the ones
/// whose output check failed (or that errored or were refused).
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check, errored or were refused.
    pub failed: u64,
    /// One line per failure (capped so a systematic fault stays short).
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one attempted operation; records it as failed unless `ok`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Whether every attempted operation passed.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.failed == 0
    }
}

/// Iterations of the speed probe's kernel: about 50 ms of dependent
/// integer work on a 2020s server core.
const PROBE_ITERS: u64 = 10_000_000;

/// Times a fixed, allocation-free integer kernel (a dependent splitmix64
/// chain). Run at the start and end of every benchmark run so a slow
/// host phase is visible in the run's details; never used to adjust a
/// metric.
#[must_use]
pub fn speed_probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x5EED_u64;
    for i in 0..PROBE_ITERS {
        x = tempriv_sim::rng::splitmix64(x ^ i);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&v) - 2.5).abs() < 1e-12);
        assert!((percentile(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&v, 100.0) - 4.0).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(best(&v), 1.0);
        assert!(best(&[]).is_nan());
    }

    #[test]
    fn deepest_tail_keeps_ten_samples_beyond() {
        assert_eq!(deepest_tail(1000), Some(99));
        assert_eq!(deepest_tail(600), Some(98));
        assert_eq!(deepest_tail(200), Some(95));
        assert_eq!(deepest_tail(20), None);
    }
}
