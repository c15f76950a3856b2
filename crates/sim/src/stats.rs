//! Online statistics for simulation measurements.
//!
//! Everything here is single-pass and allocation-light so it can run inside
//! the event loop: Welford summaries for latency and estimation error,
//! time-weighted averages for buffer occupancy, fixed-bin histograms for
//! distributions, and an exact discrete counter for occupancy PMFs.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use tempriv_sim::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN (a NaN observation would silently poison every
    /// downstream metric).
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by n); 0 if empty.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by n − 1); 0 if fewer than two samples.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Smallest observation; `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

/// Mean-square accumulator for estimation error: records raw errors
/// `x̂ − x` and reports MSE and bias — the paper's privacy metric
/// (§2.1: `MSE = Σ (x̂_i − x_i)² / m`).
///
/// # Examples
///
/// ```
/// use tempriv_sim::stats::MseAccumulator;
///
/// let mut mse = MseAccumulator::new();
/// mse.record_error(3.0);
/// mse.record_error(-1.0);
/// assert_eq!(mse.mse(), 5.0); // (9 + 1) / 2
/// assert_eq!(mse.bias(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MseAccumulator {
    errors: OnlineStats,
    sum_sq: f64,
}

impl MseAccumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        MseAccumulator::default()
    }

    /// Records one estimation error `x̂ − x`.
    pub fn record_error(&mut self, error: f64) {
        self.errors.record(error);
        self.sum_sq += error * error;
    }

    /// Mean square error; 0 if empty.
    #[must_use]
    pub fn mse(&self) -> f64 {
        if self.errors.count() == 0 {
            0.0
        } else {
            self.sum_sq / self.errors.count() as f64
        }
    }

    /// Mean error (systematic bias of the estimator).
    #[must_use]
    pub fn bias(&self) -> f64 {
        self.errors.mean()
    }

    /// Number of recorded errors.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.errors.count()
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &MseAccumulator) {
        self.errors.merge(&other.errors);
        self.sum_sq += other.sum_sq;
    }
}

/// Exact empirical PMF over non-negative integers (e.g. "buffer holds k
/// packets"), weighted by the simulated time spent in each state. Used to
/// compare against the Poisson occupancy law of §4.
///
/// # Examples
///
/// ```
/// use tempriv_sim::stats::StateDwell;
/// use tempriv_sim::time::SimTime;
///
/// let mut occ = StateDwell::new(SimTime::ZERO, 0);
/// occ.transition(SimTime::from_units(10.0), 2); // held 0 for 10 units
/// occ.transition(SimTime::from_units(20.0), 0); // held 2 for 10 units
/// assert_eq!(occ.pmf(SimTime::from_units(20.0)), vec![(0, 0.5), (2, 0.5)]);
/// assert_eq!(occ.mean(SimTime::from_units(20.0)), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StateDwell {
    /// Dwell for states `0..64` — the per-event hot path for buffer
    /// occupancies, which rarely exceed a few tens. A state is "present"
    /// (even with zero accumulated dwell, e.g. two transitions at the
    /// same instant) iff its bit in `visited` is set, mirroring the
    /// entry-creation semantics of the map path.
    small: Vec<f64>,
    /// Bitmap of small states ever exited or observed.
    visited: u64,
    /// Overflow dwell for states `>= 64`.
    dwell: BTreeMap<u64, f64>,
    last_time: Option<SimTime>,
    state: u64,
}

/// States below this bound take the allocation-free `small` path.
const SMALL_STATES: u64 = 64;

impl StateDwell {
    /// Starts tracking at `start` in state `state`.
    #[must_use]
    pub fn new(start: SimTime, state: u64) -> Self {
        StateDwell {
            small: Vec::new(),
            visited: 0,
            dwell: BTreeMap::new(),
            last_time: Some(start),
            state,
        }
    }

    /// Adds `dt` dwell to `state`, marking it visited.
    #[inline]
    fn accumulate(&mut self, state: u64, dt: f64) {
        if state < SMALL_STATES {
            let idx = state as usize;
            if idx >= self.small.len() {
                self.small.resize(idx + 1, 0.0);
            }
            self.small[idx] += dt;
            self.visited |= 1 << state;
        } else {
            *self.dwell.entry(state).or_insert(0.0) += dt;
        }
    }

    /// Records a transition to `state` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous transition.
    pub fn transition(&mut self, now: SimTime, state: u64) {
        let last = self.last_time.expect("StateDwell not initialized");
        let dt = now
            .checked_duration_since(last)
            .expect("StateDwell transitions must be in time order")
            .as_units();
        let prev = self.state;
        self.accumulate(prev, dt);
        self.last_time = Some(now);
        self.state = state;
    }

    /// Closes the observation window at `now` and returns the normalized
    /// PMF as `(state, probability)` pairs in state order.
    #[must_use]
    pub fn pmf(&self, now: SimTime) -> Vec<(u64, f64)> {
        let mut closed = self.clone();
        if let Some(last) = self.last_time {
            if let Some(dt) = now.checked_duration_since(last) {
                closed.accumulate(self.state, dt.as_units());
            }
        }
        let small_total: f64 = closed
            .small
            .iter()
            .enumerate()
            .filter(|&(k, _)| closed.visited & (1 << k) != 0)
            .map(|(_, w)| w)
            .sum();
        let total: f64 = small_total + closed.dwell.values().sum::<f64>();
        if total == 0.0 {
            return Vec::new();
        }
        closed
            .small
            .iter()
            .enumerate()
            .filter(|&(k, _)| closed.visited & (1 << k) != 0)
            .map(|(k, &w)| (k as u64, w / total))
            .chain(closed.dwell.iter().map(|(&k, &w)| (k, w / total)))
            .collect()
    }

    /// Time-weighted mean state.
    #[must_use]
    pub fn mean(&self, now: SimTime) -> f64 {
        Self::pmf_mean(&self.pmf(now))
    }

    /// Mean of a PMF from [`StateDwell::pmf`], summed in state order —
    /// the same bits as [`StateDwell::mean`], without rebuilding the PMF.
    #[must_use]
    pub fn pmf_mean(pmf: &[(u64, f64)]) -> f64 {
        pmf.iter().map(|&(k, p)| k as f64 * p).sum()
    }

    /// Current state.
    #[must_use]
    pub fn current(&self) -> u64 {
        self.state
    }
}

/// Sample mean with a 95% normal-approximation confidence half-width:
/// `(mean, 1.96·s/√n)`. With fewer than two samples the half-width is
/// infinite (nothing can be said about spread).
///
/// # Panics
///
/// Panics if `samples` is empty or contains NaN.
///
/// # Examples
///
/// ```
/// use tempriv_sim::stats::mean_ci95;
///
/// let (mean, half) = mean_ci95(&[10.0, 12.0, 8.0, 11.0, 9.0]);
/// assert_eq!(mean, 10.0);
/// assert!(half > 0.0 && half < 3.0);
/// ```
#[must_use]
pub fn mean_ci95(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "need at least one sample");
    let mut stats = OnlineStats::new();
    for &x in samples {
        stats.record(x);
    }
    let n = stats.count() as f64;
    let half = if stats.count() < 2 {
        f64::INFINITY
    } else {
        1.96 * (stats.sample_variance() / n).sqrt()
    };
    (stats.mean(), half)
}

/// Fixed-bin histogram over `[lo, hi)` with overflow/underflow buckets.
///
/// # Examples
///
/// ```
/// use tempriv_sim::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// for x in [0.5, 1.5, 1.7, 9.9, 12.0] {
///     h.record(x);
/// }
/// assert_eq!(h.bin_count(1), 2);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`, the bounds are not finite, or `bins == 0`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid histogram range [{lo}, {hi})"
        );
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bin_count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Center of bin `i`.
    #[must_use]
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = self.bin_width();
        self.lo + (i as f64 + 0.5) * w
    }

    /// Width of each bin.
    #[must_use]
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Observations below the range.
    #[must_use]
    pub const fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range end.
    #[must_use]
    pub const fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations, including out-of-range ones.
    #[must_use]
    pub const fn total(&self) -> u64 {
        self.total
    }

    /// Approximate quantile (linear in the bin), `q` in `[0, 1]`.
    ///
    /// Out-of-range mass is counted at the range ends. Returns `None` if
    /// the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return None;
        }
        let target = q * self.total as f64;
        let mut cum = self.underflow as f64;
        if cum >= target {
            return Some(self.lo);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c as f64;
            if next >= target && c > 0 {
                let frac = (target - cum) / c as f64;
                return Some(self.lo + (i as f64 + frac) * self.bin_width());
            }
            cum = next;
        }
        Some(self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    #[test]
    fn welford_basic_moments() {
        let mut s = OnlineStats::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.mean(), 2.5);
        assert!((s.population_variance() - 1.25).abs() < 1e-12);
        assert!((s.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        assert_eq!(s.sum(), 10.0);
    }

    #[test]
    fn welford_empty_defaults() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.population_variance() - all.population_variance()).abs() < 1e-10);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = OnlineStats::new();
        a.record(5.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.mean(), 5.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn welford_rejects_nan() {
        OnlineStats::new().record(f64::NAN);
    }

    #[test]
    fn mse_matches_definition() {
        let mut m = MseAccumulator::new();
        m.record_error(3.0);
        m.record_error(-1.0);
        assert_eq!(m.count(), 2);
        assert_eq!(m.mse(), 5.0);
        assert_eq!(m.bias(), 1.0);
    }

    #[test]
    fn mse_merge() {
        let mut a = MseAccumulator::new();
        a.record_error(2.0);
        let mut b = MseAccumulator::new();
        b.record_error(-2.0);
        a.merge(&b);
        assert_eq!(a.mse(), 4.0);
        assert_eq!(a.bias(), 0.0);
    }

    #[test]
    fn time_weighted_average() {
        let mut sd = StateDwell::new(t(0.0), 1);
        sd.transition(t(4.0), 3);
        // state 1 for 4 units, then 3 for 6 units => (4 + 18) / 10
        assert!((sd.mean(t(10.0)) - 2.2).abs() < 1e-12);
        assert_eq!(sd.current(), 3);
    }

    #[test]
    fn time_weighted_empty_interval() {
        let sd = StateDwell::new(t(5.0), 7);
        assert!(sd.pmf(t(5.0)).is_empty());
        assert_eq!(sd.mean(t(5.0)), 0.0);
    }

    #[test]
    fn state_dwell_pmf_normalizes() {
        let mut sd = StateDwell::new(t(0.0), 0);
        sd.transition(t(2.0), 1); // state 0 for 2u
        sd.transition(t(5.0), 0); // state 1 for 3u
        sd.transition(t(10.0), 2); // state 0 for 5u
        let pmf = sd.pmf(t(10.0));
        let lookup: BTreeMap<u64, f64> = pmf.into_iter().collect();
        assert!((lookup[&0] - 0.7).abs() < 1e-12);
        assert!((lookup[&1] - 0.3).abs() < 1e-12);
        assert!((sd.mean(t(10.0)) - 0.3).abs() < 1e-12);
        assert_eq!(sd.current(), 2);
    }

    #[test]
    fn state_dwell_includes_open_interval() {
        let mut sd = StateDwell::new(t(0.0), 3);
        sd.transition(t(1.0), 5);
        let pmf = sd.pmf(t(2.0));
        let lookup: BTreeMap<u64, f64> = pmf.into_iter().collect();
        assert!((lookup[&3] - 0.5).abs() < 1e-12);
        assert!((lookup[&5] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn state_dwell_keeps_zero_dwell_states_and_overflow() {
        // Two transitions at the same instant: the exited state must
        // appear in the PMF with probability 0, exactly as the map
        // entry-creation semantics had it (peak occupancy depends on it).
        let mut sd = StateDwell::new(t(0.0), 0);
        sd.transition(t(2.0), 10);
        sd.transition(t(2.0), 0); // state 10 for 0u
        let pmf = sd.pmf(t(4.0));
        assert_eq!(pmf, vec![(0, 1.0), (10, 0.0)]);
        assert_eq!(pmf.iter().map(|&(k, _)| k).max(), Some(10));

        // States past the small fast path land in the overflow map and
        // still come back sorted.
        let mut big = StateDwell::new(t(0.0), 100);
        big.transition(t(1.0), 2);
        let pmf = big.pmf(t(2.0));
        assert_eq!(pmf, vec![(2, 0.5), (100, 0.5)]);
    }

    #[test]
    fn ci_shrinks_with_sample_size() {
        let small: Vec<f64> = (0..10).map(|i| (i % 5) as f64).collect();
        let large: Vec<f64> = (0..1000).map(|i| (i % 5) as f64).collect();
        let (_, h_small) = mean_ci95(&small);
        let (_, h_large) = mean_ci95(&large);
        assert!(h_large < h_small / 5.0);
        let (_, h_one) = mean_ci95(&[3.0]);
        assert!(h_one.is_infinite());
    }

    #[test]
    fn histogram_bins_and_ranges() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.0, 1.9, 2.0, 9.999, 10.0, 42.0] {
            h.record(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bin_count(0), 2); // 0.0 and 1.9
        assert_eq!(h.bin_count(1), 1); // 2.0
        assert_eq!(h.bin_count(4), 1); // 9.999
        assert_eq!(h.total(), 7);
        assert_eq!(h.bin_width(), 2.0);
        assert_eq!(h.bin_center(0), 1.0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..1000 {
            h.record((i % 100) as f64);
        }
        let med = h.quantile(0.5).unwrap();
        assert!((med - 50.0).abs() < 2.0, "median {med}");
        assert_eq!(Histogram::new(0.0, 1.0, 1).quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn time_weighted_rejects_backwards_updates() {
        let mut sd = StateDwell::new(t(5.0), 0);
        sd.transition(t(1.0), 1);
    }
}
