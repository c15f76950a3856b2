//! Streaming estimators: online entropy/MI with O(1) per-sample updates.
//!
//! The batch estimators in [`crate::estimators`] need every `(X, Z)` pair
//! in memory before they can say anything. This module provides the
//! observability-stack counterparts that run *while* a simulation is in
//! flight:
//!
//! * [`Welford`] — numerically stable running mean/variance,
//! * [`StreamingMi`] — a fixed-memory adaptive 2-D histogram yielding a
//!   plug-in mutual-information estimate at any point in the stream,
//! * [`StreamingMse`] — a running adversary mean-square-error tracker
//!   that converts to an MI lower bound via the Guo–Shamai–Verdú bridge
//!   (the `Option`-returning, panic-free sibling of
//!   [`crate::estimators::mi_lower_bound_from_mse_nats`]).
//!
//! # Order independence
//!
//! [`StreamingMi`] bins on an *origin-centered dyadic grid*: each axis
//! covers `[-B·w, B·w)` in `bins` cells of width `w = w₀·2ᵏ` (with
//! `B = bins / 2` and a fixed base width `w₀ = 2⁻¹⁶`). When a sample
//! falls outside the covered range the width doubles and adjacent cells
//! merge — an *exact* aggregation, because `⌊⌊v/w⌋ / 2⌋ = ⌊v/2w⌋`. The
//! final width therefore depends only on the largest `|v|` seen, never on
//! arrival order, so the finished histogram — and the MI estimate read
//! from it — is bit-identical under any permutation of the input stream.
//! (Trade-off: data confined to `|v| ≪ w₀` is resolved by at most one
//! cell per axis; simulation times are unit-scale or larger, far above
//! that floor.)
//!
//! Estimators never panic on data: non-finite samples are skipped and
//! counted in [`StreamingMi::rejected`] / [`StreamingMse::rejected`] so a
//! telemetry probe can run unattended.

use serde::{Deserialize, Serialize};

/// Welford's online algorithm for mean and variance.
///
/// Push samples one at a time; read the running mean and *population*
/// variance at any point. Accessors saturate (return `0.0`) instead of
/// panicking when too few samples have arrived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Folds one sample in. Non-finite samples are ignored so a stray
    /// NaN cannot poison every later read.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Samples folded in so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean, or `0.0` before the first sample.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Running *population* variance (`m₂/n`), or `0.0` below 2 samples.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }
}

/// Base cell width of the dyadic grid (`2⁻¹⁶`): fine enough that any
/// unit-scale-or-larger data starts at full resolution.
const BASE_WIDTH: f64 = 1.0 / 65_536.0;

/// Streaming mutual-information estimator over `(X, Z)` pairs.
///
/// A fixed-memory (`bins × bins` counts) adaptive 2-D histogram on the
/// origin-centered dyadic grid described in the [module docs](self):
/// pushes are O(1) amortized, [`StreamingMi::mi_nats`] queries are
/// O(bins²) (marginals are re-derived from the joint), and the final
/// estimate is exactly permutation-invariant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingMi {
    bins: usize,
    joint: Vec<u64>,
    x_width: f64,
    z_width: f64,
    n: u64,
    rejected: u64,
    x_min: f64,
    x_max: f64,
    z_min: f64,
    z_max: f64,
}

/// Default per-axis bin count: 32 bins ⇒ 8 KiB of counts, and the MI
/// estimate is capped at `ln 32 ≈ 3.5` nats — comfortably inside the
/// eq. 4 envelopes the observatory plots it against.
pub const DEFAULT_STREAMING_BINS: usize = 32;

impl StreamingMi {
    /// A fresh estimator with `bins` cells per axis.
    ///
    /// # Panics
    ///
    /// Panics if `bins < 2` (a construction-time configuration error, not
    /// a data condition — pushes themselves never panic).
    #[must_use]
    pub fn new(bins: usize) -> Self {
        assert!(bins >= 2, "need at least two bins per axis, got {bins}");
        StreamingMi {
            bins,
            joint: vec![0; bins * bins],
            x_width: BASE_WIDTH,
            z_width: BASE_WIDTH,
            n: 0,
            rejected: 0,
            x_min: f64::INFINITY,
            x_max: f64::NEG_INFINITY,
            z_min: f64::INFINITY,
            z_max: f64::NEG_INFINITY,
        }
    }

    /// Per-axis bin count (fixed at construction).
    #[must_use]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Pairs accepted so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Pairs skipped because either coordinate was NaN or infinite.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Current cell width on the `X` axis (a power-of-two multiple of the
    /// base width; grows as the data range grows).
    #[must_use]
    pub fn x_width(&self) -> f64 {
        self.x_width
    }

    /// Current cell width on the `Z` axis.
    #[must_use]
    pub fn z_width(&self) -> f64 {
        self.z_width
    }

    /// Raw row-major joint counts (`row = X cell, column = Z cell`);
    /// exposed so tests can assert exact order-independence.
    #[must_use]
    pub fn joint_counts(&self) -> &[u64] {
        &self.joint
    }

    /// Grid cells actually spanned by the data on the `X` axis — the bin
    /// count a batch estimator needs to reproduce this resolution over
    /// `[min, max]`.
    #[must_use]
    pub fn effective_x_bins(&self) -> usize {
        Self::effective_bins(self.n, self.x_min, self.x_max, self.x_width)
    }

    /// Grid cells actually spanned by the data on the `Z` axis.
    #[must_use]
    pub fn effective_z_bins(&self) -> usize {
        Self::effective_bins(self.n, self.z_min, self.z_max, self.z_width)
    }

    fn effective_bins(n: u64, min: f64, max: f64, width: f64) -> usize {
        if n == 0 {
            return 0;
        }
        let lo = (min / width).floor() as i64;
        let hi = (max / width).floor() as i64;
        usize::try_from(hi - lo + 1).expect("cell span fits the grid")
    }

    /// Folds one `(x, z)` pair in; O(1) amortized (axis growth doubles
    /// the width, so a stream triggers at most ~⌈log₂ range⌉ merges per
    /// axis over its whole lifetime). Non-finite pairs are counted in
    /// [`StreamingMi::rejected`] and otherwise ignored.
    pub fn push(&mut self, x: f64, z: f64) {
        if !x.is_finite() || !z.is_finite() {
            self.rejected += 1;
            return;
        }
        while !self.x_in_range(x) {
            self.merge_x();
        }
        while !self.z_in_range(z) {
            self.merge_z();
        }
        let i = Self::cell(x, self.x_width, self.bins);
        let j = Self::cell(z, self.z_width, self.bins);
        self.joint[i * self.bins + j] += 1;
        self.n += 1;
        self.x_min = self.x_min.min(x);
        self.x_max = self.x_max.max(x);
        self.z_min = self.z_min.min(z);
        self.z_max = self.z_max.max(z);
    }

    /// Half-width of the covered range in cells: cells index `[0, bins)`
    /// and value `v` lands in `⌊v/w⌋ + B`.
    fn half(bins: usize) -> i64 {
        (bins / 2) as i64
    }

    fn raw_cell(v: f64, width: f64) -> i64 {
        // Covered values satisfy |v/w| <= bins, far inside i64; the
        // in-range checks below do the comparison in f64 first so this
        // cast never truncates for values we actually index with.
        (v / width).floor() as i64
    }

    fn cell(v: f64, width: f64, bins: usize) -> usize {
        usize::try_from(Self::raw_cell(v, width) + Self::half(bins)).expect("cell in range")
    }

    fn x_in_range(&self, x: f64) -> bool {
        Self::in_range(x, self.x_width, self.bins)
    }

    fn z_in_range(&self, z: f64) -> bool {
        Self::in_range(z, self.z_width, self.bins)
    }

    fn in_range(v: f64, width: f64, bins: usize) -> bool {
        let b = Self::half(bins);
        // v ∈ [-B·w, (bins − B)·w) ⇔ ⌊v/w⌋ ∈ [-B, bins − B − 1].
        let cell = (v / width).floor();
        cell >= -(b as f64) && cell <= (bins as i64 - b - 1) as f64
    }

    /// Doubles the `X` width and merges adjacent *rows*:
    /// `new = ⌊(old − B)/2⌋ + B` (floor division, so the mapping matches
    /// re-binning every value at the doubled width exactly).
    fn merge_x(&mut self) {
        let b = Self::half(self.bins);
        let mut merged = vec![0u64; self.bins * self.bins];
        for row in 0..self.bins {
            let new_row = usize::try_from((row as i64 - b).div_euclid(2) + b)
                .expect("merged row stays on the grid");
            for col in 0..self.bins {
                merged[new_row * self.bins + col] += self.joint[row * self.bins + col];
            }
        }
        self.joint = merged;
        self.x_width *= 2.0;
    }

    /// Doubles the `Z` width and merges adjacent *columns*.
    fn merge_z(&mut self) {
        let b = Self::half(self.bins);
        let mut merged = vec![0u64; self.bins * self.bins];
        for row in 0..self.bins {
            for col in 0..self.bins {
                let new_col = usize::try_from((col as i64 - b).div_euclid(2) + b)
                    .expect("merged column stays on the grid");
                merged[row * self.bins + new_col] += self.joint[row * self.bins + col];
            }
        }
        self.joint = merged;
        self.z_width *= 2.0;
    }

    /// Plug-in mutual-information estimate (nats) of everything pushed so
    /// far: `Σ p(x,z)·ln(p(x,z)/(p(x)p(z)))`, clamped at zero. Returns
    /// `0.0` below two accepted pairs. O(bins²) — intended for periodic
    /// snapshots, not per-push polling.
    #[must_use]
    pub fn mi_nats(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mut px = vec![0u64; self.bins];
        let mut pz = vec![0u64; self.bins];
        for (row_counts, px_row) in self.joint.chunks_exact(self.bins).zip(&mut px) {
            for (&c, pz_col) in row_counts.iter().zip(&mut pz) {
                *px_row += c;
                *pz_col += c;
            }
        }
        let n = self.n as f64;
        let mut mi = 0.0;
        for (row_counts, &px_row) in self.joint.chunks_exact(self.bins).zip(&px) {
            for (&c, &pz_col) in row_counts.iter().zip(&pz) {
                if c == 0 {
                    continue;
                }
                let pij = c as f64 / n;
                let pi = px_row as f64 / n;
                let pj = pz_col as f64 / n;
                mi += pij * (pij / (pi * pj)).ln();
            }
        }
        mi.max(0.0)
    }
}

/// Running adversary mean-square-error tracker with the MSE → MI bridge.
///
/// Push `(truth, estimate)` pairs as an adversary produces estimates; the
/// tracker keeps the source variance (needed by the Guo–Shamai–Verdú
/// argument) and the mean squared error online, and converts them to an
/// information lower bound on demand — returning `None` instead of
/// panicking wherever the batch bridge would assert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamingMse {
    x: Welford,
    err2: Welford,
    rejected: u64,
}

impl StreamingMse {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        StreamingMse::default()
    }

    /// Folds in one (true value, adversary estimate) pair. Pairs with a
    /// non-finite coordinate are counted in [`StreamingMse::rejected`]
    /// and otherwise ignored.
    pub fn push(&mut self, truth: f64, estimate: f64) {
        if !truth.is_finite() || !estimate.is_finite() {
            self.rejected += 1;
            return;
        }
        self.x.push(truth);
        self.err2.push((estimate - truth) * (estimate - truth));
    }

    /// Pairs accepted so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.x.count()
    }

    /// Pairs skipped because either coordinate was NaN or infinite.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Running population variance of the true values.
    #[must_use]
    pub fn var_x(&self) -> f64 {
        self.x.variance()
    }

    /// Running mean square error, or `None` before the first pair.
    #[must_use]
    pub fn mse(&self) -> Option<f64> {
        if self.err2.count() == 0 {
            None
        } else {
            Some(self.err2.mean())
        }
    }

    /// The leakage the observed MSE implies:
    /// `I(X;Z) ≥ ½·ln(Var X / MSE)` nats (clamped at zero), or `None`
    /// whenever variance or MSE is not yet strictly positive — exactly
    /// the inputs on which
    /// [`crate::estimators::mi_lower_bound_from_mse_nats`] would panic.
    #[must_use]
    pub fn mi_lower_bound_nats(&self) -> Option<f64> {
        let var = self.var_x();
        let mse = self.mse()?;
        if var > 0.0 && mse > 0.0 {
            Some(crate::estimators::mi_lower_bound_from_mse_nats(var, mse))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn welford_matches_two_pass_moments() {
        let mut r = rng(1);
        let samples: Vec<f64> = (0..10_000).map(|_| r.gen::<f64>() * 40.0 - 7.0).collect();
        let mut w = Welford::default();
        for &s in &samples {
            w.push(s);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        assert_eq!(w.count(), 10_000);
        assert!((w.mean() - mean).abs() < 1e-9, "{} vs {mean}", w.mean());
        assert!(
            (w.variance() - var).abs() < 1e-9,
            "{} vs {var}",
            w.variance()
        );
    }

    #[test]
    fn welford_saturates_instead_of_panicking() {
        let mut w = Welford::default();
        assert_eq!((w.count(), w.mean(), w.variance()), (0, 0.0, 0.0));
        w.push(f64::NAN);
        w.push(f64::INFINITY);
        assert_eq!(w.count(), 0, "non-finite samples are ignored");
        w.push(3.0);
        assert_eq!(w.mean(), 3.0);
        assert_eq!(w.variance(), 0.0, "variance saturates below 2 samples");
    }

    #[test]
    fn streaming_mi_is_zero_for_tiny_or_rejected_streams() {
        let mut mi = StreamingMi::new(DEFAULT_STREAMING_BINS);
        assert_eq!(mi.mi_nats(), 0.0);
        mi.push(f64::NAN, 1.0);
        mi.push(1.0, f64::INFINITY);
        assert_eq!((mi.count(), mi.rejected()), (0, 2));
        mi.push(5.0, 5.0);
        assert_eq!(mi.mi_nats(), 0.0, "one pair carries no information");
    }

    #[test]
    fn identical_coordinates_leak_their_full_entropy() {
        // Z = X exactly: I(X;Z) = H(X); with k equally hit cells that is
        // ln k, the estimator's cap.
        let mut mi = StreamingMi::new(16);
        for i in 0..800 {
            let v = f64::from(i % 8) * 2.0; // 8 distinct unit-scale values
            mi.push(v, v);
        }
        let est = mi.mi_nats();
        assert!((est - 8.0f64.ln()).abs() < 1e-9, "MI {est}");
    }

    #[test]
    fn independent_axes_carry_no_information() {
        let mut mi = StreamingMi::new(8);
        for i in 0..900u32 {
            mi.push(f64::from(i % 5), f64::from(i % 9));
        }
        // (i mod 5, i mod 9) cycles through all 45 combinations evenly.
        assert!(mi.mi_nats() < 1e-9, "MI {}", mi.mi_nats());
    }

    #[test]
    fn growth_merges_are_exact_so_order_cannot_matter() {
        // A stream spanning several dyadic doublings (range ~1e4) pushed
        // in three different orders must land on bit-identical joints.
        let mut r = rng(2);
        let pairs: Vec<(f64, f64)> = (0..5_000)
            .map(|_| {
                let x = r.gen::<f64>() * 12_000.0 - 1_000.0;
                (x, x + r.gen::<f64>() * 90.0)
            })
            .collect();
        let mut forward = StreamingMi::new(24);
        let mut backward = StreamingMi::new(24);
        let mut strided = StreamingMi::new(24);
        for &(x, z) in &pairs {
            forward.push(x, z);
        }
        for &(x, z) in pairs.iter().rev() {
            backward.push(x, z);
        }
        for k in 0..pairs.len() {
            let (x, z) = pairs[(k * 2_741) % pairs.len()]; // 2741 coprime to 5000
            strided.push(x, z);
        }
        assert_eq!(forward.joint_counts(), backward.joint_counts());
        assert_eq!(forward.joint_counts(), strided.joint_counts());
        assert_eq!(forward.x_width(), backward.x_width());
        assert_eq!(forward.z_width(), strided.z_width());
        assert!(forward.mi_nats() == backward.mi_nats());
        assert!(forward.mi_nats() == strided.mi_nats());
    }

    #[test]
    fn huge_and_negative_values_grow_without_panicking() {
        let mut mi = StreamingMi::new(8);
        mi.push(1.0, 1.0);
        mi.push(-3.0e12, 2.0e12);
        mi.push(7.5, -2.0);
        assert_eq!(mi.count(), 3);
        assert!(mi.x_width() > 1e10);
        let total: u64 = mi.joint_counts().iter().sum();
        assert_eq!(total, 3, "no counts lost across merges");
    }

    #[test]
    fn effective_bins_track_the_occupied_span() {
        let mut mi = StreamingMi::new(32);
        for i in 0..640 {
            let v = f64::from(i) * 0.5; // spans [0, 320)
            mi.push(v, v + 1.0);
        }
        let (bx, bz) = (mi.effective_x_bins(), mi.effective_z_bins());
        // Width has grown to cover 320 within 16 half-range cells: w = 32.
        assert_eq!(mi.x_width(), 32.0);
        assert!((10..=16).contains(&bx), "x bins {bx}");
        assert!((10..=16).contains(&bz), "z bins {bz}");
    }

    #[test]
    fn streaming_mse_matches_hand_computed_bridge() {
        let mut t = StreamingMse::new();
        assert_eq!(t.mse(), None);
        assert_eq!(t.mi_lower_bound_nats(), None);
        // Truth alternates +-10 (variance 100); estimates are off by 2.
        for i in 0..1_000 {
            let truth = if i % 2 == 0 { 10.0 } else { -10.0 };
            t.push(truth, truth + 2.0);
        }
        assert_eq!(t.count(), 1_000);
        assert!((t.var_x() - 100.0).abs() < 1e-9);
        assert!((t.mse().unwrap() - 4.0).abs() < 1e-12);
        let bridge = t.mi_lower_bound_nats().unwrap();
        assert!((bridge - 0.5 * (100.0f64 / 4.0).ln()).abs() < 1e-9);
    }

    #[test]
    fn streaming_mse_returns_none_where_batch_bridge_panics() {
        let mut t = StreamingMse::new();
        t.push(5.0, 5.0);
        t.push(5.0, 5.0);
        // Zero variance and zero MSE: the batch fn would assert.
        assert_eq!(t.mi_lower_bound_nats(), None);
        t.push(f64::NAN, 1.0);
        assert_eq!(t.rejected(), 1);
        assert_eq!(t.count(), 2);
    }
}
