//! Uniform-grid densities and convolution.
//!
//! The mutual-information machinery needs `h(X + Y)` for arbitrary
//! creation/delay laws. We discretize densities on a uniform grid, convolve
//! them (the density of a sum of independent variables), and integrate
//! `−f ln f` by the trapezoid rule.

use crate::distributions::ContinuousDist;

/// A probability density sampled on a uniform grid starting at `origin`
/// with spacing `step`.
#[derive(Debug, Clone, PartialEq)]
pub struct GridDensity {
    origin: f64,
    step: f64,
    values: Vec<f64>,
}

impl GridDensity {
    /// Samples `dist` on `[0, hi]` with `n` points and renormalizes so the
    /// grid integrates to exactly 1 (absorbing truncation error).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `hi <= 0`, or the sampled mass is zero.
    #[must_use]
    pub fn from_dist<D: ContinuousDist + ?Sized>(dist: &D, hi: f64, n: usize) -> Self {
        assert!(n >= 2, "grid needs at least two points");
        assert!(
            hi.is_finite() && hi > 0.0,
            "grid end must be positive, got {hi}"
        );
        let step = hi / (n - 1) as f64;
        let values: Vec<f64> = (0..n).map(|i| dist.pdf(i as f64 * step)).collect();
        let mut g = GridDensity {
            origin: 0.0,
            step,
            values,
        };
        g.normalize();
        g
    }

    /// Builds a density from raw samples on a grid (values need not be
    /// normalized; they will be).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two values, a non-positive step, negative
    /// values, or zero total mass.
    #[must_use]
    pub fn from_values(origin: f64, step: f64, values: Vec<f64>) -> Self {
        assert!(values.len() >= 2, "grid needs at least two points");
        assert!(step.is_finite() && step > 0.0, "grid step must be positive");
        assert!(
            values.iter().all(|&v| v.is_finite() && v >= 0.0),
            "density values must be finite and non-negative"
        );
        let mut g = GridDensity {
            origin,
            step,
            values,
        };
        g.normalize();
        g
    }

    fn normalize(&mut self) {
        let mass = self.integral();
        assert!(mass > 0.0, "density has zero mass on the grid");
        for v in &mut self.values {
            *v /= mass;
        }
    }

    /// Trapezoid-rule integral of the stored values.
    #[must_use]
    pub fn integral(&self) -> f64 {
        let n = self.values.len();
        let interior: f64 = self.values[1..n - 1].iter().sum();
        (0.5 * (self.values[0] + self.values[n - 1]) + interior) * self.step
    }

    /// Grid origin.
    #[must_use]
    pub const fn origin(&self) -> f64 {
        self.origin
    }

    /// Grid spacing.
    #[must_use]
    pub const fn step(&self) -> f64 {
        self.step
    }

    /// Number of grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the grid holds no points (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Density values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mean of the gridded density.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.values.len();
        let weighted = |i: usize| (self.origin + i as f64 * self.step) * self.values[i];
        let interior: f64 = (1..n - 1).map(weighted).sum();
        (0.5 * (weighted(0) + weighted(n - 1)) + interior) * self.step
    }

    /// Differential entropy `−∫ f ln f` in nats by the trapezoid rule
    /// (zero-density points contribute nothing, as in the limit).
    #[must_use]
    pub fn entropy_nats(&self) -> f64 {
        let term = |v: f64| if v > 0.0 { -v * v.ln() } else { 0.0 };
        let n = self.values.len();
        let interior: f64 = self.values[1..n - 1].iter().map(|&v| term(v)).sum();
        (0.5 * (term(self.values[0]) + term(self.values[n - 1])) + interior) * self.step
    }

    /// Density of the sum of two independent gridded variables.
    ///
    /// Both inputs must share one grid spacing; the output grid spans the
    /// sum of the supports. Complexity O(n·m); the grids used by the bound
    /// validations are a few thousand points, so this stays well under a
    /// millisecond-scale budget.
    ///
    /// # Panics
    ///
    /// Panics if the grid spacings differ by more than 1 part in 10⁹.
    #[must_use]
    pub fn convolve(&self, other: &GridDensity) -> GridDensity {
        let rel = (self.step - other.step).abs() / self.step.max(other.step);
        assert!(
            rel < 1e-9,
            "convolution requires a common grid step ({} vs {})",
            self.step,
            other.step
        );
        let n = self.values.len();
        let m = other.values.len();
        let mut out = vec![0.0f64; n + m - 1];
        for (i, &a) in self.values.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.values.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        for v in &mut out {
            *v *= self.step;
        }
        GridDensity::from_values(self.origin + other.origin, self.step, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{ContinuousDist, Exponential, Gaussian, Uniform};

    #[test]
    fn gridded_exponential_matches_moments() {
        let d = Exponential::with_mean(5.0);
        let g = GridDensity::from_dist(&d, 120.0, 8_000);
        assert!((g.integral() - 1.0).abs() < 1e-12);
        assert!((g.mean() - 5.0).abs() < 0.01, "mean {}", g.mean());
        assert!(
            (g.entropy_nats() - d.entropy_nats()).abs() < 1e-3,
            "entropy {} vs {}",
            g.entropy_nats(),
            d.entropy_nats()
        );
    }

    #[test]
    fn convolution_of_uniforms_is_triangle() {
        let u = Uniform::new(0.0, 1.0);
        let g = GridDensity::from_dist(&u, 1.0, 2_001);
        let tri = g.convolve(&g);
        assert!((tri.integral() - 1.0).abs() < 1e-9);
        // Peak of the triangle density at x = 1 is 1.
        let peak_idx = (1.0 / tri.step()).round() as usize;
        assert!((tri.values()[peak_idx] - 1.0).abs() < 1e-2);
        assert!((tri.mean() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn convolution_of_exponentials_is_erlang2() {
        let e = Exponential::new(0.5);
        let g = GridDensity::from_dist(&e, 60.0, 6_001);
        let sum = g.convolve(&g);
        // Erlang(2, 0.5): mean 4, pdf(x) = 0.25 x e^{-x/2}.
        assert!((sum.mean() - 4.0).abs() < 0.02, "mean {}", sum.mean());
        let x = 3.0;
        let idx = (x / sum.step()).round() as usize;
        let expected = 0.25 * x * (-x / 2.0f64).exp();
        assert!(
            (sum.values()[idx] - expected).abs() < 1e-3,
            "pdf {} vs {expected}",
            sum.values()[idx]
        );
    }

    #[test]
    fn convolution_of_gaussians_adds_variances() {
        let a = Gaussian::new(10.0, 1.0);
        // Grid over [0, 20] captures ±10 sd.
        let g = GridDensity::from_dist(&a, 20.0, 4_001);
        let sum = g.convolve(&g);
        assert!((sum.mean() - 20.0).abs() < 1e-3);
        // Entropy of N(20, 2): 0.5 ln(2*pi*e*2).
        let expected = 0.5 * (2.0 * std::f64::consts::PI * std::f64::consts::E * 2.0).ln();
        assert!(
            (sum.entropy_nats() - expected).abs() < 1e-3,
            "entropy {} vs {expected}",
            sum.entropy_nats()
        );
    }

    #[test]
    fn from_values_normalizes() {
        let g = GridDensity::from_values(0.0, 0.5, vec![2.0, 2.0, 2.0]);
        assert!((g.integral() - 1.0).abs() < 1e-12);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.origin(), 0.0);
    }

    #[test]
    #[should_panic(expected = "common grid step")]
    fn mismatched_steps_rejected() {
        let a = GridDensity::from_values(0.0, 0.5, vec![1.0, 1.0]);
        let b = GridDensity::from_values(0.0, 0.25, vec![1.0, 1.0]);
        let _ = a.convolve(&b);
    }

    #[test]
    #[should_panic(expected = "zero mass")]
    fn zero_mass_rejected() {
        let _ = GridDensity::from_values(0.0, 1.0, vec![0.0, 0.0]);
    }
}
