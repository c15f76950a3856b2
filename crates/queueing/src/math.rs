//! Numeric helpers: log-gamma, log-factorial, and a robust bisection solver.

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Accurate to ~1e-13 relative error for positive arguments, which is far
/// tighter than anything the queueing formulas need.
///
/// # Panics
///
/// Panics if `x <= 0` (the reflection branch is not needed here).
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    const G: f64 = 7.0;
    #[allow(clippy::excessive_precision, clippy::inconsistent_digit_grouping)]
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula for completeness on (0, 0.5).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + G + 0.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Natural log of `n!`.
#[must_use]
pub fn ln_factorial(n: u64) -> f64 {
    // Exact products stay cheap and exact for small n.
    if n < 16 {
        let mut acc = 1.0f64;
        for i in 2..=n {
            acc *= i as f64;
        }
        acc.ln()
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// Finds a root of `f` on `[lo, hi]` by bisection.
///
/// `f(lo)` and `f(hi)` must bracket a sign change. Returns the midpoint of
/// the final bracket after `iterations` halvings, or sooner once the
/// bracket is two adjacent floats and cannot shrink further.
///
/// # Errors
///
/// Returns [`BracketError`] if the endpoints do not bracket a sign change.
pub fn bisect<F>(mut f: F, mut lo: f64, mut hi: f64, iterations: u32) -> Result<f64, BracketError>
where
    F: FnMut(f64) -> f64,
{
    let flo = f(lo);
    let fhi = f(hi);
    if flo == 0.0 {
        return Ok(lo);
    }
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo.signum() == fhi.signum() {
        return Err(BracketError { lo, hi, flo, fhi });
    }
    for _ in 0..iterations {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            // Adjacent floats: no further halving can move the bracket.
            break;
        }
        let fmid = f(mid);
        if fmid == 0.0 {
            return Ok(mid);
        }
        if fmid.signum() == flo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// The endpoints handed to [`bisect`] did not bracket a root.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BracketError {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
    /// `f(lo)`.
    pub flo: f64,
    /// `f(hi)`.
    pub fhi: f64,
}

impl core::fmt::Display for BracketError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "no sign change on [{}, {}]: f(lo)={}, f(hi)={}",
            self.lo, self.hi, self.flo, self.fhi
        )
    }
}

impl std::error::Error for BracketError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..15u64 {
            let exact: f64 = (1..n).map(|i| (i as f64).ln()).sum();
            assert!(
                (ln_gamma(n as f64) - exact).abs() < 1e-10,
                "ln_gamma({n}) = {} vs {exact}",
                ln_gamma(n as f64)
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Gamma(1/2) = sqrt(pi)
        let expected = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expected).abs() < 1e-12);
    }

    #[test]
    fn ln_factorial_consistency() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
        assert!((ln_factorial(20) - ln_gamma(21.0)).abs() < 1e-9);
        // Continuity across the exact/gamma switchover at 16.
        let below = ln_factorial(15);
        let above = ln_factorial(16);
        assert!((above - below - 16f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn bisect_finds_sqrt2() {
        let root = bisect(|x| x * x - 2.0, 0.0, 2.0, 80).unwrap();
        assert!((root - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn bisect_accepts_exact_endpoint() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 10), Ok(0.0));
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 10), Ok(1.0));
    }

    #[test]
    fn bisect_reports_bad_bracket() {
        let err = bisect(|x| x * x + 1.0, -1.0, 1.0, 10).unwrap_err();
        assert!(err.to_string().contains("no sign change"));
    }
}
