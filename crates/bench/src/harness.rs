//! Interleaved best-of-N timing harness shared by the `perf_baseline`
//! bench modes.
//!
//! Every overhead row in this repo times several instrumentation modes
//! over the same deterministic workload. Two disciplines keep the
//! numbers honest, and they live here so no bench mode can drift its
//! own copy:
//!
//! * **Interleaving** — within each repeat the modes run back-to-back,
//!   so ambient machine load skews all of them equally instead of
//!   biasing whichever mode ran during a busy stretch.
//! * **Best-of-N** — the minimum over `repeats` is kept per mode, the
//!   standard guard against scheduler noise.

use std::time::Instant;

use serde::Serialize;

/// Wall-clock seconds for one invocation of `f`.
pub fn time_once<F: FnMut()>(mut f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Times `modes` interleaved over `repeats` rounds and returns the
/// per-mode minimum seconds, in mode order.
pub fn best_of_interleaved(repeats: u32, modes: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; modes.len()];
    for _ in 0..repeats {
        for (best, mode) in best.iter_mut().zip(modes.iter_mut()) {
            *best = best.min(time_once(&mut **mode));
        }
    }
    best
}

/// One instrumentation mode's timings across a sweep: the shape every
/// `BENCH_overhead.json` row serializes.
#[derive(Debug, Serialize)]
pub struct ModeTiming {
    /// Mode name, e.g. `probes_off`, `metrics`, `tracing`.
    pub mode: String,
    /// Best-of-repeats seconds per sweep point, in point order.
    pub point_secs: Vec<f64>,
    /// Sum of the per-point times.
    pub total_secs: f64,
}

impl ModeTiming {
    /// Assembles one mode's timing row and logs its total to stderr.
    #[must_use]
    pub fn new(name: &str, point_secs: Vec<f64>) -> ModeTiming {
        let total_secs: f64 = point_secs.iter().sum();
        eprintln!(
            "[perf] {name}: {total_secs:.3}s over {} points",
            point_secs.len()
        );
        ModeTiming {
            mode: name.to_string(),
            point_secs,
            total_secs,
        }
    }
}

/// The three ratios every overhead bench derives from its
/// `probes_off` / `metrics` / instrumented mode timings.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct OverheadSummary {
    /// `metrics total / probes_off total`.
    pub metrics_over_probes_off: f64,
    /// `instrumented total / probes_off total`.
    pub over_probes_off: f64,
    /// `instrumented total / metrics total` — the layer's increment.
    pub over_metrics: f64,
    /// Layer overhead in percent: `(instrumented/metrics - 1) * 100`.
    pub overhead_pct: f64,
}

impl OverheadSummary {
    /// Derives the ratios from the three mode timings.
    #[must_use]
    pub fn from_modes(
        probes_off: &ModeTiming,
        metrics: &ModeTiming,
        instrumented: &ModeTiming,
    ) -> OverheadSummary {
        let ratio = |a: &ModeTiming, b: &ModeTiming| a.total_secs / b.total_secs;
        OverheadSummary {
            metrics_over_probes_off: ratio(metrics, probes_off),
            over_probes_off: ratio(instrumented, probes_off),
            over_metrics: ratio(instrumented, metrics),
            overhead_pct: (ratio(instrumented, metrics) - 1.0) * 100.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_interleaved_keeps_one_minimum_per_mode() {
        let mut slow_calls = 0u32;
        let mut fast_calls = 0u32;
        let best = best_of_interleaved(
            3,
            &mut [
                &mut || {
                    slow_calls += 1;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                },
                &mut || fast_calls += 1,
            ],
        );
        assert_eq!(slow_calls, 3);
        assert_eq!(fast_calls, 3);
        assert_eq!(best.len(), 2);
        assert!(best[0] >= 0.002, "slow mode at least its sleep: {best:?}");
        assert!(best[1] < best[0], "fast mode beats slow mode: {best:?}");
    }

    #[test]
    fn overhead_summary_ratios_are_consistent() {
        let t = |name: &str, secs: f64| ModeTiming {
            mode: name.to_string(),
            point_secs: vec![secs],
            total_secs: secs,
        };
        let s = OverheadSummary::from_modes(&t("off", 1.0), &t("metrics", 1.25), &t("x", 1.5));
        assert!((s.metrics_over_probes_off - 1.25).abs() < 1e-12);
        assert!((s.over_probes_off - 1.5).abs() < 1e-12);
        assert!((s.over_metrics - 1.2).abs() < 1e-12);
        assert!((s.overhead_pct - 20.0).abs() < 1e-9);
    }

    #[test]
    fn mode_timing_totals_its_points() {
        let m = ModeTiming::new("probes_off", vec![0.25, 0.5]);
        assert_eq!(m.mode, "probes_off");
        assert!((m.total_secs - 0.75).abs() < 1e-12);
    }
}
