//! Traffic (packet creation) models.
//!
//! The analysis of §3–§4 assumes Poisson sources; the evaluation of §5
//! deliberately uses a *realistic* sensor model instead — strictly
//! periodic reporting with inter-arrival `1/λ`. Both are provided, plus a
//! jittered periodic model in between.

use serde::{Deserialize, Serialize};
use tempriv_sim::rng::SimRng;
use tempriv_sim::time::{SimDuration, SimTime};

/// How a source creates packets over time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TrafficModel {
    /// Strictly periodic creation every `interval` time units — the
    /// paper's §5.2 evaluation workload.
    Periodic {
        /// Inter-arrival time `1/λ`.
        interval: f64,
    },
    /// Periodic with uniform jitter: each gap is
    /// `interval · Uniform[1 − jitter, 1 + jitter]`.
    PeriodicJitter {
        /// Mean inter-arrival time.
        interval: f64,
        /// Relative jitter in `[0, 1)`.
        jitter: f64,
    },
    /// Poisson process of the given rate — the §3/§4 analysis workload.
    Poisson {
        /// Creation rate λ.
        rate: f64,
    },
    /// Bursty on/off source: `burst` packets spaced `interval`, then an
    /// `off` pause, repeating — an asset passing a sensor, a threshold
    /// alarm, duty-cycled reporting.
    OnOff {
        /// Intra-burst inter-arrival time.
        interval: f64,
        /// Packets per burst.
        burst: u32,
        /// Pause between the last packet of a burst and the first of the
        /// next.
        off: f64,
    },
}

impl TrafficModel {
    /// Creates a periodic model from an inter-arrival time.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is non-positive or not finite.
    #[must_use]
    pub fn periodic(interval: f64) -> Self {
        assert!(
            interval.is_finite() && interval > 0.0,
            "inter-arrival time must be positive, got {interval}"
        );
        TrafficModel::Periodic { interval }
    }

    /// Creates a jittered periodic model.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is non-positive/not finite or `jitter` is
    /// outside `[0, 1)`.
    #[must_use]
    pub fn periodic_jitter(interval: f64, jitter: f64) -> Self {
        assert!(
            interval.is_finite() && interval > 0.0,
            "inter-arrival time must be positive, got {interval}"
        );
        assert!(
            (0.0..1.0).contains(&jitter),
            "jitter must be in [0, 1), got {jitter}"
        );
        TrafficModel::PeriodicJitter { interval, jitter }
    }

    /// Creates a Poisson model from a rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is non-positive or not finite.
    #[must_use]
    pub fn poisson(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "creation rate must be positive, got {rate}"
        );
        TrafficModel::Poisson { rate }
    }

    /// Creates a bursty on/off model.
    ///
    /// # Panics
    ///
    /// Panics if `interval` or `off` is non-positive/not finite, or
    /// `burst == 0`.
    #[must_use]
    pub fn on_off(interval: f64, burst: u32, off: f64) -> Self {
        assert!(
            interval.is_finite() && interval > 0.0,
            "intra-burst interval must be positive, got {interval}"
        );
        assert!(burst > 0, "bursts need at least one packet");
        assert!(
            off.is_finite() && off > 0.0,
            "off time must be positive, got {off}"
        );
        TrafficModel::OnOff {
            interval,
            burst,
            off,
        }
    }

    /// Long-run mean creation rate λ.
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        match *self {
            TrafficModel::Periodic { interval } | TrafficModel::PeriodicJitter { interval, .. } => {
                1.0 / interval
            }
            TrafficModel::Poisson { rate } => rate,
            TrafficModel::OnOff {
                interval,
                burst,
                off,
            } => f64::from(burst) / (f64::from(burst - 1) * interval + off),
        }
    }

    /// Samples the gap to the next packet creation for *memoryless*
    /// models.
    ///
    /// # Panics
    ///
    /// Panics for [`TrafficModel::OnOff`], whose gaps depend on burst
    /// position — use [`TrafficModel::sampler`] instead.
    pub fn next_interarrival(&self, rng: &mut SimRng) -> SimDuration {
        let gap = match *self {
            TrafficModel::Periodic { interval } => interval,
            TrafficModel::PeriodicJitter { interval, jitter } => {
                rng.sample_uniform(interval * (1.0 - jitter), interval * (1.0 + jitter))
            }
            TrafficModel::Poisson { rate } => rng.sample_exp(1.0 / rate),
            TrafficModel::OnOff { .. } => {
                panic!("on/off traffic is stateful; use TrafficModel::sampler()")
            }
        };
        SimDuration::from_units(gap)
    }

    /// Creates a stateful gap sampler (required for [`TrafficModel::OnOff`];
    /// equivalent to [`TrafficModel::next_interarrival`] for the others).
    #[must_use]
    pub fn sampler(&self) -> TrafficSampler {
        TrafficSampler {
            model: *self,
            burst_pos: 0,
        }
    }

    /// Materializes the first `count` creation instants, starting one gap
    /// after `start` (the paper's sources emit their first packet after
    /// one full interval).
    #[must_use]
    pub fn schedule(&self, start: SimTime, count: usize, rng: &mut SimRng) -> Vec<SimTime> {
        let mut sampler = self.sampler();
        let mut out = Vec::with_capacity(count);
        let mut at = start;
        for _ in 0..count {
            at += sampler.next_interarrival(rng);
            out.push(at);
        }
        out
    }
}

/// A stateful per-source gap sampler (tracks burst position for
/// [`TrafficModel::OnOff`]; stateless otherwise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSampler {
    model: TrafficModel,
    burst_pos: u32,
}

impl TrafficSampler {
    /// Samples the gap to the next packet creation.
    pub fn next_interarrival(&mut self, rng: &mut SimRng) -> SimDuration {
        match self.model {
            TrafficModel::OnOff {
                interval,
                burst,
                off,
            } => {
                // The gap *before* packet at burst position p: an off-pause
                // before each burst's first packet, `interval` inside.
                let gap = if self.burst_pos == 0 { off } else { interval };
                self.burst_pos = (self.burst_pos + 1) % burst;
                SimDuration::from_units(gap)
            }
            stateless => stateless.next_interarrival(rng),
        }
    }

    /// The underlying model.
    #[must_use]
    pub const fn model(&self) -> TrafficModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempriv_sim::rng::RngFactory;

    fn rng() -> SimRng {
        RngFactory::new(99).stream(0)
    }

    #[test]
    fn periodic_gaps_are_exact() {
        let m = TrafficModel::periodic(2.0);
        let mut r = rng();
        for _ in 0..5 {
            assert_eq!(m.next_interarrival(&mut r), SimDuration::from_units(2.0));
        }
        assert_eq!(m.mean_rate(), 0.5);
    }

    #[test]
    fn schedule_is_arithmetic_for_periodic() {
        let m = TrafficModel::periodic(3.0);
        let mut r = rng();
        let times = m.schedule(SimTime::ZERO, 4, &mut r);
        let units: Vec<f64> = times.iter().map(|t| t.as_units()).collect();
        assert_eq!(units, vec![3.0, 6.0, 9.0, 12.0]);
    }

    #[test]
    fn jitter_stays_within_band() {
        let m = TrafficModel::periodic_jitter(10.0, 0.2);
        let mut r = rng();
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let gap = m.next_interarrival(&mut r).as_units();
            assert!((8.0..12.0).contains(&gap), "gap {gap}");
            sum += gap;
        }
        assert!((sum / 10_000.0 - 10.0).abs() < 0.1);
        assert_eq!(m.mean_rate(), 0.1);
    }

    #[test]
    fn poisson_gaps_have_exponential_mean() {
        let m = TrafficModel::poisson(0.5);
        let mut r = rng();
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| m.next_interarrival(&mut r).as_units()).sum();
        assert!((sum / n as f64 - 2.0).abs() < 0.05);
    }

    #[test]
    fn poisson_counts_are_poisson_distributed() {
        // Count creations in unit windows; variance should match the mean.
        let m = TrafficModel::poisson(3.0);
        let mut r = rng();
        let times = m.schedule(SimTime::ZERO, 60_000, &mut r);
        let horizon = times.last().unwrap().as_units();
        let windows = horizon.floor() as usize;
        let mut counts = vec![0u32; windows + 1];
        for t in &times {
            let w = t.as_units().floor() as usize;
            if w <= windows {
                counts[w] += 1;
            }
        }
        let n = counts.len() as f64;
        let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / n;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!(
            (var / mean - 1.0).abs() < 0.1,
            "index of dispersion {}",
            var / mean
        );
    }

    #[test]
    fn schedule_starts_after_one_gap() {
        let m = TrafficModel::periodic(5.0);
        let mut r = rng();
        let times = m.schedule(SimTime::from_units(100.0), 1, &mut r);
        assert_eq!(times[0], SimTime::from_units(105.0));
    }

    #[test]
    fn on_off_gaps_follow_burst_structure() {
        let m = TrafficModel::on_off(2.0, 3, 50.0);
        let mut sampler = m.sampler();
        let mut r = rng();
        let gaps: Vec<f64> = (0..7)
            .map(|_| sampler.next_interarrival(&mut r).as_units())
            .collect();
        // off, in, in, off, in, in, off
        assert_eq!(gaps, vec![50.0, 2.0, 2.0, 50.0, 2.0, 2.0, 50.0]);
        assert_eq!(sampler.model(), m);
    }

    #[test]
    fn on_off_mean_rate_matches_schedule() {
        let m = TrafficModel::on_off(2.0, 5, 40.0);
        // Cycle: 4 gaps of 2 + one of 40 = 48 units for 5 packets.
        assert!((m.mean_rate() - 5.0 / 48.0).abs() < 1e-12);
        let mut r = rng();
        let times = m.schedule(SimTime::ZERO, 500, &mut r);
        let span = (times[499] - times[0]).as_units();
        let measured = 499.0 / span;
        assert!((measured - m.mean_rate()).abs() < 0.01 * m.mean_rate());
    }

    #[test]
    #[should_panic(expected = "stateful")]
    fn on_off_rejects_stateless_sampling() {
        let mut r = rng();
        let _ = TrafficModel::on_off(1.0, 2, 5.0).next_interarrival(&mut r);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_interval_rejected() {
        let _ = TrafficModel::periodic(0.0);
    }

    #[test]
    #[should_panic(expected = "jitter")]
    fn out_of_range_jitter_rejected() {
        let _ = TrafficModel::periodic_jitter(1.0, 1.0);
    }
}
