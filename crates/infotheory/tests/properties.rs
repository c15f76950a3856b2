//! Property-based tests for the information-theoretic machinery.

use proptest::prelude::*;
use tempriv_infotheory::bounds::btq_packet_bound_nats;
use tempriv_infotheory::distributions::{
    ContinuousDist, ErlangDist, Exponential, Gaussian, Uniform,
};
use tempriv_infotheory::estimators::{
    mi_from_samples_nats, mi_lower_bound_from_mse_nats, mse_lower_bound_from_mi,
};
use tempriv_infotheory::grid::GridDensity;
use tempriv_infotheory::mutual_information::{epi_lower_bound_nats, gaussian_channel_mi_nats};
use tempriv_infotheory::special::{digamma, ln_gamma};
use tempriv_infotheory::streaming::StreamingMi;

proptest! {
    /// Exponential entropy closed form: h = 1 + ln(mean), increasing in
    /// the mean — longer delays always hide more.
    #[test]
    fn exponential_entropy_monotone(mean in 0.01f64..1e4) {
        let d = Exponential::with_mean(mean);
        prop_assert!((d.entropy_nats() - (1.0 + mean.ln())).abs() < 1e-10);
        let bigger = Exponential::with_mean(mean * 2.0);
        prop_assert!(bigger.entropy_nats() > d.entropy_nats());
    }

    /// At any fixed mean, exponential >= uniform >= degenerate entropy —
    /// the §3.1 max-entropy ordering used to justify exponential delays.
    #[test]
    fn max_entropy_ordering(mean in 0.01f64..1e4) {
        let e = Exponential::with_mean(mean).entropy_nats();
        let u = Uniform::with_mean(mean).entropy_nats();
        prop_assert!(e > u);
    }

    /// CDFs are monotone and land in [0,1] for every shipped distribution.
    #[test]
    fn cdfs_are_distribution_functions(
        mean in 0.1f64..100.0,
        shape in 1u32..30,
        xs in prop::collection::vec(-10.0f64..500.0, 1..30),
    ) {
        let dists: Vec<Box<dyn ContinuousDist>> = vec![
            Box::new(Exponential::with_mean(mean)),
            Box::new(Uniform::with_mean(mean)),
            Box::new(ErlangDist::new(shape, shape as f64 / mean)),
            Box::new(Gaussian::new(mean, mean / 2.0)),
        ];
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for d in &dists {
            let mut prev = 0.0;
            for &x in &sorted {
                let c = d.cdf(x);
                prop_assert!((-1e-12..=1.0 + 1e-9).contains(&c));
                prop_assert!(c >= prev - 1e-9);
                prev = c;
            }
        }
    }

    /// Gridded densities integrate to one and reproduce the source mean.
    #[test]
    fn grid_density_preserves_mass_and_mean(mean in 0.5f64..50.0) {
        let d = Exponential::with_mean(mean);
        let g = GridDensity::from_dist(&d, mean * 30.0, 4_000);
        prop_assert!((g.integral() - 1.0).abs() < 1e-9);
        prop_assert!((g.mean() - mean).abs() < 0.02 * mean);
    }

    /// Convolution preserves total mass and adds means.
    #[test]
    fn convolution_adds_means(a in 0.5f64..20.0, b in 0.5f64..20.0) {
        let hi = (a + b) * 25.0;
        let step_src = hi / 3_000.0;
        let na = ((a * 25.0) / step_src).ceil() as usize + 2;
        let nb = ((b * 25.0) / step_src).ceil() as usize + 2;
        let ga = GridDensity::from_dist(&Exponential::with_mean(a), step_src * (na - 1) as f64, na);
        let gb = GridDensity::from_dist(&Exponential::with_mean(b), step_src * (nb - 1) as f64, nb);
        let sum = ga.convolve(&gb);
        prop_assert!((sum.integral() - 1.0).abs() < 1e-9);
        prop_assert!(
            (sum.mean() - (a + b)).abs() < 0.05 * (a + b),
            "mean {} vs {}",
            sum.mean(),
            a + b
        );
    }

    /// The EPI lower bound never exceeds the exact Gaussian-channel MI
    /// (it is tight there), for any variance pair.
    #[test]
    fn epi_tight_for_gaussians(vx in 0.01f64..1e4, vy in 0.01f64..1e4) {
        let hx = Gaussian::new(0.0, vx.sqrt()).entropy_nats();
        let hy = Gaussian::new(0.0, vy.sqrt()).entropy_nats();
        let bound = epi_lower_bound_nats(hx, hy);
        let exact = gaussian_channel_mi_nats(vx, vy);
        prop_assert!((bound - exact).abs() < 1e-9);
    }

    /// The BTQ bound is positive, increasing in j and mu, decreasing in
    /// lambda.
    #[test]
    fn btq_bound_shape(j in 1u64..1_000, mu in 0.001f64..10.0, lambda in 0.001f64..10.0) {
        let b = btq_packet_bound_nats(j, mu, lambda);
        prop_assert!(b > 0.0);
        prop_assert!(btq_packet_bound_nats(j + 1, mu, lambda) > b);
        prop_assert!(btq_packet_bound_nats(j, mu * 2.0, lambda) > b);
        prop_assert!(btq_packet_bound_nats(j, mu, lambda * 2.0) < b);
    }

    /// The MSE <-> MI bridge round-trips and is monotone the right way.
    #[test]
    fn mse_mi_bridge_round_trip(var_x in 0.01f64..1e6, mi in 0.0f64..5.0) {
        let mse = mse_lower_bound_from_mi(var_x, mi);
        prop_assert!(mse <= var_x + 1e-9);
        if mse > 0.0 {
            let back = mi_lower_bound_from_mse_nats(var_x, mse);
            prop_assert!((back - mi).abs() < 1e-9);
        }
    }

    /// ln_gamma satisfies the functional equation and digamma is its
    /// logarithmic derivative.
    #[test]
    fn gamma_functional_equation(x in 0.1f64..50.0) {
        prop_assert!((ln_gamma(x + 1.0) - ln_gamma(x) - x.ln()).abs() < 1e-9);
        prop_assert!((digamma(x + 1.0) - digamma(x) - 1.0 / x).abs() < 1e-9);
    }

    /// The streaming MI estimator is exactly permutation invariant: the
    /// origin-anchored dyadic grid makes width doublings commute with
    /// insertion order, so any arrival order of the same sample set must
    /// produce bit-identical joint counts and MI.
    #[test]
    fn streaming_mi_is_exactly_permutation_invariant(
        pairs in prop::collection::vec((-100.0f64..100.0, -1.0f64..1.0), 50..400),
    ) {
        let mut forward = StreamingMi::new(16);
        for &(x, n) in &pairs {
            forward.push(x, 0.8 * x + 20.0 * n);
        }
        let mut backward = StreamingMi::new(16);
        for &(x, n) in pairs.iter().rev() {
            backward.push(x, 0.8 * x + 20.0 * n);
        }
        // Strided replay: a third, interleaved order.
        let mut strided = StreamingMi::new(16);
        let stride = 7;
        for offset in 0..stride {
            for &(x, n) in pairs.iter().skip(offset).step_by(stride) {
                strided.push(x, 0.8 * x + 20.0 * n);
            }
        }
        prop_assert_eq!(forward.joint_counts(), backward.joint_counts());
        prop_assert_eq!(forward.joint_counts(), strided.joint_counts());
        prop_assert_eq!(forward.mi_nats().to_bits(), backward.mi_nats().to_bits());
        prop_assert_eq!(forward.mi_nats().to_bits(), strided.mi_nats().to_bits());
    }

    /// On the same sample set the streaming estimator agrees with the
    /// batch histogram estimator (run at the streaming grid's effective
    /// resolution) within a tolerance that covers their different bin
    /// anchoring — the fixed-memory grid gives up nothing material.
    #[test]
    fn streaming_mi_tracks_the_batch_estimator(
        pairs in prop::collection::vec((-100.0f64..100.0, -1.0f64..1.0), 500..800),
    ) {
        let xs: Vec<f64> = pairs.iter().map(|&(x, _)| x).collect();
        let zs: Vec<f64> = pairs.iter().map(|&(x, n)| 0.8 * x + 20.0 * n).collect();
        let mut stream = StreamingMi::new(16);
        for (&x, &z) in xs.iter().zip(&zs) {
            stream.push(x, z);
        }
        let bins = stream.effective_x_bins().max(stream.effective_z_bins()).max(2);
        let batch = mi_from_samples_nats(&xs, &zs, bins).unwrap();
        let streaming = stream.mi_nats();
        prop_assert!(
            (streaming - batch).abs() <= 0.15 * batch.max(0.5),
            "streaming {} vs batch {} at {} bins",
            streaming,
            batch,
            bins
        );
    }
}
