//! End-to-end reproduction checks: the qualitative shapes of every paper
//! figure must hold (DESIGN.md §4 "shape criteria"). Runs are smaller
//! than the paper's (300–800 packets) to keep CI fast, and each test
//! samples two or three rates. At those rates the orderings asserted
//! here also hold in the full-scale `results/` CSVs, but full scale is
//! not monotone everywhere: Figure 2(a)'s RCAD MSE falls only up to
//! 1/λ = 12 and then sits within the unlimited case's noise, which the
//! 2/8/20 decay check below does not sample (see EXPERIMENTS.md).

use temporal_privacy::core::experiment::{
    adversary_panel_sweep_with, fig2_sweep_with, fig3_sweep_with, SweepParams,
};
use temporal_privacy::runtime::{Runtime, WorkerPool};

fn quick(inv_lambdas: Vec<f64>, packets: u32) -> SweepParams {
    SweepParams {
        inv_lambdas,
        packets_per_source: packets,
        ..SweepParams::paper_default()
    }
}

#[test]
fn fig2a_privacy_ordering_at_high_traffic() {
    let rows = fig2_sweep_with(&quick(vec![2.0], 600), &Runtime::new(WorkerPool::new()));
    let fast = &rows[0];
    // No-delay leaks everything: MSE exactly 0 under the paper's
    // constant-tau link abstraction.
    assert!(fast.no_delay.mse < 1e-9, "{:?}", fast.no_delay);
    // Unlimited buffers: the adversary corrects for the known mean; MSE
    // equals the delay variance scale h/mu^2 ~ 13.5k, far below RCAD.
    assert!(fast.unlimited.mse > 5_000.0 && fast.unlimited.mse < 30_000.0);
    // RCAD at the highest rate: preemption wrecks the adversary's model.
    assert!(
        fast.rcad.mse > 3.0 * fast.unlimited.mse,
        "rcad {} vs unlimited {}",
        fast.rcad.mse,
        fast.unlimited.mse
    );
}

#[test]
fn fig2a_rcad_mse_decays_with_slower_traffic() {
    let rows = fig2_sweep_with(
        &quick(vec![2.0, 8.0, 20.0], 400),
        &Runtime::new(WorkerPool::new()),
    );
    assert!(rows[0].rcad.mse > rows[1].rcad.mse);
    assert!(rows[1].rcad.mse > 0.5 * rows[0].rcad.mse || rows[1].rcad.mse > rows[2].rcad.mse);
    // At the slowest rate RCAD approaches the unlimited-buffer MSE
    // (preemption has almost vanished).
    let slow = &rows[2];
    assert!(
        slow.rcad.mse < 2.0 * slow.unlimited.mse,
        "rcad {} vs unlimited {}",
        slow.rcad.mse,
        slow.unlimited.mse
    );
}

#[test]
fn fig2b_latency_ordering_and_magnitudes() {
    let rows = fig2_sweep_with(
        &quick(vec![2.0, 20.0], 600),
        &Runtime::new(WorkerPool::new()),
    );
    for row in &rows {
        // No-delay latency is exactly h*tau = 15 for flow S1.
        assert!((row.no_delay.mean_latency - 15.0).abs() < 1e-9);
        // Unlimited ~ h*(tau + 1/mu) = 465, flat across rates.
        assert!(
            (row.unlimited.mean_latency - 465.0).abs() < 30.0,
            "unlimited latency {}",
            row.unlimited.mean_latency
        );
        // RCAD sits strictly between.
        assert!(row.no_delay.mean_latency < row.rcad.mean_latency);
        assert!(row.rcad.mean_latency < row.unlimited.mean_latency);
    }
    // The paper's headline: a >= 2x latency reduction at 1/lambda = 2
    // (it reports ~2.5x on its testbed-calibrated topology).
    let fast = &rows[0];
    assert!(
        fast.unlimited.mean_latency / fast.rcad.mean_latency > 2.0,
        "reduction factor {}",
        fast.unlimited.mean_latency / fast.rcad.mean_latency
    );
    // And the reduction fades at the slowest rate.
    let slow = &rows[1];
    assert!(slow.unlimited.mean_latency / slow.rcad.mean_latency < 1.2);
}

#[test]
fn fig3_adaptive_adversary_gains_at_high_traffic_only() {
    let rows = fig3_sweep_with(
        &quick(vec![2.0, 20.0], 800),
        &Runtime::new(WorkerPool::new()),
    );
    let fast = &rows[0];
    assert!(
        fast.adaptive_mse < 0.7 * fast.baseline_mse,
        "adaptive {} vs baseline {}",
        fast.adaptive_mse,
        fast.baseline_mse
    );
    // ...but cannot eliminate the error (the paper's emphasis).
    assert!(fast.adaptive_mse > 1_000.0);
    // At the slowest rate the Erlang-loss switch keeps it at baseline.
    let slow = &rows[1];
    assert!((slow.adaptive_mse - slow.baseline_mse).abs() < 1e-6);
}

#[test]
fn e1_adversary_hierarchy_is_ordered() {
    let rows = adversary_panel_sweep_with(
        &quick(vec![2.0, 8.0], 800),
        &Runtime::new(WorkerPool::new()),
    );
    for row in &rows {
        assert!(row.adaptive_mse <= row.baseline_mse + 1e-9, "{row:?}");
        assert!(row.route_aware_mse <= row.adaptive_mse + 1e-9, "{row:?}");
        // The oracle is the constant-offset floor (tiny tolerance: the
        // route-aware estimate can tie it to within noise).
        assert!(row.oracle_mse <= row.route_aware_mse * 1.02, "{row:?}");
        assert!(row.oracle_mse > 0.0);
    }
}
