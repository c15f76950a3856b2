//! Bursty surveillance traffic vs an online adversary.
//!
//! Event-triggered sensors are quiet until something happens, then report
//! rapidly — 200-packet bursts with long silences here. The paper's
//! adaptive adversary (§5.4) estimates one arrival rate for the whole
//! trace, which averages bursts into the silence and learns nothing. An
//! online attacker with a sliding window re-estimates the rate packet by
//! packet and recovers most of what RCAD's preemptions were hiding.
//!
//! ```text
//! cargo run --release --example burst_surveillance
//! ```

use temporal_privacy::core::experiment::{burst_adversary_experiment_with, SweepParams};
use temporal_privacy::net::TrafficModel;
use temporal_privacy::runtime::{Runtime, WorkerPool};

fn main() {
    let (burst, off, window) = (200u32, 2_000.0, 300.0);
    println!("On/off sources: {burst}-packet bursts, {off}-unit silences; RCAD k = 10, 1/mu = 30");
    let model = TrafficModel::on_off(2.0, burst, off);
    println!(
        "long-run rate at intra-burst interval 2: {:.4} packets/unit\n",
        model.mean_rate()
    );
    println!(
        "{:>16} {:>12} {:>16} {:>18} {:>10}",
        "burst interval", "baseline", "adaptive(batch)", "windowed(online)", "oracle"
    );
    let params = SweepParams {
        inv_lambdas: vec![1.0, 1.5, 2.0, 2.5, 3.0],
        ..SweepParams::paper_default()
    };
    for row in burst_adversary_experiment_with(
        &params,
        burst,
        off,
        window,
        &Runtime::new(WorkerPool::new()),
    ) {
        println!(
            "{:>16} {:>12.0} {:>16.0} {:>18.0} {:>10.0}",
            row.burst_interval,
            row.baseline_mse,
            row.adaptive_mse,
            row.windowed_mse,
            row.oracle_mse
        );
    }
    println!(
        "\nReading: whole-trace rate estimation (the paper's §5.4 model) is \
         blind to bursts;\na {window}-unit sliding window recovers ~70% of \
         the adversary's error at the burstiest\npoint. Privacy budgets \
         should assume windowed attackers."
    );
}
