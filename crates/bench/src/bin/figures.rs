//! Regenerates every paper figure and validation table, printing aligned
//! tables and writing CSVs under `results/`.
//!
//! ```text
//! cargo run --release -p tempriv-bench --bin figures            # everything
//! cargo run --release -p tempriv-bench --bin figures fig2a fig3 # a subset
//! ```
//!
//! Valid selectors: `fig2a`, `fig2b`, `fig3`, `v1`, `v2`, `v3`, `v4`,
//! `a1`, `a2`, `a3`, `e1`, `e2`, `e3`, `e4`, `t1`, `p1`, `all`.
//!
//! `TEMPRIV_RESULTS_DIR` redirects the output directory (default
//! `results`). The process exits 1 if any file could not be written.
//! The `figures_reproduce` test reruns every selector into a scratch
//! directory and byte-compares the output with the committed `results/`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use tempriv_bench::table::{fmt_f, Series};
use tempriv_bench::validation::{
    btq_bound_experiment, burke_experiment, erlang_loss_experiment, mm_inf_occupancy_experiment,
};
use tempriv_core::adaptive_mu::rate_controlled_plan;
use tempriv_core::adversary::BaselineAdversary;
use tempriv_core::buffer::BufferPolicy;
use tempriv_core::delay::DelayPlan;
use tempriv_core::experiment::{
    adversary_panel_sweep_with, burst_adversary_experiment_with, decomposition_experiment_with,
    delay_ablation_sweep_with, fig2_sweep_with, fig3_sweep_with, mix_comparison_sweep_with,
    victim_ablation_sweep_with, SweepParams,
};
use tempriv_core::metrics::evaluate_adversary;
use tempriv_core::sim_driver::NetworkSimulation;
use tempriv_core::telemetry::privacy_probe_for;
use tempriv_infotheory::distributions::{ContinuousDist, ErlangDist};
use tempriv_infotheory::estimators::entropy_from_samples_nats;
use tempriv_infotheory::mutual_information::epi_lower_bound_nats;
use tempriv_net::convergecast::Convergecast;
use tempriv_net::ids::FlowId;
use tempriv_net::traffic::TrafficModel;
use tempriv_runtime::{Runtime, WorkerPool};
use tempriv_telemetry::FlightRecorder;

fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("TEMPRIV_RESULTS_DIR").unwrap_or_else(|_| "results".into()))
}

/// Set when any `emit` fails to write, so `main` can exit nonzero.
static WRITE_FAILED: AtomicBool = AtomicBool::new(false);

fn emit(name: &str, title: &str, series: &Series) {
    println!("== {title} ==\n{}", series.to_table());
    let path = results_dir().join(format!("{name}.csv"));
    match series
        .write_csv(&path)
        .and_then(|()| series.write_gnuplot(title, &path))
    {
        Ok(()) => println!("[written {} and companion .gp]\n", path.display()),
        Err(e) => {
            eprintln!("[failed to write {}: {e}]\n", path.display());
            WRITE_FAILED.store(true, Ordering::Relaxed);
        }
    }
}

fn fig2(which_panel: Option<char>) {
    let rows = fig2_sweep_with(
        &SweepParams::paper_default(),
        &Runtime::new(WorkerPool::new()),
    );
    if which_panel != Some('b') {
        let mut mse = Series::new(["inv_lambda", "no_delay", "delay_unlimited", "delay_rcad"]);
        for r in &rows {
            mse.push_row([
                fmt_f(r.inv_lambda, 0),
                fmt_f(r.no_delay.mse, 2),
                fmt_f(r.unlimited.mse, 2),
                fmt_f(r.rcad.mse, 2),
            ]);
        }
        emit(
            "fig2a",
            "Figure 2(a): adversary MSE vs 1/lambda (flow S1)",
            &mse,
        );
    }
    if which_panel != Some('a') {
        let mut lat = Series::new(["inv_lambda", "no_delay", "delay_unlimited", "delay_rcad"]);
        for r in &rows {
            lat.push_row([
                fmt_f(r.inv_lambda, 0),
                fmt_f(r.no_delay.mean_latency, 2),
                fmt_f(r.unlimited.mean_latency, 2),
                fmt_f(r.rcad.mean_latency, 2),
            ]);
        }
        emit(
            "fig2b",
            "Figure 2(b): mean delivery latency vs 1/lambda (flow S1)",
            &lat,
        );
    }
}

fn fig3() {
    let rows = fig3_sweep_with(
        &SweepParams::paper_default(),
        &Runtime::new(WorkerPool::new()),
    );
    let mut s = Series::new(["inv_lambda", "baseline_mse", "adaptive_mse"]);
    for r in &rows {
        s.push_row([
            fmt_f(r.inv_lambda, 0),
            fmt_f(r.baseline_mse, 2),
            fmt_f(r.adaptive_mse, 2),
        ]);
    }
    emit(
        "fig3",
        "Figure 3: baseline vs adaptive adversary MSE (flow S1)",
        &s,
    );
}

fn v1() {
    let rows = btq_bound_experiment(0.5, 1.0 / 30.0, &[1, 2, 4, 8, 16, 32, 64], 60_000, 1);
    let mut s = Series::new(["j", "bound_nats", "empirical_nats"]);
    for r in &rows {
        s.push_row([
            r.j.to_string(),
            fmt_f(r.bound_nats, 4),
            fmt_f(r.empirical_nats, 4),
        ]);
    }
    emit(
        "v1_btq_bound",
        "V1: bits-through-queues bound vs empirical MI (nats)",
        &s,
    );
}

fn v2() {
    let mut s = Series::new([
        "lambda",
        "delay_mean",
        "rho",
        "measured_mean",
        "tv_distance",
    ]);
    for &(lambda, mean) in &[(0.2f64, 10.0f64), (0.5, 10.0), (0.5, 30.0), (1.0, 30.0)] {
        let check = mm_inf_occupancy_experiment(lambda, mean, 40_000, 21);
        s.push_row([
            fmt_f(lambda, 2),
            fmt_f(mean, 1),
            fmt_f(check.rho, 1),
            fmt_f(check.measured_mean, 3),
            fmt_f(check.tv_distance, 4),
        ]);
    }
    emit("v2_mm_inf", "V2: M/M/inf occupancy vs Poisson(rho)", &s);
}

fn v3() {
    let rows = erlang_loss_experiment(
        &[0.5, 1.0, 2.0, 5.0, 8.0, 12.0, 15.0, 20.0, 40.0],
        10,
        10.0,
        30_000,
        23,
    );
    let mut s = Series::new(["rho", "erlang_b_analytic", "measured_drop_rate"]);
    for r in &rows {
        s.push_row([fmt_f(r.rho, 1), fmt_f(r.analytic, 4), fmt_f(r.measured, 4)]);
    }
    emit(
        "v3_erlang",
        "V3: drop-tail loss vs Erlang formula (k = 10)",
        &s,
    );
}

fn v4() {
    let mut s = Series::new([
        "lambda",
        "cv_squared",
        "ks_statistic",
        "ks_critical_5pct",
        "gaps",
    ]);
    for &lambda in &[0.2, 0.5, 1.0] {
        let check = burke_experiment(lambda, 10.0, 40_000, 25);
        s.push_row([
            fmt_f(lambda, 2),
            fmt_f(check.cv_squared, 4),
            fmt_f(check.ks_statistic, 4),
            fmt_f(check.ks_critical, 4),
            check.samples.to_string(),
        ]);
    }
    emit(
        "v4_burke",
        "V4: Burke's theorem on simulated departures",
        &s,
    );
}

fn e1() {
    let rows = adversary_panel_sweep_with(
        &SweepParams::paper_default(),
        &Runtime::new(WorkerPool::new()),
    );
    let mut s = Series::new([
        "inv_lambda",
        "baseline",
        "adaptive",
        "route_aware",
        "oracle",
    ]);
    for r in &rows {
        s.push_row([
            fmt_f(r.inv_lambda, 0),
            fmt_f(r.baseline_mse, 2),
            fmt_f(r.adaptive_mse, 2),
            fmt_f(r.route_aware_mse, 2),
            fmt_f(r.oracle_mse, 2),
        ]);
    }
    emit(
        "e1_adversary_panel",
        "E1: adversary hierarchy, MSE under RCAD (flow S1)",
        &s,
    );
}

fn e2() {
    let rows = decomposition_experiment_with(
        &SweepParams::paper_default(),
        8.0,
        450.0,
        &Runtime::new(WorkerPool::new()),
    );
    let mut s = Series::new([
        "shape",
        "buffers",
        "mse_s1",
        "latency_s1",
        "max_mean_occupancy",
        "preemptions",
    ]);
    for r in &rows {
        s.push_row([
            format!("{:?}", r.shape),
            if r.limited_buffers {
                "rcad_k10"
            } else {
                "unlimited"
            }
            .to_string(),
            fmt_f(r.mse, 2),
            fmt_f(r.mean_latency, 2),
            fmt_f(r.max_mean_occupancy, 3),
            r.preemptions.to_string(),
        ]);
    }
    emit(
        "e2_decomposition",
        "E2: delay-budget decomposition across the path (budget 450, 1/lambda = 8)",
        &s,
    );
}

fn e3() {
    let rows = mix_comparison_sweep_with(
        &SweepParams::paper_default(),
        &Runtime::new(WorkerPool::new()),
    );
    let mut s = Series::new([
        "mechanism",
        "inv_lambda",
        "oracle_mse",
        "latency",
        "reordering",
        "stranded",
    ]);
    for r in &rows {
        s.push_row([
            format!("{:?}", r.mechanism),
            fmt_f(r.inv_lambda, 0),
            fmt_f(r.oracle_mse, 2),
            fmt_f(r.mean_latency, 2),
            fmt_f(r.reordering, 3),
            r.stranded.to_string(),
        ]);
    }
    emit(
        "e3_mix_comparison",
        "E3: RCAD vs Chaum threshold mixes (privacy floor / latency / reordering)",
        &s,
    );
}

fn burst_params() -> SweepParams {
    // Intra-burst intervals where the rate-based estimate k/lambda is
    // meaningfully below the advertised 1/mu = 30 (interval < k*30/k = 3).
    SweepParams {
        inv_lambdas: vec![1.0, 1.5, 2.0, 2.5, 3.0],
        ..SweepParams::paper_default()
    }
}

fn e4() {
    let rows = burst_adversary_experiment_with(
        &burst_params(),
        200,
        2_000.0,
        300.0,
        &Runtime::new(WorkerPool::new()),
    );
    let mut s = Series::new([
        "burst_interval",
        "baseline",
        "adaptive_batch",
        "windowed_online",
        "oracle",
    ]);
    for r in &rows {
        s.push_row([
            fmt_f(r.burst_interval, 1),
            fmt_f(r.baseline_mse, 2),
            fmt_f(r.adaptive_mse, 2),
            fmt_f(r.windowed_mse, 2),
            fmt_f(r.oracle_mse, 2),
        ]);
    }
    emit(
        "e4_bursty_adversaries",
        "E4: on/off sources (200-packet bursts, 2000u silence) - offline vs online adversaries",
        &s,
    );
}

fn a1() {
    let rows = victim_ablation_sweep_with(
        &SweepParams::paper_default(),
        &Runtime::new(WorkerPool::new()),
    );
    let mut s = Series::new(["victim", "inv_lambda", "mse", "latency", "preemptions"]);
    for r in &rows {
        s.push_row([
            format!("{:?}", r.victim),
            fmt_f(r.inv_lambda, 0),
            fmt_f(r.mse, 2),
            fmt_f(r.mean_latency, 2),
            r.preemptions.to_string(),
        ]);
    }
    emit("a1_victim", "A1: victim-policy ablation (flow S1)", &s);
}

fn a2() {
    let rows = delay_ablation_sweep_with(
        &SweepParams::paper_default(),
        &Runtime::new(WorkerPool::new()),
    );
    let mut s = Series::new(["distribution", "inv_lambda", "mse", "latency"]);
    for r in &rows {
        s.push_row([
            format!("{:?}", r.distribution),
            fmt_f(r.inv_lambda, 0),
            fmt_f(r.mse, 2),
            fmt_f(r.mean_latency, 2),
        ]);
    }
    emit(
        "a2_delay_distribution",
        "A2: delay-distribution ablation, unlimited buffers (flow S1)",
        &s,
    );
}

fn a3() {
    let layout = Convergecast::paper_figure1();
    let inv_lambda = 4.0;
    let run = |label: &str, plan: DelayPlan| {
        let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .traffic(TrafficModel::periodic(inv_lambda))
            .packets_per_source(1000)
            .delay_plan(plan)
            .buffer_policy(BufferPolicy::paper_rcad())
            .seed(3)
            .build()
            .expect("valid simulation");
        let outcome = sim.run();
        let knowledge = sim.adversary_knowledge();
        let report = evaluate_adversary(&outcome, &BaselineAdversary, &knowledge);
        let counts = sim.routing().flows_per_node(sim.sources());
        let max_rate = outcome
            .field_reports()
            .zip(&counts)
            .filter(|(_, &c)| c > 0)
            .map(|(n, &c)| n.preemptions as f64 / (1000.0 * f64::from(c)))
            .fold(0.0f64, f64::max);
        (
            label.to_string(),
            report.mse(FlowId(0)),
            outcome.flows[0].latency.mean(),
            outcome.total_preemptions(),
            max_rate,
        )
    };
    let uniform = run("uniform_mu", DelayPlan::shared_exponential(30.0));
    let controlled = run(
        "rate_controlled_alpha_0.05",
        rate_controlled_plan(
            layout.routing(),
            layout.sources(),
            1.0 / inv_lambda,
            10,
            0.05,
        ),
    );
    let mut s = Series::new([
        "plan",
        "mse_s1",
        "latency_s1",
        "preemptions",
        "max_preempt_rate",
    ]);
    for (label, mse, lat, pre, rate) in [uniform, controlled] {
        s.push_row([
            label,
            fmt_f(mse, 2),
            fmt_f(lat, 2),
            pre.to_string(),
            fmt_f(rate, 4),
        ]);
    }
    emit(
        "a3_rate_controlled",
        "A3: uniform vs rate-controlled delay assignment (1/lambda = 4)",
        &s,
    );
}

fn t1() {
    // A traced run of the paper's four-flow Figure-1 layout: end-to-end
    // latency CDFs per flow, resolved from packet lineages. Path lengths
    // differ per flow (15/22/9/11 hops), so the CDFs separate cleanly.
    let layout = Convergecast::paper_figure1();
    let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
        .traffic(TrafficModel::periodic(2.0))
        .packets_per_source(1000)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(BufferPolicy::paper_rcad())
        .seed(2007)
        .build()
        .expect("valid simulation");
    let mut recorder = FlightRecorder::new();
    let outcome = sim.run_probed(&mut recorder);
    let log = recorder.finish(outcome.end_time);

    let flows = sim.sources().len();
    let mut per_flow: Vec<Vec<f64>> = vec![Vec::new(); flows];
    for (flow, span) in log.end_to_end_samples() {
        per_flow[flow].push(span);
    }
    for samples in &mut per_flow {
        samples.sort_by(f64::total_cmp);
    }
    let max = per_flow
        .iter()
        .filter_map(|s| s.last().copied())
        .fold(0.0f64, f64::max);

    // Empirical CDFs on a common latency grid, one column per flow.
    let headers: Vec<String> = std::iter::once("latency".to_string())
        .chain((1..=flows).map(|i| format!("cdf_s{i}")))
        .collect();
    let mut s = Series::new(headers);
    let steps = 120;
    for step in 0..=steps {
        let latency = max * f64::from(step) / f64::from(steps);
        let mut row = vec![fmt_f(latency, 1)];
        for samples in &per_flow {
            let below = samples.partition_point(|&x| x <= latency);
            let cdf = below as f64 / samples.len().max(1) as f64;
            row.push(fmt_f(cdf, 4));
        }
        s.push_row(row);
    }
    emit(
        "t1_latency_cdf",
        "T1: end-to-end latency CDF per flow from a traced run (hops 15/22/9/11)",
        &s,
    );
}

fn p1() {
    // Streaming MI convergence on the Figure-1 layout: per-flow empirical
    // I(X;Z) re-estimated every 25 deliveries, plotted against the eq. 4
    // per-packet mean bound and the eq. 2 EPI floor. The floor combines
    // the empirical creation-time entropy with the analytic Erlang path
    // delay entropy; the streaming curves must settle between the two.
    let layout = Convergecast::paper_figure1();
    let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
        .traffic(TrafficModel::poisson(0.5))
        .packets_per_source(1000)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(BufferPolicy::Unlimited)
        .seed(2007)
        .build()
        .expect("valid simulation");
    let mut probe = privacy_probe_for(&sim, 25);
    let outcome = sim.run_probed(&mut probe);
    let knowledge = sim.adversary_knowledge();
    let flows = probe.num_flows();
    let epi: Vec<Option<f64>> = (0..flows)
        .map(|flow| {
            #[allow(clippy::cast_possible_truncation)]
            let flow_id = FlowId(flow as u32);
            let (xs, _) = outcome.creation_arrival_pairs(flow_id);
            let hops = knowledge.hops(flow_id);
            let path_mean = knowledge.path_delay_mean(flow_id);
            if hops == 0 || path_mean <= 0.0 {
                return None;
            }
            // Y = path delay = sum of `hops` exponentials with mean
            // path_mean/hops: Erlang(hops, hops/path_mean).
            let h_y = ErlangDist::new(hops, f64::from(hops) / path_mean).entropy_nats();
            let h_x = entropy_from_samples_nats(&xs, 24).ok()?;
            Some(epi_lower_bound_nats(h_x, h_y))
        })
        .collect();
    let series = probe.finish(outcome.end_time);

    let headers: Vec<String> = std::iter::once("deliveries".to_string())
        .chain((0..flows).flat_map(|k| {
            let k = k + 1;
            [format!("mi_s{k}"), format!("btq_s{k}"), format!("epi_s{k}")]
        }))
        .collect();
    let mut s = Series::new(headers);
    let fmt_opt = |v: Option<f64>| v.map_or_else(|| "nan".to_string(), |x| fmt_f(x, 4));
    for point in &series.points {
        let mut row = vec![point.deliveries.to_string()];
        for (flow, &epi_floor) in epi.iter().enumerate() {
            let summary = point.flows.iter().find(|f| f.flow == flow);
            row.push(fmt_opt(summary.map(|f| f.mi_nats)));
            row.push(fmt_opt(summary.and_then(|f| f.btq_mean_bound_nats)));
            row.push(fmt_opt(epi_floor));
        }
        s.push_row(row);
    }
    emit(
        "p1_privacy_convergence",
        "P1: streaming I(X;Z) convergence per flow vs eq. 4 bound and eq. 2 EPI floor",
        &s,
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&str> = if args.is_empty() {
        vec!["all"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let all = selected.contains(&"all");
    let want = |name: &str| all || selected.contains(&name);

    let known = [
        "all", "fig2a", "fig2b", "fig3", "v1", "v2", "v3", "v4", "a1", "a2", "a3", "e1", "e2",
        "e3", "e4", "t1", "p1",
    ];
    if let Some(bad) = selected.iter().find(|s| !known.contains(s)) {
        eprintln!("unknown selector `{bad}`; valid: {}", known.join(", "));
        return ExitCode::FAILURE;
    }

    if want("fig2a") && want("fig2b") {
        fig2(None);
    } else if want("fig2a") {
        fig2(Some('a'));
    } else if want("fig2b") {
        fig2(Some('b'));
    }
    if want("fig3") {
        fig3();
    }
    if want("v1") {
        v1();
    }
    if want("v2") {
        v2();
    }
    if want("v3") {
        v3();
    }
    if want("v4") {
        v4();
    }
    if want("a1") {
        a1();
    }
    if want("a2") {
        a2();
    }
    if want("a3") {
        a3();
    }
    if want("e1") {
        e1();
    }
    if want("e2") {
        e2();
    }
    if want("e3") {
        e3();
    }
    if want("e4") {
        e4();
    }
    if want("t1") {
        t1();
    }
    if want("p1") {
        p1();
    }
    if WRITE_FAILED.load(Ordering::Relaxed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
