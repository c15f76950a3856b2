//! Experiment sweeps — the code behind every figure.
//!
//! Each paper figure is a sweep over the source inter-arrival time `1/λ`
//! (2 … 20 time units). The functions here run the corresponding
//! scenarios, score the adversaries, and return plain rows ready for
//! printing or CSV export. Sweep points are independent simulations and
//! run as jobs on the [`tempriv_runtime`] worker pool: every sweep is a
//! `*_with` function taking an explicit [`Runtime`], through which callers
//! inject worker counts, result caches, run manifests, and progress
//! observers (`Runtime::new(WorkerPool::new())` is a machine-sized runtime
//! with an in-memory cache).
//!
//! The [`Sweep`] table names the six sweeps that take nothing but
//! [`SweepParams`], counts their jobs and runs them by name; the CLI and
//! the serve layer look experiments up there.

use serde::{Deserialize, Serialize};
use tempriv_net::ids::FlowId;
use tempriv_net::traffic::TrafficModel;
use tempriv_runtime::{content_digest, Runtime};

use crate::adversary::{
    AdaptiveAdversary, Adversary, BaselineAdversary, RouteAwareAdversary, WindowedAdaptiveAdversary,
};
use crate::buffer::{BufferPolicy, VictimPolicy};
use crate::config::{ExperimentConfig, LayoutSpec};
use crate::decomposition::{decomposed_plan, DecompositionShape};
use crate::delay::{DelayPlan, DelayStrategy};
use crate::metrics::evaluate_adversary;
use crate::telemetry::JobTelemetryCollector;

/// Common sweep parameters (defaults = the paper's §5.2 setup).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepParams {
    /// Inter-arrival times `1/λ` to sweep.
    pub inv_lambdas: Vec<f64>,
    /// Packets per source per run.
    pub packets_per_source: u32,
    /// Mean artificial delay per hop, `1/μ`.
    pub delay_mean: f64,
    /// Buffer slots for the limited-buffer scenarios.
    pub capacity: usize,
    /// The flow reported in the figures (the paper reports S1).
    pub report_flow: FlowId,
    /// Master seed; each sweep point derives its own.
    pub seed: u64,
}

impl SweepParams {
    /// The paper's sweep: `1/λ ∈ {2, 4, …, 20}`, 1000 packets/source,
    /// `1/μ = 30`, 10 slots, reporting flow S1.
    #[must_use]
    pub fn paper_default() -> Self {
        SweepParams {
            inv_lambdas: (1..=10).map(|i| 2.0 * f64::from(i)).collect(),
            packets_per_source: 1000,
            delay_mean: 30.0,
            capacity: 10,
            report_flow: FlowId(0),
            seed: 2007,
        }
    }

    /// A smaller, faster sweep for tests and smoke runs.
    #[must_use]
    pub fn smoke() -> Self {
        SweepParams {
            inv_lambdas: vec![2.0, 10.0, 20.0],
            packets_per_source: 300,
            ..SweepParams::paper_default()
        }
    }

    /// Checks the ranges every sweep runs in: positive finite
    /// inter-arrival times, at least one packet per source, a
    /// non-negative finite delay mean, and a config each point can build
    /// (its creation schedule and route fit on the simulation clock).
    ///
    /// # Errors
    ///
    /// Names the first parameter out of range.
    pub fn check(&self) -> Result<(), String> {
        if self.inv_lambdas.iter().any(|x| !x.is_finite() || *x <= 0.0) {
            return Err("inv_lambdas must be positive and finite".to_string());
        }
        if self.packets_per_source == 0 {
            return Err("packets_per_source must be at least 1".to_string());
        }
        if !self.delay_mean.is_finite() || self.delay_mean < 0.0 {
            return Err("delay_mean must be non-negative and finite".to_string());
        }
        // Each point must also build: its creation schedule and route
        // must fit on the simulation clock.
        for &inv_lambda in &self.inv_lambdas {
            self.config(inv_lambda)
                .build()
                .map_err(|e| format!("point 1/lambda = {inv_lambda}: {e}"))?;
        }
        Ok(())
    }

    fn config(&self, inv_lambda: f64) -> ExperimentConfig {
        ExperimentConfig {
            layout: LayoutSpec::PaperFigure1,
            traffic: TrafficModel::periodic(inv_lambda),
            packets_per_source: self.packets_per_source,
            delay: DelayPlan::shared_exponential(self.delay_mean),
            buffer: BufferPolicy::Rcad {
                capacity: self.capacity,
                victim: VictimPolicy::ShortestRemaining,
            },
            link_delay: 1.0,
            link_loss: 0.0,
            link_jitter: 0.0,
            seed: self.seed ^ inv_lambda.to_bits(),
        }
    }

    /// Canonical JSON of these parameters — the `params_json` recorded in
    /// run-manifest headers and folded into every job's cache key.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("sweep params serialize")
    }
}

/// Cache key of one sweep job: digest over the experiment kind, the full
/// parameter JSON, and the job's own tag (its point within the sweep).
/// Anything that can change a job's output must be in here.
fn job_key(experiment: &str, params_json: &str, job_tag: &str) -> String {
    content_digest(format!("{experiment}|{params_json}|{job_tag}").as_bytes())
}

/// Exact (bit-level) tag of a sweep point, so cache keys never go through
/// lossy float formatting.
fn point_tag(inv_lambda: f64) -> String {
    format!("inv_lambda={:016x}", inv_lambda.to_bits())
}

/// `outer × inner`, outer-major: the flat job list of a sweep that runs
/// every case at every point (rows come out in the same order).
fn grid<A: Copy, B: Copy>(outer: &[A], inner: &[B]) -> Vec<(A, B)> {
    outer
        .iter()
        .flat_map(|&a| inner.iter().map(move |&b| (a, b)))
        .collect()
}

/// Runs one job per case on `runtime` as experiment `experiment`: each
/// job is cached under `tag(case)` and the canonical params, and `job`
/// gets its case plus the job's telemetry collector, which is finished
/// once the row is back.
fn run_jobs<C, T>(
    experiment: &str,
    params: &SweepParams,
    runtime: &Runtime,
    cases: &[C],
    tag: impl Fn(&C) -> String,
    job: impl Fn(&C, &mut JobTelemetryCollector<'_>) -> T + Sync,
) -> Vec<T>
where
    C: Sync,
    T: Serialize + Deserialize + Send,
{
    let params_json = params.canonical_json();
    let keys: Vec<String> = cases
        .iter()
        .map(|case| job_key(experiment, &params_json, &tag(case)))
        .collect();
    runtime.run(experiment, &params_json, &keys, |i| {
        let mut telemetry = JobTelemetryCollector::for_job(runtime, i);
        let row = job(&cases[i], &mut telemetry);
        telemetry.finish();
        row
    })
}

/// The six sweeps that take nothing but [`SweepParams`]: the one table
/// the CLI (`sweep`, `resume`, `profile`) and the serve layer look
/// experiments up in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Figure 2, [`fig2_sweep_with`].
    Fig2,
    /// Figure 3, [`fig3_sweep_with`].
    Fig3,
    /// Extension E1, [`adversary_panel_sweep_with`].
    AdversaryPanel,
    /// Ablation A1, [`victim_ablation_sweep_with`].
    VictimAblation,
    /// Ablation A2, [`delay_ablation_sweep_with`].
    DelayAblation,
    /// Extension E3, [`mix_comparison_sweep_with`].
    MixComparison,
}

impl Sweep {
    /// Every sweep, in listing order.
    pub const ALL: [Sweep; 6] = [
        Sweep::Fig2,
        Sweep::Fig3,
        Sweep::AdversaryPanel,
        Sweep::VictimAblation,
        Sweep::DelayAblation,
        Sweep::MixComparison,
    ];

    /// `(name, wire name)`; see [`Sweep::name`] and [`Sweep::wire_name`].
    const fn names(self) -> (&'static str, &'static str) {
        match self {
            Sweep::Fig2 => ("fig2", "fig2"),
            Sweep::Fig3 => ("fig3", "fig3"),
            Sweep::AdversaryPanel => ("adversary-panel", "adversary"),
            Sweep::VictimAblation => ("victim-ablation", "victim"),
            Sweep::DelayAblation => ("delay-ablation", "delay"),
            Sweep::MixComparison => ("mix-comparison", "mix"),
        }
    }

    /// The stable name: the CLI's `--experiment` value, the `experiment`
    /// of run-manifest headers, and the experiment folded into every
    /// job's cache key. Renaming one orphans its cached results.
    #[must_use]
    pub const fn name(self) -> &'static str {
        self.names().0
    }

    /// The serve layer's `experiment` field value (part of the served
    /// cache key, so just as stable).
    #[must_use]
    pub const fn wire_name(self) -> &'static str {
        self.names().1
    }

    /// Looks a sweep up by [`Sweep::name`].
    ///
    /// # Errors
    ///
    /// Names the unknown experiment and lists every known name.
    pub fn from_name(name: &str) -> Result<Sweep, String> {
        Sweep::lookup(name, Sweep::name)
    }

    /// Looks a sweep up by [`Sweep::wire_name`].
    ///
    /// # Errors
    ///
    /// Names the unknown experiment and lists every known wire name.
    pub fn from_wire_name(name: &str) -> Result<Sweep, String> {
        Sweep::lookup(name, Sweep::wire_name)
    }

    fn lookup(name: &str, key: fn(Sweep) -> &'static str) -> Result<Sweep, String> {
        Sweep::ALL
            .into_iter()
            .find(|&sweep| key(sweep) == name)
            .ok_or_else(|| {
                format!(
                    "unknown experiment `{name}`; expected one of {}",
                    Sweep::ALL.map(key).join(", ")
                )
            })
    }

    /// The runtime jobs one run of this sweep makes: one per sweep point
    /// and case of the sweep's case list. Every job yields one row and
    /// one slot of per-job telemetry.
    #[must_use]
    pub fn jobs(self, params: &SweepParams) -> usize {
        let cases = match self {
            Sweep::Fig2 | Sweep::Fig3 | Sweep::AdversaryPanel => 1,
            Sweep::VictimAblation => VICTIM_POLICIES.len(),
            Sweep::DelayAblation => DELAY_KINDS.len(),
            Sweep::MixComparison => MECHANISMS.len(),
        };
        cases * params.inv_lambdas.len()
    }

    /// Runs the sweep on `runtime` and returns its rows in order, each
    /// serialized as compact JSON.
    #[must_use]
    pub fn run_json_rows(self, params: &SweepParams, runtime: &Runtime) -> Vec<String> {
        fn json<T: Serialize>(rows: &[T]) -> Vec<String> {
            rows.iter()
                .map(|row| serde_json::to_string(row).expect("sweep rows serialize"))
                .collect()
        }
        match self {
            Sweep::Fig2 => json(&fig2_sweep_with(params, runtime)),
            Sweep::Fig3 => json(&fig3_sweep_with(params, runtime)),
            Sweep::AdversaryPanel => json(&adversary_panel_sweep_with(params, runtime)),
            Sweep::VictimAblation => json(&victim_ablation_sweep_with(params, runtime)),
            Sweep::DelayAblation => json(&delay_ablation_sweep_with(params, runtime)),
            Sweep::MixComparison => json(&mix_comparison_sweep_with(params, runtime)),
        }
    }
}

/// Privacy and overhead of one scenario at one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMetrics {
    /// Adversary MSE on the reported flow (time units squared).
    pub mse: f64,
    /// Mean end-to-end latency of the reported flow (time units).
    pub mean_latency: f64,
}

/// One row of Figure 2 (both panels share the sweep).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig2Row {
    /// Inter-arrival time `1/λ`.
    pub inv_lambda: f64,
    /// Case 1: no artificial delay.
    pub no_delay: ScenarioMetrics,
    /// Case 2: exponential delay, unlimited buffers.
    pub unlimited: ScenarioMetrics,
    /// Case 3: exponential delay, limited buffers with RCAD.
    pub rcad: ScenarioMetrics,
}

/// One row of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig3Row {
    /// Inter-arrival time `1/λ`.
    pub inv_lambda: f64,
    /// MSE of the baseline adversary under RCAD.
    pub baseline_mse: f64,
    /// MSE of the adaptive adversary under RCAD.
    pub adaptive_mse: f64,
}

fn run_point(
    cfg: &ExperimentConfig,
    report_flow: FlowId,
    telemetry: &mut JobTelemetryCollector<'_>,
    label: &str,
) -> ScenarioMetrics {
    let sim = cfg.build().expect("sweep configs are valid");
    let outcome = telemetry.run(&sim, label);
    let knowledge = sim.adversary_knowledge();
    let report = evaluate_adversary(&outcome, &BaselineAdversary, &knowledge);
    ScenarioMetrics {
        mse: report.mse(report_flow),
        mean_latency: outcome.flows[report_flow.index()].latency.mean(),
    }
}

/// Regenerates Figure 2 (both panels): MSE and latency versus `1/λ` for
/// the three scenarios — no delay, delay with unlimited buffers, and
/// delay with limited buffers (RCAD).
#[must_use]
pub fn fig2_sweep_with(params: &SweepParams, runtime: &Runtime) -> Vec<Fig2Row> {
    let flow = params.report_flow;
    run_jobs(
        Sweep::Fig2.name(),
        params,
        runtime,
        &params.inv_lambdas,
        |&l| point_tag(l),
        |&inv_lambda, telemetry| {
            let base = params.config(inv_lambda);

            let mut no_delay = base.clone();
            no_delay.delay = DelayPlan::no_delay();
            no_delay.buffer = BufferPolicy::Unlimited;

            let mut unlimited = base.clone();
            unlimited.buffer = BufferPolicy::Unlimited;

            let rcad = base;

            Fig2Row {
                inv_lambda,
                no_delay: run_point(&no_delay, flow, telemetry, "no_delay"),
                unlimited: run_point(&unlimited, flow, telemetry, "unlimited"),
                rcad: run_point(&rcad, flow, telemetry, "rcad"),
            }
        },
    )
}

/// Regenerates Figure 3: baseline versus adaptive adversary MSE under
/// RCAD, versus `1/λ`.
#[must_use]
pub fn fig3_sweep_with(params: &SweepParams, runtime: &Runtime) -> Vec<Fig3Row> {
    run_jobs(
        Sweep::Fig3.name(),
        params,
        runtime,
        &params.inv_lambdas,
        |&l| point_tag(l),
        |&inv_lambda, telemetry| {
            let sim = params
                .config(inv_lambda)
                .build()
                .expect("sweep configs are valid");
            let outcome = telemetry.run(&sim, "rcad");
            let knowledge = sim.adversary_knowledge();
            let mse = |adversary: &dyn Adversary| {
                evaluate_adversary(&outcome, adversary, &knowledge).mse(params.report_flow)
            };
            Fig3Row {
                inv_lambda,
                baseline_mse: mse(&BaselineAdversary),
                adaptive_mse: mse(&AdaptiveAdversary::paper_default()),
            }
        },
    )
}

/// One row of the adversary-panel extension experiment (E1): every
/// shipped adversary scored on the same RCAD run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdversaryPanelRow {
    /// Inter-arrival time `1/λ`.
    pub inv_lambda: f64,
    /// MSE of the baseline adversary (§2.1).
    pub baseline_mse: f64,
    /// MSE of the paper's adaptive adversary (§5.4).
    pub adaptive_mse: f64,
    /// MSE of the route-aware extension adversary.
    pub route_aware_mse: f64,
    /// MSE of the calibration oracle (= latency variance; the floor for
    /// constant-offset estimators).
    pub oracle_mse: f64,
}

/// Extension E1: the full adversary hierarchy under RCAD. Expected
/// ordering at high traffic: baseline ≥ adaptive ≥ route-aware ≥ oracle.
#[must_use]
pub fn adversary_panel_sweep_with(
    params: &SweepParams,
    runtime: &Runtime,
) -> Vec<AdversaryPanelRow> {
    run_jobs(
        Sweep::AdversaryPanel.name(),
        params,
        runtime,
        &params.inv_lambdas,
        |&l| point_tag(l),
        |&inv_lambda, telemetry| {
            let sim = params
                .config(inv_lambda)
                .build()
                .expect("sweep configs are valid");
            let outcome = telemetry.run(&sim, "rcad");
            let knowledge = sim.adversary_knowledge();
            let mse = |adversary: &dyn Adversary| {
                evaluate_adversary(&outcome, adversary, &knowledge).mse(params.report_flow)
            };
            AdversaryPanelRow {
                inv_lambda,
                baseline_mse: mse(&BaselineAdversary),
                adaptive_mse: mse(&AdaptiveAdversary::paper_default()),
                route_aware_mse: mse(&RouteAwareAdversary::paper_default()),
                oracle_mse: mse(&outcome.oracle()),
            }
        },
    )
}

/// One row of the victim-policy ablation (A1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VictimAblationRow {
    /// Inter-arrival time `1/λ`.
    pub inv_lambda: f64,
    /// The victim policy measured.
    pub victim: VictimPolicy,
    /// Baseline-adversary MSE on the reported flow.
    pub mse: f64,
    /// Mean latency of the reported flow.
    pub mean_latency: f64,
    /// Total preemptions across the network.
    pub preemptions: u64,
}

/// The victim policies ablation A1 compares, in row order.
const VICTIM_POLICIES: [VictimPolicy; 4] = [
    VictimPolicy::ShortestRemaining,
    VictimPolicy::LongestRemaining,
    VictimPolicy::Random,
    VictimPolicy::Oldest,
];

/// Ablation A1: how the victim-selection rule changes privacy/latency.
/// The four policies × all sweep points form one flat job list, so the
/// pool stays busy across the policy boundary; rows are policy-major.
#[must_use]
pub fn victim_ablation_sweep_with(
    params: &SweepParams,
    runtime: &Runtime,
) -> Vec<VictimAblationRow> {
    run_jobs(
        Sweep::VictimAblation.name(),
        params,
        runtime,
        &grid(&VICTIM_POLICIES, &params.inv_lambdas),
        |(victim, l)| format!("victim={victim:?}|{}", point_tag(*l)),
        |&(victim, inv_lambda), telemetry| {
            let mut cfg = params.config(inv_lambda);
            cfg.buffer = BufferPolicy::Rcad {
                capacity: params.capacity,
                victim,
            };
            let sim = cfg.build().expect("sweep configs are valid");
            let outcome = telemetry.run(&sim, &format!("victim={victim:?}"));
            let knowledge = sim.adversary_knowledge();
            let report = evaluate_adversary(&outcome, &BaselineAdversary, &knowledge);
            VictimAblationRow {
                inv_lambda,
                victim,
                mse: report.mse(params.report_flow),
                mean_latency: outcome.flows[params.report_flow.index()].latency.mean(),
                preemptions: outcome.total_preemptions(),
            }
        },
    )
}

/// One row of the delay-distribution ablation (A2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayAblationRow {
    /// Inter-arrival time `1/λ`.
    pub inv_lambda: f64,
    /// Short label of the delay distribution.
    pub distribution: DelayDistributionKind,
    /// Baseline-adversary MSE on the reported flow.
    pub mse: f64,
    /// Mean latency of the reported flow.
    pub mean_latency: f64,
}

/// Delay distribution under ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DelayDistributionKind {
    /// Exponential (the paper's max-entropy choice).
    Exponential,
    /// Uniform on `[0, 2/μ]`.
    Uniform,
    /// Constant `1/μ`.
    Constant,
}

impl DelayDistributionKind {
    /// This distribution with mean `1/μ = mean`.
    fn strategy(self, mean: f64) -> DelayStrategy {
        match self {
            DelayDistributionKind::Exponential => DelayStrategy::Exponential { mean },
            DelayDistributionKind::Uniform => DelayStrategy::Uniform { mean },
            DelayDistributionKind::Constant => DelayStrategy::Constant { delay: mean },
        }
    }
}

/// The delay distributions ablation A2 compares, in row order, each at
/// the sweep's `delay_mean`.
const DELAY_KINDS: [DelayDistributionKind; 3] = [
    DelayDistributionKind::Exponential,
    DelayDistributionKind::Uniform,
    DelayDistributionKind::Constant,
];

/// Ablation A2: delay distributions at equal mean, unlimited buffers —
/// isolating the distributional effect of §3.1 from preemption.
#[must_use]
pub fn delay_ablation_sweep_with(params: &SweepParams, runtime: &Runtime) -> Vec<DelayAblationRow> {
    run_jobs(
        Sweep::DelayAblation.name(),
        params,
        runtime,
        &grid(&DELAY_KINDS, &params.inv_lambdas),
        // `@delay_mean` moved the key when the distributions stopped
        // running at a fixed mean 30: rows cached before then are never
        // replayed under another `delay_mean`.
        |(kind, l)| format!("dist={kind:?}@delay_mean|{}", point_tag(*l)),
        |&(kind, inv_lambda), telemetry| {
            let mut cfg = params.config(inv_lambda);
            cfg.delay = DelayPlan::Shared(kind.strategy(params.delay_mean));
            cfg.buffer = BufferPolicy::Unlimited;
            let metrics = run_point(&cfg, params.report_flow, telemetry, &format!("{kind:?}"));
            DelayAblationRow {
                inv_lambda,
                distribution: kind,
                mse: metrics.mse,
                mean_latency: metrics.mean_latency,
            }
        },
    )
}

/// One row of the delay-decomposition experiment (E2, §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecompositionRow {
    /// Where the delay budget lives on the path.
    pub shape: DecompositionShape,
    /// Buffer policy used (unlimited isolates the variance story; RCAD
    /// shows what finite buffers do to concentrated budgets).
    pub limited_buffers: bool,
    /// Baseline-adversary MSE on the reference flow.
    pub mse: f64,
    /// Mean latency of the reference flow.
    pub mean_latency: f64,
    /// Hottest node: largest time-weighted mean buffer occupancy.
    pub max_mean_occupancy: f64,
    /// Total RCAD preemptions (0 for unlimited buffers).
    pub preemptions: u64,
}

/// Extension E2: spread one fixed delay budget (the paper's 15·30 = 450
/// time units for flow S1) across the path per §3.3 and measure the
/// privacy/buffer trade-off at 1/λ = `inv_lambda`. The 2 buffer
/// policies × 4 shapes run as 8 parallel jobs.
#[must_use]
pub fn decomposition_experiment_with(
    params: &SweepParams,
    inv_lambda: f64,
    flow_budget: f64,
    runtime: &Runtime,
) -> Vec<DecompositionRow> {
    let shapes = [
        DecompositionShape::Uniform,
        DecompositionShape::FarFromSink,
        DecompositionShape::NearSink,
        DecompositionShape::AtSource,
    ];
    run_jobs(
        "decomposition",
        params,
        runtime,
        &grid(&[false, true], &shapes),
        |(limited, shape)| {
            format!(
                "shape={shape:?}|limited={limited}|{}|budget={:016x}",
                point_tag(inv_lambda),
                flow_budget.to_bits()
            )
        },
        |&(limited, shape), telemetry| {
            let mut cfg = params.config(inv_lambda);
            let sim_probe = cfg.build().expect("probe build");
            let plan =
                decomposed_plan(sim_probe.routing(), sim_probe.sources(), flow_budget, shape);
            cfg.delay = plan;
            cfg.buffer = if limited {
                BufferPolicy::Rcad {
                    capacity: params.capacity,
                    victim: VictimPolicy::ShortestRemaining,
                }
            } else {
                BufferPolicy::Unlimited
            };
            let sim = cfg.build().expect("valid config");
            let outcome = telemetry.run(&sim, &format!("shape={shape:?}|limited={limited}"));
            let knowledge = sim.adversary_knowledge();
            let report = evaluate_adversary(&outcome, &BaselineAdversary, &knowledge);
            // Idle nodes' mean occupancy is 0, the fold's start value.
            let max_mean_occupancy = outcome
                .reached
                .iter()
                .map(|n| n.mean_occupancy)
                .fold(0.0f64, f64::max);
            DecompositionRow {
                shape,
                limited_buffers: limited,
                mse: report.mse(params.report_flow),
                mean_latency: outcome.flows[params.report_flow.index()].latency.mean(),
                max_mean_occupancy,
                preemptions: outcome.total_preemptions(),
            }
        },
    )
}

/// Mechanisms compared by the E3 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mechanism {
    /// RCAD with the paper's 10-slot buffers and exponential delays.
    Rcad,
    /// A Chaum-style threshold mix at every node (batch size given).
    ThresholdMix(usize),
}

/// The mechanisms E3 compares, in row order.
const MECHANISMS: [Mechanism; 3] = [
    Mechanism::Rcad,
    Mechanism::ThresholdMix(4),
    Mechanism::ThresholdMix(10),
];

/// One row of the mechanism comparison (E3): RCAD versus threshold
/// mixes from the related-work lineage (§6), measured on
/// mechanism-agnostic axes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixComparisonRow {
    /// Inter-arrival time `1/λ`.
    pub inv_lambda: f64,
    /// The mechanism measured.
    pub mechanism: Mechanism,
    /// The privacy floor: MSE of the constant-offset oracle (= latency
    /// variance) — what *no* header-only estimator can beat.
    pub oracle_mse: f64,
    /// Mean delivery latency of the reported flow (the cost axis).
    pub mean_latency: f64,
    /// Fraction of adjacent arrivals out of creation order.
    pub reordering: f64,
    /// Packets stranded in unfinished batches at run end (mixes only).
    pub stranded: u64,
}

/// Extension E3: RCAD vs threshold mixes at the paper's traffic sweep.
/// Mix nodes ignore the delay plan (batching is their only mechanism),
/// so their runs use a no-delay plan.
#[must_use]
pub fn mix_comparison_sweep_with(params: &SweepParams, runtime: &Runtime) -> Vec<MixComparisonRow> {
    run_jobs(
        Sweep::MixComparison.name(),
        params,
        runtime,
        &grid(&MECHANISMS, &params.inv_lambdas),
        |(m, l)| format!("mech={m:?}|{}", point_tag(*l)),
        |&(mechanism, inv_lambda), telemetry| {
            let mut cfg = params.config(inv_lambda);
            match mechanism {
                Mechanism::Rcad => {}
                Mechanism::ThresholdMix(threshold) => {
                    cfg.delay = DelayPlan::no_delay();
                    cfg.buffer = BufferPolicy::ThresholdMix { threshold };
                }
            }
            let sim = cfg.build().expect("sweep configs are valid");
            let outcome = telemetry.run(&sim, &format!("{mechanism:?}"));
            let knowledge = sim.adversary_knowledge();
            let oracle = outcome.oracle();
            let report = evaluate_adversary(&outcome, &oracle, &knowledge);
            MixComparisonRow {
                inv_lambda,
                mechanism,
                oracle_mse: report.mse(params.report_flow),
                mean_latency: outcome.flows[params.report_flow.index()].latency.mean(),
                reordering: outcome.reordering_fraction(params.report_flow),
                stranded: outcome.total_stranded(),
            }
        },
    )
}

/// One row of the bursty-traffic experiment (E4): offline versus online
/// adversaries against on/off sources.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstAdversaryRow {
    /// Intra-burst inter-arrival time.
    pub burst_interval: f64,
    /// MSE of the baseline adversary.
    pub baseline_mse: f64,
    /// MSE of the whole-trace adaptive adversary (§5.4): its single rate
    /// estimate averages bursts with silence.
    pub adaptive_mse: f64,
    /// MSE of the windowed online adversary, which tracks each burst.
    pub windowed_mse: f64,
    /// MSE of the constant-offset oracle.
    pub oracle_mse: f64,
}

/// Extension E4: bursty on/off sources (`burst` packets at each sampled
/// intra-burst interval, separated by `off_time` of silence) under RCAD.
/// An online adversary that re-estimates rates in a sliding window should
/// beat the whole-trace adaptive model whenever traffic is non-stationary.
#[must_use]
pub fn burst_adversary_experiment_with(
    params: &SweepParams,
    burst: u32,
    off_time: f64,
    window: f64,
    runtime: &Runtime,
) -> Vec<BurstAdversaryRow> {
    run_jobs(
        "burst-adversary",
        params,
        runtime,
        &params.inv_lambdas,
        |&l| {
            format!(
                "burst={burst}|off={:016x}|window={:016x}|{}",
                off_time.to_bits(),
                window.to_bits(),
                point_tag(l)
            )
        },
        |&burst_interval, telemetry| {
            let mut cfg = params.config(burst_interval);
            cfg.traffic = TrafficModel::on_off(burst_interval, burst, off_time);
            let sim = cfg.build().expect("sweep configs are valid");
            let outcome = telemetry.run(&sim, "on_off");
            let knowledge = sim.adversary_knowledge();
            let mse = |adversary: &dyn Adversary| {
                evaluate_adversary(&outcome, adversary, &knowledge).mse(params.report_flow)
            };
            BurstAdversaryRow {
                burst_interval,
                baseline_mse: mse(&BaselineAdversary),
                adaptive_mse: mse(&AdaptiveAdversary::paper_default()),
                windowed_mse: mse(&WindowedAdaptiveAdversary::new(window, 0.1)),
                oracle_mse: mse(&outcome.oracle()),
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tempriv_runtime::{CountingObserver, ManifestReader, WorkerPool};

    fn tiny() -> SweepParams {
        SweepParams {
            inv_lambdas: vec![2.0, 20.0],
            packets_per_source: 200,
            ..SweepParams::paper_default()
        }
    }

    #[test]
    fn fig2_shapes_hold() {
        let rows = fig2_sweep_with(&tiny(), &Runtime::new(WorkerPool::new()));
        assert_eq!(rows.len(), 2);
        let fast = &rows[0];
        // Privacy ordering at the highest traffic rate: RCAD >> others.
        assert!(fast.rcad.mse > 3.0 * fast.unlimited.mse.max(1.0));
        assert!(fast.no_delay.mse < 1e-6);
        // Latency ordering: no-delay < RCAD < unlimited.
        assert!(fast.no_delay.mean_latency < fast.rcad.mean_latency);
        assert!(fast.rcad.mean_latency < fast.unlimited.mean_latency);
        // No-delay latency is exactly h*tau = 15; unlimited ~465.
        assert!((fast.no_delay.mean_latency - 15.0).abs() < 1e-9);
        assert!((fast.unlimited.mean_latency - 465.0).abs() < 25.0);
        // RCAD privacy fades as traffic slows (fewer preemptions).
        let slow = &rows[1];
        assert!(slow.rcad.mse < fast.rcad.mse);
    }

    #[test]
    fn fig3_adaptive_beats_baseline_at_high_rate() {
        // Needs a run long enough to reach steady state: the network
        // pipeline holds ~330 packets, so 200/source is all transient.
        let params = SweepParams {
            inv_lambdas: vec![2.0],
            packets_per_source: 800,
            ..SweepParams::paper_default()
        };
        let rows = fig3_sweep_with(&params, &Runtime::new(WorkerPool::new()));
        let fast = &rows[0];
        assert!(
            fast.adaptive_mse < fast.baseline_mse,
            "adaptive {} should beat baseline {}",
            fast.adaptive_mse,
            fast.baseline_mse
        );
        // But cannot be perfect: preemption noise remains.
        assert!(fast.adaptive_mse > 0.0);
    }

    #[test]
    fn adversary_panel_is_ordered_at_high_rate() {
        let params = SweepParams {
            inv_lambdas: vec![2.0],
            packets_per_source: 800,
            ..SweepParams::paper_default()
        };
        let row = &adversary_panel_sweep_with(&params, &Runtime::new(WorkerPool::new()))[0];
        assert!(row.adaptive_mse <= row.baseline_mse);
        assert!(row.route_aware_mse <= row.adaptive_mse);
        assert!(row.oracle_mse <= row.route_aware_mse * 1.01);
        assert!(row.oracle_mse > 0.0);
    }

    #[test]
    fn decomposition_trades_privacy_for_hotspots() {
        let params = SweepParams {
            inv_lambdas: vec![8.0],
            packets_per_source: 600,
            ..SweepParams::paper_default()
        };
        let rows =
            decomposition_experiment_with(&params, 8.0, 450.0, &Runtime::new(WorkerPool::new()));
        let find = |shape, limited| {
            rows.iter()
                .find(|r| r.shape == shape && r.limited_buffers == limited)
                .copied()
                .expect("row present")
        };
        // Unlimited buffers: equal latency budget, privacy ranks by
        // concentration (Var = sum of squared node means).
        let at_source = find(DecompositionShape::AtSource, false);
        let uniform = find(DecompositionShape::Uniform, false);
        assert!((at_source.mean_latency - uniform.mean_latency).abs() < 30.0);
        assert!(at_source.mse > 5.0 * uniform.mse);
        // ...but the source buffer becomes the hotspot.
        assert!(at_source.max_mean_occupancy > 3.0 * uniform.max_mean_occupancy);
        // With k = 10 RCAD, the concentrated plan preempts heavily.
        let at_source_k = find(DecompositionShape::AtSource, true);
        assert!(at_source_k.preemptions > 0);
        assert!(at_source_k.mean_latency < at_source.mean_latency);
    }

    #[test]
    fn mix_comparison_covers_all_mechanisms() {
        let params = SweepParams {
            inv_lambdas: vec![2.0],
            packets_per_source: 400,
            ..SweepParams::paper_default()
        };
        let rows = mix_comparison_sweep_with(&params, &Runtime::new(WorkerPool::new()));
        assert_eq!(rows.len(), 3);
        let rcad = rows
            .iter()
            .find(|r| r.mechanism == Mechanism::Rcad)
            .unwrap();
        let mix10 = rows
            .iter()
            .find(|r| r.mechanism == Mechanism::ThresholdMix(10))
            .unwrap();
        // RCAD scrambles order (independent exp delays); a mix preserves
        // batch internals but delivers bursts — far less reordering.
        assert!(rcad.reordering > mix10.reordering);
        // RCAD's privacy floor (latency variance) is well above the
        // batching mix's at the same traffic rate.
        assert!(rcad.oracle_mse > mix10.oracle_mse);
        // Mixes may strand a final partial batch; RCAD never does.
        assert_eq!(rcad.stranded, 0);
    }

    #[test]
    fn windowed_adversary_beats_batch_on_bursts() {
        // Bursts must stay dense at the *sink* for the windowed estimator
        // to clear its advertised-mean cap (k/lambda_i < 1/mu needs
        // lambda_i > 1/3 here): 15 hops of exp(30) delay smear a burst
        // over hundreds of time units, so the source must emit fast, long
        // bursts. 200 packets at unit spacing gives the windowed model a
        // ~3x MSE advantage; slower/shorter bursts degenerate to the
        // baseline estimate for every observation.
        let params = SweepParams {
            inv_lambdas: vec![1.0],
            packets_per_source: 1200,
            ..SweepParams::paper_default()
        };
        let rows = burst_adversary_experiment_with(
            &params,
            200,
            800.0,
            200.0,
            &Runtime::new(WorkerPool::new()),
        );
        let row = &rows[0];
        assert!(
            row.windowed_mse < row.baseline_mse,
            "windowed {} vs baseline {}",
            row.windowed_mse,
            row.baseline_mse
        );
        assert!(
            row.windowed_mse < row.adaptive_mse,
            "windowed {} vs batch adaptive {}",
            row.windowed_mse,
            row.adaptive_mse
        );
        assert!(row.oracle_mse <= row.windowed_mse * 1.05);
    }

    #[test]
    fn sweep_rows_are_identical_for_any_worker_count() {
        let params = tiny();
        let one = fig2_sweep_with(&params, &Runtime::new(WorkerPool::with_workers(1)));
        let eight = fig2_sweep_with(&params, &Runtime::new(WorkerPool::with_workers(8)));
        // Byte-identical serialized rows, not just approximate equality.
        assert_eq!(
            serde_json::to_string(&one).unwrap(),
            serde_json::to_string(&eight).unwrap()
        );
    }

    #[test]
    fn warm_cache_rerun_runs_zero_simulations() {
        let counter = Arc::new(CountingObserver::new());
        let runtime = Runtime::builder()
            .workers(4)
            .observer(counter.clone())
            .build()
            .unwrap();
        let params = tiny();
        let first = fig3_sweep_with(&params, &runtime);
        assert_eq!(counter.computed(), params.inv_lambdas.len());
        let second = fig3_sweep_with(&params, &runtime);
        assert_eq!(
            counter.computed(),
            params.inv_lambdas.len(),
            "warm rerun must not simulate"
        );
        assert_eq!(counter.cached(), params.inv_lambdas.len());
        assert_eq!(first, second);
    }

    #[test]
    fn cache_keys_separate_experiments_and_params() {
        let params = tiny();
        let json = params.canonical_json();
        let mut other = tiny();
        other.seed += 1;
        let k1 = job_key("fig2", &json, &point_tag(2.0));
        assert_ne!(k1, job_key("fig3", &json, &point_tag(2.0)));
        assert_ne!(
            k1,
            job_key("fig2", &other.canonical_json(), &point_tag(2.0))
        );
        assert_ne!(k1, job_key("fig2", &json, &point_tag(4.0)));
    }

    #[test]
    fn delay_ablation_runs_at_the_sweep_delay_mean() {
        let params = SweepParams {
            inv_lambdas: vec![20.0],
            packets_per_source: 40,
            delay_mean: 8.0,
            ..SweepParams::paper_default()
        };
        // What a cache written while every distribution ran at mean 30
        // holds for the Constant row: 15 hops × (τ + 30) = 465.
        let stale = DelayAblationRow {
            inv_lambda: 20.0,
            distribution: DelayDistributionKind::Constant,
            mse: 0.0,
            mean_latency: 465.0,
        };
        let old_key = job_key(
            Sweep::DelayAblation.name(),
            &params.canonical_json(),
            &format!("dist=Constant|{}", point_tag(20.0)),
        );
        let counter = Arc::new(CountingObserver::new());
        let runtime = Runtime::builder()
            .workers(1)
            .observer(counter.clone())
            .build()
            .unwrap();
        runtime
            .cache()
            .put(&old_key, &serde_json::to_string(&stale).unwrap());
        let rows = delay_ablation_sweep_with(&params, &runtime);
        assert_eq!(counter.cached(), 0, "the pre-fix entry is not served");
        let constant = &rows[2];
        assert_eq!(constant.distribution, DelayDistributionKind::Constant);
        // A constant delay makes the latency exact: 15 × (τ + 8) = 135.
        assert!(
            (constant.mean_latency - 135.0).abs() < 1e-9,
            "{}",
            constant.mean_latency
        );
        assert!(rows[0].mean_latency < 300.0, "{:?}", rows[0]);
    }

    #[test]
    fn sweep_is_reproducible() {
        let a = fig2_sweep_with(&tiny(), &Runtime::new(WorkerPool::new()));
        let b = fig2_sweep_with(&tiny(), &Runtime::new(WorkerPool::new()));
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_table_counts_the_jobs_each_sweep_runs() {
        let params = SweepParams {
            packets_per_source: 40,
            ..tiny()
        };
        let dir = std::env::temp_dir().join(format!("tempriv_sweep_table_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for sweep in Sweep::ALL {
            let manifest = dir.join(format!("{}.jsonl", sweep.name()));
            let counter = Arc::new(CountingObserver::new());
            let runtime = Runtime::builder()
                .workers(2)
                .observer(counter.clone())
                .manifest_path(&manifest)
                .build()
                .unwrap();
            let rows = sweep.run_json_rows(&params, &runtime);
            let header = ManifestReader::read(&manifest).unwrap().header;
            let jobs = sweep.jobs(&params);
            assert_eq!(header.experiment, sweep.name());
            assert_eq!(header.jobs, jobs, "{sweep:?}: manifest header");
            assert_eq!(counter.computed(), jobs, "{sweep:?}: jobs run");
            assert_eq!(rows.len(), jobs, "{sweep:?}: one row per job");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn sweep_names_round_trip_and_unknown_names_list_every_sweep() {
        for sweep in Sweep::ALL {
            assert_eq!(Sweep::from_name(sweep.name()), Ok(sweep));
            assert_eq!(Sweep::from_wire_name(sweep.wire_name()), Ok(sweep));
        }
        let err = Sweep::from_name("fig9").unwrap_err();
        assert!(err.contains("unknown experiment `fig9`"), "{err}");
        let wire_err = Sweep::from_wire_name("fig9").unwrap_err();
        for sweep in Sweep::ALL {
            assert!(err.contains(sweep.name()), "{err}");
            assert!(wire_err.contains(sweep.wire_name()), "{wire_err}");
        }
        // The two name sets differ, so neither lookup accepts the other's.
        assert!(Sweep::from_wire_name("adversary-panel").is_err());
        assert!(Sweep::from_name("adversary").is_err());
    }
}
