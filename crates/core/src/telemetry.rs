//! Instrumented runs: per-job telemetry collection, queueing-theory
//! cross-checks, and sweep-level aggregation.
//!
//! This module is the bridge between the generic probes in
//! [`tempriv_telemetry`] and this crate's experiment sweeps. A sweep job
//! that runs through a [`JobTelemetryCollector`] records, per scenario it
//! simulates, the full [`SimTelemetry`] (occupancy series, preemption and
//! drop counts, latency) plus a [`TheoryReport`] comparing the measured
//! queue behaviour against what the paper's queueing model predicts:
//!
//! - **Mean occupancy.** Every delaying node is an M/G/∞ server under
//!   unlimited buffers, so by Little's law its time-weighted mean
//!   occupancy is `ρ = λ/μ` regardless of the arrival process. With a
//!   `k`-slot buffer the M/M/k/k mean `ρ·(1 − B(ρ, k))` is used instead.
//! - **Occupancy distribution.** For Poisson arrivals, exponential
//!   delays, and unlimited buffers the stationary occupancy is exactly
//!   Poisson(ρ) (§4 of the paper); the check is an L1 distance on PMFs.
//! - **Loss / preemption fraction.** A `k`-slot DropTail buffer under
//!   Poisson arrivals drops the Erlang-B fraction `B(ρ, k)`. RCAD with a
//!   *random* victim follows the same occupancy chain (a preemption is
//!   an arrival paired with a forced departure of a uniformly chosen
//!   packet, which leaves the remaining residuals i.i.d. exponential by
//!   memorylessness), so its preemption fraction obeys the same formula.
//!   RCAD's other victim policies bias which residual leaves — e.g.
//!   ShortestRemaining evicts the packet that would have departed
//!   soonest, leaving the *larger* order statistics behind — so their
//!   occupancy chains have no Erlang closed form and get no finite-buffer
//!   checks (measured preemption runs well above `B(ρ, k)`).
//!
//! Collection is strictly opt-in: when the [`Runtime`] has no
//! [`TelemetrySink`], the collector runs plain [`NetworkSimulation::run`]
//! and the simulation output is byte-identical to an uninstrumented run.

use serde::{Deserialize, Serialize};
use tempriv_net::ids::{FlowId, NodeId};
use tempriv_net::traffic::TrafficModel;
use tempriv_queueing::erlang::erlang_b;
use tempriv_runtime::{BlobKind, Runtime, TelemetrySink};
use tempriv_telemetry::{
    chrome_span_events, memprof, wrap_chrome_events, BtqParams, DigestProbe, FlightLog,
    FlightRecorder, FlowAoi, FlowPrivacyConfig, MemBreakdown, MemScopeTimer, MemSnapshot,
    MetricsRegistry, PhaseBreakdown, PhaseProfiler, PrivacyProbe, PrivacySeries, RecordingProbe,
    RunDigest, SimTelemetry, SpanRecord, SpanSet, TelemetrySnapshot, TheoryCheck, TheoryReport,
    TheoryTolerance, TraceCtx,
};

use crate::buffer::BufferPolicy;
use crate::delay::DelayStrategy;
use crate::metrics::SimOutcome;
use crate::sim_driver::{NetworkSimulation, Workload};

/// The expected steady-state load at one node, derived from the
/// simulation's configuration (not from its output).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeLoadModel {
    /// Aggregate packet arrival rate `λ` at the node (flows through it ×
    /// per-source rate).
    pub lambda: f64,
    /// Service rate `μ = 1 / mean delay`.
    pub mu: f64,
    /// Offered load `ρ = λ/μ`.
    pub rho: f64,
    /// Arrivals are Poisson (source traffic model is Poisson).
    pub poisson_arrivals: bool,
    /// Holding times are exponential (delay strategy is exponential).
    pub exponential_delay: bool,
}

/// Per-node expected loads for `sim`, indexed by node. `None` for nodes
/// the model cannot predict: the sink, pass-through (no-delay) nodes,
/// nodes no flow crosses, threshold-mix nodes (which ignore the delay
/// plan), and any run driven by explicit schedules instead of a traffic
/// model.
#[must_use]
pub fn expected_loads(sim: &NetworkSimulation) -> Vec<Option<NodeLoadModel>> {
    let n = sim.routing().len();
    let mut loads = vec![None; n];
    let Workload::Model(model) = sim.workload() else {
        return loads;
    };
    if matches!(sim.buffer_policy(), BufferPolicy::ThresholdMix { .. }) {
        return loads;
    }
    let rate = model.mean_rate();
    if rate <= 0.0 {
        return loads;
    }
    let flows_through = sim.routing().flows_per_node(sim.sources());
    let sink = sim.routing().sink();
    let poisson_arrivals = matches!(model, TrafficModel::Poisson { .. });
    for (i, load) in loads.iter_mut().enumerate() {
        let flows = flows_through[i];
        #[allow(clippy::cast_possible_truncation)]
        let node = NodeId(i as u32);
        // The sink consumes packets and never delays them.
        if flows == 0 || node == sink {
            continue;
        }
        let strategy = sim.delay_plan().for_node(node);
        if strategy.is_none() {
            continue;
        }
        let mean = strategy.mean();
        if mean <= 0.0 {
            continue;
        }
        let lambda = f64::from(flows) * rate;
        let mu = 1.0 / mean;
        *load = Some(NodeLoadModel {
            lambda,
            mu,
            rho: lambda / mu,
            poisson_arrivals,
            exponential_delay: matches!(strategy, DelayStrategy::Exponential { .. }),
        });
    }
    loads
}

/// Builds the theory cross-check report for one instrumented run:
/// measured telemetry versus the per-node [`expected_loads`] of `sim`.
///
/// Checks are only emitted where the model applies (see the module docs
/// for the exact conditions); a run with no predictable nodes yields an
/// empty — vacuously passing — report.
#[must_use]
pub fn theory_report(
    sim: &NetworkSimulation,
    telemetry: &SimTelemetry,
    tol: &TheoryTolerance,
) -> TheoryReport {
    let mut report = TheoryReport::new();
    // Which station model the buffer policy admits: `None` boxes the
    // infinite-server model, `Some((k, event))` the Erlang M/M/k/k loss
    // model. Policies with no closed form (RCAD with a biased victim)
    // get no node checks at all.
    let finite: Option<Option<(usize, &str)>> = match sim.buffer_policy() {
        BufferPolicy::Unlimited => Some(None),
        BufferPolicy::DropTail { capacity } => Some(Some((capacity, "drop"))),
        BufferPolicy::Rcad {
            capacity,
            victim: crate::buffer::VictimPolicy::Random,
        } => Some(Some((capacity, "preemption"))),
        BufferPolicy::Rcad { .. } | BufferPolicy::ThresholdMix { .. } => None,
    };
    let Some(finite) = finite else {
        return report;
    };
    for (i, load) in expected_loads(sim).iter().enumerate() {
        let Some(load) = load else { continue };
        let Some(node) = telemetry.nodes.get(i) else {
            continue;
        };
        // A node the model expects traffic at but that saw none: the run
        // was too short to measure anything meaningful there.
        if node.arrivals == 0 {
            continue;
        }
        match finite {
            None => {
                // Infinite-server station: Little's law gives mean
                // occupancy ρ = λ/μ for *any* arrival process.
                report.push(TheoryCheck::mean_occupancy(
                    format!("node{i}_mean_occupancy"),
                    load.rho,
                    node.mean_occupancy,
                    tol,
                ));
                // The full Poisson(ρ) occupancy distribution needs the
                // M/M/∞ assumptions.
                if load.poisson_arrivals && load.exponential_delay {
                    report.push(TheoryCheck::poisson_occupancy_pmf(
                        format!("node{i}_occupancy_pmf"),
                        load.rho,
                        &node.occupancy_pmf,
                        tol,
                    ));
                }
            }
            // Erlang's loss model needs Poisson arrivals; a finite
            // buffer under other traffic has no closed form here.
            Some((capacity, event)) if load.poisson_arrivals => {
                #[allow(clippy::cast_possible_truncation)]
                let k = capacity as u32;
                report.push(TheoryCheck::mean_occupancy(
                    format!("node{i}_mean_occupancy"),
                    load.rho * (1.0 - erlang_b(load.rho, k)),
                    node.mean_occupancy,
                    tol,
                ));
                let measured = if event == "drop" {
                    node.drop_fraction()
                } else {
                    node.preemption_fraction()
                };
                report.push(TheoryCheck::erlang_loss(
                    format!("node{i}_{event}_fraction"),
                    load.rho,
                    k,
                    measured,
                    tol,
                ));
            }
            Some(_) => {}
        }
    }
    report
}

/// Exp(μ) cross-checks of the empirical per-hop residence distribution
/// (reconstructed from a flight recording) against the delay plan — the
/// §4 tandem-network assumption made testable.
///
/// Checks are only emitted where the recorded residences *are* the
/// sampled delays: under `Unlimited` and `DropTail` buffers every
/// enqueued packet sits for exactly its sampled delay, so a node with an
/// exponential strategy must show Exp(μ) residences. RCAD eviction
/// biases which sampled delays survive (ShortestRemaining removes the
/// small order statistics), and threshold mixes ignore the delay plan,
/// so neither gets a check. Nodes with fewer than 200 completed
/// residences are skipped: the expected sampling L1 alone (~2/√n over
/// these bins) would swamp the tolerance.
#[must_use]
pub fn residence_checks(
    sim: &NetworkSimulation,
    log: &FlightLog,
    tol: &TheoryTolerance,
) -> Vec<TheoryCheck> {
    const MIN_SAMPLES: usize = 200;
    let mut checks = Vec::new();
    if !matches!(
        sim.buffer_policy(),
        BufferPolicy::Unlimited | BufferPolicy::DropTail { .. }
    ) {
        return checks;
    }
    for (node, samples) in log.residence_by_node() {
        if samples.len() < MIN_SAMPLES {
            continue;
        }
        #[allow(clippy::cast_possible_truncation)]
        let strategy = sim.delay_plan().for_node(NodeId(node as u32));
        let DelayStrategy::Exponential { mean } = strategy else {
            continue;
        };
        checks.push(TheoryCheck::exponential_residence(
            format!("node{node}_residence_exp"),
            mean,
            &samples,
            tol,
        ));
    }
    checks
}

/// Builds the streaming privacy probe matching `sim`'s configuration,
/// with the default histogram resolution. `interval` is the number of
/// deliveries between journaled snapshots. See
/// [`privacy_flow_configs`] for how the per-flow envelopes are derived.
#[must_use]
pub fn privacy_probe_for(sim: &NetworkSimulation, interval: u64) -> PrivacyProbe {
    PrivacyProbe::new(privacy_flow_configs(sim), interval)
}

/// Per-flow privacy configuration matching `sim`: one
/// [`FlowPrivacyConfig`] per flow, with the baseline adversary's
/// constant offset `h·τ + E[path delay]` taken from
/// [`NetworkSimulation::adversary_knowledge`] and the eq. 4 envelope
/// parameters `(μ, λ)` filled in when the workload advertises a rate and
/// the delay plan a positive mean (trace-driven schedules get MI-only
/// tracking).
#[must_use]
pub fn privacy_flow_configs(sim: &NetworkSimulation) -> Vec<FlowPrivacyConfig> {
    let knowledge = sim.adversary_knowledge();
    let lambda = match sim.workload() {
        Workload::Model(model) if model.mean_rate() > 0.0 => Some(model.mean_rate()),
        Workload::Model(_) | Workload::Schedules(_) => None,
    };
    (0..knowledge.num_flows())
        .map(|flow| {
            #[allow(clippy::cast_possible_truncation)]
            let flow_id = FlowId(flow as u32);
            let hops = f64::from(knowledge.hops(flow_id));
            let path_mean = knowledge.path_delay_mean(flow_id);
            let btq = match (lambda, path_mean > 0.0 && hops > 0.0) {
                // The adversary's advertised per-hop mean delay: the
                // path average, exactly what its estimator uses.
                (Some(lambda), true) => Some(BtqParams {
                    mu: hops / path_mean,
                    lambda,
                }),
                _ => None,
            };
            FlowPrivacyConfig {
                adversary_offset: hops * knowledge.tau + path_mean,
                btq,
            }
        })
        .collect()
}

/// One instrumented scenario within a job (a sweep point may simulate
/// several — e.g. Figure 2 runs no-delay, unlimited, and RCAD per point).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioTelemetry {
    /// Scenario label within the job (e.g. `"rcad"`).
    pub label: String,
    /// The recorded simulation telemetry.
    pub sim: SimTelemetry,
    /// Queueing-theory cross-checks for this scenario.
    pub theory: TheoryReport,
    /// Per-flow Age-of-Information summary, derived from the flight
    /// recording's creation→arrival spans. Empty when flight recording
    /// was off (and in blobs written before AoI existed).
    #[serde(default)]
    pub aoi: Vec<FlowAoi>,
}

/// Everything one job attaches to its manifest record when telemetry is
/// on: per-scenario telemetry plus wall-time spans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct JobTelemetry {
    /// One entry per simulated scenario, in execution order.
    pub scenarios: Vec<ScenarioTelemetry>,
    /// Wall-clock time per scenario (profiling metadata; excluded from
    /// all deterministic outputs).
    pub spans: SpanSet,
}

impl JobTelemetry {
    /// Total theory checks across all scenarios.
    #[must_use]
    pub fn theory_checks(&self) -> usize {
        self.scenarios.iter().map(|s| s.theory.checks.len()).sum()
    }

    /// Theory checks that exceeded their tolerance.
    #[must_use]
    pub fn theory_flagged(&self) -> usize {
        self.scenarios
            .iter()
            .flat_map(|s| &s.theory.checks)
            .filter(|c| !c.passed)
            .count()
    }
}

/// One traced scenario within a job: the label plus its frozen flight
/// recording.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioTrace {
    /// Scenario label within the job (matches the telemetry label).
    pub label: String,
    /// The frozen flight recording.
    pub log: FlightLog,
}

/// Everything one job attaches as its manifest *trace* blob when flight
/// recording is on: one [`FlightLog`] per simulated scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct JobTrace {
    /// One entry per traced scenario, in execution order.
    pub scenarios: Vec<ScenarioTrace>,
}

/// One scenario's streaming privacy series within a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioPrivacy {
    /// Scenario label within the job (matches the telemetry label).
    pub label: String,
    /// The frozen privacy convergence series.
    pub series: PrivacySeries,
}

/// Everything one job attaches as its manifest *privacy* blob when the
/// streaming privacy observatory is on: one [`PrivacySeries`] per
/// simulated scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct JobPrivacy {
    /// One entry per observed scenario, in execution order.
    pub scenarios: Vec<ScenarioPrivacy>,
}

/// One scenario's engine phase breakdown within a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioProfile {
    /// Scenario label within the job (matches the telemetry label).
    pub label: String,
    /// Wall-time attribution across the engine's kernel phases.
    pub profile: PhaseBreakdown,
}

/// Everything one job attaches as its manifest *spans* blob when
/// cross-layer span tracing is on: wall-clock spans carrying the
/// request's trace id down to each simulated scenario, plus one engine
/// phase breakdown per scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct JobSpans {
    /// The job span followed by one span per scenario, all sharing the
    /// run's trace id. Timestamps are microseconds since the owning
    /// sink's epoch.
    pub spans: Vec<SpanRecord>,
    /// One phase breakdown per profiled scenario, in execution order.
    pub profiles: Vec<ScenarioProfile>,
}

/// One scenario's determinism-audit digest within a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioAudit {
    /// Scenario label within the job (matches the telemetry label).
    pub label: String,
    /// The windowed checkpoint digests and run root for this scenario.
    pub digest: RunDigest,
}

/// Everything one job attaches as its manifest *audit* blob when the
/// determinism audit is on: one [`RunDigest`] per simulated scenario
/// plus a job-level root folding the scenario roots together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct JobAudit {
    /// One entry per audited scenario, in execution order.
    pub scenarios: Vec<ScenarioAudit>,
    /// Digest over every `label:root` pair in order — one line to
    /// compare when asking "did this job replay identically?".
    pub root: String,
}

impl JobAudit {
    /// The job root implied by the current scenario list: the content
    /// digest of each scenario's `label:root` line, in order.
    #[must_use]
    pub fn compute_root(&self) -> String {
        let mut lines = String::new();
        for scenario in &self.scenarios {
            lines.push_str(&scenario.label);
            lines.push(':');
            lines.push_str(&scenario.digest.root);
            lines.push('\n');
        }
        tempriv_telemetry::audit::digest::content_digest(lines.as_bytes())
    }
}

/// One scenario's allocation ledger within a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMem {
    /// Scenario label within the job (matches the telemetry label).
    pub label: String,
    /// Per-slot allocation attribution for this scenario's run window
    /// (kernel phases plus the unscoped residual).
    pub ledger: MemBreakdown,
    /// Heap allocations made on the driver thread during the run.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Packets the scenario delivered (the ratio's denominator).
    pub delivered: u64,
    /// Allocations per delivered packet (0 when nothing was delivered)
    /// — the figure the zero-alloc data-plane work drives to zero.
    pub allocs_per_delivered: f64,
}

/// Everything one job attaches as its manifest *mem* blob when memory
/// profiling is on: one [`ScenarioMem`] per simulated scenario plus
/// process-wide allocator gauges sampled when the job finished.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct JobMem {
    /// One entry per profiled scenario, in execution order.
    pub scenarios: Vec<ScenarioMem>,
    /// Process-wide allocator counters when the job finished (shared
    /// across workers; per-scenario numbers above are thread-exact).
    #[serde(default)]
    pub process: Option<MemSnapshot>,
    /// Peak resident set size in bytes (`/proc/self/status` `VmHWM`),
    /// `None` off-Linux.
    #[serde(default)]
    pub peak_rss_bytes: Option<u64>,
}

/// Runs a job's simulations, recording telemetry when the runtime has a
/// [`TelemetrySink`] and running the plain, probe-free path otherwise.
///
/// Construct one per job with [`JobTelemetryCollector::for_job`], route
/// every `sim.run()` through [`JobTelemetryCollector::run`], and call
/// [`JobTelemetryCollector::finish`] before returning the row. When the
/// sink is absent this is a zero-cost pass-through: the simulation runs
/// with [`NullProbe`](tempriv_telemetry::NullProbe) exactly as an
/// uninstrumented build would.
#[derive(Debug)]
pub struct JobTelemetryCollector<'a> {
    sink: Option<(&'a TelemetrySink, usize)>,
    /// The sink's per-[`BlobKind`] settings, read once per job (all 0
    /// without a sink).
    settings: [usize; 6],
    epoch: std::time::Instant,
    job_ctx: TraceCtx,
    /// Parent span id for the job span: the serve/CLI root span when the
    /// sink carries one, 0 (trace root) otherwise.
    job_parent: u64,
    job_started: std::time::Instant,
    tolerance: TheoryTolerance,
    sim_shards: u32,
    job: JobTelemetry,
    trace: JobTrace,
    privacy: JobPrivacy,
    spans: JobSpans,
    audit: JobAudit,
    mem: JobMem,
}

impl<'a> JobTelemetryCollector<'a> {
    /// A collector for job `index` of a run on `runtime`. Collection is
    /// active only when the runtime carries a telemetry sink, and each
    /// family only when the sink's [`setting`](TelemetrySink::setting)
    /// for its [`BlobKind`] is non-zero.
    #[must_use]
    pub fn for_job(runtime: &'a Runtime, index: usize) -> Self {
        let sink = runtime.telemetry_sink();
        // The job's trace context is a deterministic child of the run's
        // root context: the serve layer mints a root per HTTP request and
        // plants it on the sink; standalone runs fall back to a fixed
        // root so exported traces still carry consistent ids.
        let root = sink.and_then(TelemetrySink::root_ctx).map_or_else(
            || TraceCtx::root(0, "run"),
            |(trace_id, span_id)| TraceCtx { trace_id, span_id },
        );
        let job_parent = sink
            .and_then(TelemetrySink::root_ctx)
            .map_or(0, |(_, span_id)| span_id);
        JobTelemetryCollector {
            sink: sink.map(|sink| (sink, index)),
            settings: BlobKind::ALL.map(|kind| sink.map_or(0, |sink| sink.setting(kind))),
            epoch: sink.map_or_else(std::time::Instant::now, TelemetrySink::epoch),
            job_ctx: root.child(index as u64),
            job_parent,
            job_started: std::time::Instant::now(),
            tolerance: TheoryTolerance::default(),
            sim_shards: runtime.sim_shards(),
            job: JobTelemetry::default(),
            trace: JobTrace::default(),
            privacy: JobPrivacy::default(),
            spans: JobSpans::default(),
            audit: JobAudit::default(),
            mem: JobMem::default(),
        }
    }

    /// Runs `sim`, probed iff collection is active. The returned
    /// [`SimOutcome`] is identical either way: probes observe the event
    /// loop, they never consume randomness or reorder events.
    pub fn run(&mut self, sim: &NetworkSimulation, label: &str) -> SimOutcome {
        if self.sink.is_none() {
            // The sharded engine supports only probe-free runs (per-event
            // probes observe the serial event order), so the runtime's
            // shard knob applies exactly when no telemetry is collected.
            if self.sim_shards > 1 {
                return sim.run_sharded(self.sim_shards, 1);
            }
            return sim.run();
        }
        let started = std::time::Instant::now();
        let on = |kind: BlobKind| Some(self.settings[kind as usize]).filter(|&n| n > 0);
        let mut metrics = on(BlobKind::Telemetry).map(|_| RecordingProbe::new(sim.routing().len()));
        let mut flight = on(BlobKind::Trace).map(FlightRecorder::with_capacity);
        let mut privacy = on(BlobKind::Privacy).map(|n| privacy_probe_for(sim, n as u64));
        let mut profiler = on(BlobKind::Spans)
            .map(|n| PhaseProfiler::with_batch(u32::try_from(n).unwrap_or(u32::MAX)));
        let mut digest = on(BlobKind::Audit).map(DigestProbe::new);
        // The allocation-scope timer rides the same phase-switch hooks
        // as the profiler; it must be constructed *after* the probes so
        // their setup allocations stay outside its baseline.
        let mut mem_timer = on(BlobKind::Mem).map(|_| {
            memprof::set_enabled(true);
            MemScopeTimer::new()
        });
        // Every family is an optional observer: an `Option` probe or
        // timer forwards to `Some` and costs one predictable branch when
        // `None`, so one monomorphized stack covers every on/off mix.
        let outcome = sim.run_profiled(
            &mut (
                ((metrics.as_mut(), digest.as_mut()), flight.as_mut()),
                privacy.as_mut(),
            ),
            &mut (profiler.as_mut(), mem_timer.as_mut()),
        );
        let flight_log = flight.map(|f| f.finish(outcome.end_time));
        let privacy_series = privacy.map(|p| p.finish(outcome.end_time));
        // The theory and residence checks read the recorder's per-node
        // series, so they run only when the metrics family is on.
        if let Some(metrics) = metrics {
            let telemetry = metrics.finish(outcome.end_time);
            let mut theory = theory_report(sim, &telemetry, &self.tolerance);
            if let Some(log) = &flight_log {
                for check in residence_checks(sim, log, &self.tolerance) {
                    theory.push(check);
                }
            }
            self.job
                .spans
                .record(label, started.elapsed().as_secs_f64());
            let aoi = flight_log
                .as_ref()
                .map(FlightLog::aoi_by_flow)
                .unwrap_or_default();
            self.job.scenarios.push(ScenarioTelemetry {
                label: label.to_string(),
                sim: telemetry,
                theory,
                aoi,
            });
        }
        if let Some(profiler) = profiler {
            // Scenario children hang off the job span; index 0 is
            // reserved for the job itself, so scenarios start at 1.
            let scenario_ctx = self.job_ctx.child(self.spans.profiles.len() as u64 + 1);
            #[allow(clippy::cast_possible_truncation)]
            let start_us = started.saturating_duration_since(self.epoch).as_micros() as u64;
            #[allow(clippy::cast_possible_truncation)]
            let dur_us = started.elapsed().as_micros() as u64;
            self.spans.spans.push(SpanRecord {
                trace_id: scenario_ctx.trace_id,
                span_id: scenario_ctx.span_id,
                parent_id: self.job_ctx.span_id,
                name: label.to_string(),
                layer: "scenario".to_string(),
                start_us,
                dur_us,
            });
            self.spans.profiles.push(ScenarioProfile {
                label: label.to_string(),
                profile: profiler.finish(),
            });
        }
        if let Some(log) = flight_log {
            self.trace.scenarios.push(ScenarioTrace {
                label: label.to_string(),
                log,
            });
        }
        if let Some(series) = privacy_series {
            self.privacy.scenarios.push(ScenarioPrivacy {
                label: label.to_string(),
                series,
            });
        }
        if let Some(digest) = digest {
            self.audit.scenarios.push(ScenarioAudit {
                label: label.to_string(),
                digest: digest.finish(),
            });
        }
        if let Some(timer) = mem_timer {
            let delivered = outcome.total_delivered();
            self.mem.scenarios.push(ScenarioMem {
                label: label.to_string(),
                ledger: timer.finish(),
                allocs: outcome.allocs,
                alloc_bytes: outcome.alloc_bytes,
                delivered,
                // Stored as 0.0 (not inf) when nothing was delivered so
                // the blob stays JSON-serializable.
                allocs_per_delivered: if delivered > 0 {
                    #[allow(clippy::cast_precision_loss)]
                    {
                        outcome.allocs as f64 / delivered as f64
                    }
                } else {
                    0.0
                },
            });
        }
        outcome
    }

    /// Serializes every family the job recorded and attaches each blob
    /// to the job's sink slot for its [`BlobKind`]. No-op when
    /// collection is inactive.
    pub fn finish(mut self) {
        let Some((sink, index)) = self.sink else {
            return;
        };
        let attach = |kind: BlobKind, json: Result<String, serde_json::Error>| {
            sink.attach(kind, index, json.expect("job blob serializes"));
        };
        if self.settings[BlobKind::Telemetry as usize] > 0 {
            attach(BlobKind::Telemetry, serde_json::to_string(&self.job));
        }
        if !self.trace.scenarios.is_empty() {
            attach(BlobKind::Trace, serde_json::to_string(&self.trace));
        }
        if !self.privacy.scenarios.is_empty() {
            attach(BlobKind::Privacy, serde_json::to_string(&self.privacy));
        }
        if !self.audit.scenarios.is_empty() {
            self.audit.root = self.audit.compute_root();
            attach(BlobKind::Audit, serde_json::to_string(&self.audit));
        }
        if !self.mem.scenarios.is_empty() {
            self.mem.process = Some(memprof::snapshot());
            self.mem.peak_rss_bytes = memprof::peak_rss_bytes();
            attach(BlobKind::Mem, serde_json::to_string(&self.mem));
        }
        if self.settings[BlobKind::Spans as usize] > 0 {
            #[allow(clippy::cast_possible_truncation)]
            let start_us = self
                .job_started
                .saturating_duration_since(self.epoch)
                .as_micros() as u64;
            #[allow(clippy::cast_possible_truncation)]
            let dur_us = self.job_started.elapsed().as_micros() as u64;
            // The job span leads the blob so readers see parents
            // before children.
            self.spans.spans.insert(
                0,
                SpanRecord {
                    trace_id: self.job_ctx.trace_id,
                    span_id: self.job_ctx.span_id,
                    parent_id: self.job_parent,
                    name: format!("job {index}"),
                    layer: "job".to_string(),
                    start_us,
                    dur_us,
                },
            );
            attach(BlobKind::Spans, serde_json::to_string(&self.spans));
        }
    }
}

/// Sweep-level telemetry: every job's [`JobTelemetry`] plus aggregate
/// counters, per-node gauges, and the flagged theory checks — what
/// `tempriv sweep --telemetry` writes and `tempriv report` renders.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryExport {
    /// Experiment kind the telemetry came from (e.g. `"fig2"`).
    pub experiment: String,
    /// Jobs in the run.
    pub jobs: usize,
    /// Jobs that attached telemetry (cache-served jobs attach none).
    pub instrumented_jobs: usize,
    /// Scenarios recorded across all instrumented jobs.
    pub scenarios: usize,
    /// Theory checks evaluated across all scenarios.
    pub theory_checks: usize,
    /// Theory checks that exceeded tolerance.
    pub theory_flagged: usize,
    /// The failing checks themselves, in job order.
    pub flagged: Vec<TheoryCheck>,
    /// Aggregated metrics registry snapshot (canonical JSON +
    /// Prometheus-exportable).
    pub metrics: TelemetrySnapshot,
    /// Raw per-job telemetry, indexed by job (None = not instrumented).
    pub job_telemetry: Vec<Option<JobTelemetry>>,
    /// Raw per-job streaming-privacy series, indexed by job (None = the
    /// job ran without the privacy observatory). Absent in exports
    /// written before the observatory existed.
    #[serde(default)]
    pub job_privacy: Vec<Option<JobPrivacy>>,
    /// Raw per-job memory ledgers, indexed by job (None = the job ran
    /// without the allocation observatory). Absent in exports written
    /// before memory profiling existed.
    #[serde(default)]
    pub job_mem: Vec<Option<JobMem>>,
}

impl TelemetryExport {
    /// Aggregates per-job telemetry blobs (as journaled in a manifest or
    /// drained from a [`TelemetrySink`]) into one export.
    /// `privacy_blobs` carries the parallel privacy-series blobs and
    /// `mem_blobs` the parallel allocation-ledger blobs; pass `&[]` for
    /// either when the run had no such observatory.
    ///
    /// # Errors
    ///
    /// Returns a message naming the job whose blob fails to parse.
    pub fn collect(
        experiment: &str,
        blobs: &[Option<String>],
        privacy_blobs: &[Option<String>],
        mem_blobs: &[Option<String>],
    ) -> Result<Self, String> {
        let job_telemetry: Vec<Option<JobTelemetry>> = parse_blobs(BlobKind::Telemetry, blobs)?;
        let mut job_privacy: Vec<Option<JobPrivacy>> =
            parse_blobs(BlobKind::Privacy, privacy_blobs)?;
        let mut job_mem: Vec<Option<JobMem>> = parse_blobs(BlobKind::Mem, mem_blobs)?;
        // A run without an observatory passes no blobs for it; its list
        // still holds one entry per job.
        job_privacy.resize_with(blobs.len(), || None);
        job_mem.resize_with(blobs.len(), || None);

        let mut registry = MetricsRegistry::new();
        let counters = SCENARIO_COUNTERS.map(|(name, help, _)| registry.counter(name, help));
        let latency_hist = registry.histogram(
            "tempriv_scenario_mean_latency",
            "Mean end-to-end delivery latency per instrumented scenario (time units)",
            0.0,
            1000.0,
            20,
        );

        // Per-node aggregates across every instrumented scenario: the
        // occupancy gauge averages scenario means, peak and high-water
        // take the max.
        let mut occupancy = MeanByIndex::default();
        let mut node_peak = Vec::new();
        let mut node_high_water = Vec::new();
        let mut instrumented_jobs = 0;
        let mut scenarios = 0;
        let mut theory_checks = 0;
        let mut theory_flagged = 0;
        let mut flagged = Vec::new();
        let mut engine_events_total = 0u64;
        let mut engine_wall_secs = 0.0f64;
        let mut peak_fes = 0u64;
        let mut queue_footprint = 0u64;
        for job in job_telemetry.iter().flatten() {
            instrumented_jobs += 1;
            scenarios += job.scenarios.len();
            theory_checks += job.theory_checks();
            theory_flagged += job.theory_flagged();
            engine_wall_secs += job.spans.total_seconds();
            for scenario in &job.scenarios {
                for (&id, (_, _, value)) in counters.iter().zip(&SCENARIO_COUNTERS) {
                    registry.inc(id, value(scenario));
                }
                engine_events_total += scenario.sim.engine_events;
                peak_fes = peak_fes.max(scenario.sim.peak_fes);
                queue_footprint = queue_footprint.max(scenario.sim.queue_footprint);
                if scenario.sim.deliveries > 0 {
                    registry.observe(latency_hist, scenario.sim.mean_latency);
                }
                for node in &scenario.sim.nodes {
                    occupancy.add(node.node, node.mean_occupancy);
                    raise(&mut node_peak, node.node, node.peak_occupancy as f64);
                    raise(&mut node_high_water, node.node, node.high_water as f64);
                }
                flagged.extend(scenario.theory.checks.iter().filter(|c| !c.passed).cloned());
            }
        }

        // Allocation-observatory aggregates: totals sum over scenario
        // ledgers, the allocs-per-delivered gauge ratios the sums, and
        // the peak gauges take the max (they are worst cases). Runs
        // without memory profiling attach no mem blobs and get none of
        // these, so old manifests render unchanged.
        let mut mem_allocs = 0u64;
        let mut mem_bytes = 0u64;
        let mut mem_delivered = 0u64;
        let mut mem_peak_live = 0u64;
        let mut mem_peak_rss = 0u64;
        for job in job_mem.iter().flatten() {
            for scenario in &job.scenarios {
                mem_allocs += scenario.allocs;
                mem_bytes += scenario.alloc_bytes;
                mem_delivered += scenario.delivered;
            }
            if let Some(process) = &job.process {
                mem_peak_live = mem_peak_live.max(process.peak_live_bytes);
            }
            if let Some(rss) = job.peak_rss_bytes {
                mem_peak_rss = mem_peak_rss.max(rss);
            }
        }
        if mem_allocs > 0 {
            let c = registry.counter(
                "tempriv_allocs_total",
                "Heap allocations inside instrumented simulation runs",
            );
            registry.inc(c, mem_allocs);
            let c = registry.counter(
                "tempriv_alloc_bytes_total",
                "Heap bytes requested inside instrumented simulation runs",
            );
            registry.inc(c, mem_bytes);
        }

        // Engine throughput gauges: events/sec over the jobs' recorded
        // wall-time spans, peak future-event-set size as a high-water
        // mark. Pre-overhaul blobs default both fields to zero and get
        // no gauges, so old manifests render unchanged.
        let mut set_gauge = |name: String, help: &str, value: f64| {
            let g = registry.gauge(name, help);
            registry.set(g, value);
        };
        if engine_events_total > 0 {
            if engine_wall_secs > 0.0 {
                set_gauge(
                    "tempriv_engine_events_per_sec".into(),
                    "Engine event throughput: events executed over recorded scenario wall time",
                    engine_events_total as f64 / engine_wall_secs,
                );
            }
            set_gauge(
                "tempriv_engine_peak_fes".into(),
                "Peak future-event-set size across instrumented scenarios",
                peak_fes as f64,
            );
        }
        // Queue-memory introspection: pre-audit blobs default the
        // footprint to zero and get no gauge, so old manifests render
        // unchanged.
        if queue_footprint > 0 {
            set_gauge(
                "tempriv_engine_queue_footprint_bytes".into(),
                "Event-queue heap footprint in bytes, max across instrumented scenarios",
                queue_footprint as f64,
            );
        }
        for (i, (&peak, &high_water)) in node_peak.iter().zip(&node_high_water).enumerate() {
            let Some(mean) = occupancy.mean(i) else {
                continue;
            };
            set_gauge(
                format!("tempriv_node_occupancy_mean{{node=\"{i}\"}}"),
                "Time-weighted mean buffer occupancy, averaged over instrumented scenarios",
                mean,
            );
            set_gauge(
                format!("tempriv_node_occupancy_peak{{node=\"{i}\"}}"),
                "Peak instantaneous buffer occupancy across instrumented scenarios",
                peak,
            );
            set_gauge(
                format!("tempriv_node_high_water{{node=\"{i}\"}}"),
                "Buffer high-water mark across instrumented scenarios",
                high_water,
            );
        }

        // Per-flow privacy aggregates across every observed scenario:
        // the MI / margin / adversary-MSE gauges average scenario-final
        // summaries, mirroring the occupancy-mean convention above.
        let [mut mi, mut margin, mut mse] = <[MeanByIndex; 3]>::default();
        for flow in job_privacy
            .iter()
            .flatten()
            .flat_map(|j| &j.scenarios)
            .flat_map(|s| &s.series.summary)
        {
            mi.add(flow.flow, flow.mi_nats);
            if let Some(x) = flow.margin_nats {
                margin.add(flow.flow, x);
            }
            if let Some(x) = flow.mse {
                mse.add(flow.flow, x);
            }
        }
        for i in 0..mi.len() {
            for (means, name, help) in [
                (
                    &mi,
                    "tempriv_privacy_mi_nats",
                    "Empirical streaming I(X;Z) in nats, averaged over observed scenarios",
                ),
                (
                    &margin,
                    "tempriv_privacy_margin_nats",
                    "Analytic BTQ bound minus empirical MI (nats), averaged over observed scenarios",
                ),
                (
                    &mse,
                    "tempriv_privacy_adversary_mse",
                    "Baseline adversary mean squared error, averaged over observed scenarios",
                ),
            ] {
                if let Some(mean) = means.mean(i) {
                    set_gauge(format!("{name}{{flow=\"{i}\"}}"), help, mean);
                }
            }
        }

        // Per-flow Age-of-Information gauges from the flight recorder's
        // creation→arrival spans: mean AoI averages over traced
        // scenarios, peak AoI takes the max (it is a worst case).
        let mut aoi_mean = MeanByIndex::default();
        let mut aoi_peak = Vec::new();
        for aoi in job_telemetry
            .iter()
            .flatten()
            .flat_map(|j| &j.scenarios)
            .flat_map(|s| &s.aoi)
        {
            aoi_mean.add(aoi.flow, aoi.mean);
            raise(&mut aoi_peak, aoi.flow, aoi.peak);
        }
        for (i, &peak) in aoi_peak.iter().enumerate() {
            let Some(mean) = aoi_mean.mean(i) else {
                continue;
            };
            set_gauge(
                format!("tempriv_aoi_mean{{flow=\"{i}\"}}"),
                "Time-averaged Age of Information at the sink (time units), averaged over traced scenarios",
                mean,
            );
            set_gauge(
                format!("tempriv_aoi_peak{{flow=\"{i}\"}}"),
                "Peak Age of Information at the sink (time units), max across traced scenarios",
                peak,
            );
        }

        if mem_allocs > 0 && mem_delivered > 0 {
            set_gauge(
                "tempriv_allocs_per_delivered".into(),
                "Heap allocations per delivered packet across instrumented scenarios",
                mem_allocs as f64 / mem_delivered as f64,
            );
        }
        if mem_peak_live > 0 {
            set_gauge(
                "tempriv_mem_peak_live_bytes".into(),
                "Peak live heap bytes observed by the counting allocator",
                mem_peak_live as f64,
            );
        }
        if mem_peak_rss > 0 {
            set_gauge(
                "tempriv_mem_peak_rss_bytes".into(),
                "Peak resident set size (VmHWM) of the sweep process",
                mem_peak_rss as f64,
            );
        }

        Ok(TelemetryExport {
            experiment: experiment.to_string(),
            jobs: blobs.len(),
            instrumented_jobs,
            scenarios,
            theory_checks,
            theory_flagged,
            flagged,
            metrics: registry.snapshot(),
            job_telemetry,
            job_privacy,
            job_mem,
        })
    }

    /// Canonical JSON of the export — what `--telemetry PATH` writes.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails (it cannot for this type).
    #[must_use]
    pub fn to_canonical_json(&self) -> String {
        serde_json::to_string(self).expect("telemetry export serializes")
    }

    /// Human-readable summary for the console.
    #[must_use]
    pub fn summary_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry: experiment={} jobs={} instrumented={} scenarios={}\n",
            self.experiment, self.jobs, self.instrumented_jobs, self.scenarios
        ));
        out.push_str(&format!(
            "theory checks: {} evaluated, {} flagged\n",
            self.theory_checks, self.theory_flagged
        ));
        for check in &self.flagged {
            out.push_str(&format!(
                "  FLAGGED {}: predicted {:.4}, measured {:.4}, deviation {:.4} > tol {:.4}\n",
                check.name, check.predicted, check.measured, check.deviation, check.tolerance
            ));
        }
        // Engine introspection counters surface in the text summary too:
        // queue compactions and flight-ring evictions are the "did the
        // engine shed state" signals an operator scans for first.
        for counter in &self.metrics.counters {
            if matches!(
                counter.name.as_str(),
                "tempriv_engine_queue_compactions_total" | "tempriv_trace_evicted_total"
            ) {
                out.push_str(&format!("  {} = {}\n", counter.name, counter.value));
            }
        }
        for gauge in &self.metrics.gauges {
            out.push_str(&format!("  {} = {:.4}\n", gauge.name, gauge.value));
        }
        if let Some(mem) = self.memory_text() {
            out.push_str(&mem);
        }
        out
    }

    /// Memory section of the report: merged phase-attributed allocation
    /// ledger plus the steady-state allocs-per-delivered figure. `None`
    /// when no job carried a mem blob (the common, unprofiled case).
    #[must_use]
    pub fn memory_text(&self) -> Option<String> {
        let scenarios: Vec<&ScenarioMem> = self
            .job_mem
            .iter()
            .flatten()
            .flat_map(|j| &j.scenarios)
            .collect();
        if scenarios.is_empty() {
            return None;
        }
        let mut ledger = MemBreakdown::empty();
        let mut allocs = 0u64;
        let mut delivered = 0u64;
        for s in &scenarios {
            ledger.merge(&s.ledger);
            allocs += s.allocs;
            delivered += s.delivered;
        }
        let mut out = String::new();
        out.push_str(&format!(
            "memory: {} profiled scenario(s), {} alloc(s) in-run\n",
            scenarios.len(),
            allocs
        ));
        if delivered > 0 {
            #[allow(clippy::cast_precision_loss)]
            out.push_str(&format!(
                "  allocs per delivered packet = {:.3}\n",
                allocs as f64 / delivered as f64
            ));
        }
        for line in ledger.table().lines() {
            out.push_str(&format!("  {line}\n"));
        }
        if let Some(job) = self.job_mem.iter().flatten().next() {
            if let Some(process) = &job.process {
                out.push_str(&format!(
                    "  process: live={} peak_live={} allocs={}\n",
                    process.live_bytes, process.peak_live_bytes, process.allocs
                ));
            }
            if let Some(rss) = job.peak_rss_bytes {
                out.push_str(&format!("  peak RSS (VmHWM) = {rss} bytes\n"));
            }
        }
        Some(out)
    }
}

/// A counter of the export: name, help and one scenario's contribution.
type ScenarioCounter = (&'static str, &'static str, fn(&ScenarioTelemetry) -> u64);

/// The export's per-scenario counters, in registration order.
const SCENARIO_COUNTERS: [ScenarioCounter; 9] = [
    (
        "tempriv_deliveries_total",
        "Packets delivered to the sink across instrumented scenarios",
        |s| s.sim.deliveries,
    ),
    (
        "tempriv_preemptions_total",
        "RCAD victim preemptions across instrumented scenarios",
        |s| s.sim.total_preemptions(),
    ),
    (
        "tempriv_drops_total",
        "DropTail rejections across instrumented scenarios",
        |s| s.sim.total_drops(),
    ),
    (
        "tempriv_flushes_total",
        "Threshold-mix batch flushes across instrumented scenarios",
        |s| s.sim.total_flushes(),
    ),
    (
        "tempriv_trace_evicted_total",
        "Probe trace records evicted by the bounded ring buffer",
        |s| s.sim.trace_evicted,
    ),
    (
        "tempriv_theory_checks_total",
        "Queueing-theory cross-checks evaluated",
        |s| s.theory.checks.len() as u64,
    ),
    (
        "tempriv_theory_flagged_total",
        "Queueing-theory cross-checks outside tolerance",
        |s| s.theory.checks.iter().filter(|c| !c.passed).count() as u64,
    ),
    (
        "tempriv_engine_events_total",
        "Discrete events executed by the simulation engine across instrumented scenarios",
        |s| s.sim.engine_events,
    ),
    (
        "tempriv_engine_queue_compactions_total",
        "Tombstone compaction sweeps run by the future-event queue across instrumented scenarios",
        |s| s.sim.queue_compactions,
    ),
];

/// Per-index running means (one node's or one flow's value averaged
/// over scenarios), summed in the order values arrive.
#[derive(Default)]
struct MeanByIndex {
    sum: Vec<f64>,
    count: Vec<u64>,
}

impl MeanByIndex {
    fn add(&mut self, i: usize, x: f64) {
        if i >= self.sum.len() {
            self.sum.resize(i + 1, 0.0);
            self.count.resize(i + 1, 0);
        }
        self.sum[i] += x;
        self.count[i] += 1;
    }

    /// The mean at `i`; `None` where nothing was added.
    fn mean(&self, i: usize) -> Option<f64> {
        let n = *self.count.get(i)?;
        (n > 0).then(|| self.sum[i] / n as f64)
    }

    fn len(&self) -> usize {
        self.sum.len()
    }
}

/// Raises `max[i]` to at least `x`, growing `max` with zeros.
fn raise(max: &mut Vec<f64>, i: usize, x: f64) {
    if i >= max.len() {
        max.resize(i + 1, 0.0);
    }
    max[i] = max[i].max(x);
}

/// Parses every job's `kind` blob, keeping the job index: `None` where
/// a job attached no blob. The one reader of journaled, drained and
/// live sink blobs alike.
///
/// # Errors
///
/// Names the first job whose blob does not parse as `T`.
pub fn parse_blobs<T: serde::Deserialize>(
    kind: BlobKind,
    blobs: &[Option<String>],
) -> Result<Vec<Option<T>>, String> {
    blobs
        .iter()
        .enumerate()
        .map(|(i, blob)| {
            blob.as_deref()
                .map(serde_json::from_str)
                .transpose()
                .map_err(|e| format!("job {i}: bad {} blob: {e}", kind.name()))
        })
        .collect()
}

/// One Chrome `trace_event` file for a traced run, with all slices
/// indexed by job: the `lead` spans plus every job's spans (shifted by
/// `offset_us`, clamped at zero), each profiled scenario's phase bands
/// on its own thread `job {i}: {label}` anchored at its scenario span,
/// with the scenario's live-bytes counter track when the job carries a
/// mem blob, then the flight recorder's packet residences on their
/// sim-time axis.
#[must_use]
#[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
pub fn chrome_timeline(
    mut lead: Vec<SpanRecord>,
    spans: &[Option<JobSpans>],
    traces: &[Option<JobTrace>],
    mems: &[Option<JobMem>],
    offset_us: i64,
) -> String {
    let rebase = |us: u64| (us as i64 + offset_us).max(0) as u64;
    let mut bands = Vec::new();
    let mut tid = 0u64;
    for (i, job) in spans.iter().enumerate() {
        let Some(job) = job else { continue };
        lead.extend(job.spans.iter().map(|span| SpanRecord {
            start_us: rebase(span.start_us),
            ..span.clone()
        }));
        let mem = mems.get(i).and_then(Option::as_ref);
        for (s, scenario) in job.profiles.iter().enumerate() {
            // Profile s belongs to scenario span s + 1 (span 0 is the
            // job's own).
            let anchor = job.spans.get(s + 1).map_or(0, |span| rebase(span.start_us));
            let label = format!("job {i}: {}", scenario.label);
            bands.extend(scenario.profile.chrome_phase_events(&label, anchor, tid));
            if let Some(smem) = mem.and_then(|m| m.scenarios.get(s)) {
                bands.extend(
                    smem.ledger
                        .chrome_counter_events(anchor, tid, &scenario.profile),
                );
            }
            tid += 1;
        }
    }
    let mut events = chrome_span_events(&lead, 0);
    events.append(&mut bands);
    for trace in traces.iter().flatten() {
        for scenario in &trace.scenarios {
            events.extend(scenario.log.chrome_trace_events());
        }
    }
    wrap_chrome_events(&events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::VictimPolicy;
    use crate::delay::DelayPlan;
    use tempriv_net::convergecast::Convergecast;

    fn paper_sim(buffer: BufferPolicy, traffic: TrafficModel) -> NetworkSimulation {
        let layout = Convergecast::paper_figure1();
        NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .traffic(traffic)
            .packets_per_source(50)
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(buffer)
            .seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn expected_loads_follow_route_fan_in() {
        use tempriv_net::geometric::GeometricDeployment;
        use tempriv_net::routing::RoutingTree;
        use tempriv_sim::rng::RngFactory;
        let figure1 = paper_sim(BufferPolicy::Unlimited, TrafficModel::poisson(0.5));
        // A 200-node unit-disk field, BFS-routed to the corner sink.
        let deploy = GeometricDeployment::new(14.0, 14.0, 200, 2.0);
        let mut rng = RngFactory::new(3).stream(0);
        let (topo, _) = deploy.sample_connected(&mut rng, 64).unwrap();
        let routing = RoutingTree::shortest_path(&topo, NodeId(0)).unwrap();
        let sources = (1..200).step_by(20).map(NodeId).collect();
        let field = NetworkSimulation::builder(routing, sources)
            .traffic(TrafficModel::poisson(0.25))
            .packets_per_source(10)
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(BufferPolicy::Unlimited)
            .seed(7)
            .build()
            .unwrap();
        for (sim, rate) in [(&figure1, 0.5), (&field, 0.25)] {
            let loads = expected_loads(sim);
            let flows = sim.routing().flows_per_node(sim.sources());
            let sink = sim.routing().sink().index();
            // Every delaying node carries λ = flows through it × rate,
            // μ = 1/30; only the sink and nodes off every route have no
            // load.
            for (i, load) in loads.iter().enumerate() {
                let Some(load) = load else {
                    assert!(flows[i] == 0 || i == sink, "node {i} has no load");
                    continue;
                };
                assert_ne!(i, sink, "the sink never delays");
                assert_eq!(load.lambda, f64::from(flows[i]) * rate, "node {i}");
                assert!((load.mu - 1.0 / 30.0).abs() < 1e-12);
                assert!(load.poisson_arrivals);
                assert!(load.exponential_delay);
            }
            // Fan-in: some node carries more than one flow, so the max λ
            // exceeds the single-flow λ.
            let max_lambda = loads.iter().flatten().map(|l| l.lambda).fold(0.0, f64::max);
            assert!(max_lambda > rate + 1e-12);
        }
    }

    #[test]
    fn schedules_and_mixes_have_no_model() {
        let layout = Convergecast::paper_figure1();
        let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .schedules(vec![
                vec![tempriv_sim::time::SimTime::from_units(1.0)];
                layout.sources().len()
            ])
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(BufferPolicy::Unlimited)
            .seed(7)
            .build()
            .unwrap();
        assert!(expected_loads(&sim).iter().all(Option::is_none));

        let mix = paper_sim(
            BufferPolicy::ThresholdMix { threshold: 4 },
            TrafficModel::poisson(0.5),
        );
        assert!(expected_loads(&mix).iter().all(Option::is_none));
    }

    #[test]
    fn collector_is_pass_through_without_a_sink() {
        let runtime = Runtime::new(tempriv_runtime::WorkerPool::with_workers(1));
        let mut collector = JobTelemetryCollector::for_job(&runtime, 0);
        assert!(collector.sink.is_none());
        let sim = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::periodic(2.0));
        let probed = collector.run(&sim, "rcad");
        collector.finish();
        assert_eq!(probed, sim.run());
    }

    #[test]
    fn collector_attaches_one_blob_per_job() {
        use std::sync::Arc;
        let sink = Arc::new(TelemetrySink::new());
        sink.reset(2);
        let runtime = Runtime::builder()
            .workers(1)
            .telemetry_sink(sink.clone())
            .build()
            .unwrap();
        let sim = paper_sim(BufferPolicy::Unlimited, TrafficModel::poisson(0.5));
        let mut collector = JobTelemetryCollector::for_job(&runtime, 1);
        assert!(collector.sink.is_some());
        let _ = collector.run(&sim, "unlimited");
        collector.finish();
        assert_eq!(sink.get(BlobKind::Telemetry, 0), None);
        let blob = sink
            .get(BlobKind::Telemetry, 1)
            .expect("job 1 attached telemetry");
        let job: JobTelemetry = serde_json::from_str(&blob).unwrap();
        assert_eq!(job.scenarios.len(), 1);
        assert_eq!(job.scenarios[0].label, "unlimited");
        assert!(job.scenarios[0].sim.deliveries > 0);
        assert!(job.theory_checks() > 0);
    }

    #[test]
    fn export_aggregates_and_exposes_node_gauges() {
        let sim = paper_sim(BufferPolicy::Unlimited, TrafficModel::poisson(0.5));
        let mut probe = RecordingProbe::new(sim.routing().len());
        let outcome = sim.run_probed(&mut probe);
        let telemetry = probe.finish(outcome.end_time);
        let theory = theory_report(&sim, &telemetry, &TheoryTolerance::default());
        let mut spans = SpanSet::default();
        spans.record("rcad", 0.25);
        let job = JobTelemetry {
            scenarios: vec![ScenarioTelemetry {
                label: "rcad".to_string(),
                sim: telemetry,
                theory,
                aoi: Vec::new(),
            }],
            spans,
        };
        let blob = serde_json::to_string(&job).unwrap();
        let export = TelemetryExport::collect("fig2", &[Some(blob), None], &[], &[]).unwrap();
        assert_eq!(export.jobs, 2);
        assert_eq!(export.instrumented_jobs, 1);
        assert_eq!(export.scenarios, 1);
        assert!(export.theory_checks > 0);
        assert!(export
            .metrics
            .gauges
            .iter()
            .any(|g| g.name.starts_with("tempriv_node_occupancy_mean{node=")));
        // Engine totals surface as a counter plus throughput gauges.
        let events = export
            .metrics
            .counters
            .iter()
            .find(|c| c.name == "tempriv_engine_events_total")
            .expect("engine event counter");
        assert!(events.value > 0);
        let eps = export
            .metrics
            .gauges
            .iter()
            .find(|g| g.name == "tempriv_engine_events_per_sec")
            .expect("events/sec gauge");
        assert!((eps.value - events.value as f64 / 0.25).abs() < 1e-6);
        let fes = export
            .metrics
            .gauges
            .iter()
            .find(|g| g.name == "tempriv_engine_peak_fes")
            .expect("peak FES gauge");
        assert!(fes.value > 0.0);
        // Round-trips through canonical JSON.
        let back: TelemetryExport = serde_json::from_str(&export.to_canonical_json()).unwrap();
        assert_eq!(back, export);
        // The summary renders without panicking and names the experiment.
        assert!(export.summary_text().contains("experiment=fig2"));

        // A mem blob written while the ledger still carried the
        // always-zero serve/job/scenario rows parses as a JobMem and
        // merges with a current one: the totals hold and no row shows for
        // the retired slots, in the export and in `tempriv profile`'s
        // merge alike.
        let mut current = MemBreakdown::empty();
        let arrive = tempriv_sim::profile::Phase::Arrive.index();
        let unscoped = current.slots.len() - 1;
        for (slot, allocs, bytes) in [(arrive, 3, 300), (unscoped, 2, 340)] {
            current.slots[slot].allocs = allocs;
            current.slots[slot].bytes = bytes;
        }
        current.total_allocs = 5;
        current.total_bytes = 640;
        let mut old = current.clone();
        for (i, slot) in ["serve", "job", "scenario"].into_iter().enumerate() {
            let row = tempriv_telemetry::SlotMem {
                slot: slot.to_string(),
                allocs: 0,
                bytes: 0,
            };
            old.slots.insert(unscoped + i, row);
        }
        let blob = |ledger| {
            let scenario = ScenarioMem {
                label: "rcad".to_string(),
                ledger,
                allocs: 5,
                alloc_bytes: 640,
                delivered: 10,
                allocs_per_delivered: 0.5,
            };
            let job = JobMem {
                scenarios: vec![scenario],
                process: None,
                peak_rss_bytes: None,
            };
            serde_json::to_string(&job).unwrap()
        };
        let blobs = [Some(blob(old)), Some(blob(current.clone()))];
        let export = TelemetryExport::collect("fig2", &[None, None], &[], &blobs).unwrap();
        let old_job = export.job_mem[0].as_ref().expect("old blob parses");
        assert_eq!(
            old_job.scenarios[0].ledger.slots[unscoped + 2].slot,
            "scenario"
        );
        let mut doubled = current.clone();
        doubled.merge(&current);
        let mut merged = MemBreakdown::empty();
        for job in export.job_mem.iter().flatten() {
            for scenario in &job.scenarios {
                merged.merge(&scenario.ledger);
            }
        }
        assert_eq!((merged.total_allocs, merged.total_bytes), (10, 1280));
        assert_eq!(merged.table(), doubled.table());
        let text = export.memory_text().expect("two profiled jobs");
        let ledger: Vec<&str> = text.lines().skip(2).map(str::trim_start).collect();
        assert_eq!(
            ledger,
            doubled.table().lines().collect::<Vec<_>>(),
            "{text}"
        );
    }

    #[test]
    fn collector_traces_when_capacity_is_set() {
        use std::sync::Arc;
        let sink = Arc::new(TelemetrySink::new());
        sink.set(BlobKind::Trace, 1 << 16);
        sink.reset(1);
        let runtime = Runtime::builder()
            .workers(1)
            .telemetry_sink(sink.clone())
            .build()
            .unwrap();
        let layout = Convergecast::paper_figure1();
        let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .traffic(TrafficModel::poisson(0.5))
            .packets_per_source(300)
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(BufferPolicy::Unlimited)
            .seed(7)
            .build()
            .unwrap();
        let mut collector = JobTelemetryCollector::for_job(&runtime, 0);
        let outcome = collector.run(&sim, "unlimited");
        collector.finish();
        // Tracing observes without perturbing the outcome.
        assert_eq!(outcome, sim.run());
        let blob = sink.get(BlobKind::Trace, 0).expect("trace attached");
        let trace: JobTrace = serde_json::from_str(&blob).unwrap();
        assert_eq!(trace.scenarios.len(), 1);
        let log = &trace.scenarios[0].log;
        assert!(!log.events.is_empty());
        assert_eq!(log.capacity, 1 << 16);
        // Delivered lineages reconstruct with a full span.
        let delivered = log.lineages().iter().filter(|l| l.span().is_some()).count();
        assert!(delivered > 0);
        // The Exp(mu) residence checks rode into the theory report and
        // pass on an unlimited-buffer exponential run.
        let telemetry_blob = sink.get(BlobKind::Telemetry, 0).unwrap();
        let job: JobTelemetry = serde_json::from_str(&telemetry_blob).unwrap();
        let residence: Vec<&TheoryCheck> = job.scenarios[0]
            .theory
            .checks
            .iter()
            .filter(|c| c.name.ends_with("_residence_exp"))
            .collect();
        assert!(!residence.is_empty());
        assert!(
            residence.iter().all(|c| c.passed),
            "residence checks flagged: {residence:?}"
        );
    }

    #[test]
    fn residence_checks_skip_rcad_and_sparse_nodes() {
        let sim = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::poisson(0.5));
        let mut flight = FlightRecorder::new();
        let _ = sim.run_probed(&mut flight);
        let log = flight.finish(tempriv_sim::time::SimTime::from_units(1.0));
        assert!(
            residence_checks(&sim, &log, &TheoryTolerance::default()).is_empty(),
            "RCAD eviction biases survivors: no Exp check applies"
        );
    }

    #[test]
    fn bad_blob_is_a_named_error() {
        let err = TelemetryExport::collect("fig2", &[Some("not json".to_string())], &[], &[])
            .unwrap_err();
        assert!(err.contains("job 0"));
        let err = TelemetryExport::collect("fig2", &[None], &[Some("not json".to_string())], &[])
            .unwrap_err();
        assert!(err.contains("bad privacy blob"));
    }

    #[test]
    fn rcad_preemption_fraction_checks_against_erlang() {
        let sim = paper_sim(
            BufferPolicy::Rcad {
                capacity: 10,
                victim: VictimPolicy::Random,
            },
            TrafficModel::poisson(0.5),
        );
        let mut probe = RecordingProbe::new(sim.routing().len());
        let outcome = sim.run_probed(&mut probe);
        let telemetry = probe.finish(outcome.end_time);
        let report = theory_report(&sim, &telemetry, &TheoryTolerance::default());
        assert!(report
            .checks
            .iter()
            .any(|c| c.name.ends_with("_preemption_fraction")));
        assert!(
            !report
                .checks
                .iter()
                .any(|c| c.name.ends_with("_occupancy_pmf")),
            "pmf check requires unlimited buffers"
        );

        // A biased victim policy breaks the memoryless occupancy chain:
        // no Erlang prediction is emitted for it.
        let biased = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::poisson(0.5));
        let mut probe = RecordingProbe::new(biased.routing().len());
        let outcome = biased.run_probed(&mut probe);
        let telemetry = probe.finish(outcome.end_time);
        let report = theory_report(&biased, &telemetry, &TheoryTolerance::default());
        assert!(report.checks.is_empty());
    }

    #[test]
    fn privacy_probe_is_invisible_to_the_simulation() {
        // The observatory only observes: the outcome must be
        // byte-identical and the RNG draw count unchanged.
        let sim = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::poisson(0.5));
        let plain = sim.run();
        let mut probe = privacy_probe_for(&sim, 10);
        let probed = sim.run_probed(&mut probe);
        assert_eq!(probed.rng_draws, plain.rng_draws);
        assert_eq!(probed, plain);
        assert_eq!(
            serde_json::to_string(&probed).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "probed outcome serializes byte-identically"
        );
        assert!(probe.deliveries() > 0, "the probe did observe deliveries");
    }

    #[test]
    fn collector_attaches_privacy_blob_when_interval_is_set() {
        use std::sync::Arc;
        let sink = Arc::new(TelemetrySink::new());
        sink.set(BlobKind::Privacy, 25);
        sink.reset(1);
        let runtime = Runtime::builder()
            .workers(1)
            .telemetry_sink(sink.clone())
            .build()
            .unwrap();
        let sim = paper_sim(BufferPolicy::Unlimited, TrafficModel::poisson(0.5));
        let mut collector = JobTelemetryCollector::for_job(&runtime, 0);
        let outcome = collector.run(&sim, "unlimited");
        collector.finish();
        // The observatory observes without perturbing the outcome.
        assert_eq!(outcome, sim.run());
        let blob = sink
            .get(BlobKind::Privacy, 0)
            .expect("privacy blob attached");
        let privacy: JobPrivacy = serde_json::from_str(&blob).unwrap();
        assert_eq!(privacy.scenarios.len(), 1);
        assert_eq!(privacy.scenarios[0].label, "unlimited");
        let series = &privacy.scenarios[0].series;
        assert!(!series.points.is_empty());
        assert!(series.deliveries > 0);
        assert!(!series.summary.is_empty());
        // The blob aggregates into per-flow gauges through collect().
        let export = TelemetryExport::collect(
            "fig2",
            &[Some(
                serde_json::to_string(&JobTelemetry::default()).unwrap(),
            )],
            &[Some(blob)],
            &[],
        )
        .unwrap();
        assert!(export
            .metrics
            .gauges
            .iter()
            .any(|g| g.name.starts_with("tempriv_privacy_mi_nats{flow=")));
        let back: TelemetryExport = serde_json::from_str(&export.to_canonical_json()).unwrap();
        assert_eq!(back, export);
    }

    #[test]
    fn collector_attaches_spans_and_profiles_when_batch_is_set() {
        use std::sync::Arc;
        let sink = Arc::new(TelemetrySink::new());
        sink.set(BlobKind::Spans, 16);
        sink.set_root_ctx(0xdead_beef, 0x1234_5678);
        sink.reset(1);
        let runtime = Runtime::builder()
            .workers(1)
            .telemetry_sink(sink.clone())
            .build()
            .unwrap();
        let sim = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::poisson(0.5));
        let mut collector = JobTelemetryCollector::for_job(&runtime, 0);
        let outcome = collector.run(&sim, "rcad");
        collector.finish();
        // The profiler observes without perturbing the outcome or the
        // RNG draw count.
        let plain = sim.run();
        assert_eq!(outcome, plain);
        assert_eq!(outcome.rng_draws, plain.rng_draws);
        assert_eq!(
            serde_json::to_string(&outcome).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "profiled outcome serializes byte-identically"
        );
        let blob = sink.get(BlobKind::Spans, 0).expect("spans attached");
        let spans: JobSpans = serde_json::from_str(&blob).unwrap();
        // Job span first, then one scenario span, all on one trace.
        assert_eq!(spans.spans.len(), 2);
        assert_eq!(spans.spans[0].layer, "job");
        assert_eq!(spans.spans[1].layer, "scenario");
        assert_eq!(spans.spans[1].name, "rcad");
        assert!(spans.spans.iter().all(|s| s.trace_id != 0));
        assert_eq!(spans.spans[0].trace_id, spans.spans[1].trace_id);
        assert_eq!(spans.spans[1].parent_id, spans.spans[0].span_id);
        assert_eq!(
            spans.spans[0].parent_id, 0x1234_5678,
            "serve root is the parent"
        );
        // One phase breakdown whose phases sum to its total.
        assert_eq!(spans.profiles.len(), 1);
        let profile = &spans.profiles[0].profile;
        assert_eq!(profile.batch, 16);
        let sum: f64 = profile.phases.iter().map(|p| p.secs).sum();
        assert!((sum - profile.total_secs).abs() < 1e-9);
        assert!(profile
            .phases
            .iter()
            .any(|p| p.phase == "victim_select" && p.count > 0));
    }

    #[test]
    fn job_ctx_is_deterministic_per_index() {
        // Two collectors for the same job index derive the same trace
        // context; different indices diverge.
        let runtime = Runtime::new(tempriv_runtime::WorkerPool::with_workers(1));
        let a = JobTelemetryCollector::for_job(&runtime, 3);
        let b = JobTelemetryCollector::for_job(&runtime, 3);
        let c = JobTelemetryCollector::for_job(&runtime, 4);
        assert_eq!(a.job_ctx, b.job_ctx);
        assert_ne!(a.job_ctx.span_id, c.job_ctx.span_id);
        assert_eq!(a.job_ctx.trace_id, c.job_ctx.trace_id);
    }

    #[test]
    fn aoi_rides_the_flight_recording_into_gauges() {
        use std::sync::Arc;
        let sink = Arc::new(TelemetrySink::new());
        sink.set(BlobKind::Trace, 1 << 16);
        sink.reset(1);
        let runtime = Runtime::builder()
            .workers(1)
            .telemetry_sink(sink.clone())
            .build()
            .unwrap();
        let sim = paper_sim(BufferPolicy::Unlimited, TrafficModel::poisson(0.5));
        let mut collector = JobTelemetryCollector::for_job(&runtime, 0);
        let _ = collector.run(&sim, "unlimited");
        collector.finish();
        let blob = sink.get(BlobKind::Telemetry, 0).unwrap();
        let job: JobTelemetry = serde_json::from_str(&blob).unwrap();
        let aoi = &job.scenarios[0].aoi;
        assert!(!aoi.is_empty(), "flight recording yields AoI per flow");
        for flow in aoi {
            assert!(flow.deliveries > 0);
            assert!(flow.mean > 0.0);
            assert!(flow.peak >= flow.mean);
        }
        // The blob aggregates into per-flow AoI gauges through collect().
        let export = TelemetryExport::collect("fig2", &[Some(blob)], &[], &[]).unwrap();
        assert!(export
            .metrics
            .gauges
            .iter()
            .any(|g| g.name.starts_with("tempriv_aoi_mean{flow=")));
        assert!(export
            .metrics
            .gauges
            .iter()
            .any(|g| g.name.starts_with("tempriv_aoi_peak{flow=")));
    }

    #[test]
    fn digest_probe_is_invisible_to_the_simulation() {
        // The audit probe only observes: outcome byte-identical, RNG
        // draw count unchanged — auditing can never perturb what it
        // attests.
        let sim = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::poisson(0.5));
        let plain = sim.run();
        let mut digest = DigestProbe::new(256);
        let probed = sim.run_probed(&mut digest);
        assert_eq!(probed.rng_draws, plain.rng_draws);
        assert_eq!(probed, plain);
        assert_eq!(
            serde_json::to_string(&probed).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "audited outcome serializes byte-identically"
        );
        assert!(digest.events() > 0, "the probe did observe events");
    }

    #[test]
    fn run_digest_is_invariant_to_probe_stacking() {
        // The digest must describe the *simulation*, not the
        // instrumentation: a full metrics+trace+privacy stack on top of
        // the digest probe yields the same windows and root as the
        // digest probe alone.
        let sim = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::poisson(0.5));
        let mut alone = DigestProbe::new(256);
        let solo_outcome = sim.run_probed(&mut alone);

        let mut stacked = DigestProbe::new(256);
        let mut metrics = RecordingProbe::new(sim.routing().len());
        let mut flight = FlightRecorder::with_capacity(1 << 16);
        let mut privacy = privacy_probe_for(&sim, 25);
        let stacked_outcome =
            sim.run_probed(&mut (((&mut metrics, &mut stacked), &mut flight), &mut privacy));

        assert_eq!(stacked_outcome, solo_outcome);
        let solo = alone.finish();
        let full = stacked.finish();
        assert_eq!(solo.root, full.root);
        assert_eq!(solo.checkpoints, full.checkpoints);
        assert_eq!(solo, full);
    }

    #[test]
    fn collector_attaches_audit_blob_when_window_is_set() {
        use std::sync::Arc;
        let sink = Arc::new(TelemetrySink::new());
        sink.set(BlobKind::Audit, 256);
        sink.reset(1);
        let runtime = Runtime::builder()
            .workers(1)
            .telemetry_sink(sink.clone())
            .build()
            .unwrap();
        let sim = paper_sim(BufferPolicy::paper_rcad(), TrafficModel::periodic(2.0));
        let mut collector = JobTelemetryCollector::for_job(&runtime, 0);
        let outcome = collector.run(&sim, "rcad");
        collector.finish();
        assert_eq!(outcome, sim.run(), "auditing does not perturb the run");
        let blob = sink.get(BlobKind::Audit, 0).expect("audit blob attached");
        let audit: JobAudit = serde_json::from_str(&blob).unwrap();
        assert_eq!(audit.scenarios.len(), 1);
        assert_eq!(audit.scenarios[0].label, "rcad");
        assert_eq!(audit.root, audit.compute_root());
        assert_eq!(audit.root.len(), 16);
        // The scenario digest matches a direct probe of the same run.
        let mut direct = DigestProbe::new(256);
        let _ = sim.run_probed(&mut direct);
        assert_eq!(audit.scenarios[0].digest, direct.finish());
    }

    #[test]
    fn streaming_mi_converges_to_batch_below_the_btq_bound() {
        use tempriv_infotheory::estimators::mi_from_samples_nats;
        use tempriv_net::ids::FlowId;
        // Figure-1 topology at 1000 packets/source: the streaming
        // estimator must land within 15% of the batch estimator run over
        // the same samples, and stay below the eq. 4 mean bound.
        let layout = Convergecast::paper_figure1();
        let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
            .traffic(TrafficModel::poisson(0.5))
            .packets_per_source(1000)
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(BufferPolicy::Unlimited)
            .seed(7)
            .build()
            .unwrap();
        let mut probe = privacy_probe_for(&sim, 100);
        let outcome = sim.run_probed(&mut probe);
        let flows = probe.num_flows();
        assert!(flows > 0);
        let mut compared = 0;
        for flow in 0..flows {
            let mi = probe.flow_mi(flow);
            if mi.count() < 200 {
                continue;
            }
            let streaming = mi.mi_nats();
            #[allow(clippy::cast_possible_truncation)]
            let (xs, zs) = outcome.creation_arrival_pairs(FlowId(flow as u32));
            let bins = mi.effective_x_bins().max(mi.effective_z_bins()).max(2);
            let batch = mi_from_samples_nats(&xs, &zs, bins).unwrap();
            assert!(
                (streaming - batch).abs() <= 0.15 * batch.max(0.2),
                "flow {flow}: streaming {streaming:.4} vs batch {batch:.4} (bins {bins})"
            );
            compared += 1;
        }
        assert!(compared > 0, "at least one flow had enough samples");
        let series = probe.finish(outcome.end_time);
        let mut bounded = 0;
        for summary in &series.summary {
            let Some(bound) = summary.btq_mean_bound_nats else {
                continue;
            };
            assert!(
                summary.mi_nats < bound,
                "flow {}: empirical MI {:.4} exceeds eq. 4 mean bound {:.4}",
                summary.flow,
                summary.mi_nats,
                bound
            );
            assert!(summary.margin_nats.unwrap() > 0.0);
            bounded += 1;
        }
        assert!(bounded > 0, "at least one flow carried a BTQ envelope");
    }
}
