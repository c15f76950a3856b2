//! `paper_sweeps`: the six `*_sweep_with` sweeps at the paper's
//! parameters (`SweepParams::paper_default()`, Figure-1 topology, 1000
//! packets per source, `1/λ ∈ 2..20`) on a 1-worker runtime with a fresh
//! in-memory cache for every pass. The workload seed sets
//! `SweepParams.seed` and nothing else.
//!
//! Untraced, each cycle times one cold pass, then replays the pass warm
//! on the same runtime and checks the rows; a set-up sample is taken
//! after every sweep of both passes. Traced,
//! cycles alternate a traced and an untraced cold pass (their difference
//! is the tracing overhead) and then time the layers under the sweeps
//! one by one: simulation build, engine (with the phase profiler and the
//! allocation counter), adversary evaluation, the runtime's worker pool,
//! and the telemetry probes.

use std::sync::Arc;
use std::time::Instant;

use serde::value::Value;
use tempriv_core::experiment::{
    adversary_panel_sweep_with, delay_ablation_sweep_with, fig2_sweep_with, fig3_sweep_with,
    mix_comparison_sweep_with, victim_ablation_sweep_with, Fig2Row, ScenarioMetrics, SweepParams,
};
use tempriv_core::metrics::evaluate_adversary;
use tempriv_core::{
    BaselineAdversary, BufferPolicy, DelayPlan, ExperimentConfig, LayoutSpec, NetworkSimulation,
    VictimPolicy,
};
use tempriv_net::TrafficModel;
use tempriv_runtime::{content_digest, ResultCache, RunObserver, Runtime};
use tempriv_telemetry::{memprof, DigestProbe, NullProbe, PhaseBreakdown, PhaseProfiler};

use crate::stats::{best, median, overhead_ratio, Checks};
use crate::trace::{self, JobSpans, Tracer};
use crate::{num, nums, obj, Outcome, RunOpts, Size};

/// Span names of the six sweeps, in pass order.
const SWEEPS: [&str; 6] = [
    "experiment.fig2",
    "experiment.fig3",
    "experiment.adversary_panel",
    "experiment.victim_ablation",
    "experiment.delay_ablation",
    "experiment.mix_comparison",
];

/// Wall time of one untraced cycle (cold pass, warm pass, a set-up
/// sample after each sweep) on the 2-vCPU Xeon host the benchmark was tuned on; sets the cycle
/// count from `--seconds` so the work of a run never depends on the
/// host's speed at the time.
const CYCLE_S: f64 = 4.3;

/// Set-ups timed back to back as one set-up sample: one set-up takes
/// 45-90 µs, so a sample lasts 11 ms or more.
const SETUP_BATCH: u32 = 250;

/// The sweep parameters of a run.
#[must_use]
pub fn params(opts: &RunOpts) -> SweepParams {
    let base = SweepParams::paper_default();
    let mut params = match opts.size {
        Size::Full => base,
        Size::Tiny => SweepParams {
            inv_lambdas: vec![2.0, 20.0],
            packets_per_source: 40,
            ..base
        },
    };
    params.seed = opts.seed;
    params
}

/// The three Figure-2 scenario configurations of one sweep point, built
/// exactly as `fig2_sweep_with` builds them (the traced run checks that
/// they reproduce the sweep's rows): no delay, delay with unlimited
/// buffers, delay with RCAD.
#[must_use]
pub fn fig2_configs(params: &SweepParams, inv_lambda: f64) -> [ExperimentConfig; 3] {
    let rcad = ExperimentConfig {
        layout: LayoutSpec::PaperFigure1,
        traffic: TrafficModel::periodic(inv_lambda),
        packets_per_source: params.packets_per_source,
        delay: DelayPlan::shared_exponential(params.delay_mean),
        buffer: BufferPolicy::Rcad {
            capacity: params.capacity,
            victim: VictimPolicy::ShortestRemaining,
        },
        link_delay: 1.0,
        link_loss: 0.0,
        link_jitter: 0.0,
        seed: params.seed ^ inv_lambda.to_bits(),
    };
    let unlimited = ExperimentConfig {
        buffer: BufferPolicy::Unlimited,
        ..rcad.clone()
    };
    let no_delay = ExperimentConfig {
        delay: DelayPlan::no_delay(),
        ..unlimited.clone()
    };
    [no_delay, unlimited, rcad]
}

/// A 1-worker runtime with a fresh in-memory cache.
fn fresh_runtime(observer: &Arc<JobSpans>) -> Runtime {
    let observer: Arc<dyn RunObserver + Send + Sync> = Arc::clone(observer) as _;
    Runtime::builder()
        .workers(1)
        .cache(ResultCache::in_memory())
        .observer(observer)
        .build()
        .expect("an in-memory runtime always builds")
}

fn rows<T: serde::Serialize>(rows: &T) -> String {
    serde_json::to_string(rows).expect("sweep rows serialize")
}

/// Runs sweep `i` of the pass and returns its rows as JSON.
fn sweep(i: usize, params: &SweepParams, rt: &Runtime) -> String {
    match i {
        0 => rows(&fig2_sweep_with(params, rt)),
        1 => rows(&fig3_sweep_with(params, rt)),
        2 => rows(&adversary_panel_sweep_with(params, rt)),
        3 => rows(&victim_ablation_sweep_with(params, rt)),
        4 => rows(&delay_ablation_sweep_with(params, rt)),
        _ => rows(&mix_comparison_sweep_with(params, rt)),
    }
}

/// One pass of all six sweeps; each sweep is a span whose runtime jobs
/// hang under it. Calls `between` after each sweep, outside its timing.
/// Returns the rows and wall seconds of every sweep.
fn pass(
    params: &SweepParams,
    rt: &Runtime,
    observer: &JobSpans,
    tracer: &Tracer,
    name: &'static str,
    between: &mut dyn FnMut(),
) -> Vec<(String, f64)> {
    tracer.root("tpbench", name, |ctx| {
        (0..SWEEPS.len())
            .map(|i| {
                tracer.child(ctx, "tempriv-core experiment", SWEEPS[i], |sweep_ctx| {
                    observer.set_parent(tracer.on().then_some(sweep_ctx));
                    let start = Instant::now();
                    let rows = sweep(i, params, rt);
                    let secs = start.elapsed().as_secs_f64();
                    observer.set_parent(None);
                    between();
                    (rows, secs)
                })
            })
            .collect()
    })
}

/// One set-up: the 1-worker runtime plus every Figure-2 simulation a
/// pass builds (layout, routing, delay plan, buffers).
fn setup_once(params: &SweepParams, observer: &Arc<JobSpans>) -> usize {
    let rt = fresh_runtime(observer);
    let mut built = rt.pool().workers();
    for &inv_lambda in &params.inv_lambdas {
        for cfg in fig2_configs(params, inv_lambda) {
            let sim = cfg.build().expect("fig2 configs are valid");
            built += sim.sources().len();
            std::hint::black_box(sim);
        }
    }
    built
}

/// Seconds per set-up, from one batch of [`SETUP_BATCH`] set-ups.
///
/// On the reference host a set-up flips between ~47 µs and ~85 µs in
/// stretches of 20 ms to 10 s as the host changes phase. The untraced
/// run takes a sample after every sweep of every pass, ~0.3 s apart
/// across the whole run, and reports the best, so one fast stretch
/// anywhere in the run is enough.
fn setup_sample(params: &SweepParams, observer: &Arc<JobSpans>) -> f64 {
    let start = Instant::now();
    for _ in 0..SETUP_BATCH {
        std::hint::black_box(setup_once(params, observer));
    }
    start.elapsed().as_secs_f64() / f64::from(SETUP_BATCH)
}

/// What one checked cycle measured.
struct Cycle {
    /// Wall seconds of the cold pass.
    cold_s: f64,
    /// Wall seconds of each cold sweep, in [`SWEEPS`] order.
    sweep_s: Vec<f64>,
    /// Runtime jobs computed and served from cache over both passes.
    jobs: (usize, usize),
}

/// Cold pass then warm pass on one fresh runtime, with the checks: warm
/// rows equal cold rows, the warm pass computes nothing, and the cold
/// rows equal the first pass of the run (`reference`). `between` runs
/// after every sweep of both passes.
fn checked_cycle(
    params: &SweepParams,
    tracer: &Arc<Tracer>,
    reference: &mut Option<Vec<String>>,
    checks: &mut Checks,
    between: &mut dyn FnMut(),
) -> Cycle {
    let observer = Arc::new(JobSpans::new(Arc::clone(tracer)));
    let rt = fresh_runtime(&observer);
    let cold_pass = pass(params, &rt, &observer, tracer, "pass.cold", between);
    let computed = observer.computed();
    let warm = pass(params, &rt, &observer, tracer, "pass.warm", between);
    let recomputed = observer.computed() - computed;
    let (cold, sweep_s): (Vec<String>, Vec<f64>) = cold_pass.into_iter().unzip();
    let cold_s = sweep_s.iter().sum();
    for (i, (c, (w, _))) in cold.iter().zip(&warm).enumerate() {
        checks.record(*c == *w, || {
            format!("{}: warm rows differ from cold", SWEEPS[i])
        });
    }
    checks.record(recomputed == 0, || {
        format!("warm pass recomputed {recomputed} jobs")
    });
    match reference {
        None => *reference = Some(cold),
        Some(first) => {
            for (i, (a, b)) in first.iter().zip(&cold).enumerate() {
                checks.record(a == b, || {
                    format!("{}: cold rows differ between passes", SWEEPS[i])
                });
            }
        }
    }
    Cycle {
        cold_s,
        sweep_s,
        jobs: (observer.computed(), observer.cached()),
    }
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &RunOpts) -> Outcome {
    let params = params(opts);
    let mut out = Outcome::default();
    if opts.traced {
        run_traced(&params, opts, &mut out);
    } else {
        run_untraced(&params, opts, &mut out);
    }
    let spec = obj([
        ("topology", Value::Str("paper_figure1".into())),
        ("points", Value::UInt(params.inv_lambdas.len() as u64)),
        (
            "packets_per_source",
            Value::UInt(u64::from(params.packets_per_source)),
        ),
        ("sweep_seed", Value::UInt(params.seed)),
    ]);
    out.detail("spec", spec);
    out
}

fn run_untraced(params: &SweepParams, opts: &RunOpts, out: &mut Outcome) {
    let tracer = Arc::new(Tracer::new(false));
    let observer = Arc::new(JobSpans::new(Arc::clone(&tracer)));
    let mut setup = Vec::new();
    let mut sweep_s = Vec::new();
    let mut reference = None;
    let mut jobs = 0;
    for _ in 0..opts.cycles(CYCLE_S) {
        let mut sample = || setup.push(setup_sample(params, &observer));
        let cycle = checked_cycle(
            params,
            &tracer,
            &mut reference,
            &mut out.checks,
            &mut sample,
        );
        sweep_s.push(cycle.cold_s);
        jobs = cycle.jobs.0;
    }
    out.metric("setup_s", best(&setup), "s");
    out.metric("peak_rss_mb", crate::peak_rss_mib(), "MiB");
    let samples = obj([
        ("setup_s", nums(&setup)),
        ("setup_s_median", num(median(&setup))),
        ("sweep_s", nums(&sweep_s)),
        ("sweep_s_best", num(best(&sweep_s))),
        ("jobs_per_pass", Value::UInt(jobs as u64)),
    ]);
    out.detail("samples", samples);
    if let Some(first) = &reference {
        out.detail(
            "rows_digest",
            Value::Str(content_digest(first.concat().as_bytes())),
        );
    }
}

/// Engine layer numbers summed over the scenarios [`engine_layers`]
/// reran.
#[derive(Default)]
pub struct EngineLayers {
    build_s: f64,
    run_s: f64,
    events: u64,
    peak_fes: u64,
    evaluate_s: f64,
    phases: Option<PhaseBreakdown>,
}

impl EngineLayers {
    /// The engine phase table (empty before any scenario ran).
    #[must_use]
    pub fn phases(&self) -> PhaseBreakdown {
        self.phases
            .clone()
            .unwrap_or_else(|| PhaseProfiler::new().finish())
    }

    /// Seconds of adversary evaluation.
    #[must_use]
    pub fn evaluate_s(&self) -> f64 {
        self.evaluate_s
    }

    /// Adds the per-layer metrics every workload reports for the core
    /// build and the engine: build and run seconds, events, peak
    /// future-event-set size, nanoseconds per event, the six engine
    /// phases and `allocs_per_delivered` (measured by the caller on one
    /// of the scenarios).
    pub fn report(&self, allocs_per_delivered: f64, out: &mut Outcome) {
        out.metric("core.build_s", self.build_s, "s");
        out.metric("engine.run_s", self.run_s, "s");
        report_engine_counts(self.events, self.peak_fes, self.run_s, out);
        report_phases(&self.phases(), out);
        out.metric("engine.allocs_per_delivered", allocs_per_delivered, "count");
    }
}

/// `engine.events`, `engine.peak_fes` and `engine.ns_per_event`.
pub fn report_engine_counts(events: u64, peak_fes: u64, run_s: f64, out: &mut Outcome) {
    out.metric("engine.events", events as f64, "count");
    out.metric("engine.peak_fes", peak_fes as f64, "count");
    out.metric(
        "engine.ns_per_event",
        1e9 * run_s / events.max(1) as f64,
        "ns",
    );
}

/// The `engine.phase.*_s` metrics of a phase table.
pub fn report_phases(phases: &PhaseBreakdown, out: &mut Outcome) {
    for phase in [
        "engine_loop",
        "create",
        "arrive",
        "release",
        "queue_push",
        "victim_select",
    ] {
        out.metric(
            format!("engine.phase.{phase}_s"),
            phases.secs_for(phase),
            "s",
        );
    }
}

/// Rebuilds and reruns every Figure-2 scenario of `fig2_rows` outside
/// the runtime: build, plain run, profiled run, adversary evaluation —
/// each a span — adds their numbers to `layers`, and checks the results
/// against the rows.
pub fn engine_layers(
    params: &SweepParams,
    fig2_rows: &[Fig2Row],
    tracer: &Tracer,
    checks: &mut Checks,
    layers: &mut EngineLayers,
) {
    tracer.root("tpbench", "layers.fig2", |ctx| {
        for row in fig2_rows {
            let configs = fig2_configs(params, row.inv_lambda);
            let expect = [row.no_delay, row.unlimited, row.rcad];
            for (cfg, expect) in configs.iter().zip(expect) {
                let t = Instant::now();
                let sim = tracer.child(ctx, "tempriv-core build", "core.build", |_| {
                    cfg.build().expect("fig2 configs are valid")
                });
                layers.build_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let outcome = tracer.child(ctx, "tempriv-core engine", "engine.run", |_| sim.run());
                layers.run_s += t.elapsed().as_secs_f64();
                layers.events += outcome.events;
                layers.peak_fes = layers.peak_fes.max(outcome.peak_fes);
                let mut profiler = PhaseProfiler::new();
                let profiled =
                    tracer.child(ctx, "tempriv-core engine", "engine.run_profiled", |_| {
                        sim.run_profiled(&mut NullProbe, &mut profiler)
                    });
                checks.record(profiled == outcome, || {
                    format!("profiled run differs at 1/λ={}", row.inv_lambda)
                });
                let breakdown = profiler.finish();
                match &mut layers.phases {
                    Some(all) => all.merge(&breakdown),
                    None => layers.phases = Some(breakdown),
                }
                let t = Instant::now();
                let knowledge = sim.adversary_knowledge();
                let report =
                    tracer.child(ctx, "tempriv-core adversary", "adversary.evaluate", |_| {
                        evaluate_adversary(&outcome, &BaselineAdversary, &knowledge)
                    });
                layers.evaluate_s += t.elapsed().as_secs_f64();
                let flow = params.report_flow;
                let got = ScenarioMetrics {
                    mse: report.mse(flow),
                    mean_latency: outcome.flows[flow.index()].latency.mean(),
                };
                checks.record(got == expect, || {
                    format!("rebuilt fig2 scenario differs at 1/λ={}", row.inv_lambda)
                });
            }
        }
    });
}

/// Heap allocations per delivered packet of one steady-state run (a
/// warm-up run first absorbs one-time lazy set-up).
pub fn allocs_per_delivered(sim: &NetworkSimulation) -> f64 {
    std::hint::black_box(sim.run());
    let was = memprof::enabled();
    memprof::set_enabled(true);
    let base = memprof::thread_snapshot();
    let outcome = sim.run();
    let delta = memprof::thread_snapshot().since(base);
    memprof::set_enabled(was);
    delta.allocs as f64 / outcome.total_delivered().max(1) as f64
}

/// Interleaved plain / digest-probed / phase-profiled runs of one
/// simulation: (digest overhead ratio, profiler overhead ratio). Checks that
/// neither instrument changes the outcome.
pub fn probe_overheads(
    sim: &NetworkSimulation,
    reps: usize,
    tracer: &Tracer,
    checks: &mut Checks,
) -> (f64, f64) {
    let reference = sim.run();
    let (mut plain, mut digest, mut profiled) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(sim.run());
        plain.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mut probe = DigestProbe::with_default_window();
        let probed = sim.run_probed(&mut probe);
        digest.push(t.elapsed().as_secs_f64());
        std::hint::black_box(
            tracer.root("tempriv-telemetry", "telemetry.digest_finish", |_| {
                probe.finish()
            }),
        );
        let t = Instant::now();
        let mut profiler = PhaseProfiler::new();
        let timed = sim.run_profiled(&mut NullProbe, &mut profiler);
        profiled.push(t.elapsed().as_secs_f64());
        std::hint::black_box(
            tracer.root("tempriv-telemetry", "telemetry.profiler_finish", |_| {
                profiler.finish()
            }),
        );
        checks.record(probed == reference && timed == reference, || {
            "an instrumented run changed the outcome".to_string()
        });
    }
    (
        overhead_ratio(&digest, &plain),
        overhead_ratio(&profiled, &plain),
    )
}

/// Fig-2 sweep on fresh 1-worker and 2-worker runtimes, interleaved:
/// median 1-worker time over median 2-worker time.
fn pool_speedup(params: &SweepParams, reps: usize, checks: &mut Checks) -> f64 {
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let timed = |workers: usize| {
            let rt = Runtime::builder()
                .workers(workers)
                .cache(ResultCache::in_memory())
                .build()
                .expect("an in-memory runtime always builds");
            let t = Instant::now();
            let rows = rows(&fig2_sweep_with(params, &rt));
            (t.elapsed().as_secs_f64(), rows)
        };
        let (t1, r1) = timed(1);
        let (t2, r2) = timed(2);
        checks.record(r1 == r2, || {
            "fig2 rows differ between 1 and 2 workers".into()
        });
        one.push(t1);
        two.push(t2);
    }
    median(&one) / median(&two)
}

fn run_traced(params: &SweepParams, opts: &RunOpts, out: &mut Outcome) {
    let tracer = Arc::new(Tracer::new(true));
    let quiet = Arc::new(Tracer::new(false));
    let mut reference = None;
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let mut per_sweep: Vec<Vec<f64>> = vec![Vec::new(); SWEEPS.len()];
    let mut jobs = (0, 0);
    // Half the untraced cycle count: each traced cycle runs two passes.
    let n = (opts.cycles(CYCLE_S) / 2).max(2);
    for i in 0..n {
        // Alternate which pass goes first so a drifting host favours
        // neither.
        for traced in [i % 2 == 0, i % 2 == 1] {
            let which = if traced { &tracer } else { &quiet };
            let cycle = checked_cycle(params, which, &mut reference, &mut out.checks, &mut || {});
            if traced {
                traced_s.push(cycle.cold_s);
                for (all, s) in per_sweep.iter_mut().zip(&cycle.sweep_s) {
                    all.push(*s);
                }
                jobs = cycle.jobs;
            } else {
                plain_s.push(cycle.cold_s);
            }
        }
    }
    let fig2_rows: Vec<Fig2Row> =
        serde_json::from_str(&reference.as_ref().expect("at least one pass ran")[0])
            .expect("fig2 rows parse");

    let mut layers = EngineLayers::default();
    engine_layers(params, &fig2_rows, &tracer, &mut out.checks, &mut layers);
    let rcad_low = fig2_configs(params, params.inv_lambdas[0])[2]
        .build()
        .expect("fig2 configs are valid");
    let allocs = allocs_per_delivered(&rcad_low);
    let (digest_ratio, profiler_ratio) = probe_overheads(&rcad_low, 5, &tracer, &mut out.checks);
    let pool = pool_speedup(params, 2, &mut out.checks);

    let spans = tracer.spans();
    let rows = trace::self_times(&spans);
    layers.report(allocs, out);
    out.metric("telemetry.digest_overhead_ratio", digest_ratio, "x");
    out.metric("telemetry.profiler_overhead_ratio", profiler_ratio, "x");
    out.metric(
        "trace.overhead_ratio",
        overhead_ratio(&traced_s, &plain_s),
        "x",
    );
    out.workload_metric("sweep_s", best(&plain_s), "s");
    for (name, secs) in SWEEPS.iter().zip(&per_sweep) {
        out.workload_metric(format!("{name}_s"), median(secs), "s");
    }
    out.workload_metric("adversary.evaluate_s", layers.evaluate_s(), "s");
    out.workload_metric("runtime.jobs_computed", jobs.0 as f64, "count");
    out.workload_metric("runtime.jobs_cached", jobs.1 as f64, "count");
    out.workload_metric("runtime.pool_speedup_2w", pool, "x");

    let samples = obj([
        ("sweep_s_traced", nums(&traced_s)),
        ("sweep_s_untraced", nums(&plain_s)),
    ]);
    out.detail("tracing_overhead", samples);
    out.detail("layer_self_times", trace::layer_json(&rows));
    out.tables
        .push(("span self times".into(), trace::render_table(&rows)));
    out.tables.push((
        "engine phases (fig2 scenarios)".into(),
        layers.phases().table(),
    ));
    out.spans_jsonl = trace::spans_jsonl(&spans);
}
