//! `field_100k`: a fixed-geometry 100k-node unit-disk convergecast with
//! the sink at the corner — the density, radio range and source stride
//! of `perf_baseline --bench scale` — and paper RCAD buffering.
//!
//! The geometry comes from [`GEOMETRY_SEED`], pinned here; the workload
//! seed feeds only the traffic and delay streams. So every run samples
//! the same field in the same number of attempts, and seeds move the
//! event count only by the traffic's phase noise.
//!
//! Untraced, each cycle times one set-up (sample, route, build) and a
//! serial `run()` on the fresh simulation, and every other cycle also a
//! `run_sharded_balanced(2, 2)`. Traced, the set-up layers, the engine
//! phases, the allocation ledger, the telemetry probes, 1- against
//! 2-worker sharded runs and the trunk-cut barrier wait are each timed
//! on their own.

use std::time::Instant;

use serde::value::Value;
use tempriv_core::metrics::SimOutcome;
use tempriv_core::{BufferPolicy, DelayPlan, NetworkSimulation};
use tempriv_net::{GeometricDeployment, NodeId, RoutingTree, TrafficModel};
use tempriv_sim::RngFactory;
use tempriv_telemetry::{memprof, NullProbe, PhaseProfiler};

use crate::paper::{probe_overheads, report_engine_counts, report_phases};
use crate::stats::{best, median, overhead_ratio, Checks};
use crate::trace::{self, Ctx, Tracer};
use crate::{num, nums, obj, Outcome, RunOpts, Size};

/// Seed of the field geometry: the default seed of
/// `perf_baseline --bench scale`, taken as is. At 100k nodes it needs
/// seven sampling attempts before the field is connected.
pub const GEOMETRY_SEED: u64 = 4242;

/// RNG stream of the geometry (as in `perf_baseline --bench scale`).
const GEOMETRY_STREAM: u64 = 0x5CA1E;

/// Sampling attempts allowed before giving up on a connected field.
const MAX_ATTEMPTS: usize = 64;

/// Shards and worker threads of the sharded runs (the host has 2 cores).
const SHARDS: u32 = 2;

/// Wall time of one untraced cycle (a set-up, a serial run and every
/// other cycle a sharded run) on the host the benchmark was tuned on.
/// Short cycles give many set-up samples spread over the run.
const CYCLE_S: f64 = 4.0;

/// Untraced cycles run a balanced sharded run once every this many
/// cycles. Its times are per-layer, and on a busy host a 2-worker run
/// can take eight times its usual 1 s, so it gets fewer repetitions
/// than the set-up it shares the run with.
const SHARDED_EVERY: usize = 2;

/// Plain, digest-probed and phase-profiled runs each, for the telemetry
/// overhead ratios of the traced run.
const PROBE_REPS: usize = 2;

/// Field dimensions and traffic of a size.
#[derive(Debug, Clone, Copy)]
pub struct FieldSpec {
    /// Nodes, sink included.
    pub nodes: usize,
    /// Total packets across all sources.
    pub budget: u64,
}

impl FieldSpec {
    /// The spec of a size.
    #[must_use]
    pub fn of(size: Size) -> FieldSpec {
        match size {
            Size::Full => FieldSpec {
                nodes: 100_000,
                budget: 8_000,
            },
            Size::Tiny => FieldSpec {
                nodes: 2_000,
                budget: 2_000,
            },
        }
    }

    /// Every `stride`-th node sources traffic: every 10th up to 10k
    /// nodes, ~1000 sources beyond.
    fn stride(self) -> usize {
        if self.nodes > 10_000 {
            self.nodes / 1000
        } else {
            10
        }
    }
}

/// A built field and what its set-up took.
pub struct Field {
    /// The simulation, ready to run.
    pub sim: NetworkSimulation,
    /// Sampling attempts until the field was connected.
    pub attempts: usize,
    /// Seconds sampling, routing and building.
    pub sample_s: f64,
    /// Seconds computing the shortest-path routing tree.
    pub route_s: f64,
    /// Seconds building the simulation.
    pub build_s: f64,
}

impl Field {
    /// Whole set-up time.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        self.sample_s + self.route_s + self.build_s
    }
}

/// Samples, routes and builds the field; each step is a span under
/// `ctx`.
///
/// # Panics
///
/// Panics if the pinned geometry does not connect within
/// [`MAX_ATTEMPTS`] (it connects in seven at 100k nodes).
#[must_use]
pub fn setup(spec: FieldSpec, seed: u64, tracer: &Tracer, ctx: Ctx) -> Field {
    let side = (spec.nodes as f64).sqrt().max(3.0);
    let deploy = GeometricDeployment::new(side, side, spec.nodes, 2.0);
    let t = Instant::now();
    let (topo, attempts) = tracer.child(ctx, "tempriv-net", "net.sample", |_| {
        let mut rng = RngFactory::new(GEOMETRY_SEED).stream(GEOMETRY_STREAM);
        (1..=MAX_ATTEMPTS)
            .map(|attempt| (deploy.sample(&mut rng), attempt))
            .find(|(topo, _)| topo.is_connected())
            .expect("the pinned geometry connects")
    });
    let sample_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let routing = tracer.child(ctx, "tempriv-net", "net.route", |_| {
        RoutingTree::shortest_path(&topo, NodeId(0)).expect("a connected field routes")
    });
    let route_s = t.elapsed().as_secs_f64();
    drop(topo);
    let t = Instant::now();
    let sim = tracer.child(ctx, "tempriv-core build", "core.build", |_| {
        let sources: Vec<NodeId> = (1..spec.nodes)
            .step_by(spec.stride())
            .map(|i| NodeId(i as u32))
            .collect();
        let packets = u32::try_from(spec.budget / sources.len() as u64).expect("small budget");
        NetworkSimulation::builder(routing, sources)
            .traffic(TrafficModel::periodic(2.0))
            .packets_per_source(packets.max(1))
            .delay_plan(DelayPlan::shared_exponential(30.0))
            .buffer_policy(BufferPolicy::paper_rcad())
            .seed(seed)
            .build()
            .expect("the field config is valid")
    });
    Field {
        sim,
        attempts,
        sample_s,
        route_s,
        build_s: t.elapsed().as_secs_f64(),
    }
}

/// Packets created = delivered + dropped + stranded.
fn conserved(outcome: &SimOutcome) -> bool {
    let created: u64 = outcome.flows.iter().map(|f| f.created).sum();
    outcome.total_delivered() + outcome.total_drops() + outcome.total_stranded() == created
}

/// Timed run; records conservation and repeatability against the first
/// outcome digest seen for `what`.
fn timed(
    what: &str,
    first: &mut Option<(u64, u64)>,
    checks: &mut Checks,
    run: impl FnOnce() -> SimOutcome,
) -> (f64, SimOutcome) {
    let t = Instant::now();
    let outcome = run();
    let secs = t.elapsed().as_secs_f64();
    checks.record(conserved(&outcome), || {
        format!("{what}: packets not conserved")
    });
    let seen = (outcome.digest(), outcome.events);
    match first {
        None => *first = Some(seen),
        Some(expect) => checks.record(*expect == seen, || {
            format!("{what}: outcome not repeatable")
        }),
    }
    (secs, outcome)
}

/// Samples gathered by the untraced cycles.
#[derive(Default)]
struct Cycles {
    cycle_s: Vec<f64>,
    setup_s: Vec<f64>,
    serial_s: Vec<f64>,
    sharded_s: Vec<f64>,
    serial: Option<(u64, u64)>,
    sharded: Option<(u64, u64)>,
    events: u64,
    sharded_events: u64,
    attempts: usize,
    peak_fes: u64,
}

impl Cycles {
    /// Serial engine events per second of the best serial run.
    fn events_per_s(&self) -> f64 {
        self.events as f64 / best(&self.serial_s)
    }

    /// Balanced 2-shard, 2-worker events per second of the best run.
    fn sharded_events_per_s(&self) -> f64 {
        self.sharded_events as f64 / best(&self.sharded_s)
    }
}

/// One cycle: fresh set-up, then a serial run and, if `sharded`, a
/// balanced 2-shard 2-worker run. Returns the field for follow-up
/// checks.
fn cycle(
    spec: FieldSpec,
    seed: u64,
    tracer: &Tracer,
    acc: &mut Cycles,
    checks: &mut Checks,
    sharded: bool,
) -> Field {
    let start = Instant::now();
    let field = tracer.root("tpbench", "cycle", |ctx| setup(spec, seed, tracer, ctx));
    acc.setup_s.push(field.setup_s());
    acc.attempts = field.attempts;
    let sim = &field.sim;
    let (secs, outcome) = timed("serial run", &mut acc.serial, checks, || {
        tracer.root("tempriv-core engine", "engine.run", |_| sim.run())
    });
    acc.serial_s.push(secs);
    acc.events = outcome.events;
    acc.peak_fes = outcome.peak_fes;
    drop(outcome);
    if sharded {
        let (secs, outcome) = timed("balanced sharded run", &mut acc.sharded, checks, || {
            tracer.root("tempriv-core sharded", "sharded.run_2w", |_| {
                sim.run_sharded_balanced(SHARDS, 2)
            })
        });
        acc.sharded_s.push(secs);
        acc.sharded_events = outcome.events;
    }
    acc.cycle_s.push(start.elapsed().as_secs_f64());
    field
}

/// The two cross-checks made once per untraced run: the trunk-cut
/// sharded run reproduces the serial digest, and the balanced cut gives
/// the same digest on 1 worker as on 2. (The traced run makes both
/// through its own profiled and interleaved sharded runs.)
fn cross_checks(field: &Field, acc: &Cycles, checks: &mut Checks) -> (f64, f64) {
    let t = Instant::now();
    let exact = field.sim.run_sharded(SHARDS, 2);
    let exact_s = t.elapsed().as_secs_f64();
    checks.record(acc.serial == Some((exact.digest(), exact.events)), || {
        "trunk-cut sharded digest differs from serial".into()
    });
    drop(exact);
    let t = Instant::now();
    let one = field.sim.run_sharded_balanced(SHARDS, 1);
    let one_s = t.elapsed().as_secs_f64();
    checks.record(conserved(&one), || {
        "1-worker sharded run: packets not conserved".into()
    });
    checks.record(acc.sharded == Some((one.digest(), one.events)), || {
        "balanced sharded digest differs between 1 and 2 workers".into()
    });
    (exact_s, one_s)
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &RunOpts) -> Outcome {
    let spec = FieldSpec::of(opts.size);
    let mut out = Outcome::default();
    let events = if opts.traced {
        run_traced(spec, opts, &mut out)
    } else {
        run_untraced(spec, opts, &mut out)
    };
    let w = obj([
        ("nodes", Value::UInt(spec.nodes as u64)),
        ("budget", Value::UInt(spec.budget)),
        ("geometry_seed", Value::UInt(GEOMETRY_SEED)),
        ("traffic_seed", Value::UInt(opts.seed)),
        ("engine_events", Value::UInt(events.0)),
        ("sample_attempts", Value::UInt(events.1 as u64)),
    ]);
    out.detail("spec", w);
    out.engine_events = Some(events.0);
    out
}

/// Returns (serial events, sampling attempts) for the seed ledger.
fn run_untraced(spec: FieldSpec, opts: &RunOpts, out: &mut Outcome) -> (u64, usize) {
    let tracer = Tracer::new(false);
    let mut acc = Cycles::default();
    let mut last = None;
    for i in 0..opts.cycles(CYCLE_S) {
        // Free the previous field before building the next one.
        drop(last.take());
        let sharded = i % SHARDED_EVERY == 0;
        last = Some(cycle(
            spec,
            opts.seed,
            &tracer,
            &mut acc,
            &mut out.checks,
            sharded,
        ));
    }
    let field = last.expect("at least one cycle ran");
    let (exact_s, one_s) = cross_checks(&field, &acc, &mut out.checks);
    out.metric("setup_s", best(&acc.setup_s), "s");
    out.metric("peak_rss_mb", crate::peak_rss_mib(), "MiB");
    let s = obj([
        ("events_per_s", num(acc.events_per_s())),
        ("sharded_events_per_s", num(acc.sharded_events_per_s())),
        ("setup_s", nums(&acc.setup_s)),
        ("setup_s_median", num(median(&acc.setup_s))),
        ("serial_s", nums(&acc.serial_s)),
        ("sharded_2w_s", nums(&acc.sharded_s)),
        ("trunk_cut_check_s", num(exact_s)),
        ("sharded_1w_check_s", num(one_s)),
        ("peak_fes", Value::UInt(acc.peak_fes)),
    ]);
    out.detail("samples", s);
    (acc.events, acc.attempts)
}

fn run_traced(spec: FieldSpec, opts: &RunOpts, out: &mut Outcome) -> (u64, usize) {
    let tracer = Tracer::new(true);
    let quiet = Tracer::new(false);
    let checks = &mut out.checks;

    // Tracing overhead: traced against untraced cycles in ABBA order,
    // without sharded runs (the balanced cut is timed below).
    let (mut traced, mut plain) = (Cycles::default(), Cycles::default());
    let mut field = None;
    for on in [true, false, false, true] {
        drop(field.take());
        let (which, acc) = if on {
            (&tracer, &mut traced)
        } else {
            (&quiet, &mut plain)
        };
        field = Some(cycle(spec, opts.seed, which, acc, checks, false));
    }
    let field = field.expect("cycles ran");
    let overhead = overhead_ratio(&traced.cycle_s, &plain.cycle_s);
    // The untraced and traced cycles must agree with each other too.
    checks.record(traced.serial == plain.serial, || {
        "traced and untraced serial runs differ".into()
    });

    let sim = &field.sim;
    let mut profiler = PhaseProfiler::new();
    let profiled = tracer.root("tempriv-core engine", "engine.run_profiled", |_| {
        sim.run_profiled(&mut NullProbe, &mut profiler)
    });
    checks.record(
        plain.serial == Some((profiled.digest(), profiled.events)),
        || "profiled run differs from the plain run".into(),
    );
    let phases = profiler.finish();
    drop(profiled);

    let was = memprof::enabled();
    memprof::set_enabled(true);
    let base = memprof::thread_snapshot();
    let counted = sim.run();
    let allocs = memprof::thread_snapshot().since(base).allocs;
    memprof::set_enabled(was);
    let allocs_per_delivered = allocs as f64 / counted.total_delivered().max(1) as f64;
    drop(counted);

    // 1 against 2 workers on the balanced cut, interleaved; every run
    // must repeat the first one's digest.
    let (mut one_s, mut two_s) = (Vec::new(), Vec::new());
    let mut balanced = None;
    let mut imbalance = 0.0;
    for i in 0..2 {
        for workers in if i == 0 { [1, 2] } else { [2, 1] } {
            let name = if workers == 1 {
                "sharded.run_1w"
            } else {
                "sharded.run_2w"
            };
            let what = format!("balanced sharded run, {workers} workers");
            let (secs, outcome) = timed(&what, &mut balanced, checks, || {
                tracer.root("tempriv-core sharded", name, |_| {
                    sim.run_sharded_balanced(SHARDS, workers)
                })
            });
            if workers == 1 {
                one_s.push(secs);
            } else {
                two_s.push(secs);
                let shard_events: Vec<f64> =
                    outcome.shards.iter().map(|s| s.events as f64).collect();
                let mean = shard_events.iter().sum::<f64>() / shard_events.len().max(1) as f64;
                imbalance = shard_events.iter().copied().fold(0.0, f64::max) / mean;
            }
        }
    }
    let mut barrier = PhaseProfiler::new();
    let exact = tracer.root("tempriv-core sharded", "sharded.run_profiled", |_| {
        sim.run_sharded_profiled(SHARDS, 2, &mut barrier)
    });
    checks.record(plain.serial == Some((exact.digest(), exact.events)), || {
        "profiled trunk-cut run differs from serial".into()
    });
    let barrier = barrier.finish();

    // The telemetry probes on the field's own engine run.
    let (digest_ratio, profiler_ratio) = probe_overheads(sim, PROBE_REPS, &tracer, checks);

    let engine_s = median(&plain.serial_s);
    out.metric("core.build_s", median(&tracer.durations("core.build")), "s");
    out.metric("engine.run_s", engine_s, "s");
    report_engine_counts(plain.events, plain.peak_fes, engine_s, out);
    report_phases(&phases, out);
    out.metric("engine.allocs_per_delivered", allocs_per_delivered, "count");
    out.metric("telemetry.digest_overhead_ratio", digest_ratio, "x");
    out.metric("telemetry.profiler_overhead_ratio", profiler_ratio, "x");
    out.metric("trace.overhead_ratio", overhead, "x");

    out.workload_metric("events_per_s", plain.events_per_s(), "1/s");
    let balanced_events = balanced.map_or(0, |(_, events)| events);
    out.workload_metric(
        "sharded_events_per_s",
        balanced_events as f64 / best(&two_s),
        "1/s",
    );
    out.workload_metric("net.sample_s", median(&tracer.durations("net.sample")), "s");
    out.workload_metric("net.sample_attempts", field.attempts as f64, "count");
    out.workload_metric("net.route_s", median(&tracer.durations("net.route")), "s");
    out.workload_metric("sharded.run_1w_s", median(&one_s), "s");
    out.workload_metric("sharded.run_2w_s", median(&two_s), "s");
    out.workload_metric("sharded.speedup_2w", median(&one_s) / median(&two_s), "x");
    out.workload_metric("sharded.imbalance", imbalance, "x");
    // The only profiled sharded entry point runs the trunk cut, which on
    // this corner-sink field leaves nearly every node in one shard: this
    // is the coordinator's wait on that cut, not on the balanced cut
    // behind `sharded_events_per_s`.
    out.workload_metric(
        "sharded.trunk_barrier_wait_s",
        barrier.secs_for("barrier_wait"),
        "s",
    );

    let spans = tracer.spans();
    let rows = trace::self_times(&spans);
    out.detail("layer_self_times", trace::layer_json(&rows));
    out.tables
        .push(("span self times".into(), trace::render_table(&rows)));
    out.tables
        .push(("engine phases (serial run)".into(), phases.table()));
    out.tables.push((
        "sharded coordinator phases (trunk cut, 2 workers)".into(),
        barrier.table(),
    ));
    out.spans_jsonl = trace::spans_jsonl(&spans);
    (plain.events, field.attempts)
}
