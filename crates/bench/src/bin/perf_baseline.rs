//! Perf baseline for the observability layer and the discrete-event
//! core. `--bench overhead` (the default) times each instrumentation
//! stack of the [`ROWS`] table — flight recorder, privacy observatory,
//! engine self-profiler, determinism digest, allocator observatory — on
//! the four-flow Figure-1 sweep, ledgers allocs per delivered packet for
//! seven buffer/victim configs and geometric scale points, and writes
//! both to `BENCH_overhead.json` with each row's CI budget (`budget_pct`,
//! `null` when report-only). `--bench scale` sweeps random geometric
//! convergecast fields at ~100/1k/10k nodes and writes `BENCH_core.json`
//! (set-up seconds, sampling attempts and the peak live heap of one
//! serial and, with `--shards`, one sharded run per point; events/sec,
//! peak future-event-set size and wall seconds per mode).
//!
//! ```text
//! cargo run --release -p tempriv-bench --bin perf_baseline -- \
//!     --points 2,8,14,20 --packets 1000 --repeats 8 --nodes 100 --budget 4000
//! cargo run --release -p tempriv-bench --bin perf_baseline -- \
//!     --bench scale --nodes 100,1000,10000 --baseline results/BENCH_core.json
//! ```
//!
//! Every row runs the identical deterministic sweep (probes observe and
//! never sample, which the warm-up asserts per point), so wall-clock
//! deltas isolate instrumentation cost. Per point each row times its own
//! `probes_off` / `metrics` / stack triple interleaved and keeps the
//! minimum over `--repeats` runs, the standard guard against scheduler
//! noise. For `--bench scale`, `--baseline` points at a previous
//! `BENCH_core.json`; its `probes_off` events/sec are embedded per point
//! and a speedup ratio computed, which is how before/after comparisons
//! of core data-structure work are recorded.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use tempriv_bench::harness::{best_of_interleaved, ModeTiming, OverheadSummary};
use tempriv_core::buffer::{BufferPolicy, VictimPolicy};
use tempriv_core::delay::DelayPlan;
use tempriv_core::metrics::SimOutcome;
use tempriv_core::sharded::MAX_SHARDS;
use tempriv_core::sim_driver::NetworkSimulation;
use tempriv_core::telemetry::privacy_probe_for;
use tempriv_net::convergecast::Convergecast;
use tempriv_net::geometric::GeometricDeployment;
use tempriv_net::ids::NodeId;
use tempriv_net::routing::RoutingTree;
use tempriv_net::traffic::TrafficModel;
use tempriv_sim::rng::RngFactory;
use tempriv_telemetry::{
    memprof, DigestProbe, FlightRecorder, MemScopeTimer, PhaseProfiler, RecordingProbe,
};

/// The mem row and the ledger count through the real allocator; the
/// other modes leave the gate off and pay one relaxed load per allocation.
#[global_allocator]
static ALLOC: tempriv_telemetry::CountingAlloc = tempriv_telemetry::CountingAlloc;

/// One instrumentation stack of the overhead bench, composed over the
/// metrics probe exactly as the runtime collector composes it.
struct Row {
    /// Row name in `BENCH_overhead.json` and `tempriv report --bench`.
    name: &'static str,
    /// Mode name of the stack's timing column.
    mode: &'static str,
    /// Runs the sweep point once under the stack. The flight recorder
    /// is the one piece of state kept across runs: allocated once per
    /// row and reset per run, as a long-lived recorder would be, so the
    /// steady-state cost is the per-event record, not the arena.
    stack: fn(&NetworkSimulation, &mut FlightRecorder) -> SimOutcome,
    /// CI budget in percent over the metrics probe; `None` is report-only.
    budget_pct: Option<f64>,
}

/// The overhead bench's rows. Only the digest probe and the memory
/// observatory are gated: both are meant to be cheap enough to leave on.
const ROWS: [Row; 5] = [
    Row {
        name: "trace",
        mode: "tracing",
        stack: |sim, flight| {
            flight.reset();
            let mut pair = (RecordingProbe::new(sim.routing().len()), flight);
            let out = sim.run_probed(&mut pair);
            std::hint::black_box(&pair);
            out
        },
        budget_pct: None,
    },
    Row {
        name: "privacy",
        mode: "privacy",
        stack: |sim, _| {
            let probe = RecordingProbe::new(sim.routing().len());
            let mut pair = (probe, privacy_probe_for(sim, 100));
            let out = sim.run_probed(&mut pair);
            std::hint::black_box(&pair);
            out
        },
        budget_pct: None,
    },
    Row {
        name: "span",
        mode: "profiled",
        stack: |sim, _| {
            let mut probe = RecordingProbe::new(sim.routing().len());
            let mut timer = PhaseProfiler::new();
            let out = sim.run_profiled(&mut probe, &mut timer);
            std::hint::black_box(timer.finish());
            out
        },
        budget_pct: None,
    },
    Row {
        name: "audit",
        mode: "audited",
        stack: |sim, _| {
            let probe = RecordingProbe::new(sim.routing().len());
            let mut pair = (probe, DigestProbe::with_default_window());
            let out = sim.run_probed(&mut pair);
            std::hint::black_box(pair.1.finish());
            out
        },
        budget_pct: Some(5.0),
    },
    Row {
        name: "mem",
        mode: "mem",
        // The full observatory: counting gate open for the run,
        // phase-attributed scope timer on the engine loop's switch hooks.
        // The gate closes again so the other two modes time the
        // counting-off path.
        stack: |sim, _| {
            memprof::set_enabled(true);
            let mut probe = RecordingProbe::new(sim.routing().len());
            let mut timer = MemScopeTimer::new();
            let out = sim.run_profiled(&mut probe, &mut timer);
            std::hint::black_box(timer.finish());
            memprof::set_enabled(false);
            out
        },
        budget_pct: Some(5.0),
    },
];

/// One row of `BENCH_overhead.json`.
#[derive(Debug, Serialize)]
struct RowReport {
    /// Row name, e.g. `audit`.
    name: String,
    /// CI budget in percent over the metrics probe; `null` if report-only.
    budget_pct: Option<f64>,
    /// Per-mode timings: probes_off, metrics, the row's stack.
    modes: Vec<ModeTiming>,
    /// `metrics total / probes_off total`.
    metrics_over_probes_off: f64,
    /// `stack total / probes_off total`.
    over_probes_off: f64,
    /// `stack total / metrics total` — the layer's increment.
    over_metrics: f64,
    /// Layer overhead in percent: `(stack/metrics - 1) * 100`.
    overhead_pct: f64,
}

/// One buffer/victim config's steady-state allocation ledger.
#[derive(Debug, Serialize)]
struct MemConfigLedger {
    /// Config label, e.g. `rcad_shortest_remaining`.
    config: String,
    /// Heap allocations in one steady-state (post-warm-up) run.
    allocs: u64,
    /// Bytes requested in that run.
    alloc_bytes: u64,
    /// Packets delivered in that run.
    delivered: u64,
    /// `allocs / delivered` — the zero-alloc-data-plane ratchet figure.
    allocs_per_delivered: f64,
    /// Peak live heap bytes during that run (peak rebased beforehand).
    peak_live_bytes: u64,
}

/// One geometric scale point's allocation ledger.
#[derive(Debug, Serialize)]
struct MemScalePoint {
    /// Node count of the geometric field.
    nodes: usize,
    /// Heap allocations in one steady-state run.
    allocs: u64,
    /// Packets delivered in that run.
    delivered: u64,
    /// `allocs / delivered`.
    allocs_per_delivered: f64,
    /// Peak live heap bytes during that run.
    peak_live_bytes: u64,
}

/// The allocation ledger: steady-state allocs per delivered packet per
/// buffer/victim config and per geometric scale point.
#[derive(Debug, Serialize)]
struct MemLedger {
    /// Headline: paper-config (RCAD shortest-remaining) steady-state
    /// allocs per delivered packet.
    allocs_per_delivered: f64,
    /// Headline: max peak live heap bytes across the configs.
    peak_live_bytes: u64,
    /// Per-config ledgers across the seven buffer/victim configs.
    configs: Vec<MemConfigLedger>,
    /// Ledgers at the geometric scale points.
    scale_points: Vec<MemScalePoint>,
}

/// The `BENCH_overhead.json` payload.
#[derive(Debug, Serialize)]
struct OverheadReport {
    /// What was benchmarked.
    bench: String,
    /// Inter-arrival times of the sweep points.
    points: Vec<f64>,
    /// Packets per source per point.
    packets_per_source: u32,
    /// Timing repetitions per point (minimum kept).
    repeats: u32,
    /// One entry per [`ROWS`] row, in table order.
    rows: Vec<RowReport>,
    /// Allocation ledger, measured after the timings with counting on.
    ledger: MemLedger,
}

/// One instrumentation mode's timing at one scale point.
#[derive(Debug, Serialize, Deserialize)]
struct ScaleModeTiming {
    /// Mode name: `probes_off` or `metrics`.
    mode: String,
    /// Best-of-repeats wall seconds for one full run.
    secs: f64,
    /// Engine events delivered per wall second (`events / secs`).
    events_per_sec: f64,
}

/// One scale point: a sampled geometric field of `nodes` nodes.
#[derive(Debug, Serialize, Deserialize)]
struct ScalePoint {
    /// Node count of the geometric field (sink included).
    nodes: usize,
    /// Number of source flows (every 10th node).
    sources: usize,
    /// Packets each source creates.
    packets_per_source: u32,
    /// Engine events delivered in one run (mode-invariant).
    events: u64,
    /// Peak future-event-set size over the run (mode-invariant).
    peak_fes: u64,
    /// Wall seconds to sample the connected field, route it and build
    /// the simulation (all attempts included). Zero in files written
    /// before it was recorded.
    #[serde(default)]
    setup_s: f64,
    /// Sampling attempts until the field was connected (zero in older
    /// files).
    #[serde(default)]
    attempts: usize,
    /// Peak live heap bytes of one untimed probes-off serial run, above
    /// the live level it started at (zero in older files).
    #[serde(default)]
    peak_live_bytes: u64,
    /// The same for one balanced sharded run, when `--shards` was given
    /// (zero otherwise and in older files).
    #[serde(default)]
    sharded_peak_live_bytes: u64,
    /// Per-mode timings: probes_off, metrics.
    modes: Vec<ScaleModeTiming>,
    /// `probes_off` events/sec of the `--baseline` run at this node
    /// count, when one was given.
    #[serde(default)]
    baseline_events_per_sec: Option<f64>,
    /// `events_per_sec / baseline_events_per_sec` for `probes_off`.
    #[serde(default)]
    speedup: Option<f64>,
    /// Per-shard event counts of the balanced-cut sharded run, when
    /// `--shards` was given (empty for serial-only runs). Sums to that
    /// run's own event total; the exact-cut cross-check separately
    /// asserts bit-equality with the serial engine.
    #[serde(default)]
    shard_events: Vec<u64>,
}

/// The `BENCH_core.json` payload.
#[derive(Debug, Serialize, Deserialize)]
struct ScaleReport {
    /// What was benchmarked.
    bench: String,
    /// Topology/workload seed.
    seed: u64,
    /// Total packet budget per point (split across sources).
    budget: u64,
    /// Timing repetitions per point (minimum kept).
    repeats: u32,
    /// One entry per `--nodes` value.
    points: Vec<ScalePoint>,
    /// `probes_off` speedup vs `--baseline` on the largest point.
    #[serde(default)]
    headline_speedup: Option<f64>,
}

/// Builds the scale-point simulation: a connected unit-disk field at
/// constant density (side = √n, range 2 ⇒ mean degree ≈ 4π), sink
/// pinned at the corner, every 10th node a source, paper-default RCAD
/// buffering so the cancel-heavy preemption path is exercised. Also
/// returns the number of sampling attempts the field took.
fn scale_sim(n_nodes: usize, budget: u64, seed: u64) -> (NetworkSimulation, usize, u32, usize) {
    let side = (n_nodes as f64).sqrt().max(3.0);
    // Constant density keeps 100/1k/10k byte-identical to the committed
    // baselines; past 100k the random-geometric connectivity threshold
    // (πr² vs ln n) catches up with range 2, so the million-node point
    // widens the radio range slightly to stay connected.
    let range = if n_nodes > 100_000 { 2.5 } else { 2.0 };
    let deploy = GeometricDeployment::new(side, side, n_nodes, range);
    let mut rng = RngFactory::new(seed).stream(0x5CA1E);
    let (topo, attempts) = deploy
        .sample_connected(&mut rng, 64)
        .expect("constant-density field should connect within 64 attempts");
    let routing = RoutingTree::shortest_path(&topo, NodeId(0)).expect("connected topology routes");
    // Every 10th node sources traffic up to 10k nodes (the committed
    // points); larger fields keep ~1000 sources so the packet budget
    // stays meaningful per flow.
    let stride = if n_nodes > 10_000 { n_nodes / 1000 } else { 10 };
    let sources: Vec<NodeId> = (1..n_nodes)
        .step_by(stride)
        .map(|i| NodeId(i as u32))
        .collect();
    let n_sources = sources.len();
    let packets = u32::try_from((budget / n_sources as u64).clamp(20, 5000)).expect("clamped");
    let sim = NetworkSimulation::builder(routing, sources)
        .traffic(TrafficModel::periodic(2.0))
        .packets_per_source(packets)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(BufferPolicy::paper_rcad())
        .seed(seed)
        .build()
        .expect("scale config is valid");
    (sim, n_sources, packets, attempts)
}

/// Peak live heap bytes of one `run` above the live level it started
/// at. Counting is on for this run only, and its outcome is dropped
/// before counting stops, so the gate leaves the live balance as it
/// found it.
fn peak_live(run: impl FnOnce() -> SimOutcome) -> u64 {
    memprof::set_enabled(true);
    let base = memprof::snapshot().live_bytes;
    memprof::reset_peak();
    drop(run());
    let peak = memprof::snapshot().peak_live_bytes.saturating_sub(base);
    memprof::set_enabled(false);
    peak
}

/// Runs the scale sweep and assembles the `BENCH_core.json` report.
fn run_scale(args: &Args, baseline: Option<&ScaleReport>) -> ScaleReport {
    let Args {
        budget,
        seed,
        repeats,
        shards,
        workers,
        ..
    } = *args;
    let mut points = Vec::with_capacity(args.nodes.len());
    for &n in &args.nodes {
        let started = Instant::now();
        let (sim, n_sources, packets, attempts) = scale_sim(n, budget, seed);
        let setup_s = started.elapsed().as_secs_f64();
        let n_buf_nodes = sim.routing().len();
        // Warm-up run; also pins the mode-invariant event statistics.
        let outcome = sim.run();
        let (events, peak_fes) = (outcome.events, outcome.peak_fes);
        // Sharded cross-checks. The exact (trunk-edge) cut must
        // reproduce the serial run bit-for-bit: same event count, same
        // outcome digest. The balanced (load-carved) cut — the one the
        // timed `sharded` mode below runs, since a corner-sink geometric
        // field is one giant subtree the exact cut cannot split — must
        // conserve the packet population; its per-shard event counts are
        // what the report's shard table shows.
        let shard_events: Vec<u64> = if shards > 1 {
            let exact = sim.run_sharded(shards, workers);
            assert_eq!(
                exact.events, events,
                "exact sharded run must deliver the serial event count at n={n}"
            );
            assert_eq!(
                exact.digest(),
                outcome.digest(),
                "exact sharded run must reproduce the serial outcome digest at n={n}"
            );
            let balanced = sim.run_sharded_balanced(shards, workers);
            let created: u64 = balanced.flows.iter().map(|f| f.created).sum();
            assert_eq!(
                balanced.total_delivered() + balanced.total_drops() + balanced.total_stranded(),
                created,
                "balanced sharded run must conserve the packet population at n={n}"
            );
            balanced.shards.iter().map(|s| s.events).collect()
        } else {
            Vec::new()
        };
        std::hint::black_box(outcome);
        let peak_live_bytes = peak_live(|| sim.run());
        let sharded_peak_live_bytes = if shards > 1 {
            peak_live(|| sim.run_sharded_balanced(shards, workers))
        } else {
            0
        };
        let mut serial = || {
            let out = sim.run();
            assert_eq!(out.events, events, "scale runs must be deterministic");
            std::hint::black_box(out);
        };
        let mut metrics = || {
            let mut probe = RecordingProbe::new(n_buf_nodes);
            std::hint::black_box(sim.run_probed(&mut probe));
            std::hint::black_box(&probe);
        };
        let mut sharded_mode = || {
            std::hint::black_box(sim.run_sharded_balanced(shards, workers));
        };
        let mut modes_run: Vec<&mut dyn FnMut()> = vec![&mut serial, &mut metrics];
        let mut mode_names = vec!["probes_off", "metrics"];
        if shards > 1 {
            modes_run.push(&mut sharded_mode);
            mode_names.push("sharded");
        }
        let best = best_of_interleaved(repeats, &mut modes_run);
        let modes: Vec<ScaleModeTiming> = mode_names
            .iter()
            .zip(best)
            .map(|(name, secs)| ScaleModeTiming {
                mode: (*name).to_string(),
                secs,
                events_per_sec: events as f64 / secs,
            })
            .collect();
        let baseline_events_per_sec = baseline.and_then(|b| {
            b.points
                .iter()
                .find(|p| p.nodes == n)
                .and_then(|p| p.modes.iter().find(|m| m.mode == "probes_off"))
                .map(|m| m.events_per_sec)
        });
        let speedup = baseline_events_per_sec.map(|b| modes[0].events_per_sec / b);
        eprintln!(
            "[perf] scale n={n}: set-up {:.2} ms ({attempts} attempts), \
             {events} events, peak FES {peak_fes}, peak live {peak_live_bytes} B, \
             {:.0} ev/s probes_off{}",
            setup_s * 1e3,
            modes[0].events_per_sec,
            speedup.map_or(String::new(), |s| format!(", {s:.2}x vs baseline")),
        );
        points.push(ScalePoint {
            nodes: n,
            sources: n_sources,
            packets_per_source: packets,
            events,
            peak_fes,
            setup_s,
            attempts,
            peak_live_bytes,
            sharded_peak_live_bytes,
            modes,
            baseline_events_per_sec,
            speedup,
            shard_events,
        });
    }
    let headline_speedup = points
        .iter()
        .max_by_key(|p| p.nodes)
        .and_then(|p| p.speedup);
    ScaleReport {
        bench: "geometric_convergecast_scale".to_string(),
        seed,
        budget,
        repeats,
        points,
        headline_speedup,
    }
}

fn figure1_sim(inv_lambda: f64, packets: u32, buffer: BufferPolicy) -> NetworkSimulation {
    let layout = Convergecast::paper_figure1();
    NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
        .traffic(TrafficModel::periodic(inv_lambda))
        .packets_per_source(packets)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(buffer)
        .seed(2007)
        .build()
        .expect("paper Figure-1 config is valid")
}

/// The seven buffer/victim configurations the memory ledger pins:
/// every buffering discipline in the repo, with RCAD expanded across
/// all four victim policies.
fn mem_configs() -> [(&'static str, BufferPolicy); 7] {
    [
        ("unlimited", BufferPolicy::Unlimited),
        ("drop_tail", BufferPolicy::DropTail { capacity: 10 }),
        (
            "threshold_mix",
            BufferPolicy::ThresholdMix { threshold: 10 },
        ),
        (
            "rcad_shortest_remaining",
            BufferPolicy::Rcad {
                capacity: 10,
                victim: VictimPolicy::ShortestRemaining,
            },
        ),
        (
            "rcad_longest_remaining",
            BufferPolicy::Rcad {
                capacity: 10,
                victim: VictimPolicy::LongestRemaining,
            },
        ),
        (
            "rcad_random",
            BufferPolicy::Rcad {
                capacity: 10,
                victim: VictimPolicy::Random,
            },
        ),
        (
            "rcad_oldest",
            BufferPolicy::Rcad {
                capacity: 10,
                victim: VictimPolicy::Oldest,
            },
        ),
    ]
}

/// Steady-state allocation ledger for one simulation: a warm-up run
/// absorbs one-time lazy setup, then a measured run counts this
/// thread's allocations and the rebased peak-live high-water mark,
/// less `live_base`, the live bytes counted before the ledger began.
/// Requires counting to be enabled.
fn measure_mem(sim: &NetworkSimulation, live_base: u64) -> (u64, u64, u64, f64, u64) {
    std::hint::black_box(sim.run());
    memprof::reset_peak();
    let base = memprof::thread_snapshot();
    let outcome = sim.run();
    let delta = memprof::thread_snapshot().since(base);
    let peak = memprof::snapshot()
        .peak_live_bytes
        .saturating_sub(live_base);
    let delivered = outcome.total_delivered();
    std::hint::black_box(outcome);
    #[allow(clippy::cast_precision_loss)]
    let per_delivered = if delivered > 0 {
        delta.allocs as f64 / delivered as f64
    } else {
        0.0
    };
    (delta.allocs, delta.bytes, delivered, per_delivered, peak)
}

/// Ledgers the seven buffer/victim configs on the Figure-1 layout.
fn mem_config_ledgers(inv_lambda: f64, packets: u32, base: u64) -> Vec<MemConfigLedger> {
    mem_configs()
        .into_iter()
        .map(|(label, buffer)| {
            let sim = figure1_sim(inv_lambda, packets, buffer);
            let (allocs, alloc_bytes, delivered, allocs_per_delivered, peak_live_bytes) =
                measure_mem(&sim, base);
            eprintln!(
                "[perf] mem {label}: {allocs} allocs / {delivered} delivered \
                 = {allocs_per_delivered:.2}, peak live {peak_live_bytes} B"
            );
            MemConfigLedger {
                config: label.to_string(),
                allocs,
                alloc_bytes,
                delivered,
                allocs_per_delivered,
                peak_live_bytes,
            }
        })
        .collect()
}

/// Ledgers the geometric scale points (default 100/1k/10k nodes).
fn mem_scale_ledgers(
    node_counts: &[usize],
    budget: u64,
    seed: u64,
    base: u64,
) -> Vec<MemScalePoint> {
    node_counts
        .iter()
        .map(|&nodes| {
            let (sim, ..) = scale_sim(nodes, budget, seed);
            let (allocs, _, delivered, allocs_per_delivered, peak_live_bytes) =
                measure_mem(&sim, base);
            eprintln!(
                "[perf] mem scale n={nodes}: {allocs} allocs / {delivered} delivered \
                 = {allocs_per_delivered:.2}, peak live {peak_live_bytes} B"
            );
            MemScalePoint {
                nodes,
                allocs,
                delivered,
                allocs_per_delivered,
                peak_live_bytes,
            }
        })
        .collect()
}

/// Times one row over the sweep. Per point a warm-up run first asserts
/// that the stack reproduces the probes-off outcome (digest and RNG
/// draws), so a perturbing stack fails the bench instead of being
/// timed; then `probes_off`, `metrics` and the stack run interleaved
/// and the minimum of each over `repeats` is kept.
fn time_row(row: &Row, points: &[f64], packets: u32, repeats: u32) -> [ModeTiming; 3] {
    let mut secs: [Vec<f64>; 3] = Default::default();
    let mut flight = FlightRecorder::new();
    for &inv_lambda in points {
        let sim = figure1_sim(inv_lambda, packets, BufferPolicy::paper_rcad());
        let nodes = sim.routing().len();
        let (off, out) = (sim.run(), (row.stack)(&sim, &mut flight));
        assert_eq!(
            (out.digest(), out.rng_draws),
            (off.digest(), off.rng_draws),
            "{} stack must reproduce the probes-off outcome at point {inv_lambda}",
            row.name
        );
        drop((off, out));
        let best = best_of_interleaved(
            repeats,
            &mut [
                &mut || {
                    std::hint::black_box(sim.run());
                },
                &mut || {
                    let mut probe = RecordingProbe::new(nodes);
                    std::hint::black_box(sim.run_probed(&mut probe));
                    std::hint::black_box(&probe);
                },
                &mut || {
                    std::hint::black_box((row.stack)(&sim, &mut flight));
                },
            ],
        );
        for (mode, &s) in secs.iter_mut().zip(&best) {
            mode.push(s);
        }
    }
    let [off, met, stack] = secs;
    [
        ModeTiming::new("probes_off", off),
        ModeTiming::new("metrics", met),
        ModeTiming::new(row.mode, stack),
    ]
}

/// A bench's entry point: `run_overhead_main` or `run_scale_main`.
type BenchMain = fn(&Args) -> Result<(), String>;

/// Parsed command line.
struct Args {
    /// The selected bench's entry point.
    run: BenchMain,
    /// `--bench overhead` only: inter-arrival times of the sweep points.
    points: Vec<f64>,
    /// `--bench overhead` only: packets per source per point.
    packets: u32,
    repeats: u32,
    out: PathBuf,
    /// Node counts of the geometric fields.
    nodes: Vec<usize>,
    /// Total packet budget per geometric field.
    budget: u64,
    /// Geometric topology/workload seed.
    seed: u64,
    /// `--bench scale` only: previous `BENCH_core.json` to compare against.
    baseline: Option<PathBuf>,
    /// `--bench scale` only: shard count for the sharded cross-check
    /// mode (1 = serial only).
    shards: u32,
    /// `--bench scale` only: worker threads for the sharded mode.
    workers: usize,
}

/// Parses `raw` as `T`, or yields `default` when the option is absent.
fn parse<T: std::str::FromStr>(opt: &str, raw: Option<&str>, default: T) -> Result<T, String> {
    raw.map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("bad {opt} `{v}`"))
    })
}

/// Parses a comma-separated list of `what`s.
fn parse_list<T: std::str::FromStr>(what: &str, raw: &str) -> Result<Vec<T>, String> {
    raw.split(',')
        .map(|p| p.trim().parse().map_err(|_| format!("bad {what} `{p}`")))
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() % 2 == 1 {
        return Err(format!("{} needs a value", argv[argv.len() - 1]));
    }
    let given: Vec<(&str, &str)> = argv.chunks(2).map(|p| (&*p[0], &*p[1])).collect();
    // The last occurrence of a repeated option wins.
    let get = |opt: &str| given.iter().rev().find(|(o, _)| *o == opt).map(|&(_, v)| v);
    let bench = get("--bench").unwrap_or("overhead");
    // Per bench: its entry point, its default report file and the options it
    // reads, each taking one value.
    let (run, file, reads): (BenchMain, _, _) = match bench {
        "overhead" => (
            run_overhead_main,
            "BENCH_overhead.json",
            "--bench --points --packets --repeats --nodes --budget --seed --out",
        ),
        "scale" => (
            run_scale_main,
            "BENCH_core.json",
            "--bench --repeats --nodes --budget --seed --baseline --shards --workers --out",
        ),
        other => return Err(format!("bad --bench `{other}`; overhead or scale")),
    };
    if let Some((opt, _)) = given
        .iter()
        .find(|(o, _)| !reads.split(' ').any(|r| r == *o))
    {
        return Err(format!("{opt} is not read by --bench {bench}"));
    }
    let points: Vec<f64> = parse_list("point", get("--points").unwrap_or("2,8,14,20"))?;
    let repeats = parse("--repeats", get("--repeats"), 5)?;
    if points.is_empty() || repeats == 0 {
        return Err("--points and --repeats must be non-empty/positive".into());
    }
    let nodes: Vec<usize> = parse_list("node count", get("--nodes").unwrap_or("100,1000,10000"))?;
    let budget = parse("--budget", get("--budget"), 40_000)?;
    if nodes.is_empty() || nodes.iter().any(|&n| n < 2) || budget == 0 {
        return Err("--nodes needs counts >= 2 and --budget must be positive".into());
    }
    let shards = parse("--shards", get("--shards"), 1)?;
    let workers = parse("--workers", get("--workers"), 1)?;
    if shards == 0 || workers == 0 {
        return Err("--shards and --workers must be positive".into());
    }
    if shards > MAX_SHARDS {
        return Err(format!(
            "--shards must be at most {MAX_SHARDS}, got {shards}"
        ));
    }
    let out = get("--out").map_or_else(
        || {
            PathBuf::from(std::env::var("TEMPRIV_RESULTS_DIR").unwrap_or_else(|_| "results".into()))
                .join(file)
        },
        PathBuf::from,
    );
    Ok(Args {
        run,
        points,
        packets: parse("--packets", get("--packets"), 1000)?,
        repeats,
        out,
        nodes,
        budget,
        seed: parse("--seed", get("--seed"), 4242)?,
        baseline: get("--baseline").map(PathBuf::from),
        shards,
        workers,
    })
}

/// Serializes `report` and writes it to `out`, creating parent dirs.
fn write_report<T: Serialize>(report: &T, out: &PathBuf) -> Result<(), String> {
    let json =
        serde_json::to_string_pretty(report).map_err(|e| format!("serialize report: {e}"))?;
    if let Some(parent) = out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(out, json).map_err(|e| format!("cannot write {}: {e}", out.display()))
}

fn run_scale_main(args: &Args) -> Result<(), String> {
    let baseline = match &args.baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
            Some(
                serde_json::from_str::<ScaleReport>(&text)
                    .map_err(|e| format!("bad baseline {}: {e}", path.display()))?,
            )
        }
        None => None,
    };
    let report = run_scale(args, baseline.as_ref());
    write_report(&report, &args.out)?;
    let largest = report.points.last().expect("at least one point");
    println!(
        "scale bench: {:.0} events/sec probes_off at {} nodes (peak FES {}){} [written {}]",
        largest.modes[0].events_per_sec,
        largest.nodes,
        largest.peak_fes,
        report
            .headline_speedup
            .map_or(String::new(), |s| format!(", {s:.2}x vs baseline")),
        args.out.display()
    );
    Ok(())
}

fn run_overhead_main(args: &Args) -> Result<(), String> {
    let rows: Vec<RowReport> = ROWS
        .iter()
        .map(|row| {
            let [off, met, stack] = time_row(row, &args.points, args.packets, args.repeats);
            let oh = OverheadSummary::from_modes(&off, &met, &stack);
            RowReport {
                name: row.name.to_string(),
                budget_pct: row.budget_pct,
                modes: vec![off, met, stack],
                metrics_over_probes_off: oh.metrics_over_probes_off,
                over_probes_off: oh.over_probes_off,
                over_metrics: oh.over_metrics,
                overhead_pct: oh.overhead_pct,
            }
        })
        .collect();
    // Ledger half: counting stays on for the steady-state allocation
    // baselines (the timings already ran with the gate closed for the
    // uninstrumented modes). The mem row counted allocations it then
    // freed with the gate closed; their bytes still read as live, so
    // that balance is the base every ledger peak is measured from.
    let base = memprof::snapshot().live_bytes;
    memprof::set_enabled(true);
    let configs = mem_config_ledgers(8.0, args.packets, base);
    let scale_points = mem_scale_ledgers(&args.nodes, args.budget, args.seed, base);
    let allocs_per_delivered = configs
        .iter()
        .find(|c| c.config == "rcad_shortest_remaining")
        .map_or(0.0, |c| c.allocs_per_delivered);
    let peak_live_bytes = configs.iter().map(|c| c.peak_live_bytes).max().unwrap_or(0);
    let report = OverheadReport {
        bench: "figure1_sweep_overhead".to_string(),
        points: args.points.clone(),
        packets_per_source: args.packets,
        repeats: args.repeats,
        rows,
        ledger: MemLedger {
            allocs_per_delivered,
            peak_live_bytes,
            configs,
            scale_points,
        },
    };
    write_report(&report, &args.out)?;
    print!("overhead vs metrics:");
    for row in &report.rows {
        print!(" {} {:+.2}%", row.name, row.overhead_pct);
    }
    println!(" [written {}]", args.out.display());
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| (args.run)(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf_baseline: {e}");
            ExitCode::FAILURE
        }
    }
}
