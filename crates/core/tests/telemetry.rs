//! End-to-end validation of the telemetry probes against queueing
//! theory: the instrumented simulator must reproduce the M/M/∞ and
//! Erlang-loss predictions the paper's analysis rests on, and the
//! probes must never perturb the simulation itself.

use tempriv_core::buffer::{BufferPolicy, VictimPolicy};
use tempriv_core::delay::DelayPlan;
use tempriv_core::sim_driver::NetworkSimulation;
use tempriv_core::telemetry::{theory_report, TelemetryExport};
use tempriv_net::convergecast::Convergecast;
use tempriv_net::traffic::TrafficModel;
use tempriv_queueing::erlang::erlang_b;
use tempriv_sim::profile::NoopPhaseTimer;
use tempriv_telemetry::{
    DigestProbe, FlightRecorder, NullProbe, PhaseProfiler, RecordingProbe, SimTelemetry,
    TheoryTolerance,
};

/// A single source one hop from the sink: the source node is one queue,
/// which makes it a textbook single-station system.
fn single_queue(
    buffer: BufferPolicy,
    rate: f64,
    delay_mean: f64,
    packets: u32,
) -> NetworkSimulation {
    let layout = Convergecast::builder().flow(1).build().unwrap();
    NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
        .traffic(TrafficModel::poisson(rate))
        .packets_per_source(packets)
        .delay_plan(DelayPlan::shared_exponential(delay_mean))
        .buffer_policy(buffer)
        .seed(42)
        .build()
        .unwrap()
}

fn probed(sim: &NetworkSimulation) -> SimTelemetry {
    let mut probe = RecordingProbe::new(sim.routing().len());
    let outcome = sim.run_probed(&mut probe);
    probe.finish(outcome.end_time)
}

#[test]
fn mm_inf_occupancy_matches_rho() {
    // λ = 0.5, 1/μ = 10 => ρ = 5. With unlimited buffers the source is
    // an M/M/∞ station: mean occupancy ρ, occupancy PMF Poisson(ρ).
    let sim = single_queue(BufferPolicy::Unlimited, 0.5, 10.0, 4000);
    let telemetry = probed(&sim);
    let source = &telemetry.nodes[sim.sources()[0].index()];
    let rho = 5.0;
    assert!(
        (source.mean_occupancy - rho).abs() / rho < 0.15,
        "measured mean occupancy {} should be within 15% of rho {rho}",
        source.mean_occupancy
    );
    // And the full theory report agrees: occupancy mean + Poisson PMF.
    let report = theory_report(&sim, &telemetry, &TheoryTolerance::default());
    assert!(report
        .checks
        .iter()
        .any(|c| c.name.ends_with("_occupancy_pmf")));
    assert!(
        report.passed(),
        "all checks should pass, flagged: {:?}",
        report.flagged()
    );
}

#[test]
fn drop_tail_loss_matches_erlang_b() {
    // ρ = 5 offered to a k = 4 buffer: Erlang-B predicts B(5, 4) ≈ 0.398
    // of arrivals rejected.
    let sim = single_queue(BufferPolicy::DropTail { capacity: 4 }, 0.5, 10.0, 4000);
    let telemetry = probed(&sim);
    let source = &telemetry.nodes[sim.sources()[0].index()];
    let predicted = erlang_b(5.0, 4);
    let measured = source.drop_fraction();
    assert!(
        (measured - predicted).abs() < 0.05,
        "measured drop fraction {measured} vs Erlang-B {predicted}"
    );
    let report = theory_report(&sim, &telemetry, &TheoryTolerance::default());
    assert!(report
        .checks
        .iter()
        .any(|c| c.name.ends_with("_drop_fraction")));
    assert!(report.passed(), "flagged: {:?}", report.flagged());
}

#[test]
fn rcad_random_victim_preemption_matches_erlang_b() {
    // With a *random* victim, RCAD's buffer follows the same occupancy
    // chain as M/M/k/k: a preemption pairs an arrival with a forced
    // departure of a uniformly chosen packet, and by memorylessness the
    // surviving residuals stay i.i.d. exponential. Its preemption
    // fraction therefore obeys the Erlang-B formula.
    let sim = single_queue(
        BufferPolicy::Rcad {
            capacity: 4,
            victim: VictimPolicy::Random,
        },
        0.5,
        10.0,
        4000,
    );
    let telemetry = probed(&sim);
    let source = &telemetry.nodes[sim.sources()[0].index()];
    let predicted = erlang_b(5.0, 4);
    let measured = source.preemption_fraction();
    assert!(
        (measured - predicted).abs() < 0.05,
        "measured preemption fraction {measured} vs Erlang-B {predicted}"
    );
    let report = theory_report(&sim, &telemetry, &TheoryTolerance::default());
    assert!(report.passed(), "flagged: {:?}", report.flagged());
}

#[test]
fn biased_victim_preempts_more_than_erlang_b() {
    // ShortestRemaining evicts the packet that would have departed
    // soonest, leaving the larger order statistics of the residuals in
    // the buffer: departures slow down, the buffer stays full longer,
    // and the preemption fraction runs well above B(ρ, k). The theory
    // report must therefore emit no Erlang prediction for it.
    let sim = single_queue(
        BufferPolicy::Rcad {
            capacity: 4,
            victim: VictimPolicy::ShortestRemaining,
        },
        0.5,
        10.0,
        4000,
    );
    let telemetry = probed(&sim);
    let source = &telemetry.nodes[sim.sources()[0].index()];
    assert!(
        source.preemption_fraction() > erlang_b(5.0, 4) + 0.1,
        "the order-statistics bias should be clearly visible"
    );
    let report = theory_report(&sim, &telemetry, &TheoryTolerance::default());
    assert!(report.checks.is_empty(), "no closed-form model applies");
}

#[test]
fn mistuned_model_is_flagged() {
    // Simulate with mean delay 10 (ρ = 5) but check against a config
    // claiming mean delay 30 (ρ = 15): the cross-check must flag the
    // discrepancy rather than rubber-stamp it.
    let actual = single_queue(BufferPolicy::Unlimited, 0.5, 10.0, 3000);
    let claimed = single_queue(BufferPolicy::Unlimited, 0.5, 30.0, 3000);
    let telemetry = probed(&actual);
    let report = theory_report(&claimed, &telemetry, &TheoryTolerance::default());
    assert!(
        !report.passed(),
        "a 3x-mistuned occupancy prediction must be flagged"
    );
    assert!(!report.flagged().is_empty());
}

#[test]
fn probes_do_not_perturb_the_simulation() {
    // The recorded run and the plain run must produce identical
    // outcomes: probes observe the event loop, they never consume
    // randomness or reorder events.
    let layout = Convergecast::paper_figure1();
    let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
        .traffic(TrafficModel::poisson(0.5))
        .packets_per_source(400)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(BufferPolicy::paper_rcad())
        .seed(2007)
        .build()
        .unwrap();
    let plain = sim.run();
    let mut probe = RecordingProbe::new(sim.routing().len());
    let recorded = sim.run_probed(&mut probe);
    assert_eq!(plain, recorded, "probed run must be byte-identical");
    // And the probe actually saw the run.
    let telemetry = probe.finish(recorded.end_time);
    assert!(telemetry.deliveries > 0);
    assert!(telemetry.total_preemptions() > 0);
}

#[test]
fn flight_recording_does_not_perturb_the_simulation() {
    // Byte-identical outcomes AND identical RNG draw counts with the
    // flight recorder attached: tracing observes, it never samples.
    let layout = Convergecast::paper_figure1();
    let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
        .traffic(TrafficModel::poisson(0.5))
        .packets_per_source(400)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(BufferPolicy::paper_rcad())
        .seed(2007)
        .build()
        .unwrap();
    let plain = sim.run();
    let mut flight = FlightRecorder::new();
    let traced = sim.run_probed(&mut flight);
    assert_eq!(plain, traced, "traced run must be byte-identical");
    assert_eq!(
        plain.rng_draws, traced.rng_draws,
        "tracing must not consume randomness"
    );
    assert!(plain.rng_draws > 0, "the run consumed randomness");
    // A tiny ring that evicts heavily must not perturb the run either.
    let mut tiny = FlightRecorder::with_capacity(8);
    let evicting = sim.run_probed(&mut tiny);
    assert_eq!(plain, evicting, "eviction pressure must not leak");
    assert!(tiny.evicted() > 0, "the tiny ring actually evicted");
    // And the full recording reconstructs every created packet.
    let log = flight.finish(traced.end_time);
    assert_eq!(log.evicted, 0, "default capacity holds the whole run");
    let lineages = log.lineages();
    let created: u64 = plain.flows.iter().map(|f| f.created).sum();
    assert_eq!(lineages.len() as u64, created);
    let delivered = lineages.iter().filter(|l| l.span().is_some()).count() as u64;
    assert_eq!(delivered, plain.total_delivered());
}

#[test]
fn optional_probes_and_timers_match_their_plain_counterparts() {
    // `None` is `NullProbe`/`NoopPhaseTimer` and `Some(p)` is `p`: the
    // same outcome digest and rng draws either way, and a wrapped
    // observer records exactly what the bare one does.
    let sim = single_queue(BufferPolicy::paper_rcad(), 0.5, 10.0, 500);
    let plain = sim.run_profiled(&mut NullProbe, &mut NoopPhaseTimer);
    let none = sim.run_profiled(&mut None::<RecordingProbe>, &mut None::<PhaseProfiler>);
    assert_eq!(plain.digest(), none.digest());
    assert_eq!(plain.rng_draws, none.rng_draws);
    assert!(plain.rng_draws > 0, "the run consumed randomness");

    let n = sim.routing().len();
    let (mut bare, mut bare_digest) = (RecordingProbe::new(n), DigestProbe::new(64));
    let mut bare_timer = PhaseProfiler::new();
    let bare_out = sim.run_profiled(&mut (&mut bare, &mut bare_digest), &mut bare_timer);
    let mut some = (Some(RecordingProbe::new(n)), Some(DigestProbe::new(64)));
    let mut some_timer = Some(PhaseProfiler::new());
    let some_out = sim.run_profiled(&mut some, &mut some_timer);
    for out in [&bare_out, &some_out] {
        assert_eq!(out.digest(), plain.digest());
        assert_eq!(out.rng_draws, plain.rng_draws);
    }
    let (Some(rec), Some(digest)) = some else {
        unreachable!("both probes were constructed");
    };
    assert_eq!(
        rec.finish(some_out.end_time),
        bare.finish(bare_out.end_time)
    );
    assert_eq!(digest.finish().root, bare_digest.finish().root);
    // Wall seconds differ run to run; the switch counts per phase do not.
    let counts = |b: tempriv_telemetry::PhaseBreakdown| -> Vec<u64> {
        b.phases.iter().map(|p| p.count).collect()
    };
    assert_eq!(
        counts(some_timer.expect("constructed").finish()),
        counts(bare_timer.finish())
    );
}

#[test]
fn pair_probe_halves_see_the_same_run() {
    // (RecordingProbe, FlightRecorder) in one pass agrees with each
    // probe run separately — and the outcome stays identical.
    let sim = single_queue(BufferPolicy::Unlimited, 0.5, 10.0, 500);
    let plain = sim.run();
    let mut pair = (
        RecordingProbe::new(sim.routing().len()),
        FlightRecorder::new(),
    );
    let outcome = sim.run_probed(&mut pair);
    assert_eq!(plain, outcome);
    let (rec, flight) = pair;
    assert_eq!(rec.finish(outcome.end_time), probed(&sim));
    let solo = {
        let mut f = FlightRecorder::new();
        let out = sim.run_probed(&mut f);
        f.finish(out.end_time)
    };
    assert_eq!(flight.finish(outcome.end_time), solo);
}

#[test]
fn export_round_trips_through_manifest_blobs() {
    use tempriv_core::experiment::{fig2_sweep_with, SweepParams};
    use tempriv_runtime::{BlobKind, Runtime, TelemetrySink, WorkerPool};

    let sink = std::sync::Arc::new(TelemetrySink::new());
    let runtime = Runtime::builder()
        .pool(WorkerPool::with_workers(2))
        .telemetry_sink(sink.clone())
        .build()
        .unwrap();
    let params = SweepParams {
        inv_lambdas: vec![2.0, 20.0],
        packets_per_source: 200,
        ..SweepParams::paper_default()
    };
    let rows = fig2_sweep_with(&params, &runtime);
    assert_eq!(rows.len(), 2);
    let blobs = sink.take_all(BlobKind::Telemetry);
    assert_eq!(blobs.len(), 2);
    assert!(blobs.iter().all(Option::is_some), "every job instruments");
    let export = TelemetryExport::collect("fig2", &blobs, &[], &[]).unwrap();
    assert_eq!(export.instrumented_jobs, 2);
    // Three scenarios per fig2 point: no_delay, unlimited, rcad.
    assert_eq!(export.scenarios, 6);
    assert!(export
        .metrics
        .gauges
        .iter()
        .any(|g| g.name.starts_with("tempriv_node_occupancy_mean{node=")));
}

#[test]
fn telemetry_does_not_change_sweep_rows() {
    use tempriv_core::experiment::{fig2_sweep_with, SweepParams};
    use tempriv_runtime::{Runtime, TelemetrySink, WorkerPool};

    let params = SweepParams {
        inv_lambdas: vec![2.0, 20.0],
        packets_per_source: 200,
        ..SweepParams::paper_default()
    };
    let plain = fig2_sweep_with(&params, &Runtime::new(WorkerPool::with_workers(2)));
    let sink = std::sync::Arc::new(TelemetrySink::new());
    let instrumented_runtime = Runtime::builder()
        .pool(WorkerPool::with_workers(2))
        .telemetry_sink(sink)
        .build()
        .unwrap();
    let instrumented = fig2_sweep_with(&params, &instrumented_runtime);
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&instrumented).unwrap(),
        "telemetry collection must not change experiment outputs"
    );
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One scenario on the Figure-1 layout under every probe the export
/// reads: recorder (with theory and residence checks), flight log (for
/// AoI) and privacy series.
fn observed_scenario(
    buffer: BufferPolicy,
    label: &str,
) -> (
    tempriv_core::telemetry::ScenarioTelemetry,
    tempriv_core::telemetry::ScenarioPrivacy,
) {
    use tempriv_core::telemetry::{
        privacy_probe_for, residence_checks, ScenarioPrivacy, ScenarioTelemetry,
    };
    let layout = Convergecast::paper_figure1();
    let sim = NetworkSimulation::builder(layout.routing().clone(), layout.sources().to_vec())
        .traffic(TrafficModel::poisson(0.5))
        .packets_per_source(120)
        .delay_plan(DelayPlan::shared_exponential(30.0))
        .buffer_policy(buffer)
        .seed(11)
        .build()
        .unwrap();
    let mut metrics = RecordingProbe::new(sim.routing().len());
    let mut flight = FlightRecorder::with_capacity(1 << 16);
    let mut privacy = privacy_probe_for(&sim, 50);
    let outcome = sim.run_probed(&mut ((&mut metrics, &mut flight), &mut privacy));
    let log = flight.finish(outcome.end_time);
    let telemetry = metrics.finish(outcome.end_time);
    let tol = TheoryTolerance::default();
    let mut theory = theory_report(&sim, &telemetry, &tol);
    for check in residence_checks(&sim, &log, &tol) {
        theory.push(check);
    }
    let scenario = ScenarioTelemetry {
        label: label.to_string(),
        sim: telemetry,
        theory,
        aoi: log.aoi_by_flow(),
    };
    let series = ScenarioPrivacy {
        label: label.to_string(),
        series: privacy.finish(outcome.end_time),
    };
    (scenario, series)
}

/// A mem blob with hand-set ledger, process and RSS fields (the live
/// allocator's numbers vary from run to run).
fn fixed_mem_blob(label: &str, allocs: u64, delivered: u64, peak_live: u64) -> String {
    use tempriv_core::telemetry::{JobMem, ScenarioMem};
    use tempriv_telemetry::{MemBreakdown, MemSnapshot};
    let mut ledger = MemBreakdown::empty();
    let arrive = tempriv_sim::profile::Phase::Arrive.index();
    let unscoped = ledger.slots.len() - 1;
    for (slot, n, bytes) in [(arrive, allocs - 2, 96 * allocs), (unscoped, 2, 512)] {
        ledger.slots[slot].allocs = n;
        ledger.slots[slot].bytes = bytes;
    }
    ledger.total_allocs = allocs;
    ledger.total_bytes = 96 * allocs + 512;
    let job = JobMem {
        scenarios: vec![ScenarioMem {
            label: label.to_string(),
            ledger,
            allocs,
            alloc_bytes: 96 * allocs + 512,
            delivered,
            allocs_per_delivered: allocs as f64 / delivered as f64,
        }],
        process: Some(MemSnapshot {
            allocs: 4 * allocs,
            deallocs: 3 * allocs,
            reallocs: 17,
            alloc_bytes: 400 * allocs,
            live_bytes: 65_536,
            peak_live_bytes: peak_live,
        }),
        peak_rss_bytes: Some(8 * peak_live),
    };
    serde_json::to_string(&job).unwrap()
}

#[test]
fn export_bytes_are_pinned() {
    use tempriv_core::telemetry::{JobPrivacy, JobTelemetry};
    use tempriv_telemetry::SpanSet;
    // Job 0 carries every family the export reads, job 1 only the
    // metrics family, job 2 no metrics blob, job 3 nothing at all.
    let (unlimited, unlimited_privacy) = observed_scenario(BufferPolicy::Unlimited, "unlimited");
    let random = BufferPolicy::Rcad {
        capacity: 3,
        victim: VictimPolicy::Random,
    };
    let (rcad, rcad_privacy) = observed_scenario(random, "rcad");
    let (drop_tail, _) = observed_scenario(BufferPolicy::DropTail { capacity: 2 }, "droptail");
    let (_, shortest_privacy) = observed_scenario(BufferPolicy::paper_rcad(), "shortest");
    let telemetry_blob = |scenarios: Vec<_>, secs: &[f64]| {
        let mut spans = SpanSet::default();
        for (s, &t) in scenarios.iter().zip(secs) {
            let s: &tempriv_core::telemetry::ScenarioTelemetry = s;
            spans.record(s.label.clone(), t);
        }
        serde_json::to_string(&JobTelemetry { scenarios, spans }).unwrap()
    };
    let privacy_blob = |scenarios| serde_json::to_string(&JobPrivacy { scenarios }).unwrap();
    let blobs = [
        Some(telemetry_blob(vec![unlimited, rcad], &[0.125, 0.375])),
        Some(telemetry_blob(vec![drop_tail], &[0.5])),
        None,
        None,
    ];
    let privacy = [
        Some(privacy_blob(vec![unlimited_privacy, rcad_privacy])),
        None,
        Some(privacy_blob(vec![shortest_privacy])),
        None,
    ];
    let mem = [
        Some(fixed_mem_blob("unlimited", 40, 400, 1 << 20)),
        None,
        Some(fixed_mem_blob("shortest", 12, 300, 3 << 19)),
        None,
    ];
    let export = TelemetryExport::collect("fig2+fig3", &blobs, &privacy, &mem).unwrap();
    // The hashes pin the canonical JSON, the Prometheus text and the
    // text summary of the aggregation: registration order, names, help
    // strings and floating-point summation order.
    assert_eq!(export.jobs, 4);
    assert_eq!(export.instrumented_jobs, 2);
    assert!(export.theory_flagged > 0, "some check is flagged");
    let json = export.to_canonical_json();
    let prometheus = export.metrics.to_prometheus();
    let text = export.summary_text();
    assert_eq!(
        [
            fnv1a(json.as_bytes()),
            fnv1a(prometheus.as_bytes()),
            fnv1a(text.as_bytes())
        ],
        [
            0x58c7_0635_7d4c_34e0,
            0x52ad_f825_1768_1e36,
            0x84fb_d06d_811c_cf64
        ],
        "{text}"
    );
}
