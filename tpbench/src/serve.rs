//! `serve_open`: an in-process `tempriv-serve` server with 2 job workers
//! under open-loop load at a fixed rate.
//!
//! Every [`COLD_EVERY`]th request is a cold job (a one-point `fig2`
//! spec with a fresh spec seed, so it always simulates); the rest are
//! warm resubmissions of [`WARM_SPECS`] specs computed during set-up.
//! Requests rotate over four tenants. One thread submits on schedule —
//! each request is timed from the instant it was due, so a stalled
//! generator charges the wait to the requests behind it — and one thread
//! long-polls cold jobs for their result bytes. The workload seed picks
//! the spec seeds, the warm mix and the tenants; the schedule, the
//! warm/cold pattern and the work per cold job do not depend on it.
//!
//! The path covered: HTTP parse → admission → journal → queue → sweep →
//! cache → response (cold), and parse → cache read → journal → response
//! (warm).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use serde::value::Value;
use tempriv_core::experiment::Fig2Row;
use tempriv_runtime::TelemetrySink;
use tempriv_serve::client::{request, submit_job};
use tempriv_serve::jobs::collect_digest;
use tempriv_serve::{
    execute, JobSpec, ServeConfig, ServeEvent, ServeJournal, Server, ServerHandle,
};
use tempriv_sim::{RngFactory, SimRng};
use tempriv_telemetry::{NullProbe, PhaseProfiler};

use crate::paper::{allocs_per_delivered, engine_layers, fig2_configs, EngineLayers};
use crate::stats::{best, deepest_tail, median, overhead_ratio, percentile, Checks};
use crate::trace::{self, Ctx, Tracer};
use crate::{num, nums, obj, Outcome, RunOpts, Size};

/// Job worker threads of the server.
const WORKERS: usize = 2;

/// Tenants the requests rotate over.
const TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];

/// One request in this many is a cold job (20% cold, 80% warm).
const COLD_EVERY: usize = 5;

/// Distinct warm specs, computed during set-up.
const WARM_SPECS: usize = 16;

/// Set-ups timed before the load (the last one serves it) and after it.
/// The run reports its best set-up; samples from both ends of the run
/// give it two chances to fall in a fast phase of the host.
const SETUPS_BEFORE: usize = 4;

/// Set-ups timed after the load; see [`SETUPS_BEFORE`].
const SETUPS_AFTER: usize = 4;

/// Equal stretches the schedule is cut into. The reported latency
/// medians are those of the best stretch: host interference only ever
/// adds latency, and the best of several stretches varies less from run
/// to run than the whole-run median (both are in the run details).
const SLICES: usize = 12;

/// Cold jobs the traced run rebuilds and reruns outside the server to
/// time the core build and the engine under the serve path.
const ENGINE_SPECS: usize = 20;

/// Inter-arrival time `1/λ` of every cold spec: cold jobs differ only in
/// their spec seed, so each costs the same simulation work.
const COLD_INV_LAMBDA: f64 = 10.0;

/// Load shape of a size.
#[derive(Debug, Clone, Copy)]
struct LoadSpec {
    /// Packets per source of every spec.
    packets: u32,
    /// Requests per second, all kinds.
    rate: f64,
    /// Share of `--seconds` spent under load; the rest is set-up and
    /// verification.
    load_share: f64,
}

impl LoadSpec {
    fn of(size: Size) -> LoadSpec {
        match size {
            // A cold job simulates 3 scenarios × 4 flows × 100 packets.
            // On the reference host 2 workers complete ~145 such jobs/s
            // back to back (4 clients in a closed loop). The cold rate
            // here, 56/s, is 39% of that: below half, because slow host
            // phases cut the capacity by about a third.
            Size::Full => LoadSpec {
                packets: 100,
                rate: 280.0,
                load_share: 0.8,
            },
            Size::Tiny => LoadSpec {
                packets: 20,
                rate: 100.0,
                load_share: 1.0,
            },
        }
    }
}

fn spec_json(inv_lambda: f64, seed: u64, packets: u32) -> String {
    format!(
        "{{\"experiment\":\"fig2\",\"inv_lambdas\":[{inv_lambda:?}],\"packets_per_source\":{packets},\"seed\":{seed}}}"
    )
}

/// The run's specs and schedule, all drawn from the workload seed.
struct Plan {
    warm: Vec<String>,
    /// Per request: `None` for cold (the next cold spec), else the warm
    /// spec index.
    mix: Vec<Option<usize>>,
    cold: Vec<String>,
    tenants: Vec<&'static str>,
}

fn plan(seed: u64, requests: usize, packets: u32) -> Plan {
    let mut rng: SimRng = RngFactory::new(seed).stream(0x5E4E);
    let fresh_seed = |rng: &mut SimRng| 1 + rng.sample_index(1 << 40) as u64;
    let warm = (0..WARM_SPECS)
        .map(|i| spec_json(2.0 + (i % 10) as f64 * 2.0, fresh_seed(&mut rng), packets))
        .collect();
    let mix: Vec<Option<usize>> = (0..requests)
        .map(|i| (i % COLD_EVERY != COLD_EVERY - 1).then(|| rng.sample_index(WARM_SPECS)))
        .collect();
    let cold = (0..mix.iter().filter(|m| m.is_none()).count())
        .map(|k| {
            // The index keeps every cold spec seed distinct.
            let s = (fresh_seed(&mut rng) << 20) | k as u64;
            spec_json(COLD_INV_LAMBDA, s, packets)
        })
        .collect();
    let tenants = (0..requests)
        .map(|_| TENANTS[rng.sample_index(TENANTS.len())])
        .collect();
    Plan {
        warm,
        mix,
        cold,
        tenants,
    }
}

/// The `"result":` bytes of a done job's status body.
fn result_bytes(body: &[u8]) -> Option<Vec<u8>> {
    let text = std::str::from_utf8(body).ok()?;
    if !text.contains("\"state\":\"done\"") || !text.contains("\"ok\":true") {
        return None;
    }
    let at = text.find("\"result\":")? + "\"result\":".len();
    Some(body[at..body.len().checked_sub(1)?].to_vec())
}

fn job_id(body: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    let at = text.find("\"id\":\"")? + 6;
    let end = text[at..].find('"')?;
    Some(text[at..at + end].to_string())
}

/// A bound, running server and where its journal lives.
struct Running {
    handle: ServerHandle,
    addr: String,
}

impl Running {
    fn start(journal: &Path) -> Result<Running, String> {
        let _ = fs::remove_file(journal);
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            cache_dir: None,
            journal: Some(journal.to_path_buf()),
            ..ServeConfig::default()
        })?;
        let handle = server.spawn();
        let addr = handle.addr.to_string();
        Ok(Running { handle, addr })
    }

    /// Graceful stop; waits for the accept loop and every worker.
    fn stop(self) {
        let _ = request(&self.addr, "POST", "/v1/shutdown", &[], b"");
        self.handle.join();
    }
}

/// Submits a spec cold and waits for its result bytes.
fn cold_result(addr: &str, tenant: &str, spec: &str) -> Result<Vec<u8>, String> {
    let ack = submit_job(addr, tenant, spec)?;
    let id = job_id(&ack.body).ok_or("no job id in submit response")?;
    let done = request(
        addr,
        "GET",
        &format!("/v1/jobs/{id}?wait_ms=30000"),
        &[],
        b"",
    )?;
    result_bytes(&done.body).ok_or_else(|| format!("job {id} did not finish ok"))
}

/// One set-up: start a server and compute every warm spec through it.
/// Returns the server and the warm specs' result bytes.
fn setup(
    journal: &Path,
    plan: &Plan,
    tracer: &Tracer,
    ctx: Ctx,
) -> Result<(Running, Vec<Vec<u8>>), String> {
    let server = tracer.child(ctx, "tempriv-serve", "serve.start", |_| {
        Running::start(journal)
    })?;
    let mut results = Vec::with_capacity(plan.warm.len());
    for (i, spec) in plan.warm.iter().enumerate() {
        let result = tracer.child(ctx, "tempriv-serve", "serve.warm_up_job", |_| {
            cold_result(&server.addr, TENANTS[i % TENANTS.len()], spec)
        });
        match result {
            Ok(bytes) => results.push(bytes),
            Err(e) => {
                server.stop();
                return Err(format!("warming spec {i}: {e}"));
            }
        }
    }
    Ok((server, results))
}

/// One request's latency, from its due time.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Which of the [`SLICES`] equal stretches of the schedule it was due
    /// in.
    slice: usize,
    /// Milliseconds from due time to the full response.
    ms: f64,
    /// Whether spans were recorded for it (every other request of a
    /// traced run).
    traced: bool,
}

/// Per-request measurements of one load phase.
#[derive(Default)]
struct Load {
    warm: Vec<Sample>,
    cold: Vec<Sample>,
    cold_ack_ms: Vec<f64>,
    late_ms: Vec<f64>,
    rejected: u64,
    /// Cold results by cold spec index, for the warm-equals-cold check.
    cold_results: Vec<Option<Vec<u8>>>,
}

fn latencies(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    samples.iter().filter(|s| keep(s)).map(|s| s.ms).collect()
}

/// Median latency of each slice of the schedule.
fn slice_medians(samples: &[Sample]) -> Vec<f64> {
    (0..SLICES)
        .map(|k| median(&latencies(samples, |s| s.slice == k)))
        .collect()
}

/// An admitted cold job, handed from the submitting thread to the
/// waiting one.
struct Admitted {
    /// Cold spec index.
    k: usize,
    id: String,
    due: Instant,
    sent: Instant,
    acked: Instant,
    traced: bool,
}

/// Records one request's trace: a root span from due time to the full
/// response, with the generator's lateness and the client calls under it.
fn trace_request(
    tracer: &Tracer,
    name: &'static str,
    due: Instant,
    end: Instant,
    calls: &[(&'static str, Instant, Instant)],
) {
    let root = tracer.record(tracer.new_trace(), "tpbench", name, due, end);
    let sent = calls.first().map_or(end, |c| c.1);
    tracer.record(root, "tpbench", "generator.late", due, sent);
    for &(call, start, stop) in calls {
        tracer.record(root, "tempriv-serve", call, start, stop);
    }
}

/// Drives the open loop: this thread submits on schedule, a second one
/// waits for cold results.
fn drive(addr: &str, plan: &Plan, rate: f64, tracer: &Tracer, checks: &mut Checks) -> Load {
    let (tx, rx) = mpsc::channel::<Admitted>();
    let mut load = Load {
        cold_results: vec![None; plan.cold.len()],
        ..Load::default()
    };
    // Slice of each admitted cold job, in submission order (the waiter
    // answers in the same order).
    let mut slices = Vec::new();
    let waited = std::thread::scope(|scope| {
        let waiter = scope.spawn(move || {
            let mut out = Vec::new();
            for job in rx {
                let start = Instant::now();
                let done = request(
                    addr,
                    "GET",
                    &format!("/v1/jobs/{}?wait_ms=30000", job.id),
                    &[],
                    b"",
                );
                let end = Instant::now();
                if job.traced {
                    let calls = [
                        ("serve.submit", job.sent, job.acked),
                        ("serve.wait_result", start, end),
                    ];
                    trace_request(tracer, "request.cold", job.due, end, &calls);
                }
                let bytes = done.ok().and_then(|r| result_bytes(&r.body));
                let ms = (end - job.due).as_secs_f64() * 1e3;
                out.push((job.k, ms, job.traced, bytes));
            }
            out
        });
        let t0 = Instant::now() + Duration::from_millis(20);
        let n = plan.mix.len();
        let mut cold_k = 0;
        for (i, kind) in plan.mix.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            load.late_ms.push((sent - due).as_secs_f64() * 1e3);
            let spec = match kind {
                Some(w) => &plan.warm[*w],
                None => &plan.cold[cold_k],
            };
            let response = submit_job(addr, plan.tenants[i], spec);
            let end = Instant::now();
            let traced = tracer.on() && i % 2 == 0;
            let ms = (end - due).as_secs_f64() * 1e3;
            let slice = i * SLICES / n;
            match (kind, response) {
                (Some(_), Ok(r)) => {
                    let ok = r.status == 200 && r.text().contains("\"cached\":true");
                    checks.record(ok, || format!("warm request {i}: status {}", r.status));
                    if traced {
                        let calls = [("serve.submit", sent, end)];
                        trace_request(tracer, "request.warm", due, end, &calls);
                    }
                    load.warm.push(Sample { slice, ms, traced });
                }
                (None, Ok(r)) if r.status == 202 => match job_id(&r.body) {
                    Some(id) => {
                        load.cold_ack_ms.push(ms);
                        slices.push(slice);
                        let job = Admitted {
                            k: cold_k,
                            id,
                            due,
                            sent,
                            acked: end,
                            traced,
                        };
                        tx.send(job).expect("waiter alive");
                    }
                    None => checks.record(false, || format!("cold request {i}: no id")),
                },
                (None, Ok(r)) => {
                    if r.status == 429 {
                        load.rejected += 1;
                    }
                    checks.record(false, || format!("cold request {i}: status {}", r.status));
                }
                (_, Err(e)) => checks.record(false, || format!("request {i}: {e}")),
            }
            if kind.is_none() {
                cold_k += 1;
            }
        }
        drop(tx);
        waiter.join().expect("waiter thread")
    });
    for ((k, ms, traced, bytes), slice) in waited.into_iter().zip(slices) {
        checks.record(bytes.is_some(), || {
            format!("cold job {k} did not finish ok")
        });
        if bytes.is_some() {
            load.cold.push(Sample { slice, ms, traced });
        }
        load.cold_results[k] = bytes;
    }
    load
}

/// Resubmits every spec warm and checks `/result` against the cold
/// bytes.
fn verify_warm(addr: &str, specs: &[String], cold: &[Option<Vec<u8>>], checks: &mut Checks) {
    for (i, (spec, cold)) in specs.iter().zip(cold).enumerate() {
        let Some(cold) = cold else { continue };
        let warm = submit_job(addr, TENANTS[i % TENANTS.len()], spec)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| job_id(&r.body))
            .and_then(|id| request(addr, "GET", &format!("/v1/jobs/{id}/result"), &[], b"").ok());
        checks.record(
            warm.as_ref()
                .is_some_and(|r| r.status == 200 && r.body == *cold),
            || format!("spec {i}: warm result bytes differ from cold"),
        );
    }
}

/// `name{...} value` or `name value` from Prometheus text.
fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with([' ', '{']))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN)
}

/// The deepest honest tail of `samples` as `<prefix>_p<NN>_ms`.
fn tail_metric(out: &mut Outcome, prefix: &str, samples: &[f64]) {
    if let Some(p) = deepest_tail(samples.len()) {
        out.workload_metric(
            format!("{prefix}_p{p}_ms"),
            percentile(samples, f64::from(p)),
            "ms",
        );
    }
}

/// Whole-run median, deepest tail and per-slice medians of one request
/// kind, for the run details.
fn latency_detail(samples: &[Sample]) -> Value {
    let all = latencies(samples, |_| true);
    let tail =
        deepest_tail(all.len()).map(|p| (format!("p{p}_ms"), num(percentile(&all, f64::from(p)))));
    let mut d = vec![
        ("samples".to_string(), Value::UInt(all.len() as u64)),
        ("p50_ms".to_string(), num(percentile(&all, 50.0))),
        ("slice_p50_ms".to_string(), nums(&slice_medians(samples))),
    ];
    d.extend(tail);
    Value::Map(d)
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message if the server cannot start or a warm spec cannot
/// be computed during set-up.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let spec = LoadSpec::of(opts.size);
    let requests = ((opts.seconds * spec.load_share * spec.rate).round() as usize).max(COLD_EVERY);
    let plan = plan(opts.seed, requests, spec.packets);
    let journal: PathBuf = opts
        .scratch
        .join(format!("serve-journal-{}.jsonl", std::process::id()));
    let tracer = Tracer::new(opts.traced);
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    let mut server = None;
    let mut warm_results = Vec::new();
    for _ in 0..SETUPS_BEFORE {
        if let Some(previous) = server.take() {
            Running::stop(previous);
        }
        let t = Instant::now();
        let (s, results) = tracer.root("tpbench", "setup", |ctx| {
            setup(&journal, &plan, &tracer, ctx)
        })?;
        setup_s.push(t.elapsed().as_secs_f64());
        server = Some(s);
        warm_results = results;
    }
    let server = server.expect("set-up ran");
    let addr = server.addr.clone();

    let load = drive(&addr, &plan, spec.rate, &tracer, &mut out.checks);
    let metrics_text = request(&addr, "GET", "/metrics", &[], b"")
        .map(|r| r.text())
        .unwrap_or_default();
    let warm_some: Vec<Option<Vec<u8>>> = warm_results.iter().cloned().map(Some).collect();
    verify_warm(&addr, &plan.warm, &warm_some, &mut out.checks);
    verify_warm(&addr, &plan.cold, &load.cold_results, &mut out.checks);

    let mean_of = |name: &str| {
        scrape(&metrics_text, &format!("{name}_sum"))
            / scrape(&metrics_text, &format!("{name}_count"))
    };
    let queue_wait_ms = mean_of("tempriv_serve_queue_wait_ms");
    let job_wall_ms = mean_of("tempriv_serve_job_wall_ms");
    let hit_ratio = scrape(&metrics_text, "tempriv_serve_cache_hit_rate");

    if opts.traced {
        let connect_ms = connect_probe(&addr, 200);
        server.stop();
        layer_probes(opts, &plan, &load.cold_results, &tracer, &mut out);
        out.workload_metric("serve.connect_ms", connect_ms, "ms");
        out.workload_metric("serve.cold_ack_ms", median(&load.cold_ack_ms), "ms");
        out.workload_metric("serve.queue_wait_ms", queue_wait_ms, "ms");
        out.workload_metric("serve.job_wall_ms", job_wall_ms, "ms");
        let cold_sent = plan.cold.len() as f64;
        out.workload_metric(
            "serve.admit_ratio",
            (cold_sent - load.rejected as f64) / cold_sent,
            "ratio",
        );
        out.workload_metric("serve.hit_ratio", hit_ratio, "ratio");
        out.workload_metric(
            "serve.generator_late_ms",
            percentile(&load.late_ms, 99.0),
            "ms",
        );
        let untraced = |samples: &[Sample]| -> Vec<Sample> {
            samples.iter().filter(|s| !s.traced).copied().collect()
        };
        out.workload_metric(
            "warm_p50_ms",
            best(&slice_medians(&untraced(&load.warm))),
            "ms",
        );
        out.workload_metric(
            "cold_p50_ms",
            best(&slice_medians(&untraced(&load.cold))),
            "ms",
        );
        tail_metric(&mut out, "serve.warm", &latencies(&load.warm, |_| true));
        tail_metric(&mut out, "serve.cold", &latencies(&load.cold, |_| true));
        out.metric(
            "trace.overhead_ratio",
            overhead_ratio(
                &latencies(&load.warm, |s| s.traced),
                &latencies(&load.warm, |s| !s.traced),
            ),
            "x",
        );
        let spans = tracer.spans();
        let rows = trace::self_times(&spans);
        out.detail("layer_self_times", trace::layer_json(&rows));
        out.tables
            .push(("span self times".into(), trace::render_table(&rows)));
        out.spans_jsonl = trace::spans_jsonl(&spans);
    } else {
        server.stop();
        for _ in 0..SETUPS_AFTER {
            let t = Instant::now();
            let (again, results) = tracer.root("tpbench", "setup", |ctx| {
                setup(&journal, &plan, &tracer, ctx)
            })?;
            setup_s.push(t.elapsed().as_secs_f64());
            again.stop();
            out.checks.record(results == warm_results, || {
                "a repeated set-up computed different warm results".into()
            });
        }
        out.metric("setup_s", best(&setup_s), "s");
        out.metric("peak_rss_mb", crate::peak_rss_mib(), "MiB");
    }
    let _ = fs::remove_file(&journal);

    let d = obj([
        ("rate_per_s", num(spec.rate)),
        ("requests", Value::UInt(plan.mix.len() as u64)),
        ("cold_requests", Value::UInt(plan.cold.len() as u64)),
        ("packets_per_source", Value::UInt(u64::from(spec.packets))),
        ("workers", Value::UInt(WORKERS as u64)),
        (
            "warm_p50_ms_best_stretch",
            num(best(&slice_medians(&load.warm))),
        ),
        (
            "cold_p50_ms_best_stretch",
            num(best(&slice_medians(&load.cold))),
        ),
        ("warm", latency_detail(&load.warm)),
        ("cold", latency_detail(&load.cold)),
        (
            "generator_late_p50_ms",
            num(percentile(&load.late_ms, 50.0)),
        ),
        (
            "generator_late_p99_ms",
            num(percentile(&load.late_ms, 99.0)),
        ),
        (
            "generator_late_max_ms",
            num(percentile(&load.late_ms, 100.0)),
        ),
        ("rejected", Value::UInt(load.rejected)),
        ("queue_wait_mean_ms", num(queue_wait_ms)),
        ("job_wall_mean_ms", num(job_wall_ms)),
        ("hit_ratio", num(hit_ratio)),
        ("setup_s", nums(&setup_s)),
        ("setup_s_median", num(median(&setup_s))),
    ]);
    out.detail("load", d);
    Ok(out)
}

/// Median milliseconds to open (and close) a TCP connection to the
/// server, over `n` connects.
fn connect_probe(addr: &str, n: usize) -> f64 {
    let samples: Vec<f64> = (0..n)
        .filter_map(|_| {
            let t = Instant::now();
            let stream = std::net::TcpStream::connect(addr).ok()?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(stream);
            Some(ms)
        })
        .collect();
    median(&samples)
}

/// Times the serve-side layers directly: spec parse + key, journal
/// append, the telemetry probes every cold job carries, and the core
/// build and engine under the first [`ENGINE_SPECS`] cold jobs (rebuilt
/// and rerun outside the server, checked against the bytes it served).
fn layer_probes(
    opts: &RunOpts,
    plan: &Plan,
    cold_results: &[Option<Vec<u8>>],
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let bodies: Vec<&[u8]> = plan.cold.iter().map(String::as_bytes).collect();
    let reps = 20;
    let t = Instant::now();
    let parsed = tracer.root("tempriv-serve", "serve.parse", |_| {
        let mut ok = 0;
        for _ in 0..reps {
            for body in &bodies {
                if let Ok(spec) = JobSpec::from_body(body) {
                    ok += usize::from(!std::hint::black_box(spec.key()).is_empty());
                }
            }
        }
        ok
    });
    let parse_ms = t.elapsed().as_secs_f64() * 1e3 / (reps * bodies.len()) as f64;
    out.checks.record(parsed == reps * bodies.len(), || {
        "a cold spec failed to parse".into()
    });

    let path = opts
        .scratch
        .join(format!("serve-append-{}.jsonl", std::process::id()));
    let _ = fs::remove_file(&path);
    let appends = 2000;
    let append_ms = match ServeJournal::open(&path) {
        Ok((journal, _)) => {
            let t = Instant::now();
            tracer.root("tempriv-serve", "serve.journal_append", |_| {
                for i in 0..appends {
                    let event = ServeEvent::Completed {
                        id: format!("j{i}"),
                        ok: true,
                        cached: true,
                        wall_ms: 0,
                        outcome_digest: "0123456789abcdef".into(),
                        error: None,
                    };
                    out.checks.record(journal.append(&event).is_ok(), || {
                        "journal append failed".into()
                    });
                }
            });
            t.elapsed().as_secs_f64() * 1e3 / f64::from(appends)
        }
        Err(e) => {
            out.checks.record(false, || format!("journal open: {e}"));
            f64::NAN
        }
    };
    let _ = fs::remove_file(&path);

    // Every cold serve job runs with a telemetry sink, which attaches the
    // digest probe; time the job with and without it.
    let spec = JobSpec::from_body(bodies[0]).expect("cold spec parses");
    let (mut with_sink, mut bare) = (Vec::new(), Vec::new());
    let mut rows = Vec::new();
    for i in 0..6 {
        for sink in if i % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        } {
            let live = sink.then(|| Arc::new(TelemetrySink::new()));
            let t = Instant::now();
            let result = tracer.root("tempriv-serve", "serve.execute", |_| {
                execute(&spec, live.clone())
            });
            let secs = t.elapsed().as_secs_f64();
            if let Some(live) = &live {
                let digest = tracer.root("tempriv-telemetry", "telemetry.collect_digest", |_| {
                    collect_digest(live, spec.points())
                });
                out.checks
                    .record(digest.is_some(), || "cold job carried no digest".into());
            }
            if sink {
                with_sink.push(secs)
            } else {
                bare.push(secs)
            }
            rows.push(result);
        }
    }
    out.checks
        .record(rows.iter().all(|r| r.is_ok() && *r == rows[0]), || {
            "job rows differ with and without the telemetry sink".into()
        });
    let sim = fig2_configs(&spec.sweep_params(), COLD_INV_LAMBDA)[2]
        .build()
        .expect("fig2 configs are valid");

    let mut layers = EngineLayers::default();
    let mut rerun = 0;
    for (body, bytes) in plan.cold.iter().zip(cold_results) {
        if rerun == ENGINE_SPECS {
            break;
        }
        let Some(bytes) = bytes else { continue };
        let spec = JobSpec::from_body(body.as_bytes()).expect("cold spec parses");
        match serde_json::from_str::<Vec<Fig2Row>>(&String::from_utf8_lossy(bytes)) {
            Ok(rows) => {
                engine_layers(
                    &spec.sweep_params(),
                    &rows,
                    tracer,
                    &mut out.checks,
                    &mut layers,
                );
                rerun += 1;
            }
            Err(e) => out
                .checks
                .record(false, || format!("cold result rows do not parse: {e}")),
        }
    }
    out.checks
        .record(rerun > 0, || "no cold result to rerun the engine on".into());
    layers.report(allocs_per_delivered(&sim), out);

    let (mut plain, mut profiled) = (Vec::new(), Vec::new());
    for _ in 0..10 {
        let t = Instant::now();
        let a = sim.run();
        plain.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mut profiler = PhaseProfiler::new();
        let b = sim.run_profiled(&mut NullProbe, &mut profiler);
        profiled.push(t.elapsed().as_secs_f64());
        out.checks
            .record(a == b, || "profiled run changed the outcome".into());
    }
    out.workload_metric("serve.parse_ms", parse_ms, "ms");
    out.workload_metric("serve.journal_append_ms", append_ms, "ms");
    out.metric(
        "telemetry.digest_overhead_ratio",
        overhead_ratio(&with_sink, &bare),
        "x",
    );
    out.metric(
        "telemetry.profiler_overhead_ratio",
        overhead_ratio(&profiled, &plain),
        "x",
    );
}
