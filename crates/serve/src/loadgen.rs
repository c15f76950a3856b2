//! `tempriv bench serve` — a load driver that hammers the serve API with
//! concurrent, multi-tenant, mixed warm/cold submissions and reports
//! latency percentiles, throughput, cache hit-rate, the mean wall time
//! of the jobs that simulated, and the server's peak RSS.
//!
//! The driver spawns an in-process server (unless pointed at an external
//! one), then `concurrency` client threads pull submission slots from a
//! shared counter. Each slot maps to one of `distinct` tiny one-point
//! sweeps, so after the first wave most submissions are warm — the
//! realistic mixed regime the cache exists for. Rejected submissions
//! (`429`) honor `Retry-After` (capped) and retry, so admission pressure
//! shows up as latency rather than lost work.

use crate::client::{request, submit_job};
use crate::server::{ServeConfig, Server};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load-driver knobs (the `tempriv bench serve` flags).
#[derive(Debug, Clone)]
pub struct LoadParams {
    /// Total submissions to issue.
    pub submissions: usize,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Distinct tenants cycling through submissions.
    pub tenants: usize,
    /// Distinct job specs; submissions beyond this count repeat specs
    /// and (after the first wave) hit the cache.
    pub distinct: usize,
    /// Packets per source for the tiny benchmark sweeps.
    pub packets: u32,
    /// Experiment every spec runs (one-point sweeps).
    pub experiment: String,
    /// External server address; `None` spawns one in-process.
    pub addr: Option<String>,
    /// Worker threads for the in-process server.
    pub server_workers: usize,
}

impl Default for LoadParams {
    fn default() -> Self {
        LoadParams {
            submissions: 2000,
            concurrency: 16,
            tenants: 4,
            distinct: 64,
            packets: 60,
            experiment: "fig3".to_string(),
            addr: None,
            server_workers: 4,
        }
    }
}

/// Latency percentiles over one population, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyMs {
    /// Sample count.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observed.
    pub max: f64,
}

impl LatencyMs {
    fn from_samples(mut samples: Vec<f64>) -> LatencyMs {
        if samples.is_empty() {
            return LatencyMs {
                count: 0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        samples.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let idx = ((samples.len() - 1) as f64 * q).round() as usize;
            samples[idx]
        };
        LatencyMs {
            count: samples.len(),
            p50: at(0.50),
            p90: at(0.90),
            p99: at(0.99),
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// What one `bench serve` run measured (serialized to
/// `results/BENCH_serve.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Submissions issued (each retried until accepted).
    pub submissions: usize,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Distinct tenants.
    pub tenants: usize,
    /// Distinct specs.
    pub distinct_specs: usize,
    /// Experiment used.
    pub experiment: String,
    /// Submissions answered warm (straight from the cache).
    pub warm: usize,
    /// Submissions that queued a simulation.
    pub cold: usize,
    /// `429` rejections absorbed by retries.
    pub rejected_retries: usize,
    /// Jobs that finished in error.
    pub failed: usize,
    /// Wall-clock seconds for the whole run.
    pub elapsed_s: f64,
    /// Accepted submissions per second.
    pub throughput_rps: f64,
    /// POST round-trip latency over every accepted submission.
    pub submit_latency_ms: LatencyMs,
    /// Submit-to-done latency of cold jobs (queue wait + simulation).
    pub cold_complete_ms: LatencyMs,
    /// Mean server-side wall time of the jobs that ran a simulation
    /// (pickup to finish, no queue wait), from the whole-millisecond
    /// `wall_ms` each job reports. Absent in reports written before the
    /// field existed.
    #[serde(default)]
    pub cold_job_wall_ms_mean: f64,
    /// Peak resident set size of the server process in MiB, scraped
    /// from its `/metrics` at the end of the run; `None` off-Linux and
    /// in reports written before the field existed.
    #[serde(default)]
    pub peak_rss_mb: Option<f64>,
    /// hits / (hits + misses) reported by the server's `/metrics`.
    pub cache_hit_rate: f64,
    /// Whether a warm resubmission returned bytes identical to the cold
    /// run of the same spec.
    pub warm_bytes_identical: bool,
}

struct Tally {
    warm: usize,
    cold: usize,
    rejected: usize,
    failed: usize,
    submit_ms: Vec<f64>,
    complete_ms: Vec<f64>,
    job_wall_ms: Vec<f64>,
    errors: Vec<String>,
}

/// Runs the load benchmark.
///
/// # Errors
///
/// Returns a message when the server cannot start, a client hits a
/// transport error, or the warm/cold byte-identity check fails to
/// collect both results.
pub fn run_load(params: &LoadParams) -> Result<LoadReport, String> {
    let (addr, handle) = match &params.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let server = Server::bind(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: params.server_workers.max(1),
                cache_dir: None,
                journal: None,
                max_queue: (params.concurrency * 16).max(64),
                tenant_quota: (params.concurrency * 8).max(32),
            })?;
            let handle = server.spawn();
            (handle.addr.to_string(), Some(handle))
        }
    };

    // Warm/cold byte-identity probe on a spec the storm never touches.
    let probe = spec_json(&params.experiment, params.packets, usize::MAX);
    let cold_bytes = submit_and_fetch(&addr, "probe", &probe)?;
    let warm_bytes = submit_and_fetch(&addr, "probe", &probe)?;
    let warm_bytes_identical = cold_bytes == warm_bytes;

    let next = AtomicUsize::new(0);
    let tally = Mutex::new(Tally {
        warm: 0,
        cold: 0,
        rejected: 0,
        failed: 0,
        submit_ms: Vec::new(),
        complete_ms: Vec::new(),
        job_wall_ms: Vec::new(),
        errors: Vec::new(),
    });
    let started = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..params.concurrency.max(1) {
            scope.spawn(|| loop {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                if slot >= params.submissions {
                    return;
                }
                let tenant = format!("t{}", slot % params.tenants.max(1));
                let spec = spec_json(&params.experiment, params.packets, slot % params.distinct);
                match drive_one(&addr, &tenant, &spec) {
                    Ok(one) => {
                        let mut tally = tally.lock().expect("tally lock");
                        if one.warm {
                            tally.warm += 1;
                        } else {
                            tally.cold += 1;
                        }
                        if one.failed {
                            tally.failed += 1;
                        }
                        tally.rejected += one.retries;
                        tally.submit_ms.push(one.submit_ms);
                        if let Some(ms) = one.complete_ms {
                            tally.complete_ms.push(ms);
                        }
                        if let Some(ms) = one.job_wall_ms {
                            tally.job_wall_ms.push(ms);
                        }
                    }
                    Err(message) => {
                        let mut tally = tally.lock().expect("tally lock");
                        tally.errors.push(message);
                    }
                }
            });
        }
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    let tally = tally.into_inner().expect("tally lock");
    if let Some(first) = tally.errors.first() {
        return Err(format!(
            "{} client errors, first: {first}",
            tally.errors.len()
        ));
    }

    let metrics_text = request(&addr, "GET", "/metrics", &[], &[])?.text();
    let cache_hit_rate = parse_gauge(&metrics_text, "tempriv_serve_cache_hit_rate").unwrap_or(0.0);
    let peak_rss_mb = parse_gauge(&metrics_text, "tempriv_mem_rss_peak_bytes")
        .map(|bytes| bytes / (1024.0 * 1024.0));
    let cold_job_wall_ms_mean = if tally.job_wall_ms.is_empty() {
        0.0
    } else {
        tally.job_wall_ms.iter().sum::<f64>() / tally.job_wall_ms.len() as f64
    };

    if let Some(handle) = handle {
        let _ = request(&addr, "POST", "/v1/shutdown", &[], &[]);
        handle.join();
    }

    Ok(LoadReport {
        submissions: params.submissions,
        concurrency: params.concurrency,
        tenants: params.tenants,
        distinct_specs: params.distinct,
        experiment: params.experiment.clone(),
        warm: tally.warm,
        cold: tally.cold,
        rejected_retries: tally.rejected,
        failed: tally.failed,
        elapsed_s,
        throughput_rps: params.submissions as f64 / elapsed_s.max(1e-9),
        submit_latency_ms: LatencyMs::from_samples(tally.submit_ms),
        cold_complete_ms: LatencyMs::from_samples(tally.complete_ms),
        cold_job_wall_ms_mean,
        peak_rss_mb,
        cache_hit_rate,
        warm_bytes_identical,
    })
}

struct OneSubmission {
    warm: bool,
    failed: bool,
    retries: usize,
    submit_ms: f64,
    complete_ms: Option<f64>,
    /// Server-reported wall time, for jobs that ran a simulation.
    job_wall_ms: Option<f64>,
}

/// Submits one job (retrying through `429`s) and, for cold jobs, polls
/// it to completion.
fn drive_one(addr: &str, tenant: &str, spec: &str) -> Result<OneSubmission, String> {
    let mut retries = 0usize;
    let issued = Instant::now();
    let accepted = loop {
        let started = Instant::now();
        let resp = submit_job(addr, tenant, spec)?;
        match resp.status {
            200 | 202 => break (resp, started.elapsed().as_secs_f64() * 1e3),
            429 => {
                retries += 1;
                let after_s: u64 = resp
                    .header("retry-after")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(1);
                std::thread::sleep(Duration::from_millis((after_s * 1000).min(200)));
            }
            other => return Err(format!("submit returned {other}: {}", resp.text())),
        }
    };
    let (resp, submit_ms) = accepted;
    let body = resp.text();
    let warm = body.contains("\"cached\":true");
    if warm {
        return Ok(OneSubmission {
            warm,
            failed: false,
            retries,
            submit_ms,
            complete_ms: None,
            job_wall_ms: None,
        });
    }
    let id = extract_id(&body).ok_or_else(|| format!("no id in submit response: {body}"))?;
    let done = loop {
        let status = request(
            addr,
            "GET",
            &format!("/v1/jobs/{id}?wait_ms=5000"),
            &[],
            &[],
        )?;
        let text = status.text();
        if text.contains("\"state\":\"done\"") {
            break text;
        }
    };
    let failed = !done.contains("\"ok\":true");
    // A queued job can still be answered from the cache when an
    // identical submission finished first; only simulated jobs count.
    let job_wall_ms = if failed || done.contains("\"cached\":true") {
        None
    } else {
        parse_field(&done, "wall_ms")
    };
    Ok(OneSubmission {
        warm,
        failed,
        retries,
        submit_ms,
        complete_ms: Some(issued.elapsed().as_secs_f64() * 1e3),
        job_wall_ms,
    })
}

/// Submits a spec, waits for completion, and returns the raw result
/// bytes from `/v1/jobs/:id/result`.
fn submit_and_fetch(addr: &str, tenant: &str, spec: &str) -> Result<Vec<u8>, String> {
    let resp = submit_job(addr, tenant, spec)?;
    if resp.status != 200 && resp.status != 202 {
        return Err(format!("probe submit returned {}", resp.status));
    }
    let body = resp.text();
    let id = extract_id(&body).ok_or_else(|| format!("no id in submit response: {body}"))?;
    loop {
        let status = request(
            addr,
            "GET",
            &format!("/v1/jobs/{id}?wait_ms=5000"),
            &[],
            &[],
        )?;
        if status.text().contains("\"state\":\"done\"") {
            break;
        }
    }
    let result = request(addr, "GET", &format!("/v1/jobs/{id}/result"), &[], &[])?;
    if result.status != 200 {
        return Err(format!("probe result returned {}", result.status));
    }
    Ok(result.body)
}

/// A tiny one-point sweep spec, varied by `index` so `distinct` of them
/// produce `distinct` different cache keys. `usize::MAX` is reserved for
/// the byte-identity probe.
fn spec_json(experiment: &str, packets: u32, index: usize) -> String {
    let inv_lambda = 2.0 + (index % 97) as f64 * 0.25;
    let seed = 1000 + index as u64 % 9973;
    format!(
        "{{\"experiment\":\"{experiment}\",\"inv_lambdas\":[{inv_lambda}],\
         \"packets_per_source\":{packets},\"seed\":{seed}}}"
    )
}

fn extract_id(body: &str) -> Option<String> {
    let rest = body.split("\"id\":\"").nth(1)?;
    Some(rest.split('"').next()?.to_string())
}

/// The numeric value of top-level field `name` in a flat JSON object.
fn parse_field(json: &str, name: &str) -> Option<f64> {
    let rest = json.split(&format!("\"{name}\":")).nth(1)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn parse_gauge(metrics_text: &str, name: &str) -> Option<f64> {
    metrics_text
        .lines()
        .find(|line| line.starts_with(name) && !line.starts_with('#'))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|raw| raw.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_come_from_sorted_samples() {
        let lat = LatencyMs::from_samples(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(lat.count, 5);
        assert_eq!(lat.p50, 3.0);
        assert_eq!(lat.max, 5.0);
        let empty = LatencyMs::from_samples(Vec::new());
        assert_eq!(empty.count, 0);
    }

    #[test]
    fn gauge_parsing_finds_the_value() {
        let text = "# HELP tempriv_serve_cache_hit_rate x\n\
                    # TYPE tempriv_serve_cache_hit_rate gauge\n\
                    tempriv_serve_cache_hit_rate 0.75\n";
        assert_eq!(
            parse_gauge(text, "tempriv_serve_cache_hit_rate"),
            Some(0.75)
        );
        assert_eq!(parse_gauge(text, "absent"), None);
    }

    #[test]
    fn field_parsing_reads_a_status_number() {
        let done = "{\"id\":\"j3\",\"state\":\"done\",\"ok\":true,\
                    \"cached\":false,\"wall_ms\":12,\"digest\":\"ab\"}";
        assert_eq!(parse_field(done, "wall_ms"), Some(12.0));
        assert_eq!(parse_field("{\"wall_ms\":7}", "wall_ms"), Some(7.0));
        assert_eq!(parse_field(done, "absent"), None);
    }

    #[test]
    fn spec_json_is_distinct_per_index_and_parses() {
        let a = spec_json("fig3", 60, 0);
        let b = spec_json("fig3", 60, 1);
        assert_ne!(a, b);
        let spec = crate::jobs::JobSpec::from_body(a.as_bytes()).unwrap();
        assert_eq!(spec.experiment, "fig3");
        assert_eq!(spec.packets_per_source, 60);
    }

    #[test]
    fn tiny_load_run_end_to_end() {
        // A miniature storm: 24 submissions over 4 distinct specs — the
        // repeats must hit the cache and the report must hold together.
        let params = LoadParams {
            submissions: 24,
            concurrency: 4,
            tenants: 2,
            distinct: 4,
            packets: 30,
            server_workers: 2,
            ..LoadParams::default()
        };
        let report = run_load(&params).unwrap();
        assert_eq!(report.warm + report.cold, 24);
        assert!(report.warm > 0, "repeated specs must hit the cache");
        assert!(report.cache_hit_rate > 0.0);
        assert!(report.warm_bytes_identical);
        assert_eq!(report.failed, 0);
        assert_eq!(report.submit_latency_ms.count, 24);
        assert!(report.throughput_rps > 0.0);
        assert!(report.cold_job_wall_ms_mean.is_finite());
        if cfg!(target_os = "linux") {
            assert!(report.peak_rss_mb.is_some_and(|mb| mb > 0.0));
        }
    }
}
