//! Live-heap ratchet for the serve tier: a finished plain cold job may
//! leave behind its cached result rows, its frozen digest summary and
//! its job-table entry, and nothing else. A regression that keeps a
//! job's telemetry sink (or any per-job blob) alive for the life of the
//! process shows up here as hundreds of KiB of live heap per job.
//!
//! The ratchet counts through the real allocator, so this test binary
//! installs it; without it every live-bytes reading would be zero and
//! the ceiling would pass vacuously (guarded by the first assertion).

use tempriv_serve::client::{request, submit_job};
use tempriv_serve::server::{ServeConfig, Server};
use tempriv_telemetry::memprof;

#[global_allocator]
static ALLOC: tempriv_telemetry::CountingAlloc = tempriv_telemetry::CountingAlloc;

/// Jobs run before the baseline, so one-time growth (worker thread
/// state, job-table and cache capacity) lands outside the measurement.
const WARMUP_JOBS: u64 = 8;
/// Jobs measured after the baseline.
const MEASURED_JOBS: u64 = 40;
/// Live-heap growth allowed per finished plain job. Cached rows, the
/// digest summary and the job entry of a one-point job take a few KiB;
/// a retained telemetry sink took ~240 KiB.
const CEILING_PER_JOB: u64 = 32 * 1024;

/// A plain one-point fig2 job: no trace, no privacy stream. Each seed
/// is a distinct cache key, so every submission runs cold.
fn plain_spec(seed: u64) -> String {
    format!(
        "{{\"experiment\":\"fig2\",\"inv_lambdas\":[4.0],\
         \"packets_per_source\":40,\"seed\":{seed}}}"
    )
}

fn run_cold_job(addr: &str, seed: u64) {
    let submitted = submit_job(addr, "ratchet", &plain_spec(seed)).expect("submit");
    assert_eq!(submitted.status, 202, "seed {seed} must run cold");
    let id = submitted
        .text()
        .split("\"id\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("id in response")
        .to_string();
    loop {
        let status = request(
            addr,
            "GET",
            &format!("/v1/jobs/{id}?wait_ms=5000"),
            &[],
            &[],
        )
        .expect("status request")
        .text();
        if status.contains("\"state\":\"done\"") {
            assert!(status.contains("\"ok\":true"), "job failed: {status}");
            return;
        }
    }
}

#[test]
fn finished_plain_jobs_retain_bounded_heap() {
    assert!(
        memprof::installed(),
        "the counting allocator must be installed"
    );
    memprof::set_enabled(true);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let handle = server.spawn();
    let addr = handle.addr.to_string();

    for seed in 1..=WARMUP_JOBS {
        run_cold_job(&addr, seed);
    }
    let before = memprof::snapshot().live_bytes;
    for seed in WARMUP_JOBS + 1..=WARMUP_JOBS + MEASURED_JOBS {
        run_cold_job(&addr, seed);
    }
    let after = memprof::snapshot().live_bytes;

    let _ = request(&addr, "POST", "/v1/shutdown", &[], &[]);
    handle.join();
    memprof::set_enabled(false);

    let per_job = after.saturating_sub(before) / MEASURED_JOBS;
    eprintln!("heap ratchet: {per_job} B of live heap per finished plain job");
    assert!(
        per_job < CEILING_PER_JOB,
        "each finished plain job retains {per_job} B of live heap \
         (ceiling {CEILING_PER_JOB} B)"
    );
}
