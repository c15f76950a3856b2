//! End-to-end serve tests over real sockets: cold/warm byte identity,
//! live SSE privacy streaming, admission control over HTTP,
//! kill-and-restart queue resume from the journal, and digests that
//! cover every job of a sweep.

use std::sync::Arc;

use tempriv_runtime::{ResultCache, TelemetrySink};
use tempriv_serve::client::{read_sse, request, submit_job};
use tempriv_serve::jobs::{collect_digest, execute, JobDigest, JobSpec};
use tempriv_serve::journal::{ServeEvent, ServeJournal};
use tempriv_serve::server::{ServeConfig, Server};

/// A tiny Figure-1-topology job (one sweep point, few packets).
fn tiny_spec(seed: u64) -> String {
    format!(
        "{{\"experiment\":\"fig2\",\"inv_lambdas\":[4.0],\
         \"packets_per_source\":40,\"seed\":{seed}}}"
    )
}

fn spawn_server(cfg: ServeConfig) -> (String, tempriv_serve::server::ServerHandle) {
    let server = Server::bind(cfg).expect("bind");
    let handle = server.spawn();
    (handle.addr.to_string(), handle)
}

fn ephemeral(cfg_mut: impl FnOnce(&mut ServeConfig)) -> ServeConfig {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    cfg_mut(&mut cfg);
    cfg
}

fn wait_done(addr: &str, id: &str) -> String {
    loop {
        let resp = request(
            addr,
            "GET",
            &format!("/v1/jobs/{id}?wait_ms=5000"),
            &[],
            &[],
        )
        .expect("status request");
        let text = resp.text();
        if text.contains("\"state\":\"done\"") {
            return text;
        }
    }
}

fn shutdown(addr: &str, handle: tempriv_serve::server::ServerHandle) {
    let _ = request(addr, "POST", "/v1/shutdown", &[], &[]);
    handle.join();
}

#[test]
fn smoke_cold_then_warm_is_byte_identical_and_metered() {
    let (addr, handle) = spawn_server(ephemeral(|_| {}));

    let health = request(&addr, "GET", "/healthz", &[], &[]).unwrap();
    assert_eq!(health.status, 200);
    assert!(health.text().contains("ok"));

    // Cold submission: queued, then done with cached=false.
    let cold = submit_job(&addr, "acme", &tiny_spec(11)).unwrap();
    assert_eq!(cold.status, 202, "cold submission queues: {}", cold.text());
    let cold_body = cold.text();
    assert!(cold_body.contains("\"cached\":false"));
    let cold_id = extract_id(&cold_body);
    let cold_status = wait_done(&addr, &cold_id);
    assert!(cold_status.contains("\"ok\":true"));
    assert!(cold_status.contains("\"cached\":false"));
    let cold_result = request(
        &addr,
        "GET",
        &format!("/v1/jobs/{cold_id}/result"),
        &[],
        &[],
    )
    .unwrap();
    assert_eq!(cold_result.status, 200);

    // Warm submission of the same spec: answered synchronously from the
    // cache, byte-identical result.
    let warm = submit_job(&addr, "acme", &tiny_spec(11)).unwrap();
    assert_eq!(warm.status, 200, "warm submission: {}", warm.text());
    let warm_body = warm.text();
    assert!(warm_body.contains("\"cached\":true"));
    let warm_id = extract_id(&warm_body);
    let warm_result = request(
        &addr,
        "GET",
        &format!("/v1/jobs/{warm_id}/result"),
        &[],
        &[],
    )
    .unwrap();
    assert_eq!(
        warm_result.body, cold_result.body,
        "warm result must be byte-identical to the cold run"
    );

    // /metrics shows the hit.
    let metrics = request(&addr, "GET", "/metrics", &[], &[]).unwrap().text();
    assert!(
        metrics.contains("tempriv_serve_cache_hits_total 1"),
        "{metrics}"
    );
    assert!(metrics.contains("tempriv_serve_cache_misses_total 1"));
    let hit_rate_line = metrics
        .lines()
        .find(|l| l.starts_with("tempriv_serve_cache_hit_rate"))
        .expect("hit rate gauge");
    let rate: f64 = hit_rate_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(rate > 0.0, "non-zero hit rate after a warm submission");
    assert!(metrics.contains("tempriv_serve_admitted_total{tenant=acme} 1"));

    shutdown(&addr, handle);
}

#[test]
fn sse_privacy_stream_emits_points_then_done() {
    let (addr, handle) = spawn_server(ephemeral(|_| {}));

    // Two sweep points with the privacy observatory on.
    let spec = "{\"experiment\":\"fig2\",\"inv_lambdas\":[4.0,6.0],\
                \"packets_per_source\":40,\"seed\":3,\"privacy_interval\":50}";
    let resp = submit_job(&addr, "sse", spec).unwrap();
    assert_eq!(resp.status, 202);
    let id = extract_id(&resp.text());

    let frames = read_sse(&addr, &format!("/v1/jobs/{id}/privacy")).unwrap();
    let points: Vec<_> = frames.iter().filter(|(e, _)| e == "point").collect();
    let dones: Vec<_> = frames.iter().filter(|(e, _)| e == "done").collect();
    assert_eq!(points.len(), 2, "one frame per sweep point: {frames:?}");
    assert!(points[0].1.contains("\"point\":0"));
    assert!(points[0].1.contains("series"));
    assert_eq!(dones.len(), 1);
    assert!(dones[0].1.contains("\"ok\":true"));

    // A job without a privacy interval streams just `done`.
    let plain = submit_job(&addr, "sse", &tiny_spec(4)).unwrap();
    let plain_id = extract_id(&plain.text());
    wait_done(&addr, &plain_id);
    let frames = read_sse(&addr, &format!("/v1/jobs/{plain_id}/privacy")).unwrap();
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].0, "done");

    shutdown(&addr, handle);
}

#[test]
fn admission_rejects_with_retry_after_over_http() {
    // No workers: every admitted job parks in the queue, so the bounds
    // are easy to hit deterministically.
    let (addr, handle) = spawn_server(ephemeral(|cfg| {
        cfg.workers = 0;
        cfg.max_queue = 2;
        cfg.tenant_quota = 1;
    }));

    let first = submit_job(&addr, "noisy", &tiny_spec(100)).unwrap();
    assert_eq!(first.status, 202);

    // Same tenant, second cold job: per-tenant quota.
    let second = submit_job(&addr, "noisy", &tiny_spec(101)).unwrap();
    assert_eq!(second.status, 429);
    assert!(
        second.header("retry-after").is_some(),
        "Retry-After present"
    );
    assert!(second.text().contains("tenant_quota"));

    // A quiet tenant still gets in.
    let quiet = submit_job(&addr, "quiet", &tiny_spec(102)).unwrap();
    assert_eq!(quiet.status, 202, "quiet tenant unaffected by noisy one");

    // Queue now full (2 admitted): even a fresh tenant bounces.
    let third = submit_job(&addr, "fresh", &tiny_spec(103)).unwrap();
    assert_eq!(third.status, 429);
    assert!(third.text().contains("queue_full"));

    let metrics = request(&addr, "GET", "/metrics", &[], &[]).unwrap().text();
    assert!(metrics.contains("tempriv_serve_rejected_total{tenant=noisy} 1"));
    assert!(metrics.contains("tempriv_serve_rejected_total{tenant=fresh} 1"));
    assert!(metrics.contains("tempriv_serve_queue_depth 2"));

    shutdown(&addr, handle);
}

#[test]
fn kill_and_restart_resumes_queued_jobs_without_loss_or_duplication() {
    let dir = std::env::temp_dir().join("tempriv_serve_resume_e2e");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal_path = dir.join("serve.jsonl");
    let cache_dir = dir.join("cache");

    // Phase 1: a server with no workers accepts three jobs and is
    // killed (dropped without shutdown) with all three still queued.
    let (addr, handle) = spawn_server(ephemeral(|cfg| {
        cfg.workers = 0;
        cfg.journal = Some(journal_path.clone());
        cfg.cache_dir = Some(cache_dir.clone());
    }));
    let mut ids = Vec::new();
    for seed in [201, 202, 203] {
        let resp = submit_job(&addr, "resume", &tiny_spec(seed)).unwrap();
        assert_eq!(resp.status, 202);
        ids.push(extract_id(&resp.text()));
    }
    // Hard stop: shutdown endpoint stops the accept loop; queued jobs
    // were never run (workers = 0), exactly like a kill mid-backlog.
    shutdown(&addr, handle);

    // Phase 2: a new server over the same journal resumes the queue.
    let server = Server::bind(ephemeral(|cfg| {
        cfg.workers = 2;
        cfg.journal = Some(journal_path.clone());
        cfg.cache_dir = Some(cache_dir.clone());
    }))
    .unwrap();
    assert_eq!(server.resumed_queue_len(), 3, "all queued jobs resumed");
    let handle = server.spawn();
    let addr = handle.addr.to_string();

    for id in &ids {
        let status = wait_done(&addr, id);
        assert!(status.contains("\"ok\":true"), "job {id}: {status}");
    }

    // No duplication: the journal holds exactly one Submitted and one
    // Completed per job id, and every job simulated exactly once.
    shutdown(&addr, handle);
    let (_journal, events) = ServeJournal::open(&journal_path).unwrap();
    for id in &ids {
        let submitted = events
            .iter()
            .filter(|e| matches!(e, ServeEvent::Submitted { id: jid, .. } if jid == id))
            .count();
        let completed = events
            .iter()
            .filter(|e| matches!(e, ServeEvent::Completed { id: jid, .. } if jid == id))
            .count();
        assert_eq!(submitted, 1, "job {id} submitted once");
        assert_eq!(completed, 1, "job {id} completed once");
    }
    let fresh_compute = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                ServeEvent::Completed {
                    ok: true,
                    cached: false,
                    ..
                }
            )
        })
        .count();
    assert_eq!(fresh_compute, 3, "each job simulated exactly once");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_tolerates_a_torn_journal_line() {
    let dir = std::env::temp_dir().join("tempriv_serve_torn_e2e");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal_path = dir.join("serve.jsonl");

    // Accept two jobs, then simulate a crash mid-append of a third.
    let (addr, handle) = spawn_server(ephemeral(|cfg| {
        cfg.workers = 0;
        cfg.journal = Some(journal_path.clone());
    }));
    for seed in [301, 302] {
        assert_eq!(
            submit_job(&addr, "torn", &tiny_spec(seed)).unwrap().status,
            202
        );
    }
    shutdown(&addr, handle);
    let mut text = std::fs::read_to_string(&journal_path).unwrap();
    text.push_str("{\"Submitted\":{\"seq\":9,\"id\":\"j9\",\"tena");
    std::fs::write(&journal_path, &text).unwrap();

    // Restart: both intact jobs resume; the torn line is repaired away.
    let server = Server::bind(ephemeral(|cfg| {
        cfg.workers = 2;
        cfg.journal = Some(journal_path.clone());
    }))
    .unwrap();
    assert_eq!(server.resumed_queue_len(), 2);
    let handle = server.spawn();
    let addr = handle.addr.to_string();
    let j1 = wait_done(&addr, "j1");
    assert!(j1.contains("\"ok\":true"));
    shutdown(&addr, handle);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_job_exports_one_chrome_timeline_with_a_consistent_trace_id() {
    let (addr, handle) = spawn_server(ephemeral(|_| {}));

    // Untraced job first: the trace endpoint refuses politely.
    let plain = submit_job(&addr, "trace", &tiny_spec(41)).unwrap();
    let plain_id = extract_id(&plain.text());
    wait_done(&addr, &plain_id);
    let refused = request(
        &addr,
        "GET",
        &format!("/v1/jobs/{plain_id}/trace"),
        &[],
        &[],
    )
    .unwrap();
    assert_eq!(refused.status, 404);
    assert!(refused.text().contains("\\\"trace\\\":true"));

    // Traced two-point job: one Chrome JSON with serve + queue + job +
    // scenario spans all carrying the same trace id.
    let spec = "{\"experiment\":\"fig2\",\"inv_lambdas\":[4.0,6.0],\
                \"packets_per_source\":40,\"seed\":42,\"trace\":true}";
    let resp = submit_job(&addr, "trace", spec).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.text());
    let id = extract_id(&resp.text());
    wait_done(&addr, &id);
    let trace = request(&addr, "GET", &format!("/v1/jobs/{id}/trace"), &[], &[]).unwrap();
    assert_eq!(trace.status, 200, "{}", trace.text());
    let body = trace.text();
    assert!(body.starts_with("{\"traceEvents\":["), "{body}");
    assert!(body.trim_end().ends_with("]}"), "{body}");
    // The request span, queue-wait span, per-point job spans, phase
    // bands, and packet-residence events all ride along.
    assert!(body.contains(&format!("POST /v1/jobs {id}")));
    assert!(body.contains("queue wait"));
    assert!(body.contains("\"job 0\""));
    assert!(body.contains("\"job 1\""));
    assert!(body.contains("engine_loop"));
    assert!(body.contains("residence"), "flight events merged in");
    // Exactly one trace id across every span event.
    let ids: std::collections::BTreeSet<&str> = body
        .split("\"trace_id\":\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert_eq!(ids.len(), 1, "single trace id end to end: {ids:?}");

    // The queue-wait histogram saw the cold jobs.
    let metrics = request(&addr, "GET", "/metrics", &[], &[]).unwrap().text();
    assert!(
        metrics.contains("tempriv_serve_queue_wait_ms_count"),
        "{metrics}"
    );

    shutdown(&addr, handle);
}

#[test]
fn digest_endpoint_returns_the_same_root_warm_and_cold() {
    let (addr, handle) = spawn_server(ephemeral(|_| {}));

    // Cold run: simulated, audit digests frozen next to the rows.
    let cold = submit_job(&addr, "audit", &tiny_spec(61)).unwrap();
    assert_eq!(cold.status, 202, "{}", cold.text());
    let cold_id = extract_id(&cold.text());
    wait_done(&addr, &cold_id);
    let cold_digest = request(
        &addr,
        "GET",
        &format!("/v1/jobs/{cold_id}/digest"),
        &[],
        &[],
    )
    .unwrap();
    assert_eq!(cold_digest.status, 200, "{}", cold_digest.text());
    let cold_body = cold_digest.text();
    assert!(cold_body.contains("\"root\":\""), "{cold_body}");
    assert!(cold_body.contains("\"checkpoints\""), "{cold_body}");

    // Warm hit: no simulation, but the digest response — and therefore
    // the run root — is byte-identical to the cold run's.
    let warm = submit_job(&addr, "audit", &tiny_spec(61)).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.text());
    assert!(warm.text().contains("\"cached\":true"));
    let warm_id = extract_id(&warm.text());
    let warm_digest = request(
        &addr,
        "GET",
        &format!("/v1/jobs/{warm_id}/digest"),
        &[],
        &[],
    )
    .unwrap();
    assert_eq!(warm_digest.status, 200);
    assert_eq!(
        warm_digest.body, cold_digest.body,
        "warm digest must be byte-identical to the cold run's"
    );

    // A different seed gets a different root.
    let other = submit_job(&addr, "audit", &tiny_spec(62)).unwrap();
    let other_id = extract_id(&other.text());
    wait_done(&addr, &other_id);
    let other_digest = request(
        &addr,
        "GET",
        &format!("/v1/jobs/{other_id}/digest"),
        &[],
        &[],
    )
    .unwrap();
    assert_eq!(other_digest.status, 200);
    assert_ne!(
        other_digest.body, cold_digest.body,
        "a different seed diverges"
    );

    shutdown(&addr, handle);
}

#[test]
fn victim_job_digests_and_streams_every_job_not_just_every_point() {
    let (addr, handle) = spawn_server(ephemeral(|_| {}));

    // One sweep point under four victim policies: four runtime jobs.
    let spec = "{\"experiment\":\"victim\",\"inv_lambdas\":[4.0],\
                \"packets_per_source\":40,\"seed\":13,\"privacy_interval\":50}";
    let resp = submit_job(&addr, "victim", spec).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.text());
    let id = extract_id(&resp.text());

    let frames = read_sse(&addr, &format!("/v1/jobs/{id}/privacy")).unwrap();
    let events: Vec<&str> = frames.iter().map(|(event, _)| event.as_str()).collect();
    assert_eq!(
        events,
        ["point", "point", "point", "point", "done"],
        "{frames:?}"
    );
    assert!(frames[3].1.contains("\"point\":3"));
    assert!(frames[4].1.contains("\"points\":4"));

    wait_done(&addr, &id);
    let digest = request(&addr, "GET", &format!("/v1/jobs/{id}/digest"), &[], &[]).unwrap();
    assert_eq!(digest.status, 200, "{}", digest.text());
    let digest: JobDigest = serde_json::from_str(&digest.text()).unwrap();
    assert_eq!(digest.points.len(), 4);
    assert!(!digest.root.is_empty());

    shutdown(&addr, handle);
}

#[test]
fn a_digest_cached_under_the_old_key_is_not_served() {
    let dir = std::env::temp_dir().join(format!("tempriv_e2e_stale_digest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let body = "{\"experiment\":\"victim\",\"inv_lambdas\":[4.0],\
                \"packets_per_source\":40,\"seed\":71}";
    // What an older server froze in its cache: the rows, plus a digest
    // that folds only the first of the sweep's four jobs, stored under
    // the old `audit|` key.
    {
        let spec = JobSpec::from_body(body.as_bytes()).unwrap();
        let sink = Arc::new(TelemetrySink::new());
        let rows = execute(&spec, Some(Arc::clone(&sink))).unwrap();
        let truncated = collect_digest(&sink, 1).expect("audited");
        let cache = ResultCache::on_disk(&dir).unwrap();
        cache.put(&spec.key(), &rows);
        cache.put(&format!("audit|{}", spec.key()), &truncated);
    }

    let (addr, handle) = spawn_server(ephemeral(|cfg| cfg.cache_dir = Some(dir.clone())));
    let warm = submit_job(&addr, "stale", body).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.text());
    assert!(warm.text().contains("\"cached\":true"));
    let id = extract_id(&warm.text());
    let digest = request(&addr, "GET", &format!("/v1/jobs/{id}/digest"), &[], &[]).unwrap();
    assert_eq!(digest.status, 404, "{}", digest.text());
    assert!(
        digest.text().contains("predates the audit"),
        "{}",
        digest.text()
    );

    shutdown(&addr, handle);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_routes_and_bad_specs_are_clean_errors() {
    let (addr, handle) = spawn_server(ephemeral(|_| {}));

    let missing = request(&addr, "GET", "/v1/jobs/j999", &[], &[]).unwrap();
    assert_eq!(missing.status, 404);
    assert!(missing.text().contains("no such job"));

    let bad = submit_job(&addr, "t", "{\"experiment\":\"nope\"}").unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("unknown experiment"));

    let nowhere = request(&addr, "GET", "/v2/other", &[], &[]).unwrap();
    assert_eq!(nowhere.status, 404);

    let wrong_method = request(&addr, "DELETE", "/v1/jobs", &[], &[]).unwrap();
    assert_eq!(wrong_method.status, 405);

    shutdown(&addr, handle);
}

#[test]
fn a_schedule_past_the_clock_is_a_400_and_leaves_the_worker_free() {
    // One worker: had the overflowing spec been admitted, its panic
    // would have left it `running` and the next job queued behind it.
    let (addr, handle) = spawn_server(ephemeral(|cfg| cfg.workers = 1));
    let bad = submit_job(
        &addr,
        "t",
        "{\"experiment\":\"fig2\",\"inv_lambdas\":[1e13],\"packets_per_source\":20}",
    )
    .unwrap();
    assert_eq!(bad.status, 400, "{}", bad.text());
    assert!(
        bad.text().contains("overflow the simulation clock"),
        "{}",
        bad.text()
    );

    let next = submit_job(&addr, "t", &tiny_spec(13)).unwrap();
    assert_eq!(next.status, 202, "{}", next.text());
    let id = extract_id(&next.text());
    let status = request(
        &addr,
        "GET",
        &format!("/v1/jobs/{id}?wait_ms=30000"),
        &[],
        &[],
    )
    .unwrap()
    .text();
    assert!(status.contains("\"state\":\"done\""), "{status}");
    assert!(status.contains("\"ok\":true"), "{status}");

    shutdown(&addr, handle);
}

fn extract_id(body: &str) -> String {
    body.split("\"id\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("id in response")
        .to_string()
}
