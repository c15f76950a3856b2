//! The serve core: a threaded HTTP server over the job store.
//!
//! Architecture: one accept loop (thread-per-connection handlers, each
//! request short-lived except the SSE stream), a fixed pool of job
//! workers draining a FIFO queue, and a shared [`ResultCache`] keyed by
//! canonical spec digests. Submissions whose key is already cached are
//! answered synchronously — they never consume a queue slot or tenant
//! quota. Cold jobs are journaled on admission and completion so a
//! killed server rebuilds its exact queue on restart ([`Server::bind`]
//! replays the journal: submitted-without-completed events re-enqueue in
//! sequence order, completed ones become done entries served from the
//! cache).
//!
//! Graceful shutdown (`POST /v1/shutdown`) stops the accept loop and
//! lets workers finish their in-flight job; still-queued jobs stay in
//! the journal for the next start — by design, that is the crash-resume
//! path exercised on every restart.

use crate::admission::Admission;
use crate::http::{write_sse_event, write_sse_preamble, Request, Response};
use crate::jobs::{collect_digest, digest_key, execute, JobSpec};
use crate::journal::{ServeEvent, ServeJournal};
use crate::metrics::ServeMetrics;
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tempriv_core::telemetry::{chrome_timeline, parse_blobs};
use tempriv_runtime::{content_digest, BlobKind, ResultCache, TelemetrySink};
use tempriv_telemetry::{SpanRecord, TraceCtx};

/// Server configuration (the `tempriv serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7077` (port 0 = ephemeral).
    pub addr: String,
    /// Job worker threads (0 = none; jobs queue until restart — only
    /// useful in resume tests).
    pub workers: usize,
    /// On-disk result cache directory (`None` = in-memory).
    pub cache_dir: Option<PathBuf>,
    /// Journal path (`None` = no durability; queue dies with the
    /// process).
    pub journal: Option<PathBuf>,
    /// Bound on queued-or-running cold jobs.
    pub max_queue: usize,
    /// Per-tenant bound on queued-or-running cold jobs.
    pub tenant_quota: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7077".to_string(),
            workers: 2,
            cache_dir: None,
            journal: None,
            max_queue: 64,
            tenant_quota: 16,
        }
    }
}

/// A finished job's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Whether the job produced a result.
    pub ok: bool,
    /// Whether the result came from the cache without simulation.
    pub cached: bool,
    /// Wall-clock milliseconds spent.
    pub wall_ms: u64,
    /// Digest of the serialized result (empty on error).
    pub digest: String,
    /// Error message when `ok` is false.
    pub error: Option<String>,
}

#[derive(Debug, Clone, PartialEq)]
enum JobState {
    Queued,
    Running,
    Done(Outcome),
}

struct JobEntry {
    id: String,
    tenant: String,
    key: String,
    spec: JobSpec,
    state: JobState,
    /// Live telemetry sink while (and after) the job runs with a privacy
    /// interval or span tracing; the SSE endpoint polls it and the trace
    /// endpoint reads its span/flight blobs.
    live: Option<Arc<TelemetrySink>>,
    /// The request's trace context, minted at submission when the spec
    /// asks for tracing.
    ctx: Option<TraceCtx>,
    /// When the submission was accepted (request span start).
    submitted_at: Instant,
    /// When a worker picked the job up (queue-wait span end).
    picked_at: Option<Instant>,
    /// When the job finished (request span end).
    done_at: Option<Instant>,
}

struct StoreInner {
    entries: HashMap<String, JobEntry>,
    queue: VecDeque<String>,
    next_seq: u64,
    admission: Admission,
    running: usize,
}

struct ServerState {
    cfg: ServeConfig,
    addr: SocketAddr,
    cache: ResultCache,
    journal: Option<ServeJournal>,
    inner: Mutex<StoreInner>,
    queue_cv: Condvar,
    done_cv: Condvar,
    metrics: Mutex<ServeMetrics>,
    shutdown: AtomicBool,
    /// Server start: the zero point of every exported trace timeline.
    epoch: Instant,
}

/// A bound (not yet running) server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    /// The bound address (useful with ephemeral ports).
    pub addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// Waits for the server to shut down (`POST /v1/shutdown`).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

impl Server {
    /// Binds the listener, opens cache and journal, and replays the
    /// journal into the queue.
    ///
    /// # Errors
    ///
    /// Returns a message when the address, cache directory, or journal
    /// cannot be opened.
    pub fn bind(cfg: ServeConfig) -> Result<Server, String> {
        // Turn the counting allocator on for the server's lifetime so
        // the /metrics memory gauges read live values (no-op unless the
        // binary installed it as #[global_allocator]).
        tempriv_telemetry::memprof::set_enabled(true);
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve local addr: {e}"))?;
        let cache = match &cfg.cache_dir {
            Some(dir) => ResultCache::on_disk(dir)
                .map_err(|e| format!("cannot open cache dir {}: {e}", dir.display()))?,
            None => ResultCache::in_memory(),
        };

        let mut inner = StoreInner {
            entries: HashMap::new(),
            queue: VecDeque::new(),
            next_seq: 1,
            admission: Admission::new(cfg.max_queue, cfg.tenant_quota),
            running: 0,
        };

        let journal = match &cfg.journal {
            None => None,
            Some(path) => {
                let (journal, events) = ServeJournal::open(path)?;
                replay(&mut inner, &events);
                Some(journal)
            }
        };

        let state = Arc::new(ServerState {
            cfg,
            addr,
            cache,
            journal,
            inner: Mutex::new(inner),
            queue_cv: Condvar::new(),
            done_cv: Condvar::new(),
            metrics: Mutex::new(ServeMetrics::new()),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
        });
        Ok(Server { listener, state })
    }

    /// The bound address.
    ///
    /// # Panics
    ///
    /// Never: the address was resolved at bind time.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Jobs replayed from the journal that are waiting in the queue.
    #[must_use]
    pub fn resumed_queue_len(&self) -> usize {
        self.state.inner.lock().expect("store lock").queue.len()
    }

    /// Runs the accept loop until shutdown; blocks the calling thread.
    pub fn run(self) {
        let state = self.state;
        let workers: Vec<_> = (0..state.cfg.workers)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();

        for conn in self.listener.incoming() {
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let state = Arc::clone(&state);
            std::thread::spawn(move || handle_connection(&state, stream));
        }

        // Wake every worker so it observes the shutdown flag.
        state.queue_cv.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// Runs the server on a background thread.
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { addr, thread }
    }
}

/// Rebuilds the store from replayed journal events: completed jobs
/// become done entries (results live in the cache), submitted-without-
/// completed jobs re-enter the queue in sequence order with their
/// admission slots re-reserved.
fn replay(inner: &mut StoreInner, events: &[ServeEvent]) {
    for event in events {
        match event {
            ServeEvent::Submitted {
                seq,
                id,
                tenant,
                key,
                spec_json,
            } => {
                let Ok(spec) = serde_json::from_str::<JobSpec>(spec_json) else {
                    continue;
                };
                inner.next_seq = inner.next_seq.max(seq + 1);
                let ctx = trace_ctx_for(&spec, id);
                inner.entries.insert(
                    id.clone(),
                    JobEntry {
                        id: id.clone(),
                        tenant: tenant.clone(),
                        key: key.clone(),
                        spec,
                        state: JobState::Queued,
                        live: None,
                        ctx,
                        submitted_at: Instant::now(),
                        picked_at: None,
                        done_at: None,
                    },
                );
                inner.queue.push_back(id.clone());
                inner.admission.force_admit(tenant);
            }
            ServeEvent::Completed {
                id,
                ok,
                cached,
                wall_ms,
                outcome_digest,
                error,
            } => {
                if let Some(entry) = inner.entries.get_mut(id) {
                    entry.state = JobState::Done(Outcome {
                        ok: *ok,
                        cached: *cached,
                        wall_ms: *wall_ms,
                        digest: outcome_digest.clone(),
                        error: error.clone(),
                    });
                    inner.queue.retain(|queued| queued != id);
                    inner.admission.release(&entry.tenant);
                }
            }
        }
    }
}

/// The deterministic trace context of one submission: derived from the
/// spec seed and the job id, so resubmitting the same id reproduces the
/// same ids end to end. `None` when the spec does not ask for tracing.
fn trace_ctx_for(spec: &JobSpec, id: &str) -> Option<TraceCtx> {
    spec.trace.then(|| TraceCtx::root(spec.seed, id))
}

fn worker_loop(state: &ServerState) {
    loop {
        let id = {
            let mut inner = state.inner.lock().expect("store lock");
            loop {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = inner.queue.pop_front() {
                    break id;
                }
                let (guard, _) = state
                    .queue_cv
                    .wait_timeout(inner, Duration::from_millis(200))
                    .expect("queue wait");
                inner = guard;
            }
        };
        run_job(state, &id);
    }
}

fn run_job(state: &ServerState, id: &str) {
    let started = Instant::now();
    let (spec, key, tenant, sink, queue_wait_ms) = {
        let mut inner = state.inner.lock().expect("store lock");
        let Some(entry) = inner.entries.get_mut(id) else {
            return;
        };
        entry.state = JobState::Running;
        entry.picked_at = Some(started);
        let queue_wait_ms = started
            .saturating_duration_since(entry.submitted_at)
            .as_secs_f64()
            * 1e3;
        // Every cold job runs instrumented: the determinism audit needs
        // a sink even when neither SSE privacy streaming nor span
        // tracing was requested. Only the trace export and the SSE
        // stream read the sink after pickup, so only those jobs keep it
        // on the entry; a plain job's audit is frozen into the cache.
        let sink = Arc::new(TelemetrySink::new());
        if let Some(ctx) = entry.ctx {
            sink.set_root_ctx(ctx.trace_id, ctx.span_id);
        }
        if entry.spec.trace || entry.spec.privacy_interval > 0 {
            entry.live = Some(Arc::clone(&sink));
        }
        let picked = (
            entry.spec.clone(),
            entry.key.clone(),
            entry.tenant.clone(),
            sink,
            queue_wait_ms,
        );
        inner.running += 1;
        picked
    };
    {
        let mut metrics = state.metrics.lock().expect("metrics lock");
        metrics.observe_queue_wait(queue_wait_ms);
    }
    update_load(state);

    // A resumed duplicate (or a concurrent identical submission) may
    // already be cached: serve it without re-simulating.
    let outcome = match state.cache.get(&key) {
        Some(rows) => Outcome {
            ok: true,
            cached: true,
            wall_ms: started.elapsed().as_millis() as u64,
            digest: content_digest(rows.as_bytes()),
            error: None,
        },
        None => match execute(&spec, Some(Arc::clone(&sink))) {
            Ok(rows) => {
                state.cache.put(&key, &rows);
                // Freeze the cold run's audit digests alongside the
                // rows: a warm hit later serves these exact bytes, so
                // warm and cold digest responses share one root.
                if let Some(digest) = collect_digest(&sink, spec.points()) {
                    state.cache.put(&digest_key(&key), &digest);
                }
                Outcome {
                    ok: true,
                    cached: false,
                    wall_ms: started.elapsed().as_millis() as u64,
                    digest: content_digest(rows.as_bytes()),
                    error: None,
                }
            }
            Err(message) => Outcome {
                ok: false,
                cached: false,
                wall_ms: started.elapsed().as_millis() as u64,
                digest: String::new(),
                error: Some(message),
            },
        },
    };

    if let Some(journal) = &state.journal {
        let _ = journal.append(&ServeEvent::Completed {
            id: id.to_string(),
            ok: outcome.ok,
            cached: outcome.cached,
            wall_ms: outcome.wall_ms,
            outcome_digest: outcome.digest.clone(),
            error: outcome.error.clone(),
        });
    }
    {
        let mut metrics = state.metrics.lock().expect("metrics lock");
        metrics.job_finished(outcome.ok, outcome.wall_ms as f64);
    }
    {
        let mut inner = state.inner.lock().expect("store lock");
        if let Some(entry) = inner.entries.get_mut(id) {
            entry.state = JobState::Done(outcome);
            entry.done_at = Some(Instant::now());
        }
        inner.running -= 1;
        inner.admission.release(&tenant);
    }
    update_load(state);
    state.done_cv.notify_all();
}

fn update_load(state: &ServerState) {
    let (queued, running) = {
        let inner = state.inner.lock().expect("store lock");
        (inner.queue.len(), inner.running)
    };
    let mut metrics = state.metrics.lock().expect("metrics lock");
    metrics.set_load(queued, running);
}

fn handle_connection(state: &ServerState, stream: TcpStream) {
    let started = Instant::now();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    let request = match Request::parse(&mut reader) {
        Ok(Some(request)) => request,
        Ok(None) => return,
        Err(e) => {
            let _ = Response::error(400, &e.to_string()).write_to(&mut stream);
            return;
        }
    };

    // The SSE endpoint takes over the raw stream; everything else
    // produces a Response.
    if request.method == "GET"
        && request.path.starts_with("/v1/jobs/")
        && request.path.ends_with("/privacy")
    {
        stream_privacy(state, &request, &mut stream);
    } else {
        let response = route(state, &request);
        let _ = response.write_to(&mut stream);
        // Shutdown takes effect only once its reply is written: after
        // the accept loop sees the flag the process may exit, taking
        // this thread (and an unsent reply) with it.
        if request.method == "POST" && request.path == "/v1/shutdown" {
            state.shutdown.store(true, Ordering::SeqCst);
            state.queue_cv.notify_all();
            // Poke the accept loop so it observes the flag.
            let _ = TcpStream::connect(state.addr);
        }
    }
    let mut metrics = state.metrics.lock().expect("metrics lock");
    metrics.observe_request(started.elapsed().as_secs_f64() * 1e3);
}

fn route(state: &ServerState, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}"),
        ("GET", "/metrics") => {
            update_load(state);
            let mut metrics = state.metrics.lock().expect("metrics lock");
            metrics.refresh_mem();
            Response::text(200, metrics.to_prometheus())
        }
        ("POST", "/v1/shutdown") => Response::json(200, "{\"status\":\"shutting down\"}"),
        ("POST", "/v1/jobs") => submit(state, request),
        ("GET", path) => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                if let Some(id) = rest.strip_suffix("/result") {
                    return cached_answer(state, id, str::to_string, "result evicted from cache");
                }
                if let Some(id) = rest.strip_suffix("/trace") {
                    return job_trace(state, id);
                }
                if let Some(id) = rest.strip_suffix("/digest") {
                    return cached_answer(
                        state,
                        id,
                        digest_key,
                        "no digest recorded for this job (result predates the audit)",
                    );
                }
                if !rest.contains('/') {
                    return job_status(state, rest, request);
                }
            }
            Response::error(404, &format!("no such endpoint: {path}"))
        }
        (method, path) => Response::error(405, &format!("{method} {path} not supported")),
    }
}

/// The `X-Tenant` header, sanitized for use in metric labels.
fn tenant_of(request: &Request) -> String {
    let raw = request.header("x-tenant").unwrap_or("anon");
    let clean: String = raw
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        .take(32)
        .collect();
    if clean.is_empty() {
        "anon".to_string()
    } else {
        clean
    }
}

fn submit(state: &ServerState, request: &Request) -> Response {
    let tenant = tenant_of(request);
    let spec = match JobSpec::from_body(&request.body) {
        Ok(spec) => spec,
        Err(message) => return Response::error(400, &message),
    };
    let key = spec.key();

    // Warm path: the result already exists, so the submission costs no
    // simulation — answer immediately, bypassing admission entirely.
    let warm = state.cache.get(&key).is_some();
    {
        let mut metrics = state.metrics.lock().expect("metrics lock");
        metrics.cache_lookup(warm);
    }
    if warm {
        let digest = state
            .cache
            .get(&key)
            .map(|rows| content_digest(rows.as_bytes()))
            .unwrap_or_default();
        let mut inner = state.inner.lock().expect("store lock");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let id = format!("j{seq}");
        if let Some(journal) = &state.journal {
            let _ = journal.append(&ServeEvent::Submitted {
                seq,
                id: id.clone(),
                tenant: tenant.clone(),
                key: key.clone(),
                spec_json: spec.canonical_json(),
            });
            let _ = journal.append(&ServeEvent::Completed {
                id: id.clone(),
                ok: true,
                cached: true,
                wall_ms: 0,
                outcome_digest: digest.clone(),
                error: None,
            });
        }
        let ctx = trace_ctx_for(&spec, &id);
        let now = Instant::now();
        inner.entries.insert(
            id.clone(),
            JobEntry {
                id: id.clone(),
                tenant,
                key,
                spec,
                state: JobState::Done(Outcome {
                    ok: true,
                    cached: true,
                    wall_ms: 0,
                    digest,
                    error: None,
                }),
                live: None,
                ctx,
                submitted_at: now,
                picked_at: None,
                done_at: Some(now),
            },
        );
        return Response::json(
            200,
            format!("{{\"id\":\"{id}\",\"state\":\"done\",\"cached\":true}}"),
        );
    }

    // Cold path: must pass admission, then queue + journal.
    let mut inner = state.inner.lock().expect("store lock");
    if let Err(reason) = inner.admission.try_admit(&tenant) {
        let retry = inner.admission.retry_after_s(state.cfg.workers);
        drop(inner);
        let mut metrics = state.metrics.lock().expect("metrics lock");
        metrics.reject(&tenant);
        return Response::error(429, &format!("admission rejected: {}", reason.label()))
            .with_header("Retry-After", &retry.to_string());
    }
    let seq = inner.next_seq;
    inner.next_seq += 1;
    let id = format!("j{seq}");
    if let Some(journal) = &state.journal {
        let _ = journal.append(&ServeEvent::Submitted {
            seq,
            id: id.clone(),
            tenant: tenant.clone(),
            key: key.clone(),
            spec_json: spec.canonical_json(),
        });
    }
    let ctx = trace_ctx_for(&spec, &id);
    inner.entries.insert(
        id.clone(),
        JobEntry {
            id: id.clone(),
            tenant: tenant.clone(),
            key,
            spec,
            state: JobState::Queued,
            live: None,
            ctx,
            submitted_at: Instant::now(),
            picked_at: None,
            done_at: None,
        },
    );
    inner.queue.push_back(id.clone());
    drop(inner);
    state.queue_cv.notify_all();
    {
        let mut metrics = state.metrics.lock().expect("metrics lock");
        metrics.admit(&tenant);
    }
    update_load(state);
    Response::json(
        202,
        format!("{{\"id\":\"{id}\",\"state\":\"queued\",\"cached\":false}}"),
    )
}

fn job_status(state: &ServerState, id: &str, request: &Request) -> Response {
    let wait_ms = match request.query_as("wait_ms", 0u64) {
        Ok(ms) => ms.min(30_000),
        Err(message) => return Response::error(400, &message),
    };
    let deadline = Instant::now() + Duration::from_millis(wait_ms);
    let mut inner = state.inner.lock().expect("store lock");
    loop {
        let Some(entry) = inner.entries.get(id) else {
            return Response::error(404, &format!("no such job: {id}"));
        };
        match &entry.state {
            JobState::Done(outcome) => {
                let result = if outcome.ok {
                    state.cache.get(&entry.key)
                } else {
                    None
                };
                return Response::json(200, status_json(entry, outcome, result.as_deref()));
            }
            state_now => {
                let label = match state_now {
                    JobState::Queued => "queued",
                    JobState::Running => "running",
                    JobState::Done(_) => unreachable!(),
                };
                let now = Instant::now();
                if now >= deadline {
                    return Response::json(
                        200,
                        format!(
                            "{{\"id\":\"{}\",\"state\":\"{label}\",\"cached\":false}}",
                            entry.id
                        ),
                    );
                }
                let (guard, _) = state
                    .done_cv
                    .wait_timeout(inner, deadline - now)
                    .expect("done wait");
                inner = guard;
            }
        }
    }
}

fn status_json(entry: &JobEntry, outcome: &Outcome, result: Option<&str>) -> String {
    let mut out = format!(
        "{{\"id\":\"{}\",\"state\":\"done\",\"ok\":{},\"cached\":{},\
         \"wall_ms\":{},\"digest\":\"{}\"",
        entry.id, outcome.ok, outcome.cached, outcome.wall_ms, outcome.digest
    );
    if let Some(error) = &outcome.error {
        out.push_str(",\"error\":");
        out.push_str(&serde_json::to_string(error).expect("string serializes"));
    }
    match result {
        // The raw cached bytes are embedded verbatim: warm and cold
        // responses of the same spec embed identical result bytes.
        Some(rows) => {
            out.push_str(",\"result\":");
            out.push_str(rows);
        }
        None if outcome.ok => out.push_str(",\"result\":null"),
        None => {}
    }
    out.push('}');
    out
}

/// Serves what a finished job left in the cache under `key(job key)`:
/// its result rows, or the determinism-audit digest summary a cold run
/// froze next to them. Warm submissions of the same spec share the cache
/// key, so they return the byte-identical bytes the cold run produced.
/// `missing` is the 404 text when the cache holds no such entry.
fn cached_answer(
    state: &ServerState,
    id: &str,
    key: fn(&str) -> String,
    missing: &str,
) -> Response {
    let inner = state.inner.lock().expect("store lock");
    let Some(entry) = inner.entries.get(id) else {
        return Response::error(404, &format!("no such job: {id}"));
    };
    match &entry.state {
        JobState::Done(outcome) if outcome.ok => match state.cache.get(&key(&entry.key)) {
            Some(body) => Response::json(200, body),
            None => Response::error(404, missing),
        },
        JobState::Done(outcome) => {
            Response::error(404, outcome.error.as_deref().unwrap_or("job failed"))
        }
        _ => Response::error(404, &format!("job {id} not finished")),
    }
}

/// Child index reserved for the queue-wait span, outside the runtime's
/// job-index range (at most 64 sweep points of a few cases each).
const QUEUE_SPAN_CHILD: u64 = 1 << 32;

/// Exports one traced job's end-to-end Chrome trace: the serve request
/// span, its queue-wait child, the runtime job/scenario spans and engine
/// phase bands read from the job's sink, and the flight recorder's
/// packet residences — one file, one trace id, loadable in Perfetto.
///
/// Wall-clock spans are rebased onto the server epoch so every layer
/// shares one clock; flight events keep their simulation-time axis on
/// separate process rows.
#[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
fn job_trace(state: &ServerState, id: &str) -> Response {
    let (ctx, jobs, submitted_at, picked_at, done_at, sink) = {
        let inner = state.inner.lock().expect("store lock");
        let Some(entry) = inner.entries.get(id) else {
            return Response::error(404, &format!("no such job: {id}"));
        };
        let Some(ctx) = entry.ctx else {
            return Response::error(
                404,
                &format!("job {id} was not submitted with \"trace\":true"),
            );
        };
        (
            ctx,
            entry.spec.points(),
            entry.submitted_at,
            entry.picked_at,
            entry.done_at,
            entry.live.clone(),
        )
    };
    let epoch = state.epoch;
    let end = done_at.unwrap_or_else(Instant::now);
    let mut spans = vec![SpanRecord {
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        parent_id: 0,
        name: format!("POST /v1/jobs {id}"),
        layer: "serve".to_string(),
        start_us: submitted_at.saturating_duration_since(epoch).as_micros() as u64,
        dur_us: end.saturating_duration_since(submitted_at).as_micros() as u64,
    }];
    if let Some(picked) = picked_at {
        let queue_ctx = ctx.child(QUEUE_SPAN_CHILD);
        spans.push(SpanRecord {
            trace_id: ctx.trace_id,
            span_id: queue_ctx.span_id,
            parent_id: ctx.span_id,
            name: "queue wait".to_string(),
            layer: "queue".to_string(),
            start_us: submitted_at.saturating_duration_since(epoch).as_micros() as u64,
            dur_us: picked.saturating_duration_since(submitted_at).as_micros() as u64,
        });
    }
    // Job-local timestamps count from the sink's epoch, which the
    // worker created at pickup: rebase them onto the server epoch.
    let offset = picked_at.map_or(0i64, |p| {
        p.saturating_duration_since(epoch).as_micros() as i64
    });
    // The live sink's blobs, indexed by runtime job.
    let blobs = |kind| match &sink {
        Some(sink) => (0..jobs).map(|i| sink.get(kind, i)).collect(),
        None => Vec::new(),
    };
    let timeline = parse_blobs(BlobKind::Spans, &blobs(BlobKind::Spans)).and_then(|job_spans| {
        let traces = parse_blobs(BlobKind::Trace, &blobs(BlobKind::Trace))?;
        Ok(chrome_timeline(spans, &job_spans, &traces, &[], offset))
    });
    match timeline {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::error(500, &e),
    }
}

/// Streams per-job privacy blobs as SSE `point` events while the job
/// runs (one per runtime job, [`JobSpec::points`]), then a final `done`
/// event. Jobs without a privacy interval (or answered from cache) go
/// straight to `done`.
fn stream_privacy(state: &ServerState, request: &Request, stream: &mut TcpStream) {
    let id = request
        .path
        .strip_prefix("/v1/jobs/")
        .and_then(|rest| rest.strip_suffix("/privacy"))
        .unwrap_or_default()
        .to_string();
    let jobs = {
        let inner = state.inner.lock().expect("store lock");
        let Some(entry) = inner.entries.get(&id) else {
            let _ = Response::error(404, &format!("no such job: {id}")).write_to(stream);
            return;
        };
        entry.spec.points()
    };
    if write_sse_preamble(stream).is_err() {
        return;
    }

    let mut next_point = 0usize;
    loop {
        let (sink, done) = {
            let inner = state.inner.lock().expect("store lock");
            let Some(entry) = inner.entries.get(&id) else {
                return;
            };
            (entry.live.clone(), matches!(entry.state, JobState::Done(_)))
        };
        if let Some(sink) = &sink {
            while next_point < jobs {
                let Some(blob) = sink.get(BlobKind::Privacy, next_point) else {
                    break;
                };
                let frame = format!("{{\"point\":{next_point},\"privacy\":{blob}}}");
                if write_sse_event(stream, "point", &frame).is_err() {
                    return;
                }
                next_point += 1;
            }
        }
        if done {
            let payload = {
                let inner = state.inner.lock().expect("store lock");
                match inner.entries.get(&id).map(|e| &e.state) {
                    Some(JobState::Done(outcome)) => format!(
                        "{{\"ok\":{},\"cached\":{},\"points\":{next_point}}}",
                        outcome.ok, outcome.cached
                    ),
                    _ => "{\"ok\":false}".to_string(),
                }
            };
            let _ = write_sse_event(stream, "done", &payload);
            let _ = stream.flush();
            return;
        }
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
