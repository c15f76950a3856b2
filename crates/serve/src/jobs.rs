//! Job specs and their execution.
//!
//! A job is one sweep of a named experiment on the paper's Figure-1
//! topology. Clients POST a [`JobSpec`] (partial fields fill in from the
//! smoke defaults), the server canonicalizes it, derives a
//! content-addressed key, and either answers from the shared result
//! cache (warm) or queues the sweep (cold). [`execute`] runs a cold job
//! on a single-worker [`Runtime`] — the serve layer owns concurrency, so
//! the inner sweep must not fan out on its own — and returns the rows as
//! canonical JSON, which is what gets cached and served byte-for-byte.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tempriv_core::experiment::{Sweep, SweepParams};
use tempriv_core::sharded::MAX_SHARDS;
use tempriv_core::telemetry::JobAudit;
use tempriv_net::FlowId;
use tempriv_runtime::{content_digest, BlobKind, Runtime, TelemetrySink};
use tempriv_telemetry::DEFAULT_DIGEST_WINDOW;

/// A sweep submission. Every numeric field is optional in the wire form;
/// zero/empty means "use the smoke default", so a minimal request body is
/// just `{"experiment":"fig2"}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Which sweep to run: a [`Sweep::wire_name`].
    pub experiment: String,
    /// Inter-arrival times `1/λ` to sweep (empty = smoke default).
    #[serde(default)]
    pub inv_lambdas: Vec<f64>,
    /// Packets per source per run (0 = smoke default).
    #[serde(default)]
    pub packets_per_source: u32,
    /// Mean artificial delay per hop `1/μ` (0 = smoke default).
    #[serde(default)]
    pub delay_mean: f64,
    /// Buffer slots for limited-buffer scenarios (0 = smoke default).
    #[serde(default)]
    pub capacity: usize,
    /// Master seed (0 = smoke default).
    #[serde(default)]
    pub seed: u64,
    /// Streaming-privacy snapshot interval in events; 0 disables the
    /// observatory (and the job's SSE stream ends immediately).
    #[serde(default)]
    pub privacy_interval: usize,
    /// Enables cross-layer span tracing and the engine self-profiler:
    /// the job records wall-clock spans carrying the request's trace id
    /// plus per-scenario phase breakdowns, exposed at
    /// `GET /v1/jobs/:id/trace`. Part of the canonical spec, so traced
    /// and untraced submissions cache independently.
    #[serde(default)]
    pub trace: bool,
    /// Engine shards per simulation (0 = default 1 = serial). Sharded
    /// jobs run the partitioned parallel engine and cannot attach
    /// per-event instrumentation, so `shards > 1` rejects specs that
    /// also request privacy streaming or tracing. Part of the canonical
    /// spec: sharded and serial submissions cache independently.
    #[serde(default)]
    pub shards: u32,
}

impl JobSpec {
    /// Parses and canonicalizes a request body.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, an unknown experiment, or
    /// out-of-range parameters.
    pub fn from_body(body: &[u8]) -> Result<JobSpec, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let spec: JobSpec =
            serde_json::from_str(text).map_err(|e| format!("malformed job spec: {e}"))?;
        spec.canonicalize()
    }

    /// Fills defaulted fields and validates, producing the canonical form
    /// whose JSON is stable for cache keying.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown experiment or invalid parameters.
    pub fn canonicalize(mut self) -> Result<JobSpec, String> {
        Sweep::from_wire_name(&self.experiment)?;
        let smoke = SweepParams::smoke();
        if self.inv_lambdas.is_empty() {
            self.inv_lambdas = smoke.inv_lambdas.clone();
        }
        if self.packets_per_source == 0 {
            self.packets_per_source = smoke.packets_per_source;
        }
        if self.delay_mean == 0.0 {
            self.delay_mean = smoke.delay_mean;
        }
        if self.capacity == 0 {
            self.capacity = smoke.capacity;
        }
        if self.seed == 0 {
            self.seed = smoke.seed;
        }
        if self.shards == 0 {
            self.shards = 1;
        }
        if self.inv_lambdas.len() > 64 {
            return Err("at most 64 sweep points per job".to_string());
        }
        if self.packets_per_source > 100_000 {
            return Err("packets_per_source too large (max 100000)".to_string());
        }
        self.sweep_params().check()?;
        if self.shards > MAX_SHARDS {
            return Err(format!("at most {MAX_SHARDS} engine shards per simulation"));
        }
        if self.shards > 1 && (self.privacy_interval > 0 || self.trace) {
            return Err("sharded jobs cannot attach per-event instrumentation: \
                 drop privacy_interval/trace or set shards to 1"
                .to_string());
        }
        Ok(self)
    }

    /// Canonical JSON of the spec (call on a canonicalized spec).
    #[must_use]
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("spec serializes")
    }

    /// The content-addressed key a result of this spec is cached under.
    #[must_use]
    pub fn key(&self) -> String {
        content_digest(format!("serve|{}", self.canonical_json()).as_bytes())
    }

    /// Runtime jobs the sweep runs, from the [`Sweep`] table: one
    /// telemetry slot each, so one digest point, trace section and SSE
    /// privacy frame each. Sweeps with several cases per point
    /// (`victim`, `delay`, `mix`) run that many jobs per sweep point.
    #[must_use]
    pub fn points(&self) -> usize {
        Sweep::from_wire_name(&self.experiment).map_or(0, |sweep| sweep.jobs(&self.sweep_params()))
    }

    /// The core sweep parameters this spec describes.
    #[must_use]
    pub fn sweep_params(&self) -> SweepParams {
        SweepParams {
            inv_lambdas: self.inv_lambdas.clone(),
            packets_per_source: self.packets_per_source,
            delay_mean: self.delay_mean,
            capacity: self.capacity,
            report_flow: FlowId(0),
            seed: self.seed,
        }
    }
}

/// Runs a canonical spec to completion and returns the result rows as
/// canonical JSON. When `sink` is given, each job attaches its audit
/// digest, plus privacy, span and flight blobs when the spec asks for
/// them; the runtime streams privacy blobs into it as the sweep
/// progresses (the SSE endpoint polls the same sink). Per-node metrics
/// are switched off: no serve endpoint reads them.
///
/// # Errors
///
/// Returns a message when the runtime cannot be built.
pub fn execute(spec: &JobSpec, sink: Option<Arc<TelemetrySink>>) -> Result<String, String> {
    let mut builder = Runtime::builder().workers(1).sim_shards(spec.shards.max(1));
    if spec.shards > 1 {
        // Canonicalization already rejected instrumented sharded specs;
        // dropping the sink here routes every simulation through the
        // probe-free sharded path.
        let runtime = builder.build()?;
        return execute_rows(spec, &runtime);
    }
    if let Some(sink) = &sink {
        // Every instrumented serve job carries the determinism audit:
        // the digest probe is cheap, observes only, and lets the digest
        // endpoint attest any cold run. No endpoint reads the per-node
        // metrics blob, so serve never records it.
        sink.set(BlobKind::Telemetry, 0);
        sink.set(BlobKind::Audit, DEFAULT_DIGEST_WINDOW);
        sink.set(BlobKind::Privacy, spec.privacy_interval);
        if spec.trace {
            sink.set(
                BlobKind::Spans,
                tempriv_telemetry::DEFAULT_PHASE_BATCH as usize,
            );
            // Tracing implies a flight recording so the exported timeline
            // carries packet residences alongside the spans.
            if sink.setting(BlobKind::Trace) == 0 {
                sink.set(BlobKind::Trace, 1 << 14);
            }
        }
        builder = builder.telemetry_sink(Arc::clone(sink));
    }
    let runtime = builder.build()?;
    execute_rows(spec, &runtime)
}

/// Runs the spec's sweep on `runtime` and serializes the result rows as
/// one JSON array.
fn execute_rows(spec: &JobSpec, runtime: &Runtime) -> Result<String, String> {
    let rows =
        Sweep::from_wire_name(&spec.experiment)?.run_json_rows(&spec.sweep_params(), runtime);
    Ok(format!("[{}]", rows.join(",")))
}

/// The digest summary served at `GET /v1/jobs/:id/digest`: one
/// [`JobAudit`] per runtime job ([`JobSpec::points`]) plus a root
/// folding the job roots. The serialized summary is cached next to the
/// result rows, so a warm hit replays the exact bytes — and therefore
/// the exact root — the cold run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobDigest {
    /// One audit record per runtime job, in job order.
    pub points: Vec<JobAudit>,
    /// Digest over the per-job roots, in order.
    pub root: String,
}

/// The cache key a spec's digest summary lives under (parallel to the
/// result rows cached under [`JobSpec::key`]). Summaries cached under
/// the older `audit|` prefix folded only one job per sweep point, which
/// truncated the `victim`, `delay` and `mix` digests; nothing reads
/// that prefix, so such a job answers "predates the audit".
#[must_use]
pub fn digest_key(key: &str) -> String {
    format!("audit-jobs|{key}")
}

/// Folds the per-job audit blobs a cold run attached to `sink` into the
/// serialized [`JobDigest`]. `None` when any of the `jobs` is missing
/// its blob (the run was not audited).
#[must_use]
pub fn collect_digest(sink: &TelemetrySink, jobs: usize) -> Option<String> {
    let mut audits = Vec::with_capacity(jobs);
    for job in 0..jobs {
        let blob = sink.get(BlobKind::Audit, job)?;
        audits.push(serde_json::from_str::<JobAudit>(&blob).ok()?);
    }
    let mut lines = String::new();
    for audit in &audits {
        lines.push_str(&audit.root);
        lines.push('\n');
    }
    let digest = JobDigest {
        points: audits,
        root: content_digest(lines.as_bytes()),
    };
    Some(serde_json::to_string(&digest).expect("digest summary serializes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> JobSpec {
        JobSpec {
            experiment: "fig2".to_string(),
            inv_lambdas: vec![4.0],
            packets_per_source: 40,
            delay_mean: 8.0,
            capacity: 4,
            seed: 7,
            privacy_interval: 0,
            trace: false,
            shards: 1,
        }
        .canonicalize()
        .unwrap()
    }

    #[test]
    fn minimal_body_fills_smoke_defaults() {
        let spec = JobSpec::from_body(b"{\"experiment\":\"fig3\"}").unwrap();
        let smoke = SweepParams::smoke();
        assert_eq!(spec.inv_lambdas, smoke.inv_lambdas);
        assert_eq!(spec.packets_per_source, smoke.packets_per_source);
        assert_eq!(spec.delay_mean, smoke.delay_mean);
        assert_eq!(spec.capacity, smoke.capacity);
        assert_eq!(spec.seed, smoke.seed);
        assert_eq!(spec.privacy_interval, 0);
    }

    #[test]
    fn unknown_experiment_and_bad_params_are_rejected() {
        assert!(JobSpec::from_body(b"{\"experiment\":\"fig9\"}")
            .unwrap_err()
            .contains("unknown experiment"));
        assert!(JobSpec::from_body(b"not json").is_err());
        assert!(
            JobSpec::from_body(b"{\"experiment\":\"fig2\",\"inv_lambdas\":[-1.0]}")
                .unwrap_err()
                .contains("positive")
        );
    }

    #[test]
    fn key_is_stable_and_spec_sensitive() {
        let a = tiny_spec();
        let b = tiny_spec();
        assert_eq!(a.key(), b.key());
        let mut c = tiny_spec();
        c.seed = 8;
        assert_ne!(a.key(), c.key());
        let mut d = tiny_spec();
        d.experiment = "fig3".to_string();
        assert_ne!(a.key(), d.key());
    }

    #[test]
    fn execute_is_deterministic_byte_for_byte() {
        let spec = tiny_spec();
        let first = execute(&spec, None).unwrap();
        let second = execute(&spec, None).unwrap();
        assert_eq!(first, second, "same spec must produce identical bytes");
        assert!(first.starts_with('['), "rows serialize as a JSON array");
    }

    #[test]
    fn the_digest_folds_every_job_of_every_experiment() {
        for sweep in Sweep::ALL {
            let spec = JobSpec {
                experiment: sweep.wire_name().to_string(),
                ..tiny_spec()
            }
            .canonicalize()
            .unwrap();
            let sink = Arc::new(TelemetrySink::new());
            execute(&spec, Some(Arc::clone(&sink))).unwrap();
            let digest: JobDigest =
                serde_json::from_str(&collect_digest(&sink, spec.points()).expect("audited"))
                    .unwrap();
            let slots = sink.take_all(BlobKind::Audit);
            assert_eq!(slots.len(), spec.points(), "{sweep:?}: audit slots");
            assert!(
                slots.iter().all(Option::is_some),
                "{sweep:?}: every job audited"
            );
            assert_eq!(digest.points.len(), spec.points(), "{sweep:?}: jobs folded");
        }
    }

    #[test]
    fn plain_execute_records_the_audit_and_no_node_metrics() {
        let spec = tiny_spec();
        let sink = Arc::new(TelemetrySink::new());
        let rows = execute(&spec, Some(Arc::clone(&sink))).unwrap();
        assert!(
            sink.get(BlobKind::Audit, 0).is_some(),
            "every serve job is audited"
        );
        assert_eq!(
            sink.get(BlobKind::Telemetry, 0),
            None,
            "serve never records per-node metrics"
        );
        assert_eq!(rows, execute(&spec, None).unwrap());

        // The same spec with the metrics family on: identical rows and
        // an identical audit, so the gate only drops an observer.
        let metered = Arc::new(TelemetrySink::new());
        metered.set(BlobKind::Audit, DEFAULT_DIGEST_WINDOW);
        let runtime = Runtime::builder()
            .workers(1)
            .telemetry_sink(Arc::clone(&metered))
            .build()
            .unwrap();
        assert_eq!(execute_rows(&spec, &runtime).unwrap(), rows);
        assert!(
            metered.get(BlobKind::Telemetry, 0).is_some(),
            "the metrics family records when on"
        );
        let audit = collect_digest(&sink, spec.points()).expect("audited");
        assert_eq!(collect_digest(&metered, spec.points()), Some(audit));
    }

    #[test]
    fn trace_flag_changes_the_cache_key() {
        let plain = tiny_spec();
        let mut traced = tiny_spec();
        traced.trace = true;
        assert_ne!(plain.key(), traced.key());
        // Wire form without the field still parses (defaults to off).
        let spec = JobSpec::from_body(b"{\"experiment\":\"fig2\"}").unwrap();
        assert!(!spec.trace);
    }

    #[test]
    fn shards_knob_is_validated_and_cache_keyed() {
        let serial = tiny_spec();
        let mut sharded = tiny_spec();
        sharded.shards = 4;
        let sharded = sharded.canonicalize().unwrap();
        assert_ne!(serial.key(), sharded.key());
        // Wire form without the field still parses (defaults to serial).
        let spec = JobSpec::from_body(b"{\"experiment\":\"fig2\"}").unwrap();
        assert_eq!(spec.shards, 1);
        // Sharded jobs cannot attach per-event instrumentation.
        let mut bad = tiny_spec();
        bad.shards = 2;
        bad.privacy_interval = 50;
        assert!(bad
            .canonicalize()
            .unwrap_err()
            .contains("per-event instrumentation"));
        let err = JobSpec::from_body(b"{\"experiment\":\"fig2\",\"shards\":65}").unwrap_err();
        assert!(err.contains("at most 64"));
    }

    #[test]
    fn sharded_execution_reproduces_serial_rows() {
        let serial = tiny_spec();
        let mut spec = tiny_spec();
        spec.shards = 4;
        let spec = spec.canonicalize().unwrap();
        // The fig2 sweep draws nothing from the shared global streams,
        // so the partitioned engine reproduces the serial rows exactly.
        assert_eq!(
            execute(&spec, None).unwrap(),
            execute(&serial, None).unwrap()
        );
    }

    #[test]
    fn execute_attaches_spans_when_traced() {
        use tempriv_core::telemetry::JobSpans;
        let mut raw = tiny_spec();
        raw.trace = true;
        let spec = raw.canonicalize().unwrap();
        let sink = Arc::new(TelemetrySink::new());
        sink.set_root_ctx(0xabcd, 0xef01);
        execute(&spec, Some(Arc::clone(&sink))).unwrap();
        let blobs = sink.take_all(BlobKind::Spans);
        assert_eq!(blobs.len(), spec.points());
        let spans: JobSpans = serde_json::from_str(blobs[0].as_deref().unwrap()).unwrap();
        assert!(!spans.spans.is_empty());
        assert!(!spans.profiles.is_empty());
        // Every span hangs off the request's root trace id.
        let trace_id = spans.spans[0].trace_id;
        assert!(spans.spans.iter().all(|s| s.trace_id == trace_id));
        // Tracing implies flight recording.
        assert!(sink.get(BlobKind::Trace, 0).is_some());
    }

    #[test]
    fn execute_streams_privacy_blobs_when_asked() {
        let mut raw = tiny_spec();
        raw.privacy_interval = 50;
        let spec = raw.canonicalize().unwrap();
        let sink = Arc::new(TelemetrySink::new());
        execute(&spec, Some(Arc::clone(&sink))).unwrap();
        let blobs = sink.take_all(BlobKind::Privacy);
        assert_eq!(blobs.len(), spec.points());
        assert!(blobs[0].as_deref().is_some_and(|b| b.contains("series")));
    }
}
