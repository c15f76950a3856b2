//! End-to-end and per-layer benchmark of the temporal-privacy workspace.
//!
//! Three workloads, each driven through the workspace crates' public
//! functions:
//!
//! * [`paper`] — the six paper sweeps at the paper's parameters;
//! * [`field`] — a fixed-geometry 100k-node convergecast, serial and
//!   sharded;
//! * [`serve`] — an in-process HTTP server under open-loop load.
//!
//! A run repeats its workload a number of times fixed by `--seconds`,
//! checks every output it produces, and returns an [`Outcome`]: the
//! correctness ledger, the metrics, and the run's details (seed
//! discipline, raw samples, traced tables). See `README.md` for the
//! metric definitions.

pub mod field;
pub mod paper;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

use serde::value::Value;
use stats::Checks;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["paper_sweeps", "field_100k", "serve_open"];

/// Problem size. `Full` is the benchmark; `Tiny` runs the same code
/// path and checks on inputs small enough for a unit test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's stated sizes.
    Full,
    /// Test-sized inputs.
    Tiny,
}

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed: feeds only traffic, delay and spec randomness.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub traced: bool,
    /// Problem size.
    pub size: Size,
    /// Scratch directory for files the run writes (the serve journal).
    pub scratch: PathBuf,
}

impl RunOpts {
    /// Repetitions of a cycle that nominally takes `nominal_s` on the
    /// reference host: as many as fit in `--seconds`, at least 3 (2 at
    /// test size). Fixed by the arguments alone, so a run's work never
    /// depends on how fast the host happens to be.
    #[must_use]
    pub fn cycles(&self, nominal_s: f64) -> usize {
        match self.size {
            Size::Full => ((self.seconds / nominal_s).floor() as usize).max(3),
            Size::Tiny => 2,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness ledger.
    pub checks: Checks,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced):
    /// the same names from every workload, as `BENCHMARK.json` lists
    /// them.
    pub metrics: Vec<Metric>,
    /// Per-layer figures only this workload has (its sweeps, sharded
    /// runs, serve path): written to the run details and printed, but
    /// not part of the result line.
    pub workload_metrics: Vec<Metric>,
    /// Run details outside the metrics, as `(key, value)` pairs.
    pub details: Vec<(String, Value)>,
    /// Human-readable tables, as `(title, text)` pairs.
    pub tables: Vec<(String, String)>,
    /// Recorded spans as JSON lines (traced runs only).
    pub spans_jsonl: String,
    /// Engine events of one serial run, where the workload has one: the
    /// seed ledger tracks how much the workload seed moves it.
    pub engine_events: Option<u64>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a figure only this workload measures; see
    /// [`Outcome::workload_metrics`].
    pub fn workload_metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.workload_metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a detail entry.
    pub fn detail(&mut self, key: &str, value: Value) {
        self.details.push((key.to_string(), value));
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result(&self) -> Value {
        obj([
            (
                "correct",
                Value::Bool(self.checks.all_passed() && self.metrics_valid()),
            ),
            ("attempted", Value::UInt(self.checks.attempted)),
            ("failed", Value::UInt(self.checks.failed)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }

    /// The workload-only figures as a JSON object, for the run details.
    #[must_use]
    pub fn workload_metrics_json(&self) -> Value {
        metrics_json(&self.workload_metrics)
    }

    /// The result line as one line of JSON.
    #[must_use]
    pub fn result_json(&self) -> String {
        to_json(&self.result())
    }

    /// Every metric is finite; a run that could not measure one is not
    /// correct.
    #[must_use]
    pub fn metrics_valid(&self) -> bool {
        !self.metrics.is_empty()
            && self
                .metrics
                .iter()
                .chain(&self.workload_metrics)
                .all(|m| m.value.is_finite())
    }
}

/// `{name: {"value", "unit"}}` for a list of metrics.
fn metrics_json(metrics: &[Metric]) -> Value {
    obj(metrics.iter().map(|m| {
        let one = obj([("value", num(m.value)), ("unit", Value::Str(m.unit.into()))]);
        (m.name.as_str(), one)
    }))
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a message for an unknown workload name or a run that could
/// not start (for example, a server that cannot bind).
pub fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    match name {
        "paper_sweeps" => Ok(paper::run(opts)),
        "field_100k" => Ok(field::run(opts)),
        "serve_open" => serve::run(opts),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Peak resident set size of this process, MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    tempriv_telemetry::memprof::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / 1_048_576.0)
}

/// A JSON number with every digit of the `f64`; `null` for NaN and
/// infinities (a value that could not be measured).
#[must_use]
pub fn num(value: f64) -> Value {
    if value.is_finite() {
        Value::Float(value)
    } else {
        Value::Null
    }
}

/// A JSON array of numbers.
#[must_use]
pub fn nums(values: &[f64]) -> Value {
    Value::Seq(values.iter().map(|&v| num(v)).collect())
}

/// A JSON object from `(key, value)` pairs, in order.
#[must_use]
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One line of JSON.
#[must_use]
pub fn to_json(value: &Value) -> String {
    serde_json::to_string(value).expect("a value tree serializes")
}
