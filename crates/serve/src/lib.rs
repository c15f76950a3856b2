//! Multi-tenant simulation-as-a-service for the temporal-privacy suite.
//!
//! This crate turns the deterministic experiment runtime into a
//! long-lived HTTP service (`tempriv serve`): clients POST sweep specs,
//! poll results, and stream per-flow privacy series live over SSE while
//! a sweep runs. The server is std-only — a threaded accept loop and a
//! fixed job-worker pool over `std::net`, consistent with the
//! workspace's vendored-offline dependency policy.
//!
//! The pieces:
//!
//! * [`http`] — minimal HTTP/1.1 request/response plumbing + SSE framing;
//! * [`admission`] — bounded queue + per-tenant quotas (`429` +
//!   `Retry-After` on overflow);
//! * [`journal`] — JSONL lifecycle journal with torn-line repair, so a
//!   killed server resumes its queue exactly;
//! * [`jobs`] — canonical job specs, content-addressed keys, and sweep
//!   execution on the existing runtime;
//! * [`metrics`] — queue/cache/latency metrics exported as Prometheus
//!   text through the telemetry registry;
//! * [`server`] — the accept loop, job store, and endpoint handlers;
//! * [`client`] — a tiny blocking client for the CLI, tests, and bench;
//! * [`loadgen`] — the `tempriv bench serve` load driver.
//!
//! # Endpoints
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/jobs` | submit a sweep (`X-Tenant` header names the tenant) |
//! | `GET /v1/jobs/:id` | status + embedded result (`?wait_ms=` long-polls) |
//! | `GET /v1/jobs/:id/result` | raw result rows, byte-stable |
//! | `GET /v1/jobs/:id/privacy` | SSE stream of per-job privacy series |
//! | `GET /metrics` | Prometheus text exposition |
//! | `GET /healthz` | liveness |
//! | `POST /v1/shutdown` | graceful stop (workers finish in-flight jobs) |

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod admission;
pub mod client;
pub mod http;
pub mod jobs;
pub mod journal;
pub mod loadgen;
pub mod metrics;
pub mod server;

pub use admission::{Admission, RejectReason};
pub use jobs::{execute, JobSpec};
pub use journal::{ServeEvent, ServeJournal};
pub use loadgen::{run_load, LatencyMs, LoadParams, LoadReport};
pub use metrics::ServeMetrics;
pub use server::{Outcome, ServeConfig, Server, ServerHandle};
