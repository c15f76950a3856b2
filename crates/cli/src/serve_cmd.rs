//! `tempriv serve` and `tempriv bench serve` — the service layer's CLI.

use std::io::Write;
use std::path::PathBuf;

use tempriv_serve::loadgen::{run_load, LoadParams};
use tempriv_serve::server::{ServeConfig, Server};

use crate::args::Args;
use crate::commands::io_err;

const SERVE_USAGE: &str = "usage: tempriv serve [--addr A] [--workers N] [--cache-dir DIR] \
     [--manifest PATH] [--max-queue N] [--tenant-quota N]";
const BENCH_SERVE_USAGE: &str = "usage: tempriv bench serve [--submissions N] \
     [--concurrency N] [--tenants N] [--distinct N] [--packets N] [--experiment E] \
     [--addr A] [--server-workers N] [--out PATH]";

/// `tempriv serve`: run the simulation-as-a-service HTTP server until a
/// `POST /v1/shutdown` (or the process is killed — the journal resumes
/// the queue on the next start).
///
/// # Errors
///
/// Returns a message on bad flags or when the server cannot bind.
pub fn cmd_serve<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    args.expect_only(
        1,
        &[
            "addr",
            "workers",
            "cache-dir",
            "manifest",
            "max-queue",
            "tenant-quota",
        ],
        &[],
    )
    .map_err(|e| format!("{e}\n{SERVE_USAGE}"))?;
    let cfg = ServeConfig {
        addr: args.option("addr").unwrap_or("127.0.0.1:7077").to_string(),
        workers: args.option_as("workers", 2usize)?.max(1),
        cache_dir: args.option("cache-dir").map(PathBuf::from),
        journal: args.option("manifest").map(PathBuf::from),
        max_queue: args.option_as("max-queue", 64usize)?,
        tenant_quota: args.option_as("tenant-quota", 16usize)?,
    };
    let workers = cfg.workers;
    let durable = cfg.journal.is_some();
    let server = Server::bind(cfg)?;
    let resumed = server.resumed_queue_len();
    writeln!(
        out,
        "tempriv serve listening on {} ({workers} workers{}{})",
        server.local_addr(),
        if durable { ", journaled" } else { "" },
        if resumed > 0 {
            format!(", resumed {resumed} queued jobs")
        } else {
            String::new()
        }
    )
    .map_err(io_err)?;
    out.flush().map_err(io_err)?;
    server.run();
    writeln!(out, "tempriv serve stopped").map_err(io_err)?;
    Ok(())
}

/// `tempriv bench <target>`: load benchmarks. Currently one target,
/// `serve`, which storms the HTTP API and writes a latency/throughput/
/// hit-rate report.
///
/// # Errors
///
/// Returns a message on an unknown target, bad flags, or a failed run.
pub fn cmd_bench<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    match args.positional(1) {
        Some("serve") => cmd_bench_serve(args, out),
        Some(other) => Err(format!("unknown bench target `{other}`; expected `serve`")),
        None => Err(BENCH_SERVE_USAGE.to_string()),
    }
}

fn cmd_bench_serve<W: Write>(args: &Args, out: &mut W) -> Result<(), String> {
    args.expect_only(
        2,
        &[
            "submissions",
            "concurrency",
            "tenants",
            "distinct",
            "packets",
            "experiment",
            "addr",
            "server-workers",
            "out",
        ],
        &[],
    )
    .map_err(|e| format!("{e}\n{BENCH_SERVE_USAGE}"))?;
    let params = LoadParams {
        submissions: args.option_as("submissions", 2000usize)?.max(1),
        concurrency: args.option_as("concurrency", 16usize)?.max(1),
        tenants: args.option_as("tenants", 4usize)?.max(1),
        distinct: args.option_as("distinct", 64usize)?.max(1),
        packets: args.option_as("packets", 60u32)?.max(1),
        experiment: args.option("experiment").unwrap_or("fig3").to_string(),
        addr: args.option("addr").map(String::from),
        server_workers: args.option_as("server-workers", 4usize)?.max(1),
    };
    writeln!(
        out,
        "bench serve: {} submissions, {} clients, {} tenants, {} distinct specs ({})",
        params.submissions, params.concurrency, params.tenants, params.distinct, params.experiment
    )
    .map_err(io_err)?;
    out.flush().map_err(io_err)?;

    let report = run_load(&params)?;
    let json = serde_json::to_string(&report).expect("report serializes");
    if let Some(path) = args.option("out") {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
        }
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "report written to {path}").map_err(io_err)?;
    }
    writeln!(
        out,
        "done in {:.2}s: {:.0} req/s, submit p50/p90/p99 = {:.2}/{:.2}/{:.2} ms, \
         warm {} / cold {} (hit rate {:.2}), rejected-retries {}, failed {}, \
         warm bytes identical: {}",
        report.elapsed_s,
        report.throughput_rps,
        report.submit_latency_ms.p50,
        report.submit_latency_ms.p90,
        report.submit_latency_ms.p99,
        report.warm,
        report.cold,
        report.cache_hit_rate,
        report.rejected_retries,
        report.failed,
        report.warm_bytes_identical
    )
    .map_err(io_err)?;
    Ok(())
}
