//! Benchmark entry point:
//!
//! ```text
//! cargo run --release --manifest-path tpbench/Cargo.toml -- \
//!     --workload <paper_sweeps|field_100k|serve_open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's tables, then as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`, the same names
//! from every workload. Details (machine stamp, seed ledger, samples,
//! spans, the layer figures only one workload has) go to
//! `tpbench/runs/`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::value::Value;

use tpbench::stats::{percentile, speed_probe_ms};
use tpbench::{num, obj, run_workload, to_json, RunOpts, Size, WORKLOADS};

// The same counting allocator the `tempriv` binary installs: off until a
// traced run turns it on, one relaxed load per allocation otherwise.
#[global_allocator]
static ALLOC: tempriv_telemetry::CountingAlloc = tempriv_telemetry::CountingAlloc;

struct Args {
    workload: String,
    opts: RunOpts,
}

fn parse_args(runs_dir: &Path) -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing {name}"))
    };
    for name in flags.keys() {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(name) {
            return Err(format!("unknown flag {name}"));
        }
    }
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let traced = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (0 or 1)")),
    };
    Ok(Args {
        workload,
        opts: RunOpts {
            seed,
            seconds,
            traced,
            size: Size::Full,
            scratch: runs_dir.to_path_buf(),
        },
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git_rev(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of every Rust source and manifest under `crates/` and the
/// benchmark's own `src/`, so runs of the same code can be grouped where
/// no git metadata exists.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("tpbench").join("src"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for file in files {
        all.extend_from_slice(
            file.strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .as_bytes(),
        );
        all.extend(std::fs::read(&file).unwrap_or_default());
    }
    tempriv_runtime::content_digest(&all)
}

/// Appends this run's engine event count to the seed ledger and returns
/// its spread over every ledger entry of the same workload and code, one
/// per seed.
fn seed_ledger(runs_dir: &Path, workload: &str, seed: u64, digest: &str, events: u64) -> Value {
    let path = runs_dir.join("seed_ledger.jsonl");
    let entry = obj([
        ("workload", Value::Str(workload.into())),
        ("source_digest", Value::Str(digest.into())),
        ("seed", Value::UInt(seed)),
        ("engine_events", Value::UInt(events)),
    ]);
    let mut text = std::fs::read_to_string(&path).unwrap_or_default();
    text.push_str(&to_json(&entry));
    text.push('\n');
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    let mut by_seed = BTreeMap::new();
    for line in text.lines() {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        let same = v.get("workload") == entry.get("workload")
            && v.get("source_digest") == entry.get("source_digest");
        if let (true, Some(s), Some(e)) = (
            same,
            v.get("seed").and_then(Value::as_u64),
            v.get("engine_events").and_then(Value::as_f64),
        ) {
            by_seed.insert(s, e);
        }
    }
    let values: Vec<f64> = by_seed.into_values().collect();
    let (lo, hi) = (percentile(&values, 0.0), percentile(&values, 100.0));
    obj([
        ("seeds", Value::UInt(values.len() as u64)),
        ("engine_events_min", num(lo)),
        ("engine_events_max", num(hi)),
        (
            "engine_events_spread_pct",
            num(100.0 * (hi - lo) / lo.max(1.0)),
        ),
    ])
}

fn main() -> ExitCode {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir.parent().unwrap_or(bench_dir);
    let runs_dir = bench_dir.join("runs");
    let args = match parse_args(&runs_dir) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("tpbench: {message}");
            eprintln!(
                "usage: tpbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&runs_dir) {
        eprintln!("tpbench: cannot create {}: {e}", runs_dir.display());
        return ExitCode::from(1);
    }
    let probe_start = speed_probe_ms();
    let started = std::time::Instant::now();
    let outcome = match run_workload(&args.workload, &args.opts) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("tpbench: {message}");
            return ExitCode::from(1);
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    let probe_end = speed_probe_ms();

    let digest = source_digest(root);
    let ledger = outcome
        .engine_events
        .map(|events| seed_ledger(&runs_dir, &args.workload, args.opts.seed, &digest, events));

    let machine = obj([
        (
            "nproc",
            Value::UInt(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("cpu", Value::Str(cpu_model())),
        ("git_rev", Value::Str(git_rev(root))),
        ("source_digest", Value::Str(digest)),
        ("speed_probe_start_ms", num(probe_start)),
        ("speed_probe_end_ms", num(probe_end)),
    ]);
    let failures = outcome.checks.failures.iter().cloned().map(Value::Str);
    let mut details = vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::UInt(args.opts.seed)),
        ("seconds", num(args.opts.seconds)),
        ("traced", Value::Bool(args.opts.traced)),
        ("wall_s", num(wall_s)),
        ("machine", machine),
        ("seed_ledger", ledger.unwrap_or(Value::Null)),
        ("check_failures", Value::Seq(failures.collect())),
    ];
    details.extend(outcome.details.iter().map(|(k, v)| (k.as_str(), v.clone())));
    if !outcome.workload_metrics.is_empty() {
        details.push(("workload_metrics", outcome.workload_metrics_json()));
    }
    details.push(("result", outcome.result()));
    let stem = format!(
        "{}-seed{}{}",
        args.workload,
        args.opts.seed,
        if args.opts.traced { ".trace" } else { "" }
    );
    let details_path = runs_dir.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&details_path, to_json(&obj(details)) + "\n") {
        eprintln!("warning: cannot write {}: {e}", details_path.display());
    }
    if !outcome.spans_jsonl.is_empty() {
        let _ = std::fs::write(
            runs_dir.join(format!("{stem}.spans.jsonl")),
            &outcome.spans_jsonl,
        );
    }

    for (title, table) in &outcome.tables {
        println!("== {title}\n{table}");
    }
    if !outcome.workload_metrics.is_empty() {
        println!("== {} layer figures (run details only)", args.workload);
        for m in &outcome.workload_metrics {
            println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    for failure in &outcome.checks.failures {
        println!("check failed: {failure}");
    }
    println!(
        "speed probe {probe_start:.1} ms at start, {probe_end:.1} ms at end; wall {wall_s:.1} s; details {}",
        details_path.display()
    );
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
