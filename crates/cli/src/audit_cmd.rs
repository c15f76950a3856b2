//! `tempriv audit` — the determinism observatory's command-line face.
//!
//! Four subcommands over the windowed run digests of
//! [`tempriv_telemetry::audit`]:
//!
//! * `audit run` — run one experiment config under the [`DigestProbe`]
//!   and emit its [`RunDigest`] (checkpoint stream + run root) as JSON;
//! * `audit diff` — compare two digest files and name the first
//!   divergent window;
//! * `audit bisect` — run two configs (or two seeds of one config),
//!   diff their digests, then re-run both with a [`WindowCapture`]
//!   confined to the first divergent window to pinpoint the exact first
//!   divergent event;
//! * `audit ledger` — maintain and verify the committed regression
//!   ledger: an append-only record of the run root of a fixed Figure-1
//!   smoke scenario, checked in CI so any unintended change to the
//!   engine's event stream is caught at the commit that introduced it.
//!
//! Divergences are reported on stdout and exit 0 by default; with
//! `--fail-on-divergence` they exit with code 2 (ordinary errors stay
//! exit 1), so scripts and CI can tell "the runs differ" from "the tool
//! broke".

use std::io::Write;

use serde::{Deserialize, Serialize};
use tempriv_core::config::ExperimentConfig;
use tempriv_telemetry::audit::{
    diff, digest, first_divergent_event, fold_root, CapturedEvent, DigestProbe, RunDigest,
    WindowCapture, WindowDigest,
};
use tempriv_telemetry::DEFAULT_DIGEST_WINDOW;

use crate::args::Args;
use crate::commands::{check_shardable, io_err, load_config, optional, CliError};

const AUDIT_USAGE: &str = "usage: tempriv audit <run|diff|bisect|ledger>; \
                           try `tempriv help` for the flag list";

const RUN_USAGE: &str = "usage: tempriv audit run [config.json] [--seed N] [--packets N] \
     [--window N] [--out digest.json] [--outcome] [--shards N] [--workers N]";
const DIFF_USAGE: &str =
    "usage: tempriv audit diff <left.json> <right.json> [--fail-on-divergence]";
const BISECT_USAGE: &str = "usage: tempriv audit bisect [config.json] \
     (--against other.json | --against-seed M) [--seed N] [--packets N] [--window N] \
     [--fail-on-divergence]";
const LEDGER_USAGE: &str = "usage: tempriv audit ledger (--check | --update) \
     [--ledger PATH] [--label L] [--fail-on-divergence]";

/// Default location of the committed regression ledger.
pub const DEFAULT_LEDGER_PATH: &str = "results/LEDGER.json";

/// Checkpoint window of the fixed ledger scenario. Small enough that a
/// divergence names a tight window, large enough that the ledger entry
/// stays a handful of checkpoints.
const LEDGER_WINDOW: usize = 256;

/// Dispatches `tempriv audit <run|diff|bisect|ledger>`.
///
/// # Errors
///
/// Returns [`CliError::Error`] (exit 1) on bad arguments or I/O and
/// [`CliError::Divergence`] (exit 2) when a divergence is detected under
/// `--fail-on-divergence`.
pub fn cmd_audit<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    match args.positional(1) {
        Some("run") => audit_run(args, out),
        Some("diff") => audit_diff(args, out),
        Some("bisect") => audit_bisect(args, out),
        Some("ledger") => audit_ledger(args, out),
        _ => Err(AUDIT_USAGE.into()),
    }
}

/// Escalates a detected divergence to exit code 2 when the caller asked
/// for it; otherwise the report on stdout is the whole answer.
fn fail_on_divergence(args: &Args, message: String) -> Result<(), CliError> {
    if args.flag("fail-on-divergence") {
        Err(CliError::Divergence(message))
    } else {
        Ok(())
    }
}

/// Parses `--window`, defaulting to [`DEFAULT_DIGEST_WINDOW`].
fn window_arg(args: &Args) -> Result<usize, String> {
    let window: usize = args.option_as("window", DEFAULT_DIGEST_WINDOW)?;
    if window == 0 {
        return Err("--window must be positive".into());
    }
    Ok(window)
}

/// Runs `cfg` under a [`DigestProbe`], returning the run digest and the
/// run's RNG draw count (for the bisect report: a draw-count delta
/// means the divergence reaches into the sampling layer).
fn digest_run(cfg: &ExperimentConfig, window: usize) -> Result<(RunDigest, u64), String> {
    let sim = cfg.build().map_err(|e| e.to_string())?;
    let mut probe = DigestProbe::new(window);
    let outcome = sim.run_probed(&mut probe);
    Ok((probe.finish(), outcome.rng_draws))
}

/// Re-runs `cfg` retaining the full event tuples of sequence window
/// `[lo, hi)`.
fn capture_run(cfg: &ExperimentConfig, lo: u64, hi: u64) -> Result<Vec<CapturedEvent>, String> {
    let sim = cfg.build().map_err(|e| e.to_string())?;
    let mut capture = WindowCapture::new(lo, hi);
    let _outcome = sim.run_probed(&mut capture);
    Ok(capture.into_events())
}

/// Reads and parses a digest file written by `audit run`.
fn read_digest(path: &str) -> Result<RunDigest, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&raw).map_err(|e| format!("invalid digest {path}: {e}"))
}

/// One captured event, rendered for the bisect report.
fn event_line(event: Option<&CapturedEvent>) -> String {
    event.map_or_else(
        || "(stream ended)".to_string(),
        |e| {
            format!(
                "seq={} t={:.3} kind={:?} packet={} flow={} node={}",
                e.seq, e.t, e.kind, e.packet, e.flow, e.node
            )
        },
    )
}

/// Runs `cfg` on the serial or sharded engine and seals the
/// [`SimOutcome`] digest — the engine-topology-invariant contract (the
/// sharded runner guarantees it for any shard/worker count) — into a
/// single-checkpoint [`RunDigest`] with window 0, so `audit diff` can
/// cross-check a serial run against a sharded one.
///
/// [`SimOutcome`]: tempriv_core::SimOutcome
fn outcome_digest_run(
    cfg: &ExperimentConfig,
    shards: u32,
    workers: usize,
) -> Result<RunDigest, String> {
    let sim = cfg.build().map_err(|e| e.to_string())?;
    let outcome = if shards > 1 {
        sim.run_sharded(shards, workers)
    } else {
        sim.run()
    };
    let checkpoint = WindowDigest {
        index: 0,
        start_seq: 0,
        events: outcome.events,
        digest: digest::hex64(outcome.digest()),
    };
    let root = fold_root(std::slice::from_ref(&checkpoint));
    Ok(RunDigest {
        window: 0,
        events: outcome.events,
        end_time: outcome.end_time.as_units(),
        checkpoints: vec![checkpoint],
        root,
    })
}

/// `tempriv audit run [config.json]`: digest one run. With `--out` the
/// JSON goes to the file and a one-line summary to stdout; without, the
/// JSON itself is the stdout payload (pipe it to a file for `diff`).
///
/// `--outcome` digests the simulation outcome instead of the event
/// stream; `--shards N [--workers M]` runs it on the sharded engine
/// (which admits no event probes, so it requires `--outcome`).
fn audit_run<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(
        3,
        &["seed", "packets", "window", "out", "shards", "workers"],
        &["outcome"],
    )
    .map_err(|e| format!("{e}\n{RUN_USAGE}"))?;
    let cfg = load_config(args, args.positional(2))?;
    let window = window_arg(args)?;
    let shards: u32 = args.option_as("shards", 1)?;
    let workers: usize = args.option_as("workers", 1)?;
    if shards == 0 || workers == 0 {
        return Err("--shards and --workers must be positive".into());
    }
    check_shardable(&cfg, shards).map_err(|e| format!("{e}\n{RUN_USAGE}"))?;
    let (digest, mode) = if args.flag("outcome") {
        (outcome_digest_run(&cfg, shards, workers)?, "outcome digest")
    } else if shards > 1 {
        return Err("--shards needs --outcome: the sharded engine admits no \
                    event probes, so only the outcome digest is defined"
            .into());
    } else {
        (digest_run(&cfg, window)?.0, "event stream")
    };
    let json =
        serde_json::to_string_pretty(&digest).map_err(|e| format!("serialize digest: {e}"))?;
    match args.option("out") {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            writeln!(
                out,
                "audit run: root={} ({mode}, {} events, {} windows of {}, seed {}) \
                 [digest written to {path}]",
                digest.root,
                digest.events,
                digest.checkpoints.len(),
                digest.window,
                cfg.seed,
            )
            .map_err(io_err)?;
        }
        None => writeln!(out, "{json}").map_err(io_err)?,
    }
    Ok(())
}

/// `tempriv audit diff <left.json> <right.json>`: name the first
/// divergent window of two digest files.
fn audit_diff<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    let (Some(left_path), Some(right_path)) = (args.positional(2), args.positional(3)) else {
        return Err(DIFF_USAGE.into());
    };
    args.expect_only(4, &[], &["fail-on-divergence"])
        .map_err(|e| format!("{e}\n{DIFF_USAGE}"))?;
    let left = read_digest(left_path)?;
    let right = read_digest(right_path)?;
    let report = diff(&left, &right)?;
    if report.identical {
        writeln!(
            out,
            "digests identical: root={} ({} events, {} windows)",
            left.root,
            left.events,
            left.checkpoints.len(),
        )
        .map_err(io_err)?;
        return Ok(());
    }
    let d = report
        .divergence
        .expect("non-identical diff names a window");
    writeln!(
        out,
        "digests diverge: left root={} ({} events), right root={} ({} events)",
        left.root, left.events, right.root, right.events,
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "first divergent window: #{} (seq {}..{}): left={} right={}",
        d.window,
        d.start_seq,
        d.start_seq + d.events,
        d.left,
        d.right,
    )
    .map_err(io_err)?;
    fail_on_divergence(args, format!("first divergent window #{}", d.window))
}

/// `tempriv audit bisect`: digest two runs, and when they diverge,
/// re-run both confined to the first divergent window and print the
/// exact first divergent event.
fn audit_bisect<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(
        3,
        &["against", "against-seed", "seed", "packets", "window"],
        &["fail-on-divergence"],
    )
    .map_err(|e| format!("{e}\n{BISECT_USAGE}"))?;
    let left_cfg = load_config(args, args.positional(2))?;
    let mut right_cfg = match args.option("against") {
        Some(path) => load_config(args, Some(path))?,
        None => left_cfg.clone(),
    };
    match optional::<u64>(args, "against-seed")? {
        Some(seed) => right_cfg.seed = seed,
        None if args.option("against").is_none() => {
            return Err("nothing to compare: give --against other.json or \
                        --against-seed N"
                .into());
        }
        None => {}
    }
    let window = window_arg(args)?;
    let (left, left_draws) = digest_run(&left_cfg, window)?;
    let (right, right_draws) = digest_run(&right_cfg, window)?;
    let report = diff(&left, &right)?;
    if report.identical {
        writeln!(
            out,
            "no divergence: both runs fold to root={} ({} events, {} windows)",
            left.root,
            left.events,
            left.checkpoints.len(),
        )
        .map_err(io_err)?;
        return Ok(());
    }
    let d = report
        .divergence
        .expect("non-identical diff names a window");
    let lo = d.start_seq;
    let hi = d.start_seq + d.events.max(1);
    writeln!(
        out,
        "digests diverge: left root={}, right root={}",
        left.root, right.root
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "first divergent window: #{} (seq {lo}..{hi}): left={} right={}",
        d.window, d.left, d.right,
    )
    .map_err(io_err)?;
    // The bisect proper: a full re-run per side, capture confined to
    // the named window, element-wise comparison of the event tuples.
    let left_events = capture_run(&left_cfg, lo, hi)?;
    let right_events = capture_run(&right_cfg, lo, hi)?;
    match first_divergent_event(&left_events, &right_events) {
        Some(e) => {
            writeln!(out, "first divergent event: seq {}", lo + e.position).map_err(io_err)?;
            writeln!(out, "  left:  {}", event_line(e.left.as_ref())).map_err(io_err)?;
            writeln!(out, "  right: {}", event_line(e.right.as_ref())).map_err(io_err)?;
        }
        None => {
            writeln!(
                out,
                "window digests differ but the captured tuples agree \
                 (sub-tick timing divergence?)"
            )
            .map_err(io_err)?;
        }
    }
    writeln!(
        out,
        "rng draws: left={left_draws} right={right_draws}{}",
        if left_draws == right_draws {
            ""
        } else {
            " (draw counts differ: the divergence reaches the sampling layer)"
        }
    )
    .map_err(io_err)?;
    fail_on_divergence(
        args,
        format!("first divergent window #{} (seq {lo}..{hi})", d.window),
    )
}

/// One committed ledger entry: the run root of the fixed Figure-1 smoke
/// scenario as of one commit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Free-form label, conventionally the short commit hash.
    pub label: String,
    /// Unix seconds when the entry was recorded.
    pub recorded_unix: u64,
    /// Scenario name (always `figure1-smoke` today).
    pub scenario: String,
    /// Seed of the recorded run.
    pub seed: u64,
    /// Packets per source of the recorded run.
    pub packets_per_source: u32,
    /// Checkpoint window the digest was folded with.
    pub window: u64,
    /// Total packet events the run folded.
    pub events: u64,
    /// The run root in hex wire form.
    pub root: String,
}

/// The fixed ledger scenario: the paper Figure-1 layout at smoke scale.
/// Everything is pinned — any change to this function invalidates the
/// committed ledger history.
fn ledger_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default();
    cfg.packets_per_source = 120;
    cfg
}

/// Reads the ledger file, tolerating a missing file for `--update`.
fn read_ledger(path: &str) -> Result<Vec<LedgerEntry>, String> {
    match std::fs::read_to_string(path) {
        Ok(raw) => serde_json::from_str(&raw).map_err(|e| format!("invalid ledger {path}: {e}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("cannot read ledger {path}: {e}")),
    }
}

/// `tempriv audit ledger (--check | --update)`: verify or extend the
/// committed per-commit digest record.
fn audit_ledger<W: Write>(args: &Args, out: &mut W) -> Result<(), CliError> {
    args.expect_only(
        2,
        &["ledger", "label"],
        &["check", "update", "fail-on-divergence"],
    )
    .map_err(|e| format!("{e}\n{LEDGER_USAGE}"))?;
    let path = args.option("ledger").unwrap_or(DEFAULT_LEDGER_PATH);
    let check = args.flag("check");
    let update = args.flag("update");
    if check == update {
        return Err(LEDGER_USAGE.into());
    }
    let cfg = ledger_config();
    let (digest, _draws) = digest_run(&cfg, LEDGER_WINDOW)?;
    let mut entries = read_ledger(path)?;
    if update {
        let recorded_unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        entries.push(LedgerEntry {
            label: args.option("label").unwrap_or("local").to_string(),
            recorded_unix,
            scenario: "figure1-smoke".to_string(),
            seed: cfg.seed,
            packets_per_source: cfg.packets_per_source,
            window: LEDGER_WINDOW as u64,
            events: digest.events,
            root: digest.root.clone(),
        });
        let json =
            serde_json::to_string_pretty(&entries).map_err(|e| format!("serialize ledger: {e}"))?;
        if let Some(parent) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(
            out,
            "ledger updated: entry #{} root={} ({} events) [written to {path}]",
            entries.len(),
            digest.root,
            digest.events,
        )
        .map_err(io_err)?;
        return Ok(());
    }
    // --check: the latest entry is the expectation.
    let Some(latest) = entries.last() else {
        return Err(format!(
            "no ledger at {path}: record a baseline with `tempriv audit ledger --update`"
        )
        .into());
    };
    let comparable = latest.window == LEDGER_WINDOW as u64
        && latest.seed == cfg.seed
        && latest.packets_per_source == cfg.packets_per_source;
    if !comparable {
        return Err(format!(
            "ledger entry '{}' records a different scenario \
             (window {}, seed {}, packets {}); re-record with --update",
            latest.label, latest.window, latest.seed, latest.packets_per_source,
        )
        .into());
    }
    if latest.root == digest.root && latest.events == digest.events {
        writeln!(
            out,
            "ledger check ok: root={} matches entry '{}' (#{} of {})",
            digest.root,
            latest.label,
            entries.len(),
            entries.len(),
        )
        .map_err(io_err)?;
        return Ok(());
    }
    writeln!(
        out,
        "ledger check FAILED: entry '{}' records root={} ({} events), \
         this build folds root={} ({} events)",
        latest.label, latest.root, latest.events, digest.root, digest.events,
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "the engine's event stream changed; if intentional, re-record with \
         `tempriv audit ledger --update`, else bisect with \
         `tempriv audit bisect`"
    )
    .map_err(io_err)?;
    fail_on_divergence(
        args,
        format!(
            "ledger root mismatch: recorded {} vs current {}",
            latest.root, digest.root
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::dispatch;

    fn run(tokens: &[&str]) -> Result<String, CliError> {
        let args = Args::parse(tokens.iter().copied());
        let mut buf = Vec::new();
        dispatch(&args, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn audit_run_is_deterministic_and_writes_a_digest() {
        let dir = std::env::temp_dir().join("tempriv_cli_audit_run_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        let base = [
            "audit",
            "run",
            "--packets",
            "60",
            "--seed",
            "5",
            "--window",
            "64",
        ];
        let summary = run(&[&base[..], &["--out", a.to_str().unwrap()]].concat()).unwrap();
        assert!(summary.contains("audit run: root="), "{summary}");
        run(&[&base[..], &["--out", b.to_str().unwrap()]].concat()).unwrap();
        // Two same-spec runs produce byte-identical digest files.
        assert_eq!(
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap()
        );
        let digest: RunDigest =
            serde_json::from_str(&std::fs::read_to_string(&a).unwrap()).unwrap();
        assert_eq!(digest.root.len(), 16);
        assert!(digest.events > 0);
        assert!(!digest.checkpoints.is_empty());
        // Without --out the JSON itself is the stdout payload.
        let json = run(&base).unwrap();
        let piped: RunDigest = serde_json::from_str(&json).unwrap();
        assert_eq!(piped, digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcome_digest_cross_checks_serial_against_sharded() {
        let dir = std::env::temp_dir().join("tempriv_cli_audit_outcome_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A four-subtree star so a two-way cut produces real handoffs.
        let mut cfg = ExperimentConfig::paper_default();
        cfg.layout = tempriv_core::config::LayoutSpec::Convergecast {
            trunk_hops: 0,
            flow_hops: vec![15, 22, 9, 11],
        };
        cfg.packets_per_source = 150;
        cfg.seed = 2007;
        let cfg_path = dir.join("star.json");
        std::fs::write(&cfg_path, serde_json::to_string(&cfg).unwrap()).unwrap();
        let serial = dir.join("serial.json");
        let sharded = dir.join("sharded.json");
        run(&[
            "audit",
            "run",
            cfg_path.to_str().unwrap(),
            "--outcome",
            "--out",
            serial.to_str().unwrap(),
        ])
        .unwrap();
        run(&[
            "audit",
            "run",
            cfg_path.to_str().unwrap(),
            "--outcome",
            "--shards",
            "2",
            "--workers",
            "2",
            "--out",
            sharded.to_str().unwrap(),
        ])
        .unwrap();
        let report = run(&[
            "audit",
            "diff",
            serial.to_str().unwrap(),
            sharded.to_str().unwrap(),
            "--fail-on-divergence",
        ])
        .unwrap();
        assert!(report.contains("digests identical"), "{report}");
        // The sharded engine admits no event probes: --shards without
        // --outcome must be rejected, not silently fall back.
        let err = run(&["audit", "run", cfg_path.to_str().unwrap(), "--shards", "2"]).unwrap_err();
        assert!(
            format!("{err:?}").contains("--outcome"),
            "error should point at --outcome: {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn audit_diff_reports_match_and_names_the_first_divergent_window() {
        let dir = std::env::temp_dir().join("tempriv_cli_audit_diff_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        let c = dir.join("c.json");
        for (path, seed) in [(&a, "5"), (&b, "5"), (&c, "6")] {
            run(&[
                "audit",
                "run",
                "--packets",
                "60",
                "--seed",
                seed,
                "--window",
                "64",
                "--out",
                path.to_str().unwrap(),
            ])
            .unwrap();
        }
        let same = run(&["audit", "diff", a.to_str().unwrap(), b.to_str().unwrap()]).unwrap();
        assert!(same.contains("digests identical"), "{same}");

        // A seed change diverges; the report names window #0 (the very
        // first event differs when the whole schedule resamples).
        let diverged = run(&["audit", "diff", a.to_str().unwrap(), c.to_str().unwrap()]).unwrap();
        assert!(diverged.contains("digests diverge"), "{diverged}");
        assert!(diverged.contains("first divergent window"), "{diverged}");

        // --fail-on-divergence escalates to exit code 2.
        let err = run(&[
            "audit",
            "diff",
            a.to_str().unwrap(),
            c.to_str().unwrap(),
            "--fail-on-divergence",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err:?}");
        // ...but an identical pair still exits 0 with the flag.
        run(&[
            "audit",
            "diff",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--fail-on-divergence",
        ])
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn audit_bisect_pinpoints_the_first_divergent_event() {
        let out = run(&[
            "audit",
            "bisect",
            "--packets",
            "60",
            "--seed",
            "5",
            "--against-seed",
            "6",
            "--window",
            "64",
        ])
        .unwrap();
        assert!(out.contains("first divergent window"), "{out}");
        assert!(out.contains("first divergent event: seq"), "{out}");
        assert!(out.contains("left:  seq="), "{out}");
        assert!(out.contains("right: seq="), "{out}");
        assert!(out.contains("rng draws:"), "{out}");

        let err = run(&[
            "audit",
            "bisect",
            "--packets",
            "60",
            "--seed",
            "5",
            "--against-seed",
            "6",
            "--window",
            "64",
            "--fail-on-divergence",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err:?}");

        // Identical sides report no divergence even with the flag.
        let same = run(&[
            "audit",
            "bisect",
            "--packets",
            "60",
            "--seed",
            "5",
            "--against-seed",
            "5",
            "--window",
            "64",
            "--fail-on-divergence",
        ])
        .unwrap();
        assert!(same.contains("no divergence"), "{same}");
    }

    #[test]
    fn audit_ledger_update_then_check_round_trips() {
        let dir = std::env::temp_dir().join("tempriv_cli_audit_ledger_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ledger = dir.join("LEDGER.json");
        let ledger_str = ledger.to_str().unwrap();

        // No baseline yet: --check is an ordinary error (exit 1).
        let err = run(&["audit", "ledger", "--check", "--ledger", ledger_str]).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.message().contains("--update"), "{err:?}");

        let updated = run(&[
            "audit", "ledger", "--update", "--ledger", ledger_str, "--label", "t0",
        ])
        .unwrap();
        assert!(updated.contains("ledger updated: entry #1"), "{updated}");
        let checked = run(&["audit", "ledger", "--check", "--ledger", ledger_str]).unwrap();
        assert!(checked.contains("ledger check ok"), "{checked}");
        assert!(checked.contains("'t0'"), "{checked}");

        // Tamper with the recorded root: the check reports the mismatch
        // and exits 2 under --fail-on-divergence.
        let mut entries: Vec<LedgerEntry> =
            serde_json::from_str(&std::fs::read_to_string(&ledger).unwrap()).unwrap();
        entries.last_mut().unwrap().root = "0000000000000000".to_string();
        std::fs::write(&ledger, serde_json::to_string(&entries).unwrap()).unwrap();
        let report = run(&["audit", "ledger", "--check", "--ledger", ledger_str]).unwrap();
        assert!(report.contains("ledger check FAILED"), "{report}");
        let err = run(&[
            "audit",
            "ledger",
            "--check",
            "--ledger",
            ledger_str,
            "--fail-on-divergence",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn audit_rejects_bad_arguments() {
        let err = run(&["audit"]).unwrap_err();
        assert!(err.message().contains("usage: tempriv audit"));
        let err = run(&["audit", "frobnicate"]).unwrap_err();
        assert!(err.message().contains("usage: tempriv audit"));
        let err = run(&["audit", "run", "--window", "0"]).unwrap_err();
        assert!(err.message().contains("--window must be positive"));
        let err = run(&["audit", "diff", "/nonexistent/a.json"]).unwrap_err();
        assert!(err.message().contains("usage"));
        let err = run(&["audit", "bisect", "--packets", "60"]).unwrap_err();
        assert!(err.message().contains("nothing to compare"));
        let err = run(&["audit", "ledger"]).unwrap_err();
        assert!(err.message().contains("--check | --update"));
        let err = run(&["audit", "run", "/nonexistent/cfg.json"]).unwrap_err();
        assert!(err.message().contains("cannot read"));
        // Every one of those is an ordinary error: exit code 1.
        assert_eq!(err.exit_code(), 1);
    }
}
