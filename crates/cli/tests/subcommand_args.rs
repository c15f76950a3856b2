//! `assess`, `profile`, `init-config`, `cache`, `report`, `calc`,
//! `trace`, `watch`, `audit`, `serve` and `bench serve` reject input
//! they do not read: the binary exits 1, names the offender and prints
//! the command's usage line instead of running with the input ignored.
//! `sweep`, `profile`, `resume` and `calc` likewise exit 1 on values
//! outside the range their computation takes, instead of panicking, and
//! `calc` exits 1 on a loss target no buffer it searches can reach.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn tempriv(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tempriv"))
        .args(args)
        .output()
        .expect("the tempriv binary starts")
}

/// Runs a command that would start a server, a load run or a long
/// solve if it accepted its input, killing it after a deadline so that a
/// regression fails the test instead of hanging it.
fn tempriv_with_deadline(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tempriv"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the tempriv binary starts");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll the child").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill the child");
            let out = child.wait_with_output().expect("reap the child");
            panic!(
                "`tempriv {}` still running after 30 s: {out:?}",
                args.join(" ")
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child
        .wait_with_output()
        .expect("collect the child's output")
}

/// A scratch directory private to one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tempriv_subcommand_args_{test}_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A real config, so a rejection can only come from the arguments.
fn config(dir: &Path) -> String {
    let path = dir.join("cfg.json");
    let made = tempriv(&["init-config", path.to_str().unwrap()]);
    assert!(made.status.success(), "init-config failed: {made:?}");
    path.to_str().unwrap().to_string()
}

fn assert_rejected(out: &Output, reason: &str, usage: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(reason), "stderr: {stderr}");
    assert!(stderr.contains(usage), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn assess_rejects_a_misspelt_option_and_a_stray_positional() {
    let dir = scratch("assess");
    let cfg = config(&dir);
    let usage = "usage: tempriv assess <config.json> [--replications N]";
    assert_rejected(
        &tempriv(&["assess", &cfg, "--replication", "10"]),
        "unknown option --replication",
        usage,
    );
    assert_rejected(
        &tempriv(&["assess", &cfg, "extra"]),
        "unexpected argument `extra`",
        usage,
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn profile_rejects_a_misspelt_option_and_a_valued_flag() {
    let usage = "usage: tempriv profile [--experiment E]";
    assert_rejected(
        &tempriv(&["profile", "--pionts", "2"]),
        "unknown option --pionts",
        usage,
    );
    assert_rejected(
        &tempriv(&["profile", "--json", "yes"]),
        "--json takes no value",
        usage,
    );
    assert_rejected(
        &tempriv(&["profile", "fig2"]),
        "unexpected argument `fig2`",
        usage,
    );
}

#[test]
fn init_config_rejects_extra_input_and_writes_nothing() {
    let dir = scratch("init");
    let path = dir.join("cfg.json");
    let path_str = path.to_str().unwrap();
    let usage = "usage: tempriv init-config <path>";
    assert_rejected(
        &tempriv(&["init-config", path_str, "extra"]),
        "unexpected argument `extra`",
        usage,
    );
    assert_rejected(
        &tempriv(&["init-config", path_str, "--seed", "3"]),
        "unknown option --seed",
        usage,
    );
    assert!(!path.exists(), "a rejected init-config must not write");
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn cache_rejects_an_unknown_option_and_a_stray_positional() {
    let dir = scratch("cache");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let usage = "usage: tempriv cache <stats|clear> --cache-dir DIR";
    assert_rejected(
        &tempriv(&["cache", "stats", "--cache-dir", cache, "--bogus", "1"]),
        "unknown option --bogus",
        usage,
    );
    assert_rejected(
        &tempriv(&["cache", "clear", "all", "--cache-dir", cache]),
        "unexpected argument `all`",
        usage,
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn report_rejects_what_its_mode_does_not_read() {
    let dir = scratch("report");
    let dir_str = dir.to_str().unwrap();
    let usage = "usage: tempriv report <run.jsonl|dir>";
    assert_rejected(
        &tempriv(&["report", "--bench", dir_str, "--foo", "1"]),
        "unknown option --foo",
        usage,
    );
    // `--format` belongs to the manifest mode, not to `--bench`.
    assert_rejected(
        &tempriv(&["report", "--bench", dir_str, "--format", "json"]),
        "unknown option --format",
        usage,
    );
    assert_rejected(
        &tempriv(&["report", dir_str, "extra"]),
        "unexpected argument `extra`",
        usage,
    );
    assert_rejected(
        &tempriv(&["report", dir_str, "--trajectory", "x.json"]),
        "unknown option --trajectory",
        usage,
    );
    assert_rejected(
        &tempriv(&["report", "--bench"]),
        "--bench needs a value",
        usage,
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn calc_rejects_options_its_mode_does_not_read() {
    assert_rejected(
        &tempriv(&[
            "calc", "erlang", "--rho", "5", "--slots", "10", "--alfa", "0.1",
        ]),
        "unknown option --alfa",
        "usage: tempriv calc erlang --rho R --slots K",
    );
    // `--slots` is read by `erlang` and `mu`, not by `servers`.
    assert_rejected(
        &tempriv(&[
            "calc", "servers", "--rho", "5", "--alpha", "0.1", "--slots", "10",
        ]),
        "unknown option --slots",
        "usage: tempriv calc servers --rho R --alpha A",
    );
    assert_rejected(
        &tempriv(&["calc", "btq", "--lambda", "1", "--mu", "2", "extra"]),
        "unexpected argument `extra`",
        "usage: tempriv calc btq",
    );
    let ok = tempriv(&[
        "calc", "btq", "--lambda", "1", "--mu", "2", "--j", "3", "--n", "4",
    ]);
    assert!(ok.status.success(), "{ok:?}");
}

#[test]
fn calc_rejects_values_outside_each_formulas_domain() {
    let cases: [(&[&str], &str, &str); 5] = [
        (
            &["calc", "erlang", "--rho", "-1", "--slots", "3"],
            "--rho must be non-negative and finite",
            "usage: tempriv calc erlang --rho R --slots K",
        ),
        (
            &["calc", "servers", "--rho", "2", "--alpha", "0"],
            "--alpha must be in (0, 1]",
            "usage: tempriv calc servers --rho R --alpha A",
        ),
        (
            &[
                "calc", "mu", "--lambda", "0", "--slots", "3", "--alpha", "0.1",
            ],
            "--lambda must be positive and finite",
            "usage: tempriv calc mu --lambda L --slots K --alpha A",
        ),
        (
            &["calc", "mminf", "--lambda", "1", "--mu", "0"],
            "--mu must be positive and finite",
            "usage: tempriv calc mminf --lambda L --mu M",
        ),
        (
            &["calc", "btq", "--lambda", "0", "--mu", "1", "--n", "5"],
            "--lambda must be positive and finite",
            "usage: tempriv calc btq --lambda L --mu M",
        ),
    ];
    for (args, reason, usage) in cases {
        assert_rejected(&tempriv(args), reason, usage);
    }
}

#[test]
fn calc_reports_unreachable_loss_targets_and_oversized_buffers() {
    let cases: [(&[&str], &str, &str); 3] = [
        (
            &["calc", "servers", "--rho", "1e7", "--alpha", "0.01"],
            "needs more than 1000000 slots",
            "usage: tempriv calc servers --rho R --alpha A",
        ),
        (
            &[
                "calc",
                "mu",
                "--lambda",
                "1",
                "--slots",
                "10",
                "--alpha",
                "0.9999999999999",
            ],
            "no mu pins E(lambda/mu, 10) at 0.9999999999999",
            "usage: tempriv calc mu --lambda L --slots K --alpha A",
        ),
        (
            &[
                "calc", "mu", "--lambda", "1", "--slots", "10000000", "--alpha", "0.1",
            ],
            "--slots must be at most 1000000",
            "usage: tempriv calc mu --lambda L --slots K --alpha A",
        ),
    ];
    for (args, reason, usage) in cases {
        assert_rejected(&tempriv_with_deadline(args), reason, usage);
    }
}

/// Exit 1 naming `reason`, nothing on stdout and no panic.
fn assert_fails(out: &Output, reason: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(reason), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn sweep_and_profile_reject_zero_packets() {
    let reason = "packets_per_source must be at least 1";
    assert_fails(
        &tempriv(&["sweep", "--points", "2", "--packets", "0", "--quiet"]),
        reason,
    );
    assert_fails(&tempriv(&["profile", "--packets", "0"]), reason);
}

#[test]
fn sweep_and_profile_reject_points_that_are_not_positive_and_finite() {
    let reason = "inv_lambdas must be positive and finite";
    for points in ["0", "-2", "nan", "inf"] {
        assert_fails(&tempriv(&["sweep", "--points", points, "--quiet"]), reason);
    }
    assert_fails(&tempriv(&["profile", "--points", "2,inf"]), reason);
}

#[test]
fn sweep_and_profile_reject_points_whose_schedule_overflows_the_clock() {
    let reason = "point 1/lambda = 10000000000000: invalid traffic: 20 packets per source";
    assert_fails(
        &tempriv(&["sweep", "--points", "4,1e13", "--packets", "20", "--quiet"]),
        reason,
    );
    assert_fails(
        &tempriv(&["profile", "--points", "1e13", "--packets", "20"]),
        reason,
    );
}

#[test]
fn resume_rejects_out_of_range_recorded_params() {
    let dir = scratch("resume_params");
    for (params, reason) in [
        (
            r#"{\"inv_lambdas\":[2.0],\"packets_per_source\":0,\"delay_mean\":30.0,\"capacity\":10,\"report_flow\":0,\"seed\":2007}"#,
            "packets_per_source must be at least 1",
        ),
        (
            r#"{\"inv_lambdas\":[-2.0],\"packets_per_source\":60,\"delay_mean\":30.0,\"capacity\":10,\"report_flow\":0,\"seed\":2007}"#,
            "inv_lambdas must be positive and finite",
        ),
        (
            r#"{\"inv_lambdas\":[1e13],\"packets_per_source\":20,\"delay_mean\":30.0,\"capacity\":10,\"report_flow\":0,\"seed\":2007}"#,
            "overflow the simulation clock",
        ),
    ] {
        let manifest = dir.join("run.jsonl");
        std::fs::write(
            &manifest,
            format!(
                r#"{{"experiment":"fig2","params_json":"{params}","jobs":1,"cache_dir":null}}"#
            ) + "\n",
        )
        .unwrap();
        assert_fails(&tempriv(&["resume", manifest.to_str().unwrap()]), reason);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_rejects_an_unknown_option_a_valued_flag_and_a_stray_positional() {
    let usage = "usage: tempriv trace [config.json]";
    assert_rejected(
        &tempriv(&["trace", "--bogus", "1"]),
        "unknown option --bogus",
        usage,
    );
    assert_rejected(
        &tempriv(&["trace", "--fail-on-divergence", "yes"]),
        "--fail-on-divergence takes no value",
        usage,
    );
    let dir = scratch("trace");
    let cfg = config(&dir);
    assert_rejected(
        &tempriv(&["trace", &cfg, "extra"]),
        "unexpected argument `extra`",
        usage,
    );
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn watch_rejects_the_options_of_its_other_mode() {
    // Without a manifest `watch` runs one-shot, which never polls.
    assert_rejected(
        &tempriv(&["watch", "--poll-ms", "5"]),
        "unknown option --poll-ms",
        "usage: tempriv watch [--seed N]",
    );
    // Tailing a manifest runs nothing, so run overrides are rejected
    // before the manifest is opened.
    let manifest = "missing-run.jsonl";
    assert_rejected(
        &tempriv(&["watch", manifest, "--seed", "3"]),
        "unknown option --seed",
        "usage: tempriv watch <run.jsonl>",
    );
    assert_rejected(
        &tempriv(&["watch", manifest, "extra"]),
        "unexpected argument `extra`",
        "usage: tempriv watch <run.jsonl>",
    );
}

#[test]
fn audit_rejects_what_its_mode_does_not_read() {
    let modes: [(&[&str], &str); 4] = [
        (&["audit", "run"], "usage: tempriv audit run"),
        (
            &["audit", "diff", "a.json", "b.json"],
            "usage: tempriv audit diff",
        ),
        (&["audit", "bisect"], "usage: tempriv audit bisect"),
        (
            &["audit", "ledger", "--check"],
            "usage: tempriv audit ledger",
        ),
    ];
    for (mode, usage) in modes {
        let argv = [mode, &["--bogus", "1"]].concat();
        assert_rejected(&tempriv(&argv), "unknown option --bogus", usage);
    }
    // One mode's options are not another's.
    assert_rejected(
        &tempriv(&["audit", "ledger", "--check", "--seed", "3"]),
        "unknown option --seed",
        "usage: tempriv audit ledger",
    );
    assert_rejected(
        &tempriv(&["audit", "run", "--against-seed", "6"]),
        "unknown option --against-seed",
        "usage: tempriv audit run",
    );
    assert_rejected(
        &tempriv(&["audit", "bisect", "--outcome", "--against-seed", "6"]),
        "unknown option --outcome",
        "usage: tempriv audit bisect",
    );
    assert_rejected(
        &tempriv(&["audit", "diff", "a.json", "b.json", "c.json"]),
        "unexpected argument `c.json`",
        "usage: tempriv audit diff",
    );
}

#[test]
fn serve_rejects_an_unknown_option_before_it_binds() {
    assert_rejected(
        &tempriv_with_deadline(&["serve", "--addr", "127.0.0.1:0", "--bogus", "1"]),
        "unknown option --bogus",
        "usage: tempriv serve [--addr A]",
    );
}

#[test]
fn bench_serve_rejects_an_unknown_option_before_it_loads() {
    assert_rejected(
        &tempriv_with_deadline(&["bench", "serve", "--bogus", "1"]),
        "unknown option --bogus",
        "usage: tempriv bench serve [--submissions N]",
    );
}
