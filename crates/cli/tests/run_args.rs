//! `tempriv run` rejects input it does not read: the binary exits 1 and
//! prints the usage line instead of running with the input ignored, and
//! so does a `--shards` count past the limit. Bad link settings, a delay
//! plan or creation schedule too long for the clock and `--shards` on a
//! zero link delay exit 1 with a message naming the setting, never a
//! panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tempriv(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tempriv"))
        .args(args)
        .output()
        .expect("the tempriv binary starts")
}

/// A real config, so a rejection can only come from the arguments. Each
/// test passes its own `tag`, so parallel tests never share a directory.
fn config(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tempriv_run_args_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cfg.json");
    let made = tempriv(&["init-config", path.to_str().unwrap()]);
    assert!(made.status.success(), "init-config failed: {made:?}");
    path
}

fn assert_rejected(out: &Output, reason: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(reason), "stderr: {stderr}");
    assert!(
        stderr.contains("usage: tempriv run <config.json>") && stderr.contains("--workers N"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn run_rejects_an_unknown_option_and_a_stray_positional() {
    let cfg = config("options");
    let cfg = cfg.to_str().unwrap();
    assert_rejected(
        &tempriv(&["run", cfg, "--bogus", "1"]),
        "unknown option --bogus",
    );
    assert_rejected(
        &tempriv(&["run", cfg, "extra"]),
        "unexpected argument `extra`",
    );
    assert_rejected(&tempriv(&["run", cfg, "--seed"]), "--seed needs a value");
    // Past the shard limit nothing runs: no engine per shard is built.
    let too_many = "--shards must be at most 64, got 65";
    assert_rejected(&tempriv(&["run", cfg, "--shards", "65"]), too_many);
    let audit = tempriv(&["audit", "run", cfg, "--shards", "65", "--outcome"]);
    assert_fails(&audit, too_many);
    assert_fails(&audit, "usage: tempriv audit run");
    std::fs::remove_dir_all(std::path::Path::new(cfg).parent().unwrap()).unwrap();
}

/// `config(tag)` with 20 packets per source and `from` replaced by `to`.
fn config_with(tag: &str, from: &str, to: &str) -> PathBuf {
    let path = config(tag);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains(from), "init-config writes {from}");
    let text = text
        .replace(from, to)
        .replace("\"packets_per_source\": 1000", "\"packets_per_source\": 20");
    std::fs::write(&path, text).unwrap();
    path
}

/// Exit 1, `reason` on stderr, nothing on stdout.
fn assert_fails(out: &Output, reason: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(reason), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn run_rejects_out_of_range_link_settings() {
    for (tag, from, to, reason) in [
        (
            "delay_negative",
            "\"link_delay\": 1.0",
            "\"link_delay\": -1.0",
            "link_delay must be",
        ),
        (
            "delay_huge",
            "\"link_delay\": 1.0",
            "\"link_delay\": 1e300",
            "link_delay must be",
        ),
        (
            "loss_above_one",
            "\"link_loss\": 0.0",
            "\"link_loss\": 1.5",
            "link_loss must be in [0, 1)",
        ),
        (
            "loss_negative",
            "\"link_loss\": 0.0",
            "\"link_loss\": -0.1",
            "link_loss must be in [0, 1)",
        ),
        (
            "jitter_negative",
            "\"link_jitter\": 0.0",
            "\"link_jitter\": -1.0",
            "link_jitter must be",
        ),
        // One hop fits the clock, the 22-hop route of flow S2 does not.
        (
            "delay_long_path",
            "\"link_delay\": 1.0",
            "\"link_delay\": 1e12",
            "(22 hops) overflows the simulation clock",
        ),
        // Each exponential draw can reach ~37 means: 22 hops of them at
        // mean 1e12 do not fit.
        (
            "delay_plan_long_path",
            "\"mean\": 30.0",
            "\"mean\": 1e12",
            "invalid delay plan: the largest delay mean (1000000000000.0)",
        ),
        (
            "delay_plan_zero_mean",
            "\"mean\": 30.0",
            "\"mean\": 0.0",
            "invalid delay plan: Exponential { mean: 0.0 } needs a positive finite mean",
        ),
        // 20 packets at a gap of 1e13 are created past the clock's range.
        (
            "schedule_long",
            "\"interval\": 2.0",
            "\"interval\": 1e13",
            "invalid traffic: 20 packets per source at gaps up to 10000000000000.0",
        ),
        (
            "schedule_huge_gap",
            "\"interval\": 2.0",
            "\"interval\": 1e300",
            "invalid traffic: 20 packets per source at gaps up to 1e300",
        ),
        (
            "schedule_negative_gap",
            "\"interval\": 2.0",
            "\"interval\": -2.0",
            "invalid traffic: Periodic { interval: -2.0 } needs positive finite gaps",
        ),
    ] {
        let cfg = config_with(tag, from, to);
        assert_fails(&tempriv(&["run", cfg.to_str().unwrap()]), reason);
        std::fs::remove_dir_all(cfg.parent().unwrap()).unwrap();
    }
}

#[test]
fn sharding_a_zero_link_delay_is_an_error_not_a_panic() {
    let cfg = config_with("zero_delay", "\"link_delay\": 1.0", "\"link_delay\": 0.0");
    let path = cfg.to_str().unwrap();
    let reason = "--shards 2 needs a positive link_delay";
    assert_fails(&tempriv(&["run", path, "--shards", "2"]), reason);
    assert_fails(
        &tempriv(&["audit", "run", path, "--shards", "2", "--outcome"]),
        reason,
    );
    // Serial runs need no lookahead.
    let serial = tempriv(&["run", path]);
    assert!(serial.status.success(), "{serial:?}");
    std::fs::remove_dir_all(cfg.parent().unwrap()).unwrap();
}
