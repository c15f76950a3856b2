//! `tempriv run` rejects input it does not read: the binary exits 1 and
//! prints the usage line instead of running with the input ignored.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tempriv(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tempriv"))
        .args(args)
        .output()
        .expect("the tempriv binary starts")
}

/// A real config, so a rejection can only come from the arguments.
fn config() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tempriv_run_args_{}", std::process::id()));
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
    let cfg = config();
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
    std::fs::remove_dir_all(std::path::Path::new(cfg).parent().unwrap()).unwrap();
}
