//! `perf_baseline` rejects an option its selected bench does not read,
//! the per-layer bench names and a shard count past the limit, before it
//! times anything.

use std::process::Command;

fn assert_fails(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_baseline"))
        .args(args)
        .output()
        .expect("perf_baseline runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
}

#[test]
fn rejects_what_the_selected_bench_does_not_read() {
    for (bench, opt) in [
        ("overhead", "--baseline"),
        ("overhead", "--shards"),
        ("overhead", "--workers"),
        ("scale", "--points"),
        ("scale", "--packets"),
    ] {
        let message = format!("{opt} is not read by --bench {bench}");
        assert_fails(&["--bench", bench, opt, "2"], &message);
        assert_fails(&[opt, "2", "--bench", bench], &message);
    }
    let message = "--shards is not read by --bench overhead";
    assert_fails(&["--shards", "2"], message); // overhead is the default
    let message = "--shards must be at most 64, got 65";
    assert_fails(&["--bench", "scale", "--shards", "65"], message);
    for old in ["trace", "privacy", "span", "audit", "mem"] {
        let message = format!("bad --bench `{old}`; overhead or scale");
        assert_fails(&["--bench", old], &message);
    }
}
