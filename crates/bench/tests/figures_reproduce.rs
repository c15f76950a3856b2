//! The committed figures are the `figures` binary's output at this
//! commit: every selector is rerun into a scratch directory and each
//! `.csv` and `.gp` file is byte-compared with `results/`. A change that
//! moves any figure row fails here until `results/` is regenerated with
//! `cargo run --release -p tempriv-bench --bin figures`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory private to one test, removed when dropped (also
/// when the test fails).
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "tempriv_figures_reproduce_{test}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn figures(results_dir: &Path, selectors: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(selectors)
        .env("TEMPRIV_RESULTS_DIR", results_dir)
        .output()
        .expect("the figures binary starts")
}

/// The `.csv` and `.gp` file names in `dir`.
fn figure_files(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".csv") || name.ends_with(".gp"))
        .collect()
}

/// `None` if the files are byte-identical, otherwise the first differing
/// line as `(line number, committed line, regenerated line)`.
fn first_difference(committed: &str, fresh: &str) -> Option<(usize, String, String)> {
    let old: Vec<&str> = committed.split('\n').collect();
    let new: Vec<&str> = fresh.split('\n').collect();
    let show = |line: Option<&&str>| line.map_or("<end of file>".into(), |l| l.to_string());
    (0..old.len().max(new.len()))
        .find(|&i| old.get(i) != new.get(i))
        .map(|i| (i + 1, show(old.get(i)), show(new.get(i))))
}

#[test]
fn figures_match_the_committed_results() {
    let committed_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let scratch = Scratch::new("all");
    let out = figures(&scratch.0, &[]);
    assert!(
        out.status.success(),
        "figures failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let committed = figure_files(&committed_dir);
    let fresh = figure_files(&scratch.0);
    let not_written: Vec<_> = committed.difference(&fresh).collect();
    let not_committed: Vec<_> = fresh.difference(&committed).collect();
    assert!(
        not_written.is_empty() && not_committed.is_empty(),
        "committed but not written: {not_written:?}; written but not committed: {not_committed:?}"
    );
    for name in &committed {
        let read = |dir: &Path| std::fs::read_to_string(dir.join(name)).unwrap();
        if let Some((line, old, new)) = first_difference(&read(&committed_dir), &read(&scratch.0)) {
            panic!(
                "results/{name} differs from the regenerated file at line {line}:\n  \
                 committed:   {old}\n  regenerated: {new}\n\
                 regenerate with `cargo run --release -p tempriv-bench --bin figures`"
            );
        }
    }
}

#[test]
fn figures_exits_nonzero_when_it_cannot_write() {
    let scratch = Scratch::new("unwritable");
    // A regular file where the results directory should be.
    let not_a_dir = scratch.0.join("results");
    std::fs::write(&not_a_dir, "").unwrap();
    let out = figures(&not_a_dir, &["p1"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed to write"));
}
