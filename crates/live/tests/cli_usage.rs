//! Pins `nni-live`'s argument validation: a value the monitor cannot run
//! with is a usage error (exit 2) from the parser, never a panic once the
//! first session opens.

use std::path::PathBuf;
use std::process::Command;

use nni_measure::Corpus;
use nni_scenario::library::{topology_a_scenario, ExperimentParams, Mechanism};

fn corpus_with_one_entry() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nni-live-cli-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut s = topology_a_scenario(ExperimentParams {
        mechanism: Mechanism::Policing(0.2),
        duration_s: 2.0,
        ..ExperimentParams::default()
    });
    s.measurement.warmup_s = Some(0.5);
    let set = s.with_seed(5).compile().simulate();
    Corpus::open(&dir).unwrap().store(&set).unwrap();
    dir
}

#[test]
fn zero_window_is_a_usage_error() {
    let dir = corpus_with_one_entry();
    let out = Command::new(env!("CARGO_BIN_EXE_nni-live"))
        .arg(&dir)
        .args(["--window", "0", "--idle-exit", "2", "--poll-ms", "1"])
        .output()
        .expect("nni-live runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
