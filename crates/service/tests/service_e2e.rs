//! End-to-end service tests: submit → daemon drain → corpus + verdicts,
//! the decode-error exit contract of every binary, and the `nni-servicectl`
//! command surface.

use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use nni_measure::{json_escape, Corpus};
use nni_scenario::library::{
    identity_suite, topology_a_scenario, topology_b_scenario, ExperimentParams, TopologyBParams,
};
use nni_service::{reason_path_for, run_daemon, DaemonConfig, Spool};

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_nni-worker")
}

fn temp_spool_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nni-e2e-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn drain_config(spool_dir: &PathBuf) -> DaemonConfig {
    DaemonConfig {
        worker_bin: Some(PathBuf::from(worker_bin())),
        ..DaemonConfig::drain(spool_dir)
    }
}

#[test]
fn submitted_jobs_drain_into_corpus_and_verdicts() {
    let spool_dir = temp_spool_dir("drain");
    let spool = Spool::open(&spool_dir).expect("spool opens");
    let scenario = topology_a_scenario(ExperimentParams {
        duration_s: 4.0,
        ..ExperimentParams::default()
    });
    for seed in [3u64, 5, 8] {
        spool.submit(&scenario.with_seed(seed)).expect("submit");
    }

    let summary = run_daemon(&drain_config(&spool_dir)).expect("daemon drains");
    assert_eq!(summary.jobs_done, 3);

    // Every completed job spilled one measurement set, bit-identical to a
    // local simulation of the same scenario.
    let corpus = Corpus::open(spool.corpus_dir()).expect("corpus opens");
    let mut sets = corpus.load_all().expect("corpus loads");
    sets.sort_by_key(|s| s.provenance.seed);
    assert_eq!(sets.len(), 3);
    for (set, seed) in sets.iter().zip([3u64, 5, 8]) {
        assert_eq!(set.provenance.seed, seed);
        assert_eq!(set, &scenario.with_seed(seed).compile().simulate());
    }

    // Verdict stream: one JSON line per job plus the batch summaries.
    let verdicts = fs::read_to_string(spool.verdicts_path()).expect("verdicts exist");
    let lines: Vec<&str> = verdicts.lines().collect();
    assert_eq!(lines.len(), summary.jobs_done + summary.batches);
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"type\":\"verdict\""))
            .count(),
        3
    );
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad JSONL: {line}"
        );
    }
    fs::remove_dir_all(&spool_dir).expect("cleanup");
}

#[test]
fn a_drain_builds_one_plan_per_topology() {
    let spool_dir = temp_spool_dir("plans");
    let spool = Spool::open(&spool_dir).expect("spool opens");
    let a = topology_a_scenario(ExperimentParams {
        duration_s: 4.0,
        ..ExperimentParams::default()
    });
    let b = topology_b_scenario(TopologyBParams {
        duration_s: 4.0,
        ..TopologyBParams::default()
    });
    let jobs: Vec<_> = [3u64, 5, 8]
        .iter()
        .flat_map(|&seed| [a.with_seed(seed), b.with_seed(seed)])
        .collect();
    for job in &jobs {
        spool.submit(job).expect("submit");
    }

    let summary = run_daemon(&drain_config(&spool_dir)).expect("daemon drains");
    assert_eq!(summary.jobs_done, jobs.len());
    assert_eq!(
        summary.plans_built, 2,
        "one plan per topology, shared by its jobs"
    );

    // Sharing plans leaves every verdict line as a one-shot run writes it.
    let verdicts = fs::read_to_string(spool.verdicts_path()).expect("verdicts exist");
    for job in &jobs {
        let out = job.run();
        let tail = format!(
            "\"scenario\":\"{}\",\"seed\":{},\"fingerprint\":\"{:016x}\",\
             \"flagged\":{},\"correct\":{}}}",
            json_escape(&job.name),
            job.measurement.seed,
            job.measurement_fingerprint(),
            out.flagged_nonneutral,
            out.correct,
        );
        assert_eq!(
            verdicts.lines().filter(|l| l.ends_with(&tail)).count(),
            1,
            "no verdict line ends with {tail}"
        );
    }
    fs::remove_dir_all(&spool_dir).expect("cleanup");
}

#[test]
fn follow_mode_spills_segments_a_tail_can_replay() {
    let spool_dir = temp_spool_dir("follow");
    let spool = Spool::open(&spool_dir).expect("spool opens");
    let scenario = topology_a_scenario(ExperimentParams {
        duration_s: 4.0,
        ..ExperimentParams::default()
    });
    spool.submit(&scenario.with_seed(7)).expect("submit");

    let cfg = DaemonConfig {
        follow: true,
        ..drain_config(&spool_dir)
    };
    let summary = run_daemon(&cfg).expect("daemon drains");
    assert_eq!(summary.jobs_done, 1);

    // No whole-blob entry lands in follow mode — only the segment.
    let corpus = Corpus::open(spool.corpus_dir()).expect("corpus opens");
    assert!(corpus.entries().expect("lists").is_empty());
    let mut tail = nni_measure::CorpusTail::open(spool.corpus_dir()).expect("tail opens");
    let events = tail.poll().expect("tail polls");

    // Header + interval chunks reassemble the exact simulated set.
    let want = scenario.with_seed(7).compile().simulate();
    let mut header = None;
    let mut log = None;
    for e in events {
        match e {
            nni_measure::TailEvent::SegmentHeader { set, .. } => {
                log = Some(nni_measure::MeasurementLog::new(
                    set.log.path_count(),
                    set.log.interval_s(),
                ));
                header = Some(set);
            }
            nni_measure::TailEvent::SegmentIntervals { first_t, rows, .. } => {
                let log = log.as_mut().expect("header precedes intervals");
                for (i, (sent, lost)) in rows.iter().enumerate() {
                    for (p, (&s, &l)) in sent.iter().zip(lost).enumerate() {
                        let path = nni_topology::PathId(p);
                        log.record_sent(first_t + i, path, s);
                        log.record_lost(first_t + i, path, l);
                    }
                }
            }
            other => panic!("unexpected tail event {other:?}"),
        }
    }
    let header = header.expect("segment header seen");
    assert_eq!(header.provenance, want.provenance);
    assert_eq!(log.expect("intervals seen"), want.log);
    fs::remove_dir_all(&spool_dir).expect("cleanup");
}

#[test]
fn undecodable_job_parks_and_the_daemon_continues() {
    let spool_dir = temp_spool_dir("badjob");
    let spool = Spool::open(&spool_dir).expect("spool opens");
    fs::write(
        spool.root().join("incoming").join("corrupt.job"),
        b"these are not frame bytes",
    )
    .expect("write bad job");
    // A healthy job alongside: parking the offender must not cost it.
    let scenario = topology_a_scenario(ExperimentParams {
        duration_s: 4.0,
        ..ExperimentParams::default()
    });
    spool.submit(&scenario.with_seed(4)).expect("submit");

    let summary = run_daemon(&drain_config(&spool_dir)).expect("daemon survives the bad job");
    assert_eq!(summary.jobs_done, 1);
    assert_eq!(summary.parked, 1);

    let counts = spool.counts().expect("counts");
    assert_eq!((counts.failed, counts.done), (1, 1));
    // The parked job carries a machine-readable reason...
    let parked = spool.root().join("failed").join("corrupt.job");
    assert!(parked.exists(), "bad job must be parked in failed/");
    let reason = fs::read_to_string(reason_path_for(&parked)).expect("reason file");
    assert!(reason.contains("\"kind\":\"undecodable\""), "got: {reason}");
    // ...and an audit line in the verdict stream.
    let verdicts = fs::read_to_string(spool.verdicts_path()).expect("verdicts");
    assert!(verdicts.lines().any(|l| l.contains("\"type\":\"parked\"")));
    fs::remove_dir_all(&spool_dir).expect("cleanup");
}

#[test]
fn worker_binary_exits_nonzero_on_garbage_stdin() {
    let mut child = Command::new(worker_bin())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("worker spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"garbage bytes, not a frame")
        .expect("write garbage");
    let out = child.wait_with_output().expect("worker exits");
    assert_eq!(out.status.code(), Some(1), "decode errors must exit 1");
    assert!(out.stdout.is_empty(), "no result frame may be emitted");
    assert!(!out.stderr.is_empty(), "the failure must be reported");
}

#[test]
fn worker_binary_exits_zero_on_clean_eof() {
    let out = Command::new(worker_bin())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .output()
        .expect("worker runs");
    assert!(out.status.success(), "clean EOF is a clean exit");
}

#[test]
fn servicectl_submit_status_drain_round_trip() {
    let spool_dir = temp_spool_dir("ctl");
    let ctl = env!("CARGO_BIN_EXE_nni-servicectl");
    let run = |args: &[&str]| {
        Command::new(ctl)
            .args(args)
            .output()
            .expect("servicectl runs")
    };
    let spool_s = spool_dir.to_str().expect("utf8 temp dir");

    // Submit by the library's own name — whatever the suite calls its first
    // member — so the test does not hard-code naming conventions.
    let name = identity_suite()[0].name.clone();
    let out = run(&["submit", spool_s, &name]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = run(&["submit", spool_s, "no-such-scenario"]);
    assert_eq!(out.status.code(), Some(1), "unknown scenario must exit 1");

    let out = run(&["status", spool_s]);
    assert!(out.status.success());
    let status = String::from_utf8_lossy(&out.stdout);
    assert!(status.contains("incoming 1"), "got: {status}");

    let out = run(&["drain", spool_s]);
    assert!(out.status.success());
    assert!(Spool::open(&spool_dir).expect("spool").drain_requested());

    let out = run(&["bogus-subcommand"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    fs::remove_dir_all(&spool_dir).expect("cleanup");
}
