//! The chaos gate: the seed-42 randomized scenario population run under a
//! randomized [`FaultPlan`] — worker hangs, slow answers, aborts before
//! and after the result frame, torn frames, bit-flipped checksums, poison
//! jobs — must end with every completed job bit-identical to a serial
//! run and the quarantine set *exactly* equal to the plan's predicted
//! poison set. Fault draws key on the job token (measurement fingerprint
//! + seed), so the test can compute that prediction up front.
//!
//! The plan travels per-executor via [`ProcessExecutor::with_env`] /
//! [`DaemonConfig::worker_env`], never the test process's own
//! environment, so these tests run in parallel with everything else.
//!
//! `NNI_FAULT_SEED` reseeds both the population and the plan (CI pins 42).
//! The full storm runs over stdio pipes. A second storm of the faults a
//! worker survives (hangs, slow answers, bit flips) runs against a
//! standalone `--listen` worker over the `Remote` socket transport, where
//! the plan rides the worker's own environment and the pool's only remedy
//! is to sever the connection and redial.

use std::io::BufRead;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use nni_scenario::{
    Executor, Fault, FaultPlan, ProcessError, ProcessExecutor, Scenario, ScenarioGen,
    SerialExecutor, WorkerFailure, WorkerTransport, FAULT_PLAN_ENV,
};
use nni_service::{fault_token, reason_path_for, run_daemon, DaemonConfig, Spool};

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_nni-worker")
}

fn fault_seed() -> u64 {
    std::env::var("NNI_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The same population the identity and invariants harnesses check: 16
/// full-generator scenarios plus 8 forced-neutral controls.
fn chaos_population() -> Vec<Scenario> {
    let seed = fault_seed();
    let mut pop = ScenarioGen::new(seed).scenarios(16);
    pop.extend(ScenarioGen::neutral_only(seed.wrapping_add(0x9E37_79B9)).scenarios(8));
    pop
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nni-chaos-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A cheap single scenario for the targeted failure-mode tests.
fn quick_scenario() -> Scenario {
    use nni_scenario::library::{topology_a_scenario, ExperimentParams};
    topology_a_scenario(ExperimentParams {
        duration_s: 1.0,
        ..ExperimentParams::default()
    })
}

#[test]
fn hung_worker_is_killed_respawned_and_the_job_retried() {
    let state = temp_dir("hang-state");
    let scenario = quick_scenario();
    let plan = FaultPlan {
        hang: 1.0,
        hang_ms: 60_000,
        state: Some(state.clone()), // one-shot: the retry runs clean
        ..FaultPlan::seeded(fault_seed())
    };
    let exec = ProcessExecutor::new(1)
        .with_worker_bin(worker_bin())
        .with_job_timeout(Duration::from_millis(2_500))
        .with_backoff(Duration::from_millis(5), Duration::from_millis(20))
        .with_env(FAULT_PLAN_ENV, plan.to_env());
    let refs = [&scenario];
    let (reports, stats) = exec.try_reports(&refs).expect("retry lands after the kill");
    assert_eq!(reports[0], scenario.compile().emulate());
    assert!(stats.timeouts >= 1, "the hang must be seen: {stats:?}");
    assert!(stats.respawns >= 1, "the worker must be killed: {stats:?}");
    std::fs::remove_dir_all(&state).unwrap();
}

#[test]
fn exhausted_hang_budget_surfaces_a_typed_hang_failure() {
    let scenario = quick_scenario();
    let plan = FaultPlan {
        hang: 1.0,
        hang_ms: 60_000,
        state: None, // fire on every attempt: exhaust the budget
        ..FaultPlan::seeded(fault_seed())
    };
    let exec = ProcessExecutor::new(1)
        .with_worker_bin(worker_bin())
        .with_max_attempts(2)
        .with_job_timeout(Duration::from_millis(400))
        .with_backoff(Duration::from_millis(5), Duration::from_millis(20))
        .with_env(FAULT_PLAN_ENV, plan.to_env());
    match exec.try_reports(&[&scenario]).unwrap_err() {
        ProcessError::JobFailed {
            job,
            attempts,
            last,
        } => {
            assert_eq!((job, attempts), (0, 2));
            assert!(
                matches!(last, WorkerFailure::Hang { timeout_ms: 400 }),
                "a hang must be reported as one, got {last}"
            );
        }
        other => panic!("expected JobFailed, got {other}"),
    }
}

#[test]
fn clean_eof_mid_batch_is_distinguished_from_a_hang() {
    let scenario = quick_scenario();
    let plan = FaultPlan {
        crash_before: 1.0, // abort before answering: clean EOF, no bytes
        state: None,
        ..FaultPlan::seeded(fault_seed())
    };
    let exec = ProcessExecutor::new(1)
        .with_worker_bin(worker_bin())
        .with_max_attempts(3)
        .with_backoff(Duration::from_millis(5), Duration::from_millis(20))
        .with_env(FAULT_PLAN_ENV, plan.to_env());
    match exec.try_reports(&[&scenario]).unwrap_err() {
        ProcessError::JobFailed {
            job,
            attempts,
            last,
        } => {
            assert_eq!((job, attempts), (0, 3));
            assert!(
                matches!(last, WorkerFailure::CleanEof),
                "an exit without an answer is a clean EOF, not a hang: {last}"
            );
        }
        other => panic!("expected JobFailed, got {other}"),
    }
}

#[test]
fn chaos_population_is_bit_identical_and_quarantines_exactly_the_poison_set() {
    let scenarios = chaos_population();
    let refs: Vec<&Scenario> = scenarios.iter().collect();

    // The plan is known before the storm: predict the poison set.
    let state = temp_dir("storm-state-stdio");
    let plan = FaultPlan {
        crash_before: 0.12,
        crash_after: 0.12,
        torn: 0.12,
        bitflip: 0.12,
        slow: 0.10,
        slow_ms: 25,
        hang: 0.08,
        hang_ms: 60_000,
        poison: 0.12,
        state: Some(state.clone()),
        ..FaultPlan::seeded(fault_seed())
    };
    let poison: Vec<usize> = scenarios
        .iter()
        .enumerate()
        .filter(|(_, s)| plan.poisoned(fault_token(s)))
        .map(|(i, _)| i)
        .collect();
    if fault_seed() == 42 {
        assert!(
            !poison.is_empty() && poison.len() < scenarios.len(),
            "seed 42 must poison a strict subset: {poison:?}"
        );
    }

    let serial =
        SerialExecutor.execute(&scenarios.iter().map(Scenario::compile).collect::<Vec<_>>());

    let exec = ProcessExecutor::new(4)
        .with_worker_bin(worker_bin())
        .with_max_attempts(6) // transients fire once: never quarantined
        .with_job_timeout(Duration::from_secs(10))
        .with_backoff(Duration::from_millis(5), Duration::from_millis(50))
        .with_env(FAULT_PLAN_ENV, plan.to_env());
    let outcome = exec.try_batch(&refs).expect("the pool survives the storm");

    // Quarantined exactly the predicted poison set — no transient was
    // promoted to poison, no poison slipped through.
    let quarantined: Vec<usize> = outcome.quarantined.iter().map(|q| q.job).collect();
    assert_eq!(quarantined, poison, "quarantine must equal the poison set");
    for q in &outcome.quarantined {
        assert_eq!(q.attempts, 6, "poison must exhaust the budget: {q:?}");
        assert!(
            matches!(q.last, WorkerFailure::CleanEof | WorkerFailure::Io(_)),
            "poison aborts before answering: {:?}",
            q.last
        );
    }
    assert_eq!(outcome.stats.quarantined, poison.len());

    // Every completed job is bit-identical to its serial outcome.
    assert_eq!(outcome.reports.len(), scenarios.len());
    for (i, report) in outcome.reports.iter().enumerate() {
        match report {
            Some(r) => assert_eq!(
                r, &serial[i].report,
                "chaos must not change completed outcomes (job {i})"
            ),
            None => assert!(poison.contains(&i), "only poison may be missing ({i})"),
        }
    }
    std::fs::remove_dir_all(&state).unwrap();
}

/// Spawns one standalone `nni-worker --listen 127.0.0.1:0` with `envs` in
/// its own environment and parses the bound address off its announcement.
fn listen_worker(envs: &[(&str, String)]) -> (Child, SocketAddr) {
    let mut child = Command::new(worker_bin())
        .args(["--listen", "127.0.0.1:0"])
        .envs(envs.iter().map(|(k, v)| (k, v)))
        .stdout(Stdio::piped())
        .spawn()
        .expect("listen worker spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("announcement line");
    let addr = line
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("bad announcement: {line:?}"))
        .trim()
        .parse()
        .expect("announced address parses");
    (child, addr)
}

#[test]
fn remote_worker_faults_sever_redial_and_retry_exactly_the_predicted_set() {
    // Crash faults stay out: an abort in a `--listen` worker would kill
    // every connection it serves, not one job.
    let scenarios = chaos_population();
    let refs: Vec<&Scenario> = scenarios.iter().collect();
    let state = temp_dir("remote-state");
    let plan = FaultPlan {
        bitflip: 0.15,
        hang: 0.08,
        hang_ms: 60_000,
        slow: 0.15,
        slow_ms: 25,
        state: Some(state.clone()), // one-shot: every retry runs clean
        ..FaultPlan::seeded(fault_seed())
    };
    let drawn = |fault: Fault| -> Vec<usize> {
        (0..scenarios.len())
            .filter(|&i| plan.transient(fault_token(&scenarios[i])) == Some(fault))
            .collect()
    };
    let hangs = drawn(Fault::Hang);
    let flips = drawn(Fault::BitFlip);
    let slow = drawn(Fault::Slow);
    if fault_seed() == 42 {
        assert!(
            !hangs.is_empty() && !flips.is_empty() && !slow.is_empty(),
            "seed 42 must draw every fault kind: {hangs:?} {flips:?} {slow:?}"
        );
    }

    let serial =
        SerialExecutor.execute(&scenarios.iter().map(Scenario::compile).collect::<Vec<_>>());

    let (mut child, addr) = listen_worker(&[(FAULT_PLAN_ENV, plan.to_env())]);
    let outcome = ProcessExecutor::new(2)
        .with_transport(WorkerTransport::Remote(vec![addr]))
        .with_max_attempts(3)
        .with_job_timeout(Duration::from_secs(10))
        .with_backoff(Duration::from_millis(5), Duration::from_millis(50))
        .try_batch(&refs);
    let _ = child.kill();
    let _ = child.wait();
    let outcome = outcome.expect("the remote pool survives the faults");

    let expected: Vec<_> = serial.into_iter().map(|o| Some(o.report)).collect();
    assert!(
        outcome.reports == expected,
        "remote faults changed outcomes"
    );
    // Each hang and each bit flip costs exactly one severed connection and
    // one retry; a slow answer is still an answer.
    let stats = outcome.stats;
    assert_eq!(stats.retries, hangs.len() + flips.len(), "{stats:?}");
    assert_eq!(stats.respawns, stats.retries, "{stats:?}");
    assert_eq!(stats.timeouts, hangs.len(), "{stats:?}");
    std::fs::remove_dir_all(&state).unwrap();
}

#[test]
fn daemon_parks_poison_jobs_and_drains_the_rest() {
    let scenarios = chaos_population();
    // Pick a plan (deterministically) that poisons some of the population
    // but not all of it, whatever the seed.
    let state = temp_dir("daemon-state");
    let mut plan = FaultPlan {
        torn: 0.15,
        bitflip: 0.15,
        state: Some(state.clone()),
        ..FaultPlan::seeded(fault_seed())
    };
    let mut poisoned = Vec::new();
    for rate in [0.12, 0.25, 0.5, 0.75] {
        plan.poison = rate;
        poisoned = scenarios
            .iter()
            .filter(|s| plan.poisoned(fault_token(s)))
            .cloned()
            .collect();
        if !poisoned.is_empty() && poisoned.len() < scenarios.len() {
            break;
        }
    }
    assert!(!poisoned.is_empty() && poisoned.len() < scenarios.len());
    let clean: Vec<Scenario> = scenarios
        .iter()
        .filter(|s| !plan.poisoned(fault_token(s)))
        .take(3)
        .cloned()
        .collect();
    let poisoned: Vec<Scenario> = poisoned.into_iter().take(2).collect();

    let spool_dir = temp_dir("daemon-spool");
    let spool = Spool::open(&spool_dir).expect("spool opens");
    for s in clean.iter().chain(&poisoned) {
        spool.submit(s).expect("submit");
    }

    let cfg = DaemonConfig {
        worker_bin: Some(PathBuf::from(worker_bin())),
        worker_env: vec![(FAULT_PLAN_ENV.to_string(), plan.to_env())],
        max_attempts: 2,
        job_retries: 2,
        retry_base_ms: 5,
        retry_cap_ms: 25,
        ..DaemonConfig::drain(&spool_dir)
    };
    let summary = run_daemon(&cfg).expect("poison parks; the daemon lives");

    // The offenders are parked with machine-readable reasons; everything
    // else drained in the same run.
    assert_eq!(summary.jobs_done, clean.len(), "clean jobs all complete");
    assert_eq!(summary.parked, poisoned.len(), "poison jobs all park");
    assert!(summary.quarantined >= summary.parked);
    let counts = spool.counts().expect("counts");
    assert_eq!(
        (counts.incoming, counts.running, counts.done, counts.failed),
        (0, 0, clean.len(), poisoned.len())
    );
    let failed_dir = spool.root().join("failed");
    for entry in std::fs::read_dir(&failed_dir).expect("failed/") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "job") {
            let reason =
                std::fs::read_to_string(reason_path_for(&path)).expect("reason file exists");
            assert!(reason.contains("\"kind\":\"quarantined\""), "got: {reason}");
        }
    }
    let verdicts = std::fs::read_to_string(spool.verdicts_path()).expect("verdicts");
    assert!(verdicts
        .lines()
        .any(|l| l.contains("\"type\":\"requeued\"")));
    assert!(verdicts.lines().any(|l| l.contains("\"type\":\"parked\"")));
    std::fs::remove_dir_all(&spool_dir).unwrap();
    std::fs::remove_dir_all(&state).unwrap();
}
