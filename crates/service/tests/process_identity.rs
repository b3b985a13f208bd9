//! The identity gate: for the same scenarios, the process executor's
//! outcomes are bit-identical to the serial and sharded executors' —
//! across the curated 14-scenario identity suite AND the 24-scenario
//! randomized invariant population, over both worker transports (stdio
//! pipes and dial-out to `--listen` workers over TCP sockets). This is
//! the suite the dedicated `process-identity` and `socket-identity` CI
//! jobs run (the latter filters on `socket`).
//!
//! The worker binary is the one cargo just built for this crate
//! (`CARGO_BIN_EXE_nni-worker`), so the gate always tests the code under
//! review, never a stale installed binary.

use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

use nni_scenario::library::identity_suite;
use nni_scenario::{
    run_sets, Executor, ProcessExecutor, Scenario, ScenarioGen, SerialExecutor, ShardedExecutor,
    SweepSet, WorkerTransport,
};

fn process_pool(workers: usize) -> ProcessExecutor {
    ProcessExecutor::new(workers).with_worker_bin(env!("CARGO_BIN_EXE_nni-worker"))
}

/// Spawns one standalone `nni-worker --listen 127.0.0.1:0` and parses the
/// bound address off its announcement line.
fn listen_worker() -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nni-worker"))
        .args(["--listen", "127.0.0.1:0"])
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

/// Standalone `--listen` workers, killed and reaped on drop — also when an
/// assertion fails, so no test leaks a process.
struct ListenWorkers(Vec<Child>);

impl Drop for ListenWorkers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A dial-out pool with one connection to each of `workers` fresh
/// `--listen` workers.
fn remote_pool(workers: usize) -> (ProcessExecutor, ListenWorkers) {
    let (children, addrs): (Vec<Child>, Vec<SocketAddr>) =
        (0..workers).map(|_| listen_worker()).unzip();
    let pool = ProcessExecutor::new(workers).with_transport(WorkerTransport::Remote(addrs));
    (pool, ListenWorkers(children))
}

fn invariant_seed() -> u64 {
    std::env::var("NNI_INVARIANT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The same population `crates/scenario/tests/invariants.rs` checks: 16
/// full-generator scenarios plus 8 forced-neutral controls.
fn random_population() -> Vec<Scenario> {
    let seed = invariant_seed();
    let mut pop = ScenarioGen::new(seed).scenarios(16);
    pop.extend(ScenarioGen::neutral_only(seed.wrapping_add(0x9E37_79B9)).scenarios(8));
    pop
}

#[test]
fn identity_suite_is_three_way_bit_identical() {
    let experiments: Vec<_> = identity_suite().iter().map(Scenario::compile).collect();
    assert_eq!(experiments.len(), 14, "the curated identity suite");

    let serial = SerialExecutor.execute(&experiments);
    let sharded = ShardedExecutor::new(3).execute(&experiments);
    assert_eq!(serial, sharded, "sharded must match serial");

    let (process, stats) = process_pool(2)
        .try_execute(&experiments)
        .expect("process batch succeeds");
    assert_eq!(
        serial, process,
        "process outcomes must be bit-identical to serial, in input order"
    );
    assert_eq!(
        (stats.respawns, stats.retries),
        (0, 0),
        "a healthy pool neither crashes nor retries"
    );
}

#[test]
fn randomized_population_is_three_way_bit_identical() {
    // Same sweep-set surface as the invariants harness: identity must hold
    // on batched sets (compile + batch + re-slice), not just single runs.
    let sets: Vec<SweepSet> = random_population()
        .chunks(6)
        .enumerate()
        .map(|(i, chunk)| {
            SweepSet::from_points(
                format!("random set {i}"),
                "member",
                chunk.iter().map(|s| (s.name.clone(), s.clone())),
            )
        })
        .collect();
    assert_eq!(sets.iter().map(SweepSet::len).sum::<usize>(), 24);

    let serial = run_sets(&sets, &SerialExecutor);
    let sharded = run_sets(&sets, &ShardedExecutor::new(3));
    let process = run_sets(&sets, &process_pool(2));
    assert_eq!(serial, sharded, "sharded must match serial");
    assert_eq!(
        serial, process,
        "process sweep-set outcomes must be bit-identical to serial"
    );
}

#[test]
fn identity_suite_is_bit_identical_over_tcp_sockets() {
    // The socket leg of the gate: same jobs, same answers, whether the
    // frames cross stdio pipes or a loopback TCP connection to `--listen`
    // workers.
    let experiments: Vec<_> = identity_suite().iter().map(Scenario::compile).collect();
    let serial = SerialExecutor.execute(&experiments);

    let (pool, _workers) = remote_pool(2);
    let (remote, stats) = pool
        .try_execute(&experiments)
        .expect("remote batch succeeds");
    assert_eq!(
        serial, remote,
        "socket-transport outcomes must be bit-identical to serial"
    );
    assert_eq!(
        (stats.respawns, stats.retries),
        (0, 0),
        "a healthy socket pool neither crashes nor retries"
    );
}

#[test]
fn randomized_population_is_bit_identical_over_tcp_sockets() {
    let sets: Vec<SweepSet> = random_population()
        .chunks(6)
        .enumerate()
        .map(|(i, chunk)| {
            SweepSet::from_points(
                format!("random socket set {i}"),
                "member",
                chunk.iter().map(|s| (s.name.clone(), s.clone())),
            )
        })
        .collect();
    let serial = run_sets(&sets, &SerialExecutor);
    let (pool, _workers) = remote_pool(2);
    let remote = run_sets(&sets, &pool);
    assert_eq!(
        serial, remote,
        "socket sweep-set outcomes must be bit-identical to serial"
    );
}

#[test]
fn identity_holds_against_standalone_listen_socket_workers() {
    // Dial-out mode: the pool owns no worker processes at all — it
    // connects to already-running `nni-worker --listen` endpoints, the
    // fleet-of-boxes shape. Identity must survive that too.
    let (mut w1, a1) = listen_worker();
    let (mut w2, a2) = listen_worker();
    let experiments: Vec<_> = identity_suite()
        .iter()
        .take(6)
        .map(Scenario::compile)
        .collect();
    let serial = SerialExecutor.execute(&experiments);
    let remote = ProcessExecutor::new(2)
        .with_transport(WorkerTransport::Remote(vec![a1, a2]))
        .try_execute(&experiments);
    let _ = w1.kill();
    let _ = w2.kill();
    let _ = w1.wait();
    let _ = w2.wait();
    let (remote, _) = remote.expect("remote batch succeeds");
    assert_eq!(
        serial, remote,
        "dial-out worker outcomes must be bit-identical to serial"
    );
}

#[test]
fn acquired_measurement_sets_are_identical_too() {
    // The daemon path goes through `acquire` (measurement sets spilled to a
    // corpus), so identity must hold on that surface as well.
    let scenarios: Vec<Scenario> = identity_suite().into_iter().take(4).collect();
    let experiments: Vec<_> = scenarios.iter().map(Scenario::compile).collect();
    let serial = SerialExecutor.acquire(&experiments);
    let process = process_pool(2).acquire(&experiments);
    assert_eq!(serial, process, "measurement sets must match bit for bit");
}
