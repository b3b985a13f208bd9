//! Experiment executors: run a batch of independent experiments serially or
//! sharded across threads.
//!
//! Independent experiment runs are embarrassingly parallel — each one owns
//! its simulator, RNG, and logs, and [`Experiment::run`] is a pure function
//! of the scenario. The [`ShardedExecutor`] therefore guarantees the same
//! results as [`SerialExecutor`], in the same order, for any worker count:
//! outcomes are written into per-index slots, never into a shared
//! accumulator, so scheduling order cannot leak into the output.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use nni_core::PlanCache;
use nni_measure::MeasurementSet;

use crate::experiment::{Experiment, ExperimentOutcome};
use crate::spec::Scenario;

/// Runs batches of compiled experiments.
pub trait Executor {
    /// Runs every experiment end to end (simulate + infer + score) and
    /// returns outcomes in input order. One call shares one [`PlanCache`]
    /// across its experiments.
    fn execute(&self, experiments: &[Experiment]) -> Vec<ExperimentOutcome>;

    /// Runs only the acquisition half of every experiment, returning the
    /// measurement sets in input order — the batch primitive re-inference
    /// sweeps build on (inference then fans out over the sets without
    /// touching the emulator again).
    fn acquire(&self, experiments: &[Experiment]) -> Vec<MeasurementSet>;

    /// Human-readable description for reports (`"serial"`, `"sharded(8)"`).
    fn describe(&self) -> String;
}

/// Runs experiments one after another on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn execute(&self, experiments: &[Experiment]) -> Vec<ExperimentOutcome> {
        let plans = PlanCache::new();
        experiments
            .iter()
            .map(|e| e.outcome_from(e.emulate(), &plans))
            .collect()
    }

    fn acquire(&self, experiments: &[Experiment]) -> Vec<MeasurementSet> {
        experiments.iter().map(Experiment::simulate).collect()
    }

    fn describe(&self) -> String {
        "serial".into()
    }
}

/// Fans independent experiment runs across `workers` scoped threads.
///
/// Work is claimed from an atomic counter (no pre-partitioning, so a few
/// slow experiments cannot strand an idle worker) and each outcome lands in
/// its input-index slot — result order is deterministic and identical to
/// [`SerialExecutor`]'s, seed for seed.
#[derive(Debug, Clone, Copy)]
pub struct ShardedExecutor {
    workers: usize,
}

impl ShardedExecutor {
    /// An executor with an explicit worker count (at least one).
    pub fn new(workers: usize) -> ShardedExecutor {
        ShardedExecutor {
            workers: workers.max(1),
        }
    }

    /// One worker per available hardware thread.
    pub fn auto() -> ShardedExecutor {
        ShardedExecutor::new(
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Executor for ShardedExecutor {
    fn execute(&self, experiments: &[Experiment]) -> Vec<ExperimentOutcome> {
        let plans = PlanCache::new();
        sharded_map(self.workers, experiments.len(), |i| {
            let e = &experiments[i];
            e.outcome_from(e.emulate(), &plans)
        })
        .unwrap_or_else(|| SerialExecutor.execute(experiments))
    }

    fn acquire(&self, experiments: &[Experiment]) -> Vec<MeasurementSet> {
        sharded_map(self.workers, experiments.len(), |i| {
            experiments[i].simulate()
        })
        .unwrap_or_else(|| SerialExecutor.acquire(experiments))
    }

    fn describe(&self) -> String {
        format!("sharded({})", self.workers)
    }
}

/// The sharded fan-out shared by both executor entry points: `f(i)` for
/// every index, claimed from an atomic counter (no pre-partitioning, so a
/// few slow items cannot strand an idle worker), each result landing in its
/// input-index slot — result order is deterministic and identical to a
/// serial run. Returns `None` when the effective worker count is one (the
/// caller falls back to the serial path without spawning).
fn sharded_map<T: Send>(workers: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Option<Vec<T>> {
    let workers = workers.min(n);
    if workers <= 1 {
        return None;
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("unpoisoned slot") = Some(result);
            });
        }
    });
    Some(
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("unpoisoned slot")
                    .expect("every index was claimed exactly once")
            })
            .collect(),
    )
}

/// Compiles every scenario, preserving order.
pub fn compile_all(scenarios: &[Scenario]) -> Vec<Experiment> {
    scenarios.iter().map(Scenario::compile).collect()
}

/// The (seed × scenario) fan-out: one compiled experiment per seed, in seed
/// order — feed the result to any [`Executor`].
pub fn seed_sweep(scenario: &Scenario, seeds: &[u64]) -> Vec<Experiment> {
    seeds
        .iter()
        .map(|&seed| scenario.with_seed(seed).compile())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executors_handle_empty_batches() {
        assert!(SerialExecutor.execute(&[]).is_empty());
        assert!(ShardedExecutor::new(4).execute(&[]).is_empty());
    }

    #[test]
    fn worker_count_floors_at_one() {
        assert_eq!(ShardedExecutor::new(0).workers(), 1);
        assert!(ShardedExecutor::auto().workers() >= 1);
    }

    #[test]
    fn describe_names_the_strategy() {
        assert_eq!(SerialExecutor.describe(), "serial");
        assert_eq!(ShardedExecutor::new(3).describe(), "sharded(3)");
    }

    #[test]
    fn acquire_is_identical_serial_and_sharded() {
        let scenario = crate::library::topology_a_scenario(crate::library::ExperimentParams {
            duration_s: 2.0,
            ..crate::library::ExperimentParams::default()
        });
        let batch = seed_sweep(&scenario, &[1, 2, 3]);
        let serial = SerialExecutor.acquire(&batch);
        let sharded = ShardedExecutor::new(2).acquire(&batch);
        assert_eq!(serial, sharded, "acquisition must be executor-invariant");
        assert_eq!(serial.len(), 3);
        assert_eq!(serial[1].provenance.seed, 2);
    }
}
