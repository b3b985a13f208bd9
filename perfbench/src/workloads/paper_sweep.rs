//! `paper_sweep`: Table 2's 34 topology-A experiments at 10 s simulated,
//! run as one serial sweep batch.
//!
//! Emulation is nearly all of a sweep (dense 20–70 flows per path on four
//! paths, one slice per plan), so an emulator change shows here and an
//! inference change should not.

use std::time::{Duration, Instant};

use nni_scenario::{run_sets, simulation_count, InferenceConfig, SerialExecutor, SweepSet};

use super::{failed_frac, repeated_setup, traced_infer, Ctx, Measured};
use crate::inputs::{paper_sets, refuse_empty_log};
use crate::stats::median;

/// One verdict of the sweep: who it was for, what it said, and its
/// identity.
#[derive(Debug, Clone, PartialEq)]
struct Verdict {
    flagged: bool,
    correct: bool,
    fingerprint: u64,
    intervals: usize,
}

fn setup(ctx: &mut Ctx) -> Result<Vec<SweepSet>, String> {
    let sets = paper_sets(ctx.seed);
    for scenario in sets.iter().flat_map(SweepSet::scenarios) {
        refuse_empty_log(scenario)?;
    }
    Ok(sets)
}

/// The sweep exactly as users run it.
fn sweep(sets: &[SweepSet]) -> Vec<Verdict> {
    run_sets(sets, &SerialExecutor)
        .into_iter()
        .flatten()
        .map(|o| Verdict {
            flagged: o.outcome.flagged_nonneutral,
            correct: o.outcome.correct,
            fingerprint: o.outcome.inference.fingerprint(),
            intervals: o.outcome.report.log.interval_count(),
        })
        .collect()
}

/// The same sweep through the public calls `run_sets` makes per member —
/// compile, emulate, plan, observe, decide — each in a span.
fn traced_sweep(ctx: &mut Ctx, sets: &[SweepSet]) -> Vec<Verdict> {
    let trace = &mut ctx.trace;
    let experiments: Vec<_> = trace.span("scenario.compile_ms", || {
        sets.iter().flat_map(SweepSet::compile).collect()
    });
    let mut verdicts = Vec::with_capacity(experiments.len());
    for exp in &experiments {
        let s = exp.scenario();
        let sims = simulation_count();
        let report = trace.span("emu.emulate_ms", || exp.emulate());
        trace.count("scenario.simulations", (simulation_count() - sims) as f64);
        trace.count("emu.segments", report.segments_sent as f64);
        let result = traced_infer(
            trace,
            &s.topology,
            &report.log,
            s.measurement.seed,
            &InferenceConfig::of(s),
        );
        let flagged = result.network_is_nonneutral();
        verdicts.push(Verdict {
            flagged,
            correct: flagged == s.expectation.expect_flagged,
            fingerprint: result.fingerprint(),
            intervals: report.log.interval_count(),
        });
    }
    verdicts
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let (sets, setup_s) = repeated_setup(ctx, setup)?;
    let inputs: usize = sets.iter().map(SweepSet::len).sum();

    let mut rates = Vec::new();
    let mut rounds: Vec<Vec<Verdict>> = Vec::new();
    let mut timed = Duration::ZERO;
    while rounds.is_empty() || timed < ctx.seconds {
        ctx.trace.next_round();
        let t = Instant::now();
        let verdicts = if ctx.trace.enabled() {
            traced_sweep(ctx, &sets)
        } else {
            sweep(&sets)
        };
        let wall = t.elapsed();
        ctx.trace.record("bench.traced_ms", t, wall);
        timed += wall;
        rates.push(verdicts.len() as f64 / wall.as_secs_f64());
        rounds.push(verdicts);
    }

    // Checks, outside the timed region. Every round must deliver one
    // verdict per input, each decided on a non-empty log, identical to the
    // sweep as users run it.
    let reference = if ctx.trace.enabled() {
        sweep(&sets)
    } else {
        rounds[0].clone()
    };
    let mut failed = 0u64;
    for verdicts in &rounds {
        failed += inputs.saturating_sub(verdicts.len()) as u64;
        failed += verdicts
            .iter()
            .zip(&reference)
            .filter(|(v, r)| v != r || v.intervals == 0)
            .count() as u64;
    }
    let attempted = (inputs * rounds.len()) as u64;
    let accuracy = reference.iter().filter(|v| v.correct).count() as f64 / inputs as f64;
    eprintln!(
        "paper_sweep: {} experiments x {} rounds, {} flagged, {} of {} verdicts match expectation",
        inputs,
        rounds.len(),
        reference.iter().filter(|v| v.flagged).count(),
        reference.iter().filter(|v| v.correct).count(),
        inputs
    );
    eprintln!("  per-round verdicts/s: {:.3?}", rates);
    Ok(Measured {
        correct: failed == 0 && reference.len() == inputs,
        attempted,
        failed,
        setup_s,
        verdicts_per_s: median(&rates).expect("at least one round"),
        verdict_accuracy: accuracy,
        extra: Vec::new(),
        derived: vec![
            ("failed_frac", failed_frac(failed, attempted)),
            ("bench.rounds", rounds.len() as f64),
        ],
    })
}
