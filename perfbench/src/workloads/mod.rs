//! The three workloads and what they share: the run context, repeated
//! set-up, the traced inference pipeline, and the metric lists.

pub mod isp_live;
pub mod isp_service;
pub mod paper_sweep;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use nni_core::{identify_scores, IdentifyPlan, InferenceResult};
use nni_measure::{interval_eval_count, MeasuredObservations, MeasurementLog, NormalizeConfig};
use nni_scenario::InferenceConfig;
use nni_topology::Topology;

use crate::report::Metric;
use crate::stats::median;
use crate::trace::Trace;

/// Environment variable that turns the benchmark binary into an
/// `nni-worker` stand-in (the process pools spawn the benchmark itself).
pub const ROLE_ENV: &str = "PERFBENCH_ROLE";

/// Everything a workload run needs.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: Duration,
    /// Span recorder (enabled for the traced run only).
    pub trace: Trace,
    /// Scratch directory for spools and segments, removed after the run.
    pub work: PathBuf,
    /// The binary worker pools spawn.
    pub worker_bin: PathBuf,
}

/// What a workload measured and checked.
#[derive(Debug)]
pub struct Measured {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Median set-up time.
    pub setup_s: f64,
    /// Median verdicts delivered per wall second.
    pub verdicts_per_s: f64,
    /// Share of verdicts matching the scenario's expectation.
    pub verdict_accuracy: f64,
    /// Workload-specific end-to-end metrics beyond the common four.
    pub extra: Vec<(&'static str, f64)>,
    /// Values of per-layer metrics computed from several measurements.
    pub derived: Vec<(&'static str, f64)>,
}

/// End-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_accuracy", "frac"),
    ("peak_rss_mb", "MB"),
];

/// The live workload's own end-to-end metrics.
pub const LIVE_END_TO_END: [(&str, &str); 4] = [
    ("update_ms_p50", "ms"),
    ("update_ms_p95", "ms"),
    ("gen_late_ms_p95", "ms"),
    ("failed_frac", "frac"),
];

/// Per-layer metrics of the traced run. A name ending in `_ms` is the
/// median per-round total of the spans of that name; any other is the
/// median per-round total of the counter of that name; either may be
/// overridden by a derived value. A layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("topogen.generate_ms", "ms"),
    ("scenario.compile_ms", "ms"),
    ("scenario.package_ms", "ms"),
    ("scenario.simulations", "count"),
    ("emu.emulate_ms", "ms"),
    ("emu.segments", "count"),
    ("emu.segments_per_s", "1/s"),
    ("emu.wire_encode_ms", "ms"),
    ("emu.wire_decode_ms", "ms"),
    ("emu.wire_bytes", "bytes"),
    ("core.plan_ms", "ms"),
    ("core.plan_slices", "count"),
    ("core.observe_ms", "ms"),
    ("core.pathset_evals", "count"),
    ("core.decide_ms", "ms"),
    ("measure.codec_encode_ms", "ms"),
    ("measure.codec_decode_ms", "ms"),
    ("measure.set_bytes", "bytes"),
    ("measure.segment_append_ms", "ms"),
    ("measure.segment_bytes", "bytes"),
    ("measure.tail_poll_ms", "ms"),
    ("measure.tail_polls", "count"),
    ("measure.tail_useful_frac", "frac"),
    ("measure.tail_corrupt", "count"),
    ("live.session_open_ms", "ms"),
    ("live.handle_ms", "ms"),
    ("live.wait_ms", "ms"),
    ("live.updates", "count"),
    ("service.submit_ms", "ms"),
    ("process.batch_ms", "ms"),
    ("process.respawns", "count"),
    ("process.retries", "count"),
    ("process.timeouts", "count"),
    ("process.quarantined", "count"),
    ("service.overhead_ms_per_job", "ms"),
    ("failed_frac", "frac"),
    ("update_ms_p50", "ms"),
    ("update_ms_p95", "ms"),
    ("gen_late_ms_p95", "ms"),
    ("bench.traced_ms", "ms"),
    ("bench.rounds", "count"),
    ("bench.setups", "count"),
];

/// Runs `setup` at least three times, and more while it stays under 1.5 s
/// in total (at most 31 times), each as its own trace round.
/// Returns the last inputs and the median set-up time in seconds.
pub fn repeated_setup<T>(
    ctx: &mut Ctx,
    mut setup: impl FnMut(&mut Ctx) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let begun = Instant::now();
    loop {
        ctx.trace.next_round();
        let t = Instant::now();
        let inputs = setup(ctx)?;
        times.push(t.elapsed().as_secs_f64());
        let enough =
            times.len() >= 3 && (begun.elapsed().as_secs_f64() >= 1.5 || times.len() >= 31);
        if enough {
            ctx.trace.count("bench.setups", times.len() as f64);
            return Ok((inputs, median(&times).expect("at least three set-ups")));
        }
    }
}

/// Batch inference through the same public calls `nni_scenario::infer`
/// makes — plan, Algorithm 2 observe, Algorithm 1 decide — each in its own
/// span.
pub fn traced_infer(
    trace: &mut Trace,
    topology: &Topology,
    log: &MeasurementLog,
    seed: u64,
    cfg: &InferenceConfig,
) -> InferenceResult {
    let plan = trace.span("core.plan_ms", || {
        IdentifyPlan::new(topology, &cfg.algorithm)
    });
    trace.count("core.plan_slices", plan.slices().len() as f64);
    let evals = interval_eval_count();
    let ys = trace.span("core.observe_ms", || {
        let obs = MeasuredObservations::new(
            log,
            NormalizeConfig {
                loss_threshold: cfg.loss_threshold,
                seed: seed ^ cfg.normalize_salt,
                delay: cfg.delay,
            },
        );
        plan.observe(&obs)
    });
    trace.count("core.pathset_evals", (interval_eval_count() - evals) as f64);
    trace.span("core.decide_ms", || {
        identify_scores(&plan, &ys, cfg.algorithm)
    })
}

/// The process's peak resident set in MB (`VmHWM`), or 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics a run prints: the end-to-end list untraced, the per-layer
/// list traced.
pub fn metrics(m: &Measured, trace: &Trace) -> Vec<Metric> {
    let metric = |name: &str, unit: &str, value: f64| Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    };
    let lookup = |name: &str| {
        m.derived
            .iter()
            .chain(&m.extra)
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    };
    if trace.enabled() {
        return PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = lookup(name).unwrap_or_else(|| {
                    if name == "emu.segments_per_s" {
                        let emulate_s = trace.ms("emu.emulate_ms") / 1e3;
                        if emulate_s > 0.0 {
                            trace.counted("emu.segments") / emulate_s
                        } else {
                            0.0
                        }
                    } else if name.ends_with("_ms") {
                        trace.ms(name)
                    } else {
                        trace.counted(name)
                    }
                });
                metric(name, unit, value)
            })
            .collect();
    }
    let mut out: Vec<Metric> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "setup_s" => m.setup_s,
                "verdicts_per_s" => m.verdicts_per_s,
                "verdict_accuracy" => m.verdict_accuracy,
                _ => peak_rss_mb(),
            };
            metric(name, unit, value)
        })
        .collect();
    for &(name, unit) in &LIVE_END_TO_END {
        if let Some(v) = m.extra.iter().find(|(n, _)| *n == name).map(|e| e.1) {
            out.push(metric(name, unit, v));
        }
    }
    out
}

/// `failed / attempted`, 0 when nothing was attempted.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}
