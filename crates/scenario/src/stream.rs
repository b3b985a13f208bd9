//! Online inference: [`StreamingInference`] re-clusters per closed
//! interval, and [`infer_incremental`] is the batch-shaped wrapper whose
//! result is bit-identical to [`infer`](crate::infer()).
//!
//! Why the verdicts converge *exactly* (the streaming guarantee):
//!
//! 1. a closed interval's congestion-free indicators are a deterministic
//!    function of `(seed, interval, path)` alone, so computing them on
//!    arrival equals computing them in a batch pass;
//! 2. the per-pathset state is two integers (congestion-free and
//!    informative interval counts) accumulated exactly once per interval —
//!    integer addition in arrival order equals a batch recount;
//! 3. the performance numbers and everything after them (pair estimates,
//!    unsolvability, 2-means, redundancy removal) are pure functions
//!    re-run from those integers through the *same* code path batch
//!    inference uses ([`identify_scores`] over the same [`IdentifyPlan`]).
//!
//! So at every watermark `T`, [`StreamingInference::verdict`] equals
//! `infer` over the log truncated to `T` intervals — checkable, and
//! checked by `tests/streaming_convergence.rs`.

use std::sync::Arc;

use nni_core::{identify_scores, IdentifyPlan, InferenceResult};
use nni_measure::{MeasurementLog, MeasurementSet, NormalizeConfig, PathsetHandle, SlidingCounts};
use nni_topology::Topology;

use crate::infer::InferenceConfig;

/// Incremental Algorithm 1 + 2 over a growing measurement log.
///
/// Construction takes the slice plan (built here, or shared from a
/// [`PlanCache`](nni_core::PlanCache) through
/// [`with_plan`](StreamingInference::with_plan)) and registers every
/// normalization group and pathset with a [`SlidingCounts`]; each
/// [`advance`](StreamingInference::advance) folds newly closed intervals
/// into integer counters (one Algorithm 2 evaluation per group per
/// interval — *not* a full recompute), and
/// [`verdict`](StreamingInference::verdict) re-runs only the cheap
/// decision half.
#[derive(Debug, Clone)]
pub struct StreamingInference {
    cfg: InferenceConfig,
    plan: Arc<IdentifyPlan>,
    counts: SlidingCounts,
    /// Per slice, per pathset — aligned with the plan's slice order and
    /// each slice's pathset order, exactly the `y` layout
    /// [`identify_scores`] expects.
    handles: Vec<Vec<PathsetHandle>>,
}

impl StreamingInference {
    /// Full-history streaming state: verdicts converge to batch inference
    /// over the entire log.
    pub fn new(topology: &Topology, seed: u64, cfg: &InferenceConfig) -> StreamingInference {
        let plan = Arc::new(IdentifyPlan::new(topology, &cfg.algorithm));
        StreamingInference::with_plan(plan, seed, cfg, None)
    }

    /// Sliding-window variant: verdicts reflect only the last `window`
    /// closed intervals — the monitoring mode, where old evidence ages
    /// out. (Batch equivalence then holds against a window-truncated log,
    /// not the full history.)
    pub fn windowed(
        topology: &Topology,
        seed: u64,
        cfg: &InferenceConfig,
        window: usize,
    ) -> StreamingInference {
        let plan = Arc::new(IdentifyPlan::new(topology, &cfg.algorithm));
        StreamingInference::with_plan(plan, seed, cfg, Some(window))
    }

    /// [`new`](StreamingInference::new) (`window` `None`) or
    /// [`windowed`](StreamingInference::windowed) over a shared plan — how
    /// sessions on one topology share a single slice enumeration. `plan`
    /// must be the plan of the measured topology under
    /// `cfg.algorithm.min_pairs`.
    pub fn with_plan(
        plan: Arc<IdentifyPlan>,
        seed: u64,
        cfg: &InferenceConfig,
        window: Option<usize>,
    ) -> StreamingInference {
        // Streaming inference is loss-only by design: the joint indicator's
        // delay baseline is a min over the *whole* log (and per-interval
        // percentiles are order statistics, so they cannot be folded
        // incrementally) — a delay feature here would silently diverge from
        // batch. `MergeError::DelayNotMergeable` enforces the same boundary
        // on the vantage-merge side.
        let ncfg = NormalizeConfig {
            loss_threshold: cfg.loss_threshold,
            seed: seed ^ cfg.normalize_salt,
            delay: None,
        };
        let mut counts = match window {
            Some(w) => SlidingCounts::with_window(ncfg, w),
            None => SlidingCounts::new(ncfg),
        };
        let handles = plan
            .slices()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let gid = counts.register_group(plan.group(i));
                s.pathsets
                    .iter()
                    .map(|ps| counts.register_pathset(gid, ps))
                    .collect()
            })
            .collect();
        StreamingInference {
            cfg: *cfg,
            plan,
            counts,
            handles,
        }
    }

    /// Intervals consumed so far (the verdict watermark).
    pub fn consumed(&self) -> usize {
        self.counts.consumed()
    }

    /// The sliding window, if any.
    pub fn window(&self) -> Option<usize> {
        self.counts.window()
    }

    /// Folds closed intervals `consumed..through` of `log` into the
    /// counters. `log` must be the same measurement stream across calls
    /// (same interval grid and path order); already-consumed intervals
    /// must not have changed — if they have (a multi-vantage merge),
    /// [`rebase`](StreamingInference::rebase) first.
    pub fn advance(&mut self, log: &MeasurementLog, through: usize) {
        self.counts.advance(log, through);
    }

    /// Forgets all consumed intervals, keeping the precomputed plan and
    /// registrations — the exact fallback for history rewrites: after a
    /// [`MeasurementLog::merge`] the caller rebases and re-advances over
    /// the merged log, landing on exactly the verdict batch inference
    /// computes over it.
    pub fn rebase(&mut self) {
        self.counts.rebase();
    }

    /// The current verdict: Algorithm 1's decision half over the
    /// accumulated counters. At watermark `T` (unwindowed) this is
    /// bit-identical to batch [`infer`](crate::infer()) over the log's
    /// first `T` intervals.
    pub fn verdict(&self) -> InferenceResult {
        let ys: Vec<Vec<f64>> = self
            .handles
            .iter()
            .map(|hs| hs.iter().map(|&h| self.counts.perf(h)).collect())
            .collect();
        identify_scores(&self.plan, &ys, self.cfg.algorithm)
    }
}

/// Batch-shaped incremental inference: feeds the set's log one interval at
/// a time through a [`StreamingInference`] and returns the final verdict.
/// Bit-identical to [`infer`](crate::infer()) on every input — the
/// convergence guarantee behind the streaming subsystem, gated per-release
/// by `tests/streaming_convergence.rs`.
pub fn infer_incremental(set: &MeasurementSet, cfg: &InferenceConfig) -> InferenceResult {
    let mut live = StreamingInference::new(&set.topology, set.provenance.seed, cfg);
    for t in 0..set.log.interval_count() {
        live.advance(&set.log, t + 1);
    }
    live.verdict()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer;
    use crate::library::{topology_a_scenario, ExperimentParams, Mechanism};
    use nni_topology::PathId;

    fn recorded_set() -> MeasurementSet {
        let mut s = topology_a_scenario(ExperimentParams {
            mechanism: Mechanism::Policing(0.2),
            duration_s: 6.0,
            ..ExperimentParams::default()
        });
        // Keep 50 post-warmup intervals (the emulator default warm-up
        // would leave only 10).
        s.measurement.warmup_s = Some(1.0);
        s.compile().simulate()
    }

    #[test]
    fn incremental_equals_batch() {
        let set = recorded_set();
        let cfg = InferenceConfig::default();
        let batch = infer(&set, &cfg);
        let streamed = infer_incremental(&set, &cfg);
        assert_eq!(streamed, batch);
        assert_eq!(streamed.fingerprint(), batch.fingerprint());
    }

    #[test]
    fn every_prefix_verdict_is_checkable_against_batch() {
        let set = recorded_set();
        let cfg = InferenceConfig::default();
        let mut live = StreamingInference::new(&set.topology, set.provenance.seed, &cfg);
        for through in 1..=set.log.interval_count() {
            live.advance(&set.log, through);
            // Batch inference over the same closed prefix.
            let mut prefix = MeasurementLog::new(set.log.path_count(), set.log.interval_s());
            for t in 0..through {
                for p in 0..set.log.path_count() {
                    prefix.record_sent(t, PathId(p), set.log.sent(t, PathId(p)));
                    prefix.record_lost(t, PathId(p), set.log.lost(t, PathId(p)));
                }
            }
            let batch_set = MeasurementSet {
                topology: set.topology.clone(),
                classes: set.classes.clone(),
                log: prefix,
                provenance: set.provenance.clone(),
            };
            assert_eq!(
                live.verdict().fingerprint(),
                infer(&batch_set, &cfg).fingerprint(),
                "verdict diverged at watermark {through}"
            );
        }
    }

    #[test]
    fn rebase_after_merge_matches_batch_over_merged_log() {
        let set = recorded_set();
        let cfg = InferenceConfig::default();
        // Split the log into two "vantages" by parity of interval.
        let n = set.log.path_count();
        let mut a = MeasurementLog::new(n, set.log.interval_s());
        let mut b = MeasurementLog::new(n, set.log.interval_s());
        for t in 0..set.log.interval_count() {
            let dst = if t % 2 == 0 { &mut a } else { &mut b };
            for p in 0..n {
                dst.record_sent(t, PathId(p), set.log.sent(t, PathId(p)));
                dst.record_lost(t, PathId(p), set.log.lost(t, PathId(p)));
            }
            // Materialize the interval on the other vantage too.
            let other = if t % 2 == 0 { &mut b } else { &mut a };
            other.record_sent(t, PathId(0), 0);
        }

        let mut live = StreamingInference::new(&set.topology, set.provenance.seed, &cfg);
        live.advance(&a, a.interval_count());
        // Vantage B arrives: merged history rewrites consumed intervals.
        let mut merged = a.clone();
        merged.merge(&b).unwrap();
        live.rebase();
        live.advance(&merged, merged.interval_count());

        assert_eq!(merged, set.log, "vantage split loses nothing");
        assert_eq!(
            live.verdict().fingerprint(),
            infer(&set, &cfg).fingerprint()
        );
    }

    #[test]
    fn windowed_verdict_matches_batch_over_the_window() {
        let set = recorded_set();
        let cfg = InferenceConfig::default();
        let w = 20;
        let mut live = StreamingInference::windowed(&set.topology, set.provenance.seed, &cfg, w);
        assert_eq!(live.window(), Some(w));
        let t_max = set.log.interval_count();
        assert!(t_max > w, "need more intervals than the window");
        live.advance(&set.log, t_max);

        // The batch comparison must see the same (interval, path) RNG
        // keys, so the window is expressed as zeroed-out old intervals,
        // not a shifted log.
        let mut tail_log = MeasurementLog::new(set.log.path_count(), set.log.interval_s());
        for t in (t_max - w)..t_max {
            for p in 0..set.log.path_count() {
                tail_log.record_sent(t, PathId(p), set.log.sent(t, PathId(p)));
                tail_log.record_lost(t, PathId(p), set.log.lost(t, PathId(p)));
            }
        }
        let tail_set = MeasurementSet {
            topology: set.topology.clone(),
            classes: set.classes.clone(),
            log: tail_log,
            provenance: set.provenance.clone(),
        };
        assert_eq!(
            live.verdict().fingerprint(),
            infer(&tail_set, &cfg).fingerprint()
        );
    }
}
