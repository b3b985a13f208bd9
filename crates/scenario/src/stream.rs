//! Online inference: [`StreamingInference`] re-clusters per closed
//! interval, and [`infer_incremental`] is the batch-shaped wrapper whose
//! result is bit-identical to [`infer`](crate::infer()).
//!
//! Why the verdicts converge *exactly* (the streaming guarantee):
//!
//! 1. a closed interval's congestion-free indicators are a deterministic
//!    function of `(seed, interval, path)` alone, so computing them on
//!    arrival equals computing them in a batch pass;
//! 2. the per-group state is the same [`GroupBits`] batch inference
//!    counts over: each closed interval is folded into it exactly once, in
//!    order — appending a bit column in arrival order equals a batch fill.
//!    A pathset's congestion-free and informative counts are running sums
//!    of the same popcounts: each advance adds the newly closed range and
//!    subtracts the range that aged out of the window, so the totals equal
//!    batch's popcounts over the consumed range (or its last `W`
//!    intervals);
//! 3. the performance numbers and everything after them (pair estimates,
//!    unsolvability, 2-means, redundancy removal) are pure functions
//!    re-run from those integers through the *same* code path batch
//!    inference uses ([`identify_scores`] over the same [`IdentifyPlan`]).
//!
//! So at every watermark `T`, [`StreamingInference::verdict`] equals
//! `infer` over the log truncated to `T` intervals — checkable, and
//! checked by `tests/streaming_convergence.rs`.

use std::collections::HashMap;
use std::sync::Arc;

use nni_core::{identify_scores, IdentifyPlan, InferenceResult};
use nni_measure::{perf_from_counts, GroupBits, MeasurementLog, MeasurementSet, NormalizeConfig};
use nni_topology::{PathId, Topology};

use crate::infer::InferenceConfig;

/// Incremental Algorithm 1 + 2 over a growing measurement log.
///
/// Construction takes the slice plan (built here, or shared from a
/// [`PlanCache`](nni_core::PlanCache) through
/// [`with_plan`](StreamingInference::with_plan)), keeps one [`GroupBits`]
/// per distinct normalization group and resolves every pathset's members
/// to rows of its group once. Each
/// [`advance`](StreamingInference::advance) folds newly closed intervals
/// into the bitsets (one Algorithm 2 evaluation per group per interval —
/// *not* a full recompute) and updates every pathset's counts from the
/// new and the aged-out words only, so
/// [`verdict`](StreamingInference::verdict) re-runs just the cheap
/// decision half, at a cost independent of the session's length.
#[derive(Debug, Clone)]
pub struct StreamingInference {
    cfg: InferenceConfig,
    window: Option<usize>,
    plan: Arc<IdentifyPlan>,
    /// One per distinct (sorted, deduplicated) normalization group — the
    /// same key batch inference caches under, so the discounting draws and
    /// the evaluation count match.
    groups: Vec<GroupBits>,
    /// Informative intervals of each group in the counted range.
    informative: Vec<usize>,
    slices: Vec<SliceCounts>,
    consumed: usize,
}

/// A plan slice's pathsets resolved to rows of its group, with their
/// running congestion-free counts.
#[derive(Debug, Clone)]
struct SliceCounts {
    /// Index of the slice's group in `groups`.
    group: usize,
    /// Per pathset, in the slice's order (the `y` layout
    /// [`identify_scores`] expects): its member rows and its
    /// congestion-free intervals in the counted range.
    pathsets: Vec<(Vec<usize>, usize)>,
}

impl StreamingInference {
    /// Full-history streaming state: verdicts converge to batch inference
    /// over the entire log.
    pub fn new(topology: &Topology, seed: u64, cfg: &InferenceConfig) -> StreamingInference {
        let plan = Arc::new(IdentifyPlan::new(topology, &cfg.algorithm));
        StreamingInference::with_plan(plan, seed, cfg, None)
    }

    /// Streaming state over a shared plan — how sessions on one topology
    /// share a single slice enumeration. `plan` must be the plan of the
    /// measured topology under `cfg.algorithm.min_pairs`.
    ///
    /// With `window` `None` verdicts cover every consumed interval; with
    /// `Some(w)` they reflect only the last `w` closed intervals — the
    /// monitoring mode, where old evidence ages out. (Batch equivalence
    /// then holds against the log with the aged-out prefix zeroed, not the
    /// full history.)
    pub fn with_plan(
        plan: Arc<IdentifyPlan>,
        seed: u64,
        cfg: &InferenceConfig,
        window: Option<usize>,
    ) -> StreamingInference {
        assert!(window != Some(0), "window must be non-empty");
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
        let mut index: HashMap<Vec<PathId>, usize> = HashMap::new();
        let mut groups: Vec<GroupBits> = Vec::new();
        let slices = plan
            .slices()
            .iter()
            .enumerate()
            .map(|(i, slice)| {
                let bits = GroupBits::new(plan.group(i), ncfg);
                let group = *index.entry(bits.paths().to_vec()).or_insert_with(|| {
                    groups.push(bits);
                    groups.len() - 1
                });
                let bits = &groups[group];
                let pathsets = slice
                    .pathsets
                    .iter()
                    .map(|ps| (ps.paths().iter().map(|&p| bits.row(p)).collect(), 0))
                    .collect();
                SliceCounts { group, pathsets }
            })
            .collect();
        StreamingInference {
            cfg: *cfg,
            window,
            plan,
            informative: vec![0; groups.len()],
            groups,
            slices,
            consumed: 0,
        }
    }

    /// Intervals consumed so far (the verdict watermark).
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Folds closed intervals `consumed..through` of `log` into the
    /// bitsets and the running counts. `log` must be the same measurement
    /// stream across calls (same interval grid and path order);
    /// already-consumed intervals must not have changed — if they have (a
    /// multi-vantage merge), [`rebase`](StreamingInference::rebase) first.
    pub fn advance(&mut self, log: &MeasurementLog, through: usize) {
        assert!(through >= self.consumed, "the closed prefix only grows");
        // Add the newly closed range and drop the one that aged out of
        // the window. Both are folded bits, so eviction needs no ring.
        let lo = |t: usize| self.window.map_or(0, |w| t.saturating_sub(w));
        let (added, aged) = (self.consumed..through, lo(self.consumed)..lo(through));
        for bits in &mut self.groups {
            bits.extend(log, through);
        }
        for (total, bits) in self.informative.iter_mut().zip(&self.groups) {
            *total = *total + bits.informative(added.clone()) - bits.informative(aged.clone());
        }
        for slice in &mut self.slices {
            let bits = &self.groups[slice.group];
            for (rows, cf) in &mut slice.pathsets {
                *cf = *cf + bits.congestion_free(rows, added.clone())
                    - bits.congestion_free(rows, aged.clone());
            }
        }
        self.consumed = through;
    }

    /// Forgets all consumed intervals, keeping the precomputed plan and
    /// resolved rows — the exact fallback for history rewrites: after a
    /// [`MeasurementLog::merge`] the caller rebases and re-advances over
    /// the merged log, landing on exactly the verdict batch inference
    /// computes over it.
    pub fn rebase(&mut self) {
        self.consumed = 0;
        for bits in &mut self.groups {
            bits.clear();
        }
        self.informative.fill(0);
        let pathsets = self.slices.iter_mut().flat_map(|s| &mut s.pathsets);
        pathsets.for_each(|(_, cf)| *cf = 0);
    }

    /// The current verdict: Algorithm 1's decision half over the consumed
    /// range (or the window). At watermark `T` (unwindowed) this is
    /// bit-identical to batch [`infer`](crate::infer()) over the log's
    /// first `T` intervals.
    pub fn verdict(&self) -> InferenceResult {
        let ys: Vec<Vec<f64>> = self
            .slices
            .iter()
            .map(|slice| {
                let informative = self.informative[slice.group];
                slice
                    .pathsets
                    .iter()
                    .map(|&(_, cf)| perf_from_counts(cf, informative))
                    .collect()
            })
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

    /// `set` with `log` in place of its log, keeping only intervals
    /// `from..` — the aged-out prefix zeroed, not shifted, so the batch
    /// side sees the same `(interval, path)` RNG keys as the stream.
    fn zeroed_prefix(set: &MeasurementSet, log: &MeasurementLog, from: usize) -> MeasurementSet {
        let mut kept = MeasurementLog::new(log.path_count(), log.interval_s());
        for t in from..log.interval_count() {
            for p in 0..log.path_count() {
                kept.record_sent(t, PathId(p), log.sent(t, PathId(p)));
                kept.record_lost(t, PathId(p), log.lost(t, PathId(p)));
            }
        }
        MeasurementSet {
            topology: set.topology.clone(),
            classes: set.classes.clone(),
            log: kept,
            provenance: set.provenance.clone(),
        }
    }

    fn windowed(set: &MeasurementSet, cfg: &InferenceConfig, w: usize) -> StreamingInference {
        let plan = Arc::new(IdentifyPlan::new(&set.topology, &cfg.algorithm));
        StreamingInference::with_plan(plan, set.provenance.seed, cfg, Some(w))
    }

    #[test]
    fn windowed_verdict_matches_batch_over_the_window() {
        let set = recorded_set();
        let cfg = InferenceConfig::default();
        let w = 20;
        let mut live = windowed(&set, &cfg, w);
        let t_max = set.log.interval_count();
        assert!(t_max > w, "need more intervals than the window");
        live.advance(&set.log, t_max);
        assert_eq!(
            live.verdict().fingerprint(),
            infer(&zeroed_prefix(&set, &set.log, t_max - w), &cfg).fingerprint()
        );
    }

    #[test]
    fn windowed_rebase_after_merge_matches_batch_over_the_window() {
        let set = recorded_set();
        let cfg = InferenceConfig::default();
        let n = set.log.path_count();
        let t_max = set.log.interval_count();
        // Vantage A sees every path; vantage B adds traffic on even paths
        // only, so the merge rewrites frozen intervals.
        let mut b = MeasurementLog::new(n, set.log.interval_s());
        for t in 0..t_max {
            for p in (0..n).step_by(2) {
                b.record_sent(t, PathId(p), 40);
                b.record_lost(t, PathId(p), (t % 3) as u64);
            }
        }
        let w = 25;
        let mut live = windowed(&set, &cfg, w);
        live.advance(&set.log, t_max);
        let mut merged = set.log.clone();
        merged.merge(&b).unwrap();
        assert_ne!(merged, set.log, "the second vantage must change history");
        live.rebase();
        assert_eq!(live.consumed(), 0);
        live.advance(&merged, t_max);

        assert_eq!(
            live.verdict().fingerprint(),
            infer(&zeroed_prefix(&set, &merged, t_max - w), &cfg).fingerprint()
        );
    }
}
