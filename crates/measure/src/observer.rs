//! The measured implementation of [`nni_core::Observations`].
//!
//! Bridges a [`MeasurementLog`] to Algorithm 1: every slice queries the
//! performance numbers of its pathsets in the normalization context of
//! `Paths(τ)`; this type runs Algorithm 2 on demand and caches each
//! group's indicators (the discounting draw is deterministic per
//! `(seed, interval, path)`, so caching never changes results).
//!
//! The cached form is a [`GroupBits`] per group (see the
//! [`normalize`](crate::normalize) module docs): one informative mask per
//! group and one congestion-free row per member path. A pathset's counts
//! are a popcount of the AND of its members' rows with the mask, so
//! [`observe_all`](Observations::observe_all) sorts the group once per
//! slice and then scores every pathset without allocating.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::normalize::{perf_from_counts, GroupBits, NormalizeConfig};
use crate::record::MeasurementLog;
use nni_core::Observations;
use nni_topology::{PathId, PathSet};

/// Measured observation source.
pub struct MeasuredObservations<'a> {
    log: &'a MeasurementLog,
    cfg: NormalizeConfig,
    /// Cache: sorted, deduplicated normalization group -> its bitsets.
    cache: RefCell<HashMap<Vec<PathId>, GroupBits>>,
}

impl<'a> MeasuredObservations<'a> {
    /// Wraps a measurement log.
    pub fn new(log: &'a MeasurementLog, cfg: NormalizeConfig) -> MeasuredObservations<'a> {
        MeasuredObservations {
            log,
            cfg,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> NormalizeConfig {
        self.cfg
    }

    /// Runs `f` over `pathsets`' `(cf, informative)` counts in `group`,
    /// sorting the group and fetching (or building) its bitsets once.
    fn with_counts<R>(
        &self,
        group: &[PathId],
        pathsets: &[PathSet],
        f: impl FnMut((usize, usize)) -> R,
    ) -> Vec<R> {
        // `GroupBits` sorts and deduplicates the group: its paths are the
        // cache key.
        let mut fresh = GroupBits::new(group, self.cfg);
        let mut cache = self.cache.borrow_mut();
        let bits = cache.entry(fresh.paths().to_vec()).or_insert_with(|| {
            fresh.extend(self.log, self.log.interval_count());
            fresh
        });
        let all = 0..bits.len();
        let informative = bits.informative(all.clone());
        let mut rows = Vec::new();
        pathsets
            .iter()
            .map(|pathset| {
                rows.clear();
                rows.extend(pathset.paths().iter().map(|&p| bits.row(p)));
                (bits.congestion_free(&rows, all.clone()), informative)
            })
            .map(f)
            .collect()
    }

    /// Congestion-free probability of a pathset under the group
    /// normalization (exposed for the experiment reports).
    pub fn pathset_cf_probability(&self, group: &[PathId], pathset: &PathSet) -> f64 {
        self.with_counts(group, std::slice::from_ref(pathset), |(cf, total)| {
            if total == 0 {
                1.0
            } else {
                cf as f64 / total as f64
            }
        })[0]
    }
}

impl Observations for MeasuredObservations<'_> {
    fn pathset_perf(&self, group: &[PathId], pathset: &PathSet) -> f64 {
        self.observe_all(group, std::slice::from_ref(pathset))[0]
    }

    fn observe_all(&self, group: &[PathId], pathsets: &[PathSet]) -> Vec<f64> {
        self.with_counts(group, pathsets, |(cf, total)| perf_from_counts(cf, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a log in which paths 0 and 1 congest together in 25% of
    /// intervals and path 2 never congests.
    fn correlated_log() -> MeasurementLog {
        let mut log = MeasurementLog::new(3, 0.1);
        for t in 0..400 {
            for p in 0..3 {
                log.record_sent(t, PathId(p), 500);
            }
            if t % 4 == 0 {
                log.record_lost(t, PathId(0), 50);
                log.record_lost(t, PathId(1), 50);
            }
        }
        log
    }

    #[test]
    fn singleton_perf_matches_frequency() {
        let log = correlated_log();
        let obs = MeasuredObservations::new(&log, NormalizeConfig::default());
        let group = [PathId(0), PathId(1), PathId(2)];
        let y0 = obs.pathset_perf(&group, &PathSet::single(PathId(0)));
        assert!((y0 + (0.75f64).ln()).abs() < 1e-9, "y0 = {y0}");
        let y2 = obs.pathset_perf(&group, &PathSet::single(PathId(2)));
        assert_eq!(y2, 0.0);
    }

    #[test]
    fn correlated_pair_shows_joint_congestion() {
        // p0 and p1 congest in the SAME intervals: y({p0,p1}) == y({p0}),
        // the §3.3 signature of shared congestion.
        let log = correlated_log();
        let obs = MeasuredObservations::new(&log, NormalizeConfig::default());
        let group = [PathId(0), PathId(1), PathId(2)];
        let y0 = obs.pathset_perf(&group, &PathSet::single(PathId(0)));
        let y01 = obs.pathset_perf(&group, &PathSet::pair(PathId(0), PathId(1)));
        assert!((y01 - y0).abs() < 1e-9);
        // And pairing with the clean path adds nothing.
        let y02 = obs.pathset_perf(&group, &PathSet::pair(PathId(0), PathId(2)));
        assert!((y02 - y0).abs() < 1e-9);
    }

    #[test]
    fn cf_probability_reported() {
        let log = correlated_log();
        let obs = MeasuredObservations::new(&log, NormalizeConfig::default());
        let group = [PathId(0), PathId(2)];
        let p = obs.pathset_cf_probability(&group, &PathSet::single(PathId(0)));
        assert!((p - 0.75).abs() < 1e-9);
    }

    #[test]
    fn caching_is_transparent() {
        let log = correlated_log();
        let obs = MeasuredObservations::new(&log, NormalizeConfig::default());
        let group = [PathId(0), PathId(1)];
        let a = obs.pathset_perf(&group, &PathSet::single(PathId(0)));
        let b = obs.pathset_perf(&group, &PathSet::single(PathId(0)));
        assert_eq!(a, b);
    }

    #[test]
    fn observe_all_equals_per_pathset_queries() {
        let log = correlated_log();
        let obs = MeasuredObservations::new(&log, NormalizeConfig::default());
        let group = [PathId(2), PathId(0), PathId(1)];
        let pathsets = [
            PathSet::single(PathId(0)),
            PathSet::single(PathId(2)),
            PathSet::pair(PathId(0), PathId(1)),
            PathSet::pair(PathId(1), PathId(2)),
        ];
        let fresh = MeasuredObservations::new(&log, NormalizeConfig::default());
        let one_by_one: Vec<f64> = pathsets
            .iter()
            .map(|ps| fresh.pathset_perf(&group, ps))
            .collect();
        assert_eq!(obs.observe_all(&group, &pathsets), one_by_one);
    }
}
