//! Property-based tests for Algorithm 2 (measurement processing).

use nni_core::{DelayFeature, Observations};
use nni_measure::{
    group_indicators, hypergeometric, pathset_cf_counts, perf_from_counts, DelayStats, GroupBits,
    MeasuredObservations, MeasurementLog, NormalizeConfig,
};
use nni_topology::{PathId, PathSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random measurement log for `paths` paths over `t` intervals.
fn log_strategy() -> impl Strategy<Value = MeasurementLog> {
    (2usize..=4, 5usize..=40).prop_flat_map(|(paths, intervals)| {
        prop::collection::vec((0u64..500, 0.0..0.3f64), paths * intervals).prop_map(move |cells| {
            let mut log = MeasurementLog::new(paths, 0.1);
            for (idx, &(sent, loss_frac)) in cells.iter().enumerate() {
                let t = idx / paths;
                let p = PathId(idx % paths);
                log.record_sent(t, p, sent);
                log.record_lost(t, p, (sent as f64 * loss_frac) as u64);
            }
            log
        })
    })
}

/// Strategy: a random log over exactly `paths` paths (shared grid, so the
/// result is mergeable with any sibling from the same `paths`).
fn vantage_strategy(paths: usize) -> impl Strategy<Value = MeasurementLog> {
    (5usize..=30).prop_flat_map(move |intervals| {
        prop::collection::vec((0u64..500, 0.0..0.3f64), paths * intervals).prop_map(move |cells| {
            let mut log = MeasurementLog::new(paths, 0.1);
            for (idx, &(sent, loss_frac)) in cells.iter().enumerate() {
                let t = idx / paths;
                let p = PathId(idx % paths);
                log.record_sent(t, p, sent);
                log.record_lost(t, p, (sent as f64 * loss_frac) as u64);
            }
            log
        })
    })
}

/// Strategy: three mergeable vantage logs (same path count and interval
/// grid; interval counts may differ — merge extends the shorter).
fn vantage_logs() -> impl Strategy<Value = (MeasurementLog, MeasurementLog, MeasurementLog)> {
    (2usize..=4).prop_flat_map(|paths| {
        (
            vantage_strategy(paths),
            vantage_strategy(paths),
            vantage_strategy(paths),
        )
    })
}

/// Strategy: one bitset-identity case — a log over 2–5 paths whose
/// interval count straddles the 64-bit word boundaries, with silent cells
/// (so some intervals have no common budget) and a delay grid; a group
/// given unsorted and with duplicates; a config with the joint delay
/// feature on or off; and a sliding-window width (the word edges 63, 64
/// and 65, or any width up to the longest log).
fn bitset_case() -> impl Strategy<Value = (MeasurementLog, Vec<PathId>, NormalizeConfig, usize)> {
    (
        2usize..=5,
        prop::sample::select(vec![1usize, 63, 64, 65, 200]),
        prop::bool::ANY,
        0u64..1000,
        (
            prop::bool::ANY,
            prop::sample::select(vec![63usize, 64, 65]),
            1usize..=200,
        )
            .prop_map(|(edge, at_edge, any)| if edge { at_edge } else { any }),
    )
        .prop_flat_map(|(paths, intervals, joint, seed, window)| {
            (
                prop::collection::vec(
                    (0u64..6, 0u64..500, 0.0..0.3f64, 0u64..400),
                    paths * intervals,
                ),
                prop::collection::vec(0usize..paths, 1..=2 * paths),
            )
                .prop_map(move |(cells, group)| {
                    let mut log = MeasurementLog::new(paths, 0.1);
                    let mut delay = vec![vec![None; paths]; intervals];
                    for (idx, &(live, sent, loss_frac, delay_ms)) in cells.iter().enumerate() {
                        let (t, p) = (idx / paths, idx % paths);
                        // One cell in six is silent.
                        let sent = if live == 0 { 0 } else { sent };
                        log.record_sent(t, PathId(p), sent);
                        log.record_lost(t, PathId(p), (sent as f64 * loss_frac) as u64);
                        if sent > 0 && delay_ms > 0 {
                            delay[t][p] = DelayStats::from_sorted_ns(&[delay_ms * 1_000_000]);
                        }
                    }
                    log.set_delay(delay);
                    let cfg = NormalizeConfig {
                        loss_threshold: 0.01,
                        seed,
                        delay: joint.then(DelayFeature::default),
                    };
                    (log, group.into_iter().map(PathId).collect(), cfg, window)
                })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bitset Algorithm 2 behind `observe_all` equals the reference
    /// scan — `group_indicators` + `pathset_cf_counts` + `perf_from_counts`
    /// over the sorted, deduplicated group — bit for bit, on every single
    /// and pair pathset of the group. Folded one interval at a time after
    /// a `clear` (the streaming rebase), `GroupBits` range counts equal the
    /// reference over the truncated rows at every prefix, both over the
    /// whole prefix and over its last `window` intervals.
    #[test]
    fn observe_all_matches_reference_scan((log, group, cfg, window) in bitset_case()) {
        let mut key = group.clone();
        key.sort();
        key.dedup();
        let mut pathsets: Vec<PathSet> = key.iter().map(|&p| PathSet::single(p)).collect();
        for (i, &a) in key.iter().enumerate() {
            for &b in &key[i + 1..] {
                pathsets.push(PathSet::pair(a, b));
            }
        }
        let ind = group_indicators(&log, &key, cfg);
        let member_rows: Vec<Vec<usize>> = pathsets
            .iter()
            .map(|ps| {
                ps.paths()
                    .iter()
                    .map(|p| key.binary_search(p).unwrap())
                    .collect()
            })
            .collect();
        let reference: Vec<(usize, usize)> = member_rows
            .iter()
            .map(|rows| pathset_cf_counts(&ind, rows))
            .collect();

        let obs = MeasuredObservations::new(&log, cfg);
        let ys = obs.observe_all(&group, &pathsets);
        prop_assert_eq!(ys.len(), pathsets.len());
        for ((y, &(cf, total)), ps) in ys.iter().zip(&reference).zip(&pathsets) {
            prop_assert_eq!(y.to_bits(), perf_from_counts(cf, total).to_bits());
            prop_assert_eq!(y.to_bits(), obs.pathset_perf(&group, ps).to_bits());
            let p = obs.pathset_cf_probability(&group, ps);
            let want = if total == 0 { 1.0 } else { cf as f64 / total as f64 };
            prop_assert_eq!(p.to_bits(), want.to_bits());
        }

        // `full` holds every interval, so its counts below also mask the
        // range's upper end; `bits` is folded one interval at a time.
        let t_max = log.interval_count();
        let mut full = GroupBits::new(&group, cfg);
        prop_assert_eq!(full.paths(), &key[..]);
        full.extend(&log, t_max);
        let mut bits = full.clone();
        bits.clear();
        for through in 0..=t_max {
            bits.extend(&log, through);
            prop_assert_eq!(bits.len(), through);
            for lo in [0, through.saturating_sub(window)] {
                let truncated: Vec<Vec<Option<bool>>> =
                    ind.iter().map(|row| row[lo..through].to_vec()).collect();
                for rows in &member_rows {
                    let want = pathset_cf_counts(&truncated, rows);
                    for b in [&bits, &full] {
                        let got = (
                            b.congestion_free(rows, lo..through),
                            b.informative(lo..through),
                        );
                        prop_assert_eq!(got, want, "range {}..{}", lo, through);
                    }
                }
            }
        }
    }

    /// Vantage merging is commutative: which collector reports first must
    /// not change the combined log.
    #[test]
    fn merge_is_commutative((a, b, _) in vantage_logs()) {
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    /// Vantage merging is associative across three logs: any pairing order
    /// lands on the same combined log, so a live monitor may fold vantages
    /// in arrival order.
    #[test]
    fn merge_is_associative((a, b, c) in vantage_logs()) {
        let mut ab_then_c = a.clone();
        ab_then_c.merge(&b).unwrap();
        ab_then_c.merge(&c).unwrap();
        let mut bc = b.clone();
        bc.merge(&c).unwrap();
        let mut a_then_bc = a.clone();
        a_then_bc.merge(&bc).unwrap();
        prop_assert_eq!(ab_then_c, a_then_bc);
    }

    /// Merging an empty log (a vantage that saw nothing) changes nothing.
    #[test]
    fn merge_with_empty_is_identity((a, _, _) in vantage_logs()) {
        let mut merged = a.clone();
        merged.merge(&MeasurementLog::new(a.path_count(), a.interval_s())).unwrap();
        prop_assert_eq!(merged, a);
    }

    /// Hypergeometric draws are bounded by both the marked count and the
    /// draw size, and are deterministic per seed.
    #[test]
    fn hypergeometric_bounds_and_determinism(
        total in 1u64..10_000,
        marked_frac in 0.0..1.0f64,
        draw_frac in 0.0..1.0f64,
        seed in 0u64..1000,
    ) {
        let marked = (total as f64 * marked_frac) as u64;
        let draw = (total as f64 * draw_frac) as u64;
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        let ha = hypergeometric(&mut a, total, marked, draw);
        let hb = hypergeometric(&mut b, total, marked, draw);
        prop_assert_eq!(ha, hb);
        prop_assert!(ha <= marked.min(draw));
        // Everything marked is drawn when we draw everything.
        let mut c = StdRng::seed_from_u64(seed);
        prop_assert_eq!(hypergeometric(&mut c, total, marked, total), marked);
    }

    /// Indicators are independent of the group ordering and of unrelated
    /// query order — the foundation of the observation cache's correctness.
    #[test]
    fn indicators_invariant_under_group_permutation(log in log_strategy()) {
        let n = log.path_count();
        let fwd: Vec<PathId> = (0..n).map(PathId).collect();
        let rev: Vec<PathId> = (0..n).rev().map(PathId).collect();
        let cfg = NormalizeConfig::default();
        let a = group_indicators(&log, &fwd, cfg);
        let b = group_indicators(&log, &rev, cfg);
        for (i, p) in fwd.iter().enumerate() {
            let j = rev.iter().position(|q| q == p).unwrap();
            prop_assert_eq!(&a[i], &b[j], "indicators depend on group order");
        }
    }

    /// Congestion-free counts are antitone in the pathset: adding a member
    /// path can only reduce (or keep) the joint congestion-free count —
    /// Equation 2's monotonicity at the indicator level.
    #[test]
    fn pathset_cf_counts_antitone(log in log_strategy()) {
        let n = log.path_count();
        let group: Vec<PathId> = (0..n).map(PathId).collect();
        let ind = group_indicators(&log, &group, NormalizeConfig::default());
        let (cf_single, t1) = pathset_cf_counts(&ind, &[0]);
        let all: Vec<usize> = (0..n).collect();
        let (cf_all, t2) = pathset_cf_counts(&ind, &all);
        prop_assert_eq!(t1, t2, "informative interval count is group-wide");
        prop_assert!(cf_all <= cf_single);
    }

    /// Performance numbers are non-negative, finite, and antitone in the
    /// congestion-free count.
    #[test]
    fn perf_from_counts_shape(total in 1usize..5000, cf in 0usize..5000) {
        let cf = cf.min(total);
        let y = perf_from_counts(cf, total);
        prop_assert!(y >= 0.0 && y.is_finite());
        if cf < total {
            prop_assert!(perf_from_counts(cf + 1, total) <= y);
        }
    }

    /// Raising the loss threshold can only turn congested intervals into
    /// congestion-free ones (verdict monotonicity behind the §6.5 sweep).
    #[test]
    fn threshold_monotonicity(log in log_strategy()) {
        let n = log.path_count();
        let group: Vec<PathId> = (0..n).map(PathId).collect();
        let lo = group_indicators(
            &log, &group, NormalizeConfig { loss_threshold: 0.01, seed: 9, delay: None });
        let hi = group_indicators(
            &log, &group, NormalizeConfig { loss_threshold: 0.10, seed: 9, delay: None });
        for (row_lo, row_hi) in lo.iter().zip(&hi) {
            for (a, b) in row_lo.iter().zip(row_hi) {
                match (a, b) {
                    (Some(cf_lo), Some(cf_hi)) => {
                        // congestion-free at 1% implies congestion-free at 10%
                        if *cf_lo {
                            prop_assert!(*cf_hi);
                        }
                    }
                    (None, None) => {}
                    _ => prop_assert!(false, "informative-ness must not depend on threshold"),
                }
            }
        }
    }

    /// Congestion probability is within [0, 1] and zero for loss-free logs.
    #[test]
    fn congestion_probability_range(log in log_strategy()) {
        for p in 0..log.path_count() {
            let pr = log.congestion_probability(PathId(p), 0.01);
            prop_assert!((0.0..=1.0).contains(&pr));
        }
    }
}
