//! The one measurement-interval binning rule.
//!
//! A timestamp in seconds bins with a bare `floor()` division, while the
//! emulator's cached interval index walks nanosecond boundaries by ULPs.
//! Both must agree — a packet stamped exactly on `k * interval_s` has to
//! land in the same bin whether it is asked in seconds or nanoseconds — so
//! the division and the boundary inversion live here, and the emulator
//! calls these.

/// Measurement-interval index containing a timestamp, as a pure float
/// division: `floor(time_s / interval_s)`, clamped at zero.
///
/// This is the *defining* rule; [`interval_boundary_ns`] is derived from it.
#[inline]
pub fn interval_index(time_s: f64, interval_s: f64) -> usize {
    (time_s / interval_s).floor().max(0.0) as usize
}

/// Same rule for an integer-nanosecond timestamp (the emulator's clock):
/// the nanosecond count is converted to seconds exactly as
/// `SimTime::as_secs_f64` does, then binned by [`interval_index`].
#[inline]
pub fn interval_index_ns(ns: u64, interval_s: f64) -> usize {
    interval_index(ns as f64 / 1e9, interval_s)
}

/// Smallest nanosecond timestamp whose interval index — computed with the
/// same float division as [`interval_index_ns`] — is at least `i`. A float
/// guess plus an exact ULP walk, so an incremental interval cache can never
/// disagree with the division it replaces.
pub fn interval_boundary_ns(interval_s: f64, i: u64) -> u64 {
    let idx = |ns: u64| ((ns as f64 / 1e9) / interval_s).floor();
    let target = i as f64;
    let mut g = (target * interval_s * 1e9).round() as u64;
    while g > 0 && idx(g - 1) >= target {
        g -= 1;
    }
    while idx(g) < target {
        g += 1;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_floor_division() {
        assert_eq!(interval_index(0.0, 0.1), 0);
        assert_eq!(interval_index(0.05, 0.1), 0);
        assert_eq!(interval_index(0.1, 0.1), 1);
        assert_eq!(interval_index(1.234, 0.1), 12);
        assert_eq!(interval_index(-0.5, 0.1), 0, "negative times clamp to 0");
    }

    #[test]
    fn boundary_inverts_the_index() {
        // The boundary must be exact for awkward interval lengths, too:
        // idx(boundary) == i and idx(boundary - 1 ns) == i - 1.
        for interval_s in [0.1, 0.05, 0.25, 0.3, 1.0 / 3.0, 0.123456789] {
            for i in [1u64, 2, 3, 10, 99, 1000, 65536] {
                let b = interval_boundary_ns(interval_s, i);
                assert!(
                    interval_index_ns(b, interval_s) >= i as usize,
                    "boundary too early: {interval_s} {i}"
                );
                assert!(
                    interval_index_ns(b - 1, interval_s) < i as usize,
                    "boundary too late: {interval_s} {i}"
                );
            }
        }
    }

    #[test]
    fn ns_and_seconds_rules_agree_on_boundaries() {
        // A timestamp landing exactly on a computed bin boundary must bin
        // identically whether asked in nanoseconds (emulator clock) or in
        // seconds (log timestamps converted the same way), and into that
        // boundary's interval; one nanosecond earlier belongs to the
        // previous interval.
        for interval_s in [0.1, 0.05, 0.3, 1.0 / 3.0, 0.123456789] {
            for i in 1u64..200 {
                let b = interval_boundary_ns(interval_s, i);
                let time_s = b as f64 / 1e9;
                assert_eq!(
                    interval_index_ns(b, interval_s),
                    interval_index(time_s, interval_s),
                    "boundary {i} at interval {interval_s}"
                );
                assert_eq!(interval_index(time_s, interval_s), i as usize);
                assert_eq!(
                    interval_index((b - 1) as f64 / 1e9, interval_s),
                    (i - 1) as usize
                );
            }
        }
    }
}
