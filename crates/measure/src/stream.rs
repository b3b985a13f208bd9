//! Streaming acquisition: [`StreamingLog`], a measurement log with a
//! closed-interval watermark.
//!
//! The batch pipeline recomputes every per-interval indicator each time it
//! infers; over a growing log of `T` intervals that is `O(T²)` indicator
//! work. Streaming exploits two determinisms instead:
//!
//! * the discounting draw is seeded per `(seed, interval, path)` — a closed
//!   interval's indicator column never changes as later intervals arrive;
//! * the performance number is a pure function of two *integers* — the
//!   congestion-free and informative interval counts
//!   ([`perf_from_counts`](crate::perf_from_counts)).
//!
//! So a consumer folds each closed interval below the watermark into a
//! [`GroupBits`](crate::GroupBits) exactly once
//! ([`extend`](crate::GroupBits::extend)) and counts interval ranges of it
//! — the newly closed one, and the one that aged out of a window of the
//! last `W` intervals — with the same popcount batch inference uses; every
//! verdict derived from those counts is bit-identical to batch inference
//! over the same closed prefix.

use crate::record::MeasurementLog;
use nni_topology::PathId;

/// Why a streaming append was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A record landed in an interval that was already closed — its
    /// indicator column has been consumed, so the count must not change.
    IntervalClosed {
        /// The offending interval.
        t: usize,
        /// Number of closed intervals (everything below is frozen).
        closed: usize,
    },
    /// An appended interval row had the wrong number of paths.
    PathCountMismatch {
        /// The log's path count.
        ours: usize,
        /// The row's length.
        theirs: usize,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::IntervalClosed { t, closed } => {
                write!(f, "interval {t} is closed (watermark {closed})")
            }
            StreamError::PathCountMismatch { ours, theirs } => {
                write!(f, "path count mismatch: log has {ours}, row has {theirs}")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// A [`MeasurementLog`] with a close watermark: intervals below `closed()`
/// are frozen (their Algorithm 2 columns may have been consumed), intervals
/// at or above it still accumulate records.
///
/// Producers either record timestamped packets into open intervals
/// ([`record_sent_at`](StreamingLog::record_sent_at)) and close them as the
/// clock passes their boundary ([`close_through`](StreamingLog::close_through)),
/// or append whole pre-closed interval rows
/// ([`append_interval`](StreamingLog::append_interval)) — the shape a
/// segment tail delivers.
#[derive(Debug, Clone)]
pub struct StreamingLog {
    log: MeasurementLog,
    closed: usize,
}

impl StreamingLog {
    /// An empty streaming log (no intervals, watermark zero).
    pub fn new(n_paths: usize, interval_s: f64) -> StreamingLog {
        StreamingLog {
            log: MeasurementLog::new(n_paths, interval_s),
            closed: 0,
        }
    }

    /// Wraps an existing log with everything it currently holds open.
    pub fn from_log(log: MeasurementLog) -> StreamingLog {
        StreamingLog { log, closed: 0 }
    }

    /// The underlying log. Consumers must only trust intervals below
    /// [`closed`](StreamingLog::closed).
    pub fn log(&self) -> &MeasurementLog {
        &self.log
    }

    /// Unwraps into the underlying log.
    pub fn into_log(self) -> MeasurementLog {
        self.log
    }

    /// Number of closed (frozen) intervals.
    pub fn closed(&self) -> usize {
        self.closed
    }

    /// Records `n` packets sent on `path` at time `time_s`, binning with
    /// the shared [`crate::interval`] rule. Refused once the interval is
    /// closed.
    pub fn record_sent_at(&mut self, time_s: f64, path: PathId, n: u64) -> Result<(), StreamError> {
        let t = self.log.interval_of(time_s);
        self.check_open(t)?;
        self.log.record_sent(t, path, n);
        Ok(())
    }

    /// Records `n` lost packets on `path` at time `time_s`.
    pub fn record_lost_at(&mut self, time_s: f64, path: PathId, n: u64) -> Result<(), StreamError> {
        let t = self.log.interval_of(time_s);
        self.check_open(t)?;
        self.log.record_lost(t, path, n);
        Ok(())
    }

    /// Appends one already-closed interval: `sent[p]` / `lost[p]` per path.
    /// The row lands immediately below the watermark; any open records in
    /// that interval slot must not exist (the slot is created by the
    /// append). Returns the interval index.
    pub fn append_interval(&mut self, sent: &[u64], lost: &[u64]) -> Result<usize, StreamError> {
        let n = self.log.path_count();
        if sent.len() != n || lost.len() != n {
            return Err(StreamError::PathCountMismatch {
                ours: n,
                theirs: if sent.len() != n {
                    sent.len()
                } else {
                    lost.len()
                },
            });
        }
        let t = self.closed;
        for (p, (&s, &l)) in sent.iter().zip(lost).enumerate() {
            if s > 0 {
                self.log.record_sent(t, PathId(p), s);
            }
            if l > 0 {
                self.log.record_lost(t, PathId(p), l);
            }
        }
        // An all-zero row must still materialize the interval slot.
        if self.log.interval_count() <= t {
            self.log.record_sent(t, PathId(0), 0);
        }
        self.closed = t + 1;
        Ok(t)
    }

    /// Closes every interval strictly before the one containing `time_s`
    /// (a packet stamped `time_s` proves those intervals are over). Returns
    /// how many intervals were newly closed.
    pub fn close_through(&mut self, time_s: f64) -> usize {
        let boundary = self.log.interval_of(time_s);
        if boundary <= self.closed {
            return 0;
        }
        // Materialize silent intervals so consumers can read them.
        if self.log.interval_count() < boundary {
            self.log.record_sent(boundary - 1, PathId(0), 0);
        }
        let newly = boundary - self.closed;
        self.closed = boundary;
        newly
    }

    /// Closes everything currently recorded (end of stream).
    pub fn close_all(&mut self) -> usize {
        let newly = self.log.interval_count().saturating_sub(self.closed);
        self.closed = self.log.interval_count();
        newly
    }

    fn check_open(&self, t: usize) -> Result<(), StreamError> {
        if t < self.closed {
            return Err(StreamError::IntervalClosed {
                t,
                closed: self.closed,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{group_indicators, pathset_cf_counts, GroupBits};
    use crate::NormalizeConfig;

    fn lossy_log(t_max: usize) -> MeasurementLog {
        let mut log = MeasurementLog::new(3, 0.1);
        for t in 0..t_max {
            for p in 0..3 {
                if p == 2 && t % 7 == 3 {
                    // Starved path: uninformative interval for any group
                    // containing it.
                    continue;
                }
                log.record_sent(t, PathId(p), 200 + 50 * p as u64);
                log.record_lost(t, PathId(p), ((t * (p + 2)) % 9) as u64);
            }
            if t % 5 == 0 {
                log.record_lost(t, PathId(0), 40);
                log.record_lost(t, PathId(1), 40);
            }
        }
        // A trailing fully silent interval.
        log.record_sent(t_max, PathId(0), 0);
        log
    }

    /// `(congestion_free, informative)` of the members `rows` over `range`.
    fn counts(bits: &GroupBits, rows: &[usize], range: std::ops::Range<usize>) -> (usize, usize) {
        (
            bits.congestion_free(rows, range.clone()),
            bits.informative(range),
        )
    }

    #[test]
    fn incremental_counts_match_batch() {
        let log = lossy_log(40);
        let cfg = NormalizeConfig::default();
        let group = [PathId(0), PathId(1), PathId(2)];
        let sets: [&[usize]; 3] = [&[0], &[0, 1], &[0, 1, 2]];

        let mut inc = GroupBits::new(&group, cfg);
        let batch_ind = group_indicators(&log, &group, cfg);
        // Fold one interval at a time; at every prefix the counts match a
        // batch recount of that prefix.
        for through in 0..=log.interval_count() {
            inc.extend(&log, through);
            assert_eq!(inc.len(), through);
            for rows in sets {
                let truncated: Vec<Vec<Option<bool>>> = batch_ind
                    .iter()
                    .map(|row| row[..through].to_vec())
                    .collect();
                let want = pathset_cf_counts(&truncated, rows);
                assert_eq!(counts(&inc, rows, 0..through), want, "prefix {through}");
            }
        }
    }

    #[test]
    fn windowed_counts_cover_last_w_intervals() {
        let log = lossy_log(150);
        let cfg = NormalizeConfig::default();
        let group = [PathId(0), PathId(1)];
        let ind = group_indicators(&log, &group, cfg);
        for w in [12, 63, 64, 65] {
            let mut inc = GroupBits::new(&group, cfg);
            for through in 1..=log.interval_count() {
                inc.extend(&log, through);
                let lo = through.saturating_sub(w);
                let windowed: Vec<Vec<Option<bool>>> =
                    ind.iter().map(|row| row[lo..through].to_vec()).collect();
                let want = pathset_cf_counts(&windowed, &[0, 1]);
                assert_eq!(
                    counts(&inc, &[0, 1], lo..through),
                    want,
                    "window {w} ending at {through}"
                );
            }
        }
    }

    #[test]
    fn rebase_replays_merged_history() {
        let mut a = lossy_log(30);
        let mut b = MeasurementLog::new(3, 0.1);
        for t in 0..30 {
            b.record_sent(t, PathId(1), 90);
            b.record_lost(t, PathId(1), (t % 4) as u64);
        }
        let cfg = NormalizeConfig::default();
        let group = [PathId(0), PathId(1), PathId(2)];
        let mut inc = GroupBits::new(&group, cfg);
        inc.extend(&a, a.interval_count());
        let row = inc.row(PathId(1));

        // Second vantage arrives: merged history invalidates the bitsets.
        a.merge(&b).unwrap();
        inc.clear();
        assert!(inc.is_empty());
        inc.extend(&a, a.interval_count());

        let ind = group_indicators(&a, &group, cfg);
        let want = pathset_cf_counts(&ind, &[1]);
        assert_eq!(counts(&inc, &[row], 0..a.interval_count()), want);
    }

    #[test]
    fn group_registration_deduplicates() {
        let cfg = NormalizeConfig::default();
        let a = GroupBits::new(&[PathId(1), PathId(0), PathId(1)], cfg);
        let b = GroupBits::new(&[PathId(0), PathId(1)], cfg);
        assert_eq!(a.paths(), b.paths());
        assert_eq!(a.paths(), &[PathId(0), PathId(1)]);
        assert_eq!(a.row(PathId(1)), 1);
    }

    #[test]
    fn streaming_log_freezes_closed_intervals() {
        let mut s = StreamingLog::new(2, 0.1);
        s.record_sent_at(0.05, PathId(0), 10).unwrap();
        s.record_sent_at(0.15, PathId(0), 10).unwrap();
        assert_eq!(s.close_through(0.15), 1);
        assert_eq!(s.closed(), 1);
        // Interval 0 is frozen now.
        assert_eq!(
            s.record_sent_at(0.06, PathId(0), 1),
            Err(StreamError::IntervalClosed { t: 0, closed: 1 })
        );
        // Interval 1 still accepts records.
        s.record_lost_at(0.19, PathId(0), 2).unwrap();
        assert_eq!(s.close_all(), 1);
        assert_eq!(s.closed(), 2);
        let log = s.into_log();
        assert_eq!(log.sent(0, PathId(0)), 10);
        assert_eq!(log.lost(1, PathId(0)), 2);
    }

    #[test]
    fn append_interval_rows() {
        let mut s = StreamingLog::new(2, 0.1);
        assert_eq!(s.append_interval(&[5, 7], &[1, 0]), Ok(0));
        assert_eq!(s.append_interval(&[0, 0], &[0, 0]), Ok(1));
        assert_eq!(s.append_interval(&[3, 4], &[0, 2]), Ok(2));
        assert_eq!(s.closed(), 3);
        assert_eq!(s.log().interval_count(), 3);
        assert_eq!(s.log().sent(2, PathId(1)), 4);
        assert_eq!(s.log().lost(0, PathId(0)), 1);
        assert_eq!(
            s.append_interval(&[1, 2, 3], &[0, 0, 0]),
            Err(StreamError::PathCountMismatch { ours: 2, theirs: 3 })
        );
    }

    #[test]
    fn close_through_materializes_silent_intervals() {
        let mut s = StreamingLog::new(1, 0.1);
        assert_eq!(s.close_through(0.55), 5);
        assert_eq!(s.closed(), 5);
        assert_eq!(s.log().interval_count(), 5);
        assert_eq!(s.log().sent(4, PathId(0)), 0);
        // Closing backwards is a no-op.
        assert_eq!(s.close_through(0.3), 0);
        assert_eq!(s.closed(), 5);
    }
}
