//! Open-loop schedule and latency accounting for the live workload.
//!
//! Sessions are fed on a fixed schedule, whatever the monitor is doing: a
//! stalled monitor does not slow the generator, it only makes later
//! updates late. Every update is therefore timed from when its interval was
//! *due*, not from when it happened to be written, and the generator's own
//! lateness is reported beside it.

use std::time::Duration;

/// What a scheduled event writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The session's segment header (opens the session).
    Header,
    /// Interval `i` of the session's log.
    Interval(usize),
}

/// One scheduled write, `due` after the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Offset from the start of the run.
    pub due: Duration,
    /// Session index.
    pub session: usize,
    /// Header or interval.
    pub kind: EventKind,
}

/// `sessions` sessions of `intervals` intervals each, one interval per
/// `period` per session, session `s` offset by `s × stagger`. A session's
/// header is due at its offset and its interval `i` at
/// `offset + (i + 1) × period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Intervals per session.
    pub intervals: usize,
    /// Time between one session's intervals.
    pub period: Duration,
    /// Offset between consecutive sessions' schedules.
    pub stagger: Duration,
}

impl Schedule {
    /// When session `s`'s header is due.
    pub fn header_due(&self, s: usize) -> Duration {
        self.stagger * s as u32
    }

    /// When session `s`'s interval `i` is due.
    pub fn due(&self, s: usize, i: usize) -> Duration {
        self.header_due(s) + self.period * (i as u32 + 1)
    }

    /// Every event in due order (ties: lower session first, header first).
    pub fn events(&self) -> Vec<Event> {
        let mut events = Vec::with_capacity(self.sessions * (self.intervals + 1));
        for s in 0..self.sessions {
            events.push(Event {
                due: self.header_due(s),
                session: s,
                kind: EventKind::Header,
            });
            for i in 0..self.intervals {
                events.push(Event {
                    due: self.due(s, i),
                    session: s,
                    kind: EventKind::Interval(i),
                });
            }
        }
        events.sort_by_key(|e| {
            let order = match e.kind {
                EventKind::Header => 0,
                EventKind::Interval(i) => i + 1,
            };
            (e.due, e.session, order)
        });
        events
    }

    /// Updates the run should produce: one per interval per session.
    pub fn expected_updates(&self) -> usize {
        self.sessions * self.intervals
    }

    /// The offered update rate, per second.
    pub fn rate_per_s(&self) -> f64 {
        self.sessions as f64 / self.period.as_secs_f64()
    }
}

/// Latency bookkeeping for one open-loop run: when each interval was due,
/// when its update arrived, and how late the generator wrote.
#[derive(Debug, Clone)]
pub struct UpdateBook {
    schedule: Schedule,
    /// Arrival offset of the first update covering `(s, i)`.
    arrived: Vec<Option<Duration>>,
    /// Generator lateness per write, in milliseconds.
    late_ms: Vec<f64>,
}

/// What a finished run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Latencies {
    /// One latency per expected update, in milliseconds; a missing update
    /// is counted at the whole run length.
    pub update_ms: Vec<f64>,
    /// Updates that never arrived.
    pub missing: usize,
    /// Generator lateness per write, in milliseconds.
    pub late_ms: Vec<f64>,
}

impl UpdateBook {
    /// An empty book for `schedule`.
    pub fn new(schedule: Schedule) -> UpdateBook {
        UpdateBook {
            schedule,
            arrived: vec![None; schedule.expected_updates()],
            late_ms: Vec::new(),
        }
    }

    /// Records that a write due at `due` started at `at` (both offsets
    /// from the start of the run); a write is never early, so lateness is
    /// floored at zero.
    pub fn wrote(&mut self, due: Duration, at: Duration) {
        self.late_ms
            .push(at.saturating_sub(due).as_secs_f64() * 1e3);
    }

    /// Records an update of session `s` whose watermark is `watermark`
    /// closed intervals, arriving at offset `at`: it covers interval
    /// `watermark - 1`. Returns the latency from that interval's due time,
    /// or `None` for an update that covers no expected interval or repeats
    /// one already delivered.
    pub fn delivered(&mut self, s: usize, watermark: usize, at: Duration) -> Option<Duration> {
        if s >= self.schedule.sessions || watermark == 0 || watermark > self.schedule.intervals {
            return None;
        }
        let i = watermark - 1;
        let slot = &mut self.arrived[s * self.schedule.intervals + i];
        if slot.is_some() {
            return None;
        }
        *slot = Some(at);
        Some(at.saturating_sub(self.schedule.due(s, i)))
    }

    /// Updates delivered so far.
    pub fn delivered_count(&self) -> usize {
        self.arrived.iter().filter(|a| a.is_some()).count()
    }

    /// Closes the run at offset `end`. A missing update (its session
    /// refused, or the update never came) is counted at `end` itself: every
    /// delivered update arrived after the start and before the end, so
    /// this latency exceeds any the run observed, and a miss fails every
    /// latency limit.
    pub fn finish(self, end: Duration) -> Latencies {
        let mut update_ms = Vec::with_capacity(self.arrived.len());
        let mut missing = 0;
        for (k, arrived) in self.arrived.iter().enumerate() {
            let (s, i) = (k / self.schedule.intervals, k % self.schedule.intervals);
            match arrived {
                Some(at) => {
                    update_ms.push(at.saturating_sub(self.schedule.due(s, i)).as_secs_f64() * 1e3)
                }
                None => {
                    missing += 1;
                    update_ms.push(end.as_secs_f64() * 1e3);
                }
            }
        }
        Latencies {
            update_ms,
            missing,
            late_ms: self.late_ms,
        }
    }
}
