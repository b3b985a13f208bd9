//! Spans and counts recorded around calls into the program's layers.
//!
//! The benchmark instruments nothing inside the program: it times its own
//! calls into each crate's public functions. A run is divided into rounds
//! (one set-up, or one pass over the workload's inputs); spans and counts
//! are kept in memory and aggregated per round when the run ends.

use std::time::{Duration, Instant};

use crate::stats::median;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    round: usize,
    start: Instant,
    len: Duration,
}

/// An in-memory span and counter recorder. Disabled, it records nothing
/// and its spans cost one branch.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    round: usize,
    spans: Vec<Span>,
    counts: Vec<(&'static str, usize, f64)>,
}

impl Trace {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            round: 0,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next round.
    pub fn next_round(&mut self) {
        self.round += 1;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.spans.push(Span {
            name,
            round: self.round,
            start,
            len: start.elapsed(),
        });
        out
    }

    /// Records a span measured by the caller.
    pub fn record(&mut self, name: &'static str, start: Instant, len: Duration) {
        if self.enabled {
            self.spans.push(Span {
                name,
                round: self.round,
                start,
                len,
            });
        }
    }

    /// Adds `value` to the counter `name` in the current round.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.push((name, self.round, value));
        }
    }

    /// Per-round totals of `name`'s spans in milliseconds, over the rounds
    /// that recorded it.
    fn round_ms(&self, name: &str) -> Vec<f64> {
        per_round(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.round, s.len.as_secs_f64() * 1e3)),
        )
    }

    /// Per-round totals of counter `name`, over the rounds that recorded
    /// it.
    fn round_counts(&self, name: &str) -> Vec<f64> {
        per_round(
            self.counts
                .iter()
                .filter(|c| c.0 == name)
                .map(|c| (c.1, c.2)),
        )
    }

    /// Median per-round time of `name` in milliseconds; 0 when the layer
    /// was never called.
    pub fn ms(&self, name: &str) -> f64 {
        median(&self.round_ms(name)).unwrap_or(0.0)
    }

    /// Median per-round value of counter `name`; 0 when never counted.
    pub fn counted(&self, name: &str) -> f64 {
        median(&self.round_counts(name)).unwrap_or(0.0)
    }

    /// Span records in start order, as `name round start_us len_us`
    /// lines (start relative to the first span).
    pub fn dump(&self) -> String {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| s.start);
        let Some(t0) = spans.first().map(|s| s.start) else {
            return String::new();
        };
        spans
            .iter()
            .map(|s| {
                format!(
                    "{} {} {} {}\n",
                    s.name,
                    s.round,
                    s.start.duration_since(t0).as_micros(),
                    s.len.as_micros()
                )
            })
            .collect()
    }
}

fn per_round(items: impl Iterator<Item = (usize, f64)>) -> Vec<f64> {
    let mut totals: Vec<(usize, f64)> = Vec::new();
    for (round, v) in items {
        match totals.iter_mut().find(|t| t.0 == round) {
            Some(t) => t.1 += v,
            None => totals.push((round, v)),
        }
    }
    totals.into_iter().map(|t| t.1).collect()
}
