//! Order statistics for reported timings.

/// A nearest-rank percentile together with the number of samples it was
/// taken over, so a report can say how much evidence stands behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`: the
/// smallest sample such that at least `p`% of the samples are at or below
/// it. `None` for an empty input. Never interpolates, so the result is
/// always a value that was actually measured.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    assert!(
        p > 0.0 && p <= 100.0,
        "percentile rank {p} outside (0, 100]"
    );
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(Percentile {
        value: sorted[rank.clamp(1, n) - 1],
        samples: n,
    })
}

/// The nearest-rank median (the lower middle sample for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0).map(|p| p.value)
}
