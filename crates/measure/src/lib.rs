//! # nni-measure
//!
//! Measurement processing for neutrality inference (§6.2 and Appendix
//! Algorithm 2 of the paper):
//!
//! * [`record`] — the raw per-interval, per-path send/loss log produced by
//!   the emulator (or any measurement platform).
//! * [`normalize`] — Algorithm 2: per-interval discounting of every path's
//!   packets to the normalization group's common budget (hypergeometric
//!   retention draw), loss-threshold congestion-free indicators, and pathset
//!   performance numbers `y_Θ = -ln P(Θ congestion-free)`, counted over
//!   [`GroupBits`] — growable per-group interval bitsets that batch and
//!   streaming inference share (any interval range, so a sliding window is
//!   a range).
//! * [`observer`] — [`MeasuredObservations`], the measured implementation of
//!   `nni_core::Observations` that Algorithm 1 consumes.
//! * [`dataset`] — the acquisition/inference seam: [`MeasurementSet`] (the
//!   serializable bundle inference consumes), its [`SetKey`] identity, and
//!   the [`MeasurementCache`] that memoizes sets by key.
//! * [`codec`] — the hand-rolled binary serialization of a measurement set
//!   (no serde; the tree is vendored). `exp_corpus dump` prints stored
//!   sets as text; nothing parses that text back.
//! * [`corpus`] — on-disk corpora of encoded sets ([`Corpus`],
//!   [`CorpusEntry`], whose key is known before its log is decoded).
//! * [`interval`] — the one measurement-interval binning rule the
//!   emulator bins timestamps with.
//! * [`segment`] — the append-friendly `.nniseg` on-disk segment format
//!   ([`SegmentWriter`]/[`SegmentFollower`]): a codec-v1 header chunk plus
//!   checksummed interval chunks, readable while being written, with
//!   optional corrupt-chunk resync (skip to the next valid chunk and
//!   report the loss as a [`SegmentGap`]).
//! * [`tail`] — [`CorpusTail`], a poll-based watcher over a growing corpus
//!   directory yielding complete entries, live segment intervals, and
//!   resync gaps.
//! * [`relay`] — the segment relay: [`RelaySource`] streams a directory's
//!   raw `.nniseg` bytes as checksummed frames (over a socket), and
//!   [`RemoteTail`] replays them through the same follower state machine
//!   a local tail runs — remote monitoring with identical resync and
//!   degraded-stream semantics.
//! * [`wire`] — the shared byte-level primitives every codec folds through
//!   ([`WireWriter`]/[`WireReader`]) plus checksummed stream framing
//!   ([`wire::write_frame`]/[`wire::read_frame`]) for the worker protocol.
//! * [`json_escape`] — the one JSON string escaper behind every JSON line
//!   the workspace writes (daemon verdicts, live updates, perf records).

pub mod codec;
pub mod corpus;
pub mod dataset;
pub mod interval;
pub mod normalize;
pub mod observer;
pub mod record;
pub mod relay;
pub mod segment;
pub mod tail;
pub mod wire;

pub use corpus::{
    entry_file_name, entry_order_key, segment_file_name, Corpus, CorpusEntry, CORPUS_EXT,
};
pub use dataset::{Fnv, MeasurementCache, MeasurementSet, Provenance, SetKey, SourceError};
pub use normalize::{
    group_indicators, hypergeometric, interval_eval_count, pathset_cf_counts, perf_from_counts,
    GroupBits, NormalizeConfig,
};
pub use observer::MeasuredObservations;
pub use record::{DelayStats, MeasurementLog, MergeError};
pub use relay::{decode_relay, relay_frame, RelaySource, RemoteTail, RELAY_MAGIC};
pub use segment::{
    IntervalRows, SegmentBatch, SegmentError, SegmentFollower, SegmentGap, SegmentItem,
    SegmentWriter, MAX_CHUNK_BYTES, SEGMENT_EXT, VERSION as SEGMENT_VERSION,
};
pub use tail::{CorpusTail, TailEvent};
pub use wire::{
    frame_bytes, read_frame, write_frame, FrameError, WireReader, WireWriter, FRAME_VERSION,
    SYNC_MARKER,
};

/// Escapes `s` for use inside a JSON string literal: `"` and `\` are
/// backslash-escaped, `\n` becomes `\n`, and every other control
/// character becomes a `\u00XX` escape.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::json_escape;

    #[test]
    fn json_escape_covers_quotes_backslashes_and_control_characters() {
        let raw = "a\"b\\c\nd\te\r 20% \u{e9}";
        assert_eq!(
            json_escape(raw),
            "a\\\"b\\\\c\\nd\\u0009e\\u000d 20% \u{e9}"
        );
    }
}
