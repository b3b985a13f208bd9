//! The repository benchmark: three workloads that turn generated scenarios
//! into neutrality verdicts, end-to-end metrics measured untraced, and a
//! separate traced run that times the calls into each layer.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! which layer should move which metric.

pub mod inputs;
pub mod openloop;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
