//! The worker loop behind the `nni-worker` binary: a frame-in, frame-out
//! service over any byte stream (stdin/stdout in production, in-memory
//! buffers in tests).
//!
//! The worker deliberately runs only the *emulation* half of an experiment
//! and ships the full `SimReport` back: inference is deterministic in the
//! report, so the parent re-derives outcomes locally and bit-identity to
//! the in-process executors holds by construction.
//!
//! # Fault hooks
//!
//! The chaos harness drives this loop through two environment knobs:
//! [`CRASH_ONCE_ENV`] (the original single-crash token) and
//! [`FAULT_PLAN_ENV`](nni_scenario::FAULT_PLAN_ENV), a full seeded
//! [`FaultPlan`]. The plan is probed **once** per process into a
//! [`OnceLock`]; with the variable unset every job pays exactly one branch
//! on a cached `None`, so production throughput is untouched (gated by the
//! bench trajectory).

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::OnceLock;

use nni_measure::wire::FrameError;
use nni_scenario::fault::{job_token, Fault, FaultPlan};
use nni_scenario::{read_job, result_frame_bytes, write_result, Scenario};

/// Crash-injection hook for the requeue tests: when this variable names a
/// token file that does **not** exist yet, the worker creates it and
/// `abort()`s before answering its first job — so exactly one crash is
/// injected and the respawned worker (which finds the token) proceeds
/// normally.
pub const CRASH_ONCE_ENV: &str = "NNI_WORKER_CRASH_ONCE";

/// Serves jobs until a clean end-of-stream, returning how many were
/// answered. Any frame error — transport or codec — aborts the loop; the
/// binary maps it to a non-zero exit.
pub fn serve(input: &mut impl Read, output: &mut impl Write) -> Result<usize, FrameError> {
    let mut served = 0usize;
    while let Some((job_id, scenario)) = read_job(input)? {
        maybe_crash_once();
        let token = fault_plan().map(|plan| {
            let token = job_token(
                scenario.measurement_fingerprint(),
                scenario.measurement.seed,
            );
            fault_before(plan, token);
            token
        });
        let report = scenario.compile().emulate();
        let mut handled = false;
        if let Some(token) = token {
            handled = fault_write(
                fault_plan().expect("probed"),
                token,
                job_id,
                output,
                &report,
            )?;
        }
        if !handled {
            write_result(output, job_id, &report)?;
            // The parent blocks on this result before sending the next job,
            // so a buffered stdout must drain per job, not per batch.
            output.flush()?;
        }
        served += 1;
    }
    Ok(served)
}

/// The job token fault draws key on — re-exported for tests that predict
/// the poison set of a population.
pub fn fault_token(scenario: &Scenario) -> u64 {
    job_token(
        scenario.measurement_fingerprint(),
        scenario.measurement.seed,
    )
}

/// The process-wide fault plan, probed from the environment exactly once.
fn fault_plan() -> Option<&'static FaultPlan> {
    static PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
    PLAN.get_or_init(FaultPlan::from_env).as_ref()
}

/// Faults that fire before the emulation runs: poison (every attempt),
/// crash-before, hang, slow.
fn fault_before(plan: &FaultPlan, token: u64) {
    if plan.poisoned(token) {
        // Poison aborts on every attempt — no claim token.
        std::process::abort();
    }
    match plan.transient(token) {
        Some(Fault::CrashBefore) if plan.claim(token) => std::process::abort(),
        Some(Fault::Hang) if plan.claim(token) => {
            std::thread::sleep(std::time::Duration::from_millis(plan.hang_ms));
        }
        Some(Fault::Slow) if plan.claim(token) => {
            std::thread::sleep(std::time::Duration::from_millis(plan.slow_ms));
        }
        _ => {}
    }
}

/// Faults that corrupt the answer itself: crash-after (full frame, then
/// abort), torn frame (half the bytes, then abort), bit flip (trailer
/// corrupted, worker lives). Returns `true` when it wrote (or died) in
/// place of the normal result path.
fn fault_write(
    plan: &FaultPlan,
    token: u64,
    job_id: u64,
    output: &mut impl Write,
    report: &nni_emu::SimReport,
) -> Result<bool, FrameError> {
    let fault = match plan.transient(token) {
        Some(f @ (Fault::CrashAfter | Fault::TornFrame | Fault::BitFlip)) => f,
        _ => return Ok(false),
    };
    if !plan.claim(token) {
        return Ok(false);
    }
    let mut bytes = result_frame_bytes(job_id, report);
    match fault {
        Fault::CrashAfter => {
            output.write_all(&bytes).map_err(FrameError::Io)?;
            output.flush().map_err(FrameError::Io)?;
            std::process::abort();
        }
        Fault::TornFrame => {
            // Enough bytes that the parent is demonstrably *inside* the
            // frame (past the 24-byte magic + version + sync marker +
            // length header), never a clean EOF.
            let cut = (bytes.len() / 2).max(25);
            output.write_all(&bytes[..cut]).map_err(FrameError::Io)?;
            output.flush().map_err(FrameError::Io)?;
            std::process::abort();
        }
        Fault::BitFlip => {
            // The final byte is inside the FNV trailer: the frame arrives
            // complete but fails its checksum.
            *bytes.last_mut().expect("frames are never empty") ^= 0x01;
            output.write_all(&bytes).map_err(FrameError::Io)?;
            output.flush().map_err(FrameError::Io)?;
            Ok(true)
        }
        _ => unreachable!("filtered above"),
    }
}

fn maybe_crash_once() {
    if let Some(token) = std::env::var_os(CRASH_ONCE_ENV) {
        let token = PathBuf::from(token);
        if !token.exists() {
            // Leave the token first: the respawned worker must not crash
            // again, or the bounded retry budget would (correctly) give up.
            let _ = std::fs::write(&token, b"crashed once");
            std::process::abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nni_scenario::library::{topology_a_scenario, ExperimentParams};
    use nni_scenario::{read_result, write_job};

    #[test]
    fn serve_answers_jobs_in_order_until_eof() {
        let scenario = topology_a_scenario(ExperimentParams {
            duration_s: 2.0,
            ..ExperimentParams::default()
        });
        let mut input = Vec::new();
        write_job(&mut input, 4, &scenario).unwrap();
        write_job(&mut input, 9, &scenario.with_seed(7)).unwrap();
        let mut output = Vec::new();
        let served = serve(&mut input.as_slice(), &mut output).expect("clean run");
        assert_eq!(served, 2);
        let mut cursor = std::io::Cursor::new(&output);
        let (id_a, report_a) = read_result(&mut cursor).unwrap().expect("first result");
        let (id_b, report_b) = read_result(&mut cursor).unwrap().expect("second result");
        assert_eq!((id_a, id_b), (4, 9));
        assert_eq!(report_a, scenario.compile().emulate());
        assert_eq!(report_b, scenario.with_seed(7).compile().emulate());
        assert!(read_result(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn garbage_input_is_a_frame_error_not_a_panic() {
        let mut output = Vec::new();
        let err = serve(&mut &b"not a frame at all"[..], &mut output).unwrap_err();
        assert!(matches!(err, FrameError::Codec(_)), "got {err}");
        assert!(output.is_empty(), "no result may be emitted for bad input");
    }

    #[test]
    fn bitflip_fault_produces_a_complete_but_corrupt_frame() {
        let scenario = topology_a_scenario(ExperimentParams {
            duration_s: 2.0,
            ..ExperimentParams::default()
        });
        let token = fault_token(&scenario);
        let plan = FaultPlan {
            bitflip: 1.0,
            ..FaultPlan::seeded(3)
        };
        assert_eq!(plan.transient(token), Some(Fault::BitFlip));
        let report = scenario.compile().emulate();
        let mut output = Vec::new();
        let wrote = fault_write(&plan, token, 7, &mut output, &report).unwrap();
        assert!(wrote);
        let err = read_result(&mut output.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                FrameError::Codec(nni_measure::codec::CodecError::ChecksumMismatch)
            ),
            "got {err}"
        );
    }
}
