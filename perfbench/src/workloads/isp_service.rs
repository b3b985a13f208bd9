//! `isp_service`: the operator path at ISP scale. Sixteen `isp_200link`
//! 3 s jobs go into a fresh spool and `run_daemon` drains them with two
//! worker processes.
//!
//! Per job the daemon runs inference serially (plan, Algorithm 2 observe,
//! Algorithm 1 decide), beside the emulation its workers do; it is the only
//! workload that exercises the job protocol, the process pool, `emu::wire`
//! reports, spool fsyncs and `.nniset` spills. Jobs share two topologies,
//! so work shared across inputs can show.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nni_core::evaluate;
use nni_emu::{decode_report, encode_report};
use nni_measure::{codec, entry_file_name, Fnv};
use nni_scenario::{
    infer, read_job, simulation_count, InferenceConfig, ProcessExecutor, Provenance, Scenario,
};
use nni_service::{run_daemon, DaemonConfig, Spool};
use nni_topogen::{generate, IspParams};

use super::{failed_frac, repeated_setup, traced_infer, Ctx, Measured, ROLE_ENV};
use crate::inputs::{admit, isp_jobs, mix, SERVICE_DURATION_S, SERVICE_JOBS};
use crate::stats::median;

/// Worker processes in the pool, as in `DaemonConfig::drain`.
const WORKERS: usize = 2;

/// One job's verdict as the service delivered it.
#[derive(Debug, Clone, PartialEq)]
struct Delivered {
    flagged: bool,
    /// Hash of the spilled `.nniset` bytes.
    spill: u64,
}

fn spool_dir(ctx: &Ctx, tag: &str) -> PathBuf {
    ctx.work.join(format!("spool-{tag}"))
}

/// A fresh spool with every job submitted.
fn fill_spool(dir: &Path, jobs: &[Scenario]) -> Result<Spool, String> {
    let _ = fs::remove_dir_all(dir);
    let spool = Spool::open(dir).map_err(|e| format!("spool {}: {e}", dir.display()))?;
    for job in jobs {
        spool.submit(job).map_err(|e| format!("submit: {e}"))?;
    }
    Ok(spool)
}

fn setup(ctx: &mut Ctx) -> Result<Vec<Scenario>, String> {
    if ctx.trace.enabled() {
        // `isp_scenario` generates each topology inside; time the same
        // generation on its own for the topogen layer.
        let params = IspParams::isp_200link();
        for t in 0..2 {
            ctx.trace.span("topogen.generate_ms", || {
                std::hint::black_box(generate(&params, mix(ctx.seed, 100 + t)))
            });
        }
    }
    let jobs = isp_jobs(ctx.seed, SERVICE_JOBS, SERVICE_DURATION_S);
    for job in &jobs {
        admit(job)?;
    }
    Ok(jobs)
}

fn hash(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    for &b in bytes {
        h.byte(b);
    }
    h.0
}

/// Where the daemon spills a job's measurement set.
fn spill_path(spool: &Spool, job: &Scenario) -> PathBuf {
    let provenance = Provenance {
        scenario: job.name.clone(),
        scenario_fingerprint: job.measurement_fingerprint(),
        seed: job.measurement.seed,
        build: nni_emu::build_fingerprint(),
    };
    spool.corpus_dir().join(entry_file_name(&provenance))
}

/// Value of a string or scalar field in one flat JSON verdict line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[start..];
    if let Some(quoted) = rest.strip_prefix('"') {
        quoted.split('"').next()
    } else {
        rest.split([',', '}']).next()
    }
}

/// Reads what a drained spool delivered, per job index: the verdict line
/// and the spilled set. Jobs are identified by measurement fingerprint and
/// seed.
fn delivered(spool: &Spool, jobs: &[Scenario]) -> Vec<Option<Delivered>> {
    let index: HashMap<(String, String), usize> = jobs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let key = (
                format!("{:016x}", s.measurement_fingerprint()),
                s.measurement.seed.to_string(),
            );
            (key, i)
        })
        .collect();
    let mut out = vec![None; jobs.len()];
    let verdicts = fs::read_to_string(spool.verdicts_path()).unwrap_or_default();
    for line in verdicts.lines() {
        if field(line, "type") != Some("verdict") {
            continue;
        }
        let key = (
            field(line, "fingerprint").unwrap_or_default().to_string(),
            field(line, "seed").unwrap_or_default().to_string(),
        );
        let Some(&i) = index.get(&key) else {
            continue;
        };
        let spill = fs::read(spill_path(spool, &jobs[i]))
            .map(|b| hash(&b))
            .unwrap_or(0);
        out[i] = Some(Delivered {
            flagged: field(line, "flagged") == Some("true"),
            spill,
        });
    }
    out
}

/// The daemon's per-job work replayed in-process through the public calls
/// it makes, in its order: claim and decode every job, emulate each (the
/// workers' half, with the report crossing `emu::wire`), then per job infer,
/// package, spill and record the verdict; finally decode the spills as a
/// corpus reader would. The pool itself is timed separately with
/// `try_batch` over the same jobs. Returns the verdicts and the wall time
/// of the daemon's half (everything but emulation, report encoding and
/// spill decoding).
fn traced_replay(
    ctx: &mut Ctx,
    jobs: &[Scenario],
    round: usize,
) -> Result<(Vec<bool>, Duration), String> {
    let dir = spool_dir(ctx, &format!("replay{round}"));
    let _ = fs::remove_dir_all(&dir);
    let trace = &mut ctx.trace;
    let spool = Spool::open(&dir).map_err(|e| e.to_string())?;
    for job in jobs {
        trace
            .span("service.submit_ms", || spool.submit(job))
            .map_err(|e| format!("submit: {e}"))?;
    }
    let corpus = nni_measure::Corpus::open(spool.corpus_dir()).map_err(|e| e.to_string())?;
    let mut daemon = Duration::ZERO;

    // Claim and decode, then compile.
    let t = Instant::now();
    let mut claimed = Vec::new();
    for job in spool.pending().map_err(|e| e.to_string())? {
        let (path, scenario) = trace
            .span("service.overhead_ms", || {
                let path = spool.claim(&job)?;
                let bytes = fs::read(&path)?;
                let decoded = read_job(&mut bytes.as_slice())
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                Ok::<_, std::io::Error>((path, decoded))
            })
            .map_err(|e| format!("claim: {e}"))?;
        let (_, scenario) = scenario.ok_or("empty job file")?;
        let exp = trace.span("scenario.compile_ms", || scenario.compile());
        claimed.push((path, exp));
    }
    daemon += t.elapsed();

    // The workers' half: emulate and ship the report.
    let mut reports = Vec::with_capacity(claimed.len());
    for (_, exp) in &claimed {
        let sims = simulation_count();
        let report = trace.span("emu.emulate_ms", || exp.emulate());
        trace.count("scenario.simulations", (simulation_count() - sims) as f64);
        trace.count("emu.segments", report.segments_sent as f64);
        let bytes = trace.span("emu.wire_encode_ms", || encode_report(&report));
        trace.count("emu.wire_bytes", bytes.len() as f64);
        reports.push(bytes);
    }

    // The daemon's half again: decode each report, infer, spill, record.
    let t = Instant::now();
    let mut verdicts = Vec::with_capacity(claimed.len());
    let mut spills = Vec::with_capacity(claimed.len());
    for ((path, exp), bytes) in claimed.iter().zip(&reports) {
        let s = exp.scenario();
        let report = trace
            .span("emu.wire_decode_ms", || decode_report(bytes))
            .map_err(|e| format!("report decode: {e}"))?;
        let cfg = InferenceConfig::of(s);
        let result = traced_infer(trace, &s.topology, &report.log, s.measurement.seed, &cfg);
        // Scoring, as `Experiment::outcome_from` does it.
        let congestion: Vec<f64> = s
            .topology
            .path_ids()
            .map(|p| report.log.congestion_probability(p, cfg.loss_threshold))
            .collect();
        let flagged = result.network_is_nonneutral();
        let quality = evaluate(
            &s.topology,
            &result.nonneutral,
            &s.expectation.nonneutral_links,
        );
        std::hint::black_box((congestion, quality));
        let set = trace.span("scenario.package_ms", || exp.package(report.log.clone()));
        let encoded = trace.span("measure.codec_encode_ms", || codec::encode(&set));
        trace.count("measure.set_bytes", encoded.len() as f64);
        trace
            .span("service.overhead_ms", || {
                fs::write(
                    corpus.dir().join(entry_file_name(&set.provenance)),
                    &encoded,
                )?;
                spool.append_verdict(&format!(
                    "{{\"type\":\"verdict\",\"job\":\"{}\",\"scenario\":\"{}\",\"seed\":{},\
                     \"fingerprint\":\"{:016x}\",\"flagged\":{},\"correct\":{}}}",
                    path.file_name().unwrap_or_default().to_string_lossy(),
                    s.name.replace('"', "'"),
                    s.measurement.seed,
                    s.measurement_fingerprint(),
                    flagged,
                    flagged == s.expectation.expect_flagged,
                ))?;
                spool.complete(path)
            })
            .map_err(|e| format!("spill: {e}"))?;
        verdicts.push(flagged);
        spills.push(encoded);
    }
    daemon += t.elapsed();

    // The reader's side of the spills, which the daemon itself never pays.
    for encoded in &spills {
        trace
            .span("measure.codec_decode_ms", || codec::decode(encoded))
            .map_err(|e| format!("spill decode: {e}"))?;
    }
    let _ = fs::remove_dir_all(&dir);
    Ok((verdicts, daemon))
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let (jobs, setup_s) = repeated_setup(ctx, setup)?;
    let expected: Vec<bool> = jobs.iter().map(|j| j.expectation.expect_flagged).collect();
    let n = jobs.len();

    let mut rates = Vec::new();
    let mut failed = 0u64;
    let mut rounds = 0usize;
    let mut timed = Duration::ZERO;
    let mut reference: Option<Vec<bool>> = None;
    let mut first_delivery: Option<Vec<Option<Delivered>>> = None;
    let mut mismatched = 0usize;
    while rounds == 0 || timed < ctx.seconds {
        rounds += 1;
        ctx.trace.next_round();
        if ctx.trace.enabled() {
            let t = Instant::now();
            let (verdicts, daemon) = traced_replay(ctx, &jobs, rounds)?;
            ctx.trace.record("bench.traced_ms", t, daemon);
            let pool = ProcessExecutor::new(WORKERS)
                .with_worker_bin(&ctx.worker_bin)
                .with_env(ROLE_ENV, "worker");
            let scenarios: Vec<&Scenario> = jobs.iter().collect();
            let batch = ctx
                .trace
                .span("process.batch_ms", || pool.try_batch(&scenarios))
                .map_err(|e| format!("worker pool: {e}"))?;
            let stats = batch.stats;
            ctx.trace.count("process.respawns", stats.respawns as f64);
            ctx.trace.count("process.retries", stats.retries as f64);
            ctx.trace.count("process.timeouts", stats.timeouts as f64);
            ctx.trace
                .count("process.quarantined", stats.quarantined as f64);
            // Every round must decide as the first; in the first, the
            // pool's reports must decide exactly as the replay did.
            let first = reference.is_none();
            for (i, report) in batch.reports.into_iter().enumerate() {
                match report {
                    Some(report) if first => {
                        let s = &jobs[i];
                        let flagged =
                            infer(&s.compile().package(report.log), &InferenceConfig::of(s))
                                .network_is_nonneutral();
                        mismatched += usize::from(flagged != verdicts[i]);
                    }
                    Some(_) => {}
                    None => failed += 1,
                }
            }
            let reference = reference.get_or_insert_with(|| verdicts.clone());
            mismatched += reference
                .iter()
                .zip(&verdicts)
                .filter(|(a, b)| a != b)
                .count();
            timed += t.elapsed();
            rates.push(n as f64 / daemon.as_secs_f64());
            continue;
        }

        let dir = spool_dir(ctx, &format!("drain{rounds}"));
        let spool = fill_spool(&dir, &jobs)?;
        let cfg = DaemonConfig {
            workers: WORKERS,
            worker_bin: Some(ctx.worker_bin.clone()),
            worker_env: vec![(ROLE_ENV.to_string(), "worker".to_string())],
            ..DaemonConfig::drain(&dir)
        };
        let t = Instant::now();
        let summary = run_daemon(&cfg).map_err(|e| format!("daemon: {e}"))?;
        let wall = t.elapsed();
        timed += wall;
        rates.push(summary.jobs_done as f64 / wall.as_secs_f64());

        // Checks, outside the timed region: one verdict and one spill per
        // job, nothing parked or quarantined, and the same output every
        // round.
        let delivery = delivered(&spool, &jobs);
        let counts = spool.counts().map_err(|e| e.to_string())?;
        failed += delivery.iter().filter(|d| d.is_none()).count() as u64;
        failed += (summary.parked + summary.quarantined) as u64;
        if counts.done != n || counts.failed != 0 {
            eprintln!("isp_service: spool ended {counts:?}");
        }
        match &first_delivery {
            None => {
                // First round: the spilled sets must decide as the daemon
                // reported.
                let mut verdicts = Vec::with_capacity(n);
                for (job, d) in jobs.iter().zip(&delivery) {
                    let flagged = fs::read(spill_path(&spool, job))
                        .ok()
                        .and_then(|b| codec::decode(&b).ok())
                        .map(|set| infer(&set, &InferenceConfig::of(job)).network_is_nonneutral());
                    if let (Some(d), Some(f)) = (d, flagged) {
                        if d.flagged != f {
                            mismatched += 1;
                        }
                    }
                    verdicts.push(d.as_ref().is_some_and(|d| d.flagged));
                }
                reference = Some(verdicts);
                first_delivery = Some(delivery);
            }
            Some(first) => {
                mismatched += first
                    .iter()
                    .zip(&delivery)
                    .filter(|(a, b)| b.is_some() && a != b)
                    .count();
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    failed += mismatched as u64;
    let attempted = (n * rounds) as u64;
    let reference = reference.expect("at least one round");
    let accurate = reference
        .iter()
        .zip(&expected)
        .filter(|(f, e)| f == e)
        .count();
    eprintln!(
        "isp_service: {n} jobs x {rounds} rounds, {} flagged ({} expected), {accurate} of {n} verdicts match expectation, {mismatched} identity mismatches",
        reference.iter().filter(|&&f| f).count(),
        expected.iter().filter(|&&f| f).count(),
    );
    let jobs_replayed = (n as f64).max(1.0);
    eprintln!("  per-round verdicts/s: {:.3?}", rates);
    Ok(Measured {
        correct: failed == 0,
        attempted,
        failed,
        setup_s,
        verdicts_per_s: median(&rates).expect("at least one round"),
        verdict_accuracy: accurate as f64 / n as f64,
        extra: Vec::new(),
        derived: vec![
            ("failed_frac", failed_frac(failed, attempted)),
            (
                "service.overhead_ms_per_job",
                ctx.trace.ms("service.overhead_ms") / jobs_replayed,
            ),
            ("bench.rounds", rounds as f64),
        ],
    })
}
