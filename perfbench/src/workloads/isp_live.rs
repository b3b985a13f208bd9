//! `isp_live`: the streaming path. Four sessions replay pre-simulated
//! `isp_200link` 6 s sets (58 intervals each) open-loop into `.nniseg`
//! files, one interval per session every 100 ms, staggered by 25 ms: 40
//! updates/s and 232 updates per round. One thread does both the
//! `SegmentWriter` appends and the `CorpusTail` + `LiveMonitor::handle`
//! loop; at about 13 ms per streaming update (2-core x86-64 host) that
//! keeps it about half busy.
//!
//! It uses the inference layer incrementally (plan once per session, then
//! a per-interval fold and decide) and puts segment writes beside follower
//! reads, so a batch-inference gain that slows the per-interval fold, or a
//! codec change that slows segments, shows here.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use nni_live::{LiveConfig, LiveMonitor};
use nni_measure::{
    segment_file_name, CorpusTail, MeasurementSet, SegmentWriter, SetKey, TailEvent,
};
use nni_scenario::{infer, simulation_count, InferenceConfig, Scenario};
use nni_topogen::{generate, IspParams};

use super::{failed_frac, repeated_setup, traced_infer, Ctx, Measured};
use crate::inputs::{admit, isp_jobs, measured_intervals, mix, LIVE_DURATION_S, LIVE_SESSIONS};
use crate::openloop::{EventKind, Latencies, Schedule, UpdateBook};
use crate::stats::{median, percentile};

/// One interval per session every 100 ms, sessions 25 ms apart.
fn schedule(intervals: usize) -> Schedule {
    Schedule {
        sessions: LIVE_SESSIONS,
        intervals,
        period: Duration::from_millis(100),
        stagger: Duration::from_millis(25),
    }
}

/// How long a round keeps following after its last write for updates
/// still in flight.
const GRACE: Duration = Duration::from_millis(500);

struct Inputs {
    scenarios: Vec<Scenario>,
    sets: Vec<MeasurementSet>,
}

fn setup(ctx: &mut Ctx) -> Result<Inputs, String> {
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
    let scenarios = isp_jobs(ctx.seed, LIVE_SESSIONS, LIVE_DURATION_S);
    let mut sets = Vec::with_capacity(scenarios.len());
    for s in &scenarios {
        admit(s)?;
        let trace = &mut ctx.trace;
        let exp = trace.span("scenario.compile_ms", || s.compile());
        let sims = simulation_count();
        let report = trace.span("emu.emulate_ms", || exp.emulate());
        trace.count("scenario.simulations", (simulation_count() - sims) as f64);
        trace.count("emu.segments", report.segments_sent as f64);
        let set = trace.span("scenario.package_ms", || exp.package(report.log));
        if set.log.interval_count() != measured_intervals(&s.measurement) {
            return Err(format!(
                "scenario `{}` measured {} intervals, expected {}",
                s.name,
                set.log.interval_count(),
                measured_intervals(&s.measurement)
            ));
        }
        sets.push(set);
    }
    Ok(Inputs { scenarios, sets })
}

/// What one round observed besides latencies.
#[derive(Debug, Default)]
struct Round {
    latencies: Option<Latencies>,
    wall: Duration,
    /// Final verdict fingerprint and flag per session (`None`: the session
    /// never opened).
    finals: Vec<Option<(u64, bool)>>,
    /// Sessions the tail reported corrupt.
    corrupt: usize,
    /// Events the monitor refused.
    refused: usize,
    polls: usize,
    useful_polls: usize,
    waits_ms: Vec<f64>,
    segment_bytes: u64,
}

/// One open-loop replay of every session into a fresh corpus directory.
fn replay(
    ctx: &mut Ctx,
    inputs: &Inputs,
    cfg: &InferenceConfig,
    round: usize,
) -> Result<Round, String> {
    let dir = ctx.work.join(format!("live-{round}"));
    let _ = fs::remove_dir_all(&dir);
    let mut tail = CorpusTail::open(&dir).map_err(|e| e.to_string())?;
    let mut monitor = LiveMonitor::new(LiveConfig {
        inference: *cfg,
        window: None,
    });
    let sched = schedule(inputs.sets[0].log.interval_count());
    let mut book = UpdateBook::new(sched);
    let paths: Vec<PathBuf> = inputs
        .sets
        .iter()
        .map(|s| dir.join(segment_file_name(&s.provenance)))
        .collect();
    let by_key: HashMap<SetKey, usize> = inputs
        .sets
        .iter()
        .enumerate()
        .map(|(i, s)| (s.key(), i))
        .collect();
    let mut writers: Vec<Option<SegmentWriter>> = (0..sched.sessions).map(|_| None).collect();
    let mut written_at: Vec<Option<Instant>> = vec![None; sched.sessions];
    let mut out = Round::default();
    let trace = &mut ctx.trace;

    let t0 = Instant::now();
    let mut follow = |trace: &mut crate::trace::Trace,
                      monitor: &mut LiveMonitor,
                      book: &mut UpdateBook,
                      out: &mut Round,
                      written_at: &[Option<Instant>]| {
        let events = match trace.span("measure.tail_poll_ms", || tail.poll()) {
            Ok(events) => events,
            Err(e) => {
                eprintln!("isp_live: tail poll failed: {e}");
                Vec::new()
            }
        };
        out.polls += 1;
        out.useful_polls += usize::from(!events.is_empty());
        for event in events {
            let (path, header) = match &event {
                TailEvent::Corrupt { path, message } => {
                    eprintln!("isp_live: {} refused: {message}", path.display());
                    out.corrupt += 1;
                    continue;
                }
                TailEvent::SegmentHeader { path, .. } => (path.clone(), true),
                TailEvent::SegmentIntervals { path, .. } | TailEvent::SegmentGap { path, .. } => {
                    (path.clone(), false)
                }
                TailEvent::Entry(e) => (e.path().to_path_buf(), false),
            };
            let start = Instant::now();
            if let Some(at) = paths
                .iter()
                .position(|p| *p == path)
                .and_then(|s| written_at[s])
            {
                out.waits_ms
                    .push(start.duration_since(at).as_secs_f64() * 1e3);
            }
            let handled = monitor.handle(event);
            trace.record(
                if header {
                    "live.session_open_ms"
                } else {
                    "live.handle_ms"
                },
                start,
                start.elapsed(),
            );
            match handled {
                Ok(updates) => {
                    let now = t0.elapsed();
                    for u in updates {
                        let key = SetKey {
                            fingerprint: u.scenario_fingerprint,
                            seed: u.seed,
                        };
                        if let Some(&s) = by_key.get(&key) {
                            book.delivered(s, u.interval, now);
                        }
                        trace.count("live.updates", 1.0);
                    }
                }
                Err(e) => {
                    eprintln!("isp_live: monitor refused an event: {e}");
                    out.refused += 1;
                }
            }
        }
    };

    for ev in sched.events() {
        if let Some(wait) = ev.due.checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        book.wrote(ev.due, t0.elapsed());
        let s = ev.session;
        let set = &inputs.sets[s];
        let wrote = trace.span("measure.segment_append_ms", || match ev.kind {
            EventKind::Header => {
                SegmentWriter::create(&paths[s], set).map(|w| writers[s] = Some(w))
            }
            EventKind::Interval(i) => match writers[s].as_mut() {
                Some(w) => w.append_intervals(&set.log, i, i + 1),
                None => Ok(()),
            },
        });
        if let Err(e) = wrote {
            return Err(format!("segment write: {e}"));
        }
        written_at[s] = Some(Instant::now());
        follow(trace, &mut monitor, &mut book, &mut out, &written_at);
    }
    let last = t0.elapsed();
    while book.delivered_count() < sched.expected_updates() && t0.elapsed() < last + GRACE {
        std::thread::sleep(Duration::from_millis(2));
        follow(trace, &mut monitor, &mut book, &mut out, &written_at);
    }
    let end = t0.elapsed();
    trace.record("bench.traced_ms", t0, end);
    out.wall = end;
    out.latencies = Some(book.finish(end));
    out.finals = inputs
        .sets
        .iter()
        .map(|s| {
            monitor
                .verdict(s.key())
                .map(|r| (r.fingerprint(), r.network_is_nonneutral()))
        })
        .collect();
    out.segment_bytes = paths
        .iter()
        .filter_map(|p| fs::metadata(p).ok())
        .map(|m| m.len())
        .sum();
    let _ = fs::remove_dir_all(&dir);
    Ok(out)
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let (inputs, setup_s) = repeated_setup(ctx, setup)?;
    let cfg = InferenceConfig::of(&inputs.scenarios[0]);
    if inputs
        .scenarios
        .iter()
        .any(|s| format!("{:?}", InferenceConfig::of(s)) != format!("{cfg:?}"))
    {
        return Err("live sessions must share one inference configuration".into());
    }

    let mut rounds: Vec<Round> = Vec::new();
    let mut timed = Duration::ZERO;
    while rounds.is_empty() || timed < ctx.seconds {
        ctx.trace.next_round();
        let round = replay(ctx, &inputs, &cfg, rounds.len() + 1)?;
        timed += round.wall;
        let trace = &mut ctx.trace;
        trace.count("measure.tail_polls", round.polls as f64);
        trace.count("measure.tail_corrupt", round.corrupt as f64);
        trace.count("measure.segment_bytes", round.segment_bytes as f64);
        rounds.push(round);
    }

    // Checks, outside the timed region: each session's final streaming
    // verdict against batch inference over the same set.
    ctx.trace.next_round();
    let batch: Vec<(u64, bool)> = inputs
        .sets
        .iter()
        .map(|set| {
            let r = if ctx.trace.enabled() {
                traced_infer(
                    &mut ctx.trace,
                    &set.topology,
                    &set.log,
                    set.provenance.seed,
                    &cfg,
                )
            } else {
                infer(set, &cfg)
            };
            (r.fingerprint(), r.network_is_nonneutral())
        })
        .collect();
    let expected: Vec<bool> = inputs
        .scenarios
        .iter()
        .map(|s| s.expectation.expect_flagged)
        .collect();

    let sched = schedule(inputs.sets[0].log.interval_count());
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut update_ms = Vec::new();
    let mut late_ms = Vec::new();
    let mut waits_ms = Vec::new();
    let mut rates = Vec::new();
    let mut accurate = 0usize;
    let (mut polls, mut useful) = (0usize, 0usize);
    for round in &rounds {
        let lat = round.latencies.as_ref().expect("finished round");
        attempted += (sched.expected_updates() + sched.sessions) as u64;
        let unverified = round
            .finals
            .iter()
            .zip(&batch)
            .filter(|(f, b)| f.map(|f| f.0) != Some(b.0))
            .count();
        failed += (lat.missing + unverified) as u64;
        accurate += round
            .finals
            .iter()
            .zip(&expected)
            .filter(|(f, e)| f.is_some_and(|f| f.1 == **e))
            .count();
        rates.push((sched.expected_updates() - lat.missing) as f64 / round.wall.as_secs_f64());
        update_ms.extend(&lat.update_ms);
        late_ms.extend(&lat.late_ms);
        waits_ms.extend(&round.waits_ms);
        polls += round.polls;
        useful += round.useful_polls;
        if round.refused > 0 {
            eprintln!("isp_live: monitor refused {} events", round.refused);
        }
    }
    let p50 = percentile(&update_ms, 50.0).expect("expected updates");
    let p95 = percentile(&update_ms, 95.0).expect("expected updates");
    let late = percentile(&late_ms, 95.0).expect("scheduled writes");
    let sessions = rounds.len() * sched.sessions;
    eprintln!(
        "isp_live: {} sessions x {} intervals x {} rounds at {:.0} updates/s; update p50 {:.3} ms, p95 {:.3} ms over {} samples; generator late p95 {:.3} ms over {}; {} tail-corrupt sessions",
        sched.sessions,
        sched.intervals,
        rounds.len(),
        sched.rate_per_s(),
        p50.value,
        p95.value,
        p95.samples,
        late.value,
        late.samples,
        rounds.iter().map(|r| r.corrupt).sum::<usize>()
    );
    let extra = vec![
        ("update_ms_p50", p50.value),
        ("update_ms_p95", p95.value),
        ("gen_late_ms_p95", late.value),
        ("failed_frac", failed_frac(failed, attempted)),
    ];
    let derived = vec![
        ("live.wait_ms", median(&waits_ms).unwrap_or(0.0)),
        (
            "measure.tail_useful_frac",
            if polls == 0 {
                0.0
            } else {
                useful as f64 / polls as f64
            },
        ),
        ("bench.rounds", rounds.len() as f64),
    ];
    eprintln!("  per-round verdicts/s: {:.3?}", rates);
    Ok(Measured {
        correct: failed == 0,
        attempted,
        failed,
        setup_s,
        verdicts_per_s: median(&rates).expect("at least one round"),
        verdict_accuracy: accurate as f64 / sessions as f64,
        extra,
        derived,
    })
}
