//! Records the repo's perf trajectory: runs the emulator- and
//! executor-dominated workloads (the same ones `bench_emulator` /
//! `bench_executor` measure) and appends one JSON entry with per-bench
//! mean/median/p95 to `BENCH_emulator.json`.
//!
//! The committed file carries one entry per milestone commit, so `git log
//! -p BENCH_emulator.json` *is* the performance history; CI additionally
//! runs `--smoke` on every push and uploads the result as an artifact.
//!
//! ```text
//! perf_record [--smoke] [--label <name>] [--out <path>] [--fresh]
//!             [--check] [--baseline <path>]
//!   --smoke     few iterations per bench (CI-friendly, minutes -> seconds)
//!   --label     entry label (default "local")
//!   --out       trajectory file (default BENCH_emulator.json)
//!   --fresh     start a new file instead of appending
//!   --check     exit 1 if any bench's median regresses more than 2x
//!               against the latest entry in the baseline file
//!   --baseline  file --check compares against (default BENCH_emulator.json)
//! ```

use nni_bench::{run_topology_a, table2_sets, ExperimentParams, Mechanism};
use nni_emu::{
    link_params, measured_routes, CcKind, RouteId, SimConfig, Simulator, SizeDist, TrafficSpec,
};
use nni_measure::json_escape;
use nni_scenario::{
    default_worker_bin, reinfer_sets, Executor, MeasurementCache, ProcessExecutor, SerialExecutor,
    StreamingInference, SweepSet,
};
use nni_topology::library::topology_a;
use std::time::{Duration, Instant};

/// Medians must stay within this factor of the baseline under `--check`.
const REGRESSION_FACTOR: f64 = 2.0;

struct BenchResult {
    name: &'static str,
    mean: Duration,
    median: Duration,
    p95: Duration,
    iters: usize,
}

/// Times `iters + 1` runs of `f`, discards the first as warm-up, and
/// reports nearest-rank order statistics over the rest (mirroring the
/// criterion shim's rejection policy at the whole-run granularity).
fn measure<T>(name: &'static str, iters: usize, mut f: impl FnMut() -> T) -> BenchResult {
    let mut samples = Vec::with_capacity(iters + 1);
    for _ in 0..iters + 1 {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed());
    }
    samples.remove(0); // warm-up
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    samples.sort_unstable();
    let rank =
        |q: f64| samples[((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1];
    BenchResult {
        name,
        mean,
        median: rank(0.50),
        p95: rank(0.95),
        iters: samples.len(),
    }
}

fn emulator_workload() -> u64 {
    // One simulated second of a loaded dumbbell (bench_emulator's
    // `emulator/topology_a_1s`).
    let paper = topology_a(0.05, 0.05);
    let g = &paper.topology;
    let cfg = SimConfig {
        duration_s: 1.0,
        warmup_s: 0.0,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(link_params(g, &[]), measured_routes(g), 4, 2, cfg);
    for p in 0..4u32 {
        sim.add_traffic(TrafficSpec {
            route: RouteId(p),
            class: (p >= 2) as u8,
            cc: CcKind::Cubic.into(),
            size: SizeDist::Fixed { bytes: 100_000_000 },
            mean_gap_s: 10.0,
            parallel: 4,
        });
    }
    sim.run().segments_sent
}

/// Three simulated seconds of light web traffic over the generated
/// `isp_200link` hierarchy (240 links, 1056 measured paths): the
/// acquisition half only — simulate + fold into a measurement set — so
/// the number tracks the emulator's scaling with topology size.
fn topogen_workload(scenario: &nni_scenario::Scenario) -> usize {
    scenario.compile().simulate().log.interval_count()
}

fn fig8_workload() -> bool {
    run_topology_a(ExperimentParams {
        mechanism: Mechanism::Policing(0.2),
        duration_s: 10.0,
        ..ExperimentParams::default()
    })
    .flagged_nonneutral
}

fn sweep_workload(experiments: &[nni_scenario::Experiment]) -> usize {
    SerialExecutor.execute(experiments).len()
}

/// The re-inference sweep: 5 distinct scenarios × 10 decision thresholds
/// through the measurement-set seam (5 simulations + 50 inferences per
/// iteration; a fresh cache each time, so the measurement captures the full
/// acquire-then-fan-out cost).
fn reinfer_sets_for_workload() -> Vec<SweepSet> {
    let thresholds = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.10, 0.15, 0.20];
    let mk = |mechanism, seed| {
        nni_scenario::library::topology_a_scenario(ExperimentParams {
            mechanism,
            duration_s: 3.0,
            seed,
            ..ExperimentParams::default()
        })
    };
    [
        mk(Mechanism::Neutral, 1),
        mk(Mechanism::Policing(0.2), 1),
        mk(Mechanism::Policing(0.3), 2),
        mk(Mechanism::Shaping(0.3), 1),
        mk(Mechanism::Neutral, 2),
    ]
    .iter()
    .enumerate()
    .map(|(i, b)| SweepSet::decision_thresholds(format!("thr/{i}"), b, &thresholds))
    .collect()
}

fn reinfer_workload(sets: &[SweepSet]) -> usize {
    let cache = MeasurementCache::new();
    reinfer_sets(sets, &SerialExecutor, &cache).len()
}

/// The measurement the streaming workload folds: a 60-interval policing
/// run (simulated once, outside the timed region).
fn live_set_for_workload() -> nni_scenario::MeasurementSet {
    let mut s = nni_scenario::library::topology_a_scenario(ExperimentParams {
        mechanism: Mechanism::Policing(0.2),
        duration_s: 7.0,
        ..ExperimentParams::default()
    });
    s.measurement.warmup_s = Some(1.0);
    s.compile().simulate()
}

/// The `nni-live` hot path: fold the 60 intervals one at a time into a
/// [`StreamingInference`], re-deriving the verdict per closed interval
/// (incremental Algorithm 2 counters + the cheap decision half — never a
/// full recompute).
fn live_workload(set: &nni_scenario::MeasurementSet) -> u64 {
    let cfg = nni_scenario::InferenceConfig::default();
    let mut live = StreamingInference::new(&set.topology, set.provenance.seed, &cfg);
    let mut acc = 0u64;
    for t in 1..=set.log.interval_count() {
        live.advance(&set.log, t);
        acc ^= live.verdict().fingerprint();
    }
    acc
}

/// Escapes a string for embedding in a JSON string literal.
fn json_entry(label: &str, mode: &str, results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str("  {\n");
    out.push_str(&format!("    \"label\": \"{}\",\n", json_escape(label)));
    out.push_str(&format!("    \"mode\": \"{mode}\",\n"));
    out.push_str("    \"benches\": {\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        out.push_str(&format!(
            "      \"{}\": {{\"mean_ns\": {}, \"median_ns\": {}, \"p95_ns\": {}, \"iters\": {}}}{comma}\n",
            r.name,
            r.mean.as_nanos(),
            r.median.as_nanos(),
            r.p95.as_nanos(),
            r.iters
        ));
    }
    out.push_str("    }\n  }");
    out
}

/// Latest recorded median per bench name in a perf-trajectory file, by
/// line scan — the file format is exactly what [`json_entry`] emits (one
/// `"name": {... "median_ns": N ...}` line per bench), so no JSON parser
/// is needed. Later entries overwrite earlier ones: the comparison is
/// always against the file's most recent entry carrying that bench.
fn baseline_medians(text: &str) -> Vec<(String, u128)> {
    let mut medians: Vec<(String, u128)> = Vec::new();
    for line in text.lines() {
        let line = line.trim_start();
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((name, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(rest) = rest.split_once("\"median_ns\": ").map(|(_, r)| r) else {
            continue;
        };
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        let Ok(median) = digits.parse::<u128>() else {
            continue;
        };
        match medians.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = median,
            None => medians.push((name.to_string(), median)),
        }
    }
    medians
}

/// The `--check` gate: every measured median must be within
/// [`REGRESSION_FACTOR`] of the baseline's latest median for the same
/// bench. Benches absent from the baseline (e.g. newly added workloads)
/// are reported but cannot fail the gate.
fn check_regressions(results: &[BenchResult], baseline_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = baseline_medians(&text);
    if baseline.is_empty() {
        return Err(format!("baseline {baseline_path} has no bench entries"));
    }
    let mut regressions = Vec::new();
    for r in results {
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == r.name) else {
            eprintln!(
                "  check: {:<35} no baseline entry (new bench, skipped)",
                r.name
            );
            continue;
        };
        let ratio = r.median.as_nanos() as f64 / *base as f64;
        eprintln!(
            "  check: {:<35} median {:>10.3?} vs baseline {:>10.3?}  ({ratio:.2}x)",
            r.name,
            r.median,
            Duration::from_nanos(*base as u64)
        );
        if ratio > REGRESSION_FACTOR {
            regressions.push(format!(
                "{}: median {:?} is {ratio:.2}x the baseline {:?} (limit {REGRESSION_FACTOR}x)",
                r.name,
                r.median,
                Duration::from_nanos(*base as u64)
            ));
        }
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(regressions.join("\n"))
    }
}

/// Appends `entry` to the JSON array in `path` (creating the file if
/// needed). The file format is exactly what this function emits, so the
/// textual append is safe.
fn append_entry(path: &str, entry: &str, fresh: bool) -> std::io::Result<()> {
    let existing = if fresh {
        None
    } else {
        std::fs::read_to_string(path).ok()
    };
    let content = match existing {
        Some(text) => {
            let trimmed = text.trim_end();
            let Some(body) = trimmed.strip_suffix(']') else {
                return Err(std::io::Error::other(format!(
                    "{path} is not a JSON array; use --fresh to overwrite"
                )));
            };
            format!("{},\n{entry}\n]\n", body.trim_end())
        }
        None => format!("[\n{entry}\n]\n"),
    };
    std::fs::write(path, content)
}

fn main() {
    let mut smoke = false;
    let mut fresh = false;
    let mut check = false;
    let mut label = String::from("local");
    let mut out = String::from("BENCH_emulator.json");
    let mut baseline = String::from("BENCH_emulator.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--fresh" => fresh = true,
            "--check" => check = true,
            "--label" => label = args.next().expect("--label needs a value"),
            "--out" => out = args.next().expect("--out needs a value"),
            "--baseline" => baseline = args.next().expect("--baseline needs a value"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: perf_record [--smoke] [--label <name>] [--out <path>] \
                     [--fresh] [--check] [--baseline <path>]"
                );
                std::process::exit(2);
            }
        }
    }
    let mode = if smoke { "smoke" } else { "full" };
    let (emu_iters, fig8_iters, sweep_iters, reinfer_iters, live_iters) = if smoke {
        (5, 3, 2, 3, 5)
    } else {
        (20, 10, 8, 10, 20)
    };

    eprintln!("perf_record: measuring ({mode} mode) ...");
    let sweep: Vec<_> = table2_sets(3.0, 42)
        .iter()
        .flat_map(|s| s.compile())
        .collect();
    let reinfer = reinfer_sets_for_workload();
    let live_set = live_set_for_workload();

    let topogen_scenario =
        nni_topogen::isp_scenario(&nni_topogen::IspParams::isp_200link(), 3.0, 42);

    let mut results = vec![
        measure("emulator/topology_a_1s", emu_iters, emulator_workload),
        measure("topogen/isp_200link_3s", emu_iters, || {
            topogen_workload(&topogen_scenario)
        }),
        measure("experiment/fig8_policing_10s", fig8_iters, fig8_workload),
        measure("executor/table2_sweep_3s_serial", sweep_iters, || {
            sweep_workload(&sweep)
        }),
        measure("reinfer/threshold_sweep_5x10_3s", reinfer_iters, || {
            reinfer_workload(&reinfer)
        }),
        measure("live/incremental_recluster", live_iters, || {
            live_workload(&live_set)
        }),
    ];
    // The process-pool variant of the table-2 sweep needs the nni-worker
    // binary next to this one (build nni-service first); skip loudly — not
    // silently — when it is absent so a partial record is visible.
    let worker = default_worker_bin();
    if worker.exists() {
        let pool = ProcessExecutor::new(2).with_worker_bin(&worker);
        results.push(measure("process/table2_sweep_3s", sweep_iters, || {
            pool.execute(&sweep).len()
        }));
    } else {
        eprintln!(
            "perf_record: skipping process/table2_sweep_3s \
             (worker binary {} not found; build nni-service first)",
            worker.display()
        );
    }
    for r in &results {
        eprintln!(
            "  {:<35} mean {:>10.3?}  median {:>10.3?}  p95 {:>10.3?} ({} iters)",
            r.name, r.mean, r.median, r.p95, r.iters
        );
    }
    if check {
        eprintln!("perf_record: checking medians against {baseline} ...");
        if let Err(e) = check_regressions(&results, &baseline) {
            eprintln!("perf_record: REGRESSION\n{e}");
            std::process::exit(1);
        }
        eprintln!("perf_record: no median regressed beyond {REGRESSION_FACTOR}x");
    }
    let entry = json_entry(&label, mode, &results);
    if let Err(e) = append_entry(&out, &entry, fresh) {
        eprintln!("perf_record: cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("perf_record: appended entry \"{label}\" to {out}");
}
