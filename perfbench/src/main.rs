//! `perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]`
//!
//! Builds the workload's inputs from the seed, measures for the given
//! seconds, checks the outputs, and prints one JSON result line last on
//! stdout (progress and check details go to stderr). With `--trace 1` the
//! metrics are the per-layer ones from a span-instrumented run.
//!
//! With `PERFBENCH_ROLE=worker` in its environment the binary serves
//! worker-pool jobs on stdin/stdout instead, as `nni-worker` does.

use std::io::{stdin, stdout, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::report::RunResult;
use perfbench::trace::Trace;
use perfbench::workloads::{self, metrics, Ctx, ROLE_ENV};

const USAGE: &str =
    "usage: perfbench --workload paper_sweep|isp_service|isp_live --seed <n> [--seconds <s>] [--trace 0|1]";

fn serve_worker() -> ExitCode {
    let mut input = BufReader::new(stdin().lock());
    let mut output = BufWriter::new(stdout().lock());
    match nni_service::serve(&mut input, &mut output).and_then(|_| Ok(output.flush()?)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    if std::env::var_os(ROLE_ENV).is_some_and(|r| r == "worker") {
        return serve_worker();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&mut Ctx) -> Result<workloads::Measured, String> = match args.workload.as_str() {
        "paper_sweep" => workloads::paper_sweep::run,
        "isp_service" => workloads::isp_service::run,
        "isp_live" => workloads::isp_live::run,
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        trace: Trace::new(args.trace),
        work: work_root.join(format!("{}-{}", args.workload, std::process::id())),
        worker_bin: match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("perfbench: cannot locate own binary: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let measured = run(&mut ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let measured = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if ctx.trace.enabled() {
        let spans = work_root.join(format!("{}-seed{}.spans", args.workload, args.seed));
        let written = std::fs::create_dir_all(&work_root)
            .and_then(|()| std::fs::write(&spans, ctx.trace.dump()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", spans.display());
        }
    }
    let result = RunResult {
        correct: measured.correct,
        attempted: measured.attempted,
        failed: measured.failed,
        metrics: metrics(&measured, &ctx.trace),
    };
    for m in &result.metrics {
        eprintln!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
