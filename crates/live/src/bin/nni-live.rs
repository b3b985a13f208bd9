//! `nni-live`: tail a growing corpus directory — or a remote segment
//! relay — and stream verdict updates as JSONL, re-running inference on
//! every newly closed interval.
//!
//! ```text
//! nni-live <corpus-dir>       [--out PATH] [--poll-ms N] [--window W]
//!          [--idle-exit N] [--verify-batch] [--retry-budget N]
//! nni-live --connect <addr>   [--out PATH] [--poll-ms N] [--window W]
//!          [--idle-exit N] [--verify-batch]
//! ```
//!
//! One JSON line per update, to stdout (or `--out`):
//!
//! ```text
//! {"type":"update","scenario":"…","fingerprint":"…","seed":3,
//!  "interval":17,"vantages":1,"nonneutral":true,"result":"…",
//!  "mode":"incremental","degraded":false}
//! ```
//!
//! `--connect <addr>` follows a daemon's live `.nniseg` traffic over TCP
//! (`nni-serviced --serve-segments`) instead of a local directory — a
//! true remote monitor, with the same resync/degraded semantics, exiting
//! when the server hangs up. `--idle-exit N` stops after `N` consecutive
//! empty polls (the demo / CI mode; without it a directory tail runs
//! until killed). `--verify-batch` re-runs *batch* inference over every
//! session's merged log on exit and exits 1 unless each streaming verdict
//! is bit-identical — the convergence guarantee, checked end to end.
//! Corrupt files are reported on stderr and skipped.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use nni_live::{run_live, LiveConfig, LiveMonitor, RunConfig, TailSource};
use nni_measure::{CorpusTail, RemoteTail};

fn usage() -> ! {
    eprintln!(
        "usage: nni-live <corpus-dir> | --connect <addr> \
         [--out PATH] [--poll-ms N] [--window W] \
         [--idle-exit N] [--verify-batch] [--retry-budget N]"
    );
    exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(v) = value else {
        eprintln!("nni-live: {flag} needs a value");
        usage();
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("nni-live: bad value for {flag}: {v:?}");
        usage();
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut dir: Option<PathBuf> = None;
    let mut connect: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut poll_ms: u64 = 100;
    let mut window: Option<usize> = None;
    let mut idle_exit: Option<u32> = None;
    let mut verify_batch = false;
    let mut retry_budget: Option<u32> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => connect = Some(parse::<String>("--connect", args.next())),
            "--out" => out = Some(parse::<PathBuf>("--out", args.next())),
            "--poll-ms" => poll_ms = parse("--poll-ms", args.next()),
            "--window" => match parse("--window", args.next()) {
                0 => {
                    eprintln!("nni-live: --window must be at least 1");
                    usage();
                }
                w => window = Some(w),
            },
            "--idle-exit" => idle_exit = Some(parse("--idle-exit", args.next())),
            "--verify-batch" => verify_batch = true,
            "--retry-budget" => retry_budget = Some(parse("--retry-budget", args.next())),
            "--help" | "-h" => usage(),
            _ if dir.is_none() && !arg.starts_with('-') => dir = Some(PathBuf::from(arg)),
            _ => {
                eprintln!("nni-live: unexpected argument {arg:?}");
                usage();
            }
        }
    }

    let mut source: Box<dyn TailSource> = match (dir, connect) {
        (Some(dir), None) => {
            let mut tail = match CorpusTail::open(&dir) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("nni-live: cannot tail {}: {e}", dir.display());
                    exit(1);
                }
            };
            if let Some(budget) = retry_budget {
                tail = tail.with_retry_budget(budget);
            }
            Box::new(tail)
        }
        (None, Some(addr)) => {
            if retry_budget.is_some() {
                eprintln!("nni-live: --retry-budget only applies to a directory tail");
                usage();
            }
            match RemoteTail::connect(addr.as_str()) {
                Ok(tail) => Box::new(tail),
                Err(e) => {
                    eprintln!("nni-live: cannot connect to {addr}: {e}");
                    exit(1);
                }
            }
        }
        _ => usage(), // exactly one source
    };

    let mut sink: Box<dyn Write> = match &out {
        Some(path) => match OpenOptions::new().create(true).append(true).open(path) {
            Ok(f) => Box::new(f),
            Err(e) => {
                eprintln!("nni-live: cannot open {}: {e}", path.display());
                exit(1);
            }
        },
        None => Box::new(std::io::stdout()),
    };
    let mut monitor = LiveMonitor::new(LiveConfig {
        window,
        ..LiveConfig::default()
    });

    /// Prefixes every diagnostic line with the program name on stderr.
    struct Diag;
    impl Write for Diag {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            eprint!("nni-live: {}", String::from_utf8_lossy(buf));
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let stats = match run_live(
        source.as_mut(),
        &mut monitor,
        &mut sink,
        &mut Diag,
        &RunConfig {
            poll: Duration::from_millis(poll_ms.max(1)),
            idle_exit,
        },
    ) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("nni-live: {e}");
            exit(1);
        }
    };

    if verify_batch {
        let mismatches = monitor.verify_batch();
        if !mismatches.is_empty() {
            for m in &mismatches {
                eprintln!(
                    "nni-live: verdict for {} diverged from batch: \
                     streaming {:016x} != batch {:016x}",
                    m.key, m.streaming, m.batch
                );
            }
            exit(1);
        }
        eprintln!(
            "nni-live: {} session(s) verified against batch inference",
            monitor.session_count()
        );
    }
    eprintln!(
        "nni-live: done: {} update(s) across {} session(s)",
        stats.emitted,
        monitor.session_count()
    );
}
