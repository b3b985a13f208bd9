//! The record/replay/re-infer workflow over on-disk measurement corpora —
//! the `MeasurementSet` seam as a command-line tool.
//!
//! ```text
//! exp_corpus record  --dir D [--seeds 1,2] [--take N] [--append]
//! exp_corpus replay  --dir D [--verify]
//! exp_corpus reinfer --dir D [--thresholds 0.02,0.04,0.08]
//! exp_corpus dump    --dir D
//! ```
//!
//! * `record` simulates the scenario library's identity suite (the same 14
//!   scenarios the golden fingerprint tests pin) at each seed and stores
//!   every `MeasurementSet` in the corpus directory (binary codec).
//!   `--take N` records only the first N suite members.
//!   `--append` adds onto an existing corpus — and exits 1 *before
//!   writing anything* if any new set's identity (scenario fingerprint +
//!   seed) is already stored, so a live tail never sees an entry rewrite
//!   itself.
//! * `replay` lists the corpus: provenance, shape, and set fingerprint per
//!   entry — with `--verify`, a checksum/decode failure or a provenance
//!   mismatch exits nonzero (the CI compatibility gate).
//! * `reinfer` runs Algorithm 1/2 over every stored set at each decision
//!   threshold **without any simulation** — measurement acquisition and
//!   inference fully decoupled.
//! * `dump` prints every entry as text: provenance, topology, classes and
//!   one sent/lost row per interval. The text is for reading and grepping
//!   only; nothing parses it back, so it carries no format version.

use nni_bench::Table;
use nni_core::DecisionMode;
use nni_measure::{Corpus, CorpusEntry, MeasurementSet};
use nni_scenario::library::identity_suite;
use nni_scenario::{infer, InferenceConfig, SerialExecutor};

fn usage() -> ! {
    eprintln!(
        "usage: exp_corpus record  --dir D [--seeds 1,2] [--take N] [--append]\n\
                exp_corpus replay  --dir D [--verify]\n\
                exp_corpus reinfer --dir D [--thresholds 0.02,0.04]\n\
                exp_corpus dump    --dir D"
    );
    std::process::exit(2);
}

struct Args {
    dir: Option<String>,
    seeds: Vec<u64>,
    take: Option<usize>,
    append: bool,
    verify: bool,
    thresholds: Vec<f64>,
}

fn parse_args(rest: &[String]) -> Args {
    let mut out = Args {
        dir: None,
        seeds: vec![3, 11],
        take: None,
        append: false,
        verify: false,
        thresholds: vec![0.02, 0.04, 0.08],
    };
    let mut i = 0;
    let value = |i: usize| -> &str {
        rest.get(i + 1).map(String::as_str).unwrap_or_else(|| {
            eprintln!("{} requires a value", rest[i]);
            usage()
        })
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--dir" => {
                out.dir = Some(value(i).to_string());
                i += 2;
            }
            "--seeds" => {
                out.seeds = value(i)
                    .split(',')
                    .map(|s| s.parse().expect("--seeds N,N,..."))
                    .collect();
                i += 2;
            }
            "--take" => {
                out.take = Some(value(i).parse().expect("--take N"));
                i += 2;
            }
            "--thresholds" => {
                out.thresholds = value(i)
                    .split(',')
                    .map(|s| s.parse().expect("--thresholds F,F,..."))
                    .collect();
                i += 2;
            }
            "--append" => {
                out.append = true;
                i += 1;
            }
            "--verify" => {
                out.verify = true;
                i += 1;
            }
            _ => usage(),
        }
    }
    out
}

fn open_corpus(args: &Args) -> Corpus {
    let dir = args.dir.clone().unwrap_or_else(|| usage());
    Corpus::open(dir).expect("corpus directory")
}

fn record(args: &Args) {
    let corpus = open_corpus(args);
    let mut suite = identity_suite();
    if let Some(n) = args.take {
        suite.truncate(n);
    }
    println!(
        "recording {} scenarios × {} seeds into {} ...",
        suite.len(),
        args.seeds.len(),
        corpus.dir().display()
    );
    // One batched acquisition through the executor seam.
    let experiments: Vec<_> = args
        .seeds
        .iter()
        .flat_map(|&seed| suite.iter().map(move |s| s.with_seed(seed).compile()))
        .collect();
    let sets = nni_scenario::Executor::acquire(&SerialExecutor, &experiments);
    if args.append {
        // Collision check before the first write: an append either lands
        // whole or not at all, and an existing identity is never silently
        // rewritten under a live tail.
        let existing: std::collections::HashSet<_> = corpus
            .entries()
            .expect("list corpus")
            .iter()
            .map(CorpusEntry::key)
            .collect();
        for set in &sets {
            if existing.contains(&set.key()) {
                eprintln!(
                    "exp_corpus: refusing to append: corpus already holds {} \
                     ({:?} seed {})",
                    set.key(),
                    set.provenance.scenario,
                    set.provenance.seed
                );
                std::process::exit(1);
            }
        }
    }
    for set in &sets {
        let path = corpus.store(set).expect("store entry");
        println!(
            "  {}  ({} intervals × {} paths, fp {:016x})",
            path.file_name().unwrap_or_default().to_string_lossy(),
            set.log.interval_count(),
            set.log.path_count(),
            set.fingerprint()
        );
    }
    println!("recorded {} sets", sets.len());
}

fn replay(args: &Args) {
    let corpus = open_corpus(args);
    // `entries()` decodes every file's provenance prefix, so a corrupt
    // entry surfaces *here*, not just at acquire time — report it and exit
    // 1 (a codec failure is a verification failure, not a crash).
    let entries = match corpus.entries() {
        Ok(entries) => entries,
        Err(err) => {
            eprintln!("FAILED to list corpus {}: {err}", corpus.dir().display());
            std::process::exit(1);
        }
    };
    let mut t = Table::new(vec![
        "scenario",
        "seed",
        "intervals",
        "paths",
        "set fingerprint",
        "build",
    ]);
    let mut failures = 0usize;
    for e in &entries {
        match e.acquire() {
            Ok(set) => {
                t.row(vec![
                    set.provenance.scenario.clone(),
                    set.provenance.seed.to_string(),
                    set.log.interval_count().to_string(),
                    set.log.path_count().to_string(),
                    format!("{:016x}", set.fingerprint()),
                    set.provenance.build.clone(),
                ]);
            }
            Err(err) => {
                failures += 1;
                eprintln!("FAILED to decode {}: {err}", e.path().display());
            }
        }
    }
    println!(
        "== corpus {} ({} entries) ==",
        corpus.dir().display(),
        entries.len()
    );
    println!("{t}");
    if failures > 0 {
        eprintln!("{failures} entries failed to decode");
        if args.verify {
            std::process::exit(1);
        }
    } else if args.verify {
        println!("verify: all entries decoded, checksums good");
    }
}

/// Every stored set, or exit 1 on the first decode failure.
fn load_sets(args: &Args) -> Vec<MeasurementSet> {
    let corpus = open_corpus(args);
    corpus.load_all().unwrap_or_else(|err| {
        eprintln!("FAILED to load corpus {}: {err}", corpus.dir().display());
        std::process::exit(1);
    })
}

fn reinfer(args: &Args) {
    let sets = load_sets(args);
    println!(
        "== re-inference over {} stored sets (zero simulations) ==\n",
        sets.len()
    );
    let mut t = Table::new(
        std::iter::once("scenario / seed".to_string())
            .chain(args.thresholds.iter().map(|th| format!("thr {th}")))
            .collect::<Vec<_>>(),
    );
    for set in &sets {
        let mut row = vec![format!(
            "{} / {}",
            set.provenance.scenario, set.provenance.seed
        )];
        for &abs_threshold in &args.thresholds {
            let mut cfg = InferenceConfig::default();
            if let DecisionMode::Clustered {
                guard, rel_margin, ..
            } = cfg.algorithm.mode
            {
                cfg.algorithm.mode = DecisionMode::Clustered {
                    guard,
                    abs_threshold,
                    rel_margin,
                };
            }
            let result = infer(set, &cfg);
            row.push(if result.network_is_nonneutral() {
                format!("NON-NEUTRAL ({})", result.nonneutral.len())
            } else {
                "neutral".into()
            });
        }
        t.row(row);
    }
    println!("{t}");
}

/// Space-separated values inside brackets: `[1 2 3]`.
fn row(values: impl Iterator<Item = u64>) -> String {
    let items: Vec<String> = values.map(|v| v.to_string()).collect();
    format!("[{}]", items.join(" "))
}

/// Prints every stored set as text; nothing parses it back.
fn dump(args: &Args) {
    for set in &load_sets(args) {
        let p = &set.provenance;
        println!(
            "== scenario {:?} seed {} build {:?}",
            p.scenario, p.seed, p.build
        );
        let (scenario_fp, set_fp) = (p.scenario_fingerprint, set.fingerprint());
        println!("scenario fingerprint {scenario_fp:016x}  set fingerprint {set_fp:016x}");
        let topo = &set.topology;
        for l in topo.links() {
            println!(
                "link {} {} -> {} {} b/s {} s",
                l.name,
                topo.node(l.src).name,
                topo.node(l.dst).name,
                l.capacity_bps,
                l.delay_s
            );
        }
        for path in topo.paths() {
            let links: Vec<&str> = path.links().iter().map(|&l| &*topo.link(l).name).collect();
            println!("path {} {}", path.name(), links.join(" "));
        }
        for (k, class) in set.classes.iter().enumerate() {
            let names: Vec<&str> = class.iter().map(|&q| topo.path(q).name()).collect();
            println!("class {k} {}", names.join(" "));
        }
        let log = &set.log;
        println!(
            "log {} intervals x {} paths, {} s each, delay {}",
            log.interval_count(),
            log.path_count(),
            log.interval_s(),
            if log.has_delay() { "recorded" } else { "none" }
        );
        for t in 0..log.interval_count() {
            println!(
                "t {t} sent {} lost {}",
                row(topo.path_ids().map(|q| log.sent(t, q))),
                row(topo.path_ids().map(|q| log.lost(t, q)))
            );
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let args = parse_args(&argv[1..]);
    match cmd.as_str() {
        "record" => record(&args),
        "replay" => replay(&args),
        "reinfer" => reinfer(&args),
        "dump" => dump(&args),
        _ => usage(),
    }
}
