//! Tests of the benchmark's own logic: percentiles, open-loop accounting
//! and the result line.

use std::time::Duration;

use perfbench::openloop::{EventKind, Schedule, UpdateBook};
use perfbench::report::{Metric, RunResult};
use perfbench::stats::{median, percentile, Percentile};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

#[test]
fn nearest_rank_percentiles_carry_their_sample_count() {
    let values: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    let at = |p| percentile(&values, p).expect("non-empty");
    assert_eq!(
        at(50.0),
        Percentile {
            value: 5.0,
            samples: 10
        }
    );
    assert_eq!(at(90.0).value, 9.0);
    assert_eq!(at(95.0).value, 10.0, "rank ceil(9.5) = 10");
    assert_eq!(at(100.0).value, 10.0);
    assert_eq!(at(1.0).value, 1.0, "the lowest rank is 1, never 0");
    assert_eq!(
        percentile(&[7.5], 95.0),
        Some(Percentile {
            value: 7.5,
            samples: 1
        })
    );
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn median_never_interpolates() {
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
}

#[test]
fn schedule_staggers_sessions_and_orders_events_by_due_time() {
    let sched = Schedule {
        sessions: 2,
        intervals: 3,
        period: ms(100),
        stagger: ms(25),
    };
    assert_eq!(sched.header_due(1), ms(25));
    assert_eq!(sched.due(0, 0), ms(100));
    assert_eq!(sched.due(1, 2), ms(325));
    assert_eq!(sched.expected_updates(), 6);
    assert_eq!(sched.rate_per_s(), 20.0);
    let events = sched.events();
    assert_eq!(events.len(), 8, "a header plus three intervals per session");
    assert!(events.windows(2).all(|w| w[0].due <= w[1].due));
    assert_eq!(events[0].kind, EventKind::Header);
    assert_eq!(
        (events[2].session, events[2].kind),
        (0, EventKind::Interval(0))
    );
}

#[test]
fn lateness_is_measured_from_the_due_time_and_never_negative() {
    let sched = Schedule {
        sessions: 1,
        intervals: 2,
        period: ms(50),
        stagger: ms(0),
    };
    let mut book = UpdateBook::new(sched);
    book.wrote(ms(50), ms(80));
    book.wrote(ms(100), ms(90));
    let lat = book.finish(ms(200));
    assert_eq!(lat.late_ms, vec![30.0, 0.0]);
}

#[test]
fn updates_are_timed_from_when_their_interval_was_due() {
    let sched = Schedule {
        sessions: 2,
        intervals: 2,
        period: ms(100),
        stagger: ms(10),
    };
    let mut book = UpdateBook::new(sched);
    // Session 1, watermark 2 covers interval 1, due at 10 + 200 ms.
    assert_eq!(book.delivered(1, 2, ms(260)), Some(ms(50)));
    assert_eq!(
        book.delivered(1, 2, ms(300)),
        None,
        "a repeat is not a new update"
    );
    assert_eq!(
        book.delivered(0, 0, ms(300)),
        None,
        "watermark 0 covers nothing"
    );
    assert_eq!(
        book.delivered(0, 3, ms(300)),
        None,
        "beyond the last interval"
    );
    assert_eq!(book.delivered(2, 1, ms(300)), None, "no such session");
    assert_eq!(book.delivered_count(), 1);
}

#[test]
fn refused_or_missing_updates_miss_every_limit() {
    let sched = Schedule {
        sessions: 2,
        intervals: 3,
        period: ms(100),
        stagger: ms(0),
    };
    let mut book = UpdateBook::new(sched);
    // Session 0 delivers two of its three updates; session 1 was refused
    // and delivers none.
    book.delivered(0, 1, ms(120));
    book.delivered(0, 2, ms(230));
    let end = ms(700);
    let lat = book.finish(end);
    assert_eq!(lat.missing, 4);
    assert_eq!(lat.update_ms.len(), 6, "one sample per expected update");
    let delivered_max = 30.0;
    let misses: Vec<f64> = lat
        .update_ms
        .iter()
        .copied()
        .filter(|&v| v > delivered_max)
        .collect();
    assert_eq!(misses, vec![700.0; 4]);
    // With most updates missing, every percentile above the delivered
    // share reads the miss value.
    assert_eq!(
        percentile(&lat.update_ms, 50.0).expect("samples").value,
        700.0
    );
}

#[test]
fn a_fully_refused_run_reads_the_run_length_at_every_percentile() {
    let sched = Schedule {
        sessions: 4,
        intervals: 58,
        period: ms(100),
        stagger: ms(25),
    };
    let lat = UpdateBook::new(sched).finish(ms(6_400));
    assert_eq!(lat.missing, 232);
    let p50 = percentile(&lat.update_ms, 50.0).expect("samples");
    let p95 = percentile(&lat.update_ms, 95.0).expect("samples");
    assert_eq!((p50.value, p95.value, p95.samples), (6_400.0, 6_400.0, 232));
}

#[test]
fn the_result_line_round_trips() {
    let result = RunResult {
        correct: false,
        attempted: 472,
        failed: 3,
        metrics: vec![
            Metric {
                name: "setup_s".into(),
                value: 0.000_350_256,
                unit: "s".into(),
            },
            Metric {
                name: "verdicts_per_s".into(),
                value: 12.389_156_914_107_877,
                unit: "1/s".into(),
            },
            Metric {
                name: "emu.wire_bytes".into(),
                value: 1_603_827.0,
                unit: "bytes".into(),
            },
        ],
    };
    let line = result.to_json();
    assert!(!line.contains('\n'));
    assert_eq!(RunResult::parse(&line), Ok(result.clone()));
    let spaced = line.replace(',', " ,\n ").replace(':', " : ");
    assert_eq!(RunResult::parse(&spaced), Ok(result));
}

#[test]
fn the_parser_rejects_incomplete_results() {
    assert!(RunResult::parse(r#"{"correct":true,"attempted":1,"failed":0}"#).is_err());
    assert!(
        RunResult::parse(r#"{"correct":true,"attempted":1.5,"failed":0,"metrics":{}}"#).is_err()
    );
    assert!(RunResult::parse(
        r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"x":{"value":1}}}"#
    )
    .is_err());
    assert!(
        RunResult::parse(r#"{"correct":true,"attempted":1,"failed":0,"metrics":{}} x"#).is_err()
    );
}

#[test]
fn benchmark_json_names_every_metric_the_command_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names = perfbench::workloads::END_TO_END
        .iter()
        .chain(&perfbench::workloads::PER_LAYER)
        .map(|(name, _)| name);
    for name in names {
        let entry = format!("\"name\": \"{name}\"");
        assert_eq!(json.matches(&entry).count(), 1, "{name} listed once");
    }
    assert_eq!(
        json.matches("\"name\":").count(),
        2 + 4 + 42,
        "two workloads, no other metrics"
    );
}
