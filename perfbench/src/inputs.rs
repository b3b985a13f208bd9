//! The workloads' inputs, generated from the run's seed, and the set-up
//! checks that refuse inputs which could not measure anything.

use nni_emu::{policer_at_fraction, CcKind, SimConfig};
use nni_scenario::{
    assert_demand_exceeds_policed_rate, Expectation, MeasurementConfig, Scenario, ScenarioBuilder,
    SweepSet, TrafficProfile,
};
use nni_topogen::{isp_scenario, IspParams};

/// Simulated seconds of each Table 2 experiment in `paper_sweep`
/// (5 s warm-up, then 50 measured intervals).
pub const PAPER_DURATION_S: f64 = 10.0;

/// Jobs `isp_service` submits per batch.
pub const SERVICE_JOBS: usize = 16;
/// Simulated seconds of each `isp_service` job.
pub const SERVICE_DURATION_S: f64 = 3.0;
/// Sessions `isp_live` replays at once.
pub const LIVE_SESSIONS: usize = 4;
/// Simulated seconds of each `isp_live` set (58 measured intervals).
pub const LIVE_DURATION_S: f64 = 6.0;

/// A mixing step (SplitMix64) deriving independent sub-seeds from the run
/// seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The tier a policer sits on in a generated ISP hierarchy, by link-name
/// prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Host → access switch: the last mile, 100 Mb/s.
    Access,
    /// Access switch → aggregation switch, 400 Mb/s.
    Aggregation,
    /// Aggregation switch → core, 1 Gb/s.
    Core,
}

impl Tier {
    fn prefix(self) -> &'static str {
        match self {
            Tier::Access => "host:src",
            Tier::Aggregation => "acc:up",
            Tier::Core => "agg:up",
        }
    }
}

/// A class-2 policer at 20% of one `tier` link's capacity, on top of the
/// neutral web scenario `base`, with the policed link fed by four
/// Pareto-sized CUBIC sources per class (four parallel 8 Mb flows each)
/// so its class-2 demand clears the token rate several times over. `pick`
/// chooses the link among the tier's links.
pub fn policed(base: &Scenario, tier: Tier, pick: u64) -> Scenario {
    let g = &base.topology;
    let links: Vec<_> = g
        .link_ids()
        .filter(|&l| g.link(l).name.starts_with(tier.prefix()))
        .collect();
    let link = links[(pick % links.len() as u64) as usize];
    let (link, mechanism) = policer_at_fraction(g, link, 1, 0.2, 0.01);
    let mut b = ScenarioBuilder::of(base.clone())
        .differentiate(link, mechanism)
        .expect(Expectation::nonneutral(vec![link]));
    let mut fed = [0usize; 2];
    for &p in g.paths_through(link) {
        let class = base.class_of(p).unwrap_or(0).min(1);
        if fed[class] < 4 {
            fed[class] += 1;
            b = b.path_traffic(
                p,
                TrafficProfile::pareto_bits(class as u8, CcKind::Cubic, 8e6, 0.05, 4),
            );
        }
    }
    b.build()
        .expect("a generated scenario plus a policer is valid")
}

/// Generated ISP jobs: `n` scenarios of `duration_s` over two
/// `isp_200link` topologies, alternating between them. Even-numbered
/// jobs per topology carry the neutral web traffic only; odd-numbered ones
/// add a class-2 policer, cycling over access, aggregation and core links.
/// Every job has its own measurement seed.
pub fn isp_jobs(seed: u64, n: usize, duration_s: f64) -> Vec<Scenario> {
    let params = IspParams::isp_200link();
    let bases: Vec<Scenario> = (0..2)
        .map(|t| isp_scenario(&params, duration_s, mix(seed, 100 + t)))
        .collect();
    let tiers = [Tier::Access, Tier::Aggregation, Tier::Core];
    (0..n)
        .map(|k| {
            let base = &bases[k % 2];
            let job = k / 2;
            let scenario = if job % 2 == 0 {
                base.clone()
            } else {
                policed(base, tiers[(job / 2) % 3], mix(seed, 200 + k as u64))
            };
            scenario.with_seed(mix(seed, 300 + k as u64))
        })
        .collect()
}

/// The `paper_sweep` inputs: Table 2's nine sets on topology A.
pub fn paper_sets(seed: u64) -> Vec<SweepSet> {
    nni_bench::expsets::table2_sets(PAPER_DURATION_S, seed)
}

/// Measured intervals a scenario's log will hold: the run's intervals
/// minus the warm-up the emulator drops.
pub fn measured_intervals(m: &MeasurementConfig) -> usize {
    let warmup_s = m.warmup_s.unwrap_or(SimConfig::default().warmup_s);
    let total = (m.duration_s / m.interval_s).round() as usize;
    total.saturating_sub((warmup_s / m.interval_s).round() as usize)
}

/// Refuses an input whose measured log would be empty: a run no longer
/// than its warm-up decides on nothing.
pub fn refuse_empty_log(scenario: &Scenario) -> Result<(), String> {
    if measured_intervals(&scenario.measurement) == 0 {
        return Err(format!(
            "scenario `{}` measures nothing: {} s run, warm-up {:?} s",
            scenario.name, scenario.measurement.duration_s, scenario.measurement.warmup_s
        ));
    }
    Ok(())
}

/// Refuses a generated input that would measure nothing or whose policers
/// would be starved rather than exercised
/// (`assert_demand_exceeds_policed_rate`).
pub fn admit(scenario: &Scenario) -> Result<(), String> {
    refuse_empty_log(scenario)?;
    std::panic::catch_unwind(|| assert_demand_exceeds_policed_rate(scenario)).map_err(|cause| {
        let why = cause
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "policer demand audit failed".into());
        format!("scenario `{}` refused: {why}", scenario.name)
    })
}
