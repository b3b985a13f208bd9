//! Sweeps as first-class sets: a [`SweepSet`] names one experiment family
//! (a Table 2 set, a policer-rate sweep, a CC-fleet comparison, a seed
//! fan-out) and compiles into a batch of [`Experiment`]s that any
//! [`Executor`] runs with one call.
//!
//! A sweep is a base scenario crossed with one *axis* — the parameter the
//! set varies. The constructors here cover the axes the evaluation sweeps:
//! differentiation placement/rate/burst ([`SweepSet::over_policer_rates`],
//! [`SweepSet::over_mechanisms`]), traffic CC fleets
//! ([`SweepSet::over_cc_fleets`]), and seeds ([`SweepSet::over_seeds`]);
//! [`SweepSet::from_points`] admits arbitrary pre-built members (how
//! `nni-bench` expresses Table 2's nine sets).
//!
//! ```
//! use nni_scenario::library::{topology_a_scenario, ExperimentParams, Mechanism};
//! use nni_scenario::{SweepSet, SerialExecutor};
//!
//! let base = topology_a_scenario(ExperimentParams {
//!     mechanism: Mechanism::Policing(0.2),
//!     duration_s: 4.0,
//!     ..ExperimentParams::default()
//! });
//! // Three policing rates on the same link, run as one batch.
//! let link = base.differentiation[0].0;
//! let set = SweepSet::over_policer_rates("rates", &base, link, 1, 0.01, &[0.2, 0.3, 0.4]);
//! assert_eq!(set.len(), 3);
//! let outcomes = set.run(&SerialExecutor);
//! assert_eq!(outcomes.len(), 3);
//! assert_eq!(outcomes[0].tick, "20%");
//! ```

use nni_core::PlanCache;
use nni_emu::{policer_at_fraction, CcFleet, ClassLabel, Differentiation};
use nni_measure::MeasurementCache;
use nni_topology::LinkId;

use crate::executor::Executor;
use crate::experiment::{Experiment, ExperimentOutcome};
use crate::infer::{infer_scored_parts, InferenceConfig, InferenceOutcome};
use crate::spec::Scenario;

/// One member of a sweep: the x-axis tick label and its scenario.
#[derive(Debug, Clone)]
pub struct SweepMember {
    /// Tick label on the swept axis (e.g. `"20%"`, `"seed 7"`).
    pub tick: String,
    /// The member's full scenario.
    pub scenario: Scenario,
}

/// One member's result, keeping its tick label attached.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The member's tick label.
    pub tick: String,
    /// The member's experiment outcome.
    pub outcome: ExperimentOutcome,
}

/// One member's re-inference result ([`SweepSet::run_reinfer`]): the tick
/// label plus the inference half of the outcome (no raw simulation report —
/// the member may not have simulated at all).
#[derive(Debug, Clone, PartialEq)]
pub struct ReinferOutcome {
    /// The member's tick label.
    pub tick: String,
    /// The member's inference outcome over the (possibly cached) set.
    pub outcome: InferenceOutcome,
}

/// A named family of experiments varying along one axis.
#[derive(Debug, Clone)]
pub struct SweepSet {
    /// Set name (report headers).
    pub name: String,
    /// Human-readable axis label (the x-axis of the matching figure panel).
    pub axis: String,
    members: Vec<SweepMember>,
}

impl SweepSet {
    /// An empty set; add members with [`push`](SweepSet::push).
    pub fn new(name: impl Into<String>, axis: impl Into<String>) -> SweepSet {
        SweepSet {
            name: name.into(),
            axis: axis.into(),
            members: Vec::new(),
        }
    }

    /// A set from pre-built `(tick, scenario)` points.
    pub fn from_points(
        name: impl Into<String>,
        axis: impl Into<String>,
        points: impl IntoIterator<Item = (String, Scenario)>,
    ) -> SweepSet {
        let mut set = SweepSet::new(name, axis);
        for (tick, scenario) in points {
            set = set.push(tick, scenario);
        }
        set
    }

    /// Appends one member.
    pub fn push(mut self, tick: impl Into<String>, scenario: Scenario) -> SweepSet {
        self.members.push(SweepMember {
            tick: tick.into(),
            scenario,
        });
        self
    }

    /// **Seed axis**: the base scenario at each seed.
    pub fn over_seeds(name: impl Into<String>, base: &Scenario, seeds: &[u64]) -> SweepSet {
        SweepSet::from_points(
            name,
            "seed",
            seeds
                .iter()
                .map(|&seed| (format!("seed {seed}"), base.with_seed(seed))),
        )
    }

    /// **Differentiation-rate axis**: replaces whatever mechanism the base
    /// carries on `link` with a policer on `class` at each fraction of the
    /// link's capacity (burst `burst_s` seconds at the token rate). Ground
    /// truth is re-derived per member: non-neutral on the swept link *and*
    /// on every other mechanised link the base still carries.
    ///
    /// # Panics
    ///
    /// Panics when an edited member fails scenario validation (e.g. a zero
    /// fraction produces a zero-rate policer).
    pub fn over_policer_rates(
        name: impl Into<String>,
        base: &Scenario,
        link: LinkId,
        class: ClassLabel,
        burst_s: f64,
        fractions: &[f64],
    ) -> SweepSet {
        SweepSet::from_points(
            name,
            "policing rate [% of capacity]",
            fractions.iter().map(|&f| {
                let mech = policer_at_fraction(&base.topology, link, class, f, burst_s);
                let mut s = base.clone();
                s.differentiation.retain(|&(l, _)| l != link);
                s.differentiation.push(mech);
                s.expectation =
                    crate::spec::Expectation::nonneutral(mechanised_links(&s.differentiation));
                (
                    format!("{:.0}%", f * 100.0),
                    revalidated(s, "over_policer_rates"),
                )
            }),
        )
    }

    /// **Differentiation-placement axis**: the base scenario with each
    /// `(tick, placements)` alternative installed wholesale (replacing the
    /// base's differentiation). The expectation is derived from the
    /// placements: non-neutral on exactly the mechanised links.
    ///
    /// # Panics
    ///
    /// Panics when a placement alternative fails scenario validation
    /// (zero-rate policer, overlapping lanes, duplicate or unknown links).
    pub fn over_mechanisms(
        name: impl Into<String>,
        base: &Scenario,
        alternatives: impl IntoIterator<Item = (String, Vec<(LinkId, Differentiation)>)>,
    ) -> SweepSet {
        SweepSet::from_points(
            name,
            "differentiation placement",
            alternatives.into_iter().map(|(tick, placements)| {
                let mut s = base.clone();
                s.expectation = crate::spec::Expectation::nonneutral(mechanised_links(&placements));
                s.differentiation = placements;
                (tick, revalidated(s, "over_mechanisms"))
            }),
        )
    }

    /// **CC-fleet axis**: the base scenario with every measured-path
    /// profile's fleet replaced by each `(tick, fleet)` alternative —
    /// how a "CUBIC-only vs 3:1 CUBIC/NewReno" comparison is expressed.
    ///
    /// # Panics
    ///
    /// Panics when a fleet alternative fails scenario validation (an empty
    /// fleet).
    pub fn over_cc_fleets(
        name: impl Into<String>,
        base: &Scenario,
        fleets: impl IntoIterator<Item = (String, CcFleet)>,
    ) -> SweepSet {
        SweepSet::from_points(
            name,
            "congestion-control fleet",
            fleets.into_iter().map(|(tick, fleet)| {
                let mut s = base.clone();
                for (_, profile) in &mut s.path_traffic {
                    profile.cc = fleet.clone();
                }
                (tick, revalidated(s, "over_cc_fleets"))
            }),
        )
    }

    /// **Decision-threshold axis** (inference-side): the base scenario with
    /// Algorithm 1's clustered-mode `abs_threshold` set to each value. The
    /// measurement axes are untouched, so every member shares one
    /// measurement fingerprint — [`SweepSet::run_reinfer`] simulates the
    /// base exactly once and fans the thresholds out over the cached
    /// [`MeasurementSet`](nni_measure::MeasurementSet).
    ///
    /// A base in exact mode adopts the clustered defaults for the swept
    /// parameters (the threshold axis only exists in clustered mode).
    pub fn decision_thresholds(
        name: impl Into<String>,
        base: &Scenario,
        thresholds: &[f64],
    ) -> SweepSet {
        use nni_core::DecisionMode;
        let (guard, rel_margin) = match base.inference.mode {
            DecisionMode::Clustered {
                guard, rel_margin, ..
            } => (guard, rel_margin),
            DecisionMode::Exact { .. } => {
                let defaults = nni_core::Config::clustered();
                match defaults.mode {
                    DecisionMode::Clustered {
                        guard, rel_margin, ..
                    } => (guard, rel_margin),
                    DecisionMode::Exact { .. } => unreachable!("clustered() is clustered"),
                }
            }
        };
        SweepSet::from_points(
            name,
            "decision threshold",
            thresholds.iter().map(|&abs_threshold| {
                let mut s = base.clone();
                s.inference.mode = DecisionMode::Clustered {
                    guard,
                    abs_threshold,
                    rel_margin,
                };
                (format!("{abs_threshold}"), s)
            }),
        )
    }

    /// **Clustering-config axis** (inference-side): the base scenario with
    /// each complete Algorithm 1 [`Config`](nni_core::Config) installed
    /// wholesale. Like [`SweepSet::decision_thresholds`], members share the
    /// base's measurements — run through [`SweepSet::run_reinfer`], the set
    /// costs one simulation regardless of how many configs it compares.
    pub fn cluster_configs(
        name: impl Into<String>,
        base: &Scenario,
        configs: impl IntoIterator<Item = (String, nni_core::Config)>,
    ) -> SweepSet {
        SweepSet::from_points(
            name,
            "inference config",
            configs.into_iter().map(|(tick, cfg)| {
                let mut s = base.clone();
                s.inference = cfg;
                (tick, s)
            }),
        )
    }

    /// Runs the set through the measurement-set seam: simulate each
    /// *distinct* `(measurement fingerprint, seed)` exactly once — missing
    /// sets are acquired through the executor in one parallel batch, hits
    /// come from `cache` — then fan member inference configs out over the
    /// cached sets serially (inference is orders of magnitude cheaper than
    /// emulation).
    ///
    /// For an inference-axis set of N members over one base this turns
    /// O(members) simulations into O(1); for a mixed set it degenerates
    /// gracefully to one simulation per distinct member. Results are
    /// bit-identical to [`SweepSet::run`]'s inference outputs, member for
    /// member (the identity the re-inference test suite gates).
    pub fn run_reinfer(
        &self,
        executor: &dyn Executor,
        cache: &MeasurementCache,
    ) -> Vec<ReinferOutcome> {
        reinfer_sets(std::slice::from_ref(self), executor, cache)
            .pop()
            .expect("one result slice per set")
    }

    /// The members, in sweep order.
    pub fn members(&self) -> &[SweepMember] {
        &self.members
    }

    /// The member scenarios, in sweep order.
    pub fn scenarios(&self) -> impl Iterator<Item = &Scenario> {
        self.members.iter().map(|m| &m.scenario)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Compiles every member, in sweep order.
    pub fn compile(&self) -> Vec<Experiment> {
        self.members.iter().map(|m| m.scenario.compile()).collect()
    }

    /// Runs the whole set through an executor with one batched call;
    /// results keep their tick labels, in sweep order.
    pub fn run(&self, executor: &dyn Executor) -> Vec<SweepOutcome> {
        let outcomes = executor.execute(&self.compile());
        self.members
            .iter()
            .zip(outcomes)
            .map(|(m, outcome)| SweepOutcome {
                tick: m.tick.clone(),
                outcome,
            })
            .collect()
    }
}

/// The links carrying an actual mechanism (`Differentiation::None` entries
/// excluded) — the ground truth an axis constructor derives per member.
fn mechanised_links(placements: &[(LinkId, Differentiation)]) -> Vec<LinkId> {
    placements
        .iter()
        .filter(|(_, d)| !matches!(d, Differentiation::None))
        .map(|&(l, _)| l)
        .collect()
}

/// Re-validates a member an axis constructor edited: the typed checks of
/// [`ScenarioBuilder::build`](crate::ScenarioBuilder::build) also guard
/// sweep-generated scenarios, so invalid caller input panics here with the
/// precise [`ScenarioError`](crate::ScenarioError) instead of reaching the
/// simulator.
fn revalidated(s: Scenario, axis: &str) -> Scenario {
    let name = s.name.clone();
    crate::spec::ScenarioBuilder::of(s)
        .build()
        .unwrap_or_else(|e| panic!("SweepSet::{axis}: member `{name}` is invalid: {e}"))
}

/// Runs several sets through the measurement-set seam as **one** batch:
/// every distinct `(measurement fingerprint, seed)` across *all* sets is
/// simulated at most once — cache misses are acquired in a single
/// [`Executor::acquire`] call, so workers drain the whole flattened
/// distinct-measurement list — then member inference configs fan out over
/// the cached sets, re-sliced per set in input order.
///
/// The batched twin of [`SweepSet::run_reinfer`], exactly as [`run_sets`]
/// is the batched twin of [`SweepSet::run`].
pub fn reinfer_sets(
    sets: &[SweepSet],
    executor: &dyn Executor,
    cache: &MeasurementCache,
) -> Vec<Vec<ReinferOutcome>> {
    let experiments: Vec<Vec<Experiment>> = sets.iter().map(SweepSet::compile).collect();
    // The experiments whose keys the cache lacks, one per distinct key, in
    // first-occurrence order across the whole batch.
    let mut missing: Vec<Experiment> = Vec::new();
    for e in experiments.iter().flatten() {
        if cache.get(e.key()).is_none() && missing.iter().all(|m| m.key() != e.key()) {
            missing.push(e.clone());
        }
    }
    for set in executor.acquire(&missing) {
        cache.insert(set.key(), std::sync::Arc::new(set));
    }
    let plans = PlanCache::new();
    sets.iter()
        .zip(&experiments)
        .map(|(set, exps)| {
            set.members
                .iter()
                .zip(exps)
                .map(|(m, e)| {
                    let data = cache.get(e.key()).expect("acquired above");
                    ReinferOutcome {
                        tick: m.tick.clone(),
                        outcome: infer_scored_parts(
                            &data.topology,
                            &data.log,
                            data.provenance.seed,
                            &InferenceConfig::of(&m.scenario),
                            &m.scenario.expectation,
                            &plans,
                        ),
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs several sets as **one** executor batch (so workers drain the whole
/// flattened work list — a few slow members of one set cannot strand the
/// others) and re-slices the outcomes per set, in input order.
pub fn run_sets(sets: &[SweepSet], executor: &dyn Executor) -> Vec<Vec<SweepOutcome>> {
    let experiments: Vec<Experiment> = sets.iter().flat_map(|s| s.compile()).collect();
    let mut outcomes = executor.execute(&experiments).into_iter();
    sets.iter()
        .map(|set| {
            set.members
                .iter()
                .map(|m| SweepOutcome {
                    tick: m.tick.clone(),
                    outcome: outcomes.next().expect("one outcome per experiment"),
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SerialExecutor;
    use crate::library::{topology_a_scenario, ExperimentParams, Mechanism};
    use nni_emu::CcKind;

    fn base() -> Scenario {
        topology_a_scenario(ExperimentParams {
            mechanism: Mechanism::Policing(0.2),
            duration_s: 3.0,
            ..ExperimentParams::default()
        })
    }

    #[test]
    fn seed_axis_fans_out_and_keeps_everything_else() {
        let set = SweepSet::over_seeds("seeds", &base(), &[1, 2, 3]);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        for (m, seed) in set.members().iter().zip([1u64, 2, 3]) {
            assert_eq!(m.scenario.measurement.seed, seed);
            assert_eq!(m.scenario.differentiation.len(), 1);
        }
    }

    #[test]
    fn policer_rate_axis_replaces_the_mechanism() {
        let b = base();
        let link = b.differentiation[0].0;
        let set = SweepSet::over_policer_rates("rates", &b, link, 1, 0.01, &[0.5, 0.2]);
        assert_eq!(set.len(), 2);
        let rates: Vec<f64> = set
            .scenarios()
            .map(|s| {
                assert_eq!(s.differentiation.len(), 1, "one mechanism per member");
                match s.differentiation[0].1 {
                    Differentiation::Policing { rate_bps, .. } => rate_bps,
                    _ => panic!("expected a policer"),
                }
            })
            .collect();
        assert!(rates[0] > rates[1], "50% then 20% of capacity");
        assert_eq!(set.members()[0].tick, "50%");
    }

    #[test]
    fn mechanism_axis_installs_placements_and_derives_ground_truth() {
        let b = base();
        let g = &b.topology;
        let l5 = g.link_by_name("l5").unwrap();
        let l1 = g.link_by_name("l1").unwrap();
        let policer = |l| nni_emu::policer_at_fraction(g, l, 1, 0.2, 0.01);
        let set = SweepSet::over_mechanisms(
            "placements",
            &b,
            [
                ("none".to_string(), vec![]),
                ("l5".to_string(), vec![policer(l5)]),
                ("l1+l5".to_string(), vec![policer(l1), policer(l5)]),
                // An explicit None placement is not ground truth.
                (
                    "noop".to_string(),
                    vec![(l5, Differentiation::None), policer(l1)],
                ),
            ],
        );
        let truth: Vec<Vec<_>> = set
            .scenarios()
            .map(|s| s.expectation.nonneutral_links.clone())
            .collect();
        assert_eq!(truth, vec![vec![], vec![l5], vec![l1, l5], vec![l1]]);
        assert!(!set.members()[0].scenario.expectation.expect_flagged);
        assert!(set.members()[2].scenario.expectation.expect_flagged);
    }

    #[test]
    fn rate_axis_keeps_other_mechanisms_in_the_ground_truth() {
        // A multi-policer base: sweeping l14 must keep l5/l20 in the
        // expectation, or the sweep scores correct detectors as wrong.
        let b = crate::library::dual_policer_topology_b(crate::library::TopologyBParams {
            duration_s: 3.0,
            ..crate::library::TopologyBParams::default()
        });
        let l14 = b.topology.link_by_name("l14").unwrap();
        let l20 = b.topology.link_by_name("l20").unwrap();
        let set = SweepSet::over_policer_rates("rates", &b, l14, 1, 0.03, &[0.25]);
        let truth = &set.members()[0].scenario.expectation.nonneutral_links;
        assert!(truth.contains(&l14) && truth.contains(&l20), "{truth:?}");
    }

    #[test]
    #[should_panic(expected = "non-positive token rate")]
    fn invalid_axis_members_panic_with_the_typed_error() {
        let b = base();
        let l5 = b.topology.link_by_name("l5").unwrap();
        // A zero fraction builds a zero-rate policer: the axis constructor
        // must reject it through scenario validation, not hand it to the
        // simulator.
        SweepSet::over_policer_rates("rates", &b, l5, 1, 0.01, &[0.0]);
    }

    #[test]
    fn cc_fleet_axis_rewrites_every_path_profile() {
        let fleet = CcFleet::fleet(&[(CcKind::Cubic, 3), (CcKind::NewReno, 1)]);
        let set = SweepSet::over_cc_fleets(
            "fleets",
            &base(),
            [
                ("cubic".to_string(), CcFleet::Uniform(CcKind::Cubic)),
                ("3:1".to_string(), fleet.clone()),
            ],
        );
        assert_eq!(set.len(), 2);
        assert!(set.members()[1]
            .scenario
            .path_traffic
            .iter()
            .all(|(_, p)| p.cc == fleet));
    }

    #[test]
    fn decision_threshold_axis_shares_one_measurement() {
        let b = base();
        let set = SweepSet::decision_thresholds("thr", &b, &[0.02, 0.04, 0.08]);
        assert_eq!(set.len(), 3);
        assert_eq!(set.members()[1].tick, "0.04");
        let fps: Vec<u64> = set
            .scenarios()
            .map(Scenario::measurement_fingerprint)
            .collect();
        assert!(
            fps.iter().all(|&f| f == b.measurement_fingerprint()),
            "threshold members must share the base's measurement fingerprint"
        );
        for (s, &thr) in set.scenarios().zip(&[0.02, 0.04, 0.08]) {
            match s.inference.mode {
                nni_core::DecisionMode::Clustered { abs_threshold, .. } => {
                    assert_eq!(abs_threshold, thr)
                }
                _ => panic!("threshold axis must produce clustered mode"),
            }
        }
    }

    #[test]
    fn reinfer_matches_the_fused_sweep_with_one_simulation() {
        use nni_measure::MeasurementCache;
        let b = base();
        let set = SweepSet::decision_thresholds("thr", &b, &[0.02, 0.04, 0.30]);
        let cache = MeasurementCache::new();
        let reinferred = set.run_reinfer(&SerialExecutor, &cache);
        assert_eq!(cache.len(), 1, "one distinct measurement, one simulation");
        let fused = set.run(&SerialExecutor);
        for (r, f) in reinferred.iter().zip(&fused) {
            assert_eq!(r.tick, f.tick);
            assert_eq!(r.outcome.inference, f.outcome.inference);
            assert_eq!(r.outcome.path_congestion, f.outcome.path_congestion);
            assert_eq!(r.outcome.correct, f.outcome.correct);
        }
        // Re-running hits the cache: no new distinct sets.
        let hits_before = cache.hits();
        let again = set.run_reinfer(&SerialExecutor, &cache);
        assert_eq!(again, reinferred);
        assert!(cache.hits() > hits_before);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cluster_config_axis_installs_configs_wholesale() {
        let b = base();
        let set = SweepSet::cluster_configs(
            "cfg",
            &b,
            [
                ("exact".to_string(), nni_core::Config::exact()),
                ("clustered".to_string(), nni_core::Config::clustered()),
            ],
        );
        assert_eq!(set.len(), 2);
        assert!(matches!(
            set.members()[0].scenario.inference.mode,
            nni_core::DecisionMode::Exact { .. }
        ));
        assert_eq!(
            set.members()[1].scenario.measurement_fingerprint(),
            b.measurement_fingerprint()
        );
    }

    #[test]
    fn run_sets_is_one_batch_resliced() {
        let b = base();
        let sets = vec![
            SweepSet::over_seeds("a", &b, &[1, 2]),
            SweepSet::over_seeds("b", &b, &[3]),
        ];
        let out = run_sets(&sets, &SerialExecutor);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].len(), out[1].len()), (2, 1));
        // Re-slicing preserves member order: each slot holds its own seed's
        // outcome.
        let direct = sets[1].run(&SerialExecutor);
        assert_eq!(out[1], direct);
    }
}
