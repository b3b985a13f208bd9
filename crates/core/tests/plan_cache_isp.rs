//! `PlanCache` over a generated ISP hierarchy: a policed variant of an
//! `isp_200link` scenario keeps the topology's structure, so it is served
//! the neutral base's plan — the reuse the spool daemon relies on.

use std::sync::Arc;

use nni_core::PlanCache;
use nni_emu::policer_at_fraction;
use nni_scenario::{Expectation, ScenarioBuilder};
use nni_topogen::{isp_scenario, IspParams};

#[test]
fn policed_variant_of_a_generated_isp_hits_the_cached_plan() {
    let params = IspParams::isp_200link();
    let base = isp_scenario(&params, 1.0, 7);
    let g = &base.topology;
    let link = g.paths()[0].links()[0];
    let (link, mechanism) = policer_at_fraction(g, link, 1, 0.2, 0.01);
    let policed = ScenarioBuilder::of(base.clone())
        .differentiate(link, mechanism)
        .expect(Expectation::nonneutral(vec![link]))
        .build()
        .expect("a generated scenario plus a policer is valid");
    assert!(base.differentiation.is_empty());
    assert_eq!(policed.differentiation.len(), 1);

    let cache = PlanCache::new();
    let neutral_plan = cache.plan(&base.topology, &base.inference);
    let policed_plan = cache.plan(&policed.topology, &policed.inference);
    assert!(Arc::ptr_eq(&neutral_plan, &policed_plan));
    assert_eq!(cache.plans_built(), 1);

    // The generation seed only jitters link delays: another seed is the
    // same structure. Rotating the sinks keeps the graph but changes the
    // route set, so the plan differs.
    let reseeded = isp_scenario(&params, 1.0, 8);
    assert!(Arc::ptr_eq(
        &neutral_plan,
        &cache.plan(&reseeded.topology, &reseeded.inference)
    ));
    let rotated = IspParams {
        sink_offset: params.sink_offset + 1,
        ..params
    };
    let other = isp_scenario(&rotated, 1.0, 7);
    let other_plan = cache.plan(&other.topology, &other.inference);
    assert!(!Arc::ptr_eq(&neutral_plan, &other_plan));
    assert_eq!(cache.plans_built(), 2);
}
