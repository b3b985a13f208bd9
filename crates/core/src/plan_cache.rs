//! [`PlanCache`]: one shared [`IdentifyPlan`] per topology structure.
//!
//! A plan depends only on the paths' link lists and `min_pairs`, not on
//! mechanisms, traffic or measurements — a policed variant of a scenario
//! analyzes the same slices as its neutral base. Callers that infer many
//! runs (an executor batch, a sweep's re-inference fan-out, the spool
//! daemon, the live monitor) hold one cache and stop rebuilding the same
//! slice enumeration per run. There is no process-wide cache: the owner
//! decides its lifetime and reads its [`plans_built`] counter.
//!
//! [`plans_built`]: PlanCache::plans_built

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use nni_topology::{LinkId, Topology};

use crate::algorithm::{Config, IdentifyPlan};
use crate::fnv::Fnv;

/// The structure a plan was built for: everything [`IdentifyPlan::new`]
/// reads, kept whole so a hash hit is confirmed, never trusted.
#[derive(Debug)]
struct Entry {
    hash: u64,
    link_count: usize,
    min_pairs: usize,
    paths: Vec<Vec<LinkId>>,
    plan: Arc<IdentifyPlan>,
}

impl Entry {
    fn matches(&self, hash: u64, topology: &Topology, min_pairs: usize) -> bool {
        self.hash == hash
            && self.link_count == topology.link_count()
            && self.min_pairs == min_pairs
            && self.paths.len() == topology.path_count()
            && self
                .paths
                .iter()
                .zip(topology.paths())
                .all(|(links, path)| links.as_slice() == path.links())
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Least recently used first.
    entries: VecDeque<Entry>,
    built: usize,
}

/// A bounded LRU cache of [`IdentifyPlan`]s keyed by topology structure.
///
/// Lookups hash the link count, `min_pairs` and every path's link list
/// (FNV-1a), then confirm a hit by comparing the link lists, so a hash
/// collision rebuilds the plan instead of serving a wrong one. Shareable
/// across threads; plans are handed out as [`Arc`]s.
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// Plans kept before the least recently used one is evicted.
    pub const CAPACITY: usize = 4;

    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// The plan for `topology` under `cfg.min_pairs`, built on a miss.
    pub fn plan(&self, topology: &Topology, cfg: &Config) -> Arc<IdentifyPlan> {
        let hash = structure_hash(topology, cfg.min_pairs);
        if let Some(plan) = self.lookup(hash, topology, cfg.min_pairs) {
            return plan;
        }
        // Build outside the lock: sharded executors look up concurrently.
        let plan = Arc::new(IdentifyPlan::new(topology, cfg));
        let mut inner = self.inner.lock().expect("unpoisoned plan cache");
        if let Some(i) = position(&inner, hash, topology, cfg.min_pairs) {
            // Another thread built the same plan meanwhile; keep one.
            return Arc::clone(&inner.entries[i].plan);
        }
        inner.built += 1;
        inner.entries.push_back(Entry {
            hash,
            link_count: topology.link_count(),
            min_pairs: cfg.min_pairs,
            paths: topology
                .paths()
                .iter()
                .map(|p| p.links().to_vec())
                .collect(),
            plan: Arc::clone(&plan),
        });
        if inner.entries.len() > PlanCache::CAPACITY {
            inner.entries.pop_front();
        }
        plan
    }

    /// Plans this cache has built (misses), over its whole lifetime.
    pub fn plans_built(&self) -> usize {
        self.inner.lock().expect("unpoisoned plan cache").built
    }

    fn lookup(
        &self,
        hash: u64,
        topology: &Topology,
        min_pairs: usize,
    ) -> Option<Arc<IdentifyPlan>> {
        let mut inner = self.inner.lock().expect("unpoisoned plan cache");
        let i = position(&inner, hash, topology, min_pairs)?;
        let entry = inner.entries.remove(i).expect("position is in range");
        let plan = Arc::clone(&entry.plan);
        inner.entries.push_back(entry);
        Some(plan)
    }
}

fn position(inner: &Inner, hash: u64, topology: &Topology, min_pairs: usize) -> Option<usize> {
    inner
        .entries
        .iter()
        .position(|e| e.matches(hash, topology, min_pairs))
}

/// FNV-1a over the link count, `min_pairs` and every path's
/// length-prefixed link list.
fn structure_hash(topology: &Topology, min_pairs: usize) -> u64 {
    let mut h = Fnv::new();
    h.word(topology.link_count() as u64);
    h.word(min_pairs as u64);
    h.word(topology.path_count() as u64);
    for path in topology.paths() {
        h.word(path.len() as u64);
        for l in path.links() {
            h.word(l.index() as u64);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use nni_topology::library::{figure4, figure5, topology_b};
    use nni_topology::{LinkSeq, TopologyBuilder};

    fn taus(plan: &IdentifyPlan) -> Vec<LinkSeq> {
        plan.slices().iter().map(|s| s.tau.clone()).collect()
    }

    #[test]
    fn repeat_lookup_shares_one_plan() {
        let cache = PlanCache::new();
        let t = topology_b().topology;
        let a = cache.plan(&t, &Config::clustered());
        let b = cache.plan(&t, &Config::clustered());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.plans_built(), 1);
        assert_eq!(taus(&a), taus(&IdentifyPlan::new(&t, &Config::clustered())));
    }

    #[test]
    fn min_pairs_is_part_of_the_key() {
        let cache = PlanCache::new();
        let t = topology_b().topology;
        let two = cache.plan(&t, &Config::clustered());
        let three = cache.plan(
            &t,
            &Config {
                min_pairs: 3,
                ..Config::clustered()
            },
        );
        assert!(!Arc::ptr_eq(&two, &three));
        assert_eq!(cache.plans_built(), 2);
    }

    #[test]
    fn structurally_different_topologies_miss() {
        let cache = PlanCache::new();
        let a = cache.plan(&figure4().topology, &Config::exact());
        let b = cache.plan(&figure5().topology, &Config::exact());
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.plans_built(), 2);
    }

    /// Two sources into one sink, the paths listed in either order: equal
    /// link and path counts and path lengths, different link lists.
    fn two_paths(swapped: bool) -> Topology {
        let mut b = TopologyBuilder::new();
        let (s1, s2, r, d) = (b.host("s1"), b.host("s2"), b.relay("r"), b.host("d"));
        let la = b.link("a", s1, r).unwrap();
        let lb = b.link("b", s2, r).unwrap();
        let lc = b.link("c", r, d).unwrap();
        let (first, second) = if swapped { (lb, la) } else { (la, lb) };
        b.path("p0", vec![first, lc]).unwrap();
        b.path("p1", vec![second, lc]).unwrap();
        b.build()
    }

    #[test]
    fn equal_hash_with_different_paths_is_confirmed_not_trusted() {
        let cache = PlanCache::new();
        let (a, b) = (two_paths(false), two_paths(true));
        let cfg = Config {
            min_pairs: 1,
            ..Config::exact()
        };
        let plan_a = cache.plan(&a, &cfg);
        // Forge a collision: relabel a's entry with b's hash.
        cache.inner.lock().unwrap().entries[0].hash = structure_hash(&b, cfg.min_pairs);
        let plan_b = cache.plan(&b, &cfg);
        assert!(!Arc::ptr_eq(&plan_a, &plan_b));
        assert_eq!(cache.plans_built(), 2);
    }

    #[test]
    fn least_recently_used_plan_is_evicted_at_capacity() {
        let cache = PlanCache::new();
        let t = topology_b().topology;
        let cfg = |min_pairs| Config {
            min_pairs,
            ..Config::clustered()
        };
        let first = cache.plan(&t, &cfg(1));
        for k in 2..=PlanCache::CAPACITY {
            cache.plan(&t, &cfg(k));
        }
        // Touch the oldest so the second-oldest becomes the victim.
        assert!(Arc::ptr_eq(&first, &cache.plan(&t, &cfg(1))));
        cache.plan(&t, &cfg(PlanCache::CAPACITY + 1));
        assert_eq!(cache.plans_built(), PlanCache::CAPACITY + 1);
        assert!(Arc::ptr_eq(&first, &cache.plan(&t, &cfg(1))));
        cache.plan(&t, &cfg(2));
        assert_eq!(
            cache.plans_built(),
            PlanCache::CAPACITY + 2,
            "evicted plan rebuilt"
        );
    }
}
