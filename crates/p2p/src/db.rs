use std::collections::HashMap;

use rand::Rng;

use rrb_engine::{
    MultiRumorSimulation, Protocol, Round, RumorInjection, SimConfig, Topology,
};
use rrb_graph::NodeId;

/// A single replicated-database update: "set `key` to `value`", stamped
/// with a totally ordered version (last-writer-wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Update {
    /// Key being written.
    pub key: u64,
    /// New value.
    pub value: u64,
    /// Version stamp; higher wins. Assigned monotonically by
    /// [`ReplicatedDb::push_update`].
    pub version: u64,
    /// Node at which the update originates.
    pub origin: NodeId,
    /// Round at which the update is issued.
    pub round: Round,
}

/// Result of a replicated-database run.
#[derive(Debug, Clone, PartialEq)]
pub struct DbReport {
    /// `true` iff every alive replica ended with an identical store.
    pub converged: bool,
    /// Rounds simulated.
    pub rounds: Round,
    /// Updates issued.
    pub updates: usize,
    /// Per-update delivery latency (rounds from issue to full visibility),
    /// `None` for updates that never reached everyone.
    pub latencies: Vec<Option<Round>>,
    /// Total per-rumour transmissions.
    pub rumor_tx: u64,
    /// Combined channel messages actually sent (rumours sharing a channel
    /// and direction are batched, §1.2).
    pub combined_messages: u64,
    /// Channels opened over the run.
    pub channels: u64,
}

impl DbReport {
    /// Mean latency over delivered updates (`None` if none delivered).
    pub fn mean_latency(&self) -> Option<f64> {
        let delivered: Vec<f64> =
            self.latencies.iter().flatten().map(|&r| r as f64).collect();
        if delivered.is_empty() {
            None
        } else {
            Some(delivered.iter().sum::<f64>() / delivered.len() as f64)
        }
    }

    /// Transmissions per update per node — the maintenance cost metric of
    /// Demers et al. \[7\] that the paper's algorithm drives down to
    /// `O(log log n)`.
    pub fn tx_per_update_per_node(&self, n: usize) -> f64 {
        if self.updates == 0 || n == 0 {
            0.0
        } else {
            self.rumor_tx as f64 / (self.updates as f64 * n as f64)
        }
    }

    /// Message savings from combining: `1 - combined/total`.
    pub fn combining_savings(&self) -> f64 {
        if self.rumor_tx == 0 {
            0.0
        } else {
            1.0 - self.combined_messages as f64 / self.rumor_tx as f64
        }
    }
}

/// Replicated database maintained by rumour broadcasting — the flagship
/// application from §1 of the paper ("maintenance of replicated databases,
/// where updates made at some of the nodes need to be propagated to all the
/// nodes in the network").
///
/// Every update rides one broadcast rumour (executed by any engine
/// [`Protocol`], typically the paper's `FourChoice`); replicas apply
/// updates last-writer-wins by version. The run is driven by
/// [`MultiRumorSimulation`], so concurrent updates share channels and the
/// report exposes the combining savings the phone call model is designed
/// around.
///
/// ```
/// use rand::{SeedableRng, rngs::SmallRng};
/// use rrb_engine::{protocols::FloodPushPull, SimConfig};
/// use rrb_graph::{gen, NodeId};
/// use rrb_p2p::ReplicatedDb;
///
/// let mut rng = SmallRng::seed_from_u64(3);
/// let g = gen::complete(32);
/// let mut db = ReplicatedDb::new(FloodPushPull::new(), SimConfig::default());
/// db.push_update(0, NodeId::new(0), 7, 100);
/// db.push_update(2, NodeId::new(9), 7, 200); // later version wins
/// let report = db.run(&g, &mut rng);
/// assert!(report.converged);
/// assert_eq!(report.updates, 2);
/// ```
#[derive(Debug)]
pub struct ReplicatedDb<P: Protocol> {
    protocol: P,
    config: SimConfig,
    updates: Vec<Update>,
    next_version: u64,
}

impl<P: Protocol + Clone> ReplicatedDb<P> {
    /// Creates a replicated database whose updates are propagated by
    /// `protocol`.
    pub fn new(protocol: P, config: SimConfig) -> Self {
        ReplicatedDb { protocol, config, updates: Vec::new(), next_version: 1 }
    }

    /// Issues an update at `origin` in round `round`. Versions are assigned
    /// in issue order, so later pushes win conflicts deterministically.
    pub fn push_update(&mut self, round: Round, origin: NodeId, key: u64, value: u64) -> &mut Self {
        let version = self.next_version;
        self.next_version += 1;
        self.updates.push(Update { key, value, version, origin, round });
        self
    }

    /// Issues `count` updates at uniformly random origins and rounds in
    /// `0..window`, over `key_space` distinct keys.
    ///
    /// # Panics
    ///
    /// Panics if `topo` has no alive nodes — rejection-sampling an origin
    /// would otherwise loop forever.
    pub fn push_random_updates<T: Topology, R: Rng + ?Sized>(
        &mut self,
        topo: &T,
        count: usize,
        window: Round,
        key_space: u64,
        rng: &mut R,
    ) -> &mut Self {
        assert!(
            topo.alive_count() > 0,
            "push_random_updates requires a topology with at least one alive node"
        );
        for _ in 0..count {
            let origin = loop {
                let i = rng.gen_range(0..topo.node_count());
                if topo.is_alive(NodeId::new(i)) {
                    break NodeId::new(i);
                }
            };
            let round = rng.gen_range(0..window.max(1));
            let key = rng.gen_range(0..key_space.max(1));
            let value = rng.gen::<u64>();
            self.push_update(round, origin, key, value);
        }
        self
    }

    /// Number of issued updates.
    pub fn update_count(&self) -> usize {
        self.updates.len()
    }

    /// Propagates all updates over `topo` and checks replica convergence.
    pub fn run<T: Topology, R: Rng + Clone + Send>(&self, topo: &T, rng: &mut R) -> DbReport {
        let mut sim = MultiRumorSimulation::new(self.protocol.clone(), self.config);
        for u in &self.updates {
            sim.inject(RumorInjection { birth: u.round, origin: u.origin });
        }
        let report = sim.run(topo, rng);

        // Materialise each replica's store from the delivery trace and
        // compare: last-writer-wins over the updates the replica saw.
        let n = topo.node_count();
        let mut stores: Vec<HashMap<u64, (u64, u64)>> = vec![HashMap::new(); n];
        for (r, update) in self.updates.iter().enumerate() {
            for (i, store) in stores.iter_mut().enumerate() {
                if !topo.is_alive(NodeId::new(i)) {
                    continue;
                }
                if report.deliveries[r][i].is_some() {
                    let entry = store.entry(update.key).or_insert((0, 0));
                    if update.version > entry.0 {
                        *entry = (update.version, update.value);
                    }
                }
            }
        }
        let mut converged = true;
        let mut reference: Option<&HashMap<u64, (u64, u64)>> = None;
        for (i, store) in stores.iter().enumerate() {
            if !topo.is_alive(NodeId::new(i)) {
                continue;
            }
            match reference {
                None => reference = Some(store),
                Some(r) => {
                    if r != store {
                        converged = false;
                        break;
                    }
                }
            }
        }

        let latencies: Vec<Option<Round>> =
            report.outcomes.iter().map(|o| o.latency()).collect();
        DbReport {
            converged,
            rounds: report.rounds,
            updates: self.updates.len(),
            latencies,
            rumor_tx: report.total_rumor_tx(),
            combined_messages: report.combined_messages,
            channels: report.channels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rrb_engine::protocols::FloodPushPull;
    use rrb_graph::gen;

    #[test]
    fn single_update_converges() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = gen::complete(24);
        let mut db = ReplicatedDb::new(FloodPushPull::new(), SimConfig::default());
        db.push_update(0, NodeId::new(3), 1, 42);
        let report = db.run(&g, &mut rng);
        assert!(report.converged);
        assert_eq!(report.updates, 1);
        assert!(report.latencies[0].is_some());
        assert!(report.mean_latency().unwrap() > 0.0);
    }

    #[test]
    fn conflicting_updates_resolve_by_version() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = gen::complete(24);
        let mut db = ReplicatedDb::new(FloodPushPull::new(), SimConfig::default());
        db.push_update(0, NodeId::new(0), 7, 1);
        db.push_update(0, NodeId::new(13), 7, 2);
        db.push_update(1, NodeId::new(5), 7, 3);
        let report = db.run(&g, &mut rng);
        assert!(report.converged, "LWW must converge once all rumours land");
    }

    #[test]
    fn random_update_stream_converges_and_amortises() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = gen::complete(32);
        let mut db = ReplicatedDb::new(FloodPushPull::new(), SimConfig::default());
        db.push_random_updates(&g, 16, 4, 8, &mut rng);
        assert_eq!(db.update_count(), 16);
        let report = db.run(&g, &mut rng);
        assert!(report.converged);
        assert!(
            report.combining_savings() > 0.05,
            "expected combining savings, got {}",
            report.combining_savings()
        );
        assert!(report.tx_per_update_per_node(32) > 0.0);
    }

    #[test]
    fn undelivered_updates_break_convergence() {
        let mut rng = SmallRng::seed_from_u64(4);
        // A cycle is slow: with a tiny round cap the rumour cannot reach
        // every node.
        let g = gen::cycle(64);
        let cfg = SimConfig::default().with_max_rounds(3);
        let mut db = ReplicatedDb::new(FloodPushPull::new(), cfg);
        db.push_update(0, NodeId::new(0), 1, 9);
        let report = db.run(&g, &mut rng);
        assert!(!report.converged);
        assert_eq!(report.latencies[0], None);
        assert_eq!(report.mean_latency(), None);
    }

    /// A topology whose slots are all dead (departed peers).
    struct DeadTopology {
        g: rrb_graph::Graph,
    }

    impl rrb_engine::Topology for DeadTopology {
        fn node_count(&self) -> usize {
            self.g.node_count()
        }
        fn is_alive(&self, _v: NodeId) -> bool {
            false
        }
        fn stubs(&self, v: NodeId) -> &[NodeId] {
            self.g.neighbors(v)
        }
    }

    #[test]
    #[should_panic(expected = "at least one alive node")]
    fn random_updates_reject_dead_topology() {
        // Regression: with zero alive nodes the origin rejection-sampling
        // loop used to spin forever; it must fail fast instead.
        let mut rng = SmallRng::seed_from_u64(6);
        let topo = DeadTopology { g: gen::complete(8) };
        let mut db = ReplicatedDb::new(FloodPushPull::new(), SimConfig::default());
        db.push_random_updates(&topo, 1, 4, 8, &mut rng);
    }

    #[test]
    fn empty_db_trivially_converges() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = gen::complete(8);
        let db = ReplicatedDb::new(FloodPushPull::new(), SimConfig::default());
        let report = db.run(&g, &mut rng);
        assert!(report.converged);
        assert_eq!(report.updates, 0);
        assert_eq!(report.tx_per_update_per_node(8), 0.0);
        assert_eq!(report.combining_savings(), 0.0);
    }
}
