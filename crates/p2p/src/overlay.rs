use std::error::Error;
use std::fmt;

use rand::Rng;

use rrb_engine::Topology;
use rrb_graph::{gen, Graph, NodeId};

/// Errors produced by overlay maintenance.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OverlayError {
    /// The referenced node slot is not alive.
    NodeNotAlive {
        /// Offending slot index.
        index: usize,
    },
    /// The overlay is too small for the requested operation.
    TooSmall {
        /// Current alive size.
        alive: usize,
        /// Minimum required.
        needed: usize,
    },
    /// Underlying graph generation failed (propagated from `rrb-graph`).
    Generation(rrb_graph::GraphError),
}

impl fmt::Display for OverlayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverlayError::NodeNotAlive { index } => {
                write!(f, "node slot {index} is not alive")
            }
            OverlayError::TooSmall { alive, needed } => {
                write!(f, "overlay has {alive} alive nodes, operation needs {needed}")
            }
            OverlayError::Generation(e) => write!(f, "overlay generation failed: {e}"),
        }
    }
}

impl Error for OverlayError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OverlayError::Generation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rrb_graph::GraphError> for OverlayError {
    fn from(e: rrb_graph::GraphError) -> Self {
        OverlayError::Generation(e)
    }
}

/// A mutable near-`d`-regular random overlay network.
///
/// The overlay is a multigraph stored as per-node stub lists (mirroring the
/// configuration model). Membership changes preserve regularity the way
/// practical P2P maintenance protocols do:
///
/// * **join** — the newcomer picks `⌊d/2⌋` random existing edges, splices
///   itself into each (`{u,w}` becomes `{u,new}, {new,w}`), ending with
///   degree `2·⌊d/2⌋` while every other degree is unchanged;
/// * **leave** — the departing node's neighbour stubs are re-paired among
///   themselves uniformly at random (an odd leftover stub is re-attached to
///   a random alive node), again leaving other degrees unchanged up to the
///   odd-degree corner;
/// * **rewire** — random degree-preserving 2-switches re-randomise the edge
///   set between churn events, the role played by flip chains \[29\] in real
///   systems.
///
/// Dead slots are retained (ids stay stable for the engine) and, by
/// default, **never recycled** — a rejoining peer is a fresh identity, so
/// engine-side state cannot leak between peer generations. Long churn
/// runs can instead opt into **slot reuse**
/// ([`with_slot_reuse`](Overlay::with_slot_reuse)): departed slots go on
/// a free list and joins pop it, bounding slot growth. Reused joins are
/// surfaced as *rejoins* by [`ChurnProcess`](crate::ChurnProcess), and
/// the engines' `apply_membership` resets a recycled slot's state as it
/// arrives — the leak the default mode avoids structurally is then
/// prevented explicitly.
#[derive(Debug, Clone)]
pub struct Overlay {
    /// Stub lists; `adj[v]` holds one entry per incident stub (self-loops
    /// twice, parallels repeatedly).
    adj: Vec<Vec<NodeId>>,
    alive: Vec<bool>,
    alive_count: usize,
    target_degree: usize,
    /// Opt-in slot recycling (default off; see the type docs).
    reuse_slots: bool,
    /// Departed slot indices available for reuse (LIFO), only maintained
    /// when `reuse_slots` is set.
    free: Vec<usize>,
}

impl Overlay {
    /// Builds a fresh random `d`-regular overlay on `n` alive nodes via the
    /// configuration model.
    ///
    /// # Errors
    ///
    /// Propagates generator errors (odd `n·d`, zero degree).
    pub fn random<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Result<Self, OverlayError> {
        let g = gen::configuration_model(n, d, rng)?;
        Ok(Overlay::from_graph(&g, d))
    }

    /// Wraps an existing graph as an overlay (all nodes alive). The
    /// `target_degree` steers future joins.
    pub fn from_graph(g: &Graph, target_degree: usize) -> Self {
        let n = g.node_count();
        let adj: Vec<Vec<NodeId>> =
            (0..n).map(|i| g.neighbors(NodeId::new(i)).to_vec()).collect();
        Overlay {
            adj,
            alive: vec![true; n],
            alive_count: n,
            target_degree,
            reuse_slots: false,
            free: Vec::new(),
        }
    }

    /// Enables (or disables) slot recycling: with reuse on, a join pops
    /// the most recently departed slot instead of growing the slot space,
    /// so a long symmetric-churn run keeps a bounded footprint. Engine
    /// consumers must apply the churn driver's `rejoined` events so
    /// recycled slots start from fresh state. Existing free slots are kept
    /// when toggling off and ignored until re-enabled.
    pub fn with_slot_reuse(mut self, reuse: bool) -> Self {
        self.reuse_slots = reuse;
        self
    }

    /// Whether joins recycle departed slots.
    pub fn reuses_slots(&self) -> bool {
        self.reuse_slots
    }

    /// Target degree new nodes aim for.
    pub fn target_degree(&self) -> usize {
        self.target_degree
    }

    /// Degree (stub count) of an alive node.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Ids of all currently alive nodes.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        (0..self.adj.len())
            .filter(|&i| self.alive[i])
            .map(NodeId::new)
            .collect()
    }

    /// A uniformly random alive node.
    ///
    /// # Panics
    ///
    /// Panics if no node is alive.
    pub fn random_alive<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        assert!(self.alive_count > 0, "overlay has no alive nodes");
        loop {
            let i = rng.gen_range(0..self.adj.len());
            if self.alive[i] {
                return NodeId::new(i);
            }
        }
    }

    /// Adds a node by splicing it into `⌊d/2⌋` random existing edges.
    /// Returns the new node's id (always a brand-new slot).
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::TooSmall`] if fewer than 2 nodes are alive or
    /// the overlay has no edges left to splice.
    pub fn join<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<NodeId, OverlayError> {
        if self.alive_count < 2 {
            return Err(OverlayError::TooSmall { alive: self.alive_count, needed: 2 });
        }
        let splices = (self.target_degree / 2).max(1);
        // By default a joining peer is a *fresh identity*: dead slots are
        // never recycled, so engine-side per-node state (informedness,
        // protocol state) can never leak from a departed peer into a
        // newcomer. With slot reuse enabled, a departed slot is popped
        // instead; callers observe the reuse through the churn driver's
        // `rejoined` events and must reset the recycled slot's state.
        let new_idx = match self.reuse_slots.then(|| self.free.pop()).flatten() {
            Some(slot) => slot,
            None => {
                self.adj.push(Vec::new());
                self.alive.push(false);
                self.adj.len() - 1
            }
        };
        let new_id = NodeId::new(new_idx);
        self.alive[new_idx] = true;
        self.alive_count += 1;

        for _ in 0..splices {
            match self.sample_edge(rng, Some(new_id)) {
                Some((u, w)) => {
                    self.remove_edge_occurrence(u, w);
                    self.add_edge(u, new_id);
                    self.add_edge(new_id, w);
                }
                None => break, // no spliceable edges left; join with lower degree
            }
        }
        Ok(new_id)
    }

    /// Removes an alive node; its neighbours' freed stubs are re-paired
    /// uniformly at random among themselves (a lone leftover stub is
    /// attached to a random alive node).
    ///
    /// # Errors
    ///
    /// * [`OverlayError::NodeNotAlive`] if `v` is dead or out of range.
    /// * [`OverlayError::TooSmall`] when fewer than 3 nodes are alive
    ///   (re-pairing needs a surviving network).
    pub fn leave<R: Rng + ?Sized>(&mut self, v: NodeId, rng: &mut R) -> Result<(), OverlayError> {
        let vi = v.index();
        if vi >= self.adj.len() || !self.alive[vi] {
            return Err(OverlayError::NodeNotAlive { index: vi });
        }
        if self.alive_count < 3 {
            return Err(OverlayError::TooSmall { alive: self.alive_count, needed: 3 });
        }
        // Collect freed endpoints (drop stubs that were self-loops at v).
        let mut endpoints: Vec<NodeId> =
            self.adj[vi].iter().copied().filter(|&w| w != v).collect();
        self.adj[vi].clear();
        self.alive[vi] = false;
        self.alive_count -= 1;
        if self.reuse_slots {
            self.free.push(vi);
        }
        // Remove the mirror stubs at the neighbours.
        for &w in &endpoints {
            let pos = self.adj[w.index()]
                .iter()
                .position(|&x| x == v)
                .expect("mirror stub must exist");
            self.adj[w.index()].swap_remove(pos);
        }
        // Shuffle and re-pair.
        for i in (1..endpoints.len()).rev() {
            let j = rng.gen_range(0..=i);
            endpoints.swap(i, j);
        }
        let mut it = endpoints.chunks_exact(2);
        for pair in &mut it {
            self.add_edge(pair[0], pair[1]);
        }
        if let [lone] = it.remainder() {
            // Odd leftover: attach to a random alive partner to conserve the
            // stub (slight +1 degree drift, documented).
            let partner = self.random_alive(rng);
            self.add_edge(*lone, partner);
        }
        Ok(())
    }

    /// Performs `steps` random degree-preserving 2-switches (self-loop
    /// creating switches are skipped), re-randomising the overlay in the
    /// spirit of flip chains \[29\]. Returns the number of switches applied.
    pub fn rewire<R: Rng + ?Sized>(&mut self, steps: usize, rng: &mut R) -> usize {
        let mut applied = 0;
        for _ in 0..steps {
            let Some((a, b)) = self.sample_edge(rng, None) else { break };
            let Some((c, e)) = self.sample_edge(rng, None) else { break };
            // Rewire {a,b},{c,e} -> {a,c},{b,e}; skip if it would self-loop.
            if a == c || b == e || (a == b && c == e) {
                continue;
            }
            // The two sampled occurrences must be distinct edges; a cheap
            // guard: skip when they're the same unordered pair (removing
            // twice could fail on multiplicity 1).
            if (a == e && b == c) || (a == c && b == e) {
                continue;
            }
            self.remove_edge_occurrence(a, b);
            self.remove_edge_occurrence(c, e);
            self.add_edge(a, c);
            self.add_edge(b, e);
            applied += 1;
        }
        applied
    }

    /// Samples a uniformly random *stub* (directed edge occurrence) among
    /// alive nodes, returning the undirected edge it belongs to. `exclude`
    /// marks a node whose incident edges must be avoided (used so a joining
    /// node never splices into its own fresh edges).
    fn sample_edge<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        exclude: Option<NodeId>,
    ) -> Option<(NodeId, NodeId)> {
        for _ in 0..256 {
            let i = rng.gen_range(0..self.adj.len());
            if !self.alive[i] || self.adj[i].is_empty() {
                continue;
            }
            if exclude.is_some_and(|x| x.index() == i) {
                continue;
            }
            let stub = rng.gen_range(0..self.adj[i].len());
            let w = self.adj[i][stub];
            if exclude.is_some_and(|x| x == w) {
                continue;
            }
            return Some((NodeId::new(i), w));
        }
        None
    }

    fn add_edge(&mut self, u: NodeId, w: NodeId) {
        if u == w {
            self.adj[u.index()].push(w);
            self.adj[u.index()].push(w);
        } else {
            self.adj[u.index()].push(w);
            self.adj[w.index()].push(u);
        }
    }

    fn remove_edge_occurrence(&mut self, u: NodeId, w: NodeId) {
        if u == w {
            for _ in 0..2 {
                let pos = self.adj[u.index()]
                    .iter()
                    .position(|&x| x == w)
                    .expect("self-loop stub must exist");
                self.adj[u.index()].swap_remove(pos);
            }
        } else {
            let pos =
                self.adj[u.index()].iter().position(|&x| x == w).expect("edge must exist");
            self.adj[u.index()].swap_remove(pos);
            let pos =
                self.adj[w.index()].iter().position(|&x| x == u).expect("mirror must exist");
            self.adj[w.index()].swap_remove(pos);
        }
    }

    /// Verifies internal invariants (adjacency symmetry, no stubs touching
    /// dead nodes, alive counter accuracy). Intended for tests and debug
    /// assertions; `O(n·d)`.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.adj.len();
        let alive = self.alive.iter().filter(|&&a| a).count();
        if alive != self.alive_count {
            return Err(format!("alive_count {} != actual {alive}", self.alive_count));
        }
        let mut stub_counts: std::collections::HashMap<(usize, usize), i64> =
            std::collections::HashMap::new();
        for i in 0..n {
            if !self.alive[i] {
                if !self.adj[i].is_empty() {
                    return Err(format!("dead node {i} still has stubs"));
                }
                continue;
            }
            for &w in &self.adj[i] {
                if !self.alive[w.index()] {
                    return Err(format!("alive node {i} has stub to dead {w}"));
                }
                *stub_counts.entry((i, w.index())).or_insert(0) += 1;
            }
        }
        for (&(a, b), &count) in &stub_counts {
            // `b` appears in `a`'s list as often as `a` in `b`'s (the
            // `Topology` symmetry contract); a self-loop puts both of its
            // stubs in one list.
            let mirror = stub_counts.get(&(b, a)).copied().unwrap_or(0);
            if a == b && count % 2 != 0 {
                return Err(format!("self-loop at {a} has odd stub count {count}"));
            }
            if count != mirror {
                return Err(format!("{b} appears {count} times in {a}'s stubs but {a} {mirror} times in {b}'s"));
            }
        }
        Ok(())
    }

}

impl Topology for Overlay {
    fn node_count(&self) -> usize {
        self.adj.len()
    }

    fn is_alive(&self, v: NodeId) -> bool {
        v.index() < self.alive.len() && self.alive[v.index()]
    }

    fn stubs(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v.index()]
    }

    fn alive_count(&self) -> usize {
        self.alive_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn total_stubs(o: &Overlay) -> usize {
        o.alive_nodes().iter().map(|&v| o.degree(v)).sum()
    }

    #[test]
    fn random_overlay_is_regular() {
        let mut rng = SmallRng::seed_from_u64(1);
        let o = Overlay::random(100, 8, &mut rng).unwrap();
        assert_eq!(o.alive_count(), 100);
        assert!(o.alive_nodes().iter().all(|&v| o.degree(v) == 8));
        o.check_invariants().unwrap();
    }

    #[test]
    fn join_preserves_other_degrees_and_stub_parity() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut o = Overlay::random(64, 8, &mut rng).unwrap();
        let before = total_stubs(&o);
        let v = o.join(&mut rng).unwrap();
        assert!(o.is_alive(v));
        assert_eq!(o.degree(v), 8, "newcomer degree");
        assert_eq!(total_stubs(&o), before + 8);
        o.check_invariants().unwrap();
        // Everyone else kept degree 8.
        for w in o.alive_nodes() {
            assert_eq!(o.degree(w), 8, "node {w} degree changed");
        }
    }

    #[test]
    fn leave_removes_node_and_repairs() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut o = Overlay::random(64, 8, &mut rng).unwrap();
        let v = o.random_alive(&mut rng);
        o.leave(v, &mut rng).unwrap();
        assert!(!o.is_alive(v));
        assert_eq!(o.alive_count(), 63);
        o.check_invariants().unwrap();
        // Degrees stay in a tight band around 8.
        for w in o.alive_nodes() {
            let d = o.degree(w);
            assert!((6..=10).contains(&d), "degree {d} drifted too far");
        }
    }

    #[test]
    fn churn_cycle_keeps_overlay_healthy() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut o = Overlay::random(50, 6, &mut rng).unwrap();
        for round in 0..100 {
            if round % 2 == 0 {
                o.join(&mut rng).unwrap();
            } else {
                let v = o.random_alive(&mut rng);
                o.leave(v, &mut rng).unwrap();
            }
            o.check_invariants()
                .unwrap_or_else(|e| panic!("invariants broken at round {round}: {e}"));
        }
        assert_eq!(o.alive_count(), 50);
        // Mean degree stays near the target.
        let mean = total_stubs(&o) as f64 / o.alive_count() as f64;
        assert!((mean - 6.0).abs() < 1.5, "mean degree drifted to {mean}");
    }

    #[test]
    fn leave_rejects_dead_and_tiny() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut o = Overlay::random(8, 2, &mut rng).unwrap();
        let v = o.random_alive(&mut rng);
        o.leave(v, &mut rng).unwrap();
        let err = o.leave(v, &mut rng).unwrap_err();
        assert_eq!(err, OverlayError::NodeNotAlive { index: v.index() });
    }

    #[test]
    fn join_never_recycles_identities() {
        // Recycling a dead slot would let a newcomer inherit the departed
        // peer's engine-side state (e.g. informedness) — joiners must get
        // fresh ids.
        let mut rng = SmallRng::seed_from_u64(6);
        let mut o = Overlay::random(32, 4, &mut rng).unwrap();
        let gone = o.random_alive(&mut rng);
        o.leave(gone, &mut rng).unwrap();
        let slots_before = Topology::node_count(&o);
        let fresh = o.join(&mut rng).unwrap();
        assert_ne!(fresh, gone, "dead slot must not be recycled");
        assert_eq!(fresh.index(), slots_before);
        assert_eq!(Topology::node_count(&o), slots_before + 1);
        assert!(!o.is_alive(gone));
    }

    #[test]
    fn slot_reuse_recycles_departed_slots() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut o = Overlay::random(32, 4, &mut rng).unwrap().with_slot_reuse(true);
        assert!(o.reuses_slots());
        let gone = o.random_alive(&mut rng);
        o.leave(gone, &mut rng).unwrap();
        let slots_before = Topology::node_count(&o);
        let back = o.join(&mut rng).unwrap();
        assert_eq!(back, gone, "reuse must pop the departed slot");
        assert_eq!(Topology::node_count(&o), slots_before, "no slot growth");
        assert!(o.is_alive(back));
        assert_eq!(o.degree(back), 4);
        o.check_invariants().unwrap();
        // With the free list drained, joins grow fresh slots again.
        let fresh = o.join(&mut rng).unwrap();
        assert_eq!(fresh.index(), slots_before);
        o.check_invariants().unwrap();
    }

    #[test]
    fn rewire_preserves_degrees() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut o = Overlay::random(64, 6, &mut rng).unwrap();
        let degrees_before: Vec<usize> =
            o.alive_nodes().iter().map(|&v| o.degree(v)).collect();
        let applied = o.rewire(200, &mut rng);
        assert!(applied > 50, "rewire applied only {applied} switches");
        let degrees_after: Vec<usize> =
            o.alive_nodes().iter().map(|&v| o.degree(v)).collect();
        assert_eq!(degrees_before, degrees_after);
        o.check_invariants().unwrap();
    }

    #[test]
    fn overlay_error_display() {
        let e = OverlayError::TooSmall { alive: 1, needed: 3 };
        assert!(e.to_string().contains("needs 3"));
        let e = OverlayError::NodeNotAlive { index: 5 };
        assert!(e.to_string().contains('5'));
    }
}
