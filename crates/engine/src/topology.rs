use rrb_graph::{Graph, NodeId};

/// Abstraction over the network the phone-call model runs on.
///
/// The engine only needs three things from a topology: how many node slots
/// exist, which of them are currently alive (dead slots model departed
/// peers), and each node's neighbour **stub list** — the multiset of
/// adjacent node ids, with self-loops appearing twice and parallel edges
/// repeatedly, exactly as the configuration model of the paper lays them
/// out. Channel targets are drawn as distinct *stubs*, matching the paper's
/// "selects four of its stubs i.u.r. without replacement".
///
/// **Symmetry contract**: stub lists are symmetric with multiplicity —
/// `w` appears in `stubs(v)` as often as `v` appears in `stubs(w)` (a
/// self-loop puts both its stubs in one list). A frontier round relies on
/// it: it finds the neighbours of the few incomplete slots from their own
/// stub lists, and books every other caller's channels as reaching only
/// complete nodes. Debug builds check every booked caller's stubs, so a
/// topology that breaks the contract fails its tests instead of booking
/// wrong counts.
///
/// Implemented by the static [`rrb_graph::Graph`] and by the mutable churn
/// overlay in `rrb-p2p` (whose `check_invariants` checks the contract). A
/// topology is `Sync` because the single engine's shards sample their
/// callers' channels from it at the same time.
pub trait Topology: Sync {
    /// Number of node slots (alive or dead); valid ids are `0..node_count()`.
    fn node_count(&self) -> usize;

    /// Whether the slot currently hosts a live node.
    fn is_alive(&self, v: NodeId) -> bool;

    /// Stub list of `v`: adjacent node ids with multiplicity.
    fn stubs(&self, v: NodeId) -> &[NodeId];

    /// Number of stubs of `v` (`stubs(v).len()`, which an implementation
    /// may know without building the slice).
    fn degree(&self, v: NodeId) -> usize {
        self.stubs(v).len()
    }

    /// Number of currently alive nodes. Default implementation scans.
    fn alive_count(&self) -> usize {
        (0..self.node_count())
            .filter(|&i| self.is_alive(NodeId::new(i)))
            .count()
    }
}

impl Topology for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn is_alive(&self, _v: NodeId) -> bool {
        true
    }

    fn stubs(&self, v: NodeId) -> &[NodeId] {
        self.neighbors(v)
    }

    fn degree(&self, v: NodeId) -> usize {
        Graph::degree(self, v)
    }

    fn alive_count(&self) -> usize {
        Graph::node_count(self)
    }
}

impl<T: Topology + ?Sized> Topology for &T {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn is_alive(&self, v: NodeId) -> bool {
        (**self).is_alive(v)
    }

    fn stubs(&self, v: NodeId) -> &[NodeId] {
        (**self).stubs(v)
    }

    fn degree(&self, v: NodeId) -> usize {
        (**self).degree(v)
    }

    fn alive_count(&self) -> usize {
        (**self).alive_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrb_graph::gen;

    #[test]
    fn graph_implements_topology() {
        let g = gen::cycle(5);
        assert_eq!(Topology::node_count(&g), 5);
        assert_eq!(g.alive_count(), 5);
        assert!(g.is_alive(NodeId::new(3)));
        assert_eq!(g.stubs(NodeId::new(0)).len(), 2);
    }

    #[test]
    fn reference_forwarding() {
        let g = gen::complete(4);
        let r: &Graph = &g;
        assert_eq!(Topology::node_count(&r), 4);
        assert_eq!(r.stubs(NodeId::new(1)).len(), 3);
        assert_eq!(r.alive_count(), 4);
    }
}
