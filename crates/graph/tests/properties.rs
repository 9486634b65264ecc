//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rrb_graph::{algo, gen, graph_from_edges, NodeId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The configuration model realises the requested regular degree exactly
    /// and conserves stubs (sum deg = 2m).
    #[test]
    fn configuration_model_invariants(
        n in 2usize..200,
        d in 1usize..12,
        seed in any::<u64>(),
    ) {
        prop_assume!(n * d % 2 == 0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = gen::configuration_model(n, d, &mut rng).unwrap();
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.regular_degree(), Some(d));
        prop_assert_eq!(g.stub_count(), n * d);
        prop_assert_eq!(g.degrees().sum::<usize>(), 2 * g.edge_count());
    }

    /// Simple random regular graphs are simple, regular and (for d >= 3)
    /// connected.
    #[test]
    fn random_regular_invariants(
        n in 8usize..150,
        d in 3usize..7,
        seed in any::<u64>(),
    ) {
        prop_assume!(n * d % 2 == 0 && d < n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = gen::random_regular(n, d, &mut rng).unwrap();
        prop_assert!(g.is_simple());
        prop_assert_eq!(g.regular_degree(), Some(d));
        prop_assert!(algo::is_connected(&g));
    }

    /// CSR adjacency is symmetric: w appears in N(v) as often as v in N(w).
    #[test]
    fn adjacency_symmetry(
        edges in prop::collection::vec((0usize..30, 0usize..30), 0..120),
    ) {
        let g = graph_from_edges(30, &edges).unwrap();
        for v in 0..30 {
            for w in 0..30 {
                let vw = g
                    .neighbors(NodeId::new(v))
                    .iter()
                    .filter(|&&x| x == NodeId::new(w))
                    .count();
                let wv = g
                    .neighbors(NodeId::new(w))
                    .iter()
                    .filter(|&&x| x == NodeId::new(v))
                    .count();
                prop_assert_eq!(vw, wv);
            }
        }
    }

    /// BFS distances obey the 1-Lipschitz property along any edge.
    #[test]
    fn bfs_lipschitz_along_edges(
        edges in prop::collection::vec((0usize..25, 0usize..25), 1..80),
        src in 0usize..25,
    ) {
        let g = graph_from_edges(25, &edges).unwrap();
        let dist = algo::bfs_distances(&g, NodeId::new(src));
        for (u, v) in g.edges() {
            match (dist[u.index()], dist[v.index()]) {
                (Some(a), Some(b)) => {
                    let diff = a.abs_diff(b);
                    prop_assert!(diff <= 1, "edge ({u},{v}) distance gap {diff}");
                }
                (None, None) => {}
                // One endpoint reachable, the other not, yet they share an
                // edge: impossible.
                _ => prop_assert!(false, "edge ({u},{v}) crosses reachability"),
            }
        }
    }

    /// Component labels are consistent with edges: endpoints always share a
    /// component.
    #[test]
    fn components_respect_edges(
        edges in prop::collection::vec((0usize..25, 0usize..25), 0..60),
    ) {
        let g = graph_from_edges(25, &edges).unwrap();
        let cc = algo::connected_components(&g);
        for (u, v) in g.edges() {
            prop_assert_eq!(cc.label(u), cc.label(v));
        }
        let total: usize = cc.sizes().iter().sum();
        prop_assert_eq!(total, 25);
    }

    /// Graphical sequences (per Erdős–Gallai) never contain a degree >= n
    /// and have even sum — internal consistency of the checker.
    #[test]
    fn graphical_implies_basic_facts(
        degs in prop::collection::vec(0usize..10, 1..40),
    ) {
        if gen::is_graphical(&degs) {
            let n = degs.len();
            prop_assert!(degs.iter().all(|&d| d < n));
            prop_assert_eq!(degs.iter().sum::<usize>() % 2, 0);
        }
    }

    /// Cartesian product has |V(G)|·|V(H)| nodes and
    /// |E(G)|·|V(H)| + |E(H)|·|V(G)| edges.
    #[test]
    fn product_counts(
        a in 1usize..8,
        b in 1usize..8,
    ) {
        let g = gen::cycle(a.max(3));
        let h = gen::complete(b);
        let p = gen::cartesian_product(&g, &h);
        prop_assert_eq!(p.node_count(), g.node_count() * h.node_count());
        prop_assert_eq!(
            p.edge_count(),
            g.edge_count() * h.node_count() + h.edge_count() * g.node_count()
        );
    }

    /// Matchings from the greedy routine are valid and maximal: no remaining
    /// edge has both endpoints unmatched.
    #[test]
    fn greedy_matching_is_maximal(
        edges in prop::collection::vec((0usize..30, 0usize..30), 0..120),
        seed in any::<u64>(),
    ) {
        let g = graph_from_edges(30, &edges).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = algo::greedy_maximal_matching(&g, &mut rng);
        let mut used = [false; 30];
        for (u, v) in &m {
            prop_assert!(u != v);
            prop_assert!(!used[u.index()] && !used[v.index()]);
            used[u.index()] = true;
            used[v.index()] = true;
        }
        for (u, v) in g.edges() {
            if u != v {
                prop_assert!(
                    used[u.index()] || used[v.index()],
                    "edge ({u},{v}) could extend the matching"
                );
            }
        }
    }
}
