use rand::Rng;

use crate::{Graph, GraphBuilder, GraphError, NodeId, Result};

use super::classic::complete;
use super::degree_seq::{configuration_model_from_degrees, pair_stubs};

/// Generates a random `d`-regular **multigraph** on `n` nodes with the
/// configuration (pairing) model, exactly as defined in §1.2 of the paper.
///
/// Every node receives `d` stubs; a uniformly random perfect matching on the
/// `n·d` stubs defines the edges. Self-loops and parallel edges are kept:
/// the paper notes the pairing process generates non-simple graphs with
/// probability `1 − e^{−O(d²)}` and analyses the algorithm on that output
/// directly.
///
/// # Errors
///
/// * [`GraphError::OddStubCount`] if `n·d` is odd.
/// * [`GraphError::InvalidParameter`] if `d == 0` with `n > 0` would make
///   broadcasting trivially impossible — degree zero is allowed only for the
///   empty graph.
///
/// # Examples
///
/// ```
/// use rand::{SeedableRng, rngs::SmallRng};
/// let mut rng = SmallRng::seed_from_u64(1);
/// let g = rrb_graph::gen::configuration_model(500, 6, &mut rng)?;
/// assert!(g.degrees().all(|d| d == 6));
/// # Ok::<(), rrb_graph::GraphError>(())
/// ```
pub fn configuration_model<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Result<Graph> {
    let edges = regular_pairing(n, d, rng)?;
    Ok(GraphBuilder::from_canonical_edges(n, edges).build())
}

/// The pairing step of [`configuration_model`], stopped before the CSR build
/// so [`random_regular`] can repair the edge list first.
fn regular_pairing<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Vec<(NodeId, NodeId)>> {
    if n > 0 && d == 0 {
        return Err(GraphError::InvalidParameter { what: "degree must be positive" });
    }
    pair_stubs(&vec![d; n], rng)
}

/// Generates a **simple** random `d`-regular graph on `n` nodes.
///
/// Runs the pairing model and then removes self-loops and parallel edges via
/// uniformly random degree-preserving 2-switches (pick a defective edge
/// `{a,b}` and a random edge `{c,e}`, rewire to `{a,c},{b,e}` when that
/// creates no new defect); see [`repair_to_simple`]. For `d = o(√n)` the
/// switching converges after `O(d²)` expected repairs; a rejection-and-restart
/// outer loop guards pathological cases.
///
/// Cost: `O(n·d)` for the pairing, the repair's set-up and the one CSR
/// build, plus `O(d)` per switch attempt.
///
/// Dense degrees (`2d > n − 1`) take another route, because in a pairing
/// that dense almost every switch is rejected and the repair exhausts its
/// restarts: the result is the complement of
/// `random_regular(n, n − 1 − d)` ([`complete`] for `d = n − 1`).
/// Complementing is a bijection between simple `d`-regular and simple
/// `(n − 1 − d)`-regular graphs on the same nodes, so it carries the
/// sparse route's distribution over unchanged.
///
/// The distribution is asymptotically uniform over simple `d`-regular graphs
/// (McKay–Wormald \[30\]); the small switching bias is irrelevant for the
/// simulation claims measured here.
///
/// # Errors
///
/// * [`GraphError::OddStubCount`] if `n·d` is odd.
/// * [`GraphError::DegreeTooLarge`] if `d >= n`.
/// * [`GraphError::GenerationFailed`] if repair fails repeatedly (practically
///   unreachable for `d ≤ O(log n)`, the paper's regime).
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Result<Graph> {
    if d >= n && !(n == 0 && d == 0) {
        return Err(GraphError::DegreeTooLarge { degree: d, node_count: n });
    }
    if d > 0 && 2 * d >= n {
        if n * d % 2 == 1 {
            return Err(GraphError::OddStubCount { stub_sum: n * d });
        }
        if d == n - 1 {
            return Ok(complete(n));
        }
        return Ok(complement(&random_regular(n, n - 1 - d, rng)?));
    }
    const MAX_RESTARTS: usize = 32;
    for _ in 0..MAX_RESTARTS {
        let mut edges = regular_pairing(n, d, rng)?;
        if repair_to_simple(n, d, &mut edges, rng) {
            return Ok(GraphBuilder::from_canonical_edges(n, edges).build());
        }
    }
    Err(GraphError::GenerationFailed { attempts: MAX_RESTARTS })
}

/// The complement of the simple graph `g`: every non-adjacent pair becomes
/// an edge, in row-major order.
fn complement(g: &Graph) -> Graph {
    let n = g.node_count();
    let mut b = GraphBuilder::with_capacity(n, n * (n - 1) / 2 - g.edge_count());
    let mut adjacent = vec![false; n];
    for u in g.nodes() {
        for &v in g.neighbors(u) {
            adjacent[v.index()] = true;
        }
        for (v, _) in adjacent.iter().enumerate().skip(u.index() + 1).filter(|(_, &a)| !a) {
            b.add_edge(u, NodeId::new(v)).expect("in range");
        }
        for &v in g.neighbors(u) {
            adjacent[v.index()] = false;
        }
    }
    b.build()
}

/// Generates a near-regular random graph whose degrees all lie in
/// `[d, ceil(c·d)]`, the relaxed setting §1.2 says the results generalise to.
///
/// Each node draws a degree uniformly from the allowed band (the total is
/// patched to be even by bumping one node within the band when needed), then
/// the configuration model realises the sequence.
///
/// # Errors
///
/// * [`GraphError::InvalidParameter`] if `c < 1.0` or `d == 0`.
pub fn random_near_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    c: f64,
    rng: &mut R,
) -> Result<Graph> {
    if c.is_nan() || c < 1.0 {
        return Err(GraphError::InvalidParameter { what: "degree band factor c must be >= 1" });
    }
    if d == 0 {
        return Err(GraphError::InvalidParameter { what: "degree must be positive" });
    }
    let hi = ((d as f64) * c).ceil() as usize;
    let mut degrees: Vec<usize> = (0..n).map(|_| rng.gen_range(d..=hi)).collect();
    if degrees.iter().sum::<usize>() % 2 == 1 {
        // Patch parity inside the band: find any node that can move by one.
        let idx = (0..n)
            .find(|&i| degrees[i] < hi || degrees[i] > d)
            .expect("band of width >= 0 always has a movable node when n > 0");
        if degrees[idx] < hi {
            degrees[idx] += 1;
        } else {
            degrees[idx] -= 1;
        }
    }
    configuration_model_from_degrees(&degrees, rng)
}

/// Erdős–Rényi `G(n, p)`: every unordered pair becomes an edge independently
/// with probability `p`.
///
/// Uses the geometric skipping method, so generation runs in `O(n + m)`
/// expected time rather than `O(n²)`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `p` is not in `\[0, 1\]`.
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter { what: "p must lie in [0, 1]" });
    }
    let mut b = GraphBuilder::new(n);
    if n < 2 || p == 0.0 {
        return Ok(b.build());
    }
    if p == 1.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                b.add_edge(NodeId::new(u), NodeId::new(v))?;
            }
        }
        return Ok(b.build());
    }
    // Iterate pairs in row-major order, skipping geometrically.
    let log_q = (1.0 - p).ln();
    let mut u: usize = 0;
    let mut v: i64 = 0; // candidate column within row u (v > u required)
    while u < n - 1 {
        let r: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let skip = (r.ln() / log_q).floor() as i64 + 1;
        v += skip;
        while u < n - 1 && v as usize > n - 1 - (u + 1) {
            v -= (n - 1 - u) as i64;
            u += 1;
        }
        if u < n - 1 {
            let col = u + 1 + v as usize;
            b.add_edge(NodeId::new(u), NodeId::new(col))?;
        }
    }
    Ok(b.build())
}

/// Repairs the canonical `d`-regular pairing `edges` into a simple graph in
/// place with degree-preserving 2-switches. Returns `false` if the defect
/// count stops improving (the caller then redraws the pairing).
///
/// Every multiplicity the switching consults is answered by
/// [`NeighbourRows`], which hold the current multigraph as `n` rows of `d`
/// slots. The rows answer exactly the queries an edge-multiplicity map
/// would, and no query or draw depends on where in a row a neighbour sits,
/// so the draws — and therefore the output edge list — depend only on
/// `edges` and the RNG. Set-up is `O(n·d)`; each switch attempt costs
/// `O(d)`.
fn repair_to_simple<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    edges: &mut [(NodeId, NodeId)],
    rng: &mut R,
) -> bool {
    let mut rows = NeighbourRows::new(n, d, edges);

    // Candidate defect list in edge order, maintained lazily: switches
    // never *create* defects (such switches are rejected), so candidates
    // only need re-validation before use — removing one copy of a parallel
    // pair silently repairs its sibling, for example. A defective edge
    // `{u, v}` (`u <= v`) always leaves a self-loop or a repeat in row `u`,
    // so only edges whose smaller endpoint is flagged need the exact check.
    let flagged = rows.defective_nodes();
    let mut candidates: Vec<usize> = edges
        .iter()
        .enumerate()
        .filter(|&(_, &(u, v))| flagged[u.index()] && rows.is_defective(u, v))
        .map(|(i, _)| i)
        .collect();
    let budget = 400 * (candidates.len() + 16);
    let mut attempts = 0usize;
    while !candidates.is_empty() {
        attempts += 1;
        if attempts > budget {
            return false;
        }
        let ci = rng.gen_range(0..candidates.len());
        let di = candidates[ci];
        let (a, b) = edges[di];
        if !rows.is_defective(a, b) {
            candidates.swap_remove(ci);
            continue;
        }
        let oi = rng.gen_range(0..edges.len());
        if oi == di {
            continue;
        }
        let (c, e) = edges[oi];
        // Candidate rewiring: {a,b},{c,e} -> {a,c},{b,e}.
        // Reject if it would introduce a new defect.
        if a == c || b == e {
            continue; // would create self-loop
        }
        if rows.adjacent(a, c) || rows.adjacent(b, e) {
            continue; // would create parallel edge
        }
        // Apply the switch, one slot per endpoint; a self-loop `{a,a}` or
        // `{c,c}` holds two slots of its row, one for each replacement.
        rows.replace(a, b, c);
        rows.replace(b, a, e);
        rows.replace(c, e, a);
        rows.replace(e, c, b);
        edges[di] = if a <= c { (a, c) } else { (c, a) };
        edges[oi] = if b <= e { (b, e) } else { (e, b) };
        // The rewritten edges are clean unless two self-loops were switched
        // (see the audit below); drop the handled candidate.
        candidates.swap_remove(ci);
    }
    // Final audit (the lazy list may have dropped a candidate whose edge
    // was rewritten into a *different* still-defective pair — a switch of
    // two self-loops `{a,a},{c,c}` passes both checks and leaves `{a,c}`
    // doubled, for example).
    !rows.defective_nodes().contains(&true)
}

/// A `d`-regular multigraph as fixed-width neighbour rows: row `v` is
/// `slots[v·d..(v+1)·d]` and lists `v`'s neighbours with multiplicity, a
/// self-loop filling two slots of its own row. Degree-preserving switches
/// keep every row exactly `d` wide, so no offset array is needed.
struct NeighbourRows {
    n: usize,
    d: usize,
    slots: Vec<NodeId>,
}

impl NeighbourRows {
    fn new(n: usize, d: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut slots = vec![NodeId::default(); n * d];
        let mut fill: Vec<usize> = (0..n).map(|v| v * d).collect();
        let mut push = |u: NodeId, v: NodeId| {
            let at = &mut fill[u.index()];
            slots[*at] = v;
            *at += 1;
        };
        for &(u, v) in edges {
            push(u, v);
            push(v, u);
        }
        NeighbourRows { n, d, slots }
    }

    fn row(&self, v: NodeId) -> &[NodeId] {
        &self.slots[v.index() * self.d..(v.index() + 1) * self.d]
    }

    /// Whether `{u, v}` (`u != v`) is an edge.
    fn adjacent(&self, u: NodeId, v: NodeId) -> bool {
        self.row(u).contains(&v)
    }

    /// Whether the edge `{u, v}` is a self-loop or has a parallel copy.
    fn is_defective(&self, u: NodeId, v: NodeId) -> bool {
        u == v || self.row(u).iter().filter(|&&w| w == v).count() > 1
    }

    /// Rewrites one occurrence of `old` in row `v` to `new`.
    fn replace(&mut self, v: NodeId, old: NodeId, new: NodeId) {
        let d = self.d;
        let row = &mut self.slots[v.index() * d..(v.index() + 1) * d];
        *row.iter_mut().find(|w| **w == old).expect("switched edge is in the row") = new;
    }

    /// One sequential pass over the rows: node `v` is flagged when its row
    /// holds a self-loop or a repeated neighbour.
    fn defective_nodes(&self) -> Vec<bool> {
        let mut seen = vec![false; self.n];
        (0..self.n)
            .map(|v| {
                let row = self.row(NodeId::new(v));
                let mut defective = false;
                for &w in row {
                    defective |= w.index() == v || seen[w.index()];
                    seen[w.index()] = true;
                }
                for &w in row {
                    seen[w.index()] = false;
                }
                defective
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn configuration_model_is_regular() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = configuration_model(200, 6, &mut rng).unwrap();
        assert_eq!(g.node_count(), 200);
        assert_eq!(g.regular_degree(), Some(6));
        assert_eq!(g.edge_count(), 600);
    }

    #[test]
    fn configuration_model_rejects_odd_stubs() {
        let mut rng = SmallRng::seed_from_u64(0);
        let err = configuration_model(5, 3, &mut rng).unwrap_err();
        assert_eq!(err, GraphError::OddStubCount { stub_sum: 15 });
    }

    #[test]
    fn configuration_model_rejects_zero_degree() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(configuration_model(5, 0, &mut rng).is_err());
    }

    #[test]
    fn configuration_model_empty() {
        let mut rng = SmallRng::seed_from_u64(0);
        let g = configuration_model(0, 0, &mut rng).unwrap();
        assert!(g.is_empty());
    }

    #[test]
    fn random_regular_is_simple_and_regular() {
        let mut rng = SmallRng::seed_from_u64(5);
        for d in [3, 4, 8, 16] {
            let g = random_regular(300, d, &mut rng).unwrap();
            assert!(g.is_simple(), "d={d} not simple");
            assert_eq!(g.regular_degree(), Some(d), "d={d} not regular");
        }
    }

    #[test]
    fn random_regular_connected_whp() {
        // d >= 3 random regular graphs are connected w.h.p.; a few hundred
        // nodes with several seeds should never disconnect.
        for seed in 0..5 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = random_regular(256, 4, &mut rng).unwrap();
            assert!(algo::is_connected(&g), "seed {seed} disconnected");
        }
    }

    #[test]
    fn random_regular_rejects_large_degree() {
        let mut rng = SmallRng::seed_from_u64(0);
        let err = random_regular(4, 4, &mut rng).unwrap_err();
        assert_eq!(err, GraphError::DegreeTooLarge { degree: 4, node_count: 4 });
    }

    #[test]
    fn dense_degrees_generate_via_the_complement() {
        for (n, d) in [(64, 60), (16, 15), (10, 7)] {
            for seed in 0..20 {
                let g = random_regular(n, d, &mut SmallRng::seed_from_u64(seed)).unwrap();
                assert!(g.is_simple(), "n={n} d={d} seed={seed} not simple");
                assert_eq!(g.regular_degree(), Some(d), "n={n} d={d} seed={seed}");
                let again = random_regular(n, d, &mut SmallRng::seed_from_u64(seed)).unwrap();
                assert_eq!(g, again, "n={n} d={d} seed={seed} not deterministic");
            }
        }
        let err = random_regular(5, 3, &mut SmallRng::seed_from_u64(0)).unwrap_err();
        assert_eq!(err, GraphError::OddStubCount { stub_sum: 15 });
    }

    #[test]
    fn near_regular_band_is_respected() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = random_near_regular(400, 6, 1.5, &mut rng).unwrap();
        let hi = (6.0f64 * 1.5).ceil() as usize;
        for deg in g.degrees() {
            // Parity patch can push one node by one step but stays in band
            // because it only moves toward the interior.
            assert!(deg >= 6 && deg <= hi, "degree {deg} outside [6, {hi}]");
        }
    }

    #[test]
    fn near_regular_rejects_bad_band() {
        let mut rng = SmallRng::seed_from_u64(9);
        assert!(random_near_regular(10, 4, 0.5, &mut rng).is_err());
        assert!(random_near_regular(10, 0, 2.0, &mut rng).is_err());
    }

    #[test]
    fn gnp_edge_count_is_plausible() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 400;
        let p = 0.02;
        let g = gnp(n, p, &mut rng).unwrap();
        let expected = (n * (n - 1) / 2) as f64 * p;
        let m = g.edge_count() as f64;
        assert!(
            (m - expected).abs() < 6.0 * expected.sqrt() + 10.0,
            "edge count {m} too far from expectation {expected}"
        );
        assert!(g.is_simple());
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(gnp(50, 0.0, &mut rng).unwrap().edge_count(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).unwrap().edge_count(), 45);
        assert!(gnp(10, 1.5, &mut rng).is_err());
        assert!(gnp(10, -0.1, &mut rng).is_err());
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let g1 = random_regular(128, 6, &mut SmallRng::seed_from_u64(42)).unwrap();
        let g2 = random_regular(128, 6, &mut SmallRng::seed_from_u64(42)).unwrap();
        assert_eq!(g1, g2);
        let g3 = random_regular(128, 6, &mut SmallRng::seed_from_u64(43)).unwrap();
        assert_ne!(g1, g3);
    }
}
