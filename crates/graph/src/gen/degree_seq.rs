use rand::Rng;

use crate::{GraphError, NodeId, Result};

/// The stub pairing shared by every configuration-model generator (the
/// paper's §1.2 pairing process): lays out `degrees[i]` stubs for node `i`,
/// draws a uniform perfect matching on them and returns its edges
/// canonicalised (`u <= v`) in matching order — the edge list a
/// [`GraphBuilder`](crate::GraphBuilder) fed the same pairs would hold.
///
/// # Errors
///
/// Returns [`GraphError::OddStubCount`] if the degree sum is odd.
pub(super) fn pair_stubs<R: Rng + ?Sized>(
    degrees: &[usize],
    rng: &mut R,
) -> Result<Vec<(NodeId, NodeId)>> {
    let stub_sum: usize = degrees.iter().sum();
    if stub_sum % 2 == 1 {
        return Err(GraphError::OddStubCount { stub_sum });
    }
    // Lay out stubs node-by-node, then draw a uniform perfect matching by
    // shuffling and pairing consecutive entries (equivalent to the paper's
    // sequential i.u.r. pairing).
    let mut stubs: Vec<u32> = Vec::with_capacity(stub_sum);
    for (node, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(node as u32, d));
    }
    shuffle(&mut stubs, rng);
    Ok(stubs
        .chunks_exact(2)
        .map(|pair| {
            let (u, v) = (NodeId::from_u32(pair[0]), NodeId::from_u32(pair[1]));
            if u <= v {
                (u, v)
            } else {
                (v, u)
            }
        })
        .collect())
}

/// Fisher–Yates shuffle. `rand::seq::SliceRandom::shuffle` exists, but an
/// explicit implementation keeps the stub-pairing process easy to audit
/// against the paper's description.
fn shuffle<R: Rng + ?Sized, T>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Tests whether a degree sequence is *graphical*, i.e. realisable by a
/// simple graph, via the Erdős–Gallai characterisation.
///
/// Sorting is done internally; the input order does not matter.
///
/// ```
/// assert!(rrb_graph::gen::is_graphical(&[3, 3, 3, 3]));      // K4
/// assert!(!rrb_graph::gen::is_graphical(&[3, 1, 1, 1, 1]));  // odd sum
/// assert!(!rrb_graph::gen::is_graphical(&[4, 4, 4, 1, 1]));  // fails Erdős–Gallai
/// ```
pub fn is_graphical(degrees: &[usize]) -> bool {
    let n = degrees.len();
    if n == 0 {
        return true;
    }
    let mut d: Vec<usize> = degrees.to_vec();
    d.sort_unstable_by(|a, b| b.cmp(a));
    if d[0] >= n {
        return false;
    }
    let total: usize = d.iter().sum();
    if total % 2 == 1 {
        return false;
    }
    // Erdős–Gallai: for each k, sum of k largest <= k(k-1) + sum_{i>k} min(d_i, k).
    let mut prefix = 0usize;
    for k in 1..=n {
        prefix += d[k - 1];
        let mut rhs = k * (k - 1);
        for &di in &d[k..] {
            rhs += di.min(k);
        }
        if prefix > rhs {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Per-node endpoint counts of a pairing (a self-loop counts twice,
    /// as in [`crate::Graph::degree`]).
    fn degrees_of(n: usize, edges: &[(NodeId, NodeId)]) -> Vec<usize> {
        let mut degrees = vec![0; n];
        for &(u, v) in edges {
            degrees[u.index()] += 1;
            degrees[v.index()] += 1;
        }
        degrees
    }

    #[test]
    fn realises_exact_degrees() {
        let mut rng = SmallRng::seed_from_u64(1);
        let want = vec![5, 4, 3, 2, 1, 1, 2, 2];
        let edges = pair_stubs(&want, &mut rng).unwrap();
        assert!(edges.iter().all(|&(u, v)| u <= v), "edges not canonical: {edges:?}");
        assert_eq!(degrees_of(want.len(), &edges), want);
    }

    #[test]
    fn rejects_odd_sum() {
        let mut rng = SmallRng::seed_from_u64(1);
        let err = pair_stubs(&[1, 1, 1], &mut rng).unwrap_err();
        assert_eq!(err, GraphError::OddStubCount { stub_sum: 3 });
    }

    #[test]
    fn zero_length_sequence() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(pair_stubs(&[], &mut rng).unwrap().is_empty());
    }

    #[test]
    fn erdos_gallai_known_cases() {
        assert!(is_graphical(&[]));
        assert!(is_graphical(&[0, 0, 0]));
        assert!(is_graphical(&[1, 1]));
        assert!(is_graphical(&[2, 2, 2]));            // triangle
        assert!(is_graphical(&[3, 3, 3, 3]));         // K4
        assert!(is_graphical(&[3, 2, 2, 2, 1]));
        assert!(!is_graphical(&[1]));                 // odd sum
        assert!(!is_graphical(&[4, 4, 4, 1, 1]));     // fails Erdős–Gallai at k=3
        assert!(!is_graphical(&[6, 1, 1, 1, 1, 1]));  // degree >= n
    }

    #[test]
    fn star_is_graphical() {
        assert!(is_graphical(&[5, 1, 1, 1, 1, 1]));
    }

    #[test]
    fn random_graphical_sequences_realise() {
        // Any even-sum sequence realises as a multigraph.
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..20 {
            let n = rng.gen_range(2..40);
            let mut degs: Vec<usize> = (0..n).map(|_| rng.gen_range(0..6)).collect();
            if degs.iter().sum::<usize>() % 2 == 1 {
                degs[0] += 1;
            }
            let edges = pair_stubs(&degs, &mut rng).unwrap();
            assert_eq!(degrees_of(n, &edges), degs);
        }
    }
}
