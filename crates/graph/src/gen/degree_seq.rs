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
