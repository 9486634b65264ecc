use rand::Rng;

use crate::{Graph, GraphBuilder, GraphError, NodeId, Result};

/// Realises an arbitrary degree sequence as a random multigraph via the
/// configuration model: node `i` contributes `degrees[i]` stubs and a
/// uniformly random perfect matching on all stubs defines the edges.
///
/// This is the general form of the paper's §1.2 pairing process and also
/// powers [`random_near_regular`](super::random_near_regular), covering the
/// non-regular extension (degrees in `[d, c·d]`) the paper mentions.
///
/// # Errors
///
/// Returns [`GraphError::OddStubCount`] if the degree sum is odd.
///
/// # Examples
///
/// ```
/// use rand::{SeedableRng, rngs::SmallRng};
/// let mut rng = SmallRng::seed_from_u64(2);
/// let g = rrb_graph::gen::configuration_model_from_degrees(&[3, 3, 2, 2], &mut rng)?;
/// let mut degs: Vec<usize> = g.degrees().collect();
/// assert_eq!(degs, vec![3, 3, 2, 2]);
/// # Ok::<(), rrb_graph::GraphError>(())
/// ```
pub fn configuration_model_from_degrees<R: Rng + ?Sized>(
    degrees: &[usize],
    rng: &mut R,
) -> Result<Graph> {
    let edges = pair_stubs(degrees, rng)?;
    Ok(GraphBuilder::from_canonical_edges(degrees.len(), edges).build())
}

/// The stub pairing shared by every configuration-model generator: lays out
/// `degrees[i]` stubs for node `i`, draws a uniform perfect matching on them
/// and returns its edges canonicalised (`u <= v`) in matching order — the
/// edge list a [`GraphBuilder`] fed the same pairs would hold.
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

    #[test]
    fn realises_exact_degrees() {
        let mut rng = SmallRng::seed_from_u64(1);
        let want = vec![5, 4, 3, 2, 1, 1, 2, 2];
        let g = configuration_model_from_degrees(&want, &mut rng).unwrap();
        let got: Vec<usize> = g.degrees().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn rejects_odd_sum() {
        let mut rng = SmallRng::seed_from_u64(1);
        let err = configuration_model_from_degrees(&[1, 1, 1], &mut rng).unwrap_err();
        assert_eq!(err, GraphError::OddStubCount { stub_sum: 3 });
    }

    #[test]
    fn zero_length_sequence() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = configuration_model_from_degrees(&[], &mut rng).unwrap();
        assert!(g.is_empty());
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
            let g = configuration_model_from_degrees(&degs, &mut rng).unwrap();
            let got: Vec<usize> = g.degrees().collect();
            assert_eq!(got, degs);
        }
    }
}
