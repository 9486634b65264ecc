//! Spectral and expansion diagnostics.
//!
//! The lower-bound proof (Theorem 1) leans on two facts about random
//! `d`-regular graphs: the second adjacency eigenvalue satisfies
//! `λ₂ ≤ 2√(d−1)·(1+o(1))` w.h.p. (Friedman \[18\]), and the Expander Mixing
//! Lemma \[23\] then pins the number of edges across every cut to within
//! `λ₂·√(|S||S̄|)` of its expectation. This module measures both quantities
//! on concrete samples (experiment E15), closing the loop between the
//! generator and the structural assumptions of the analysis.

use rand::Rng;

use crate::{Graph, GraphError, NodeId, Result};

/// Outcome of the power iteration for the second-largest adjacency
/// eigenvalue (in absolute value) of a regular graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SecondEigenvalue {
    /// Estimated `|λ₂|`.
    pub value: f64,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final Rayleigh-quotient residual `‖Ax − λx‖ / ‖x‖` (smaller = more
    /// converged).
    pub residual: f64,
}

impl SecondEigenvalue {
    /// Ratio of the estimate against the Ramanujan bound `2√(d−1)`; values
    /// near (or below) 1 certify near-optimal expansion.
    pub fn ramanujan_ratio(&self, d: usize) -> f64 {
        if d <= 1 {
            return f64::INFINITY;
        }
        self.value / (2.0 * ((d - 1) as f64).sqrt())
    }
}

/// Estimates the largest **absolute** non-principal adjacency eigenvalue of
/// a **regular** graph — `max(|λ₂|, |λ_n|)`, exactly the constant the
/// Expander Mixing Lemma uses — by power iteration with deflation of the
/// Perron vector (the all-ones vector in the regular case).
///
/// For bipartite graphs this returns `d` (the `−d` eigenvalue); random
/// regular graphs with `d ≥ 3` are non-bipartite w.h.p. and the estimate
/// matches Friedman's `2√(d−1)(1+o(1))` bound.
///
/// # Errors
///
/// * [`GraphError::EmptyGraph`] for graphs without nodes.
/// * [`GraphError::InvalidParameter`] if the graph is not regular (the
///   deflation step would be wrong) or `max_iters == 0`.
///
/// # Examples
///
/// ```
/// use rand::{SeedableRng, rngs::SmallRng};
/// use rrb_graph::{gen, spectral};
/// let mut rng = SmallRng::seed_from_u64(1);
/// let g = gen::random_regular(256, 6, &mut rng)?;
/// let l2 = spectral::second_eigenvalue(&g, 300, &mut rng)?;
/// // Friedman: λ₂ ≈ 2√(d−1) for random regular graphs.
/// assert!(l2.ramanujan_ratio(6) < 1.3);
/// # Ok::<(), rrb_graph::GraphError>(())
/// ```
pub fn second_eigenvalue<R: Rng + ?Sized>(
    g: &Graph,
    max_iters: usize,
    rng: &mut R,
) -> Result<SecondEigenvalue> {
    let n = g.node_count();
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if max_iters == 0 {
        return Err(GraphError::InvalidParameter { what: "max_iters must be positive" });
    }
    if g.regular_degree().is_none() {
        return Err(GraphError::InvalidParameter {
            what: "second_eigenvalue requires a regular graph",
        });
    }

    let mut x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    deflate_mean(&mut x);
    normalize(&mut x);

    let mut y = vec![0.0f64; n];
    let mut lambda = 0.0f64;
    let mut iterations = 0usize;
    for it in 0..max_iters {
        iterations = it + 1;
        multiply_adjacency(g, &x, &mut y);
        deflate_mean(&mut y);
        let norm = l2_norm(&y);
        if norm < 1e-300 {
            // x was (numerically) in the kernel; λ₂ ≈ 0.
            return Ok(SecondEigenvalue { value: 0.0, iterations, residual: 0.0 });
        }
        let new_lambda = norm; // ‖Ax‖ for unit x bounds |λ|; converges to it
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
        if (new_lambda - lambda).abs() <= 1e-10 * new_lambda.max(1.0) && it > 8 {
            lambda = new_lambda;
            break;
        }
        lambda = new_lambda;
    }

    // Residual ‖Ax − λx‖ with λ the Rayleigh quotient.
    multiply_adjacency(g, &x, &mut y);
    deflate_mean(&mut y);
    let rq: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
    let mut res = 0.0;
    for (xi, yi) in x.iter().zip(&y) {
        let diff = yi - rq * xi;
        res += diff * diff;
    }
    let _ = lambda; // norm-based estimate superseded by the Rayleigh quotient
    Ok(SecondEigenvalue { value: rq.abs(), iterations, residual: res.sqrt() })
}

/// One summary row of an Expander-Mixing-Lemma audit (see
/// [`expander_mixing_deviation`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixingSample {
    /// Size of the sampled set `S`.
    pub set_size: usize,
    /// Observed `|E(S, S̄)|`.
    pub cut_edges: usize,
    /// Expected `d·|S|·|S̄| / n`.
    pub expected: f64,
    /// `|observed − expected| / √(|S||S̄|)` — the mixing lemma bounds this by
    /// `λ₂`.
    pub normalized_deviation: f64,
}

/// Samples `samples` random vertex subsets and reports, for each, how far
/// the cut size deviates from the Expander Mixing Lemma's prediction.
///
/// For a `d`-regular graph with second eigenvalue `λ`, the lemma states
/// `| |E(S,S̄)| − d|S||S̄|/n | ≤ λ·√(|S||S̄|)`; the returned
/// `normalized_deviation`s should therefore all be ≤ the measured `λ₂`.
///
/// # Errors
///
/// * [`GraphError::EmptyGraph`] for graphs without nodes.
/// * [`GraphError::InvalidParameter`] if the graph is not regular.
pub fn expander_mixing_deviation<R: Rng + ?Sized>(
    g: &Graph,
    samples: usize,
    rng: &mut R,
) -> Result<Vec<MixingSample>> {
    let n = g.node_count();
    if n == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let d = g.regular_degree().ok_or(GraphError::InvalidParameter {
        what: "expander_mixing_deviation requires a regular graph",
    })? as f64;
    let mut out = Vec::with_capacity(samples);
    let mut in_set = vec![false; n];
    for _ in 0..samples {
        let size = rng.gen_range(1..n.max(2));
        in_set.iter_mut().for_each(|b| *b = false);
        // Random subset of the requested size via partial Fisher-Yates.
        let mut ids: Vec<usize> = (0..n).collect();
        for i in 0..size {
            let j = rng.gen_range(i..n);
            ids.swap(i, j);
            in_set[ids[i]] = true;
        }
        let cut = edge_boundary(g, &in_set);
        let s = size as f64;
        let sbar = (n - size) as f64;
        let expected = d * s * sbar / n as f64;
        let denom = (s * sbar).sqrt();
        out.push(MixingSample {
            set_size: size,
            cut_edges: cut,
            expected,
            normalized_deviation: (cut as f64 - expected).abs() / denom,
        });
    }
    Ok(out)
}

/// Number of edges with exactly one endpoint in the indicator set
/// (self-loops never cross a cut).
pub fn edge_boundary(g: &Graph, in_set: &[bool]) -> usize {
    g.edges()
        .filter(|&(u, v)| in_set[u.index()] != in_set[v.index()])
        .count()
}

fn multiply_adjacency(g: &Graph, x: &[f64], y: &mut [f64]) {
    for (v, yv) in y.iter_mut().enumerate().take(g.node_count()) {
        let mut acc = 0.0;
        for &w in g.neighbors(NodeId::new(v)) {
            acc += x[w.index()];
        }
        *yv = acc;
    }
}

fn deflate_mean(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    x.iter_mut().for_each(|v| *v -= mean);
}

fn l2_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

fn normalize(x: &mut [f64]) {
    let norm = l2_norm(x);
    if norm > 0.0 {
        x.iter_mut().for_each(|v| *v /= norm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn complete_graph_second_eigenvalue_is_one() {
        // K_n has spectrum {n-1, -1, ..., -1}: |λ₂| = 1.
        let g = gen::complete(30);
        let mut rng = SmallRng::seed_from_u64(2);
        let l2 = second_eigenvalue(&g, 200, &mut rng).unwrap();
        assert!((l2.value - 1.0).abs() < 1e-6, "got {}", l2.value);
    }

    #[test]
    fn even_cycle_is_bipartite_so_lambda_is_two() {
        // C_n (even n) is bipartite: the -2 eigenvalue dominates in absolute
        // value, and that is precisely the mixing-lemma constant.
        let g = gen::cycle(24);
        let mut rng = SmallRng::seed_from_u64(3);
        let l2 = second_eigenvalue(&g, 4000, &mut rng).unwrap();
        assert!((l2.value - 2.0).abs() < 1e-3, "got {}", l2.value);
    }

    #[test]
    fn odd_cycle_second_eigenvalue_is_2cos() {
        // C_n (odd) has non-principal eigenvalues 2cos(2πk/n); the largest in
        // absolute value is |2cos(π(n−1)/n)| = 2cos(π/n).
        let n = 25usize;
        let g = gen::cycle(n);
        let mut rng = SmallRng::seed_from_u64(3);
        let l2 = second_eigenvalue(&g, 8000, &mut rng).unwrap();
        let expect = 2.0 * (std::f64::consts::PI / n as f64).cos();
        assert!((l2.value - expect).abs() < 1e-3, "got {} want {expect}", l2.value);
    }

    #[test]
    fn hypercube_is_bipartite_so_lambda_is_dim() {
        // Q_dim has eigenvalues dim - 2k including -dim (bipartite).
        let g = gen::hypercube(4);
        let mut rng = SmallRng::seed_from_u64(4);
        let l2 = second_eigenvalue(&g, 2000, &mut rng).unwrap();
        assert!((l2.value - 4.0).abs() < 1e-4, "got {}", l2.value);
    }

    #[test]
    fn random_regular_is_near_ramanujan() {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = gen::random_regular(512, 6, &mut rng).unwrap();
        let l2 = second_eigenvalue(&g, 500, &mut rng).unwrap();
        let ratio = l2.ramanujan_ratio(6);
        assert!(ratio < 1.35, "λ₂ ratio too large: {ratio}");
        assert!(ratio > 0.5, "λ₂ ratio implausibly small: {ratio}");
    }

    #[test]
    fn rejects_irregular_and_empty() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(second_eigenvalue(&gen::complete(0), 10, &mut rng).is_err());
        assert!(second_eigenvalue(&gen::star(5), 10, &mut rng).is_err());
        assert!(second_eigenvalue(&gen::complete(4), 0, &mut rng).is_err());
    }

    #[test]
    fn edge_boundary_counts() {
        let g = gen::cycle(6);
        let mut in_set = vec![false; 6];
        in_set[0] = true;
        in_set[1] = true;
        in_set[2] = true;
        assert_eq!(edge_boundary(&g, &in_set), 2);
    }

    #[test]
    fn mixing_deviation_bounded_by_lambda2() {
        let mut rng = SmallRng::seed_from_u64(6);
        let g = gen::random_regular(256, 8, &mut rng).unwrap();
        let l2 = second_eigenvalue(&g, 400, &mut rng).unwrap();
        let samples = expander_mixing_deviation(&g, 40, &mut rng).unwrap();
        for s in samples {
            assert!(
                s.normalized_deviation <= l2.value * 1.05 + 0.2,
                "mixing deviation {} exceeds λ₂ {}",
                s.normalized_deviation,
                l2.value
            );
        }
    }
}
