use crate::{Graph, GraphError, NodeId, Result};

/// Incremental constructor for [`Graph`].
///
/// The builder accumulates an undirected edge list and compiles it into a
/// compressed sparse row [`Graph`] in `O(n + m)` with a counting sort.
/// Parallel edges and self-loops are accepted (they are meaningful under the
/// configuration model).
///
/// ```
/// use rrb_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(4);
/// for i in 0..4 {
///     b.add_edge(NodeId::new(i), NodeId::new((i + 1) % 4))?;
/// }
/// let cycle = b.build();
/// assert_eq!(cycle.regular_degree(), Some(2));
/// # Ok::<(), rrb_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `node_count` nodes and no edges.
    pub fn new(node_count: usize) -> Self {
        GraphBuilder { node_count, edges: Vec::new() }
    }

    /// Creates a builder with pre-allocated capacity for `edge_capacity`
    /// edges, useful when the final edge count is known (e.g. `nd/2` for a
    /// `d`-regular graph).
    pub fn with_capacity(node_count: usize, edge_capacity: usize) -> Self {
        GraphBuilder { node_count, edges: Vec::with_capacity(edge_capacity) }
    }

    /// Creates a builder holding `edges`, which must already be canonical
    /// (`u <= v`) and in range — the form [`add_edge`](Self::add_edge)
    /// stores — so generators that produce such lists skip re-checking them.
    pub(crate) fn from_canonical_edges(node_count: usize, edges: Vec<(NodeId, NodeId)>) -> Self {
        debug_assert!(edges.iter().all(|&(u, v)| u <= v && v.index() < node_count));
        GraphBuilder { node_count, edges }
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}`. Self-loops (`u == v`) and repeated
    /// edges are allowed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if either endpoint is not in
    /// `0..node_count`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<&mut Self> {
        for id in [u, v] {
            if id.index() >= self.node_count {
                return Err(GraphError::NodeOutOfRange {
                    index: id.index(),
                    node_count: self.node_count,
                });
            }
        }
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
        Ok(self)
    }

    /// Adds every edge from an iterator of index pairs.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] on the first out-of-range
    /// endpoint; edges before the failure remain recorded.
    pub fn extend_edges<I>(&mut self, iter: I) -> Result<&mut Self>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        for (u, v) in iter {
            self.add_edge(NodeId::new(u), NodeId::new(v))?;
        }
        Ok(self)
    }

    /// Compiles the accumulated edges into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        let n = self.node_count;
        let mut degree = vec![0u32; n];
        for &(u, v) in &self.edges {
            degree[u.index()] += 1;
            degree[v.index()] += 1; // self-loop counted twice, as intended
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![NodeId::default(); offsets[n] as usize];
        for &(u, v) in &self.edges {
            targets[cursor[u.index()] as usize] = v;
            cursor[u.index()] += 1;
            targets[cursor[v.index()] as usize] = u;
            cursor[v.index()] += 1;
        }
        Graph::from_parts(offsets, targets, self.edges)
    }
}

/// Builds a graph directly from a node count and an edge list of index pairs.
///
/// Convenience wrapper over [`GraphBuilder`] used pervasively in tests.
///
/// # Errors
///
/// Returns [`GraphError::NodeOutOfRange`] if any endpoint is out of range.
pub fn graph_from_edges(node_count: usize, edges: &[(usize, usize)]) -> Result<Graph> {
    let mut b = GraphBuilder::with_capacity(node_count, edges.len());
    b.extend_edges(edges.iter().copied())?;
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_path_graph() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(1)), 2);
        assert_eq!(g.neighbors(NodeId::new(1)), &[NodeId::new(0), NodeId::new(2)]);
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        let err = b.add_edge(NodeId::new(0), NodeId::new(5)).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfRange { index: 5, node_count: 2 });
    }

    #[test]
    fn canonicalises_edge_order() {
        let g = graph_from_edges(3, &[(2, 0)]).unwrap();
        assert_eq!(g.edge_slice(), &[(NodeId::new(0), NodeId::new(2))]);
    }

    #[test]
    fn with_capacity_matches_new() {
        let a = GraphBuilder::new(5);
        let b = GraphBuilder::with_capacity(5, 100);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(b.edge_count(), 0);
    }

    #[test]
    fn builder_is_chainable() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId::new(0), NodeId::new(1))
            .unwrap()
            .add_edge(NodeId::new(1), NodeId::new(2))
            .unwrap();
        assert_eq!(b.edge_count(), 2);
    }
}
