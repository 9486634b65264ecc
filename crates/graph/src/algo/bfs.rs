use std::collections::VecDeque;

use crate::{Graph, NodeId};

/// Breadth-first distances from `src`; `None` marks unreachable nodes.
///
/// Runs in `O(n + m)`.
///
/// ```
/// use rrb_graph::{algo, gen, NodeId};
/// let g = gen::path(4);
/// let d = algo::bfs_distances(&g, NodeId::new(0));
/// assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
/// ```
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<Option<u32>> {
    let n = g.node_count();
    let mut dist: Vec<Option<u32>> = vec![None; n];
    if src.index() >= n {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[src.index()] = Some(0);
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have distances");
        for &w in g.neighbors(u) {
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(du + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn distances_on_cycle() {
        let g = gen::cycle(6);
        let d = bfs_distances(&g, NodeId::new(0));
        let got: Vec<u32> = d.into_iter().map(|x| x.unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn unreachable_is_none() {
        let g = crate::builder::graph_from_edges(4, &[(0, 1)]).unwrap();
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d[1], Some(1));
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }
}
