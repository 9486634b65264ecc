//! Classic graph algorithms used by the experiments and by the proofs'
//! empirical counterparts: BFS distances, connectivity, components,
//! diameter, and greedy matchings (the lower-bound proof of Theorem 1
//! extracts a linear-size matching from the uninformed set).

mod bfs;
mod components;
mod matching;

pub use bfs::{bfs_distances, diameter, double_sweep_lower_bound, eccentricity};
pub use components::{connected_components, is_connected, ComponentLabels};
pub use matching::greedy_maximal_matching;
