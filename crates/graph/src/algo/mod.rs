//! Classic graph algorithms used by the experiments and by the proofs'
//! empirical counterparts: BFS distances, connectivity, components and
//! diameter.

mod bfs;
mod components;

pub use bfs::{bfs_distances, diameter, double_sweep_lower_bound, eccentricity};
pub use components::{connected_components, is_connected, ComponentLabels};
