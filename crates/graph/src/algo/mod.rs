//! Classic graph algorithms used by the experiments and by the proofs'
//! empirical counterparts: BFS distances, connectivity and components.

mod bfs;
mod components;

pub use bfs::bfs_distances;
pub use components::{connected_components, is_connected, ComponentLabels};
