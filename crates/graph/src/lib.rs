//! Graph substrate for the `rrb` reproduction of *Efficient Randomised
//! Broadcasting in Random Regular Networks* (Berenbrink, Elsässer,
//! Friedetzky; PODC 2008).
//!
//! The paper analyses gossip on random `d`-regular graphs generated by the
//! **configuration model** (also called the pairing model, §1.2 of the
//! paper): every node starts with `d` stubs, and stubs are repeatedly paired
//! uniformly at random. This crate implements that generator faithfully
//! (including the self-loops and multi-edges the raw process can produce),
//! plus a repaired/simple variant, the classic topologies used by the related
//! work the paper compares against (complete graphs, hypercubes, `G(n,p)`),
//! the Cartesian product needed for the `G □ K5` counterexample from the
//! paper's conclusions, and the spectral machinery (second eigenvalue,
//! expander mixing lemma) that the lower-bound proof relies on.
//!
//! # Quick start
//!
//! ```
//! use rrb_graph::{gen, Graph, NodeId};
//! use rand::SeedableRng;
//! use rand::rngs::SmallRng;
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! // A random 8-regular multigraph on 1000 nodes via the pairing model.
//! let g: Graph = gen::configuration_model(1000, 8, &mut rng).unwrap();
//! assert_eq!(g.node_count(), 1000);
//! assert!(g.degrees().all(|d| d == 8));
//!
//! // A *simple* random regular graph (self-loops/multi-edges repaired away).
//! let g = gen::random_regular(1000, 8, &mut rng).unwrap();
//! assert!(g.is_simple());
//! assert!(rrb_graph::algo::is_connected(&g));
//! ```
//!
//! # Design notes
//!
//! * Graphs are immutable [CSR](Graph) structures; mutation happens through
//!   [`GraphBuilder`] or the dynamic overlay in `rrb-p2p`.
//! * Multigraphs are first-class: the pairing model produces them with
//!   probability `1 - e^{-O(d^2)}`, and the paper explicitly analyses the
//!   algorithm on the raw pairing output. A self-loop contributes **2** to
//!   the degree of its endpoint (it consumes two stubs).
//! * All randomness flows through caller-provided [`rand::Rng`] values so
//!   every experiment is reproducible from a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod csr;
mod error;
mod node;

pub mod algo;
pub mod gen;
pub mod spectral;

pub use builder::{graph_from_edges, GraphBuilder};
pub use csr::{EdgeIter, Graph, NeighborIter};
pub use error::GraphError;
pub use node::NodeId;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
