//! Random and deterministic graph generators.
//!
//! The centrepiece is the **configuration model** ([`configuration_model`]),
//! the exact process §1.2 of the paper uses to define random `d`-regular
//! graphs: give every node `d` stubs and repeatedly pair uniformly random
//! unmatched stubs. The raw output is a multigraph; [`random_regular`]
//! additionally repairs self-loops and parallel edges with degree-preserving
//! edge switchings, yielding a simple random regular graph.
//!
//! Deterministic topologies ([`complete`], [`hypercube`], [`cycle`], …) and
//! `G(n,p)` ([`gnp`]) cover the graph classes the related work in §1.1
//! evaluates, and [`cartesian_product`] supports the `G □ K5` counterexample
//! discussed in the paper's conclusions.

mod classic;
mod degree_seq;
mod preferential;
mod product;
mod random;

pub use classic::{complete, cycle, hypercube, path, star, torus};
pub use preferential::preferential_attachment;
pub use product::cartesian_product;
pub use random::{configuration_model, gnp, random_regular};
