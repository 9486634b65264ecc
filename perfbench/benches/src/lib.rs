//! The repository benchmark: four workloads over the rrb engines, timed
//! from outside through their public API.
//!
//! [`run::run`] executes one workload from a seed and returns its checks
//! and metrics; `src/main.rs` is the command line around it. See
//! `perfbench/README.md` for the workloads, the metrics and which layer
//! each per-layer metric attributes.

#![forbid(unsafe_code)]

pub mod calib;
pub mod check;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
