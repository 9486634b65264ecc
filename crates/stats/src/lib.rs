//! Statistics for the experiment harness.
//!
//! The paper's claims are asymptotic (`O(log n)` time, `O(n log log n)`
//! transmissions, `Ω(n log n / log d)` lower bound); the experiments turn
//! Monte-Carlo runs at a ladder of sizes into those statements via
//! [`Summary`] aggregation, [`linear_regression`] against transformed axes
//! (`log2 n`, `log2 log2 n`), and [`Table`] rendering for the paper-style
//! output `rrb run` prints.
//!
//! ```
//! use rrb_stats::{fit_log2, Summary};
//!
//! // Rounds measured at n = 2^10..2^14 — linear in log2 n?
//! let ns = [1024.0, 2048.0, 4096.0, 8192.0, 16384.0];
//! let rounds = [21.0, 23.2, 25.1, 26.9, 29.0];
//! let fit = fit_log2(&ns, &rounds);
//! assert!(fit.r_squared > 0.98);       // excellent linear fit in log2 n
//! assert!((fit.slope - 2.0).abs() < 0.3);
//!
//! let s = Summary::from_slice(&rounds);
//! assert!((s.mean - 25.04).abs() < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod regression;
mod summary;
mod table;

pub use regression::{fit_log2, fit_loglog2, linear_regression, Fit};
pub use summary::Summary;
pub use table::Table;
