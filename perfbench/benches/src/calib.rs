//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are shared, and other tenants slow the
//! same broadcast by 1.3–1.5× for minutes at a time, which no statistic
//! taken within one run can remove. So the harness times a fixed kernel of
//! its own between measurements and scales every measured time by
//! [`NOMINAL_NS`] ÷ the kernel's time around it: a time reads as it would
//! on this host when it is quiet.
//!
//! The kernel is breadth-first flooding over a fixed pseudo-random
//! 8-out-regular graph of [`NODES`] nodes — loads, branches and a working
//! set the size of L2 — built and run by this module alone, so no change to
//! the crates under measurement can move it.

use crate::trace::now_ns;

/// Nodes of the calibration graph (its adjacency is 1 MiB).
pub const NODES: usize = 1 << 15;
/// Floods per calibration, from fixed sources.
const FLOODS: usize = 12;
/// The kernel's time on a quiet host: its 10th percentile over 90 s on a
/// 2-vCPU Intel Xeon (2 MiB L2 per core), where the median was 10.6 ms.
pub const NOMINAL_NS: f64 = 8.8e6;

/// The calibration kernel and its scratch space.
#[derive(Debug, Clone)]
pub struct Calibration {
    adj: Vec<u32>,
    seen: Vec<u64>,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// Builds the calibration graph (xorshift neighbours, fixed seed).
    pub fn new() -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let adj = (0..NODES * 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % NODES as u64) as u32
            })
            .collect();
        Calibration {
            adj,
            seen: vec![0; NODES.div_ceil(64)],
            frontier: Vec::with_capacity(NODES),
            next: Vec::with_capacity(NODES),
        }
    }

    /// Floods once from every fixed source; returns the nodes reached.
    pub fn run(&mut self) -> u64 {
        let mut reached = 0;
        for f in 0..FLOODS {
            self.seen.fill(0);
            let source = (f * 7919) % NODES;
            self.seen[source / 64] |= 1 << (source % 64);
            self.frontier.clear();
            self.frontier.push(source as u32);
            while !self.frontier.is_empty() {
                self.next.clear();
                for &u in &self.frontier {
                    let u = u as usize;
                    for &v in &self.adj[u * 8..u * 8 + 8] {
                        let (word, bit) = (v as usize / 64, 1u64 << (v % 64));
                        if self.seen[word] & bit == 0 {
                            self.seen[word] |= bit;
                            self.next.push(v);
                            reached += 1;
                        }
                    }
                }
                std::mem::swap(&mut self.frontier, &mut self.next);
            }
        }
        reached
    }

    /// Wall time of one [`run`](Self::run), in nanoseconds.
    pub fn measure_ns(&mut self) -> u64 {
        let t0 = now_ns();
        std::hint::black_box(self.run());
        now_ns() - t0
    }
}

/// The factor that scales a time measured between two calibrations
/// `before_ns` and `after_ns` to the quiet host.
pub fn speed_factor(before_ns: u64, after_ns: u64) -> f64 {
    NOMINAL_NS / ((before_ns + after_ns) as f64 / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let mut c = Calibration::new();
        let first = c.run();
        assert!(
            first > (FLOODS * NODES / 2) as u64,
            "floods reach most nodes"
        );
        assert_eq!(c.run(), first);
        assert_eq!(Calibration::new().run(), first);
    }

    #[test]
    fn a_slow_host_scales_times_down() {
        let nominal = NOMINAL_NS as u64;
        assert!((speed_factor(nominal, nominal) - 1.0).abs() < 1e-12);
        assert!((speed_factor(2 * nominal, 2 * nominal) - 0.5).abs() < 1e-12);
    }
}
