//! Per-node clock and per-channel latency models for the asynchronous
//! event-queue engine ([`AsyncSimState`](crate::AsyncSimState)).
//!
//! The round engines advance every node in lockstep; real deployments
//! (the related ad-hoc-networks schedules, gossip-interval timers) fire
//! each node on its **own** clock. A [`ClockSpec`] describes when a node
//! wakes to perform its push/pull exchange — fixed-interval ticks, a
//! Poisson process, or a heterogeneous mix with stragglers — and a
//! [`LatencySpec`] describes how long an individual rumour copy spends in
//! flight. Both are pure configuration; all sampling happens on the
//! run's main RNG stream in deterministic event order, so async runs are
//! seed-for-seed reproducible like their synchronous counterparts.

use rand::Rng;

/// When a node's next exchange fires, relative to its previous one.
///
/// The **uniform fixed-rate limit** (`Fixed { interval: 1.0 }` for every
/// node, zero latency) reproduces the synchronous round model: all nodes
/// fire at integer times, ties resolve `(node, tie_seq)`, and every
/// node's fire precedes its same-instant deliveries — the calibration
/// contract asserted by `tests/calibration.rs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClockSpec {
    /// Deterministic ticks every `interval` time units (first fire at
    /// `interval`). `interval: 1.0` is the round-model limit.
    Fixed {
        /// Gap between consecutive fires (time units; must be positive
        /// and finite).
        interval: f64,
    },
    /// Poisson clock: inter-fire gaps are i.i.d. exponential with the
    /// given rate (mean gap `1 / rate`) — the classical asynchronous
    /// gossip timing model.
    Exponential {
        /// Expected fires per time unit (must be positive and finite).
        rate: f64,
    },
    /// Heterogeneous Poisson clocks with stragglers: each node is
    /// independently slow with probability `slow_fraction` (drawn once at
    /// start-up), and slow nodes fire at `rate / slow_factor` — the
    /// node-speed skew the round model cannot express.
    Stragglers {
        /// Base rate of the fast majority (must be positive and finite).
        rate: f64,
        /// Probability a node is a straggler (in `[0, 1]`).
        slow_fraction: f64,
        /// How many times slower stragglers fire (must be ≥ 1).
        slow_factor: f64,
    },
}

impl ClockSpec {
    /// The round-model limit: every node ticks once per time unit.
    pub const UNIT: ClockSpec = ClockSpec::Fixed { interval: 1.0 };

    /// Panics with a named field when the spec is out of range (the
    /// scenario layer validates with `Result` at JSON parse time; this is
    /// the engine-level backstop for hand-constructed specs).
    pub fn assert_valid(&self) {
        match *self {
            ClockSpec::Fixed { interval } => {
                assert!(
                    interval.is_finite() && interval > 0.0,
                    "clock interval must be positive and finite"
                );
            }
            ClockSpec::Exponential { rate } => {
                assert!(rate.is_finite() && rate > 0.0, "clock rate must be positive and finite");
            }
            ClockSpec::Stragglers { rate, slow_fraction, slow_factor } => {
                assert!(rate.is_finite() && rate > 0.0, "clock rate must be positive and finite");
                assert!(
                    (0.0..=1.0).contains(&slow_fraction),
                    "clock slow_fraction must be in [0,1]"
                );
                assert!(
                    slow_factor.is_finite() && slow_factor >= 1.0,
                    "clock slow_factor must be >= 1"
                );
            }
        }
    }

}

/// How long an individual rumour copy spends in flight between the
/// exchange that sent it and the delivery that digests it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencySpec {
    /// Instant delivery (no RNG draw — the calibration limit).
    Zero,
    /// Every copy takes exactly `delay` time units.
    Fixed {
        /// In-flight time (must be ≥ 0 and finite).
        delay: f64,
    },
    /// Per-copy delay drawn uniformly from `[min, max]`.
    Uniform {
        /// Lower bound (must be ≥ 0).
        min: f64,
        /// Upper bound (must be ≥ `min` and finite).
        max: f64,
    },
    /// Per-copy delay drawn exponentially with the given mean.
    Exponential {
        /// Mean in-flight time (must be positive and finite).
        mean: f64,
    },
}

impl LatencySpec {
    /// Panics with a named field when the spec is out of range.
    pub fn assert_valid(&self) {
        match *self {
            LatencySpec::Zero => {}
            LatencySpec::Fixed { delay } => {
                assert!(delay.is_finite() && delay >= 0.0, "latency delay must be >= 0 and finite");
            }
            LatencySpec::Uniform { min, max } => {
                assert!(min.is_finite() && min >= 0.0, "latency min must be >= 0 and finite");
                assert!(max.is_finite() && max >= min, "latency max must be >= min and finite");
            }
            LatencySpec::Exponential { mean } => {
                assert!(
                    mean.is_finite() && mean > 0.0,
                    "latency mean must be positive and finite"
                );
            }
        }
    }

    /// Samples one copy's in-flight time. [`Zero`](LatencySpec::Zero)
    /// draws nothing from the RNG, so zero-latency runs take exactly the
    /// draw sequence of an engine without a latency dimension.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            LatencySpec::Zero => 0.0,
            LatencySpec::Fixed { delay } => delay,
            LatencySpec::Uniform { min, max } => {
                if max > min {
                    min + (max - min) * rng.gen::<f64>()
                } else {
                    min
                }
            }
            LatencySpec::Exponential { mean } => sample_exp(rng) * mean,
        }
    }
}

/// One unit-mean exponential draw: `-ln(1 - u)` with `u ∈ [0, 1)`, so the
/// argument stays in `(0, 1]` and the result is finite and ≥ 0.
#[inline]
fn sample_exp<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    -(1.0 - rng.gen::<f64>()).ln()
}

/// Runtime per-node clock state: the spec plus each node's speed class
/// (only the straggler model carries per-node state). Built once at the
/// start of an async run.
#[derive(Debug, Clone)]
pub(crate) struct NodeClocks {
    spec: ClockSpec,
    /// Straggler flags (empty unless the spec is
    /// [`ClockSpec::Stragglers`]).
    slow: Vec<bool>,
}

impl NodeClocks {
    /// Instantiates clocks for `node_count` nodes, drawing straggler
    /// membership (one Bernoulli per node, in node order) when the spec
    /// has one.
    pub(crate) fn new<R: Rng + ?Sized>(spec: ClockSpec, node_count: usize, rng: &mut R) -> Self {
        spec.assert_valid();
        let slow = match spec {
            ClockSpec::Stragglers { slow_fraction, .. } => (0..node_count)
                .map(|_| slow_fraction > 0.0 && rng.gen_bool(slow_fraction.min(1.0)))
                .collect(),
            _ => Vec::new(),
        };
        NodeClocks { spec, slow }
    }

    /// Effective rate of node `i` (fires per time unit).
    #[inline]
    fn rate_of(&self, i: usize) -> f64 {
        match self.spec {
            ClockSpec::Fixed { interval } => 1.0 / interval,
            ClockSpec::Exponential { rate } => rate,
            ClockSpec::Stragglers { rate, slow_factor, .. } => {
                if self.slow.get(i).copied().unwrap_or(false) {
                    rate / slow_factor
                } else {
                    rate
                }
            }
        }
    }

    /// Time of node `i`'s next fire after `now`. Fixed clocks tick
    /// deterministically (no draw); stochastic clocks take exactly one
    /// `f64` draw per call.
    #[inline]
    pub(crate) fn next_after<R: Rng + ?Sized>(&self, i: usize, now: f64, rng: &mut R) -> f64 {
        match self.spec {
            ClockSpec::Fixed { interval } => now + interval,
            _ => now + sample_exp(rng) / self.rate_of(i),
        }
    }

    /// Whether node `i` is a straggler (always `false` outside the
    /// straggler model).
    #[cfg(test)]
    pub(crate) fn is_slow(&self, i: usize) -> bool {
        self.slow.get(i).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_clock_ticks_exactly() {
        let mut rng = SmallRng::seed_from_u64(0);
        let clocks = NodeClocks::new(ClockSpec::UNIT, 4, &mut rng);
        let mut t = 0.0;
        for k in 1..=10 {
            t = clocks.next_after(2, t, &mut rng);
            assert_eq!(t, k as f64, "unit ticks must land on exact integers");
        }
    }

    #[test]
    fn exponential_gaps_have_the_right_mean() {
        let mut rng = SmallRng::seed_from_u64(1);
        let clocks = NodeClocks::new(ClockSpec::Exponential { rate: 2.0 }, 1, &mut rng);
        let mut sum = 0.0;
        let mut t = 0.0;
        for _ in 0..20_000 {
            let next = clocks.next_after(0, t, &mut rng);
            assert!(next >= t);
            sum += next - t;
            t = next;
        }
        let mean = sum / 20_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean gap {mean} for rate 2");
    }

    #[test]
    fn stragglers_fire_slower() {
        let mut rng = SmallRng::seed_from_u64(7);
        let spec = ClockSpec::Stragglers { rate: 1.0, slow_fraction: 0.5, slow_factor: 10.0 };
        let clocks = NodeClocks::new(spec, 256, &mut rng);
        let slow_count = (0..256).filter(|&i| clocks.is_slow(i)).count();
        assert!(
            (64..=192).contains(&slow_count),
            "fraction 0.5 over 256 nodes, saw {slow_count}"
        );
        let fast = (0..256).position(|i| !clocks.is_slow(i)).unwrap();
        let slow = (0..256).position(|i| clocks.is_slow(i)).unwrap();
        let mean_gap = |node: usize, rng: &mut SmallRng| {
            let mut sum = 0.0;
            let mut t = 0.0;
            for _ in 0..4000 {
                let next = clocks.next_after(node, t, rng);
                sum += next - t;
                t = next;
            }
            sum / 4000.0
        };
        let fast_gap = mean_gap(fast, &mut rng);
        let slow_gap = mean_gap(slow, &mut rng);
        assert!(
            slow_gap > 5.0 * fast_gap,
            "slow gap {slow_gap} vs fast gap {fast_gap} (factor 10 expected)"
        );
    }

    #[test]
    fn zero_latency_draws_nothing() {
        let mut a = SmallRng::seed_from_u64(3);
        let mut b = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(LatencySpec::Zero.sample(&mut a), 0.0);
        }
        // The stream is untouched: both generators still agree.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn latency_samples_stay_in_range() {
        let mut rng = SmallRng::seed_from_u64(4);
        let uni = LatencySpec::Uniform { min: 0.2, max: 0.7 };
        for _ in 0..1000 {
            let d = uni.sample(&mut rng);
            assert!((0.2..=0.7).contains(&d));
        }
        let exp = LatencySpec::Exponential { mean: 0.3 };
        let mut sum = 0.0;
        for _ in 0..20_000 {
            let d = exp.sample(&mut rng);
            assert!(d >= 0.0 && d.is_finite());
            sum += d;
        }
        let mean = sum / 20_000.0;
        assert!((mean - 0.3).abs() < 0.02, "exponential latency mean {mean}");
        assert_eq!(LatencySpec::Fixed { delay: 0.25 }.sample(&mut rng), 0.25);
    }

    #[test]
    #[should_panic(expected = "clock interval")]
    fn rejects_zero_interval() {
        ClockSpec::Fixed { interval: 0.0 }.assert_valid();
    }

    #[test]
    #[should_panic(expected = "slow_factor")]
    fn rejects_speedup_stragglers() {
        ClockSpec::Stragglers { rate: 1.0, slow_fraction: 0.1, slow_factor: 0.5 }.assert_valid();
    }

    #[test]
    #[should_panic(expected = "latency max")]
    fn rejects_inverted_latency_window() {
        LatencySpec::Uniform { min: 0.5, max: 0.1 }.assert_valid();
    }
}
