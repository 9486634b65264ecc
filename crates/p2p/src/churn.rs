use rand::Rng;

use rrb_engine::MembershipDelta;
use rrb_graph::NodeId;

use crate::{Overlay, OverlayError};

/// Stochastic membership churn driver.
///
/// Each application step performs a random number of joins and leaves with
/// the configured expected rates (fractional rates accumulate across steps,
/// so `leaves_per_step = 0.25` departs one node every four steps on
/// average). A floor on the alive population prevents the overlay from
/// collapsing mid-experiment.
///
/// This models the dynamics §1 of the paper attributes to P2P networks
/// ("the structure … changes dynamically due to clients joining or leaving
/// the network") and drives robustness experiment E10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnProcess {
    /// Expected joins per step.
    pub joins_per_step: f64,
    /// Expected leaves per step.
    pub leaves_per_step: f64,
    /// Never drop below this many alive nodes.
    pub min_alive: usize,
    join_debt: f64,
    leave_debt: f64,
}

/// Counters of churn events actually applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnStats {
    /// Nodes that joined.
    pub joins: u64,
    /// Nodes that left.
    pub leaves: u64,
}

impl ChurnStats {
    /// Accumulates another batch of counters (per-run totals).
    pub fn absorb(&mut self, other: ChurnStats) {
        self.joins += other.joins;
        self.leaves += other.leaves;
    }
}

/// The membership events one churn step actually applied, as **node
/// lists** — the deltas an engine's alive census consumes exactly, rather
/// than mere counters. A step makes its joins before its leaves, so a
/// slot can arrive and leave in the same step; hand the step to a round
/// engine whole (`apply_membership` with [`delta`](Self::delta)), which
/// applies the lists in that order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChurnEvents {
    /// Slots that came alive this step on **fresh ids** (slot growth), in
    /// application order.
    pub joined: Vec<NodeId>,
    /// Slots that went dead this step, in application order.
    pub left: Vec<NodeId>,
    /// Slots **recycled** for a newcomer this step (only with the
    /// overlay's slot reuse enabled), in application order. The engines
    /// reset what they kept for the departed peer.
    pub rejoined: Vec<NodeId>,
}

impl ChurnEvents {
    /// Event counters (the old `ChurnStats` view of this step; rejoins
    /// count as joins).
    pub fn stats(&self) -> ChurnStats {
        ChurnStats {
            joins: (self.joined.len() + self.rejoined.len()) as u64,
            leaves: self.left.len() as u64,
        }
    }

    /// The step as a round engine's membership transaction, borrowing the
    /// lists.
    pub fn delta(&self) -> MembershipDelta<'_> {
        MembershipDelta { joined: &self.joined, rejoined: &self.rejoined, left: &self.left }
    }
}

impl ChurnProcess {
    /// Creates a churn process with symmetric join/leave rates.
    pub fn symmetric(rate_per_step: f64, min_alive: usize) -> Self {
        ChurnProcess {
            joins_per_step: rate_per_step,
            leaves_per_step: rate_per_step,
            min_alive,
            join_debt: 0.0,
            leave_debt: 0.0,
        }
    }

    /// Creates a churn process with distinct rates.
    pub fn new(joins_per_step: f64, leaves_per_step: f64, min_alive: usize) -> Self {
        ChurnProcess {
            joins_per_step,
            leaves_per_step,
            min_alive,
            join_debt: 0.0,
            leave_debt: 0.0,
        }
    }

    /// Applies one step of churn to `overlay`, returning the structured
    /// events applied so callers can feed the engines' alive census exactly
    /// (see [`ChurnEvents`]).
    ///
    /// # Errors
    ///
    /// Propagates overlay maintenance failures (they leave the overlay in a
    /// consistent state; partially applied events are reported).
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        overlay: &mut Overlay,
        rng: &mut R,
    ) -> Result<ChurnEvents, OverlayError> {
        let mut events = ChurnEvents::default();
        self.join_debt += self.joins_per_step;
        self.leave_debt += self.leaves_per_step;
        while self.join_debt >= 1.0 {
            self.join_debt -= 1.0;
            // Classify by slot growth: a join that did not extend the slot
            // space recycled a departed slot (overlay slot reuse).
            let slots = rrb_engine::Topology::node_count(overlay);
            let v = overlay.join(rng)?;
            if v.index() < slots {
                events.rejoined.push(v);
            } else {
                events.joined.push(v);
            }
        }
        while self.leave_debt >= 1.0 {
            self.leave_debt -= 1.0;
            if rrb_engine::Topology::alive_count(overlay) <= self.min_alive {
                break;
            }
            let victim = overlay.random_alive(rng);
            overlay.leave(victim, rng)?;
            events.left.push(victim);
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rrb_engine::Topology;

    #[test]
    fn symmetric_churn_keeps_size_stable() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut o = Overlay::random(64, 6, &mut rng).unwrap();
        let mut churn = ChurnProcess::symmetric(0.5, 16);
        let mut total = ChurnStats::default();
        for _ in 0..100 {
            let events = churn.step(&mut o, &mut rng).unwrap();
            total.absorb(events.stats());
            o.check_invariants().unwrap();
        }
        assert_eq!(total.joins, 50);
        assert_eq!(total.leaves, 50);
        assert_eq!(o.alive_count(), 64);
    }

    #[test]
    fn fractional_rates_accumulate() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut o = Overlay::random(32, 4, &mut rng).unwrap();
        let mut churn = ChurnProcess::new(0.25, 0.0, 8);
        let mut joins = 0;
        for _ in 0..8 {
            joins += churn.step(&mut o, &mut rng).unwrap().stats().joins;
        }
        assert_eq!(joins, 2);
        assert_eq!(o.alive_count(), 34);
    }

    #[test]
    fn events_name_the_exact_membership_deltas() {
        // The returned node lists must match the overlay's own view: every
        // joiner is a fresh alive slot, every leaver a now-dead one, and
        // the lists fully explain the alive-count change — exactly what the
        // engines' census hooks consume.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut o = Overlay::random(48, 6, &mut rng).unwrap();
        let mut churn = ChurnProcess::new(3.0, 2.0, 8);
        let before = o.alive_count();
        let slots_before = rrb_engine::Topology::node_count(&o);
        let events = churn.step(&mut o, &mut rng).unwrap();
        assert_eq!(events.joined.len(), 3);
        assert_eq!(events.left.len(), 2);
        assert_eq!(events.stats(), ChurnStats { joins: 3, leaves: 2 });
        for &v in &events.joined {
            assert!(v.index() >= slots_before, "joiner {v} must be a fresh slot");
            assert!(o.is_alive(v) || events.left.contains(&v));
        }
        for &v in &events.left {
            assert!(!o.is_alive(v), "leaver {v} still alive");
        }
        assert_eq!(
            o.alive_count() as i64 - before as i64,
            events.joined.len() as i64 - events.left.len() as i64
        );
    }

    #[test]
    fn slot_reuse_classifies_rejoins_and_bounds_growth() {
        // With overlay slot reuse on, symmetric churn must settle into a
        // steady state where joins recycle departed slots: after the
        // first few steps every join is a rejoin and the slot space stops
        // growing — the fix for unbounded slot growth on long churn runs.
        let mut rng = SmallRng::seed_from_u64(7);
        let mut o = Overlay::random(64, 6, &mut rng).unwrap().with_slot_reuse(true);
        let mut churn = ChurnProcess::symmetric(2.0, 32);
        let mut rejoins = 0u64;
        let mut fresh = 0u64;
        for step in 0..200 {
            let events = churn.step(&mut o, &mut rng).unwrap();
            rejoins += events.rejoined.len() as u64;
            fresh += events.joined.len() as u64;
            for &v in &events.rejoined {
                assert!(o.is_alive(v) || events.left.contains(&v));
            }
            assert_eq!(events.stats().joins, 2, "step {step}");
            o.check_invariants().unwrap();
        }
        assert_eq!(o.alive_count(), 64);
        assert!(fresh <= 4, "steady-state joins must recycle, {fresh} grew slots");
        assert_eq!(rejoins + fresh, 400);
        assert!(
            Topology::node_count(&o) <= 64 + 4,
            "slot space grew to {}",
            Topology::node_count(&o)
        );
    }

    #[test]
    fn floor_prevents_collapse() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut o = Overlay::random(16, 4, &mut rng).unwrap();
        let mut churn = ChurnProcess::new(0.0, 2.0, 12);
        for _ in 0..50 {
            churn.step(&mut o, &mut rng).unwrap();
        }
        assert_eq!(o.alive_count(), 12, "floor must hold");
    }
}
