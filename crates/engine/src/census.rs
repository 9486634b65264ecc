//! The **alive census**: the engines' incrementally-maintained view of
//! which node slots currently host live, uncrashed peers.
//!
//! The paper's setting is a network whose membership "changes dynamically
//! due to clients joining or leaving" (§1). [`AliveCensus`] makes
//! aliveness first-class engine state:
//!
//! * it is **seeded** from the topology once (`sync_from` — `O(n)`, at
//!   construction or on the first round);
//! * afterwards every membership change arrives as a **delta**: crash-stop
//!   failures via [`mark_crashed`](AliveCensus::mark_crashed), and a churn
//!   step's arrivals and departures via [`apply_join`](AliveCensus::apply_join)
//!   and [`apply_leave`](AliveCensus::apply_leave). The round engines make
//!   those two calls only from one transaction, their `apply_membership`,
//!   which applies a step's arrivals (fresh and recycled slots alike)
//!   before its departures, the order the churn step made them in;
//! * the coverage denominator [`effective_alive`](AliveCensus::effective_alive)
//!   (alive ∧ uncrashed) and the crash count are maintained as counters, so
//!   per-round coverage checks are `O(1)` — no rescans, no frozen
//!   assumptions.
//!
//! **Contract**: once an engine's census is synced, aliveness flips on
//! *existing* slots must be reported as deltas. Slot *growth* is also
//! adopted automatically at the start of each round via
//! [`adopt_new_slots`](AliveCensus::adopt_new_slots), which reads only the
//! new slots' aliveness from the topology.

use rrb_graph::NodeId;

use crate::Topology;

/// Incrementally-maintained membership view shared by both engines: which
/// slots are alive, which crashed, and the derived counters the coverage
/// and retirement logic runs on. See the module docs for the sync/delta
/// contract.
#[derive(Debug, Clone, Default)]
pub struct AliveCensus {
    /// Per-slot aliveness (mirrors the topology under the delta contract).
    alive: Vec<bool>,
    /// Per-slot crash-stop flags ([`crate::FailureModel::node_crash`]):
    /// crashed nodes are permanently silent, deaf, and outside the
    /// coverage denominator.
    crashed: Vec<bool>,
    /// Per-slot **transient-outage** flags (the fault layer's
    /// [`OutageSpec`](crate::OutageSpec)): suspended nodes are silent and
    /// deaf like crashed ones, but recover with state intact and **stay in
    /// the coverage denominator** — coverage stalls while they are down.
    suspended: Vec<bool>,
    /// `crashed[i] || suspended[i]`, maintained on every flip — the single
    /// per-slot mask the channel fabric filters callers and callees by.
    blocked: Vec<bool>,
    /// Number of alive slots.
    alive_count: usize,
    /// Number of currently-suspended slots (telemetry counter).
    suspended_count: usize,
    /// Number of slots that are both alive and crashed (a crashed node
    /// that later *leaves* drops out of this counter too).
    crashed_alive: usize,
    /// Total crash-stop events so far (never decremented; departures do
    /// not un-crash history).
    crashed_total: usize,
    /// `true` once `sync_from` has run.
    synced: bool,
}

impl AliveCensus {
    /// Empty, unsynced census.
    pub fn new() -> Self {
        AliveCensus::default()
    }

    /// Whether the full snapshot has been taken yet.
    #[inline]
    pub fn is_synced(&self) -> bool {
        self.synced
    }

    /// Number of tracked slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// `true` when no slots are tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Takes the full `O(n)` aliveness snapshot from `topo`. Crash flags
    /// are preserved (a re-sync never un-crashes anyone); counters are
    /// rebuilt.
    pub fn sync_from<T: Topology + ?Sized>(&mut self, topo: &T) {
        let n = topo.node_count();
        self.alive.clear();
        self.alive.extend((0..n).map(|i| topo.is_alive(NodeId::new(i))));
        self.crashed.resize(n, false);
        self.suspended.resize(n, false);
        self.blocked.clear();
        self.blocked.extend((0..n).map(|i| self.crashed[i] || self.suspended[i]));
        self.alive_count = self.alive.iter().filter(|&&a| a).count();
        self.crashed_alive = (0..n).filter(|&i| self.alive[i] && self.crashed[i]).count();
        self.suspended_count = self.suspended.iter().filter(|&&s| s).count();
        self.synced = true;
    }

    /// Adopts slots the topology gained since the last sync (joins create
    /// fresh slots), reading only the *new* slots' aliveness — `O(growth)`.
    /// Slots already tracked are never re-read; their changes must arrive
    /// as deltas.
    pub fn adopt_new_slots<T: Topology + ?Sized>(&mut self, topo: &T) {
        let n = topo.node_count();
        for i in self.alive.len()..n {
            let alive = topo.is_alive(NodeId::new(i));
            self.alive.push(alive);
            self.crashed.push(false);
            self.suspended.push(false);
            self.blocked.push(false);
            self.alive_count += usize::from(alive);
        }
    }

    /// Whether slot `i` is alive (out-of-range slots are dead).
    #[inline]
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive.get(i).copied().unwrap_or(false)
    }

    /// Whether slot `i` has crash-stopped.
    #[inline]
    pub fn is_crashed(&self, i: usize) -> bool {
        self.crashed.get(i).copied().unwrap_or(false)
    }

    /// Alive and uncrashed — the nodes the coverage numerator counts.
    /// (A *suspended* node is still effective: it stays in the coverage
    /// accounting while transiently offline.)
    #[inline]
    pub fn is_effective(&self, i: usize) -> bool {
        self.is_alive(i) && !self.is_crashed(i)
    }

    /// Whether slot `i` is in a transient outage (suspended).
    #[inline]
    pub fn is_suspended(&self, i: usize) -> bool {
        self.suspended.get(i).copied().unwrap_or(false)
    }

    /// Alive, uncrashed **and not suspended** — the nodes that can open
    /// channels, transmit and receive this round.
    #[inline]
    pub fn is_participating(&self, i: usize) -> bool {
        self.is_effective(i) && !self.is_suspended(i)
    }

    /// Flips slot `i`'s transient-outage flag (state is otherwise kept —
    /// suspension is not a crash). Out-of-range slots are ignored.
    pub fn set_suspended(&mut self, i: usize, suspended: bool) {
        if i >= self.suspended.len() {
            return;
        }
        if self.suspended[i] != suspended {
            if suspended {
                self.suspended_count += 1;
            } else {
                self.suspended_count -= 1;
            }
        }
        self.suspended[i] = suspended;
        self.blocked[i] = self.crashed[i] || suspended;
    }

    /// Per-slot crashed-or-suspended flags — the mask of nodes that cannot
    /// participate in this round's communication.
    #[inline]
    pub fn blocked_slice(&self) -> &[bool] {
        &self.blocked
    }

    /// Number of alive slots.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Total crash-stop events so far (includes crashed nodes that later
    /// departed — the historical count the reports surface).
    #[inline]
    pub fn crashed_count(&self) -> usize {
        self.crashed_total
    }

    /// Alive, uncrashed nodes — the coverage denominator, maintained as a
    /// counter (`O(1)` per query).
    #[inline]
    pub fn effective_alive(&self) -> usize {
        self.alive_count - self.crashed_alive
    }

    /// Number of currently-suspended slots (`O(1)` from a counter).
    #[inline]
    pub fn suspended_count(&self) -> usize {
        self.suspended_count
    }

    /// Marks slot `i` crash-stopped; returns `true` iff it newly crashed.
    pub fn mark_crashed(&mut self, i: usize) -> bool {
        if self.crashed[i] {
            return false;
        }
        self.crashed[i] = true;
        self.blocked[i] = true;
        self.crashed_total += 1;
        if self.alive[i] {
            self.crashed_alive += 1;
        }
        true
    }

    /// Applies a join delta: slot `i` (growing the census if needed) now
    /// hosts a newcomer, a live peer that is neither crashed nor
    /// suspended. A recycled slot's crash and suspension flags belonged to
    /// the departed peer and are cleared, while
    /// [`crashed_count`](Self::crashed_count) keeps the historical event.
    /// Returns `true` iff the slot was newly brought alive.
    pub fn apply_join(&mut self, i: usize) -> bool {
        if i >= self.alive.len() {
            self.alive.resize(i + 1, false);
            self.crashed.resize(i + 1, false);
            self.suspended.resize(i + 1, false);
            self.blocked.resize(i + 1, false);
        }
        if self.crashed[i] {
            self.crashed_alive -= usize::from(self.alive[i]);
            self.crashed[i] = false;
        }
        if self.suspended[i] {
            self.suspended_count -= 1;
            self.suspended[i] = false;
        }
        self.blocked[i] = false;
        let newly_alive = !self.alive[i];
        self.alive[i] = true;
        self.alive_count += usize::from(newly_alive);
        newly_alive
    }

    /// Applies a leave delta: slot `i` no longer hosts a live peer.
    /// Returns `true` iff the slot was alive **and uncrashed** before — the
    /// case where the departure shrinks the coverage denominator (crashed
    /// slots already left it).
    pub fn apply_leave(&mut self, i: usize) -> bool {
        if i >= self.alive.len() || !self.alive[i] {
            return false;
        }
        self.alive[i] = false;
        self.alive_count -= 1;
        if self.crashed[i] {
            self.crashed_alive -= 1;
            false
        } else {
            true
        }
    }

    /// Recounts the alive, crashed-alive and suspended counters and the
    /// blocked mask from the per-slot flags and checks them against the
    /// maintained ones (debug builds only; `O(n)`).
    pub(crate) fn debug_check_counters(&self) {
        if cfg!(debug_assertions) {
            let alive = self.alive.iter().filter(|&&a| a).count();
            let crashed_alive = self.alive.iter().zip(&self.crashed).filter(|&(&a, &c)| a && c).count();
            let suspended = self.suspended.iter().filter(|&&s| s).count();
            assert_eq!(
                (self.alive_count, self.crashed_alive, self.suspended_count),
                (alive, crashed_alive, suspended),
                "census counters (alive, crashed alive, suspended) drifted from the slot flags"
            );
            let blocked = (0..self.blocked.len()).all(|i| self.blocked[i] == (self.crashed[i] || self.suspended[i]));
            assert!(blocked, "the census's blocked mask drifted from its crash and suspension flags");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrb_graph::gen;

    #[test]
    fn sync_snapshots_the_topology() {
        let g = gen::complete(8);
        let mut c = AliveCensus::new();
        assert!(!c.is_synced() && c.is_empty());
        c.sync_from(&g);
        assert!(c.is_synced());
        assert_eq!(c.len(), 8);
        assert_eq!(c.alive_count(), 8);
        assert_eq!(c.effective_alive(), 8);
        assert!(c.is_effective(3));
        assert!(!c.is_alive(99), "out-of-range slots are dead");
    }

    #[test]
    fn crash_and_leave_interaction_keeps_counters_exact() {
        let g = gen::complete(6);
        let mut c = AliveCensus::new();
        c.sync_from(&g);
        assert!(c.mark_crashed(2));
        assert!(!c.mark_crashed(2), "re-crash is a no-op");
        assert_eq!(c.effective_alive(), 5);
        assert_eq!(c.crashed_count(), 1);
        // A crashed node leaving must not double-shrink the denominator.
        assert!(!c.apply_leave(2), "crashed leaver already left the denominator");
        assert_eq!(c.alive_count(), 5);
        assert_eq!(c.effective_alive(), 5);
        assert_eq!(c.crashed_count(), 1, "history keeps the crash");
        // A healthy node leaving shrinks it by one.
        assert!(c.apply_leave(0));
        assert_eq!(c.effective_alive(), 4);
        assert!(!c.apply_leave(0), "double-leave is a no-op");
    }

    #[test]
    fn joins_grow_the_census() {
        let g = gen::complete(4);
        let mut c = AliveCensus::new();
        c.sync_from(&g);
        assert!(c.apply_join(6), "join beyond the tracked range grows it");
        assert_eq!(c.len(), 7);
        assert!(c.is_alive(6) && !c.is_alive(5));
        assert_eq!(c.alive_count(), 5);
        assert!(!c.apply_join(6), "re-join is a no-op");
        assert!(c.apply_leave(6));
        assert_eq!(c.alive_count(), 4);
    }

    #[test]
    fn suspension_blocks_participation_but_not_coverage() {
        let g = gen::complete(8);
        let mut c = AliveCensus::new();
        c.sync_from(&g);
        assert!(c.blocked_slice().iter().all(|&b| !b), "nothing blocked yet");
        c.set_suspended(3, true);
        assert!(c.is_suspended(3));
        assert!(c.is_effective(3), "suspended nodes stay in the denominator");
        assert!(!c.is_participating(3));
        assert!(c.blocked_slice()[3] && !c.is_crashed(3));
        assert_eq!(c.effective_alive(), 8, "suspension never shrinks the denominator");
        // Recovery restores participation with nothing else changed.
        c.set_suspended(3, false);
        assert!(c.is_participating(3));
        assert!(!c.blocked_slice()[3]);
        // A crash while suspended keeps the slot blocked after resume.
        c.set_suspended(5, true);
        assert!(c.mark_crashed(5));
        c.set_suspended(5, false);
        assert!(c.blocked_slice()[5], "crashed slots stay blocked");
        assert_eq!(c.effective_alive(), 7);
        // Out-of-range suspension is ignored.
        c.set_suspended(99, true);
        assert!(!c.is_suspended(99));
    }

    #[test]
    fn rejoin_recycles_a_slot_as_a_fresh_peer() {
        let g = gen::complete(6);
        let mut c = AliveCensus::new();
        c.sync_from(&g);
        // Peer at slot 2 crashes, then departs; its slot is recycled.
        assert!(c.mark_crashed(2));
        assert!(!c.apply_leave(2));
        assert_eq!(c.effective_alive(), 5);
        assert!(c.apply_join(2), "the join revives the slot");
        assert!(c.is_effective(2), "newcomer is not crashed");
        assert!(c.is_participating(2));
        assert_eq!(c.effective_alive(), 6, "denominator regains the slot");
        assert_eq!(c.crashed_count(), 1, "history keeps the old peer's crash");
        // A suspended peer departs; the newcomer in its slot is not
        // suspended.
        c.set_suspended(4, true);
        assert!(c.apply_leave(4));
        assert!(c.apply_join(4));
        assert!(!c.is_suspended(4) && !c.blocked_slice()[4]);
        assert_eq!(c.suspended_count(), 0);
        c.debug_check_counters();
    }

    #[test]
    fn adopt_new_slots_reads_only_growth() {
        struct HalfAlive(usize);
        impl Topology for HalfAlive {
            fn node_count(&self) -> usize {
                self.0
            }
            fn is_alive(&self, v: NodeId) -> bool {
                v.index().is_multiple_of(2)
            }
            fn stubs(&self, _v: NodeId) -> &[NodeId] {
                &[]
            }
        }
        let mut c = AliveCensus::new();
        c.sync_from(&HalfAlive(4));
        assert_eq!(c.alive_count(), 2);
        c.adopt_new_slots(&HalfAlive(8));
        assert_eq!(c.len(), 8);
        assert_eq!(c.alive_count(), 4);
        // Existing slots are never re-read: flipping one in the topology
        // without a delta leaves the census unchanged (the contract).
        c.adopt_new_slots(&HalfAlive(8));
        assert_eq!(c.alive_count(), 4);
    }
}
