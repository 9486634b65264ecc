//! The bookkeeping every engine keeps besides its round mechanics.
//!
//! All three engines carry a membership census, an optional fault plan
//! and probe, a round number and a channel total, and close every round
//! by handing one [`RoundCounters`] to the probe: that is the [`Ledger`].
//! The two single-broadcast engines ([`SimState`](crate::SimState) and
//! [`AsyncSimState`](crate::AsyncSimState)) also keep a coverage
//! numerator, the coverage instant, push/pull totals, a stop reason and
//! the per-round history, and end in a [`RunReport`]: that is the
//! [`Tally`]. The multi-rumour engine keeps per-rumour coverage of its
//! own and uses only the [`Ledger`].
//!
//! Membership changes between rounds go through one transaction,
//! [`Ledger::apply_membership`], which fixes their order for both round
//! engines; an engine supplies only what it keeps per slot.
//!
//! Under `debug_assertions` every closed round recounts the coverage
//! numerator from the informed list and the census, and the census's own
//! counters from its slot flags, and checks them against the
//! incrementally maintained ones. It also checks each informed index's
//! position map against its list and, in the multi engine, the
//! reception-round groups of an oblivious protocol's lists.

use rand::Rng;
use rrb_graph::NodeId;

use crate::census::AliveCensus;
use crate::fabric::InformedIndex;
use crate::failure::FaultState;
use crate::report::{RunReport, StopReason};
use crate::telemetry::{BoxedProbe, PhaseClock, RoundCounters, StepPhase};
use crate::{FailureModel, Round, Topology};

/// The fault-plan and probe installers of all three engines, declared once
/// (each engine stores them in its `ledger` field).
macro_rules! ledger_installers {
    () => {
        /// Installs (or clears) an adversarial fault plan's runtime state.
        /// With `None` — the default — every code path and RNG draw is
        /// byte-identical to the pre-fault engine. Seed the
        /// [`FaultState`](crate::FaultState) from a reserved stream, not the
        /// main RNG (see its docs), and install it before running.
        pub fn set_faults(&mut self, faults: Option<crate::FaultState>) {
            self.ledger.faults = faults;
        }

        /// Installs (or clears) a telemetry probe (see [`crate::telemetry`]).
        /// Probes observe per-phase wall-clock and per-round counters; they
        /// never touch the RNG, so an instrumented run's random streams —
        /// and therefore its report — are byte-identical to a bare run.
        pub fn set_probe(&mut self, probe: Option<crate::BoxedProbe>) {
            self.ledger.probe = probe;
        }

        /// Removes and returns the installed probe, if any (the usual way to
        /// read accumulated telemetry back after a run).
        pub fn take_probe(&mut self) -> Option<crate::BoxedProbe> {
            self.ledger.probe.take()
        }
    };
}
pub(crate) use ledger_installers;

/// One churn step's membership changes as the overlay made them, borrowed
/// from the step's own lists (`rrb_p2p::ChurnEvents::delta`). A round
/// engine applies it between rounds with `apply_membership`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MembershipDelta<'a> {
    /// Slots that came alive on fresh ids (slot growth).
    pub joined: &'a [NodeId],
    /// Departed peers' slots recycled for newcomers.
    pub rejoined: &'a [NodeId],
    /// Slots whose peer left.
    pub left: &'a [NodeId],
}

impl MembershipDelta<'_> {
    /// One past the highest arriving slot (0 without arrivals): the slot
    /// count an engine grows to before the arrivals are reset.
    pub(crate) fn slot_end(&self) -> usize {
        self.joined.iter().chain(self.rejoined).map(|v| v.index() + 1).max().unwrap_or(0)
    }
}

/// What a membership transaction asks of an engine for one slot (see
/// [`Ledger::apply_membership`]).
pub(crate) enum SlotChange {
    /// A newcomer takes the slot: reset what the engine keeps for it.
    Arrive(usize),
    /// The slot's alive, uncrashed peer left: drop it from the coverage
    /// numerators it is counted in.
    Leave(usize),
}

/// What all three engines keep besides their round mechanics.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// Alive/crashed/suspended membership (see [`AliveCensus`]).
    pub(crate) census: AliveCensus,
    /// Installed fault plan's runtime state, applied at the top of every
    /// round; `None` (the default) is byte-identical to the pre-fault
    /// engine.
    pub(crate) faults: Option<FaultState>,
    /// Installed telemetry probe; with `None` (the default) rounds take no
    /// clock reads and no extra work of any kind.
    pub(crate) probe: Option<BoxedProbe>,
    /// The probe's phase stopwatch, armed by [`arm_clock`](Self::arm_clock)
    /// only while a probe is installed.
    clock: PhaseClock,
    /// The round in progress or last closed (0 before the first).
    pub(crate) round: Round,
    /// Channels opened over all closed rounds.
    pub(crate) channels: u64,
}

impl Ledger {
    /// Starts the phase stopwatch (a no-op without a probe).
    pub(crate) fn arm_clock(&mut self) {
        self.clock = PhaseClock::armed(self.probe.is_some());
    }

    /// Attributes the time since the last lap (or arming) to `phase`.
    pub(crate) fn lap(&mut self, phase: StepPhase) {
        self.clock.lap(&mut self.probe, phase);
    }

    /// The fault phase of round `self.round`, shared by all three engines:
    /// advances the installed fault plan (if any) on its reserved stream,
    /// applies its resume, suspend and crash events to the census (in that
    /// order), then runs the i.i.d. crash-stop sampling on the main stream
    /// `rng`. Returns the round's effective failure model — `base` with any
    /// active loss-window overrides.
    ///
    /// `informed_at` is the adversary's view of a node's earliest reception
    /// round; `on_crash(i)` runs for every node this phase crash-stops, so
    /// the engine can drop it from its coverage numerator(s).
    pub(crate) fn fault_phase<T, R, A, C>(
        &mut self,
        topo: &T,
        base: FailureModel,
        rng: &mut R,
        informed_at: A,
        mut on_crash: C,
    ) -> FailureModel
    where
        T: Topology + ?Sized,
        R: Rng + ?Sized,
        A: Fn(usize) -> Option<Round>,
        C: FnMut(usize),
    {
        let n = topo.node_count();
        let census = &mut self.census;
        let failures = match self.faults.as_mut() {
            Some(fs) => {
                let pool = &*census;
                fs.begin_round(
                    self.round,
                    n,
                    |i| topo.stubs(NodeId::new(i)).len(),
                    informed_at,
                    |i| pool.is_effective(i),
                );
                for &i in fs.resume_now() {
                    census.set_suspended(i as usize, false);
                }
                for &i in fs.suspend_now() {
                    census.set_suspended(i as usize, true);
                }
                for &i in fs.crash_now() {
                    let i = i as usize;
                    if census.is_alive(i) && !census.is_crashed(i) {
                        census.mark_crashed(i);
                        on_crash(i);
                    }
                }
                fs.effective(base)
            }
            None => base,
        };
        // Fail-stop nodes never recover. Gated on its own probability, so a
        // crash-only model draws here but keeps the draw-free exchange.
        if failures.node_crash > 0.0 {
            for i in 0..n {
                if !census.is_crashed(i) && census.is_alive(i) && failures.crashes_now(rng) {
                    census.mark_crashed(i);
                    on_crash(i);
                }
            }
        }
        failures
    }

    /// Closes the current round: completes `counters` with the round
    /// number, the transmission total and the census, adds its channels
    /// to the run total and hands it to the probe. Debug builds first
    /// recount the census counters from its slot flags.
    pub(crate) fn close_round(&mut self, mut counters: RoundCounters) -> RoundCounters {
        self.census.debug_check_counters();
        counters.round = self.round;
        counters.tx = counters.push_tx + counters.pull_tx;
        counters.alive = self.census.effective_alive();
        counters.suspended = self.census.suspended_count();
        self.channels += counters.channels;
        if let Some(p) = self.probe.as_deref_mut() {
            p.on_round(&counters);
        }
        counters
    }

    /// Applies one churn step's membership changes in the order the churn
    /// step made them: arrivals (`joined`, then `rejoined`), then `left`,
    /// so a slot recycled and left in the same step ends dead. A fresh
    /// slot is a recycled one with nothing to reset, so every arrival goes
    /// to `change` and then joins the census (which clears a departed
    /// peer's crash and suspension flags); an arrival is uninformed after
    /// its reset, so no numerator counts it. A leaver leaves the census
    /// and goes to `change` if it was alive and uncrashed. The engine has
    /// grown to [`slot_end`](MembershipDelta::slot_end) first. Debug
    /// builds recount the census counters afterwards.
    // rrb-lint: hot
    pub(crate) fn apply_membership(&mut self, delta: MembershipDelta<'_>, mut change: impl FnMut(SlotChange)) {
        for &v in delta.joined.iter().chain(delta.rejoined) {
            change(SlotChange::Arrive(v.index()));
            self.census.apply_join(v.index());
        }
        for &v in delta.left {
            if self.census.apply_leave(v.index()) {
                change(SlotChange::Leave(v.index()));
            }
        }
        self.census.debug_check_counters();
    }

    /// Alive, uncrashed nodes in `informed`, counted from scratch.
    pub(crate) fn count_effective(&self, informed: &InformedIndex) -> usize {
        informed.list().iter().filter(|&&i| self.census.is_effective(i as usize)).count()
    }

    /// Checks an incrementally maintained coverage numerator against a
    /// recount, and the informed index's structure: its position map
    /// against its list and, for a list grouped by reception round, the
    /// group ends (debug builds only).
    pub(crate) fn debug_check_informed(&self, informed: &InformedIndex, numerator: usize, groups: Option<&[u32]>) {
        if cfg!(debug_assertions) {
            let count = self.count_effective(informed);
            assert_eq!(count, numerator, "round {}: the coverage numerator drifted from the informed list", self.round);
            informed.check(groups, self.round);
        }
    }
}

/// What a single broadcast tallies toward its [`RunReport`], on top of
/// the engine's [`Ledger`].
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Informed nodes that are alive and uncrashed — the coverage
    /// numerator, maintained incrementally from census deltas.
    pub(crate) alive_informed: usize,
    /// Why the run stopped, once it has.
    pub(crate) stop: Option<StopReason>,
    full_coverage_at: Option<Round>,
    tx_at_coverage: Option<u64>,
    push_tx: u64,
    pull_tx: u64,
    history: Vec<RoundCounters>,
}

impl Tally {
    /// Takes the census snapshot on the first call, seeding the coverage
    /// numerator from `informed`; afterwards adopts new slots only.
    pub(crate) fn sync_census<T: Topology + ?Sized>(
        &mut self,
        ledger: &mut Ledger,
        topo: &T,
        informed: &InformedIndex,
    ) {
        if ledger.census.is_synced() {
            ledger.census.adopt_new_slots(topo);
        } else {
            ledger.census.sync_from(topo);
            self.alive_informed = ledger.count_effective(informed);
        }
    }

    /// Whether every alive, uncrashed node is informed now or was at some
    /// instant during a past round (under churn a joiner arriving after
    /// that instant must not retroactively un-cover the broadcast; the
    /// multi-rumour engine settles rumours by the same rule).
    pub(crate) fn covered(&self, ledger: &Ledger) -> bool {
        self.full_coverage_at.is_some()
            || self.alive_informed == ledger.census.effective_alive()
    }

    /// The coverage instant: the first time every alive, uncrashed node
    /// is informed, record the round and the transmissions so far,
    /// `pending_tx` of which belong to a round not yet closed. Returns
    /// whether this call recorded it.
    pub(crate) fn note_coverage(&mut self, ledger: &Ledger, pending_tx: u64) -> bool {
        if self.full_coverage_at.is_some()
            || self.alive_informed != ledger.census.effective_alive()
        {
            return false;
        }
        self.full_coverage_at = Some(ledger.round);
        self.tx_at_coverage = Some(self.push_tx + self.pull_tx + pending_tx);
        true
    }

    /// Closes the current round: adds its transmissions to the totals,
    /// records the coverage instant if it was reached (the `Coverage`
    /// phase), emits the counters through the [`Ledger`] and appends them
    /// to the history when asked.
    pub(crate) fn close_round(
        &mut self,
        ledger: &mut Ledger,
        mut counters: RoundCounters,
        informed: &InformedIndex,
        record_history: bool,
    ) -> RoundCounters {
        counters.informed = self.alive_informed;
        self.push_tx += counters.push_tx;
        self.pull_tx += counters.pull_tx;
        self.note_coverage(ledger, 0);
        ledger.debug_check_informed(informed, self.alive_informed, None);
        ledger.lap(StepPhase::Coverage);
        let counters = ledger.close_round(counters);
        if record_history {
            self.history.push(counters);
        }
        counters
    }

    /// Finalises the run into a [`RunReport`] (slots the topology gained
    /// since the last round are adopted first).
    pub(crate) fn into_report<T: Topology + ?Sized>(
        mut self,
        mut ledger: Ledger,
        topo: &T,
        informed: &InformedIndex,
    ) -> RunReport {
        self.sync_census(&mut ledger, topo, informed);
        RunReport {
            node_count: topo.node_count(),
            alive_count: ledger.census.effective_alive(),
            informed_count: self.alive_informed,
            rounds: ledger.round,
            full_coverage_at: self.full_coverage_at,
            tx_at_coverage: self.tx_at_coverage,
            push_tx: self.push_tx,
            pull_tx: self.pull_tx,
            channels: ledger.channels,
            stop: self.stop.unwrap_or(StopReason::RoundCap),
            history: self.history,
        }
    }
}
