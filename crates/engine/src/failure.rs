use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::Round;

/// Stochastic failure injection for the communication layer.
///
/// The paper claims (abstract, §1) that the algorithm "efficiently handles
/// limited communication failures". This model covers the two natural
/// failure surfaces of the phone call model:
///
/// * **channel failures** — the whole bidirectional channel of a call is
///   dead for the round (models a failed connection establishment);
/// * **transmission failures** — an individual rumour copy is lost in
///   transit while the channel itself stays usable in the other direction.
///
/// Failures are sampled independently per channel / per transmission with
/// the given probabilities. [`FailureModel::NONE`] (the default) disables
/// injection entirely and skips all sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Probability that an opened channel is unusable this round.
    pub channel_failure: f64,
    /// Probability that an individual transmission over a live channel is
    /// dropped.
    pub transmission_failure: f64,
    /// Per-round probability that a node **crash-stops**: it permanently
    /// stops opening channels, transmitting and receiving. Crashed nodes
    /// are excluded from coverage accounting (they model fail-stop peers,
    /// as opposed to the graceful departures handled by the churn overlay).
    pub node_crash: f64,
}

impl FailureModel {
    /// No failures at all.
    pub const NONE: FailureModel =
        FailureModel { channel_failure: 0.0, transmission_failure: 0.0, node_crash: 0.0 };

    /// Channels fail independently with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)` — a failure probability of 1 would
    /// make every experiment trivially degenerate.
    pub fn channels(p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "channel failure probability must be in [0,1)");
        FailureModel { channel_failure: p, ..FailureModel::NONE }
    }

    /// Builder-style: set the channel failure rate on an existing model.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn with_channels(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "channel failure probability must be in [0,1)");
        self.channel_failure = p;
        self
    }

    /// Builder-style: set the transmission drop rate on an existing model.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn with_transmissions(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "transmission failure probability must be in [0,1)");
        self.transmission_failure = p;
        self
    }

    /// Transmissions are dropped independently with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn transmissions(p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "transmission failure probability must be in [0,1)");
        FailureModel { transmission_failure: p, ..FailureModel::NONE }
    }

    /// Nodes crash-stop independently with per-round probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn crashes(p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "node crash probability must be in [0,1)");
        FailureModel { node_crash: p, ..FailureModel::NONE }
    }

    /// Builder-style: add per-round node crashes to an existing model.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn with_crashes(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "node crash probability must be in [0,1)");
        self.node_crash = p;
        self
    }

    /// `true` when no failure sampling is needed.
    #[inline]
    pub fn is_none(&self) -> bool {
        self.channel_failure == 0.0 && self.transmission_failure == 0.0 && self.node_crash == 0.0
    }

    /// Samples whether a node crash-stops this round.
    #[inline]
    pub fn crashes_now<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.node_crash > 0.0 && rng.gen_bool(self.node_crash)
    }

    /// Samples whether a freshly opened channel survives.
    #[inline]
    pub fn channel_ok<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.channel_failure == 0.0 || !rng.gen_bool(self.channel_failure)
    }

    /// Samples whether a single transmission over a live channel arrives.
    #[inline]
    pub fn transmission_ok<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.transmission_failure == 0.0 || !rng.gen_bool(self.transmission_failure)
    }
}

impl Default for FailureModel {
    fn default() -> Self {
        FailureModel::NONE
    }
}

/// Parameters of a **Gilbert–Elliott** two-state (good/bad) burst-loss
/// chain. Each node carries two independent chains — one for its outgoing
/// channel ends, one for its incoming ends — so loss is *correlated in
/// time* (bad states persist across rounds) and *correlated across the
/// channels of a node* (every channel touching a bad end suffers), unlike
/// the i.i.d. [`FailureModel::channel_failure`] draws.
///
/// A channel `i → w` is lost with probability
/// `1 − (1 − loss(state_out(i))) · (1 − loss(state_in(w)))`, combined with
/// any baseline i.i.d. channel failure rate. Chains start in the good
/// state and advance once per round on the fault layer's **reserved RNG
/// stream** (exactly `2n` draws per round), so the main simulation stream
/// is untouched and runs stay seed-for-seed reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-round probability of a good→bad transition.
    pub p_gb: f64,
    /// Per-round probability of a bad→good transition (recovery).
    pub p_bg: f64,
    /// Channel-end loss probability while in the good state.
    pub loss_good: f64,
    /// Channel-end loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// Validated constructor.
    ///
    /// # Panics
    ///
    /// Panics unless `p_gb`/`p_bg` are in `[0, 1]` and the loss rates are
    /// in `[0, 1]` (a bad state may be a total outage).
    pub fn new(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64) -> Self {
        for (name, p) in
            [("p_gb", p_gb), ("p_bg", p_bg), ("loss_good", loss_good), ("loss_bad", loss_bad)]
        {
            assert!((0.0..=1.0).contains(&p), "Gilbert–Elliott {name} must be in [0,1]");
        }
        GilbertElliott { p_gb, p_bg, loss_good, loss_bad }
    }

    /// Loss probability of one channel end in the given state.
    #[inline]
    fn loss(&self, bad: bool) -> f64 {
        if bad {
            self.loss_bad
        } else {
            self.loss_good
        }
    }
}

/// One deterministic, round-keyed event of a scripted fault schedule.
/// All windows are half-open `[from, until)` in global rounds (the first
/// simulated round is 1).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Split the overlay into `parts` components for rounds
    /// `[from, until)`, then heal. Node `i` belongs to component
    /// `i mod parts`; channels across components fail to establish (no
    /// cost, no RNG draw — like calling a crashed peer).
    Partition {
        /// First round the partition is active.
        from: Round,
        /// First round after the heal.
        until: Round,
        /// Number of components.
        parts: u32,
    },
    /// Crash-stop the listed nodes at round `at` (already-crashed or dead
    /// entries are ignored).
    CrashNodes {
        /// Round at which the crash fires.
        at: Round,
        /// Node indices to crash.
        nodes: Vec<u32>,
    },
    /// Override the i.i.d. loss rates during `[from, until)`; `None`
    /// leaves the base model's rate in force. Models a lossy spell
    /// ("raise transmission loss to q during a window").
    LossWindow {
        /// First round of the lossy window.
        from: Round,
        /// First round after the window.
        until: Round,
        /// Channel failure rate during the window, if overridden.
        channel: Option<f64>,
        /// Transmission drop rate during the window, if overridden.
        transmission: Option<f64>,
    },
}

/// Targeting rule of the budget-limited adversary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryTarget {
    /// Crash the highest-degree alive nodes (hub removal); ties break
    /// towards the lower node index.
    HighestDegree,
    /// Crash the earliest-informed alive nodes (the rumour's oldest
    /// carriers, origin first); ties break towards the lower index.
    EarliestInformed,
}

/// A budget-limited adversary that **crash-stops** targeted nodes each
/// round. Selection is deterministic (no RNG): among eligible nodes it
/// takes the top `per_round` by the targeting rule until `budget` total
/// crashes have been spent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversarySpec {
    /// What the adversary aims at.
    pub target: AdversaryTarget,
    /// Crashes per round (subject to the remaining budget).
    pub per_round: usize,
    /// Total crash budget over the whole run.
    pub budget: usize,
    /// First round the adversary acts (default 1 — immediately).
    pub from_round: Round,
}

impl AdversarySpec {
    /// Adversary with the given rule, per-round strength and total budget,
    /// acting from round 1.
    pub fn new(target: AdversaryTarget, per_round: usize, budget: usize) -> Self {
        AdversarySpec { target, per_round, budget, from_round: 1 }
    }
}

/// Transient-outage model: each round every *up* node goes silent with
/// probability `rate` for a duration drawn uniformly from
/// `[min_down, max_down]` rounds, then recovers **with state intact** —
/// the census's `suspended` mode, distinct from crash-stop. Suspended
/// nodes open no channels, transmit nothing, receive nothing, and their
/// protocol state is frozen, but they stay in the coverage denominator:
/// coverage stalls while they are down and resumes on recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageSpec {
    /// Per-node per-round suspension probability.
    pub rate: f64,
    /// Minimum outage length in rounds (inclusive, clamped to ≥ 1).
    pub min_down: Round,
    /// Maximum outage length in rounds (inclusive).
    pub max_down: Round,
}

impl OutageSpec {
    /// Validated constructor.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is in `[0, 1)` and `min_down <= max_down`.
    pub fn new(rate: f64, min_down: Round, max_down: Round) -> Self {
        assert!((0.0..1.0).contains(&rate), "outage rate must be in [0,1)");
        assert!(min_down <= max_down, "outage min_down must not exceed max_down");
        OutageSpec { rate, min_down: min_down.max(1), max_down: max_down.max(1) }
    }
}

/// A full adversarial fault plan: correlated burst loss, a scripted event
/// schedule, targeted crashes, and transient outages, layered on top of a
/// (possibly zero) baseline [`FailureModel`]. The plan itself is pure
/// configuration; per-run state lives in [`FaultState`].
///
/// An empty plan ([`FaultPlan::default`]) injects nothing and leaves every
/// engine code path and RNG stream byte-identical to a run without a
/// plan installed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Correlated/bursty channel loss (Gilbert–Elliott chains).
    pub burst: Option<GilbertElliott>,
    /// Deterministic round-keyed events.
    pub schedule: Vec<FaultEvent>,
    /// Budget-limited targeted crashes.
    pub adversary: Option<AdversarySpec>,
    /// Transient node outages.
    pub outages: Option<OutageSpec>,
}

impl FaultPlan {
    /// `true` when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.burst.is_none()
            && self.schedule.is_empty()
            && self.adversary.is_none()
            && self.outages.is_none()
    }

    /// The round after the **last scripted partition heals**, if the
    /// schedule contains one — the reference point for the
    /// graceful-degradation `recovery_rounds` metric (rounds from heal to
    /// full coverage).
    pub fn heal_round(&self) -> Option<Round> {
        self.schedule
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Partition { until, .. } => Some(*until),
                _ => None,
            })
            .max()
    }
}

/// Per-channel fault view handed to the channel fabric for one round:
/// partition connectivity plus burst-loss state. Borrowed from
/// [`FaultState`] after [`FaultState::begin_round`].
pub(crate) struct FaultChannelView<'a> {
    /// Active partition component count, if any.
    parts: Option<u32>,
    /// Burst chain parameters and per-node out/in bad-state flags.
    burst: Option<(GilbertElliott, &'a [bool], &'a [bool])>,
}

impl FaultChannelView<'_> {
    /// Whether caller `i` and callee `w` are in the same partition
    /// component (always true with no active partition).
    #[inline]
    pub(crate) fn connects(&self, i: usize, w: usize) -> bool {
        match self.parts {
            Some(k) => (i as u32) % k == (w as u32) % k,
            None => true,
        }
    }

    /// Whether per-channel loss draws are needed (burst chains present).
    #[inline]
    pub(crate) fn lossy(&self) -> bool {
        self.burst.is_some()
    }

    /// Extra loss probability of channel `i → w` from the burst states of
    /// `i`'s outgoing end and `w`'s incoming end.
    #[inline]
    pub(crate) fn burst_loss(&self, i: usize, w: usize) -> f64 {
        match &self.burst {
            Some((ge, out_bad, in_bad)) => {
                let a = ge.loss(out_bad[i]);
                let b = ge.loss(in_bad[w]);
                1.0 - (1.0 - a) * (1.0 - b)
            }
            None => 0.0,
        }
    }
}

/// Runtime state of a [`FaultPlan`] for one run: burst chain states, the
/// active partition/loss window, outage timers, the adversary's remaining
/// budget, and the per-round node-event buffers the engine applies.
///
/// All stochastic decisions (burst transitions, outage onsets and
/// durations) are drawn from an **internal reserved-stream RNG** seeded at
/// construction — never from the simulation's main stream — so installing
/// a plan whose stochastic parts are disabled leaves the main stream
/// byte-identical, and fault randomness is invariant under seed-
/// replication threading.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    /// Reserved-stream RNG (see type docs).
    rng: SmallRng,
    /// Per-node bad-state flags of the outgoing-end burst chains.
    out_bad: Vec<bool>,
    /// Per-node bad-state flags of the incoming-end burst chains.
    in_bad: Vec<bool>,
    /// Outage recovery round per node (0 = up).
    resume_at: Vec<Round>,
    /// Component count of the currently active partition, if any.
    active_parts: Option<u32>,
    /// Active loss-window overrides.
    channel_override: Option<f64>,
    transmission_override: Option<f64>,
    /// Remaining adversary crash budget.
    budget_left: usize,
    // Per-round outputs (engine applies them after `begin_round`).
    crash_now: Vec<u32>,
    suspend_now: Vec<u32>,
    resume_now: Vec<u32>,
    /// Adversary candidate scratch: (sort key, node index).
    cand: Vec<(u64, u32)>,
}

impl FaultState {
    /// Instantiates runtime state for `plan` over `node_count` slots,
    /// seeding the reserved fault stream from `seed` (derive it from the
    /// run's seed coordinates, *not* from the main RNG, to keep streams
    /// independent).
    pub fn new(plan: &FaultPlan, node_count: usize, seed: u64) -> Self {
        let chains = if plan.burst.is_some() { node_count } else { 0 };
        let timers = if plan.outages.is_some() { node_count } else { 0 };
        FaultState {
            budget_left: plan.adversary.map_or(0, |a| a.budget),
            plan: plan.clone(),
            rng: SmallRng::seed_from_u64(seed),
            out_bad: vec![false; chains],
            in_bad: vec![false; chains],
            resume_at: vec![0; timers],
            active_parts: None,
            channel_override: None,
            transmission_override: None,
            crash_now: Vec::new(),
            suspend_now: Vec::new(),
            resume_now: Vec::new(),
            cand: Vec::new(),
        }
    }

    /// The installed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether burst chains are active (forces the fabric's slow path).
    #[inline]
    pub(crate) fn bursty(&self) -> bool {
        self.plan.burst.is_some()
    }

    /// Advances the plan to round `t`: steps the burst chains (exactly
    /// `2·node_count` reserved-stream draws when enabled), samples outage
    /// onsets/recoveries, activates scripted events, and selects the
    /// adversary's victims. The engine must then apply
    /// [`resume_now`](Self::resume_now), [`suspend_now`](Self::suspend_now)
    /// and [`crash_now`](Self::crash_now) to its census (in that order)
    /// before sampling the round's channels.
    ///
    /// `degree_of` reports a node's overlay degree, `informed_at` its
    /// earliest rumour-reception round (engine clock), and `eligible`
    /// whether it is alive and uncrashed — the adversary's target pool.
    pub fn begin_round<D, A, E>(
        &mut self,
        t: Round,
        node_count: usize,
        degree_of: D,
        informed_at: A,
        eligible: E,
    ) where
        D: Fn(usize) -> usize,
        A: Fn(usize) -> Option<Round>,
        E: Fn(usize) -> bool,
    {
        self.crash_now.clear();
        self.suspend_now.clear();
        self.resume_now.clear();

        // Burst chains: a fixed 2n draw schedule per round, independent of
        // state, so the reserved stream is position-stable.
        if let Some(ge) = self.plan.burst {
            self.out_bad.resize(node_count, false);
            self.in_bad.resize(node_count, false);
            for i in 0..node_count {
                let p = if self.out_bad[i] { ge.p_bg } else { ge.p_gb };
                if p > 0.0 && self.rng.gen_bool(p) {
                    self.out_bad[i] = !self.out_bad[i];
                }
                let p = if self.in_bad[i] { ge.p_bg } else { ge.p_gb };
                if p > 0.0 && self.rng.gen_bool(p) {
                    self.in_bad[i] = !self.in_bad[i];
                }
            }
        }

        // Transient outages: recoveries first (a node whose timer expires
        // this round is up again and immediately re-drawable), then onsets.
        if let Some(out) = self.plan.outages {
            self.resume_at.resize(node_count, 0);
            for i in 0..node_count {
                if self.resume_at[i] != 0 && self.resume_at[i] <= t {
                    self.resume_at[i] = 0;
                    self.resume_now.push(i as u32);
                }
                if self.resume_at[i] == 0 && out.rate > 0.0 && self.rng.gen_bool(out.rate) {
                    let down = self.rng.gen_range(out.min_down..=out.max_down).max(1);
                    self.resume_at[i] = t + down;
                    self.suspend_now.push(i as u32);
                }
            }
        }

        // Scripted schedule: recompute the active windows from scratch
        // (schedules are short) and fire round-keyed crash sets.
        self.active_parts = None;
        self.channel_override = None;
        self.transmission_override = None;
        for ev in &self.plan.schedule {
            match ev {
                FaultEvent::Partition { from, until, parts } => {
                    if (*from..*until).contains(&t) {
                        self.active_parts = Some((*parts).max(1));
                    }
                }
                FaultEvent::CrashNodes { at, nodes } => {
                    if *at == t {
                        self.crash_now.extend_from_slice(nodes);
                    }
                }
                FaultEvent::LossWindow { from, until, channel, transmission } => {
                    if (*from..*until).contains(&t) {
                        if channel.is_some() {
                            self.channel_override = *channel;
                        }
                        if transmission.is_some() {
                            self.transmission_override = *transmission;
                        }
                    }
                }
            }
        }

        // Adversary: deterministic top-k selection, no RNG.
        if let Some(adv) = self.plan.adversary {
            if t >= adv.from_round && self.budget_left > 0 && adv.per_round > 0 {
                self.cand.clear();
                for i in 0..node_count {
                    if !eligible(i) || self.crash_now.contains(&(i as u32)) {
                        continue;
                    }
                    let key = match adv.target {
                        AdversaryTarget::HighestDegree => u64::MAX - degree_of(i) as u64,
                        AdversaryTarget::EarliestInformed => match informed_at(i) {
                            Some(at) => at as u64,
                            None => continue,
                        },
                    };
                    self.cand.push((key, i as u32));
                }
                let k = adv.per_round.min(self.budget_left).min(self.cand.len());
                if k > 0 {
                    self.cand.sort_unstable();
                    self.cand.truncate(k);
                    for &(_, i) in self.cand.iter() {
                        self.crash_now.push(i);
                    }
                    self.budget_left -= k;
                }
            }
        }
    }

    /// Effective i.i.d. failure rates for this round: the base model with
    /// any active loss-window overrides applied.
    pub fn effective(&self, base: FailureModel) -> FailureModel {
        FailureModel {
            channel_failure: self.channel_override.unwrap_or(base.channel_failure),
            transmission_failure: self
                .transmission_override
                .unwrap_or(base.transmission_failure),
            node_crash: base.node_crash,
        }
    }

    /// Nodes to crash-stop this round (scripted sets, then the adversary's
    /// picks), in application order.
    pub fn crash_now(&self) -> &[u32] {
        &self.crash_now
    }

    /// Nodes whose transient outage starts this round.
    pub fn suspend_now(&self) -> &[u32] {
        &self.suspend_now
    }

    /// Nodes whose transient outage ends this round.
    pub fn resume_now(&self) -> &[u32] {
        &self.resume_now
    }

    /// Remaining adversary crash budget.
    pub fn adversary_budget_left(&self) -> usize {
        self.budget_left
    }

    /// The per-channel view for the fabric, if any channel-level fault
    /// dimension is active this round.
    pub(crate) fn channel_view(&self) -> Option<FaultChannelView<'_>> {
        if self.active_parts.is_none() && self.plan.burst.is_none() {
            return None;
        }
        Some(FaultChannelView {
            parts: self.active_parts,
            burst: self.plan.burst.map(|ge| (ge, &self.out_bad[..], &self.in_bad[..])),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn none_never_fails() {
        let mut rng = SmallRng::seed_from_u64(0);
        let f = FailureModel::NONE;
        assert!(f.is_none());
        for _ in 0..100 {
            assert!(f.channel_ok(&mut rng));
            assert!(f.transmission_ok(&mut rng));
            assert!(!f.crashes_now(&mut rng));
        }
    }

    #[test]
    fn crash_rate_is_respected() {
        let mut rng = SmallRng::seed_from_u64(5);
        let f = FailureModel::crashes(0.05);
        assert!(!f.is_none());
        let crashes = (0..20_000).filter(|_| f.crashes_now(&mut rng)).count();
        let rate = crashes as f64 / 20_000.0;
        assert!((rate - 0.05).abs() < 0.01, "observed crash rate {rate}");
    }

    #[test]
    fn with_crashes_composes() {
        let f = FailureModel::channels(0.1).with_crashes(0.01);
        assert_eq!(f.channel_failure, 0.1);
        assert_eq!(f.node_crash, 0.01);
        assert_eq!(f.transmission_failure, 0.0);
    }

    #[test]
    #[should_panic(expected = "node crash probability")]
    fn rejects_certain_crash() {
        let _ = FailureModel::crashes(1.0);
    }

    #[test]
    fn failure_rates_are_respected() {
        let mut rng = SmallRng::seed_from_u64(1);
        let f = FailureModel::channels(0.3);
        let fails = (0..20_000).filter(|_| !f.channel_ok(&mut rng)).count();
        let rate = fails as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "observed failure rate {rate}");
    }

    #[test]
    fn transmission_rate() {
        let mut rng = SmallRng::seed_from_u64(2);
        let f = FailureModel::transmissions(0.1);
        let fails = (0..20_000).filter(|_| !f.transmission_ok(&mut rng)).count();
        let rate = fails as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    #[should_panic(expected = "channel failure probability")]
    fn rejects_certain_failure() {
        let _ = FailureModel::channels(1.0);
    }

    #[test]
    fn default_is_none() {
        assert_eq!(FailureModel::default(), FailureModel::NONE);
    }

    #[test]
    fn builders_validate_and_compose() {
        let f = FailureModel::NONE.with_channels(0.2).with_transmissions(0.1).with_crashes(0.05);
        assert_eq!(f.channel_failure, 0.2);
        assert_eq!(f.transmission_failure, 0.1);
        assert_eq!(f.node_crash, 0.05);
    }

    #[test]
    #[should_panic(expected = "transmission failure probability")]
    fn with_transmissions_rejects_certain_loss() {
        let _ = FailureModel::NONE.with_transmissions(1.0);
    }

    #[test]
    fn empty_plan_is_empty_and_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(plan.heal_round(), None);
        let mut fs = FaultState::new(&plan, 16, 7);
        fs.begin_round(1, 16, |_| 4, |_| None, |_| true);
        assert!(fs.crash_now().is_empty());
        assert!(fs.suspend_now().is_empty());
        assert!(fs.resume_now().is_empty());
        assert!(fs.channel_view().is_none());
        assert_eq!(fs.effective(FailureModel::channels(0.1)), FailureModel::channels(0.1));
    }

    #[test]
    fn burst_chains_visit_both_states_and_raise_loss() {
        let ge = GilbertElliott::new(0.2, 0.3, 0.0, 0.9);
        let plan = FaultPlan { burst: Some(ge), ..FaultPlan::default() };
        let mut fs = FaultState::new(&plan, 8, 11);
        let mut saw_bad = false;
        let mut saw_loss = false;
        for t in 1..=200 {
            fs.begin_round(t, 8, |_| 4, |_| None, |_| true);
            let view = fs.channel_view().expect("burst plans always have a view");
            assert!(view.lossy());
            for i in 0..8 {
                for w in 0..8 {
                    let p = view.burst_loss(i, w);
                    assert!((0.0..=1.0).contains(&p));
                    saw_loss |= p > 0.0;
                    // good/good pairs are lossless with loss_good = 0.
                    saw_bad |= p > 0.0;
                }
                assert!(view.connects(i, (i + 1) % 8), "no partition in this plan");
            }
        }
        assert!(saw_bad && saw_loss, "chains never left the good state in 200 rounds");
    }

    #[test]
    fn burst_draws_come_from_the_reserved_stream_only() {
        // Two states with the same fault seed advance identically no
        // matter what the main simulation stream does in between.
        let ge = GilbertElliott::new(0.3, 0.3, 0.1, 0.8);
        let plan = FaultPlan { burst: Some(ge), ..FaultPlan::default() };
        let mut a = FaultState::new(&plan, 32, 99);
        let mut b = FaultState::new(&plan, 32, 99);
        for t in 1..=50 {
            a.begin_round(t, 32, |_| 4, |_| None, |_| true);
            b.begin_round(t, 32, |_| 4, |_| None, |_| true);
            let va = a.channel_view().unwrap();
            let vb = b.channel_view().unwrap();
            for i in 0..32 {
                assert_eq!(va.burst_loss(i, (i + 5) % 32), vb.burst_loss(i, (i + 5) % 32));
            }
        }
    }

    #[test]
    fn partition_window_blocks_cross_component_pairs_then_heals() {
        let plan = FaultPlan {
            schedule: vec![FaultEvent::Partition { from: 2, until: 5, parts: 2 }],
            ..FaultPlan::default()
        };
        assert_eq!(plan.heal_round(), Some(5));
        let mut fs = FaultState::new(&plan, 8, 0);
        for t in 1..=6 {
            fs.begin_round(t, 8, |_| 4, |_| None, |_| true);
            let partitioned = (2..5).contains(&t);
            match fs.channel_view() {
                Some(view) => {
                    assert!(partitioned);
                    assert!(view.connects(0, 2), "same component");
                    assert!(!view.connects(0, 1), "cross component");
                    assert!(!view.lossy());
                    assert_eq!(view.burst_loss(0, 1), 0.0);
                }
                None => assert!(!partitioned, "round {t} should be partitioned"),
            }
        }
    }

    #[test]
    fn scripted_crashes_and_loss_windows_fire_on_schedule() {
        let plan = FaultPlan {
            schedule: vec![
                FaultEvent::CrashNodes { at: 3, nodes: vec![5, 1] },
                FaultEvent::LossWindow {
                    from: 2,
                    until: 4,
                    channel: None,
                    transmission: Some(0.75),
                },
            ],
            ..FaultPlan::default()
        };
        let base = FailureModel::channels(0.1);
        let mut fs = FaultState::new(&plan, 8, 0);
        for t in 1..=5 {
            fs.begin_round(t, 8, |_| 4, |_| None, |_| true);
            if t == 3 {
                assert_eq!(fs.crash_now(), &[5, 1]);
            } else {
                assert!(fs.crash_now().is_empty());
            }
            let eff = fs.effective(base);
            assert_eq!(eff.channel_failure, 0.1, "channel rate not overridden");
            if (2..4).contains(&t) {
                assert_eq!(eff.transmission_failure, 0.75);
            } else {
                assert_eq!(eff.transmission_failure, 0.0);
            }
        }
    }

    #[test]
    fn adversary_targets_highest_degree_within_budget() {
        let plan = FaultPlan {
            adversary: Some(AdversarySpec::new(AdversaryTarget::HighestDegree, 2, 3)),
            ..FaultPlan::default()
        };
        let mut fs = FaultState::new(&plan, 6, 0);
        let degrees = [3usize, 9, 9, 1, 7, 2];
        let mut crashed = [false; 6];
        // Round 1: the two degree-9 hubs (tie → lower index first).
        fs.begin_round(1, 6, |i| degrees[i], |_| None, |i| !crashed[i]);
        assert_eq!(fs.crash_now(), &[1, 2]);
        for &i in fs.crash_now() {
            crashed[i as usize] = true;
        }
        // Round 2: budget allows one more — the degree-7 node.
        fs.begin_round(2, 6, |i| degrees[i], |_| None, |i| !crashed[i]);
        assert_eq!(fs.crash_now(), &[4]);
        assert_eq!(fs.adversary_budget_left(), 0);
        for &i in fs.crash_now() {
            crashed[i as usize] = true;
        }
        // Round 3: budget exhausted.
        fs.begin_round(3, 6, |i| degrees[i], |_| None, |i| !crashed[i]);
        assert!(fs.crash_now().is_empty());
    }

    #[test]
    fn adversary_targets_earliest_informed_only() {
        let plan = FaultPlan {
            adversary: Some(AdversarySpec::new(AdversaryTarget::EarliestInformed, 1, 10)),
            ..FaultPlan::default()
        };
        let mut fs = FaultState::new(&plan, 5, 0);
        // informed_at: node 3 at round 0 (origin), node 1 at round 2; rest
        // uninformed — never eligible.
        let at = [None, Some(2), None, Some(0), None];
        fs.begin_round(1, 5, |_| 4, |i| at[i], |_| true);
        assert_eq!(fs.crash_now(), &[3], "origin is the earliest-informed");
        fs.begin_round(2, 5, |_| 4, |i| at[i], |i| i != 3);
        assert_eq!(fs.crash_now(), &[1]);
        fs.begin_round(3, 5, |_| 4, |i| at[i], |i| i != 3 && i != 1);
        assert!(fs.crash_now().is_empty(), "no informed nodes left to target");
        assert_eq!(fs.adversary_budget_left(), 8, "budget only spent on actual crashes");
    }

    #[test]
    fn outages_suspend_and_resume_within_bounds() {
        let plan = FaultPlan {
            outages: Some(OutageSpec::new(0.2, 2, 4)),
            ..FaultPlan::default()
        };
        let mut fs = FaultState::new(&plan, 32, 5);
        let mut down_since: Vec<Option<Round>> = vec![None; 32];
        let mut suspensions = 0usize;
        for t in 1..=100 {
            fs.begin_round(t, 32, |_| 4, |_| None, |_| true);
            for &i in fs.resume_now() {
                let since = down_since[i as usize].take().expect("resume of an up node");
                let lasted = t - since;
                assert!((2..=4).contains(&lasted), "outage lasted {lasted} rounds");
            }
            for &i in fs.suspend_now() {
                assert!(down_since[i as usize].is_none(), "double suspension");
                down_since[i as usize] = Some(t);
                suspensions += 1;
            }
        }
        assert!(suspensions > 50, "rate 0.2 over 32 nodes × 100 rounds, saw {suspensions}");
    }

    #[test]
    #[should_panic(expected = "outage rate")]
    fn outage_spec_rejects_certain_rate() {
        let _ = OutageSpec::new(1.0, 1, 2);
    }

    #[test]
    #[should_panic(expected = "Gilbert–Elliott p_gb")]
    fn gilbert_elliott_rejects_bad_probability() {
        let _ = GilbertElliott::new(1.5, 0.1, 0.0, 0.5);
    }
}
