//! Shared per-round machinery of the flat-arena engines: the channel
//! fabric (CSR call lists + optional reverse index), the round gate that
//! decides which callers it samples, the transmission pre-draw, and the
//! informed-node index. Both the single-rumour [`SimState`](crate::SimState)
//! and the multi-rumour [`MultiSimState`](crate::MultiSimState) plan first
//! and then run their fabric through [`ChannelFabric::sample_round`] and
//! [`ChannelFabric::draw_transmissions`], so the rules for which callers
//! draw, when a round is silent and in which order transmission outcomes
//! are drawn are written once (checked seed for seed against a naive
//! oracle in `tests/oracle.rs` and engine against engine in
//! `tests/parity.rs`).
//!
//! A round is one of three [`RoundKind`]s. A *sampled* round samples its
//! callers one by one. A *silent* round, in which nobody transmits, builds
//! no channel lists: one pass counts the channels and words and one
//! `discard` moves the generator. In a *frontier* round every informed
//! node sends the same directions, so only the slots that are
//! *incomplete* (dead, blocked, or missing a rumour that travels) and
//! their neighbours can see anything happen: the same count pass lists the
//! incomplete slots, the fabric samples only the callers among them and
//! next to them, and every other caller's channels are *booked*. They
//! all reach informed nodes and carry each direction of the one plan, so
//! the engine counts their transmissions without walking them. A frontier
//! round with no incomplete slot builds no lists at all, and one whose
//! incomplete slots have more than `n` stubs is sampled whole.
//!
//! On the loss-free fast path under `Distinct(k)` the words a caller takes
//! depend only on its gate and degree, never on the values drawn, so the
//! single engine samples its shards' callers in parallel
//! ([`ChannelFabric::sample_round_sharded`]): each shard counts its
//! callers' words, an exclusive prefix sum gives each its offset in the
//! one stream, and each samples its own callers on a clone of the
//! generator moved to that offset, into its own window of the channel
//! list. The channel lists and the stream are those one segment builds.

use std::ops::Range;
use std::time::Duration;

use rand::{Rng, RngCore};
use rayon::prelude::*;

use rrb_graph::NodeId;

use crate::census::AliveCensus;
use crate::choice::{discard_targets, sample_targets, ChoiceState, Words};
use crate::failure::{FaultChannelView, FaultState};
use crate::shard::ShardLayout;
use crate::telemetry::{BoxedProbe, RoundCounters, ShardClock, StepPhase};
use crate::{ChoicePolicy, FailureModel, Protocol, Round, Topology};

/// What a round's plans tell the fabric about its callers. The engines
/// plan before they sample (plans are RNG-free and read only state the
/// fault phase has settled), so the plans can gate the sampling.
pub(crate) struct RoundGate<U, S, L> {
    /// Whether caller `i` knows no rumour that can travel this round.
    pub(crate) uninformed: U,
    /// Whether caller `i` pushes this round (in a frontier round asked
    /// only of incomplete callers: a complete one sends the one plan).
    pub(crate) pushes: S,
    /// Whether alive, unblocked slot `i` is incomplete: it misses a rumour
    /// that travels this round, or does not take part in the census. Read
    /// only in a frontier round; dead and blocked slots are incomplete
    /// without asking.
    pub(crate) lacks: L,
    /// Whether any node pull-serves this round.
    pub(crate) any_pull: bool,
    /// The kind of round the engine declares: the fabric makes a declared
    /// silent or frontier round one if it can (see
    /// [`ChannelFabric::sample_round`]) and samples it otherwise.
    pub(crate) kind: RoundKind,
}

/// How a round's channels are made, as an engine declares it in its
/// [`RoundGate`] and as [`ChannelFabric::kind`] reports it. Only an
/// [`oblivious`](crate::Capabilities::oblivious) protocol's rounds are
/// declared silent or frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum RoundKind {
    /// Every alive, unblocked caller is sampled as the gate classifies it.
    #[default]
    Sampled,
    /// No node transmits and the engine reads no channel: counted, not
    /// sampled, and the engine skips its exchange.
    Silent,
    /// Every live rumour that transmits does so in the same directions
    /// from every reception round (declared only where [`can_saturate`]
    /// holds). Only the frontier is sampled: the incomplete slots and
    /// their neighbours. Every other caller is complete with complete
    /// neighbours, so its channels are usable, reach informed nodes and
    /// carry each direction of the plan once: they are booked
    /// ([`RoundCounters::booked_channels`]), their words are jumped, and
    /// the engine skips its planning and exchanges only the listed
    /// channels. With no open caller in the frontier nothing is listed.
    Frontier,
}

/// How the sampling loop treats one alive, unblocked caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallerGate {
    /// Sample and store the caller's channels.
    Open,
    /// The caller does not push and no node pull-serves this round, so its
    /// channels can carry nothing: store nothing (fast path only). Under
    /// `Distinct(k)` its draws are not made but added to a pending count
    /// that one `discard` settles before the next draw; the stateful
    /// policies still sample, since their state advances.
    Quiet,
    /// Push-only capability skip for a caller that cannot carry the rumour
    /// under a memoryless policy: count its channels, make no draws.
    Skip,
}

/// One round's channel openings in CSR form, with all scratch buffers
/// reused across rounds (allocation-free once warm).
///
/// Channels are sampled once per round by
/// [`sample_round`](Self::sample_round) (or its sharded form) — every
/// alive, uncrashed node opens channels per the protocol's choice policy —
/// and then shared by however many rumours ride the fabric. On the
/// zero-failure fast path only *usable* channels (alive, uncrashed callee)
/// are materialised and no per-channel flags are stored; on the slow path
/// every sampled channel is stored together with its channel-failure
/// outcome.
#[derive(Debug, Default)]
pub(crate) struct ChannelFabric {
    /// CSR offsets: node `i`'s channels are `offsets[i]..offsets[i+1]`
    /// (empty after a round that builds no lists, see
    /// [`listed`](Self::listed)).
    offsets: Vec<u32>,
    /// Callee per channel.
    targets: Vec<NodeId>,
    /// Usability per channel (empty on the fast path: all usable).
    ok: Vec<bool>,
    /// `true` when `ok` is not materialised (no channel/transmission
    /// failures this round).
    fast_path: bool,
    /// Per-channel transmission outcomes of the push and the pull
    /// direction, valid when `tx_drawn`.
    push_ok: Vec<bool>,
    pull_ok: Vec<bool>,
    /// Whether [`draw_transmissions`](Self::draw_transmissions) drew this
    /// round's outcomes (else every transmission arrives).
    tx_drawn: bool,
    /// Reverse CSR offsets: channels *towards* node `w` are
    /// `in_entries[in_offsets[w]..in_offsets[w+1]]`.
    in_offsets: Vec<u32>,
    /// Reverse entries: `(channel id, caller id)`.
    in_entries: Vec<(u32, u32)>,
    /// Scatter cursors for the reverse build.
    in_cursor: Vec<u32>,
    /// Reusable target scratch for `sample_targets`.
    target_buf: Vec<NodeId>,
    /// Per-segment scratch of the sharded fast path.
    segments: Vec<SegmentScratch>,
    /// The one-segment count pass's incomplete slots.
    incomplete: Vec<u32>,
    /// Per slot: in the last frontier round's frontier (all `false`
    /// between rounds).
    in_frontier: Vec<bool>,
    /// The last frontier round's frontier: its incomplete slots and their
    /// neighbours, each once.
    frontier: Vec<u32>,
    /// The last round's channels, skipped draws and generator words (all
    /// of them, and those skipped without being drawn): the fabric's part
    /// of its [`RoundCounters`].
    counters: RoundCounters,
    /// The kind of round the last one was.
    kind: RoundKind,
}

/// One caller segment's target and Floyd scratch on the sharded fast path
/// (under `Distinct(k)` a [`ChoiceState`] holds nothing else), and its
/// count pass's incomplete slots.
#[derive(Debug, Default)]
struct SegmentScratch {
    choice: ChoiceState,
    targets: Vec<NodeId>,
    incomplete: Vec<u32>,
}

/// The generator words one segment's sampling takes: all of them, those
/// owed by quiet callers and not yet skipped, and all owed so far. The
/// owed words are skipped in one [`RngCore::discard`] by
/// [`settle`](Self::settle), which must run before the next draw. Only
/// `Quiet` callers under `Distinct(k)` owe words, and they draw none, so
/// the sampler settles before each `sample_targets` call and at the end.
#[derive(Debug, Default)]
struct WordTally {
    words: u64,
    pending: u64,
    owed: u64,
}

impl WordTally {
    /// Skips the pending words in one `discard`.
    #[inline]
    fn settle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        if self.pending > 0 {
            self.words += self.pending;
            self.owed += self.pending;
            rng.discard(self.pending);
            self.pending = 0;
        }
    }
}

/// Where the sampling loop stores usable channels: the fabric's own list
/// (one segment) or a segment's [`Window`] of it.
trait Sink {
    fn push(&mut self, w: NodeId);
    fn len(&self) -> usize;
}

impl Sink for Vec<NodeId> {
    #[inline]
    fn push(&mut self, w: NodeId) {
        Vec::push(self, w);
    }

    #[inline]
    fn len(&self) -> usize {
        Vec::len(self)
    }
}

/// A segment's window of the channel list, as long as the channels its
/// open callers open; dead, blocked or partitioned-away callees leave its
/// tail unused.
struct Window<'a> {
    slots: &'a mut [NodeId],
    len: usize,
}

impl Sink for Window<'_> {
    #[inline]
    fn push(&mut self, w: NodeId) {
        self.slots[self.len] = w;
        self.len += 1;
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }
}

/// What one segment's count pass found: its part of the round's counters,
/// how many channels its open callers open (its window length) and, in a
/// frontier round, how many stubs its incomplete slots have.
#[derive(Debug, Clone, Copy)]
struct SegmentCount {
    counters: RoundCounters,
    opened: usize,
    stubs: usize,
}

/// What every caller segment of one round reads: the topology, the
/// failures and the round gate.
struct Callers<'a, T: ?Sized, U, S, L> {
    topo: &'a T,
    policy: ChoicePolicy,
    failures: FailureModel,
    blocked: &'a [bool],
    faults: Option<&'a FaultChannelView<'a>>,
    fast_path: bool,
    round: &'a RoundGate<U, S, L>,
    /// The push-only skip applies: the protocol never pull-serves and
    /// the policy is memoryless.
    skip: bool,
}

/// Counts, without visiting a stub, what sampling the callers
/// `first..first + blocked.len()` under `Distinct(k)` on the fast path
/// takes: each alive, unblocked caller opens `min(deg, k)` channels and
/// takes `k` words when `deg > k`, owed if it is `Quiet`; a skipped one
/// takes none and adds its channels to the skipped draws; an open one's
/// channels are the most it can store. With `FRONTIER` it also lists the
/// incomplete slots (dead, blocked, or `lacks`) into `incomplete` while
/// their stubs total at most `budget`, and returns the stubs of all of
/// them. The topology and flags come in as arguments, which keeps their
/// loads out of the loop.
#[allow(clippy::too_many_arguments)]
// rrb-lint: hot
fn count_callers<const FRONTIER: bool, T, G, L>(
    topo: &T,
    blocked: &[bool],
    first: usize,
    k: usize,
    gate: G,
    lacks: L,
    incomplete: &mut Vec<u32>,
    budget: usize,
) -> SegmentCount
where
    T: Topology + ?Sized,
    G: Fn(usize) -> CallerGate,
    L: Fn(usize) -> bool,
{
    let (mut channels, mut skipped, mut quiet, mut open, mut opened) = (0, 0, 0, 0, 0);
    let mut stubs = 0;
    for (j, &caller_blocked) in blocked.iter().enumerate() {
        let i = first + j;
        let v = NodeId::new(i);
        let present = topo.is_alive(v) && !caller_blocked;
        let lacking = FRONTIER && (!present || lacks(i));
        if present {
            let deg = topo.degree(v);
            let caller_channels = deg.min(k);
            channels += caller_channels as u64;
            let words = if deg > k { k as u64 } else { 0 };
            // A complete caller in a frontier round is open (see
            // `Callers::frontier_gate`).
            let gate = if FRONTIER && !lacking { CallerGate::Open } else { gate(i) };
            match gate {
                CallerGate::Skip => skipped += caller_channels as u64,
                CallerGate::Quiet => quiet += words,
                CallerGate::Open => {
                    open += words;
                    opened += caller_channels;
                }
            }
        }
        if lacking {
            stubs += topo.degree(v);
            if stubs <= budget {
                incomplete.push(i as u32);
            }
        }
    }
    let counters = RoundCounters {
        channels,
        skipped_draws: skipped,
        fabric_words: quiet + open,
        jumped_words: quiet,
        ..RoundCounters::default()
    };
    SegmentCount { counters, opened, stubs }
}

/// Whether a round is on the fast path: no channel or transmission
/// failure rate and no burst loss.
fn is_fast_path(failures: FailureModel, faults: Option<&FaultState>) -> bool {
    failures.channel_failure == 0.0
        && failures.transmission_failure == 0.0
        && faults.is_none_or(|fs| !fs.bursty())
}

/// Whether a round under `policy`, `failures` and `faults` can be a
/// frontier round: `Distinct(k)` on the fast path, with no partition or
/// burst view, so that a channel between two alive, unblocked nodes is
/// usable. The engines declare a frontier round only if it holds.
pub(crate) fn can_saturate(
    policy: ChoicePolicy,
    failures: FailureModel,
    faults: Option<&FaultState>,
) -> bool {
    matches!(policy, ChoicePolicy::Distinct(_))
        && is_fast_path(failures, faults)
        && faults.is_none_or(|fs| fs.channel_view().is_none())
}

impl<T, U, S, L> Callers<'_, T, U, S, L>
where
    T: Topology + ?Sized,
    U: Fn(usize) -> bool,
    S: Fn(usize) -> bool,
    L: Fn(usize) -> bool,
{
    /// Whether caller `i` takes the push-only skip.
    #[inline]
    fn skips(&self, i: usize) -> bool {
        self.skip && (self.round.uninformed)(i)
    }

    /// How caller `i` is treated (see [`ChannelFabric::sample_round`]).
    /// Nobody transmits in a silent round, so its plans are not read. In a
    /// frontier round only incomplete callers are asked (see
    /// [`frontier_gate`](Self::frontier_gate)).
    #[inline]
    fn gate(&self, i: usize) -> CallerGate {
        let round = self.round;
        if self.skips(i) {
            return CallerGate::Skip;
        }
        let open = match round.kind {
            RoundKind::Sampled | RoundKind::Frontier => round.any_pull || (round.pushes)(i),
            RoundKind::Silent => false,
        };
        if open {
            CallerGate::Open
        } else {
            CallerGate::Quiet
        }
    }

    /// How alive, unblocked caller `i` of a frontier round is treated: a
    /// complete caller sends the one plan (it pushes, or someone serves
    /// pulls), so only an incomplete one is asked the [`gate`](Self::gate).
    #[inline]
    fn frontier_gate(&self, i: usize) -> CallerGate {
        if (self.round.lacks)(i) {
            self.gate(i)
        } else {
            CallerGate::Open
        }
    }

    /// Whether slot `i` is complete: alive, unblocked and lacking nothing.
    #[inline]
    fn complete(&self, i: usize) -> bool {
        self.topo.is_alive(NodeId::new(i)) && !self.blocked[i] && !(self.round.lacks)(i)
    }

    /// Counts what [`sample`](Self::sample) takes over `callers` under
    /// `Distinct(k)` on the fast path (see [`count_callers`]), listing a
    /// frontier round's incomplete slots into `incomplete` while their
    /// stubs total at most `budget`. Nobody is open in a silent round,
    /// and a gate that says so lets the compiler drop the open arm from
    /// the loop.
    fn count(&self, callers: Range<usize>, k: usize, incomplete: &mut Vec<u32>, budget: usize) -> SegmentCount {
        let (first, blocked) = (callers.start, &self.blocked[callers]);
        incomplete.clear();
        let (topo, lacks) = (self.topo, &self.round.lacks);
        match self.round.kind {
            RoundKind::Silent => {
                let quiet = |i| if self.skips(i) { CallerGate::Skip } else { CallerGate::Quiet };
                count_callers::<false, _, _, _>(topo, blocked, first, k, quiet, lacks, incomplete, budget)
            }
            RoundKind::Sampled => {
                let gate = |i| self.gate(i);
                count_callers::<false, _, _, _>(topo, blocked, first, k, gate, lacks, incomplete, budget)
            }
            RoundKind::Frontier => {
                let gate = |i| self.gate(i);
                count_callers::<true, _, _, _>(topo, blocked, first, k, gate, lacks, incomplete, budget)
            }
        }
    }

    /// Marks the frontier of a frontier round: every slot in `incomplete`
    /// and every stub of theirs, each once, into `in_frontier` and
    /// `frontier`. The neighbours of an incomplete slot are read from its
    /// own stubs, which [`Topology`]'s symmetry contract makes exact.
    /// Adds each open frontier caller's channels to its segment's entry
    /// of `opened` (segment `layout.shard_of(i)`).
    fn mark_frontier<'l>(
        &self,
        incomplete: impl Iterator<Item = &'l [u32]>,
        k: usize,
        layout: ShardLayout,
        in_frontier: &mut [bool],
        frontier: &mut Vec<u32>,
        opened: &mut [usize],
    ) {
        frontier.clear();
        for &v in incomplete.flatten() {
            let v = NodeId::new(v as usize);
            for w in std::iter::once(v).chain(self.topo.stubs(v).iter().copied()) {
                let i = w.index();
                if in_frontier[i] {
                    continue;
                }
                in_frontier[i] = true;
                frontier.push(i as u32);
                if self.topo.is_alive(w) && !self.blocked[i] && self.frontier_gate(i) == CallerGate::Open {
                    opened[layout.shard_of(i)] += self.topo.degree(w).min(k);
                }
            }
        }
    }

    /// Samples every alive, unblocked caller in `callers` as the gate
    /// classifies it, storing caller `i`'s channel list end at
    /// `ends[i - callers.start]` (`base` plus what `out` holds):
    /// - `Skip`: the capability-gated push-only sampling skip. The caller's
    ///   deterministic `min(fanout, deg)` channels are counted, but it costs
    ///   no RNG draws and no buffer traffic.
    /// - `Quiet`: the caller's channels can carry nothing this round. On
    ///   the fast path it stores nothing and leaves the generator and any
    ///   per-node choice state where sampling would: under `Distinct(k)`
    ///   its `k` words (none when `deg <= k`) join a pending count that
    ///   one [`discard`](rand::RngCore::discard) skips before the next
    ///   caller that draws, or at the end; the stateful policies sample
    ///   and drop the targets. Off the fast path it is sampled like
    ///   `Open`, because its per-channel failure draws need the targets.
    /// - `Open`: sampled and stored.
    ///
    /// In a frontier round (`in_frontier` given) a caller outside the
    /// frontier is booked instead: its channels are counted as booked and
    /// its words owed, like a quiet caller's. Debug builds check that all
    /// its stubs are complete, which a topology whose stub lists are not
    /// symmetric can break.
    ///
    /// Returns the segment's part of the round's counters.
    #[allow(clippy::too_many_arguments)]
    fn sample<O: Sink, R: Rng + ?Sized>(
        &self,
        callers: Range<usize>,
        ends: &mut [u32],
        base: u32,
        out: &mut O,
        ok: &mut Vec<bool>,
        choice: &mut ChoiceState,
        scratch: &mut Vec<NodeId>,
        in_frontier: Option<&[bool]>,
        rng: &mut R,
    ) -> RoundCounters {
        if self.round.kind == RoundKind::Frontier {
            let flags = in_frontier.unwrap_or(&[]);
            self.sample_with::<true, O, R>(callers, ends, base, out, ok, choice, scratch, flags, rng)
        } else {
            self.sample_with::<false, O, R>(callers, ends, base, out, ok, choice, scratch, &[], rng)
        }
    }

    /// [`sample`](Self::sample), with the frontier's gate and booking
    /// compiled in only for a frontier round (booking only with flags; a
    /// frontier round over the budget samples every caller).
    #[allow(clippy::too_many_arguments)]
    // rrb-lint: hot
    fn sample_with<const FRONTIER: bool, O: Sink, R: Rng + ?Sized>(
        &self,
        callers: Range<usize>,
        ends: &mut [u32],
        base: u32,
        out: &mut O,
        ok: &mut Vec<bool>,
        choice: &mut ChoiceState,
        scratch: &mut Vec<NodeId>,
        in_frontier: &[bool],
        rng: &mut R,
    ) -> RoundCounters {
        let (topo, policy, failures) = (self.topo, self.policy, self.failures);
        let first = callers.start;
        let mut skipped = 0u64;
        let mut booked = 0u64;
        let mut words = WordTally::default();
        let mut channels = 0u64;
        for i in callers {
            let v = NodeId::new(i);
            if topo.is_alive(v) && !self.blocked[i] {
                if FRONTIER && !in_frontier.is_empty() && !in_frontier[i] {
                    // Complete, with complete neighbours: every channel
                    // carries the one plan to an informed node.
                    debug_assert_eq!(self.frontier_gate(i), CallerGate::Open, "booked caller {i} is not open");
                    debug_assert!(
                        topo.stubs(v).iter().all(|w| self.complete(w.index())),
                        "booked caller {i} has an incomplete neighbour: are the stub lists symmetric?"
                    );
                    let (count, taken) = discard_targets(topo, v, policy, choice, rng, scratch);
                    channels += count as u64;
                    booked += count as u64;
                    match taken {
                        Words::Owed(k) => words.pending += k,
                        Words::Drawn(_) => unreachable!("booked only under Distinct(k)"),
                    }
                } else {
                    let gate = if FRONTIER { self.frontier_gate(i) } else { self.gate(i) };
                    match gate {
                        CallerGate::Skip => {
                            // Uninformed caller under a push-only protocol:
                            // count the channels it would open, draw nothing.
                            let opened = topo.degree(v).min(policy.fanout()) as u64;
                            skipped += opened;
                            channels += opened;
                        }
                        CallerGate::Quiet if self.fast_path => {
                            let (count, taken) = discard_targets(topo, v, policy, choice, rng, scratch);
                            channels += count as u64;
                            match taken {
                                Words::Drawn(k) => {
                                    debug_assert_eq!(words.pending, 0, "drew past owed words");
                                    words.words += k;
                                }
                                Words::Owed(k) => words.pending += k,
                            }
                        }
                        CallerGate::Quiet | CallerGate::Open => {
                            words.settle(rng);
                            words.words += sample_targets(topo, v, policy, choice, rng, scratch);
                            channels += scratch.len() as u64;
                            for &w in scratch.iter() {
                                // A channel to a dead (departed), crashed,
                                // suspended or partitioned-away neighbour fails
                                // to establish; it costs nothing, carries nothing.
                                let callee_ok = topo.is_alive(w)
                                    && !self.blocked[w.index()]
                                    && self.faults.is_none_or(|f| f.connects(i, w.index()));
                                if self.fast_path {
                                    if callee_ok {
                                        out.push(w);
                                    }
                                } else {
                                    // Combined per-channel loss: baseline i.i.d.
                                    // rate plus the burst chains' contribution.
                                    // The single Bernoulli draw sits exactly
                                    // where the baseline draw always was, and is
                                    // skipped (like the baseline) when the
                                    // probability is zero or the channel failed
                                    // to establish anyway.
                                    let p = match self.faults {
                                        Some(f) => {
                                            1.0 - (1.0 - failures.channel_failure)
                                                * (1.0 - f.burst_loss(i, w.index()))
                                        }
                                        None => failures.channel_failure,
                                    };
                                    let usable = callee_ok && (p == 0.0 || !rng.gen_bool(p));
                                    words.words += u64::from(callee_ok && p != 0.0);
                                    out.push(w);
                                    ok.push(usable);
                                }
                            }
                        }
                    }
                }
            }
            ends[i - first] = base + out.len() as u32;
        }
        words.settle(rng);
        RoundCounters {
            channels,
            skipped_draws: skipped,
            fabric_words: words.words,
            jumped_words: words.owed,
            booked_channels: booked,
            ..RoundCounters::default()
        }
    }
}

impl ChannelFabric {
    pub(crate) fn new(node_count: usize) -> Self {
        ChannelFabric {
            offsets: Vec::with_capacity(node_count + 1),
            ..ChannelFabric::default()
        }
    }

    /// Samples this round's channels for every alive, unblocked
    /// (uncrashed, unsuspended) caller, as `gate` and the round's failures
    /// allow, in one segment on `rng`; [`counters`](Self::counters) then
    /// reports what it opened and drew. The rules:
    ///
    /// - **Fast path.** With no channel or transmission failure rate and
    ///   no burst loss, a channel is usable iff its callee is alive,
    ///   unblocked and not partitioned away: only usable channels are
    ///   stored and no per-channel draw is made. Otherwise every sampled
    ///   channel is stored with its loss outcome. Crash-stop sampling is a
    ///   per-node phase before this one, so a crash-only model keeps the
    ///   fast path.
    /// - **Caller gate.** If the protocol never pull-serves, a caller that
    ///   knows no rumour can carry nothing: its push has nothing to send
    ///   and its pull is never served. Under a memoryless policy
    ///   ([`ChoicePolicy::is_memoryless`]: sampling a `SequentialMemory`
    ///   ring or a `Cyclic` cursor advances it, which skipping would
    ///   alter) it is `Skip`: its deterministic `min(fanout, deg)` channels
    ///   are counted and nothing is drawn. A caller that pushes, or any
    ///   caller in a round in which some node pull-serves, is `Open`.
    ///   Everyone else is `Quiet`: see `Callers::sample`.
    /// - **Silent round.** In a silent round every caller is `Quiet` or
    ///   `Skip`, and on the fast path under `Distinct(k)` the words each
    ///   owes depend only on its flags and degree. Such a round builds no
    ///   lists: one pass counts the channels, skipped draws and words, and
    ///   one `discard` moves the generator past the words, and
    ///   [`kind`](Self::kind) tells the engine to skip its exchange.
    /// - **Frontier round.** In a round declared frontier (only where
    ///   [`can_saturate`] holds) the same count pass also lists the
    ///   incomplete slots: dead in the topology, blocked, or `lacks`. If
    ///   their stubs number at most `n`, the incomplete slots and their
    ///   neighbours form the frontier, and only its callers are sampled.
    ///   Every other caller is complete, is `Open` and calls complete
    ///   nodes: its channels are booked and its words owed. With no open
    ///   caller in the frontier the round builds no lists (one `discard`,
    ///   every open channel booked). Over the budget the round is sampled
    ///   whole, as gated; the count pass drew nothing, so this is exact.
    ///
    /// `faults` is the installed fault plan's state: partitioned pairs
    /// fail to establish like calls to a crashed peer (no cost, no draw),
    /// and burst-loss state raises the per-channel failure probability
    /// (drawn on the **main** stream at exactly the baseline draw's
    /// position). With `faults == None` the code path and draw sequence
    /// are byte-identical to the pre-fault engine.
    #[allow(clippy::too_many_arguments)]
    // rrb-lint: hot
    pub(crate) fn sample_round<T, P, U, S, L, R>(
        &mut self,
        topo: &T,
        protocol: &P,
        choice: &mut ChoiceState,
        failures: FailureModel,
        faults: Option<&FaultState>,
        blocked: &[bool],
        gate: RoundGate<U, S, L>,
        rng: &mut R,
    ) where
        T: Topology + ?Sized,
        P: Protocol,
        U: Fn(usize) -> bool,
        S: Fn(usize) -> bool,
        L: Fn(usize) -> bool,
        R: Rng + ?Sized,
    {
        let n = topo.node_count();
        let view = faults.and_then(FaultState::channel_view);
        let callers = self.callers(topo, protocol, failures, faults, blocked, &gate, view.as_ref());
        let k = match callers.policy {
            ChoicePolicy::Distinct(k) if gate.kind != RoundKind::Sampled && callers.fast_path => k,
            _ => return self.sample_segment(&callers, n, choice, false, rng),
        };
        let count = callers.count(0..n, k, &mut self.incomplete, n);
        match gate.kind {
            RoundKind::Silent => self.finish_counted(RoundKind::Silent, count.counters, 0, rng),
            RoundKind::Frontier if count.stubs <= n => {
                let mut listed = [0];
                self.in_frontier.resize(n, false);
                let incomplete = std::iter::once(self.incomplete.as_slice());
                let one = ShardLayout::new(n, 1);
                callers.mark_frontier(incomplete, k, one, &mut self.in_frontier, &mut self.frontier, &mut listed);
                if listed[0] == 0 {
                    self.finish_counted(RoundKind::Frontier, count.counters, count.opened as u64, rng);
                } else {
                    self.sample_segment(&callers, n, choice, true, rng);
                    self.kind = RoundKind::Frontier;
                }
                self.clear_frontier();
            }
            _ => self.sample_segment(&callers, n, choice, false, rng),
        }
    }

    /// Samples every caller of `callers` in one segment on `rng`, booking
    /// those outside the marked frontier if `frontier`.
    fn sample_segment<T, U, S, L, R>(
        &mut self,
        callers: &Callers<'_, T, U, S, L>,
        n: usize,
        choice: &mut ChoiceState,
        frontier: bool,
        rng: &mut R,
    ) where
        T: Topology + ?Sized,
        U: Fn(usize) -> bool,
        S: Fn(usize) -> bool,
        L: Fn(usize) -> bool,
        R: Rng + ?Sized,
    {
        self.offsets.resize(n + 1, 0);
        self.offsets[0] = 0;
        self.targets.clear();
        self.ok.clear();
        if self.targets.capacity() == 0 {
            // Size the target list once, for a round in which every caller
            // is open, so it never regrows (and copies) mid-run.
            let k = callers.policy.fanout();
            let bound = (0..n).map(|i| callers.topo.degree(NodeId::new(i)).min(k)).sum();
            self.targets.reserve(bound);
        }
        self.counters = callers.sample(
            0..n,
            &mut self.offsets[1..],
            0,
            &mut self.targets,
            &mut self.ok,
            choice,
            &mut self.target_buf,
            frontier.then_some(self.in_frontier.as_slice()),
            rng,
        );
    }

    /// [`sample_round`](Self::sample_round) for the single engine, fanned
    /// out over `layout`'s contiguous caller segments when the round is on
    /// the fast path under `Distinct(k)` and there are two or more. There
    /// a caller's words depend only on its gate and degree, so:
    ///
    /// 1. each segment counts its callers' words and the channels its open
    ///    callers open, in parallel (and, in a frontier round, lists its
    ///    incomplete slots);
    /// 2. an exclusive prefix sum gives each segment its offset in the
    ///    stream and its window of the channel list (in a frontier round
    ///    within the budget, after the frontier is marked, as long as its
    ///    open frontier callers' channels);
    /// 3. each segment clones `rng`, `discard`s to its offset and samples
    ///    its callers into its window, in parallel, with its own scratch;
    /// 4. `rng` `discard`s the round's words, and each window's filled part
    ///    moves down to close the gaps that unusable channels left.
    ///
    /// The lists, channel ids, counters and the generator afterwards are
    /// those one segment produces. A silent round, and a frontier round
    /// with no open caller in its frontier, stop after step 1 and one
    /// `discard`. Each segment's time goes to `probe` as its share of the
    /// [`Fabric`](StepPhase::Fabric) phase (no clock is read without a
    /// probe). Every other round, and any round at one segment, runs
    /// [`sample_round`](Self::sample_round) on `rng` itself.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sample_round_sharded<T, P, U, S, L, R>(
        &mut self,
        topo: &T,
        protocol: &P,
        choice: &mut ChoiceState,
        failures: FailureModel,
        faults: Option<&FaultState>,
        blocked: &[bool],
        gate: RoundGate<U, S, L>,
        layout: ShardLayout,
        probe: &mut Option<BoxedProbe>,
        rng: &mut R,
    ) where
        T: Topology + ?Sized,
        P: Protocol,
        U: Fn(usize) -> bool + Sync,
        S: Fn(usize) -> bool + Sync,
        L: Fn(usize) -> bool + Sync,
        R: Rng + Clone + Send,
    {
        let k = match protocol.choice_policy() {
            ChoicePolicy::Distinct(k) if layout.count() > 1 && is_fast_path(failures, faults) => k,
            _ => return self.sample_round(topo, protocol, choice, failures, faults, blocked, gate, rng),
        };
        let n = topo.node_count();
        let view = faults.and_then(FaultState::channel_view);
        let callers = self.callers(topo, protocol, failures, faults, blocked, &gate, view.as_ref());
        let segments = layout.count();
        let probing = probe.is_some();
        self.segments.resize_with(segments, SegmentScratch::default);

        // Step 1: every segment's words and window length.
        let lists: Vec<(usize, &mut Vec<u32>)> =
            self.segments.iter_mut().map(|scratch| &mut scratch.incomplete).enumerate().collect();
        let counts: Vec<(SegmentCount, Duration)> = lists
            .into_par_iter()
            .map(|(s, incomplete)| {
                let clock = ShardClock::armed(probing);
                (callers.count(layout.range(s, n), k, incomplete, n), clock.elapsed())
            })
            .collect();
        let mut total = RoundCounters::default();
        let mut stubs = 0;
        for (c, _) in &counts {
            total.channels += c.counters.channels;
            total.skipped_draws += c.counters.skipped_draws;
            total.fabric_words += c.counters.fabric_words;
            total.jumped_words += c.counters.jumped_words;
            stubs += c.stubs;
        }
        let mut opened: Vec<usize> = counts.iter().map(|(c, _)| c.opened).collect();
        let frontier = gate.kind == RoundKind::Frontier && stubs <= n;
        let counted = match gate.kind {
            RoundKind::Silent => Some((RoundKind::Silent, 0)),
            _ if frontier => {
                let all: usize = opened.iter().sum();
                opened.fill(0);
                self.in_frontier.resize(n, false);
                let incomplete = self.segments.iter().map(|scratch| scratch.incomplete.as_slice());
                let (flags, marked) = (&mut self.in_frontier, &mut self.frontier);
                callers.mark_frontier(incomplete, k, layout, flags, marked, &mut opened);
                let listed = opened.iter().any(|&o| o > 0);
                if !listed {
                    self.clear_frontier();
                }
                (!listed).then_some((RoundKind::Frontier, all as u64))
            }
            _ => None,
        };
        if let Some((kind, booked)) = counted {
            self.finish_counted(kind, total, booked, rng);
            if let Some(p) = probe.as_deref_mut() {
                for (s, &(_, d)) in counts.iter().enumerate() {
                    p.on_shard_phase(s, StepPhase::Fabric, d);
                }
            }
            return;
        }

        // Step 2: each segment's stream offset and window.
        self.offsets.resize(n + 1, 0);
        self.offsets[0] = 0;
        self.targets.resize(opened.iter().sum(), NodeId::new(0));
        self.ok.clear();
        let mut ends_left = &mut self.offsets[1..];
        let mut slots_left = &mut self.targets[..];
        let (mut word_at, mut slot_at) = (0u64, 0usize);
        let mut items = Vec::with_capacity(segments);
        for (s, ((scratch, (c, _)), &len)) in self.segments.iter_mut().zip(&counts).zip(&opened).enumerate() {
            let range = layout.range(s, n);
            let (ends, rest) = std::mem::take(&mut ends_left).split_at_mut(range.len());
            ends_left = rest;
            let (slots, rest) = std::mem::take(&mut slots_left).split_at_mut(len);
            slots_left = rest;
            let window = Window { slots, len: 0 };
            items.push((range, ends, window, slot_at as u32, word_at, scratch, rng.clone()));
            word_at += c.counters.fabric_words;
            slot_at += len;
        }

        // Step 3: every segment samples its callers from its offset.
        let flags = frontier.then_some(self.in_frontier.as_slice());
        let sampled: Vec<(RoundCounters, usize, Duration)> = items
            .into_par_iter()
            .map(|(range, ends, mut window, base, offset, scratch, mut seg_rng)| {
                let clock = ShardClock::armed(probing);
                seg_rng.discard(offset);
                let (choice, targets) = (&mut scratch.choice, &mut scratch.targets);
                let counters = callers.sample(
                    range,
                    ends,
                    base,
                    &mut window,
                    &mut Vec::new(),
                    choice,
                    targets,
                    flags,
                    &mut seg_rng,
                );
                (counters, window.len, clock.elapsed())
            })
            .collect();

        // Step 4: the main stream ends where one segment leaves it, and the
        // windows close up in segment order.
        rng.discard(total.fabric_words);
        let (mut end, mut start) = (0usize, 0usize);
        let mut sampled_total = RoundCounters::default();
        for (s, ((c, _), (&(counters, filled, _), &len))) in counts.iter().zip(sampled.iter().zip(&opened)).enumerate() {
            let drawn = (counters.channels, counters.skipped_draws, counters.fabric_words);
            let counted = (c.counters.channels, c.counters.skipped_draws, c.counters.fabric_words);
            debug_assert_eq!(drawn, counted, "segment {s} drew other than it counted");
            sampled_total.channels += counters.channels;
            sampled_total.skipped_draws += counters.skipped_draws;
            sampled_total.fabric_words += counters.fabric_words;
            sampled_total.jumped_words += counters.jumped_words;
            sampled_total.booked_channels += counters.booked_channels;
            if start != end {
                self.targets.copy_within(start..start + filled, end);
                let shift = (start - end) as u32;
                let range = layout.range(s, n);
                for o in &mut self.offsets[range.start + 1..=range.end] {
                    *o -= shift;
                }
            }
            end += filled;
            start += len;
        }
        self.targets.truncate(end);
        self.counters = sampled_total;
        if frontier {
            self.kind = RoundKind::Frontier;
            self.clear_frontier();
        }
        if let Some(p) = probe.as_deref_mut() {
            for (s, (&(_, counted), &(_, _, drawn))) in counts.iter().zip(&sampled).enumerate() {
                p.on_shard_phase(s, StepPhase::Fabric, counted + drawn);
            }
        }
    }

    /// Starts a round: settles the fast-path flag and the round kind, and
    /// returns what its caller segments read.
    #[allow(clippy::too_many_arguments)]
    fn callers<'a, T, P, U, S, L>(
        &mut self,
        topo: &'a T,
        protocol: &P,
        failures: FailureModel,
        faults: Option<&FaultState>,
        blocked: &'a [bool],
        gate: &'a RoundGate<U, S, L>,
        view: Option<&'a FaultChannelView<'a>>,
    ) -> Callers<'a, T, U, S, L>
    where
        T: Topology + ?Sized,
        P: Protocol,
        U: Fn(usize) -> bool,
        S: Fn(usize) -> bool,
        L: Fn(usize) -> bool,
    {
        self.fast_path = is_fast_path(failures, faults);
        self.tx_drawn = false;
        self.kind = RoundKind::Sampled;
        Callers {
            topo,
            policy: protocol.choice_policy(),
            failures,
            blocked,
            faults: view,
            fast_path: self.fast_path,
            round: gate,
            skip: !protocol.capabilities().uses_pull && protocol.choice_policy().is_memoryless(),
        }
    }

    /// Closes a round that builds no lists (a silent one, or a frontier
    /// round with no open caller in its frontier): one
    /// [`discard`](rand::RngCore::discard) past the words `counted`, which
    /// leaves the generator where sampling would, since no draw depends on
    /// the values drawn before it. Every word of the round is jumped, and
    /// `booked` channels are booked.
    fn finish_counted<R: RngCore + ?Sized>(
        &mut self,
        kind: RoundKind,
        counted: RoundCounters,
        booked: u64,
        rng: &mut R,
    ) {
        self.offsets.clear();
        self.targets.clear();
        self.ok.clear();
        rng.discard(counted.fabric_words);
        self.counters = RoundCounters {
            jumped_words: counted.fabric_words,
            booked_channels: booked,
            ..counted
        };
        self.kind = kind;
    }

    /// Unmarks the frontier's flags (its list stays, see
    /// [`frontier`](Self::frontier)).
    fn clear_frontier(&mut self) {
        for &i in &self.frontier {
            self.in_frontier[i as usize] = false;
        }
    }

    /// The serial transmission pre-draw of one round, over the stored
    /// channels: per caller ascending, per usable channel, the push draw
    /// if the caller `pushes`, then the pull draw if the callee
    /// `pull_serves`. One draw per used channel direction, shared by every
    /// rumour riding it, so a combined message succeeds or fails
    /// atomically (§1.2). Draws only when the transmission failure rate is
    /// positive (else every transmission arrives). Returns the number of
    /// used directions: the messages sent, co-riding rumours combined.
    // rrb-lint: hot
    pub(crate) fn draw_transmissions<S, L, R>(
        &mut self,
        failures: FailureModel,
        pushes: S,
        pull_serves: L,
        rng: &mut R,
    ) -> u64
    where
        S: Fn(usize) -> bool,
        L: Fn(usize) -> bool,
        R: Rng + ?Sized,
    {
        self.tx_drawn = failures.transmission_failure > 0.0;
        if self.tx_drawn {
            self.push_ok.clear();
            self.push_ok.resize(self.targets.len(), false);
            self.pull_ok.clear();
            self.pull_ok.resize(self.targets.len(), false);
        }
        let mut used = 0u64;
        for i in 0..self.offsets.len().saturating_sub(1) {
            let range = self.out_range(i);
            if range.is_empty() {
                continue;
            }
            let push = pushes(i);
            for c in range {
                if !self.usable(c) {
                    continue;
                }
                if push {
                    used += 1;
                    if self.tx_drawn {
                        self.push_ok[c] = failures.transmission_ok(rng);
                    }
                }
                if pull_serves(self.targets[c].index()) {
                    used += 1;
                    if self.tx_drawn {
                        self.pull_ok[c] = failures.transmission_ok(rng);
                    }
                }
            }
        }
        used
    }

    /// Whether a push over channel `c` arrives (see
    /// [`draw_transmissions`](Self::draw_transmissions)).
    #[inline]
    pub(crate) fn push_arrives(&self, c: usize) -> bool {
        !self.tx_drawn || self.push_ok[c]
    }

    /// Whether a pull over channel `c` arrives.
    #[inline]
    pub(crate) fn pull_arrives(&self, c: usize) -> bool {
        !self.tx_drawn || self.pull_ok[c]
    }

    /// The last round's channels, skipped draws and generator words, as
    /// the fabric's part of the round's [`RoundCounters`].
    #[inline]
    pub(crate) fn counters(&self) -> RoundCounters {
        self.counters
    }

    /// The kind of round the last one was: a declared frontier round over
    /// the budget, or off the fast path, reports `Sampled`.
    #[inline]
    pub(crate) fn kind(&self) -> RoundKind {
        self.kind
    }

    /// Whether the last round built channel lists (a silent round, and a
    /// frontier round with no open caller in its frontier, build none;
    /// after them the engine skips its exchange).
    #[inline]
    pub(crate) fn listed(&self) -> bool {
        !self.offsets.is_empty()
    }

    /// The last frontier round's frontier, each slot once: every caller
    /// whose channels a frontier round lists is in it.
    #[inline]
    pub(crate) fn frontier(&self) -> &[u32] {
        &self.frontier
    }

    /// Number of materialised channels this round.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.targets.len()
    }

    /// Channel-id range opened by caller `i`.
    #[inline]
    pub(crate) fn out_range(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Callee of channel `c`.
    #[inline]
    pub(crate) fn target(&self, c: usize) -> NodeId {
        self.targets[c]
    }

    /// Whether channel `c` is usable (established and not failed).
    #[inline]
    pub(crate) fn usable(&self, c: usize) -> bool {
        self.fast_path || self.ok[c]
    }

    /// Whether this round's fabric was sampled on the zero-failure fast
    /// path (all materialised channels usable, `ok` not stored).
    #[cfg(test)]
    pub(crate) fn is_fast_path(&self) -> bool {
        self.fast_path
    }

    /// Builds the reverse (incoming-channel) index: a counting sort of
    /// the channel list by callee, `O(n + channels)`. Needed only by
    /// pull-capable protocols — pushes walk the forward lists.
    // rrb-lint: hot
    pub(crate) fn build_incoming(&mut self, n: usize) {
        self.in_offsets.clear();
        self.in_offsets.resize(n + 1, 0);
        for w in &self.targets {
            self.in_offsets[w.index() + 1] += 1;
        }
        for i in 1..=n {
            self.in_offsets[i] += self.in_offsets[i - 1];
        }
        self.in_cursor.clear();
        self.in_cursor.extend_from_slice(&self.in_offsets[..n]);
        self.in_entries.clear();
        self.in_entries.resize(self.targets.len(), (0, 0));
        for i in 0..n {
            for c in self.offsets[i] as usize..self.offsets[i + 1] as usize {
                let w = self.targets[c].index();
                self.in_entries[self.in_cursor[w] as usize] = (c as u32, i as u32);
                self.in_cursor[w] += 1;
            }
        }
    }

    /// Incoming channels of callee `w` as `(channel id, caller id)` pairs
    /// (valid after [`build_incoming`](Self::build_incoming)).
    #[inline]
    pub(crate) fn incoming(&self, w: usize) -> &[(u32, u32)] {
        &self.in_entries[self.in_offsets[w] as usize..self.in_offsets[w + 1] as usize]
    }

    /// Heap capacities of every reusable buffer, for the steady-state
    /// no-allocation tests.
    pub(crate) fn capacities(&self) -> [usize; 7] {
        [
            self.offsets.capacity(),
            self.targets.capacity(),
            self.ok.capacity(),
            self.push_ok.capacity() + self.pull_ok.capacity(),
            self.in_offsets.capacity() + self.in_cursor.capacity(),
            self.in_entries.capacity()
                + self.target_buf.capacity()
                + self.segments.iter().map(|s| s.targets.capacity()).sum::<usize>(),
            self.incomplete.capacity()
                + self.in_frontier.capacity()
                + self.frontier.capacity()
                + self.segments.iter().map(|s| s.incomplete.capacity()).sum::<usize>(),
        ]
    }
}

/// Sentinel in [`InformedIndex::pos`] for "not informed".
const NOT_INFORMED: u32 = u32::MAX;

/// Informed-node bookkeeping shared by both engines: a position map from
/// node slot into an explicit index list of informed nodes in discovery
/// order, with reception rounds stored *per informed node* (parallel to
/// the list) rather than per slot. The plan, quiescence and coverage
/// passes iterate `O(informed)` instead of `O(n)`, and the per-slot
/// footprint is 4 bytes instead of a dense `Option<Round>` vector —
/// which is what lets the multi-rumour engine keep per-rumour state
/// sparse (informed-only).
#[derive(Debug)]
pub(crate) struct InformedIndex {
    /// For each node slot: position in `list`, or [`NOT_INFORMED`].
    pos: Vec<u32>,
    /// Indices of informed nodes in discovery order.
    list: Vec<u32>,
    /// Reception round per informed node, parallel to `list`
    /// (engine-defined clock: global rounds for the single-rumour engine,
    /// rumour-local rounds for the multi-rumour engine).
    at: Vec<Round>,
}

impl InformedIndex {
    pub(crate) fn new(node_count: usize) -> Self {
        InformedIndex {
            pos: vec![NOT_INFORMED; node_count],
            list: Vec::with_capacity(node_count),
            at: Vec::with_capacity(node_count),
        }
    }

    /// Marks `i` informed at round `at`; returns `true` iff it was newly
    /// informed (already-informed nodes keep their original round).
    #[inline]
    // rrb-lint: hot
    pub(crate) fn mark(&mut self, i: usize, at: Round) -> bool {
        if self.pos[i] != NOT_INFORMED {
            return false;
        }
        self.pos[i] = self.list.len() as u32;
        self.list.push(i as u32);
        self.at.push(at);
        true
    }

    /// Reception round of node `i`, if informed.
    #[inline]
    pub(crate) fn at(&self, i: usize) -> Option<Round> {
        let p = self.pos[i];
        if p == NOT_INFORMED {
            None
        } else {
            Some(self.at[p as usize])
        }
    }

    /// Position of node `i` in the informed list, if informed. Stable
    /// until the next `unmark` — the sparse per-rumour state vectors in
    /// the multi-rumour engine are indexed by it.
    #[inline]
    pub(crate) fn pos(&self, i: usize) -> Option<usize> {
        let p = self.pos[i];
        if p == NOT_INFORMED {
            None
        } else {
            Some(p as usize)
        }
    }

    /// Reception round of the informed node at list position `idx`.
    #[inline]
    pub(crate) fn at_pos(&self, idx: usize) -> Round {
        self.at[idx]
    }

    /// Whether node `i` is informed.
    #[inline]
    pub(crate) fn is_informed(&self, i: usize) -> bool {
        self.pos[i] != NOT_INFORMED
    }

    /// Informed nodes in discovery order.
    #[inline]
    pub(crate) fn list(&self) -> &[u32] {
        &self.list
    }

    /// Number of informed nodes (alive or dead slots alike).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether every informed node is crashed or permanently silent at
    /// round `t` (`states` indexed by slot) — the quiescence rule of the
    /// single-rumour engines. Uninformed nodes are vacuously quiescent,
    /// so only the informed list is scanned.
    pub(crate) fn all_quiescent<P: Protocol>(
        &self,
        protocol: &P,
        states: &[P::State],
        census: &AliveCensus,
        t: Round,
    ) -> bool {
        self.list.iter().zip(&self.at).all(|(&i, &at)| {
            let i = i as usize;
            census.is_crashed(i) || protocol.is_quiescent(&states[i], at, t)
        })
    }

    /// Forgets node `i` (slot reuse after a rejoin): removes it from the
    /// list via `swap_remove` and returns its former list position so
    /// callers can mirror the removal in any list-parallel state vector.
    /// Returns `None` if `i` was not informed.
    pub(crate) fn unmark(&mut self, i: usize) -> Option<usize> {
        let p = self.pos[i];
        if p == NOT_INFORMED {
            return None;
        }
        let p = p as usize;
        self.list.swap_remove(p);
        self.at.swap_remove(p);
        self.pos[i] = NOT_INFORMED;
        if p < self.list.len() {
            self.pos[self.list[p] as usize] = p as u32;
        }
        Some(p)
    }

    /// Forgets node `i` like [`unmark`](Self::unmark), in a list grouped
    /// by reception round: `ends[k]` is the exclusive end of round `k`'s
    /// group (the last entry is the list length). Every later group
    /// shifts left by one — its last member fills the hole — so the list
    /// stays grouped at O(rounds) moves; `parallel`, a list-parallel
    /// vector, gets the same moves. Returns `false` if `i` was not
    /// informed.
    pub(crate) fn unmark_grouped<S>(
        &mut self,
        i: usize,
        ends: &mut [u32],
        parallel: &mut Vec<S>,
    ) -> bool {
        let p = self.pos[i];
        if p == NOT_INFORMED {
            return false;
        }
        debug_assert_eq!(ends.last().copied(), Some(self.list.len() as u32));
        let mut hole = p as usize;
        for end in &mut ends[self.at[hole] as usize..] {
            *end -= 1;
            let last = *end as usize;
            self.list.swap(hole, last);
            self.at.swap(hole, last);
            parallel.swap(hole, last);
            self.pos[self.list[hole] as usize] = hole as u32;
            hole = last;
        }
        self.list.pop();
        self.at.pop();
        parallel.pop();
        self.pos[i] = NOT_INFORMED;
        true
    }

    /// Accommodates topology growth (new slots join uninformed).
    pub(crate) fn ensure_len(&mut self, node_count: usize) {
        if self.pos.len() < node_count {
            self.pos.resize(node_count, NOT_INFORMED);
        }
    }

    /// Consumes the index into the per-node reception-round vector.
    pub(crate) fn into_informed_at(self) -> Vec<Option<Round>> {
        let mut dense = vec![None; self.pos.len()];
        for (idx, &i) in self.list.iter().enumerate() {
            dense[i as usize] = Some(self.at[idx]);
        }
        dense
    }

    /// Index-list heap capacity, for the no-allocation tests.
    pub(crate) fn capacity(&self) -> usize {
        self.list.capacity() + self.at.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{FaultEvent, FaultPlan, GilbertElliott};
    use crate::protocols::{FloodPush, FloodPushPull};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rrb_graph::{gen, Graph};

    type Gate = RoundGate<fn(usize) -> bool, fn(usize) -> bool, fn(usize) -> bool>;
    type MakeGate = fn() -> Gate;

    use RoundKind::{Frontier, Sampled, Silent};

    /// A round gate in which no node pull-serves and the uninformed slots
    /// are the incomplete ones.
    fn gate(uninformed: fn(usize) -> bool, pushes: fn(usize) -> bool, kind: RoundKind) -> Gate {
        RoundGate { uninformed, pushes, lacks: uninformed, any_pull: false, kind }
    }

    /// Every caller pushes: every caller is `Open`.
    fn all_open() -> Gate {
        gate(|_| false, |_| true, Sampled)
    }

    /// One round of `protocol` on `g` from `seed`, no caller blocked:
    /// the fabric and the generator after it.
    fn sample_one<P: Protocol>(
        g: &Graph,
        protocol: &P,
        failures: FailureModel,
        faults: Option<&FaultState>,
        gate: Gate,
        seed: u64,
    ) -> (ChannelFabric, SmallRng) {
        let n = g.node_count();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fabric = ChannelFabric::new(n);
        let mut choice = ChoiceState::new(n, protocol.choice_policy());
        let blocked = vec![false; n];
        fabric.sample_round(g, protocol, &mut choice, failures, faults, &blocked, gate, &mut rng);
        (fabric, rng)
    }

    #[test]
    fn fabric_reverse_index_inverts_forward_lists() {
        let g = gen::complete(12);
        let four = FloodPushPull::with_policy(ChoicePolicy::FOUR);
        let (mut fabric, _) = sample_one(&g, &four, FailureModel::NONE, None, all_open(), 3);
        assert_eq!(fabric.counters().channels, 12 * 4);
        assert_eq!(fabric.len(), 12 * 4);
        assert!(fabric.is_fast_path());
        fabric.build_incoming(12);
        let mut seen = 0usize;
        for w in 0..12 {
            for &(c, caller) in fabric.incoming(w) {
                assert_eq!(fabric.target(c as usize).index(), w);
                let range = fabric.out_range(caller as usize);
                assert!(range.contains(&(c as usize)), "channel not in caller's range");
                seen += 1;
            }
        }
        assert_eq!(seen, fabric.len(), "reverse index must cover every channel");
    }

    #[test]
    fn fabric_skip_counts_channels_without_sampling() {
        // A push-only protocol, every caller uninformed: full channel
        // count, nothing drawn or materialised.
        let g = gen::complete(8);
        let uninformed = || gate(|_| true, |_| false, Sampled);
        let none = FailureModel::NONE;
        let (fabric, rng) = sample_one(&g, &FloodPush::new(), none, None, uninformed(), 5);
        assert_eq!(fabric.counters().channels, 8);
        assert_eq!(fabric.counters().skipped_draws, 8);
        assert_eq!(fabric.len(), 0);
        assert_eq!(rng, SmallRng::seed_from_u64(5));
        // A protocol that pull-serves samples uninformed callers too.
        let pulls = FloodPushPull::new();
        let (fabric, _) = sample_one(&g, &pulls, none, None, uninformed(), 5);
        assert_eq!((fabric.counters().skipped_draws, fabric.len()), (0, 0));
        assert!(fabric.counters().fabric_words > 0, "quiet callers owe their words");
    }

    #[test]
    fn quiet_callers_draw_like_open_ones_but_store_nothing() {
        // Odd callers are quiet. Their channels are counted and their draws
        // made, so the generator ends where an all-open round leaves it,
        // and the even callers' channels are exactly the all-open ones.
        let g = gen::complete(16);
        for policy in [ChoicePolicy::FOUR, ChoicePolicy::SEQUENTIAL, ChoicePolicy::Cyclic] {
            let protocol = FloodPushPull::with_policy(policy);
            let sample = |gate: Gate| {
                let (fabric, rng) = sample_one(&g, &protocol, FailureModel::NONE, None, gate, 12);
                let lists: Vec<Vec<NodeId>> = (0..16)
                    .map(|i| fabric.out_range(i).map(|c| fabric.target(c)).collect())
                    .collect();
                (fabric.counters().channels, lists, rng)
            };
            let (open_channels, open_lists, open_rng) = sample(all_open());
            let (quiet_channels, quiet_lists, quiet_rng) =
                sample(gate(|_| false, |i| i % 2 == 0, Sampled));
            assert_eq!(open_channels, quiet_channels, "{policy:?}");
            assert_eq!(open_rng, quiet_rng, "{policy:?}: quiet callers must draw");
            for i in 0..16 {
                if i % 2 == 1 {
                    assert!(quiet_lists[i].is_empty(), "{policy:?}: quiet caller {i} stored");
                } else {
                    assert_eq!(open_lists[i], quiet_lists[i], "{policy:?}: caller {i}");
                }
            }
        }
    }

    #[test]
    fn silent_sampling_counts_and_draws_like_quiet_sampling() {
        // Degrees below, at and above k, blocked callers and skipped ones:
        // the silent pass counts what an all-quiet round counts and leaves
        // the generator where it does, without building caller lists.
        let n = 300;
        let g = gen::preferential_attachment(n, 2, &mut SmallRng::seed_from_u64(2)).expect("graph");
        let degrees: Vec<usize> = (0..n).map(|i| g.degree(NodeId::new(i))).collect();
        assert!([2, 4, 9].iter().all(|d| degrees.contains(d)), "mixed degrees");
        let blocked: Vec<bool> = (0..n).map(|i| i % 7 == 3).collect();
        for k in [1, 3, 4, 6] {
            let protocol = FloodPush::with_policy(ChoicePolicy::Distinct(k));
            let sample = |kind: RoundKind| {
                let mut rng = SmallRng::seed_from_u64(21);
                let mut fabric = ChannelFabric::new(n);
                let mut choice = ChoiceState::new(n, protocol.choice_policy());
                let gate = gate(|i| i % 5 == 1, |_| false, kind);
                let (none, choice) = (FailureModel::NONE, &mut choice);
                fabric.sample_round(&g, &protocol, choice, none, None, &blocked, gate, &mut rng);
                (fabric, rng)
            };
            let (quiet, quiet_rng) = sample(Sampled);
            let (silent, silent_rng) = sample(Silent);
            assert_eq!(silent_rng, quiet_rng, "k = {k}");
            assert_eq!(silent.counters(), quiet.counters(), "k = {k}");
            let counters = quiet.counters();
            assert!(counters.fabric_words > 0 && counters.skipped_draws > 0);
            assert_eq!((quiet.kind(), silent.kind()), (Sampled, Silent));
            assert_eq!((quiet.len(), silent.len()), (0, 0));
        }
    }

    /// One fast-path round of `protocol` on `g` in `segments` caller
    /// segments: the fabric and the generator after it.
    fn sample_segmented<T: Topology + ?Sized, P: Protocol>(
        g: &T,
        protocol: &P,
        faults: Option<&FaultState>,
        blocked: &[bool],
        gate: Gate,
        segments: usize,
    ) -> (ChannelFabric, SmallRng) {
        let n = g.node_count();
        let mut rng = SmallRng::seed_from_u64(31);
        let mut fabric = ChannelFabric::new(n);
        let mut choice = ChoiceState::new(n, protocol.choice_policy());
        let layout = ShardLayout::new(n, segments);
        let none = FailureModel::NONE;
        let (choice, probe) = (&mut choice, &mut None);
        fabric.sample_round_sharded(g, protocol, choice, none, faults, blocked, gate, layout, probe, &mut rng);
        (fabric, rng)
    }

    #[test]
    fn segmented_sampling_equals_one_segment() {
        // Degrees below, at and above k, blocked callers and callees, a
        // partition, and every gate mix: each segment count builds the
        // lists, channel ids and counters one segment builds and leaves
        // the generator where it does. The small graph has empty segments
        // (7 segments of 2 over 10 callers), and the "late" gate leaves the
        // first segments' windows empty.
        let pa = gen::preferential_attachment(300, 2, &mut SmallRng::seed_from_u64(2)).expect("graph");
        let degrees: Vec<usize> = (0..300).map(|i| pa.degree(NodeId::new(i))).collect();
        assert!([2, 4, 9].iter().all(|d| degrees.contains(d)), "mixed degrees");
        assert!(degrees.iter().any(|&d| d > 17), "a caller takes the heap Floyd scratch");
        let plan = FaultPlan {
            schedule: vec![FaultEvent::Partition { from: 1, until: 9, parts: 3 }],
            ..FaultPlan::default()
        };
        let gates: [(&str, MakeGate); 9] = [
            ("open", all_open),
            ("mixed", || gate(|i| i % 5 == 1, |i| i % 3 != 0, Sampled)),
            ("late", || gate(|i| i < 130, |i| i % 3 != 0, Sampled)),
            ("pull", || RoundGate { any_pull: true, ..gate(|i| i % 5 == 1, |_| false, Sampled) }),
            ("silent", || gate(|i| i % 5 == 1, |_| false, Silent)),
            ("complete", || gate(|_| false, |_| true, Frontier)),
            ("frontier", || gate(|i| i % 97 == 40, |i| i % 97 != 40, Frontier)),
            ("frontier pull", || RoundGate { any_pull: true, ..gate(|i| i == 150, |_| true, Frontier) }),
            ("over budget", || gate(|i| i % 3 == 0, |i| i % 3 != 0, Frontier)),
        ];
        // Rounds in which blocked or partitioned-away callees leave gaps.
        let mut gaps = 0;
        for g in [pa, gen::complete(10)] {
            let n = g.node_count();
            let blocked: Vec<bool> = (0..n).map(|i| i % 7 == 3).collect();
            let mut fs = FaultState::new(&plan, n, 0);
            fs.begin_round(1, n, |_| 2, |_| None, |_| true);
            for k in [1, 4, 17] {
                let protocol = FloodPush::with_policy(ChoicePolicy::Distinct(k));
                for faults in [None, Some(&fs)] {
                    for (label, make) in gates {
                        let case = format!("n = {n}, k = {k}, {label}, faults: {}", faults.is_some());
                        let (one, one_rng) =
                            sample_segmented(&g, &protocol, faults, &blocked, make(), 1);
                        assert!(one.is_fast_path(), "{case}");
                        gaps += usize::from(label == "open" && (one.len() as u64) < one.counters().channels);
                        for segments in [2, 3, 7] {
                            let (many, many_rng) =
                                sample_segmented(&g, &protocol, faults, &blocked, make(), segments);
                            let case = format!("{case}, {segments} segments");
                            assert_eq!(many.offsets, one.offsets, "{case}");
                            assert_eq!(many.targets, one.targets, "{case}");
                            assert_eq!(many.counters(), one.counters(), "{case}");
                            assert_eq!(many_rng, one_rng, "{case}");
                        }
                    }
                }
            }
        }
        assert!(gaps >= 6, "only {gaps} open rounds had windows to close up");
    }

    /// A graph with one dead slot the census does not know about.
    struct OneDead(Graph, usize);

    impl Topology for OneDead {
        fn node_count(&self) -> usize {
            self.0.node_count()
        }
        fn is_alive(&self, v: NodeId) -> bool {
            v.index() != self.1
        }
        fn stubs(&self, v: NodeId) -> &[NodeId] {
            self.0.neighbors(v)
        }
    }

    #[test]
    fn saturated_rounds_count_what_an_all_open_round_samples() {
        // With every slot alive, unblocked and informed, a frontier round
        // has an empty frontier and builds no lists: it counts the
        // channels and words an all-open round samples, books every
        // channel, jumps all the words and leaves the generator where the
        // open round does, at any segment count.
        let pa = gen::preferential_attachment(300, 2, &mut SmallRng::seed_from_u64(2)).expect("graph");
        let present = vec![false; pa.node_count()];
        let complete = || gate(|_| false, |_| true, Frontier);
        for k in [1, 4, 17] {
            let protocol = FloodPushPull::with_policy(ChoicePolicy::Distinct(k));
            for segments in [1, 2, 3, 7] {
                let case = format!("k = {k}, {segments} segments");
                let (open, open_rng) = sample_segmented(&pa, &protocol, None, &present, all_open(), segments);
                let (sat, sat_rng) = sample_segmented(&pa, &protocol, None, &present, complete(), segments);
                assert_eq!((open.kind(), sat.kind()), (Sampled, Frontier), "{case}");
                assert!(!sat.listed() && open.listed(), "{case}");
                let words = open.counters().fabric_words;
                assert!(words > 0 && open.counters().jumped_words == 0, "{case}");
                let channels = open.counters().channels;
                let counted = RoundCounters { jumped_words: words, booked_channels: channels, ..open.counters() };
                assert_eq!(sat.counters(), counted, "{case}");
                assert_eq!(sat_rng, open_rng, "{case}");
            }
        }
    }

    /// The slots a frontier round must sample, found from each slot's own
    /// stubs: the incomplete ones (dead in the topology, blocked or
    /// `lacks`) and those with an incomplete neighbour.
    fn expected_frontier(g: &dyn Topology, blocked: &[bool], lacks: fn(usize) -> bool) -> Vec<bool> {
        let incomplete = |i: usize| !g.is_alive(NodeId::new(i)) || blocked[i] || lacks(i);
        (0..g.node_count())
            .map(|i| incomplete(i) || g.stubs(NodeId::new(i)).iter().any(|w| incomplete(w.index())))
            .collect()
    }

    #[test]
    fn frontier_rounds_list_what_an_all_open_round_lists_for_the_frontier() {
        // A frontier round against the same gate's ordinary round, with
        // blocked slots, a slot only the topology has dead, and uninformed
        // ones, pushing and push&pull, at 1, 2, 3 and 7 segments. Within
        // the budget it lists exactly the ordinary round's channels of the
        // frontier callers and nothing else, books every other present
        // caller's channels and owes their words; its other counters and
        // the generator afterwards are the ordinary round's. Over the
        // budget it is the ordinary round.
        let pa = gen::preferential_attachment(300, 2, &mut SmallRng::seed_from_u64(2)).expect("graph");
        let n = pa.node_count();
        let dead = OneDead(pa.clone(), 11);
        let mut blocked = vec![false; n];
        blocked[7] = true;
        blocked[200] = true;
        let sparse: fn(usize) -> bool = |i| i == 40 || i == 150 || i == 299;
        let wide: fn(usize) -> bool = |i| i % 3 == 0;
        let mut listed_rounds = 0;
        for k in [1, 4, 17] {
            for (what, uninformed) in [("sparse", sparse), ("wide", wide)] {
                for pull in [false, true] {
                    let frontier_gate = RoundGate {
                        uninformed,
                        pushes: if what == "sparse" { |i| !(i == 40 || i == 150 || i == 299) } else { |i| i % 3 != 0 },
                        lacks: uninformed,
                        any_pull: pull,
                        kind: Frontier,
                    };
                    let protocol = FloodPushPull::with_policy(ChoicePolicy::Distinct(k));
                    for segments in [1, 2, 3, 7] {
                        let case = format!("k = {k}, {what}, pull {pull}, {segments} segments");
                        let (front, front_rng) = sample_segmented(
                            &dead,
                            &protocol,
                            None,
                            &blocked,
                            RoundGate { ..frontier_gate },
                            segments,
                        );
                        let (plain, plain_rng) = sample_segmented(
                            &dead,
                            &protocol,
                            None,
                            &blocked,
                            RoundGate { kind: Sampled, ..frontier_gate },
                            segments,
                        );
                        assert_eq!(front_rng, plain_rng, "{case}");
                        if what == "wide" {
                            assert_eq!(front.kind(), Sampled, "{case}: over the budget");
                            assert_eq!((&front.offsets, &front.targets), (&plain.offsets, &plain.targets), "{case}");
                            assert_eq!(front.counters(), plain.counters(), "{case}");
                            continue;
                        }
                        assert_eq!(front.kind(), Frontier, "{case}");
                        let in_frontier = expected_frontier(&dead, &blocked, uninformed);
                        let (mut booked, mut owed) = (0, 0);
                        for (i, &inside) in in_frontier.iter().enumerate() {
                            let list = |f: &ChannelFabric| -> Vec<NodeId> {
                                f.out_range(i).map(|c| f.target(c)).collect()
                            };
                            if inside {
                                assert_eq!(list(&front), list(&plain), "{case}: frontier caller {i}");
                            } else {
                                assert!(list(&front).is_empty(), "{case}: caller {i} is not in the frontier");
                                let deg = pa.degree(NodeId::new(i));
                                booked += deg.min(k) as u64;
                                owed += if deg > k { k as u64 } else { 0 };
                            }
                        }
                        let p = plain.counters();
                        let expected = RoundCounters {
                            jumped_words: p.jumped_words + owed,
                            booked_channels: booked,
                            ..p
                        };
                        assert!(booked > 0 && booked < p.channels, "{case}: {booked} booked");
                        assert_eq!(front.counters(), expected, "{case}");
                        listed_rounds += 1;
                    }
                }
            }
        }
        assert_eq!(listed_rounds, 3 * 2 * 4);
    }

    #[test]
    fn only_loss_free_distinct_rounds_without_a_channel_view_can_saturate() {
        let n = 12;
        let at_round_1 = |plan: FaultPlan| {
            let mut fs = FaultState::new(&plan, n, 0);
            fs.begin_round(1, n, |_| 11, |_| None, |_| true);
            fs
        };
        let partition = at_round_1(FaultPlan {
            schedule: vec![FaultEvent::Partition { from: 1, until: 9, parts: 3 }],
            ..FaultPlan::default()
        });
        let healed = at_round_1(FaultPlan {
            schedule: vec![FaultEvent::Partition { from: 2, until: 9, parts: 3 }],
            ..FaultPlan::default()
        });
        let burst = at_round_1(FaultPlan {
            burst: Some(GilbertElliott::new(0.1, 0.4, 0.02, 0.6)),
            ..FaultPlan::default()
        });
        let (four, none) = (ChoicePolicy::FOUR, FailureModel::NONE);
        assert!(can_saturate(four, none, None));
        assert!(can_saturate(four, FailureModel::crashes(0.1), Some(&healed)));
        assert!(!can_saturate(four, none, Some(&partition)));
        assert!(!can_saturate(four, none, Some(&burst)));
        assert!(!can_saturate(four, FailureModel::channels(0.1), None));
        assert!(!can_saturate(four, FailureModel::transmissions(0.1), None));
        assert!(!can_saturate(ChoicePolicy::SEQUENTIAL, none, None));
        assert!(!can_saturate(ChoicePolicy::Cyclic, none, None));
    }

    #[test]
    fn quiet_callers_are_sampled_off_the_fast_path() {
        // Per-channel failure draws need the targets, so a lossy round
        // treats quiet callers as open, and a lossy silent or frontier
        // round samples.
        let g = gen::complete(16);
        let four = FloodPushPull::with_policy(ChoicePolicy::FOUR);
        for kind in [Sampled, Silent, Frontier] {
            let quiet = gate(|_| false, |_| false, kind);
            let (fabric, _) = sample_one(&g, &four, FailureModel::channels(0.3), None, quiet, 13);
            assert!(!fabric.is_fast_path() && fabric.kind() == Sampled);
            assert_eq!(fabric.len(), 16 * 4);
        }
    }

    #[test]
    fn fabric_slow_path_materialises_all_sampled_channels() {
        let g = gen::complete(16);
        let lossy = FailureModel::channels(0.5);
        let (fabric, _) = sample_one(&g, &FloodPushPull::new(), lossy, None, all_open(), 9);
        assert_eq!(fabric.counters().channels, 16);
        assert_eq!(fabric.len(), 16);
        assert!(!fabric.is_fast_path());
        let usable = (0..fabric.len()).filter(|&c| fabric.usable(c)).count();
        assert!(usable < 16, "with p = 0.5 some channel fails for this seed");
    }

    #[test]
    fn transmission_draws_cover_each_used_direction_once() {
        // Even callers push and callees divisible by 3 pull-serve: one
        // outcome per used direction, none without a failure rate.
        let g = gen::complete(12);
        let four = FloodPushPull::with_policy(ChoicePolicy::FOUR);
        let pushes = |i: usize| i.is_multiple_of(2);
        let serves = |w: usize| w.is_multiple_of(3);
        for rate in [0.0, 0.5] {
            let failures = FailureModel::transmissions(rate);
            let (mut fabric, mut rng) = sample_one(&g, &four, failures, None, all_open(), 4);
            let before = rng.clone();
            let used = fabric.draw_transmissions(failures, pushes, serves, &mut rng);
            let want: u64 = (0..12)
                .flat_map(|i| fabric.out_range(i).map(move |c| (i, c)))
                .map(|(i, c)| u64::from(pushes(i)) + u64::from(serves(fabric.target(c).index())))
                .sum();
            assert_eq!(used, want);
            let arrived = (0..fabric.len())
                .filter(|&c| fabric.push_arrives(c) && fabric.pull_arrives(c))
                .count();
            if rate == 0.0 {
                assert_eq!(rng, before, "no rate, no draw");
                assert_eq!(arrived, fabric.len());
            } else {
                assert!(rng != before && arrived < fabric.len());
            }
        }
    }

    #[test]
    fn partition_view_blocks_cross_component_channels_on_the_fast_path() {
        let g = gen::complete(12);
        let plan = FaultPlan {
            schedule: vec![FaultEvent::Partition { from: 1, until: 9, parts: 3 }],
            ..FaultPlan::default()
        };
        let mut fs = FaultState::new(&plan, 12, 0);
        fs.begin_round(1, 12, |_| 11, |_| None, |_| true);
        let four = FloodPushPull::with_policy(ChoicePolicy::FOUR);
        let (fabric, _) = sample_one(&g, &four, FailureModel::NONE, Some(&fs), all_open(), 4);
        // Opened channels are still counted; only same-component ones
        // materialise, and a pure partition keeps the draw-free fast path.
        assert_eq!(fabric.counters().channels, 12 * 4);
        assert!(fabric.is_fast_path());
        assert!(fabric.len() < 12 * 4, "cross-component channels must be dropped");
        for i in 0..12 {
            for c in fabric.out_range(i) {
                assert_eq!(fabric.target(c).index() % 3, i % 3, "caller {i} crossed the cut");
            }
        }
    }

    #[test]
    fn burst_view_forces_the_slow_path_and_fails_bad_channels() {
        let g = gen::complete(16);
        // Chains that are certainly bad from round 1, with certain loss.
        let plan = FaultPlan {
            burst: Some(GilbertElliott::new(1.0, 0.0, 0.0, 1.0)),
            ..FaultPlan::default()
        };
        let mut fs = FaultState::new(&plan, 16, 3);
        fs.begin_round(1, 16, |_| 15, |_| None, |_| true);
        let (fabric, _) =
            sample_one(&g, &FloodPushPull::new(), FailureModel::NONE, Some(&fs), all_open(), 8);
        assert_eq!(fabric.counters().channels, 16);
        assert!(!fabric.is_fast_path(), "burst loss requires per-channel draws");
        assert_eq!(fabric.len(), 16, "slow path materialises every sampled channel");
        let usable = (0..fabric.len()).filter(|&c| fabric.usable(c)).count();
        assert_eq!(usable, 0, "all-bad chains with loss 1 kill every channel");
    }

    #[test]
    fn informed_index_marks_once_and_keeps_order() {
        let mut ix = InformedIndex::new(6);
        assert!(ix.mark(4, 0));
        assert!(ix.mark(1, 2));
        assert!(!ix.mark(4, 3), "re-marking must be a no-op");
        assert_eq!(ix.at(4), Some(0));
        assert_eq!(ix.at(1), Some(2));
        assert_eq!(ix.at(0), None);
        assert!(ix.is_informed(1) && !ix.is_informed(5));
        assert_eq!(ix.list(), &[4, 1]);
        assert_eq!(ix.len(), 2);
        let at = ix.into_informed_at();
        assert_eq!(at[4], Some(0));
        assert_eq!(at[2], None);
    }

    #[test]
    fn informed_index_unmark_grouped_keeps_reception_round_groups() {
        // Groups: round 0 = {3}, round 1 = {7, 2, 6}, round 2 (empty),
        // round 3 = {5, 1}.
        let mut ix = InformedIndex::new(8);
        for (i, at) in [(3usize, 0u32), (7, 1), (2, 1), (6, 1), (5, 3), (1, 3)] {
            assert!(ix.mark(i, at));
        }
        let mut ends = vec![1, 4, 4, 6];
        let mut tags: Vec<u32> = ix.list().to_vec();
        // Removing from round 1 fills the hole from its own group, then
        // shifts round 3's group left by one.
        assert!(ix.unmark_grouped(7, &mut ends, &mut tags));
        assert_eq!(ix.list(), &[3, 6, 2, 1, 5]);
        assert_eq!(ends, [1, 3, 3, 5]);
        assert_eq!(tags, ix.list(), "the parallel vector follows every move");
        for (p, &i) in ix.list().iter().enumerate() {
            assert_eq!(ix.pos(i as usize), Some(p));
        }
        let rounds: Vec<Round> = (0..ix.len()).map(|p| ix.at_pos(p)).collect();
        assert_eq!(rounds, [0, 1, 1, 3, 3]);
        assert!(!ix.unmark_grouped(7, &mut ends, &mut tags), "double unmark is a no-op");
        // The creator's removal empties round 0.
        assert!(ix.unmark_grouped(3, &mut ends, &mut tags));
        assert_eq!(ends, [0, 2, 2, 4]);
        let rounds: Vec<Round> = (0..ix.len()).map(|p| ix.at_pos(p)).collect();
        assert_eq!(rounds, [1, 1, 3, 3]);
        assert_eq!(tags, ix.list());
    }

    #[test]
    fn informed_index_unmark_swaps_and_repairs_positions() {
        let mut ix = InformedIndex::new(8);
        for (i, at) in [(3usize, 0u32), (7, 1), (2, 1), (5, 2)] {
            assert!(ix.mark(i, at));
        }
        assert_eq!(ix.pos(7), Some(1));
        assert_eq!(ix.at_pos(1), 1);
        // Unmarking an interior entry swap-removes the tail into its slot
        // and repairs the moved node's position.
        assert_eq!(ix.unmark(7), Some(1));
        assert_eq!(ix.list(), &[3, 5, 2]);
        assert_eq!(ix.pos(5), Some(1));
        assert_eq!(ix.at(5), Some(2));
        assert!(!ix.is_informed(7));
        assert_eq!(ix.unmark(7), None, "double unmark must be a no-op");
        // The slot can be re-informed afresh.
        assert!(ix.mark(7, 9));
        assert_eq!(ix.at(7), Some(9));
        assert_eq!(ix.len(), 4);
        let at = ix.into_informed_at();
        assert_eq!(at[7], Some(9));
        assert_eq!(at[3], Some(0));
        assert_eq!(at[0], None);
    }
}
