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
//! callers as the gate classifies them. A *silent* round, in which nobody
//! transmits, builds no channel lists: one pass counts the channels and
//! words and one `discard` moves the generator. In a *frontier* round
//! every informed node sends the same directions, so only the slots that
//! are *incomplete* (dead, blocked, or missing a rumour that travels) and
//! their neighbours can see anything happen: the count pass lists the
//! incomplete slots, the fabric samples only the open callers among them
//! and next to them, and every other caller's channels are *booked*. They
//! all reach informed nodes and carry each direction of the one plan, so
//! the engine counts their transmissions without walking them. A frontier
//! round with no open caller in its frontier builds no lists at all, and
//! one whose incomplete slots have more than `n` stubs is sampled.
//!
//! On the loss-free fast path under `Distinct(k)` the words a caller takes
//! depend only on its gate and degree, never on the values drawn, so one
//! count pass per caller segment knows every caller's offset in the one
//! stream. There a round in which no node pull-serves, and every frontier
//! round, is *listed*: the count pass (a frontier round's second pass)
//! lists the callers whose channels are stored, ascending with their
//! offsets, and only they are sampled, each at its offset. The channel
//! lists hold a row for each listed caller and nothing else, and every
//! other caller's words are jumped. So a round of the paper's phase 1
//! costs one count pass plus its pushers, and the engines' exchanges and
//! transmission pre-draw walk the rows. A round in which some node
//! pull-serves is sampled *whole*, with a row per caller slot, as is every
//! round off that path.
//!
//! [`ChannelFabric::sample_round`] is the one entry for every round, and
//! each engine passes it its [`ShardLayout`] (`SimConfig::shards`). Only
//! the windowing depends on the segment count. At one segment the count
//! and list pass runs inline (it allocates nothing) and the callers are
//! sampled straight into the channel list on the generator (a round
//! sampled whole there makes no count pass). At two or more, the segments
//! are counted in parallel, an exclusive prefix sum of the counts gives
//! each segment its offset in the one stream, and each samples its own
//! callers on a clone of the generator moved to that offset, into its own
//! window of the channel list. The channel lists and the stream are those
//! one segment builds.

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
    /// Whether the engine walks a listed round's rows. An engine that
    /// looks each sender's row up by node id (the multi-rumour engine)
    /// gets its sampled rounds whole, a row per caller slot.
    pub(crate) list: bool,
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
    /// Every alive, unblocked caller is sampled as the gate classifies it
    /// (a listed round if no node pull-serves).
    #[default]
    Sampled,
    /// No node transmits and the engine reads no channel: counted, not
    /// sampled, and the engine skips its exchange.
    Silent,
    /// Every live rumour that transmits does so in the same directions
    /// from every reception round (declared only where [`frontier_allowed`]
    /// holds). Only the frontier is sampled: the open callers among the
    /// incomplete slots and their neighbours, listed. Every other caller
    /// is complete with complete neighbours, so its channels are usable,
    /// reach informed nodes and carry each direction of the plan once:
    /// they are booked ([`RoundCounters::booked_channels`]), their words
    /// are jumped, and the engine exchanges only the listed channels. With
    /// no open caller in the frontier nothing is listed.
    Frontier,
}

/// How the sampling loop treats one alive, unblocked caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallerGate {
    /// Sample and store the caller's channels.
    Open,
    /// The caller does not push and no node pull-serves this round, so its
    /// channels can carry nothing: store nothing (fast path only). Under
    /// `Distinct(k)` its draws are not made but jumped; the stateful
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
/// [`sample_round`](Self::sample_round) — every alive, uncrashed node
/// opens channels per the protocol's choice policy — and then shared by
/// however many rumours ride the fabric. On the zero-failure fast path
/// only *usable* channels (alive, uncrashed callee) are materialised and
/// no per-channel flags are stored; on the slow path every sampled
/// channel is stored together with its channel-failure outcome.
///
/// The lists have one row per caller slot in a round sampled whole (row
/// `i` is caller `i`), one per listed caller in a listed round, and none
/// after a round that builds no lists. [`rows`](Self::rows) walks them;
/// [`out_range`](Self::out_range) finds a caller's row in a round sampled
/// whole.
#[derive(Debug, Default)]
pub(crate) struct ChannelFabric {
    /// CSR offsets: row `r`'s channels are `offsets[r]..offsets[r+1]`
    /// (empty after a round that builds no lists, see
    /// [`has_lists`](Self::has_lists)).
    offsets: Vec<u32>,
    /// Each row's caller in a listed round, ascending (else unused).
    rows: Vec<u32>,
    /// Whether the last round was listed: `rows` names the rows' callers.
    listed: bool,
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
    /// Per-segment scratch of the count pass and of the fanned-out
    /// sampling.
    segments: Vec<SegmentScratch>,
    /// Per slot: in the current frontier round's frontier (all `false`
    /// between rounds).
    in_frontier: Vec<bool>,
    /// The current frontier round's frontier: its incomplete slots and
    /// their neighbours, each once.
    frontier: Vec<u32>,
    /// The last round's channels, skipped draws, generator words (all of
    /// them, and those skipped without being drawn), booked channels and
    /// listed callers: the fabric's part of its [`RoundCounters`].
    counters: RoundCounters,
    /// The kind of round the last one was.
    kind: RoundKind,
}

/// One caller segment's count and lists, and its target and Floyd scratch
/// when two or more segments sample (under `Distinct(k)` a [`ChoiceState`]
/// holds nothing else).
#[derive(Debug, Default)]
struct SegmentScratch {
    choice: ChoiceState,
    targets: Vec<NodeId>,
    /// A frontier round's incomplete slots.
    incomplete: Vec<u32>,
    /// A listed round's callers, ascending, each with the number of
    /// callers before it in the segment that take words: its words start
    /// `k` times that far into the segment's stream.
    open: Vec<(u32, u32)>,
    /// What the segment's last count pass found.
    count: SegmentCount,
    /// The segment's fabric time this round (with a probe only).
    elapsed: Duration,
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
/// stored callers open; dead, blocked or partitioned-away callees leave
/// its tail unused.
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
/// how many channels its stored callers open (its window length), in a
/// frontier round how many stubs its incomplete slots have, and how many
/// of its callers the pass covered.
#[derive(Debug, Clone, Copy, Default)]
struct SegmentCount {
    counters: RoundCounters,
    opened: usize,
    stubs: usize,
    end: usize,
}

/// The fabric's part of two sets of [`RoundCounters`], added.
fn add_fabric(a: RoundCounters, b: &RoundCounters) -> RoundCounters {
    RoundCounters {
        channels: a.channels + b.channels,
        skipped_draws: a.skipped_draws + b.skipped_draws,
        fabric_words: a.fabric_words + b.fabric_words,
        jumped_words: a.jumped_words + b.jumped_words,
        booked_channels: a.booked_channels + b.booked_channels,
        listed_callers: a.listed_callers + b.listed_callers,
        ..RoundCounters::default()
    }
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
/// takes `k` words when `deg > k`; a skipped one takes none and adds its
/// channels to the skipped draws. The `Open` callers that `stores` keeps
/// are stored (the listed callers); every other caller's words are jumped.
///
/// With `LIST` each stored caller goes into `open`, ascending, with the
/// number of callers before it in the segment that take words. With
/// `FRONTIER` a complete caller is `Open` without asking the gate, and the
/// incomplete slots (dead, blocked, or `lacks`) go into `incomplete` and
/// their stubs are summed, up to the caller whose stubs take the sum past
/// `budget`: the pass stops after it, and `end` says how far it went. The
/// topology and flags come in as arguments, which keeps their loads out of
/// the loop.
#[allow(clippy::too_many_arguments)]
// rrb-lint: hot
fn count_callers<const FRONTIER: bool, const LIST: bool, T, G, K, L>(
    topo: &T,
    blocked: &[bool],
    first: usize,
    k: usize,
    gate: G,
    stores: K,
    lacks: L,
    incomplete: &mut Vec<u32>,
    open: &mut Vec<(u32, u32)>,
    budget: usize,
) -> SegmentCount
where
    T: Topology + ?Sized,
    G: Fn(usize) -> CallerGate,
    K: Fn(usize) -> bool,
    L: Fn(usize) -> bool,
{
    let (mut channels, mut skipped, mut stored, mut stored_takers) = (0u64, 0u64, 0u64, 0u64);
    let (mut takers, mut opened, mut stubs) = (0u32, 0usize, 0usize);
    let mut end = blocked.len();
    for (j, &caller_blocked) in blocked.iter().enumerate() {
        let i = first + j;
        let v = NodeId::new(i);
        let present = topo.is_alive(v) && !caller_blocked;
        let lacking = FRONTIER && (!present || lacks(i));
        if present {
            let deg = topo.degree(v);
            let caller_channels = deg.min(k);
            channels += caller_channels as u64;
            let takes = deg > k;
            // A complete caller in a frontier round is open (see
            // `Callers::frontier_gate`), as its gate says.
            debug_assert!(!FRONTIER || lacking || gate(i) == CallerGate::Open, "complete caller {i} is not open");
            let gate = if FRONTIER && !lacking { CallerGate::Open } else { gate(i) };
            match gate {
                CallerGate::Skip => skipped += caller_channels as u64,
                CallerGate::Open if stores(i) => {
                    if LIST {
                        open.push((i as u32, takers));
                    }
                    stored += 1;
                    stored_takers += u64::from(takes);
                    opened += caller_channels;
                }
                CallerGate::Open | CallerGate::Quiet => {}
            }
            takers += u32::from(takes && gate != CallerGate::Skip);
        }
        if lacking {
            stubs += topo.degree(v);
            if stubs > budget {
                end = j + 1;
                break;
            }
            incomplete.push(i as u32);
        }
    }
    let words = u64::from(takers) * k as u64;
    let counters = RoundCounters {
        channels,
        skipped_draws: skipped,
        fabric_words: words,
        jumped_words: words - stored_takers * k as u64,
        listed_callers: stored,
        ..RoundCounters::default()
    };
    SegmentCount { counters, opened, stubs, end }
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
pub(crate) fn frontier_allowed(
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

    /// Whether a channel from caller `i` to `w` is established: a channel
    /// to a dead (departed), crashed, suspended or partitioned-away
    /// neighbour fails; it costs nothing and carries nothing.
    #[inline]
    fn connects(&self, i: usize, w: NodeId) -> bool {
        self.topo.is_alive(w) && !self.blocked[w.index()] && self.faults.is_none_or(|f| f.connects(i, w.index()))
    }

    /// Counts what sampling `callers` under `Distinct(k)` on the fast path
    /// takes (see [`count_callers`]), listing the open callers into `open`
    /// if `list`. Nobody is open in a silent round, and a gate that says
    /// so lets the compiler drop the open arm from the loop. A frontier
    /// round's pass lists its incomplete slots into `incomplete` while
    /// their stubs total at most `budget`; past it the round is sampled,
    /// so the rest of the segment is counted plainly, without asking
    /// `lacks` (or, if `list`, the whole segment, to list it).
    #[allow(clippy::too_many_arguments)]
    // rrb-lint: hot
    fn count(
        &self,
        callers: Range<usize>,
        k: usize,
        incomplete: &mut Vec<u32>,
        open: &mut Vec<(u32, u32)>,
        budget: usize,
        list: bool,
    ) -> SegmentCount {
        incomplete.clear();
        let (first, blocked) = (callers.start, &self.blocked[callers.clone()]);
        let (topo, lacks, all) = (self.topo, &self.round.lacks, |_| true);
        match self.round.kind {
            RoundKind::Silent => {
                open.clear();
                let quiet = |i| if self.skips(i) { CallerGate::Skip } else { CallerGate::Quiet };
                count_callers::<false, false, _, _, _, _>(topo, blocked, first, k, quiet, all, lacks, incomplete, open, budget)
            }
            RoundKind::Sampled => self.count_plain(callers, k, incomplete, open, list),
            RoundKind::Frontier => {
                open.clear();
                let gate = |i| self.gate(i);
                let head = count_callers::<true, false, _, _, _, _>(topo, blocked, first, k, gate, all, lacks, incomplete, open, budget);
                if head.stubs <= budget {
                    return head;
                }
                if list {
                    return SegmentCount { stubs: head.stubs, ..self.count_plain(callers, k, incomplete, open, true) };
                }
                let rest = self.count_plain(first + head.end..callers.end, k, incomplete, open, false);
                let counters = add_fabric(head.counters, &rest.counters);
                SegmentCount { counters, opened: head.opened + rest.opened, stubs: head.stubs, end: callers.len() }
            }
        }
    }

    /// Counts `callers` as gated (see [`count_callers`]), listing the open
    /// ones into `open` if `list`.
    // rrb-lint: hot
    fn count_plain(
        &self,
        callers: Range<usize>,
        k: usize,
        incomplete: &mut Vec<u32>,
        open: &mut Vec<(u32, u32)>,
        list: bool,
    ) -> SegmentCount {
        open.clear();
        let (first, blocked) = (callers.start, &self.blocked[callers]);
        let (topo, gate, all, none) = (self.topo, |i| self.gate(i), |_| true, |_| false);
        if list && !self.skip {
            // Nobody pull-serves and nobody skips: a caller is open iff it
            // pushes. Reading `pushes` straight, not through `gate`, keeps
            // `paper_quiescent`'s listed count passes about 5 ms per
            // broadcast faster (alternating perfbench pairs).
            let pushes = &self.round.pushes;
            let gate = |i| if pushes(i) { CallerGate::Open } else { CallerGate::Quiet };
            count_callers::<false, true, _, _, _, _>(topo, blocked, first, k, gate, all, none, incomplete, open, 0)
        } else if list {
            count_callers::<false, true, _, _, _, _>(topo, blocked, first, k, gate, all, none, incomplete, open, 0)
        } else {
            count_callers::<false, false, _, _, _, _>(topo, blocked, first, k, gate, all, none, incomplete, open, 0)
        }
    }

    /// Lists a frontier round's open frontier callers in `callers` into
    /// `open` (see [`count_callers`]). A caller outside the marked
    /// frontier is complete and open; its channels are booked. Debug
    /// builds check that all its stubs are complete, which a topology
    /// whose stub lists are not symmetric can break.
    // rrb-lint: hot
    fn list_frontier(
        &self,
        callers: Range<usize>,
        k: usize,
        in_frontier: &[bool],
        incomplete: &mut Vec<u32>,
        open: &mut Vec<(u32, u32)>,
    ) -> SegmentCount {
        open.clear();
        let (first, blocked) = (callers.start, &self.blocked[callers]);
        let gate = |i: usize| {
            if in_frontier[i] {
                return self.frontier_gate(i);
            }
            debug_assert!(
                self.topo.stubs(NodeId::new(i)).iter().all(|w| self.complete(w.index())),
                "booked caller {i} has an incomplete neighbour: are the stub lists symmetric?"
            );
            CallerGate::Open
        };
        let (stores, none) = (|i: usize| in_frontier[i], |_| false);
        count_callers::<false, true, _, _, _, _>(self.topo, blocked, first, k, gate, stores, none, incomplete, open, 0)
    }

    /// Marks the frontier of a frontier round: every slot in `incomplete`
    /// and every stub of theirs, each once, into `in_frontier` and
    /// `frontier`. The neighbours of an incomplete slot are read from its
    /// own stubs, which [`Topology`]'s symmetry contract makes exact.
    /// Returns whether an open caller is in the frontier.
    fn mark_frontier<'l>(
        &self,
        incomplete: impl Iterator<Item = &'l [u32]>,
        in_frontier: &mut [bool],
        frontier: &mut Vec<u32>,
    ) -> bool {
        frontier.clear();
        let mut open = false;
        for &v in incomplete.flatten() {
            let v = NodeId::new(v as usize);
            for w in std::iter::once(v).chain(self.topo.stubs(v).iter().copied()) {
                let i = w.index();
                if in_frontier[i] {
                    continue;
                }
                in_frontier[i] = true;
                frontier.push(i as u32);
                open = open
                    || (self.topo.is_alive(w) && !self.blocked[i] && self.frontier_gate(i) == CallerGate::Open);
            }
        }
        open
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
    /// Returns the segment's part of the round's counters.
    #[allow(clippy::too_many_arguments)]
    // rrb-lint: hot
    fn sample<O: Sink, R: Rng + ?Sized>(
        &self,
        callers: Range<usize>,
        ends: &mut [u32],
        base: u32,
        out: &mut O,
        ok: &mut Vec<bool>,
        choice: &mut ChoiceState,
        scratch: &mut Vec<NodeId>,
        rng: &mut R,
    ) -> RoundCounters {
        let (topo, policy, failures) = (self.topo, self.policy, self.failures);
        let first = callers.start;
        let (mut skipped, mut channels, mut stored) = (0u64, 0u64, 0u64);
        let mut words = WordTally::default();
        for i in callers {
            let v = NodeId::new(i);
            if topo.is_alive(v) && !self.blocked[i] {
                match self.gate(i) {
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
                        stored += 1;
                        for &w in scratch.iter() {
                            let callee_ok = self.connects(i, w);
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
            ends[i - first] = base + out.len() as u32;
        }
        words.settle(rng);
        RoundCounters {
            channels,
            skipped_draws: skipped,
            fabric_words: words.words,
            jumped_words: words.owed,
            listed_callers: stored,
            ..RoundCounters::default()
        }
    }

    /// Samples the listed callers `open` of one segment (see
    /// [`SegmentScratch::open`]) on `rng`, which stands at the segment's
    /// first word: each caller's words are drawn at its offset, and the
    /// words between are skipped with one `discard`. Row `r` is caller
    /// `rows[r]`, its channel list ends at `ends[r]` (`base` plus what
    /// `out` holds). Returns the channels sampled, the words drawn and the
    /// callers listed, and how far into the segment's stream `rng` stands.
    #[allow(clippy::too_many_arguments)]
    // rrb-lint: hot
    fn sample_listed<O: Sink, R: Rng + ?Sized>(
        &self,
        open: &[(u32, u32)],
        k: usize,
        rows: &mut [u32],
        ends: &mut [u32],
        base: u32,
        out: &mut O,
        choice: &mut ChoiceState,
        scratch: &mut Vec<NodeId>,
        rng: &mut R,
    ) -> (RoundCounters, u64) {
        let (topo, policy) = (self.topo, self.policy);
        let (mut at, mut drawn, mut channels) = (0u64, 0u64, 0u64);
        for (r, &(i, before)) in open.iter().enumerate() {
            let offset = u64::from(before) * k as u64;
            rng.discard(offset - at);
            let taken = sample_targets(topo, NodeId::new(i as usize), policy, choice, rng, scratch);
            (at, drawn) = (offset + taken, drawn + taken);
            channels += scratch.len() as u64;
            for &w in scratch.iter() {
                if self.connects(i as usize, w) {
                    out.push(w);
                }
            }
            rows[r] = i;
            ends[r] = base + out.len() as u32;
        }
        let counters = RoundCounters {
            channels,
            fabric_words: drawn,
            listed_callers: open.len() as u64,
            ..RoundCounters::default()
        };
        (counters, at)
    }
}

/// Runs `count` over the segments of `layout` whose last count `redo`
/// picks, into each one's [`SegmentScratch::count`]: inline at one segment
/// (no allocation), in parallel at two or more, adding each segment's time
/// to its `elapsed` when `probing`.
fn count_segments<F>(
    segments: &mut [SegmentScratch],
    layout: ShardLayout,
    n: usize,
    probing: bool,
    redo: impl Fn(&SegmentCount) -> bool,
    count: F,
) where
    F: Fn(Range<usize>, &mut SegmentScratch) -> SegmentCount + Sync,
{
    if let [scratch] = segments {
        if redo(&scratch.count) {
            scratch.count = count(0..n, scratch);
        }
        return;
    }
    let items: Vec<(Range<usize>, &mut SegmentScratch)> = segments
        .iter_mut()
        .enumerate()
        .filter(|(_, scratch)| redo(&scratch.count))
        .map(|(s, scratch)| (layout.range(s, n), scratch))
        .collect();
    let _: Vec<()> = items
        .into_par_iter()
        .map(|(range, scratch)| {
            let clock = ShardClock::armed(probing);
            scratch.count = count(range, scratch);
            scratch.elapsed += clock.elapsed();
        })
        .collect();
}

/// Asserts that segment `s` sampled what its count pass counted: in a
/// listed round its stored callers' channels and words, else every
/// caller's channels, skipped draws and words; and its stored callers.
fn debug_check_segment(s: usize, listed: bool, count: &SegmentCount, sampled: &RoundCounters) {
    let c = &count.counters;
    let counted = if listed {
        (count.opened as u64, 0, c.fabric_words - c.jumped_words, c.listed_callers)
    } else {
        (c.channels, c.skipped_draws, c.fabric_words, c.listed_callers)
    };
    let drawn = (sampled.channels, sampled.skipped_draws, sampled.fabric_words, sampled.listed_callers);
    debug_assert_eq!(drawn, counted, "segment {s} sampled other than it counted");
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
    /// allow, over `layout`'s contiguous caller segments;
    /// [`counters`](Self::counters) then reports what it opened and drew.
    /// The lists, channel ids, counters and the generator afterwards are
    /// the same at every segment count. The rules:
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
    /// - **Count pass.** On the fast path under `Distinct(k)` the words a
    ///   caller takes depend only on its gate and degree, never on the
    ///   values drawn. There every round but one sampled whole at one
    ///   segment first counts each segment's channels, skipped draws and
    ///   words. Every round off that path is sampled whole on `rng`.
    /// - **Silent round.** In a silent round every caller is `Quiet` or
    ///   `Skip`: it builds no lists, one `discard` moves the generator past
    ///   the counted words, and [`kind`](Self::kind) tells the engine to
    ///   skip its exchange.
    /// - **Listed round.** In a round in which no node pull-serves the
    ///   count pass lists the `Open` callers, ascending, with their
    ///   offsets in the stream. Only they are sampled, each at its offset,
    ///   and the lists hold their rows only; every other caller's words
    ///   are jumped.
    /// - **Frontier round.** In a round declared frontier (only where
    ///   [`frontier_allowed`] holds) the count pass also lists the
    ///   incomplete slots: dead in the topology, blocked, or `lacks`. If
    ///   their stubs number at most `n`, the incomplete slots and their
    ///   neighbours form the frontier, and a second pass lists its open
    ///   callers with their offsets: the round is listed. Every other
    ///   caller is complete, is `Open` and calls complete nodes: its
    ///   channels are booked and its words jumped. With no open caller in
    ///   the frontier the round builds no lists (one `discard`, every open
    ///   channel booked). Over the budget the round is sampled, as gated
    ///   (listed if no node pull-serves); the count pass drew nothing, so
    ///   this is exact.
    /// - **Segments.** At one segment a round is sampled straight into the
    ///   channel list on `rng`. At two or more, an exclusive prefix sum of
    ///   the counted words gives each segment its offset in the stream and
    ///   its window of the list; each clones `rng`, `discard`s to its
    ///   offset and samples its callers into its window, in parallel, with
    ///   its own scratch; then `rng` `discard`s the round's words and each
    ///   window's filled part moves down to close the gaps that unusable
    ///   channels left. Each segment's time goes to `probe` as its share
    ///   of the [`Fabric`](StepPhase::Fabric) phase (no clock is read
    ///   without a probe, and a round at one segment reports none).
    ///
    /// `faults` is the installed fault plan's state: partitioned pairs
    /// fail to establish like calls to a crashed peer (no cost, no draw),
    /// and burst-loss state raises the per-channel failure probability
    /// (drawn on the **main** stream at exactly the baseline draw's
    /// position). With `faults == None` the code path and draw sequence
    /// are byte-identical to the pre-fault engine.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sample_round<T, P, U, S, L, R>(
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
        let n = topo.node_count();
        let view = faults.and_then(FaultState::channel_view);
        self.fast_path = is_fast_path(failures, faults);
        self.tx_drawn = false;
        self.kind = RoundKind::Sampled;
        self.listed = false;
        let callers = Callers {
            topo,
            policy: protocol.choice_policy(),
            failures,
            blocked,
            faults: view.as_ref(),
            fast_path: self.fast_path,
            round: &gate,
            skip: !protocol.capabilities().uses_pull && protocol.choice_policy().is_memoryless(),
        };
        let segments = layout.count();
        let list = gate.list && !gate.any_pull;
        let k = match callers.policy {
            ChoicePolicy::Distinct(k)
                if callers.fast_path && (gate.kind != RoundKind::Sampled || list || segments > 1) =>
            {
                k
            }
            _ => return self.sample_whole(&callers, n, choice, rng),
        };
        let probing = probe.is_some() && segments > 1;
        self.segments.resize_with(segments, SegmentScratch::default);
        for scratch in &mut self.segments {
            scratch.elapsed = Duration::ZERO;
        }

        // Every segment's counters and window length, its listed callers
        // and a frontier round's incomplete slots. Over the budget at two
        // or more segments, a segment that counted within it lists now.
        let count = |range, scratch: &mut SegmentScratch| {
            callers.count(range, k, &mut scratch.incomplete, &mut scratch.open, n, list)
        };
        count_segments(&mut self.segments, layout, n, probing, |_| true, count);
        let stubs: usize = self.segments.iter().map(|s| s.count.stubs).sum();
        let frontier = gate.kind == RoundKind::Frontier && stubs <= n;
        if gate.kind == RoundKind::Frontier && !frontier && list {
            let relist = |range, scratch: &mut SegmentScratch| {
                callers.count_plain(range, k, &mut scratch.incomplete, &mut scratch.open, true)
            };
            count_segments(&mut self.segments, layout, n, probing, |c| c.stubs <= n, relist);
        }
        let total = self.segments.iter().fold(RoundCounters::default(), |t, s| add_fabric(t, &s.count.counters));

        // The round's kind: counted (no lists), a frontier to list, listed,
        // or sampled whole.
        let counted = match gate.kind {
            RoundKind::Silent => Some(0),
            _ if frontier => {
                self.in_frontier.resize(n, false);
                let incomplete = self.segments.iter().map(|scratch| scratch.incomplete.as_slice());
                let open = callers.mark_frontier(incomplete, &mut self.in_frontier, &mut self.frontier);
                (!open).then(|| self.segments.iter().map(|s| s.count.opened as u64).sum())
            }
            _ => None,
        };
        if let Some(booked) = counted {
            // No lists: one `discard` past the counted words leaves the
            // generator where sampling would, since no draw depends on the
            // values drawn before it. Every word is jumped.
            self.offsets.clear();
            self.targets.clear();
            self.ok.clear();
            rng.discard(total.fabric_words);
            self.counters = RoundCounters {
                jumped_words: total.fabric_words,
                booked_channels: booked,
                listed_callers: 0,
                ..total
            };
            self.kind = gate.kind;
        } else if frontier {
            // Every open channel but the listed ones' is booked.
            let all_open: usize = self.segments.iter().map(|s| s.count.opened).sum();
            let in_frontier = &self.in_frontier;
            let relist = |range, scratch: &mut SegmentScratch| {
                callers.list_frontier(range, k, in_frontier, &mut scratch.incomplete, &mut scratch.open)
            };
            count_segments(&mut self.segments, layout, n, probing, |_| true, relist);
            let listed = self.segments.iter().fold(RoundCounters::default(), |t, s| add_fabric(t, &s.count.counters));
            let work = |c: &RoundCounters| (c.channels, c.skipped_draws, c.fabric_words);
            debug_assert_eq!(work(&listed), work(&total), "the frontier's list pass counted other than its count pass");
            let stored: usize = self.segments.iter().map(|s| s.count.opened).sum();
            self.kind = RoundKind::Frontier;
            self.sample_windows(&callers, layout, Some(k), choice, probing, rng);
            self.counters.booked_channels = (all_open - stored) as u64;
        } else if list {
            self.sample_windows(&callers, layout, Some(k), choice, probing, rng);
        } else if segments == 1 {
            self.sample_whole(&callers, n, choice, rng);
        } else {
            self.sample_windows(&callers, layout, None, choice, probing, rng);
        }
        // Unmark the frontier's flags.
        for &i in self.frontier.iter().filter(|_| frontier) {
            self.in_frontier[i as usize] = false;
        }
        if let Some(p) = probe.as_deref_mut().filter(|_| probing) {
            for (s, scratch) in self.segments.iter().enumerate() {
                p.on_shard_phase(s, StepPhase::Fabric, scratch.elapsed);
            }
        }
    }

    /// Sizes the target list once, for a round in which every caller is
    /// open, so it never regrows (and copies) mid-run.
    fn reserve_targets<T: Topology + ?Sized>(&mut self, topo: &T, k: usize) {
        if self.targets.capacity() == 0 {
            let bound = (0..topo.node_count()).map(|i| topo.degree(NodeId::new(i)).min(k)).sum();
            self.targets.reserve(bound);
        }
    }

    /// Samples every caller of `callers` in one segment on `rng`, straight
    /// into the channel list: a row per caller slot.
    fn sample_whole<T, U, S, L, R>(
        &mut self,
        callers: &Callers<'_, T, U, S, L>,
        n: usize,
        choice: &mut ChoiceState,
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
        self.reserve_targets(callers.topo, callers.policy.fanout());
        self.counters = callers.sample(
            0..n,
            &mut self.offsets[1..],
            0,
            &mut self.targets,
            &mut self.ok,
            choice,
            &mut self.target_buf,
            rng,
        );
    }

    /// Samples a counted round segment by segment into the channel list:
    /// with `listed` (`Some(k)`) each segment's listed callers (a row
    /// each), else every caller slot. Each segment samples on a clone of
    /// `rng` moved to its offset in the stream, into its window of the
    /// list (`count.opened` long), in parallel; at one segment (listed
    /// only) on `rng` itself, with `choice`. Then `rng` moves past the
    /// round's words and the windows close up in segment order. Debug
    /// builds check that each segment sampled what it counted.
    #[allow(clippy::too_many_arguments)]
    fn sample_windows<T, U, S, L, R>(
        &mut self,
        callers: &Callers<'_, T, U, S, L>,
        layout: ShardLayout,
        listed: Option<usize>,
        choice: &mut ChoiceState,
        probing: bool,
        rng: &mut R,
    ) where
        T: Topology + ?Sized,
        U: Fn(usize) -> bool + Sync,
        S: Fn(usize) -> bool + Sync,
        L: Fn(usize) -> bool + Sync,
        R: Rng + Clone + Send,
    {
        let n = callers.topo.node_count();
        let row_count = |s: usize, scratch: &SegmentScratch| match listed {
            Some(_) => scratch.open.len(),
            None => layout.range(s, n).len(),
        };
        let rows: usize = self.segments.iter().enumerate().map(|(s, scratch)| row_count(s, scratch)).sum();
        self.listed = listed.is_some();
        self.rows.resize(if self.listed { rows } else { 0 }, 0);
        self.offsets.resize(rows + 1, 0);
        self.offsets[0] = 0;
        self.targets.clear();
        self.ok.clear();
        self.reserve_targets(callers.topo, callers.policy.fanout());
        let total_words: u64 = self.segments.iter().map(|s| s.count.counters.fabric_words).sum();
        if let ([scratch], Some(k)) = (&mut self.segments[..], listed) {
            let (ends, rows) = (&mut self.offsets[1..], &mut self.rows[..]);
            let (targets, buf) = (&mut self.targets, &mut self.target_buf);
            let (sampled, at) = callers.sample_listed(&scratch.open, k, rows, ends, 0, targets, choice, buf, rng);
            rng.discard(total_words - at);
            debug_check_segment(0, true, &scratch.count, &sampled);
            self.counters = scratch.count.counters;
            return;
        }
        self.targets.resize(self.segments.iter().map(|s| s.count.opened).sum(), NodeId::new(0));
        let mut ends_left = &mut self.offsets[1..];
        let mut rows_left = &mut self.rows[..];
        let mut slots_left = &mut self.targets[..];
        let (mut word_at, mut slot_at) = (0u64, 0usize);
        let mut items = Vec::with_capacity(layout.count());
        for (s, scratch) in self.segments.iter_mut().enumerate() {
            let count = row_count(s, scratch);
            let (ends, rest) = std::mem::take(&mut ends_left).split_at_mut(count);
            ends_left = rest;
            let (rows, rest) = std::mem::take(&mut rows_left).split_at_mut(if listed.is_some() { count } else { 0 });
            rows_left = rest;
            let len = scratch.count.opened;
            let (slots, rest) = std::mem::take(&mut slots_left).split_at_mut(len);
            slots_left = rest;
            let offset = word_at;
            word_at += scratch.count.counters.fabric_words;
            items.push((s, scratch, rows, ends, Window { slots, len: 0 }, slot_at as u32, offset, rng.clone()));
            slot_at += len;
        }
        let sampled: Vec<(RoundCounters, usize)> = items
            .into_par_iter()
            .map(|(s, scratch, rows, ends, mut window, base, offset, mut seg_rng)| {
                let clock = ShardClock::armed(probing);
                seg_rng.discard(offset);
                let (choice, targets) = (&mut scratch.choice, &mut scratch.targets);
                let counters = match listed {
                    Some(k) => {
                        let open = &scratch.open;
                        callers.sample_listed(open, k, rows, ends, base, &mut window, choice, targets, &mut seg_rng).0
                    }
                    None => {
                        let range = layout.range(s, n);
                        callers.sample(range, ends, base, &mut window, &mut Vec::new(), choice, targets, &mut seg_rng)
                    }
                };
                scratch.elapsed += clock.elapsed();
                (counters, window.len)
            })
            .collect();

        // The main stream ends where one segment leaves it, and the
        // windows close up in segment order.
        rng.discard(word_at);
        let (mut end, mut start, mut row) = (0usize, 0usize, 0usize);
        self.counters = RoundCounters::default();
        for (s, (scratch, &(counters, filled))) in self.segments.iter().zip(&sampled).enumerate() {
            let c = &scratch.count;
            debug_check_segment(s, listed.is_some(), c, &counters);
            let rows = row..row + row_count(s, scratch);
            if start != end {
                self.targets.copy_within(start..start + filled, end);
                let shift = (start - end) as u32;
                for o in &mut self.offsets[rows.start + 1..=rows.end] {
                    *o -= shift;
                }
            }
            self.counters = add_fabric(self.counters, if listed.is_some() { &c.counters } else { &counters });
            end += filled;
            start += c.opened;
            row = rows.end;
        }
        self.targets.truncate(end);
    }

    /// The serial transmission pre-draw of one round, over the stored
    /// channels: per row (caller ascending), per usable channel, the push
    /// draw if the caller `pushes`, then the pull draw if the callee
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
        for r in 0..self.row_count() {
            let range = self.row_range(r);
            if range.is_empty() {
                continue;
            }
            let push = pushes(self.row_caller(r));
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

    /// The last round's channels, skipped draws, generator words, booked
    /// channels and listed callers, as the fabric's part of the round's
    /// [`RoundCounters`].
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
    pub(crate) fn has_lists(&self) -> bool {
        !self.offsets.is_empty()
    }

    /// Whether the last round was listed: its lists hold a row for each
    /// caller whose channels were stored, and for no other.
    #[cfg(test)]
    pub(crate) fn is_listed(&self) -> bool {
        self.listed
    }

    /// Number of rows of the last round's lists.
    #[inline]
    fn row_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Caller of row `r`.
    #[inline]
    fn row_caller(&self, r: usize) -> usize {
        if self.listed {
            self.rows[r] as usize
        } else {
            r
        }
    }

    /// Channel-id range of row `r`.
    #[inline]
    fn row_range(&self, r: usize) -> Range<usize> {
        self.offsets[r] as usize..self.offsets[r + 1] as usize
    }

    /// The rows of the callers in `callers`, ascending: each caller with
    /// its channel-id range. A listed round has rows for its listed
    /// callers only, so a walk over them is as long as the list.
    #[inline]
    pub(crate) fn rows(&self, callers: Range<usize>) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let rows = if self.listed {
            let row_of = |i: usize| self.rows.partition_point(|&c| (c as usize) < i);
            row_of(callers.start)..row_of(callers.end)
        } else {
            let count = self.row_count();
            callers.start.min(count)..callers.end.min(count)
        };
        rows.map(|r| (self.row_caller(r), self.row_range(r)))
    }

    /// Channel-id range opened by caller `i` in a round sampled whole
    /// (a listed round's rows are walked with [`rows`](Self::rows)).
    #[inline]
    pub(crate) fn out_range(&self, i: usize) -> Range<usize> {
        debug_assert!(!self.listed, "a listed round's rows are walked, not looked up");
        self.row_range(i)
    }

    /// Number of materialised channels this round.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.targets.len()
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
        for r in 0..self.row_count() {
            let i = self.row_caller(r);
            for c in self.row_range(r) {
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
            self.offsets.capacity() + self.rows.capacity(),
            self.targets.capacity(),
            self.ok.capacity(),
            self.push_ok.capacity() + self.pull_ok.capacity(),
            self.in_offsets.capacity() + self.in_cursor.capacity(),
            self.in_entries.capacity()
                + self.target_buf.capacity()
                + self.segments.iter().map(|s| s.targets.capacity()).sum::<usize>(),
            self.in_frontier.capacity()
                + self.frontier.capacity()
                + self.segments.iter().map(|s| s.incomplete.capacity() + s.open.capacity()).sum::<usize>(),
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
    /// vector if there is one, gets the same moves. Returns `false` if `i`
    /// was not informed.
    pub(crate) fn unmark_grouped<S>(
        &mut self,
        i: usize,
        ends: &mut [u32],
        mut parallel: Option<&mut Vec<S>>,
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
            if let Some(parallel) = parallel.as_deref_mut() {
                parallel.swap(hole, last);
            }
            self.pos[self.list[hole] as usize] = hole as u32;
            hole = last;
        }
        self.list.pop();
        self.at.pop();
        if let Some(parallel) = parallel {
            parallel.pop();
        }
        self.pos[i] = NOT_INFORMED;
        true
    }

    /// Asserts at round `t` that the position map and the list agree
    /// (`pos[list[p]] == p`, as many informed slots as entries, one
    /// reception round per entry) and, given a grouped list's `ends` (see
    /// [`unmark_grouped`](Self::unmark_grouped)), that the ends do not
    /// decrease, every member of group `k` was informed at round `k`, and
    /// the last end is the list length.
    pub(crate) fn check(&self, groups: Option<&[u32]>, t: Round) {
        let mapped = self.list.iter().enumerate().all(|(p, &i)| self.pos[i as usize] == p as u32);
        let informed = self.pos.iter().filter(|&&p| p != NOT_INFORMED).count();
        let consistent = mapped && informed == self.list.len() && self.at.len() == self.list.len();
        assert!(consistent, "round {t}: the informed index's position map drifted from its list");
        let Some(ends) = groups else { return };
        assert_eq!(ends.last().copied(), Some(self.list.len() as u32), "round {t}: the last group end is not the list length");
        let mut lo = 0;
        for (k, &hi) in ends.iter().enumerate() {
            let grouped = lo <= hi && self.at[lo as usize..hi as usize].iter().all(|&at| at as usize == k);
            assert!(grouped, "round {t}: group {k} decreases or holds a node of another reception round");
            lo = hi;
        }
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
        RoundGate { uninformed, pushes, lacks: uninformed, any_pull: false, list: true, kind }
    }

    /// Each caller's stored channel targets, by caller slot.
    fn lists(fabric: &ChannelFabric, n: usize) -> Vec<Vec<NodeId>> {
        let mut lists = vec![Vec::new(); n];
        for (i, range) in fabric.rows(0..n) {
            lists[i] = range.map(|c| fabric.target(c)).collect();
        }
        lists
    }

    /// Every caller pushes: every caller is `Open`.
    fn all_open() -> Gate {
        gate(|_| false, |_| true, Sampled)
    }

    /// One round of `protocol` on `g` from `seed` in `segments` caller
    /// segments, with `blocked` callers (none if empty): the fabric and
    /// the generator after it.
    #[allow(clippy::too_many_arguments)]
    fn sample<T: Topology + ?Sized, P: Protocol>(
        g: &T,
        protocol: &P,
        failures: FailureModel,
        faults: Option<&FaultState>,
        blocked: &[bool],
        gate: Gate,
        segments: usize,
        seed: u64,
    ) -> (ChannelFabric, SmallRng) {
        let n = g.node_count();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fabric = ChannelFabric::new(n);
        let mut choice = ChoiceState::new(n, protocol.choice_policy());
        let none = vec![false; n];
        let blocked = if blocked.is_empty() { &none } else { blocked };
        let (layout, probe) = (ShardLayout::new(n, segments), &mut None);
        fabric.sample_round(g, protocol, &mut choice, failures, faults, blocked, gate, layout, probe, &mut rng);
        (fabric, rng)
    }

    #[test]
    fn fabric_reverse_index_inverts_forward_lists() {
        let g = gen::complete(12);
        let four = FloodPushPull::with_policy(ChoicePolicy::FOUR);
        let (mut fabric, _) = sample(&g, &four, FailureModel::NONE, None, &[], all_open(), 1, 3);
        assert_eq!(fabric.counters().channels, 12 * 4);
        assert_eq!(fabric.len(), 12 * 4);
        assert!(fabric.is_fast_path());
        fabric.build_incoming(12);
        let mut seen = 0usize;
        for w in 0..12 {
            for &(c, caller) in fabric.incoming(w) {
                assert_eq!(fabric.target(c as usize).index(), w);
                assert!(lists(&fabric, 12)[caller as usize].contains(&NodeId::new(w)), "channel not in caller's row");
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
        let (fabric, rng) = sample(&g, &FloodPush::new(), none, None, &[], uninformed(), 1, 5);
        assert_eq!(fabric.counters().channels, 8);
        assert_eq!(fabric.counters().skipped_draws, 8);
        assert_eq!(fabric.len(), 0);
        assert_eq!(rng, SmallRng::seed_from_u64(5));
        // A protocol that pull-serves samples uninformed callers too.
        let pulls = FloodPushPull::new();
        let (fabric, _) = sample(&g, &pulls, none, None, &[], uninformed(), 1, 5);
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
            let round = |gate: Gate| {
                let (fabric, rng) = sample(&g, &protocol, FailureModel::NONE, None, &[], gate, 1, 12);
                (fabric.counters().channels, lists(&fabric, 16), rng)
            };
            let (open_channels, open_lists, open_rng) = round(all_open());
            let (quiet_channels, quiet_lists, quiet_rng) =
                round(gate(|_| false, |i| i % 2 == 0, Sampled));
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
            let round = |kind| sample(&g, &protocol, FailureModel::NONE, None, &blocked, gate(|i| i % 5 == 1, |_| false, kind), 1, 21);
            let (quiet, quiet_rng) = round(Sampled);
            let (silent, silent_rng) = round(Silent);
            assert_eq!(silent_rng, quiet_rng, "k = {k}");
            assert_eq!(silent.counters(), quiet.counters(), "k = {k}");
            let counters = quiet.counters();
            assert!(counters.fabric_words > 0 && counters.skipped_draws > 0);
            assert_eq!((quiet.kind(), silent.kind()), (Sampled, Silent));
            assert_eq!((quiet.len(), silent.len()), (0, 0));
        }
    }

    #[test]
    fn segmented_sampling_equals_one_segment() {
        // Degrees below, at and above k, blocked callers and callees, a
        // partition, and every gate mix: each segment count builds the
        // lists, channel ids and counters one segment builds and leaves
        // the generator where it does. The small graph has empty segments
        // (7 segments of 2 over 10 callers), and the "late" gate leaves the
        // first segments' windows empty. One segment is itself checked
        // against a reference that makes no count pass: the same gate
        // declared sampled, sampled whole on the generator, takes the
        // same channels, skipped draws and words.
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
                            sample(&g, &protocol, FailureModel::NONE, faults, &blocked, make(), 1, 31);
                        assert!(one.is_fast_path(), "{case}");
                        let sampled = RoundGate { kind: Sampled, ..make() };
                        let (whole, whole_rng) =
                            sample(&g, &protocol, FailureModel::NONE, faults, &blocked, sampled, 1, 31);
                        let work = |f: &ChannelFabric| {
                            let c = f.counters();
                            (c.channels, c.skipped_draws, c.fabric_words)
                        };
                        assert_eq!((work(&one), &one_rng), (work(&whole), &whole_rng), "{case}");
                        gaps += usize::from(label == "open" && (one.len() as u64) < one.counters().channels);
                        for segments in [2, 3, 7] {
                            let (many, many_rng) =
                                sample(&g, &protocol, FailureModel::NONE, faults, &blocked, make(), segments, 31);
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

    #[test]
    fn listed_rounds_store_what_a_whole_round_stores_for_their_open_callers() {
        // No node pull-serves and some callers push: the round is listed.
        // Against the same callers all open (someone pull-serves, so the
        // round is sampled whole), with a slot only the topology has dead
        // and blocked callers, at 1 and 3 segments: every pusher's list is
        // the whole round's, nobody else has a row, the quiet callers'
        // words are jumped and the generator ends where the whole round
        // leaves it. A push-only protocol's uninformed callers skip.
        let pa = gen::preferential_attachment(300, 2, &mut SmallRng::seed_from_u64(2)).expect("graph");
        let n = pa.node_count();
        let dead = OneDead(pa.clone(), 11);
        let blocked: Vec<bool> = (0..n).map(|i| i == 7 || i % 41 == 5).collect();
        let pushes: fn(usize) -> bool = |i| i % 3 != 0 || i == 11;
        let present = |i: usize| i != 11 && !blocked[i];
        for k in [1, 4, 17] {
            for label in ["push&pull", "push"] {
                let round = |gate: Gate, segments| {
                    let none = FailureModel::NONE;
                    if label == "push" {
                        let protocol = FloodPush::with_policy(ChoicePolicy::Distinct(k));
                        sample(&dead, &protocol, none, None, &blocked, gate, segments, 41)
                    } else {
                        let protocol = FloodPushPull::with_policy(ChoicePolicy::Distinct(k));
                        sample(&dead, &protocol, none, None, &blocked, gate, segments, 41)
                    }
                };
                let uninformed: fn(usize) -> bool = if label == "push" { |i| i % 5 == 2 } else { |_| false };
                let listed_gate = || RoundGate { uninformed, pushes, lacks: uninformed, any_pull: false, list: true, kind: Sampled };
                for segments in [1, 3] {
                    let case = format!("k = {k}, {label}, {segments} segments");
                    let (listed, listed_rng) = round(listed_gate(), segments);
                    let (whole, whole_rng) = round(RoundGate { any_pull: true, ..listed_gate() }, segments);
                    assert!(listed.is_listed() && !whole.is_listed(), "{case}");
                    assert_eq!(listed_rng, whole_rng, "{case}: the generator");
                    let (mut rows, mut owed) = (0, 0);
                    let (listed_lists, whole_lists) = (lists(&listed, n), lists(&whole, n));
                    for i in 0..n {
                        let list = |l: &[Vec<NodeId>]| l[i].clone();
                        let skips = label == "push" && uninformed(i);
                        if present(i) && pushes(i) && !skips {
                            assert_eq!(list(&listed_lists), list(&whole_lists), "{case}: pusher {i}");
                            rows += 1;
                        } else {
                            assert!(list(&listed_lists).is_empty(), "{case}: caller {i} is not listed");
                            let deg = pa.degree(NodeId::new(i));
                            owed += if present(i) && !skips && deg > k { k as u64 } else { 0 };
                        }
                    }
                    let w = whole.counters();
                    let expected = RoundCounters { jumped_words: w.jumped_words + owed, listed_callers: rows, ..w };
                    assert_eq!(listed.counters(), expected, "{case}");
                    assert!(owed > 0 && rows > 0 && listed.rows(0..n).count() as u64 == rows, "{case}");
                    let walked: Vec<usize> = listed.rows(0..n).map(|(i, _)| i).collect();
                    let mut split: Vec<usize> = listed.rows(0..150).map(|(i, _)| i).collect();
                    split.extend(listed.rows(150..n).map(|(i, _)| i));
                    assert_eq!(walked, split, "{case}: rows by caller range");
                }
            }
        }
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
                let (open, open_rng) = sample(&pa, &protocol, FailureModel::NONE, None, &present, all_open(), segments, 31);
                let (sat, sat_rng) = sample(&pa, &protocol, FailureModel::NONE, None, &present, complete(), segments, 31);
                assert_eq!((open.kind(), sat.kind()), (Sampled, Frontier), "{case}");
                assert!(!sat.has_lists() && open.has_lists(), "{case}");
                let words = open.counters().fabric_words;
                assert!(words > 0 && open.counters().jumped_words == 0, "{case}");
                let channels = open.counters().channels;
                let counted = RoundCounters {
                    jumped_words: words,
                    booked_channels: channels,
                    listed_callers: 0,
                    ..open.counters()
                };
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
                        list: true,
                        kind: Frontier,
                    };
                    let protocol = FloodPushPull::with_policy(ChoicePolicy::Distinct(k));
                    for segments in [1, 2, 3, 7] {
                        let case = format!("k = {k}, {what}, pull {pull}, {segments} segments");
                        let (front, front_rng) = sample(&dead, &protocol, FailureModel::NONE, None, &blocked, RoundGate { ..frontier_gate }, segments, 31);
                        let (plain, plain_rng) = sample(&dead, &protocol, FailureModel::NONE, None, &blocked, RoundGate { kind: Sampled, ..frontier_gate }, segments, 31);
                        assert_eq!(front_rng, plain_rng, "{case}");
                        if what == "wide" {
                            assert_eq!(front.kind(), Sampled, "{case}: over the budget");
                            assert_eq!((&front.offsets, &front.targets), (&plain.offsets, &plain.targets), "{case}");
                            assert_eq!(front.counters(), plain.counters(), "{case}");
                            continue;
                        }
                        assert_eq!(front.kind(), Frontier, "{case}");
                        let in_frontier = expected_frontier(&dead, &blocked, uninformed);
                        let (mut booked, mut owed, mut listed) = (0, 0, 0);
                        let (front_lists, plain_lists) = (lists(&front, n), lists(&plain, n));
                        for (i, &inside) in in_frontier.iter().enumerate() {
                            let list = |l: &[Vec<NodeId>]| l[i].clone();
                            if inside {
                                assert_eq!(list(&front_lists), list(&plain_lists), "{case}: frontier caller {i}");
                                let present = dead.is_alive(NodeId::new(i)) && !blocked[i];
                                listed += u64::from(present && (pull || (frontier_gate.pushes)(i)));
                            } else {
                                assert!(list(&front_lists).is_empty(), "{case}: caller {i} is not in the frontier");
                                let deg = pa.degree(NodeId::new(i));
                                booked += deg.min(k) as u64;
                                owed += if deg > k { k as u64 } else { 0 };
                            }
                        }
                        let p = plain.counters();
                        let expected = RoundCounters {
                            jumped_words: p.jumped_words + owed,
                            booked_channels: booked,
                            listed_callers: listed,
                            ..p
                        };
                        assert!(front.is_listed(), "{case}");
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
    fn only_loss_free_distinct_rounds_without_a_channel_view_allow_a_frontier() {
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
        assert!(frontier_allowed(four, none, None));
        assert!(frontier_allowed(four, FailureModel::crashes(0.1), Some(&healed)));
        assert!(!frontier_allowed(four, none, Some(&partition)));
        assert!(!frontier_allowed(four, none, Some(&burst)));
        assert!(!frontier_allowed(four, FailureModel::channels(0.1), None));
        assert!(!frontier_allowed(four, FailureModel::transmissions(0.1), None));
        assert!(!frontier_allowed(ChoicePolicy::SEQUENTIAL, none, None));
        assert!(!frontier_allowed(ChoicePolicy::Cyclic, none, None));
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
            let (fabric, _) = sample(&g, &four, FailureModel::channels(0.3), None, &[], quiet, 1, 13);
            assert!(!fabric.is_fast_path() && fabric.kind() == Sampled);
            assert_eq!(fabric.len(), 16 * 4);
        }
    }

    #[test]
    fn fabric_slow_path_materialises_all_sampled_channels() {
        let g = gen::complete(16);
        let lossy = FailureModel::channels(0.5);
        let (fabric, _) = sample(&g, &FloodPushPull::new(), lossy, None, &[], all_open(), 1, 9);
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
            let (mut fabric, mut rng) = sample(&g, &four, failures, None, &[], all_open(), 1, 4);
            let before = rng.clone();
            let used = fabric.draw_transmissions(failures, pushes, serves, &mut rng);
            let want: u64 = fabric
                .rows(0..12)
                .flat_map(|(i, range)| range.map(move |c| (i, c)))
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
        let (fabric, _) = sample(&g, &four, FailureModel::NONE, Some(&fs), &[], all_open(), 1, 4);
        // Opened channels are still counted; only same-component ones
        // materialise, and a pure partition keeps the draw-free fast path.
        assert_eq!(fabric.counters().channels, 12 * 4);
        assert!(fabric.is_fast_path());
        assert!(fabric.len() < 12 * 4, "cross-component channels must be dropped");
        for (i, range) in fabric.rows(0..12) {
            for c in range {
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
            sample(&g, &FloodPushPull::new(), FailureModel::NONE, Some(&fs), &[], all_open(), 1, 8);
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
        assert!(ix.unmark_grouped(7, &mut ends, Some(&mut tags)));
        assert_eq!(ix.list(), &[3, 6, 2, 1, 5]);
        assert_eq!(ends, [1, 3, 3, 5]);
        assert_eq!(tags, ix.list(), "the parallel vector follows every move");
        for (p, &i) in ix.list().iter().enumerate() {
            assert_eq!(ix.pos(i as usize), Some(p));
        }
        let rounds: Vec<Round> = (0..ix.len()).map(|p| ix.at_pos(p)).collect();
        assert_eq!(rounds, [0, 1, 1, 3, 3]);
        assert!(!ix.unmark_grouped(7, &mut ends, Some(&mut tags)), "double unmark is a no-op");
        // The creator's removal empties round 0.
        assert!(ix.unmark_grouped(3, &mut ends, Some(&mut tags)));
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
