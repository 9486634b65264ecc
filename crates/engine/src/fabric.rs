//! Shared per-round machinery of the flat-arena engines: the channel
//! fabric (CSR call lists + optional reverse index) and the informed-node
//! index. Both the single-rumour [`SimState`](crate::SimState) and the
//! multi-rumour [`MultiSimState`](crate::MultiSimState) round loops are
//! built from these pieces, so the two engines stay behaviour-identical
//! where their models coincide (asserted by the seed-for-seed parity
//! suite in `tests/parity.rs`).

use rand::Rng;

use rrb_graph::NodeId;

use crate::census::AliveCensus;
use crate::choice::{discard_targets, sample_targets, ChoiceState};
use crate::failure::FaultChannelView;
use crate::{ChoicePolicy, FailureModel, Protocol, Round, Topology};

/// How [`ChannelFabric::sample`] treats one alive, unblocked caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CallerGate {
    /// Sample and store the caller's channels.
    Open,
    /// The caller does not push and no node pull-serves this round, so its
    /// channels can carry nothing: make the draws, store nothing (fast
    /// path only).
    Quiet,
    /// Push-only capability skip for a caller that cannot carry the rumour
    /// under a memoryless policy: count its channels, make no draws.
    Skip,
}

/// One round's channel openings in CSR form, with all scratch buffers
/// reused across rounds (allocation-free once warm).
///
/// Channels are sampled once per round by [`sample`](Self::sample) —
/// every alive, uncrashed node opens channels per the protocol's choice
/// policy — and then shared by however many rumours ride the fabric. On
/// the zero-failure fast path only *usable* channels (alive, uncrashed
/// callee) are materialised and no per-channel flags are stored; on the
/// slow path every sampled channel is stored together with its
/// channel-failure outcome.
#[derive(Debug, Default)]
pub(crate) struct ChannelFabric {
    /// CSR offsets: node `i`'s channels are `offsets[i]..offsets[i+1]`.
    offsets: Vec<u32>,
    /// Callee per channel.
    targets: Vec<NodeId>,
    /// Usability per channel (empty on the fast path: all usable).
    ok: Vec<bool>,
    /// `true` when `ok` is not materialised (no channel/transmission
    /// failures this round).
    fast_path: bool,
    /// Reverse CSR offsets: channels *towards* node `w` are
    /// `in_entries[in_offsets[w]..in_offsets[w+1]]`.
    in_offsets: Vec<u32>,
    /// Reverse entries: `(channel id, caller id)`.
    in_entries: Vec<(u32, u32)>,
    /// Scatter cursors for the reverse build.
    in_cursor: Vec<u32>,
    /// Reusable target scratch for `sample_targets`.
    target_buf: Vec<NodeId>,
    /// Channel-target draws avoided by the capability-gated skip in the
    /// last [`sample`](Self::sample) call (telemetry counter).
    skipped_last: u64,
}

impl ChannelFabric {
    pub(crate) fn new(node_count: usize) -> Self {
        ChannelFabric {
            offsets: Vec::with_capacity(node_count + 1),
            ..ChannelFabric::default()
        }
    }

    /// Samples every alive, unblocked (uncrashed, unsuspended) node's
    /// channel targets for this round and returns the number of channels
    /// opened (the channels of skipped and quiet callers included).
    ///
    /// `gate` classifies each such caller (see [`CallerGate`]):
    /// - `Skip`: the capability-gated push-only sampling skip. The caller's
    ///   deterministic `min(fanout, deg)` channels are counted, but it costs
    ///   no RNG draws and no buffer traffic.
    /// - `Quiet`: the caller's channels can carry nothing this round. On
    ///   the fast path it makes exactly the draws sampling would make
    ///   (advancing any per-node choice state) and stores nothing. Off the
    ///   fast path it is sampled like `Open`, because its per-channel
    ///   failure draws need the targets.
    /// - `Open`: sampled and stored.
    ///
    /// On the single-rumour engine the gate reads this round's plans, so
    /// the plan phase runs before the fabric there.
    ///
    /// `faults` is the optional per-channel fault view of an installed
    /// [`FaultPlan`](crate::FaultPlan): partitioned pairs fail to
    /// establish like calls to a crashed peer (no cost, no draw), and
    /// burst-loss state raises the per-channel failure probability (drawn
    /// on the **main** stream at exactly the baseline draw's position, so
    /// both engines stay in lockstep). With `faults == None` the code path
    /// and draw sequence are byte-identical to the pre-fault engine.
    #[allow(clippy::too_many_arguments)]
    // rrb-lint: hot
    pub(crate) fn sample<T, F, R>(
        &mut self,
        topo: &T,
        policy: ChoicePolicy,
        choice: &mut ChoiceState,
        failures: FailureModel,
        blocked: &[bool],
        faults: Option<&FaultChannelView<'_>>,
        gate: F,
        rng: &mut R,
    ) -> u64
    where
        T: Topology + ?Sized,
        F: Fn(usize) -> CallerGate,
        R: Rng + ?Sized,
    {
        let n = topo.node_count();
        self.fast_path = failures.channel_failure == 0.0
            && failures.transmission_failure == 0.0
            && faults.is_none_or(|f| !f.lossy());
        self.offsets.clear();
        self.targets.clear();
        self.ok.clear();
        if self.targets.capacity() == 0 {
            // Size the target list once, for a round in which every caller
            // is open, so it never regrows (and copies) mid-run.
            let k = policy.fanout();
            let bound = (0..n).map(|i| topo.stubs(NodeId::new(i)).len().min(k)).sum();
            self.targets.reserve(bound);
        }
        self.offsets.push(0);
        self.skipped_last = 0;
        let mut channels = 0u64;
        for i in 0..n {
            let v = NodeId::new(i);
            if topo.is_alive(v) && !blocked[i] {
                match gate(i) {
                    CallerGate::Skip => {
                        // Uninformed caller under a push-only protocol:
                        // count the channels it would open, draw nothing.
                        let skipped = topo.stubs(v).len().min(policy.fanout()) as u64;
                        self.skipped_last += skipped;
                        channels += skipped;
                        self.offsets.push(self.targets.len() as u32);
                        continue;
                    }
                    CallerGate::Quiet if self.fast_path => {
                        channels += discard_targets(
                            topo,
                            v,
                            policy,
                            choice,
                            rng,
                            &mut self.target_buf,
                        ) as u64;
                        self.offsets.push(self.targets.len() as u32);
                        continue;
                    }
                    CallerGate::Quiet | CallerGate::Open => {}
                }
                sample_targets(topo, v, policy, choice, rng, &mut self.target_buf);
                channels += self.target_buf.len() as u64;
                for &w in &self.target_buf {
                    // A channel to a dead (departed), crashed, suspended or
                    // partitioned-away neighbour fails to establish; it
                    // costs nothing, carries nothing.
                    let callee_ok = topo.is_alive(w)
                        && !blocked[w.index()]
                        && faults.is_none_or(|f| f.connects(i, w.index()));
                    if self.fast_path {
                        if callee_ok {
                            self.targets.push(w);
                        }
                    } else {
                        // Combined per-channel loss: baseline i.i.d. rate
                        // plus the burst chains' contribution. The single
                        // Bernoulli draw sits exactly where the baseline
                        // draw always was, and is skipped (like the
                        // baseline) when the probability is zero or the
                        // channel failed to establish anyway.
                        let p = match faults {
                            Some(f) => {
                                1.0 - (1.0 - failures.channel_failure)
                                    * (1.0 - f.burst_loss(i, w.index()))
                            }
                            None => failures.channel_failure,
                        };
                        let ok = callee_ok && (p == 0.0 || !rng.gen_bool(p));
                        self.targets.push(w);
                        self.ok.push(ok);
                    }
                }
            }
            self.offsets.push(self.targets.len() as u32);
        }
        channels
    }

    /// Number of materialised channels this round.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.targets.len()
    }

    /// Channel-target draws the capability-gated skip avoided in the last
    /// [`sample`](Self::sample) call (0 when the skip never engaged).
    #[inline]
    pub(crate) fn skipped_last(&self) -> u64 {
        self.skipped_last
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
    pub(crate) fn capacities(&self) -> [usize; 5] {
        [
            self.offsets.capacity(),
            self.targets.capacity(),
            self.ok.capacity(),
            self.in_offsets.capacity() + self.in_cursor.capacity(),
            self.in_entries.capacity() + self.target_buf.capacity(),
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
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rrb_graph::gen;

    #[test]
    fn fabric_reverse_index_inverts_forward_lists() {
        let g = gen::complete(12);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut choice = ChoiceState::new(12, ChoicePolicy::FOUR);
        let mut fabric = ChannelFabric::new(12);
        let crashed = vec![false; 12];
        let channels = fabric.sample(
            &g,
            ChoicePolicy::FOUR,
            &mut choice,
            FailureModel::NONE,
            &crashed,
            None,
            |_| CallerGate::Open,
            &mut rng,
        );
        assert_eq!(channels, 12 * 4);
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
        let g = gen::complete(8);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut choice = ChoiceState::new(8, ChoicePolicy::STANDARD);
        let mut fabric = ChannelFabric::new(8);
        let crashed = vec![false; 8];
        // Every caller skipped: full channel count, nothing materialised.
        let channels = fabric.sample(
            &g,
            ChoicePolicy::STANDARD,
            &mut choice,
            FailureModel::NONE,
            &crashed,
            None,
            |_| CallerGate::Skip,
            &mut rng,
        );
        assert_eq!(channels, 8);
        assert_eq!(fabric.len(), 0);
    }

    #[test]
    fn quiet_callers_draw_like_open_ones_but_store_nothing() {
        // Odd callers are quiet. Their channels are counted and their draws
        // made, so the generator ends where an all-open round leaves it,
        // and the even callers' channels are exactly the all-open ones.
        let g = gen::complete(16);
        for policy in [ChoicePolicy::FOUR, ChoicePolicy::SEQUENTIAL, ChoicePolicy::Cyclic] {
            let blocked = vec![false; 16];
            let sample = |gate: fn(usize) -> CallerGate| {
                let mut rng = SmallRng::seed_from_u64(12);
                let mut choice = ChoiceState::new(16, policy);
                let mut fabric = ChannelFabric::new(16);
                let channels = fabric.sample(
                    &g,
                    policy,
                    &mut choice,
                    FailureModel::NONE,
                    &blocked,
                    None,
                    gate,
                    &mut rng,
                );
                let lists: Vec<Vec<NodeId>> = (0..16)
                    .map(|i| fabric.out_range(i).map(|c| fabric.target(c)).collect())
                    .collect();
                (channels, lists, rng)
            };
            let (open_channels, open_lists, open_rng) = sample(|_| CallerGate::Open);
            let (quiet_channels, quiet_lists, quiet_rng) = sample(|i| {
                if i % 2 == 1 {
                    CallerGate::Quiet
                } else {
                    CallerGate::Open
                }
            });
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
    fn quiet_callers_are_sampled_off_the_fast_path() {
        // Per-channel failure draws need the targets, so a lossy round
        // treats quiet callers as open.
        let g = gen::complete(16);
        let blocked = vec![false; 16];
        let mut fabric = ChannelFabric::new(16);
        let mut choice = ChoiceState::new(16, ChoicePolicy::FOUR);
        let mut rng = SmallRng::seed_from_u64(13);
        fabric.sample(
            &g,
            ChoicePolicy::FOUR,
            &mut choice,
            FailureModel::channels(0.3),
            &blocked,
            None,
            |_| CallerGate::Quiet,
            &mut rng,
        );
        assert!(!fabric.is_fast_path());
        assert_eq!(fabric.len(), 16 * 4);
    }

    #[test]
    fn fabric_slow_path_materialises_all_sampled_channels() {
        let g = gen::complete(16);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut choice = ChoiceState::new(16, ChoicePolicy::STANDARD);
        let mut fabric = ChannelFabric::new(16);
        let crashed = vec![false; 16];
        let channels = fabric.sample(
            &g,
            ChoicePolicy::STANDARD,
            &mut choice,
            FailureModel::channels(0.5),
            &crashed,
            None,
            |_| CallerGate::Open,
            &mut rng,
        );
        assert_eq!(channels, 16);
        assert_eq!(fabric.len(), 16);
        assert!(!fabric.is_fast_path());
        let usable = (0..fabric.len()).filter(|&c| fabric.usable(c)).count();
        assert!(usable < 16, "with p = 0.5 some channel fails for this seed");
    }

    #[test]
    fn partition_view_blocks_cross_component_channels_on_the_fast_path() {
        use crate::failure::{FaultEvent, FaultPlan, FaultState};
        let g = gen::complete(12);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut choice = ChoiceState::new(12, ChoicePolicy::FOUR);
        let mut fabric = ChannelFabric::new(12);
        let blocked = vec![false; 12];
        let plan = FaultPlan {
            schedule: vec![FaultEvent::Partition { from: 1, until: 9, parts: 3 }],
            ..FaultPlan::default()
        };
        let mut fs = FaultState::new(&plan, 12, 0);
        fs.begin_round(1, 12, |_| 11, |_| None, |_| true);
        let view = fs.channel_view().expect("partition active");
        let channels = fabric.sample(
            &g,
            ChoicePolicy::FOUR,
            &mut choice,
            FailureModel::NONE,
            &blocked,
            Some(&view),
            |_| CallerGate::Open,
            &mut rng,
        );
        // Opened channels are still counted; only same-component ones
        // materialise, and a pure partition keeps the draw-free fast path.
        assert_eq!(channels, 12 * 4);
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
        use crate::failure::{FaultPlan, FaultState, GilbertElliott};
        let g = gen::complete(16);
        let mut rng = SmallRng::seed_from_u64(8);
        let mut choice = ChoiceState::new(16, ChoicePolicy::STANDARD);
        let mut fabric = ChannelFabric::new(16);
        let blocked = vec![false; 16];
        // Chains that are certainly bad from round 1, with certain loss.
        let plan = FaultPlan {
            burst: Some(GilbertElliott::new(1.0, 0.0, 0.0, 1.0)),
            ..FaultPlan::default()
        };
        let mut fs = FaultState::new(&plan, 16, 3);
        fs.begin_round(1, 16, |_| 15, |_| None, |_| true);
        let view = fs.channel_view().expect("burst active");
        let channels = fabric.sample(
            &g,
            ChoicePolicy::STANDARD,
            &mut choice,
            FailureModel::NONE,
            &blocked,
            Some(&view),
            |_| CallerGate::Open,
            &mut rng,
        );
        assert_eq!(channels, 16);
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
