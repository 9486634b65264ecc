use rand::Rng;

use rrb_graph::NodeId;

use crate::Topology;

/// How a node selects the neighbours it calls each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoicePolicy {
    /// Open channels to `k` distinct stubs chosen i.u.r. without
    /// replacement each round. `Distinct(1)` is the standard random phone
    /// call model of Karp et al.; `Distinct(4)` is the paper's modification.
    Distinct(usize),
    /// Sequentialised variant (paper footnote 2): open **one** channel per
    /// round to a neighbour chosen i.u.r. among those *not* contacted in the
    /// most recent `window` rounds. Four consecutive steps with `window = 3`
    /// simulate one step of `Distinct(4)`.
    SequentialMemory {
        /// How many recent choices to avoid (the paper uses 3).
        window: usize,
    },
    /// Quasirandom model of Doerr, Friedrich and Sauerwald \[9\]: each node
    /// owns a cyclic list of its neighbours (its stub order), starts at a
    /// uniformly random position, and contacts successive list entries in
    /// consecutive rounds. The only randomness is the starting offset.
    Cyclic,
}

impl ChoicePolicy {
    /// The paper's four-distinct-choices policy.
    pub const FOUR: ChoicePolicy = ChoicePolicy::Distinct(4);
    /// The standard (single-choice) random phone call model.
    pub const STANDARD: ChoicePolicy = ChoicePolicy::Distinct(1);
    /// The sequentialised memory-3 variant from footnote 2.
    pub const SEQUENTIAL: ChoicePolicy = ChoicePolicy::SequentialMemory { window: 3 };

    /// Number of channels a node opens per round under this policy (upper
    /// bound; a node of smaller degree opens fewer).
    pub fn fanout(&self) -> usize {
        match self {
            ChoicePolicy::Distinct(k) => *k,
            ChoicePolicy::SequentialMemory { .. } | ChoicePolicy::Cyclic => 1,
        }
    }

    /// `true` iff sampling this policy reads and writes **no per-node
    /// state**, so a round's targets for one node may be skipped without
    /// changing any later round's draws for it.
    ///
    /// This is the query behind the engines' capability-gated sampling
    /// skip: for a memoryless policy the skipped node's channel count is
    /// the deterministic `min(fanout, deg)` and nothing else observes the
    /// omission. `SequentialMemory` rings and `Cyclic` cursors advance as a
    /// side effect of sampling — skipping them would alter every
    /// subsequent choice — so they report `false` and the skip never
    /// engages (asserted byte-for-byte by the engine tests).
    pub fn is_memoryless(&self) -> bool {
        matches!(self, ChoicePolicy::Distinct(_))
    }
}

impl Default for ChoicePolicy {
    /// Defaults to the paper's four-choice policy.
    fn default() -> Self {
        ChoicePolicy::FOUR
    }
}

/// Per-node bookkeeping required by [`ChoicePolicy::SequentialMemory`]:
/// a sliding window of the most recently called neighbours.
#[derive(Debug, Clone, Default)]
pub struct ChoiceState {
    /// Ring buffers of recent callee ids, one per node (empty for the
    /// `Distinct` policies, which are memoryless by definition of the
    /// random phone call model).
    recent: Vec<Vec<NodeId>>,
    window: usize,
    /// Cyclic cursor per node for [`ChoicePolicy::Cyclic`];
    /// `u32::MAX` marks "not yet initialised" (the random start offset is
    /// drawn on first use).
    cursor: Vec<u32>,
    /// Reusable scratch for Floyd sampling with fanout above the stack
    /// threshold (empty — and allocation-free — for the common small
    /// fanouts).
    floyd_scratch: Vec<usize>,
}

impl ChoiceState {
    /// Creates choice bookkeeping for `n` nodes under `policy`.
    pub fn new(n: usize, policy: ChoicePolicy) -> Self {
        let base = ChoiceState {
            recent: Vec::new(),
            window: 0,
            cursor: Vec::new(),
            floyd_scratch: Vec::new(),
        };
        match policy {
            ChoicePolicy::Distinct(_) => base,
            ChoicePolicy::SequentialMemory { window } => ChoiceState {
                recent: vec![Vec::with_capacity(window); n],
                window,
                ..base
            },
            ChoicePolicy::Cyclic => ChoiceState { cursor: vec![u32::MAX; n], ..base },
        }
    }

    /// Grows the bookkeeping when the topology gains node slots (churn).
    pub fn ensure_len(&mut self, n: usize) {
        if self.window > 0 && self.recent.len() < n {
            self.recent.resize_with(n, || Vec::with_capacity(self.window));
        }
        if !self.cursor.is_empty() && self.cursor.len() < n {
            self.cursor.resize(n, u32::MAX);
        }
    }

    /// Clears slot `i`'s bookkeeping when the slot is recycled for a fresh
    /// peer (rejoin): the newcomer must not inherit the departed peer's
    /// recent-call window or cyclic cursor.
    pub fn reset_slot(&mut self, i: usize) {
        if let Some(ring) = self.recent.get_mut(i) {
            ring.clear();
        }
        if let Some(cur) = self.cursor.get_mut(i) {
            *cur = u32::MAX;
        }
    }

    fn remember(&mut self, v: NodeId, callee: NodeId) {
        if self.window == 0 {
            return;
        }
        let ring = &mut self.recent[v.index()];
        if ring.len() == self.window {
            ring.remove(0);
        }
        ring.push(callee);
    }
}

/// Samples the channel targets for node `v` this round under `policy`,
/// appending chosen callees to `out` (cleared first).
///
/// Targets are **stubs**: in a multigraph a self-loop stub calls `v` itself
/// and a parallel edge can be selected like any other stub, exactly mirroring
/// the stub-level process the paper analyses. `Distinct(k)` picks `k`
/// distinct stubs (all of them if the degree is `<= k`) via Floyd's
/// sampling; `SequentialMemory` picks one stub i.u.r. among stubs whose
/// endpoints were not called in the last `window` rounds (falling back to
/// any stub if none qualify, e.g. when the degree is smaller than the
/// window).
///
/// Returns how many generator words it drew: `Distinct(k)` one per Floyd
/// pick (`gen_range(0..=j)` is a single `next_u64`) when `deg > k` and
/// none otherwise, `SequentialMemory` one, `Cyclic` one on a node's first
/// call (its start offset); none for a node without stubs. The count
/// never depends on the values drawn.
pub fn sample_targets<T: Topology + ?Sized, R: Rng + ?Sized>(
    topo: &T,
    v: NodeId,
    policy: ChoicePolicy,
    state: &mut ChoiceState,
    rng: &mut R,
    out: &mut Vec<NodeId>,
) -> u64 {
    out.clear();
    let stubs = topo.stubs(v);
    if stubs.is_empty() {
        return 0;
    }
    match policy {
        ChoicePolicy::Distinct(k) => {
            let deg = stubs.len();
            if deg <= k {
                out.extend_from_slice(stubs);
                return 0;
            }
            // Floyd's algorithm: k distinct indices from 0..deg. Fanouts up
            // to 16 (every policy the paper studies) run on a stack array;
            // larger fanouts use a reusable heap scratch — same algorithm,
            // same RNG draws, no silent corruption past the threshold.
            if k <= 16 {
                let mut picked: [usize; 16] = [usize::MAX; 16];
                let mut count = 0usize;
                for j in (deg - k)..deg {
                    let t = rng.gen_range(0..=j);
                    let idx = if picked[..count].contains(&t) { j } else { t };
                    picked[count] = idx;
                    count += 1;
                }
                for &idx in &picked[..count] {
                    out.push(stubs[idx]);
                }
            } else {
                let picked = &mut state.floyd_scratch;
                picked.clear();
                for j in (deg - k)..deg {
                    let t = rng.gen_range(0..=j);
                    let idx = if picked.contains(&t) { j } else { t };
                    picked.push(idx);
                }
                for &idx in picked.iter() {
                    out.push(stubs[idx]);
                }
            }
            k as u64
        }
        ChoicePolicy::Cyclic => {
            let cur = &mut state.cursor[v.index()];
            let first = *cur == u32::MAX;
            if first {
                *cur = rng.gen_range(0..stubs.len() as u32);
            }
            out.push(stubs[*cur as usize % stubs.len()]);
            *cur = (*cur + 1) % stubs.len().max(1) as u32;
            u64::from(first)
        }
        ChoicePolicy::SequentialMemory { .. } => {
            let ring = &state.recent[v.index()];
            // Count eligible stubs (endpoint not recently called).
            let eligible = stubs.iter().filter(|s| !ring.contains(s)).count();
            let chosen = if eligible == 0 {
                stubs[rng.gen_range(0..stubs.len())]
            } else {
                let mut pick = rng.gen_range(0..eligible);
                let mut found = stubs[0];
                for &s in stubs {
                    if ring.contains(&s) {
                        continue;
                    }
                    if pick == 0 {
                        found = s;
                        break;
                    }
                    pick -= 1;
                }
                found
            };
            out.push(chosen);
            state.remember(v, chosen);
            1
        }
    }
}

/// The generator words a caller's channel choice accounts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Words {
    /// Drawn from the generator.
    Drawn(u64),
    /// Not drawn: the caller must skip them
    /// ([`RngCore::discard`](rand::RngCore::discard)) before the next
    /// draw, so that later draws stay where they would have been.
    Owed(u64),
}

/// Does to `state` what [`sample_targets`] would for node `v` but keeps
/// none of the targets, and returns how many targets that call would
/// have produced and the words it accounts for. This is for callers
/// whose channels can carry nothing this round.
///
/// `Distinct(k)` is memoryless, so nothing is drawn here and the words
/// sampling would draw (`k` when `deg > k`, else none) are owed; the
/// fabric adds them to a pending count that one `discard` settles. The
/// stateful policies sample into `scratch` and drop it, so their rings
/// and cursors advance and their words are drawn.
// rrb-lint: hot
pub(crate) fn discard_targets<T: Topology + ?Sized, R: Rng + ?Sized>(
    topo: &T,
    v: NodeId,
    policy: ChoicePolicy,
    state: &mut ChoiceState,
    rng: &mut R,
    scratch: &mut Vec<NodeId>,
) -> (usize, Words) {
    match policy {
        ChoicePolicy::Distinct(k) => {
            let deg = topo.degree(v);
            (deg.min(k), Words::Owed(if deg > k { k as u64 } else { 0 }))
        }
        ChoicePolicy::SequentialMemory { .. } | ChoicePolicy::Cyclic => {
            let drawn = sample_targets(topo, v, policy, state, rng, scratch);
            (scratch.len(), Words::Drawn(drawn))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};
    use rrb_graph::gen;

    #[test]
    fn distinct_four_yields_four_distinct_stubs() {
        let g = gen::complete(10);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut state = ChoiceState::new(10, ChoicePolicy::FOUR);
        let mut out = Vec::new();
        for _ in 0..50 {
            sample_targets(&g, NodeId::new(0), ChoicePolicy::FOUR, &mut state, &mut rng, &mut out);
            assert_eq!(out.len(), 4);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "targets not distinct: {out:?}");
            assert!(!out.contains(&NodeId::new(0)));
        }
    }

    #[test]
    fn degree_smaller_than_fanout_takes_all() {
        let g = gen::cycle(5); // degree 2
        let mut rng = SmallRng::seed_from_u64(2);
        let mut state = ChoiceState::new(5, ChoicePolicy::FOUR);
        let mut out = Vec::new();
        sample_targets(&g, NodeId::new(0), ChoicePolicy::FOUR, &mut state, &mut rng, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![NodeId::new(1), NodeId::new(4)]);
    }

    #[test]
    fn distinct_targets_cover_all_neighbors_over_time() {
        let g = gen::complete(8);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut state = ChoiceState::new(8, ChoicePolicy::STANDARD);
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            sample_targets(
                &g,
                NodeId::new(0),
                ChoicePolicy::STANDARD,
                &mut state,
                &mut rng,
                &mut out,
            );
            assert_eq!(out.len(), 1);
            seen.insert(out[0]);
        }
        assert_eq!(seen.len(), 7, "uniform sampling should hit every neighbour");
    }

    #[test]
    fn sequential_memory_avoids_recent() {
        let g = gen::complete(6);
        let mut rng = SmallRng::seed_from_u64(4);
        let policy = ChoicePolicy::SEQUENTIAL;
        let mut state = ChoiceState::new(6, policy);
        let mut out = Vec::new();
        let mut history: Vec<NodeId> = Vec::new();
        for _ in 0..100 {
            sample_targets(&g, NodeId::new(0), policy, &mut state, &mut rng, &mut out);
            assert_eq!(out.len(), 1);
            let pick = out[0];
            let recent: Vec<NodeId> =
                history.iter().rev().take(3).copied().collect();
            assert!(
                !recent.contains(&pick),
                "picked {pick} from recent window {recent:?}"
            );
            history.push(pick);
        }
    }

    #[test]
    fn sequential_memory_four_steps_match_one_distinct4_step() {
        // Footnote 2: four consecutive SequentialMemory { window: 3 } steps
        // simulate one Distinct(4) step. Two checks on a random regular
        // graph: (a) every 4-step block picks 4 *distinct* neighbours (the
        // window forbids repeats), and (b) the per-neighbour marginal hit
        // rate over many blocks matches Distinct(4)'s uniform 4/d.
        let mut gen_rng = SmallRng::seed_from_u64(100);
        let d = 12usize;
        let g = gen::random_regular(64, d, &mut gen_rng).unwrap();
        let v = NodeId::new(0);
        let blocks = 4000usize;

        let policy = ChoicePolicy::SEQUENTIAL;
        let mut rng = SmallRng::seed_from_u64(101);
        let mut state = ChoiceState::new(64, policy);
        let mut out = Vec::new();
        let mut seq_hits = std::collections::HashMap::new();
        for _ in 0..blocks {
            let mut block = Vec::with_capacity(4);
            for _ in 0..4 {
                sample_targets(&g, v, policy, &mut state, &mut rng, &mut out);
                assert_eq!(out.len(), 1);
                block.push(out[0]);
            }
            let mut sorted = block.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "window-3 block repeated a neighbour: {block:?}");
            for w in block {
                *seq_hits.entry(w).or_insert(0usize) += 1;
            }
        }

        let policy4 = ChoicePolicy::FOUR;
        let mut rng4 = SmallRng::seed_from_u64(102);
        let mut state4 = ChoiceState::new(64, policy4);
        let mut four_hits = std::collections::HashMap::new();
        for _ in 0..blocks {
            sample_targets(&g, v, policy4, &mut state4, &mut rng4, &mut out);
            assert_eq!(out.len(), 4);
            for &w in &out {
                *four_hits.entry(w).or_insert(0usize) += 1;
            }
        }

        // Both policies select each neighbour with marginal probability
        // 4/d = 1/3 per block; allow 4-sigma Monte-Carlo slack.
        let expected = blocks as f64 * 4.0 / d as f64;
        let sigma = (blocks as f64 * (4.0 / d as f64) * (1.0 - 4.0 / d as f64)).sqrt();
        for &w in g.neighbors(v) {
            let s = *seq_hits.get(&w).unwrap_or(&0) as f64;
            let f = *four_hits.get(&w).unwrap_or(&0) as f64;
            assert!(
                (s - expected).abs() < 4.0 * sigma,
                "sequential marginal off for {w}: {s} vs {expected}"
            );
            assert!(
                (f - expected).abs() < 4.0 * sigma,
                "distinct4 marginal off for {w}: {f} vs {expected}"
            );
        }
    }

    #[test]
    fn sequential_memory_respects_window_on_regular_graph() {
        // No neighbour may repeat within `window` consecutive rounds, for
        // windows other than the paper's default too.
        let mut gen_rng = SmallRng::seed_from_u64(103);
        let g = gen::random_regular(32, 8, &mut gen_rng).unwrap();
        for window in [1usize, 2, 5] {
            let policy = ChoicePolicy::SequentialMemory { window };
            let mut rng = SmallRng::seed_from_u64(104 + window as u64);
            let mut state = ChoiceState::new(32, policy);
            let mut out = Vec::new();
            let mut history: Vec<NodeId> = Vec::new();
            for _ in 0..200 {
                sample_targets(&g, NodeId::new(3), policy, &mut state, &mut rng, &mut out);
                let recent: Vec<NodeId> =
                    history.iter().rev().take(window).copied().collect();
                assert!(
                    !recent.contains(&out[0]),
                    "window {window} violated: picked {} from {recent:?}",
                    out[0]
                );
                history.push(out[0]);
            }
        }
    }

    #[test]
    fn sequential_memory_falls_back_when_degree_small() {
        // Degree 2 with window 3: after two rounds every neighbour is
        // "recent"; the sampler must still return something.
        let g = gen::cycle(4);
        let policy = ChoicePolicy::SEQUENTIAL;
        let mut rng = SmallRng::seed_from_u64(5);
        let mut state = ChoiceState::new(4, policy);
        let mut out = Vec::new();
        for _ in 0..10 {
            sample_targets(&g, NodeId::new(0), policy, &mut state, &mut rng, &mut out);
            assert_eq!(out.len(), 1);
        }
    }

    #[test]
    fn cyclic_walks_the_neighbour_list_in_order() {
        let g = gen::complete(7);
        let mut rng = SmallRng::seed_from_u64(8);
        let mut state = ChoiceState::new(7, ChoicePolicy::Cyclic);
        let mut out = Vec::new();
        let mut picks = Vec::new();
        for _ in 0..12 {
            sample_targets(&g, NodeId::new(0), ChoicePolicy::Cyclic, &mut state, &mut rng, &mut out);
            assert_eq!(out.len(), 1);
            picks.push(out[0]);
        }
        // Six consecutive picks cover all six neighbours (cyclic, no repeat
        // within a window of deg).
        let mut window: Vec<NodeId> = picks[..6].to_vec();
        window.sort_unstable();
        window.dedup();
        assert_eq!(window.len(), 6, "first 6 picks not distinct: {picks:?}");
        // And the cycle repeats with the same order.
        assert_eq!(&picks[..6], &picks[6..12]);
    }

    #[test]
    fn cyclic_start_offsets_are_random() {
        let g = gen::complete(16);
        let mut firsts = std::collections::HashSet::new();
        for seed in 0..30 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut state = ChoiceState::new(16, ChoicePolicy::Cyclic);
            let mut out = Vec::new();
            sample_targets(&g, NodeId::new(0), ChoicePolicy::Cyclic, &mut state, &mut rng, &mut out);
            firsts.insert(out[0]);
        }
        assert!(firsts.len() > 5, "start offsets look deterministic: {firsts:?}");
    }

    #[test]
    fn distinct_fanout_above_stack_threshold_is_sound() {
        // Regression: Distinct(k) with k > 16 used to overflow a fixed
        // 16-slot stack array (guarded only by a debug_assert). The heap
        // fallback must return k distinct in-range stubs.
        let g = gen::complete(64);
        let mut rng = SmallRng::seed_from_u64(17);
        for k in [17usize, 24, 32, 48] {
            let policy = ChoicePolicy::Distinct(k);
            let mut state = ChoiceState::new(64, policy);
            let mut out = Vec::new();
            for _ in 0..25 {
                sample_targets(&g, NodeId::new(5), policy, &mut state, &mut rng, &mut out);
                assert_eq!(out.len(), k, "wrong sample size for k = {k}");
                let mut sorted = out.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), k, "duplicates for k = {k}: {out:?}");
                assert!(out.iter().all(|s| s.index() < 64 && *s != NodeId::new(5)));
            }
        }
    }

    #[test]
    fn large_fanout_saturates_small_degree() {
        // deg <= k keeps returning the whole stub list, k > 16 included.
        let g = gen::complete(10);
        let mut rng = SmallRng::seed_from_u64(18);
        let policy = ChoicePolicy::Distinct(20);
        let mut state = ChoiceState::new(10, policy);
        let mut out = Vec::new();
        sample_targets(&g, NodeId::new(0), policy, &mut state, &mut rng, &mut out);
        assert_eq!(out.len(), 9);
    }

    /// Choice bookkeeping that later draws depend on (the Floyd scratch is
    /// a reusable buffer, not state).
    fn same_state(a: &ChoiceState, b: &ChoiceState) -> bool {
        a.recent == b.recent && a.window == b.window && a.cursor == b.cursor
    }

    /// Counts the words drawn through it.
    struct Counting<'r> {
        rng: &'r mut SmallRng,
        words: u64,
    }

    impl RngCore for Counting<'_> {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.rng.next_u64()
        }
    }

    /// Samples every node of `g` for `rounds` rounds on one copy of the
    /// generator and choice state, discards on the other (skipping the
    /// owed words), and asserts the two copies stay bit-identical with
    /// matching target counts, and that both calls account for exactly
    /// the words sampling draws.
    fn assert_discard_matches_sample(
        g: &rrb_graph::Graph,
        policy: ChoicePolicy,
        seed: u64,
        rounds: usize,
    ) {
        let n = Topology::node_count(g);
        let mut full_rng = SmallRng::seed_from_u64(seed);
        let mut quiet_rng = SmallRng::seed_from_u64(seed);
        let mut full = ChoiceState::new(n, policy);
        let mut quiet = ChoiceState::new(n, policy);
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for _ in 0..rounds {
            for i in 0..n {
                let v = NodeId::new(i);
                let mut counted = Counting { rng: &mut full_rng, words: 0 };
                let drawn = sample_targets(g, v, policy, &mut full, &mut counted, &mut out);
                assert_eq!(counted.words, drawn, "{policy:?}: words drawn at node {i}");
                let (count, words) =
                    discard_targets(g, v, policy, &mut quiet, &mut quiet_rng, &mut scratch);
                match words {
                    Words::Drawn(w) => assert_eq!(w, drawn, "{policy:?}: node {i}"),
                    Words::Owed(w) => {
                        assert_eq!(w, drawn, "{policy:?}: node {i}");
                        quiet_rng.discard(w);
                    }
                }
                assert_eq!(count, out.len(), "{policy:?}: target count differs at node {i}");
                assert_eq!(full_rng, quiet_rng, "{policy:?}: generator diverged at node {i}");
                assert!(same_state(&full, &quiet), "{policy:?}: choice state diverged at node {i}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Discarding a caller's targets leaves the generator and the
        /// choice state exactly where sampling them would: every policy,
        /// and for `Distinct(k)` degrees below, at and above `k`, with
        /// `k` on both sides of the stack/heap Floyd threshold.
        #[test]
        fn discarding_draws_exactly_what_sampling_draws(
            seed in proptest::prelude::any::<u64>(),
            k in 1usize..33,
            gap in 1usize..9,
            window in 1usize..6,
            rounds in 1usize..5,
        ) {
            for deg in [k.saturating_sub(gap), k, k + gap] {
                let g = gen::complete(deg + 1);
                for policy in [
                    ChoicePolicy::Distinct(k),
                    ChoicePolicy::SequentialMemory { window },
                    ChoicePolicy::Cyclic,
                ] {
                    assert_discard_matches_sample(&g, policy, seed, rounds);
                }
            }
        }
    }

    #[test]
    fn fanout_accessor() {
        assert_eq!(ChoicePolicy::FOUR.fanout(), 4);
        assert_eq!(ChoicePolicy::STANDARD.fanout(), 1);
        assert_eq!(ChoicePolicy::SEQUENTIAL.fanout(), 1);
        assert_eq!(ChoicePolicy::default(), ChoicePolicy::FOUR);
    }

    #[test]
    fn memoryless_query_matches_statefulness() {
        assert!(ChoicePolicy::FOUR.is_memoryless());
        assert!(ChoicePolicy::STANDARD.is_memoryless());
        assert!(ChoicePolicy::Distinct(7).is_memoryless());
        assert!(!ChoicePolicy::SEQUENTIAL.is_memoryless());
        assert!(!ChoicePolicy::SequentialMemory { window: 1 }.is_memoryless());
        assert!(!ChoicePolicy::Cyclic.is_memoryless());
    }

    #[test]
    fn ensure_len_grows_memory() {
        let mut st = ChoiceState::new(2, ChoicePolicy::SEQUENTIAL);
        st.ensure_len(5);
        let g = gen::complete(5);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut out = Vec::new();
        sample_targets(&g, NodeId::new(4), ChoicePolicy::SEQUENTIAL, &mut st, &mut rng, &mut out);
        assert_eq!(out.len(), 1);
    }
}
