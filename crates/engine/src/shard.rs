//! Sharded execution of the round loop: contiguous node-slot partitions
//! over which the single-rumour engine fans its Plan/Exchange/Update
//! phases out on the rayon pool. There is one round path; the shard
//! count (1 by default) only sets how many tasks it splits into, and
//! results are seed-for-seed identical at any shard and thread count.
//!
//! # Determinism model
//!
//! Every *model* RNG draw — crash sampling, channel opening, per-call
//! transmission outcomes — stays on the main sequential stream in one
//! fixed order (transmission outcomes are pre-drawn serially into
//! per-channel tables before the exchange fans out). The phases that do
//! fan out are RNG-free by construction, and every cross-shard effect is
//! buffered per (source shard → target shard) and merged at the round
//! barrier in ascending source-shard order — reproducing the global
//! caller order exactly. A lone shard records its push receipts straight
//! into its arena: its caller order already is the global one. That is
//! *why* every shard count gives the same run: thread scheduling can
//! reorder work, never observations.

use crate::observation::{Observation, ObservationArena, RumorMeta};

/// Contiguous partition of node slots `0..n` into `count` shards of
/// fixed `width` (the last shard absorbs any remainder — and, under
/// churn, any slot growth, so earlier shards' ranges never move once the
/// layout is built).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLayout {
    width: usize,
    count: usize,
}

impl ShardLayout {
    /// Builds a layout for `node_count` slots split into (at most)
    /// `shards` contiguous shards; clamped so every shard owns at least
    /// one slot.
    pub fn new(node_count: usize, shards: usize) -> Self {
        let count = shards.max(1).min(node_count.max(1));
        let width = node_count.div_ceil(count).max(1);
        ShardLayout { width, count }
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Shard owning node slot `i`.
    #[inline]
    pub fn shard_of(&self, i: usize) -> usize {
        (i / self.width).min(self.count - 1)
    }

    /// Slot range owned by shard `s` given the current slot count `n`
    /// (the last shard's range extends with slot growth).
    #[inline]
    pub fn range(&self, s: usize, n: usize) -> std::ops::Range<usize> {
        let start = (s * self.width).min(n);
        let end = if s + 1 == self.count { n } else { ((s + 1) * self.width).min(n) };
        start..end
    }
}

/// Per-run scratch owned by the round path: one observation arena
/// per shard (locally indexed), per-(source → target) push outboxes,
/// per-shard informed lists and newly-informed buffers, and the serial
/// transmission pre-draw tables. Reused across rounds.
#[derive(Debug)]
pub(crate) struct ShardRuntime {
    pub(crate) layout: ShardLayout,
    /// Per-shard arenas over *local* receiver indices (`i - range.start`).
    pub(crate) arenas: Vec<ObservationArena>,
    /// `outboxes[src][dst]`: push receipts `(global receiver, meta)` from
    /// shard `src` to receivers owned by shard `dst`, in the source
    /// shard's caller/channel order. Merged at the round barrier in
    /// ascending `src` order to reproduce the global caller order. Unused
    /// with a single shard, which records push receipts directly.
    pub(crate) outboxes: Vec<Vec<Vec<(u32, RumorMeta)>>>,
    /// Per-shard informed slots (global ids, discovery order).
    pub(crate) informed_lists: Vec<Vec<u32>>,
    /// Per-shard newly-informed slots from the last update fan-out.
    pub(crate) newly: Vec<Vec<u32>>,
    /// Per-shard digest scratch observation.
    pub(crate) scratch: Vec<Observation>,
    /// Serial transmission pre-draw tables, indexed by channel.
    pub(crate) push_ok: Vec<bool>,
    pub(crate) pull_ok: Vec<bool>,
}

impl ShardRuntime {
    /// Builds the runtime for `shards` shards over `node_count` slots,
    /// partitioning `informed` (the global informed list, discovery
    /// order) into per-shard lists.
    pub(crate) fn new(node_count: usize, shards: usize, informed: &[u32]) -> Self {
        let layout = ShardLayout::new(node_count, shards);
        let count = layout.count();
        let mut rt = ShardRuntime {
            layout,
            arenas: (0..count)
                .map(|s| ObservationArena::new(layout.range(s, node_count).len()))
                .collect(),
            outboxes: vec![vec![Vec::new(); count]; count],
            informed_lists: vec![Vec::new(); count],
            newly: vec![Vec::new(); count],
            scratch: (0..count).map(|_| Observation::default()).collect(),
            push_ok: Vec::new(),
            pull_ok: Vec::new(),
        };
        for &i in informed {
            rt.informed_lists[layout.shard_of(i as usize)].push(i);
        }
        rt
    }

    /// Accommodates slot growth: only the last shard's range extends
    /// (fixed-width layout), so only its arena needs growing.
    pub(crate) fn ensure_len(&mut self, node_count: usize) {
        let last = self.layout.count() - 1;
        let len = self.layout.range(last, node_count).len();
        if let Some(arena) = self.arenas.get_mut(last) {
            arena.ensure_len(len);
        }
    }

    /// Heap capacities of every per-round buffer (arenas, outboxes,
    /// informed and newly-informed lists, digest scratch, pre-draw
    /// tables), for the no-allocation tests.
    pub(crate) fn capacities(&self) -> Vec<usize> {
        let mut caps: Vec<usize> = self.arenas.iter().flat_map(|a| a.capacities()).collect();
        caps.extend(self.outboxes.iter().flatten().map(Vec::capacity));
        caps.extend(self.informed_lists.iter().map(Vec::capacity));
        caps.extend(self.newly.iter().map(Vec::capacity));
        caps.extend(self.scratch.iter().flat_map(|o| [o.pushes.capacity(), o.pulls.capacity()]));
        caps.extend([self.push_ok.capacity(), self.pull_ok.capacity()]);
        caps
    }

    /// Drops node `i` from its shard's informed list (slot reuse after a
    /// rejoin). Linear in the shard list — churn events are rare next to
    /// round work.
    pub(crate) fn forget(&mut self, i: usize) {
        let list = &mut self.informed_lists[self.layout.shard_of(i)];
        if let Some(p) = list.iter().position(|&v| v as usize == i) {
            list.remove(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_partitions_every_slot_exactly_once() {
        for (n, s) in [(1usize, 1usize), (7, 2), (8, 4), (10, 3), (100, 7), (5, 9)] {
            let layout = ShardLayout::new(n, s);
            assert!(layout.count() >= 1 && layout.count() <= s.max(1));
            let mut covered = vec![0u32; n];
            for shard in 0..layout.count() {
                for i in layout.range(shard, n) {
                    assert_eq!(layout.shard_of(i), shard, "n={n} s={s} i={i}");
                    covered[i] += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "n={n} s={s}: {covered:?}");
        }
    }

    #[test]
    fn layout_growth_extends_only_the_last_shard() {
        let layout = ShardLayout::new(8, 4);
        let before: Vec<_> = (0..3).map(|s| layout.range(s, 8)).collect();
        // Slots grow 8 -> 13: shards 0..=2 keep their ranges.
        let after: Vec<_> = (0..3).map(|s| layout.range(s, 13)).collect();
        assert_eq!(before, after);
        assert_eq!(layout.range(3, 8), 6..8);
        assert_eq!(layout.range(3, 13), 6..13);
        for i in 8..13 {
            assert_eq!(layout.shard_of(i), 3);
        }
    }

    #[test]
    fn runtime_partitions_informed_list_by_shard() {
        let rt = ShardRuntime::new(8, 2, &[5, 1, 6, 0]);
        assert_eq!(rt.informed_lists[0], vec![1, 0]);
        assert_eq!(rt.informed_lists[1], vec![5, 6]);
        assert_eq!(rt.arenas.len(), 2);
        assert_eq!(rt.outboxes.len(), 2);
        assert_eq!(rt.outboxes[0].len(), 2);
    }

    #[test]
    fn runtime_forget_removes_the_slot() {
        let mut rt = ShardRuntime::new(8, 2, &[5, 1, 6]);
        rt.forget(6);
        assert_eq!(rt.informed_lists[1], vec![5]);
        rt.forget(6); // absent: no-op
        assert_eq!(rt.informed_lists[1], vec![5]);
    }
}
