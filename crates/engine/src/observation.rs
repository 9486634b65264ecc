/// Metadata travelling with every rumour copy.
///
/// The phone call model allows the rumour to carry a small header; Karp et
/// al.'s median-counter algorithm needs the sender's age and counter, and
/// the paper's algorithm only needs the age (which equals the global round
/// under a synchronous clock, §3: "the age of the message is nothing else
/// than the current time step"). Address-obliviousness is preserved: the
/// header never names nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RumorMeta {
    /// Age of the rumour as counted by the sender (rounds since creation).
    pub age: u32,
    /// Protocol-specific counter (e.g. the median-counter phase of Karp et
    /// al.); zero when unused.
    pub counter: u32,
}

/// Everything a node observed during one round's exchanges, handed to
/// [`Protocol::update`](crate::Protocol::update).
#[derive(Debug, Clone, Default)]
pub struct Observation {
    /// Rumour copies that arrived via push (caller → this node).
    pub pushes: Vec<RumorMeta>,
    /// Rumour copies that arrived via pull (callee → this node, answering a
    /// channel this node opened).
    pub pulls: Vec<RumorMeta>,
}

impl Observation {
    /// Total rumour copies received this round.
    pub fn received(&self) -> usize {
        self.pushes.len() + self.pulls.len()
    }

    /// Iterator over all received metadata, pushes first.
    pub fn iter(&self) -> impl Iterator<Item = &RumorMeta> {
        self.pushes.iter().chain(self.pulls.iter())
    }

    /// Empties both receipt lists, keeping their capacity.
    pub fn clear(&mut self) {
        self.pushes.clear();
        self.pulls.clear();
    }
}

/// Flat, reusable per-round receipt store (the engine's hot-path
/// replacement for a `Vec<Observation>` with per-node heap `Vec`s).
///
/// # Layout
///
/// Receipts are appended to a flat `staging` log during the exchange phase
/// — `(receiver, meta, direction)` triples — while per-node counters track
/// how many pushes/pulls each receiver got. [`build`](Self::build) then
/// counting-sorts the log into CSR form: `offsets` indexes the dense list of
/// *touched* receivers (nodes with ≥ 1 receipt this round) into the flat
/// `meta` buffer, with each receiver's segment storing its push metas first
/// and pull metas second. Every buffer is reused across rounds; once
/// capacities reach the per-round high-water mark, steady-state rounds
/// perform no heap allocation.
///
/// Counter resets cost `O(touched)`, not `O(n)`: only receivers recorded in
/// `touched` are cleared at the start of the next round.
#[derive(Debug, Default)]
pub(crate) struct ObservationArena {
    /// Push receipts per node this round (reset lazily via `touched`).
    push_count: Vec<u32>,
    /// Pull receipts per node this round (reset lazily via `touched`).
    pull_count: Vec<u32>,
    /// Node → dense index into `touched`/`offsets` (`u32::MAX` = untouched).
    slot: Vec<u32>,
    /// Receivers with ≥ 1 receipt this round, in first-receipt order.
    touched: Vec<u32>,
    /// Append log of this round's receipts: (receiver, meta, is_push).
    staging: Vec<(u32, RumorMeta, bool)>,
    /// CSR offsets over `touched`; `offsets[i]..offsets[i+1]` bounds dense
    /// receiver `i`'s segment in `meta`.
    offsets: Vec<u32>,
    /// Flat metadata buffer: per segment, pushes first, then pulls.
    meta: Vec<RumorMeta>,
    /// Scatter cursors, two per touched receiver (next push / next pull).
    cursor_push: Vec<u32>,
    cursor_pull: Vec<u32>,
}

impl ObservationArena {
    pub(crate) fn new(node_count: usize) -> Self {
        ObservationArena {
            push_count: vec![0; node_count],
            pull_count: vec![0; node_count],
            slot: vec![u32::MAX; node_count],
            ..ObservationArena::default()
        }
    }

    /// Accommodates topology growth (churn).
    pub(crate) fn ensure_len(&mut self, node_count: usize) {
        if self.push_count.len() < node_count {
            self.push_count.resize(node_count, 0);
            self.pull_count.resize(node_count, 0);
            self.slot.resize(node_count, u32::MAX);
        }
    }

    /// Resets the arena for a new round in `O(touched)` time.
    // rrb-lint: hot
    pub(crate) fn begin_round(&mut self) {
        for &w in &self.touched {
            self.push_count[w as usize] = 0;
            self.pull_count[w as usize] = 0;
            self.slot[w as usize] = u32::MAX;
        }
        self.touched.clear();
        self.staging.clear();
        self.offsets.clear();
        self.meta.clear();
        self.cursor_push.clear();
        self.cursor_pull.clear();
    }

    #[inline]
    fn touch(&mut self, receiver: usize) {
        if self.push_count[receiver] == 0 && self.pull_count[receiver] == 0 {
            self.touched.push(receiver as u32);
        }
    }

    /// Records a rumour copy delivered to `receiver` via push.
    #[inline]
    // rrb-lint: hot
    pub(crate) fn record_push(&mut self, receiver: usize, meta: RumorMeta) {
        self.touch(receiver);
        self.push_count[receiver] += 1;
        self.staging.push((receiver as u32, meta, true));
    }

    /// Records a rumour copy delivered to `receiver` via pull.
    #[inline]
    // rrb-lint: hot
    pub(crate) fn record_pull(&mut self, receiver: usize, meta: RumorMeta) {
        self.touch(receiver);
        self.pull_count[receiver] += 1;
        self.staging.push((receiver as u32, meta, false));
    }

    /// Counting-sorts the staging log into CSR form. Call once per round,
    /// after the exchange phase.
    // rrb-lint: hot
    pub(crate) fn build(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.cursor_push.clear();
        self.cursor_pull.clear();
        let mut total = 0u32;
        for (dense, &w) in self.touched.iter().enumerate() {
            self.slot[w as usize] = dense as u32;
            self.cursor_push.push(total);
            self.cursor_pull.push(total + self.push_count[w as usize]);
            total += self.push_count[w as usize] + self.pull_count[w as usize];
            self.offsets.push(total);
        }
        self.meta.clear();
        self.meta.resize(total as usize, RumorMeta::default());
        for &(w, meta, is_push) in &self.staging {
            let dense = self.slot[w as usize] as usize;
            let cursor =
                if is_push { &mut self.cursor_push[dense] } else { &mut self.cursor_pull[dense] };
            self.meta[*cursor as usize] = meta;
            *cursor += 1;
        }
    }

    /// Receivers with ≥ 1 receipt this round, in first-receipt order.
    #[inline]
    pub(crate) fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// `true` if `node` received at least one copy this round.
    #[inline]
    pub(crate) fn heard(&self, node: usize) -> bool {
        self.push_count[node] > 0 || self.pull_count[node] > 0
    }

    /// Push/pull metadata segments of the `dense`-th touched receiver
    /// (valid after [`build`](Self::build)).
    #[inline]
    pub(crate) fn segment(&self, dense: usize) -> (&[RumorMeta], &[RumorMeta]) {
        let begin = self.offsets[dense] as usize;
        let end = self.offsets[dense + 1] as usize;
        let w = self.touched[dense] as usize;
        let split = begin + self.push_count[w] as usize;
        (&self.meta[begin..split], &self.meta[split..end])
    }

    /// Heap capacities of the reusable buffers — exposed so tests can assert
    /// steady-state rounds allocate nothing.
    pub(crate) fn capacities(&self) -> [usize; 4] {
        [
            self.touched.capacity(),
            self.staging.capacity(),
            self.meta.capacity(),
            self.cursor_push.capacity() + self.cursor_pull.capacity() + self.offsets.capacity(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_groups_receipts_by_receiver() {
        let mut arena = ObservationArena::new(8);
        arena.begin_round();
        arena.record_push(3, RumorMeta { age: 1, counter: 0 });
        arena.record_pull(5, RumorMeta { age: 2, counter: 0 });
        arena.record_push(3, RumorMeta { age: 4, counter: 1 });
        arena.record_pull(3, RumorMeta { age: 9, counter: 0 });
        arena.build();
        assert_eq!(arena.touched(), &[3, 5]);
        assert!(arena.heard(3) && arena.heard(5) && !arena.heard(0));
        let (pushes, pulls) = arena.segment(0);
        assert_eq!(pushes.iter().map(|m| m.age).collect::<Vec<_>>(), vec![1, 4]);
        assert_eq!(pulls.iter().map(|m| m.age).collect::<Vec<_>>(), vec![9]);
        let (pushes, pulls) = arena.segment(1);
        assert!(pushes.is_empty());
        assert_eq!(pulls.iter().map(|m| m.age).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn arena_reset_is_complete() {
        let mut arena = ObservationArena::new(4);
        arena.begin_round();
        arena.record_push(1, RumorMeta { age: 7, counter: 0 });
        arena.build();
        arena.begin_round();
        assert!(!arena.heard(1));
        assert!(arena.touched().is_empty());
        arena.record_pull(2, RumorMeta { age: 3, counter: 0 });
        arena.build();
        assert_eq!(arena.touched(), &[2]);
        let (pushes, pulls) = arena.segment(0);
        assert!(pushes.is_empty());
        assert_eq!(pulls.len(), 1);
    }

    #[test]
    fn arena_capacities_stabilise_under_identical_load() {
        let mut arena = ObservationArena::new(16);
        let run_round = |arena: &mut ObservationArena| {
            arena.begin_round();
            for w in 0..16 {
                arena.record_push(w, RumorMeta::default());
                arena.record_pull(15 - w, RumorMeta::default());
            }
            arena.build();
        };
        run_round(&mut arena);
        let warm = arena.capacities();
        for _ in 0..50 {
            run_round(&mut arena);
        }
        assert_eq!(arena.capacities(), warm, "arena buffers reallocated in steady state");
    }

    #[test]
    fn counts_and_iteration() {
        let mut obs = Observation::default();
        obs.pushes.push(RumorMeta { age: 3, counter: 0 });
        obs.pulls.push(RumorMeta { age: 5, counter: 2 });
        assert_eq!(obs.received(), 2);
        let ages: Vec<u32> = obs.iter().map(|m| m.age).collect();
        assert_eq!(ages, vec![3, 5]);
        obs.clear();
        assert_eq!(obs.received(), 0);
    }
}
