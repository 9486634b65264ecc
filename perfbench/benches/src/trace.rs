//! Spans recorded from outside the engines, and the round probe that
//! splits a round into its [`StepPhase`]s.
//!
//! A traced run wraps every call the driver makes into a layer's public
//! API in a [`Span`] (name, start, end, parent) kept in memory and written
//! out when the run ends. The engines are not instrumented beyond their
//! existing `set_probe` hook: [`LogProbe`] receives each phase's duration,
//! and each phase becomes a child span of the `step` call it happened in.
//! [`self_times`] then derives each span's self time — its duration minus
//! the union of its children — so the layers visibly sum to the
//! broadcast's wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use rrb_engine::{BoxedProbe, RoundCounters, RoundProbe, StepPhase};

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Nanoseconds since the process's trace epoch (the first call).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Span names of the probe's phases, in [`StepPhase::ALL`] order.
const PHASE_SPANS: [&str; StepPhase::COUNT] = [
    "phase.faults",
    "phase.fabric",
    "phase.plan",
    "phase.exchange",
    "phase.update",
    "phase.coverage",
];

/// One timed interval. `parent` is `0` for the run's root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Process-unique id (never 0).
    pub id: u64,
    /// Id of the span whose call caused this one; 0 for the root.
    pub parent: u64,
    /// Layer call, e.g. `simulation.step`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span; `id` is 0 when the tracer is off.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// Id children should name as their parent.
    pub id: u64,
    slot: usize,
}

/// In-memory span recorder. An off tracer records nothing and reads no
/// clock, so the untraced run pays only for the timings it reports.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that is on (`true`) or inert (`false`).
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span under `parent`; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: u64) -> Open {
        if !self.on {
            return Open {
                id: 0,
                slot: usize::MAX,
            };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let now = now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        Open {
            id,
            slot: self.spans.len() - 1,
        }
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, open: Open) {
        if self.on {
            self.spans[open.slot].end_ns = now_ns();
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn call<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let open = self.begin(name, parent);
        let out = f();
        self.end(open);
        out
    }

    /// Records an already-measured interval; returns its id (0 when off).
    pub fn record(&mut self, name: &'static str, parent: u64, start_ns: u64, end_ns: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Moves another recorder's spans (e.g. a worker thread's) into this one.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        if self.on {
            self.spans.extend(spans);
        }
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the recorded spans out.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// What the probe saw over one broadcast.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeTotals {
    /// Wall time per phase, in [`StepPhase::ALL`] order.
    pub phase_ns: [u64; StepPhase::COUNT],
    /// Per-shard time in the fanned-out phases (sharded path only).
    pub shard_busy_ns: Vec<u64>,
    /// Channels opened.
    pub channels: u64,
    /// Channel-target draws skipped by the engines' capability gate.
    pub skipped_draws: u64,
    /// Rumour transmissions.
    pub tx: u64,
    /// Nodes newly informed.
    pub newly_informed: u64,
}

/// A [`RoundProbe`] the driver installs through `set_probe` and reads
/// back with `take_probe` when the broadcast ends. It accumulates the
/// broadcast's phase times and counters and, when `keep_spans` is set,
/// each phase as an interval for [`attach_phases`](Self::attach_phases).
/// The async engine reports phases per event, so there it keeps totals
/// only and reads no clock of its own.
#[derive(Debug, Clone, Default)]
pub struct LogProbe {
    keep_spans: bool,
    phases: Vec<(StepPhase, u64, u64)>,
    totals: ProbeTotals,
}

impl LogProbe {
    /// A fresh probe; `keep_spans` keeps per-phase intervals.
    pub fn new(keep_spans: bool) -> Self {
        LogProbe {
            keep_spans,
            ..LogProbe::default()
        }
    }

    /// Reads the probe back out of an engine's `take_probe`.
    pub fn from_boxed(probe: Option<BoxedProbe>) -> Option<LogProbe> {
        probe?.as_any().downcast_ref::<LogProbe>().cloned()
    }

    /// Totals accumulated over the broadcast.
    pub fn totals(&self) -> &ProbeTotals {
        &self.totals
    }

    /// Records each kept phase as a span under the `within` span that
    /// contains it (the round it ran in), else under `fallback`.
    pub fn attach_phases(&self, tracer: &mut Tracer, within: &[Span], fallback: u64) {
        let mut ix = 0;
        for &(phase, start, end) in &self.phases {
            let mid = start + (end - start) / 2;
            while ix < within.len() && within[ix].end_ns < mid {
                ix += 1;
            }
            let parent = match within.get(ix) {
                Some(w) if w.start_ns <= mid => w.id,
                _ => fallback,
            };
            tracer.record(PHASE_SPANS[phase.index()], parent, start, end);
        }
    }
}

impl RoundProbe for LogProbe {
    fn on_phase(&mut self, phase: StepPhase, elapsed: Duration) {
        let ns = elapsed.as_nanos() as u64;
        self.totals.phase_ns[phase.index()] += ns;
        if self.keep_spans {
            let end = now_ns();
            self.phases.push((phase, end.saturating_sub(ns), end));
        }
    }

    fn on_shard_phase(&mut self, shard: usize, _phase: StepPhase, elapsed: Duration) {
        let busy = &mut self.totals.shard_busy_ns;
        if busy.len() <= shard {
            busy.resize(shard + 1, 0);
        }
        busy[shard] += elapsed.as_nanos() as u64;
    }

    fn on_round(&mut self, c: &RoundCounters) {
        let t = &mut self.totals;
        t.channels += c.channels;
        t.skipped_draws += c.skipped_draws;
        t.tx += c.tx;
        t.newly_informed += c.newly_informed as u64;
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Self time of every span (same order as `spans`): its duration minus
/// the part of its interval that its children cover (children that
/// overlap in time — parallel workers — are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (count, total ns, self ns), sorted by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own;
    }
    out
}

/// Renders the span file: provenance, per-name totals and self times,
/// and every span as `[id, parent, name, start_ns, end_ns]`.
pub fn spans_json(provenance: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 48);
    let _ = write!(out, "{{\"provenance\": {provenance},\n \"layers\": {{");
    for (i, (name, (count, total, own))) in by_name(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n  \"{name}\": {{\"count\": {count}, \"total_s\": {}, \"self_s\": {}}}",
            *total as f64 / 1e9,
            *own as f64 / 1e9
        );
    }
    out.push_str("},\n \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n  [{}, {}, \"{}\", {}, {}]",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            // Overlaps span 2 (a parallel worker): counted once.
            span(3, 1, 30, 60),
            // Sticks out of its parent: clipped.
            span(4, 1, 90, 120),
            span(5, 2, 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 10, 30, 30, 10]);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.begin("a", 0);
        assert_eq!(open.id, 0);
        t.end(open);
        assert_eq!(t.call("b", 0, || 7), 7);
        assert_eq!(t.record("c", 0, 1, 2), 0);
        assert!(t.spans().is_empty());
    }
}
