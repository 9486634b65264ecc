//! Synchronous simulator for the **random phone call model** of Karp,
//! Schindelhauer, Shenker and Vöcking, extended with the multiple-choice
//! `open` of Berenbrink, Elsässer and Friedetzky (PODC 2008).
//!
//! # The model (paper §1.2 and §3)
//!
//! Time proceeds in synchronous rounds driven by a global clock. In every
//! round **each node opens communication channels** to neighbours chosen
//! uniformly at random — one neighbour in the standard model, four distinct
//! neighbours in the paper's modification, or one neighbour avoiding the
//! last three choices in the sequentialised variant (footnote 2). Channels
//! are bidirectional for the duration of the round:
//!
//! * a **push** transmission travels from the caller to the callee over an
//!   *outgoing* channel;
//! * a **pull** transmission travels from the callee back to the caller over
//!   an *incoming* channel.
//!
//! Nodes decide whether to transmit using only local knowledge (the age of
//! the rumour, their own state) — the *address-oblivious* restriction. The
//! cost measure is the **number of rumour transmissions**; channel opening
//! is free (it amortises over many concurrent rumours, which
//! [`MultiRumorSimulation`] demonstrates).
//!
//! # Engine architecture: the flat-arena round engines
//!
//! Each [`SimState::step`] runs the [`StepPhase`]s in this order over flat
//! buffers reused across rounds (the multi-rumour engine runs the same
//! order):
//!
//! 1. **Faults** — the fault plan's node events, then i.i.d. crash-stop
//!    sampling (one fault phase shared by all three engines).
//! 2. **Plan** — an *informed-node index list* means only informed nodes
//!    are visited (`O(informed)`); everyone else keeps a standing `SILENT`
//!    plan. An [`oblivious`](Capabilities::oblivious) protocol is asked
//!    once per reception round instead and no node is planned: a node's
//!    plan is its reception round's entry. A round is *silent* when no
//!    reception round transmits, and a *frontier* round when every
//!    reception round transmits in the same directions (on the loss-free
//!    fast path under `Distinct(k)` with no partition or burst view).
//! 3. **Fabric** — every alive node opens channels into one CSR channel
//!    fabric, gated per caller by the plans: `Skip` (a push-only
//!    protocol's uninformed caller: counted, never sampled), `Quiet` (the
//!    caller can carry nothing: no channel stored, its draws skipped) or
//!    `Open`. A silent round on the failure-free fast path skips the
//!    sampling and the next two phases: one pass counts the channels and
//!    generator words, and one `discard` jumps the generator past them.
//!    In a round in which nobody pull-serves that pass lists the `Open`
//!    callers with their offsets in the stream, and only they are
//!    sampled: the round is *listed*, with one row of channels per
//!    listed caller. In a frontier round the pass also lists the
//!    *incomplete* slots (dead, blocked, or missing the rumour); if
//!    their stubs number at most `n`, only the open callers among them
//!    or next to them are listed and sampled, and every other caller's
//!    channels are booked: each reaches an informed node and carries
//!    every direction used once, so the engine counts their
//!    transmissions and exchanges only the listed channels. With nobody
//!    left to inform, nothing is listed at all.
//!    These rules, and the serial pre-draw of transmission outcomes (one
//!    per used channel direction), are written once in the engine's
//!    fabric module, behind one entry that both round engines call with
//!    their shard layout. On the fast path under `Distinct(k)` each
//!    shard's callers are sampled in parallel, each from its exact offset
//!    in the one stream; one shard is the same code with one segment.
//! 4. **Exchange** — receipts go into a CSR *observation arena*; a
//!    zero-failure fast path skips every per-call Bernoulli draw (the
//!    stream is identical either way).
//! 5. **Update** — receivers via the arena's touched list, silent informed
//!    nodes via the index list: `O(receipts + informed)`.
//! 6. **Coverage** — the run ledger closes the round: transmission totals,
//!    the coverage instant, and one [`RoundCounters`] for the probe and
//!    the report's history.
//!
//! Fabric, plan, exchange and update fan out over node-slot shards
//! ([`SimConfig::shards`]) with every RNG draw at its position in the
//! main stream, so results are seed-for-seed identical at any shard
//! count; the multi-rumour engine fans out its fabric only. Once
//! warm, a round performs **no heap allocation** (asserted by the
//! `steady_state_rounds_do_not_allocate` test).
//!
//! The **multi-rumour engine** ([`MultiSimState`]) plans every rumour
//! first and then samples one gated channel fabric per round, shared by
//! all rumours; it keeps per-rumour informed index lists
//! (`O(informed·rumours)` passes, not `O(n·rumours)`), a single
//! observation arena, retirement of settled rumours, and
//! once-per-channel-direction transmission-failure draws so combined
//! messages fail atomically (§1.2). Its one-rumour case is seed-for-seed
//! identical to [`SimState`] across all failure models, every round's
//! [`RoundCounters`] included (`tests/parity.rs`), and both engines match
//! a naive reference simulator seed for seed (`tests/oracle.rs`).
//!
//! **Dynamic membership** is first-class: all three engines track
//! aliveness in an incrementally-maintained [`AliveCensus`], so coverage,
//! quiescence and retirement update from `O(1)` counters. The two round
//! engines take a churn step's changes between rounds as one transaction,
//! `apply_membership` with a [`MembershipDelta`]: arrivals on fresh or
//! recycled slots first, each reset to a fresh uninformed peer, then
//! departures, the order the churn step made them in. So peers can
//! churn, the regime §1 of the paper attributes to P2P networks. The
//! async engine runs on static topologies.
//!
//! **Adversarial faults** go beyond the i.i.d. [`FailureModel`]: a
//! [`FaultPlan`] installed via `set_faults` adds correlated (bursty)
//! channel loss driven by per-node Gilbert–Elliott chains, scripted
//! round-keyed events (partitions that heal, targeted crash sets, loss
//! windows), a budget-limited targeting adversary, and transient outages
//! (nodes suspend with state intact — a census mode distinct from
//! crash-stop). The plan's randomness lives on its own reserved stream,
//! so installing `None` (the default) leaves every run byte-identical to
//! the pre-fault engine.
//!
//! **Asynchronous time** is a third engine, [`AsyncSimState`]: a
//! deterministic pending-event heap keyed by `(time_bits, node, tie_seq)`
//! where each node fires exchanges on its own [`ClockSpec`] clock and
//! rumour copies spend a [`LatencySpec`]-drawn time in flight. It shares
//! the census, fault phase, probe and report bookkeeping (fault plans are
//! consumed time-windowed via `round(T) = ceil(T)`), and its uniform
//! fixed-rate zero-latency limit reproduces the round model's push
//! trajectory (`tests/calibration.rs`) — opening heterogeneous node
//! speeds, latency distributions and stragglers as dimensions rounds
//! cannot express.
//!
//! Seed replication parallelism lives one layer up in `rrb-bench`
//! (`registry::run_entry` fans independent seeds over a rayon pool with
//! deterministic per-seed RNG streams, and probes seed 0 with
//! [`PhaseTimings`] for the per-rung run records `rrb run eN --out DIR`
//! writes).
//!
//! # Quick start
//!
//! ```
//! use rand::{SeedableRng, rngs::SmallRng};
//! use rrb_engine::{protocols::FloodPush, SimConfig, Simulation};
//! use rrb_graph::{gen, NodeId};
//!
//! let mut rng = SmallRng::seed_from_u64(3);
//! let g = gen::random_regular(256, 8, &mut rng)?;
//! let sim = Simulation::new(&g, FloodPush::new(), SimConfig::default());
//! let report = sim.run(NodeId::new(0), &mut rng);
//! assert!(report.all_informed());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod async_engine;
mod census;
mod choice;
mod clock;
mod fabric;
mod failure;
mod ledger;
mod multi;
mod observation;
mod protocol;
mod report;
mod shard;
mod simulation;
mod topology;

pub mod protocols;
pub mod telemetry;
pub mod trace;

pub use async_engine::AsyncSimState;
pub use census::AliveCensus;
pub use choice::{ChoicePolicy, ChoiceState};
pub use clock::{ClockSpec, LatencySpec};
pub use failure::{
    AdversarySpec, AdversaryTarget, FailureModel, FaultEvent, FaultPlan, FaultState,
    GilbertElliott, OutageSpec,
};
pub use ledger::MembershipDelta;
pub use multi::{
    MultiRumorReport, MultiRumorSimulation, MultiSimState, RumorInjection, RumorOutcome,
};
pub use observation::{Observation, RumorMeta};
pub use protocol::{Capabilities, NodeView, Plan, Protocol, Round};
pub use report::{RunReport, StopReason};
pub use shard::ShardLayout;
pub use simulation::{SimConfig, SimState, Simulation};
pub use telemetry::{BoxedProbe, PhaseTimings, RoundCounters, RoundProbe, StepPhase};
pub use topology::Topology;
