//! Zero-cost-when-off run telemetry: per-phase wall-clock attribution and
//! per-round counters for all three engines.
//!
//! The paper's analysis (§4, Lemmas 1–3) reasons about *per-round*
//! quantities, and the perf work on the round loop needs to know *where*
//! a round spends its time. A [`RoundProbe`] installed via
//! [`SimState::set_probe`](crate::SimState::set_probe) or
//! [`MultiSimState::set_probe`](crate::MultiSimState::set_probe) receives:
//!
//! * one [`RoundProbe::on_phase`] call per instrumented phase per round,
//!   with that phase's wall-clock duration ([`StepPhase`] names the
//!   phases: fault application, fabric sampling, plan, exchange, update,
//!   coverage/bookkeeping);
//! * one [`RoundProbe::on_round`] call at the end of each round with the
//!   round's [`RoundCounters`] (informed census, transmissions, channels
//!   sampled, draws skipped by the capability gate, generator words the
//!   fabric consumed and how many of them it skipped without drawing,
//!   alive/suspended membership).
//!
//! # The off path is free
//!
//! With no probe installed — the default — the engines take **no**
//! `Instant::now()` calls, make **no** extra RNG draws and allocate
//! nothing: every code path and random stream is byte-identical to an
//! uninstrumented engine (asserted by tests, mirroring the
//! `set_faults(None)` guarantee). Probes are therefore safe to leave
//! compiled into release binaries and enabled only for instrumented runs.
//!
//! [`PhaseTimings`] is the built-in accumulator: per-phase totals, counter
//! totals, and a peak-RSS high-water mark sampled from `/proc` (the E10
//! memory-smoke probe, exposed here as [`peak_rss_kib`]).

use std::time::{Duration, Instant};

use crate::Round;

/// Phases of an engine round distinguished by per-phase attribution.
///
/// Both engines map their internal phases onto this shared vocabulary:
///
/// | variant | single-rumour engine | multi-rumour engine |
/// |---|---|---|
/// | `Faults` | fault-plan events + crash sampling | same |
/// | `Fabric` | channel-target sampling, gated by the plans | same, shared by all rumours, + reverse index |
/// | `Plan` | informed nodes' plan decisions (before `Fabric`) | CSR plan store fill (before `Fabric`) |
/// | `Exchange` | transmission pre-draw + push/pull transmissions | same, per rumour |
/// | `Update` | observation digest / state updates | per-rumour digest |
/// | `Coverage` | coverage bookkeeping | activation + coverage bookkeeping |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepPhase {
    /// Fault-plan advancement and crash-stop sampling.
    Faults,
    /// Channel-fabric sampling (including the reverse index, when built).
    Fabric,
    /// Plan decisions over the informed index list(s).
    Plan,
    /// Transmissions over open channels, after the serial pre-draw of
    /// transmission failures (one per used channel direction).
    Exchange,
    /// Observation digest and protocol state updates.
    Update,
    /// Activation, quiescence and coverage bookkeeping.
    Coverage,
}

impl StepPhase {
    /// Number of distinct phases.
    pub const COUNT: usize = 6;

    /// Every phase. The order of this array defines
    /// [`index`](Self::index), which consumers use as a stable key, so it
    /// stays fixed although both round engines now run `Plan` before
    /// `Fabric`.
    pub const ALL: [StepPhase; StepPhase::COUNT] = [
        StepPhase::Faults,
        StepPhase::Fabric,
        StepPhase::Plan,
        StepPhase::Exchange,
        StepPhase::Update,
        StepPhase::Coverage,
    ];

    /// Dense index in `0..COUNT` (the order of [`ALL`](Self::ALL)).
    pub fn index(self) -> usize {
        match self {
            StepPhase::Faults => 0,
            StepPhase::Fabric => 1,
            StepPhase::Plan => 2,
            StepPhase::Exchange => 3,
            StepPhase::Update => 4,
            StepPhase::Coverage => 5,
        }
    }

    /// Stable lower-case label (used as the artifact JSON key).
    pub fn label(self) -> &'static str {
        match self {
            StepPhase::Faults => "faults",
            StepPhase::Fabric => "fabric",
            StepPhase::Plan => "plan",
            StepPhase::Exchange => "exchange",
            StepPhase::Update => "update",
            StepPhase::Coverage => "coverage",
        }
    }
}

/// The per-round record of all three engines: handed to
/// [`RoundProbe::on_round`], returned by
/// [`SimState::step`](crate::SimState::step) and kept in
/// [`RunReport::history`](crate::RunReport::history).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundCounters {
    /// Round number (1-based; the round that just executed).
    pub round: Round,
    /// Alive, uncrashed informed nodes after the round (summed over all
    /// rumours in the multi-rumour engine).
    pub informed: usize,
    /// Nodes newly informed this round (summed over rumours).
    pub newly_informed: usize,
    /// Push transmissions this round (summed over rumours).
    pub push_tx: u64,
    /// Pull transmissions this round (summed over rumours).
    pub pull_tx: u64,
    /// Total rumour transmissions this round, `push_tx + pull_tx`.
    pub tx: u64,
    /// Channels opened this round (skipped callers' channels included).
    pub channels: u64,
    /// Channel-target draws avoided this round by the capability-gated
    /// push-only sampling skip (channels counted but never sampled).
    pub skipped_draws: u64,
    /// Generator words the channel fabric consumed this round, whether
    /// stepped or jumped (round engines; 0 in the async engine).
    pub fabric_words: u64,
    /// The share of `fabric_words` skipped without being drawn: the words
    /// owed by `Quiet` callers and by the booked callers of a frontier
    /// round, and all the words of a silent round (an oblivious protocol's
    /// round in which nobody transmits, counted instead of sampled),
    /// however `discard` moved the generator past them (stepping or
    /// jumping). It is the same at every shard count.
    pub jumped_words: u64,
    /// Channels whose transmissions were booked from the count instead of
    /// walked: in a frontier round (an oblivious protocol's round in which
    /// every informed node sends the same directions), the channels of
    /// the callers that are complete and have only complete neighbours.
    /// A frontier round with nobody left to inform books every channel.
    /// 0 in the async engine.
    pub booked_channels: u64,
    /// Callers whose channels the fabric sampled and stored this round:
    /// a listed round's listed callers (its pushers, or a frontier round's
    /// open frontier callers), or every stored caller of a round sampled
    /// whole; none in a round counted without lists. It is the same at
    /// every shard count. 0 in the async engine.
    pub listed_callers: u64,
    /// Alive, uncrashed nodes after the round (coverage denominator).
    pub alive: usize,
    /// Nodes currently suspended by a transient outage.
    pub suspended: usize,
}

/// Observer of engine rounds; install with `set_probe`. All methods
/// default to no-ops so implementations opt into what they need.
///
/// Implementations must not allocate per call if the steady-state
/// allocation guarantee matters to the run (the built-in
/// [`PhaseTimings`] uses fixed-size accumulators).
pub trait RoundProbe: std::fmt::Debug {
    /// One instrumented phase of one round took `elapsed` wall-clock time.
    fn on_phase(&mut self, phase: StepPhase, elapsed: Duration) {
        let _ = (phase, elapsed);
    }

    /// A round finished with these counters.
    fn on_round(&mut self, counters: &RoundCounters) {
        let _ = counters;
    }

    /// One shard's slice of a fanned-out phase took `elapsed` wall-clock
    /// time (single-rumour engine only; the multi-rumour and async engines
    /// never call this). Plan, exchange and update report at every shard
    /// count including 1; the fabric reports when it fans out, which it
    /// does on the fast path under `Distinct(k)` with two or more shards.
    /// Shard durations overlap in real time — they attribute *work*, not
    /// critical-path latency; the aggregate [`on_phase`](Self::on_phase)
    /// lap still reports the barrier-to-barrier phase time.
    fn on_shard_phase(&mut self, shard: usize, phase: StepPhase, elapsed: Duration) {
        let _ = (shard, phase, elapsed);
    }

    /// Concrete-type access, so accumulated telemetry can be read back out
    /// of a boxed probe after `take_probe` (implement as `self`).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// The boxed probe type the engines store (Send so instrumented states
/// can cross rayon workers).
pub type BoxedProbe = Box<dyn RoundProbe + Send>;

/// Stopwatch the engines use for phase attribution. Armed only when a
/// probe is installed; unarmed laps are no-ops that never read the clock.
#[derive(Debug, Default)]
pub(crate) struct PhaseClock(Option<Instant>);

impl PhaseClock {
    /// Starts the clock iff `probing`.
    pub(crate) fn armed(probing: bool) -> Self {
        PhaseClock(if probing { Some(Instant::now()) } else { None })
    }

    /// Attributes the time since the last lap (or arming) to `phase` and
    /// restarts. No-op when unarmed or when no probe is installed.
    pub(crate) fn lap(&mut self, probe: &mut Option<BoxedProbe>, phase: StepPhase) {
        if let (Some(start), Some(p)) = (self.0.as_mut(), probe.as_deref_mut()) {
            let now = Instant::now();
            p.on_phase(phase, now.duration_since(*start));
            *start = now;
        }
    }
}

/// Per-shard stopwatch for the single-rumour engine's fanned-out phases.
/// Created *inside* each shard task, so it measures that shard's own
/// work; armed only when a probe is installed (the unarmed path never
/// reads the clock). Lives here so the engine's simulation modules never
/// name `Instant` — the no-wall-clock lint allowlists only telemetry.
#[derive(Debug)]
pub(crate) struct ShardClock(Option<Instant>);

impl ShardClock {
    /// Starts the clock iff `probing`.
    pub(crate) fn armed(probing: bool) -> Self {
        ShardClock(if probing { Some(Instant::now()) } else { None })
    }

    /// Time since arming ([`Duration::ZERO`] when unarmed).
    pub(crate) fn elapsed(&self) -> Duration {
        self.0.map_or(Duration::ZERO, |start| start.elapsed())
    }
}

/// Built-in accumulator probe: per-phase wall-clock totals, per-round
/// counter totals, per-shard phase totals (single-rumour runs), and a
/// peak-RSS high-water mark sampled once per round from
/// `/proc/self/status` (the E10 memory-smoke probe).
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    totals: [Duration; StepPhase::COUNT],
    /// Per-shard phase totals; empty until the first `on_shard_phase`
    /// (multi-rumour and async runs never grow it), then grown to the
    /// shard count once.
    shard_totals: Vec<[Duration; StepPhase::COUNT]>,
    rounds: u32,
    newly_informed: u64,
    tx: u64,
    push_tx: u64,
    pull_tx: u64,
    channels: u64,
    skipped_draws: u64,
    fabric_words: u64,
    jumped_words: u64,
    last: RoundCounters,
    peak_rss_kib: Option<u64>,
}

impl PhaseTimings {
    /// Fresh accumulator.
    pub fn new() -> Self {
        PhaseTimings::default()
    }

    /// Rounds observed.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Total wall-clock attributed to `phase`.
    pub fn total(&self, phase: StepPhase) -> Duration {
        self.totals[phase.index()]
    }

    /// Per-phase totals in milliseconds, ordered as [`StepPhase::ALL`].
    pub fn phase_ms(&self) -> [f64; StepPhase::COUNT] {
        let mut ms = [0.0; StepPhase::COUNT];
        for (slot, d) in ms.iter_mut().zip(&self.totals) {
            *slot = d.as_secs_f64() * 1e3;
        }
        ms
    }

    /// Per-shard per-phase totals in milliseconds (one row per shard,
    /// each ordered as [`StepPhase::ALL`]). Empty for multi-rumour and
    /// async runs; only the fanned-out phases accumulate nonzero entries.
    pub fn shard_phase_ms(&self) -> Vec<[f64; StepPhase::COUNT]> {
        self.shard_totals
            .iter()
            .map(|row| {
                let mut ms = [0.0; StepPhase::COUNT];
                for (slot, d) in ms.iter_mut().zip(row) {
                    *slot = d.as_secs_f64() * 1e3;
                }
                ms
            })
            .collect()
    }

    /// Total transmissions observed across all rounds.
    pub fn tx(&self) -> u64 {
        self.tx
    }

    /// Total push transmissions observed (single-rumour engine runs).
    pub fn push_tx(&self) -> u64 {
        self.push_tx
    }

    /// Total pull transmissions observed (single-rumour engine runs).
    pub fn pull_tx(&self) -> u64 {
        self.pull_tx
    }

    /// Total channels opened across all rounds.
    pub fn channels(&self) -> u64 {
        self.channels
    }

    /// Total channel-target draws skipped by the capability gate.
    pub fn skipped_draws(&self) -> u64 {
        self.skipped_draws
    }

    /// Total generator words the fabric consumed, stepped or jumped.
    pub fn fabric_words(&self) -> u64 {
        self.fabric_words
    }

    /// Total fabric words skipped without being drawn.
    pub fn jumped_words(&self) -> u64 {
        self.jumped_words
    }

    /// Total nodes newly informed across all rounds.
    pub fn newly_informed(&self) -> u64 {
        self.newly_informed
    }

    /// The last round's counter snapshot (end-of-run census).
    pub fn last_round(&self) -> &RoundCounters {
        &self.last
    }

    /// Peak RSS high-water mark observed (kibibytes), if `/proc` is
    /// readable on this platform.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        self.peak_rss_kib
    }
}

impl RoundProbe for PhaseTimings {
    fn on_phase(&mut self, phase: StepPhase, elapsed: Duration) {
        self.totals[phase.index()] += elapsed;
    }

    fn on_shard_phase(&mut self, shard: usize, phase: StepPhase, elapsed: Duration) {
        if self.shard_totals.len() <= shard {
            self.shard_totals.resize(shard + 1, [Duration::ZERO; StepPhase::COUNT]);
        }
        self.shard_totals[shard][phase.index()] += elapsed;
    }

    fn on_round(&mut self, counters: &RoundCounters) {
        self.rounds += 1;
        self.newly_informed += counters.newly_informed as u64;
        self.tx += counters.tx;
        self.push_tx += counters.push_tx;
        self.pull_tx += counters.pull_tx;
        self.channels += counters.channels;
        self.skipped_draws += counters.skipped_draws;
        self.fabric_words += counters.fabric_words;
        self.jumped_words += counters.jumped_words;
        self.last = *counters;
        // VmHWM is monotone, so the latest sample is the running maximum.
        if let Some(kib) = peak_rss_kib() {
            self.peak_rss_kib = Some(kib);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Peak resident-set size (`VmHWM`) of this process in kibibytes, read
/// from `/proc/self/status`. `None` where `/proc` is unavailable.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches(" kB").trim().parse().ok();
        }
    }
    None
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Test probe that records every round's counters.
    #[derive(Debug, Default)]
    pub(crate) struct RecordRounds(pub(crate) Vec<RoundCounters>);

    impl RecordRounds {
        /// The records of a probe taken back from an engine.
        pub(crate) fn of(probe: Option<BoxedProbe>) -> Vec<RoundCounters> {
            let probe = probe.expect("probe still installed");
            probe.as_any().downcast_ref::<RecordRounds>().expect("a RecordRounds probe").0.clone()
        }
    }

    impl RoundProbe for RecordRounds {
        fn on_round(&mut self, counters: &RoundCounters) {
            self.0.push(*counters);
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn phase_indices_are_dense_and_ordered() {
        for (ix, phase) in StepPhase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), ix);
        }
        let labels: Vec<&str> = StepPhase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["faults", "fabric", "plan", "exchange", "update", "coverage"]);
    }

    #[test]
    fn phase_timings_accumulate() {
        let mut t = PhaseTimings::new();
        t.on_phase(StepPhase::Fabric, Duration::from_millis(2));
        t.on_phase(StepPhase::Fabric, Duration::from_millis(3));
        t.on_phase(StepPhase::Update, Duration::from_millis(1));
        assert_eq!(t.total(StepPhase::Fabric), Duration::from_millis(5));
        assert_eq!(t.total(StepPhase::Update), Duration::from_millis(1));
        assert_eq!(t.total(StepPhase::Plan), Duration::ZERO);
        let ms = t.phase_ms();
        assert!((ms[StepPhase::Fabric.index()] - 5.0).abs() < 1e-9);
        t.on_round(&RoundCounters {
            round: 1,
            informed: 7,
            newly_informed: 6,
            tx: 10,
            push_tx: 8,
            pull_tx: 2,
            channels: 12,
            skipped_draws: 4,
            fabric_words: 40,
            jumped_words: 32,
            booked_channels: 8,
            listed_callers: 3,
            alive: 32,
            suspended: 1,
        });
        assert_eq!(t.rounds(), 1);
        assert_eq!(t.tx(), 10);
        assert_eq!(t.channels(), 12);
        assert_eq!(t.skipped_draws(), 4);
        assert_eq!((t.fabric_words(), t.jumped_words()), (40, 32));
        assert_eq!(t.last_round().informed, 7);
    }

    #[test]
    fn unarmed_clock_is_inert() {
        let mut clock = PhaseClock::armed(false);
        let mut probe: Option<BoxedProbe> = Some(Box::new(PhaseTimings::new()));
        clock.lap(&mut probe, StepPhase::Fabric);
        assert!(clock.0.is_none(), "unarmed clock must never start");
        let timings = probe.unwrap();
        let timings =
            timings.as_any().downcast_ref::<PhaseTimings>().expect("concrete access");
        assert_eq!(timings.total(StepPhase::Fabric), Duration::ZERO);
    }

    #[test]
    fn rss_probe_reads_proc_on_linux() {
        if cfg!(target_os = "linux") {
            let kib = peak_rss_kib().expect("VmHWM readable on linux");
            assert!(kib > 0);
        }
    }
}
