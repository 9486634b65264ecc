//! Declarative scenario layer: the paper's whole experiment space — graph
//! family × protocol × failure/fault model × membership dynamics × stop
//! rule × measurement — as plain **data**.
//!
//! A [`ScenarioSpec`] is one point of that space. It compiles to concrete
//! machinery on demand ([`GraphSpec::build`] → a `rrb_graph::Graph`,
//! [`ProtocolSpec::build`] → an [`AnyProtocol`] implementing
//! `rrb_engine::Protocol`, [`ScenarioSpec::sim_config`] → a `SimConfig`)
//! and (de)serialises to the same hand-rolled JSON dialect the
//! [`BenchRecorder`](crate::BenchRecorder) uses, so a scenario can live in
//! a file and run via `rrb run --spec file.json` — no new binary required.
//!
//! The experiment registry ([`crate::registry`]) expresses the E1–E21
//! config ladders as `ScenarioSpec` values.

use rand::Rng;

use rrb_baselines::{Budgeted, GossipMode, MedianCounter, PushThenPull, QuasirandomPush};
use rrb_core::{FourChoice, Phase, PhaseSchedule, SequentialFourChoice};
use rrb_engine::protocols::{FloodPull, FloodPush, FloodPushPull, SilentProtocol};
use rrb_engine::{
    AdversarySpec, AdversaryTarget, Capabilities, ChoicePolicy, ClockSpec, FailureModel,
    FaultEvent, FaultPlan, GilbertElliott, LatencySpec, NodeView, Observation, OutageSpec, Plan,
    Protocol, Round, RumorMeta, SimConfig,
};
use rrb_graph::{gen, Graph};
use rrb_p2p::ChurnProcess;

// ---------------------------------------------------------------------------
// Spec types
// ---------------------------------------------------------------------------

/// Channel-opening policy as data (compiles to [`ChoicePolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// `k` distinct stubs per round (`Distinct(k)`); the paper uses 4.
    Distinct(usize),
    /// One stub per round avoiding the last `window` choices (footnote 2).
    Memory(usize),
    /// Quasirandom cyclic neighbour lists \[9\].
    Cyclic,
}

impl PolicySpec {
    /// The standard single-choice phone call model.
    pub const STANDARD: PolicySpec = PolicySpec::Distinct(1);

    /// Compiles to the engine's [`ChoicePolicy`].
    pub fn to_policy(self) -> ChoicePolicy {
        match self {
            PolicySpec::Distinct(k) => ChoicePolicy::Distinct(k),
            PolicySpec::Memory(window) => ChoicePolicy::SequentialMemory { window },
            PolicySpec::Cyclic => ChoicePolicy::Cyclic,
        }
    }
}

/// Degree-regime selection for the four-choice schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegimeSpec {
    /// Pick Algorithm 1 or 2 from `(n̂, d)` (the paper's threshold).
    Auto,
    /// Force Algorithm 1 (four phases, small-degree analysis).
    Small,
    /// Force Algorithm 2 (long pull phase, large-degree analysis).
    Large,
}

impl RegimeSpec {
    fn to_regime(self) -> rrb_core::DegreeRegime {
        match self {
            RegimeSpec::Auto => rrb_core::DegreeRegime::default(),
            RegimeSpec::Small => rrb_core::DegreeRegime::ForceSmall,
            RegimeSpec::Large => rrb_core::DegreeRegime::ForceLarge,
        }
    }
}

/// Transmission direction(s) of a budgeted flood, as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GossipModeSpec {
    /// Callers send to callees.
    Push,
    /// Callees answer callers.
    Pull,
    /// Both directions (Karp et al.).
    PushPull,
}

impl GossipModeSpec {
    fn to_mode(self) -> GossipMode {
        match self {
            GossipModeSpec::Push => GossipMode::Push,
            GossipModeSpec::Pull => GossipMode::Pull,
            GossipModeSpec::PushPull => GossipMode::PushPull,
        }
    }
}

/// Topology family and parameters; compiles to a graph via
/// `rrb_graph::gen`.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// Simple random `d`-regular graph (configuration model + repair).
    RandomRegular {
        /// Node count.
        n: usize,
        /// Degree.
        d: usize,
    },
    /// Raw configuration-model multigraph (self-loops/parallel edges kept).
    ConfigurationModel {
        /// Node count.
        n: usize,
        /// Degree.
        d: usize,
    },
    /// Erdős–Rényi `G(n,p)` with `p = expected_degree / (n-1)`.
    Gnp {
        /// Node count.
        n: usize,
        /// Expected degree `p·(n-1)`.
        expected_degree: f64,
    },
    /// Complete graph `K_n`.
    Complete {
        /// Node count.
        n: usize,
    },
    /// Hypercube of the given dimension (`n = 2^dim`).
    Hypercube {
        /// Dimension.
        dim: u32,
    },
    /// 2-D torus grid.
    Torus {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
    },
    /// Cycle `C_n`.
    Cycle {
        /// Node count.
        n: usize,
    },
    /// Cartesian product of a random `base_d`-regular graph with a clique
    /// `K_clique` — the §5 counterexample (`G □ K5`).
    ProductK {
        /// Nodes of the random regular base graph.
        base_n: usize,
        /// Degree of the base graph.
        base_d: usize,
        /// Clique size (5 in the paper's example).
        clique: usize,
    },
    /// Preferential-attachment graph with `m` edges per arriving node.
    PreferentialAttachment {
        /// Node count.
        n: usize,
        /// Attachment parameter.
        m: usize,
    },
}

impl GraphSpec {
    /// Number of node slots the topology will have.
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `usize` — parsed specs are rejected
    /// before that by [`ScenarioSpec::check_runnable`].
    pub fn node_count(&self) -> usize {
        self.checked_node_count()
            .unwrap_or_else(|| panic!("{} has more node slots than fit in usize", self.label()))
    }

    /// [`Self::node_count`], or `None` when it overflows `usize`.
    pub fn checked_node_count(&self) -> Option<usize> {
        match *self {
            GraphSpec::RandomRegular { n, .. }
            | GraphSpec::ConfigurationModel { n, .. }
            | GraphSpec::Gnp { n, .. }
            | GraphSpec::Complete { n }
            | GraphSpec::Cycle { n }
            | GraphSpec::PreferentialAttachment { n, .. } => Some(n),
            GraphSpec::Hypercube { dim } => 1usize.checked_shl(dim),
            GraphSpec::Torus { rows, cols } => rows.checked_mul(cols),
            GraphSpec::ProductK { base_n, clique, .. } => base_n.checked_mul(clique),
        }
    }

    /// Builds the topology (random families consume `rng`).
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Graph, String> {
        match *self {
            GraphSpec::RandomRegular { n, d } => {
                gen::random_regular(n, d, rng).map_err(|e| e.to_string())
            }
            GraphSpec::ConfigurationModel { n, d } => {
                gen::configuration_model(n, d, rng).map_err(|e| e.to_string())
            }
            GraphSpec::Gnp { n, expected_degree } => {
                let p = expected_degree / (n.max(2) as f64 - 1.0);
                gen::gnp(n, p, rng).map_err(|e| e.to_string())
            }
            GraphSpec::Complete { n } => Ok(gen::complete(n)),
            GraphSpec::Hypercube { dim } => Ok(gen::hypercube(dim)),
            GraphSpec::Torus { rows, cols } => Ok(gen::torus(rows, cols)),
            GraphSpec::Cycle { n } => Ok(gen::cycle(n)),
            GraphSpec::ProductK { base_n, base_d, clique } => {
                let base = gen::random_regular(base_n, base_d, rng).map_err(|e| e.to_string())?;
                Ok(gen::cartesian_product(&base, &gen::complete(clique)))
            }
            GraphSpec::PreferentialAttachment { n, m } => {
                gen::preferential_attachment(n, m, rng).map_err(|e| e.to_string())
            }
        }
    }

    /// The natural per-node degree of this family — the target degree the
    /// churn overlay's joins aim for when the scenario runs under
    /// [`DynamicsSpec::Churn`].
    pub fn target_degree(&self) -> usize {
        match *self {
            GraphSpec::RandomRegular { d, .. } | GraphSpec::ConfigurationModel { d, .. } => d,
            GraphSpec::Gnp { expected_degree, .. } => (expected_degree.round() as usize).max(1),
            GraphSpec::Complete { n } => n.saturating_sub(1).max(1),
            GraphSpec::Hypercube { dim } => (dim as usize).max(1),
            GraphSpec::Torus { .. } => 4,
            GraphSpec::Cycle { .. } => 2,
            GraphSpec::ProductK { base_d, clique, .. } => base_d + clique.saturating_sub(1),
            GraphSpec::PreferentialAttachment { m, .. } => (2 * m).max(1),
        }
    }

    /// Short human-readable description (table rows, listings).
    pub fn label(&self) -> String {
        match *self {
            GraphSpec::RandomRegular { n, d } => format!("G(n={n}, d={d})"),
            GraphSpec::ConfigurationModel { n, d } => format!("CM(n={n}, d={d})"),
            GraphSpec::Gnp { n, expected_degree } => {
                format!("Gnp(n={n}, E[deg]={expected_degree:.1})")
            }
            GraphSpec::Complete { n } => format!("K{n}"),
            GraphSpec::Hypercube { dim } => format!("Q{dim}"),
            GraphSpec::Torus { rows, cols } => format!("torus({rows}x{cols})"),
            GraphSpec::Cycle { n } => format!("C{n}"),
            GraphSpec::ProductK { base_n, base_d, clique } => {
                format!("G({base_n},{base_d}) x K{clique}")
            }
            GraphSpec::PreferentialAttachment { n, m } => format!("PA(n={n}, m={m})"),
        }
    }
}

/// Protocol family and parameters; compiles to an [`AnyProtocol`] via
/// [`ProtocolSpec::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolSpec {
    /// The paper's four-choice algorithm (Algorithms 1/2).
    FourChoice {
        /// Size estimate n̂ the schedule is computed from.
        n_estimate: usize,
        /// Degree (drives the regime split).
        degree: usize,
        /// Schedule constant α.
        alpha: f64,
        /// Distinct choices per round (4 in the paper; E6 ablates).
        choices: usize,
        /// Degree-regime selection.
        regime: RegimeSpec,
    },
    /// Sequentialised four-choice (footnote 2; 4 steps ≙ 1 parallel step).
    SequentialFourChoice {
        /// Size estimate.
        n_estimate: usize,
        /// Degree.
        degree: usize,
    },
    /// Age-budgeted flood in the standard model (`max_age = ⌈c·log2 n⌉`).
    Budgeted {
        /// Transmission direction(s).
        mode: GossipModeSpec,
        /// Network size the budget is computed from.
        n: usize,
        /// Budget multiplier `c`.
        budget: f64,
        /// Channel policy (the classics use the standard model).
        policy: PolicySpec,
    },
    /// Push-then-pull baseline with birth-age switching.
    PushThenPull {
        /// Network size the schedule is computed from.
        n: usize,
    },
    /// Karp et al.'s median-counter rule \[25\].
    MedianCounter {
        /// Network size the default thresholds are computed from.
        n: usize,
        /// Override: counter saturation threshold.
        ctr_max: Option<u32>,
        /// Override: length of the C tail.
        c_rounds: Option<u32>,
        /// Override: deterministic age failsafe.
        age_cutoff: Option<u32>,
    },
    /// Quasirandom push \[9\] (cyclic lists, random offsets).
    Quasirandom {
        /// Optional age budget (`None` = unbounded).
        max_age: Option<u32>,
    },
    /// Unbounded push flooding.
    FloodPush {
        /// Channel policy.
        policy: PolicySpec,
    },
    /// Unbounded pull flooding.
    FloodPull {
        /// Channel policy.
        policy: PolicySpec,
    },
    /// Unbounded push&pull flooding.
    FloodPushPull {
        /// Channel policy.
        policy: PolicySpec,
    },
    /// Never transmits (null baseline).
    Silent,
    /// E18's phase-design ablation of Algorithm 1.
    Ablated {
        /// Size estimate the schedule is computed from.
        n_estimate: usize,
        /// Degree.
        degree: usize,
        /// Schedule constant α.
        alpha: f64,
        /// Phase 1 pushes every round instead of once.
        phase1_always_push: bool,
        /// Phases 3–4 replaced by more pushing.
        no_pull: bool,
    },
}

impl ProtocolSpec {
    /// Compiles the spec into a runnable protocol (the enum-dispatch glue
    /// the single `rrb` runner is built on).
    pub fn build(&self) -> AnyProtocol {
        match *self {
            ProtocolSpec::FourChoice { n_estimate, degree, alpha, choices, regime } => {
                AnyProtocol::FourChoice(
                    FourChoice::builder(n_estimate, degree)
                        .alpha(alpha)
                        .choice_policy(ChoicePolicy::Distinct(choices))
                        .regime(regime.to_regime())
                        .build(),
                )
            }
            ProtocolSpec::SequentialFourChoice { n_estimate, degree } => {
                AnyProtocol::SequentialFourChoice(SequentialFourChoice::for_graph(
                    n_estimate, degree,
                ))
            }
            ProtocolSpec::Budgeted { mode, n, budget, policy } => AnyProtocol::Budgeted(
                Budgeted::for_size(mode.to_mode(), n, budget).with_policy(policy.to_policy()),
            ),
            ProtocolSpec::PushThenPull { n } => {
                AnyProtocol::PushThenPull(PushThenPull::for_size(n))
            }
            ProtocolSpec::MedianCounter { n, ctr_max, c_rounds, age_cutoff } => {
                let base = MedianCounter::for_size(n);
                AnyProtocol::MedianCounter(MedianCounter::new(
                    ctr_max.unwrap_or_else(|| base.ctr_max()),
                    c_rounds.unwrap_or_else(|| base.c_rounds()),
                    age_cutoff.unwrap_or_else(|| base.age_cutoff()),
                ))
            }
            ProtocolSpec::Quasirandom { max_age } => AnyProtocol::Quasirandom(match max_age {
                Some(a) => QuasirandomPush::with_budget(a),
                None => QuasirandomPush::unbounded(),
            }),
            ProtocolSpec::FloodPush { policy } => {
                AnyProtocol::FloodPush(FloodPush::with_policy(policy.to_policy()))
            }
            ProtocolSpec::FloodPull { policy } => {
                AnyProtocol::FloodPull(FloodPull::with_policy(policy.to_policy()))
            }
            ProtocolSpec::FloodPushPull { policy } => {
                AnyProtocol::FloodPushPull(FloodPushPull::with_policy(policy.to_policy()))
            }
            ProtocolSpec::Silent => AnyProtocol::Silent(SilentProtocol),
            ProtocolSpec::Ablated { n_estimate, degree, alpha, phase1_always_push, no_pull } => {
                let reference = FourChoice::builder(n_estimate, degree)
                    .alpha(alpha)
                    .force_small_degree()
                    .build();
                AnyProtocol::Ablated(AblatedFourChoice {
                    schedule: *reference.schedule(),
                    phase1_always_push,
                    no_pull,
                })
            }
        }
    }

    /// Short human-readable description.
    pub fn label(&self) -> String {
        match *self {
            ProtocolSpec::FourChoice { choices, alpha, .. } => {
                format!("{choices}-choice(a={alpha})")
            }
            ProtocolSpec::SequentialFourChoice { .. } => "sequential-4-choice".into(),
            ProtocolSpec::Budgeted { mode, budget, .. } => {
                let m = match mode {
                    GossipModeSpec::Push => "push",
                    GossipModeSpec::Pull => "pull",
                    GossipModeSpec::PushPull => "push-pull",
                };
                format!("{m}(c={budget})")
            }
            ProtocolSpec::PushThenPull { .. } => "push-then-pull".into(),
            ProtocolSpec::MedianCounter { .. } => "median-counter".into(),
            ProtocolSpec::Quasirandom { .. } => "quasirandom".into(),
            ProtocolSpec::FloodPush { .. } => "flood-push".into(),
            ProtocolSpec::FloodPull { .. } => "flood-pull".into(),
            ProtocolSpec::FloodPushPull { .. } => "flood-push-pull".into(),
            ProtocolSpec::Silent => "silent".into(),
            ProtocolSpec::Ablated { phase1_always_push, no_pull, .. } => {
                format!("ablated(p1-always={phase1_always_push}, no-pull={no_pull})")
            }
        }
    }
}

/// Failure injection rates (compiles to [`FailureModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FailureSpec {
    /// Per-channel establishment failure probability.
    pub channel: f64,
    /// Per-transmission loss probability (counted but undelivered).
    pub transmission: f64,
    /// Per-node-per-round crash-stop probability.
    pub crash: f64,
}

impl FailureSpec {
    /// No failures.
    pub const NONE: FailureSpec = FailureSpec { channel: 0.0, transmission: 0.0, crash: 0.0 };

    /// Compiles to the engine's [`FailureModel`]. Every rate goes through
    /// the model's validating builders, so an out-of-range spec value hits
    /// the `[0, 1)` assertion instead of bypassing it
    /// ([`ScenarioSpec::check_runnable`] rejects such specs with a named
    /// field before this can fire).
    pub fn to_model(self) -> FailureModel {
        let mut m = FailureModel::NONE;
        if self.channel > 0.0 {
            m = m.with_channels(self.channel);
        }
        if self.transmission > 0.0 {
            m = m.with_transmissions(self.transmission);
        }
        if self.crash > 0.0 {
            m = m.with_crashes(self.crash);
        }
        m
    }

    /// `true` if all rates are zero.
    pub fn is_none(&self) -> bool {
        self.channel == 0.0 && self.transmission == 0.0 && self.crash == 0.0
    }
}

/// The full failure dimension of a scenario: baseline i.i.d. rates
/// ([`FailureSpec`]) plus the engine's adversarial [`FaultPlan`]
/// dimensions — correlated burst loss, scripted round-keyed events, a
/// budget-limited targeting adversary, and transient outages.
///
/// `From<FailureSpec>` keeps plain-rate call sites working unchanged, and
/// a spec with only rates serialises byte-identically to the pre-fault
/// `"failures"` JSON object (the plan keys appear only when present).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Baseline i.i.d. failure rates.
    pub rates: FailureSpec,
    /// Correlated/bursty channel loss (Gilbert–Elliott chains).
    pub burst: Option<GilbertElliott>,
    /// Deterministic round-keyed events (partitions that heal, targeted
    /// crash sets, loss windows).
    pub schedule: Vec<FaultEvent>,
    /// Budget-limited targeted crashes.
    pub adversary: Option<AdversarySpec>,
    /// Transient node outages (suspension with state intact).
    pub outages: Option<OutageSpec>,
}

impl FaultSpec {
    /// No failures and no fault plan.
    pub const NONE: FaultSpec = FaultSpec {
        rates: FailureSpec::NONE,
        burst: None,
        schedule: Vec::new(),
        adversary: None,
        outages: None,
    };

    /// Compiles the baseline rates to the engine's [`FailureModel`] (the
    /// plan dimensions compile separately via [`Self::to_plan`]).
    pub fn to_model(&self) -> FailureModel {
        self.rates.to_model()
    }

    /// Compiles the plan dimensions to the engine's [`FaultPlan`].
    pub fn to_plan(&self) -> FaultPlan {
        FaultPlan {
            burst: self.burst,
            schedule: self.schedule.clone(),
            adversary: self.adversary,
            outages: self.outages,
        }
    }

    /// `true` when no fault-plan dimension is present — the scenario is a
    /// plain i.i.d.-rates run and needs no `rrb_engine::FaultState`
    /// installed.
    pub fn is_plain(&self) -> bool {
        self.burst.is_none()
            && self.schedule.is_empty()
            && self.adversary.is_none()
            && self.outages.is_none()
    }

    /// `true` when nothing fails at all.
    pub fn is_none(&self) -> bool {
        self.rates.is_none() && self.is_plain()
    }

    /// The round after the last scripted partition heals (the reference
    /// point for the `recovery_rounds` degradation metric), if the
    /// schedule contains one.
    pub fn heal_round(&self) -> Option<Round> {
        self.schedule
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Partition { until, .. } => Some(*until),
                _ => None,
            })
            .max()
    }

    /// Compact human-readable description of every active dimension, for
    /// `rrb describe` listings (`"none"` when nothing fails).
    pub fn summary(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        let r = &self.rates;
        if !r.is_none() {
            let mut iid = Vec::new();
            if r.channel > 0.0 {
                iid.push(format!("ch={}", r.channel));
            }
            if r.transmission > 0.0 {
                iid.push(format!("tx={}", r.transmission));
            }
            if r.crash > 0.0 {
                iid.push(format!("crash={}", r.crash));
            }
            parts.push(format!("iid({})", iid.join(", ")));
        }
        if let Some(g) = &self.burst {
            parts.push(format!("burst(GE loss {}/{})", g.loss_good, g.loss_bad));
        }
        for e in &self.schedule {
            parts.push(match e {
                FaultEvent::Partition { from, until, parts: k } => {
                    format!("partition(x{k} [{from},{until}))")
                }
                FaultEvent::CrashNodes { at, nodes } => {
                    format!("crash({} nodes @{at})", nodes.len())
                }
                FaultEvent::LossWindow { from, until, .. } => {
                    format!("loss-window([{from},{until}))")
                }
            });
        }
        if let Some(a) = &self.adversary {
            let t = match a.target {
                AdversaryTarget::HighestDegree => "hubs",
                AdversaryTarget::EarliestInformed => "earliest-informed",
            };
            parts.push(format!("adversary({t}, {}/round, budget {})", a.per_round, a.budget));
        }
        if let Some(o) = &self.outages {
            parts.push(format!("outages(rate {}, {}-{} rounds)", o.rate, o.min_down, o.max_down));
        }
        if parts.is_empty() {
            "none".into()
        } else {
            parts.join(" + ")
        }
    }
}

impl From<FailureSpec> for FaultSpec {
    fn from(rates: FailureSpec) -> Self {
        FaultSpec { rates, ..FaultSpec::NONE }
    }
}

/// Stochastic membership churn as declarative scenario data (compiles to a
/// [`ChurnProcess`] plus a per-round flip-rewiring budget).
///
/// Rates are *expected events per round*; fractional rates accumulate
/// across rounds (`leaves_per_round = 0.25` departs one node every four
/// rounds on average). The runner interleaves one churn step and
/// `rewire_per_round` degree-preserving 2-switches after every engine
/// round, then feeds the resulting join/leave node lists to the engine's
/// alive census.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSpec {
    /// Expected joins per round.
    pub joins_per_round: f64,
    /// Expected leaves per round.
    pub leaves_per_round: f64,
    /// Floor on the alive population; `None` defaults to half the
    /// topology's initial size.
    pub min_alive: Option<usize>,
    /// Degree-preserving 2-switches applied per round (the flip-chain
    /// remixing of Mahlmann–Schindelhauer \[29\]).
    pub rewire_per_round: usize,
}

impl ChurnSpec {
    /// Symmetric join/leave churn with a rewiring budget of twice the
    /// (ceiled) rate — the E10 shape.
    pub fn symmetric(rate_per_round: f64) -> Self {
        ChurnSpec {
            joins_per_round: rate_per_round,
            leaves_per_round: rate_per_round,
            min_alive: None,
            rewire_per_round: (rate_per_round.ceil() as usize) * 2,
        }
    }

    /// Compiles to the runtime churn driver for a topology of initial size
    /// `n` (resolving the `min_alive` default).
    pub fn to_process(&self, n: usize) -> ChurnProcess {
        ChurnProcess::new(
            self.joins_per_round,
            self.leaves_per_round,
            self.min_alive.unwrap_or(n / 2),
        )
    }
}

/// How the topology's membership behaves while the scenario runs — the
/// dynamics dimension of the scenario space. `Static` is the default (and
/// serialises to nothing, so existing spec files are untouched).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DynamicsSpec {
    /// Membership never changes (crash-stop failures, if any, are part of
    /// [`FailureSpec`], not dynamics).
    #[default]
    Static,
    /// Peers join and leave during the run per the churn process.
    Churn(ChurnSpec),
}

impl DynamicsSpec {
    /// `true` when membership never changes.
    pub fn is_static(&self) -> bool {
        matches!(self, DynamicsSpec::Static)
    }
}

/// When nodes act — the timing dimension of the scenario space. `Sync`
/// is the default round-synchronous barrier (and serialises to nothing,
/// so existing spec files and spec hashes are untouched); `Async` runs
/// the deterministic event-queue engine with per-node clocks and
/// per-copy in-flight latency.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TimingSpec {
    /// All nodes exchange in lockstep rounds (both round engines).
    #[default]
    Sync,
    /// Each node fires on its own clock; copies take latency-drawn time
    /// in flight ([`AsyncSimState`](rrb_engine::AsyncSimState)).
    Async {
        /// Per-node inter-fire model.
        clock: ClockSpec,
        /// Per-copy in-flight time model.
        latency: LatencySpec,
    },
}

impl TimingSpec {
    /// `true` for the round-synchronous default.
    pub fn is_sync(&self) -> bool {
        matches!(self, TimingSpec::Sync)
    }

    /// One-line human summary for `rrb describe`.
    pub fn summary(&self) -> String {
        match self {
            TimingSpec::Sync => "sync (round barrier)".into(),
            TimingSpec::Async { clock, latency } => {
                let clock = match clock {
                    ClockSpec::Fixed { interval } => format!("fixed interval {interval}"),
                    ClockSpec::Exponential { rate } => format!("poisson rate {rate}"),
                    ClockSpec::Stragglers { rate, slow_fraction, slow_factor } => format!(
                        "poisson rate {rate} with {:.0}% stragglers at 1/{slow_factor} speed",
                        slow_fraction * 100.0
                    ),
                };
                let latency = match latency {
                    LatencySpec::Zero => "zero latency".into(),
                    LatencySpec::Fixed { delay } => format!("fixed latency {delay}"),
                    LatencySpec::Uniform { min, max } => format!("latency U[{min}, {max}]"),
                    LatencySpec::Exponential { mean } => format!("exp latency mean {mean}"),
                };
                format!("async ({clock}; {latency})")
            }
        }
    }
}

/// Stop condition (compiles into [`SimConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopSpec {
    /// Stop as soon as every alive node is informed (or at the cap).
    Coverage {
        /// Hard round cap.
        max_rounds: u32,
    },
    /// Run the protocol to quiescence (full message bill) or the cap.
    Quiescent {
        /// Hard round cap.
        max_rounds: u32,
    },
}

impl StopSpec {
    /// Coverage stop with the engine's default cap.
    pub const COVERAGE: StopSpec = StopSpec::Coverage { max_rounds: 10_000 };
    /// Quiescence stop with the engine's default cap.
    pub const QUIESCENT: StopSpec = StopSpec::Quiescent { max_rounds: 10_000 };
}

/// What to record for each run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasureSpec {
    /// Standard end-of-run metrics (rounds, transmissions, coverage).
    Standard,
    /// Standard metrics plus the per-round history trace.
    Trace,
    /// Per-round history reduced to the paper's phase milestones —
    /// informed after Phase 1, uninformed after Phase 2, growth/decay
    /// factors (Cor. 1, Lemmas 1–3). Driven by
    /// [`measure::phase_milestones`](crate::measure::phase_milestones).
    PhaseMilestones,
    /// Per-round history reduced to the push/pull crossover split: rounds
    /// from the origin to n/2 informed, and from n/2 to full coverage.
    /// Driven by [`measure::crossover_trace`](crate::measure::crossover_trace).
    Crossover,
    /// Standard metrics plus the graceful-degradation derivations the
    /// runner computes for faulted scenarios: residual survivor coverage,
    /// and `recovery_rounds` (rounds from the last scripted heal to full
    /// coverage) when the fault plan schedules a partition.
    Degradation,
    /// No broadcast at all: audit the generated topology's spectral
    /// expansion instead — second adjacency eigenvalue vs the Ramanujan
    /// bound, plus an expander-mixing-lemma deviation sample. Driven by
    /// [`measure::spectral_audit`](crate::measure::spectral_audit).
    SpectralAudit,
    /// Experiment-specific measurement implemented in the registry (named
    /// for documentation; the generic runner treats it like `Standard`).
    Custom(String),
}

/// One fully-specified scenario: everything the runner needs, as data.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Configuration label (table rows, recorder entries).
    pub label: String,
    /// Topology.
    pub graph: GraphSpec,
    /// Protocol.
    pub protocol: ProtocolSpec,
    /// Failure injection: baseline i.i.d. rates plus the optional
    /// adversarial fault plan.
    pub failures: FaultSpec,
    /// Membership dynamics (churn); static by default.
    pub dynamics: DynamicsSpec,
    /// Timing model (round-synchronous or event-queue asynchronous);
    /// sync by default.
    pub timing: TimingSpec,
    /// Stop condition.
    pub stop: StopSpec,
    /// Measurement mode.
    pub measure: MeasureSpec,
}

impl ScenarioSpec {
    /// Convenience constructor with no failures, quiescence stop and
    /// standard measurement — the most common shape in the registry.
    pub fn new(label: impl Into<String>, graph: GraphSpec, protocol: ProtocolSpec) -> Self {
        ScenarioSpec {
            label: label.into(),
            graph,
            protocol,
            failures: FaultSpec::NONE,
            dynamics: DynamicsSpec::Static,
            timing: TimingSpec::Sync,
            stop: StopSpec::QUIESCENT,
            measure: MeasureSpec::Standard,
        }
    }

    /// Builder-style: set the failure dimension — plain [`FailureSpec`]
    /// rates or a full [`FaultSpec`] plan.
    pub fn with_failures(mut self, failures: impl Into<FaultSpec>) -> Self {
        self.failures = failures.into();
        self
    }

    /// Builder-style: set the membership dynamics.
    pub fn with_dynamics(mut self, dynamics: DynamicsSpec) -> Self {
        self.dynamics = dynamics;
        self
    }

    /// Builder-style: set the timing model.
    pub fn with_timing(mut self, timing: TimingSpec) -> Self {
        self.timing = timing;
        self
    }

    /// Builder-style: set the stop condition.
    pub fn with_stop(mut self, stop: StopSpec) -> Self {
        self.stop = stop;
        self
    }

    /// Builder-style: set the measurement mode.
    pub fn with_measure(mut self, measure: MeasureSpec) -> Self {
        self.measure = measure;
        self
    }

    /// Rejects a spec no engine can run, with a message naming why: a
    /// topology whose node count is 0, overflows, or exceeds the `u32`
    /// node-id space; a baseline failure rate outside `[0, 1)`; a
    /// four-choice-family protocol whose schedule constructor would
    /// assert (`n_estimate < 2`, `alpha` not finite and positive) or that
    /// opens no channel (`choices: 0`); and churn dynamics combined with a
    /// fault plan or with async timing (churn runs only on the round
    /// engine, without a fault plan). [`Self::from_json`] applies it to
    /// every parsed spec and [`crate::registry::run_entry`] to every spec
    /// it runs.
    pub fn check_runnable(&self) -> Result<(), String> {
        let graph = self.graph.label();
        let n = self
            .graph
            .checked_node_count()
            .ok_or_else(|| format!("{graph}: the node count overflows"))?;
        if n == 0 || n > u32::MAX as usize {
            return Err(format!("{graph}: node count {n} is outside 1..={}", u32::MAX));
        }
        let FailureSpec { channel, transmission, crash } = self.failures.rates;
        for (name, p) in [("channel", channel), ("transmission", transmission), ("crash", crash)] {
            if !(0.0..1.0).contains(&p) {
                return Err(format!("\"{name}\" must be a probability in [0, 1)"));
            }
        }
        // The four-choice family builds a `PhaseSchedule`, whose constructor
        // asserts `n_estimate >= 2` and `alpha > 0`.
        match self.protocol {
            ProtocolSpec::FourChoice { choices: 0, .. } => {
                return Err("four_choice \"choices\" must be at least 1".into());
            }
            ProtocolSpec::FourChoice { alpha, .. } | ProtocolSpec::Ablated { alpha, .. }
                if !(alpha.is_finite() && alpha > 0.0) =>
            {
                return Err(format!("\"alpha\" must be finite and positive, got {alpha}"));
            }
            ProtocolSpec::FourChoice { n_estimate, .. }
            | ProtocolSpec::SequentialFourChoice { n_estimate, .. }
            | ProtocolSpec::Ablated { n_estimate, .. }
                if n_estimate < 2 =>
            {
                return Err(format!("\"n_estimate\" must be at least 2, got {n_estimate}"));
            }
            _ => {}
        }
        if let DynamicsSpec::Churn(_) = self.dynamics {
            if !self.failures.is_plain() {
                return Err("churn dynamics cannot be combined with a fault plan \
                            (burst, schedule, adversary or outages)"
                    .into());
            }
            if !self.timing.is_sync() {
                return Err("churn dynamics need sync timing: the async engine takes no \
                            membership changes"
                    .into());
            }
        }
        Ok(())
    }

    /// Compiles stop + failures + measurement into the engine config.
    pub fn sim_config(&self) -> SimConfig {
        let mut config = match self.stop {
            StopSpec::Coverage { max_rounds } => SimConfig::default().with_max_rounds(max_rounds),
            StopSpec::Quiescent { max_rounds } => {
                SimConfig::until_quiescent().with_max_rounds(max_rounds)
            }
        };
        config = config.with_failures(self.failures.to_model());
        // Every history-reducing measurement needs the per-round trace.
        if matches!(
            self.measure,
            MeasureSpec::Trace | MeasureSpec::PhaseMilestones | MeasureSpec::Crossover
        ) {
            config = config.with_history();
        }
        config
    }
}

// ---------------------------------------------------------------------------
// The unified protocol enum
// ---------------------------------------------------------------------------

/// E18's ablation of Algorithm 1 against the public engine API: the
/// paper's schedule with the two load-bearing design choices removable.
#[derive(Debug, Clone, Copy)]
pub struct AblatedFourChoice {
    /// The paper's (Algorithm 1) phase schedule.
    pub schedule: PhaseSchedule,
    /// Phase 1: push every round while informed (instead of once).
    pub phase1_always_push: bool,
    /// Phases 3–4 replaced by more phase-2-style pushing.
    pub no_pull: bool,
}

impl Protocol for AblatedFourChoice {
    type State = ();

    fn init(&self, _creator: bool) -> Self::State {}

    fn choice_policy(&self) -> ChoicePolicy {
        ChoicePolicy::FOUR
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        let meta = RumorMeta { age: t, counter: 0 };
        match self.schedule.phase(t) {
            Phase::One => {
                if self.phase1_always_push || view.informed_at + 1 == t {
                    Plan::push_with(meta)
                } else {
                    Plan::SILENT
                }
            }
            Phase::Two => Plan::push_with(meta),
            Phase::Three | Phase::Four if self.no_pull => Plan::push_with(meta),
            Phase::Three => Plan::pull_with(meta),
            Phase::Four => {
                if view.informed_at > self.schedule.phase2_end() {
                    Plan::push_with(meta)
                } else {
                    Plan::SILENT
                }
            }
            Phase::Done => Plan::SILENT,
        }
    }

    fn update(&self, _s: &mut Self::State, _ia: Option<Round>, _t: Round, _o: &Observation) {}

    fn is_quiescent(&self, _s: &Self::State, _ia: Round, t: Round) -> bool {
        self.schedule.is_done(t)
    }

    fn deadline(&self) -> Option<Round> {
        Some(self.schedule.end())
    }

    fn capabilities(&self) -> Capabilities {
        let directions = if self.no_pull { Capabilities::PUSH_ONLY } else { Capabilities::ALL };
        Capabilities { oblivious: true, ..directions }
    }
}

/// Per-node state of an [`AnyProtocol`] (union of the concrete protocols'
/// state types).
#[derive(Debug, Clone)]
pub enum AnyState {
    /// Stateless protocols.
    Unit,
    /// [`MedianCounter`] counter state.
    Counter(rrb_baselines::CounterState),
    /// [`PushThenPull`] birth state.
    Birth(rrb_baselines::BirthState),
}

/// Unified protocol enum covering every concrete protocol in
/// `rrb_engine::protocols`, `rrb_baselines` and `rrb_core` (plus the E18
/// ablation) — the enum-dispatch target of [`ProtocolSpec::build`], which
/// lets one runner drive any scenario without monomorphising per protocol.
#[derive(Debug, Clone)]
pub enum AnyProtocol {
    /// The paper's four-choice algorithm.
    FourChoice(FourChoice),
    /// Sequentialised four-choice.
    SequentialFourChoice(SequentialFourChoice),
    /// Age-budgeted flood.
    Budgeted(Budgeted),
    /// Push-then-pull baseline.
    PushThenPull(PushThenPull),
    /// Median-counter rule.
    MedianCounter(MedianCounter),
    /// Quasirandom push.
    Quasirandom(QuasirandomPush),
    /// Unbounded push flood.
    FloodPush(FloodPush),
    /// Unbounded pull flood.
    FloodPull(FloodPull),
    /// Unbounded push&pull flood.
    FloodPushPull(FloodPushPull),
    /// Null protocol.
    Silent(SilentProtocol),
    /// E18 phase ablation.
    Ablated(AblatedFourChoice),
}

/// Maps a `NodeView<AnyState>` onto a unit-state view for the stateless
/// protocols.
fn unit_view<'a>(view: &NodeView<'a, AnyState>) -> NodeView<'a, ()> {
    NodeView { informed_at: view.informed_at, is_creator: view.is_creator, state: &() }
}

impl Protocol for AnyProtocol {
    type State = AnyState;

    fn init(&self, creator: bool) -> Self::State {
        match self {
            AnyProtocol::MedianCounter(p) => AnyState::Counter(p.init(creator)),
            AnyProtocol::PushThenPull(p) => AnyState::Birth(p.init(creator)),
            _ => AnyState::Unit,
        }
    }

    fn choice_policy(&self) -> ChoicePolicy {
        match self {
            AnyProtocol::FourChoice(p) => p.choice_policy(),
            AnyProtocol::SequentialFourChoice(p) => p.choice_policy(),
            AnyProtocol::Budgeted(p) => p.choice_policy(),
            AnyProtocol::PushThenPull(p) => p.choice_policy(),
            AnyProtocol::MedianCounter(p) => p.choice_policy(),
            AnyProtocol::Quasirandom(p) => p.choice_policy(),
            AnyProtocol::FloodPush(p) => p.choice_policy(),
            AnyProtocol::FloodPull(p) => p.choice_policy(),
            AnyProtocol::FloodPushPull(p) => p.choice_policy(),
            AnyProtocol::Silent(p) => p.choice_policy(),
            AnyProtocol::Ablated(p) => p.choice_policy(),
        }
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        match (self, view.state) {
            (AnyProtocol::FourChoice(p), _) => p.plan(unit_view(&view), t),
            (AnyProtocol::SequentialFourChoice(p), _) => p.plan(unit_view(&view), t),
            (AnyProtocol::Budgeted(p), _) => p.plan(unit_view(&view), t),
            (AnyProtocol::PushThenPull(p), AnyState::Birth(s)) => p.plan(
                NodeView { informed_at: view.informed_at, is_creator: view.is_creator, state: s },
                t,
            ),
            (AnyProtocol::MedianCounter(p), AnyState::Counter(s)) => p.plan(
                NodeView { informed_at: view.informed_at, is_creator: view.is_creator, state: s },
                t,
            ),
            (AnyProtocol::Quasirandom(p), _) => p.plan(unit_view(&view), t),
            (AnyProtocol::FloodPush(p), _) => p.plan(unit_view(&view), t),
            (AnyProtocol::FloodPull(p), _) => p.plan(unit_view(&view), t),
            (AnyProtocol::FloodPushPull(p), _) => p.plan(unit_view(&view), t),
            (AnyProtocol::Silent(p), _) => p.plan(unit_view(&view), t),
            (AnyProtocol::Ablated(p), _) => p.plan(unit_view(&view), t),
            (p, s) => unreachable!("state {s:?} does not belong to protocol {p:?}"),
        }
    }

    fn update(
        &self,
        state: &mut Self::State,
        informed_at: Option<Round>,
        t: Round,
        obs: &Observation,
    ) {
        match (self, state) {
            (AnyProtocol::MedianCounter(p), AnyState::Counter(s)) => {
                p.update(s, informed_at, t, obs)
            }
            (AnyProtocol::PushThenPull(p), AnyState::Birth(s)) => p.update(s, informed_at, t, obs),
            // Every other protocol is stateless; nothing to digest.
            (_, AnyState::Unit) => {}
            (p, s) => unreachable!("state {s:?} does not belong to protocol {p:?}"),
        }
    }

    fn is_quiescent(&self, state: &Self::State, informed_at: Round, t: Round) -> bool {
        match (self, state) {
            (AnyProtocol::FourChoice(p), _) => p.is_quiescent(&(), informed_at, t),
            (AnyProtocol::SequentialFourChoice(p), _) => p.is_quiescent(&(), informed_at, t),
            (AnyProtocol::Budgeted(p), _) => p.is_quiescent(&(), informed_at, t),
            (AnyProtocol::PushThenPull(p), AnyState::Birth(s)) => p.is_quiescent(s, informed_at, t),
            (AnyProtocol::MedianCounter(p), AnyState::Counter(s)) => {
                p.is_quiescent(s, informed_at, t)
            }
            (AnyProtocol::Quasirandom(p), _) => p.is_quiescent(&(), informed_at, t),
            (AnyProtocol::FloodPush(p), _) => p.is_quiescent(&(), informed_at, t),
            (AnyProtocol::FloodPull(p), _) => p.is_quiescent(&(), informed_at, t),
            (AnyProtocol::FloodPushPull(p), _) => p.is_quiescent(&(), informed_at, t),
            (AnyProtocol::Silent(p), _) => p.is_quiescent(&(), informed_at, t),
            (AnyProtocol::Ablated(p), _) => p.is_quiescent(&(), informed_at, t),
            (p, s) => unreachable!("state {s:?} does not belong to protocol {p:?}"),
        }
    }

    fn deadline(&self) -> Option<Round> {
        match self {
            AnyProtocol::FourChoice(p) => p.deadline(),
            AnyProtocol::SequentialFourChoice(p) => p.deadline(),
            AnyProtocol::Budgeted(p) => p.deadline(),
            AnyProtocol::PushThenPull(p) => p.deadline(),
            AnyProtocol::MedianCounter(p) => p.deadline(),
            AnyProtocol::Quasirandom(p) => p.deadline(),
            AnyProtocol::FloodPush(p) => p.deadline(),
            AnyProtocol::FloodPull(p) => p.deadline(),
            AnyProtocol::FloodPushPull(p) => p.deadline(),
            AnyProtocol::Silent(p) => p.deadline(),
            AnyProtocol::Ablated(p) => p.deadline(),
        }
    }

    fn capabilities(&self) -> Capabilities {
        match self {
            AnyProtocol::FourChoice(p) => p.capabilities(),
            AnyProtocol::SequentialFourChoice(p) => p.capabilities(),
            AnyProtocol::Budgeted(p) => p.capabilities(),
            AnyProtocol::PushThenPull(p) => p.capabilities(),
            AnyProtocol::MedianCounter(p) => p.capabilities(),
            AnyProtocol::Quasirandom(p) => p.capabilities(),
            AnyProtocol::FloodPush(p) => p.capabilities(),
            AnyProtocol::FloodPull(p) => p.capabilities(),
            AnyProtocol::FloodPushPull(p) => p.capabilities(),
            AnyProtocol::Silent(p) => p.capabilities(),
            AnyProtocol::Ablated(p) => p.capabilities(),
        }
    }
}

// ---------------------------------------------------------------------------
// JSON (de)serialisation — same hand-rolled dialect as BenchRecorder
// ---------------------------------------------------------------------------

/// Schema tag written into serialised scenarios.
pub const SCENARIO_SCHEMA: &str = "rrb-scenario-v1";

fn fault_event_json(e: &FaultEvent) -> String {
    match e {
        FaultEvent::Partition { from, until, parts } => format!(
            "{{\"kind\": \"partition\", \"from\": {from}, \"until\": {until}, \"parts\": {parts}}}"
        ),
        FaultEvent::CrashNodes { at, nodes } => {
            let list = nodes.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(", ");
            format!("{{\"kind\": \"crash_nodes\", \"at\": {at}, \"nodes\": [{list}]}}")
        }
        FaultEvent::LossWindow { from, until, channel, transmission } => {
            let mut s =
                format!("{{\"kind\": \"loss_window\", \"from\": {from}, \"until\": {until}");
            if let Some(c) = channel {
                s.push_str(&format!(", \"channel\": {c}"));
            }
            if let Some(t) = transmission {
                s.push_str(&format!(", \"transmission\": {t}"));
            }
            s.push('}');
            s
        }
    }
}

fn policy_json(p: PolicySpec) -> String {
    match p {
        PolicySpec::Distinct(k) => format!("{{\"kind\": \"distinct\", \"k\": {k}}}"),
        PolicySpec::Memory(w) => format!("{{\"kind\": \"memory\", \"window\": {w}}}"),
        PolicySpec::Cyclic => "{\"kind\": \"cyclic\"}".into(),
    }
}

impl ScenarioSpec {
    /// Serialises the scenario as JSON (schema [`SCENARIO_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let graph = match &self.graph {
            GraphSpec::RandomRegular { n, d } => {
                format!("{{\"kind\": \"random_regular\", \"n\": {n}, \"d\": {d}}}")
            }
            GraphSpec::ConfigurationModel { n, d } => {
                format!("{{\"kind\": \"configuration_model\", \"n\": {n}, \"d\": {d}}}")
            }
            GraphSpec::Gnp { n, expected_degree } => format!(
                "{{\"kind\": \"gnp\", \"n\": {n}, \"expected_degree\": {expected_degree}}}"
            ),
            GraphSpec::Complete { n } => format!("{{\"kind\": \"complete\", \"n\": {n}}}"),
            GraphSpec::Hypercube { dim } => format!("{{\"kind\": \"hypercube\", \"dim\": {dim}}}"),
            GraphSpec::Torus { rows, cols } => {
                format!("{{\"kind\": \"torus\", \"rows\": {rows}, \"cols\": {cols}}}")
            }
            GraphSpec::Cycle { n } => format!("{{\"kind\": \"cycle\", \"n\": {n}}}"),
            GraphSpec::ProductK { base_n, base_d, clique } => format!(
                "{{\"kind\": \"product_k\", \"base_n\": {base_n}, \"base_d\": {base_d}, \
                 \"clique\": {clique}}}"
            ),
            GraphSpec::PreferentialAttachment { n, m } => {
                format!("{{\"kind\": \"preferential_attachment\", \"n\": {n}, \"m\": {m}}}")
            }
        };
        let protocol = match &self.protocol {
            ProtocolSpec::FourChoice { n_estimate, degree, alpha, choices, regime } => {
                let regime = match regime {
                    RegimeSpec::Auto => "auto",
                    RegimeSpec::Small => "small",
                    RegimeSpec::Large => "large",
                };
                format!(
                    "{{\"kind\": \"four_choice\", \"n_estimate\": {n_estimate}, \
                     \"degree\": {degree}, \"alpha\": {alpha}, \"choices\": {choices}, \
                     \"regime\": \"{regime}\"}}"
                )
            }
            ProtocolSpec::SequentialFourChoice { n_estimate, degree } => format!(
                "{{\"kind\": \"sequential_four_choice\", \"n_estimate\": {n_estimate}, \
                 \"degree\": {degree}}}"
            ),
            ProtocolSpec::Budgeted { mode, n, budget, policy } => {
                let mode = match mode {
                    GossipModeSpec::Push => "push",
                    GossipModeSpec::Pull => "pull",
                    GossipModeSpec::PushPull => "push_pull",
                };
                format!(
                    "{{\"kind\": \"budgeted\", \"mode\": \"{mode}\", \"n\": {n}, \
                     \"budget\": {budget}, \"policy\": {}}}",
                    policy_json(*policy)
                )
            }
            ProtocolSpec::PushThenPull { n } => {
                format!("{{\"kind\": \"push_then_pull\", \"n\": {n}}}")
            }
            ProtocolSpec::MedianCounter { n, ctr_max, c_rounds, age_cutoff } => {
                let mut s = format!("{{\"kind\": \"median_counter\", \"n\": {n}");
                if let Some(v) = ctr_max {
                    s.push_str(&format!(", \"ctr_max\": {v}"));
                }
                if let Some(v) = c_rounds {
                    s.push_str(&format!(", \"c_rounds\": {v}"));
                }
                if let Some(v) = age_cutoff {
                    s.push_str(&format!(", \"age_cutoff\": {v}"));
                }
                s.push('}');
                s
            }
            ProtocolSpec::Quasirandom { max_age } => match max_age {
                Some(a) => format!("{{\"kind\": \"quasirandom\", \"max_age\": {a}}}"),
                None => "{\"kind\": \"quasirandom\"}".into(),
            },
            ProtocolSpec::FloodPush { policy } => {
                format!("{{\"kind\": \"flood_push\", \"policy\": {}}}", policy_json(*policy))
            }
            ProtocolSpec::FloodPull { policy } => {
                format!("{{\"kind\": \"flood_pull\", \"policy\": {}}}", policy_json(*policy))
            }
            ProtocolSpec::FloodPushPull { policy } => {
                format!("{{\"kind\": \"flood_push_pull\", \"policy\": {}}}", policy_json(*policy))
            }
            ProtocolSpec::Silent => "{\"kind\": \"silent\"}".into(),
            ProtocolSpec::Ablated { n_estimate, degree, alpha, phase1_always_push, no_pull } => {
                format!(
                    "{{\"kind\": \"ablated\", \"n_estimate\": {n_estimate}, \
                     \"degree\": {degree}, \"alpha\": {alpha}, \
                     \"phase1_always_push\": {phase1_always_push}, \"no_pull\": {no_pull}}}"
                )
            }
        };
        let (stop_mode, max_rounds) = match self.stop {
            StopSpec::Coverage { max_rounds } => ("coverage", max_rounds),
            StopSpec::Quiescent { max_rounds } => ("quiescent", max_rounds),
        };
        let measure = match &self.measure {
            MeasureSpec::Standard => "{\"kind\": \"standard\"}".into(),
            MeasureSpec::Trace => "{\"kind\": \"trace\"}".into(),
            MeasureSpec::PhaseMilestones => "{\"kind\": \"phase_milestones\"}".into(),
            MeasureSpec::Crossover => "{\"kind\": \"crossover\"}".into(),
            MeasureSpec::Degradation => "{\"kind\": \"degradation\"}".into(),
            MeasureSpec::SpectralAudit => "{\"kind\": \"spectral_audit\"}".into(),
            MeasureSpec::Custom(name) => {
                format!("{{\"kind\": \"custom\", \"name\": {}}}", crate::json_string(name))
            }
        };
        // Plan dimensions serialise only when present, so plain-rates
        // specs keep the pre-fault "failures" object byte-for-byte.
        let failures = {
            let mut f = format!(
                "{{\"channel\": {}, \"transmission\": {}, \"crash\": {}",
                self.failures.rates.channel,
                self.failures.rates.transmission,
                self.failures.rates.crash,
            );
            if let Some(g) = &self.failures.burst {
                f.push_str(&format!(
                    ", \"burst\": {{\"p_gb\": {}, \"p_bg\": {}, \"loss_good\": {}, \
                     \"loss_bad\": {}}}",
                    g.p_gb, g.p_bg, g.loss_good, g.loss_bad
                ));
            }
            if !self.failures.schedule.is_empty() {
                let events: Vec<String> =
                    self.failures.schedule.iter().map(fault_event_json).collect();
                f.push_str(&format!(", \"schedule\": [{}]", events.join(", ")));
            }
            if let Some(a) = &self.failures.adversary {
                let target = match a.target {
                    AdversaryTarget::HighestDegree => "highest_degree",
                    AdversaryTarget::EarliestInformed => "earliest_informed",
                };
                f.push_str(&format!(
                    ", \"adversary\": {{\"target\": \"{target}\", \"per_round\": {}, \
                     \"budget\": {}",
                    a.per_round, a.budget
                ));
                if a.from_round != 1 {
                    f.push_str(&format!(", \"from_round\": {}", a.from_round));
                }
                f.push('}');
            }
            if let Some(o) = &self.failures.outages {
                f.push_str(&format!(
                    ", \"outages\": {{\"rate\": {}, \"min_down\": {}, \"max_down\": {}}}",
                    o.rate, o.min_down, o.max_down
                ));
            }
            f.push('}');
            f
        };
        // Static dynamics serialise to nothing, so pre-dynamics spec files
        // round-trip byte-identically.
        let dynamics = match self.dynamics {
            DynamicsSpec::Static => String::new(),
            DynamicsSpec::Churn(c) => {
                let min_alive = c
                    .min_alive
                    .map(|m| format!(", \"min_alive\": {m}"))
                    .unwrap_or_default();
                format!(
                    "  \"dynamics\": {{\"churn\": {{\"joins_per_round\": {}, \
                     \"leaves_per_round\": {}, \"rewire_per_round\": {}{min_alive}}}}},\n",
                    c.joins_per_round, c.leaves_per_round, c.rewire_per_round,
                )
            }
        };
        // Sync timing likewise serialises to nothing, keeping pre-async
        // spec files and their artifact spec hashes byte-identical.
        let timing = match self.timing {
            TimingSpec::Sync => String::new(),
            TimingSpec::Async { clock, latency } => {
                let clock = match clock {
                    ClockSpec::Fixed { interval } => {
                        format!("{{\"kind\": \"fixed\", \"interval\": {interval}}}")
                    }
                    ClockSpec::Exponential { rate } => {
                        format!("{{\"kind\": \"exponential\", \"rate\": {rate}}}")
                    }
                    ClockSpec::Stragglers { rate, slow_fraction, slow_factor } => format!(
                        "{{\"kind\": \"stragglers\", \"rate\": {rate}, \
                         \"slow_fraction\": {slow_fraction}, \"slow_factor\": {slow_factor}}}"
                    ),
                };
                let latency = match latency {
                    LatencySpec::Zero => "{\"kind\": \"zero\"}".to_string(),
                    LatencySpec::Fixed { delay } => {
                        format!("{{\"kind\": \"fixed\", \"delay\": {delay}}}")
                    }
                    LatencySpec::Uniform { min, max } => {
                        format!("{{\"kind\": \"uniform\", \"min\": {min}, \"max\": {max}}}")
                    }
                    LatencySpec::Exponential { mean } => {
                        format!("{{\"kind\": \"exponential\", \"mean\": {mean}}}")
                    }
                };
                format!(
                    "  \"timing\": {{\"mode\": \"async\", \"clock\": {clock}, \
                     \"latency\": {latency}}},\n"
                )
            }
        };
        format!(
            "{{\n  \"schema\": \"{SCENARIO_SCHEMA}\",\n  \"label\": {},\n  \"graph\": {graph},\n  \
             \"protocol\": {protocol},\n  \"failures\": {failures},\n{dynamics}{timing}  \
             \"stop\": {{\"mode\": \"{stop_mode}\", \"max_rounds\": {max_rounds}}},\n  \
             \"measure\": {measure}\n}}\n",
            crate::json_string(&self.label),
        )
    }

    /// Parses a scenario from its JSON form.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, String> {
        Self::from_value(&json::parse(text)?)
    }

    /// Parses either a single scenario object or a JSON **array** of them
    /// (a whole hand-written ladder in one file — `rrb run --spec` runs
    /// every element in order).
    pub fn list_from_json(text: &str) -> Result<Vec<ScenarioSpec>, String> {
        match json::parse(text)? {
            Json::Arr(items) => {
                if items.is_empty() {
                    return Err("the scenario array is empty".into());
                }
                items
                    .iter()
                    .enumerate()
                    .map(|(i, item)| {
                        Self::from_value(item).map_err(|e| format!("scenario [{i}]: {e}"))
                    })
                    .collect()
            }
            v => Ok(vec![Self::from_value(&v)?]),
        }
    }

    /// Parses a scenario from an already-parsed JSON value.
    fn from_value(v: &Json) -> Result<ScenarioSpec, String> {
        expect_keys(
            v,
            &[
                "schema", "label", "graph", "protocol", "failures", "dynamics", "timing", "stop",
                "measure",
            ],
            "the scenario object",
        )?;
        if let Some(schema) = v.get("schema").and_then(Json::as_str) {
            if schema != SCENARIO_SCHEMA {
                return Err(format!("unsupported schema {schema:?}"));
            }
        }
        let label = v
            .get("label")
            .and_then(Json::as_str)
            .ok_or("missing \"label\"")?
            .to_string();
        let graph = parse_graph(v.get("graph").ok_or("missing \"graph\"")?)?;
        let protocol = parse_protocol(v.get("protocol").ok_or("missing \"protocol\"")?)?;
        let failures = match v.get("failures") {
            Some(f) => parse_faults(f)?,
            None => FaultSpec::NONE,
        };
        let dynamics = match v.get("dynamics") {
            Some(d) => parse_dynamics(d)?,
            None => DynamicsSpec::Static,
        };
        let timing = match v.get("timing") {
            Some(t) => parse_timing(t)?,
            None => TimingSpec::Sync,
        };
        let stop = match v.get("stop") {
            Some(s) => {
                expect_keys(s, &["mode", "max_rounds"], "\"stop\"")?;
                let max_rounds = opt_u64(s, "max_rounds", 10_000)? as u32;
                match s.get("mode").and_then(Json::as_str) {
                    Some("coverage") => StopSpec::Coverage { max_rounds },
                    Some("quiescent") | None => StopSpec::Quiescent { max_rounds },
                    Some(other) => return Err(format!("unknown stop mode {other:?}")),
                }
            }
            None => StopSpec::QUIESCENT,
        };
        let measure = match v.get("measure") {
            Some(m) => {
                expect_keys(m, &["kind", "name"], "\"measure\"")?;
                match m.get("kind").and_then(Json::as_str) {
                    Some("standard") | None => MeasureSpec::Standard,
                    Some("trace") => MeasureSpec::Trace,
                    Some("phase_milestones") => MeasureSpec::PhaseMilestones,
                    Some("crossover") => MeasureSpec::Crossover,
                    Some("degradation") => MeasureSpec::Degradation,
                    Some("spectral_audit") => MeasureSpec::SpectralAudit,
                    Some("custom") => MeasureSpec::Custom(
                        m.get("name").and_then(Json::as_str).unwrap_or("custom").to_string(),
                    ),
                    Some(other) => return Err(format!("unknown measure kind {other:?}")),
                }
            }
            None => MeasureSpec::Standard,
        };
        let spec =
            ScenarioSpec { label, graph, protocol, failures, dynamics, timing, stop, measure };
        spec.check_runnable()?;
        Ok(spec)
    }
}

/// Parses the `"timing"` object. `{"mode": "sync"}` (or an absent object)
/// is the round-synchronous default; `"async"` requires a `"clock"` and
/// takes an optional `"latency"` (zero when omitted). Every rate and
/// window is validated here with a named field, mirroring
/// [`parse_faults`]'s strictness.
fn parse_timing(t: &Json) -> Result<TimingSpec, String> {
    expect_keys(t, &["mode", "clock", "latency"], "\"timing\"")?;
    match t.get("mode").and_then(Json::as_str) {
        Some("sync") => {
            if t.get("clock").is_some() || t.get("latency").is_some() {
                return Err("sync timing takes no \"clock\"/\"latency\"".into());
            }
            Ok(TimingSpec::Sync)
        }
        Some("async") => {
            let clock = parse_clock(t.get("clock").ok_or("async timing requires a \"clock\"")?)?;
            let latency = match t.get("latency") {
                Some(l) => parse_latency(l)?,
                None => LatencySpec::Zero,
            };
            Ok(TimingSpec::Async { clock, latency })
        }
        Some(other) => Err(format!("unknown timing mode {other:?}")),
        None => Err("\"timing\" requires a \"mode\"".into()),
    }
}

/// Parses a `"clock"` object (see [`ClockSpec`]).
fn parse_clock(c: &Json) -> Result<ClockSpec, String> {
    expect_keys(c, &["kind", "interval", "rate", "slow_fraction", "slow_factor"], "\"clock\"")?;
    let pos = |field: &str| -> Result<f64, String> {
        let v = c
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("\"clock\" requires a numeric {field:?}"))?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(format!("clock {field} must be positive and finite, got {v}"))
        }
    };
    match c.get("kind").and_then(Json::as_str) {
        Some("fixed") => Ok(ClockSpec::Fixed { interval: pos("interval")? }),
        Some("exponential") => Ok(ClockSpec::Exponential { rate: pos("rate")? }),
        Some("stragglers") => {
            let rate = pos("rate")?;
            let slow_fraction = c
                .get("slow_fraction")
                .and_then(Json::as_f64)
                .ok_or("\"clock\" requires a numeric \"slow_fraction\"")?;
            if !(0.0..=1.0).contains(&slow_fraction) {
                return Err(format!("clock slow_fraction must be in [0, 1], got {slow_fraction}"));
            }
            let slow_factor = pos("slow_factor")?;
            if slow_factor < 1.0 {
                return Err(format!("clock slow_factor must be >= 1, got {slow_factor}"));
            }
            Ok(ClockSpec::Stragglers { rate, slow_fraction, slow_factor })
        }
        Some(other) => Err(format!("unknown clock kind {other:?}")),
        None => Err("\"clock\" requires a \"kind\"".into()),
    }
}

/// Parses a `"latency"` object (see [`LatencySpec`]).
fn parse_latency(l: &Json) -> Result<LatencySpec, String> {
    expect_keys(l, &["kind", "delay", "min", "max", "mean"], "\"latency\"")?;
    let nonneg = |field: &str| -> Result<f64, String> {
        let v = l
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("\"latency\" requires a numeric {field:?}"))?;
        if v.is_finite() && v >= 0.0 {
            Ok(v)
        } else {
            Err(format!("latency {field} must be >= 0 and finite, got {v}"))
        }
    };
    match l.get("kind").and_then(Json::as_str) {
        Some("zero") => Ok(LatencySpec::Zero),
        Some("fixed") => Ok(LatencySpec::Fixed { delay: nonneg("delay")? }),
        Some("uniform") => {
            let min = nonneg("min")?;
            let max = nonneg("max")?;
            if max < min {
                return Err(format!("latency max ({max}) must be >= min ({min})"));
            }
            Ok(LatencySpec::Uniform { min, max })
        }
        Some("exponential") => {
            let mean = nonneg("mean")?;
            if mean == 0.0 {
                return Err("latency mean must be positive (use kind \"zero\" instead)".into());
            }
            Ok(LatencySpec::Exponential { mean })
        }
        Some(other) => Err(format!("unknown latency kind {other:?}")),
        None => Err("\"latency\" requires a \"kind\"".into()),
    }
}

/// Parses the `"failures"` object: the three i.i.d. rates plus the
/// optional adversarial fault-plan dimensions (`burst`, `schedule`,
/// `adversary`, `outages`). Every plan probability and window is
/// validated here, and the three rates by [`ScenarioSpec::check_runnable`]
/// (which also guards specs built in code), so a bad spec fails at parse
/// time with a named field instead of tripping an engine assertion mid-run.
fn parse_faults(f: &Json) -> Result<FaultSpec, String> {
    expect_keys(
        f,
        &["channel", "transmission", "crash", "burst", "schedule", "adversary", "outages"],
        "\"failures\"",
    )?;
    let rates = FailureSpec {
        channel: opt_f64(f, "channel", 0.0)?,
        transmission: opt_f64(f, "transmission", 0.0)?,
        crash: opt_f64(f, "crash", 0.0)?,
    };
    let burst = match f.get("burst") {
        None => None,
        Some(b) => {
            expect_keys(b, &["p_gb", "p_bg", "loss_good", "loss_bad"], "\"burst\"")?;
            let g = GilbertElliott {
                p_gb: req_f64(b, "p_gb")?,
                p_bg: req_f64(b, "p_bg")?,
                loss_good: req_f64(b, "loss_good")?,
                loss_bad: req_f64(b, "loss_bad")?,
            };
            for (name, p) in [
                ("p_gb", g.p_gb),
                ("p_bg", g.p_bg),
                ("loss_good", g.loss_good),
                ("loss_bad", g.loss_bad),
            ] {
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("\"burst\".\"{name}\" must be a probability in [0, 1]"));
                }
            }
            Some(g)
        }
    };
    let schedule = match f.get("schedule") {
        None => Vec::new(),
        Some(Json::Arr(items)) => items
            .iter()
            .enumerate()
            .map(|(i, e)| parse_fault_event(e).map_err(|err| format!("\"schedule\"[{i}]: {err}")))
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err("\"schedule\" must be an array of fault events".into()),
    };
    let adversary = match f.get("adversary") {
        None => None,
        Some(a) => {
            expect_keys(a, &["target", "per_round", "budget", "from_round"], "\"adversary\"")?;
            let target = match a.get("target").and_then(Json::as_str) {
                Some("highest_degree") => AdversaryTarget::HighestDegree,
                Some("earliest_informed") => AdversaryTarget::EarliestInformed,
                other => return Err(format!("unknown adversary target {other:?}")),
            };
            Some(AdversarySpec {
                target,
                per_round: req_usize(a, "per_round")?,
                budget: req_usize(a, "budget")?,
                from_round: opt_u64(a, "from_round", 1)? as Round,
            })
        }
    };
    let outages = match f.get("outages") {
        None => None,
        Some(o) => {
            expect_keys(o, &["rate", "min_down", "max_down"], "\"outages\"")?;
            let rate = req_f64(o, "rate")?;
            if !(0.0..1.0).contains(&rate) {
                return Err("\"outages\".\"rate\" must be a probability in [0, 1)".into());
            }
            let min_down = req_usize(o, "min_down")? as Round;
            let max_down = req_usize(o, "max_down")? as Round;
            if min_down < 1 {
                return Err("\"min_down\" must be at least 1 round".into());
            }
            if min_down > max_down {
                return Err("\"min_down\" must not exceed \"max_down\"".into());
            }
            Some(OutageSpec { rate, min_down, max_down })
        }
    };
    Ok(FaultSpec { rates, burst, schedule, adversary, outages })
}

/// Parses one entry of the `"schedule"` array.
fn parse_fault_event(v: &Json) -> Result<FaultEvent, String> {
    let kind = v.get("kind").and_then(Json::as_str);
    expect_keys(
        v,
        match kind {
            Some("partition") => &["kind", "from", "until", "parts"],
            Some("crash_nodes") => &["kind", "at", "nodes"],
            Some("loss_window") => &["kind", "from", "until", "channel", "transmission"],
            _ => &["kind"],
        },
        "the fault event",
    )?;
    match kind {
        Some("partition") => {
            let parts = req_usize(v, "parts")? as u32;
            if parts == 0 {
                return Err("\"parts\" must be at least 1".into());
            }
            Ok(FaultEvent::Partition {
                from: req_usize(v, "from")? as Round,
                until: req_usize(v, "until")? as Round,
                parts,
            })
        }
        Some("crash_nodes") => {
            let nodes = match v.get("nodes") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|n| n.as_u64().map(|x| x as u32))
                    .collect::<Option<Vec<u32>>>()
                    .ok_or("\"nodes\" must be an array of node indices")?,
                _ => return Err("\"nodes\" must be an array of node indices".into()),
            };
            Ok(FaultEvent::CrashNodes { at: req_usize(v, "at")? as Round, nodes })
        }
        Some("loss_window") => {
            let channel = opt_f64_field(v, "channel")?;
            let transmission = opt_f64_field(v, "transmission")?;
            for (name, p) in [("channel", channel), ("transmission", transmission)] {
                if let Some(p) = p {
                    if !(0.0..1.0).contains(&p) {
                        return Err(format!("\"{name}\" must be a probability in [0, 1)"));
                    }
                }
            }
            Ok(FaultEvent::LossWindow {
                from: req_usize(v, "from")? as Round,
                until: req_usize(v, "until")? as Round,
                channel,
                transmission,
            })
        }
        other => Err(format!("unknown fault event kind {other:?}")),
    }
}

/// Parses the `"dynamics"` object with the same strictness as every other
/// section: unknown keys, mistyped values and out-of-range rates are
/// refused loudly instead of silently running a different scenario.
fn parse_dynamics(v: &Json) -> Result<DynamicsSpec, String> {
    expect_keys(v, &["churn"], "\"dynamics\"")?;
    let Some(c) = v.get("churn") else {
        return Ok(DynamicsSpec::Static);
    };
    expect_keys(
        c,
        &["joins_per_round", "leaves_per_round", "min_alive", "rewire_per_round"],
        "\"dynamics\".\"churn\"",
    )?;
    let joins_per_round = opt_f64(c, "joins_per_round", 0.0)?;
    let leaves_per_round = opt_f64(c, "leaves_per_round", 0.0)?;
    for (name, rate) in
        [("joins_per_round", joins_per_round), ("leaves_per_round", leaves_per_round)]
    {
        if !rate.is_finite() || rate < 0.0 {
            return Err(format!("\"{name}\" must be a finite non-negative rate"));
        }
    }
    let min_alive = match c.get("min_alive") {
        None => None,
        Some(j) => Some(
            j.as_u64().ok_or("\"min_alive\" must be a non-negative integer")? as usize,
        ),
    };
    let rewire_per_round = opt_u64(c, "rewire_per_round", 0)? as usize;
    Ok(DynamicsSpec::Churn(ChurnSpec {
        joins_per_round,
        leaves_per_round,
        min_alive,
        rewire_per_round,
    }))
}

fn req_usize(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .map(|x| x as usize)
        .ok_or_else(|| format!("missing or invalid \"{key}\""))
}

fn req_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing or invalid \"{key}\""))
}

/// Optional numeric field: absent ⇒ `default`, present-but-not-a-number ⇒
/// error. Hand-edited specs must never have a mistyped value silently
/// replaced by a default (e.g. `"channel": "0.3"` running failure-free).
fn opt_f64(v: &Json, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j.as_f64().ok_or_else(|| format!("\"{key}\" must be a number")),
    }
}

/// Optional non-negative integer field with a default (see [`opt_f64`]).
fn opt_u64(v: &Json, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => {
            j.as_u64().ok_or_else(|| format!("\"{key}\" must be a non-negative integer"))
        }
    }
}

/// Truly optional numeric field (`None` when absent; see [`opt_f64`]).
fn opt_f64_field(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(j) => j.as_f64().map(Some).ok_or_else(|| format!("\"{key}\" must be a number")),
    }
}

/// Truly optional non-negative integer field (`None` when absent).
fn opt_u32_field(v: &Json, key: &str) -> Result<Option<u32>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(j) => j
            .as_u64()
            .map(|x| Some(x as u32))
            .ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
    }
}

/// Optional boolean field with a default (see [`opt_f64`]).
fn opt_bool(v: &Json, key: &str, default: bool) -> Result<bool, String> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j.as_bool().ok_or_else(|| format!("\"{key}\" must be a boolean")),
    }
}

/// Rejects unknown keys in an object, so a misspelled field (`"chanel"`)
/// errors instead of silently falling back to the default.
fn expect_keys(v: &Json, allowed: &[&str], ctx: &str) -> Result<(), String> {
    if let Json::Obj(fields) = v {
        for (k, _) in fields {
            if !allowed.contains(&k.as_str()) {
                return Err(format!("unknown key {k:?} in {ctx}"));
            }
        }
    }
    Ok(())
}

fn parse_policy(v: Option<&Json>) -> Result<PolicySpec, String> {
    let Some(v) = v else { return Ok(PolicySpec::STANDARD) };
    let kind = v.get("kind").and_then(Json::as_str);
    expect_keys(
        v,
        match kind {
            Some("distinct") => &["kind", "k"],
            Some("memory") => &["kind", "window"],
            _ => &["kind"],
        },
        "the policy object",
    )?;
    match kind {
        Some("distinct") => Ok(PolicySpec::Distinct(req_usize(v, "k")?)),
        Some("memory") => Ok(PolicySpec::Memory(req_usize(v, "window")?)),
        Some("cyclic") => Ok(PolicySpec::Cyclic),
        other => Err(format!("unknown policy kind {other:?}")),
    }
}

fn parse_graph(v: &Json) -> Result<GraphSpec, String> {
    let kind = v.get("kind").and_then(Json::as_str);
    expect_keys(
        v,
        match kind {
            Some("random_regular") | Some("configuration_model") => &["kind", "n", "d"],
            Some("gnp") => &["kind", "n", "expected_degree"],
            Some("complete") | Some("cycle") => &["kind", "n"],
            Some("hypercube") => &["kind", "dim"],
            Some("torus") => &["kind", "rows", "cols"],
            Some("product_k") => &["kind", "base_n", "base_d", "clique"],
            Some("preferential_attachment") => &["kind", "n", "m"],
            _ => &["kind"],
        },
        "the graph object",
    )?;
    match kind {
        Some("random_regular") => {
            Ok(GraphSpec::RandomRegular { n: req_usize(v, "n")?, d: req_usize(v, "d")? })
        }
        Some("configuration_model") => {
            Ok(GraphSpec::ConfigurationModel { n: req_usize(v, "n")?, d: req_usize(v, "d")? })
        }
        Some("gnp") => Ok(GraphSpec::Gnp {
            n: req_usize(v, "n")?,
            expected_degree: req_f64(v, "expected_degree")?,
        }),
        Some("complete") => Ok(GraphSpec::Complete { n: req_usize(v, "n")? }),
        Some("hypercube") => {
            let dim = req_usize(v, "dim")?;
            let dim = u32::try_from(dim).map_err(|_| format!("\"dim\" {dim} is out of range"))?;
            Ok(GraphSpec::Hypercube { dim })
        }
        Some("torus") => {
            Ok(GraphSpec::Torus { rows: req_usize(v, "rows")?, cols: req_usize(v, "cols")? })
        }
        Some("cycle") => Ok(GraphSpec::Cycle { n: req_usize(v, "n")? }),
        Some("product_k") => Ok(GraphSpec::ProductK {
            base_n: req_usize(v, "base_n")?,
            base_d: req_usize(v, "base_d")?,
            clique: req_usize(v, "clique")?,
        }),
        Some("preferential_attachment") => Ok(GraphSpec::PreferentialAttachment {
            n: req_usize(v, "n")?,
            m: req_usize(v, "m")?,
        }),
        other => Err(format!("unknown graph kind {other:?}")),
    }
}

fn parse_protocol(v: &Json) -> Result<ProtocolSpec, String> {
    let kind = v.get("kind").and_then(Json::as_str);
    expect_keys(
        v,
        match kind {
            Some("four_choice") => &["kind", "n_estimate", "degree", "alpha", "choices", "regime"],
            Some("sequential_four_choice") => &["kind", "n_estimate", "degree"],
            Some("budgeted") => &["kind", "mode", "n", "budget", "policy"],
            Some("push_then_pull") => &["kind", "n"],
            Some("median_counter") => &["kind", "n", "ctr_max", "c_rounds", "age_cutoff"],
            Some("quasirandom") => &["kind", "max_age"],
            Some("flood_push") | Some("flood_pull") | Some("flood_push_pull") => {
                &["kind", "policy"]
            }
            Some("ablated") => {
                &["kind", "n_estimate", "degree", "alpha", "phase1_always_push", "no_pull"]
            }
            _ => &["kind"],
        },
        "the protocol object",
    )?;
    match kind {
        Some("four_choice") => Ok(ProtocolSpec::FourChoice {
            n_estimate: req_usize(v, "n_estimate")?,
            degree: req_usize(v, "degree")?,
            alpha: opt_f64(v, "alpha", 1.5)?,
            choices: opt_u64(v, "choices", 4)? as usize,
            regime: match v.get("regime").and_then(Json::as_str) {
                Some("small") => RegimeSpec::Small,
                Some("large") => RegimeSpec::Large,
                Some("auto") | None => RegimeSpec::Auto,
                Some(other) => return Err(format!("unknown regime {other:?}")),
            },
        }),
        Some("sequential_four_choice") => Ok(ProtocolSpec::SequentialFourChoice {
            n_estimate: req_usize(v, "n_estimate")?,
            degree: req_usize(v, "degree")?,
        }),
        Some("budgeted") => Ok(ProtocolSpec::Budgeted {
            mode: match v.get("mode").and_then(Json::as_str) {
                Some("push") => GossipModeSpec::Push,
                Some("pull") => GossipModeSpec::Pull,
                Some("push_pull") => GossipModeSpec::PushPull,
                other => return Err(format!("unknown gossip mode {other:?}")),
            },
            n: req_usize(v, "n")?,
            budget: req_f64(v, "budget")?,
            policy: parse_policy(v.get("policy"))?,
        }),
        Some("push_then_pull") => Ok(ProtocolSpec::PushThenPull { n: req_usize(v, "n")? }),
        Some("median_counter") => Ok(ProtocolSpec::MedianCounter {
            n: req_usize(v, "n")?,
            ctr_max: opt_u32_field(v, "ctr_max")?,
            c_rounds: opt_u32_field(v, "c_rounds")?,
            age_cutoff: opt_u32_field(v, "age_cutoff")?,
        }),
        Some("quasirandom") => {
            Ok(ProtocolSpec::Quasirandom { max_age: opt_u32_field(v, "max_age")? })
        }
        Some("flood_push") => Ok(ProtocolSpec::FloodPush { policy: parse_policy(v.get("policy"))? }),
        Some("flood_pull") => Ok(ProtocolSpec::FloodPull { policy: parse_policy(v.get("policy"))? }),
        Some("flood_push_pull") => {
            Ok(ProtocolSpec::FloodPushPull { policy: parse_policy(v.get("policy"))? })
        }
        Some("silent") => Ok(ProtocolSpec::Silent),
        Some("ablated") => Ok(ProtocolSpec::Ablated {
            n_estimate: req_usize(v, "n_estimate")?,
            degree: req_usize(v, "degree")?,
            alpha: opt_f64(v, "alpha", 1.5)?,
            phase1_always_push: opt_bool(v, "phase1_always_push", false)?,
            no_pull: opt_bool(v, "no_pull", false)?,
        }),
        other => Err(format!("unknown protocol kind {other:?}")),
    }
}

pub use json::{parse as parse_json, Json};

/// Minimal JSON reader for the spec dialect (objects, arrays, strings,
/// numbers, booleans, null); just enough to parse what
/// [`ScenarioSpec::to_json`] writes plus hand-edited spec files.
mod json {
    /// 2^53: integers from here on are not all representable in an `f64`.
    const MAX_EXACT: f64 = 9_007_199_254_740_992.0;

    /// Deepest array/object nesting [`parse`] accepts. The parser recurses
    /// once per level, so a bound keeps hostile input (`[` × 200 000) from
    /// overflowing the stack; spec files nest a handful of levels.
    pub const MAX_DEPTH: usize = 128;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number (stored as `f64`).
        Num(f64),
        /// String.
        Str(String),
        /// Array.
        Arr(Vec<Json>),
        /// Object (insertion-ordered).
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// Numeric value, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(x) => Some(*x),
                _ => None,
            }
        }

        /// Non-negative integer value, if this is a whole number below
        /// 2^53. Numbers are stored as `f64`, which holds every integer up
        /// to 2^53 exactly; a larger one (`1e300`) may not be the integer
        /// that was written and is rejected rather than saturated.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Json::Num(x) if *x >= 0.0 && *x < MAX_EXACT && x.fract() == 0.0 => Some(*x as u64),
                _ => None,
            }
        }

        /// String value.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Boolean value.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Json::Bool(b) => Some(*b),
                _ => None,
            }
        }
    }

    /// Parses `text` into a [`Json`] value (trailing whitespace allowed).
    /// Nesting deeper than [`MAX_DEPTH`] is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, *pos))
        }
    }

    /// Parses one value; `depth` counts the arrays and objects around it.
    fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
        skip_ws(b, pos);
        if depth >= MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", *pos));
        }
        match b.get(*pos) {
            Some(b'{') => parse_obj(b, pos, depth + 1),
            Some(b'[') => parse_arr(b, pos, depth + 1),
            Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Json::Null),
            Some(_) => parse_num(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", *pos))
        }
    }

    fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        let start = *pos;
        while *pos < b.len()
            && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("invalid \\u escape")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                            *pos += 4;
                        }
                        _ => return Err("invalid escape".into()),
                    }
                    *pos += 1;
                }
                c => {
                    // Multi-byte UTF-8 sequences pass through unharmed: we
                    // copy bytes until the next ASCII quote/backslash.
                    let start = *pos;
                    while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                        *pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?,
                    );
                    let _ = c;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            let value = parse_value(b, pos, depth)?;
            fields.push((key, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }

    fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(parse_value(b, pos, depth)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rrb_engine::Simulation;
    use rrb_graph::NodeId;

    fn sample_specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::new(
                "e1-style",
                GraphSpec::RandomRegular { n: 1024, d: 8 },
                ProtocolSpec::FourChoice {
                    n_estimate: 1024,
                    degree: 8,
                    alpha: 1.5,
                    choices: 4,
                    regime: RegimeSpec::Auto,
                },
            ),
            ScenarioSpec::new(
                "failures",
                GraphSpec::Gnp { n: 512, expected_degree: 18.0 },
                ProtocolSpec::Budgeted {
                    mode: GossipModeSpec::Push,
                    n: 512,
                    budget: 3.0,
                    policy: PolicySpec::STANDARD,
                },
            )
            .with_failures(FailureSpec { channel: 0.1, transmission: 0.05, crash: 0.01 })
            .with_stop(StopSpec::Coverage { max_rounds: 500 })
            .with_measure(MeasureSpec::Trace),
            ScenarioSpec::new(
                "product",
                GraphSpec::ProductK { base_n: 128, base_d: 8, clique: 5 },
                ProtocolSpec::Ablated {
                    n_estimate: 640,
                    degree: 12,
                    alpha: 0.5,
                    phase1_always_push: true,
                    no_pull: false,
                },
            )
            .with_measure(MeasureSpec::Custom("growth-factor".into())),
            ScenarioSpec::new(
                "memory-push",
                GraphSpec::PreferentialAttachment { n: 256, m: 4 },
                ProtocolSpec::FloodPush { policy: PolicySpec::Memory(3) },
            )
            .with_stop(StopSpec::Coverage { max_rounds: 10_000 }),
            ScenarioSpec::new(
                "counter",
                GraphSpec::Complete { n: 64 },
                ProtocolSpec::MedianCounter {
                    n: 64,
                    ctr_max: Some(5),
                    c_rounds: None,
                    age_cutoff: None,
                },
            ),
            ScenarioSpec::new(
                "quasi",
                GraphSpec::Hypercube { dim: 6 },
                ProtocolSpec::Quasirandom { max_age: Some(40) },
            ),
            ScenarioSpec::new(
                "churny",
                GraphSpec::RandomRegular { n: 512, d: 8 },
                ProtocolSpec::FourChoice {
                    n_estimate: 512,
                    degree: 8,
                    alpha: 1.5,
                    choices: 4,
                    regime: RegimeSpec::Auto,
                },
            )
            .with_dynamics(DynamicsSpec::Churn(ChurnSpec {
                joins_per_round: 4.0,
                leaves_per_round: 2.5,
                min_alive: Some(128),
                rewire_per_round: 8,
            })),
            ScenarioSpec::new(
                "churny-defaults",
                GraphSpec::RandomRegular { n: 256, d: 6 },
                ProtocolSpec::FloodPushPull { policy: PolicySpec::Distinct(4) },
            )
            .with_dynamics(DynamicsSpec::Churn(ChurnSpec::symmetric(1.0))),
            ScenarioSpec::new(
                "faulty",
                GraphSpec::RandomRegular { n: 256, d: 8 },
                ProtocolSpec::FloodPushPull { policy: PolicySpec::Distinct(4) },
            )
            .with_failures(FaultSpec {
                rates: FailureSpec { channel: 0.05, transmission: 0.0, crash: 0.0 },
                burst: Some(GilbertElliott {
                    p_gb: 0.1,
                    p_bg: 0.4,
                    loss_good: 0.01,
                    loss_bad: 0.75,
                }),
                schedule: vec![
                    FaultEvent::Partition { from: 2, until: 10, parts: 2 },
                    FaultEvent::CrashNodes { at: 4, nodes: vec![1, 17, 33] },
                    FaultEvent::LossWindow {
                        from: 6,
                        until: 12,
                        channel: Some(0.4),
                        transmission: None,
                    },
                ],
                adversary: Some(AdversarySpec::new(AdversaryTarget::HighestDegree, 1, 8)),
                outages: Some(OutageSpec::new(0.05, 2, 5)),
            })
            .with_stop(StopSpec::Coverage { max_rounds: 400 })
            .with_measure(MeasureSpec::Degradation),
            ScenarioSpec::new(
                "async-poisson",
                GraphSpec::RandomRegular { n: 512, d: 8 },
                ProtocolSpec::FloodPush { policy: PolicySpec::Distinct(4) },
            )
            .with_timing(TimingSpec::Async {
                clock: ClockSpec::Exponential { rate: 1.5 },
                latency: LatencySpec::Uniform { min: 0.05, max: 0.5 },
            })
            .with_stop(StopSpec::Coverage { max_rounds: 200 }),
            ScenarioSpec::new(
                "async-stragglers",
                GraphSpec::RandomRegular { n: 256, d: 8 },
                ProtocolSpec::FloodPushPull { policy: PolicySpec::Distinct(4) },
            )
            .with_timing(TimingSpec::Async {
                clock: ClockSpec::Stragglers { rate: 1.0, slow_fraction: 0.2, slow_factor: 4.0 },
                latency: LatencySpec::Exponential { mean: 0.25 },
            }),
            ScenarioSpec::new(
                "async-fixed",
                GraphSpec::Complete { n: 64 },
                ProtocolSpec::Silent,
            )
            .with_timing(TimingSpec::Async {
                clock: ClockSpec::Fixed { interval: 2.0 },
                latency: LatencySpec::Fixed { delay: 0.1 },
            }),
            ScenarioSpec::new(
                "async-spectral",
                GraphSpec::RandomRegular { n: 512, d: 16 },
                ProtocolSpec::Silent,
            )
            .with_measure(MeasureSpec::SpectralAudit),
        ]
    }

    #[test]
    fn json_round_trip_preserves_every_spec() {
        for spec in sample_specs() {
            let json = spec.to_json();
            let back = ScenarioSpec::from_json(&json)
                .unwrap_or_else(|e| panic!("{}: {e}\n{json}", spec.label));
            assert_eq!(spec, back, "round trip changed the spec:\n{json}");
        }
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(ScenarioSpec::from_json("").is_err());
        assert!(ScenarioSpec::from_json("{}").is_err());
        assert!(ScenarioSpec::from_json("{\"label\": \"x\"}").is_err());
        assert!(ScenarioSpec::from_json(
            "{\"label\": \"x\", \"graph\": {\"kind\": \"blob\"}, \
             \"protocol\": {\"kind\": \"silent\"}}"
        )
        .is_err());
        // Unknown schema versions are refused loudly.
        assert!(ScenarioSpec::from_json(
            "{\"schema\": \"rrb-scenario-v999\", \"label\": \"x\", \
             \"graph\": {\"kind\": \"complete\", \"n\": 4}, \
             \"protocol\": {\"kind\": \"silent\"}}"
        )
        .is_err());
    }

    #[test]
    fn json_nesting_is_bounded_instead_of_overflowing_the_stack() {
        // Regression: `[` × 200 000 recursed until the stack overflowed.
        let deep = "[".repeat(200_000);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        assert!(ScenarioSpec::list_from_json(&deep).is_err());
        let deep_obj = "{\"a\": ".repeat(200_000);
        assert!(parse_json(&deep_obj).unwrap_err().contains("nesting"));
        // MAX_DEPTH levels still parse; one more does not.
        let nest = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse_json(&nest(json::MAX_DEPTH)).is_ok());
        assert!(parse_json(&nest(json::MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn json_integers_must_be_exact() {
        let int = |text: &str| parse_json(text).unwrap().as_u64();
        assert_eq!(int("9007199254740991"), Some(9_007_199_254_740_991));
        assert_eq!(int("9007199254740992"), None, "2^53 is not exact");
        assert_eq!(int("1e300"), None);
        assert_eq!(int("-1"), None);
        assert_eq!(int("2.5"), None);
        // Regression: `"n": 1e300` saturated to u64::MAX, passed validation
        // and then panicked with "capacity overflow".
        assert!(ScenarioSpec::from_json(
            "{\"label\": \"x\", \"graph\": {\"kind\": \"complete\", \"n\": 1e300}, \
             \"protocol\": {\"kind\": \"silent\"}}"
        )
        .is_err());
    }

    #[test]
    fn json_rejects_mistyped_and_misspelled_fields() {
        let with = |failures: &str| {
            format!(
                "{{\"label\": \"x\", \"graph\": {{\"kind\": \"complete\", \"n\": 4}}, \
                 \"protocol\": {{\"kind\": \"silent\"}}, \"failures\": {failures}}}"
            )
        };
        // Baseline: well-formed failures parse.
        let ok = ScenarioSpec::from_json(&with("{\"channel\": 0.3}")).unwrap();
        assert_eq!(ok.failures.rates.channel, 0.3);
        // A mistyped value must error, never silently run failure-free.
        assert!(ScenarioSpec::from_json(&with("{\"channel\": \"0.3\"}")).is_err());
        // A misspelled key must error, never silently default.
        assert!(ScenarioSpec::from_json(&with("{\"chanel\": 0.3}")).is_err());
        // Out-of-range probabilities are refused.
        assert!(ScenarioSpec::from_json(&with("{\"crash\": 1.5}")).is_err());
        // Same strictness for stop, measure, and protocol parameters.
        assert!(ScenarioSpec::from_json(
            "{\"label\": \"x\", \"graph\": {\"kind\": \"complete\", \"n\": 4}, \
             \"protocol\": {\"kind\": \"silent\"}, \
             \"stop\": {\"mode\": \"coverage\", \"max_rounds\": \"many\"}}"
        )
        .is_err());
        assert!(ScenarioSpec::from_json(
            "{\"label\": \"x\", \"graph\": {\"kind\": \"complete\", \"n\": 4}, \
             \"protocol\": {\"kind\": \"silent\"}, \"measure\": {\"knd\": \"trace\"}}"
        )
        .is_err());
        assert!(ScenarioSpec::from_json(
            "{\"label\": \"x\", \"graph\": {\"kind\": \"complete\", \"n\": 4}, \
             \"protocol\": {\"kind\": \"four_choice\", \"n_estimate\": 4, \
             \"degree\": 3, \"apha\": 2.0}}"
        )
        .is_err());
        assert!(ScenarioSpec::from_json(
            "{\"label\": \"x\", \"graph\": {\"kind\": \"complete\", \"n\": 4}, \
             \"protocol\": {\"kind\": \"four_choice\", \"n_estimate\": 4, \
             \"degree\": 3, \"alpha\": \"big\"}}"
        )
        .is_err());
    }

    #[test]
    fn fault_spec_json_is_backward_compatible() {
        // A plain-rates spec serialises exactly as before the fault layer…
        let plain =
            ScenarioSpec::new("plain", GraphSpec::Complete { n: 8 }, ProtocolSpec::Silent)
                .with_failures(FailureSpec { channel: 0.1, transmission: 0.05, crash: 0.01 });
        let json = plain.to_json();
        assert!(
            json.contains(
                "\"failures\": {\"channel\": 0.1, \"transmission\": 0.05, \"crash\": 0.01}"
            ),
            "{json}"
        );
        assert!(!json.contains("burst") && !json.contains("schedule"), "{json}");
        // …and every pre-existing FailureSpec JSON parses to a plain plan.
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert!(back.failures.is_plain());
        assert!(!back.failures.is_none());
        assert_eq!(back.failures.rates.channel, 0.1);
        assert_eq!(back, plain);
        assert_eq!(FaultSpec::NONE.summary(), "none");
        assert!(FaultSpec::NONE.is_none());
    }

    #[test]
    fn sync_timing_serialises_to_nothing() {
        // A sync spec's JSON carries no timing block at all, mirroring
        // DynamicsSpec::Static — so every pre-async spec hash and
        // committed artifact stays byte-identical.
        let plain =
            ScenarioSpec::new("plain", GraphSpec::Complete { n: 8 }, ProtocolSpec::Silent);
        assert!(plain.timing.is_sync());
        let json = plain.to_json();
        assert!(!json.contains("timing"), "{json}");
        assert_eq!(ScenarioSpec::from_json(&json).unwrap(), plain);
        // An explicit sync block parses back to the same spec…
        let explicit = "{\"label\": \"plain\", \"graph\": {\"kind\": \"complete\", \"n\": 8}, \
             \"protocol\": {\"kind\": \"silent\"}, \"timing\": {\"mode\": \"sync\"}}";
        assert_eq!(ScenarioSpec::from_json(explicit).unwrap(), plain);
        // …and async latency defaults to zero when omitted.
        let defaulted = "{\"label\": \"plain\", \"graph\": {\"kind\": \"complete\", \"n\": 8}, \
             \"protocol\": {\"kind\": \"silent\"}, \"timing\": {\"mode\": \"async\", \
             \"clock\": {\"kind\": \"fixed\", \"interval\": 1.0}}}";
        let spec = ScenarioSpec::from_json(defaulted).unwrap();
        assert_eq!(
            spec.timing,
            TimingSpec::Async { clock: ClockSpec::UNIT, latency: LatencySpec::Zero }
        );
    }

    #[test]
    fn timing_json_validates_each_dimension() {
        let with = |timing: &str| {
            format!(
                "{{\"label\": \"x\", \"graph\": {{\"kind\": \"complete\", \"n\": 4}}, \
                 \"protocol\": {{\"kind\": \"silent\"}}, \"timing\": {timing}}}"
            )
        };
        // Baseline: a well-formed async block parses.
        let ok = ScenarioSpec::from_json(&with(
            "{\"mode\": \"async\", \"clock\": {\"kind\": \"exponential\", \"rate\": 2.0}, \
             \"latency\": {\"kind\": \"uniform\", \"min\": 0.1, \"max\": 0.4}}",
        ))
        .unwrap();
        assert!(!ok.timing.is_sync());
        // Sync must not smuggle a clock in.
        assert!(ScenarioSpec::from_json(&with(
            "{\"mode\": \"sync\", \"clock\": {\"kind\": \"fixed\", \"interval\": 1.0}}"
        ))
        .is_err());
        // Async requires a clock.
        assert!(ScenarioSpec::from_json(&with("{\"mode\": \"async\"}")).is_err());
        // Unknown clock kinds, non-positive rates and misspelled keys error.
        assert!(ScenarioSpec::from_json(&with(
            "{\"mode\": \"async\", \"clock\": {\"kind\": \"sundial\"}}"
        ))
        .is_err());
        assert!(ScenarioSpec::from_json(&with(
            "{\"mode\": \"async\", \"clock\": {\"kind\": \"exponential\", \"rate\": 0.0}}"
        ))
        .is_err());
        assert!(ScenarioSpec::from_json(&with(
            "{\"mode\": \"async\", \"clock\": {\"kind\": \"exponential\", \"rte\": 1.0}}"
        ))
        .is_err());
        // Stragglers validate their fraction and slowdown factor.
        assert!(ScenarioSpec::from_json(&with(
            "{\"mode\": \"async\", \"clock\": {\"kind\": \"stragglers\", \"rate\": 1.0, \
             \"slow_fraction\": 1.5, \"slow_factor\": 4.0}}"
        ))
        .is_err());
        assert!(ScenarioSpec::from_json(&with(
            "{\"mode\": \"async\", \"clock\": {\"kind\": \"stragglers\", \"rate\": 1.0, \
             \"slow_fraction\": 0.1, \"slow_factor\": 0.5}}"
        ))
        .is_err());
        // An inverted uniform latency window is refused.
        assert!(ScenarioSpec::from_json(&with(
            "{\"mode\": \"async\", \"clock\": {\"kind\": \"fixed\", \"interval\": 1.0}, \
             \"latency\": {\"kind\": \"uniform\", \"min\": 0.5, \"max\": 0.1}}"
        ))
        .is_err());
    }

    #[test]
    fn fault_json_validates_each_dimension() {
        let with = |failures: &str| {
            format!(
                "{{\"label\": \"x\", \"graph\": {{\"kind\": \"complete\", \"n\": 4}}, \
                 \"protocol\": {{\"kind\": \"silent\"}}, \"failures\": {failures}}}"
            )
        };
        // Rates are validated to [0, 1): total loss is not a rate.
        assert!(ScenarioSpec::from_json(&with("{\"channel\": 1.0}")).is_err());
        // Burst chain parameters must be present and probabilities.
        assert!(ScenarioSpec::from_json(&with(
            "{\"burst\": {\"p_gb\": 1.5, \"p_bg\": 0.5, \"loss_good\": 0.0, \"loss_bad\": 0.8}}"
        ))
        .is_err());
        assert!(ScenarioSpec::from_json(&with("{\"burst\": {\"p_gb\": 0.5}}")).is_err());
        // Unknown event kinds, zero-part partitions and bad node lists.
        assert!(ScenarioSpec::from_json(&with(
            "{\"schedule\": [{\"kind\": \"partitio\", \"from\": 1, \"until\": 2, \"parts\": 2}]}"
        ))
        .is_err());
        assert!(ScenarioSpec::from_json(&with(
            "{\"schedule\": [{\"kind\": \"partition\", \"from\": 1, \"until\": 2, \"parts\": 0}]}"
        ))
        .is_err());
        assert!(ScenarioSpec::from_json(&with(
            "{\"schedule\": [{\"kind\": \"crash_nodes\", \"at\": 1, \"nodes\": [1, -2]}]}"
        ))
        .is_err());
        assert!(ScenarioSpec::from_json(&with("{\"schedule\": 3}")).is_err());
        // Adversary target names form a closed set.
        assert!(ScenarioSpec::from_json(&with(
            "{\"adversary\": {\"target\": \"tallest\", \"per_round\": 1, \"budget\": 2}}"
        ))
        .is_err());
        // Outage windows must be ordered, at least one round, sub-certain.
        assert!(ScenarioSpec::from_json(&with(
            "{\"outages\": {\"rate\": 0.1, \"min_down\": 5, \"max_down\": 2}}"
        ))
        .is_err());
        assert!(ScenarioSpec::from_json(&with(
            "{\"outages\": {\"rate\": 0.1, \"min_down\": 0, \"max_down\": 2}}"
        ))
        .is_err());
        assert!(ScenarioSpec::from_json(&with(
            "{\"outages\": {\"rate\": 1.0, \"min_down\": 1, \"max_down\": 2}}"
        ))
        .is_err());
        // A valid full plan parses and compiles.
        let ok = ScenarioSpec::from_json(&with(
            "{\"channel\": 0.1, \
              \"burst\": {\"p_gb\": 0.1, \"p_bg\": 0.4, \"loss_good\": 0.0, \"loss_bad\": 0.8}, \
              \"schedule\": [{\"kind\": \"partition\", \"from\": 2, \"until\": 9, \"parts\": 3}, \
                             {\"kind\": \"loss_window\", \"from\": 3, \"until\": 5, \
                              \"transmission\": 0.6}], \
              \"adversary\": {\"target\": \"earliest_informed\", \"per_round\": 1, \"budget\": 4}, \
              \"outages\": {\"rate\": 0.05, \"min_down\": 1, \"max_down\": 3}}"
        ))
        .unwrap();
        assert!(!ok.failures.is_plain());
        assert_eq!(ok.failures.heal_round(), Some(9));
        let plan = ok.failures.to_plan();
        assert!(!plan.is_empty());
        assert_eq!(plan.schedule.len(), 2);
        assert!(plan.adversary.is_some() && plan.burst.is_some() && plan.outages.is_some());
        let summary = ok.failures.summary();
        for needle in ["iid(ch=0.1)", "burst", "partition(x3 [2,9))", "adversary", "outages"] {
            assert!(summary.contains(needle), "{summary:?} missing {needle:?}");
        }
    }

    #[test]
    fn dynamics_json_round_trips_and_validates_strictly() {
        let with = |dynamics: &str| {
            format!(
                "{{\"label\": \"x\", \"graph\": {{\"kind\": \"complete\", \"n\": 8}}, \
                 \"protocol\": {{\"kind\": \"silent\"}}, \"dynamics\": {dynamics}}}"
            )
        };
        // Well-formed churn parses with defaults resolved lazily.
        let ok = ScenarioSpec::from_json(&with(
            "{\"churn\": {\"joins_per_round\": 2, \"leaves_per_round\": 0.5}}",
        ))
        .unwrap();
        let DynamicsSpec::Churn(c) = ok.dynamics else { panic!("expected churn") };
        assert_eq!(c.joins_per_round, 2.0);
        assert_eq!(c.leaves_per_round, 0.5);
        assert_eq!(c.min_alive, None);
        assert_eq!(c.rewire_per_round, 0);
        assert_eq!(c.to_process(100).min_alive, 50, "min_alive defaults to n/2");
        // An empty dynamics object means static.
        assert!(ScenarioSpec::from_json(&with("{}")).unwrap().dynamics.is_static());
        // Misspelled / mistyped / out-of-range fields error loudly.
        assert!(ScenarioSpec::from_json(&with("{\"chrn\": {}}")).is_err());
        assert!(ScenarioSpec::from_json(&with(
            "{\"churn\": {\"joins_per_rnd\": 2}}"
        ))
        .is_err());
        assert!(ScenarioSpec::from_json(&with(
            "{\"churn\": {\"joins_per_round\": \"two\"}}"
        ))
        .is_err());
        assert!(ScenarioSpec::from_json(&with(
            "{\"churn\": {\"joins_per_round\": -1}}"
        ))
        .is_err());
        assert!(ScenarioSpec::from_json(&with(
            "{\"churn\": {\"min_alive\": 1.5}}"
        ))
        .is_err());
    }

    #[test]
    fn spec_arrays_parse_as_ladders() {
        let one = ScenarioSpec::new("solo", GraphSpec::Complete { n: 8 }, ProtocolSpec::Silent);
        // A single object still parses through the list entry point.
        let parsed = ScenarioSpec::list_from_json(&one.to_json()).unwrap();
        assert_eq!(parsed, vec![one]);
        // An array parses element-wise, order preserved.
        let ladder = sample_specs();
        let joined = format!(
            "[\n{}\n]",
            ladder.iter().map(|s| s.to_json()).collect::<Vec<_>>().join(",\n")
        );
        let parsed = ScenarioSpec::list_from_json(&joined).unwrap();
        assert_eq!(parsed, ladder);
        // Errors name the offending element.
        let err = ScenarioSpec::list_from_json("[{\"label\": \"x\"}]").unwrap_err();
        assert!(err.starts_with("scenario [0]"), "{err}");
        assert!(ScenarioSpec::list_from_json("[]").is_err());
    }

    #[test]
    fn unrunnable_specs_are_rejected_at_parse_time() {
        // Each of these once panicked, aborted or silently ran something
        // else; every one must now be a parse error that names the cause.
        let spec = |graph: &str, extra: &str| {
            format!(
                "{{\"label\": \"x\", \"graph\": {graph}, \
                 \"protocol\": {{\"kind\": \"flood_push_pull\"}}{extra}}}"
            )
        };
        let rr = "{\"kind\": \"random_regular\", \"n\": 64, \"d\": 4}";
        let churn =
            ", \"dynamics\": {\"churn\": {\"joins_per_round\": 1, \"leaves_per_round\": 1}}";
        let cases = [
            (
                "churn + fault plan",
                spec(rr, &format!(
                    "{churn}, \"failures\": {{\"schedule\": \
                     [{{\"kind\": \"partition\", \"from\": 1, \"until\": 5, \"parts\": 2}}]}}"
                )),
                "fault plan",
            ),
            (
                "churn + async timing",
                spec(rr, &format!(
                    "{churn}, \"timing\": {{\"mode\": \"async\", \
                     \"clock\": {{\"kind\": \"exponential\", \"rate\": 1}}}}"
                )),
                "sync timing",
            ),
            ("n = 0", spec("{\"kind\": \"complete\", \"n\": 0}", ""), "outside 1..="),
            ("hypercube dim 64", spec("{\"kind\": \"hypercube\", \"dim\": 64}", ""), "overflows"),
            (
                "hypercube dim 40",
                spec("{\"kind\": \"hypercube\", \"dim\": 40}", ""),
                "outside 1..=",
            ),
            (
                "torus 2^32 x 2^32",
                spec("{\"kind\": \"torus\", \"rows\": 4294967296, \"cols\": 4294967296}", ""),
                "overflows",
            ),
        ];
        for (name, json, cause) in cases {
            let err = ScenarioSpec::from_json(&json).expect_err(name);
            assert!(err.contains(cause), "{name}: {err}");
            let err = ScenarioSpec::list_from_json(&format!("[{json}]")).expect_err(name);
            assert!(err.starts_with("scenario [0]") && err.contains(cause), "{name}: {err}");
        }
        // The same shapes without the offending dimension parse.
        assert!(ScenarioSpec::from_json(&spec(rr, churn)).is_ok());
        let ok_dim = spec("{\"kind\": \"hypercube\", \"dim\": 31}", "");
        assert!(ScenarioSpec::from_json(&ok_dim).is_ok());
    }

    #[test]
    fn check_runnable_rejects_what_constructors_assert_on() {
        // Specs built in code, as the ad-hoc flag mode builds them: each
        // once reached a constructor assertion (exit 101) or ran a
        // zero-choice protocol.
        let four = |n_estimate, alpha, choices| ProtocolSpec::FourChoice {
            n_estimate,
            degree: 1,
            alpha,
            choices,
            regime: RegimeSpec::Auto,
        };
        let ablated = |n_estimate, alpha| ProtocolSpec::Ablated {
            n_estimate,
            degree: 4,
            alpha,
            phase1_always_push: false,
            no_pull: false,
        };
        let rates = |channel, transmission, crash| FailureSpec { channel, transmission, crash };
        let ok_rates = rates(0.0, 0.5, 0.0);
        let cases = [
            (four(1, 1.5, 4), ok_rates, Some("n_estimate")),
            (four(2, 1.5, 4), ok_rates, None),
            (four(64, -1.0, 4), ok_rates, Some("alpha")),
            (four(64, f64::NAN, 4), ok_rates, Some("alpha")),
            (four(64, f64::INFINITY, 4), ok_rates, Some("alpha")),
            (four(64, 1.5, 0), ok_rates, Some("choices")),
            (four(64, 1.5, 1), ok_rates, None),
            (
                ProtocolSpec::SequentialFourChoice { n_estimate: 1, degree: 4 },
                ok_rates,
                Some("n_estimate"),
            ),
            (ablated(0, 1.5), ok_rates, Some("n_estimate")),
            (ablated(64, 0.0), ok_rates, Some("alpha")),
            (ProtocolSpec::Silent, rates(1.0, 0.0, 0.0), Some("channel")),
            (ProtocolSpec::Silent, rates(0.0, -0.1, 0.0), Some("transmission")),
            (ProtocolSpec::Silent, rates(0.0, 0.0, f64::NAN), Some("crash")),
            (ProtocolSpec::Silent, rates(0.99, 0.99, 0.99), None),
        ];
        for (protocol, failures, cause) in cases {
            let label = format!("{protocol:?} / {failures:?}");
            let spec = ScenarioSpec::new("x", GraphSpec::Complete { n: 8 }, protocol)
                .with_failures(failures);
            match (spec.check_runnable(), cause) {
                (Ok(()), None) => {}
                (Err(e), Some(cause)) => assert!(e.contains(cause), "{label}: {e}"),
                (got, want) => panic!("{label}: got {got:?}, want an error naming {want:?}"),
            }
        }
        // The same checks guard parsed specs.
        for protocol in [
            "{\"kind\": \"four_choice\", \"n_estimate\": 1, \"degree\": 1}",
            "{\"kind\": \"four_choice\", \"n_estimate\": 8, \"degree\": 1, \"alpha\": 1e309}",
            "{\"kind\": \"four_choice\", \"n_estimate\": 8, \"degree\": 1, \"choices\": 0}",
        ] {
            let json = format!(
                "{{\"label\": \"x\", \"graph\": {{\"kind\": \"complete\", \"n\": 8}}, \
                 \"protocol\": {protocol}}}"
            );
            assert!(ScenarioSpec::from_json(&json).is_err(), "{protocol}");
        }
    }

    #[test]
    fn graph_specs_build_expected_sizes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let specs = [
            GraphSpec::RandomRegular { n: 64, d: 4 },
            GraphSpec::ConfigurationModel { n: 64, d: 4 },
            GraphSpec::Gnp { n: 64, expected_degree: 8.0 },
            GraphSpec::Complete { n: 64 },
            GraphSpec::Hypercube { dim: 6 },
            GraphSpec::Torus { rows: 8, cols: 8 },
            GraphSpec::Cycle { n: 64 },
            GraphSpec::ProductK { base_n: 16, base_d: 4, clique: 4 },
            GraphSpec::PreferentialAttachment { n: 64, m: 4 },
        ];
        for spec in specs {
            let g = spec.build(&mut rng).unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
            assert_eq!(g.node_count(), spec.node_count(), "{}", spec.label());
        }
    }

    #[test]
    fn any_protocol_runs_every_variant_to_coverage() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = GraphSpec::RandomRegular { n: 128, d: 8 }.build(&mut rng).unwrap();
        let protos = [
            ProtocolSpec::FourChoice {
                n_estimate: 128,
                degree: 8,
                alpha: 1.5,
                choices: 4,
                regime: RegimeSpec::Auto,
            },
            ProtocolSpec::SequentialFourChoice { n_estimate: 128, degree: 8 },
            ProtocolSpec::Budgeted {
                mode: GossipModeSpec::PushPull,
                n: 128,
                budget: 3.0,
                policy: PolicySpec::STANDARD,
            },
            ProtocolSpec::PushThenPull { n: 128 },
            ProtocolSpec::MedianCounter { n: 128, ctr_max: None, c_rounds: None, age_cutoff: None },
            ProtocolSpec::Quasirandom { max_age: None },
            ProtocolSpec::FloodPush { policy: PolicySpec::STANDARD },
            ProtocolSpec::FloodPull { policy: PolicySpec::STANDARD },
            ProtocolSpec::FloodPushPull { policy: PolicySpec::STANDARD },
            ProtocolSpec::Ablated {
                n_estimate: 128,
                degree: 8,
                alpha: 1.5,
                phase1_always_push: false,
                no_pull: false,
            },
        ];
        for spec in protos {
            let proto = spec.build();
            let mut rng = SmallRng::seed_from_u64(3);
            let report = Simulation::new(&g, proto, SimConfig::default())
                .run(NodeId::new(0), &mut rng);
            assert!(
                report.coverage() > 0.9,
                "{}: coverage {}",
                spec.label(),
                report.coverage()
            );
        }
        // And the null protocol stays silent.
        let mut rng = SmallRng::seed_from_u64(4);
        let report = Simulation::new(&g, ProtocolSpec::Silent.build(), SimConfig::default())
            .run(NodeId::new(0), &mut rng);
        assert_eq!(report.total_tx(), 0);
    }

    #[test]
    fn any_protocol_matches_concrete_protocol_seed_for_seed() {
        // The enum dispatch layer must be a zero-cost wrapper in behaviour:
        // identical plans, identical RNG consumption, identical reports.
        let mut rng = SmallRng::seed_from_u64(5);
        let g = gen::random_regular(256, 8, &mut rng).unwrap();
        let spec = ProtocolSpec::FourChoice {
            n_estimate: 256,
            degree: 8,
            alpha: 1.5,
            choices: 4,
            regime: RegimeSpec::Auto,
        };
        let concrete = FourChoice::for_graph(256, 8);
        let run_any = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            Simulation::new(&g, spec.build(), SimConfig::until_quiescent().with_history())
                .run(NodeId::new(0), &mut rng)
        };
        let run_concrete = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            Simulation::new(&g, concrete, SimConfig::until_quiescent().with_history())
                .run(NodeId::new(0), &mut rng)
        };
        assert_eq!(run_any(9), run_concrete(9));
        // Stateful protocols too (MedianCounter carries CounterState).
        let mc_spec =
            ProtocolSpec::MedianCounter { n: 256, ctr_max: None, c_rounds: None, age_cutoff: None };
        let mc = MedianCounter::for_size(256);
        let any = {
            let mut rng = SmallRng::seed_from_u64(6);
            Simulation::new(&g, mc_spec.build(), SimConfig::until_quiescent())
                .run(NodeId::new(0), &mut rng)
        };
        let conc = {
            let mut rng = SmallRng::seed_from_u64(6);
            Simulation::new(&g, mc, SimConfig::until_quiescent()).run(NodeId::new(0), &mut rng)
        };
        assert_eq!(any, conc);
    }

    #[test]
    fn capabilities_flow_through_the_enum() {
        // One row per `ProtocolSpec` kind: (spec, uses_push, uses_pull,
        // oblivious). The stateful baselines must never claim the
        // oblivious shortcut; every oblivious kind must plan the same for
        // the creator as for anyone else, since the engine plans its
        // reception-round buckets with `is_creator: false`.
        let budgeted = |mode| ProtocolSpec::Budgeted {
            mode,
            n: 64,
            budget: 3.0,
            policy: PolicySpec::STANDARD,
        };
        let ablated = |no_pull| ProtocolSpec::Ablated {
            n_estimate: 64,
            degree: 8,
            alpha: 1.5,
            phase1_always_push: true,
            no_pull,
        };
        let table = [
            (
                ProtocolSpec::FourChoice {
                    n_estimate: 64,
                    degree: 8,
                    alpha: 1.5,
                    choices: 4,
                    regime: RegimeSpec::Auto,
                },
                true,
                true,
                true,
            ),
            (ProtocolSpec::SequentialFourChoice { n_estimate: 64, degree: 8 }, true, true, true),
            (budgeted(GossipModeSpec::Push), true, false, true),
            (budgeted(GossipModeSpec::Pull), false, true, true),
            (budgeted(GossipModeSpec::PushPull), true, true, true),
            (ProtocolSpec::PushThenPull { n: 64 }, true, true, false),
            (
                ProtocolSpec::MedianCounter {
                    n: 64,
                    ctr_max: None,
                    c_rounds: None,
                    age_cutoff: None,
                },
                true,
                true,
                false,
            ),
            (ProtocolSpec::Quasirandom { max_age: Some(9) }, true, false, true),
            (ProtocolSpec::FloodPush { policy: PolicySpec::STANDARD }, true, false, true),
            (ProtocolSpec::FloodPull { policy: PolicySpec::STANDARD }, false, true, true),
            (ProtocolSpec::FloodPushPull { policy: PolicySpec::STANDARD }, true, true, true),
            (ProtocolSpec::Silent, false, false, true),
            (ablated(true), true, false, true),
            (ablated(false), true, true, true),
        ];
        for (spec, uses_push, uses_pull, oblivious) in table {
            let proto = spec.build();
            let label = spec.label();
            assert_eq!(
                proto.capabilities(),
                Capabilities { uses_push, uses_pull, oblivious },
                "{label}"
            );
            if !oblivious {
                continue;
            }
            let state = proto.init(false);
            let last = proto.deadline().unwrap_or(40) + 2;
            for t in 1..=last {
                for informed_at in 0..=t {
                    let plan = |is_creator| {
                        proto.plan(NodeView { informed_at, is_creator, state: &state }, t)
                    };
                    let at = informed_at;
                    assert_eq!(plan(true), plan(false), "{label}: informed_at {at}, t {t}");
                }
            }
        }
    }

    #[test]
    fn sim_config_compiles_stop_failures_measure() {
        let spec = ScenarioSpec::new(
            "cfg",
            GraphSpec::Complete { n: 8 },
            ProtocolSpec::Silent,
        )
        .with_failures(FailureSpec { channel: 0.2, transmission: 0.0, crash: 0.05 })
        .with_stop(StopSpec::Coverage { max_rounds: 77 })
        .with_measure(MeasureSpec::Trace);
        let cfg = spec.sim_config();
        assert!(cfg.stop_at_coverage);
        assert_eq!(cfg.max_rounds, 77);
        assert!(cfg.record_history);
        assert_eq!(cfg.failures.channel_failure, 0.2);
        assert_eq!(cfg.failures.node_crash, 0.05);
        let quiet = ScenarioSpec::new("q", GraphSpec::Complete { n: 8 }, ProtocolSpec::Silent)
            .sim_config();
        assert!(!quiet.stop_at_coverage);
        assert!(quiet.failures.is_none());
    }
}
