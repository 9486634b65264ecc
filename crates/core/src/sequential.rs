use rrb_engine::{
    Capabilities, ChoicePolicy, NodeView, Observation, Plan, Protocol, Round, RumorMeta,
};

use crate::{FourChoice, Phase, PhaseSchedule};

/// The **sequentialised** variant of the algorithm (paper footnote 2).
///
/// Instead of opening four channels at once, each node opens **one** channel
/// per step towards a neighbour chosen i.u.r. among those *not* contacted in
/// the last three steps. Four such steps simulate one step of the parallel
/// four-choice model, so the phase schedule is the parallel schedule with
/// every boundary stretched by 4. The paper notes "our results can easily be
/// extended to the sequentialised version"; experiment E7 verifies the two
/// variants match in transmissions while the sequential one takes ~4× the
/// rounds.
///
/// ```
/// use rrb_core::{FourChoice, SequentialFourChoice};
///
/// let parallel = FourChoice::for_graph(1 << 12, 8);
/// let sequential = SequentialFourChoice::from_parallel(&parallel);
/// assert_eq!(sequential.total_rounds(), 4 * parallel.total_rounds());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialFourChoice {
    /// Stretched schedule (boundaries ×4).
    schedule: PhaseSchedule,
}

/// Number of sequential steps that emulate one parallel step.
const BLOCK: Round = 4;

impl SequentialFourChoice {
    /// Builds the sequential variant emulating `parallel`.
    pub fn from_parallel(parallel: &FourChoice) -> Self {
        SequentialFourChoice { schedule: parallel.schedule().stretched(BLOCK) }
    }

    /// Convenience constructor mirroring [`FourChoice::for_graph`].
    pub fn for_graph(n_estimate: usize, degree: usize) -> Self {
        SequentialFourChoice::from_parallel(&FourChoice::for_graph(n_estimate, degree))
    }

    /// The stretched schedule.
    pub fn schedule(&self) -> &PhaseSchedule {
        &self.schedule
    }

    /// Rounds until the protocol goes silent (4× the parallel count).
    pub fn total_rounds(&self) -> Round {
        self.schedule.end()
    }

    /// The parallel-model block a sequential round belongs to (1-based).
    fn block_of(t: Round) -> Round {
        t.div_ceil(BLOCK)
    }
}

impl Protocol for SequentialFourChoice {
    type State = ();

    fn init(&self, _creator: bool) -> Self::State {}

    fn choice_policy(&self) -> ChoicePolicy {
        ChoicePolicy::SequentialMemory { window: (BLOCK - 1) as usize }
    }

    fn plan(&self, view: NodeView<'_, Self::State>, t: Round) -> Plan {
        let meta = RumorMeta { age: t, counter: 0 };
        match self.schedule.phase(t) {
            // Phase 1: a node informed in block b pushes during every step
            // of block b+1 (the memory makes the four pushes hit four
            // distinct neighbours, emulating one parallel four-choice push).
            Phase::One => {
                let my_block = Self::block_of(view.informed_at);
                // The creator (informed_at == 0) belongs to block 0.
                let my_block = if view.informed_at == 0 { 0 } else { my_block };
                if Self::block_of(t) == my_block + 1 {
                    Plan::push_with(meta)
                } else {
                    Plan::SILENT
                }
            }
            Phase::Two => Plan::push_with(meta),
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

    fn update(
        &self,
        _state: &mut Self::State,
        _informed_at: Option<Round>,
        _t: Round,
        _obs: &Observation,
    ) {
    }

    fn is_quiescent(&self, _state: &Self::State, _informed_at: Round, t: Round) -> bool {
        self.schedule.is_done(t)
    }

    fn deadline(&self) -> Option<Round> {
        Some(self.schedule.end())
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities { oblivious: true, ..Capabilities::ALL }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rrb_engine::{SimConfig, Simulation};
    use rrb_graph::{gen, NodeId};

    fn view(informed_at: Round) -> NodeView<'static, ()> {
        NodeView { informed_at, is_creator: informed_at == 0, state: &() }
    }

    #[test]
    fn creator_pushes_through_first_block() {
        let alg = SequentialFourChoice::for_graph(1 << 12, 8);
        for t in 1..=4 {
            assert!(alg.plan(view(0), t).push, "creator silent at t={t}");
        }
        assert!(!alg.plan(view(0), 5).transmits());
    }

    #[test]
    fn newly_informed_push_in_next_block_only() {
        let alg = SequentialFourChoice::for_graph(1 << 12, 8);
        // Node informed at t=6 (block 2) pushes during block 3 (t=9..=12).
        for t in 7..=8 {
            assert!(!alg.plan(view(6), t).transmits(), "pushed early at {t}");
        }
        for t in 9..=12 {
            assert!(alg.plan(view(6), t).push, "silent at {t}");
        }
        assert!(!alg.plan(view(6), 13).transmits());
    }

    #[test]
    fn uses_memory_policy() {
        let alg = SequentialFourChoice::for_graph(1 << 12, 8);
        assert_eq!(
            alg.choice_policy(),
            ChoicePolicy::SequentialMemory { window: 3 }
        );
    }

    #[test]
    fn completes_broadcast() {
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 1 << 10;
        let g = gen::random_regular(n, 8, &mut rng).unwrap();
        let alg = SequentialFourChoice::for_graph(n, 8);
        let report = Simulation::new(&g, alg, SimConfig::until_quiescent())
            .run(NodeId::new(0), &mut rng);
        assert!(report.all_informed(), "coverage {}", report.coverage());
    }

    #[test]
    fn transmissions_match_parallel_order() {
        // Sequential and parallel variants should spend a comparable number
        // of transmissions (same asymptotics, footnote 2).
        let n = 1 << 10;
        let mut rng = SmallRng::seed_from_u64(10);
        let g = gen::random_regular(n, 8, &mut rng).unwrap();
        let par = FourChoice::for_graph(n, 8);
        let seq = SequentialFourChoice::from_parallel(&par);
        let rp = Simulation::new(&g, par, SimConfig::until_quiescent())
            .run(NodeId::new(0), &mut rng);
        let rs = Simulation::new(&g, seq, SimConfig::until_quiescent())
            .run(NodeId::new(0), &mut rng);
        assert!(rp.all_informed() && rs.all_informed());
        let ratio = rs.total_tx() as f64 / rp.total_tx() as f64;
        assert!(
            (0.4..2.5).contains(&ratio),
            "sequential/parallel tx ratio {ratio} out of range"
        );
        // Rounds stretch by exactly 4x (same schedule, stretched).
        assert_eq!(rs.rounds, 4 * rp.rounds);
    }
}
