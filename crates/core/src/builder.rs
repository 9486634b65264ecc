use rrb_engine::ChoicePolicy;

use crate::{DegreeRegime, FourChoice, PhaseSchedule};

/// Builder for [`FourChoice`], exposing every knob the paper discusses.
///
/// ```
/// use rrb_core::{AlgorithmVariant, FourChoice};
///
/// let alg = FourChoice::builder(1 << 14, 8)
///     .alpha(2.5)
///     .force_small_degree()
///     .build();
/// assert_eq!(alg.schedule().variant(), AlgorithmVariant::SmallDegree);
/// ```
#[derive(Debug, Clone)]
pub struct FourChoiceBuilder {
    n_estimate: usize,
    degree: usize,
    alpha: f64,
    regime: DegreeRegime,
    policy: ChoicePolicy,
}

impl FourChoiceBuilder {
    /// Starts a builder for a network of estimated size `n_estimate` (a
    /// constant-factor estimate suffices, §1.2) and degree `degree`.
    pub fn new(n_estimate: usize, degree: usize) -> Self {
        FourChoiceBuilder {
            n_estimate,
            degree,
            alpha: 1.5,
            regime: DegreeRegime::default(),
            policy: ChoicePolicy::FOUR,
        }
    }

    /// Sets the schedule constant `α` (default 1.5). The theory wants `α`
    /// "sufficiently large"; empirically values ≥ 1 complete reliably on the
    /// degrees the paper covers, and larger `α` trades rounds for safety
    /// margin.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Overrides the automatic degree-regime selection.
    pub fn regime(mut self, regime: DegreeRegime) -> Self {
        self.regime = regime;
        self
    }

    /// Forces Algorithm 1 (four phases, small-degree analysis).
    pub fn force_small_degree(self) -> Self {
        self.regime(DegreeRegime::ForceSmall)
    }

    /// Replaces the four-distinct-choices policy — the k-choice ablation
    /// (experiment E6: are four choices necessary?) sets `Distinct(k)` here.
    pub fn choice_policy(mut self, policy: ChoicePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Finalises the algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 0` or `n_estimate < 2` (via
    /// [`PhaseSchedule::new`]).
    pub fn build(self) -> FourChoice {
        let variant = self.regime.resolve(self.n_estimate, self.degree);
        let schedule = PhaseSchedule::new(self.n_estimate, self.alpha, variant);
        FourChoice::with_schedule(schedule, self.policy)
    }
}

#[cfg(test)]
impl FourChoice {
    /// Test helper exposing the policy without going through the Protocol
    /// trait.
    pub(crate) fn choice_policy_public(&self) -> ChoicePolicy {
        use rrb_engine::Protocol as _;
        self.choice_policy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlgorithmVariant;

    #[test]
    fn defaults() {
        let alg = FourChoiceBuilder::new(1 << 16, 8).build();
        assert_eq!(alg.choice_policy_public(), ChoicePolicy::FOUR);
        assert_eq!(alg.schedule().variant(), AlgorithmVariant::SmallDegree);
    }

    #[test]
    fn regime_overrides() {
        let alg = FourChoiceBuilder::new(1 << 16, 8).regime(DegreeRegime::ForceLarge).build();
        assert_eq!(alg.schedule().variant(), AlgorithmVariant::LargeDegree);
        let alg = FourChoiceBuilder::new(1 << 16, 64).force_small_degree().build();
        assert_eq!(alg.schedule().variant(), AlgorithmVariant::SmallDegree);
    }

    #[test]
    fn alpha_scales_schedule() {
        let short = FourChoiceBuilder::new(1 << 12, 8).alpha(1.0).build();
        let long = FourChoiceBuilder::new(1 << 12, 8).alpha(3.0).build();
        assert!(long.total_rounds() > 2 * short.total_rounds());
    }

    #[test]
    fn custom_policy() {
        let alg = FourChoiceBuilder::new(1 << 12, 8)
            .choice_policy(ChoicePolicy::Distinct(2))
            .build();
        assert_eq!(alg.choice_policy_public(), ChoicePolicy::Distinct(2));
    }
}
