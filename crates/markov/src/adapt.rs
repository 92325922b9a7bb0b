//! Forward–backward model adaptation (Section 5.2, Algorithm 2 of the paper).
//!
//! A traditional Monte-Carlo sampler that only uses the a-priori chain and the
//! first observation produces trajectories that almost never pass through the
//! later observations (Section 5.1, Figure 3): the expected number of attempts
//! per valid sample grows exponentially in the number of observations.
//!
//! The paper instead *adapts the model itself*: Bayesian inference transforms
//! the a-priori chain `M^o(t)` and the observations `Θ^o` into an
//! a-posteriori chain `F^o(t)` with
//!
//! ```text
//! F^o_ij(t) = P(o(t+1) = s_j | o(t) = s_i, Θ^o)
//! ```
//!
//! so that *every* realisation of the adapted chain is a possible trajectory
//! consistent with all observations, drawn exactly with its possible-world
//! probability.
//!
//! The construction has two phases, both `O(|T| · nnz)` over the states
//! the object can reach:
//!
//! 1. **Forward phase** — walk time forward from the first observation,
//!    propagating the belief state `P(o(t) = s | past^o(t))`. Each
//!    observation reached collapses the belief to the observed state. The
//!    paper materialises the *time-reversed* chain
//!    `R^o(t)_{ij} = P(o(t-1)=s_j | o(t)=s_i, past^o(t))` here via Bayes'
//!    theorem (Lemma 4): `R_ij(t) = M_ji(t-1) · p_j(t-1) / m_i(t)`, with
//!    `p_j(t-1)` the belief and `m_i(t)` the unnormalised predicted mass of
//!    `s_i`. The numerator is recomputed from the a-priori row and the
//!    stored belief when it is needed, so the pass keeps only the masses.
//! 2. **Backward phase** — walk time backwards from the last observation,
//!    propagating the information of *future* observations into the past
//!    (the reverse Markov property, Lemma 5). Step `t` yields the rows of
//!    `F^o(t)`, `F_ij(t) ∝ R_ji(t+1) · P(o(t+1) = s_j | Θ^o)`, and their
//!    masses are the a-posteriori marginal `P(o(t) = s_i | Θ^o)` up to
//!    normalisation.
//!
//! Neither phase builds a hash map. The forward phase sums each step's
//! predicted masses in a dense accumulator indexed by state id and sorts
//! the touched states. The backward phase *pushes*: it walks the a-priori
//! row of every state of the belief at `t`, in ascending state order, and
//! looks up the mass and the posterior at `t+1` of each target in a dense
//! buffer. Every row of `F(t)` so comes out sorted by target, with its
//! weights formed in the same order as the pull through `R(t+1)` forms
//! them, and is normalised straight into the [`AliasKernel`] arena. All
//! sums run in ascending state order, so the output is deterministic.

use crate::alias::{AliasKernel, StepRows};
use crate::model::TransitionModel;
use crate::sparse::{is_normalizable, SparseDist, PROB_EPSILON};
use crate::{StateId, Timestamp};

/// Errors produced by the model adaptation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptError {
    /// The observation set was empty.
    NoObservations,
    /// Observation timestamps were not strictly increasing.
    UnsortedObservations,
    /// An observation referenced a state outside the model's state space.
    StateOutOfRange {
        /// The offending observation time.
        time: Timestamp,
        /// The offending state.
        state: StateId,
    },
    /// The observations contradict the a-priori model: no possible trajectory
    /// of the chain visits all of them (Section 5.2.1 requires observations to
    /// be non-contradicting).
    ContradictoryObservations {
        /// The first time at which the belief state became incompatible.
        time: Timestamp,
    },
}

impl std::fmt::Display for AdaptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptError::NoObservations => write!(f, "object has no observations"),
            AdaptError::UnsortedObservations => {
                write!(f, "observation timestamps must be strictly increasing")
            }
            AdaptError::StateOutOfRange { time, state } => {
                write!(f, "observation at time {time} references unknown state {state}")
            }
            AdaptError::ContradictoryObservations { time } => {
                write!(f, "observations contradict the a-priori model at time {time}")
            }
        }
    }
}

impl std::error::Error for AdaptError {}

/// Configuration of the model adaptation.
///
/// The default configuration is the full forward–backward adaptation (the
/// "FB" model of Figure 12). Setting [`ModelAdaptation::uniform_transitions`]
/// reproduces the "FBU" ablation: the *support* of the a-priori chain is kept
/// but every transition out of a state is considered equally likely, as if the
/// turning probabilities had not been learned.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelAdaptation {
    /// Replace every a-priori row by a uniform distribution over its support
    /// ("FBU" in Figure 12).
    pub uniform_transitions: bool,
}

impl ModelAdaptation {
    /// The standard forward–backward adaptation.
    pub fn new() -> Self {
        Self::default()
    }

    /// The "FBU" ablation (uniform transition probabilities, learned support).
    pub fn with_uniform_transitions() -> Self {
        ModelAdaptation { uniform_transitions: true }
    }

    /// Runs Algorithm 2 for one object.
    ///
    /// `observations` must be sorted by strictly increasing time; each
    /// observation is a certain `(time, state)` pair.
    pub fn adapt<M: TransitionModel>(
        &self,
        model: &M,
        observations: &[(Timestamp, StateId)],
    ) -> Result<AdaptedModel, AdaptError> {
        if observations.is_empty() {
            return Err(AdaptError::NoObservations);
        }
        if observations.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(AdaptError::UnsortedObservations);
        }
        for &(time, state) in observations {
            if (state as usize) >= model.num_states() {
                return Err(AdaptError::StateOutOfRange { time, state });
            }
        }
        let (forward, masses) = self.forward_pass(model, observations)?;
        let (posterior, kernel) = self.backward_pass(model, observations, &forward, &masses)?;
        Ok(AdaptedModel {
            start: observations[0].0,
            end: observations[observations.len() - 1].0,
            forward,
            posterior,
            kernel,
            observations: observations.to_vec(),
        })
    }

    /// The a-priori row of `state` for the step `t → t+1` as `(target, m)`
    /// pairs in ascending target order; under "FBU" every `m` is uniform.
    fn prior_row<'m, M: TransitionModel>(
        &self,
        model: &'m M,
        state: StateId,
        t: Timestamp,
    ) -> impl Iterator<Item = (StateId, f64)> + 'm {
        let (cols, vals) = model.row(state, t);
        let uniform = self.uniform_transitions.then(|| 1.0 / cols.len() as f64);
        cols.iter().zip(vals).map(move |(&j, &m)| (j, uniform.unwrap_or(m)))
    }

    /// Forward phase: the belief at every covered timestamp, and per step
    /// `k` (the transition into `start + k + 1`) the unnormalised predicted
    /// mass `m_j` of every state whose mass `SparseDist::normalize` would
    /// accept — the states whose row of R(t) exists.
    fn forward_pass<M: TransitionModel>(
        &self,
        model: &M,
        observations: &[(Timestamp, StateId)],
    ) -> Result<(Vec<SparseDist>, StepMasses), AdaptError> {
        let (start, first) = observations[0];
        let horizon = (observations[observations.len() - 1].0 - start) as usize;
        let mut forward = Vec::with_capacity(horizon + 1);
        forward.push(SparseDist::delta(first));
        let mut masses = StepMasses::default();
        // Dense accumulator: `acc[j]` is zero exactly when `j` is not in
        // `touched`, since only positive weights are added.
        let mut acc = vec![0.0f64; model.num_states()];
        let mut touched: Vec<StateId> = Vec::new();
        let mut pending = observations[1..].iter().peekable();

        for step in 1..=horizon {
            let t = start + step as Timestamp;
            for (i, p_i) in forward[step - 1].iter() {
                for (j, m_ij) in self.prior_row(model, i, t - 1) {
                    let w = m_ij * p_i;
                    if w > 0.0 {
                        if acc[j as usize] == 0.0 {
                            touched.push(j);
                        }
                        acc[j as usize] += w;
                    }
                }
            }
            if touched.is_empty() {
                return Err(AdaptError::ContradictoryObservations { time: t });
            }
            touched.sort_unstable();
            let predicted: Vec<(StateId, f64)> =
                touched.drain(..).map(|j| (j, std::mem::take(&mut acc[j as usize]))).collect();
            masses.push_step(predicted.iter().copied().filter(|&(_, m)| is_normalizable(m)));

            let mut belief = SparseDist::from_sorted_unchecked(predicted);
            belief.normalize();
            if let Some(&(_, theta)) = pending.next_if(|&&(time, _)| time == t) {
                if belief.prob(theta) <= 0.0 {
                    return Err(AdaptError::ContradictoryObservations { time: t });
                }
                belief = SparseDist::delta(theta);
            }
            forward.push(belief);
        }
        Ok((forward, masses))
    }

    /// Backward phase: the posterior marginals and the rows of F(t).
    ///
    /// The row of `s_i` at `t` is pushed from the a-priori row of `s_i`:
    /// each target `s_j` with a predicted mass `m_j` at `t+1` gets the
    /// weight `((M_ij · p_i) / m_j) · post_j`, which is the time-reversed
    /// probability `R_ji(t+1)` times the posterior of `s_j`. The row's mass
    /// is the unnormalised posterior of `s_i`.
    fn backward_pass<M: TransitionModel>(
        &self,
        model: &M,
        observations: &[(Timestamp, StateId)],
        forward: &[SparseDist],
        masses: &StepMasses,
    ) -> Result<(Vec<SparseDist>, AliasKernel), AdaptError> {
        let start = observations[0].0;
        let horizon = forward.len() - 1;
        let mut posterior = vec![SparseDist::new(); horizon + 1];
        posterior[horizon] = SparseDist::delta(observations[observations.len() - 1].1);
        // `next[j]`: the predicted mass and the posterior of `s_j` at `t+1`,
        // zero for every state outside the step being processed.
        let mut next = vec![(0.0f64, 0.0f64); model.num_states()];
        // The rows of F(t), normalised, last step first.
        let mut staged = StepRows::default();
        let mut row: Vec<(StateId, f64)> = Vec::new();

        for step in (0..horizon).rev() {
            let t = start + step as Timestamp;
            let step_masses = masses.step(step);
            for &(j, m_j) in step_masses {
                next[j as usize].0 = m_j;
            }
            for (j, post_j) in posterior[step + 1].iter() {
                next[j as usize].1 = post_j;
            }
            let mut sums: Vec<(StateId, f64)> = Vec::new();
            for (i, p_i) in forward[step].iter() {
                row.clear();
                for (j, m_ij) in self.prior_row(model, i, t) {
                    let (m_j, post_j) = next[j as usize];
                    if m_j > 0.0 {
                        let w = ((m_ij * p_i) / m_j) * post_j;
                        if w > 0.0 {
                            row.push((j, w));
                        }
                    }
                }
                if row.is_empty() {
                    continue;
                }
                let mass: f64 = row.iter().map(|&(_, w)| w).sum();
                if !is_normalizable(mass) {
                    // `s_i` keeps posterior mass but its row cannot be
                    // normalised: only numerical underflow gets here.
                    return Err(AdaptError::ContradictoryObservations { time: t });
                }
                staged.push_row(i, row.iter().map(|&(j, w)| (j, w / mass)));
                sums.push((i, mass));
            }
            for &(j, _) in step_masses {
                next[j as usize] = (0.0, 0.0);
            }
            for (j, _) in posterior[step + 1].iter() {
                next[j as usize] = (0.0, 0.0);
            }
            if sums.is_empty() {
                // The forward phase guarantees a consistent corridor, so this
                // can only be triggered by numerical underflow.
                return Err(AdaptError::ContradictoryObservations { time: t });
            }
            staged.end_step();
            let mut dist = SparseDist::from_sorted_unchecked(sums);
            dist.normalize();
            posterior[step] = dist;
        }

        let mut kernel = AliasKernel::default();
        for k in (0..horizon).rev() {
            for (source, cols, probs) in staged.step(k) {
                kernel.push_row(source, cols.iter().copied().zip(probs.iter().copied()));
            }
            kernel.end_step();
        }
        Ok((posterior, kernel))
    }
}

/// The unnormalised predicted masses of the forward phase: per step, the
/// `(state, mass)` pairs in ascending state order, in one flat arena.
#[derive(Debug)]
struct StepMasses {
    /// `step_starts[k]..step_starts[k+1]` indexes the masses of step `k`.
    step_starts: Vec<usize>,
    masses: Vec<(StateId, f64)>,
}

impl Default for StepMasses {
    fn default() -> Self {
        StepMasses { step_starts: vec![0], masses: Vec::new() }
    }
}

impl StepMasses {
    /// Appends the masses of the next step, in ascending state order.
    fn push_step(&mut self, masses: impl IntoIterator<Item = (StateId, f64)>) {
        self.masses.extend(masses);
        self.step_starts.push(self.masses.len());
    }

    /// The masses of step `k`.
    fn step(&self, k: usize) -> &[(StateId, f64)] {
        &self.masses[self.step_starts[k]..self.step_starts[k + 1]]
    }
}

/// The a-posteriori model of one uncertain object: the output of Algorithm 2.
///
/// It covers the closed timestamp interval `[start, end]` spanned by the
/// object's observations.
#[derive(Debug, Clone)]
pub struct AdaptedModel {
    start: Timestamp,
    end: Timestamp,
    /// `forward[k]`: P(o(start+k) = s | observations at times ≤ start+k).
    forward: Vec<SparseDist>,
    /// `posterior[k]`: P(o(start+k) = s | all observations Θ).
    posterior: Vec<SparseDist>,
    /// The only store of the a-posteriori chain: step `k` holds the rows of
    /// F(start+k), P(o(start+k+1) = s_j | o(start+k) = s_i, Θ), in CSR form
    /// with their Walker/Vose alias tables — the O(1) sampling kernel behind
    /// [`AdaptedModel::sample_transition`] and the slices behind
    /// [`AdaptedModel::transition_row`].
    kernel: AliasKernel,
    observations: Vec<(Timestamp, StateId)>,
}

impl AdaptedModel {
    /// Convenience constructor using the default [`ModelAdaptation`].
    pub fn build<M: TransitionModel>(
        model: &M,
        observations: &[(Timestamp, StateId)],
    ) -> Result<Self, AdaptError> {
        ModelAdaptation::new().adapt(model, observations)
    }

    /// Reassembles a model from its stored parts (the store-loading
    /// counterpart of [`AdaptedModel::build`]). The covered interval is
    /// derived from the first and last observation; `forward` and `posterior`
    /// must hold one marginal per covered timestamp and `transitions` the
    /// rows of one step per covered step. No probabilistic post-processing
    /// happens here — the parts are adopted bit-for-bit — but they must pass
    /// [`AdaptedModel::check_invariants`].
    pub fn from_parts(
        observations: Vec<(Timestamp, StateId)>,
        forward: Vec<SparseDist>,
        posterior: Vec<SparseDist>,
        transitions: AliasKernel,
    ) -> Result<Self, &'static str> {
        let Some(&(start, _)) = observations.first() else {
            return Err("adapted model needs at least one observation");
        };
        let (end, _) = observations[observations.len() - 1];
        if observations.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("observation times must be strictly increasing");
        }
        let horizon = (end - start) as usize;
        if forward.len() != horizon + 1 {
            return Err("forward marginal count must equal horizon + 1");
        }
        if posterior.len() != horizon + 1 {
            return Err("posterior marginal count must equal horizon + 1");
        }
        if transitions.rows().num_steps() != horizon {
            return Err("transition-table count must equal the horizon");
        }
        let model =
            AdaptedModel { start, end, forward, posterior, kernel: transitions, observations };
        model.check_invariants()?;
        Ok(model)
    }

    /// First observed timestamp.
    #[inline]
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// Last observed timestamp.
    #[inline]
    pub fn end(&self) -> Timestamp {
        self.end
    }

    /// Number of transitions covered (`end - start`).
    #[inline]
    pub fn horizon(&self) -> usize {
        self.kernel.rows().num_steps()
    }

    /// Whether timestamp `t` lies in the covered interval `[start, end]`.
    #[inline]
    pub fn covers(&self, t: Timestamp) -> bool {
        t >= self.start && t <= self.end
    }

    /// The observations this model was conditioned on.
    pub fn observations(&self) -> &[(Timestamp, StateId)] {
        &self.observations
    }

    /// A-posteriori marginal `P(o(t) = · | Θ)`, or `None` outside `[start, end]`.
    pub fn posterior_at(&self, t: Timestamp) -> Option<&SparseDist> {
        self.index_of(t).map(|k| &self.posterior[k])
    }

    /// Forward-only marginal `P(o(t) = · | observations up to t)` — the "F"
    /// model of Figure 12.
    pub fn forward_at(&self, t: Timestamp) -> Option<&SparseDist> {
        self.index_of(t).map(|k| &self.forward[k])
    }

    /// The a-posteriori transition row out of `state` for the step `t → t+1`
    /// as parallel `(targets, probabilities)` slices, targets ascending, or
    /// `None` if `t` is outside `[start, end)` or `state` is not reachable at
    /// `t`.
    pub fn transition_row(&self, t: Timestamp, state: StateId) -> Option<(&[StateId], &[f64])> {
        if t < self.start || t >= self.end {
            return None;
        }
        self.kernel.rows().row((t - self.start) as usize, state)
    }

    /// Draws the next state for the step `t → t+1` out of `state` with one
    /// uniform `u ∈ [0, 1)`, answered in O(1) by the precomputed alias
    /// kernel after a binary row search.
    ///
    /// Returns `None` under exactly the conditions where
    /// [`AdaptedModel::transition_row`] does (step outside `[start, end)` or
    /// `state` unreachable at `t`), and draws each target with exactly the
    /// probability of that row — distributionally equivalent to an
    /// inverse-CDF scan via [`SparseDist::sample_with`], though the
    /// individual `u → state` mapping differs.
    #[inline]
    pub fn sample_transition(&self, t: Timestamp, state: StateId, u: f64) -> Option<StateId> {
        if t < self.start || t >= self.end {
            return None;
        }
        self.kernel.sample((t - self.start) as usize, state, u)
    }

    /// The precomputed O(1) alias-table sampling kernel over all steps.
    pub fn alias_kernel(&self) -> &AliasKernel {
        &self.kernel
    }

    /// States with non-zero a-posteriori probability at time `t`.
    pub fn support_at(&self, t: Timestamp) -> impl Iterator<Item = StateId> + '_ {
        self.posterior_at(t).into_iter().flat_map(|d| d.support())
    }

    /// The a-posteriori most likely state at time `t`.
    pub fn most_likely_state(&self, t: Timestamp) -> Option<StateId> {
        self.posterior_at(t).and_then(|d| d.argmax())
    }

    /// Internal index of timestamp `t`.
    fn index_of(&self, t: Timestamp) -> Option<usize> {
        if self.covers(t) {
            Some((t - self.start) as usize)
        } else {
            None
        }
    }

    /// Validates the stochastic invariants of the adapted model:
    /// * every posterior and forward marginal is a probability distribution,
    /// * every transition row is a probability distribution,
    /// * every state of the posterior support at time `t < end` has a
    ///   transition row at `t` (the sampler draws from it),
    /// * the support of each transition row at time `t` is contained in the
    ///   posterior support at `t+1`,
    /// * posteriors at observation times are point masses on the observation.
    ///
    /// [`AdaptedModel::from_parts`] runs it on every reassembled model;
    /// returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), &'static str> {
        if !self.posterior.iter().all(SparseDist::is_normalized) {
            return Err("adapted posterior marginal is not normalized");
        }
        if !self.forward.iter().all(SparseDist::is_normalized) {
            return Err("adapted forward marginal is not normalized");
        }
        let rows = self.kernel.rows();
        for (k, next) in self.posterior.iter().skip(1).enumerate() {
            if self.posterior[k].support().any(|s| rows.row(k, s).is_none()) {
                return Err("adapted posterior state has no transition row");
            }
            let next = next.entries();
            for (_, cols, probs) in rows.step(k) {
                // The same left-to-right fold `SparseDist::is_normalized` uses.
                let mass: f64 = probs.iter().sum();
                let normalized = (mass - 1.0).abs() < PROB_EPSILON;
                if !normalized {
                    return Err("adapted transition row is not normalized");
                }
                if cols.iter().any(|&c| next.binary_search_by_key(&c, |&(s, _)| s).is_err()) {
                    return Err("adapted transition row leaves the posterior support");
                }
            }
        }
        for &(t, theta) in &self.observations {
            let post = self.posterior_at(t).expect("observation inside the covered interval");
            if (post.prob(theta) - 1.0).abs() > 1e-6 {
                return Err("adapted posterior is not concentrated on an observation");
            }
        }
        Ok(())
    }
}

// The query engine shares adapted models across its TS-phase worker threads
// (`Arc<AdaptedModel>` handed between scoped threads), so these types must
// stay `Send + Sync`. The assertion is compile-time: adding interior
// mutability or non-atomic shared state to any of them breaks the build here
// rather than at the distant engine call site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AdaptedModel>();
    assert_send_sync::<ModelAdaptation>();
    assert_send_sync::<AdaptError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MarkovModel;
    use crate::sparse::CsrMatrix;

    /// The running example of the paper (Figure 1): object o1 starts at s2
    /// and can reach {s1, s3}; from s3 it reaches {s1, s3}. All branches have
    /// probability 0.5. States: s1=0, s2=1, s3=2, s4=3.
    fn example_o1_model() -> MarkovModel {
        MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 1.0)],             // s1 -> s1
            vec![(0, 0.5), (2, 0.5)],   // s2 -> {s1, s3}
            vec![(0, 0.5), (2, 0.5)],   // s3 -> {s1, s3}
            vec![(3, 1.0)],             // s4 -> s4
        ]))
    }

    #[test]
    fn rejects_bad_observation_sets() {
        let m = example_o1_model();
        assert_eq!(
            ModelAdaptation::new().adapt(&m, &[]).unwrap_err(),
            AdaptError::NoObservations
        );
        assert_eq!(
            ModelAdaptation::new().adapt(&m, &[(3, 0), (3, 1)]).unwrap_err(),
            AdaptError::UnsortedObservations
        );
        assert_eq!(
            ModelAdaptation::new().adapt(&m, &[(0, 99)]).unwrap_err(),
            AdaptError::StateOutOfRange { time: 0, state: 99 }
        );
    }

    #[test]
    fn detects_contradictory_observations() {
        let m = example_o1_model();
        // From s2 the object can never reach s4.
        let err = ModelAdaptation::new().adapt(&m, &[(1, 1), (3, 3)]).unwrap_err();
        assert_eq!(err, AdaptError::ContradictoryObservations { time: 3 });
    }

    #[test]
    fn an_underflowing_row_is_an_error_not_a_hole() {
        // From s0 the object reaches s1 with probability ~1e-300 and s2
        // otherwise; both lead to s3. The posterior keeps s1 at t=1, but the
        // mass of its row there is below what `normalize` accepts.
        let m = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(1, 1e-300), (2, 1.0)],
            vec![(3, 1.0)],
            vec![(3, 1.0)],
            vec![(3, 1.0)],
        ]));
        let err = ModelAdaptation::new().adapt(&m, &[(0, 0), (2, 3)]).unwrap_err();
        assert_eq!(err, AdaptError::ContradictoryObservations { time: 1 });
    }

    #[test]
    fn single_observation_is_a_point_mass() {
        let m = example_o1_model();
        let adapted = AdaptedModel::build(&m, &[(5, 1)]).unwrap();
        assert_eq!(adapted.start(), 5);
        assert_eq!(adapted.end(), 5);
        assert_eq!(adapted.horizon(), 0);
        assert_eq!(adapted.posterior_at(5).unwrap(), &SparseDist::delta(1));
        assert!(adapted.posterior_at(6).is_none());
        assert!(adapted.check_invariants().is_ok());
    }

    #[test]
    fn unconstrained_endpoint_matches_forward_propagation() {
        // With observations only at the start and end, the posterior at the
        // end time must equal the delta of the final observation, and the
        // posterior at the start the delta of the first.
        let m = example_o1_model();
        let adapted = AdaptedModel::build(&m, &[(0, 1), (2, 0)]).unwrap();
        assert_eq!(adapted.posterior_at(0).unwrap(), &SparseDist::delta(1));
        assert_eq!(adapted.posterior_at(2).unwrap(), &SparseDist::delta(0));
        assert!(adapted.check_invariants().is_ok());
    }

    /// Brute-force reference: enumerate all trajectories of the a-priori
    /// chain starting at the first observation and keep the ones hitting all
    /// observations. Returns them with their a-priori probabilities, and the
    /// total probability of the kept ones.
    fn consistent_paths(
        model: &MarkovModel,
        obs: &[(Timestamp, StateId)],
    ) -> (Vec<(Vec<StateId>, f64)>, f64) {
        let start = obs[0].0;
        let end = obs[obs.len() - 1].0;
        let horizon = (end - start) as usize;
        let mut paths: Vec<(Vec<StateId>, f64)> = vec![(vec![obs[0].1], 1.0)];
        for step in 0..horizon {
            let t = start + step as Timestamp;
            let mut next = Vec::new();
            for (path, p) in &paths {
                let last = *path.last().unwrap();
                for (s, w) in model.matrix_at(t).row_iter(last) {
                    let mut np = path.clone();
                    np.push(s);
                    next.push((np, p * w));
                }
            }
            paths = next;
        }
        paths.retain(|(path, _)| obs.iter().all(|&(t, s)| path[(t - start) as usize] == s));
        let total = paths.iter().map(|(_, p)| p).sum();
        (paths, total)
    }

    /// Brute-force marginals, indexed by timestamp offset and state: the
    /// consistent paths of [`consistent_paths`], normalized and summed.
    fn brute_force_posterior(
        model: &MarkovModel,
        obs: &[(Timestamp, StateId)],
    ) -> (Vec<Vec<f64>>, f64) {
        let (kept, total) = consistent_paths(model, obs);
        let horizon = (obs[obs.len() - 1].0 - obs[0].0) as usize;
        let mut marginals = vec![vec![0.0; model.num_states()]; horizon + 1];
        for (path, p) in &kept {
            for (k, &s) in path.iter().enumerate() {
                marginals[k][s as usize] += p / total;
            }
        }
        (marginals, total)
    }

    #[test]
    fn posterior_matches_possible_world_enumeration() {
        let m = example_o1_model();
        // o1 of Figure 1: observed at s2 (t=1); additionally pin t=3 to s1 so
        // that non-trivial inference happens at t=2.
        let obs = vec![(1u32, 1u32), (3, 0)];
        let adapted = AdaptedModel::build(&m, &obs).unwrap();
        assert!(adapted.check_invariants().is_ok());
        let (marginals, _) = brute_force_posterior(&m, &obs);
        for (k, marginal) in marginals.iter().enumerate() {
            let t = 1 + k as Timestamp;
            let post = adapted.posterior_at(t).unwrap();
            for s in 0..4u32 {
                let expected = marginal[s as usize];
                assert!(
                    (post.prob(s) - expected).abs() < 1e-9,
                    "t={t} s={s}: adapted {} vs brute force {expected}",
                    post.prob(s)
                );
            }
        }
    }

    #[test]
    fn adapted_transitions_reproduce_world_probabilities() {
        // Sampling-free check: multiplying adapted transition probabilities
        // along a path must give exactly the conditional possible-world
        // probability P(path | observations).
        let m = example_o1_model();
        let obs = vec![(1u32, 1u32), (3, 2)];
        let adapted = AdaptedModel::build(&m, &obs).unwrap();

        // Enumerate a-priori paths consistent with observations.
        let (_, total) = brute_force_posterior(&m, &obs);
        // Path s2 -> s3 -> s3 has a-priori probability 0.25, conditioned 0.25/total.
        let path = [1u32, 2, 2];
        let mut p_adapted = 1.0;
        for (k, w) in path.windows(2).enumerate() {
            let t = 1 + k as Timestamp;
            let (cols, probs) = adapted.transition_row(t, w[0]).expect("row exists");
            p_adapted *= cols.binary_search(&w[1]).map_or(0.0, |i| probs[i]);
        }
        let expected = 0.25 / total;
        assert!((p_adapted - expected).abs() < 1e-9, "{p_adapted} vs {expected}");
    }

    #[test]
    fn intermediate_observations_pin_the_posterior() {
        let m = example_o1_model();
        let obs = vec![(0u32, 1u32), (2, 2), (4, 0)];
        let adapted = AdaptedModel::build(&m, &obs).unwrap();
        assert_eq!(adapted.posterior_at(2).unwrap(), &SparseDist::delta(2));
        assert!(adapted.check_invariants().is_ok());
        // All transition rows out of the observation state at t=2 exist.
        assert!(adapted.transition_row(2, 2).is_some());
        assert!(adapted.transition_row(2, 0).is_none(), "unreachable state has no row");
    }

    #[test]
    fn uniform_transition_variant_differs_but_is_consistent() {
        // A chain with non-uniform probabilities.
        let m = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 0.9), (1, 0.1)],
            vec![(0, 0.2), (1, 0.8)],
        ]));
        let obs = vec![(0u32, 0u32), (3, 1)];
        let fb = ModelAdaptation::new().adapt(&m, &obs).unwrap();
        let fbu = ModelAdaptation::with_uniform_transitions().adapt(&m, &obs).unwrap();
        assert!(fb.check_invariants().is_ok());
        assert!(fbu.check_invariants().is_ok());
        // Both must have the same support but different probabilities at t=1.
        let support_fb: Vec<_> = fb.support_at(1).collect();
        let support_fbu: Vec<_> = fbu.support_at(1).collect();
        assert_eq!(support_fb, support_fbu);
        let p_fb = fb.posterior_at(1).unwrap().prob(0);
        let p_fbu = fbu.posterior_at(1).unwrap().prob(0);
        assert!((p_fb - p_fbu).abs() > 1e-3, "FB {p_fb} and FBU {p_fbu} should differ");
    }

    #[test]
    fn forward_marginals_differ_from_posterior_before_an_observation() {
        // Directly before the final observation the forward-only model is
        // still spread out while the posterior is already pinned; this is the
        // effect visible in Figure 12.
        let m = example_o1_model();
        let obs = vec![(0u32, 1u32), (4, 0)];
        let adapted = AdaptedModel::build(&m, &obs).unwrap();
        let fwd = adapted.forward_at(3).unwrap();
        let post = adapted.posterior_at(3).unwrap();
        assert!(fwd.support_size() >= post.support_size());
        // The posterior at t=3 can only contain states that reach s1 in one step.
        for (s, _) in post.iter() {
            assert!(
                m.matrix_at(3).get(s, 0) > 0.0,
                "state {s} cannot reach the final observation"
            );
        }
    }

    /// A time-inhomogeneous chain over three states: every step has its own
    /// turning probabilities, so reading a row at `t + 1` instead of `t`
    /// changes the posteriors and the path probabilities.
    fn time_varying_model() -> MarkovModel {
        MarkovModel::time_varying(vec![
            CsrMatrix::from_rows(vec![
                vec![(0, 0.7), (1, 0.3)],
                vec![(0, 0.2), (1, 0.3), (2, 0.5)],
                vec![(1, 0.6), (2, 0.4)],
            ]),
            CsrMatrix::from_rows(vec![
                vec![(0, 0.1), (2, 0.9)],
                vec![(1, 0.5), (2, 0.5)],
                vec![(0, 0.3), (1, 0.3), (2, 0.4)],
            ]),
            CsrMatrix::from_rows(vec![
                vec![(0, 0.5), (1, 0.5)],
                vec![(0, 0.6), (2, 0.4)],
                vec![(1, 0.8), (2, 0.2)],
            ]),
            CsrMatrix::from_rows(vec![
                vec![(0, 0.4), (2, 0.6)],
                vec![(0, 0.9), (1, 0.1)],
                vec![(0, 0.25), (2, 0.75)],
            ]),
        ])
    }

    /// `model` with every row replaced by the uniform distribution over its
    /// support: the a-priori chain the "FBU" ablation conditions.
    fn uniformized(model: &MarkovModel) -> MarkovModel {
        let MarkovModel::TimeVarying(matrices) = model else { unreachable!("time-varying") };
        MarkovModel::time_varying(
            matrices
                .iter()
                .map(|m| {
                    CsrMatrix::from_rows(
                        (0..m.num_states() as StateId)
                            .map(|i| {
                                let (cols, _) = m.row(i);
                                cols.iter().map(|&c| (c, 1.0 / cols.len() as f64)).collect()
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn time_varying_chain_matches_possible_world_enumeration() {
        let fb = time_varying_model();
        let fbu = uniformized(&fb);
        // One observation set anchored at t = 0 and one at t = 1, so that a
        // step-index slip cannot hide behind `start = 0`.
        for obs in [vec![(0u32, 0u32), (2, 2), (4, 0)], vec![(1, 1), (4, 0)]] {
            for (adaptation, prior) in [
                (ModelAdaptation::new(), &fb),
                (ModelAdaptation::with_uniform_transitions(), &fbu),
            ] {
                let adapted = adaptation.adapt(&fb, &obs).unwrap();
                assert!(adapted.check_invariants().is_ok());
                // Marginals.
                let (marginals, _) = brute_force_posterior(prior, &obs);
                for (k, marginal) in marginals.iter().enumerate() {
                    let t = adapted.start() + k as Timestamp;
                    let post = adapted.posterior_at(t).unwrap();
                    for s in 0..3u32 {
                        let expected = marginal[s as usize];
                        assert!((post.prob(s) - expected).abs() < 1e-9, "{obs:?} t={t} s={s}");
                    }
                }
                // Path probabilities: the product of the adapted rows along
                // every consistent path is its conditioned a-priori
                // probability, and these exhaust the adapted chain's mass.
                let (paths, total) = consistent_paths(prior, &obs);
                let mut covered = 0.0;
                for (path, p) in &paths {
                    let mut p_adapted = 1.0;
                    for (k, w) in path.windows(2).enumerate() {
                        let t = adapted.start() + k as Timestamp;
                        let (cols, probs) = adapted.transition_row(t, w[0]).expect("row exists");
                        p_adapted *= cols.binary_search(&w[1]).map_or(0.0, |i| probs[i]);
                    }
                    assert!((p_adapted - p / total).abs() < 1e-9, "{obs:?} {path:?}");
                    covered += p_adapted;
                }
                assert!((covered - 1.0).abs() < 1e-9, "{obs:?}: paths cover {covered}");
            }
        }
    }
}
