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
//! The construction has two phases (both `O(|T| · nnz)` with the sparse
//! representation used here):
//!
//! 1. **Forward phase** — walk time forward from the first observation,
//!    propagating the belief state and materialising the *time-reversed*
//!    chain `R^o(t)_{ij} = P(o(t-1)=s_j | o(t)=s_i, past^o(t))` via Bayes'
//!    theorem (Lemma 4). Each observation reached collapses the belief to the
//!    observed state.
//! 2. **Backward phase** — walk time backwards from the last observation
//!    using `R^o(t)`, which (by the reverse Markov property, Lemma 5)
//!    propagates the information of *future* observations into the past and
//!    yields both the a-posteriori transition matrices `F^o(t)` and the
//!    a-posteriori marginals `P(o(t) = s | Θ^o)`.

use crate::alias::{AliasKernel, StepRows};
use crate::model::TransitionModel;
use crate::sparse::{SparseDist, PROB_EPSILON};
use crate::{StateId, Timestamp};
use rustc_hash::FxHashMap;

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
        let first = *observations.first().ok_or(AdaptError::NoObservations)?;
        if observations.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(AdaptError::UnsortedObservations);
        }
        for &(time, state) in observations {
            if (state as usize) >= model.num_states() {
                return Err(AdaptError::StateOutOfRange { time, state });
            }
        }
        let last = *observations.last().expect("non-empty");
        let start = first.0;
        let end = last.0;
        let horizon = (end - start) as usize;
        let obs_at: FxHashMap<Timestamp, StateId> = observations.iter().copied().collect();

        // ------------------------------------------------------------------
        // Forward phase: belief propagation + time-reversed chain R(t).
        // ------------------------------------------------------------------
        let mut forward: Vec<SparseDist> = Vec::with_capacity(horizon + 1);
        // Step k of `reversed` is R(start + k + 1): rows indexed by the state
        // at time t = start+k+1, each a distribution over states at time t-1.
        let mut reversed = StepRows::default();

        let mut belief = SparseDist::delta(first.1);
        forward.push(belief.clone());

        for step in 1..=horizon {
            let t = start + step as Timestamp;
            let mut acc: FxHashMap<StateId, f64> = FxHashMap::default();
            let mut back_rows: FxHashMap<StateId, Vec<(StateId, f64)>> = FxHashMap::default();
            for (j, pj) in belief.iter() {
                let (cols, vals) = model.row(j, t - 1);
                if cols.is_empty() {
                    continue;
                }
                let uniform = 1.0 / cols.len() as f64;
                for (idx, &i) in cols.iter().enumerate() {
                    let m_ji = if self.uniform_transitions { uniform } else { vals[idx] };
                    let w = m_ji * pj;
                    if w > 0.0 {
                        *acc.entry(i).or_insert(0.0) += w;
                        back_rows.entry(i).or_default().push((j, w));
                    }
                }
            }
            if acc.is_empty() {
                return Err(AdaptError::ContradictoryObservations { time: t });
            }
            reversed.push_step(back_rows);

            let mut new_belief = SparseDist::from_pairs(acc);
            new_belief.normalize();

            if let Some(&theta) = obs_at.get(&t) {
                if new_belief.prob(theta) <= 0.0 {
                    return Err(AdaptError::ContradictoryObservations { time: t });
                }
                belief = SparseDist::delta(theta);
            } else {
                belief = new_belief;
            }
            forward.push(belief.clone());
        }

        // ------------------------------------------------------------------
        // Backward phase: a-posteriori marginals and transitions F(t).
        // ------------------------------------------------------------------
        let mut posterior: Vec<SparseDist> = vec![SparseDist::new(); horizon + 1];
        // The rows of F(start + step), produced last step first; the arena
        // takes them in step order once the pass is done.
        let mut fwd_steps = Vec::with_capacity(horizon);
        posterior[horizon] = SparseDist::delta(last.1);

        for step in (0..horizon).rev() {
            let next_post = posterior[step + 1].clone();
            let mut acc: FxHashMap<StateId, f64> = FxHashMap::default();
            let mut fwd_rows: FxHashMap<StateId, Vec<(StateId, f64)>> = FxHashMap::default();
            for (j, pj) in next_post.iter() {
                // R(start + step + 1)
                let Some((cols, probs)) = reversed.row(step, j) else { continue };
                for (&i, &r_ji) in cols.iter().zip(probs) {
                    let w = r_ji * pj;
                    if w > 0.0 {
                        *acc.entry(i).or_insert(0.0) += w;
                        fwd_rows.entry(i).or_default().push((j, w));
                    }
                }
            }
            if acc.is_empty() {
                // The forward phase guarantees a consistent corridor, so this
                // can only be triggered by numerical underflow.
                return Err(AdaptError::ContradictoryObservations {
                    time: start + step as Timestamp,
                });
            }
            fwd_steps.push(fwd_rows);
            let mut dist = SparseDist::from_pairs(acc);
            dist.normalize();
            posterior[step] = dist;
        }

        let mut kernel = AliasKernel::default();
        for rows in fwd_steps.into_iter().rev() {
            kernel.push_step(rows);
        }
        Ok(AdaptedModel {
            start,
            end,
            forward,
            posterior,
            kernel,
            observations: observations.to_vec(),
        })
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
    /// chain starting at the first observation, keep the ones hitting all
    /// observations, normalize, and compute marginals / transition
    /// probabilities from them.
    fn brute_force_posterior(
        model: &MarkovModel,
        obs: &[(Timestamp, StateId)],
    ) -> (Vec<FxHashMap<StateId, f64>>, f64) {
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
        // Filter on all observations.
        let mut total = 0.0;
        let mut kept: Vec<(Vec<StateId>, f64)> = Vec::new();
        for (path, p) in paths {
            let ok = obs.iter().all(|&(t, s)| path[(t - start) as usize] == s);
            if ok {
                total += p;
                kept.push((path, p));
            }
        }
        let mut marginals: Vec<FxHashMap<StateId, f64>> =
            vec![FxHashMap::default(); horizon + 1];
        for (path, p) in &kept {
            for (k, &s) in path.iter().enumerate() {
                *marginals[k].entry(s).or_insert(0.0) += p / total;
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
                let expected = marginal.get(&s).copied().unwrap_or(0.0);
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
}
