//! Support-only reachability propagation.
//!
//! The UST-tree (Section 6) approximates, for each pair of consecutive
//! observations `Θ_i = (t_i, θ_i)` and `Θ_{i+1} = (t_{i+1}, θ_{i+1})`, the set
//! of `(time, location)` pairs the object may visit in between — the
//! "diamond" shape visible in Figures 4 and 5. A state `s` is possible at
//! time `t` iff it is forward-reachable from `θ_i` in `t - t_i` steps *and*
//! backward-reachable from `θ_{i+1}` in `t_{i+1} - t` steps.
//!
//! This module computes those sets using only the *support* of the transition
//! matrix (which states can follow which), without tracking probabilities —
//! that is all the index needs, and it is considerably cheaper than a full
//! adaptation. It is also the basis of the "U" (uniform) effectiveness
//! baseline of Figure 12, which assigns equal probability to every reachable
//! state.

use crate::model::MarkovModel;
use crate::sparse::CsrMatrix;
use crate::{StateId, Timestamp};

/// Per-timestamp reachable state sets between two observations.
#[derive(Debug, Clone)]
pub struct ReachabilitySets {
    /// Timestamp of the first observation.
    pub start: Timestamp,
    /// Timestamp of the second observation.
    pub end: Timestamp,
    /// `per_time[k]` lists (sorted) the states the object may occupy at time
    /// `start + k`, consistent with both observations. Empty sets indicate
    /// contradictory observations.
    pub per_time: Vec<Vec<StateId>>,
}

impl ReachabilitySets {
    /// The states possible at time `t`, or an empty slice outside `[start, end]`.
    pub fn at(&self, t: Timestamp) -> &[StateId] {
        if t < self.start || t > self.end {
            return &[];
        }
        &self.per_time[(t - self.start) as usize]
    }

    /// Whether at least one state is possible at every covered timestamp.
    pub fn is_consistent(&self) -> bool {
        self.per_time.iter().all(|s| !s.is_empty())
    }

    /// Total number of possible `(time, state)` pairs.
    pub fn cardinality(&self) -> usize {
        self.per_time.iter().map(|s| s.len()).sum()
    }
}

/// Precomputed forward/backward support of a transition matrix, shared by all
/// objects that use the same a-priori model.
#[derive(Debug, Clone)]
pub struct ReachabilityIndex {
    forward: CsrMatrix,
    backward: CsrMatrix,
}

impl ReachabilityIndex {
    /// Builds the index from a transition matrix (probabilities are ignored,
    /// only the sparsity pattern matters).
    pub fn from_matrix(matrix: &CsrMatrix) -> Self {
        ReachabilityIndex { forward: matrix.clone(), backward: matrix.transpose() }
    }

    /// Builds the index of an a-priori model. A time-varying model is
    /// indexed by the union of the supports of all its matrices: a superset
    /// of what any one timestamp allows, so the reachable sets stay
    /// conservative wherever a segment lies in time, and they stay a
    /// function of the gap alone (never of the absolute start time).
    pub fn from_model(model: &MarkovModel) -> Self {
        match model {
            MarkovModel::Homogeneous(matrix) => Self::from_matrix(matrix),
            MarkovModel::TimeVarying(matrices) => Self::from_matrix(&support_union(matrices)),
        }
    }

    /// Number of states of the underlying model.
    pub fn num_states(&self) -> usize {
        self.forward.num_states()
    }

    /// States reachable from `origin` in exactly `0..=steps` transitions:
    /// `result[k]` is the sorted set after `k` steps.
    pub fn forward_reachable(&self, origin: StateId, steps: usize) -> Vec<Vec<StateId>> {
        expand(&self.forward, origin, steps)
    }

    /// States from which `target` is reachable in exactly `0..=steps`
    /// transitions (walking backwards in time): `result[k]` is the sorted set
    /// of possible states `k` steps *before* the target.
    pub fn backward_reachable(&self, target: StateId, steps: usize) -> Vec<Vec<StateId>> {
        expand(&self.backward, target, steps)
    }

    /// Per-timestamp possible states between two consecutive observations.
    ///
    /// If the second observation is not forward-reachable from the first in
    /// the given number of steps, the segment is contradictory — no
    /// trajectory satisfies both observations, so the possible-state set is
    /// empty at *every* covered timestamp — and the backward BFS is skipped
    /// entirely. Hop-infeasible commutes are common in map-matched real
    /// data, so the index build benefits from paying one expansion instead
    /// of two for them.
    pub fn segment(
        &self,
        from: (Timestamp, StateId),
        to: (Timestamp, StateId),
    ) -> ReachabilitySets {
        assert!(from.0 <= to.0, "observations must be ordered in time");
        let steps = (to.0 - from.0) as usize;
        let fwd = self.forward_reachable(from.1, steps);
        if fwd[steps].binary_search(&to.1).is_err() {
            return ReachabilitySets {
                start: from.0,
                end: to.0,
                per_time: vec![Vec::new(); steps + 1],
            };
        }
        let bwd = self.backward_reachable(to.1, steps);
        let per_time: Vec<Vec<StateId>> = (0..=steps)
            .map(|k| intersect_sorted(&fwd[k], &bwd[steps - k]))
            .collect();
        ReachabilitySets { start: from.0, end: to.0, per_time }
    }
}

/// A matrix whose support is the union of the supports of `matrices` (all
/// over the same state space). Its values are meaningless — `from_rows` sums
/// the duplicates — since only the sparsity pattern matters to reachability.
fn support_union(matrices: &[CsrMatrix]) -> CsrMatrix {
    let n = matrices.first().map_or(0, CsrMatrix::num_states);
    let rows = (0..n as StateId)
        .map(|s| matrices.iter().flat_map(|m| m.successors(s).iter().map(|&c| (c, 1.0))).collect())
        .collect();
    CsrMatrix::from_rows(rows)
}

/// Breadth-first support expansion: `result[k]` is the sorted set of states
/// reachable from `origin` in exactly `k` steps of the given matrix.
fn expand(matrix: &CsrMatrix, origin: StateId, steps: usize) -> Vec<Vec<StateId>> {
    let mut out = Vec::with_capacity(steps + 1);
    out.push(vec![origin]);
    for k in 0..steps {
        let prev = &out[k];
        let mut next: Vec<StateId> = Vec::new();
        for &s in prev {
            next.extend_from_slice(matrix.successors(s));
        }
        next.sort_unstable();
        next.dedup();
        out.push(next);
    }
    out
}

/// Intersection of two sorted, deduplicated slices.
fn intersect_sorted(a: &[StateId], b: &[StateId]) -> Vec<StateId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-state line graph: 0 <-> 1 <-> 2 <-> 3, plus self-loops.
    fn line_graph() -> CsrMatrix {
        CsrMatrix::stochastic_from_weights(vec![
            vec![(0, 1.0), (1, 1.0)],
            vec![(0, 1.0), (1, 1.0), (2, 1.0)],
            vec![(1, 1.0), (2, 1.0), (3, 1.0)],
            vec![(2, 1.0), (3, 1.0)],
        ])
    }

    #[test]
    fn forward_expansion_grows_along_the_line() {
        let idx = ReachabilityIndex::from_matrix(&line_graph());
        let fwd = idx.forward_reachable(0, 3);
        assert_eq!(fwd[0], vec![0]);
        assert_eq!(fwd[1], vec![0, 1]);
        assert_eq!(fwd[2], vec![0, 1, 2]);
        assert_eq!(fwd[3], vec![0, 1, 2, 3]);
    }

    #[test]
    fn backward_expansion_mirrors_forward_on_symmetric_graphs() {
        let idx = ReachabilityIndex::from_matrix(&line_graph());
        let bwd = idx.backward_reachable(3, 2);
        assert_eq!(bwd[0], vec![3]);
        assert_eq!(bwd[1], vec![2, 3]);
        assert_eq!(bwd[2], vec![1, 2, 3]);
    }

    #[test]
    fn segment_intersects_forward_and_backward() {
        let idx = ReachabilityIndex::from_matrix(&line_graph());
        // From state 0 at t=10 to state 3 at t=13: the object must move right
        // every step, so the diamond is a thin corridor.
        let seg = idx.segment((10, 0), (13, 3));
        assert!(seg.is_consistent());
        assert_eq!(seg.at(10), &[0]);
        assert_eq!(seg.at(11), &[1]);
        assert_eq!(seg.at(12), &[2]);
        assert_eq!(seg.at(13), &[3]);
        assert_eq!(seg.cardinality(), 4);
        assert_eq!(seg.at(9), &[] as &[StateId]);
    }

    #[test]
    fn segment_with_slack_forms_a_diamond() {
        let idx = ReachabilityIndex::from_matrix(&line_graph());
        // Same endpoints but 6 steps of time: intermediate sets widen and then
        // narrow again (the "bead"/diamond of the paper).
        let seg = idx.segment((0, 0), (6, 3));
        assert!(seg.is_consistent());
        assert!(seg.at(3).len() >= seg.at(1).len());
        assert!(seg.at(3).len() >= seg.at(5).len());
        assert_eq!(seg.at(0), &[0]);
        assert_eq!(seg.at(6), &[3]);
    }

    #[test]
    fn contradictory_segment_yields_empty_sets() {
        let idx = ReachabilityIndex::from_matrix(&line_graph());
        // Cannot get from state 0 to state 3 in a single step. No trajectory
        // satisfies both observations, so every covered timestamp is empty
        // (the early exit that skips the backward BFS).
        let seg = idx.segment((0, 0), (1, 3));
        assert!(!seg.is_consistent());
        assert_eq!(seg.cardinality(), 0, "impossible segments have no possible states at all");
        assert_eq!(seg.at(0), &[] as &[StateId]);
        assert_eq!(seg.at(1), &[] as &[StateId]);
    }

    #[test]
    fn zero_length_segment() {
        let idx = ReachabilityIndex::from_matrix(&line_graph());
        let seg = idx.segment((4, 2), (4, 2));
        assert!(seg.is_consistent());
        assert_eq!(seg.cardinality(), 1);
        assert_eq!(seg.at(4), &[2]);
    }
}
