//! Dense reference implementation of Algorithm 2.
//!
//! This module is a literal transcription of the paper's Algorithm 2
//! ("AdaptTransitionMatrices") using dense `|S| × |S|` matrices. It exists for
//! two purposes:
//!
//! * **Correctness oracle.** The production implementation in [`crate::adapt`]
//!   is sparse and touches only reachable states; tests cross-check it against
//!   this straightforward dense version on small state spaces.
//! * **Ablation baseline.** The `adaptation` Criterion bench compares the
//!   dense `O(|T| · |S|²)` formulation against the sparse one to quantify the
//!   benefit of exploiting transition sparsity (Section 5.2.3 derives the
//!   `O(|T| · |S|²)` bound for the dense case).

// The explicit `for i in 0..n` index loops below deliberately mirror the
// paper's matrix equations (X'[i][j] = M[j][i] * belief[j], ...); iterator
// rewrites would obscure the correspondence this module exists to provide.
#![allow(clippy::needless_range_loop)]

use crate::{StateId, Timestamp};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix { n, data: vec![0.0; n * n] }
    }

    /// Creates a matrix from a row-major slice of length `n * n`.
    ///
    /// # Panics
    /// Panics if the slice length is not `n * n`.
    pub fn from_rows(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "dense matrix needs n*n entries");
        DenseMatrix { n, data }
    }

    /// Dimension of the (square) matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Sets entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// Whether every row sums to one (or zero) within `1e-9`.
    pub fn is_row_stochastic(&self) -> bool {
        (0..self.n).all(|i| {
            let sum: f64 = (0..self.n).map(|j| self.get(i, j)).sum();
            sum.abs() < 1e-9 || (sum - 1.0).abs() < 1e-9
        })
    }
}

/// Result of the dense forward–backward adaptation.
#[derive(Debug, Clone)]
pub struct DenseAdapted {
    /// First observed timestamp.
    pub start: Timestamp,
    /// Last observed timestamp.
    pub end: Timestamp,
    /// `posterior[k][s]` = P(o(start+k) = s | Θ).
    pub posterior: Vec<Vec<f64>>,
    /// `transitions[k]` is the a-posteriori matrix F(start+k):
    /// `transitions[k].get(i, j)` = P(o(start+k+1)=j | o(start+k)=i, Θ).
    pub transitions: Vec<DenseMatrix>,
}

/// Runs Algorithm 2 with dense matrices.
///
/// `observations` must be sorted by strictly increasing time. Returns `None`
/// if the observations contradict the model.
pub fn adapt_dense(
    matrix: &DenseMatrix,
    observations: &[(Timestamp, StateId)],
) -> Option<DenseAdapted> {
    let first = *observations.first()?;
    let last = *observations.last().expect("non-empty");
    let n = matrix.n();
    let start = first.0;
    let end = last.0;
    let horizon = (end - start) as usize;

    // Forward phase (Algorithm 2, lines 2-10): belief vector + reversed chain R(t).
    let mut belief = vec![0.0; n];
    belief[first.1 as usize] = 1.0;
    let mut reversed: Vec<DenseMatrix> = Vec::with_capacity(horizon);

    for step in 1..=horizon {
        let t = start + step as Timestamp;
        // X'(t) = M^T * diag(belief):  X'[i][j] = M[j][i] * belief[j].
        let mut x = DenseMatrix::zeros(n);
        for j in 0..n {
            if belief[j] == 0.0 {
                continue;
            }
            for i in 0..n {
                let v = matrix.get(j, i) * belief[j];
                if v != 0.0 {
                    x.set(i, j, v);
                }
            }
        }
        // Row sums give the new belief; normalized rows give R(t).
        let mut new_belief = vec![0.0; n];
        for i in 0..n {
            let sum: f64 = (0..n).map(|j| x.get(i, j)).sum();
            new_belief[i] = sum;
        }
        let mut r = DenseMatrix::zeros(n);
        for i in 0..n {
            if new_belief[i] > 0.0 {
                for j in 0..n {
                    r.set(i, j, x.get(i, j) / new_belief[i]);
                }
            }
        }
        reversed.push(r);
        let total: f64 = new_belief.iter().sum();
        if total <= 0.0 {
            return None;
        }
        for b in &mut new_belief {
            *b /= total;
        }
        if let Some(&(_, theta)) = observations.iter().find(|&&(ot, _)| ot == t) {
            if new_belief[theta as usize] <= 0.0 {
                return None;
            }
            belief = vec![0.0; n];
            belief[theta as usize] = 1.0;
        } else {
            belief = new_belief;
        }
    }

    // Backward phase (lines 12-16).
    let mut posterior = vec![vec![0.0; n]; horizon + 1];
    posterior[horizon][last.1 as usize] = 1.0;
    let mut transitions: Vec<DenseMatrix> = (0..horizon).map(|_| DenseMatrix::zeros(n)).collect();

    for step in (0..horizon).rev() {
        let next = posterior[step + 1].clone();
        let r = &reversed[step];
        // X'(t) = R(t+1)^T * diag(next): X'[i][j] = R[j][i] * next[j].
        let mut x = DenseMatrix::zeros(n);
        for j in 0..n {
            if next[j] == 0.0 {
                continue;
            }
            for i in 0..n {
                let v = r.get(j, i) * next[j];
                if v != 0.0 {
                    x.set(i, j, v);
                }
            }
        }
        let mut cur = vec![0.0; n];
        for i in 0..n {
            cur[i] = (0..n).map(|j| x.get(i, j)).sum();
        }
        let mut f = DenseMatrix::zeros(n);
        for i in 0..n {
            if cur[i] > 0.0 {
                for j in 0..n {
                    f.set(i, j, x.get(i, j) / cur[i]);
                }
            }
        }
        transitions[step] = f;
        let total: f64 = cur.iter().sum();
        if total <= 0.0 {
            return None;
        }
        for c in &mut cur {
            *c /= total;
        }
        posterior[step] = cur;
    }

    Some(DenseAdapted { start, end, posterior, transitions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::AdaptedModel;
    use crate::model::MarkovModel;
    use crate::sparse::CsrMatrix;

    /// A 5-state ring with asymmetric probabilities.
    fn ring_dense() -> DenseMatrix {
        let n = 5;
        let mut m = DenseMatrix::zeros(n);
        for i in 0..n {
            m.set(i, (i + 1) % n, 0.6);
            m.set(i, i, 0.3);
            m.set(i, (i + n - 1) % n, 0.1);
        }
        m
    }

    fn ring_sparse() -> CsrMatrix {
        let d = ring_dense();
        CsrMatrix::from_rows(
            (0..d.n())
                .map(|i| {
                    (0..d.n())
                        .filter(|&j| d.get(i, j) > 0.0)
                        .map(|j| (j as StateId, d.get(i, j)))
                        .collect()
                })
                .collect(),
        )
    }

    #[test]
    fn dense_matrix_basics() {
        let mut m = DenseMatrix::zeros(3);
        m.set(0, 1, 1.0);
        m.set(1, 2, 0.5);
        m.set(1, 1, 0.5);
        m.set(2, 2, 1.0);
        assert_eq!(m.get(0, 1), 1.0);
        // All-zero rows count as (unreachable) sinks and are accepted.
        assert!(DenseMatrix::zeros(2).is_row_stochastic());
        m.set(0, 0, 0.0);
        assert!(m.is_row_stochastic());
    }

    #[test]
    fn dense_adaptation_detects_contradictions() {
        // Deterministic forward chain 0 -> 1 -> 2 ... cannot be at state 0 at t=1.
        let mut m = DenseMatrix::zeros(3);
        m.set(0, 1, 1.0);
        m.set(1, 2, 1.0);
        m.set(2, 2, 1.0);
        assert!(adapt_dense(&m, &[(0, 0), (1, 0)]).is_none());
        assert!(adapt_dense(&m, &[(0, 0), (1, 1)]).is_some());
    }

    #[test]
    fn sparse_and_dense_adaptation_agree() {
        let dense = ring_dense();
        let sparse = MarkovModel::homogeneous(ring_sparse());
        let obs = vec![(0u32, 0u32), (4, 3), (7, 1)];
        let da = adapt_dense(&dense, &obs).expect("consistent observations");
        let sa = AdaptedModel::build(&sparse, &obs).expect("consistent observations");
        assert!(sa.check_invariants().is_ok());
        for t in 0..=7u32 {
            let post = sa.posterior_at(t).unwrap();
            for s in 0..5u32 {
                let d = da.posterior[t as usize][s as usize];
                assert!(
                    (post.prob(s) - d).abs() < 1e-9,
                    "posterior mismatch at t={t}, s={s}: sparse {} dense {d}",
                    post.prob(s)
                );
            }
        }
        for t in 0..7u32 {
            for i in 0..5u32 {
                for j in 0..5u32 {
                    let d = da.transitions[t as usize].get(i as usize, j as usize);
                    let s = sa.transition_row(t, i).map_or(0.0, |(cols, probs)| {
                        cols.binary_search(&j).map_or(0.0, |at| probs[at])
                    });
                    assert!(
                        (s - d).abs() < 1e-9,
                        "transition mismatch at t={t}, {i}->{j}: sparse {s} dense {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn adapted_transitions_are_stochastic_on_reachable_rows() {
        let dense = ring_dense();
        let obs = vec![(2u32, 1u32), (6, 4)];
        let da = adapt_dense(&dense, &obs).unwrap();
        for (k, f) in da.transitions.iter().enumerate() {
            for i in 0..5 {
                let sum: f64 = (0..5).map(|j| f.get(i, j)).sum();
                assert!(
                    sum.abs() < 1e-9 || (sum - 1.0).abs() < 1e-9,
                    "row {i} of F({k}) sums to {sum}"
                );
            }
        }
    }
}
