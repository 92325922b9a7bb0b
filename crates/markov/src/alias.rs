//! Per-step CSR row arenas and the Walker/Vose alias tables built on them.
//!
//! Algorithm 2 yields one transition row per reachable `(step, source)` pair
//! of an object's adapted chain. [`StepRows`] keeps all of them in one sorted
//! CSR layout of five flat arrays:
//!
//! * `step_starts` — per chain step `k`, the range of the rows of step `k`,
//! * `sources` / `row_starts` — per row, its source state (strictly
//!   increasing within the step) and the range of its slots,
//! * `cols` / `probs` — per slot, the target state (strictly increasing
//!   within the row) and its probability.
//!
//! A row lookup is one binary search over the step's sources and yields the
//! row as two parallel slices. The a-posteriori chain `F(t)` of an adapted
//! model is stored as an [`AliasKernel`]: these rows plus, per slot, the
//! Vose acceptance `threshold` and the aliased target `alias`. The
//! adaptation's backward phase normalises each row straight into a
//! `StepRows` and moves the rows into the kernel in step order.
//!
//! The Monte-Carlo refinement phase draws one transition per object per chain
//! step per sampled world — at paper scale (10 000 worlds, hundreds of
//! influence objects, tens of timestamps) that is easily 10⁷–10⁸ categorical
//! draws per query. [`crate::SparseDist::sample_with`] answers a draw with a
//! linear inverse-CDF scan, O(support). The kernel answers it in O(1) after
//! the row search: `u · n` selects a slot, its fractional part is compared
//! against the slot's threshold, and either the slot's own column or its
//! alias wins. Exactly one uniform `u ∈ [0, 1)` is consumed per transition —
//! the same RNG-draw discipline as the inverse-CDF path, so prefix sampling
//! and draw-burning keep working unchanged on top of either kernel.
//!
//! Alias draws consume `u` differently from inverse-CDF draws, so the two
//! paths are *not* bit-identical per world; they are distributionally
//! identical (each target is selected with exactly its row probability, up to
//! f64 rounding of `p·n/mass`), which the equivalence suite in
//! `tests/alias_equivalence.rs` pins by construction checks and frequency
//! comparison on shared `u` streams.
//!
//! Construction is deterministic: rows are pushed in (step, source-id)
//! order, and when a step closes the alias tables of its rows are built in
//! row order. Vose's small/large worklists are filled in increasing slot
//! order and drained LIFO, so equal inputs produce byte-equal kernels on
//! every platform and thread count. The worklists are reused from row to
//! row of a step.

use crate::StateId;
use std::ops::Range;

/// Sparse rows of a multi-step chain in one sorted CSR layout (see the
/// module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct StepRows {
    /// `step_starts[k]..step_starts[k+1]` indexes the rows of step `k` in
    /// `sources`/`row_starts`. One entry more than there are closed steps.
    step_starts: Vec<u32>,
    /// Source state of each row, strictly increasing within a step.
    sources: Vec<StateId>,
    /// `row_starts[r]..row_starts[r+1]` indexes the slots of row `r` in
    /// `cols`/`probs`. Length `sources.len() + 1`.
    row_starts: Vec<u32>,
    /// Target state of each slot (the CSR column array).
    cols: Vec<StateId>,
    /// Probability of each slot's target (the CSR value array).
    probs: Vec<f64>,
}

impl Default for StepRows {
    fn default() -> Self {
        StepRows {
            step_starts: vec![0],
            sources: Vec::new(),
            row_starts: vec![0],
            cols: Vec::new(),
            probs: Vec::new(),
        }
    }
}

impl StepRows {
    /// Appends a row to the open step, verbatim. Sources must arrive in
    /// strictly increasing order within a step, targets within a row.
    pub(crate) fn push_row(
        &mut self,
        source: StateId,
        entries: impl IntoIterator<Item = (StateId, f64)>,
    ) {
        let open = self.open_rows().start;
        debug_assert!(
            self.sources.len() == open || self.sources.last().is_some_and(|&p| p < source),
            "rows of a step must arrive in strictly increasing source order"
        );
        let first = self.cols.len();
        for (state, p) in entries {
            self.cols.push(state);
            self.probs.push(p);
        }
        debug_assert!(
            self.cols[first..].windows(2).all(|w| w[0] < w[1]),
            "targets of a row must arrive in strictly increasing order"
        );
        self.sources.push(source);
        self.row_starts.push(self.cols.len() as u32);
    }

    /// Closes the open step; rows pushed from here on belong to the next one.
    pub(crate) fn end_step(&mut self) {
        self.step_starts.push(self.sources.len() as u32);
    }

    /// The row indices of the open step.
    fn open_rows(&self) -> Range<usize> {
        *self.step_starts.last().expect("never empty") as usize..self.sources.len()
    }

    /// Number of closed steps.
    #[inline]
    pub fn num_steps(&self) -> usize {
        self.step_starts.len() - 1
    }

    /// The row indices of a closed step, or `None` if `step` is out of range.
    #[inline]
    fn step_range(&self, step: usize) -> Option<Range<usize>> {
        Some(*self.step_starts.get(step)? as usize..*self.step_starts.get(step + 1)? as usize)
    }

    /// The slot window of row `r`.
    #[inline]
    fn slots(&self, r: usize) -> Range<usize> {
        self.row_starts[r] as usize..self.row_starts[r + 1] as usize
    }

    /// The slot window of `(step, source)`, found by binary search over the
    /// step's sorted sources. `None` if the step is out of range or the
    /// source has no row there.
    #[inline]
    fn row_slots(&self, step: usize, source: StateId) -> Option<Range<usize>> {
        let rows = self.step_range(step)?;
        let r = rows.start + self.sources[rows].binary_search(&source).ok()?;
        Some(self.slots(r))
    }

    /// The row of `(step, source)` as parallel `(targets, probabilities)`
    /// slices.
    pub fn row(&self, step: usize, source: StateId) -> Option<(&[StateId], &[f64])> {
        let slots = self.row_slots(step, source)?;
        Some((&self.cols[slots.clone()], &self.probs[slots]))
    }

    /// The rows of `step` as `(source, targets, probabilities)`, in source
    /// order; empty if `step` is out of range.
    pub fn step(
        &self,
        step: usize,
    ) -> impl ExactSizeIterator<Item = (StateId, &[StateId], &[f64])> + '_ {
        self.step_range(step).unwrap_or(0..0).map(move |r| {
            let slots = self.slots(r);
            (self.sources[r], &self.cols[slots.clone()], &self.probs[slots])
        })
    }
}

/// Precomputed O(1) sampling kernel of an adapted model: per chain step, the
/// Walker/Vose alias tables of every reachable row, in flat CSR arenas.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AliasKernel {
    /// The rows themselves; `threshold` and `alias` run parallel to its
    /// slots.
    rows: StepRows,
    /// Vose acceptance threshold of each slot, in `[0, 1]`.
    threshold: Vec<f64>,
    /// Aliased target state of each slot (drawn when the fractional part of
    /// `u·n` lands at or above the threshold).
    alias: Vec<StateId>,
}

/// Scratch space of Vose's construction, reused from row to row.
#[derive(Debug, Default)]
struct VoseWorklists {
    /// Each slot's probability scaled by `n / mass`.
    scaled: Vec<f64>,
    /// Slots whose scaled probability is below one.
    small: Vec<usize>,
    /// Slots whose scaled probability is at least one.
    large: Vec<usize>,
}

impl AliasKernel {
    /// Appends a row to the open step verbatim; its alias table is built
    /// when the step closes. Sources must arrive in strictly increasing
    /// order within a step, targets within a row.
    pub fn push_row(&mut self, source: StateId, entries: impl IntoIterator<Item = (StateId, f64)>) {
        self.rows.push_row(source, entries);
    }

    /// Closes the open step and builds the alias tables of its rows; rows
    /// pushed from here on belong to the next one.
    pub fn end_step(&mut self) {
        let rows = self.rows.open_rows();
        self.rows.end_step();
        let mut vose = VoseWorklists::default();
        for r in rows {
            self.build_alias_table(r, &mut vose);
        }
    }

    /// The transition rows, without the alias columns.
    pub fn rows(&self) -> &StepRows {
        &self.rows
    }

    /// Runs Vose's O(n) alias construction on row `r`. Rows are built in
    /// order, so `r` is the first row without a table.
    fn build_alias_table(&mut self, r: usize, vose: &mut VoseWorklists) {
        let slots = self.rows.slots(r);
        let (base, n) = (slots.start, slots.len());
        let cols = &self.rows.cols[slots.clone()];
        let probs = &self.rows.probs[slots];
        self.threshold.resize(base + n, 1.0);
        self.alias.extend_from_slice(cols);
        if n == 0 {
            return;
        }
        // Vose: scale each probability by n/mass, split slots into "small"
        // (< 1) and "large" (≥ 1), and repeatedly pair one of each — the
        // small slot keeps its own target below its threshold and borrows the
        // large slot's target above it. Worklists are filled in slot order
        // and drained from the back, so the construction is deterministic.
        // The mass is the same left-to-right fold `SparseDist` caches.
        let mass: f64 = probs.iter().sum();
        let VoseWorklists { scaled, small, large } = vose;
        scaled.clear();
        scaled.extend(probs.iter().map(|&p| p * n as f64 / mass));
        small.clear();
        large.clear();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            self.threshold[base + s] = scaled[s];
            self.alias[base + s] = cols[l];
            // The large slot donated `1 - scaled[s]` of its mass.
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers (all ≈ 1 up to rounding) keep threshold 1.0 / self-alias
        // from the initialisation above: they always accept their own target.
    }

    /// Draws from the row of `(step, source)` with one uniform `u ∈ [0, 1)`:
    /// one binary search for the row, then an O(1) alias pick. Returns `None`
    /// if the row does not exist or is empty.
    ///
    /// `u` obeys the same `[0, 1)` contract as
    /// [`SparseDist::sample_with`](crate::SparseDist::sample_with).
    #[inline]
    pub fn sample(&self, step: usize, source: StateId, u: f64) -> Option<StateId> {
        debug_assert!(
            u.is_finite() && (0.0..1.0).contains(&u),
            "alias sample requires u in [0, 1), got {u}"
        );
        let slots = self.rows.row_slots(step, source)?;
        let n = slots.len();
        if n == 0 {
            return None;
        }
        let scaled = u * n as f64;
        // `u` close to 1 can round `u·n` up to `n` for large rows; clamp to
        // the last slot (the standard guard of the alias method).
        let idx = (scaled as usize).min(n - 1);
        let frac = scaled - idx as f64;
        let slot = slots.start + idx;
        Some(if frac < self.threshold[slot] { self.rows.cols[slot] } else { self.alias[slot] })
    }

    /// The exact probability the alias table assigns to `target` in the row
    /// of `(step, source)` under a uniform `u`: the Lebesgue measure of the
    /// `u`-values that select it. Used by the equivalence tests to prove the
    /// table is a faithful encoding of the row, independent of sampling.
    pub fn table_probability(&self, step: usize, source: StateId, target: StateId) -> f64 {
        let Some(slots) = self.rows.row_slots(step, source) else { return 0.0 };
        let n = slots.len();
        if n == 0 {
            return 0.0;
        }
        let mut measure = 0.0;
        for slot in slots {
            if self.rows.cols[slot] == target {
                measure += self.threshold[slot];
            }
            if self.alias[slot] == target {
                measure += 1.0 - self.threshold[slot];
            }
        }
        measure / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseDist;

    /// A kernel holding `steps` verbatim, each step's rows in source order.
    fn kernel_from(steps: &[&[(StateId, &SparseDist)]]) -> AliasKernel {
        let mut kernel = AliasKernel::default();
        for step in steps {
            for &(source, row) in step.iter() {
                kernel.push_row(source, row.iter());
            }
            kernel.end_step();
        }
        kernel
    }

    fn kernel_of(rows: Vec<(StateId, SparseDist)>) -> AliasKernel {
        let rows: Vec<(StateId, &SparseDist)> = rows.iter().map(|(s, d)| (*s, d)).collect();
        kernel_from(&[&rows])
    }

    #[test]
    fn empty_kernel_has_no_rows() {
        let k = kernel_from(&[]);
        assert_eq!(k.rows().num_steps(), 0);
        assert_eq!(k.rows().step(0).len(), 0);
        assert!(k.sample(0, 0, 0.5).is_none());
    }

    #[test]
    fn delta_row_always_returns_its_single_target() {
        let k = kernel_of(vec![(3, SparseDist::delta(7))]);
        assert_eq!(k.rows().row(0, 3), Some((&[7][..], &[1.0][..])));
        for u in [0.0, 0.25, 0.999] {
            assert_eq!(k.sample(0, 3, u), Some(7));
        }
        assert_eq!(k.sample(0, 4, 0.5), None, "missing source has no row");
        assert_eq!(k.sample(1, 3, 0.5), None, "step out of range");
    }

    #[test]
    fn table_measure_reproduces_row_probabilities_exactly() {
        // Probabilities with exact binary representations, so the Vose
        // scaling is lossless and the slot measures must recover them
        // bit-for-bit.
        let row = SparseDist::from_pairs(vec![(10, 0.5), (20, 0.25), (30, 0.125), (40, 0.125)]);
        let k = kernel_of(vec![(0, row.clone())]);
        for (state, p) in row.iter() {
            assert_eq!(k.table_probability(0, 0, state), p, "state {state}");
        }
        assert_eq!(k.table_probability(0, 0, 99), 0.0);
    }

    #[test]
    fn heavy_tail_row_measures_match_within_rounding() {
        let row = SparseDist::from_pairs((0..64u32).map(|s| (s, 0.97f64.powi(s as i32))));
        let k = kernel_of(vec![(0, row.clone())]);
        let mass = row.total_mass();
        for (state, p) in row.iter() {
            let want = p / mass;
            let got = k.table_probability(0, 0, state);
            assert!((got - want).abs() < 1e-12, "state {state}: {got} vs {want}");
        }
    }

    #[test]
    fn sampling_never_leaves_the_support_and_hits_every_state() {
        let row = SparseDist::from_pairs(vec![(2, 0.1), (5, 0.6), (9, 0.3)]);
        let k = kernel_of(vec![(1, row.clone())]);
        let support: Vec<StateId> = row.support().collect();
        let mut seen = [false; 3];
        // A deterministic low-discrepancy sweep of u.
        for i in 0..10_000 {
            let u = (i as f64 + 0.5) / 10_000.0;
            let s = k.sample(0, 1, u).unwrap();
            let pos = support.binary_search(&s).expect("target inside the support");
            seen[pos] = true;
        }
        assert!(seen.iter().all(|&b| b), "every support state is reachable");
    }

    #[test]
    fn top_of_range_u_is_clamped_to_the_last_slot() {
        let row = SparseDist::uniform(0..1000u32);
        let k = kernel_of(vec![(0, row)]);
        let max_u = 1.0 - f64::EPSILON / 2.0;
        assert!(k.sample(0, 0, max_u).is_some(), "u → 1 must not index past the slots");
    }

    #[test]
    fn multi_step_layout_keeps_rows_separate() {
        let k = kernel_from(&[
            &[(0, &SparseDist::delta(1)), (2, &SparseDist::delta(3))],
            &[(1, &SparseDist::delta(2))],
        ]);
        assert_eq!(k.rows().num_steps(), 2);
        assert_eq!((k.rows().step(0).len(), k.rows().step(1).len()), (2, 1));
        assert_eq!(k.sample(0, 0, 0.5), Some(1));
        assert_eq!(k.sample(0, 2, 0.5), Some(3));
        assert_eq!(k.sample(1, 1, 0.5), Some(2));
        assert_eq!(k.sample(1, 0, 0.5), None);
        let (cols, probs) = k.rows().row(0, 2).unwrap();
        assert_eq!(cols, &[3]);
        assert_eq!(probs, &[1.0]);
    }

    #[test]
    fn construction_is_deterministic() {
        let rows: Vec<(StateId, SparseDist)> = (0..20u32)
            .map(|s| (s, SparseDist::from_pairs((0..8u32).map(|t| (t, (s + t + 1) as f64)))))
            .collect();
        let a = kernel_of(rows.clone());
        let b = kernel_of(rows);
        assert_eq!(a, b, "equal inputs must produce byte-equal kernels");
    }
}
