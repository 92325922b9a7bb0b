//! Block (structure-of-arrays) possible-world sampling.
//!
//! The query engine's Monte-Carlo loop evaluates every sampled world at every
//! query timestamp. Sampling worlds one at a time stores each world as an
//! array-of-structures (one [`ust_trajectory::Trajectory`] per object), so
//! the per-timestamp evaluation strides across trajectories and the PCNN
//! [`WorldSet`](https://en.wikipedia.org/wiki/Bit_array) columns are written
//! one bit at a time.
//!
//! A [`WorldBlock`] instead samples a *block* of worlds (typically
//! [`WORLD_BLOCK_WIDTH`] = 64, one per bit of a `u64` word) into a
//! structure-of-arrays arena: for each object and each query timestamp the
//! object covers, the states of all worlds in the block sit contiguously. The
//! engine then scans `states_at(object, i)` — one cache-friendly 64-wide row
//! for the `i`-th query timestamp — to build a whole `u64` of world-hit bits
//! at once and feed it to the world set word-wise.
//!
//! **Segment rule.** Under the adapted model every observation is a certain
//! state, so the state at a query timestamp τ depends only on the transitions
//! made since the object's last observation at or before τ. `fill` therefore
//! walks each object segment by segment between its observations: at the
//! start of a segment the current state is that segment's observation, and
//! step `t` draws a real transition only if some query timestamp τ satisfies
//! `t < τ < next`, where `next` is the object's first observation after `t`.
//! Every other step — before the query window, in a gap of a sparse `T`,
//! just before an observation, or past the last query timestamp — consumes
//! its one RNG draw without the row lookup and alias draw.
//!
//! **Bit-identity.** The full walk of
//! [`PosteriorSampler::sample_prefix_into`](crate::posterior::PosteriorSampler::sample_prefix_into)
//! draws one `u` per chain step and always passes through every observation
//! (the adapted rows leave no other state reachable there). A segment walk
//! consumes the same `u` at the same step and starts from the same state, so
//! it draws the same transitions; the skipped steps only burn their `u`.
//! Worlds are drawn in world-major order (world 0's objects in sampler
//! order, then world 1's, …), so filling a block consumes the RNG exactly
//! like the same number of consecutive
//! [`WorldSampler::sample_world_prefix_into`] calls, and every state at a
//! covered query timestamp is bit-identical to the per-world path. The tests
//! pin this for contiguous and sparse timestamp sets.

use crate::world::WorldSampler;
use rand::Rng;
use std::sync::Arc;
use ust_markov::{AdaptedModel, Timestamp};
use ust_spatial::StateId;
use ust_trajectory::ObjectId;

/// Worlds per block: one per bit of a `u64`, matching the word width of the
/// PCNN world set and the engine's budget-probe interval.
pub const WORLD_BLOCK_WIDTH: usize = 64;

/// The walk from one observation up to the last query timestamp before the
/// object's next observation.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Chain steps skipped (one burnt RNG draw each) before this segment.
    skip: u32,
    /// Time of the observation the segment starts from.
    time: Timestamp,
    /// The observed state at `time`.
    state: StateId,
    /// Transitions drawn from `time` on.
    steps: u32,
}

/// Per-object walk plan and arena window of a block.
#[derive(Debug, Clone)]
struct BlockObject {
    id: ObjectId,
    model: Arc<AdaptedModel>,
    /// The segments that reach a query timestamp, in time order.
    segments: Vec<Segment>,
    /// Chain steps skipped after the last segment.
    tail: u32,
    /// First covered query-time index.
    first: usize,
    /// Number of covered query timestamps: indices `first..first + rows`.
    rows: usize,
    /// Start of this object's rows in the state arena.
    offset: usize,
}

impl BlockObject {
    /// Plans the walk of `model` for the strictly increasing query `times`.
    fn plan(id: ObjectId, model: &Arc<AdaptedModel>, times: &[Timestamp], offset: usize) -> Self {
        let first = times.partition_point(|&t| t < model.start());
        let rows = times.partition_point(|&t| t <= model.end()) - first;
        let observations = model.observations();
        let mut segments = Vec::new();
        let mut skip = 0u32;
        for (i, &(time, state)) in observations.iter().enumerate() {
            let next = observations.get(i + 1).map_or(time, |&(t, _)| t);
            // The last query timestamp strictly between this observation and
            // the next one: the walk has to reach it, and no further.
            let last_query = times.partition_point(|&t| t < next);
            let steps = match times[..last_query].last() {
                Some(&tau) if tau > time => tau - time,
                _ => 0,
            };
            if steps > 0 || times.binary_search(&time).is_ok() {
                segments.push(Segment { skip, time, state, steps });
                skip = 0;
            }
            skip += next - time - steps;
        }
        debug_assert_eq!(
            segments.iter().map(|s| s.skip + s.steps).sum::<u32>() + skip,
            model.end() - model.start(),
            "one RNG draw per chain step"
        );
        BlockObject { id, model: Arc::clone(model), segments, tail: skip, first, rows, offset }
    }
}

/// A structure-of-arrays block of sampled possible worlds.
///
/// Layout: object-major, then query-time-major, then world-minor —
/// `states[offset(obj) + (i - first(obj)) · capacity + w]` holds the state of
/// world `w` for object `obj` at the `i`-th query timestamp, so for a fixed
/// `(obj, i)` the worlds of the block are one contiguous slice. Only the
/// query timestamps inside an object's `[first observation, last
/// observation]` are held.
#[derive(Debug, Clone)]
pub struct WorldBlock {
    capacity: usize,
    count: usize,
    times: Vec<Timestamp>,
    objects: Vec<BlockObject>,
    states: Vec<StateId>,
}

impl WorldBlock {
    /// Builds an (empty) block over the sampler's objects that holds their
    /// states at the query timestamps `times` (strictly increasing) and up
    /// to `capacity` worlds per fill.
    pub fn new(sampler: &WorldSampler, times: &[Timestamp], capacity: usize) -> Self {
        assert!(
            times.windows(2).all(|w| w[0] < w[1]),
            "block query times must be strictly increasing"
        );
        let mut objects = Vec::with_capacity(sampler.len());
        let mut offset = 0usize;
        for (id, model) in sampler.models() {
            let object = BlockObject::plan(*id, model, times, offset);
            offset += object.rows * capacity;
            objects.push(object);
        }
        WorldBlock { capacity, count: 0, times: times.to_vec(), objects, states: vec![0; offset] }
    }

    /// Samples `count ≤ capacity` fresh worlds into the block, replacing its
    /// previous contents. Worlds are drawn in world-major order with one RNG
    /// draw per chain step, so the RNG stream — and every stored state — is
    /// bit-identical to `count` consecutive
    /// [`WorldSampler::sample_world_prefix_into`] calls; only the steps the
    /// segment rule needs pay for a transition.
    pub fn fill<R: Rng>(&mut self, rng: &mut R, count: usize) {
        assert!(count <= self.capacity, "block fill of {count} exceeds capacity {}", self.capacity);
        self.count = count;
        let capacity = self.capacity;
        let times = &self.times;
        let states = &mut self.states;
        for w in 0..count {
            for obj in &self.objects {
                // Arena slot and index of the next covered query timestamp.
                let mut slot = obj.offset + w;
                let mut next = obj.first;
                for seg in &obj.segments {
                    burn(rng, seg.skip);
                    let mut t = seg.time;
                    let mut current = seg.state;
                    if times.get(next) == Some(&t) {
                        states[slot] = current;
                        slot += capacity;
                        next += 1;
                    }
                    for _ in 0..seg.steps {
                        // `rng.gen::<f64>()` yields u ∈ [0, 1), satisfying
                        // the alias kernel's contract.
                        current = obj
                            .model
                            .sample_transition(t, current, rng.gen::<f64>())
                            .expect("reachable states always have an adapted transition row");
                        t += 1;
                        if times[next] == t {
                            states[slot] = current;
                            slot += capacity;
                            next += 1;
                        }
                    }
                }
                burn(rng, obj.tail);
                debug_assert_eq!(next, obj.first + obj.rows, "every covered timestamp is stored");
            }
        }
    }

    /// Number of worlds currently held (set by the last [`fill`](Self::fill)).
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Maximum number of worlds per fill.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of objects per world.
    #[inline]
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// The object id at block index `obj` (sampler order).
    pub fn object_id(&self, obj: usize) -> Option<ObjectId> {
        self.objects.get(obj).map(|o| o.id)
    }

    /// The states of all held worlds for object index `obj` at the query
    /// timestamp of index `time_index`: a contiguous slice of length
    /// [`count`](Self::count), world `w` at position `w`. `None` if the
    /// timestamp lies outside the object's `[first observation, last
    /// observation]` — exactly when its per-world trajectory would not cover
    /// it either.
    #[inline]
    pub fn states_at(&self, obj: usize, time_index: usize) -> Option<&[StateId]> {
        let o = self.objects.get(obj)?;
        let row = time_index.checked_sub(o.first).filter(|&r| r < o.rows)?;
        let base = o.offset + row * self.capacity;
        Some(&self.states[base..base + self.count])
    }

    /// The state of one world for object index `obj` at the query timestamp
    /// of index `time_index`.
    pub fn state(&self, obj: usize, time_index: usize, world: usize) -> Option<StateId> {
        self.states_at(obj, time_index).and_then(|row| row.get(world).copied())
    }
}

/// Consumes the RNG draws of `steps` chain steps without walking them.
#[inline]
fn burn<R: Rng>(rng: &mut R, steps: u32) {
    for _ in 0..steps {
        rng.gen::<f64>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::PossibleWorld;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ust_markov::{CsrMatrix, MarkovModel};

    fn sampler() -> WorldSampler {
        let model = MarkovModel::homogeneous(CsrMatrix::from_rows(vec![
            vec![(0, 1.0)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(1, 0.5), (3, 0.5)],
        ]));
        let adapt =
            |obs: &[(Timestamp, StateId)]| Arc::new(AdaptedModel::build(&model, obs).unwrap());
        WorldSampler::from_models(vec![
            (1, adapt(&[(1, 1)])),
            (2, adapt(&[(0, 2), (4, 0)])),
            (3, adapt(&[(2, 3)])),
            // Random paths in two of its three segments.
            (4, adapt(&[(1, 3), (4, 2), (6, 0), (9, 0)])),
        ])
    }

    /// Contiguous windows and sparse sets, starting and ending on, before
    /// and after observations, plus single timestamps.
    fn time_sets() -> Vec<Vec<Timestamp>> {
        let windows = [(0, 0), (0, 2), (1, 4), (2, 5), (3, 5), (0, 9), (5, 12), (10, 20)];
        let mut sets: Vec<Vec<Timestamp>> =
            windows.into_iter().map(|(from, to)| (from..=to).collect()).collect();
        sets.extend([
            vec![0, 2, 4],
            vec![1, 5, 9],
            vec![2, 3, 7, 8],
            vec![3, 6],
            vec![0, 100],
            vec![3],
            vec![5],
            vec![9],
        ]);
        sets
    }

    #[test]
    fn block_fill_is_bit_identical_to_per_world_prefix_sampling() {
        let sampler = sampler();
        for times in time_sets() {
            let horizon = *times.last().unwrap();
            let mut rng_block = StdRng::seed_from_u64(42);
            let mut rng_world = StdRng::seed_from_u64(42);
            let mut block = WorldBlock::new(&sampler, &times, WORLD_BLOCK_WIDTH);
            let mut world = PossibleWorld::empty();
            // Two full blocks and one partial block.
            for count in [WORLD_BLOCK_WIDTH, WORLD_BLOCK_WIDTH, 13] {
                block.fill(&mut rng_block, count);
                assert_eq!(block.count(), count);
                for w in 0..count {
                    sampler.sample_world_prefix_into(&mut rng_world, &mut world, horizon);
                    for (obj, (id, tr)) in world.trajectories().iter().enumerate() {
                        assert_eq!(block.object_id(obj), Some(*id));
                        // Covered timestamps match state for state; the
                        // others are `None` on both sides.
                        for (i, &t) in times.iter().enumerate() {
                            assert_eq!(
                                block.state(obj, i, w),
                                tr.state_at(t),
                                "times={times:?} w={w} obj={obj} t={t}"
                            );
                        }
                        assert_eq!(block.states_at(obj, times.len()), None);
                    }
                }
            }
            // Both paths consumed the same number of RNG draws.
            assert_eq!(rng_block.gen::<u64>(), rng_world.gen::<u64>(), "times={times:?}");
        }
    }

    #[test]
    fn states_at_is_none_outside_an_objects_covered_indices() {
        let sampler = sampler();
        let times: Vec<Timestamp> = (0..=12).collect();
        let mut block = WorldBlock::new(&sampler, &times, WORLD_BLOCK_WIDTH);
        block.fill(&mut StdRng::seed_from_u64(3), 8);
        // Object 4 is observed over [1, 9].
        assert_eq!(block.states_at(3, 0), None);
        for i in 1..=9 {
            assert_eq!(block.states_at(3, i).map(<[StateId]>::len), Some(8), "i={i}");
        }
        for i in 10..=13 {
            assert_eq!(block.states_at(3, i), None, "i={i}");
        }
        // Object 1 is observed only at t = 1.
        assert_eq!(block.states_at(0, 0), None);
        assert_eq!(block.states_at(0, 1), Some(&[1u32; 8][..]));
        assert_eq!(block.states_at(0, 2), None);
        assert_eq!(block.states_at(4, 1), None, "no fifth object");
    }

    #[test]
    fn states_at_rows_are_world_contiguous() {
        let sampler = sampler();
        let mut rng = StdRng::seed_from_u64(7);
        let times: Vec<Timestamp> = (0..=4).collect();
        let mut block = WorldBlock::new(&sampler, &times, WORLD_BLOCK_WIDTH);
        block.fill(&mut rng, 64);
        let row = block.states_at(1, 2).expect("object 2 covers t=2");
        assert_eq!(row.len(), 64);
        for (w, &s) in row.iter().enumerate() {
            assert_eq!(block.state(1, 2, w), Some(s));
        }
    }

    #[test]
    fn refilling_replaces_previous_contents() {
        let sampler = sampler();
        let mut rng = StdRng::seed_from_u64(9);
        let times: Vec<Timestamp> = (0..=4).collect();
        let mut block = WorldBlock::new(&sampler, &times, WORLD_BLOCK_WIDTH);
        block.fill(&mut rng, 64);
        block.fill(&mut rng, 5);
        assert_eq!(block.count(), 5);
        assert_eq!(block.states_at(0, 1).unwrap().len(), 5);
        assert_eq!(block.state(0, 1, 5), None, "world index past count");
    }

    #[test]
    fn empty_sampler_produces_an_empty_block() {
        let block = WorldBlock::new(&WorldSampler::new(), &[10], WORLD_BLOCK_WIDTH);
        assert_eq!(block.num_objects(), 0);
        assert_eq!(block.states_at(0, 0), None);
        assert_eq!(block.object_id(0), None);
    }
}
