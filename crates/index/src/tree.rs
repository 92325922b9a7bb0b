//! The UST-tree: diamond approximations indexed in an R\*-tree.
//!
//! The build fans the per-object diamond construction out across scoped
//! worker shards ([`UstTreeConfig::build_threads`]) and memoizes the
//! reachability geometry of repeated commutes, so paper-scale databases
//! (hundreds of thousands of states, tens of thousands of objects) index in
//! parallel. Shards emit their diamond runs in object order and the runs are
//! concatenated before one STR bulk load, so the resulting index — diamond
//! order, R\*-tree shape, every pruning result — is byte-identical at every
//! thread count.
//!
//! A diamond depends only on its segment (a-priori model, endpoint states,
//! absolute times), so appending observations to an object's tail leaves
//! every existing diamond valid. [`UstTree::apply_appends`] therefore builds
//! diamonds only for the new segments of the touched objects, splices them
//! into the arena (kept in database order) and bulk-loads the R\*-tree
//! again: the result is byte-identical to a from-scratch build by
//! construction.

use crate::diamond::Diamond;
use crate::par::{parallel_map_ordered, resolve_threads};
use crate::pruning::{BoundsTable, PruningResult};
use crate::{ObjectId, StateId, Timestamp};
use rustc_hash::FxHashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use ust_markov::reachability::ReachabilityIndex;
use ust_spatial::{Point, RTree, Rect2, Rect3, StateSpace};
use ust_trajectory::{TrajectoryDatabase, UncertainObject};

/// Build-time configuration of the UST-tree.
#[derive(Debug, Clone, Copy)]
pub struct UstTreeConfig {
    /// Keep per-timestamp MBRs inside each diamond for tighter pruning bounds
    /// (the dashed rectangles of Figure 5). Costs memory proportional to the
    /// total number of covered timestamps.
    pub per_timestamp_mbrs: bool,
    /// Node capacity of the underlying R\*-tree.
    pub rtree_capacity: usize,
    /// Number of worker threads the per-object diamond construction fans out
    /// across. `0` (the default) uses the machine's available parallelism;
    /// `1` is the exact serial loop. The built index is byte-identical at
    /// every setting — shards emit ordered diamond runs that are concatenated
    /// in object order before the bulk load — only wall-clock time changes.
    pub build_threads: usize,
    /// Memoize the reachability geometry of repeated commutes (same a-priori
    /// model, same endpoint states, same time gap), so only the first
    /// occurrence runs the forward/backward BFS. The geometry is a pure
    /// function of the commute, so this never changes the built index; the
    /// switch exists for the `index_build` benchmark's no-memo baseline.
    pub reach_memo: bool,
}

impl Default for UstTreeConfig {
    fn default() -> Self {
        UstTreeConfig {
            per_timestamp_mbrs: true,
            rtree_capacity: 32,
            build_threads: 0,
            reach_memo: true,
        }
    }
}

/// Observability counters of one UST-tree build, surfaced through
/// `QueryEngine` and the bench harness so the paper-scale build trajectory is
/// measurable.
///
/// For a tree last changed by [`UstTree::apply_appends`], the counters
/// describe that delta step — its wall time, worker count, segments, memo
/// hits and misses and peak frontier — while `objects` and `diamonds` stay
/// totals over the whole tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexBuildStats {
    /// Wall-clock time of the whole build (reachability, diamonds, bulk load).
    pub build_time: Duration,
    /// Resolved worker-thread count the diamond construction fanned out
    /// across (after `0` → available parallelism).
    pub build_threads: usize,
    /// Objects indexed.
    pub objects: usize,
    /// Observation segments processed (one reachability commute each).
    pub segments: usize,
    /// Diamonds actually indexed (segments with consistent observations).
    pub diamonds: usize,
    /// Segments whose geometry was answered from the reach memo (no BFS run).
    pub reach_memo_hits: usize,
    /// Segments whose geometry ran the forward/backward BFS.
    pub reach_memo_misses: usize,
    /// Largest per-timestamp reachable-state set encountered across all
    /// segments — the peak BFS frontier, the quantity that blows up first
    /// when the state space or the observation gap grows.
    pub peak_frontier: usize,
}

impl IndexBuildStats {
    /// Memo hit rate in `[0, 1]` (zero for an empty build).
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.reach_memo_hits + self.reach_memo_misses;
        if total == 0 {
            0.0
        } else {
            self.reach_memo_hits as f64 / total as f64
        }
    }
}

/// The time-shifted geometry of one commute: everything a [`Diamond`] needs
/// except the object id and the absolute timestamps. A pure function of
/// `(a-priori model, from-state, to-state, gap)`, which is what makes it
/// memoizable across objects.
#[derive(Debug, Clone)]
struct DiamondGeometry {
    /// MBR over all states reachable anywhere in the commute.
    mbr: Rect2,
    /// Per relative timestamp (0 ..= gap), the MBR of the reachable states.
    per_time: Vec<Rect2>,
    /// Largest per-timestamp reachable-state count of this commute.
    peak_frontier: usize,
}

/// Memo key: the shared reachability index (by address — the `Arc`s live for
/// the whole build, so addresses are stable and unique), the commute's
/// endpoint states and its time gap.
type GeoKey = (usize, StateId, StateId, u32);

/// Number of memo shards; a power of two so shard selection is a mask.
const MEMO_SHARDS: usize = 16;

/// A sharded memo of commute geometries shared across build workers.
///
/// Geometry is a pure function of the key, so the memo needs no anti-stampede
/// claim discipline: two workers racing on the same cold commute both compute
/// the same value and the second insert is a no-op. Hit/miss counters feed
/// [`IndexBuildStats`].
struct GeometryMemo {
    shards: Vec<Mutex<FxHashMap<GeoKey, Arc<Option<DiamondGeometry>>>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    enabled: bool,
}

impl GeometryMemo {
    fn new(enabled: bool) -> Self {
        GeometryMemo {
            shards: (0..MEMO_SHARDS).map(|_| Mutex::new(FxHashMap::default())).collect(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            enabled,
        }
    }

    /// Returns the geometry of a commute, computing (and caching) it on the
    /// first occurrence. `None` means the commute is inconsistent (the target
    /// is unreachable in the given gap) and yields no diamond.
    fn geometry(
        &self,
        reach: &ReachabilityIndex,
        reach_key: usize,
        space: &StateSpace,
        from_state: StateId,
        to_state: StateId,
        gap: u32,
    ) -> Arc<Option<DiamondGeometry>> {
        if !self.enabled {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(compute_geometry(reach, space, from_state, to_state, gap));
        }
        let key: GeoKey = (reach_key, from_state, to_state, gap);
        let mut hasher = rustc_hash::FxHasher::default();
        key.hash(&mut hasher);
        let shard = &self.shards[(hasher.finish() as usize) & (MEMO_SHARDS - 1)];
        if let Some(geo) = shard.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return geo.clone();
        }
        // Compute outside the lock: a BFS can be long, and a racing duplicate
        // computation of the same pure value is cheaper than serialising all
        // cold commutes of the shard behind it.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let geo = Arc::new(compute_geometry(reach, space, from_state, to_state, gap));
        shard
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entry(key)
            .or_insert_with(|| geo.clone())
            .clone()
    }
}

/// Runs the forward/backward BFS of one commute and boxes the reachable sets.
fn compute_geometry(
    reach: &ReachabilityIndex,
    space: &StateSpace,
    from_state: StateId,
    to_state: StateId,
    gap: u32,
) -> Option<DiamondGeometry> {
    let sets = reach.segment((0, from_state), (gap, to_state));
    if !sets.is_consistent() {
        return None;
    }
    let mut mbr = Rect2::empty();
    let mut per_time = Vec::with_capacity(sets.per_time.len());
    let mut peak_frontier = 0usize;
    for states in &sets.per_time {
        peak_frontier = peak_frontier.max(states.len());
        let r = space.mbr_of(states.iter().copied());
        mbr.extend(&r);
        per_time.push(r);
    }
    Some(DiamondGeometry { mbr, per_time, peak_frontier })
}

/// Diamond run of one object plus the per-object stats to merge.
struct ObjectRun {
    diamonds: Vec<Diamond>,
    segments: usize,
    peak_frontier: usize,
}

/// The UST-tree over a trajectory database.
#[derive(Debug, Clone)]
pub struct UstTree {
    /// Every object's diamond run, in database object order, each run in
    /// segment order.
    diamonds: Vec<Diamond>,
    rtree: RTree<3, usize>,
    num_objects: usize,
    /// Whether diamonds carry per-timestamp MBRs (the build setting the
    /// delta step of [`Self::apply_appends`] repeats).
    per_timestamp_mbrs: bool,
    build_stats: IndexBuildStats,
}

impl UstTree {
    /// Builds the index over all objects of the database with default
    /// configuration.
    pub fn build(db: &TrajectoryDatabase) -> Self {
        Self::build_with(db, &UstTreeConfig::default())
    }

    /// Builds the index with an explicit configuration.
    ///
    /// The per-object diamond construction is fanned out across
    /// [`build_threads`](UstTreeConfig::build_threads) scoped workers; each
    /// worker emits its objects' diamonds in segment order and the ordered
    /// runs are concatenated in object order before a single STR bulk load,
    /// so the index is byte-identical at every thread count.
    pub fn build_with(db: &TrajectoryDatabase, cfg: &UstTreeConfig) -> Self {
        // lint: allow(T001) build_time is BuildStats observability; the index bytes are clock-free
        let start = Instant::now();
        let jobs: Vec<(&UncertainObject, Option<Timestamp>)> =
            db.objects().iter().map(|object| (object, None)).collect();
        let (runs, stats) = build_runs(db, &jobs, cfg);
        let mut diamonds: Vec<Diamond> =
            Vec::with_capacity(runs.iter().map(|r| r.diamonds.len()).sum());
        for run in runs {
            diamonds.extend(run.diamonds);
        }
        let mut tree = Self::from_parts(diamonds, db.len(), cfg.rtree_capacity, stats);
        tree.per_timestamp_mbrs = cfg.per_timestamp_mbrs;
        tree.finish_stats(start);
        tree
    }

    /// Brings the tree up to date with `db` after observations were appended
    /// to the objects in `touched` (tails of existing objects, or brand-new
    /// objects, which the database keeps after all older ones).
    ///
    /// Only the touched objects' new segments are built — those from the
    /// end of the object's last stored diamond on; a brand-new object, or
    /// one with no stored diamond, is built whole. A single-observation
    /// object's degenerate diamond is replaced by its real segments. Every
    /// other diamond is kept as is, the arena stays in database order, and
    /// the R\*-tree is bulk-loaded again from it, so the result equals
    /// [`Self::build_with`] over `db` with this tree's settings, diamond for
    /// diamond and node for node. The delta step fans out across
    /// `build_threads` workers (`0` = available parallelism), like the build.
    /// Afterwards [`Self::build_stats`] describes the delta step (see
    /// [`IndexBuildStats`]).
    ///
    /// A tree whose arena does not follow `db`'s object order (it was built
    /// over another database) is rebuilt from scratch.
    pub fn apply_appends(
        &mut self,
        db: &TrajectoryDatabase,
        touched: &[ObjectId],
        build_threads: usize,
    ) {
        if touched.is_empty() {
            return;
        }
        // lint: allow(T001) build_time is BuildStats observability; the index bytes are clock-free
        let start = Instant::now();
        let cfg = UstTreeConfig {
            per_timestamp_mbrs: self.per_timestamp_mbrs,
            rtree_capacity: self.rtree_capacity(),
            build_threads,
            reach_memo: true,
        };
        // Run boundaries: object `i` of `db` owns `arena[bounds[i]..bounds[i + 1]]`.
        let arena = &self.diamonds;
        let mut bounds = Vec::with_capacity(db.len() + 1);
        let mut cursor = 0;
        for object in db.objects() {
            bounds.push(cursor);
            while arena.get(cursor).is_some_and(|d| d.object == object.id()) {
                cursor += 1;
            }
        }
        bounds.push(cursor);
        if cursor != arena.len() {
            *self = Self::build_with(db, &cfg);
            return;
        }

        let mut ids = touched.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let is_touched = |object: &UncertainObject| ids.binary_search(&object.id()).is_ok();
        // A single-observation object's degenerate diamond is the only one
        // with `t_start == t_end`; a touched object has outgrown it.
        let proper = |d: &Diamond| d.t_start < d.t_end;
        // A run resumes at the end of its last proper diamond; segments from
        // there on are built again, which re-derives nothing but
        // contradictory segments (they yield no diamond anyway).
        let jobs: Vec<(&UncertainObject, Option<Timestamp>)> = db
            .objects()
            .iter()
            .enumerate()
            .filter(|(_, object)| is_touched(object))
            .map(|(i, object)| {
                let run = &arena[bounds[i]..bounds[i + 1]];
                (object, run.iter().rfind(|d| proper(d)).map(|d| d.t_end))
            })
            .collect();
        // The arena is only taken apart once the delta step has succeeded,
        // so a panic in it leaves the tree as it was.
        let (runs, stats) = build_runs(db, &jobs, &cfg);

        let added: usize = runs.iter().map(|r| r.diamonds.len()).sum();
        let old = std::mem::take(&mut self.diamonds);
        let mut diamonds = Vec::with_capacity(old.len() + added);
        let mut runs = runs.into_iter();
        let mut old = old.into_iter();
        for (i, object) in db.objects().iter().enumerate() {
            let run = old.by_ref().take(bounds[i + 1] - bounds[i]);
            if is_touched(object) {
                diamonds.extend(run.filter(proper));
                diamonds.extend(runs.next().expect("one run per touched object").diamonds);
            } else {
                diamonds.extend(run);
            }
        }
        let items = Self::rtree_items(&diamonds);
        self.rtree = RTree::bulk_load_with_capacity(items, cfg.rtree_capacity);
        self.diamonds = diamonds;
        self.num_objects = db.len();
        self.build_stats = stats;
        self.finish_stats(start);
    }

    /// Completes the stats of a build or delta step: wall time since `start`
    /// and the tree totals.
    fn finish_stats(&mut self, start: Instant) {
        self.build_stats.objects = self.num_objects;
        self.build_stats.diamonds = self.diamonds.len();
        self.build_stats.build_time = start.elapsed();
    }

    /// The R\*-tree items of an arena: each diamond's space-time box, keyed
    /// by its arena position.
    fn rtree_items(diamonds: &[Diamond]) -> Vec<(Rect3, usize)> {
        diamonds.iter().enumerate().map(|(i, d)| (d.space_time_box(), i)).collect()
    }

    /// Reassembles a tree from a stored diamond arena without re-running the
    /// Markov-chain build. The R\*-tree is *not* part of the stored form: STR
    /// bulk loading is deterministic, so rebuilding it here from the same
    /// diamonds with the same node capacity reproduces the original tree
    /// shape exactly.
    ///
    /// # Panics
    ///
    /// Panics if `rtree_capacity < 4` or if a diamond's space-time box is
    /// degenerate (inverted or non-finite bounds). Callers decoding untrusted
    /// bytes must validate first — the `ust-persist` decoder does.
    pub fn from_parts(
        diamonds: Vec<Diamond>,
        num_objects: usize,
        rtree_capacity: usize,
        build_stats: IndexBuildStats,
    ) -> Self {
        let rtree = RTree::bulk_load_with_capacity(Self::rtree_items(&diamonds), rtree_capacity);
        // The stored form has no settings block: a tree keeps per-timestamp
        // MBRs iff its diamonds carry them (the default for an empty arena).
        let per_timestamp_mbrs = diamonds.iter().all(|d| d.per_time.is_some());
        UstTree { diamonds, rtree, num_objects, per_timestamp_mbrs, build_stats }
    }

    /// Node capacity of the underlying R\*-tree (the bulk-load fan-out).
    pub fn rtree_capacity(&self) -> usize {
        self.rtree.max_entries()
    }

    /// Number of indexed diamonds (one per observation segment).
    pub fn num_diamonds(&self) -> usize {
        self.diamonds.len()
    }

    /// Number of objects of the database the index was built over.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Observability counters of the build (wall time, memo hit/miss, peak
    /// BFS frontier — see [`IndexBuildStats`]).
    pub fn build_stats(&self) -> &IndexBuildStats {
        &self.build_stats
    }

    /// All diamonds (for diagnostics and tests).
    pub fn diamonds(&self) -> &[Diamond] {
        &self.diamonds
    }

    /// Calls `f` for every diamond whose time interval overlaps
    /// `[t_from, t_to]`, in deterministic R\*-tree traversal order.
    ///
    /// This is the streaming form the filter step uses — no intermediate
    /// `Vec` of references is materialised per query.
    pub fn for_each_overlapping<'s>(
        &'s self,
        t_from: Timestamp,
        t_to: Timestamp,
        mut f: impl FnMut(&'s Diamond),
    ) {
        match self.try_for_each_overlapping(t_from, t_to, |d| {
            f(d);
            Ok::<(), std::convert::Infallible>(())
        }) {
            Ok(()) => {}
            Err(never) => match never {},
        }
    }

    /// Fallible form of [`Self::for_each_overlapping`]: the stream stops at
    /// the first `Err` the visitor returns and propagates it. The visit order
    /// of the `Ok` prefix matches the infallible form, so budget checkpoints
    /// placed in the visitor fire at deterministic stream positions.
    pub fn try_for_each_overlapping<'s, E>(
        &'s self,
        t_from: Timestamp,
        t_to: Timestamp,
        mut f: impl FnMut(&'s Diamond) -> Result<(), E>,
    ) -> Result<(), E> {
        let query = Rect3::new(
            [f64::NEG_INFINITY, f64::NEG_INFINITY, t_from as f64],
            [f64::INFINITY, f64::INFINITY, t_to as f64],
        );
        self.rtree.try_for_each_intersecting(&query, |_, &i| f(&self.diamonds[i]))
    }

    /// Diamonds whose time interval overlaps `[t_from, t_to]`, collected into
    /// a `Vec` — a thin wrapper over [`Self::for_each_overlapping`] kept for
    /// diagnostics and tests.
    pub fn diamonds_overlapping(&self, t_from: Timestamp, t_to: Timestamp) -> Vec<&Diamond> {
        let mut out = Vec::new();
        self.for_each_overlapping(t_from, t_to, |d| out.push(d));
        out
    }

    /// Runs the filter step of Section 6 for a query given by per-timestamp
    /// positions: returns the ∀-candidates, the influence objects and the
    /// per-timestamp pruning distances.
    ///
    /// `query_pos(t)` must be defined for every `t` in `times`.
    pub fn prune(
        &self,
        times: &[Timestamp],
        query_pos: impl Fn(Timestamp) -> Point,
    ) -> PruningResult {
        self.prune_knn(times, query_pos, 1)
    }

    /// The filter step for k-NN queries: the pruning distance at every
    /// timestamp is the k-th smallest `dmax` over all alive objects.
    ///
    /// `times` must be ascending (as produced by `Query::times`); the
    /// streamed probe below relies on the covered timestamps of each diamond
    /// forming a contiguous subrange.
    ///
    /// Diamonds are streamed straight out of the R\*-tree into a dense
    /// per-query bounds arena (the slot-interned `BoundsTable` of
    /// `pruning.rs`): the object slot is interned once per diamond, and only
    /// the query timestamps inside the diamond's time interval are probed.
    pub fn prune_knn(
        &self,
        times: &[Timestamp],
        query_pos: impl Fn(Timestamp) -> Point,
        k: usize,
    ) -> PruningResult {
        match self.try_prune_knn(times, query_pos, k, |_| Ok::<(), std::convert::Infallible>(()))
        {
            Ok(result) => result,
            Err(never) => match never {},
        }
    }

    /// Governable form of [`Self::prune_knn`]: `guard` is called once per
    /// streamed diamond with the running stream count (1-based) *before* the
    /// diamond is probed; returning `Err` aborts the pruning pass and
    /// propagates the error. Diamonds stream in deterministic R\*-tree order,
    /// so a guard that trips at count `n` always trips on the same diamond.
    pub fn try_prune_knn<E>(
        &self,
        times: &[Timestamp],
        query_pos: impl Fn(Timestamp) -> Point,
        k: usize,
        mut guard: impl FnMut(usize) -> Result<(), E>,
    ) -> Result<PruningResult, E> {
        debug_assert!(times.is_sorted(), "query timestamps must be ascending");
        if times.is_empty() {
            return Ok(PruningResult {
                times: Vec::new(),
                candidates: Vec::new(),
                influencers: Vec::new(),
                prune_distances: Vec::new(),
            });
        }
        let t_from = *times.first().expect("non-empty");
        let t_to = *times.last().expect("non-empty");
        let positions: Vec<Point> = times.iter().map(|&t| query_pos(t)).collect();
        let mut table = BoundsTable::new(times.len());
        let mut streamed = 0usize;
        self.try_for_each_overlapping(t_from, t_to, |diamond| {
            streamed += 1;
            guard(streamed)?;
            // Probe only the query timestamps the diamond actually covers
            // (times are ascending, so the covered ones form a subrange).
            let lo = times.partition_point(|&t| t < diamond.t_start);
            let hi = times.partition_point(|&t| t <= diamond.t_end);
            if lo == hi {
                return Ok(());
            }
            let slot = table.slot(diamond.object);
            for i in lo..hi {
                let rect = diamond
                    .rect_at(times[i])
                    .expect("timestamp inside the diamond's interval");
                table.record_at(slot, i, rect.min_dist(&positions[i]), rect.max_dist(&positions[i]));
            }
            Ok(())
        })?;
        Ok(table.evaluate_knn(times, k))
    }

    /// Convenience wrapper for a static (constant-location) query point.
    pub fn prune_point(&self, times: &[Timestamp], q: Point) -> PruningResult {
        self.prune(times, |_| q)
    }
}

/// Builds the diamond runs of `jobs` — each an object plus the time its run
/// resumes at (`None`: from its first observation) — across
/// `cfg.build_threads` workers, in job order. The returned stats cover the
/// step's workers, segments, memo and frontier; the caller fills in the
/// totals and the wall time.
fn build_runs(
    db: &TrajectoryDatabase,
    jobs: &[(&UncertainObject, Option<Timestamp>)],
    cfg: &UstTreeConfig,
) -> (Vec<ObjectRun>, IndexBuildStats) {
    // Reachability indexes are derived from a-priori models; objects sharing
    // a model (the common case) share the reachability index. They are
    // computed once up front, so the per-object fan-out below only ever
    // reads them.
    let mut reach_cache: FxHashMap<usize, Arc<ReachabilityIndex>> = FxHashMap::default();
    let work: Vec<(&UncertainObject, Option<Timestamp>, usize, Arc<ReachabilityIndex>)> = jobs
        .iter()
        .map(|&(object, resume)| {
            let model = db.model_for(object.id());
            let key = Arc::as_ptr(model) as usize;
            let reach = reach_cache
                .entry(key)
                .or_insert_with(|| Arc::new(ReachabilityIndex::from_model(model)))
                .clone();
            (object, resume, key, reach)
        })
        .collect();

    // Resolve once, with the same per-item clamp the fan-out applies, so the
    // reported thread count is what actually ran.
    let build_threads = resolve_threads(cfg.build_threads).min(jobs.len()).max(1);
    let memo = GeometryMemo::new(cfg.reach_memo);
    let space = db.state_space();
    let runs: Vec<ObjectRun> =
        parallel_map_ordered(&work, build_threads, |&(object, resume, reach_key, ref reach)| {
            build_object_run(object, resume, reach, reach_key, space, &memo, cfg)
        });
    let mut stats = IndexBuildStats {
        build_threads,
        reach_memo_hits: memo.hits.load(Ordering::Relaxed),
        reach_memo_misses: memo.misses.load(Ordering::Relaxed),
        ..Default::default()
    };
    for run in &runs {
        stats.segments += run.segments;
        stats.peak_frontier = stats.peak_frontier.max(run.peak_frontier);
    }
    (runs, stats)
}

/// Builds the ordered diamond run of one object: every segment starting at
/// or after `resume`, or all of them (the degenerate one of a
/// single-observation object included) when `resume` is `None`.
fn build_object_run(
    object: &UncertainObject,
    resume: Option<Timestamp>,
    reach: &ReachabilityIndex,
    reach_key: usize,
    space: &StateSpace,
    memo: &GeometryMemo,
    cfg: &UstTreeConfig,
) -> ObjectRun {
    // Chaos hook: lets the chaos suite crash one build shard mid-flight and
    // prove the scoped fan-out propagates the panic instead of wedging.
    ust_fault::panic_point("index.build.shard");
    let mut run = ObjectRun { diamonds: Vec::new(), segments: 0, peak_frontier: 0 };
    let mut push = |t_start: Timestamp, from_state: StateId, t_end: Timestamp, to_state: StateId| {
        run.segments += 1;
        let geo = memo.geometry(reach, reach_key, space, from_state, to_state, t_end - t_start);
        if let Some(geo) = geo.as_ref() {
            run.peak_frontier = run.peak_frontier.max(geo.peak_frontier);
            run.diamonds.push(Diamond {
                object: object.id(),
                t_start,
                t_end,
                mbr: geo.mbr,
                per_time: cfg.per_timestamp_mbrs.then(|| geo.per_time.clone()),
            });
        }
    };
    if object.num_observations() == 1 {
        // Degenerate segment: the object exists only at its single
        // observation instant.
        let obs = object.observations()[0];
        push(obs.time, obs.state, obs.time, obs.state);
    } else {
        for (from, to) in object.segments() {
            if resume.is_none_or(|t| from.time >= t) {
                push(from.time, from.state, to.time, to.state);
            }
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use ust_markov::{CsrMatrix, MarkovModel};
    use ust_spatial::StateSpace;
    use ust_trajectory::{Observation, UncertainObject};

    /// Database over a 1-d line of 10 states at x = 0..9 where objects can
    /// stay or move one step left/right per tic.
    fn line_db(objects: Vec<UncertainObject>) -> TrajectoryDatabase {
        let n = 10usize;
        let space = Arc::new(StateSpace::from_points(
            (0..n).map(|i| Point::new(i as f64, 0.0)).collect(),
        ));
        let rows = (0..n as i64)
            .map(|i| {
                let mut row = vec![(i as u32, 1.0)];
                if i > 0 {
                    row.push((i as u32 - 1, 1.0));
                }
                if (i as usize) < n - 1 {
                    row.push((i as u32 + 1, 1.0));
                }
                row
            })
            .collect();
        let model = Arc::new(MarkovModel::homogeneous(CsrMatrix::stochastic_from_weights(rows)));
        TrajectoryDatabase::with_objects(space, model, objects)
    }

    fn example_db() -> TrajectoryDatabase {
        line_db(vec![
            // Object 1 hovers around x=1.
            UncertainObject::from_pairs(1, vec![(0, 1), (4, 1), (8, 1)]).unwrap(),
            // Object 2 hovers around x=5.
            UncertainObject::from_pairs(2, vec![(0, 5), (4, 5), (8, 5)]).unwrap(),
            // Object 3 sits far away at x=9.
            UncertainObject::from_pairs(3, vec![(0, 9), (4, 9), (8, 9)]).unwrap(),
            // Object 4 only exists late (t in [6, 8]) near x=0.
            UncertainObject::from_pairs(4, vec![(6, 0), (8, 0)]).unwrap(),
        ])
    }

    #[test]
    fn build_creates_one_diamond_per_segment() {
        let db = example_db();
        let tree = UstTree::build(&db);
        // Objects 1-3 have 2 segments each, object 4 has 1.
        assert_eq!(tree.num_diamonds(), 7);
        assert_eq!(tree.num_objects(), 4);
        let stats = tree.build_stats();
        assert_eq!(stats.objects, 4);
        assert_eq!(stats.segments, 7);
        assert_eq!(stats.diamonds, 7);
        assert!(stats.build_threads >= 1);
        assert!(stats.peak_frontier >= 1);
        assert_eq!(stats.reach_memo_hits + stats.reach_memo_misses, 7);
    }

    #[test]
    fn reach_memo_deduplicates_repeated_commutes() {
        // Three objects commuting identically: 1 miss, 5 hits for the
        // (1 -> 1, gap 4) commute plus 1 miss for the distinct one.
        let db = line_db(vec![
            UncertainObject::from_pairs(1, vec![(0, 1), (4, 1), (8, 1)]).unwrap(),
            UncertainObject::from_pairs(2, vec![(0, 1), (4, 1), (8, 1)]).unwrap(),
            UncertainObject::from_pairs(3, vec![(0, 1), (4, 1), (8, 1)]).unwrap(),
            UncertainObject::from_pairs(4, vec![(0, 2), (4, 3)]).unwrap(),
        ]);
        let cfg = UstTreeConfig { build_threads: 1, ..Default::default() };
        let tree = UstTree::build_with(&db, &cfg);
        let stats = tree.build_stats();
        assert_eq!(stats.segments, 7);
        assert_eq!(stats.reach_memo_misses, 2, "two distinct commutes");
        assert_eq!(stats.reach_memo_hits, 5);
        assert!(stats.memo_hit_rate() > 0.7);
    }

    #[test]
    fn memo_and_no_memo_builds_are_identical() {
        let db = example_db();
        let with_memo =
            UstTree::build_with(&db, &UstTreeConfig { build_threads: 1, ..Default::default() });
        let without_memo = UstTree::build_with(
            &db,
            &UstTreeConfig { build_threads: 1, reach_memo: false, ..Default::default() },
        );
        assert_eq!(without_memo.build_stats().reach_memo_hits, 0);
        assert_eq!(with_memo.num_diamonds(), without_memo.num_diamonds());
        for (a, b) in with_memo.diamonds().iter().zip(without_memo.diamonds()) {
            assert_eq!(a.object, b.object);
            assert_eq!((a.t_start, a.t_end), (b.t_start, b.t_end));
            assert_eq!(a.mbr, b.mbr);
            assert_eq!(a.per_time, b.per_time);
        }
    }

    #[test]
    fn diamonds_overlapping_respects_time() {
        let db = example_db();
        let tree = UstTree::build(&db);
        let early: Vec<ObjectId> =
            tree.diamonds_overlapping(0, 3).iter().map(|d| d.object).collect();
        assert!(!early.contains(&4), "object 4 does not exist before t=6");
        let late: Vec<ObjectId> =
            tree.diamonds_overlapping(6, 8).iter().map(|d| d.object).collect();
        assert!(late.contains(&4));
    }

    #[test]
    fn visitor_and_vec_overlap_queries_agree() {
        let db = example_db();
        let tree = UstTree::build(&db);
        let collected: Vec<ObjectId> =
            tree.diamonds_overlapping(2, 7).iter().map(|d| d.object).collect();
        let mut streamed: Vec<ObjectId> = Vec::new();
        tree.for_each_overlapping(2, 7, |d| streamed.push(d.object));
        assert_eq!(collected, streamed, "wrapper and visitor must stream identically");
    }

    #[test]
    fn pruning_near_object_one() {
        let db = example_db();
        let tree = UstTree::build(&db);
        // Query at x=1 over t in [1,3]: object 1 is the only candidate; object
        // 2 can drift at most 3 to x=2 > dmax(o1) bounds? o1 dmax <= 1+3=4,
        // o2 dmin >= 5-3=2 ... both may overlap; the important checks are that
        // the far object 3 is pruned and object 1 is a candidate.
        let result = tree.prune_point(&[1, 2, 3], Point::new(1.0, 0.0));
        assert!(result.is_candidate(1));
        assert!(!result.is_influencer(3), "object 3 can never be within reach");
        assert!(!result.is_candidate(4), "object 4 does not exist in the interval");
        assert!(result.num_candidates() <= result.num_influencers());
    }

    #[test]
    fn pruning_includes_late_object_only_when_alive() {
        let db = example_db();
        let tree = UstTree::build(&db);
        let q = Point::new(0.0, 0.0);
        // Interval [6,8]: object 4 sits exactly at the query, object 1 nearby.
        let result = tree.prune_point(&[6, 7, 8], q);
        assert!(result.is_candidate(4));
        assert!(result.is_influencer(1));
        // Interval [2,3]: object 4 is not alive and must not appear at all.
        let result = tree.prune_point(&[2, 3], q);
        assert!(!result.is_influencer(4));
        assert!(result.is_candidate(1));
    }

    #[test]
    fn pruning_never_discards_true_candidates_vs_bruteforce() {
        // Compare against a brute-force bound computation over the reachable
        // sets (ground truth for the filter step).
        let db = example_db();
        let tree = UstTree::build(&db);
        let times: Vec<Timestamp> = vec![1, 2, 3, 4, 5];
        let q = Point::new(4.0, 0.0);
        let result = tree.prune(&times, |_| q);

        // Brute force: per object per time min/max distance over reachable states.
        let reach = ReachabilityIndex::from_model(db.shared_model());
        let space = db.state_space();
        let mut table = BoundsTable::new(times.len());
        for o in db.objects() {
            for (a, b) in o.segments() {
                let sets = reach.segment((a.time, a.state), (b.time, b.state));
                for (i, &t) in times.iter().enumerate() {
                    let states = sets.at(t);
                    if states.is_empty() {
                        continue;
                    }
                    let dmin = states
                        .iter()
                        .map(|&s| space.position(s).dist(&q))
                        .fold(f64::INFINITY, f64::min);
                    let dmax = states
                        .iter()
                        .map(|&s| space.position(s).dist(&q))
                        .fold(0.0f64, f64::max);
                    table.record(o.id(), i, dmin, dmax);
                }
            }
        }
        let brute = table.evaluate(&times);
        // The UST-tree bounds are exactly the MBR-based bounds over the same
        // reachable sets, so the classifications must agree on this instance.
        assert_eq!(result.candidates, brute.candidates);
        assert_eq!(result.influencers, brute.influencers);
    }

    #[test]
    fn knn_pruning_keeps_more_objects_than_nn_pruning() {
        let db = example_db();
        let tree = UstTree::build(&db);
        let q = Point::new(1.0, 0.0);
        let times: Vec<Timestamp> = vec![1, 2, 3];
        let k1 = tree.prune_knn(&times, |_| q, 1);
        let k3 = tree.prune_knn(&times, |_| q, 3);
        assert!(k3.num_candidates() >= k1.num_candidates());
        assert!(k3.num_influencers() >= k1.num_influencers());
        // With k equal to the number of alive objects, every alive object is
        // a candidate.
        assert!(k3.is_candidate(1) && k3.is_candidate(2) && k3.is_candidate(3));
    }

    #[test]
    fn empty_time_set_returns_empty_result() {
        let db = example_db();
        let tree = UstTree::build(&db);
        let result = tree.prune_point(&[], Point::new(0.0, 0.0));
        assert!(result.candidates.is_empty());
        assert!(result.influencers.is_empty());
    }

    #[test]
    fn single_observation_objects_are_indexed() {
        let db = line_db(vec![
            UncertainObject::from_pairs(1, vec![(5, 3)]).unwrap(),
            UncertainObject::from_pairs(2, vec![(0, 9), (9, 9)]).unwrap(),
        ]);
        let tree = UstTree::build(&db);
        assert_eq!(tree.num_diamonds(), 2);
        let result = tree.prune_point(&[5], Point::new(3.0, 0.0));
        assert!(result.is_candidate(1));
    }

    #[test]
    fn parallel_build_is_byte_identical_to_serial() {
        let db = example_db();
        let serial =
            UstTree::build_with(&db, &UstTreeConfig { build_threads: 1, ..Default::default() });
        for threads in [2usize, 4] {
            let sharded = UstTree::build_with(
                &db,
                &UstTreeConfig { build_threads: threads, ..Default::default() },
            );
            assert_eq!(serial.num_diamonds(), sharded.num_diamonds());
            for (a, b) in serial.diamonds().iter().zip(sharded.diamonds()) {
                assert_eq!(a.object, b.object);
                assert_eq!((a.t_start, a.t_end), (b.t_start, b.t_end));
                assert_eq!(a.mbr, b.mbr);
                assert_eq!(a.per_time, b.per_time);
            }
        }
    }

    #[test]
    fn time_varying_models_index_every_possible_path() {
        // Stay-only at t=0, line moves from t=1 on: s0 -> s0 -> s1 is a legal
        // path, so the object must get a diamond and be found near s1.
        let space = Arc::new(StateSpace::from_points(
            (0..3).map(|i| Point::new(i as f64, 0.0)).collect(),
        ));
        let line = CsrMatrix::stochastic_from_weights(vec![
            vec![(1, 1.0)],
            vec![(0, 1.0), (2, 1.0)],
            vec![(1, 1.0)],
        ]);
        let model = Arc::new(MarkovModel::time_varying(vec![CsrMatrix::identity(3), line]));
        let object = UncertainObject::from_pairs(1, vec![(0, 0), (2, 1)]).unwrap();
        let db = TrajectoryDatabase::with_objects(space, model, vec![object]);
        let tree = UstTree::build(&db);
        assert_eq!(tree.num_diamonds(), 1, "the segment is consistent under the model");
        let result = tree.prune_point(&[1, 2], Point::new(1.0, 0.0));
        assert!(result.is_influencer(1));
        assert!(result.is_candidate(1));
    }

    /// A tree maintained across appends — tails of existing objects, a
    /// brand-new object, a single-observation object that gains
    /// observations — equals a scratch build over the grown database.
    #[test]
    fn apply_appends_matches_a_scratch_build() {
        let db = line_db(vec![
            UncertainObject::from_pairs(1, vec![(0, 1), (4, 1), (8, 1)]).unwrap(),
            UncertainObject::from_pairs(2, vec![(3, 5)]).unwrap(),
            UncertainObject::from_pairs(3, vec![(0, 9), (4, 9)]).unwrap(),
        ]);
        let mut grown = db.clone();
        for (id, pairs) in [(1u32, vec![(10, 2)]), (2, vec![(5, 6), (9, 4)]), (7, vec![(2, 0), (6, 3)])]
        {
            let obs: Vec<Observation> =
                pairs.iter().map(|&(t, s)| Observation::new(t, s)).collect();
            grown.append_observations(id, &obs).unwrap();
        }
        for threads in [1usize, 2] {
            let cfg = UstTreeConfig { build_threads: threads, ..Default::default() };
            let mut tree = UstTree::build_with(&db, &cfg);
            tree.apply_appends(&grown, &[7, 2, 1, 2], threads);
            let scratch = UstTree::build_with(&grown, &cfg);
            assert_eq!(tree.diamonds(), scratch.diamonds());
            assert_eq!(tree.num_objects(), 4);
            let stats = tree.build_stats();
            assert_eq!((stats.objects, stats.diamonds), (4, scratch.num_diamonds()));
            // Object 1 gains one segment, object 2 two (its degenerate
            // diamond replaced), object 7 one: only those four are built.
            assert_eq!(stats.segments, 4);
            let times = [1, 3, 5, 7, 9];
            let q = Point::new(2.0, 0.0);
            let (a, b) = (tree.prune_point(&times, q), scratch.prune_point(&times, q));
            assert_eq!((a.candidates, a.influencers), (b.candidates, b.influencers));
        }
    }
}
