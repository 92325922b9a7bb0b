//! The UST-tree a store maintains across appends must equal a from-scratch
//! build over the same database.
//!
//! Seeded append sequences cover tails of existing objects, brand-new
//! objects, single-observation objects that gain observations, and a
//! contradictory segment that yields no diamond. After every batch, three
//! stores must each carry a tree equal to `UstTree::build_with` over their
//! database — the same diamond arena field for field and the same
//! `prune_knn` results over a query set — at build threads 1 and 2:
//!
//! * the live store that appended the batch,
//! * the same store reopened from disk, replaying every WAL frame so far,
//! * a second store that checkpoints after every batch, reloaded.
//!
//! A tree maintained directly by `UstTree::apply_appends` at each thread
//! count must match too. Finally, a panic inside the delta build (the
//! `index.build.shard` fault point) must leave the store without a tree, so
//! it answers like a scratch engine rather than from a stale one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ust_core::{EngineConfig, EngineStore, Query, QueryEngine, QueryOutcome};
use ust_fault::{fired, FaultPlan};
use ust_generator::{Dataset, ObjectWorkloadConfig, SyntheticNetworkConfig};
use ust_index::{UstTree, UstTreeConfig};
use ust_persist::wal;
use ust_spatial::Point;
use ust_trajectory::{ObjectId, Observation, TrajectoryDatabase};

type Batch = Vec<(ObjectId, Vec<Observation>)>;

/// The fault registry is process-global: every test of this binary builds
/// trees, so all of them serialise on this lock.
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn dataset(seed: u64) -> Dataset {
    let net = SyntheticNetworkConfig {
        num_states: 200,
        branching_factor: 6.0,
        seed,
    };
    let obj = ObjectWorkloadConfig {
        num_objects: 12,
        lifetime: 50,
        horizon: 100,
        observation_interval: 10,
        lag: 0.5,
        standing_fraction: 0.2,
        seed: seed + 1,
    };
    Dataset::synthetic(&net, &obj, 1.0)
}

fn store_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ust_index_maintenance_{}_{tag}.ustore",
        std::process::id()
    ))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(wal::wal_path(path));
}

/// Splits `full` into a base database and a seeded sequence of batches that
/// grow it back. Each object keeps 0 (brand-new later), 1 (a
/// single-observation object that gains observations) or more of its
/// observations in the base; batches append the rest in order, 1–2
/// observations per entry and 1–3 entries per batch. One batch also sends an
/// object to a state it cannot reach in one tic: a contradictory segment.
/// Returns the contradictory `(object, t_start)` too.
fn append_plan(
    full: &TrajectoryDatabase,
    seed: u64,
) -> (TrajectoryDatabase, Vec<Batch>, (ObjectId, u32)) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut base = TrajectoryDatabase::new(full.state_space().clone(), full.shared_model().clone());
    let mut pending: Vec<(ObjectId, Vec<Observation>)> = Vec::new();
    for (i, object) in full.objects().iter().enumerate() {
        let obs = object.observations();
        let keep = match i % 4 {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(2..=obs.len().max(2)).min(obs.len()),
        };
        if keep > 0 {
            base.append_observations(object.id(), &obs[..keep])
                .expect("a prefix is valid");
        }
        if keep < obs.len() {
            pending.push((object.id(), obs[keep..].to_vec()));
        }
    }

    let mut batches: Vec<Batch> = Vec::new();
    let mut contradiction = None;
    let matrix = full.shared_model().matrix_at(0);
    while pending.iter().any(|(_, rest)| !rest.is_empty()) {
        let mut batch: Batch = Vec::new();
        for _ in 0..rng.gen_range(1..=3usize) {
            let open: Vec<usize> = (0..pending.len())
                .filter(|&k| !pending[k].1.is_empty())
                .collect();
            let Some(&k) = open.get(rng.gen_range(0..open.len().max(1))) else {
                break;
            };
            if batch.iter().any(|(id, _)| *id == pending[k].0) {
                continue;
            }
            let take = rng.gen_range(1..=2usize).min(pending[k].1.len());
            let entry: Vec<Observation> = pending[k].1.drain(..take).collect();
            batch.push((pending[k].0, entry));
        }
        if contradiction.is_none() && batches.len() == 2 {
            // Detour one entry: one tic after its last observation, to a state
            // outside its successors. The object's later appends then resume
            // behind a segment that has no diamond.
            let (id, entry) = batch.last_mut().expect("every batch has an entry");
            let last = *entry.last().expect("non-empty entry");
            let far = (0..matrix.num_states() as u32)
                .find(|s| !matrix.successors(last.state).contains(s))
                .expect("the network is not complete");
            entry.push(Observation::new(last.time + 1, far));
            contradiction = Some((*id, last.time));
            let id = *id;
            for (_, rest) in pending.iter_mut().filter(|(pid, _)| *pid == id) {
                rest.retain(|o| o.time > last.time + 1);
            }
        }
        batches.push(batch);
    }
    (
        base,
        batches,
        contradiction.expect("the plan has at least three batches"),
    )
}

/// A fixed query set over the dataset's extent: points and windows.
fn probes(db: &TrajectoryDatabase, seed: u64) -> Vec<(Point, Vec<u32>)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37);
    let (t_min, t_max) = db.time_horizon().expect("non-empty database");
    let space = db.state_space();
    (0..6)
        .map(|_| {
            let at = space.position(rng.gen_range(0..space.len() as u32));
            let from = rng.gen_range(t_min..=t_max);
            let to = (from + rng.gen_range(0..15u32)).min(t_max + 20);
            (at, (from..=to).collect())
        })
        .collect()
}

/// Scratch builds over `db` at build threads 1 and 2.
fn scratch_builds(db: &TrajectoryDatabase) -> Vec<UstTree> {
    [1usize, 2]
        .iter()
        .map(|&t| {
            UstTree::build_with(
                db,
                &UstTreeConfig {
                    build_threads: t,
                    ..Default::default()
                },
            )
        })
        .collect()
}

/// Asserts `tree` equals each scratch build: the same arena, object and
/// diamond totals, and `prune_knn` results.
fn assert_scratch_equal(
    what: &str,
    tree: &UstTree,
    scratch: &[UstTree],
    queries: &[(Point, Vec<u32>)],
) {
    for (scratch, threads) in scratch.iter().zip([1usize, 2]) {
        assert_eq!(
            tree.num_objects(),
            scratch.num_objects(),
            "{what}: object count"
        );
        assert_eq!(
            tree.diamonds(),
            scratch.diamonds(),
            "{what}: diamond arena at {threads} threads"
        );
        assert_eq!(
            tree.build_stats().diamonds,
            scratch.num_diamonds(),
            "{what}: diamond total"
        );
        assert_eq!(
            tree.build_stats().objects,
            scratch.num_objects(),
            "{what}: object total"
        );
        for (q, times) in queries {
            for k in [1usize, 3] {
                let (a, b) = (
                    tree.prune_knn(times, |_| *q, k),
                    scratch.prune_knn(times, |_| *q, k),
                );
                assert_eq!(a.candidates, b.candidates, "{what}: candidates");
                assert_eq!(a.influencers, b.influencers, "{what}: influencers");
                let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&a.prune_distances),
                    bits(&b.prune_distances),
                    "{what}: distances"
                );
            }
        }
    }
}

#[test]
fn maintained_trees_equal_scratch_builds_after_every_batch() {
    let _guard = fault_lock();
    for seed in [3u64, 17] {
        let full = dataset(seed);
        let (base, batches, (odd_object, odd_start)) = append_plan(&full.database, seed);
        let queries = probes(&full.database, seed);

        let live_path = store_path(&format!("live_{seed}"));
        let checkpointed_path = store_path(&format!("checkpointed_{seed}"));
        for path in [&live_path, &checkpointed_path] {
            cleanup(path);
            QueryEngine::new(
                &base,
                EngineConfig {
                    index_build_threads: 1,
                    ..Default::default()
                },
            )
            .save_store(path)
            .expect("seed store");
        }
        let mut live = EngineStore::load(&live_path).expect("load live");
        let mut direct: Vec<UstTree> = [1usize, 2]
            .iter()
            .map(|&t| {
                UstTree::build_with(
                    &base,
                    &UstTreeConfig {
                        build_threads: t,
                        ..Default::default()
                    },
                )
            })
            .collect();
        let (mut tails, mut fresh, mut singles) = (0, 0, 0);

        for (k, batch) in batches.iter().enumerate() {
            for (id, _) in batch {
                match live.database().object(*id).map(|o| o.num_observations()) {
                    None => fresh += 1,
                    Some(1) => singles += 1,
                    Some(_) => tails += 1,
                }
            }
            live.append_batch(batch).expect("the append succeeds");
            let db = live.database();
            let what = format!("seed {seed} batch {k}");
            let scratch = scratch_builds(db);
            assert_scratch_equal(
                &format!("{what} live"),
                live.index().expect("live tree"),
                &scratch,
                &queries,
            );

            let ids: Vec<ObjectId> = batch.iter().map(|(id, _)| *id).collect();
            for (tree, threads) in direct.iter_mut().zip([1usize, 2]) {
                tree.apply_appends(db, &ids, threads);
                assert_eq!(tree.build_stats().build_threads, threads.min(ids.len()));
                assert_scratch_equal(
                    &format!("{what} direct at {threads}"),
                    tree,
                    &scratch,
                    &queries,
                );
            }

            let reopened = EngineStore::load(&live_path).expect("reopen replays the WAL");
            assert_eq!(reopened.wal_stats().frames, k + 1);
            assert_scratch_equal(
                &format!("{what} replayed"),
                reopened.index().expect("tree"),
                &scratch,
                &queries,
            );

            let mut checkpointed = EngineStore::load(&checkpointed_path).expect("load");
            checkpointed
                .append_batch(batch)
                .expect("the append succeeds");
            checkpointed.checkpoint().expect("checkpoint succeeds");
            let reloaded = EngineStore::load(&checkpointed_path).expect("reload");
            assert_eq!(reloaded.wal_stats().frames, 0);
            assert!(
                reloaded.index().is_some(),
                "{what}: the checkpoint persists the tree"
            );
            assert_scratch_equal(
                &format!("{what} checkpointed"),
                reloaded.index().expect("tree"),
                &scratch,
                &queries,
            );
        }

        assert!(
            tails > 0 && fresh > 0 && singles > 0,
            "seed {seed}: {tails} {fresh} {singles}"
        );
        // The detour is a segment with no diamond, so it lies uncovered.
        let tree = live.index().expect("live tree");
        let odd: Vec<_> = tree
            .diamonds()
            .iter()
            .filter(|d| d.object == odd_object)
            .collect();
        assert!(odd
            .iter()
            .all(|d| d.t_start != odd_start || d.t_end != odd_start + 1));
        let segments = live
            .database()
            .object(odd_object)
            .expect("object")
            .num_observations()
            - 1;
        assert!(
            odd.len() < segments,
            "seed {seed}: the contradictory segment has no diamond"
        );
        cleanup(&live_path);
        cleanup(&checkpointed_path);
    }
}

fn answers(engine: &QueryEngine<'_>, queries: &[Query]) -> Vec<Vec<(ObjectId, u64)>> {
    let pairs = |o: QueryOutcome| {
        o.results
            .iter()
            .map(|r| (r.object, r.probability.to_bits()))
            .collect()
    };
    queries
        .iter()
        .map(|q| {
            engine
                .pexists_nn(q, 0.0)
                .map(pairs)
                .expect("the query succeeds")
        })
        .collect()
}

#[test]
fn a_panicking_delta_build_falls_back_to_a_scratch_tree() {
    let _guard = fault_lock();
    let full = dataset(5);
    // Hold back the last observation of every long-enough object.
    let mut base = TrajectoryDatabase::new(
        full.database.state_space().clone(),
        full.database.shared_model().clone(),
    );
    let mut batch: Batch = Vec::new();
    for object in full.database.objects() {
        let obs = object.observations();
        let keep = if obs.len() > 2 {
            obs.len() - 1
        } else {
            obs.len()
        };
        base.append_observations(object.id(), &obs[..keep])
            .expect("a prefix is valid");
        if keep < obs.len() {
            batch.push((object.id(), obs[keep..].to_vec()));
        }
    }
    assert!(!batch.is_empty());
    let config = EngineConfig {
        num_samples: 50,
        index_build_threads: 1,
        ..Default::default()
    };
    let queries: Vec<Query> = probes(&full.database, 5)
        .into_iter()
        .map(|(q, times)| Query::at_point(q, times).expect("valid query"))
        .collect();

    let path = store_path("fault");
    cleanup(&path);
    QueryEngine::new(&base, config.clone())
        .save_store(&path)
        .expect("seed store");
    let mut store = EngineStore::load(&path).expect("load");
    assert!(store.index().is_some());

    let armed = FaultPlan::once("index.build.shard").arm();
    let outcome = catch_unwind(AssertUnwindSafe(|| store.append_batch(&batch)));
    assert_eq!(
        fired("index.build.shard"),
        1,
        "the delta build reached the fault point"
    );
    drop(armed);
    assert!(
        outcome.is_err(),
        "the shard panic unwinds out of the append"
    );

    // The batch is logged and applied; the half-maintained tree is gone, so
    // the store answers like a scratch engine over the grown database.
    assert!(store.index().is_none(), "no stale tree survives the panic");
    assert_eq!(
        store.database().total_observations(),
        full.database.total_observations()
    );
    let scratch = QueryEngine::new(store.database(), config.clone());
    let expected = answers(&scratch, &queries);
    assert_eq!(answers(&store.engine(config.clone()), &queries), expected);
    // So does the store reopened from disk, whose replay maintains the
    // container's tree.
    let reopened = EngineStore::load(&path).expect("reopen");
    let scratch = scratch_builds(store.database());
    assert_scratch_equal(
        "reopened after the panic",
        reopened.index().expect("tree"),
        &scratch,
        &[],
    );
    assert_eq!(answers(&reopened.engine(config), &queries), expected);
    cleanup(&path);
}
