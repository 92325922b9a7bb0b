//! The three workloads. Each is a closed loop with one client: the next
//! operation starts only after the previous one returned.

use crate::inputs::{self, DatasetSize};
use crate::ops::{self, Entry, Fnv, KNN_K};
use crate::run::{ms, Build, Cycle, Run};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use ust_core::{EngineConfig, EngineStore, Query, QueryEngine};
use ust_trajectory::TrajectoryDatabase;

/// Worker threads of model adaptation, PCNN mining and the index build.
pub const THREADS: usize = 1;
/// Engine set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Distinct query specs of `cold_query` and `warm_query`.
const QUERIES: usize = 1_024;
/// Leading operations of the timed loop that are run again after it and
/// must return the same digest.
const REPEATED_OPS: usize = 8;
/// Query specs checked for P∀ ≤ P∃ after the timed loop.
const ORDER_CHECKS: usize = 4;
/// Worlds per query: few when cold, so adaptation dominates; more when warm,
/// so sampling and mining do.
const COLD_WORLDS: usize = 1_000;
const WARM_WORLDS: usize = 4_000;
/// Stores of `append_query`, and the appends drawn for each (an upper bound
/// on its cycles per run). Cycle `i` goes to store `i % STORES`; with
/// `STORES` coprime to the four-query mix every store sees every entry point.
const STORES: usize = 5;
const APPENDS: usize = 1_000;

const QUERY_DATASET: DatasetSize = DatasetSize {
    objects: 300,
    horizon: 1_000,
};
const APPEND_DATASET: DatasetSize = DatasetSize {
    objects: 16,
    horizon: 150,
};

fn config(worlds: usize, seed: u64) -> EngineConfig {
    EngineConfig {
        num_samples: worlds,
        seed,
        ..EngineConfig::default()
    }
    .with_adaptation_threads(THREADS)
    .with_pcnn_threads(THREADS)
    .with_index_build_threads(THREADS)
}

/// `cold_query` (model cache cleared before every query) or `warm_query`
/// (every influence set adapted up front).
pub fn query_workload(run: &mut Run, warm: bool, seed: u64, seconds: f64) {
    let inputs = inputs::generate(QUERY_DATASET, QUERIES, seed);
    let db = &inputs.database;
    let cfg = config(if warm { WARM_WORLDS } else { COLD_WORLDS }, seed);
    let engine = set_up(run, db, &cfg);
    if warm {
        warm_up(run, &engine, &inputs.queries);
    }
    let queries = &inputs.queries;
    let mut digests = Vec::new();
    let start = Instant::now();
    let mut op = 0;
    while start.elapsed().as_secs_f64() < seconds {
        if !warm {
            engine.clear_model_cache();
        }
        let query = &queries[op % queries.len()];
        let live = if run.traced(op) {
            live_objects(db, query)
        } else {
            0
        };
        let out = run.timed_op(&engine, query, op, Duration::ZERO, live, warm);
        if op < REPEATED_OPS {
            digests.push(out.map(|o| o.digest));
        }
        op += 1;
    }
    run.loop_wall = start.elapsed();
    run.queries = op;
    verify(run, &engine, queries, &digests, !warm);
}

fn set_up<'a>(run: &mut Run, db: &'a TrajectoryDatabase, cfg: &EngineConfig) -> QueryEngine<'a> {
    let mut engine = None;
    for _ in 0..SETUPS {
        drop(engine.take());
        let span = run.tracer.begin("setup", None);
        let start = Instant::now();
        let built = QueryEngine::new(db, cfg.clone());
        let elapsed = start.elapsed();
        run.tracer.end(span);
        run.setup_s.push(elapsed.as_secs_f64());
        let build = Build::of(&built).expect("the filter step is enabled");
        run.tracer.derive(
            span,
            &[("index.build", Duration::from_secs_f64(build.ms / 1e3))],
        );
        run.builds.push(build);
        engine = Some(built);
    }
    engine.expect("at least one set-up")
}

/// Adapts the influence set of every query spec, at every `k` of the mix, so
/// the timed loop only ever hits the cache.
fn warm_up(run: &mut Run, engine: &QueryEngine<'_>, queries: &[Query]) {
    let span = run.tracer.begin("warmup", None);
    run.attempted += 1;
    let mut ids = BTreeSet::new();
    for query in queries {
        for k in [1, KNN_K] {
            if let Some((_, influencers)) =
                run.checked(engine.filter_knn(query, k).map_err(|e| e.to_string()))
            {
                ids.extend(influencers);
            }
        }
    }
    let ids: Vec<_> = ids.into_iter().collect();
    if let Some(prepared) = run.checked(engine.prepare_objects(&ids).map_err(|e| e.to_string())) {
        run.layers.warmup_adaptation += prepared.cold_time;
        run.layers.warmup_cold_adaptations += prepared.cold_adaptations;
    }
    run.tracer.end(span);
}

/// After the timed loop: the leading operations again (same digests), then
/// P∀ ≤ P∃ at every `k` of the mix.
fn verify(
    run: &mut Run,
    engine: &QueryEngine<'_>,
    queries: &[Query],
    digests: &[Option<u64>],
    cold: bool,
) {
    for (op, recorded) in digests.iter().enumerate() {
        if cold {
            engine.clear_model_cache();
        }
        let Some(out) = run.call(engine, &queries[op], Entry::of(op)) else {
            continue;
        };
        if recorded.is_some_and(|d| d != out.digest) {
            run.fail(format!(
                "operation {op}: digest differs on the repeated pass"
            ));
        }
    }
    for query in queries.iter().take(ORDER_CHECKS) {
        for k in [1, KNN_K] {
            if cold {
                engine.clear_model_cache();
            }
            run.attempted += 1;
            let pair = ops::knn(engine, query, k, false)
                .and_then(|f| Ok((f, ops::knn(engine, query, k, true)?)))
                .map_err(|e| e.to_string())
                .and_then(|(f, e)| {
                    ops::check(&f, Entry::ForallKnn)?;
                    ops::check(&e, Entry::ExistsNn)?;
                    ops::check_forall_within_exists(&f, &e)
                });
            run.checked(pair);
        }
    }
}

fn live_objects(db: &TrajectoryDatabase, query: &Query) -> usize {
    db.objects_overlapping(query.start(), query.end()).len()
}

/// A directory for the store files of one run, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(".perfbench").join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `append_query`: file-backed stores with their UST-tree and models saved;
/// each timed cycle appends one batch to one store (WAL write and fsync),
/// mints that store's engine (rebuilding its index) and runs one query over
/// the appended interval.
///
/// The appends go round-robin over `STORES` independent small stores. Every
/// mint rebuilds the whole index, so one store large enough to average out
/// the seed would allow only a few cycles per run; several small ones give
/// many cheap cycles over as many objects, and each grows slowly.
pub fn append_workload(run: &mut Run, seed: u64, seconds: f64) {
    if let Err(e) = append_cycles(run, seed, seconds) {
        run.fail(e);
    }
}

/// One store of `append_query` with the appends and queries drawn for it.
struct Shard {
    path: PathBuf,
    appends: Vec<inputs::Append>,
    done: usize,
}

fn append_cycles(run: &mut Run, seed: u64, seconds: f64) -> Result<(), String> {
    let dir = WorkDir::create().map_err(|e| format!("work directory: {e}"))?;
    let cfg = config(COLD_WORLDS, seed);
    let mut shards = Vec::with_capacity(STORES);
    for k in 0..STORES {
        let store_seed = seed.wrapping_mul(STORES as u64).wrapping_add(k as u64);
        let inputs = inputs::generate(APPEND_DATASET, 0, store_seed);
        let appends = inputs::appends(&inputs.database, APPENDS, store_seed);
        let path = dir.0.join(format!("store-{k}.ustore"));
        let engine = QueryEngine::new(&inputs.database, cfg.clone());
        engine.prepare_all().map_err(|e| e.to_string())?;
        engine.save_store(&path).map_err(|e| e.to_string())?;
        shards.push(Shard {
            path,
            appends,
            done: 0,
        });
    }

    let mut stores = Vec::new();
    for _ in 0..SETUPS {
        stores.clear();
        let span = run.tracer.begin("setup", None);
        let start = Instant::now();
        for shard in &shards {
            let load = run.tracer.begin("persist.store_load", None);
            let store = EngineStore::load(&shard.path).map_err(|e| e.to_string())?;
            run.tracer.end(load);
            let mint = run.tracer.begin("core.store.mint", None);
            drop(store.engine(cfg.clone()));
            run.tracer.end(mint);
            stores.push(store);
        }
        run.setup_s.push(start.elapsed().as_secs_f64());
        run.tracer.end(span);
        run.persist
            .store_load_ms
            .extend(stores.iter().map(|s| ms(s.stats().load_time)));
    }

    let start = Instant::now();
    let mut op = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let (store, shard) = (&mut stores[op % STORES], &mut shards[op % STORES]);
        let Some(append) = shard.appends.get(shard.done) else {
            break;
        };
        let traced = run.traced(op);
        let id = Some(op as u64);
        let cycle = if traced {
            run.tracer.begin("append_cycle", id)
        } else {
            None
        };
        let t0 = Instant::now();
        let span = if traced {
            run.tracer.begin("persist.wal_append", id)
        } else {
            None
        };
        run.attempted += 1;
        let appended = store.append_batch(std::slice::from_ref(&append.batch));
        run.tracer.end(span);
        let t1 = Instant::now();
        let frame_bytes = appended
            .map_err(|e| format!("append {op}: {e}"))?
            .frame_bytes;
        shard.done += 1;
        let span = if traced {
            run.tracer.begin("core.store.mint", id)
        } else {
            None
        };
        let engine = store.engine(cfg.clone());
        run.tracer.end(span);
        let t2 = Instant::now();
        let live = if traced {
            live_objects(store.database(), &append.query)
        } else {
            0
        };
        run.timed_op(&engine, &append.query, op, t2 - t1, live, false);
        let t3 = Instant::now();
        run.tracer.end(cycle);
        if traced {
            let build = Build::of(&engine).expect("the filter step is enabled");
            run.tracer.derive(
                span,
                &[("index.build", Duration::from_secs_f64(build.ms / 1e3))],
            );
            run.builds.push(build);
        }
        drop(engine);
        run.cycles.push(Cycle {
            traced,
            append: t1 - t0,
            mint: t2 - t1,
            fresh: t3 - t1,
            frame_bytes,
        });
        op += 1;
    }
    run.loop_wall = start.elapsed();
    run.queries = op;

    for (store, shard) in stores.iter_mut().zip(&shards) {
        durability_check(run, store, shard, &cfg)?;
    }
    Ok(())
}

/// Untimed, per store: the live store, the store reopened from disk
/// (replaying its WAL) and an engine built from scratch over the same
/// database must answer the latest append query identically; so must the
/// store reopened after a checkpoint, which leaves no WAL behind.
fn durability_check(
    run: &mut Run,
    store: &mut EngineStore,
    shard: &Shard,
    cfg: &EngineConfig,
) -> Result<(), String> {
    let Some(last) = shard.done.checked_sub(1) else {
        return Ok(());
    };
    let checked = [&shard.appends[last].query];
    let live = digest(run, &store.engine(cfg.clone()), &checked);
    let span = run.tracer.begin("persist.reopen", None);
    let start = Instant::now();
    let reopened = EngineStore::load(&shard.path).map_err(|e| format!("reopen: {e}"))?;
    let elapsed = start.elapsed();
    run.tracer.end(span);
    run.persist
        .replay_ms
        .push(ms(elapsed.saturating_sub(reopened.stats().load_time)));
    let frames = reopened.wal_stats().frames;
    if frames != shard.done {
        run.fail(format!(
            "reopen replayed {frames} WAL frames, {} were appended",
            shard.done
        ));
    }
    let replayed = digest(run, &reopened.engine(cfg.clone()), &checked);
    drop(reopened);
    let scratch = digest(
        run,
        &QueryEngine::new(store.database(), cfg.clone()),
        &checked,
    );
    if replayed != live || scratch != live {
        run.fail(format!(
            "differential check: live {live:x}, reopened {replayed:x}, scratch {scratch:x}"
        ));
    }

    let span = run.tracer.begin("persist.checkpoint", None);
    let start = Instant::now();
    let written = store.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    run.persist.checkpoint_ms.push(ms(start.elapsed()));
    run.tracer.end(span);
    run.persist.store_bytes += written.bytes;
    let after =
        EngineStore::load(&shard.path).map_err(|e| format!("reopen after checkpoint: {e}"))?;
    if after.wal_stats().frames != 0 {
        run.fail("the checkpoint left WAL frames behind".to_string());
    }
    if digest(run, &after.engine(cfg.clone()), &checked) != live {
        run.fail("differential check: the checkpointed store answers differently".to_string());
    }
    Ok(())
}

/// One digest over every entry point of the mix on every query.
fn digest(run: &mut Run, engine: &QueryEngine<'_>, queries: &[&Query]) -> u64 {
    let mut d = Fnv::new();
    for query in queries {
        for entry in ops::MIX {
            d.word(run.call(engine, query, entry).map_or(0, |o| o.digest));
        }
    }
    d.0
}
