//! Cold-starting a query engine from an on-disk store, and growing that
//! store incrementally through the write-ahead log.
//!
//! [`QueryEngine`] borrows its database, so something has
//! to *own* the state a store file yields. That is [`EngineStore`]: it holds
//! the decoded database, the UST-tree behind an [`Arc`], and the adapted
//! models, and mints borrowing engines on demand. Every engine minted from
//! one store shares the same tree allocation (no per-engine rebuild or
//! clone), and its adaptation cache starts pre-warmed with the stored
//! models — the two expensive start-up phases the store exists to skip.
//!
//! ```no_run
//! use ust_core::{EngineConfig, EngineStore};
//!
//! let store = EngineStore::load("fig06.ustore")?;
//! let engine = store.engine(EngineConfig::default());
//! # Ok::<(), ust_persist::StoreError>(())
//! ```
//!
//! # Incremental ingest
//!
//! A file-backed store also accepts appends without rewriting the container:
//! [`EngineStore::append_batch`] durably logs one batch of observations to
//! the sidecar WAL (`<store>.wal`, see [`ust_persist::wal`]) *before*
//! applying it in memory, and [`EngineStore::checkpoint`] folds the log back
//! into a freshly written container (temp file + atomic rename) and drops
//! it. [`EngineStore::load`] replays whatever the log holds — truncating a
//! torn tail at the last valid frame — so a crash at any point recovers to
//! either the pre-batch or the post-batch state, never a third one. The
//! crash matrix in `crates/bench/tests/store_recovery.rs` proves exactly
//! that for every cataloged fault point.
//!
//! Appends maintain the UST-tree and invalidate the adapted models. A
//! diamond depends only on its segment, so appending to an object's tail
//! leaves every stored diamond valid: the tree gains the diamonds of the
//! touched objects' new segments ([`UstTree::apply_appends`]) and stays equal
//! to a from-scratch build over the grown database, so engines minted
//! afterwards share it without a rebuild and [`EngineStore::checkpoint`]
//! persists it. The adapted models of every touched object are dropped
//! (their observation history changed, so the cached a-posteriori matrices
//! are stale; untouched objects keep their models).

use crate::engine::{AdaptedModels, EngineConfig, QueryEngine};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use ust_index::UstTree;
use ust_persist::{wal, LoadedStore, StoreContents, StoreError, StoreStats, WalAppendStats};
use ust_trajectory::{ObjectId, Observation, TrajectoryDatabase};

/// What [`EngineStore::load`] replayed from the sidecar WAL (all zero when
/// no WAL was present).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalReplayStats {
    /// Valid frames replayed.
    pub frames: usize,
    /// Observations actually applied to the database.
    pub observations: usize,
    /// Observations skipped because the container already held them (the
    /// idempotent-replay rule: a checkpoint that crashed before truncating
    /// its WAL leaves frames behind that are already folded in).
    pub skipped_observations: usize,
    /// Bytes of torn tail truncated off the WAL during recovery.
    pub torn_bytes: u64,
    /// Valid WAL bytes after recovery (0 when no WAL was present).
    pub wal_bytes: u64,
}

/// An owning, ready-to-query view of a decoded store: the counterpart of
/// [`QueryEngine::save_store`](crate::QueryEngine::save_store).
#[derive(Debug)]
pub struct EngineStore {
    database: TrajectoryDatabase,
    index: Option<Arc<UstTree>>,
    models: AdaptedModels,
    stats: StoreStats,
    path: Option<PathBuf>,
    wal: WalReplayStats,
}

impl EngineStore {
    /// Reads, decodes and validates a store file, then replays its sidecar
    /// WAL (if one exists) into the database. A torn WAL tail is truncated
    /// at the last valid frame — on disk too, so subsequent appends land on
    /// a frame boundary. Corruption beyond a torn tail is a typed error.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let mut store = Self::from_loaded(ust_persist::read_store(path)?);
        store.path = Some(path.to_path_buf());
        store.replay_wal()?;
        Ok(store)
    }

    /// Decodes and validates a store from raw bytes. The result is not
    /// file-backed: [`Self::append_batch`] and [`Self::checkpoint`] return
    /// [`StoreError::NotFileBacked`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Ok(Self::from_loaded(ust_persist::decode_store(bytes)?))
    }

    fn from_loaded(loaded: LoadedStore) -> Self {
        EngineStore {
            database: loaded.database,
            index: loaded.index.map(Arc::new),
            models: loaded.models,
            stats: loaded.stats,
            path: None,
            wal: WalReplayStats::default(),
        }
    }

    /// Replays the sidecar WAL into the in-memory database and repairs a
    /// torn tail on disk. Called once from [`Self::load`].
    fn replay_wal(&mut self) -> Result<(), StoreError> {
        let Some(path) = self.path.clone() else { return Ok(()) };
        let wal_file = wal::wal_path(&path);
        let Some(contents) = wal::read_wal(&wal_file)? else { return Ok(()) };
        if contents.torn_bytes() > 0 {
            wal::repair_wal(&wal_file, contents.valid_len)?;
        }
        let mut stats = WalReplayStats {
            frames: contents.batches.len(),
            torn_bytes: contents.torn_bytes(),
            wal_bytes: contents.valid_len,
            ..WalReplayStats::default()
        };
        let mut touched: Vec<ObjectId> = Vec::new();
        for batch in &contents.batches {
            for (id, observations) in batch {
                let (applied, skipped) = replay_append(&mut self.database, *id, observations)?;
                stats.observations += applied;
                stats.skipped_observations += skipped;
                if applied > 0 {
                    touched.push(*id);
                }
            }
        }
        self.refresh_derived(&touched);
        self.wal = stats;
        Ok(())
    }

    /// Durably appends one batch of observations: the batch is validated
    /// against the current database, written to the WAL as one fsynced frame
    /// (the atomic unit), and only then applied in memory. Per entry, the
    /// observations extend the identified object's chronological tail — or
    /// create the object if the id is new. A rejected batch (typed error)
    /// leaves the log, the database and the derived state untouched.
    ///
    /// Appending extends the UST-tree by the diamonds of the new segments
    /// and drops the adapted models of the touched objects (see the module
    /// docs); minted engines share the maintained tree and re-adapt those
    /// objects lazily. [`Self::checkpoint`] folds the log back into the
    /// container once the batch stream quiets down.
    pub fn append_batch(
        &mut self,
        batch: &[(ObjectId, Vec<Observation>)],
    ) -> Result<WalAppendStats, StoreError> {
        let Some(path) = self.path.clone() else { return Err(StoreError::NotFileBacked) };
        self.validate_batch(batch)?;
        // Durability first: the frame hits the log (write + fsync) before
        // memory changes. A fault between the two is recovered by replay.
        let stats = wal::append_frame(&wal::wal_path(&path), batch)?;
        let mut touched: Vec<ObjectId> = Vec::with_capacity(batch.len());
        for (id, observations) in batch {
            // validate_batch proved every entry; a failure here would mean
            // the validation and application disagree — surface it as the
            // typed error rather than panicking.
            self.database
                .append_observations(*id, observations)
                .map_err(|_| StoreError::Malformed { context: "wal batch failed to apply" })?;
            touched.push(*id);
        }
        self.refresh_derived(&touched);
        Ok(stats)
    }

    /// Folds the WAL back into the container: rewrites the `.ustore` with
    /// the current state — database, maintained UST-tree and surviving
    /// models, so a reload rebuilds nothing (staged temp file + fsync +
    /// atomic rename, see
    /// [`ust_persist::write_store`]), then removes the log. A fault after
    /// the rename but before the removal leaves a stale WAL whose frames the
    /// container already holds — harmless, because replay skips exact
    /// duplicates (and errs on any disagreement).
    pub fn checkpoint(&mut self) -> Result<StoreStats, StoreError> {
        let Some(path) = self.path.clone() else { return Err(StoreError::NotFileBacked) };
        let contents = StoreContents {
            database: &self.database,
            index: self.index.as_deref(),
            models: &self.models,
        };
        let written = ust_persist::write_store(&path, &contents)?;
        wal::truncate_wal(&wal::wal_path(&path))?;
        self.stats = written.clone();
        self.wal = WalReplayStats::default();
        Ok(written)
    }

    /// Validates a whole batch against the current database without touching
    /// it: every entry non-empty, every state inside the state space, every
    /// time strictly increasing — within the entry, past the object's stored
    /// tail, and past earlier entries of the same batch that touch the same
    /// object.
    fn validate_batch(&self, batch: &[(ObjectId, Vec<Observation>)]) -> Result<(), StoreError> {
        if batch.is_empty() {
            return Err(StoreError::Malformed { context: "wal frame with zero appends" });
        }
        let num_states = self.database.state_space().len();
        for (i, (id, observations)) in batch.iter().enumerate() {
            let Some(first) = observations.first() else {
                return Err(StoreError::Malformed { context: "wal append with zero observations" });
            };
            for w in observations.windows(2) {
                if let [a, b] = w {
                    if a.time >= b.time {
                        return Err(StoreError::Malformed {
                            context: "wal append times not strictly increasing",
                        });
                    }
                }
            }
            for o in observations {
                if (o.state as usize) >= num_states {
                    return Err(StoreError::Malformed { context: "wal append state out of range" });
                }
            }
            let prior_in_batch = batch
                .iter()
                .take(i)
                .filter(|(pid, _)| pid == id)
                .filter_map(|(_, obs)| obs.last().map(|o| o.time))
                .max();
            let stored = self.database.object(*id).map(|o| o.last_time());
            if let Some(last) = prior_in_batch.into_iter().chain(stored).max() {
                if first.time <= last {
                    return Err(StoreError::Malformed {
                        context: "appended observation time not after the object's last",
                    });
                }
            }
        }
        Ok(())
    }

    /// Brings derived state up to date after appends to `touched`: drops the
    /// adapted models of exactly the touched objects and extends the
    /// UST-tree by their new segments. The tree is taken out of the store
    /// while it is maintained — in place when the store holds the only
    /// reference — so a panic mid-way leaves a store without a tree, whose
    /// engines rebuild it from scratch, never one with a stale tree.
    fn refresh_derived(&mut self, touched: &[ObjectId]) {
        if touched.is_empty() {
            return;
        }
        let mut ids: Vec<ObjectId> = touched.to_vec();
        ids.sort_unstable();
        ids.dedup();
        self.models.retain(|(id, _)| ids.binary_search(id).is_err());
        if let Some(mut tree) = self.index.take() {
            Arc::make_mut(&mut tree).apply_appends(&self.database, &ids, 0);
            self.index = Some(tree);
        }
    }

    /// The decoded trajectory database (with any WAL frames replayed).
    pub fn database(&self) -> &TrajectoryDatabase {
        &self.database
    }

    /// The UST-tree, if the store carried one: the decoded tree, extended
    /// by every appended batch so far, so it equals a from-scratch build over
    /// [`Self::database`]. `None` if the store carried no tree, or if
    /// maintaining it panicked. The `Arc` is the same allocation every
    /// minted engine shares.
    pub fn index(&self) -> Option<&Arc<UstTree>> {
        self.index.as_ref()
    }

    /// The decoded adapted models, sorted by object id (minus those dropped
    /// by appends to their objects).
    pub fn models(&self) -> &AdaptedModels {
        &self.models
    }

    /// Size, shape and load timing of the store this was decoded from (or
    /// last checkpointed to).
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// What [`Self::load`] replayed from the WAL, plus what
    /// [`Self::append_batch`] has since appended to it. Reset to zero by a
    /// successful [`Self::checkpoint`].
    pub fn wal_stats(&self) -> &WalReplayStats {
        &self.wal
    }

    /// The store file backing this instance (`None` when decoded from raw
    /// bytes via [`Self::from_bytes`]).
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Mints a query engine over the stored state. If the store carries a
    /// UST-tree and `config.use_index` is set, the engine shares it (no
    /// rebuild); a tree-less store with `use_index` set falls back to
    /// building one, exactly like [`QueryEngine::new`]. The engine's
    /// adaptation cache starts pre-warmed with the stored models.
    pub fn engine(&self, config: EngineConfig) -> QueryEngine<'_> {
        let engine = match (&self.index, config.use_index) {
            (Some(tree), true) => QueryEngine::with_index(&self.database, tree.clone(), config),
            _ => QueryEngine::new(&self.database, config),
        };
        engine.preload_models(self.models.iter().cloned());
        engine
    }
}

/// Applies one replayed WAL entry to the database, idempotently: a leading
/// run of observations at or before the object's stored tail must match the
/// stored values exactly (the checkpoint already holds them — skipped), the
/// rest is appended. Any disagreement with the stored data, an out-of-range
/// state, or a tail the append API rejects is a typed error — a
/// checksum-valid frame that contradicts its own store is corruption, not a
/// torn write. Returns `(applied, skipped)` observation counts.
fn replay_append(
    db: &mut TrajectoryDatabase,
    id: ObjectId,
    observations: &[Observation],
) -> Result<(usize, usize), StoreError> {
    let num_states = db.state_space().len();
    for o in observations {
        if (o.state as usize) >= num_states {
            return Err(StoreError::Malformed { context: "wal append state out of range" });
        }
    }
    let skipped = match db.object(id) {
        Some(existing) => {
            let last = existing.last_time();
            let skipped = observations.partition_point(|o| o.time <= last);
            for o in observations.iter().take(skipped) {
                if existing.observed_state_at(o.time) != Some(o.state) {
                    return Err(StoreError::Malformed {
                        context: "wal frame disagrees with the stored database",
                    });
                }
            }
            skipped
        }
        None => 0,
    };
    let fresh = observations.get(skipped..).unwrap_or(&[]);
    if fresh.is_empty() {
        return Ok((0, skipped));
    }
    db.append_observations(id, fresh)
        .map_err(|_| StoreError::Malformed { context: "wal batch failed to apply" })?;
    Ok((fresh.len(), skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ust_markov::{CsrMatrix, MarkovModel};
    use ust_spatial::{Point, StateSpace};
    use ust_trajectory::UncertainObject;

    fn tiny_database() -> TrajectoryDatabase {
        let space = StateSpace::from_points(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ]);
        let matrix = CsrMatrix::from_rows(vec![
            vec![(0, 0.5), (1, 0.5)],
            vec![(1, 0.25), (2, 0.75)],
            vec![(0, 1.0)],
        ]);
        let objects = vec![
            UncertainObject::from_pairs(7, vec![(0, 0), (2, 2), (5, 1)]).unwrap(),
            UncertainObject::from_pairs(9, vec![(1, 1), (3, 0)]).unwrap(),
        ];
        TrajectoryDatabase::with_objects(
            Arc::new(space),
            Arc::new(MarkovModel::homogeneous(matrix)),
            objects,
        )
    }

    fn temp_store(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ust_core_store_{}_{tag}.ustore", std::process::id()))
    }

    fn write_tiny_store(path: &Path) {
        let db = tiny_database();
        let contents = StoreContents { database: &db, index: None, models: &[] };
        ust_persist::write_store(path, &contents).unwrap();
    }

    fn obs(pairs: &[(u32, u32)]) -> Vec<Observation> {
        pairs.iter().map(|&(t, s)| Observation::new(t, s)).collect()
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(wal::wal_path(path));
    }

    #[test]
    fn append_batch_logs_then_applies_and_reload_replays() {
        let path = temp_store("append");
        cleanup(&path);
        write_tiny_store(&path);

        let mut store = EngineStore::load(&path).unwrap();
        assert_eq!(store.wal_stats(), &WalReplayStats::default());
        let batch = vec![(7u32, obs(&[(6, 2), (8, 0)])), (21u32, obs(&[(1, 1)]))];
        let stats = store.append_batch(&batch).unwrap();
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.observations, 3);
        assert!(wal::wal_path(&path).exists(), "the batch hit the log");
        assert_eq!(store.database().object(7).unwrap().last_time(), 8);
        assert_eq!(store.database().object(21).unwrap().first_time(), 1);

        // "Kill" the process: a fresh load replays the WAL into the same state.
        drop(store);
        let recovered = EngineStore::load(&path).unwrap();
        assert_eq!(recovered.wal_stats().frames, 1);
        assert_eq!(recovered.wal_stats().observations, 3);
        assert_eq!(recovered.wal_stats().skipped_observations, 0);
        assert_eq!(recovered.database().object(7).unwrap().last_time(), 8);
        assert_eq!(recovered.database().object(21).unwrap().first_time(), 1);
        assert_eq!(recovered.database().len(), 3);
        cleanup(&path);
    }

    #[test]
    fn rejected_batches_leave_log_and_memory_untouched() {
        let path = temp_store("reject");
        cleanup(&path);
        write_tiny_store(&path);
        let mut store = EngineStore::load(&path).unwrap();

        // Object 7's tail is t=5: an append at t=5 must be rejected.
        let err = store.append_batch(&[(7, obs(&[(5, 1)]))]).unwrap_err();
        assert!(matches!(err, StoreError::Malformed { .. }));
        // Batch-internal ordering across entries of the same object.
        let err = store
            .append_batch(&[(7, obs(&[(6, 1)])), (7, obs(&[(6, 2)]))])
            .unwrap_err();
        assert!(matches!(err, StoreError::Malformed { .. }));
        // Out-of-range state.
        let err = store.append_batch(&[(7, obs(&[(6, 99)]))]).unwrap_err();
        assert_eq!(err, StoreError::Malformed { context: "wal append state out of range" });
        // Empty batch and empty entry.
        assert!(store.append_batch(&[]).is_err());
        assert!(store.append_batch(&[(7, vec![])]).is_err());

        assert!(!wal::wal_path(&path).exists(), "no rejected batch reached the log");
        assert_eq!(store.database().object(7).unwrap().num_observations(), 3);
        cleanup(&path);
    }

    #[test]
    fn checkpoint_folds_the_log_into_the_container() {
        let path = temp_store("checkpoint");
        cleanup(&path);
        write_tiny_store(&path);
        let mut store = EngineStore::load(&path).unwrap();
        store.append_batch(&[(9, obs(&[(10, 2)]))]).unwrap();
        let written = store.checkpoint().unwrap();
        assert!(written.bytes > 0);
        assert!(!wal::wal_path(&path).exists(), "a checkpoint retires the log");
        assert_eq!(store.wal_stats(), &WalReplayStats::default());

        let reloaded = EngineStore::load(&path).unwrap();
        assert_eq!(reloaded.database().object(9).unwrap().last_time(), 10);
        assert_eq!(reloaded.wal_stats().frames, 0);
        cleanup(&path);
    }

    #[test]
    fn stale_wal_replay_after_checkpoint_is_idempotent() {
        let path = temp_store("stale");
        cleanup(&path);
        write_tiny_store(&path);
        let mut store = EngineStore::load(&path).unwrap();
        store.append_batch(&[(7, obs(&[(6, 2), (9, 1)]))]).unwrap();

        // Simulate a checkpoint that crashed after the rename but before the
        // WAL removal: keep the log aside, checkpoint, put it back.
        let wal_file = wal::wal_path(&path);
        let stale = std::fs::read(&wal_file).unwrap();
        store.checkpoint().unwrap();
        std::fs::write(&wal_file, &stale).unwrap();

        let recovered = EngineStore::load(&path).unwrap();
        assert_eq!(recovered.wal_stats().frames, 1);
        assert_eq!(recovered.wal_stats().observations, 0, "everything already checkpointed");
        assert_eq!(recovered.wal_stats().skipped_observations, 2);
        assert_eq!(recovered.database().object(7).unwrap().num_observations(), 5);

        // A frame that *disagrees* with the store is corruption, not a skip.
        let mut bytes = ust_persist::wal::encode_wal_header();
        bytes.extend_from_slice(&ust_persist::wal::encode_frame(&[(7, obs(&[(6, 0)]))]));
        std::fs::write(&wal_file, &bytes).unwrap();
        let err = EngineStore::load(&path).unwrap_err();
        assert_eq!(
            err,
            StoreError::Malformed { context: "wal frame disagrees with the stored database" }
        );
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_truncated_on_load() {
        let path = temp_store("torn");
        cleanup(&path);
        write_tiny_store(&path);
        let mut store = EngineStore::load(&path).unwrap();
        store.append_batch(&[(7, obs(&[(6, 2)]))]).unwrap();
        store.append_batch(&[(9, obs(&[(11, 0)]))]).unwrap();
        drop(store);

        // Tear mid-way through the second frame.
        let wal_file = wal::wal_path(&path);
        let full = std::fs::read(&wal_file).unwrap();
        std::fs::write(&wal_file, &full[..full.len() - 2]).unwrap();

        let recovered = EngineStore::load(&path).unwrap();
        assert_eq!(recovered.wal_stats().frames, 1, "the torn frame is gone");
        assert_eq!(recovered.wal_stats().torn_bytes, full.len() as u64 - 2 - recovered.wal_stats().wal_bytes);
        assert_eq!(recovered.database().object(7).unwrap().last_time(), 6);
        assert_eq!(recovered.database().object(9).unwrap().last_time(), 3, "torn batch not applied");
        // The file itself was repaired: a second load sees a clean log.
        assert_eq!(
            std::fs::metadata(&wal_file).unwrap().len(),
            recovered.wal_stats().wal_bytes
        );
        let again = EngineStore::load(&path).unwrap();
        assert_eq!(again.wal_stats().torn_bytes, 0);
        cleanup(&path);
    }

    #[test]
    fn byte_backed_stores_reject_appends_and_checkpoints() {
        let db = tiny_database();
        let contents = StoreContents { database: &db, index: None, models: &[] };
        let bytes = ust_persist::encode_store(&contents);
        let mut store = EngineStore::from_bytes(&bytes).unwrap();
        assert_eq!(store.path(), None);
        assert_eq!(
            store.append_batch(&[(7, obs(&[(6, 1)]))]).unwrap_err(),
            StoreError::NotFileBacked
        );
        assert_eq!(store.checkpoint().unwrap_err(), StoreError::NotFileBacked);
    }
}
