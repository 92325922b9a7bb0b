//! Seeded input generation. Everything a run feeds the engine — the
//! trajectory database, the query specs and the append batches — is derived
//! from the workload seed here, before any timing starts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ust_core::{ObjectId, Query, Timestamp};
use ust_generator::{
    Dataset, ObjectWorkloadConfig, QueryWorkload, QueryWorkloadConfig, SyntheticNetworkConfig,
};
use ust_trajectory::{Observation, TrajectoryDatabase};

/// Size of one synthetic dataset of the Section 7 family: its object count
/// and the time horizon their lifetimes are spread over.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSize {
    pub objects: usize,
    pub horizon: Timestamp,
}

/// States and branching factor shared by every workload (the paper's
/// artificial data with `|S| = 10 000`, `b = 8`).
const STATES: usize = 10_000;
const BRANCHING: f64 = 8.0;
/// Object lifetime, observation spacing and lag: the paper's defaults.
const LIFETIME: u32 = 100;
const OBSERVATION_INTERVAL: u32 = 10;
const LAG: f64 = 0.5;
/// Query interval length `|T|` (paper default).
const INTERVAL: u32 = 10;
/// Observations per appended batch, spaced like the generated ones.
const OBSERVATIONS_PER_BATCH: usize = 2;

/// The generated database with the query specs to run against it.
pub struct Inputs {
    pub database: TrajectoryDatabase,
    pub queries: Vec<Query>,
}

/// Builds the database and `num_queries` query specs from `seed`. Every query
/// interval is covered by at least one object, so no query is trivially
/// empty.
pub fn generate(size: DatasetSize, num_queries: usize, seed: u64) -> Inputs {
    let dataset = Dataset::synthetic(
        &SyntheticNetworkConfig {
            num_states: STATES,
            branching_factor: BRANCHING,
            seed,
        },
        &ObjectWorkloadConfig {
            num_objects: size.objects,
            lifetime: LIFETIME,
            horizon: size.horizon,
            observation_interval: OBSERVATION_INTERVAL,
            lag: LAG,
            standing_fraction: 0.0,
            seed: seed.wrapping_add(1),
        },
        1.0,
    );
    let workload = QueryWorkload::generate_covered(
        &dataset.network,
        &dataset.database,
        &QueryWorkloadConfig {
            num_queries,
            interval_length: INTERVAL,
            horizon: size.horizon,
            seed: seed.wrapping_add(2),
        },
        1,
    );
    let queries = workload
        .queries
        .into_iter()
        .map(|q| Query::at_point(q.location, q.times).expect("generated times are sorted"))
        .collect();
    Inputs {
        database: dataset.database,
        queries,
    }
}

/// One append: the batch handed to `EngineStore::append_batch` and the query
/// that follows it, placed at the appended object's newest state over the
/// appended interval.
pub struct Append {
    pub batch: (ObjectId, Vec<Observation>),
    pub query: Query,
}

/// Generates `count` feasible append batches. Each extends a random object
/// by walking its a-priori model from its last observed state, one
/// observation every `OBSERVATION_INTERVAL` steps, so every extended object
/// still has a consistent observation sequence and still adapts.
pub fn appends(database: &TrajectoryDatabase, count: usize, seed: u64) -> Vec<Append> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(3));
    let space = database.state_space();
    // The newest (time, state) of every object, advanced as batches are drawn.
    let mut tails: Vec<(ObjectId, Timestamp, u32)> = database
        .objects()
        .iter()
        .map(|o| {
            let last = o
                .observations()
                .last()
                .expect("generated objects are observed");
            (o.id(), last.time, last.state)
        })
        .collect();
    (0..count)
        .map(|_| {
            let slot = rng.gen_range(0..tails.len());
            let (id, mut time, mut state) = tails[slot];
            let model = database.model_for(id);
            let mut observations = Vec::with_capacity(OBSERVATIONS_PER_BATCH);
            for _ in 0..OBSERVATIONS_PER_BATCH {
                for _ in 0..OBSERVATION_INTERVAL {
                    let (next, probs) = model.matrix_at(time).row(state);
                    let mut u = rng.gen::<f64>();
                    let mut pick = next[next.len() - 1];
                    for (&s, &p) in next.iter().zip(probs) {
                        if u < p {
                            pick = s;
                            break;
                        }
                        u -= p;
                    }
                    state = pick;
                    time += 1;
                }
                observations.push(Observation::new(time, state));
            }
            tails[slot] = (id, time, state);
            let end = time;
            let query = Query::at_point_interval(space.position(state), end + 1 - INTERVAL, end)
                .expect("a non-empty ascending interval");
            Append {
                batch: (id, observations),
                query,
            }
        })
        .collect()
}
