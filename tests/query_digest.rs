//! Pins the exact results of the sampling-based queries.
//!
//! Every object id, probability bit and PCNN timestamp set of P∀NN, P∃NN,
//! P∀kNN and P∃kNN (k = 3) and PCNN over a seeded 10 000-state, b = 8
//! database is folded into one FNV-1a digest. The query windows are placed
//! around one object's observations so that every boundary of the world walk
//! shows up: a window starting exactly at an observation, one a tic before
//! and one a tic after, one starting before the object's first observation,
//! one ending after its last, a sparse timestamp set with an observation
//! between two query timestamps, and a window over an object observed only
//! once. A sampler that starts or stops a walk one step off, or reads a state
//! no world holds, moves the digest; a rewrite of the sampler that keeps it
//! answers every query bit for bit the same.

use pnnq::prelude::*;
use ust_persist::format::fnv1a64;

/// [`query_digest`], pinned from the full-walk block sampler (every object
/// walked from its first observation up to the last query timestamp).
const PINNED_QUERY_DIGEST: u64 = 2_602_237_290_058_823_470;

/// Id of the extra object observed exactly once.
const SINGLE_OBSERVATION_ID: ObjectId = 1_000_000;

/// The paper's artificial data: 10 000 states and branching factor 8, plus
/// one object with a single observation.
fn dataset() -> (Dataset, Vec<Observation>, Observation) {
    let mut ds = Dataset::synthetic(
        &SyntheticNetworkConfig { num_states: 10_000, branching_factor: 8.0, seed: 21 },
        &ObjectWorkloadConfig {
            num_objects: 80,
            lifetime: 60,
            horizon: 120,
            observation_interval: 10,
            lag: 0.5,
            standing_fraction: 0.0,
            seed: 22,
        },
        1.0,
    );
    // The anchor: the first object with at least four observations.
    let anchor = ds
        .database
        .objects()
        .iter()
        .find(|o| o.num_observations() >= 4)
        .expect("the workload has multi-observation objects")
        .observations()
        .to_vec();
    // The single observation sits at the anchor's second observed state,
    // four tics later, so it is the certain nearest neighbor of a query
    // placed there at that timestamp.
    let single = Observation::new(anchor[1].time + 4, anchor[1].state);
    ds.database.insert(
        UncertainObject::new(SINGLE_OBSERVATION_ID, vec![single]).expect("one observation"),
    );
    (ds, anchor, single)
}

/// The query windows (location state, timestamps) around the anchor's
/// observations `o` and the single observation `s`.
fn windows(o: &[Observation], s: Observation) -> Vec<(StateId, Vec<Timestamp>)> {
    let first = o[0];
    let second = o[1];
    let third = o[2];
    let last = o[o.len() - 1];
    vec![
        // Starting exactly at an observation, a tic before, and a tic after.
        (second.state, (second.time..=second.time + 8).collect()),
        (second.state, (second.time - 1..=second.time + 7).collect()),
        (second.state, (second.time + 1..=second.time + 9).collect()),
        // Starting before the anchor's first observation.
        (first.state, (first.time.saturating_sub(5)..=first.time + 4).collect()),
        // Ending after its last observation.
        (last.state, (last.time - 4..=last.time + 5).collect()),
        // Sparse, with observations between query timestamps.
        (
            third.state,
            vec![second.time - 3, second.time + 2, second.time + 3, third.time + 1, third.time + 6],
        ),
        // Around the single-observation object.
        (s.state, (s.time - 3..=s.time + 3).collect()),
    ]
}

fn push_results(bytes: &mut Vec<u8>, outcome: &QueryOutcome) {
    bytes.extend_from_slice(&(outcome.results.len() as u64).to_le_bytes());
    for r in &outcome.results {
        bytes.extend_from_slice(&r.object.to_le_bytes());
        bytes.extend_from_slice(&r.probability.to_bits().to_le_bytes());
    }
}

fn push_pcnn(bytes: &mut Vec<u8>, outcome: &PcnnOutcome) {
    bytes.extend_from_slice(&(outcome.results.len() as u64).to_le_bytes());
    for r in &outcome.results {
        bytes.extend_from_slice(&r.object.to_le_bytes());
        bytes.extend_from_slice(&(r.sets.len() as u64).to_le_bytes());
        for (times, p) in &r.sets {
            bytes.extend_from_slice(&(times.len() as u64).to_le_bytes());
            for t in times {
                bytes.extend_from_slice(&t.to_le_bytes());
            }
            bytes.extend_from_slice(&p.to_bits().to_le_bytes());
        }
    }
}

/// Every result of every query over every window, folded into one digest.
fn query_digest() -> u64 {
    let (ds, anchor, single) = dataset();
    let config = EngineConfig { num_samples: 640, seed: 23, ..Default::default() };
    let engine = QueryEngine::new(&ds.database, config);
    let space = ds.database.state_space();
    let mut bytes = Vec::new();
    let mut single_seen = false;
    for (state, times) in windows(&anchor, single) {
        let query = Query::at_point(space.position(state), times).expect("valid window");
        let forall = engine.pforall_nn(&query, 0.0).expect("P∀NN");
        let exists = engine.pexists_nn(&query, 0.0).expect("P∃NN");
        single_seen |= exists.results.iter().any(|r| r.object == SINGLE_OBSERVATION_ID);
        for outcome in [
            &forall,
            &exists,
            &engine.pforall_knn(&query, 3, 0.0).expect("P∀kNN"),
            &engine.pexists_knn(&query, 3, 0.0).expect("P∃kNN"),
        ] {
            push_results(&mut bytes, outcome);
        }
        push_pcnn(&mut bytes, &engine.pcnn(&query, 0.2).expect("PCNN"));
    }
    assert!(single_seen, "the single-observation object must reach a result");
    fnv1a64(&bytes)
}

#[test]
fn query_results_match_the_pinned_digest() {
    assert_eq!(query_digest(), PINNED_QUERY_DIGEST);
}
