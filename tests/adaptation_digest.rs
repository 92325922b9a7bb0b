//! Pins the exact output of the forward–backward adaptation (Algorithm 2).
//!
//! Every bit an adapted model carries — forward and posterior marginals, the
//! transition rows of F(t) in the alias arena, and the alias tables behind
//! them — is folded into one FNV-1a digest, for both the "FB" adaptation and
//! the "FBU" ablation over a seeded synthetic database. Any change to the
//! summation order, the normalisation or the Vose construction moves the
//! digest; a rewrite of the adaptation that keeps it is bit-identical.

use ust_generator::{Dataset, ObjectWorkloadConfig, SyntheticNetworkConfig};
use ust_markov::adapt::{AdaptError, AdaptedModel, ModelAdaptation};
use ust_markov::{SparseDist, StateId, Timestamp};
use ust_persist::format::fnv1a64;

/// [`adaptation_digest`] of the FB and FBU adaptations, pinned from the
/// hash-map implementation the dense-accumulator pass replaced.
const PINNED_FB_DIGEST: u64 = 12_015_496_510_688_944_687;
const PINNED_FBU_DIGEST: u64 = 16_021_927_202_693_284_465;

/// The paper's artificial data: 10 000 states, branching factor 8, and
/// enough objects that every part of the corridor structure shows up.
fn dataset() -> Dataset {
    Dataset::synthetic(
        &SyntheticNetworkConfig {
            num_states: 10_000,
            branching_factor: 8.0,
            seed: 13,
        },
        &ObjectWorkloadConfig {
            num_objects: 120,
            lifetime: 60,
            horizon: 200,
            observation_interval: 10,
            lag: 0.5,
            standing_fraction: 0.0,
            seed: 14,
        },
        1.0,
    )
}

/// Uniforms at which every alias row is drawn: a grid fine enough to land
/// on both the threshold and the alias side of every slot of the rows here,
/// plus both ends of `[0, 1)`.
fn u_grid() -> impl Iterator<Item = f64> {
    (0..64)
        .map(|k| (k as f64 + 0.5) / 64.0)
        .chain([0.0, 1.0 - f64::EPSILON / 2.0])
}

fn push_dist(bytes: &mut Vec<u8>, dist: &SparseDist) {
    bytes.extend_from_slice(&(dist.support_size() as u64).to_le_bytes());
    for (s, p) in dist.iter() {
        bytes.extend_from_slice(&s.to_le_bytes());
        bytes.extend_from_slice(&p.to_bits().to_le_bytes());
    }
}

/// Every marginal, arena row and alias draw of `model`, as bytes.
fn push_model(bytes: &mut Vec<u8>, model: &AdaptedModel) {
    for t in model.start()..=model.end() {
        push_dist(bytes, model.forward_at(t).expect("covered"));
        push_dist(bytes, model.posterior_at(t).expect("covered"));
    }
    let kernel = model.alias_kernel();
    for k in 0..model.horizon() {
        let rows = kernel.rows().step(k);
        bytes.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        for (source, cols, probs) in rows {
            bytes.extend_from_slice(&source.to_le_bytes());
            bytes.extend_from_slice(&(cols.len() as u64).to_le_bytes());
            for (&c, p) in cols.iter().zip(probs) {
                bytes.extend_from_slice(&c.to_le_bytes());
                bytes.extend_from_slice(&p.to_bits().to_le_bytes());
            }
            for u in u_grid() {
                let drawn = kernel.sample(k, source, u).expect("row exists");
                bytes.extend_from_slice(&drawn.to_le_bytes());
            }
        }
    }
}

/// The digest of the adapted models of every object of [`dataset`]: the
/// FNV-1a digest of the per-model digests, in object order. Returns it with
/// the number of models.
fn adaptation_digest(adaptation: ModelAdaptation) -> (u64, usize) {
    let dataset = dataset();
    let db = &dataset.database;
    let mut digests = Vec::new();
    let mut bytes = Vec::new();
    for object in db.objects() {
        let pairs = object.observation_pairs();
        let model = adaptation
            .adapt(db.model_for(object.id()).as_ref(), &pairs)
            .expect("consistent");
        model
            .check_invariants()
            .expect("adapted models are stochastic");
        bytes.clear();
        push_model(&mut bytes, &model);
        digests.extend_from_slice(&fnv1a64(&bytes).to_le_bytes());
    }
    (fnv1a64(&digests), digests.len() / 8)
}

#[test]
fn fb_adaptation_matches_the_pinned_digest() {
    let (digest, models) = adaptation_digest(ModelAdaptation::new());
    assert!(models >= 100, "only {models} objects");
    assert_eq!(digest, PINNED_FB_DIGEST, "FB adaptation output changed");
}

#[test]
fn fbu_adaptation_matches_the_pinned_digest() {
    let (digest, models) = adaptation_digest(ModelAdaptation::with_uniform_transitions());
    assert!(models >= 100, "only {models} objects");
    assert_eq!(digest, PINNED_FBU_DIGEST, "FBU adaptation output changed");
}

/// The state farthest from `from` — unreachable from it within a few steps.
fn farthest_state(dataset: &Dataset, from: StateId) -> StateId {
    let space = dataset.database.state_space();
    (0..space.len() as StateId)
        .max_by(|&a, &b| space.dist(from, a).total_cmp(&space.dist(from, b)))
        .expect("non-empty state space")
}

#[test]
fn contradictory_observations_fail_at_the_pinned_time() {
    let dataset = dataset();
    let db = &dataset.database;
    let object = &db.objects()[0];
    let pairs = object.observation_pairs();
    let model = db.model_for(object.id());
    let (t0, s0) = pairs[0];
    let far = farthest_state(&dataset, s0);
    let cases: [(Vec<(Timestamp, StateId)>, Timestamp); 2] = [
        // The far state is the second observation, three steps out.
        (vec![(t0, s0), (t0 + 3, far)], t0 + 3),
        // Consistent observations up to the third, which jumps away.
        (
            vec![pairs[0], pairs[1], (pairs[1].0 + 5, far), pairs[2]],
            pairs[1].0 + 5,
        ),
    ];
    for (obs, time) in cases {
        for adaptation in [
            ModelAdaptation::new(),
            ModelAdaptation::with_uniform_transitions(),
        ] {
            assert_eq!(
                adaptation.adapt(model.as_ref(), &obs).unwrap_err(),
                AdaptError::ContradictoryObservations { time },
                "{obs:?}"
            );
        }
    }
}
