//! The query mix, the result digests and the output checks every operation
//! goes through.

use ust_core::{ObjectId, PcnnOutcome, Query, QueryEngine, QueryError, QueryOutcome, QueryStats};

/// `k` of the k-NN entry point in the mix.
pub const KNN_K: usize = 3;
/// Threshold of the NN and k-NN queries.
pub const NN_TAU: f64 = 0.1;
/// A low PCNN threshold, so the Apriori lattice expands past single
/// timestamps.
pub const PCNN_TAU: f64 = 0.01;

/// The paper-named entry points, evaluated round-robin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    ForallNn,
    ExistsNn,
    ForallKnn,
    Pcnn,
}

pub const MIX: [Entry; 4] = [
    Entry::ForallNn,
    Entry::ExistsNn,
    Entry::ForallKnn,
    Entry::Pcnn,
];

impl Entry {
    /// The entry point of operation `i` of a run.
    pub fn of(i: usize) -> Entry {
        MIX[i % MIX.len()]
    }

    pub fn name(self) -> &'static str {
        match self {
            Entry::ForallNn => "query.pforall_nn",
            Entry::ExistsNn => "query.pexists_nn",
            Entry::ForallKnn => "query.pforall_knn",
            Entry::Pcnn => "query.pcnn",
        }
    }
}

/// What one operation returned, reduced to what the checks and metrics need.
#[derive(Debug)]
pub struct Output {
    pub digest: u64,
    pub stats: QueryStats,
    /// `(object, probability)` of every reported result; for PCNN one entry
    /// per qualifying timestamp set.
    pub probabilities: Vec<(ObjectId, f64)>,
    /// Lattice nodes evaluated (PCNN only).
    pub candidate_sets: usize,
}

pub fn run(engine: &QueryEngine<'_>, query: &Query, entry: Entry) -> Result<Output, QueryError> {
    match entry {
        Entry::ForallNn => engine
            .pforall_nn(query, NN_TAU)
            .map(|o| from_outcome(entry, o)),
        Entry::ExistsNn => engine
            .pexists_nn(query, NN_TAU)
            .map(|o| from_outcome(entry, o)),
        Entry::ForallKnn => engine
            .pforall_knn(query, KNN_K, NN_TAU)
            .map(|o| from_outcome(entry, o)),
        Entry::Pcnn => engine.pcnn(query, PCNN_TAU).map(from_pcnn),
    }
}

/// P∀kNN (`exists == false`) or P∃kNN (`exists == true`) at the NN
/// threshold; used by the P∀ ≤ P∃ check, outside the mix.
pub fn knn(
    engine: &QueryEngine<'_>,
    query: &Query,
    k: usize,
    exists: bool,
) -> Result<Output, QueryError> {
    let (entry, outcome) = if exists {
        (Entry::ExistsNn, engine.pexists_knn(query, k, NN_TAU)?)
    } else {
        (Entry::ForallKnn, engine.pforall_knn(query, k, NN_TAU)?)
    };
    Ok(from_outcome(entry, outcome))
}

fn from_outcome(entry: Entry, outcome: QueryOutcome) -> Output {
    let mut digest = Fnv::new();
    digest.word(entry as u64);
    let probabilities: Vec<(ObjectId, f64)> = outcome
        .results
        .iter()
        .map(|r| (r.object, r.probability))
        .collect();
    for &(object, p) in &probabilities {
        digest.word(u64::from(object));
        digest.word(p.to_bits());
    }
    Output {
        digest: digest.0,
        stats: outcome.stats,
        probabilities,
        candidate_sets: 0,
    }
}

fn from_pcnn(outcome: PcnnOutcome) -> Output {
    let mut digest = Fnv::new();
    digest.word(Entry::Pcnn as u64);
    let mut probabilities = Vec::new();
    for r in &outcome.results {
        digest.word(u64::from(r.object));
        for (times, p) in &r.sets {
            for &t in times {
                digest.word(u64::from(t));
            }
            digest.word(p.to_bits());
            probabilities.push((r.object, *p));
        }
    }
    Output {
        digest: digest.0,
        stats: outcome.stats,
        probabilities,
        candidate_sets: outcome.candidate_sets_evaluated,
    }
}

/// The checks every operation must pass: nothing degraded, every influence
/// object either a cache hit or a cold adaptation, every probability in
/// [0, 1] and at or above the threshold it was reported under.
pub fn check(out: &Output, entry: Entry) -> Result<(), String> {
    let s = &out.stats;
    if s.degraded || s.worlds != s.worlds_requested {
        return Err(format!(
            "degraded: {} of {} worlds",
            s.worlds, s.worlds_requested
        ));
    }
    if s.cache_hits + s.cold_adaptations != s.influencers {
        return Err(format!(
            "{} cache hits + {} cold adaptations != {} influencers",
            s.cache_hits, s.cold_adaptations, s.influencers
        ));
    }
    let tau = if entry == Entry::Pcnn {
        PCNN_TAU
    } else {
        NN_TAU
    };
    if let Some(&(object, p)) = out
        .probabilities
        .iter()
        .find(|&&(_, p)| !(0.0..=1.0).contains(&p) || p < tau)
    {
        return Err(format!(
            "object {object}: probability {p} outside [{tau}, 1]"
        ));
    }
    Ok(())
}

/// P∀ ≤ P∃ per object, for results of the same query, `k` and seed (both
/// are estimated from identical worlds).
pub fn check_forall_within_exists(forall: &Output, exists: &Output) -> Result<(), String> {
    for &(object, p) in &forall.probabilities {
        let e = exists
            .probabilities
            .iter()
            .find(|r| r.0 == object)
            .map_or(0.0, |r| r.1);
        if p > e {
            return Err(format!("object {object}: P-forall {p} > P-exists {e}"));
        }
    }
    Ok(())
}

/// 64-bit FNV-1a over little-endian words.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
