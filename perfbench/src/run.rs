//! State of one benchmark run: operation counts, failures, latency samples
//! and the per-layer totals read from the engine's counters.

use crate::ops::{self, Entry, Output};
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use ust_core::{Query, QueryEngine};

/// Counters of one UST-tree build.
#[derive(Debug, Clone, Copy)]
pub struct Build {
    pub ms: f64,
    pub diamonds: usize,
    pub memo_hit_rate: f64,
}

impl Build {
    pub fn of(engine: &QueryEngine<'_>) -> Option<Build> {
        engine.index_build_stats().map(|s| Build {
            ms: ms(s.build_time),
            diamonds: s.diamonds,
            memo_hit_rate: s.memo_hit_rate(),
        })
    }
}

/// Totals over the traced queries, from `QueryStats`.
#[derive(Debug, Default)]
pub struct Layers {
    pub queries: usize,
    pub latency: Duration,
    pub filter: Duration,
    pub adaptation: Duration,
    pub sampling: Duration,
    pub unattributed: Duration,
    pub influencers: usize,
    pub cache_hits: usize,
    pub cold_adaptations: usize,
    pub worlds: usize,
    pub world_objects: f64,
    pub prune_ratio_sum: f64,
    pub prune_ratio_queries: usize,
    pub pcnn_queries: usize,
    pub pcnn_latency: Duration,
    pub mining: Duration,
    pub candidate_sets: usize,
    pub frontier_peak: usize,
    /// Adaptations made outside queries (the warm-up pass).
    pub warmup_adaptation: Duration,
    pub warmup_cold_adaptations: usize,
}

/// One append cycle of `append_query`.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    pub traced: bool,
    pub append: Duration,
    pub mint: Duration,
    pub fresh: Duration,
    pub frame_bytes: u64,
}

/// Timings of the persistence layer taken outside the cycles.
#[derive(Debug, Default)]
pub struct Persist {
    pub store_load_ms: Vec<f64>,
    pub replay_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    /// Total size of the checkpointed stores.
    pub store_bytes: u64,
}

#[derive(Debug)]
pub struct Run {
    pub tracer: Tracer,
    pub attempted: usize,
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    /// Query latencies as the client sees them, of untraced operations
    /// (every operation with tracing off), and of the PCNN ones among them.
    pub latency_ms: Vec<f64>,
    pub pcnn_ms: Vec<f64>,
    /// Query latencies of traced operations.
    pub traced_latency_ms: Vec<f64>,
    pub loop_wall: Duration,
    pub queries: usize,
    pub layers: Layers,
    pub builds: Vec<Build>,
    pub cycles: Vec<Cycle>,
    pub persist: Persist,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Run {
    pub fn new(trace: bool) -> Self {
        Run {
            tracer: Tracer::new(trace),
            attempted: 0,
            failures: Vec::new(),
            setup_s: Vec::new(),
            latency_ms: Vec::new(),
            pcnn_ms: Vec::new(),
            traced_latency_ms: Vec::new(),
            loop_wall: Duration::ZERO,
            queries: 0,
            layers: Layers::default(),
            builds: Vec::new(),
            cycles: Vec::new(),
            persist: Persist::default(),
        }
    }

    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// With tracing on, every other round of the four-query mix is traced,
    /// so traced and untraced operations see the same mix and the
    /// difference between them is the tracing overhead.
    pub fn traced(&self, op: usize) -> bool {
        self.tracer.enabled() && (op / ops::MIX.len()) % 2 == 1
    }

    /// Runs one operation outside the timed loop: counted and checked, not
    /// timed.
    pub fn call(
        &mut self,
        engine: &QueryEngine<'_>,
        query: &Query,
        entry: Entry,
    ) -> Option<Output> {
        self.attempted += 1;
        let out = ops::run(engine, query, entry).map_err(|e| e.to_string());
        self.checked(out.and_then(|o| ops::check(&o, entry).map(|()| o)))
    }

    pub fn checked<T>(&mut self, result: Result<T, String>) -> Option<T> {
        result.map_err(|e| self.fail(e)).ok()
    }

    /// Runs operation `op` of the timed loop and records its latency plus
    /// `lead`, the time the client already waited for this query (on
    /// `append_query`, minting the engine after the append). Traced
    /// operations also feed the per-layer totals. `live` counts the objects
    /// whose lifetime overlaps the query interval (the base of the prune
    /// ratio). `expect_warm` makes a cold adaptation a failed check.
    pub fn timed_op(
        &mut self,
        engine: &QueryEngine<'_>,
        query: &Query,
        op: usize,
        lead: Duration,
        live: usize,
        expect_warm: bool,
    ) -> Option<Output> {
        let entry = Entry::of(op);
        let traced = self.traced(op);
        self.attempted += 1;
        let start = Instant::now();
        let span = if traced {
            self.tracer.begin(entry.name(), Some(op as u64))
        } else {
            None
        };
        let result = ops::run(engine, query, entry);
        self.tracer.end(span);
        let latency = start.elapsed();
        let out = self.checked(result.map_err(|e| e.to_string()).and_then(|o| {
            ops::check(&o, entry)?;
            if expect_warm && o.stats.cold_adaptations > 0 {
                return Err(format!(
                    "warm query adapted {} objects",
                    o.stats.cold_adaptations
                ));
            }
            Ok(o)
        }))?;
        let waited = ms(lead + latency);
        if !traced {
            self.latency_ms.push(waited);
            if entry == Entry::Pcnn {
                self.pcnn_ms.push(waited);
            }
            return Some(out);
        }
        self.traced_latency_ms.push(waited);
        let s = &out.stats;
        let phases = [
            ("index.filter", s.filter_time),
            ("core.prepare", s.adaptation_time),
            ("core.sampling", s.sampling_time),
            ("core.pcnn.mining", s.mining_time),
        ];
        self.tracer.derive(span, &phases);
        let l = &mut self.layers;
        l.queries += 1;
        l.latency += latency;
        l.filter += s.filter_time;
        l.adaptation += s.adaptation_time;
        l.sampling += s.sampling_time;
        l.unattributed += latency.saturating_sub(phases.iter().map(|p| p.1).sum());
        l.influencers += s.influencers;
        l.cache_hits += s.cache_hits;
        l.cold_adaptations += s.cold_adaptations;
        l.worlds += s.worlds;
        l.world_objects += s.worlds as f64 * s.influencers as f64;
        if live > 0 {
            l.prune_ratio_sum += s.influencers as f64 / live as f64;
            l.prune_ratio_queries += 1;
        }
        if entry == Entry::Pcnn {
            l.pcnn_queries += 1;
            l.pcnn_latency += latency;
            l.mining += s.mining_time;
            l.candidate_sets += out.candidate_sets;
            l.frontier_peak += s.frontier_peak;
        }
        Some(out)
    }
}
