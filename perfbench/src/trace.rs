//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded only around the public calls the benchmark makes into
//! the engine. The phases inside one query call (filter, model adaptation,
//! sampling, mining) are not visible from outside; they are added as
//! `stats`-sourced child spans built from the durations `QueryStats`
//! reports, laid end to end from the call's start in the order the engine
//! runs them. The part of a query span its children do not cover is the
//! unattributed time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Where a span's interval comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timed by the benchmark around a public call.
    Call,
    /// Derived from a duration the engine reports in `QueryStats`.
    Stats,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub query: Option<u64>,
    pub start: Duration,
    pub end: Duration,
    pub source: Source,
}

/// Records spans when enabled; every method is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, query: Option<u64>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            query,
            start: now,
            end: now,
            source: Source::Call,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`]; spans close innermost first.
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.origin.elapsed();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = now;
    }

    /// Adds stats-sourced children to span `parent`, one per `(name,
    /// duration)`, laid end to end from the parent's start.
    pub fn derive(&mut self, parent: Option<usize>, phases: &[(&'static str, Duration)]) {
        let Some(parent) = parent else { return };
        let (mut at, query) = (self.spans[parent].start, self.spans[parent].query);
        for &(name, duration) in phases {
            self.spans.push(Span {
                name,
                parent: Some(parent),
                query,
                start: at,
                end: at + duration,
                source: Source::Stats,
            });
            at += duration;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (count, total time, self time). A span's self time is
    /// its duration minus the time its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, Duration, Duration)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, Duration, Duration)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let total = span.end - span.start;
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let query = s.query.map_or("null".to_string(), |q| q.to_string());
            let source = match s.source {
                Source::Call => "call",
                Source::Stats => "stats",
            };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"query\":{query},\
                 \"start_ns\":{},\"end_ns\":{},\"source\":\"{source}\"}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
