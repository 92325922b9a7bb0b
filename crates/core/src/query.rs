//! Query specification.
//!
//! All query semantics of the paper take "a certain reference state or
//! trajectory `q` and a set of timesteps `T`" (Section 3.2). A query state is
//! a trivial query trajectory, so [`Query`] stores a set of timestamps plus
//! either a constant location or one location per timestamp.

use crate::govern::QueryPhase;
use crate::results::QueryStats;
use crate::Timestamp;
use rustc_hash::FxHashMap;
use ust_spatial::Point;

/// Errors raised when constructing or evaluating queries.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The query timestamp set was empty.
    EmptyTimes,
    /// Query timestamps were not strictly increasing.
    UnsortedTimes,
    /// A per-timestamp query trajectory is missing the position for a
    /// timestamp of `T`.
    MissingPosition {
        /// The timestamp without a position.
        time: Timestamp,
    },
    /// The probability threshold was outside `[0, 1]`.
    InvalidThreshold {
        /// The offending threshold.
        tau: f64,
    },
    /// A k-NN query asked for `k = 0` neighbors.
    InvalidK {
        /// The offending `k`.
        k: usize,
    },
    /// An object's observations contradict its a-priori model, so no
    /// a-posteriori model exists.
    Adaptation {
        /// The object whose adaptation failed.
        object: crate::ObjectId,
        /// The underlying adaptation error.
        error: ust_markov::AdaptError,
    },
    /// An object id that does not exist in the trajectory database was
    /// requested (previously misreported as [`AdaptError::NoObservations`]).
    ///
    /// [`AdaptError::NoObservations`]: ust_markov::AdaptError::NoObservations
    UnknownObject {
        /// The id no database object carries.
        object: crate::ObjectId,
    },
    /// The evaluation ran past its [`QueryBudget`](crate::govern::QueryBudget)
    /// deadline in a phase with no degradation semantics (see the contract in
    /// [`crate::govern`]). Transient: never cached, retry may succeed.
    DeadlineExceeded {
        /// The phase whose checkpoint observed the breach.
        phase: QueryPhase,
        /// Partial statistics gathered up to the breach (boxed to keep the
        /// non-budget variants small).
        stats: Box<QueryStats>,
    },
    /// The evaluation's [`CancelToken`](crate::govern::CancelToken) was
    /// cancelled. Transient: never cached.
    Cancelled {
        /// The phase whose checkpoint observed the cancellation.
        phase: QueryPhase,
        /// Partial statistics gathered up to the cancellation.
        stats: Box<QueryStats>,
    },
    /// A deterministic resource cap of the budget was exceeded. Unlike the
    /// deadline this is reproducible — the same query against the same cap
    /// always stops at the same point.
    BudgetExhausted {
        /// The phase whose checkpoint observed the breach.
        phase: QueryPhase,
        /// Which resource blew the cap (e.g. `"diamonds"`).
        resource: &'static str,
        /// The configured cap.
        limit: usize,
        /// Partial statistics gathered up to the breach.
        stats: Box<QueryStats>,
    },
}

impl QueryError {
    /// The partial [`QueryStats`] a budget error carries (`None` for the
    /// validation and adaptation errors, which happen before any phase
    /// accounting exists).
    pub fn partial_stats(&self) -> Option<&QueryStats> {
        match self {
            QueryError::DeadlineExceeded { stats, .. }
            | QueryError::Cancelled { stats, .. }
            | QueryError::BudgetExhausted { stats, .. } => Some(stats),
            _ => None,
        }
    }

    /// Mutable access for the engine layers that enrich partial stats on the
    /// way out (candidate counts, phase timings).
    pub(crate) fn partial_stats_mut(&mut self) -> Option<&mut QueryStats> {
        match self {
            QueryError::DeadlineExceeded { stats, .. }
            | QueryError::Cancelled { stats, .. }
            | QueryError::BudgetExhausted { stats, .. } => Some(stats),
            _ => None,
        }
    }

    /// Whether this error is transient — tied to one evaluation's budget
    /// rather than to the (immutable) data. Transient errors must never
    /// enter the adaptation cache's `Failed` slots: a later query with a
    /// fresh budget can succeed where this one was cut short.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            QueryError::DeadlineExceeded { .. }
                | QueryError::Cancelled { .. }
                | QueryError::BudgetExhausted { .. }
        )
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::EmptyTimes => write!(f, "query needs at least one timestamp"),
            QueryError::UnsortedTimes => write!(f, "query timestamps must be strictly increasing"),
            QueryError::MissingPosition { time } => {
                write!(f, "query trajectory has no position for timestamp {time}")
            }
            QueryError::InvalidThreshold { tau } => {
                write!(f, "probability threshold {tau} is outside [0, 1]")
            }
            QueryError::InvalidK { k } => write!(f, "k-NN queries need k ≥ 1, got k = {k}"),
            QueryError::Adaptation { object, error } => {
                write!(f, "model adaptation failed for object {object}: {error}")
            }
            QueryError::UnknownObject { object } => {
                write!(f, "the database has no object with id {object}")
            }
            QueryError::DeadlineExceeded { phase, .. } => {
                write!(f, "query deadline exceeded during the {phase} phase")
            }
            QueryError::Cancelled { phase, .. } => {
                write!(f, "query cancelled during the {phase} phase")
            }
            QueryError::BudgetExhausted { phase, resource, limit, .. } => {
                write!(f, "query budget exhausted during the {phase} phase: more than {limit} {resource}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// The (certain) location of the query over time.
#[derive(Debug, Clone)]
enum QueryLocation {
    /// A constant location (a query *state*).
    Static(Point),
    /// One location per query timestamp (a query *trajectory*).
    PerTime(FxHashMap<Timestamp, Point>),
}

/// A probabilistic NN query input: the reference state/trajectory `q` and the
/// query timestamps `T`.
#[derive(Debug, Clone)]
pub struct Query {
    times: Vec<Timestamp>,
    location: QueryLocation,
}

impl Query {
    /// A query with a constant reference location (e.g. the bank of the
    /// robbery example) over the given timestamps.
    pub fn at_point(
        location: Point,
        times: impl IntoIterator<Item = Timestamp>,
    ) -> Result<Self, QueryError> {
        let times = Self::validate_times(times)?;
        Ok(Query { times, location: QueryLocation::Static(location) })
    }

    /// A query with a constant reference location over the inclusive interval
    /// `[from, to]`.
    pub fn at_point_interval(location: Point, from: Timestamp, to: Timestamp) -> Result<Self, QueryError> {
        Self::at_point(location, from..=to)
    }

    /// A query given by a certain reference trajectory: one position per query
    /// timestamp.
    pub fn with_trajectory(
        positions: impl IntoIterator<Item = (Timestamp, Point)>,
    ) -> Result<Self, QueryError> {
        let mut map: FxHashMap<Timestamp, Point> = FxHashMap::default();
        let mut times: Vec<Timestamp> = Vec::new();
        for (t, p) in positions {
            if map.insert(t, p).is_none() {
                times.push(t);
            }
        }
        times.sort_unstable();
        if times.is_empty() {
            return Err(QueryError::EmptyTimes);
        }
        Ok(Query { times, location: QueryLocation::PerTime(map) })
    }

    fn validate_times(
        times: impl IntoIterator<Item = Timestamp>,
    ) -> Result<Vec<Timestamp>, QueryError> {
        let times: Vec<Timestamp> = times.into_iter().collect();
        if times.is_empty() {
            return Err(QueryError::EmptyTimes);
        }
        if times.windows(2).any(|w| w[0] >= w[1]) {
            return Err(QueryError::UnsortedTimes);
        }
        Ok(times)
    }

    /// The query timestamps `T`, strictly increasing.
    #[inline]
    pub fn times(&self) -> &[Timestamp] {
        &self.times
    }

    /// Number of query timestamps `|T|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Queries always have at least one timestamp.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// First query timestamp.
    #[inline]
    pub fn start(&self) -> Timestamp {
        self.times[0]
    }

    /// Last query timestamp.
    #[inline]
    pub fn end(&self) -> Timestamp {
        self.times[self.times.len() - 1]
    }

    /// The query position at timestamp `t`, or `None` if the query trajectory
    /// has no position there.
    pub fn position_at(&self, t: Timestamp) -> Option<Point> {
        match &self.location {
            QueryLocation::Static(p) => Some(*p),
            QueryLocation::PerTime(map) => map.get(&t).copied(),
        }
    }

    /// Validates that a position exists for every query timestamp.
    pub fn validate(&self) -> Result<(), QueryError> {
        for &t in &self.times {
            if self.position_at(t).is_none() {
                return Err(QueryError::MissingPosition { time: t });
            }
        }
        Ok(())
    }

    /// Returns a sub-query restricted to the given subset of timestamps (used
    /// by the PCNN lattice). Timestamps not belonging to this query are
    /// silently dropped.
    pub fn restricted_to(&self, subset: &[Timestamp]) -> Result<Query, QueryError> {
        let keep: Vec<Timestamp> =
            subset.iter().copied().filter(|t| self.times.contains(t)).collect();
        if keep.is_empty() {
            return Err(QueryError::EmptyTimes);
        }
        match &self.location {
            QueryLocation::Static(p) => Query::at_point(*p, keep),
            QueryLocation::PerTime(map) => {
                Query::with_trajectory(keep.into_iter().map(|t| (t, map[&t])))
            }
        }
    }

    /// Validates the `k` of a k-NN query: at least one neighbor.
    pub fn validate_k(k: usize) -> Result<(), QueryError> {
        if k == 0 {
            Err(QueryError::InvalidK { k })
        } else {
            Ok(())
        }
    }

    /// Validates a probability threshold.
    pub fn validate_threshold(tau: f64) -> Result<(), QueryError> {
        if !(0.0..=1.0).contains(&tau) || tau.is_nan() {
            Err(QueryError::InvalidThreshold { tau })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_query_construction() {
        let q = Query::at_point(Point::new(1.0, 2.0), vec![3, 4, 5]).unwrap();
        assert_eq!(q.times(), &[3, 4, 5]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.start(), 3);
        assert_eq!(q.end(), 5);
        assert_eq!(q.position_at(4), Some(Point::new(1.0, 2.0)));
        assert_eq!(q.position_at(99), Some(Point::new(1.0, 2.0)));
        assert!(q.validate().is_ok());
    }

    #[test]
    fn interval_constructor() {
        let q = Query::at_point_interval(Point::ORIGIN, 2, 8).unwrap();
        assert_eq!(q.times(), &[2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn invalid_times_are_rejected() {
        assert_eq!(
            Query::at_point(Point::ORIGIN, Vec::<Timestamp>::new()).unwrap_err(),
            QueryError::EmptyTimes
        );
        assert_eq!(
            Query::at_point(Point::ORIGIN, vec![1, 1]).unwrap_err(),
            QueryError::UnsortedTimes
        );
        assert_eq!(
            Query::at_point(Point::ORIGIN, vec![5, 2]).unwrap_err(),
            QueryError::UnsortedTimes
        );
    }

    #[test]
    fn trajectory_query_positions() {
        let q = Query::with_trajectory(vec![
            (2, Point::new(0.0, 0.0)),
            (1, Point::new(1.0, 0.0)),
            (3, Point::new(2.0, 0.0)),
        ])
        .unwrap();
        assert_eq!(q.times(), &[1, 2, 3]);
        assert_eq!(q.position_at(1), Some(Point::new(1.0, 0.0)));
        assert_eq!(q.position_at(4), None);
        assert!(q.validate().is_ok());
    }

    #[test]
    fn restriction_to_subset() {
        let q = Query::at_point(Point::ORIGIN, vec![1, 2, 3, 4]).unwrap();
        let sub = q.restricted_to(&[2, 4, 9]).unwrap();
        assert_eq!(sub.times(), &[2, 4]);
        assert!(q.restricted_to(&[99]).is_err());
        let traj = Query::with_trajectory(vec![(1, Point::ORIGIN), (2, Point::new(1.0, 1.0))]).unwrap();
        let sub = traj.restricted_to(&[2]).unwrap();
        assert_eq!(sub.position_at(2), Some(Point::new(1.0, 1.0)));
    }

    #[test]
    fn unknown_object_error_display() {
        let err = QueryError::UnknownObject { object: 17 };
        assert_eq!(err.to_string(), "the database has no object with id 17");
        assert_ne!(
            err,
            QueryError::Adaptation {
                object: 17,
                error: ust_markov::AdaptError::NoObservations,
            },
            "a missing object is not an adaptation failure"
        );
    }

    #[test]
    fn k_validation() {
        assert_eq!(Query::validate_k(0), Err(QueryError::InvalidK { k: 0 }));
        assert!(Query::validate_k(1).is_ok());
        assert!(Query::validate_k(3).is_ok());
    }

    #[test]
    fn threshold_validation() {
        assert!(Query::validate_threshold(0.0).is_ok());
        assert!(Query::validate_threshold(1.0).is_ok());
        assert!(Query::validate_threshold(-0.1).is_err());
        assert!(Query::validate_threshold(1.1).is_err());
        assert!(Query::validate_threshold(f64::NAN).is_err());
    }
}
