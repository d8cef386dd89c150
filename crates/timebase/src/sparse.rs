//! Sparse time base and action lattice.
//!
//! The DECOS diagnostic architecture evaluates Out-of-Norm Assertions
//! "against the distributed state established by the use of a sparse time
//! base" (§V-A, citing Kopetz \[70\]). In a sparse time base, the timeline is
//! partitioned into an alternating sequence of *activity* intervals (of
//! duration π) and *silence* intervals (of duration Δ). Significant events
//! are only permitted to happen inside activity intervals; consequently all
//! correct observers agree on the *lattice point* (activity interval index)
//! of every event, and on the temporal order of events at least one granule
//! apart — the property that makes the diagnostic distributed state
//! *consistent* without agreement protocols.

use decos_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Index of an activity interval of the sparse time base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LatticePoint(pub u64);

impl LatticePoint {
    /// The next lattice point.
    pub fn next(self) -> LatticePoint {
        LatticePoint(self.0 + 1)
    }

    /// Saturating distance in granules between two lattice points.
    pub(crate) fn distance(self, other: LatticePoint) -> u64 {
        self.0.abs_diff(other.0)
    }
}

/// Temporal relation of two events on the sparse time base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SparseOrder {
    /// First event is consistently observed before the second.
    Before,
    /// First event is consistently observed after the second.
    After,
    /// Both map to the same lattice point: the architecture treats them as
    /// simultaneous (no consistent order can be claimed).
    Simultaneous,
}

/// The action lattice: the global, agreed partition of time into granules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionLattice {
    granule: SimDuration,
}

impl ActionLattice {
    /// Creates a lattice with the given granule (π + Δ).
    ///
    /// For a sparse time base to be meaningful the granule must exceed the
    /// cluster precision; callers derive it from
    /// [`crate::sync::precision_bound_ns`].
    pub fn new(granule: SimDuration) -> Self {
        assert!(granule > SimDuration::ZERO, "granule must be positive");
        ActionLattice { granule }
    }

    /// Maps a physical instant to its lattice point.
    pub fn point(&self, t: SimTime) -> LatticePoint {
        LatticePoint(t.as_nanos() / self.granule.as_nanos())
    }

    /// The physical start instant of a lattice point.
    pub fn start_of(&self, p: LatticePoint) -> SimTime {
        SimTime::from_nanos(p.0 * self.granule.as_nanos())
    }

    /// Consistent temporal order of two events under sparse time.
    pub fn order(&self, a: SimTime, b: SimTime) -> SparseOrder {
        let pa = self.point(a);
        let pb = self.point(b);
        match pa.cmp(&pb) {
            core::cmp::Ordering::Less => SparseOrder::Before,
            core::cmp::Ordering::Greater => SparseOrder::After,
            core::cmp::Ordering::Equal => SparseOrder::Simultaneous,
        }
    }

    /// Whether two events fall within `delta` granules of each other —
    /// the primitive used to decide that failures are *correlated* (the
    /// "approximately at the same time (within a small delta)" column of the
    /// massive-transient fault pattern, Fig. 8).
    pub fn within_delta(&self, a: SimTime, b: SimTime, delta: u64) -> bool {
        self.point(a).distance(self.point(b)) <= delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat_ms(ms: u64) -> ActionLattice {
        ActionLattice::new(SimDuration::from_millis(ms))
    }

    #[test]
    fn points_partition_time() {
        let l = lat_ms(10);
        assert_eq!(l.point(SimTime::ZERO), LatticePoint(0));
        assert_eq!(l.point(SimTime::from_millis(9)), LatticePoint(0));
        assert_eq!(l.point(SimTime::from_millis(10)), LatticePoint(1));
        assert_eq!(l.point(SimTime::from_millis(25)), LatticePoint(2));
        assert_eq!(l.start_of(LatticePoint(2)), SimTime::from_millis(20));
    }

    #[test]
    fn order_is_consistent_beyond_one_granule() {
        let l = lat_ms(10);
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(17);
        assert_eq!(l.order(a, b), SparseOrder::Before);
        assert_eq!(l.order(b, a), SparseOrder::After);
        let c = SimTime::from_millis(9);
        assert_eq!(l.order(a, c), SparseOrder::Simultaneous);
    }

    #[test]
    fn correlation_window() {
        let l = lat_ms(10);
        let a = SimTime::from_millis(5);
        assert!(l.within_delta(a, SimTime::from_millis(12), 1));
        assert!(!l.within_delta(a, SimTime::from_millis(25), 1));
        assert!(l.within_delta(a, SimTime::from_millis(25), 2));
        // Zero delta: only the same granule correlates.
        assert!(l.within_delta(a, SimTime::from_millis(9), 0));
        assert!(!l.within_delta(a, SimTime::from_millis(10), 0));
    }

    #[test]
    fn lattice_point_helpers() {
        assert_eq!(LatticePoint(3).next(), LatticePoint(4));
        assert_eq!(LatticePoint(3).distance(LatticePoint(8)), 5);
        assert_eq!(LatticePoint(8).distance(LatticePoint(3)), 5);
    }

    #[test]
    #[should_panic]
    fn zero_granule_rejected() {
        ActionLattice::new(SimDuration::ZERO);
    }
}
