//! Fault-tolerant clock synchronization (core service C2).
//!
//! The DECOS core architecture requires fault-tolerant internal clock
//! synchronization so that the cluster possesses a *global time base* of
//! known precision. We implement the classic Fault-Tolerant Average (FTA)
//! convergence algorithm used by time-triggered architectures: each node
//! measures the deviation of every other node's clock from its own (from
//! the deterministic arrival instants of TDMA frames), discards the `k`
//! largest and `k` smallest measurements, and corrects its clock by the
//! average of the remainder. With `n ≥ 3k + 1` nodes the algorithm
//! tolerates `k` arbitrarily faulty clocks.

use crate::clock::LocalNanos;
use serde::{Deserialize, Serialize};

/// Result of one FTA convergence round at a single node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyncRound {
    /// Correction to apply to the local clock, nanoseconds.
    pub correction_ns: i64,
    /// Number of deviation measurements used after discarding extremes.
    pub used: usize,
    /// Largest absolute deviation among the *used* measurements; an estimate
    /// of the current cluster precision as seen by this node.
    pub observed_precision_ns: u64,
}

/// Errors from a convergence round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncError {
    /// Not enough measurements to tolerate `k` faulty clocks (`n < 2k + 1`
    /// after the local measurement is included).
    InsufficientMeasurements {
        /// measurements available
        have: usize,
        /// measurements required
        need: usize,
    },
}

/// Fault-Tolerant Average convergence function.
///
/// `deviations` holds, for each *other* node whose frame was received in the
/// last round, the measured deviation `their_clock - my_clock` in
/// nanoseconds. `k` is the number of faulty clocks to tolerate.
///
/// Returns the correction this node should apply (half the FTA average, the
/// usual damping that avoids overshoot when all nodes correct at once), or
/// an error when too few measurements survive.
pub fn fta_round(deviations: &[LocalNanos], k: usize) -> Result<SyncRound, SyncError> {
    let mut sorted = deviations.to_vec();
    fta_round_in_place(&mut sorted, k)
}

/// [`fta_round`] on a caller-owned buffer: sorts `deviations` in place and
/// allocates nothing, for hot loops that resynchronize every round.
pub fn fta_round_in_place(deviations: &mut [LocalNanos], k: usize) -> Result<SyncRound, SyncError> {
    let need = 2 * k + 1;
    if deviations.len() < need {
        return Err(SyncError::InsufficientMeasurements { have: deviations.len(), need });
    }
    deviations.sort_unstable();
    let used = &deviations[k..deviations.len() - k];
    let sum: i128 = used.iter().map(|&d| d as i128).sum();
    let observed_precision_ns =
        used.iter().map(|&d| d.unsigned_abs()).max().expect("non-empty by construction");
    Ok(SyncRound {
        correction_ns: damped_average(sum, used.len()),
        used: used.len(),
        observed_precision_ns,
    })
}

/// Half the truncated average of `len` used measurements summing to
/// `sum`: the FTA correction.
fn damped_average(sum: i128, len: usize) -> i64 {
    // Both divisions truncate toward zero; the i64 one avoids the i128
    // division libcall whenever the sum fits, which is every real round.
    let avg = match i64::try_from(sum) {
        Ok(sum) => sum / len as i64,
        Err(_) => (sum / len as i128) as i64,
    };
    avg / 2
}

/// [`fta_round`] for one member of a cluster, read off every member's
/// deviation sorted once.
///
/// `sorted` holds the members' clock deviations (from any common
/// reference) in ascending order, and `pos` is the position of this
/// member's own. The member's relative vector — every *other* deviation
/// minus its own — sorts to `sorted` less one copy of `sorted[pos]`,
/// shifted by `-sorted[pos]`. So its used measurements are the central
/// window `sorted[k..n - k]` less one element (`sorted[pos]` clamped into
/// the window), shifted, and no per-member vector or sort is needed.
///
/// Bit for bit equal to [`fta_round`] on that relative vector whenever
/// `sorted[n - 1] - sorted[0]` fits an `i64`, so that no relative
/// deviation wraps: the sum below is then the exact sum `fta_round` forms.
pub fn fta_round_sorted(
    sorted: &[LocalNanos],
    pos: usize,
    k: usize,
) -> Result<SyncRound, SyncError> {
    let n = sorted.len();
    debug_assert!(pos < n, "member position {pos} outside {n} deviations");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "deviations must be sorted");
    let need = 2 * k + 1;
    let have = n.saturating_sub(1);
    if have < need {
        return Err(SyncError::InsufficientMeasurements { have, need });
    }
    let own = sorted[pos];
    let (lo, hi) = (k, n - k);
    let skip = pos.clamp(lo, hi - 1);
    let used = hi - lo - 1;
    let window: i128 = sorted[lo..hi].iter().map(|&d| d as i128).sum();
    let sum = window - sorted[skip] as i128 - used as i128 * own as i128;
    // The used window's extremes bound every used |relative deviation|.
    let first = sorted[if skip == lo { lo + 1 } else { lo }];
    let last = sorted[if skip == hi - 1 { hi - 2 } else { hi - 1 }];
    let observed_precision_ns = (first - own).unsigned_abs().max((last - own).unsigned_abs());
    Ok(SyncRound { correction_ns: damped_average(sum, used), used, observed_precision_ns })
}

/// Precision bound of the FTA algorithm.
///
/// `Π = (ε + 2ρ·R_int) · (1 + …)` — we use the standard first-order bound
/// `Π ≈ 2ρR + ε` where `ρ` is the maximum drift rate (unitless, e.g.
/// `100e-6` for 100 ppm), `R` the resynchronization interval in ns and `ε`
/// the reading-error bound in ns.
pub fn precision_bound_ns(
    max_drift_ppm: f64,
    resync_interval_ns: u64,
    reading_error_ns: u64,
) -> u64 {
    let rho = max_drift_ppm.abs() * 1e-6;
    (2.0 * rho * resync_interval_ns as f64).ceil() as u64 + reading_error_ns
}

/// Synchronization status of one node, updated after each resync round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncStatus {
    /// Deviation within the cluster precision; node participates in the
    /// global time base.
    Synchronized,
    /// Deviation exceeded the precision window; the node must restart its
    /// clock state (and the event is an observable symptom).
    SyncLost,
}

/// Tracks a node's synchronization state across rounds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncMonitor {
    precision_ns: u64,
    status: SyncStatus,
    lost_count: u64,
}

impl SyncMonitor {
    /// Creates a monitor with the cluster precision bound.
    pub fn new(precision_ns: u64) -> Self {
        SyncMonitor { precision_ns, status: SyncStatus::Synchronized, lost_count: 0 }
    }

    /// Current status.
    pub fn status(&self) -> SyncStatus {
        self.status
    }

    /// Number of synchronization losses observed so far.
    pub fn lost_count(&self) -> u64 {
        self.lost_count
    }

    /// Feeds the outcome of a resync round: the node's own deviation from
    /// the corrected cluster average. Returns the new status.
    pub fn observe(&mut self, own_deviation_ns: i64) -> SyncStatus {
        if own_deviation_ns.unsigned_abs() > self.precision_ns {
            if self.status == SyncStatus::Synchronized {
                self.lost_count += 1;
            }
            self.status = SyncStatus::SyncLost;
        } else {
            self.status = SyncStatus::Synchronized;
        }
        self.status
    }

    /// Resets after a component restart with state synchronization.
    pub fn resynchronize(&mut self) {
        self.status = SyncStatus::Synchronized;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fta_averages_symmetric_deviations() {
        // Peers at +100 and -100: average 0 → no correction.
        let r = fta_round(&[100, -100, 0], 0).unwrap();
        assert_eq!(r.correction_ns, 0);
        assert_eq!(r.used, 3);
        assert_eq!(r.observed_precision_ns, 100);
    }

    #[test]
    fn fta_discards_extremes() {
        // One byzantine clock claims +1e9; k=1 discards it (and the min).
        let r = fta_round(&[1_000_000_000, 10, 20, 30, -10], 1).unwrap();
        assert_eq!(r.used, 3);
        // remaining: 10, 20, 30 → avg 20 → damped correction 10.
        assert_eq!(r.correction_ns, 10);
        assert!(r.observed_precision_ns <= 30);
    }

    #[test]
    fn fta_requires_enough_measurements() {
        assert_eq!(
            fta_round(&[1, 2], 1),
            Err(SyncError::InsufficientMeasurements { have: 2, need: 3 })
        );
        assert!(fta_round(&[1, 2, 3], 1).is_ok());
        assert!(fta_round(&[], 0).is_err());
    }

    #[test]
    fn fta_tolerates_k_faulty() {
        // n=7 good clocks tightly grouped, k=2 faulty with huge deviations:
        // the correction must stay within the good-clock envelope.
        let devs = [i64::MAX / 2, i64::MIN / 2, 5, -5, 3, -3, 0, 2, -2];
        let r = fta_round(&devs, 2).unwrap();
        assert!(r.correction_ns.abs() <= 5, "correction {} escaped envelope", r.correction_ns);
    }

    #[test]
    fn precision_bound_formula() {
        // 100 ppm, 10 ms resync, 1 us reading error:
        // 2 * 1e-4 * 1e7 ns = 2000 ns + 1000 ns = 3000 ns.
        assert_eq!(precision_bound_ns(100.0, 10_000_000, 1_000), 3_000);
        assert_eq!(precision_bound_ns(0.0, 10_000_000, 500), 500);
    }

    #[test]
    fn monitor_detects_and_counts_sync_loss() {
        let mut m = SyncMonitor::new(1_000);
        assert_eq!(m.observe(500), SyncStatus::Synchronized);
        assert_eq!(m.observe(-999), SyncStatus::Synchronized);
        assert_eq!(m.observe(1_500), SyncStatus::SyncLost);
        assert_eq!(m.lost_count(), 1);
        // Staying lost does not double-count.
        assert_eq!(m.observe(2_000), SyncStatus::SyncLost);
        assert_eq!(m.lost_count(), 1);
        // Recovery, then a second loss increments again.
        assert_eq!(m.observe(0), SyncStatus::Synchronized);
        assert_eq!(m.observe(-5_000), SyncStatus::SyncLost);
        assert_eq!(m.lost_count(), 2);
        m.resynchronize();
        assert_eq!(m.status(), SyncStatus::Synchronized);
    }
}
