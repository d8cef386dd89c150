//! Triple Modular Redundancy voting (redundancy management high-level
//! service).
//!
//! Safety-critical jobs are replicated on three components that fail
//! independently (a component is the FCR for hardware faults); a voter
//! masks a single faulty replica. Beyond masking, the *divergence record*
//! produced by the voter is prime diagnostic input: §V-C uses correlated
//! analysis of a failed replica with the other jobs co-hosted on the same
//! component to distinguish a component-internal hardware fault from a job
//! inherent fault.

use serde::{Deserialize, Serialize};

/// Outcome of a triplex vote.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoteResult {
    /// The voted (masked) output value.
    pub output: f64,
    /// Index (0..3) of a replica whose value deviates from the majority by
    /// more than the agreement threshold, if any.
    pub outlier: Option<usize>,
}

/// Errors preventing a vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VoteError {
    /// Fewer than two replica values available — no majority possible.
    InsufficientReplicas {
        /// number of values present
        present: usize,
    },
    /// All pairs disagree beyond the threshold — no majority exists.
    NoMajority,
}

/// Majority voter over three replica values with an agreement threshold
/// `epsilon` (absolute).
///
/// * All three agree → mean of the three, no outlier.
/// * Exactly one pair agrees → mean of the pair, the third is the outlier.
/// * Replicas may be missing (`None`, e.g. host expelled from membership):
///   two agreeing values still vote; a missing replica is reported as the
///   outlier.
pub fn vote(values: [Option<f64>; 3], epsilon: f64) -> Result<VoteResult, VoteError> {
    // Fixed-size gather: the voter sits on the per-slot hot path and must
    // not allocate.
    let mut gathered = [(0usize, 0.0f64); 3];
    let mut n = 0;
    for (i, v) in values.iter().enumerate() {
        if let Some(x) = v {
            gathered[n] = (i, *x);
            n += 1;
        }
    }
    let present = &gathered[..n];
    match present.len() {
        0 | 1 => Err(VoteError::InsufficientReplicas { present: present.len() }),
        2 => {
            let (_, a) = present[0];
            let (_, b) = present[1];
            if (a - b).abs() <= epsilon {
                // A missing replica is a communication-level event (its
                // absence is already visible to the membership service);
                // only a *value* disagreement counts as divergence.
                Ok(VoteResult { output: (a + b) / 2.0, outlier: None })
            } else {
                // Two disagreeing values and a missing third: ambiguous.
                Err(VoteError::NoMajority)
            }
        }
        _ => {
            let [a, b, c] = [present[0].1, present[1].1, present[2].1];
            let ab = (a - b).abs() <= epsilon;
            let ac = (a - c).abs() <= epsilon;
            let bc = (b - c).abs() <= epsilon;
            match (ab, ac, bc) {
                (true, true, true) => Ok(VoteResult { output: (a + b + c) / 3.0, outlier: None }),
                // Exactly one pair agrees → third is the outlier. When two
                // pairs agree but not the third pair, the middle value
                // belongs to both pairs; vote the tightest pair and flag
                // nothing (all within 2ε of each other).
                (true, false, false) => Ok(VoteResult { output: (a + b) / 2.0, outlier: Some(2) }),
                (false, true, false) => Ok(VoteResult { output: (a + c) / 2.0, outlier: Some(1) }),
                (false, false, true) => Ok(VoteResult { output: (b + c) / 2.0, outlier: Some(0) }),
                (true, true, false) | (true, false, true) | (false, true, true) => {
                    Ok(VoteResult { output: (a + b + c) / 3.0, outlier: None })
                }
                (false, false, false) => Err(VoteError::NoMajority),
            }
        }
    }
}

/// Running record of replica divergences, per replica slot.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DivergenceRecord {
    counts: [u64; 3],
    no_majority: u64,
}

impl DivergenceRecord {
    /// Creates an empty record.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Feeds one vote outcome.
    pub(crate) fn observe(&mut self, outcome: &Result<VoteResult, VoteError>) {
        match outcome {
            Ok(VoteResult { outlier: Some(i), .. }) => self.counts[*i] += 1,
            Ok(_) => {}
            Err(_) => self.no_majority += 1,
        }
    }

    /// Divergence count of replica `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Votes without a majority.
    pub fn no_majority(&self) -> u64 {
        self.no_majority
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 0.1;

    #[test]
    fn unanimous_vote() {
        let r = vote([Some(1.0), Some(1.01), Some(0.99)], EPS).unwrap();
        assert!(r.outlier.is_none());
        assert!((r.output - 1.0).abs() < 0.01);
    }

    #[test]
    fn single_outlier_masked() {
        let r = vote([Some(1.0), Some(5.0), Some(1.02)], EPS).unwrap();
        assert_eq!(r.outlier, Some(1));
        assert!((r.output - 1.01).abs() < 1e-9);
    }

    #[test]
    fn outlier_positions() {
        assert_eq!(vote([Some(9.0), Some(1.0), Some(1.0)], EPS).unwrap().outlier, Some(0));
        assert_eq!(vote([Some(1.0), Some(1.0), Some(9.0)], EPS).unwrap().outlier, Some(2));
    }

    #[test]
    fn missing_replica_two_agree() {
        let r = vote([Some(2.0), None, Some(2.05)], EPS).unwrap();
        assert_eq!(r.outlier, None, "absence is a comm event, not divergence");
        assert!((r.output - 2.025).abs() < 1e-9);
    }

    #[test]
    fn missing_replica_two_disagree() {
        assert_eq!(vote([Some(2.0), None, Some(9.0)], EPS), Err(VoteError::NoMajority));
    }

    #[test]
    fn insufficient_replicas() {
        assert_eq!(
            vote([None, Some(1.0), None], EPS),
            Err(VoteError::InsufficientReplicas { present: 1 })
        );
        assert_eq!(
            vote([None, None, None], EPS),
            Err(VoteError::InsufficientReplicas { present: 0 })
        );
    }

    #[test]
    fn all_disagree() {
        assert_eq!(vote([Some(0.0), Some(1.0), Some(2.0)], EPS), Err(VoteError::NoMajority));
    }

    #[test]
    fn chained_agreement_votes_mean() {
        // a~b and b~c but not a~c: no clear outlier.
        let r = vote([Some(0.0), Some(0.09), Some(0.18)], EPS).unwrap();
        assert_eq!(r.outlier, None);
        assert!((r.output - 0.09).abs() < 1e-9);
    }

    #[test]
    fn divergence_record_accumulates() {
        let mut d = DivergenceRecord::new();
        d.observe(&vote([Some(1.0), Some(9.0), Some(1.0)], EPS));
        d.observe(&vote([Some(1.0), Some(9.0), Some(1.0)], EPS));
        d.observe(&vote([Some(1.0), Some(1.0), Some(1.0)], EPS));
        d.observe(&vote([Some(0.0), Some(1.0), Some(2.0)], EPS));
        assert_eq!(d.count(1), 2);
        assert_eq!(d.no_majority(), 1);
        assert_eq!((d.count(0), d.count(2)), (0, 0));
    }

    #[test]
    fn divergence_record_empty() {
        let d = DivergenceRecord::new();
        assert_eq!((d.count(0), d.count(1), d.count(2), d.no_majority()), (0, 0, 0, 0));
    }
}
