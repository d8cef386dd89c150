//! Evaluation metrics: confusion matrices, action scoring and the
//! no-fault-found economics.

use decos_faults::{FaultClass, FruRef, MaintenanceAction};
use serde::{Deserialize, Serialize};

/// Average cost of a single LRU removal, USD (§I, \[3\]).
pub const REMOVAL_COST_USD: f64 = 800.0;

/// Confusion matrix over the six fault classes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// `counts[truth][predicted]`, axes ordered as [`FaultClass::ALL`];
    /// index 6 on the predicted axis = "undecided".
    counts: Vec<Vec<u64>>,
}

impl Default for ConfusionMatrix {
    fn default() -> Self {
        Self::new()
    }
}

impl ConfusionMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        ConfusionMatrix { counts: vec![vec![0; 7]; 6] }
    }

    fn index(class: FaultClass) -> usize {
        FaultClass::ALL.iter().position(|c| *c == class).expect("class in ALL")
    }

    /// Records a classification outcome (`None` = undecided).
    pub fn record(&mut self, truth: FaultClass, predicted: Option<FaultClass>) {
        let p = predicted.map(Self::index).unwrap_or(6);
        self.counts[Self::index(truth)][p] += 1;
    }

    /// Merges another matrix (fleet shard aggregation). Cell-wise `u64`
    /// addition, so the merged matrix is independent of merge order.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        for (row, orow) in self.counts.iter_mut().zip(&other.counts) {
            for (cell, ocell) in row.iter_mut().zip(orow) {
                *cell += ocell;
            }
        }
    }

    /// Total recorded outcomes.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Overall accuracy (undecided counts as wrong).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..6).map(|i| self.counts[i][i]).sum();
        correct as f64 / total as f64
    }

    /// Share of recorded outcomes left undecided. Under a degraded
    /// diagnostic path this is the *honest* failure mode: the engine
    /// abstains instead of guessing, so soundness sweeps watch this rise
    /// while misclassifications stay flat.
    pub fn undecided_share(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let undecided: u64 = (0..6).map(|i| self.counts[i][6]).sum();
        undecided as f64 / total as f64
    }

    /// Recall of one class.
    pub fn recall(&self, class: FaultClass) -> f64 {
        let i = Self::index(class);
        let row: u64 = self.counts[i].iter().sum();
        if row == 0 {
            return 0.0;
        }
        self.counts[i][i] as f64 / row as f64
    }

    /// Precision of one class.
    pub fn precision(&self, class: FaultClass) -> f64 {
        let i = Self::index(class);
        let col: u64 = (0..6).map(|r| self.counts[r][i]).sum();
        if col == 0 {
            return 0.0;
        }
        self.counts[i][i] as f64 / col as f64
    }

    /// Renders the matrix as an aligned text table (rows = truth).
    pub fn render(&self) -> String {
        let short = ["c-ext", "c-bord", "c-int", "j-bord", "j-sw", "j-xdcr", "undec"];
        let mut s = format!("{:>8}", "truth\\pred");
        for h in short {
            s += &format!("{h:>8}");
        }
        s += "\n";
        for (i, row) in self.counts.iter().enumerate() {
            s += &format!("{:>8}", short[i]);
            for c in row {
                s += &format!("{c:>8}");
            }
            s += "\n";
        }
        s
    }
}

/// Outcome of scoring maintenance actions against ground truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ActionScore {
    /// Ground-truth faults scored.
    pub cases: u64,
    /// Cases where the recommended action for the faulty FRU matched the
    /// Fig. 11 prescription.
    pub correct_actions: u64,
    /// Component removals recommended in total.
    pub removals: u64,
    /// Removals of a component whose ground truth does *not* warrant
    /// replacement (external / borderline-reseat / job-level faults, or a
    /// different component entirely) — these come back "no fault found".
    pub nff_removals: u64,
    /// Ground-truth component-internal faults for which no replacement was
    /// recommended (missed repairs).
    pub missed_removals: u64,
}

impl ActionScore {
    /// NFF ratio: fraction of removals that find no fault at the bench.
    pub fn nff_ratio(&self) -> f64 {
        if self.removals == 0 {
            0.0
        } else {
            self.nff_removals as f64 / self.removals as f64
        }
    }

    /// Wasted removal cost at $800 per removal \[3\].
    pub fn wasted_cost_usd(&self) -> f64 {
        self.nff_removals as f64 * REMOVAL_COST_USD
    }

    /// Merges another score (fleet aggregation).
    pub fn merge(&mut self, other: &ActionScore) {
        self.cases += other.cases;
        self.correct_actions += other.correct_actions;
        self.removals += other.removals;
        self.nff_removals += other.nff_removals;
        self.missed_removals += other.missed_removals;
    }
}

/// Scores a set of recommended actions against one ground-truth fault.
///
/// `truth` is the injected fault (its FRU and class); `actions` are the
/// (FRU, action) recommendations of a diagnosis (integrated or baseline).
pub fn score_case(
    truth_fru: FruRef,
    truth_class: FaultClass,
    actions: &[(FruRef, MaintenanceAction)],
) -> ActionScore {
    let mut s = ActionScore { cases: 1, ..Default::default() };
    let prescribed = truth_class.prescribed_action();
    let needs_replacement = truth_class == FaultClass::ComponentInternal;

    let mut replaced_truth_component = false;
    for (fru, action) in actions {
        if *action == MaintenanceAction::ReplaceComponent {
            s.removals += 1;
            let justified = needs_replacement && *fru == truth_fru;
            if justified {
                replaced_truth_component = true;
            } else {
                s.nff_removals += 1;
            }
        }
        if *fru == truth_fru && *action == prescribed {
            s.correct_actions = 1;
        }
    }
    if needs_replacement && !replaced_truth_component {
        s.missed_removals += 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_platform::{JobId, NodeId};

    #[test]
    fn confusion_matrix_basics() {
        let mut m = ConfusionMatrix::new();
        m.record(FaultClass::ComponentInternal, Some(FaultClass::ComponentInternal));
        m.record(FaultClass::ComponentInternal, Some(FaultClass::ComponentExternal));
        m.record(FaultClass::ComponentExternal, Some(FaultClass::ComponentExternal));
        m.record(FaultClass::JobBorderline, None);
        assert_eq!(m.total(), 4);
        assert_eq!(m.accuracy(), 0.5);
        assert_eq!(m.recall(FaultClass::ComponentInternal), 0.5);
        // Predicted external twice, once correctly.
        assert_eq!(m.precision(FaultClass::ComponentExternal), 0.5);
        assert_eq!(m.counts[ConfusionMatrix::index(FaultClass::JobBorderline)][6], 1);
        assert_eq!(m.undecided_share(), 0.25);
        assert_eq!(ConfusionMatrix::new().undecided_share(), 0.0, "empty matrix must not NaN");
        let table = m.render();
        assert!(table.contains("c-int"));
        assert!(table.contains("undec"));
    }

    #[test]
    fn confusion_matrices_merge_cellwise() {
        let mut a = ConfusionMatrix::new();
        a.record(FaultClass::ComponentInternal, Some(FaultClass::ComponentInternal));
        let mut b = ConfusionMatrix::new();
        b.record(FaultClass::ComponentInternal, None);
        b.record(FaultClass::ComponentExternal, Some(FaultClass::ComponentExternal));
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.counts[ConfusionMatrix::index(FaultClass::ComponentInternal)][6], 1);
        assert_eq!(
            a.counts[ConfusionMatrix::index(FaultClass::ComponentInternal)]
                [ConfusionMatrix::index(FaultClass::ComponentInternal)],
            1
        );
        assert_eq!(
            a.counts[ConfusionMatrix::index(FaultClass::ComponentExternal)]
                [ConfusionMatrix::index(FaultClass::ComponentExternal)],
            1
        );
    }

    #[test]
    fn correct_replacement_scores_clean() {
        let truth = FruRef::Component(NodeId(1));
        let s = score_case(
            truth,
            FaultClass::ComponentInternal,
            &[(truth, MaintenanceAction::ReplaceComponent)],
        );
        assert_eq!(s.removals, 1);
        assert_eq!(s.nff_removals, 0);
        assert_eq!(s.missed_removals, 0);
        assert_eq!(s.correct_actions, 1);
        assert_eq!(s.nff_ratio(), 0.0);
    }

    #[test]
    fn replacing_for_an_external_fault_is_nff() {
        let truth = FruRef::Component(NodeId(1));
        let s = score_case(
            truth,
            FaultClass::ComponentExternal,
            &[(truth, MaintenanceAction::ReplaceComponent)],
        );
        assert_eq!(s.nff_removals, 1);
        assert_eq!(s.nff_ratio(), 1.0);
        assert_eq!(s.wasted_cost_usd(), 800.0);
        assert_eq!(s.correct_actions, 0);
    }

    #[test]
    fn replacing_the_wrong_component_is_nff_and_missed() {
        let s = score_case(
            FruRef::Component(NodeId(1)),
            FaultClass::ComponentInternal,
            &[(FruRef::Component(NodeId(2)), MaintenanceAction::ReplaceComponent)],
        );
        assert_eq!(s.nff_removals, 1);
        assert_eq!(s.missed_removals, 1);
    }

    #[test]
    fn job_fault_with_component_swap_is_nff() {
        let s = score_case(
            FruRef::Job(JobId(5)),
            FaultClass::JobInherentTransducer,
            &[(FruRef::Component(NodeId(0)), MaintenanceAction::ReplaceComponent)],
        );
        assert_eq!(s.nff_removals, 1);
    }

    #[test]
    fn correct_non_replacement_actions_count() {
        let truth = FruRef::Job(JobId(5));
        let s = score_case(
            truth,
            FaultClass::JobBorderline,
            &[(truth, MaintenanceAction::UpdateConfiguration)],
        );
        assert_eq!(s.correct_actions, 1);
        assert_eq!(s.removals, 0);
    }

    #[test]
    fn scores_merge() {
        let mut a = ActionScore { cases: 1, removals: 2, nff_removals: 1, ..Default::default() };
        let b = ActionScore { cases: 1, removals: 1, nff_removals: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.cases, 2);
        assert_eq!(a.removals, 3);
        assert!((a.nff_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }
}
