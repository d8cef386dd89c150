//! Symptoms — conditions on interface state variables (§V-A).
//!
//! "A *symptom* is a condition on a set of interface state variables of a
//! particular component that is monitored to detect deviations from the
//! Linking Interface (LIF) specification." Every symptom carries:
//!
//! * the lattice point it was detected at (time dimension),
//! * the **observer** — the component whose detector raised it,
//! * the **subject** — the FRU/port the deviation is *about*,
//! * the deviation kind and a magnitude (value dimension).
//!
//! Keeping observer and subject separate is what lets the spatial analysis
//! distinguish "everyone sees component N failing" (N's fault) from
//! "component N sees everyone failing" (N's receive path — a connector
//! fault) from "the spatially-close components 0 and 1 both see everyone
//! failing" (an external disturbance in their zone).

use decos_platform::{JobId, NodeId};
use decos_sim::time::SimTime;
use decos_timebase::LatticePoint;
use decos_vnet::{PortId, VnetId};
use serde::{Deserialize, Serialize};

/// What a symptom is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Subject {
    /// A component's communication behaviour.
    Component(NodeId),
    /// A job's port behaviour.
    Job(JobId),
}

/// Queue side for overflow symptoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueSide {
    /// Sender-side (bandwidth/transmit queue).
    Tx,
    /// Receiver-side (consumer queue).
    Rx,
}

/// The detected deviation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SymptomKind {
    /// Nothing received in the subject's slot.
    Omission,
    /// Frame received but CRC-invalid (value corruption on the channel).
    InvalidCrc,
    /// Valid frame outside the temporal acceptance window.
    TimingViolation {
        /// Measured offset, ns.
        offset_ns: i64,
    },
    /// A message value outside its LIF range.
    ValueViolation {
        /// Normalized distance outside the range.
        deviation: f64,
        /// Producing port.
        port: PortId,
    },
    /// A message value *inside* its range but close to the boundary —
    /// "increasing deviation from correct value, at the verge of becoming
    /// incorrect" (Fig. 8, wearout row).
    ValueDrift {
        /// Margin-relative position: 1.0 = at the range boundary.
        proximity: f64,
        /// Producing port.
        port: PortId,
    },
    /// A periodic state message expected in this round did not appear,
    /// although the carrying component transmitted correctly.
    MissedMessage {
        /// The silent port.
        port: PortId,
    },
    /// A bounded queue lost messages.
    QueueOverflow {
        /// Affected network.
        vnet: VnetId,
        /// Which side overflowed.
        side: QueueSide,
        /// Messages lost in this window.
        lost: u64,
    },
    /// A component lost clock synchronization.
    SyncLoss,
    /// A component was expelled from the membership.
    MembershipDeparture,
    /// A TMR replica diverged from its peers.
    ReplicaDivergence {
        /// Index of the diverging replica (0..3).
        replica: usize,
    },
}

impl SymptomKind {
    /// Whether this symptom indicates a communication-level error against
    /// the subject component (the inputs to the spatial analysis).
    pub(crate) fn is_comm_error(&self) -> bool {
        matches!(
            self,
            SymptomKind::Omission | SymptomKind::InvalidCrc | SymptomKind::TimingViolation { .. }
        )
    }

    /// Short stable label for reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            SymptomKind::Omission => "omission",
            SymptomKind::InvalidCrc => "invalid-crc",
            SymptomKind::TimingViolation { .. } => "timing-violation",
            SymptomKind::ValueViolation { .. } => "value-violation",
            SymptomKind::ValueDrift { .. } => "value-drift",
            SymptomKind::MissedMessage { .. } => "missed-message",
            SymptomKind::QueueOverflow { .. } => "queue-overflow",
            SymptomKind::SyncLoss => "sync-loss",
            SymptomKind::MembershipDeparture => "membership-departure",
            SymptomKind::ReplicaDivergence { .. } => "replica-divergence",
        }
    }
}

/// One detected symptom.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Symptom {
    /// Physical detection instant.
    pub at: SimTime,
    /// Lattice point on the sparse time base (the agreed timestamp).
    pub point: LatticePoint,
    /// Component whose detector raised the symptom.
    pub observer: NodeId,
    /// What the symptom is about.
    pub subject: Subject,
    /// The deviation.
    pub kind: SymptomKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_error_classification() {
        assert!(SymptomKind::Omission.is_comm_error());
        assert!(SymptomKind::InvalidCrc.is_comm_error());
        assert!(SymptomKind::TimingViolation { offset_ns: 5 }.is_comm_error());
        assert!(!SymptomKind::SyncLoss.is_comm_error());
        assert!(!SymptomKind::ValueViolation { deviation: 1.0, port: PortId(1) }.is_comm_error());
        assert!(!SymptomKind::QueueOverflow { vnet: VnetId(1), side: QueueSide::Rx, lost: 1 }
            .is_comm_error());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SymptomKind::Omission.label(), "omission");
        assert_eq!(SymptomKind::MissedMessage { port: PortId(1) }.label(), "missed-message");
        assert_eq!(SymptomKind::ReplicaDivergence { replica: 1 }.label(), "replica-divergence");
    }
}
