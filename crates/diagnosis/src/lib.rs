//! # decos-diagnosis — the DECOS integrated diagnostic subsystem
//!
//! The paper's primary contribution, executable: an encapsulated diagnostic
//! DAS that classifies experienced failures according to the
//! maintenance-oriented fault model and recommends the Fig. 11 maintenance
//! action per Field Replaceable Unit.
//!
//! Pipeline (§II-D):
//!
//! * [`symptom`] / [`detectors`] — LIF monitoring of the interface state;
//! * [`dissemination`] — the bounded virtual diagnostic network;
//! * [`state`] — the distributed state on the sparse time base;
//! * [`patterns`] — Out-of-Norm Assertions encoding the fault patterns of
//!   Fig. 8 in time, value and space;
//! * [`trust`] — per-FRU trust levels (Fig. 9);
//! * [`advisor`] — verdicts and maintenance actions (Fig. 11);
//! * [`engine`] — the assembled diagnostic DAS;
//! * [`baseline`] — the federated OBD comparator (500 ms recording
//!   threshold, no holistic view);
//! * [`metrics`] — confusion matrices, action scoring, NFF economics.

pub mod advisor;
pub mod baseline;
pub mod detectors;
pub mod dissemination;
pub mod engine;
pub mod metrics;
pub mod model;
pub mod patterns;
pub mod state;
pub mod symptom;
pub mod trust;

pub use advisor::{AdvisorParams, DiagnosticReport, FruVerdict};
pub use baseline::{Dtc, ObdDiagnosis, ObdParams, ObdReport};
pub use detectors::SymptomDetectors;
pub use dissemination::DisseminationStats;
pub use engine::{DiagnosticEngine, EngineParams, DEGRADED_QUALITY_THRESHOLD};
pub use metrics::{score_case, ActionScore, ConfusionMatrix, REMOVAL_COST_USD};
pub use model::{
    pattern_model, patterns_for_kind, reach, PatternModel, SymptomDomain, PATTERN_MODELS,
};
pub use patterns::{OnaBank, OnaParams, PatternMatch};
pub use state::DistributedState;
pub use symptom::{QueueSide, Subject, Symptom, SymptomKind};
pub use trust::{class_severity, TrustParams};
