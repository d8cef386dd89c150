//! # decos-analyzer — static model checking of DECOS experiments
//!
//! A lint-style analysis pass over a complete experiment specification —
//! cluster, TDMA slot table, ONA rule set, trust dynamics and fault
//! campaign — run *before* any slot is simulated. Where the platform's
//! structural validation stops at the first [`decos_platform::SpecError`],
//! the analyzer collects **every** finding into an [`AnalysisReport`] of
//! [`Diagnostic`]s carrying a stable code, a severity, the subjects
//! involved, and a suggestion.
//!
//! The checks encode assumptions of the paper that the type system cannot:
//! the TDMA single-owner premise (DA001), bandwidth feasibility of the
//! communication model (DA004), spatial and FRU independence of TMR triads
//! (DA010–DA013, Fig. 8), ONA coverage of the maintenance-oriented fault
//! taxonomy (DA020, Fig. 6 × Fig. 8), totality of the trust-level
//! transition relation (DA030, Fig. 9), and physical plausibility of the
//! injected fault campaign against the §III-E field data (DA040–DA047).
//!
//! ```
//! use decos_analyzer::{analyze, ExperimentSpec};
//! use decos_platform::fig10;
//!
//! let spec = fig10::reference_spec();
//! let report = analyze(&ExperimentSpec::new(&spec));
//! assert!(!report.has_errors(), "{report}");
//! ```
#![warn(missing_docs)]

pub mod checks;
pub mod diagnosability;
pub mod experiment;
pub mod report;

pub use checks::analyze;
pub use diagnosability::{
    analyze_diagnosability, full_hypotheses, pair_verdict, DiagnosabilityReport, Hypothesis,
    Observation, PairVerdict, SymptomSignature, Verdict, WitnessStep,
};
pub use experiment::{ExperimentSpec, ScheduleSpec};
pub use report::{AnalysisReport, DiagCode, Diagnostic, Severity, Subject};
