//! Diagnostics, severities and the analysis report.
//!
//! The analyzer never stops at the first problem: every check appends
//! [`Diagnostic`]s to one [`AnalysisReport`], so a user composing a cluster
//! sees *all* defects of the model at once — the lint experience, applied
//! to an experiment specification instead of source code.

use decos_faults::FaultClass;
use decos_platform::{DasId, JobId, NodeId};
use decos_vnet::VnetId;
use serde::{Deserialize, Serialize};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational: worth knowing, never blocks anything.
    Info,
    /// Suspicious but simulable: the experiment runs, results may mislead.
    Warning,
    /// The experiment is structurally broken; runners refuse to simulate.
    Error,
}

impl core::fmt::Display for Severity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// What a diagnostic is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Subject {
    /// A component (hardware FRU).
    Component(NodeId),
    /// A job (software FRU).
    Job(JobId),
    /// A distributed application subsystem.
    Das(DasId),
    /// A virtual network.
    Vnet(VnetId),
    /// A TDMA slot index.
    Slot(u16),
    /// An output port.
    Port(u32),
    /// A campaign fault, by its id.
    Fault(u32),
    /// A fault class of the maintenance-oriented taxonomy.
    Class(FaultClass),
}

impl core::fmt::Display for Subject {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Subject::Component(n) => write!(f, "{n}"),
            Subject::Job(j) => write!(f, "{j}"),
            Subject::Das(d) => write!(f, "{d}"),
            Subject::Vnet(v) => write!(f, "{v}"),
            Subject::Slot(s) => write!(f, "slot {s}"),
            Subject::Port(p) => write!(f, "P{p}"),
            Subject::Fault(id) => write!(f, "fault #{id}"),
            Subject::Class(c) => write!(f, "{c}"),
        }
    }
}

/// Stable diagnostic codes. The `DAxxx` numbering groups by concern:
/// 00x schedule/bandwidth, 01x TMR, 02x ONA coverage, 03x trust dynamics,
/// 04x campaign, 05x configuration defects, 06x structural (the former
/// `SpecError` variants), 07x the diagnostic path itself, 08x static
/// n-diagnosability, 09x persistence/resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DiagCode {
    /// Two claims on the same TDMA slot.
    SlotCollision,
    /// A component owns no slot — it can never transmit.
    UnscheduledComponent,
    /// Empty, gapped, or otherwise unusable slot table.
    MalformedSlotTable,
    /// Mean offered load exceeds a vnet's per-round segment capacity.
    VnetBandwidthInfeasible,
    /// A configuration defect degrades a deployed vnet below its load.
    DeployedBandwidthDegraded,
    /// An event consumer services fewer messages than a source offers.
    ConsumerUnderProvisioned,
    /// An input port that no job produces.
    DanglingInputPort,
    /// Two TMR replicas share a component (common-mode FRU).
    TmrTriadSharedFru,
    /// A voter input without a TMR replica producing it.
    TmrTriadIncomplete,
    /// All replicas of a triad within one spatial proximity zone.
    TmrTriadSpatiallyClose,
    /// The voter is co-hosted with one of its replicas.
    TmrVoterCohosted,
    /// A taxonomy fault class no enabled ONA pattern can indicate.
    UncoveredFaultClass,
    /// An ONA pattern that cannot fire under the given parameters.
    OnaPatternUnavailable,
    /// Trust parameters leave some evidence without a defined successor.
    TrustTransitionPartial,
    /// Quiet-round recovery outpaces the weakest evidence class.
    TrustRecoveryOutpacesDecay,
    /// A fault targets a FRU that does not exist in the cluster.
    UnknownFaultTarget,
    /// A fault onset at or beyond the simulated horizon.
    OnsetBeyondHorizon,
    /// A non-finite, negative or out-of-domain fault parameter.
    InvalidFaultParameter,
    /// A parameter outside the ranges §III-E/§IV ground in field data.
    OutsidePaperRange,
    /// A software design fault injected into a safety-critical job.
    SoftwareFaultOnSafetyCritical,
    /// Misconfiguration ground truth without a deployed config defect.
    MisconfigTruthWithoutDefect,
    /// A fault kind that cannot manifest on its target's FRU type.
    TargetKindMismatch,
    /// Two campaign faults share an id (attribution would be corrupted).
    DuplicateFaultId,
    /// A configuration defect names a vnet the cluster does not have.
    DefectUnknownVnet,
    /// A configuration defect that leaves the configuration unchanged.
    InertConfigDefect,
    /// A deployed vnet whose segment can carry no message at all.
    DeployedVnetUnusable,
    /// Node ids are not exactly `0..n` in order.
    NonContiguousNodeIds,
    /// More than 64 components (membership vector width).
    TooManyComponents,
    /// A job hosted on a component that does not exist.
    UnknownHost,
    /// A job referencing an unknown DAS.
    UnknownDas,
    /// A job referencing an unknown virtual network.
    UnknownVnet,
    /// Two jobs sharing an output port id.
    DuplicatePort,
    /// A job whose criticality disagrees with its DAS.
    CriticalityMismatch,
    /// Two jobs sharing an id.
    DuplicateJob,
    /// Diagnostic-network dimensioning unusable (zero capacity or a queue
    /// shallower than one round of frames).
    InvalidDiagNetConfig,
    /// Diagnostic-component crash downtime dominates the simulated horizon.
    DiagCrashDominatesHorizon,
    /// Diagnostic-frame delay meets or exceeds the short-term horizon.
    DiagDelayExceedsHorizon,
    /// A babbling observer too quiet for the rate screen to ever flag.
    DiagBabbleUndetectable,
    /// Two campaign fault hypotheses whose n-round symptom signatures are
    /// identical — the maintenance advisor cannot tell them apart.
    FaultPairIndistinguishable,
    /// A fault hypothesis that reaches no ONA pattern at all: invisible
    /// to the diagnostic architecture's application-level observers.
    FaultClassInvisibleToOna,
    /// A fault hypothesis whose earliest possible conviction lies beyond
    /// the simulated horizon (the diagnosability analogue of the
    /// DA071/DA072 horizon lints).
    HorizonTooShortForConviction,
    /// A resume was requested against a store whose recorded experiment
    /// hash disagrees with the campaign being run — replaying a journal
    /// under a different cluster, fault set, seed or engine parameters
    /// would silently corrupt the accumulated history.
    StoreSpecMismatch,
}

impl DiagCode {
    /// The stable `DAxxx` code string.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::SlotCollision => "DA001",
            DiagCode::UnscheduledComponent => "DA002",
            DiagCode::MalformedSlotTable => "DA003",
            DiagCode::VnetBandwidthInfeasible => "DA004",
            DiagCode::DeployedBandwidthDegraded => "DA005",
            DiagCode::ConsumerUnderProvisioned => "DA006",
            DiagCode::DanglingInputPort => "DA007",
            DiagCode::TmrTriadSharedFru => "DA010",
            DiagCode::TmrTriadIncomplete => "DA011",
            DiagCode::TmrTriadSpatiallyClose => "DA012",
            DiagCode::TmrVoterCohosted => "DA013",
            DiagCode::UncoveredFaultClass => "DA020",
            DiagCode::OnaPatternUnavailable => "DA021",
            DiagCode::TrustTransitionPartial => "DA030",
            DiagCode::TrustRecoveryOutpacesDecay => "DA031",
            DiagCode::UnknownFaultTarget => "DA040",
            DiagCode::OnsetBeyondHorizon => "DA041",
            DiagCode::InvalidFaultParameter => "DA042",
            DiagCode::OutsidePaperRange => "DA043",
            DiagCode::SoftwareFaultOnSafetyCritical => "DA044",
            DiagCode::MisconfigTruthWithoutDefect => "DA045",
            DiagCode::TargetKindMismatch => "DA046",
            DiagCode::DuplicateFaultId => "DA047",
            DiagCode::DefectUnknownVnet => "DA050",
            DiagCode::InertConfigDefect => "DA051",
            DiagCode::DeployedVnetUnusable => "DA052",
            DiagCode::NonContiguousNodeIds => "DA060",
            DiagCode::TooManyComponents => "DA061",
            DiagCode::UnknownHost => "DA062",
            DiagCode::UnknownDas => "DA063",
            DiagCode::UnknownVnet => "DA064",
            DiagCode::DuplicatePort => "DA065",
            DiagCode::CriticalityMismatch => "DA066",
            DiagCode::DuplicateJob => "DA067",
            DiagCode::InvalidDiagNetConfig => "DA070",
            DiagCode::DiagCrashDominatesHorizon => "DA071",
            DiagCode::DiagDelayExceedsHorizon => "DA072",
            DiagCode::DiagBabbleUndetectable => "DA073",
            DiagCode::FaultPairIndistinguishable => "DA080",
            DiagCode::FaultClassInvisibleToOna => "DA081",
            DiagCode::HorizonTooShortForConviction => "DA082",
            DiagCode::StoreSpecMismatch => "DA090",
        }
    }

    /// The variant name, for human-readable rendering.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            DiagCode::SlotCollision => "SlotCollision",
            DiagCode::UnscheduledComponent => "UnscheduledComponent",
            DiagCode::MalformedSlotTable => "MalformedSlotTable",
            DiagCode::VnetBandwidthInfeasible => "VnetBandwidthInfeasible",
            DiagCode::DeployedBandwidthDegraded => "DeployedBandwidthDegraded",
            DiagCode::ConsumerUnderProvisioned => "ConsumerUnderProvisioned",
            DiagCode::DanglingInputPort => "DanglingInputPort",
            DiagCode::TmrTriadSharedFru => "TmrTriadSharedFru",
            DiagCode::TmrTriadIncomplete => "TmrTriadIncomplete",
            DiagCode::TmrTriadSpatiallyClose => "TmrTriadSpatiallyClose",
            DiagCode::TmrVoterCohosted => "TmrVoterCohosted",
            DiagCode::UncoveredFaultClass => "UncoveredFaultClass",
            DiagCode::OnaPatternUnavailable => "OnaPatternUnavailable",
            DiagCode::TrustTransitionPartial => "TrustTransitionPartial",
            DiagCode::TrustRecoveryOutpacesDecay => "TrustRecoveryOutpacesDecay",
            DiagCode::UnknownFaultTarget => "UnknownFaultTarget",
            DiagCode::OnsetBeyondHorizon => "OnsetBeyondHorizon",
            DiagCode::InvalidFaultParameter => "InvalidFaultParameter",
            DiagCode::OutsidePaperRange => "OutsidePaperRange",
            DiagCode::SoftwareFaultOnSafetyCritical => "SoftwareFaultOnSafetyCritical",
            DiagCode::MisconfigTruthWithoutDefect => "MisconfigTruthWithoutDefect",
            DiagCode::TargetKindMismatch => "TargetKindMismatch",
            DiagCode::DuplicateFaultId => "DuplicateFaultId",
            DiagCode::DefectUnknownVnet => "DefectUnknownVnet",
            DiagCode::InertConfigDefect => "InertConfigDefect",
            DiagCode::DeployedVnetUnusable => "DeployedVnetUnusable",
            DiagCode::NonContiguousNodeIds => "NonContiguousNodeIds",
            DiagCode::TooManyComponents => "TooManyComponents",
            DiagCode::UnknownHost => "UnknownHost",
            DiagCode::UnknownDas => "UnknownDas",
            DiagCode::UnknownVnet => "UnknownVnet",
            DiagCode::DuplicatePort => "DuplicatePort",
            DiagCode::CriticalityMismatch => "CriticalityMismatch",
            DiagCode::DuplicateJob => "DuplicateJob",
            DiagCode::InvalidDiagNetConfig => "InvalidDiagNetConfig",
            DiagCode::DiagCrashDominatesHorizon => "DiagCrashDominatesHorizon",
            DiagCode::DiagDelayExceedsHorizon => "DiagDelayExceedsHorizon",
            DiagCode::DiagBabbleUndetectable => "DiagBabbleUndetectable",
            DiagCode::FaultPairIndistinguishable => "FaultPairIndistinguishable",
            DiagCode::FaultClassInvisibleToOna => "FaultClassInvisibleToOna",
            DiagCode::HorizonTooShortForConviction => "HorizonTooShortForConviction",
            DiagCode::StoreSpecMismatch => "StoreSpecMismatch",
        }
    }

    /// Whether this code belongs to the DA080 diagnosability block (the
    /// verdicts a `RunOptions::deny_diagnosability` gate rejects on).
    #[must_use]
    pub fn is_diagnosability(self) -> bool {
        matches!(
            self,
            DiagCode::FaultPairIndistinguishable
                | DiagCode::FaultClassInvisibleToOna
                | DiagCode::HorizonTooShortForConviction
        )
    }
}

impl core::fmt::Display for DiagCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} {}", self.code(), self.name())
    }
}

/// One finding of the analyzer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Severity.
    pub severity: Severity,
    /// The model elements this finding is about.
    pub subjects: Vec<Subject>,
    /// Human-readable statement of the problem.
    pub message: String,
    /// How to fix it (empty when there is nothing generic to say).
    pub suggestion: String,
}

impl Diagnostic {
    /// Creates a diagnostic without subjects or suggestion.
    pub fn new(code: DiagCode, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            subjects: Vec::new(),
            message: message.into(),
            suggestion: String::new(),
        }
    }

    /// Appends a subject.
    #[must_use]
    pub(crate) fn with(mut self, subject: Subject) -> Self {
        self.subjects.push(subject);
        self
    }

    /// Sets the suggestion.
    #[must_use]
    pub fn suggest(mut self, s: impl Into<String>) -> Self {
        self.suggestion = s.into();
        self
    }
}

impl core::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}[{}] {}", self.severity, self.code, self.message)?;
        if !self.subjects.is_empty() {
            write!(f, " (")?;
            for (i, s) in self.subjects.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{s}")?;
            }
            write!(f, ")")?;
        }
        if !self.suggestion.is_empty() {
            write!(f, "\n    help: {}", self.suggestion)?;
        }
        Ok(())
    }
}

/// Everything the analyzer found, errors first.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// The findings, sorted by descending severity then by code.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        AnalysisReport::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Sorts findings by descending severity, then by code, keeping the
    /// emission order within each (severity, code) group.
    pub fn finish(&mut self) {
        self.diagnostics.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.code.cmp(&b.code)));
    }

    /// Whether any error-severity diagnostic is present.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// Number of findings at `severity`.
    #[must_use]
    pub fn count_severity(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// Findings with the given code.
    pub(crate) fn with_code(&self, code: DiagCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Whether any finding carries the given code.
    #[must_use]
    pub fn contains(&self, code: DiagCode) -> bool {
        self.with_code(code).next().is_some()
    }

    /// One-line summary (`2 errors, 1 warning, 0 notes`).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} errors, {} warnings, {} notes",
            self.count_severity(Severity::Error),
            self.count_severity(Severity::Warning),
            self.count_severity(Severity::Info)
        )
    }
}

impl core::fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "analysis clean: no findings");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        writeln!(f, "analysis: {}", self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant, in `DAxxx` order. The `code()`/`name()` matches are
    /// exhaustive, so a new variant fails compilation until it is wired
    /// there; the uniqueness test walks this list to catch numbering
    /// collisions when it is.
    const ALL: &[DiagCode] = &[
        DiagCode::SlotCollision,
        DiagCode::UnscheduledComponent,
        DiagCode::MalformedSlotTable,
        DiagCode::VnetBandwidthInfeasible,
        DiagCode::DeployedBandwidthDegraded,
        DiagCode::ConsumerUnderProvisioned,
        DiagCode::DanglingInputPort,
        DiagCode::TmrTriadSharedFru,
        DiagCode::TmrTriadIncomplete,
        DiagCode::TmrTriadSpatiallyClose,
        DiagCode::TmrVoterCohosted,
        DiagCode::UncoveredFaultClass,
        DiagCode::OnaPatternUnavailable,
        DiagCode::TrustTransitionPartial,
        DiagCode::TrustRecoveryOutpacesDecay,
        DiagCode::UnknownFaultTarget,
        DiagCode::OnsetBeyondHorizon,
        DiagCode::InvalidFaultParameter,
        DiagCode::OutsidePaperRange,
        DiagCode::SoftwareFaultOnSafetyCritical,
        DiagCode::MisconfigTruthWithoutDefect,
        DiagCode::TargetKindMismatch,
        DiagCode::DuplicateFaultId,
        DiagCode::DefectUnknownVnet,
        DiagCode::InertConfigDefect,
        DiagCode::DeployedVnetUnusable,
        DiagCode::NonContiguousNodeIds,
        DiagCode::TooManyComponents,
        DiagCode::UnknownHost,
        DiagCode::UnknownDas,
        DiagCode::UnknownVnet,
        DiagCode::DuplicatePort,
        DiagCode::CriticalityMismatch,
        DiagCode::DuplicateJob,
        DiagCode::InvalidDiagNetConfig,
        DiagCode::DiagCrashDominatesHorizon,
        DiagCode::DiagDelayExceedsHorizon,
        DiagCode::DiagBabbleUndetectable,
        DiagCode::FaultPairIndistinguishable,
        DiagCode::FaultClassInvisibleToOna,
        DiagCode::HorizonTooShortForConviction,
        DiagCode::StoreSpecMismatch,
    ];

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn codes_are_unique_and_stable() {
        // Walk every variant via ALL: no duplicate DAxxx code
        // strings, no duplicate names, every code well-formed.
        let codes: std::collections::BTreeSet<&str> = ALL.iter().map(|c| c.code()).collect();
        assert_eq!(codes.len(), ALL.len(), "every DiagCode must have a unique DAxxx");
        let names: std::collections::BTreeSet<&str> = ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), ALL.len(), "every DiagCode must have a unique name");
        let variants: std::collections::BTreeSet<DiagCode> = ALL.iter().copied().collect();
        assert_eq!(variants.len(), ALL.len(), "ALL must not repeat a variant");
        for c in ALL {
            let s = c.code();
            assert!(
                s.len() == 5 && s.starts_with("DA") && s[2..].chars().all(|d| d.is_ascii_digit()),
                "{s}: codes are DA followed by three digits"
            );
        }
        // Stable anchors: one per numbering block.
        assert_eq!(DiagCode::SlotCollision.code(), "DA001");
        assert_eq!(DiagCode::TmrTriadSharedFru.code(), "DA010");
        assert_eq!(DiagCode::UncoveredFaultClass.code(), "DA020");
        assert_eq!(DiagCode::TrustTransitionPartial.code(), "DA030");
        assert_eq!(DiagCode::UnknownFaultTarget.code(), "DA040");
        assert_eq!(DiagCode::DefectUnknownVnet.code(), "DA050");
        assert_eq!(DiagCode::NonContiguousNodeIds.code(), "DA060");
        assert_eq!(DiagCode::InvalidDiagNetConfig.code(), "DA070");
        assert_eq!(DiagCode::FaultPairIndistinguishable.code(), "DA080");
        assert_eq!(DiagCode::FaultClassInvisibleToOna.code(), "DA081");
        assert_eq!(DiagCode::HorizonTooShortForConviction.code(), "DA082");
        assert_eq!(DiagCode::StoreSpecMismatch.code(), "DA090");
    }

    #[test]
    fn diagnosability_block_is_exactly_da08x() {
        for c in ALL {
            assert_eq!(
                c.is_diagnosability(),
                c.code().starts_with("DA08"),
                "{}: is_diagnosability must mirror the DA08x numbering",
                c.code()
            );
        }
    }

    #[test]
    fn report_sorts_errors_first() {
        let mut r = AnalysisReport::new();
        r.push(Diagnostic::new(DiagCode::OnaPatternUnavailable, Severity::Info, "i"));
        r.push(Diagnostic::new(DiagCode::SlotCollision, Severity::Error, "e"));
        r.push(Diagnostic::new(DiagCode::TmrVoterCohosted, Severity::Warning, "w"));
        r.finish();
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
        assert_eq!(r.diagnostics[2].severity, Severity::Info);
        assert!(r.has_errors());
        assert_eq!(r.summary(), "1 errors, 1 warnings, 1 notes");
    }

    #[test]
    fn display_renders_subjects_and_suggestion() {
        let d = Diagnostic::new(DiagCode::TmrTriadSharedFru, Severity::Error, "shared FRU")
            .with(Subject::Job(JobId(4)))
            .with(Subject::Component(NodeId(1)))
            .suggest("host each replica on its own component");
        let s = d.to_string();
        assert!(s.contains("error[DA010 TmrTriadSharedFru]"), "{s}");
        assert!(s.contains("(J4, N1)"), "{s}");
        assert!(s.contains("help:"), "{s}");
    }
}
