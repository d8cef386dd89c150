//! The maintenance-oriented fault taxonomy (Fig. 4, 5, 6 and 11).
//!
//! This module is the paper's conceptual contribution rendered as types:
//!
//! * the FRU axes — component for hardware, job for software (§III-A);
//! * the boundary classification — external / borderline / internal for
//!   components (Fig. 4), external / borderline / inherent for jobs
//!   (Fig. 5), with job-external faults mapping onto component-internal
//!   hardware faults (§IV-B.3);
//! * the concrete fault kinds §IV grounds in field-data literature;
//! * the prescribed maintenance action per class (Fig. 11).

use decos_platform::{JobId, NodeId, Position};
use serde::{Deserialize, Serialize};

/// A Field Replaceable Unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FruRef {
    /// A component (node computer) — the hardware FRU.
    Component(NodeId),
    /// A job — the software FRU.
    Job(JobId),
}

impl core::fmt::Display for FruRef {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FruRef::Component(n) => write!(f, "FRU:{n}"),
            FruRef::Job(j) => write!(f, "FRU:{j}"),
        }
    }
}

/// The fault classes of the maintenance-oriented model (Fig. 6).
///
/// Job-external faults are not a separate class: by §IV-B.3 they map onto
/// component-internal hardware faults of the hosting component, which is
/// exactly what the correlation analysis of §V-C establishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FaultClass {
    /// Faults originating outside the component boundary with no permanent
    /// effect (EMI, SEU, environmental stress episodes).
    ComponentExternal,
    /// Faults at the component boundary that cannot be judged internal or
    /// external (connectors, wiring).
    ComponentBorderline,
    /// Faults within the component boundary (PCB, solder, quartz, ICs,
    /// discrete elements, power supply). Only replacement eliminates them.
    ComponentInternal,
    /// Configuration faults of the architectural services (virtual network
    /// dimensioning from wrong assumptions).
    JobBorderline,
    /// Software design faults within the job (Bohrbugs, Heisenbugs).
    JobInherentSoftware,
    /// Faults of the job's exclusive sensors/actuators.
    JobInherentTransducer,
}

impl FaultClass {
    /// All classes, in a stable order (confusion-matrix axes).
    pub const ALL: [FaultClass; 6] = [
        FaultClass::ComponentExternal,
        FaultClass::ComponentBorderline,
        FaultClass::ComponentInternal,
        FaultClass::JobBorderline,
        FaultClass::JobInherentSoftware,
        FaultClass::JobInherentTransducer,
    ];

    /// Whether the class concerns the hardware FRU (component).
    pub fn is_hardware(&self) -> bool {
        matches!(
            self,
            FaultClass::ComponentExternal
                | FaultClass::ComponentBorderline
                | FaultClass::ComponentInternal
        )
    }

    /// The maintenance action Fig. 11 prescribes for this class.
    pub fn prescribed_action(&self) -> MaintenanceAction {
        match self {
            FaultClass::ComponentExternal => MaintenanceAction::NoAction,
            FaultClass::ComponentBorderline => MaintenanceAction::InspectConnector,
            FaultClass::ComponentInternal => MaintenanceAction::ReplaceComponent,
            FaultClass::JobBorderline => MaintenanceAction::UpdateConfiguration,
            FaultClass::JobInherentSoftware => MaintenanceAction::UpdateSoftware,
            FaultClass::JobInherentTransducer => MaintenanceAction::InspectTransducer,
        }
    }
}

impl core::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            FaultClass::ComponentExternal => "component-external",
            FaultClass::ComponentBorderline => "component-borderline",
            FaultClass::ComponentInternal => "component-internal",
            FaultClass::JobBorderline => "job-borderline",
            FaultClass::JobInherentSoftware => "job-inherent-software",
            FaultClass::JobInherentTransducer => "job-inherent-transducer",
        };
        f.write_str(s)
    }
}

/// The maintenance actions of Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MaintenanceAction {
    /// External fault: transient by assumption, nothing to replace.
    /// Replacing anyway is exactly what inflates the no-fault-found ratio.
    NoAction,
    /// Borderline fault: closer inspection of connectors/wiring; replace
    /// the connector on fretting/corrosion wearout.
    InspectConnector,
    /// Component-internal fault: replace the ECU / Line Replaceable Module.
    ReplaceComponent,
    /// Job borderline fault: update the virtual-network configuration data.
    UpdateConfiguration,
    /// Software design fault: update the job software (or forward field
    /// data to the OEM for fleet analysis if no fix is released yet).
    UpdateSoftware,
    /// Transducer fault: inspect; replace sensor/actuator or worn part.
    InspectTransducer,
}

impl core::fmt::Display for MaintenanceAction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            MaintenanceAction::NoAction => "no-action",
            MaintenanceAction::InspectConnector => "inspect-connector",
            MaintenanceAction::ReplaceComponent => "replace-component",
            MaintenanceAction::UpdateConfiguration => "update-configuration",
            MaintenanceAction::UpdateSoftware => "update-software",
            MaintenanceAction::InspectTransducer => "inspect-transducer",
        };
        f.write_str(s)
    }
}

/// Concrete fault kinds with their manifestation parameters (§IV grounds
/// each in field-data literature).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    // ----- component external ------------------------------------------
    /// Electromagnetic interference burst (ISO 7637: ~10 ms): corrupts
    /// frames of all components within `radius_m` of `center` — the
    /// massive-transient pattern of Fig. 8.
    EmiBurst {
        /// Episode rate per hour.
        rate_per_hour: f64,
        /// Mean burst duration, ms (ISO 7637 ⇒ ~10 ms).
        duration_ms: f64,
        /// Geometric centre of the disturbance.
        center: Position,
        /// Radius of effect, metres.
        radius_m: f64,
    },
    /// Single-event upset from cosmic radiation: single-bit frame
    /// corruption at one component.
    CosmicRaySeu {
        /// Upset rate per hour.
        rate_per_hour: f64,
    },
    /// Thermal/vibration stress episode: transient outage with restart +
    /// state synchronization (tens of ms, cf. \[34\]: < 50 ms for steering).
    StressOutage {
        /// Episode rate per hour.
        rate_per_hour: f64,
        /// Outage duration, ms.
        outage_ms: f64,
    },

    // ----- component borderline ----------------------------------------
    /// Intermittent connector contact: episodes during which the
    /// component's stub neither sends nor receives — omissions on one
    /// channel at arbitrary times (Fig. 8, connector pattern).
    ConnectorIntermittent {
        /// Episode rate per hour (constant — "arbitrary" in time).
        rate_per_hour: f64,
        /// Mean interruption duration, ms.
        duration_ms: f64,
    },
    /// Fretting/corrosion wearout of a connector: like
    /// [`FaultKind::ConnectorIntermittent`] but with a linearly growing
    /// episode rate.
    ConnectorWearout {
        /// Initial episode rate per hour.
        base_rate_per_hour: f64,
        /// Linear rate growth per hour of operation.
        growth_per_hour: f64,
        /// Mean interruption duration, ms.
        duration_ms: f64,
    },

    // ----- component internal ------------------------------------------
    /// Crack in the PCB: operating-condition-dependent transient outages
    /// with increasing frequency (wearout indicator, §III-E).
    PcbCrack {
        /// Initial episode rate per hour.
        base_rate_per_hour: f64,
        /// Linear rate growth per hour.
        growth_per_hour: f64,
        /// Mean outage duration, ms.
        outage_ms: f64,
    },
    /// Solder-joint crack: recurring transient frame corruption at the
    /// same location with increasing frequency.
    SolderJointCrack {
        /// Initial episode rate per hour.
        base_rate_per_hour: f64,
        /// Linear rate growth per hour.
        growth_per_hour: f64,
        /// Mean episode duration, ms.
        duration_ms: f64,
    },
    /// Quartz degradation: oscillator drift ramping up until clock
    /// synchronization fails (§IV-A.1c).
    QuartzDegradation {
        /// Additional drift accumulated per hour of operation, ppm/h.
        drift_ppm_per_hour: f64,
    },
    /// Permanent IC failure: the component dies (≈ 100 FIT class).
    IcPermanent {
        /// Hours after fault onset at which the component dies.
        after_hours: f64,
    },
    /// Manufacturing-residual IC defect: recurring transient corruption at
    /// a constant (not growing) rate — permanent fault with transient
    /// manifestation (\[24\]).
    IcTransient {
        /// Episode rate per hour.
        rate_per_hour: f64,
        /// Mean episode duration, ms.
        duration_ms: f64,
    },
    /// Aging capacitor in the analog conditioning path: outputs of hosted
    /// jobs drift increasingly — the value dimension of the wearout
    /// pattern (Fig. 8).
    CapacitorAging {
        /// Output bias accumulated per hour, in value units.
        bias_per_hour: f64,
    },
    /// Marginal power supply: brownout outages at a constant rate.
    PowerSupplyMarginal {
        /// Episode rate per hour.
        rate_per_hour: f64,
        /// Mean outage duration, ms.
        outage_ms: f64,
    },

    // ----- job borderline -----------------------------------------------
    /// Virtual-network misconfiguration (deployed through
    /// `ClusterSpec::config_defects`; carried here as ground truth).
    VnetMisconfiguration,

    // ----- job inherent ---------------------------------------------------
    /// Deterministic software design fault: whenever the output value
    /// falls inside the trigger band, the job applies a wrong transform
    /// (a systematic offset — e.g. a unit-conversion or sign bug).
    Bohrbug {
        /// Trigger band on the nominal output value.
        trigger_band: (f64, f64),
        /// The systematic offset added to the output when triggered.
        offset: f64,
    },
    /// Rare, timing-dependent software design fault: with a small
    /// probability per dispatch the output is corrupted or dropped —
    /// perceived as a transient failure (Gray \[56\]).
    Heisenbug {
        /// Activation probability per dispatch.
        prob_per_dispatch: f64,
        /// If `true` the message is dropped; otherwise the value is
        /// replaced by `wrong_value`.
        drop: bool,
        /// The wrong value emitted when not dropping.
        wrong_value: f64,
    },
    /// Sensor stuck at a fixed value.
    SensorStuck {
        /// The stuck reading.
        value: f64,
    },
    /// Sensor calibration drift.
    SensorDrift {
        /// Drift in value units per hour.
        per_hour: f64,
    },
    /// Sensor excess noise.
    SensorNoise {
        /// Added noise standard deviation.
        std_dev: f64,
    },
    /// Sensor dead (no readings).
    SensorDead,

    // ----- diagnostic path ------------------------------------------------
    //
    // Faults of the diagnosis infrastructure itself: the encapsulated
    // virtual diagnostic network (§II-D) and the diagnostic DAS. The
    // monitor's verdicts are only trustworthy if the monitor's own failure
    // modes are part of the fault model — these kinds close that loop.
    /// Symptom frames are lost in transit on the diagnostic network
    /// (continuous from onset; models a degraded diagnostic channel).
    DiagFrameLoss {
        /// Per-frame loss probability in `[0, 1]`.
        loss_prob: f64,
    },
    /// Symptom frames suffer bit corruption in transit. The receiving
    /// diagnostic DAS detects almost all of it by per-frame CRC; the rare
    /// escapes carry mangled content and must be caught by plausibility
    /// screening.
    DiagFrameCorruption {
        /// Per-frame corruption probability in `[0, 1]`.
        corrupt_prob: f64,
    },
    /// Symptom frames are delayed by the diagnostic network's
    /// store-and-forward path and overtaken by fresher frames (reordering).
    DiagFrameDelay {
        /// Delivery delay in whole TDMA rounds.
        delay_rounds: u32,
    },
    /// A babbling observer: the target component floods the diagnostic
    /// network with forged symptoms accusing other FRUs (the
    /// babbling-idiot failure mode applied to the symptom publisher).
    BabblingObserver {
        /// Forged symptom frames injected per TDMA round.
        forged_per_round: u32,
    },
    /// The component hosting the diagnostic DAS crashes episodically and
    /// restarts; during the outage no symptoms are consumed and the
    /// cold-standby replica must take over with a bounded state resync.
    DiagComponentCrash {
        /// Crash episode rate per hour.
        rate_per_hour: f64,
        /// Mean outage duration, ms.
        outage_ms: f64,
    },
}

impl FaultKind {
    /// The maintenance-oriented class of this kind (Fig. 6).
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::EmiBurst { .. }
            | FaultKind::CosmicRaySeu { .. }
            | FaultKind::StressOutage { .. } => FaultClass::ComponentExternal,
            FaultKind::ConnectorIntermittent { .. } | FaultKind::ConnectorWearout { .. } => {
                FaultClass::ComponentBorderline
            }
            FaultKind::PcbCrack { .. }
            | FaultKind::SolderJointCrack { .. }
            | FaultKind::QuartzDegradation { .. }
            | FaultKind::IcPermanent { .. }
            | FaultKind::IcTransient { .. }
            | FaultKind::CapacitorAging { .. }
            | FaultKind::PowerSupplyMarginal { .. } => FaultClass::ComponentInternal,
            FaultKind::VnetMisconfiguration => FaultClass::JobBorderline,
            FaultKind::Bohrbug { .. } | FaultKind::Heisenbug { .. } => {
                FaultClass::JobInherentSoftware
            }
            FaultKind::SensorStuck { .. }
            | FaultKind::SensorDrift { .. }
            | FaultKind::SensorNoise { .. }
            | FaultKind::SensorDead => FaultClass::JobInherentTransducer,
            // Diagnostic-path transport disturbances originate outside the
            // affected component's boundary (channel-level, transient) …
            FaultKind::DiagFrameLoss { .. }
            | FaultKind::DiagFrameCorruption { .. }
            | FaultKind::DiagFrameDelay { .. } => FaultClass::ComponentExternal,
            // … while a babbling symptom publisher or a crashing diagnostic
            // host is a defect of the component itself.
            FaultKind::BabblingObserver { .. } | FaultKind::DiagComponentCrash { .. } => {
                FaultClass::ComponentInternal
            }
        }
    }

    /// Short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::EmiBurst { .. } => "emi-burst",
            FaultKind::CosmicRaySeu { .. } => "cosmic-ray-seu",
            FaultKind::StressOutage { .. } => "stress-outage",
            FaultKind::ConnectorIntermittent { .. } => "connector-intermittent",
            FaultKind::ConnectorWearout { .. } => "connector-wearout",
            FaultKind::PcbCrack { .. } => "pcb-crack",
            FaultKind::SolderJointCrack { .. } => "solder-joint-crack",
            FaultKind::QuartzDegradation { .. } => "quartz-degradation",
            FaultKind::IcPermanent { .. } => "ic-permanent",
            FaultKind::IcTransient { .. } => "ic-transient",
            FaultKind::CapacitorAging { .. } => "capacitor-aging",
            FaultKind::PowerSupplyMarginal { .. } => "power-supply-marginal",
            FaultKind::VnetMisconfiguration => "vnet-misconfiguration",
            FaultKind::Bohrbug { .. } => "bohrbug",
            FaultKind::Heisenbug { .. } => "heisenbug",
            FaultKind::SensorStuck { .. } => "sensor-stuck",
            FaultKind::SensorDrift { .. } => "sensor-drift",
            FaultKind::SensorNoise { .. } => "sensor-noise",
            FaultKind::SensorDead => "sensor-dead",
            FaultKind::DiagFrameLoss { .. } => "diag-frame-loss",
            FaultKind::DiagFrameCorruption { .. } => "diag-frame-corruption",
            FaultKind::DiagFrameDelay { .. } => "diag-frame-delay",
            FaultKind::BabblingObserver { .. } => "babbling-observer",
            FaultKind::DiagComponentCrash { .. } => "diag-component-crash",
        }
    }

    /// Whether this kind attacks the diagnostic path itself (transport or
    /// diagnostic component) rather than the diagnosed application.
    pub fn is_diag_path(&self) -> bool {
        matches!(
            self,
            FaultKind::DiagFrameLoss { .. }
                | FaultKind::DiagFrameCorruption { .. }
                | FaultKind::DiagFrameDelay { .. }
                | FaultKind::BabblingObserver { .. }
                | FaultKind::DiagComponentCrash { .. }
        )
    }

    /// Whether this kind manifests in discrete activation episodes logged
    /// as [`ActivationWindow`](crate::injector::ActivationWindow)s, as
    /// opposed to manifesting continuously from onset. The flight
    /// recorder derives fault-injected/cleared events from the windows of
    /// episodic kinds and from the onset of continuous ones.
    pub fn is_episodic(&self) -> bool {
        matches!(
            self,
            FaultKind::EmiBurst { .. }
                | FaultKind::CosmicRaySeu { .. }
                | FaultKind::StressOutage { .. }
                | FaultKind::ConnectorIntermittent { .. }
                | FaultKind::ConnectorWearout { .. }
                | FaultKind::PcbCrack { .. }
                | FaultKind::SolderJointCrack { .. }
                | FaultKind::IcTransient { .. }
                | FaultKind::IcPermanent { .. }
                | FaultKind::PowerSupplyMarginal { .. }
                | FaultKind::DiagComponentCrash { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_action_mapping() {
        assert_eq!(FaultClass::ComponentExternal.prescribed_action(), MaintenanceAction::NoAction);
        assert_eq!(
            FaultClass::ComponentBorderline.prescribed_action(),
            MaintenanceAction::InspectConnector
        );
        assert_eq!(
            FaultClass::ComponentInternal.prescribed_action(),
            MaintenanceAction::ReplaceComponent
        );
        assert_eq!(
            FaultClass::JobBorderline.prescribed_action(),
            MaintenanceAction::UpdateConfiguration
        );
        assert_eq!(
            FaultClass::JobInherentSoftware.prescribed_action(),
            MaintenanceAction::UpdateSoftware
        );
        assert_eq!(
            FaultClass::JobInherentTransducer.prescribed_action(),
            MaintenanceAction::InspectTransducer
        );
    }

    #[test]
    fn kind_class_mapping_covers_fig6() {
        use FaultClass::*;
        let cases: Vec<(FaultKind, FaultClass)> = vec![
            (
                FaultKind::EmiBurst {
                    rate_per_hour: 1.0,
                    duration_ms: 10.0,
                    center: Position { x: 0.0, y: 0.0 },
                    radius_m: 1.0,
                },
                ComponentExternal,
            ),
            (FaultKind::CosmicRaySeu { rate_per_hour: 1.0 }, ComponentExternal),
            (FaultKind::StressOutage { rate_per_hour: 1.0, outage_ms: 50.0 }, ComponentExternal),
            (
                FaultKind::ConnectorIntermittent { rate_per_hour: 1.0, duration_ms: 5.0 },
                ComponentBorderline,
            ),
            (
                FaultKind::ConnectorWearout {
                    base_rate_per_hour: 0.1,
                    growth_per_hour: 0.1,
                    duration_ms: 5.0,
                },
                ComponentBorderline,
            ),
            (
                FaultKind::PcbCrack {
                    base_rate_per_hour: 0.1,
                    growth_per_hour: 0.1,
                    outage_ms: 30.0,
                },
                ComponentInternal,
            ),
            (FaultKind::QuartzDegradation { drift_ppm_per_hour: 100.0 }, ComponentInternal),
            (FaultKind::IcPermanent { after_hours: 1.0 }, ComponentInternal),
            (FaultKind::CapacitorAging { bias_per_hour: 0.1 }, ComponentInternal),
            (FaultKind::VnetMisconfiguration, JobBorderline),
            (FaultKind::Bohrbug { trigger_band: (0.0, 1.0), offset: 9.0 }, JobInherentSoftware),
            (
                FaultKind::Heisenbug { prob_per_dispatch: 0.01, drop: true, wrong_value: 0.0 },
                JobInherentSoftware,
            ),
            (FaultKind::SensorStuck { value: 0.0 }, JobInherentTransducer),
            (FaultKind::SensorDead, JobInherentTransducer),
            (FaultKind::DiagFrameLoss { loss_prob: 0.5 }, ComponentExternal),
            (FaultKind::DiagFrameCorruption { corrupt_prob: 0.5 }, ComponentExternal),
            (FaultKind::DiagFrameDelay { delay_rounds: 3 }, ComponentExternal),
            (FaultKind::BabblingObserver { forged_per_round: 100 }, ComponentInternal),
            (
                FaultKind::DiagComponentCrash { rate_per_hour: 1.0, outage_ms: 40.0 },
                ComponentInternal,
            ),
        ];
        for (kind, class) in cases {
            assert_eq!(kind.class(), class, "{}", kind.name());
        }
    }

    #[test]
    fn diag_path_predicate_selects_only_diag_kinds() {
        assert!(FaultKind::DiagFrameLoss { loss_prob: 1.0 }.is_diag_path());
        assert!(FaultKind::DiagFrameCorruption { corrupt_prob: 1.0 }.is_diag_path());
        assert!(FaultKind::DiagFrameDelay { delay_rounds: 1 }.is_diag_path());
        assert!(FaultKind::BabblingObserver { forged_per_round: 1 }.is_diag_path());
        assert!(FaultKind::DiagComponentCrash { rate_per_hour: 1.0, outage_ms: 1.0 }.is_diag_path());
        assert!(!FaultKind::CosmicRaySeu { rate_per_hour: 1.0 }.is_diag_path());
        assert!(!FaultKind::SensorDead.is_diag_path());
    }

    #[test]
    fn hardware_software_split() {
        assert!(FaultClass::ComponentInternal.is_hardware());
        assert!(FaultClass::ComponentExternal.is_hardware());
        assert!(FaultClass::ComponentBorderline.is_hardware());
        assert!(!FaultClass::JobBorderline.is_hardware());
        assert!(!FaultClass::JobInherentSoftware.is_hardware());
        assert!(!FaultClass::JobInherentTransducer.is_hardware());
    }

    #[test]
    fn all_classes_enumerated() {
        assert_eq!(FaultClass::ALL.len(), 6);
        let set: std::collections::BTreeSet<_> = FaultClass::ALL.iter().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn display_names_stable() {
        assert_eq!(FaultClass::ComponentInternal.to_string(), "component-internal");
        assert_eq!(MaintenanceAction::NoAction.to_string(), "no-action");
        assert_eq!(FruRef::Component(NodeId(2)).to_string(), "FRU:N2");
        assert_eq!(FruRef::Job(JobId(7)).to_string(), "FRU:J7");
    }
}
