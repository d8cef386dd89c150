//! The analysis passes.
//!
//! Each pass appends to one [`AnalysisReport`]; none stops at the first
//! finding. Severity policy: a finding is an **error** only if simulating
//! would crash, hang, or measure something structurally different from
//! what the experiment claims to measure. Deliberate degradation — the
//! configuration defects and campaign faults that *are* the experiment's
//! ground truth — produces warnings at most, otherwise fault-injection
//! experiments could never run.

use crate::experiment::ExperimentSpec;
use crate::report::{AnalysisReport, DiagCode, Diagnostic, Severity, Subject};
use decos_diagnosis::{reach, PATTERN_MODELS};
use decos_faults::{FaultClass, FaultKind, FaultSpec, FruRef};
use decos_platform::{ClusterSpec, Criticality, JobBehavior, JobSpec, SpecError};
use decos_vnet::VnetConfig;
use std::collections::{BTreeMap, BTreeSet};

/// Statically analyzes a complete experiment, returning every finding.
///
/// Runs all passes — structural, schedule, bandwidth, TMR, ONA coverage,
/// trust totality, campaign validity, configuration-defect cross-checks —
/// and returns the findings sorted errors-first. The experiment is safe to
/// simulate iff [`AnalysisReport::has_errors`] is `false`.
#[must_use]
pub fn analyze(exp: &ExperimentSpec<'_>) -> AnalysisReport {
    let mut r = AnalysisReport::new();
    check_structure(exp.cluster, &mut r);
    check_schedule(exp, &mut r);
    check_bandwidth(exp, &mut r);
    check_tmr(exp, &mut r);
    check_coverage(exp, &mut r);
    check_trust(exp, &mut r);
    check_campaign(exp, &mut r);
    check_diag_path(exp, &mut r);
    check_config_defects(exp, &mut r);
    check_diagnosability(exp, &mut r);
    r.finish();
    r
}

/// DA080–DA082: bounded n-diagnosability over the campaign scope.
///
/// Runs only for bounded campaign experiments (`rounds > 0`, at least one
/// fault): derives each distinct `(kind, FRU)` hypothesis' n-round symptom
/// signature and lints pairs the maintenance advisor could confuse into a
/// *wrong* action (observation-equivalent pairs differing in FRU or
/// class), hypotheses that are invisible to the ONA bank, and hypotheses
/// whose earliest possible conviction lies beyond the horizon. All
/// warn-level: such campaigns measure something (often deliberately — an
/// ambiguity experiment is still an experiment), they just cannot support
/// the paper's pinned-FRU maintenance claim.
fn check_diagnosability(exp: &ExperimentSpec<'_>, r: &mut AnalysisReport) {
    if exp.rounds == 0 || exp.faults.is_empty() {
        return;
    }
    let hypotheses = crate::diagnosability::campaign_hypotheses(exp);
    let report = crate::diagnosability::analyze_diagnosability(exp, hypotheses, exp.rounds);
    let subject = |h: &crate::diagnosability::Hypothesis| match h.fru {
        FruRef::Component(n) => Subject::Component(n),
        FruRef::Job(j) => Subject::Job(j),
    };
    for i in report.invisible() {
        let h = &report.hypotheses[i];
        // A diagnostic-path fault is *supposed* to be invisible to the
        // application-level observers; DA070-DA073 own its lints.
        let severity = if h.kind.is_diag_path() { Severity::Info } else { Severity::Warning };
        let mut d = Diagnostic::new(
            DiagCode::FaultClassInvisibleToOna,
            severity,
            format!(
                "{} reaches no ONA pattern within {} rounds: invisible to the diagnostic \
                 architecture",
                h.label(),
                exp.rounds
            ),
        )
        .with(subject(h))
        .with(Subject::Class(h.class()))
        .suggest(if h.kind.is_diag_path() {
            "expected for diagnostic-path faults; the DA07x lints cover the observer itself"
        } else {
            "give the target a TDMA slot and check the ONA parameters/horizon cover the \
             kind's patterns"
        });
        if let Some(id) = h.fault_id {
            d = d.with(Subject::Fault(id));
        }
        r.push(d);
    }
    for p in report.ambiguous() {
        let (a, b) = (&report.hypotheses[p.a], &report.hypotheses[p.b]);
        // Same FRU + same class ⇒ same prescribed action: the ambiguity
        // cannot misdirect maintenance, so it is not worth a warning.
        if crate::diagnosability::maintenance_equivalent(a, b) {
            continue;
        }
        let witness = match &p.verdict {
            crate::diagnosability::Verdict::Ambiguous { witness } => {
                witness.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
            }
            _ => unreachable!("ambiguous() yields only ambiguous verdicts"),
        };
        let mut d = Diagnostic::new(
            DiagCode::FaultPairIndistinguishable,
            Severity::Warning,
            format!(
                "{} and {} are observation-equivalent within {} rounds; witness: [{}]",
                a.label(),
                b.label(),
                exp.rounds,
                witness
            ),
        )
        .with(subject(a))
        .with(subject(b))
        .suggest(
            "the advisor cannot pin the FRU/action for this pair; separate the targets \
             spatially, enable a discriminating ONA, or accept the ambiguity as ground truth",
        );
        for h in [a, b] {
            if let Some(id) = h.fault_id {
                d = d.with(Subject::Fault(id));
            }
        }
        r.push(d);
    }
    for (i, sig) in report.signatures.iter().enumerate() {
        if sig.is_empty() {
            continue;
        }
        let h = &report.hypotheses[i];
        if let Some(conviction) = sig.conviction_round(exp.advisor.min_evidence) {
            if conviction > exp.rounds {
                let mut d = Diagnostic::new(
                    DiagCode::HorizonTooShortForConviction,
                    Severity::Warning,
                    format!(
                        "{} is observable but cannot accumulate conviction evidence before \
                         round {conviction}; the horizon is {} rounds",
                        h.label(),
                        exp.rounds
                    ),
                )
                .with(subject(h))
                .suggest(
                    "extend the horizon past the earliest conviction round (cf. the \
                     DA071/DA072 horizon lints for the diagnostic path)",
                );
                if let Some(id) = h.fault_id {
                    d = d.with(Subject::Fault(id));
                }
                r.push(d);
            }
        }
    }
}

/// Maps the collected structural spec errors onto DA06x diagnostics.
fn check_structure(cluster: &ClusterSpec, r: &mut AnalysisReport) {
    for e in cluster.structural_errors() {
        let d = match e {
            SpecError::NonContiguousNodeIds => Diagnostic::new(
                DiagCode::NonContiguousNodeIds,
                Severity::Error,
                "component node ids must be exactly 0..n in declaration order",
            )
            .suggest("sort the component list by node id and renumber gaps away"),
            SpecError::TooManyComponents => Diagnostic::new(
                DiagCode::TooManyComponents,
                Severity::Error,
                format!(
                    "{} components exceed the 64-bit membership vector",
                    cluster.components.len()
                ),
            )
            .suggest("split the system into multiple clusters of at most 64 components"),
            SpecError::UnknownHost(j) => Diagnostic::new(
                DiagCode::UnknownHost,
                Severity::Error,
                "job is hosted on a component that does not exist",
            )
            .with(Subject::Job(j))
            .suggest("add the component or fix the job's host field"),
            SpecError::UnknownDas(j) => Diagnostic::new(
                DiagCode::UnknownDas,
                Severity::Error,
                "job references a DAS that is not declared",
            )
            .with(Subject::Job(j))
            .suggest("declare the DAS in ClusterSpec::dases"),
            SpecError::UnknownVnet(j) => Diagnostic::new(
                DiagCode::UnknownVnet,
                Severity::Error,
                "job uses a virtual network that is not configured",
            )
            .with(Subject::Job(j))
            .suggest("add a VnetConfig for the network or fix the job's behavior"),
            SpecError::DuplicatePort(p) => Diagnostic::new(
                DiagCode::DuplicatePort,
                Severity::Error,
                "two jobs publish on the same output port",
            )
            .with(Subject::Port(p))
            .suggest("give every producing job a unique port id"),
            SpecError::CriticalityMismatch(j) => Diagnostic::new(
                DiagCode::CriticalityMismatch,
                Severity::Error,
                "job criticality disagrees with its DAS",
            )
            .with(Subject::Job(j))
            .suggest("jobs inherit criticality from their DAS; align the two"),
            SpecError::DuplicateJob(j) => {
                Diagnostic::new(DiagCode::DuplicateJob, Severity::Error, "two jobs share one id")
                    .with(Subject::Job(j))
                    .suggest("job ids are FRU handles and must be unique")
            }
            SpecError::InvalidDiagNet => Diagnostic::new(
                DiagCode::InvalidDiagNetConfig,
                Severity::Error,
                format!(
                    "diagnostic network dimensioning is unusable \
                     (capacity {}/round, queue depth {})",
                    cluster.diag_net.capacity_per_round, cluster.diag_net.queue_depth
                ),
            )
            .suggest(
                "give the diagnostic vnet a positive capacity and a queue \
                 at least one round deep",
            ),
        };
        r.push(d);
    }
}

/// Slot-table checks: collisions, gaps, unknown owners, silent components.
fn check_schedule(exp: &ExperimentSpec<'_>, r: &mut AnalysisReport) {
    let sched = &exp.schedule;
    if sched.claims.is_empty() {
        r.push(
            Diagnostic::new(
                DiagCode::MalformedSlotTable,
                Severity::Error,
                "the slot table is empty — no component can ever transmit",
            )
            .suggest("claim at least one slot per component"),
        );
        return;
    }
    // Collisions: the TDMA premise is exactly one owner per slot.
    let mut owners_of: BTreeMap<u16, Vec<_>> = BTreeMap::new();
    for (slot, node) in &sched.claims {
        owners_of.entry(*slot).or_default().push(*node);
    }
    for (slot, owners) in &owners_of {
        if owners.len() > 1 {
            let mut d = Diagnostic::new(
                DiagCode::SlotCollision,
                Severity::Error,
                format!("slot {slot} is claimed by {} components", owners.len()),
            )
            .with(Subject::Slot(*slot))
            .suggest("a TDMA slot has exactly one owner; move one claim to a free slot");
            for o in owners {
                d = d.with(Subject::Component(*o));
            }
            r.push(d);
        }
    }
    // Gaps: a slot index inside the round that nobody claims cannot be
    // represented by the cyclic schedule (and would be dead air anyway).
    let spr = sched.slots_per_round();
    for slot in 0..spr {
        if !owners_of.contains_key(&slot) {
            r.push(
                Diagnostic::new(
                    DiagCode::MalformedSlotTable,
                    Severity::Error,
                    format!("slot {slot} is inside the round but unclaimed"),
                )
                .with(Subject::Slot(slot))
                .suggest("slot indices must form a contiguous 0..slots_per_round range"),
            );
        }
    }
    // Owners must exist.
    let known: BTreeSet<_> = exp.cluster.components.iter().map(|c| c.node).collect();
    for (slot, node) in &sched.claims {
        if !known.contains(node) {
            r.push(
                Diagnostic::new(
                    DiagCode::MalformedSlotTable,
                    Severity::Error,
                    format!("slot {slot} is owned by a component that does not exist"),
                )
                .with(Subject::Slot(*slot))
                .with(Subject::Component(*node)),
            );
        }
    }
    // Every component needs a slot: an unscheduled component never
    // transmits, so its state vnets starve and membership expels it.
    for c in &exp.cluster.components {
        if sched.slots_of(c.node) == 0 {
            r.push(
                Diagnostic::new(
                    DiagCode::UnscheduledComponent,
                    Severity::Error,
                    "component owns no TDMA slot and can never transmit",
                )
                .with(Subject::Component(c.node))
                .suggest("claim a slot for the component or remove it from the cluster"),
            );
        }
    }
}

/// Mean messages per round a job offers on its output network.
fn offered_per_round(job: &JobSpec, round_secs: f64) -> f64 {
    match &job.behavior {
        JobBehavior::EventSender { rate_hz, .. } => rate_hz * round_secs,
        // State-ish behaviors publish exactly once per round.
        _ => 1.0,
    }
}

/// Bandwidth feasibility of `configs` against the workload; `degraded`
/// selects the deployed-configuration severity policy (the defect IS the
/// experiment's ground truth, so overload is a warning, not an error).
fn bandwidth_pass(
    exp: &ExperimentSpec<'_>,
    configs: &[VnetConfig],
    degraded: bool,
    only: Option<&BTreeSet<decos_vnet::VnetId>>,
    r: &mut AnalysisReport,
) {
    let round_secs = exp.round_secs();
    if round_secs <= 0.0 {
        return; // empty schedule already reported
    }
    for cfg in configs {
        if only.is_some_and(|set| !set.contains(&cfg.id)) {
            continue;
        }
        let cap_per_slot = cfg.messages_per_slot() as f64;
        // Per sending component: everything it publishes on this vnet must
        // fit into the segments of the slots it owns per round.
        for comp in &exp.cluster.components {
            let offered: f64 = exp
                .cluster
                .jobs
                .iter()
                .filter(|j| j.host == comp.node && j.behavior.output_vnet() == Some(cfg.id))
                .map(|j| offered_per_round(j, round_secs))
                .sum();
            if offered == 0.0 {
                continue;
            }
            let capacity = cap_per_slot * exp.schedule.slots_of(comp.node) as f64;
            if capacity == 0.0 {
                let (code, sev) = if degraded {
                    (DiagCode::DeployedVnetUnusable, Severity::Warning)
                } else {
                    (DiagCode::VnetBandwidthInfeasible, Severity::Error)
                };
                r.push(
                    Diagnostic::new(
                        code,
                        sev,
                        format!(
                            "segment of {} bytes carries no message, yet {} publishes on it",
                            cfg.bytes_per_slot, comp.node
                        ),
                    )
                    .with(Subject::Vnet(cfg.id))
                    .with(Subject::Component(comp.node))
                    .suggest("allocate at least one message worth of segment bytes"),
                );
            } else if offered > capacity {
                let (code, sev) = if degraded {
                    (DiagCode::DeployedBandwidthDegraded, Severity::Warning)
                } else {
                    (DiagCode::VnetBandwidthInfeasible, Severity::Error)
                };
                r.push(
                    Diagnostic::new(
                        code,
                        sev,
                        format!(
                            "mean offered load {offered:.2} msg/round exceeds the {capacity:.0} \
                             msg/round segment capacity of {}",
                            comp.node
                        ),
                    )
                    .with(Subject::Vnet(cfg.id))
                    .with(Subject::Component(comp.node))
                    .suggest("widen bytes_per_slot, lower the send rate, or claim more slots"),
                );
            } else if !degraded && offered > 0.8 * capacity {
                r.push(
                    Diagnostic::new(
                        DiagCode::VnetBandwidthInfeasible,
                        Severity::Warning,
                        format!(
                            "mean offered load {offered:.2} msg/round uses over 80% of the \
                             {capacity:.0} msg/round capacity — bursts will overflow",
                        ),
                    )
                    .with(Subject::Vnet(cfg.id))
                    .with(Subject::Component(comp.node)),
                );
            }
        }
    }
}

/// Core-network and vnet feasibility plus consumer provisioning.
fn check_bandwidth(exp: &ExperimentSpec<'_>, r: &mut AnalysisReport) {
    bandwidth_pass(exp, &exp.cluster.vnets, false, None, r);

    let round_secs = exp.round_secs();
    let producer_of = |port: decos_vnet::PortId| {
        exp.cluster.jobs.iter().find(|j| j.behavior.output_port() == Some(port))
    };
    for job in &exp.cluster.jobs {
        // Dangling inputs: the consumer starves silently.
        let inputs: Vec<decos_vnet::PortId> = match &job.behavior {
            JobBehavior::Controller { input_src, .. } | JobBehavior::Gateway { input_src, .. } => {
                vec![*input_src]
            }
            JobBehavior::EventConsumer { sources, .. } => sources.clone(),
            JobBehavior::TmrVoter { .. } => Vec::new(), // checked by the TMR pass
            _ => Vec::new(),
        };
        for p in inputs {
            if producer_of(p).is_none() {
                r.push(
                    Diagnostic::new(
                        DiagCode::DanglingInputPort,
                        Severity::Warning,
                        "input port has no producing job — the consumer will starve",
                    )
                    .with(Subject::Job(job.id))
                    .with(Subject::Port(p.0))
                    .suggest("point the input at an existing output port"),
                );
            }
        }
        // Consumer service capacity against each source's offered rate.
        if let JobBehavior::EventConsumer { sources, service_per_round, .. } = &job.behavior {
            for p in sources {
                let Some(src) = producer_of(*p) else { continue };
                let inflow = offered_per_round(src, round_secs);
                if inflow > *service_per_round as f64 {
                    r.push(
                        Diagnostic::new(
                            DiagCode::ConsumerUnderProvisioned,
                            Severity::Warning,
                            format!(
                                "source {} offers {inflow:.2} msg/round but the consumer \
                                 services only {service_per_round} per source",
                                src.id
                            ),
                        )
                        .with(Subject::Job(job.id))
                        .with(Subject::Port(p.0))
                        .suggest("raise service_per_round or lower the sender's rate"),
                    );
                }
            }
        }
    }
}

/// TMR triad checks: completeness, FRU independence, spatial independence.
fn check_tmr(exp: &ExperimentSpec<'_>, r: &mut AnalysisReport) {
    let cluster = exp.cluster;
    for voter in &cluster.jobs {
        let JobBehavior::TmrVoter { vnet_in, inputs, .. } = &voter.behavior else { continue };
        let mut replica_hosts: Vec<(decos_platform::NodeId, decos_platform::JobId)> = Vec::new();
        for port in inputs {
            let Some(producer) =
                cluster.jobs.iter().find(|j| j.behavior.output_port() == Some(*port))
            else {
                r.push(
                    Diagnostic::new(
                        DiagCode::TmrTriadIncomplete,
                        Severity::Error,
                        "voter input port has no producing replica",
                    )
                    .with(Subject::Job(voter.id))
                    .with(Subject::Port(port.0))
                    .suggest("add the third TMR replica or fix the voter's input ports"),
                );
                continue;
            };
            if !matches!(producer.behavior, JobBehavior::TmrReplica { .. }) {
                r.push(
                    Diagnostic::new(
                        DiagCode::TmrTriadIncomplete,
                        Severity::Warning,
                        format!("voter input is produced by {}, not a TMR replica", producer.id),
                    )
                    .with(Subject::Job(voter.id))
                    .with(Subject::Job(producer.id)),
                );
            }
            if producer.behavior.output_vnet() != Some(*vnet_in) {
                r.push(
                    Diagnostic::new(
                        DiagCode::TmrTriadIncomplete,
                        Severity::Error,
                        format!(
                            "replica {} publishes on a different vnet than the voter reads",
                            producer.id
                        ),
                    )
                    .with(Subject::Job(voter.id))
                    .with(Subject::Job(producer.id))
                    .with(Subject::Vnet(*vnet_in)),
                );
            }
            replica_hosts.push((producer.host, producer.id));
        }
        // FRU independence: a component is the fault containment region for
        // hardware faults, so two replicas on one component fail together
        // and the vote degenerates (Fig. 8 spatial independence argument).
        let mut by_host: BTreeMap<decos_platform::NodeId, Vec<decos_platform::JobId>> =
            BTreeMap::new();
        for (host, id) in &replica_hosts {
            by_host.entry(*host).or_default().push(*id);
        }
        for (host, ids) in &by_host {
            if ids.len() > 1 {
                let mut d = Diagnostic::new(
                    DiagCode::TmrTriadSharedFru,
                    Severity::Error,
                    format!("{} TMR replicas share one component — a single hardware fault defeats the vote", ids.len()),
                )
                .with(Subject::Job(voter.id))
                .with(Subject::Component(*host))
                .suggest("host each replica on its own component (distinct FRU)");
                for id in ids {
                    d = d.with(Subject::Job(*id));
                }
                r.push(d);
            }
        }
        // Spatial independence: all replicas inside one proximity zone are
        // vulnerable to a single massive transient (Fig. 8).
        let pos =
            |n: decos_platform::NodeId| cluster.components.get(n.0 as usize).map(|c| c.position);
        let hosts: Vec<_> = by_host.keys().copied().collect();
        if hosts.len() >= 3 {
            let all_close = hosts.iter().all(|a| {
                hosts.iter().all(|b| match (pos(*a), pos(*b)) {
                    (Some(pa), Some(pb)) => pa.distance(&pb) <= exp.ona.zone_radius_m,
                    _ => false,
                })
            });
            if all_close {
                let mut d = Diagnostic::new(
                    DiagCode::TmrTriadSpatiallyClose,
                    Severity::Warning,
                    format!(
                        "all replica hosts lie within one {} m proximity zone — a massive \
                         transient can disturb the whole triad",
                        exp.ona.zone_radius_m
                    ),
                )
                .with(Subject::Job(voter.id))
                .suggest("spread the replicas across spatial zones (e.g. front and rear)");
                for h in &hosts {
                    d = d.with(Subject::Component(*h));
                }
                r.push(d);
            }
        }
        if by_host.contains_key(&voter.host) {
            r.push(
                Diagnostic::new(
                    DiagCode::TmrVoterCohosted,
                    Severity::Warning,
                    "the voter shares its component with a replica — one hardware fault \
                     takes out both a replica and the masking stage",
                )
                .with(Subject::Job(voter.id))
                .with(Subject::Component(voter.host)),
            );
        }
    }
}

/// ONA coverage: every taxonomy class must map to ≥ 1 catalogue pattern
/// that can fire within the horizon.
fn check_coverage(exp: &ExperimentSpec<'_>, r: &mut AnalysisReport) {
    let injected: BTreeSet<FaultClass> = exp.faults.iter().map(FaultSpec::class).collect();
    for class in FaultClass::ALL {
        let mut reasons = Vec::new();
        let mut covered = false;
        for p in PATTERN_MODELS.iter().filter(|p| p.class == class) {
            match reach(p, &exp.ona, exp.rounds) {
                Ok(_) => covered = true,
                Err(reason) => {
                    r.push(
                        Diagnostic::new(
                            DiagCode::OnaPatternUnavailable,
                            Severity::Info,
                            format!("pattern {} cannot fire: {reason}", p.name),
                        )
                        .with(Subject::Class(class)),
                    );
                    reasons.push(format!("{}: {reason}", p.name));
                }
            }
        }
        if !covered {
            // An uncovered class the campaign actually injects is a
            // structurally meaningless experiment: the ground truth is
            // invisible by construction.
            let sev = if injected.contains(&class) { Severity::Error } else { Severity::Warning };
            r.push(
                Diagnostic::new(
                    DiagCode::UncoveredFaultClass,
                    sev,
                    format!("no enabled ONA pattern can indicate {class} ({})", reasons.join("; ")),
                )
                .with(Subject::Class(class))
                .suggest("re-enable or re-parameterize a pattern covering this class"),
            );
        }
    }
}

/// Trust transition totality and dynamics sanity.
fn check_trust(exp: &ExperimentSpec<'_>, r: &mut AnalysisReport) {
    let t = &exp.trust;
    let in_unit = |x: f64| x.is_finite() && (0.0..=1.0).contains(&x);
    if !in_unit(t.decay_weight) || !in_unit(t.recovery_per_round) || !in_unit(t.freeze_quality) {
        // Find a witness evidence combination whose successor level is
        // undefined (outside [0,1] or NaN before clamping).
        let witness = FaultClass::ALL
            .iter()
            .find(|c| {
                let hit = t.decay_weight * decos_diagnosis::class_severity(**c);
                !(0.0..=1.0).contains(&hit)
            })
            .copied()
            .unwrap_or(FaultClass::ComponentInternal);
        r.push(
            Diagnostic::new(
                DiagCode::TrustTransitionPartial,
                Severity::Error,
                format!(
                    "trust parameters (decay_weight {}, recovery_per_round {}, \
                     freeze_quality {}) leave the successor level undefined for \
                     {witness} evidence",
                    t.decay_weight, t.recovery_per_round, t.freeze_quality
                ),
            )
            .with(Subject::Class(witness))
            .suggest("all trust parameters must be finite values in [0, 1]"),
        );
        return;
    }
    // The weakest evidence class must still out-pull a quiet round, or a
    // degrading FRU can never ratchet down (Fig. 9 trajectory A).
    let weakest =
        FaultClass::ALL.map(decos_diagnosis::class_severity).into_iter().fold(f64::MAX, f64::min);
    if t.recovery_per_round >= t.decay_weight * weakest && t.decay_weight > 0.0 {
        r.push(
            Diagnostic::new(
                DiagCode::TrustRecoveryOutpacesDecay,
                Severity::Warning,
                format!(
                    "one quiet round recovers {} trust but the weakest evidence class only \
                     removes {:.6} — trajectory A cannot ratchet down",
                    t.recovery_per_round,
                    t.decay_weight * weakest
                ),
            )
            .suggest("lower recovery_per_round or raise decay_weight"),
        );
    }
}

/// Whether a fault kind manifests on a component (hardware) FRU.
fn kind_targets_component(kind: &FaultKind) -> bool {
    kind.class().is_hardware()
}

/// Validates one numeric fault parameter; pushes DA042 on violation.
fn param(
    r: &mut AnalysisReport,
    fault: &FaultSpec,
    name: &str,
    value: f64,
    lo: f64,
    hi: f64,
) -> bool {
    if value.is_finite() && (lo..=hi).contains(&value) {
        true
    } else {
        r.push(
            Diagnostic::new(
                DiagCode::InvalidFaultParameter,
                Severity::Error,
                format!("{} parameter {name} = {value} is outside [{lo}, {hi}]", fault.kind.name()),
            )
            .with(Subject::Fault(fault.id))
            .suggest("fault parameters must be finite and within their physical domain"),
        );
        false
    }
}

/// Campaign validity: targets, onsets, parameter domains, paper ranges.
fn check_campaign(exp: &ExperimentSpec<'_>, r: &mut AnalysisReport) {
    if !(exp.accel.is_finite() && exp.accel > 0.0) {
        r.push(
            Diagnostic::new(
                DiagCode::InvalidFaultParameter,
                Severity::Error,
                format!("acceleration factor {} must be a positive finite number", exp.accel),
            )
            .suggest("use accel = 1.0 for real-time rates"),
        );
    }
    let round_secs = exp.round_secs();
    let horizon_secs = round_secs * exp.rounds as f64;
    let horizon_hours = horizon_secs / 3600.0;
    let slot_secs = exp.cluster.slot_len.as_secs_f64();
    let mut seen_ids: BTreeMap<u32, usize> = BTreeMap::new();

    for f in exp.faults {
        // Duplicate ids corrupt activation-window attribution.
        *seen_ids.entry(f.id).or_insert(0) += 1;

        // Target existence. An unknown job target would panic inside the
        // fault environment's host lookup mid-simulation.
        let target_ok = match f.target {
            FruRef::Component(n) => (n.0 as usize) < exp.cluster.components.len(),
            FruRef::Job(j) => exp.cluster.jobs.iter().any(|job| job.id == j),
        };
        if !target_ok {
            r.push(
                Diagnostic::new(
                    DiagCode::UnknownFaultTarget,
                    Severity::Error,
                    format!("fault targets {} which does not exist in the cluster", f.target),
                )
                .with(Subject::Fault(f.id))
                .suggest("target an existing component or job"),
            );
        }

        // Target kind vs fault kind: a hardware fault aimed at a job FRU
        // (or vice versa) never activates — silently wrong ground truth.
        let wants_component = kind_targets_component(&f.kind);
        let is_component = matches!(f.target, FruRef::Component(_));
        if target_ok && wants_component != is_component {
            r.push(
                Diagnostic::new(
                    DiagCode::TargetKindMismatch,
                    Severity::Warning,
                    format!(
                        "{} is a {} fault but targets {} — it can never manifest there",
                        f.kind.name(),
                        f.kind.class(),
                        f.target
                    ),
                )
                .with(Subject::Fault(f.id))
                .suggest("hardware kinds target components, software/transducer kinds jobs"),
            );
        }

        // Onset inside the horizon.
        if exp.rounds > 0 && f.onset.as_secs_f64() >= horizon_secs {
            r.push(
                Diagnostic::new(
                    DiagCode::OnsetBeyondHorizon,
                    Severity::Error,
                    format!(
                        "onset at {:.3} s lies at or beyond the {:.3} s horizon — the fault \
                         can never manifest",
                        f.onset.as_secs_f64(),
                        horizon_secs
                    ),
                )
                .with(Subject::Fault(f.id))
                .suggest("move the onset before the horizon or extend the horizon"),
            );
        }

        check_kind_params(exp, f, horizon_hours, slot_secs, r);

        // Software design faults on certified safety-critical jobs
        // contradict the §III-E software-fault distribution assumption.
        if matches!(f.kind, FaultKind::Bohrbug { .. } | FaultKind::Heisenbug { .. }) {
            if let FruRef::Job(j) = f.target {
                if let Some(job) = exp.cluster.jobs.iter().find(|job| job.id == j) {
                    if job.criticality == Criticality::SafetyCritical {
                        r.push(
                            Diagnostic::new(
                                DiagCode::SoftwareFaultOnSafetyCritical,
                                Severity::Warning,
                                "software design fault injected into a safety-critical job \
                                 (§III-E assumes ultra-dependable software is certified \
                                 free of design faults)",
                            )
                            .with(Subject::Fault(f.id))
                            .with(Subject::Job(j)),
                        );
                    }
                }
            }
        }

        // Misconfiguration ground truth needs a deployed defect to exist.
        if matches!(f.kind, FaultKind::VnetMisconfiguration)
            && exp.cluster.config_defects.is_empty()
        {
            r.push(
                Diagnostic::new(
                    DiagCode::MisconfigTruthWithoutDefect,
                    Severity::Warning,
                    "VnetMisconfiguration ground truth, but the cluster deploys no \
                     configuration defect — nothing will overflow",
                )
                .with(Subject::Fault(f.id))
                .suggest("push a ConfigDefect into ClusterSpec::config_defects"),
            );
        }
    }
    for (id, n) in seen_ids {
        if n > 1 {
            r.push(
                Diagnostic::new(
                    DiagCode::DuplicateFaultId,
                    Severity::Error,
                    format!(
                        "fault id {id} is used by {n} faults — activation attribution \
                             would be corrupted"
                    ),
                )
                .with(Subject::Fault(id))
                .suggest("give every campaign fault a unique id"),
            );
        }
    }
}

/// Per-kind parameter domains (DA042) and paper-range advisories (DA043).
fn check_kind_params(
    exp: &ExperimentSpec<'_>,
    f: &FaultSpec,
    horizon_hours: f64,
    slot_secs: f64,
    r: &mut AnalysisReport,
) {
    // A per-slot Bernoulli activation with accelerated p > 1 saturates:
    // the effective rate silently stops following the specified one.
    fn rate_saturation(
        r: &mut AnalysisReport,
        f: &FaultSpec,
        accel: f64,
        slot_secs: f64,
        rate_per_hour: f64,
    ) {
        let p = rate_per_hour / 3600.0 * accel * slot_secs;
        if p > 1.0 {
            r.push(
                Diagnostic::new(
                    DiagCode::OutsidePaperRange,
                    Severity::Warning,
                    format!(
                        "accelerated episode probability {p:.2} per slot saturates at 1 — \
                         the effective rate no longer tracks {rate_per_hour}/h × {accel}"
                    ),
                )
                .with(Subject::Fault(f.id))
                .suggest("lower the acceleration factor or the episode rate"),
            );
        }
    }
    match &f.kind {
        FaultKind::EmiBurst { rate_per_hour, duration_ms, center, radius_m } => {
            param(r, f, "rate_per_hour", *rate_per_hour, 0.0, f64::MAX);
            param(r, f, "duration_ms", *duration_ms, f64::MIN_POSITIVE, f64::MAX);
            param(r, f, "radius_m", *radius_m, 0.0, f64::MAX);
            param(r, f, "center.x", center.x, f64::MIN, f64::MAX);
            param(r, f, "center.y", center.y, f64::MIN, f64::MAX);
            if duration_ms.is_finite() && !(1.0..=100.0).contains(duration_ms) {
                r.push(
                    Diagnostic::new(
                        DiagCode::OutsidePaperRange,
                        Severity::Warning,
                        format!(
                            "EMI burst duration {duration_ms} ms is outside the ~1–100 ms \
                             ISO 7637 transient range §IV-A.1a grounds the pattern in"
                        ),
                    )
                    .with(Subject::Fault(f.id)),
                );
            }
            rate_saturation(r, f, exp.accel, slot_secs, *rate_per_hour);
        }
        FaultKind::CosmicRaySeu { rate_per_hour } => {
            param(r, f, "rate_per_hour", *rate_per_hour, 0.0, f64::MAX);
            rate_saturation(r, f, exp.accel, slot_secs, *rate_per_hour);
        }
        FaultKind::StressOutage { rate_per_hour, outage_ms } => {
            param(r, f, "rate_per_hour", *rate_per_hour, 0.0, f64::MAX);
            param(r, f, "outage_ms", *outage_ms, f64::MIN_POSITIVE, f64::MAX);
            if outage_ms.is_finite() && *outage_ms > 50.0 {
                r.push(
                    Diagnostic::new(
                        DiagCode::OutsidePaperRange,
                        Severity::Warning,
                        format!(
                            "stress outage of {outage_ms} ms exceeds the < 50 ms restart \
                             bound cited for steer-by-wire [34]"
                        ),
                    )
                    .with(Subject::Fault(f.id)),
                );
            }
            rate_saturation(r, f, exp.accel, slot_secs, *rate_per_hour);
        }
        FaultKind::ConnectorIntermittent { rate_per_hour, duration_ms }
        | FaultKind::IcTransient { rate_per_hour, duration_ms } => {
            param(r, f, "rate_per_hour", *rate_per_hour, 0.0, f64::MAX);
            param(r, f, "duration_ms", *duration_ms, f64::MIN_POSITIVE, f64::MAX);
            rate_saturation(r, f, exp.accel, slot_secs, *rate_per_hour);
        }
        FaultKind::ConnectorWearout { base_rate_per_hour, growth_per_hour, duration_ms }
        | FaultKind::SolderJointCrack { base_rate_per_hour, growth_per_hour, duration_ms } => {
            param(r, f, "base_rate_per_hour", *base_rate_per_hour, 0.0, f64::MAX);
            param(r, f, "growth_per_hour", *growth_per_hour, 0.0, f64::MAX);
            param(r, f, "duration_ms", *duration_ms, f64::MIN_POSITIVE, f64::MAX);
            rate_saturation(
                r,
                f,
                exp.accel,
                slot_secs,
                base_rate_per_hour + growth_per_hour * horizon_hours,
            );
        }
        FaultKind::PcbCrack { base_rate_per_hour, growth_per_hour, outage_ms } => {
            param(r, f, "base_rate_per_hour", *base_rate_per_hour, 0.0, f64::MAX);
            param(r, f, "growth_per_hour", *growth_per_hour, 0.0, f64::MAX);
            param(r, f, "outage_ms", *outage_ms, f64::MIN_POSITIVE, f64::MAX);
            rate_saturation(
                r,
                f,
                exp.accel,
                slot_secs,
                base_rate_per_hour + growth_per_hour * horizon_hours,
            );
        }
        FaultKind::QuartzDegradation { drift_ppm_per_hour } => {
            param(r, f, "drift_ppm_per_hour", *drift_ppm_per_hour, 0.0, f64::MAX);
        }
        FaultKind::IcPermanent { after_hours } => {
            param(r, f, "after_hours", *after_hours, 0.0, f64::MAX);
        }
        FaultKind::CapacitorAging { bias_per_hour } => {
            param(r, f, "bias_per_hour", *bias_per_hour, f64::MIN, f64::MAX);
        }
        FaultKind::PowerSupplyMarginal { rate_per_hour, outage_ms } => {
            param(r, f, "rate_per_hour", *rate_per_hour, 0.0, f64::MAX);
            param(r, f, "outage_ms", *outage_ms, f64::MIN_POSITIVE, f64::MAX);
            rate_saturation(r, f, exp.accel, slot_secs, *rate_per_hour);
        }
        FaultKind::VnetMisconfiguration | FaultKind::SensorDead => {}
        FaultKind::Bohrbug { trigger_band, offset } => {
            param(r, f, "trigger_band.0", trigger_band.0, f64::MIN, f64::MAX);
            param(r, f, "trigger_band.1", trigger_band.1, f64::MIN, f64::MAX);
            param(r, f, "offset", *offset, f64::MIN, f64::MAX);
            if trigger_band.0 > trigger_band.1 {
                r.push(
                    Diagnostic::new(
                        DiagCode::InvalidFaultParameter,
                        Severity::Error,
                        format!(
                            "bohrbug trigger band ({}, {}) is empty — the bug never triggers",
                            trigger_band.0, trigger_band.1
                        ),
                    )
                    .with(Subject::Fault(f.id)),
                );
            }
        }
        FaultKind::Heisenbug { prob_per_dispatch, wrong_value, .. } => {
            param(r, f, "prob_per_dispatch", *prob_per_dispatch, 0.0, 1.0);
            param(r, f, "wrong_value", *wrong_value, f64::MIN, f64::MAX);
            if (0.1..=1.0).contains(prob_per_dispatch) {
                r.push(
                    Diagnostic::new(
                        DiagCode::OutsidePaperRange,
                        Severity::Warning,
                        format!(
                            "heisenbug probability {prob_per_dispatch} per dispatch is not \
                             'rare' — Gray [56] characterizes heisenbugs as low-probability"
                        ),
                    )
                    .with(Subject::Fault(f.id)),
                );
            }
        }
        FaultKind::SensorStuck { value } => {
            param(r, f, "value", *value, f64::MIN, f64::MAX);
        }
        FaultKind::SensorDrift { per_hour } => {
            param(r, f, "per_hour", *per_hour, f64::MIN, f64::MAX);
        }
        FaultKind::SensorNoise { std_dev } => {
            param(r, f, "std_dev", *std_dev, 0.0, f64::MAX);
        }
        FaultKind::DiagFrameLoss { loss_prob } => {
            param(r, f, "loss_prob", *loss_prob, 0.0, 1.0);
        }
        FaultKind::DiagFrameCorruption { corrupt_prob } => {
            param(r, f, "corrupt_prob", *corrupt_prob, 0.0, 1.0);
        }
        // Integer-valued kinds: their domains are enforced by the type;
        // their interplay with the horizon and the screens is checked by
        // the dedicated diagnostic-path pass (DA07x).
        FaultKind::DiagFrameDelay { .. } | FaultKind::BabblingObserver { .. } => {}
        FaultKind::DiagComponentCrash { rate_per_hour, outage_ms } => {
            param(r, f, "rate_per_hour", *rate_per_hour, 0.0, f64::MAX);
            param(r, f, "outage_ms", *outage_ms, f64::MIN_POSITIVE, f64::MAX);
            rate_saturation(r, f, exp.accel, slot_secs, *rate_per_hour);
        }
    }
}

/// Diagnostic-path pass (DA07x): faults aimed at the diagnostic machinery
/// itself must still describe a *measurable* degradation experiment.
fn check_diag_path(exp: &ExperimentSpec<'_>, r: &mut AnalysisReport) {
    let n_comps = exp.cluster.components.len();
    // Mirror of `PlausibilityScreen::for_spec`: the per-observer-per-round
    // physical ceiling the rate screen enforces.
    let screen_cap = ((n_comps + exp.cluster.jobs.len()) * n_comps.max(1)) as u32;
    for f in exp.faults {
        match f.kind {
            FaultKind::DiagFrameDelay { delay_rounds }
                if exp.rounds > 0 && u64::from(delay_rounds) >= exp.rounds =>
            {
                r.push(
                    Diagnostic::new(
                        DiagCode::DiagDelayExceedsHorizon,
                        Severity::Error,
                        format!(
                            "diagnostic frames delayed by {delay_rounds} rounds never \
                             arrive within the {}-round horizon",
                            exp.rounds
                        ),
                    )
                    .with(Subject::Fault(f.id))
                    .suggest("shorten the delay or extend the horizon"),
                );
            }
            FaultKind::BabblingObserver { forged_per_round } if forged_per_round <= screen_cap => {
                r.push(
                    Diagnostic::new(
                        DiagCode::DiagBabbleUndetectable,
                        Severity::Info,
                        format!(
                            "babbling observer forges {forged_per_round} frames/round, at \
                             or below the rate-screen ceiling of {screen_cap} — the flood \
                             is admitted as legitimate traffic and never flagged"
                        ),
                    )
                    .with(Subject::Fault(f.id))
                    .suggest("forge more than the screen ceiling to study detection"),
                );
            }
            FaultKind::DiagComponentCrash { rate_per_hour, outage_ms } => {
                // Expected fraction of the horizon spent down; above ~half,
                // the campaign measures the outage, not the diagnosis.
                let down = rate_per_hour * exp.accel / 3600.0 * (outage_ms / 1000.0);
                if down.is_finite() && down >= 0.5 {
                    r.push(
                        Diagnostic::new(
                            DiagCode::DiagCrashDominatesHorizon,
                            Severity::Warning,
                            format!(
                                "diagnostic component expected down {:.0}% of the time — \
                                 verdicts rest on the standby's resync, not on diagnosis",
                                down.min(1.0) * 100.0
                            ),
                        )
                        .with(Subject::Fault(f.id))
                        .suggest("lower the crash rate, the outage, or the acceleration"),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Configuration-defect cross-checks against `deployed_vnets()`.
fn check_config_defects(exp: &ExperimentSpec<'_>, r: &mut AnalysisReport) {
    let cluster = exp.cluster;
    if cluster.config_defects.is_empty() {
        return;
    }
    let mut changed = BTreeSet::new();
    for (vnet, defect) in &cluster.config_defects {
        let Some(correct) = cluster.vnets.iter().find(|v| v.id == *vnet) else {
            r.push(
                Diagnostic::new(
                    DiagCode::DefectUnknownVnet,
                    Severity::Error,
                    "configuration defect names a vnet the cluster does not have",
                )
                .with(Subject::Vnet(*vnet))
                .suggest("point the defect at a configured vnet"),
            );
            continue;
        };
        if defect.apply(correct) == *correct {
            r.push(
                Diagnostic::new(
                    DiagCode::InertConfigDefect,
                    Severity::Warning,
                    format!(
                        "defect {defect:?} leaves {vnet} unchanged — the job borderline \
                         ground truth can never manifest"
                    ),
                )
                .with(Subject::Vnet(*vnet))
                .suggest("use a shrink factor > 1"),
            );
        } else {
            changed.insert(*vnet);
        }
    }
    // Re-run the feasibility math on the configurations actually deployed.
    // Deliberate degradation is the experiment's ground truth, so findings
    // here are warnings: the run is valid, its losses are the point.
    let deployed = cluster.deployed_vnets();
    bandwidth_pass(exp, &deployed, true, Some(&changed), r);
}
