//! Bounded n-diagnosability: can fault F on FRU X be told apart from F'
//! on X' within n rounds, *without running the simulator*?
//!
//! This is the static-analysis analogue of the paper's central
//! maintenance claim — that the integrated architecture pins the faulty
//! FRU instead of producing no-fault-found returns. For each fault
//! hypothesis `(kind, FRU)` the engine derives the n-round **symptom
//! signature**: the set of `(ONA pattern, attributed FRUs)` observations
//! reachable under the cluster's TDMA schedule, detector placement, ONA
//! pattern set and parameters. Two hypotheses whose signatures coincide
//! are observation-equivalent — no maintenance advisor downstream of the
//! ONA bank can distinguish them, whatever the trust dynamics do.
//!
//! The abstract model is the **optimistic envelope** of the runtime
//! (see `decos_diagnosis::model`): every manifestation is observed at
//! the earliest possible round with the highest confidence the matcher
//! can emit. The verdict directions that follow:
//!
//! * [`Verdict::Undetectable`] and conviction beyond the horizon
//!   (`SymptomSignature::conviction_round`) are *sound*: if the optimistic
//!   envelope cannot produce an observation (or conviction), the simulator
//!   cannot either.
//! * [`Verdict::Ambiguous`] is conservative for the maintenance claim —
//!   signatures are over-approximated, so a pair is only declared
//!   [`Verdict::Diagnosable`] when even the over-approximations differ.
//!   That ambiguous pairs really collide, and diagnosable pairs really
//!   do not, is validated empirically by the paired-simulation soundness
//!   suite in `crates/decos/tests/diagnosability.rs`.
//!
//! Onset timing is out of scope of the envelope (faults are assumed
//! present from round 1; DA041 lints onsets beyond the horizon).

use std::collections::BTreeSet;
use std::fmt::Write as _;

use decos_diagnosis::{model, PatternModel, SymptomDomain};
use decos_faults::{FaultClass, FaultKind, FruRef};
use decos_platform::{NodeId, Position};

use crate::experiment::ExperimentSpec;

/// A fault hypothesis: one concrete kind on one FRU.
#[derive(Debug, Clone, PartialEq)]
pub struct Hypothesis {
    /// The fault kind (carries manifestation parameters, e.g. the EMI
    /// footprint).
    pub kind: FaultKind,
    /// The FRU it is hypothesised on.
    pub fru: FruRef,
    /// The campaign fault id this hypothesis was derived from, when the
    /// scope is a campaign rather than the full class x FRU matrix.
    pub fault_id: Option<u32>,
}

impl Hypothesis {
    /// Hypothesis from a campaign fault.
    #[must_use]
    pub(crate) fn of(f: &decos_faults::FaultSpec) -> Self {
        Hypothesis { kind: f.kind.clone(), fru: f.target, fault_id: Some(f.id) }
    }

    /// The maintenance-oriented class.
    #[must_use]
    pub(crate) fn class(&self) -> FaultClass {
        self.kind.class()
    }

    /// `kind@FRU` label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}@{}", self.kind.name(), self.fru)
    }
}

/// One reachable observation: a pattern firing with its attribution.
///
/// Equality of signatures is equality of the `(pattern, subjects)` sets;
/// `earliest_round` and `confidence` are derived bounds used for witness
/// traces and conviction estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The ONA pattern that fires.
    pub pattern: &'static str,
    /// The FRUs the pattern attributes the symptom to, sorted.
    pub subjects: Vec<FruRef>,
    /// Earliest round (1-indexed) the firing can happen.
    pub earliest_round: u64,
    /// Highest confidence the matcher attaches to the firing.
    pub confidence: f64,
}

/// The n-round symptom signature of one hypothesis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymptomSignature {
    /// Reachable observations, sorted by `(pattern, subjects)`.
    pub observations: Vec<Observation>,
}

impl SymptomSignature {
    /// No reachable observation at all: the hypothesis is invisible.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// The comparison key: the set of `(pattern, subjects)` pairs.
    #[must_use]
    pub(crate) fn key(&self) -> BTreeSet<(&'static str, Vec<FruRef>)> {
        self.observations.iter().map(|o| (o.pattern, o.subjects.clone())).collect()
    }

    /// Earliest round at which accumulated evidence can cross the
    /// advisor's conviction threshold, under the optimistic one-firing-
    /// per-round envelope. `None` for an empty signature.
    #[must_use]
    pub(crate) fn conviction_round(&self, min_evidence: f64) -> Option<u64> {
        self.observations
            .iter()
            .filter(|o| o.confidence > 0.0)
            .map(|o| {
                let firings = (min_evidence / o.confidence).ceil().max(1.0) as u64;
                o.earliest_round.saturating_add(firings - 1)
            })
            .min()
    }
}

/// One step of an ambiguity witness: a round and slot at which both
/// hypotheses can produce the identical observation.
#[derive(Debug, Clone, PartialEq)]
pub struct WitnessStep {
    /// Round of the shared observation (1-indexed).
    pub round: u64,
    /// TDMA slot in which the evidence is observed (the attributed
    /// component's first slot).
    pub slot: u16,
    /// The shared pattern.
    pub pattern: &'static str,
    /// The shared attribution.
    pub subjects: Vec<FruRef>,
}

impl core::fmt::Display for WitnessStep {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "r{} s{} {}(", self.round, self.slot, self.pattern)?;
        for (i, s) in self.subjects.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

/// The pairwise verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The signatures differ: the pair is distinguishable within the
    /// horizon, at the earliest at `round`.
    Diagnosable {
        /// Earliest round a distinguishing observation can appear.
        round: u64,
    },
    /// The signatures coincide (and are non-empty): observation-
    /// equivalent within n rounds.
    Ambiguous {
        /// Minimal trace of rounds/slots at which the two hypotheses
        /// produce identical observations — one step per shared
        /// observation, in firing order.
        witness: Vec<WitnessStep>,
    },
    /// At least one side produces no observation at all.
    Undetectable,
}

impl Verdict {
    /// Short tag for matrices.
    #[must_use]
    pub(crate) fn tag(&self) -> char {
        match self {
            Verdict::Diagnosable { .. } => 'D',
            Verdict::Ambiguous { .. } => 'A',
            Verdict::Undetectable => 'U',
        }
    }
}

/// Verdict for the pair `(hypotheses[a], hypotheses[b])`, `a < b`.
#[derive(Debug, Clone, PartialEq)]
pub struct PairVerdict {
    /// Index of the first hypothesis.
    pub a: usize,
    /// Index of the second hypothesis.
    pub b: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Whether confusing the two hypotheses would still lead to the correct
/// maintenance action: same FRU, same class. Ambiguity inside such a
/// pair is observationally real but maintenance-harmless (the advisor
/// pins the same FRU and prescribes the same action either way), so the
/// DA080 lint skips it.
#[must_use]
pub(crate) fn maintenance_equivalent(a: &Hypothesis, b: &Hypothesis) -> bool {
    a.fru == b.fru && a.class() == b.class()
}

fn dist(a: Position, b: Position) -> f64 {
    ((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt()
}

/// Facts the signature derivation needs per experiment.
struct Model<'a> {
    exp: &'a ExperimentSpec<'a>,
    /// Components that own at least one TDMA slot (can be observed
    /// transmitting).
    scheduled: BTreeSet<NodeId>,
}

impl<'a> Model<'a> {
    fn new(exp: &'a ExperimentSpec<'a>) -> Self {
        let scheduled = exp.schedule.claims.iter().map(|&(_, n)| n).collect();
        Model { exp, scheduled }
    }

    /// Whether symptoms of `node` are observable on the TDMA channel:
    /// the node transmits, and a peer exists to observe it.
    fn comm_observable(&self, node: NodeId) -> bool {
        self.scheduled.contains(&node) && self.scheduled.len() >= 2
    }

    fn host_of(&self, fru: FruRef) -> Option<NodeId> {
        match fru {
            FruRef::Component(n) => Some(n),
            FruRef::Job(j) => self.exp.cluster.jobs.iter().find(|js| js.id == j).map(|js| js.host),
        }
    }

    /// Whether `host` runs jobs of at least two DASs (the co-host
    /// correlation's precondition).
    fn hosts_several_dases(&self, host: NodeId) -> bool {
        let dases: BTreeSet<_> =
            self.exp.cluster.jobs.iter().filter(|j| j.host == host).map(|j| j.das).collect();
        dases.len() >= 2
    }

    /// First TDMA slot owned by the component behind `fru` (for witness
    /// rendering; 0 when unresolvable).
    fn slot_of(&self, fru: FruRef) -> u16 {
        self.host_of(fru)
            .and_then(|n| {
                self.exp.schedule.claims.iter().filter(|&&(_, o)| o == n).map(|&(s, _)| s).min()
            })
            .unwrap_or(0)
    }

    /// The spatial footprint of a hypothesis: the components its
    /// manifestation reaches. Point faults reach the target only; an EMI
    /// burst reaches every component within its radius of its centre.
    fn footprint(&self, h: &Hypothesis) -> Vec<NodeId> {
        if let FaultKind::EmiBurst { center, radius_m, .. } = &h.kind {
            let mut zone: Vec<NodeId> = self
                .exp
                .cluster
                .components
                .iter()
                .filter(|c| dist(c.position, *center) <= *radius_m)
                .map(|c| c.node)
                .collect();
            if zone.is_empty() {
                if let FruRef::Component(n) = h.fru {
                    zone.push(n);
                }
            }
            zone.sort_unstable();
            zone
        } else {
            match h.fru {
                FruRef::Component(n) => vec![n],
                FruRef::Job(_) => Vec::new(),
            }
        }
    }

    /// The catalogue row of `pattern` and the earliest round it can fire
    /// within the horizon `n`, or `None` when it cannot.
    fn reach(&self, pattern: &str, n: u64) -> Option<(&'static PatternModel, u64)> {
        let m = model::pattern_model(pattern)?;
        model::reach(m, &self.exp.ona, n).ok().map(|round| (m, round))
    }

    /// Derives the n-round symptom signature of `h`.
    fn signature(&self, h: &Hypothesis, n: u64) -> SymptomSignature {
        let mut obs: Vec<Observation> = Vec::new();
        let footprint = self.footprint(h);
        for &pattern in model::patterns_for_kind(&h.kind) {
            let Some((m, earliest)) = self.reach(pattern, n) else { continue };
            let mut push = |subjects: Vec<FruRef>| {
                obs.push(Observation {
                    pattern,
                    subjects,
                    earliest_round: earliest,
                    confidence: m.confidence,
                });
            };
            match (pattern, m.domain) {
                // Zone-attributed: one observation naming the whole
                // affected zone, requiring at least two observable
                // members for the spatial correlation.
                ("massive-transient", _) => {
                    let zone: Vec<FruRef> = footprint
                        .iter()
                        .filter(|&&c| self.comm_observable(c))
                        .map(|&c| FruRef::Component(c))
                        .collect();
                    if zone.len() >= 2 {
                        push(zone);
                    }
                }
                // Per-component comm/sync evidence: one observation per
                // observable footprint member.
                (_, SymptomDomain::Comm | SymptomDomain::Sync) => {
                    for &c in footprint.iter().filter(|&&c| self.comm_observable(c)) {
                        push(vec![FruRef::Component(c)]);
                    }
                }
                // Co-host correlation: attributes the hosting component,
                // available only when it hosts jobs of >= 2 DASs (and
                // those outputs are published, i.e. the host transmits).
                ("cohost-correlation", _) => {
                    if let FruRef::Component(host) = h.fru {
                        if self.hosts_several_dases(host) && self.comm_observable(host) {
                            push(vec![FruRef::Component(host)]);
                        }
                    }
                }
                // Queue-side evidence is detected locally at the
                // affected job's host; no transmission slot required.
                (_, SymptomDomain::Queue) => {
                    if let FruRef::Job(j) = h.fru {
                        push(vec![FruRef::Job(j)]);
                    }
                }
                // Job-value evidence: observable where the outputs are
                // published, so the hosting component must transmit.
                (_, SymptomDomain::JobValue) => match h.fru {
                    FruRef::Job(j) => {
                        let host_tx = self
                            .host_of(FruRef::Job(j))
                            .is_some_and(|hn| self.scheduled.contains(&hn));
                        if host_tx {
                            push(vec![FruRef::Job(j)]);
                        }
                    }
                    // A component-level value fault (aging conditioning
                    // path) degrades every hosted job. When the co-host
                    // correlation can fire it explains and suppresses
                    // the per-job attribution; otherwise the evidence is
                    // indistinguishable from a per-job transducer fault.
                    FruRef::Component(host) => {
                        let cohost_fires = self.hosts_several_dases(host)
                            && self.reach("cohost-correlation", n).is_some();
                        if !cohost_fires && self.scheduled.contains(&host) {
                            for j in self.exp.cluster.jobs.iter().filter(|j| j.host == host) {
                                push(vec![FruRef::Job(j.id)]);
                            }
                        }
                    }
                },
            }
        }
        obs.sort_by(|x, y| x.pattern.cmp(y.pattern).then_with(|| x.subjects.cmp(&y.subjects)));
        obs.dedup_by(|x, y| x.pattern == y.pattern && x.subjects == y.subjects);
        SymptomSignature { observations: obs }
    }

    /// Compares two signatures.
    fn verdict(&self, sa: &SymptomSignature, sb: &SymptomSignature) -> Verdict {
        if sa.is_empty() || sb.is_empty() {
            return Verdict::Undetectable;
        }
        let (ka, kb) = (sa.key(), sb.key());
        if ka == kb {
            let mut witness: Vec<WitnessStep> = sa
                .observations
                .iter()
                .map(|o| WitnessStep {
                    round: o.earliest_round,
                    slot: self.slot_of(*o.subjects.first().expect("attributed observation")),
                    pattern: o.pattern,
                    subjects: o.subjects.clone(),
                })
                .collect();
            witness.sort_by_key(|w| (w.round, w.slot));
            return Verdict::Ambiguous { witness };
        }
        let round = sa
            .observations
            .iter()
            .filter(|o| !kb.contains(&(o.pattern, o.subjects.clone())))
            .chain(
                sb.observations.iter().filter(|o| !ka.contains(&(o.pattern, o.subjects.clone()))),
            )
            .map(|o| o.earliest_round)
            .min()
            .expect("signatures differ, so a distinguishing observation exists");
        Verdict::Diagnosable { round }
    }
}

/// The result of one diagnosability analysis.
#[derive(Debug, Clone)]
pub struct DiagnosabilityReport {
    /// The horizon the analysis was bounded to.
    pub rounds: u64,
    /// The hypotheses, in scope order.
    pub hypotheses: Vec<Hypothesis>,
    /// `signatures[i]` belongs to `hypotheses[i]`.
    pub signatures: Vec<SymptomSignature>,
    /// Pairwise verdicts over all `a < b`.
    pub pairs: Vec<PairVerdict>,
}

impl DiagnosabilityReport {
    /// The ambiguous pairs.
    pub(crate) fn ambiguous(&self) -> impl Iterator<Item = &PairVerdict> {
        self.pairs.iter().filter(|p| matches!(p.verdict, Verdict::Ambiguous { .. }))
    }

    /// Indices of hypotheses with an empty signature.
    pub fn invisible(&self) -> impl Iterator<Item = usize> + '_ {
        self.signatures.iter().enumerate().filter(|(_, s)| s.is_empty()).map(|(i, _)| i)
    }

    /// One-line summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let (mut d, mut a, mut u) = (0usize, 0usize, 0usize);
        for p in &self.pairs {
            match p.verdict {
                Verdict::Diagnosable { .. } => d += 1,
                Verdict::Ambiguous { .. } => a += 1,
                Verdict::Undetectable => u += 1,
            }
        }
        format!(
            "{} hypotheses, {} pairs: {d} diagnosable, {a} ambiguous, {u} undetectable",
            self.hypotheses.len(),
            self.pairs.len()
        )
    }

    /// Human-readable ambiguity matrix, aggregated per fault class, with
    /// the ambiguous pairs and their witnesses listed underneath.
    #[must_use]
    pub fn matrix(&self) -> String {
        const SHORT: [(FaultClass, &str); 6] = [
            (FaultClass::ComponentExternal, "c-ext"),
            (FaultClass::ComponentBorderline, "c-bdl"),
            (FaultClass::ComponentInternal, "c-int"),
            (FaultClass::JobBorderline, "j-bdl"),
            (FaultClass::JobInherentSoftware, "j-sw"),
            (FaultClass::JobInherentTransducer, "j-td"),
        ];
        let idx = |c: FaultClass| SHORT.iter().position(|&(k, _)| k == c).expect("all classes");
        // Worst verdict per class pair: A beats U beats D beats none.
        let mut cells = [[' '; 6]; 6];
        for p in &self.pairs {
            let (i, j) = (idx(self.hypotheses[p.a].class()), idx(self.hypotheses[p.b].class()));
            let t = p.verdict.tag();
            for (r, c) in [(i, j), (j, i)] {
                let cur = cells[r][c];
                let rank = |ch: char| match ch {
                    'A' => 3,
                    'U' => 2,
                    'D' => 1,
                    _ => 0,
                };
                if rank(t) > rank(cur) {
                    cells[r][c] = t;
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "ambiguity matrix ({}, n = {} rounds):", self.summary(), self.rounds);
        let _ = writeln!(
            out,
            "  (worst pairwise verdict per class pair: A ambiguous > U undetectable > D diagnosable)"
        );
        let _ = write!(out, "  {:>7}", "");
        for &(_, s) in &SHORT {
            let _ = write!(out, " {s:>6}");
        }
        let _ = writeln!(out);
        for (r, &(_, s)) in SHORT.iter().enumerate() {
            let _ = write!(out, "  {s:>7}");
            for &cell in &cells[r] {
                let ch = if cell == ' ' { '-' } else { cell };
                let _ = write!(out, " {ch:>6}");
            }
            let _ = writeln!(out);
        }
        let ambiguous: Vec<&PairVerdict> = self.ambiguous().collect();
        if ambiguous.is_empty() {
            let _ = writeln!(out, "  no ambiguous pairs");
        } else {
            let _ = writeln!(out, "  ambiguous pairs ({}):", ambiguous.len());
            for p in ambiguous {
                let (a, b) = (&self.hypotheses[p.a], &self.hypotheses[p.b]);
                let _ = write!(out, "    {} ~ {}", a.label(), b.label());
                if let Verdict::Ambiguous { witness } = &p.verdict {
                    let _ = write!(out, "  witness:");
                    for w in witness {
                        let _ = write!(out, " {w}");
                    }
                }
                let _ = writeln!(out);
            }
        }
        for i in self.invisible() {
            let _ = writeln!(out, "  invisible to the ONA bank: {}", self.hypotheses[i].label());
        }
        out
    }
}

/// The campaign scope: one hypothesis per distinct `(kind, FRU)` among
/// the experiment's faults (two faults of the same kind on the same FRU
/// are trivially observation-equivalent and collapse into one).
#[must_use]
pub(crate) fn campaign_hypotheses(exp: &ExperimentSpec<'_>) -> Vec<Hypothesis> {
    let mut seen: BTreeSet<(&'static str, FruRef)> = BTreeSet::new();
    let mut out = Vec::new();
    for f in exp.faults {
        if seen.insert((f.kind.name(), f.target)) {
            out.push(Hypothesis::of(f));
        }
    }
    out
}

/// The full class x FRU scope for `decos-lint --diagnosability`:
/// representative kinds of every (non-diagnostic-path) fault class on
/// every compatible FRU. EMI hypotheses centre the burst on the target
/// component with the ONA zone radius, so the footprint is the target's
/// proximity zone.
#[must_use]
pub fn full_hypotheses(exp: &ExperimentSpec<'_>) -> Vec<Hypothesis> {
    let mut out = Vec::new();
    for c in &exp.cluster.components {
        let comp_kinds = [
            FaultKind::EmiBurst {
                rate_per_hour: 10.0,
                duration_ms: 10.0,
                center: c.position,
                radius_m: exp.ona.zone_radius_m,
            },
            FaultKind::CosmicRaySeu { rate_per_hour: 100.0 },
            FaultKind::StressOutage { rate_per_hour: 10.0, outage_ms: 30.0 },
            FaultKind::ConnectorIntermittent { rate_per_hour: 10.0, duration_ms: 5.0 },
            FaultKind::ConnectorWearout {
                base_rate_per_hour: 1.0,
                growth_per_hour: 0.5,
                duration_ms: 5.0,
            },
            FaultKind::PcbCrack { base_rate_per_hour: 1.0, growth_per_hour: 0.5, outage_ms: 20.0 },
            FaultKind::SolderJointCrack {
                base_rate_per_hour: 1.0,
                growth_per_hour: 0.5,
                duration_ms: 5.0,
            },
            FaultKind::QuartzDegradation { drift_ppm_per_hour: 5.0 },
            FaultKind::IcPermanent { after_hours: 1.0 },
            FaultKind::IcTransient { rate_per_hour: 10.0, duration_ms: 5.0 },
            FaultKind::CapacitorAging { bias_per_hour: 0.5 },
            FaultKind::PowerSupplyMarginal { rate_per_hour: 10.0, outage_ms: 30.0 },
        ];
        for kind in comp_kinds {
            out.push(Hypothesis { kind, fru: FruRef::Component(c.node), fault_id: None });
        }
    }
    for j in &exp.cluster.jobs {
        let job_kinds = [
            FaultKind::VnetMisconfiguration,
            FaultKind::Bohrbug { trigger_band: (0.0, 1.0), offset: 1.0 },
            FaultKind::Heisenbug { prob_per_dispatch: 0.01, drop: false, wrong_value: 0.0 },
            FaultKind::SensorStuck { value: 0.0 },
            FaultKind::SensorDrift { per_hour: 1.0 },
            FaultKind::SensorNoise { std_dev: 1.0 },
            FaultKind::SensorDead,
        ];
        for kind in job_kinds {
            out.push(Hypothesis { kind, fru: FruRef::Job(j.id), fault_id: None });
        }
    }
    out
}

/// The pairwise verdict for two hypotheses (exposed for the soundness
/// suite).
#[must_use]
pub fn pair_verdict(
    exp: &ExperimentSpec<'_>,
    a: &Hypothesis,
    b: &Hypothesis,
    rounds: u64,
) -> Verdict {
    let m = Model::new(exp);
    let (sa, sb) = (m.signature(a, rounds), m.signature(b, rounds));
    m.verdict(&sa, &sb)
}

/// Runs the bounded diagnosability analysis over a hypothesis scope.
/// `rounds = 0` means "no fixed horizon" (evidence floors still apply
/// through their own round requirements, horizon starvation does not).
#[must_use]
pub fn analyze_diagnosability(
    exp: &ExperimentSpec<'_>,
    hypotheses: Vec<Hypothesis>,
    rounds: u64,
) -> DiagnosabilityReport {
    let m = Model::new(exp);
    let signatures: Vec<SymptomSignature> =
        hypotheses.iter().map(|h| m.signature(h, rounds)).collect();
    let mut pairs = Vec::new();
    for a in 0..hypotheses.len() {
        for b in (a + 1)..hypotheses.len() {
            pairs.push(PairVerdict { a, b, verdict: m.verdict(&signatures[a], &signatures[b]) });
        }
    }
    DiagnosabilityReport { rounds, hypotheses, signatures, pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ScheduleSpec;
    use decos_platform::fig10;

    fn comp(n: u16) -> FruRef {
        FruRef::Component(NodeId(n))
    }

    fn hyp(kind: FaultKind, fru: FruRef) -> Hypothesis {
        Hypothesis { kind, fru, fault_id: None }
    }

    fn seu(n: u16) -> Hypothesis {
        hyp(FaultKind::CosmicRaySeu { rate_per_hour: 100.0 }, comp(n))
    }

    fn ic(n: u16) -> Hypothesis {
        hyp(FaultKind::IcTransient { rate_per_hour: 100.0, duration_ms: 5.0 }, comp(n))
    }

    fn emi_at(spec: &decos_platform::ClusterSpec, n: u16) -> Hypothesis {
        let center = spec.components[n as usize].position;
        hyp(
            FaultKind::EmiBurst { rate_per_hour: 10.0, duration_ms: 10.0, center, radius_m: 1.5 },
            comp(n),
        )
    }

    #[test]
    fn recurring_external_and_internal_defect_are_ambiguous() {
        // The alpha-count deliberately reads *any* recurrence at one
        // location as repair-requiring; a recurring environmental
        // disturbance at N1 is observation-equivalent to a residual IC
        // defect there — at every horizon that lets the count declare.
        let spec = fig10::reference_spec();
        let exp = ExperimentSpec::new(&spec);
        match pair_verdict(&exp, &seu(1), &ic(1), 4000) {
            Verdict::Ambiguous { witness } => {
                assert!(!witness.is_empty(), "a witness trace is mandatory");
                assert!(witness.iter().all(|w| w.round <= 4000));
                assert!(witness.iter().any(|w| w.pattern == "isolated-transient"));
                assert!(witness.iter().any(|w| w.pattern == "recurring-internal"));
                // Minimality: one step per shared observation.
                let distinct: BTreeSet<_> =
                    witness.iter().map(|w| (w.pattern, w.subjects.clone())).collect();
                assert_eq!(distinct.len(), witness.len());
            }
            v => panic!("expected ambiguity, got {v:?}"),
        }
    }

    #[test]
    fn different_components_are_diagnosable() {
        let spec = fig10::reference_spec();
        let exp = ExperimentSpec::new(&spec);
        match pair_verdict(&exp, &seu(1), &ic(2), 4000) {
            Verdict::Diagnosable { round } => assert!((1..=4000).contains(&round)),
            v => panic!("expected diagnosable, got {v:?}"),
        }
    }

    #[test]
    fn emi_within_one_zone_is_ambiguous_across_it() {
        // fig10: N0 and N1 are ~0.54 m apart — one proximity zone under
        // the default 1.5 m radius. A burst centred on either floods the
        // same zone: the attribution cannot separate them.
        let spec = fig10::reference_spec();
        let exp = ExperimentSpec::new(&spec);
        let (a, b) = (emi_at(&spec, 0), emi_at(&spec, 1));
        match pair_verdict(&exp, &a, &b, 4000) {
            Verdict::Ambiguous { witness } => {
                assert!(witness
                    .iter()
                    .any(|w| w.pattern == "massive-transient"
                        && w.subjects == vec![comp(0), comp(1)]));
            }
            v => panic!("expected zone ambiguity, got {v:?}"),
        }
        // Across zones ({N0,N1} vs {N2,N3}) the footprints differ.
        let c = emi_at(&spec, 2);
        assert!(matches!(pair_verdict(&exp, &a, &c, 4000), Verdict::Diagnosable { .. }));
    }

    #[test]
    fn diag_path_faults_are_invisible() {
        let spec = fig10::reference_spec();
        let exp = ExperimentSpec::new(&spec);
        let h = hyp(FaultKind::DiagFrameLoss { loss_prob: 0.5 }, comp(0));
        assert!(Model::new(&exp).signature(&h, 4000).is_empty());
        assert_eq!(pair_verdict(&exp, &h, &seu(1), 4000), Verdict::Undetectable);
    }

    #[test]
    fn unscheduled_component_is_unobservable() {
        // Remove N1's slot: its comm symptoms can no longer manifest.
        let spec = fig10::reference_spec();
        let mut exp = ExperimentSpec::new(&spec);
        exp.schedule = ScheduleSpec {
            claims: exp.schedule.claims.into_iter().filter(|&(_, n)| n != NodeId(1)).collect(),
        };
        assert!(Model::new(&exp).signature(&seu(1), 4000).is_empty());
        assert!(!Model::new(&exp).signature(&seu(2), 4000).is_empty());
    }

    #[test]
    fn short_horizon_drops_slow_evidence() {
        // Within 10 rounds the alpha-count (3 windows of 50 rounds)
        // cannot declare: the recurring-internal observation vanishes
        // and SEU vs IC defect both shrink to the isolated transient —
        // still ambiguous, but now without the recurring evidence.
        let spec = fig10::reference_spec();
        let exp = ExperimentSpec::new(&spec);
        let sig = Model::new(&exp).signature(&seu(1), 10);
        assert!(sig.observations.iter().all(|o| o.pattern != "recurring-internal"));
        assert!(sig.observations.iter().any(|o| o.pattern == "isolated-transient"));
    }

    #[test]
    fn conviction_round_reflects_confidence_and_floor() {
        let spec = fig10::reference_spec();
        let exp = ExperimentSpec::new(&spec);
        let sig = Model::new(&exp).signature(&seu(1), 4000);
        // Fastest route: isolated-transient (round 1, conf 0.4) needs
        // ceil(3.0 / 0.4) = 8 firings -> round 8; recurring-internal
        // (round 150, conf 0.8) would reach it at 150 + 4 - 1 = 153.
        assert_eq!(sig.conviction_round(3.0), Some(8));
        let h = hyp(FaultKind::QuartzDegradation { drift_ppm_per_hour: 5.0 }, comp(1));
        let sig = Model::new(&exp).signature(&h, 4000);
        // oscillator: round 1, conf 0.85 -> ceil(3/.85) = 4 firings.
        assert_eq!(sig.conviction_round(3.0), Some(4));
    }

    #[test]
    fn capacitor_aging_mimics_transducer_drift_without_cohost() {
        // Prune fig10 so N1 hosts S2 only (one DAS): the co-host
        // correlation cannot fire and the aging conditioning path reads
        // exactly like a drifting transducer of the hosted job.
        let mut spec = fig10::reference_spec();
        spec.jobs.retain(|j| j.host != NodeId(1) || j.name == "S2");
        let exp = ExperimentSpec::new(&spec);
        let hosted: Vec<_> =
            spec.jobs.iter().filter(|j| j.host == NodeId(1)).map(|j| j.id).collect();
        assert_eq!(hosted.len(), 1, "only S2 left on N1");
        let aging = hyp(FaultKind::CapacitorAging { bias_per_hour: 0.5 }, comp(1));
        let drift = hyp(FaultKind::SensorDrift { per_hour: 1.0 }, FruRef::Job(hosted[0]));
        assert!(matches!(pair_verdict(&exp, &aging, &drift, 4000), Verdict::Ambiguous { .. }));
        // On a multi-DAS host the correlation disambiguates.
        let aging0 = hyp(FaultKind::CapacitorAging { bias_per_hour: 0.5 }, comp(0));
        let s0 = Model::new(&exp).signature(&aging0, 4000);
        assert!(s0.observations.iter().any(|o| o.pattern == "cohost-correlation"));
    }

    #[test]
    fn full_matrix_over_fig10_finds_the_zone_ambiguity() {
        let spec = fig10::reference_spec();
        let exp = ExperimentSpec::new(&spec);
        let report = analyze_diagnosability(&exp, full_hypotheses(&exp), 4000);
        assert!(report.ambiguous().count() > 0, "{}", report.summary());
        let emi_pair = report.ambiguous().any(|p| {
            let (a, b) = (&report.hypotheses[p.a], &report.hypotheses[p.b]);
            a.kind.name() == "emi-burst" && b.kind.name() == "emi-burst" && a.fru != b.fru
        });
        assert!(emi_pair, "the {{N0,N1}} zone ambiguity must be found");
        // And the matrix renders with all six classes and the legend.
        let m = report.matrix();
        assert!(m.contains("ambiguity matrix"), "{m}");
        assert!(m.contains("c-ext") && m.contains("j-td"), "{m}");
        assert!(m.contains("ambiguous pairs"), "{m}");
    }

    #[test]
    fn maintenance_equivalence_is_fru_and_class() {
        assert!(maintenance_equivalent(&ic(1), &ic(1)));
        assert!(maintenance_equivalent(
            &ic(1),
            &hyp(FaultKind::PowerSupplyMarginal { rate_per_hour: 1.0, outage_ms: 5.0 }, comp(1))
        ));
        assert!(!maintenance_equivalent(&seu(1), &ic(1)), "external vs internal");
        assert!(!maintenance_equivalent(&ic(1), &ic(2)), "different FRUs");
    }
}
