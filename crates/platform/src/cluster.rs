//! Cluster specification and the slot-stepped simulation.
//!
//! A time-triggered cluster is statically scheduled: the only timeline is
//! the TDMA slot sequence, so the simulation advances slot by slot rather
//! than through a general event queue. Every run advances through
//! [`ClusterSim::step_slot_into`]: `begin_slot` and the job hooks run on
//! every slot, the channel hooks on every slot the environment reports
//! disturbed.
//!
//! Every deviation from nominal behaviour enters through the
//! [`Environment`] hooks; the simulation itself is fault-agnostic. The
//! output of one step is a [`SlotRecord`] — exactly the *interface state*
//! the integrated diagnostic architecture is allowed to observe.

use crate::component::{ComponentSpec, ComponentState, Power};
use crate::env::{ComponentDirective, Environment};
use crate::ids::{Criticality, DasId, JobId, NodeId};
use crate::job::{DispatchCtx, JobRuntime, JobSpec};
use crate::lif::{derive_lif, PortIndex, PortLif};
use decos_sim::rng::SeedSource;
use decos_sim::time::{SimDuration, SimTime};
use decos_timebase::{fta_round_in_place, fta_round_sorted, ActionLattice, SyncStatus};
use decos_ttnet::{
    BroadcastBus, ChannelParams, Frame, GuardianMode, MembershipChange, MembershipParams,
    ResolveScratch, RoundPlan, RxDisturbance, SlotAddress, SlotVerdict, TdmaSchedule, TxSignal,
};
use decos_vnet::{encode_segment, ConfigDefect, Message, PortId, PushOutcome, VnetConfig, VnetId};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Static description of a DAS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DasSpec {
    /// Identity.
    pub id: DasId,
    /// Human-readable name.
    pub name: String,
    /// Criticality of all jobs in this DAS.
    pub criticality: Criticality,
}

/// Static configuration of the encapsulated virtual diagnostic network
/// (§II-D): the bandwidth share reserved for symptom dissemination and the
/// depth of the store-and-forward queue in front of the diagnostic DAS.
///
/// Validated by [`ClusterSpec::structural_errors`]: the capacity must be
/// positive and the queue must hold at least one round's worth of frames,
/// otherwise [`SpecError::InvalidDiagNet`] is reported (and surfaced as an
/// analyzer diagnostic rather than a runtime panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiagNetSpec {
    /// Symptom frames the diagnostic network forwards per TDMA round.
    pub capacity_per_round: u32,
    /// Store-and-forward queue depth (symptom frames).
    pub queue_depth: u32,
}

impl Default for DiagNetSpec {
    fn default() -> Self {
        // One frame per slot of a generously dimensioned round, with an
        // eight-round backlog — the defaults the diagnosis layer has always
        // used, now named instead of magic.
        DiagNetSpec { capacity_per_round: 64, queue_depth: 512 }
    }
}

impl DiagNetSpec {
    /// Whether the configuration is usable (positive capacity, queue at
    /// least one round deep).
    pub(crate) fn is_valid(&self) -> bool {
        self.capacity_per_round > 0 && self.queue_depth >= self.capacity_per_round
    }
}

/// Full static description of a cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Components, in `NodeId` order (node ids must be `0..n`).
    pub components: Vec<ComponentSpec>,
    /// Application subsystems.
    pub dases: Vec<DasSpec>,
    /// Correct virtual-network configurations.
    pub vnets: Vec<VnetConfig>,
    /// Configuration defects applied at deployment (ground truth for job
    /// borderline faults). Empty for a correctly configured cluster.
    pub config_defects: Vec<(VnetId, ConfigDefect)>,
    /// Jobs.
    pub jobs: Vec<JobSpec>,
    /// TDMA slot length.
    pub slot_len: SimDuration,
    /// Physical channel parameters.
    pub channel: ChannelParams,
    /// Membership protocol parameters.
    pub membership: MembershipParams,
    /// Sparse-time action-lattice granule.
    pub lattice_granule: SimDuration,
    /// Cluster precision bound (sync-loss threshold), ns.
    pub precision_ns: u64,
    /// Encapsulated diagnostic-network dimensioning (the default keeps the
    /// numbers the diagnosis layer has always used).
    pub diag_net: DiagNetSpec,
}

/// Specification errors caught at cluster construction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpecError {
    /// Node ids must be exactly `0..n` in order.
    NonContiguousNodeIds,
    /// More than 64 components (membership vector width).
    TooManyComponents,
    /// A job references an unknown host component.
    UnknownHost(JobId),
    /// A job references an unknown DAS.
    UnknownDas(JobId),
    /// A job references an unknown virtual network.
    UnknownVnet(JobId),
    /// Two jobs share an output port id.
    DuplicatePort(u32),
    /// A job's criticality disagrees with its DAS.
    CriticalityMismatch(JobId),
    /// Duplicate job id.
    DuplicateJob(JobId),
    /// Diagnostic-network dimensioning is unusable (zero capacity, or a
    /// queue shallower than one round of frames).
    InvalidDiagNet,
}

impl ClusterSpec {
    /// Validates structural consistency, reporting the first error found.
    ///
    /// Thin shim over [`ClusterSpec::structural_errors`]; construction
    /// sites only need a go/no-go answer, while `decos-analyzer` maps the
    /// full list onto diagnostics.
    pub(crate) fn validate(&self) -> Result<(), SpecError> {
        self.structural_errors().into_iter().next().map_or(Ok(()), Err)
    }

    /// Collects **every** structural error, in the order `validate`
    /// historically checked them (global checks first, then per job).
    pub fn structural_errors(&self) -> Vec<SpecError> {
        let mut errors = Vec::new();
        if self.components.len() > 64 {
            errors.push(SpecError::TooManyComponents);
        }
        if self.components.iter().enumerate().any(|(i, c)| c.node.0 as usize != i) {
            errors.push(SpecError::NonContiguousNodeIds);
        }
        if !self.diag_net.is_valid() {
            errors.push(SpecError::InvalidDiagNet);
        }
        let das_ids: BTreeMap<DasId, Criticality> =
            self.dases.iter().map(|d| (d.id, d.criticality)).collect();
        let vnet_ids: Vec<VnetId> = self.vnets.iter().map(|v| v.id).collect();
        let mut seen_ports = std::collections::BTreeSet::new();
        let mut seen_jobs = std::collections::BTreeSet::new();
        for j in &self.jobs {
            if !seen_jobs.insert(j.id) {
                errors.push(SpecError::DuplicateJob(j.id));
            }
            if (j.host.0 as usize) >= self.components.len() {
                errors.push(SpecError::UnknownHost(j.id));
            }
            match das_ids.get(&j.das) {
                None => errors.push(SpecError::UnknownDas(j.id)),
                Some(c) if *c != j.criticality => {
                    errors.push(SpecError::CriticalityMismatch(j.id));
                }
                Some(_) => {}
            }
            for v in j.behavior.vnets() {
                if !vnet_ids.contains(&v) {
                    errors.push(SpecError::UnknownVnet(j.id));
                }
            }
            if let Some(p) = j.behavior.output_port() {
                if !seen_ports.insert(p) {
                    errors.push(SpecError::DuplicatePort(p.0));
                }
            }
        }
        errors
    }

    /// The virtual-network configurations actually deployed, after applying
    /// configuration defects.
    pub fn deployed_vnets(&self) -> Vec<VnetConfig> {
        self.vnets
            .iter()
            .map(|cfg| {
                let mut c = *cfg;
                for (id, defect) in &self.config_defects {
                    if *id == c.id {
                        c = defect.apply(&c);
                    }
                }
                c
            })
            .collect()
    }

    /// Number of components.
    pub fn n_components(&self) -> usize {
        self.components.len()
    }
}

/// How one receiver judged one slot (payload stripped; the carried messages
/// are in [`SlotRecord::sent`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ObsKind {
    /// This component is the slot owner.
    Own,
    /// Receiver was not operational (restarting or dead).
    Offline,
    /// Correct frame received.
    Correct,
    /// Nothing received.
    Omission,
    /// CRC check failed.
    InvalidCrc,
    /// Valid frame outside the acceptance window.
    TimingViolation {
        /// Measured offset, ns.
        offset_ns: i64,
    },
}

impl ObsKind {
    /// Whether this judgment is an error indication against the owner.
    pub fn is_error(&self) -> bool {
        matches!(self, ObsKind::Omission | ObsKind::InvalidCrc | ObsKind::TimingViolation { .. })
    }
}

/// Queue-loss counter change in one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverflowDelta {
    /// Affected component.
    pub node: NodeId,
    /// Affected network.
    pub vnet: VnetId,
    /// New transmit-side overflows this slot.
    pub tx: u64,
    /// New receive-side overflows this slot.
    pub rx: u64,
}

/// Everything observable about one TDMA slot — the interface-state record
/// the diagnostic subsystem consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotRecord {
    /// Slot position.
    pub addr: SlotAddress,
    /// Nominal start instant.
    pub start: SimTime,
    /// Slot owner.
    pub owner: NodeId,
    /// Whether a frame was put on the wire.
    pub transmitted: bool,
    /// Messages carried in the frame, per network (what receivers with a
    /// `Correct` observation decoded).
    pub sent: Vec<(VnetId, Vec<Message>)>,
    /// Per-component judgment, indexed by `NodeId`.
    pub observations: Vec<ObsKind>,
    /// Queue-loss changes in this slot.
    pub overflow_deltas: Vec<OverflowDelta>,
    /// Components that lost clock synchronization at this round boundary.
    pub sync_losses: Vec<NodeId>,
    /// Membership changes observed (observer, change).
    pub membership_changes: Vec<(NodeId, MembershipChange)>,
    /// Components that completed a restart before this slot.
    pub restarts_completed: Vec<NodeId>,
}

impl SlotRecord {
    /// A blank record for [`ClusterSim::step_slot_into`]. Every field is
    /// overwritten by the next step; the blank values are never observed.
    pub fn empty() -> Self {
        SlotRecord {
            addr: SlotAddress { round: 0, slot: decos_ttnet::SlotIndex(0) },
            start: SimTime::ZERO,
            owner: NodeId(0),
            transmitted: false,
            sent: Vec::new(),
            observations: Vec::new(),
            overflow_deltas: Vec::new(),
            sync_losses: Vec::new(),
            membership_changes: Vec::new(),
            restarts_completed: Vec::new(),
        }
    }

    /// Rewrites the record for a new slot, retaining every buffer's
    /// capacity: scalar fields are overwritten, `observations` is refilled
    /// with `Offline`, the event lists are cleared, and `sent`'s inner
    /// message vectors are recycled through `pool`.
    fn reset(
        &mut self,
        addr: SlotAddress,
        start: SimTime,
        owner: NodeId,
        n_components: usize,
        pool: &mut Vec<Vec<Message>>,
    ) {
        self.addr = addr;
        self.start = start;
        self.owner = owner;
        self.transmitted = false;
        for (_, mut msgs) in self.sent.drain(..) {
            msgs.clear();
            pool.push(msgs);
        }
        self.observations.clear();
        self.observations.resize(n_components, ObsKind::Offline);
        self.overflow_deltas.clear();
        self.sync_losses.clear();
        self.membership_changes.clear();
        self.restarts_completed.clear();
    }
}

/// Median of a signed sample (0 for an empty slice).
fn median_i64(xs: &mut [i64]) -> i64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        ((xs[n / 2 - 1] as i128 + xs[n / 2] as i128) / 2) as i64
    }
}

/// Faulty clocks the cluster's FTA tolerates among `n` operational
/// members: one from four members on, none below.
fn fta_tolerance(n: usize) -> usize {
    if n >= 4 {
        1
    } else {
        0
    }
}

/// The spread of the operational clocks' deviations at `t`: the clean-slot
/// admission test of [`ClusterSim::step_slot_into`] compares it with the
/// admission window.
fn deviation_spread(comps: &[ComponentState], t: SimTime) -> u64 {
    let mut mn = i64::MAX;
    let mut mx = i64::MIN;
    for c in comps {
        if c.is_operational(t) {
            let d = c.clock.deviation_ns(t);
            mn = mn.min(d);
            mx = mx.max(d);
        }
    }
    mx.saturating_sub(mn).unsigned_abs()
}

/// The largest slot start, in ns, [`round_admission_certified`] accepts:
/// below it every instant converts to `f64` exactly.
const CERTIFIED_T_MAX_NS: u64 = 1 << 53;

/// The largest accumulated correction, in ns, a certified clock may carry.
const CERTIFIED_CORRECTION_MAX_NS: u64 = 1 << 61;

/// The largest drift offset, in ns, a certified clock may reach within the
/// round (`|ppm|·t·10⁻⁶` at the last slot start, evaluated in `f64`).
const CERTIFIED_DRIFT_MAX_NS: f64 = (1u64 << 50) as f64;

/// Rounding allowance of [`round_admission_certified`] for a round whose
/// largest drift offset at the last slot start is `drift_ns`.
fn admission_allowance_ns(drift_ns: f64) -> u64 {
    5 + (drift_ns * (-50f64).exp2()).ceil() as u64
}

/// Whether every slot start of a round admits on the deviation spread,
/// decided once at the round boundary.
///
/// `op` are the members operational at the round's first slot start,
/// `spread0` their [`deviation_spread`] there (after the round's clock
/// corrections) and `t_last` the round's last slot start. When this
/// returns true, `deviation_spread(comps, t) <= window_ns` holds at every
/// slot start `t` of the round, so the per-slot test can be skipped.
///
/// **Why.** No member is restarting (otherwise refuse), so the operational
/// set stays `op` all round: an `On` member stays on and a dead one dead
/// until the next boundary, and clock drift and corrections change only at
/// boundaries. Under the guards below (live oscillator, finite drift,
/// `t_last < 2⁵³`, `|correction| ≤ 2⁶¹`, drift offset `≤ 2⁵⁰`) nothing
/// overflows or saturates, and member `i`'s deviation at a slot start `t`
/// is `Dᵢ(t) = trunc(fl(fl(t·pᵢ)·κ)) + cᵢ`, with `pᵢ` its effective drift,
/// `κ = fl(10⁻⁶)` and `cᵢ` its correction (see `LocalClock::read`).
/// Write `yᵢ(t) = t·pᵢ·κ` (exact, linear in `t`). Two roundings of relative
/// error `u = 2⁻⁵³` each, an absolute underflow error of at most `2⁻¹⁰⁷⁴`
/// each, and the truncation give `Dᵢ(t) = yᵢ(t) + cᵢ + eᵢ(t)` with
/// `|eᵢ(t)| < 1 + εᵢ(t)`, `εᵢ(t) = |yᵢ(t)|·(2u + u²) + 2⁻¹⁰⁷³`, which grows
/// with `t`, so `εᵢ(t) ≤ ε := maxᵢ εᵢ(t_last)` over the round. For a pair
/// `i, j` the difference `Lᵢⱼ(t) = yᵢ(t) − yⱼ(t) + cᵢ − cⱼ` is affine in `t`,
/// so on `[t₀, t_last]` its magnitude peaks at an end, where it is within
/// `2 + 2ε` of the integer `Dᵢ − Dⱼ`, itself at most that end's spread.
/// Hence at every slot start `|Dᵢ(t) − Dⱼ(t)| < M + 4 + 4ε`, with `M` the
/// larger end spread. With `Y = fl(fl(max|pᵢ|·t_last)·κ)`, the computed
/// largest drift offset, `Y ≥ maxᵢ|yᵢ(t_last)|·(1 − u)²`, so
/// `4ε ≤ 2⁻⁵⁰·Y·(1 + 2⁻⁵⁴)/(1 − u)² + 2⁻¹⁰⁷¹ < 2⁻⁵⁰·Y + 1` since `Y ≤ 2⁵⁰`.
/// The allowance `A = 5 + ⌈2⁻⁵⁰·Y⌉` therefore exceeds `4 + 4ε`, and
/// `M + A ≤ window_ns` gives every slot start a spread below the window.
fn round_admission_certified(
    comps: &[ComponentState],
    op: &[usize],
    spread0: u64,
    t_last: SimTime,
    window_ns: u64,
) -> bool {
    if comps.iter().any(|c| matches!(c.power(), Power::Restarting { .. })) {
        return false;
    }
    let t_last_ns = t_last.as_nanos();
    if t_last_ns >= CERTIFIED_T_MAX_NS {
        return false;
    }
    let mut max_ppm = 0.0f64;
    let mut mn = i64::MAX;
    let mut mx = i64::MIN;
    for &i in op {
        let clock = &comps[i].clock;
        let ppm = clock.effective_drift_ppm();
        if clock.is_dead()
            || !ppm.is_finite()
            || clock.correction_ns().unsigned_abs() > CERTIFIED_CORRECTION_MAX_NS
        {
            return false;
        }
        max_ppm = max_ppm.max(ppm.abs());
        let d = clock.deviation_ns(t_last);
        mn = mn.min(d);
        mx = mx.max(d);
    }
    let drift_ns = max_ppm * t_last_ns as f64 * 1e-6;
    if drift_ns > CERTIFIED_DRIFT_MAX_NS {
        return false;
    }
    let spread_last = mx.saturating_sub(mn).unsigned_abs();
    spread0.max(spread_last).saturating_add(admission_allowance_ns(drift_ns)) <= window_ns
}

/// Reusable buffers for [`ClusterSim::step_slot_into`]: pure capacity the
/// steady-state slot pipeline recycles. Contents are transient within one
/// step (except the overflow shadow and its flag); after warm-up a
/// fault-free step performs no heap allocation. The sim holds it boxed and
/// detaches the box for the length of a step, so a step moves one pointer
/// instead of the whole struct.
#[derive(Default)]
struct StepScratch {
    /// Operational component indices (round boundary).
    op: Vec<usize>,
    /// Clock deviations (round boundary FTA input, global-time median).
    devs: Vec<i64>,
    /// The deviations sorted for the FTA (or one member's relative
    /// deviations, when their spread overflows); doubles as the median
    /// workspace for the post-correction reference.
    rel: Vec<i64>,
    /// FTA corrections per operational component.
    corrections: Vec<i64>,
    /// Post-correction deviations.
    post: Vec<i64>,
    /// Persistent per-(component, vnet) overflow shadow: the counter
    /// values as of the last walk (refreshed when a restart resets a
    /// component's endpoints).
    overflow_shadow: Vec<(NodeId, VnetId, u64, u64)>,
    /// Some overflow counter may differ from the shadow: a push overflowed
    /// a queue this slot. The shadow is walked, and deltas emitted, only
    /// then.
    overflowed: bool,
    /// Job dispatch output buffer.
    msgs: Vec<Message>,
    /// The frame the legacy body encodes, seals and puts on the channel.
    tx_frame: Frame,
    /// Per-receiver channel disturbances.
    rx_dist: Vec<RxDisturbance>,
    /// Channel-resolution buffers (wire frame, verdicts, local copies).
    resolve: ResolveScratch,
    /// Recycled inner vectors for [`SlotRecord::sent`].
    sent_pool: Vec<Vec<Message>>,
}

/// Snapshot of every endpoint's overflow counters, into a reused buffer.
fn overflow_snapshot_into(comps: &[ComponentState], out: &mut Vec<(NodeId, VnetId, u64, u64)>) {
    out.clear();
    for c in comps {
        for (id, ep) in &c.endpoints {
            out.push((c.node(), *id, ep.tx_overflows(), ep.rx_overflows()));
        }
    }
}

/// The running cluster.
pub struct ClusterSim {
    spec: ClusterSpec,
    schedule: TdmaSchedule,
    /// Flat per-round dispatch table precomputed from `schedule`: the hot
    /// loop resolves owner/start/deadline by indexed load.
    plan: RoundPlan,
    /// Route every slot through the legacy per-slot body even when the
    /// environment reports no disturbance (fast-path equivalence tests).
    force_legacy: bool,
    /// Slots stepped on the (fast, legacy) body.
    slot_bodies: (u64, u64),
    lattice: ActionLattice,
    lif: Vec<PortLif>,
    /// Port → position in `lif`, for [`ClusterSim::lif_of`].
    lif_index: PortIndex,
    bus: BroadcastBus,
    comps: Vec<ComponentState>,
    jobs: Vec<JobRuntime>,
    job_index: BTreeMap<JobId, usize>,
    /// Per-sender frame layout: ordered (vnet, segment bytes).
    tx_layouts: Vec<Vec<(VnetId, usize)>>,
    /// Per-component hosted-job indices into `jobs` (same order as
    /// `ComponentState::hosted`), so the slot loop never hits `job_index`.
    hosted_idx: Vec<Vec<usize>>,
    /// The tighter of the guardian and receive windows: the clean-slot
    /// fast path's admission bound (channel parameters are fixed at
    /// construction).
    fast_window_ns: u64,
    /// Every slot of the current round admits on the deviation spread
    /// (see [`round_admission_certified`]); set at each round boundary.
    round_admits: bool,
    /// Per-component networks any hosted job consumes from (sorted,
    /// deduplicated).
    rx_vnets: Vec<Vec<VnetId>>,
    next: SlotAddress,
    rng_bus: SmallRng,
    job_rngs: Vec<SmallRng>,
    round_len: SimDuration,
    /// Detached (`None`) only while a step runs.
    scratch: Option<Box<StepScratch>>,
}

impl ClusterSim {
    /// Builds and validates a cluster, seeding all random streams from
    /// `seed`.
    pub fn new(spec: ClusterSpec, seed: u64) -> Result<Self, SpecError> {
        spec.validate()?;
        let seeds = SeedSource::new(seed);
        let deployed = spec.deployed_vnets();
        let n = spec.components.len() as u16;
        let schedule =
            TdmaSchedule::new(spec.components.iter().map(|c| c.node).collect(), spec.slot_len);
        let lattice = ActionLattice::new(spec.lattice_granule);
        let lif = derive_lif(&spec.jobs);
        let lif_index = PortIndex::new(&lif);

        // Per component: hosted jobs and used vnets.
        let mut comps = Vec::with_capacity(spec.components.len());
        for cs in &spec.components {
            let hosted: Vec<JobId> =
                spec.jobs.iter().filter(|j| j.host == cs.node).map(|j| j.id).collect();
            let used: Vec<VnetConfig> = deployed
                .iter()
                .filter(|cfg| {
                    spec.jobs
                        .iter()
                        .any(|j| j.host == cs.node && j.behavior.vnets().contains(&cfg.id))
                })
                .copied()
                .collect();
            comps.push(ComponentState::new(
                cs.clone(),
                &used,
                hosted,
                n,
                spec.membership,
                spec.precision_ns,
            ));
        }

        // Per sender: frame layout (sorted vnets it publishes on).
        let tx_layouts: Vec<Vec<(VnetId, usize)>> = spec
            .components
            .iter()
            .map(|cs| {
                let mut vnets: Vec<VnetId> = spec
                    .jobs
                    .iter()
                    .filter(|j| j.host == cs.node)
                    .filter_map(|j| j.behavior.output_vnet())
                    .collect();
                vnets.sort_unstable();
                vnets.dedup();
                vnets
                    .into_iter()
                    .map(|v| {
                        let bytes = deployed
                            .iter()
                            .find(|c| c.id == v)
                            .expect("validated vnet")
                            .bytes_per_slot;
                        (v, bytes)
                    })
                    .collect()
            })
            .collect();

        // Per component: networks with local consumers (delivery follows
        // subscription; unsubscribed traffic must not fill local queues).
        let rx_vnets: Vec<Vec<VnetId>> = spec
            .components
            .iter()
            .map(|cs| {
                let mut vnets: Vec<VnetId> = spec
                    .jobs
                    .iter()
                    .filter(|j| j.host == cs.node)
                    .flat_map(|j| j.behavior.input_vnets())
                    .collect();
                vnets.sort_unstable();
                vnets.dedup();
                vnets
            })
            .collect();

        let jobs: Vec<JobRuntime> = spec.jobs.iter().cloned().map(JobRuntime::new).collect();
        let job_index: BTreeMap<JobId, usize> =
            jobs.iter().enumerate().map(|(i, j)| (j.spec().id, i)).collect();
        let job_rngs = jobs.iter().map(|j| seeds.stream("job", j.spec().id.0 as u64)).collect();
        let hosted_idx: Vec<Vec<usize>> =
            comps.iter().map(|c| c.hosted().iter().map(|jid| job_index[jid]).collect()).collect();

        let round_len = schedule.round_len();
        let plan = schedule.round_plan();
        // The overflow shadow starts in sync with the fresh (all-zero)
        // endpoint counters.
        let mut scratch = Box::<StepScratch>::default();
        overflow_snapshot_into(&comps, &mut scratch.overflow_shadow);
        let params = ChannelParams::default();
        let fast_window_ns = match params.guardian {
            GuardianMode::Enforcing { window_half_ns } => {
                window_half_ns.min(params.rx_window_half_ns)
            }
            GuardianMode::None => params.rx_window_half_ns,
        };
        Ok(ClusterSim {
            spec,
            schedule,
            plan,
            force_legacy: false,
            slot_bodies: (0, 0),
            lattice,
            lif,
            lif_index,
            bus: BroadcastBus::new(params),
            comps,
            jobs,
            job_index,
            tx_layouts,
            hosted_idx,
            fast_window_ns,
            round_admits: false,
            rx_vnets,
            next: SlotAddress { round: 0, slot: decos_ttnet::SlotIndex(0) },
            rng_bus: seeds.stream("bus", 0),
            job_rngs,
            round_len,
            scratch: Some(scratch),
        })
    }

    /// Routes every slot through the legacy per-slot body, ignoring the
    /// environment's disturbance hints. The fast and legacy paths are
    /// bit-identical by contract; this switch exists so equivalence tests
    /// can pin that contract.
    pub fn force_legacy_path(&mut self, on: bool) {
        self.force_legacy = on;
    }

    /// How many slots this instance stepped on the (fast, legacy) body.
    /// A plain per-instance count, not a telemetry counter: the body
    /// choice is unobservable by contract and stays out of fingerprints.
    pub fn slot_body_counts(&self) -> (u64, u64) {
        self.slot_bodies
    }

    /// The precomputed per-round dispatch table.
    pub fn round_plan(&self) -> &RoundPlan {
        &self.plan
    }

    /// The cluster specification.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The TDMA schedule.
    pub fn schedule(&self) -> &TdmaSchedule {
        &self.schedule
    }

    /// The sparse-time action lattice.
    pub fn lattice(&self) -> &ActionLattice {
        &self.lattice
    }

    /// The derived LIF records.
    pub fn lif(&self) -> &[PortLif] {
        &self.lif
    }

    /// The LIF record of output port `port`, found in constant time.
    #[inline]
    pub fn lif_of(&self, port: PortId) -> Option<&PortLif> {
        self.lif_index.get(port).map(|i| &self.lif[i])
    }

    /// Nominal start instant of the next slot.
    pub fn now(&self) -> SimTime {
        self.schedule.start_of(self.next)
    }

    /// The round length (job dispatch period).
    pub fn round_len(&self) -> SimDuration {
        self.round_len
    }

    /// Component state by node.
    pub fn component(&self, node: NodeId) -> &ComponentState {
        &self.comps[node.0 as usize]
    }

    /// All components.
    pub fn components(&self) -> &[ComponentState] {
        &self.comps
    }

    /// Job runtime by id.
    pub fn job(&self, id: JobId) -> &JobRuntime {
        &self.jobs[self.job_index[&id]]
    }

    /// Round-boundary housekeeping: lifecycle directives, oscillator drift
    /// updates and fault-tolerant clock resynchronization.
    fn round_boundary<E: Environment + ?Sized>(
        &mut self,
        t: SimTime,
        env: &mut E,
        rec: &mut SlotRecord,
        scratch: &mut StepScratch,
    ) {
        // Lifecycle directives.
        for c in &mut self.comps {
            match env.component_directive(t, c.node()) {
                Some(ComponentDirective::Kill) => c.kill(t),
                Some(ComponentDirective::Restart { dur_ns }) => {
                    c.begin_restart(t, SimDuration::from_nanos(dur_ns));
                }
                None => {}
            }
        }
        // Oscillator drift updates.
        for c in &mut self.comps {
            let extra = env.extra_drift_ppm(t, c.node());
            if extra != 0.0 {
                c.clock.degrade(extra);
            } else {
                c.clock.restore();
            }
        }
        // FTA resynchronization among operational components.
        self.round_admits = false;
        scratch.op.clear();
        scratch.op.extend((0..self.comps.len()).filter(|&i| self.comps[i].is_operational(t)));
        if scratch.op.len() >= 2 {
            scratch.devs.clear();
            scratch.devs.extend(scratch.op.iter().map(|&i| self.comps[i].clock.deviation_ns(t)));
            let k = fta_tolerance(scratch.op.len());
            scratch.corrections.clear();
            scratch.rel.clear();
            scratch.rel.extend_from_slice(&scratch.devs);
            scratch.rel.sort_unstable();
            let sorted = &scratch.rel;
            if sorted[sorted.len() - 1].checked_sub(sorted[0]).is_some() {
                // One sort serves every member (`fta_round_sorted`).
                for &d in &scratch.devs {
                    let pos = sorted.partition_point(|&s| s < d);
                    scratch.corrections.push(
                        fta_round_sorted(sorted, pos, k).map(|r| r.correction_ns).unwrap_or(0),
                    );
                }
            } else {
                // Relative deviations would wrap: each member builds and
                // sorts its own vector.
                for me in 0..scratch.op.len() {
                    scratch.rel.clear();
                    scratch.rel.extend(
                        scratch
                            .devs
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| *j != me)
                            .map(|(_, d)| d - scratch.devs[me]),
                    );
                    scratch.corrections.push(
                        fta_round_in_place(&mut scratch.rel, k)
                            .map(|r| r.correction_ns)
                            .unwrap_or(0),
                    );
                }
            }
            // A reading is linear in the accumulated correction, so the
            // post-correction deviation is the deviation plus the step
            // unless the correction saturated or the sum overflows.
            scratch.post.clear();
            for ((&ci, &dev), &corr) in
                scratch.op.iter().zip(&scratch.devs).zip(&scratch.corrections)
            {
                let clock = &mut self.comps[ci].clock;
                let exact = clock.correction_ns().checked_add(corr).is_some();
                clock.apply_correction(corr);
                scratch.post.push(match dev.checked_add(corr) {
                    Some(post) if exact => post,
                    _ => clock.deviation_ns(t),
                });
            }
            // Post-correction status against the cluster reference. The
            // median (not the mean) is the reference: a single wildly
            // drifting clock must not drag the reference with it and damn
            // the healthy majority.
            scratch.rel.clear();
            scratch.rel.extend_from_slice(&scratch.post);
            let reference = median_i64(&mut scratch.rel);
            for (&ci, &d) in scratch.op.iter().zip(&scratch.post) {
                let before = self.comps[ci].sync_status();
                let after = self.comps[ci].sync.observe(d - reference);
                if before == SyncStatus::Synchronized && after == SyncStatus::SyncLost {
                    rec.sync_losses.push(self.comps[ci].node());
                }
            }
            // The sorted post-correction deviations give the first slot's
            // spread.
            let spread0 =
                scratch.rel[scratch.rel.len() - 1].saturating_sub(scratch.rel[0]).unsigned_abs();
            let t_last = self.plan.start_of(rec.addr.round, self.plan.slots().len() - 1);
            self.round_admits = round_admission_certified(
                &self.comps,
                &scratch.op,
                spread0,
                t_last,
                self.fast_window_ns,
            );
        }
    }

    /// Advances the simulation by one TDMA slot.
    ///
    /// Thin wrapper over [`step_slot_into`](ClusterSim::step_slot_into)
    /// with a fresh record, so the two paths are identical by
    /// construction. Steady-state loops should reuse one record via
    /// `step_slot_into` instead.
    pub fn step_slot(&mut self, env: &mut dyn Environment) -> SlotRecord {
        let mut rec = SlotRecord::empty();
        self.step_slot_into(env, &mut rec);
        rec
    }

    /// Advances the simulation by one TDMA slot, writing the observation
    /// into a reused record.
    ///
    /// `rec` is fully rewritten: scalar fields are overwritten,
    /// `observations` is refilled, and the event lists (`sent`,
    /// `overflow_deltas`, `sync_losses`, `membership_changes`,
    /// `restarts_completed`) are cleared before the step — nothing from the
    /// previous slot survives, only buffer *capacity* persists. Together
    /// with the simulation-owned scratch buffers this makes a fault-free
    /// steady-state step allocation-free after warm-up, and the trace is
    /// bit-identical to repeated [`step_slot`](ClusterSim::step_slot)
    /// calls (same RNG draw order; see
    /// `BroadcastBus::resolve_slot_into`).
    pub fn step_slot_into<E: Environment + ?Sized>(&mut self, env: &mut E, rec: &mut SlotRecord) {
        let addr = self.next;
        let k = addr.slot.0 as usize;
        let t = self.plan.start_of(addr.round, k);
        let owner = self.plan.slots()[k].owner;
        let oidx = owner.0 as usize;
        self.next = if k + 1 < self.plan.slots().len() {
            SlotAddress { round: addr.round, slot: decos_ttnet::SlotIndex(addr.slot.0 + 1) }
        } else {
            SlotAddress { round: addr.round + 1, slot: decos_ttnet::SlotIndex(0) }
        };

        // Detach the scratch so its buffers can be used freely alongside
        // `&mut self` field borrows; reattached at the end of the step.
        let mut scratch = self.scratch.take().expect("scratch attached between steps");

        rec.reset(addr, t, owner, self.comps.len(), &mut scratch.sent_pool);

        env.begin_slot(t, addr);
        if addr.slot.0 == 0 {
            self.round_boundary(t, env, rec, &mut scratch);
        }

        // Complete pending restarts. A completed restart reset the
        // component's endpoints, so the overflow shadow must resync before
        // this slot's accounting.
        let mut restarted = false;
        for c in &mut self.comps {
            if c.poll_restart(t) {
                rec.restarts_completed.push(c.node());
                restarted = true;
            }
        }
        if restarted {
            overflow_snapshot_into(&self.comps, &mut scratch.overflow_shadow);
        }

        // Slot-body choice. Both bodies share the sender side (job dispatch
        // with the environment's job hooks, endpoint drain, loopback) and
        // the receiver side. The fast body skips the channel machinery —
        // transmit/receive disturbances, CRC seal/verify, guardian — whose
        // outcome is already determined: the channel is undisturbed, the
        // owner transmits, and its send offset lies inside both the
        // guardian and the receive windows, so every operational receiver
        // judges `Correct`. Any other slot takes the legacy body.
        //
        // The send offset is the owner's deviation from the cluster's
        // global time base (the median deviation of operational clocks).
        // The deviation *spread* of the operational clocks dominates any
        // owner-to-median distance, so clean slots admit on that cheap
        // bound and skip the median sort; otherwise the median is computed
        // once and the exact offset decides (the legacy body reuses it).
        // A round whose boundary certified the spread bound for every slot
        // (`round_admits`) skips the per-slot spread reads too.
        let disturbed = self.force_legacy || env.cluster_disturbed(t);
        let operational = self.comps[oidx].is_operational(t);
        let mut global_dev_ns = None;
        let fast = !disturbed && operational && {
            self.round_admits || deviation_spread(&self.comps, t) <= self.fast_window_ns || {
                let g = self.global_dev_ns(t, &mut scratch.devs);
                global_dev_ns = Some(g);
                self.comps[oidx].clock.deviation_ns(t).abs_diff(g) <= self.fast_window_ns
            }
        };
        if fast {
            self.slot_bodies.0 += 1;
            self.send_side(env, rec, &mut scratch);
        } else {
            self.slot_bodies.1 += 1;
            self.legacy_channel(env, operational, global_dev_ns, rec, &mut scratch);
        }
        self.receive_side(rec, &mut scratch, !fast);

        // --- Loss accounting ----------------------------------------------
        // Counters only move at a push that overflows (or a restart, which
        // re-snapshots above), so the shadow is only walked, and deltas
        // only emitted, in a slot where a push reported an overflow.
        if scratch.overflowed {
            let mut idx = 0usize;
            for c in &self.comps {
                for (id, ep) in &c.endpoints {
                    let (tx, rx) = (ep.tx_overflows(), ep.rx_overflows());
                    let s = &mut scratch.overflow_shadow[idx];
                    debug_assert_eq!((s.0, s.1), (c.node(), *id));
                    if tx != s.2 || rx != s.3 {
                        rec.overflow_deltas.push(OverflowDelta {
                            node: s.0,
                            vnet: s.1,
                            tx: tx - s.2,
                            rx: rx - s.3,
                        });
                        s.2 = tx;
                        s.3 = rx;
                    }
                    idx += 1;
                }
            }
            scratch.overflowed = false;
        }

        self.scratch = Some(scratch);
    }

    /// Advances the simulation over every remaining slot of the current
    /// round (a whole round when entered at a round boundary), feeding
    /// each record — and the environment, for post-slot bookkeeping — to
    /// `sink`.
    pub fn step_round_with<E: Environment + ?Sized>(
        &mut self,
        env: &mut E,
        rec: &mut SlotRecord,
        sink: &mut dyn FnMut(&ClusterSim, &mut E, &SlotRecord),
    ) {
        for _ in self.next.slot.0 as usize..self.plan.slots().len() {
            self.step_slot_into(env, rec);
            sink(self, env, rec);
        }
    }

    /// The global time base: the median clock deviation of the
    /// operational components. Slot boundaries mean this to cluster
    /// members, so a sender's observable send offset is its deviation from
    /// the *synchronized* cluster time, not from omniscient physical time —
    /// common-mode drift is invisible inside the cluster.
    fn global_dev_ns(&self, t: SimTime, devs: &mut Vec<i64>) -> i64 {
        devs.clear();
        devs.extend(
            self.comps.iter().filter(|c| c.is_operational(t)).map(|c| c.clock.deviation_ns(t)),
        );
        median_i64(devs)
    }

    /// The sender side both slot bodies share: dispatch the owner's hosted
    /// jobs through the environment's job hooks, drain its endpoints with
    /// local loopback, and record what was sent in `rec.sent`.
    fn send_side<E: Environment + ?Sized>(
        &mut self,
        env: &mut E,
        rec: &mut SlotRecord,
        scratch: &mut StepScratch,
    ) {
        let (t, oidx) = (rec.start, rec.owner.0 as usize);
        // Dispatch hosted jobs (by index — the hosted list must not be
        // cloned, and jobs never change hosts at runtime).
        for h in 0..self.hosted_idx[oidx].len() {
            let ji = self.hosted_idx[oidx][h];
            let job = &mut self.jobs[ji];
            env.pre_dispatch(t, job);
            scratch.msgs.clear();
            let comp = &mut self.comps[oidx];
            let mut ctx = DispatchCtx {
                now: t,
                round: self.round_len,
                endpoints: &mut comp.endpoints,
                rng: &mut self.job_rngs[ji],
            };
            job.dispatch_into(&mut ctx, &mut scratch.msgs);
            env.filter_outputs(t, job.spec(), &mut scratch.msgs);
            if let Some(ep) =
                job.spec().behavior.output_vnet().and_then(|v| comp.endpoints.get_mut(&v))
            {
                for m in scratch.msgs.drain(..) {
                    scratch.overflowed |= ep.send(m) == PushOutcome::Overflow;
                }
            }
        }

        // Drain endpoints in layout order, with local loopback only where a
        // local job consumes. The drain is capped at the segment's message
        // capacity, so `rec.sent` is exactly what the segments carry.
        for &(vnet, _) in &self.tx_layouts[oidx] {
            let ep = self.comps[oidx].endpoints.get_mut(&vnet).expect("layout vnet has endpoint");
            let mut msgs = scratch.sent_pool.pop().unwrap_or_default();
            ep.drain_for_slot_into(&mut msgs);
            if self.rx_vnets[oidx].contains(&vnet) {
                let before = ep.rx_overflows();
                for m in &msgs {
                    ep.deliver_message(*m);
                }
                scratch.overflowed |= ep.rx_overflows() != before;
            }
            rec.sent.push((vnet, msgs));
        }
        rec.transmitted = true;
    }

    /// The legacy body's channel work around the shared sender side:
    /// transmit disturbance, frame encode and seal, send offset, then
    /// guardian and per-receiver resolution into `scratch.resolve`.
    /// `global_dev_ns` is the time base if the admission test already
    /// computed it.
    fn legacy_channel<E: Environment + ?Sized>(
        &mut self,
        env: &mut E,
        operational: bool,
        global_dev_ns: Option<i64>,
        rec: &mut SlotRecord,
        scratch: &mut StepScratch,
    ) {
        let (t, owner) = (rec.start, rec.owner);
        let tx_dist = env.tx_disturbance(t, owner);
        let transmitted = operational && !tx_dist.silence;
        let mut tx_offset_ns = 0i64;
        if transmitted {
            self.send_side(env, rec, scratch);
            // The channel may corrupt the bytes into a CRC-passing local
            // copy, so this body builds them; the fast body never does.
            let frame = &mut scratch.tx_frame;
            frame.reset_for(owner, rec.addr.round, rec.addr.slot);
            for ((_, msgs), &(_, bytes)) in rec.sent.iter().zip(&self.tx_layouts[owner.0 as usize])
            {
                encode_segment(msgs, bytes, &mut frame.payload);
            }
            frame.seal();
            let g = global_dev_ns.unwrap_or_else(|| self.global_dev_ns(t, &mut scratch.devs));
            tx_offset_ns =
                self.comps[owner.0 as usize].clock.deviation_ns(t) - g + tx_dist.extra_offset_ns;
        }

        scratch.rx_dist.clear();
        for c in &self.comps {
            scratch.rx_dist.push(if c.node() == owner || !c.is_operational(t) {
                RxDisturbance::NONE
            } else {
                env.rx_disturbance(t, owner, c.node())
            });
        }
        let tx = TxSignal {
            frame: if transmitted { Some(&scratch.tx_frame) } else { None },
            offset_ns: tx_offset_ns,
            source_corrupt_bits: tx_dist.corrupt_bits,
        };
        self.bus.resolve_slot_into(tx, &scratch.rx_dist, &mut self.rng_bus, &mut scratch.resolve);
    }

    /// The receiver side both slot bodies share: judge the slot at every
    /// component, feed membership, and deliver subscribed segments. With
    /// `resolved` the verdicts come from the channel resolution and the
    /// delivered bytes are decoded; without it (the fast body) every
    /// operational receiver judges `Correct` and gets the drained messages
    /// in `rec.sent` directly, which is what decoding the lossless segments
    /// would deliver.
    fn receive_side(&mut self, rec: &mut SlotRecord, scratch: &mut StepScratch, resolved: bool) {
        let (t, owner, oidx) = (rec.start, rec.owner, rec.owner.0 as usize);
        let layout = &self.tx_layouts[oidx];
        for i in 0..self.comps.len() {
            if i == oidx {
                rec.observations[i] = ObsKind::Own;
                continue;
            }
            let comp = &mut self.comps[i];
            if !comp.is_operational(t) {
                rec.observations[i] = ObsKind::Offline;
                continue;
            }
            let (verdict, payload) = if resolved {
                let v = scratch.resolve.verdicts[i];
                (v, scratch.resolve.delivered_payload(v))
            } else {
                (SlotVerdict::Correct, None)
            };
            let kind = match verdict {
                SlotVerdict::Correct | SlotVerdict::CorrectLocal(_) => ObsKind::Correct,
                SlotVerdict::Omission => ObsKind::Omission,
                SlotVerdict::InvalidCrc { .. } => ObsKind::InvalidCrc,
                // Out-of-window frames are discarded by the receiver.
                SlotVerdict::TimingViolation { offset_ns } => {
                    ObsKind::TimingViolation { offset_ns }
                }
            };
            rec.observations[i] = kind;
            if let Some(change) =
                comp.membership.observe_slot(owner, matches!(kind, ObsKind::Correct))
            {
                rec.membership_changes.push((comp.node(), change));
            }
            let rx_vnets = &self.rx_vnets[i];
            if resolved {
                let Some(payload) = payload else { continue };
                let mut off = 0usize;
                for &(vnet, bytes) in layout {
                    let seg = &payload[off..(off + bytes).min(payload.len())];
                    off += bytes;
                    if !rx_vnets.contains(&vnet) {
                        continue;
                    }
                    if let Some(ep) = comp.endpoints.get_mut(&vnet) {
                        let before = ep.rx_overflows();
                        let _ = ep.deliver_segment(seg);
                        scratch.overflowed |= ep.rx_overflows() != before;
                    }
                }
            } else {
                for ((vnet, msgs), &(_, bytes)) in rec.sent.iter().zip(layout) {
                    if !rx_vnets.contains(vnet) {
                        continue;
                    }
                    if let Some(ep) = comp.endpoints.get_mut(vnet) {
                        let before = ep.rx_overflows();
                        let _ = ep.deliver_messages(msgs, bytes);
                        scratch.overflowed |= ep.rx_overflows() != before;
                    }
                }
            }
        }
    }

    /// Runs `n` whole rounds, feeding every record to `sink` (one reused
    /// record; `sink` must copy anything it wants to keep).
    pub fn run_rounds(
        &mut self,
        n: u64,
        env: &mut dyn Environment,
        sink: &mut dyn FnMut(&ClusterSim, &SlotRecord),
    ) {
        let mut rec = SlotRecord::empty();
        for _ in 0..n {
            self.step_round_with(env, &mut rec, &mut |sim, _env, rec| sink(sim, rec));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::NullEnvironment;
    use crate::fig10;
    use proptest::prelude::*;

    #[test]
    fn lif_of_agrees_with_a_scan_of_lif() {
        for spec in [fig10::reference_spec(), crate::avionics::avionics_spec()] {
            let sim = ClusterSim::new(spec, 1).unwrap();
            let max = sim.lif().iter().map(|l| l.port.0).max().unwrap();
            for p in 0..=max + 2 {
                let port = PortId(p);
                assert_eq!(sim.lif_of(port), sim.lif().iter().find(|l| l.port == port), "{port}");
            }
        }
    }

    #[test]
    fn reference_cluster_builds() {
        let spec = fig10::reference_spec();
        assert_eq!(spec.validate(), Ok(()));
        let sim = ClusterSim::new(spec, 1).unwrap();
        assert_eq!(sim.components().len(), 4);
        assert!(!sim.lif().is_empty());
    }

    #[test]
    fn fault_free_run_is_clean() {
        let mut sim = ClusterSim::new(fig10::reference_spec(), 2).unwrap();
        let mut env = NullEnvironment;
        let mut errors = 0u64;
        let mut overflows = 0u64;
        let mut sync_losses = 0u64;
        sim.run_rounds(500, &mut env, &mut |_, rec| {
            errors += rec.observations.iter().filter(|o| o.is_error()).count() as u64;
            overflows += rec.overflow_deltas.len() as u64;
            sync_losses += rec.sync_losses.len() as u64;
        });
        assert_eq!(errors, 0, "fault-free cluster must produce no slot errors");
        assert_eq!(overflows, 0, "correctly dimensioned queues must not overflow");
        assert_eq!(sync_losses, 0, "nominal drift must stay synchronized");
    }

    #[test]
    fn fault_free_run_delivers_application_traffic() {
        let mut sim = ClusterSim::new(fig10::reference_spec(), 3).unwrap();
        let mut env = NullEnvironment;
        sim.run_rounds(200, &mut env, &mut |_, _| {});
        // The voter produced outputs (TMR path works end to end).
        let voter = sim.job(fig10::jobs::VOTER);
        assert!(voter.counters().produced > 150, "voter output missing");
        assert_eq!(voter.divergence().no_majority(), 0);
        // The consumer consumed events.
        let consumer = sim.job(fig10::jobs::C3);
        assert!(consumer.counters().consumed > 0, "no events consumed");
        // The controller actuated and published its command.
        assert!(sim.job(fig10::jobs::A3).counters().produced > 0, "no command published");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut sim = ClusterSim::new(fig10::reference_spec(), seed).unwrap();
            let mut env = NullEnvironment;
            let mut trace = Vec::new();
            sim.run_rounds(50, &mut env, &mut |_, rec| trace.push(rec.clone()));
            trace
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn degenerate_segments_agree_on_both_bodies() {
        // A segment under two bytes cannot hold its count header: each
        // subscribed receiver counts a decode error and delivers nothing.
        // The fast body never builds the bytes, so it must count the same.
        let run = |legacy| {
            let mut spec = fig10::reference_spec();
            spec.vnets[0].bytes_per_slot = 0;
            spec.vnets[1].bytes_per_slot = 1;
            let mut sim = ClusterSim::new(spec, 5).unwrap();
            sim.force_legacy_path(legacy);
            let mut trace = Vec::new();
            sim.run_rounds(50, &mut NullEnvironment, &mut |_, rec| trace.push(rec.clone()));
            let errors: Vec<(NodeId, VnetId, u64)> = sim
                .components()
                .iter()
                .flat_map(|c| c.endpoints.iter().map(|(v, ep)| (c.node(), *v, ep.decode_errors())))
                .collect();
            (trace, errors, sim.slot_body_counts())
        };
        let (fast, fast_errors, fast_bodies) = run(false);
        let (legacy, legacy_errors, legacy_bodies) = run(true);
        assert_eq!(fast_bodies, (200, 0));
        assert_eq!(legacy_bodies, (0, 200));
        assert_eq!(fast, legacy, "slot records must not depend on the body");
        assert_eq!(fast_errors, legacy_errors, "decode errors must not depend on the body");
        for vnet in [fig10::vnets::S, fig10::vnets::A] {
            assert!(
                fast_errors.iter().any(|&(_, v, n)| v == vnet && n > 0),
                "no decode error counted on {vnet:?}"
            );
        }
    }

    #[test]
    fn spec_validation_catches_errors() {
        let mut spec = fig10::reference_spec();
        spec.jobs[0].host = NodeId(99);
        assert_eq!(spec.validate(), Err(SpecError::UnknownHost(spec.jobs[0].id)));

        let mut spec = fig10::reference_spec();
        spec.jobs[1].das = DasId(99);
        assert_eq!(spec.validate(), Err(SpecError::UnknownDas(spec.jobs[1].id)));

        let mut spec = fig10::reference_spec();
        let dup = spec.jobs[0].clone();
        let mut dup2 = dup.clone();
        dup2.id = JobId(999);
        spec.jobs.push(dup2);
        assert!(matches!(spec.validate(), Err(SpecError::DuplicatePort(_))));

        let mut spec = fig10::reference_spec();
        spec.components.swap(0, 1);
        assert_eq!(spec.validate(), Err(SpecError::NonContiguousNodeIds));
    }

    #[test]
    fn deployed_vnets_apply_defects() {
        let mut spec = fig10::reference_spec();
        let target = spec.vnets[0].id;
        let orig_depth = spec.vnets[0].rx_queue_depth;
        spec.config_defects.push((target, ConfigDefect::UnderDimensionedRxQueue { factor: 2 }));
        let deployed = spec.deployed_vnets();
        let d = deployed.iter().find(|v| v.id == target).unwrap();
        assert_eq!(d.rx_queue_depth, (orig_depth / 2).max(1));
    }

    /// One member of a random round, raw: drift shape, a unit draw,
    /// degradation shape, correction, lifecycle and lifecycle instant.
    type Member = (u8, f64, u8, i64, u8, u64);

    /// A component of the round built from `m` at base drift `base_ppm`.
    /// Unless `wide`, its drift lies within 10⁻³ ppm of the base, so that
    /// the truncation jitter decides the spread; a wide one may lie 50 ppm
    /// off or be degraded by up to 10⁶ ppm. A `hostile` member may carry a
    /// non-finite drift, a huge correction, a dead oscillator or component,
    /// or a restart; lifecycle instants fall anywhere from a round before
    /// `t0` to past `t_end`.
    fn round_member(
        i: usize,
        m: Member,
        wide: bool,
        hostile: bool,
        base_ppm: f64,
        t0: u64,
        t_end: u64,
    ) -> ComponentState {
        let (drift_shape, unit, extra_shape, raw_correction, life, raw_at) = m;
        let offset_ppm = match drift_shape {
            0 => 0.0,
            1 if wide => (unit - 0.5) * 100.0,
            _ => (unit - 0.5) * 2e-3,
        };
        let spec = ComponentSpec {
            node: NodeId(i as u16),
            position: crate::ids::Position { x: 0.0, y: 0.0 },
            drift_ppm: base_ppm + offset_ppm,
        };
        let mut c = ComponentState::new(spec, &[], Vec::new(), 12, MembershipParams::default(), 1);
        match extra_shape {
            5 if hostile => c.clock.degrade(f64::NAN),
            4 if wide => c.clock.degrade((unit - 0.5) * 2e6),
            5 if wide => c.clock.degrade(unit * 1e3),
            _ => {}
        }
        c.clock.apply_correction(if hostile && raw_correction & 1 == 1 {
            raw_correction >> 2
        } else {
            raw_correction % 5_000
        });
        if !hostile {
            return c;
        }
        let before = t0.saturating_sub(t_end - t0 + 1);
        let at = SimTime::from_nanos(before + raw_at % (2 * (t_end - before) + 1));
        match life {
            0..=3 => {}
            4 => c.kill(at.min(SimTime::from_nanos(t0))),
            5 => c.clock.kill(at),
            _ => {
                let from = SimTime::from_nanos(before);
                c.begin_restart(from, at.saturating_since(from));
            }
        }
        c
    }

    proptest! {
        /// Whenever the round certificate holds, the per-slot spread test
        /// admits at every slot start of the round, restarts completing
        /// on the way as in `step_slot_into`. Drifts include degraded and
        /// non-finite ones, clocks carry small and huge corrections,
        /// members may be dead, have a dead oscillator or be restarting,
        /// and slot starts reach past 2^53 ns.
        #[test]
        fn round_certificate_implies_every_slot_admits(
            members in proptest::collection::vec(
                (0u8..3, 0.0..1.0f64, 0u8..6, any::<i64>(), 0u8..8, any::<u64>()),
                2..9,
            ),
            hostility in 0u8..4,
            wide in any::<bool>(),
            base in (0u8..2, -100.0..100.0f64),
            start in (0u8..4, any::<u64>()),
            slot in (0u8..2, any::<u64>()),
            slots in 1u64..33,
            slack in (0u8..5, any::<u64>()),
        ) {
            let base_ppm = if base.0 == 0 { 0.0 } else { base.1 };
            let t0 = match start.0 {
                0 | 1 => start.1 % 20_000_000_000,
                // Around the certified limit of 2^53 ns.
                2 => (1 << 53) - start.1 % 4_000_000_000,
                _ => start.1 % (1 << 60),
            };
            let slot_len = if slot.0 == 0 { 1 + slot.1 % 1_000 } else { 1 + slot.1 % 5_000_000 };
            let t_last = t0 + (slots - 1) * slot_len;
            let mut comps: Vec<ComponentState> = members
                .into_iter()
                .enumerate()
                .map(|(i, m)| {
                    // Half the rounds are benign, a quarter have one hostile
                    // member and a quarter are hostile throughout.
                    let hostile = hostility == 3 || (hostility == 2 && i == 0);
                    round_member(i, m, wide, hostile, base_ppm, t0, t_last + slot_len)
                })
                .collect();
            let (t0, t_last) = (SimTime::from_nanos(t0), SimTime::from_nanos(t_last));
            let op: Vec<usize> = (0..comps.len()).filter(|&i| comps[i].is_operational(t0)).collect();
            let spread0 = deviation_spread(&comps, t0);
            // Windows at and just above the larger end spread, where the
            // rounding allowance decides, and some anywhere above it.
            let slack = match slack.0 {
                0 | 1 => 0,
                2 => slack.1 % 8,
                3 => slack.1 % 64,
                _ => slack.1 % 1_000_000,
            };
            let window = spread0.max(deviation_spread(&comps, t_last)).saturating_add(slack);
            if round_admission_certified(&comps, &op, spread0, t_last, window) {
                for s in 0..slots {
                    let t = t0 + SimDuration::from_nanos(s * slot_len);
                    for c in &mut comps {
                        c.poll_restart(t);
                    }
                    let spread = deviation_spread(&comps, t);
                    prop_assert!(spread <= window, "slot {} spread {} > window {}", s, spread, window);
                }
            }
        }

        /// One sort of the members' deviations yields each member's FTA
        /// round, bit for bit, for every cluster size the FTA serves and
        /// at every position of a repeated deviation.
        #[test]
        fn fta_from_sorted_matches_per_member_fta(
            n in 2usize..13,
            raw in proptest::collection::vec((0u8..3, any::<i64>()), 12),
        ) {
            let devs: Vec<i64> = raw[..n]
                .iter()
                .map(|&(shape, v)| match shape {
                    0 => v % 8,
                    1 => v % 10_000_000,
                    // Wide, yet with a spread that fits an i64.
                    _ => v >> 2,
                })
                .collect();
            let k = fta_tolerance(n);
            let mut sorted = devs.clone();
            sorted.sort_unstable();
            for (me, &own) in devs.iter().enumerate() {
                let mut rel: Vec<i64> = devs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != me)
                    .map(|(_, &d)| d - own)
                    .collect();
                let want = fta_round_in_place(&mut rel, k);
                let first = sorted.partition_point(|&d| d < own);
                let last = sorted.partition_point(|&d| d <= own) - 1;
                for pos in first..=last {
                    prop_assert_eq!(fta_round_sorted(&sorted, pos, k), want, "n {} member {}", n, me);
                }
            }
        }
    }
}
