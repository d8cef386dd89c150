//! The virtual diagnostic network.
//!
//! Symptom messages are "disseminated via a dedicated virtual diagnostic
//! network" (§II-D) — an encapsulated overlay with a fixed bandwidth share,
//! so diagnosis can never perturb application traffic (no probe effect).
//! The flip side of encapsulation is a *bounded* symptom budget: during a
//! massive disturbance more symptoms can be raised than the network can
//! carry per round. This model enforces the budget, prioritizes rarer
//! symptom classes over floods of communication errors, and counts what was
//! dropped — the diagnostic DAS downstream must remain sound under symptom
//! loss.
//!
//! The transport is itself part of the fault model: frames can be lost,
//! bit-corrupted, delayed, or forged by a babbling observer
//! ([`DiagDisturbance`]). The defenses are layered exactly like a real
//! field bus:
//!
//! * **per-frame CRC** — bit corruption is detected with near-certainty and
//!   the frame discarded (`corrupted`); the rare escapes carry mangled
//!   content and fall through to the next layer;
//! * **plausibility screening** (`PlausibilityScreen`) — frames naming
//!   unknown observers/FRUs/jobs or carrying impossible (future)
//!   timestamps are rejected (`rejected`);
//! * **rate screening** — an observer offering more frames per round than
//!   its detector interface could physically produce is babbling; the
//!   excess is flagged and discarded (`forged_suspected`).
//!
//! Each round the network also reports a *transport quality* score — the
//! fraction of offered frames that survived transit — which the diagnostic
//! engine uses to weight pattern confidence and to freeze trust updates
//! when the symptom stream starves ("no evidence" must never read as
//! "evidence of health").

use crate::symptom::{Subject, Symptom, SymptomKind};
use decos_faults::DiagDisturbance;
use decos_platform::{ClusterSpec, DiagNetSpec, JobId, NodeId, SpecError};
use decos_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};

/// Fraction of bit-corrupted frames the per-frame CRC detects. The escapes
/// (mangled content with a coincidentally valid CRC) must be caught by
/// plausibility screening instead.
const CRC_COVERAGE: f64 = 0.99;

/// Delivery statistics of the diagnostic network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DisseminationStats {
    /// Symptoms offered by the detectors (plus any forged traffic).
    pub offered: u64,
    /// Symptoms delivered to the diagnostic DAS.
    pub delivered: u64,
    /// Symptoms dropped for lack of bandwidth or lost in transit.
    pub dropped: u64,
    /// Frames discarded because the per-frame CRC check failed.
    pub corrupted: u64,
    /// Frames rejected by plausibility screening (unknown FRU/job/observer
    /// or impossible timestamp).
    pub rejected: u64,
    /// Frames that arrived late through the store-and-forward delay path.
    pub delayed: u64,
    /// Frames flagged as forged: their observer offered more frames in one
    /// round than its detector interface can physically produce.
    pub forged_suspected: u64,
}

/// Content-level sanity bounds for incoming symptom frames.
///
/// Derived from the static cluster description: the screen knows which
/// components and jobs exist, how far in the future a plausible timestamp
/// can lie, and how many symptoms one observer's detector bank can raise
/// per round (`n_components + n_jobs` observations per slot is a hard
/// physical ceiling — anything beyond it is being fabricated).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct PlausibilityScreen {
    /// Number of components in the cluster (valid `NodeId`s are `0..n`).
    pub n_components: u16,
    /// The deployed job identities.
    pub known_jobs: BTreeSet<JobId>,
    /// Maximum frames one observer may offer per round before the excess
    /// is flagged as forged.
    pub max_per_observer_round: u32,
    /// Maximum tolerated forward timestamp skew.
    pub max_future: SimDuration,
}

impl PlausibilityScreen {
    /// Builds the screen from the cluster's static description.
    pub(crate) fn for_spec(spec: &ClusterSpec) -> Self {
        let n = spec.components.len();
        let jobs: BTreeSet<JobId> = spec.jobs.iter().map(|j| j.id).collect();
        // One observation per (component, job) pair per slot bounds what a
        // real detector bank can emit; one slot per component per round.
        let max_per_observer_round = ((n + jobs.len()) * n.max(1)) as u32;
        PlausibilityScreen {
            n_components: n as u16,
            known_jobs: jobs,
            max_per_observer_round,
            // A plausible timestamp cannot postdate the receiver by more
            // than a couple of rounds of clock skew.
            max_future: SimDuration::from_nanos(
                2 * spec.slot_len.as_nanos().saturating_mul(n.max(1) as u64),
            ),
        }
    }

    /// Whether the frame's naming and timing are plausible. `now` is the
    /// receiver's current time; `None` skips the timestamp check (used by
    /// transports driven without a clock, e.g. unit fixtures).
    fn admits(&self, s: &Symptom, now: Option<SimTime>) -> bool {
        if s.observer.0 >= self.n_components {
            return false;
        }
        let subject_known = match s.subject {
            Subject::Component(n) => n.0 < self.n_components,
            Subject::Job(j) => self.known_jobs.contains(&j),
        };
        if !subject_known {
            return false;
        }
        match now {
            Some(t) => s.at <= t + self.max_future,
            None => true,
        }
    }
}

/// The bounded symptom transport.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct DiagnosticNetwork {
    /// Symptom messages carried per round (the bandwidth share of the
    /// diagnostic virtual network).
    capacity_per_round: usize,
    /// Queued symptoms awaiting the next round (one-round latency).
    queue: VecDeque<Symptom>,
    /// Queue bound (a few rounds of backlog).
    queue_depth: usize,
    stats: DisseminationStats,
    /// Content screening, when the transport knows its cluster.
    screen: Option<PlausibilityScreen>,
    /// Frames offered per observer this round (rate screening).
    observer_counts: Vec<u32>,
    /// Delayed frames with their due round.
    delay_line: VecDeque<(u64, Symptom)>,
    /// Rounds delivered so far (delay-line clock).
    round: u64,
    /// splitmix64 state for transit Bernoulli draws (kept inline so the
    /// transport stays serializable and dependency-free).
    rng_state: u64,
    /// Frames that survived transit this round.
    round_ok: u64,
    /// Frames lost/corrupted in transit this round.
    round_bad: u64,
    /// Transport quality of the last delivered round.
    last_quality: f64,
    /// Frames that were in transit during the last delivered round.
    last_transit: u64,
}

impl DiagnosticNetwork {
    /// Creates a transport carrying `capacity_per_round` symptoms per round
    /// with a backlog bound of `queue_depth`.
    ///
    /// Fails with [`SpecError::InvalidDiagNet`] when the capacity is zero
    /// or the queue cannot hold one round of frames — the same condition
    /// [`ClusterSpec::structural_errors`] reports, so misdimensioned
    /// configurations surface as analyzer diagnostics instead of panics.
    pub(crate) fn new(capacity_per_round: usize, queue_depth: usize) -> Result<Self, SpecError> {
        if capacity_per_round == 0 || queue_depth < capacity_per_round {
            return Err(SpecError::InvalidDiagNet);
        }
        Ok(DiagnosticNetwork {
            capacity_per_round,
            queue: VecDeque::with_capacity(queue_depth),
            queue_depth,
            stats: DisseminationStats::default(),
            screen: None,
            observer_counts: Vec::new(),
            delay_line: VecDeque::new(),
            round: 0,
            rng_state: 0xD1A6_0000_0000_0001,
            round_ok: 0,
            round_bad: 0,
            last_quality: 1.0,
            last_transit: 0,
        })
    }

    /// Builds the transport from a [`DiagNetSpec`].
    pub(crate) fn from_spec(spec: &DiagNetSpec) -> Result<Self, SpecError> {
        Self::new(spec.capacity_per_round as usize, spec.queue_depth as usize)
    }

    /// Attaches content screening (builder style).
    pub(crate) fn with_screen(mut self, screen: PlausibilityScreen) -> Self {
        self.observer_counts = vec![0; screen.n_components as usize];
        self.screen = Some(screen);
        self
    }

    /// Reseeds the transit randomness (campaign runners derive this from
    /// the campaign seed so fleet vehicles see independent loss patterns).
    pub(crate) fn reseed(&mut self, seed: u64) {
        self.rng_state = seed | 1;
    }

    /// Delivery statistics so far.
    pub(crate) fn stats(&self) -> DisseminationStats {
        self.stats
    }

    /// Transport quality of the most recently delivered round: the
    /// fraction of offered frames that survived transit (1.0 when nothing
    /// was in transit). Screen rejections do not lower it — the transport
    /// worked; the *content* was implausible.
    pub(crate) fn last_round_quality(&self) -> f64 {
        self.last_quality
    }

    /// How many frames were in transit during the most recently delivered
    /// round. A round with zero transit carries no information about the
    /// path's health — consumers should not average its (vacuous) quality.
    pub(crate) fn last_round_transit(&self) -> u64 {
        self.last_transit
    }

    fn next_u64(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Priority of a symptom class when the queue is contended: rarer,
    /// higher-information symptoms win over comm-error floods.
    fn priority(kind: &SymptomKind) -> u8 {
        match kind {
            SymptomKind::SyncLoss
            | SymptomKind::MembershipDeparture
            | SymptomKind::ReplicaDivergence { .. } => 0,
            SymptomKind::QueueOverflow { .. }
            | SymptomKind::ValueViolation { .. }
            | SymptomKind::MissedMessage { .. } => 1,
            SymptomKind::ValueDrift { .. } => 2,
            SymptomKind::Omission
            | SymptomKind::InvalidCrc
            | SymptomKind::TimingViolation { .. } => 3,
        }
    }

    /// Enqueues one surviving frame, evicting the lowest-priority queued
    /// symptom if the newcomer outranks it.
    fn enqueue(&mut self, s: Symptom) {
        if self.queue.len() >= self.queue_depth {
            if let Some((idx, _)) =
                self.queue.iter().enumerate().max_by_key(|(_, q)| Self::priority(&q.kind))
            {
                if Self::priority(&s.kind) < Self::priority(&self.queue[idx].kind) {
                    self.queue.remove(idx);
                    self.queue.push_back(s);
                    self.stats.dropped += 1;
                    return;
                }
            }
            self.stats.dropped += 1;
        } else {
            self.queue.push_back(s);
        }
    }

    /// Offers the symptoms detected in one slot, subjecting each frame to
    /// the active diagnostic-path disturbance and to screening. `now` is
    /// the receiver's clock for timestamp plausibility (`None` skips that
    /// check).
    pub(crate) fn offer_disturbed(
        &mut self,
        symptoms: &[Symptom],
        d: &DiagDisturbance,
        now: Option<SimTime>,
    ) {
        self.stats.offered += symptoms.len() as u64;
        for s in symptoms {
            let mut s = *s;
            // --- transit: loss ------------------------------------------
            if d.loss_prob > 0.0 && self.chance(d.loss_prob) {
                self.stats.dropped += 1;
                self.round_bad += 1;
                continue;
            }
            // --- transit: bit corruption + CRC --------------------------
            let mut mangled = false;
            if d.corrupt_prob > 0.0 && self.chance(d.corrupt_prob) {
                if self.chance(CRC_COVERAGE) {
                    self.stats.corrupted += 1;
                    self.round_bad += 1;
                    continue;
                }
                // CRC escape: the frame arrives with mangled content. Push
                // the observer id out of the valid range so the screen has
                // something real to catch (node ids are bounded by 64).
                s.observer = NodeId(s.observer.0.wrapping_add(64));
                mangled = true;
            }
            // --- content screening --------------------------------------
            if let Some(screen) = &self.screen {
                if !screen.admits(&s, now) {
                    self.stats.rejected += 1;
                    if mangled {
                        self.round_bad += 1;
                    }
                    continue;
                }
                // Rate screening: more frames than the observer's detector
                // bank can physically raise means fabrication.
                let idx = s.observer.0 as usize;
                self.observer_counts[idx] += 1;
                if self.observer_counts[idx] > screen.max_per_observer_round {
                    self.stats.forged_suspected += 1;
                    continue;
                }
            }
            self.round_ok += 1;
            // --- store-and-forward delay --------------------------------
            if d.delay_rounds > 0 {
                self.stats.delayed += 1;
                self.delay_line.push_back((self.round + d.delay_rounds as u64, s));
                continue;
            }
            self.enqueue(s);
        }
    }

    /// Delivers one round's worth of symptoms into a reused buffer
    /// (cleared first); returns how many were delivered.
    ///
    /// Also closes the round: due delayed frames are released behind the
    /// current backlog (which is what reorders them relative to fresher
    /// traffic), the per-round transit-quality score is latched, and the
    /// per-observer rate counters reset.
    pub(crate) fn deliver_round_into(&mut self, out: &mut Vec<Symptom>) -> usize {
        // Release delayed frames that have reached their due round. The
        // line is scanned in full: the active delay can shrink over time,
        // so later entries may fall due before earlier ones.
        let mut i = 0;
        while i < self.delay_line.len() {
            if self.delay_line[i].0 <= self.round {
                let (_, s) = self.delay_line.remove(i).expect("index checked");
                self.enqueue(s);
            } else {
                i += 1;
            }
        }
        // Latch the round's transport quality.
        self.last_transit = self.round_ok + self.round_bad;
        self.last_quality = if self.last_transit == 0 {
            1.0
        } else {
            self.round_ok as f64 / self.last_transit as f64
        };
        self.round_ok = 0;
        self.round_bad = 0;
        self.observer_counts.fill(0);
        self.round += 1;

        out.clear();
        let n = self.capacity_per_round.min(self.queue.len());
        out.extend(self.queue.drain(..n));
        self.stats.delivered += n as u64;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symptom::Subject;
    use decos_platform::{fig10, NodeId};
    use decos_sim::SimTime;
    use decos_timebase::LatticePoint;

    /// One healthy slot's symptoms through the engine's entry point.
    fn offer(net: &mut DiagnosticNetwork, symptoms: &[Symptom]) {
        net.offer_disturbed(symptoms, &DiagDisturbance::NONE, None);
    }

    /// Closes one round through the engine's `deliver_round_into`.
    fn deliver(net: &mut DiagnosticNetwork) -> Vec<Symptom> {
        let mut out = Vec::new();
        net.deliver_round_into(&mut out);
        out
    }

    fn sym(kind: SymptomKind) -> Symptom {
        Symptom {
            at: SimTime::ZERO,
            point: LatticePoint(0),
            observer: NodeId(0),
            subject: Subject::Component(NodeId(1)),
            kind,
        }
    }

    fn net(cap: usize, depth: usize) -> DiagnosticNetwork {
        DiagnosticNetwork::new(cap, depth).unwrap()
    }

    #[test]
    fn invalid_dimensioning_is_an_error_not_a_panic() {
        assert_eq!(DiagnosticNetwork::new(0, 8).unwrap_err(), SpecError::InvalidDiagNet);
        assert_eq!(DiagnosticNetwork::new(4, 2).unwrap_err(), SpecError::InvalidDiagNet);
        assert!(DiagnosticNetwork::new(4, 4).is_ok());
    }

    #[test]
    fn delivery_is_fifo_within_budget() {
        let mut net = net(2, 8);
        offer(
            &mut net,
            &[sym(SymptomKind::Omission), sym(SymptomKind::SyncLoss), sym(SymptomKind::Omission)],
        );
        let got = deliver(&mut net);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].kind, SymptomKind::Omission);
        assert_eq!(net.queue.len(), 1);
        assert_eq!(deliver(&mut net).len(), 1);
        assert_eq!(net.stats().delivered, 3);
        assert_eq!(net.stats().dropped, 0);
    }

    #[test]
    fn flood_drops_low_priority_first() {
        let mut net = net(4, 4);
        // Fill with comm-error flood.
        offer(&mut net, &[sym(SymptomKind::Omission); 4]);
        // A high-priority symptom arrives into the full queue.
        offer(&mut net, &[sym(SymptomKind::SyncLoss)]);
        let got = deliver(&mut net);
        assert!(got.iter().any(|s| s.kind == SymptomKind::SyncLoss), "sync loss must survive");
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn low_priority_newcomer_dropped_when_full_of_high() {
        let mut net = net(2, 2);
        offer(&mut net, &[sym(SymptomKind::SyncLoss), sym(SymptomKind::SyncLoss)]);
        offer(&mut net, &[sym(SymptomKind::Omission)]);
        let got = deliver(&mut net);
        assert!(got.iter().all(|s| s.kind == SymptomKind::SyncLoss));
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut net = net(2, 4);
        offer(&mut net, &[sym(SymptomKind::Omission); 6]);
        assert_eq!(net.stats().offered, 6);
        assert_eq!(net.stats().dropped, 2);
        deliver(&mut net);
        deliver(&mut net);
        assert_eq!(net.stats().delivered, 4);
    }

    #[test]
    fn total_loss_delivers_nothing_and_reports_zero_quality() {
        let mut net = net(8, 64);
        let d = DiagDisturbance { loss_prob: 1.0, ..DiagDisturbance::NONE };
        net.offer_disturbed(&[sym(SymptomKind::Omission); 10], &d, None);
        assert_eq!(deliver(&mut net).len(), 0);
        assert_eq!(net.stats().dropped, 10);
        assert!(net.last_round_quality() < 1e-12);
    }

    #[test]
    fn corruption_is_caught_by_crc_or_screen() {
        let spec = fig10::reference_spec();
        let mut net = net(64, 512).with_screen(PlausibilityScreen::for_spec(&spec));
        let d = DiagDisturbance { corrupt_prob: 1.0, ..DiagDisturbance::NONE };
        let frames = vec![sym(SymptomKind::SyncLoss); 500];
        net.offer_disturbed(&frames, &d, Some(SimTime::ZERO));
        // Every frame was corrupted: none may reach the DAS intact.
        assert_eq!(deliver(&mut net).len(), 0);
        let st = net.stats();
        assert!(st.corrupted > 400, "CRC must catch the bulk: {st:?}");
        assert!(st.rejected > 0, "CRC escapes must be screened out: {st:?}");
        assert_eq!(st.corrupted + st.rejected, 500);
        assert!(net.last_round_quality() < 1e-12);
    }

    #[test]
    fn screen_rejects_unknown_frus_and_future_timestamps() {
        let spec = fig10::reference_spec();
        let mut net = net(8, 64).with_screen(PlausibilityScreen::for_spec(&spec));
        let mut unknown_subject = sym(SymptomKind::Omission);
        unknown_subject.subject = Subject::Component(NodeId(99));
        let mut unknown_job = sym(SymptomKind::Omission);
        unknown_job.subject = Subject::Job(decos_platform::JobId(4242));
        let mut from_future = sym(SymptomKind::Omission);
        from_future.at = SimTime::from_millis(60_000);
        let ok = sym(SymptomKind::Omission);
        net.offer_disturbed(
            &[unknown_subject, unknown_job, from_future, ok],
            &DiagDisturbance::NONE,
            Some(SimTime::ZERO),
        );
        assert_eq!(net.stats().rejected, 3);
        assert_eq!(deliver(&mut net).len(), 1);
        // Screen rejections are content failures, not transport failures.
        assert!((net.last_round_quality() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn babbling_observer_excess_is_flagged() {
        let spec = fig10::reference_spec();
        let screen = PlausibilityScreen::for_spec(&spec);
        let cap = screen.max_per_observer_round;
        let mut net = net(64, 4096).with_screen(screen);
        let flood = vec![sym(SymptomKind::Omission); cap as usize + 50];
        net.offer_disturbed(&flood, &DiagDisturbance::NONE, Some(SimTime::ZERO));
        assert_eq!(net.stats().forged_suspected, 50);
        // Legit-volume traffic from another observer is untouched.
        let mut other = sym(SymptomKind::SyncLoss);
        other.observer = NodeId(2);
        net.offer_disturbed(&[other; 3], &DiagDisturbance::NONE, Some(SimTime::ZERO));
        assert_eq!(net.stats().forged_suspected, 50);
    }

    #[test]
    fn delayed_frames_arrive_late_and_reordered() {
        let mut net = net(8, 64);
        let d = DiagDisturbance { delay_rounds: 2, ..DiagDisturbance::NONE };
        net.offer_disturbed(&[sym(SymptomKind::SyncLoss)], &d, None);
        // Fresh, undelayed traffic overtakes the delayed frame.
        offer(&mut net, &[sym(SymptomKind::Omission)]);
        assert_eq!(deliver(&mut net), vec![sym(SymptomKind::Omission)]); // round 0
        assert_eq!(deliver(&mut net).len(), 0); // round 1
        let late = deliver(&mut net); // round 2: due now
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].kind, SymptomKind::SyncLoss);
        assert_eq!(net.stats().delayed, 1);
    }

    #[test]
    fn quality_tracks_partial_loss() {
        let mut net = net(64, 512);
        net.reseed(7);
        let d = DiagDisturbance { loss_prob: 0.5, ..DiagDisturbance::NONE };
        net.offer_disturbed(&[sym(SymptomKind::Omission); 1000], &d, None);
        deliver(&mut net);
        let q = net.last_round_quality();
        assert!((0.4..=0.6).contains(&q), "quality must track the survival rate: {q}");
        // A quiet round reads as full quality (no evidence of transport
        // trouble), and the score is latched per round.
        deliver(&mut net);
        assert!((net.last_round_quality() - 1.0).abs() < 1e-12);
    }
}
