//! Out-of-Norm Assertions — fault patterns in time, value and space.
//!
//! §V-A: "An ONA is a predicate on the distributed system state that
//! encodes a fault pattern in the value, time and space domain." The
//! [`OnaBank`] evaluates all patterns once per TDMA round against the
//! [`DistributedState`] and emits [`PatternMatch`]es.
//!
//! The implemented discrimination logic follows Fig. 8 and §V-C:
//!
//! | evidence | dimension signature | verdict |
//! |---|---|---|
//! | CRC-dominant errors touching ≥ 2 spatially close components within a small Δ | time: burst · space: proximity zone · value: multi-bit | **massive transient** → component external |
//! | omission-dominant errors where one component is both bad *subject* and bad *observer* | time: arbitrary · space: one stub, both directions · value: omissions | **connector** → component borderline |
//! | errors about a single subject, recurring (α-count) or with rising frequency/deviation (trend) | time: recurring/increasing · space: same location · value: any | **internal** → component internal (wearout flagged) |
//! | errors about a single subject, isolated (α below threshold) | time: isolated · space: anywhere | **environmental** → component external |
//! | repeated sync losses / timing violations of one component | time domain | **oscillator** → component internal |
//! | recurring queue overflows while senders conform to their LIF | — | **configuration** → job borderline |
//! | value/omission symptoms of ≥ 2 jobs of different DASs co-hosted on one component | space: within one component | job external ⇒ **component internal** |
//! | value symptoms confined to a single job | — | **job inherent**, sub-divided by value shape (persistent/drift ⇒ transducer, intermittent ⇒ software) |

use crate::state::{DistributedState, ValueSeries};
use crate::symptom::{Subject, SymptomKind};
use decos_faults::{FaultClass, FruRef};
use decos_platform::{ClusterSim, DasId, JobId, NodeId, Position};
use decos_reliability::{AlphaCount, AlphaParams};
use decos_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// A triggered fault pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PatternMatch {
    /// Trigger instant.
    pub at: SimTime,
    /// The FRU the pattern points at.
    pub fru: FruRef,
    /// The maintenance-oriented fault class the pattern indicates.
    pub class: FaultClass,
    /// Stable pattern name (which ONA fired).
    pub pattern: &'static str,
    /// Heuristic confidence in (0, 1].
    pub confidence: f64,
}

/// Tunable parameters of the ONA bank.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnaParams {
    /// Spatial proximity radius for the massive-transient pattern, metres.
    pub zone_radius_m: f64,
    /// Correlation window Δ, in rounds.
    pub corr_window_rounds: usize,
    /// Judgement-interval length for the α-counts, in rounds.
    pub judgement_rounds: usize,
    /// α-count parameters for internal-vs-external discrimination.
    pub alpha: AlphaParams,
    /// Minimum trend-window count before the wearout trend is trusted.
    pub wearout_min_windows: usize,
    /// Minimum positive slope (events/hour per window) for wearout.
    pub wearout_slope_min: f64,
    /// Overflow windows before the configuration pattern fires.
    pub overflow_min_windows: u64,
    /// Job-level symptom events before the job-inherent pattern fires.
    pub job_min_events: u64,
    /// Violation duty cycle (fraction of recent rounds) above which a
    /// job-inherent fault is judged *persistent* (stuck/dead transducer).
    pub stuck_duty: f64,
    /// Recent-round window for job-level duty/trend analysis.
    pub job_window_rounds: usize,
    /// Ablation knob: evaluate the spatial massive-transient ONA.
    pub enable_spatial: bool,
    /// Ablation knob: evaluate the co-host correlation ONA.
    pub enable_cohost: bool,
}

impl Default for OnaParams {
    fn default() -> Self {
        OnaParams {
            zone_radius_m: 1.5,
            corr_window_rounds: 3,
            judgement_rounds: 50,
            alpha: AlphaParams { decay: 0.95, threshold: 2.5 },
            wearout_min_windows: 4,
            wearout_slope_min: 1.0,
            overflow_min_windows: 5,
            job_min_events: 3,
            stuck_duty: 0.9,
            job_window_rounds: 200,
            enable_spatial: true,
            enable_cohost: true,
        }
    }
}

/// Reused per-round evaluation buffers of the communication patterns
/// (capacity persists across rounds; contents are rebuilt each round).
#[derive(Debug, Default)]
struct CommScratch {
    tx_event: Vec<bool>,
    rx_event: Vec<bool>,
    col_om: Vec<u64>,
    col_crc: Vec<u64>,
    zone: Vec<usize>,
}

/// Reused per-round buffers of the job-level patterns (capacity persists
/// across rounds; contents are rebuilt each round).
#[derive(Debug, Default)]
struct JobScratch {
    /// Jobs with recent job-level symptoms, ascending, each once.
    recent: Vec<JobId>,
    /// `(host, job, DAS)` of the recent jobs the bank knows, sorted.
    by_host: Vec<(NodeId, JobId, DasId)>,
    /// Hosts the co-host pattern blamed this round.
    cohost_hosts: Vec<NodeId>,
}

/// Per-job static facts the bank needs.
#[derive(Debug, Clone)]
struct JobFacts {
    host: NodeId,
    das: DasId,
    /// Jobs whose outputs this job consumes (root-cause suppression: a
    /// consumer failing because its producer is silent is not itself
    /// faulty).
    upstream: Vec<JobId>,
}

/// The ONA bank: all pattern evaluators plus their persistent evidence.
pub struct OnaBank {
    params: OnaParams,
    positions: Vec<Position>,
    jobs: BTreeMap<JobId, JobFacts>,
    /// α-count per component for tx-side (subject) error recurrence.
    alpha_subject: BTreeMap<NodeId, AlphaCount>,
    /// α-count per component for stub (both-direction) error recurrence.
    alpha_stub: BTreeMap<NodeId, AlphaCount>,
    /// α-count per component for sync-loss recurrence.
    alpha_sync: BTreeMap<NodeId, AlphaCount>,
    /// Whether each component accumulated subject-side errors in the
    /// current judgement interval.
    window_subject_fail: BTreeMap<NodeId, bool>,
    window_stub_fail: BTreeMap<NodeId, bool>,
    window_sync_fail: BTreeMap<NodeId, bool>,
    /// Last seen sync-loss totals (delta detection).
    prev_sync: BTreeMap<NodeId, u64>,
    /// Per-job overflow-window accounting.
    prev_overflow: BTreeMap<JobId, u64>,
    overflow_windows: BTreeMap<JobId, u64>,
    /// Components with comm-level events in the recent window, with the
    /// round they were last seen (job-level symptoms of jobs hosted there
    /// are explained by the comm fault and suppressed).
    comm_affected: BTreeMap<NodeId, u64>,
    /// TDMA round length in seconds (duty-cycle normalization).
    round_secs: f64,
    rounds: u64,
    /// Reused comm-pattern buffers.
    scratch: CommScratch,
    /// Reused job-pattern buffers.
    job_scratch: JobScratch,
}

impl OnaBank {
    /// Builds the bank for a cluster.
    pub fn new(sim: &ClusterSim, params: OnaParams) -> Self {
        let positions = sim.spec().components.iter().map(|c| c.position).collect();
        // Producer lookup by output port for upstream edges.
        let producer_of: BTreeMap<decos_vnet::PortId, JobId> = sim
            .spec()
            .jobs
            .iter()
            .filter_map(|j| j.behavior.output_port().map(|p| (p, j.id)))
            .collect();
        let jobs = sim
            .spec()
            .jobs
            .iter()
            .map(|j| {
                let input_ports: Vec<decos_vnet::PortId> = match &j.behavior {
                    decos_platform::JobBehavior::Controller { input_src, .. }
                    | decos_platform::JobBehavior::Gateway { input_src, .. } => vec![*input_src],
                    decos_platform::JobBehavior::TmrVoter { inputs, .. } => inputs.to_vec(),
                    decos_platform::JobBehavior::EventConsumer { sources, .. } => sources.clone(),
                    _ => Vec::new(),
                };
                let upstream: Vec<JobId> =
                    input_ports.iter().filter_map(|p| producer_of.get(p).copied()).collect();
                (j.id, JobFacts { host: j.host, das: j.das, upstream })
            })
            .collect();
        OnaBank {
            params,
            positions,
            jobs,
            alpha_subject: BTreeMap::new(),
            alpha_stub: BTreeMap::new(),
            alpha_sync: BTreeMap::new(),
            window_subject_fail: BTreeMap::new(),
            window_stub_fail: BTreeMap::new(),
            window_sync_fail: BTreeMap::new(),
            prev_sync: BTreeMap::new(),
            prev_overflow: BTreeMap::new(),
            overflow_windows: BTreeMap::new(),
            comm_affected: BTreeMap::new(),
            round_secs: sim.round_len().as_secs_f64(),
            rounds: 0,
            scratch: CommScratch::default(),
            job_scratch: JobScratch::default(),
        }
    }

    /// Evaluates all ONAs into a reused buffer (cleared first); returns the
    /// number of matches.
    pub fn evaluate_round_into(
        &mut self,
        now: SimTime,
        ds: &DistributedState,
        out: &mut Vec<PatternMatch>,
    ) -> usize {
        out.clear();
        self.rounds += 1;
        // Detach the scratch so its buffers can be filled alongside `&mut
        // self` borrows inside the evaluators.
        let mut scratch = std::mem::take(&mut self.scratch);
        self.comm_patterns(now, ds, out, &mut scratch);
        self.scratch = scratch;
        self.sync_pattern(now, ds, out);
        self.overflow_pattern(now, ds, out);
        let mut job_scratch = std::mem::take(&mut self.job_scratch);
        self.job_patterns(now, ds, out, &mut job_scratch);
        self.job_scratch = job_scratch;
        out.len()
    }

    // ---------------------------------------------------------------------
    // Communication-level patterns (massive transient / connector /
    // internal-vs-external).
    // ---------------------------------------------------------------------
    fn comm_patterns(
        &mut self,
        now: SimTime,
        ds: &DistributedState,
        out: &mut Vec<PatternMatch>,
        scratch: &mut CommScratch,
    ) {
        let m = ds.pair_matrix(self.params.corr_window_rounds);
        let n_comp = self.positions.len();

        // Per-component roles in the window. A *tx event* at c needs the
        // agreement of (essentially) all other components: source-side
        // corruption or silence is broadcast, so every operational receiver
        // sees it. An *rx event* at o needs complaints by o about subjects
        // that are NOT tx-event subjects — i.e. errors only o can see,
        // which places the fault on o's receive path.
        let CommScratch { tx_event, rx_event, col_om, col_crc, zone } = scratch;
        tx_event.clear();
        tx_event.resize(n_comp, false);
        rx_event.clear();
        rx_event.resize(n_comp, false);
        col_om.clear();
        col_om.resize(n_comp, 0);
        col_crc.clear();
        col_crc.resize(n_comp, 0);
        let tx_need = (n_comp - 1).max(1);
        for c in 0..n_comp {
            let node = NodeId(c as u16);
            let (om, crc) = m.col_counts(node);
            col_om[c] = om;
            col_crc[c] = crc;
            tx_event[c] = m.col_breadth(node) >= tx_need;
        }
        for (o, rx) in rx_event.iter_mut().enumerate() {
            let node = NodeId(o as u16);
            let observer_specific = m
                .pairs
                .keys()
                .filter(|(obs, subj)| *obs == node && !tx_event[subj.0 as usize])
                .count();
            *rx = observer_specific >= 2.min(n_comp - 1);
        }
        zone.clear();
        zone.extend((0..n_comp).filter(|&c| tx_event[c] || rx_event[c]));
        for &c in zone.iter() {
            self.comm_affected.insert(NodeId(c as u16), self.rounds);
        }
        if zone.is_empty() {
            self.flush_judgement_window(now);
            return;
        }

        let total_om: u64 = col_om.iter().sum();
        let total_crc: u64 = col_crc.iter().sum();
        let crc_dominant = total_crc > total_om;

        // Massive transient: ≥ 2 affected components, spatially clustered,
        // corruption-dominant (multiple bit flips).
        let clustered = self.params.enable_spatial
            && zone.len() >= 2
            && zone.iter().all(|&a| {
                zone.iter().all(|&b| {
                    self.positions[a].distance(&self.positions[b]) <= self.params.zone_radius_m
                })
            });
        if clustered && crc_dominant {
            for &c in zone.iter() {
                out.push(PatternMatch {
                    at: now,
                    fru: FruRef::Component(NodeId(c as u16)),
                    class: FaultClass::ComponentExternal,
                    pattern: "massive-transient",
                    confidence: 0.9,
                });
            }
            self.flush_judgement_window(now);
            return;
        }

        // Per-component analysis.
        for &c in zone.iter() {
            let node = NodeId(c as u16);
            let om_dominant = col_om[c] >= col_crc[c];
            if tx_event[c] && rx_event[c] && om_dominant {
                // Stub fault: the component neither reaches the bus nor
                // hears it — connector.
                *self.window_stub_fail.entry(node).or_insert(false) = true;
                let declared =
                    self.alpha_stub.get(&node).map(AlphaCount::is_declared).unwrap_or(false);
                out.push(PatternMatch {
                    at: now,
                    fru: FruRef::Component(node),
                    class: FaultClass::ComponentBorderline,
                    pattern: "connector",
                    confidence: if declared { 0.9 } else { 0.55 },
                });
            } else if tx_event[c] {
                *self.window_subject_fail.entry(node).or_insert(false) = true;
                let declared =
                    self.alpha_subject.get(&node).map(AlphaCount::is_declared).unwrap_or(false);
                let trend = ds.subject_err_trend(node).unwrap_or(0.0);
                let windows = ds.subject_err_windows(node).map(<[u64]>::len).unwrap_or(0);
                let wearing = windows >= self.params.wearout_min_windows
                    && trend >= self.params.wearout_slope_min;
                if declared || wearing {
                    out.push(PatternMatch {
                        at: now,
                        fru: FruRef::Component(node),
                        class: FaultClass::ComponentInternal,
                        pattern: if wearing { "wearout" } else { "recurring-internal" },
                        confidence: if declared && wearing { 0.95 } else { 0.8 },
                    });
                } else {
                    // Isolated transient at one location: judged
                    // environmental until recurrence says otherwise.
                    out.push(PatternMatch {
                        at: now,
                        fru: FruRef::Component(node),
                        class: FaultClass::ComponentExternal,
                        pattern: "isolated-transient",
                        confidence: 0.4,
                    });
                }
            } else if rx_event[c] && om_dominant {
                // Receive path only: connector stub, weaker evidence.
                *self.window_stub_fail.entry(node).or_insert(false) = true;
                out.push(PatternMatch {
                    at: now,
                    fru: FruRef::Component(node),
                    class: FaultClass::ComponentBorderline,
                    pattern: "connector-rx",
                    confidence: 0.45,
                });
            }
        }
        self.flush_judgement_window(now);
    }

    /// Feeds the per-window failure flags into the α-counts at judgement-
    /// interval boundaries.
    fn flush_judgement_window(&mut self, _now: SimTime) {
        if self.rounds % self.params.judgement_rounds as u64 != 0 {
            return;
        }
        for c in 0..self.positions.len() {
            let node = NodeId(c as u16);
            let sf = std::mem::take(self.window_subject_fail.entry(node).or_insert(false));
            self.alpha_subject
                .entry(node)
                .or_insert_with(|| AlphaCount::new(self.params.alpha))
                .observe(sf);
            let cf = std::mem::take(self.window_stub_fail.entry(node).or_insert(false));
            self.alpha_stub
                .entry(node)
                .or_insert_with(|| AlphaCount::new(self.params.alpha))
                .observe(cf);
            let yf = std::mem::take(self.window_sync_fail.entry(node).or_insert(false));
            self.alpha_sync
                .entry(node)
                .or_insert_with(|| AlphaCount::new(self.params.alpha))
                .observe(yf);
        }
    }

    // ---------------------------------------------------------------------
    // Oscillator pattern: sync losses / recurring timing violations.
    // ---------------------------------------------------------------------
    fn sync_pattern(&mut self, now: SimTime, ds: &DistributedState, out: &mut Vec<PatternMatch>) {
        for c in 0..self.positions.len() {
            let node = NodeId(c as u16);
            let total = ds.comp_count(node, "sync-loss");
            let prev = self.prev_sync.entry(node).or_insert(0);
            if total > *prev {
                *prev = total;
                *self.window_sync_fail.entry(node).or_insert(false) = true;
                let declared =
                    self.alpha_sync.get(&node).map(AlphaCount::is_declared).unwrap_or(false);
                out.push(PatternMatch {
                    at: now,
                    fru: FruRef::Component(node),
                    class: if declared || total >= 3 {
                        FaultClass::ComponentInternal
                    } else {
                        FaultClass::ComponentExternal
                    },
                    pattern: "oscillator",
                    confidence: if total >= 3 { 0.85 } else { 0.4 },
                });
            }
        }
    }

    // ---------------------------------------------------------------------
    // Configuration pattern: recurring queue overflows with conforming
    // senders.
    // ---------------------------------------------------------------------
    fn overflow_pattern(
        &mut self,
        now: SimTime,
        ds: &DistributedState,
        out: &mut Vec<PatternMatch>,
    ) {
        for j in ds.symptomatic_jobs() {
            let total = ds.job_count(j, "queue-overflow");
            let prev = self.prev_overflow.entry(j).or_insert(0);
            if total > *prev {
                *prev = total;
                let w = self.overflow_windows.entry(j).or_insert(0);
                *w += 1;
                if *w >= self.params.overflow_min_windows {
                    // Senders conform (no value/timing violations recorded
                    // against any job) — the queue dimensioning is wrong.
                    let senders_conform = ds.job_count(j, "value-violation") == 0;
                    if senders_conform {
                        out.push(PatternMatch {
                            at: now,
                            fru: FruRef::Job(j),
                            class: FaultClass::JobBorderline,
                            pattern: "configuration",
                            confidence: (0.5 + 0.05 * *w as f64).min(0.9),
                        });
                    }
                }
            }
        }
    }

    // ---------------------------------------------------------------------
    // Job-level patterns: co-host correlation and job-inherent analysis.
    // ---------------------------------------------------------------------
    fn job_patterns(
        &self,
        now: SimTime,
        ds: &DistributedState,
        out: &mut Vec<PatternMatch>,
        scratch: &mut JobScratch,
    ) {
        // Gather jobs with *recent* job-level symptoms, in ascending order.
        let JobScratch { recent, by_host, cohost_hosts } = scratch;
        let window = self.params.corr_window_rounds.max(8);
        recent.clear();
        recent.extend(ds.recent_symptoms(window).filter_map(|s| match (s.subject, &s.kind) {
            (
                Subject::Job(j),
                SymptomKind::ValueViolation { .. }
                | SymptomKind::MissedMessage { .. }
                | SymptomKind::ReplicaDivergence { .. },
            ) => Some(j),
            _ => None,
        }));
        if recent.is_empty() {
            return;
        }
        recent.sort_unstable();
        recent.dedup();

        // Co-host correlation: ≥ 2 symptomatic jobs of *different DASs* on
        // one component ⇒ the shared hardware is the cause (§V-C). Hosts
        // are visited in ascending order.
        cohost_hosts.clear();
        if self.params.enable_cohost {
            by_host.clear();
            by_host.extend(
                recent.iter().filter_map(|j| self.jobs.get(j).map(|f| (f.host, *j, f.das))),
            );
            by_host.sort_unstable();
            for group in by_host.chunk_by(|a, b| a.0 == b.0) {
                let host = group[0].0;
                if group.len() >= 2 && group.iter().any(|e| e.2 != group[0].2) {
                    cohost_hosts.push(host);
                    out.push(PatternMatch {
                        at: now,
                        fru: FruRef::Component(host),
                        class: FaultClass::ComponentInternal,
                        pattern: "cohost-correlation",
                        confidence: 0.85,
                    });
                }
            }
        }

        // Job-inherent analysis for jobs not explained by their host or by
        // a failing upstream producer (root-cause suppression: within a
        // DAS, fault effects propagate downstream).
        for &j in recent.iter() {
            let Some(facts) = self.jobs.get(&j) else {
                continue;
            };
            if cohost_hosts.contains(&facts.host) {
                continue;
            }
            if facts.upstream.iter().any(|u| recent.binary_search(u).is_ok()) {
                continue;
            }
            // A comm-level problem at (or recently at) the hosting
            // component — or at a host of an upstream producer — explains
            // job-level anomalies without blaming the job.
            let comm_window = 8;
            let comm_recent = |n: &NodeId| {
                self.comm_affected.get(n).is_some_and(|r| self.rounds - r <= comm_window)
            };
            if comm_recent(&facts.host)
                || facts
                    .upstream
                    .iter()
                    .any(|u| self.jobs.get(u).is_some_and(|f| comm_recent(&f.host)))
            {
                continue;
            }
            let events = ds.job_count(j, "value-violation")
                + ds.job_count(j, "missed-message")
                + ds.job_count(j, "replica-divergence");
            if events < self.params.job_min_events {
                continue;
            }
            let (class, pattern, confidence) = self.classify_job_inherent(j, ds);
            out.push(PatternMatch { at: now, fru: FruRef::Job(j), class, pattern, confidence });
        }
    }

    /// Sub-divides a job-inherent fault by the *shape* of its value-domain
    /// evidence. The paper notes the two types cannot be distinguished from
    /// the interface alone with certainty (§III-D); this heuristic encodes
    /// the shapes that are distinguishable: persistent/stuck and monotone
    /// drift point at the transducer, intermittent wrongness at software.
    ///
    /// Cost: the duty cycle and the spread read only the last
    /// `job_window_rounds` entries of the value series. The whole-series
    /// slope runs only once the duty and endpoint tests of the drift
    /// verdict have passed, and is then read off the series' running sums
    /// in constant time unless their certificate refuses.
    fn classify_job_inherent(
        &self,
        j: JobId,
        ds: &DistributedState,
    ) -> (FaultClass, &'static str, f64) {
        // Missed messages every round: dead transducer (or crashed job —
        // inspect first).
        let missed = ds.job_count(j, "missed-message");
        let viol = ds.job_count(j, "value-violation");
        if missed > viol.max(3) * 3 {
            return (FaultClass::JobInherentTransducer, "transducer-dead", 0.75);
        }

        if let Some(values) = ds.job_value_series(j) {
            let series = values.points();
            let take = series.len().min(self.params.job_window_rounds);
            if take >= 3 {
                let recent = series.range(series.len() - take..);
                // Duty cycle: violations per round over the recent span.
                let span = series[series.len() - 1].0 - series[series.len() - take].0;
                let span_rounds = (span.as_secs_f64() / self.round_secs).max(1.0);
                let viols = recent.clone().filter(|e| e.2).count();
                let duty = (viols as f64 / span_rounds).min(1.0);

                if duty > 0.3 && rising(values) {
                    return (FaultClass::JobInherentTransducer, "transducer-drift", 0.8);
                }
                if duty >= self.params.stuck_duty && violation_spread(recent) < 1e-6 {
                    // Persistent violation repeating the identical value.
                    return (FaultClass::JobInherentTransducer, "transducer-stuck", 0.8);
                }
                // Intermittent or value-tracking wrongness: software design
                // fault (Bohrbug if episodic, Heisenbug if sparse).
                return (FaultClass::JobInherentSoftware, "software-design", 0.7);
            }
        }
        // Divergence-only evidence with nothing else: software-ish, weak.
        (FaultClass::JobInherentSoftware, "software-design", 0.5)
    }
}

/// The magnitude trend test of the drift verdict, over the
/// *long-horizon* series: drift is a slow process, and judging it on a
/// short window would miss growth that is obvious over the campaign.
///
/// The series is rising when its last magnitude clears the first by 20%
/// plus 0.1 and its least-squares slope is positive. The endpoint test
/// runs first and costs two short scans; the slope sign then costs
/// constant time while the running sums certify it (see
/// [`slope_rises`]).
fn rising(series: &ValueSeries) -> bool {
    // Prefer the violation magnitudes (one consistent unit); fall back to
    // the drift-proximity series before the first violations.
    let viol_only = series.sums(true).n() >= 3;
    let pts = slope_points(series.points(), viol_only);
    let (Some((_, first_mag)), Some((_, last_mag))) = (pts.clone().next(), pts.clone().next_back())
    else {
        return false;
    };
    last_mag > first_mag * 1.2 + 0.1 && slope_rises(series, viol_only)
}

/// Whether the least-squares slope of the series (violations only or
/// all points) is positive: the sign the running sums certify, else the
/// two-pass [`ols_slope_of`] over the points, which stays the reference.
fn slope_rises(series: &ValueSeries, viol_only: bool) -> bool {
    series.sums(viol_only).certified_rising().unwrap_or_else(|| {
        ols_slope_of(slope_points(series.points(), viol_only)).is_some_and(|slope| slope > 0.0)
    })
}

/// The `(seconds, magnitude)` points of a value series, violations only
/// or all of them.
fn slope_points(
    points: &VecDeque<(SimTime, f64, bool)>,
    viol_only: bool,
) -> impl DoubleEndedIterator<Item = (f64, f64)> + Clone + '_ {
    points.iter().filter(move |e| e.2 || !viol_only).map(|e| (e.0.as_secs_f64(), e.1))
}

/// [`decos_sim::stats::ols_slope`] over a re-iterable sequence, in two
/// passes and without a buffer: the first sums n, Σx and Σy, the second
/// Σ(x - x̄)² and Σ(x - x̄)(y - ȳ). Each sum adds the same terms in the
/// same order, from the same -0.0 start as std's `f64` `Sum`, so the
/// result is bit-identical to `ols_slope` over the collected points.
fn ols_slope_of<I>(points: I) -> Option<f64>
where
    I: Iterator<Item = (f64, f64)> + Clone,
{
    let (mut n, mut sum_x, mut sum_y) = (0usize, -0.0_f64, -0.0_f64);
    for (x, y) in points.clone() {
        n += 1;
        sum_x += x;
        sum_y += y;
    }
    if n < 2 {
        return None;
    }
    let (mx, my) = (sum_x / n as f64, sum_y / n as f64);
    let (mut sxx, mut sxy) = (-0.0_f64, -0.0_f64);
    for (x, y) in points {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
    }
    if sxx <= f64::EPSILON {
        return None;
    }
    Some(sxy / sxx)
}

/// Variability of the violation magnitudes in the recent window: a stuck
/// transducer repeats the *identical* reading (zero spread), a systematic
/// software transform tracks the varying computed value.
fn violation_spread<'a>(recent: impl Iterator<Item = &'a (SimTime, f64, bool)> + Clone) -> f64 {
    let mags = recent.filter(|e| e.2).map(|e| e.1);
    let n = mags.clone().count();
    if n < 2 {
        return 0.0;
    }
    let mean = mags.clone().sum::<f64>() / n as f64;
    (mags.map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::SymptomDetectors;
    use decos_faults::{FaultEnvironment, FaultSpec};
    use decos_platform::fig10;
    use decos_sim::stats::ols_slope;
    use decos_sim::{SeedSource, SimDuration};
    use proptest::prelude::*;

    /// The classifier scenarios: cluster, campaign, rate acceleration and
    /// rounds, by name.
    fn scenario(name: &str) -> (decos_platform::ClusterSpec, Vec<FaultSpec>, f64, u64) {
        use decos_faults::{campaign, FaultKind};
        let on = |node: u16, kind: FaultKind| {
            let target = FruRef::Component(NodeId(node));
            vec![FaultSpec { id: 1, kind, target, onset: SimTime::ZERO }]
        };
        let fig = fig10::reference_spec;
        match name {
            "emi" => {
                let center = Position { x: 0.2, y: 0.1 };
                let emi = FaultKind::EmiBurst {
                    rate_per_hour: 4000.0,
                    duration_ms: 10.0,
                    center,
                    radius_m: 1.0,
                };
                (fig(), on(0, emi), 10.0, 4000)
            }
            "connector" => (fig(), campaign::connector_campaign(NodeId(2), 4000.0), 10.0, 4000),
            "recurring-internal" => {
                let ic = FaultKind::IcTransient { rate_per_hour: 9000.0, duration_ms: 4.0 };
                (fig(), on(1, ic), 10.0, 4000)
            }
            "misconfiguration" => {
                (campaign::misconfiguration_campaign(fig(), 16).0, vec![], 1.0, 3000)
            }
            "stuck-sensor" => {
                let stuck = FaultKind::SensorStuck { value: 99.0 };
                (fig(), campaign::sensor_campaign(fig10::jobs::A1, stuck), 1.0, 1500)
            }
            "bohrbug" => (fig(), campaign::software_campaign(fig10::jobs::A1, false), 1.0, 4000),
            // Component 0 hosts S1 (DAS S) and A1 (DAS A): a component-level
            // aging fault biases both jobs' outputs.
            "capacitor-aging" => {
                (fig(), on(0, FaultKind::CapacitorAging { bias_per_hour: 40_000.0 }), 1.0, 4000)
            }
            "fault-free" => (fig(), vec![], 1.0, 1000),
            other => panic!("no scenario {other}"),
        }
    }

    const SCENARIOS: [&str; 8] = [
        "emi",
        "connector",
        "recurring-internal",
        "misconfiguration",
        "stuck-sensor",
        "bohrbug",
        "capacitor-aging",
        "fault-free",
    ];

    /// Runs a scenario under default parameters.
    fn run(name: &str) -> Vec<PatternMatch> {
        run_with(name, OnaParams::default()).into_iter().map(|(_, m)| m).collect()
    }

    /// Runs a scenario and returns each pattern match with its round
    /// (1-indexed).
    fn run_with(name: &str, ona: OnaParams) -> Vec<(u64, PatternMatch)> {
        let (spec, faults, accel, rounds) = scenario(name);
        let mut env = FaultEnvironment::for_cluster(faults, &spec, accel, SeedSource::new(21));
        let mut sim = decos_platform::ClusterSim::new(spec, 77).unwrap();
        let mut det = SymptomDetectors::new(&sim);
        let mut ds = DistributedState::new(512, SimDuration::from_millis(400));
        let mut bank = OnaBank::new(&sim, ona);
        let mut matches = Vec::new();
        let mut batch = Vec::new();
        let mut round_matches = Vec::new();
        for round in 1..=rounds {
            for _ in 0..4 {
                let rec = sim.step_slot(&mut env);
                det.detect(&sim, &rec, &mut batch);
            }
            let now = sim.now();
            ds.ingest_round(now, std::mem::take(&mut batch));
            bank.evaluate_round_into(now, &ds, &mut round_matches);
            matches.extend(round_matches.drain(..).map(|m| (round, m)));
        }
        matches
    }

    fn dominant_class(matches: &[PatternMatch], fru: FruRef) -> Option<FaultClass> {
        let mut score: BTreeMap<FaultClass, f64> = BTreeMap::new();
        for m in matches.iter().filter(|m| m.fru == fru) {
            *score.entry(m.class).or_insert(0.0) += m.confidence;
        }
        score.into_iter().max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite")).map(|(c, _)| c)
    }

    #[test]
    fn matches_stay_inside_the_catalogue_envelope() {
        // The static model's optimistic envelope must cover what the
        // matchers really emit: the row's class, at most the row's
        // confidence, and never before the round `reach` allows.
        let mut alpha_10 = OnaParams::default();
        alpha_10.alpha.threshold = 10.0;
        for ona in [OnaParams::default(), alpha_10] {
            for name in SCENARIOS {
                for (round, m) in run_with(name, ona) {
                    let at = format!(
                        "{name}, threshold {}: {} in round {round}",
                        ona.alpha.threshold, m.pattern
                    );
                    let row = crate::model::pattern_model(m.pattern)
                        .unwrap_or_else(|| panic!("{at}: no catalogue row"));
                    assert_eq!(m.class, row.class, "{at}");
                    assert!(m.confidence <= row.confidence, "{at}: confidence {}", m.confidence);
                    let earliest = crate::model::reach(row, &ona, 0)
                        .unwrap_or_else(|why| panic!("{at}, but the model says {why}"));
                    assert!(round >= earliest, "{at}, but the envelope says round {earliest}");
                }
            }
        }
    }

    #[test]
    fn emi_is_classified_external() {
        let matches = run("emi");
        assert!(!matches.is_empty());
        assert!(
            matches.iter().any(|m| m.pattern == "massive-transient"),
            "massive transient must fire"
        );
        assert_eq!(
            dominant_class(&matches, FruRef::Component(NodeId(0))),
            Some(FaultClass::ComponentExternal)
        );
    }

    #[test]
    fn connector_is_classified_borderline() {
        let matches = run("connector");
        assert_eq!(
            dominant_class(&matches, FruRef::Component(NodeId(2))),
            Some(FaultClass::ComponentBorderline)
        );
    }

    #[test]
    fn recurring_internal_is_classified_internal() {
        let matches = run("recurring-internal");
        assert_eq!(
            dominant_class(&matches, FruRef::Component(NodeId(1))),
            Some(FaultClass::ComponentInternal)
        );
    }

    #[test]
    fn misconfiguration_is_classified_job_borderline() {
        let matches = run("misconfiguration");
        assert_eq!(
            dominant_class(&matches, FruRef::Job(fig10::jobs::C3)),
            Some(FaultClass::JobBorderline)
        );
    }

    #[test]
    fn stuck_sensor_is_classified_transducer() {
        let matches = run("stuck-sensor");
        assert_eq!(
            dominant_class(&matches, FruRef::Job(fig10::jobs::A1)),
            Some(FaultClass::JobInherentTransducer)
        );
        assert!(matches
            .iter()
            .any(|m| m.fru == FruRef::Job(fig10::jobs::A1) && m.pattern == "transducer-stuck"));
    }

    #[test]
    fn bohrbug_is_classified_software() {
        let matches = run("bohrbug");
        assert_eq!(
            dominant_class(&matches, FruRef::Job(fig10::jobs::A1)),
            Some(FaultClass::JobInherentSoftware)
        );
    }

    #[test]
    fn capacitor_aging_triggers_cohost_correlation() {
        let matches = run("capacitor-aging");
        assert!(
            matches.iter().any(|m| m.pattern == "cohost-correlation"
                && m.fru == FruRef::Component(NodeId(0))),
            "correlated job failures on one host must map to component-internal"
        );
        assert_eq!(
            dominant_class(&matches, FruRef::Component(NodeId(0))),
            Some(FaultClass::ComponentInternal)
        );
    }

    #[test]
    fn fault_free_cluster_triggers_nothing() {
        let matches = run("fault-free");
        assert!(matches.is_empty(), "got {:?}", &matches[..matches.len().min(5)]);
    }

    /// A coordinate drawn from a small palette, so that repeated values,
    /// ±0.0 and spreads below `f64::EPSILON` come up often.
    fn palette(code: u8, free: f64) -> f64 {
        match code % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            3 => 1.0 + 1e-10,
            4 => free * 1e-9,
            5 => -free,
            _ => free,
        }
    }

    /// The two-pass slope and `ols_slope` agree bit for bit (or on `None`).
    fn assert_same_slope(points: &[(f64, f64)]) {
        assert_eq!(
            ols_slope_of(points.iter().copied()).map(f64::to_bits),
            ols_slope(points).map(f64::to_bits),
            "{points:?}"
        );
    }

    #[test]
    fn two_pass_slope_edge_cases() {
        assert_same_slope(&[]);
        assert_same_slope(&[(1.0, 2.0)]);
        assert_same_slope(&[(1.0, 2.0), (1.0, 3.0)]);
        assert_same_slope(&[(0.0, -0.0), (-0.0, 0.0)]);
        assert_same_slope(&[(-0.0, -0.0), (-0.0, -0.0), (-0.0, -0.0)]);
        // Every product (x - x̄)(y - ȳ) is -0.0: only a -0.0 start keeps
        // the sign of the zero slope.
        assert_same_slope(&[(0.0, 0.0), (1.0, -0.0)]);
        assert_same_slope(&[(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]);
        assert_same_slope(&[(0.0, 0.0), (1e-9, 1.0), (2e-9, 2.0)]);
        assert_same_slope(&[(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]);
        assert_same_slope(&[(0.1, 0.7), (0.2, 0.3), (0.3, 0.9), (0.4, -0.2)]);
    }

    /// The reference verdict: the two-pass slope over the points is
    /// positive.
    fn reference_rises(series: &ValueSeries, viol_only: bool) -> bool {
        ols_slope_of(slope_points(series.points(), viol_only)).is_some_and(|slope| slope > 0.0)
    }

    /// Checks the running-sum certificate, and the verdict with its
    /// fallback, against the reference for both point selections.
    fn check_certificate(series: &ValueSeries) -> Result<(), String> {
        for viol_only in [false, true] {
            let reference = reference_rises(series, viol_only);
            let certified = series.sums(viol_only).certified_rising();
            if certified.is_some_and(|rises| rises != reference)
                || slope_rises(series, viol_only) != reference
            {
                return Err(format!("viol_only={viol_only}: {:?}", series.points()));
            }
        }
        Ok(())
    }

    #[test]
    fn two_pass_slope_certificate_refuses_and_the_fallback_decides() {
        let at = |s: u64| SimTime::from_secs(s);
        // A clear rise is certified.
        let mut series = ValueSeries::default();
        for i in 0..8 {
            series.push((at(i), 0.5 + i as f64, true), 4096);
        }
        assert_eq!(series.sums(true).certified_rising(), Some(true));
        // A rise of one unit in the last place of a large offset is far
        // below the certificate's error bound: it refuses, and the
        // two-pass slope decides (positive).
        let c = (1u64 << 40) as f64;
        let ulp = c * f64::EPSILON;
        let mut series = ValueSeries::default();
        for i in 0..8 {
            series.push((at(i), c + i as f64 * ulp, true), 4096);
        }
        assert_eq!(series.sums(true).certified_rising(), None);
        assert!(reference_rises(&series, true));
        assert!(slope_rises(&series, true));
        // Constant magnitudes and a single instant: refused, not rising.
        for points in
            [[(at(1), 5.0), (at(2), 5.0), (at(3), 5.0)], [(at(3), 1.0), (at(3), 2.0), (at(3), 4.0)]]
        {
            let mut series = ValueSeries::default();
            for (t, y) in points {
                series.push((t, y, false), 4096);
            }
            assert_eq!(series.sums(false).certified_rising(), None, "{points:?}");
            assert!(!slope_rises(&series, false));
        }
        // An infinite deviation is outside the certified domain.
        let mut series = ValueSeries::default();
        for (i, y) in [1.0, 2.0, f64::INFINITY, 4.0].into_iter().enumerate() {
            series.push((at(i as u64), y, true), 4096);
        }
        assert_eq!(series.sums(true).certified_rising(), None);
        assert_eq!(check_certificate(&series), Ok(()));
    }

    proptest! {
        #[test]
        fn two_pass_slope_certified_sign_matches_ols_slope(
            cap in 2usize..48,
            shape in 0u8..5,
            t0_s in 0u64..5_000,
            slope_exp in -3.0f64..4.0,
            falling in any::<bool>(),
            offset in 0.0f64..200.0,
            raw in proptest::collection::vec((0u8..6, 0u64..4_000, 0.0f64..50.0, 0u8..4), 1..96),
        ) {
            // Pushes past `cap` run the rebuild; violation flags toggle at
            // random; equal instants, zeros and infinities come up often.
            let mut series = ValueSeries::default();
            let mut t = t0_s * 1_000_000_000;
            let n = raw.len() as f64;
            // The certificate's relative error bound for this length.
            let tau = 8.0 * (n + 10.0) * (f64::EPSILON / 2.0);
            let sign = if falling { -1.0 } else { 1.0 };
            let eps = sign * tau * 10f64.powf(slope_exp) * offset.max(1.0);
            for &(dt_code, dt_ms, free, viol) in &raw {
                t += match dt_code {
                    0 => 0,
                    1 => 1,
                    _ => dt_ms * 1_000_000,
                };
                let at = SimTime::from_nanos(t);
                let x = at.as_secs_f64();
                let y = match shape {
                    // Near-flat: y = c + ε·x with ε around the bound τ.
                    0 => offset + eps * x,
                    1 => offset,
                    2 => 0.0,
                    3 if dt_code == 5 && viol == 3 => f64::INFINITY,
                    _ => free,
                };
                series.push((at, y, viol > 0), cap);
                prop_assert!(series.points().len() <= cap);
                if let Err(msg) = check_certificate(&series) {
                    return Err(proptest::TestCaseError::fail(msg));
                }
            }
        }

        #[test]
        fn two_pass_slope_matches_ols_slope(
            raw in proptest::collection::vec((0u8..8, -1e3f64..1e3, 0u8..8, -1e3f64..1e3), 0..12)
        ) {
            let points: Vec<(f64, f64)> =
                raw.iter().map(|&(cx, x, cy, y)| (palette(cx, x), palette(cy, y))).collect();
            prop_assert_eq!(
                ols_slope_of(points.iter().copied()).map(f64::to_bits),
                ols_slope(&points).map(f64::to_bits),
                "{:?}",
                points
            );
        }

        #[test]
        fn two_pass_slope_over_a_wrapped_series_matches_ols_slope(
            cap in 2usize..24,
            extra in 0usize..64,
            raw in proptest::collection::vec((0u64..3, 0u8..8, -1e3f64..1e3, 0u8..3), 1..40),
        ) {
            // A series bounded like the state's per-job series (push, then
            // drop the oldest past `cap`), filled past its cap until its
            // contents wrap the ring buffer.
            let mut series = VecDeque::new();
            let mut t = 0u64;
            for (pushes, &(dt, code, v, viol)) in raw.iter().cycle().enumerate() {
                t += dt * 1_000_000;
                series.push_back((SimTime::from_nanos(t), palette(code, v), viol > 0));
                if series.len() > cap {
                    series.pop_front();
                }
                if pushes >= cap + extra && !series.as_slices().1.is_empty() {
                    break;
                }
            }
            for viol_only in [false, true] {
                let collected: Vec<(f64, f64)> = slope_points(&series, viol_only).collect();
                prop_assert_eq!(
                    ols_slope_of(slope_points(&series, viol_only)).map(f64::to_bits),
                    ols_slope(&collected).map(f64::to_bits),
                    "{:?}",
                    collected
                );
            }
        }
    }
}
