//! The distributed state of the diagnostic DAS.
//!
//! §V-A: "the pivotal strategy of the DECOS diagnostic architecture is the
//! establishment of a holistic view on the system by operating on the
//! *distributed state* established via the underlying core services."
//!
//! [`DistributedState`] is that holistic view: the recent symptom history
//! aligned to the sparse time base (for windowed time/space correlation)
//! plus long-horizon per-FRU accumulators (for trend and recurrence
//! analysis). It contains only information that was actually delivered
//! over the diagnostic virtual network.

use crate::symptom::{Subject, Symptom, SymptomKind};
use decos_platform::{JobId, NodeId};
use decos_sim::stats::RateWindows;
use decos_sim::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Round-aligned symptom history with per-FRU accumulators.
pub struct DistributedState {
    /// Recent rounds: (round start, symptoms delivered that round).
    recent: VecDeque<(SimTime, Vec<Symptom>)>,
    /// Recycled round buffers (capacity retained from evicted history
    /// entries, so steady-state ingestion allocates nothing).
    spare: Vec<Vec<Symptom>>,
    /// History bound, in rounds.
    horizon_rounds: usize,
    /// Node-indexed per-component accumulator columns.
    comps: ComponentColumns,
    /// Per-job value-symptom series with their running slope sums.
    job_value_series: BTreeMap<JobId, ValueSeries>,
    /// Per-job counts by label.
    job_counts: BTreeMap<JobId, BTreeMap<&'static str, u64>>,
    /// Trend window length.
    trend_window: SimDuration,
    /// Bound on per-job value series length.
    series_cap: usize,
    /// Total symptoms ingested.
    total: u64,
}

impl DistributedState {
    /// Creates an empty state.
    ///
    /// `horizon_rounds` bounds the short-term correlation history;
    /// `trend_window` is the bucket width of the long-horizon rate trends.
    pub fn new(horizon_rounds: usize, trend_window: SimDuration) -> Self {
        DistributedState {
            recent: VecDeque::with_capacity(horizon_rounds + 1),
            spare: Vec::new(),
            horizon_rounds,
            comps: ComponentColumns::default(),
            job_value_series: BTreeMap::new(),
            job_counts: BTreeMap::new(),
            trend_window,
            series_cap: 4096,
            total: 0,
        }
    }

    /// Ingests the symptoms delivered in one round.
    pub fn ingest_round(&mut self, round_start: SimTime, symptoms: Vec<Symptom>) {
        self.tally(&symptoms);
        self.recent.push_back((round_start, symptoms));
        self.evict_to_horizon();
    }

    /// Ingests one round's symptoms from a caller-owned buffer, storing a
    /// copy in a recycled history Vec. Equivalent to
    /// [`ingest_round`](DistributedState::ingest_round) but allocation-free
    /// at steady state (and always allocation-free for empty rounds).
    pub fn ingest_round_buf(&mut self, round_start: SimTime, symptoms: &[Symptom]) {
        self.tally(symptoms);
        let mut v = self.spare.pop().unwrap_or_default();
        v.extend_from_slice(symptoms);
        self.recent.push_back((round_start, v));
        self.evict_to_horizon();
    }

    fn evict_to_horizon(&mut self) {
        while self.recent.len() > self.horizon_rounds {
            if let Some((_, mut v)) = self.recent.pop_front() {
                v.clear();
                self.spare.push(v);
            }
        }
    }

    /// Updates the long-horizon accumulators with one round's symptoms.
    fn tally(&mut self, symptoms: &[Symptom]) {
        for s in symptoms {
            self.total += 1;
            match s.subject {
                Subject::Component(n) => {
                    self.comps.bump(n, s.kind.label());
                    if s.kind.is_comm_error() {
                        self.comps.subject_rate(n, self.trend_window).record(s.at);
                        self.comps.observer_rate(s.observer, self.trend_window).record(s.at);
                    }
                }
                Subject::Job(j) => {
                    *self.job_counts.entry(j).or_default().entry(s.kind.label()).or_insert(0) += 1;
                    let entry = match s.kind {
                        SymptomKind::ValueViolation { deviation, .. } => {
                            Some((s.at, deviation, true))
                        }
                        SymptomKind::ValueDrift { proximity, .. } => Some((s.at, proximity, false)),
                        _ => None,
                    };
                    if let Some(e) = entry {
                        self.job_value_series.entry(j).or_default().push(e, self.series_cap);
                    }
                }
            }
        }
    }

    /// Total symptoms ingested over the campaign.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cold-standby failover: drops the short-term correlation history
    /// except the newest `keep_rounds` rounds.
    ///
    /// The in-RAM recent window dies with the crashed diagnostic
    /// component; the standby replica can only re-establish what the
    /// bounded resync protocol replays to it. The long-horizon
    /// accumulators (rate windows, label counts, value series) model the
    /// checkpointed maintenance database and survive.
    pub fn forget_short_term(&mut self, keep_rounds: usize) {
        while self.recent.len() > keep_rounds {
            if let Some((_, mut v)) = self.recent.pop_front() {
                v.clear();
                self.spare.push(v);
            }
        }
    }

    /// Iterates the symptoms of the last `rounds` rounds.
    pub fn recent_symptoms(&self, rounds: usize) -> impl Iterator<Item = &Symptom> {
        let skip = self.recent.len().saturating_sub(rounds);
        self.recent.iter().skip(skip).flat_map(|(_, v)| v.iter())
    }

    /// Comm-error counts per (observer, subject) pair over the last
    /// `rounds` rounds, split by omission vs corruption kind.
    pub fn pair_matrix(&self, rounds: usize) -> PairMatrix {
        let mut m = PairMatrix::default();
        for s in self.recent_symptoms(rounds) {
            if let Subject::Component(subj) = s.subject {
                match s.kind {
                    SymptomKind::Omission => m.record(s.observer, subj, false),
                    SymptomKind::InvalidCrc => m.record(s.observer, subj, true),
                    SymptomKind::TimingViolation { .. } => m.record(s.observer, subj, false),
                    _ => {}
                }
            }
        }
        m
    }

    /// Long-horizon comm-error rate trend (slope of events/hour) about a
    /// subject component; `None` with fewer than two windows of history.
    pub fn subject_err_trend(&self, n: NodeId) -> Option<f64> {
        self.comps.subject(n).and_then(RateWindows::trend_slope)
    }

    /// Total comm errors recorded about a subject component.
    pub fn subject_err_total(&self, n: NodeId) -> u64 {
        self.comps.subject(n).map(RateWindows::total).unwrap_or(0)
    }

    /// Per-window comm-error counts about a subject (the wearout trend
    /// series of experiment E6/E7).
    pub fn subject_err_windows(&self, n: NodeId) -> Option<&[u64]> {
        self.comps.subject(n).map(RateWindows::counts)
    }

    /// Count of a symptom label for a component subject.
    pub fn comp_count(&self, n: NodeId, label: &'static str) -> u64 {
        self.comps.count(n, label)
    }

    /// Count of a symptom label for a job subject.
    pub fn job_count(&self, j: JobId, label: &'static str) -> u64 {
        self.job_counts.get(&j).and_then(|m| m.get(label)).copied().unwrap_or(0)
    }

    /// All jobs with any recorded symptom.
    pub fn symptomatic_jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.job_counts.keys().copied()
    }

    /// All components with any recorded symptom, in ascending node order.
    pub fn symptomatic_components(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.comps.symptomatic()
    }

    /// The recorded value-symptom series of a job.
    pub fn job_value_series(&self, j: JobId) -> Option<&ValueSeries> {
        self.job_value_series.get(&j)
    }
}

/// One job's value-symptom series: `(instant, magnitude, violation)`
/// points in push order, where the magnitude is a deviation (violations)
/// or a drift proximity, plus running least-squares sums of all points
/// and of the violations alone.
#[derive(Debug, Clone, Default)]
pub struct ValueSeries {
    points: VecDeque<(SimTime, f64, bool)>,
    all: SlopeSums,
    violations: SlopeSums,
}

impl ValueSeries {
    /// Appends a point, dropping the oldest once the series holds more
    /// than `cap`. A drop refolds both sum records from the remaining
    /// points, so they always equal a fold of the series in push order.
    pub(crate) fn push(&mut self, point: (SimTime, f64, bool), cap: usize) {
        self.points.push_back(point);
        self.all.add(point);
        if point.2 {
            self.violations.add(point);
        }
        if self.points.len() > cap {
            self.points.pop_front();
            self.all = SlopeSums::default();
            self.violations = SlopeSums::default();
            for &p in &self.points {
                self.all.add(p);
                if p.2 {
                    self.violations.add(p);
                }
            }
        }
    }

    /// The points, oldest first.
    pub fn points(&self) -> &VecDeque<(SimTime, f64, bool)> {
        &self.points
    }

    /// The running sums of the violations (`viol_only`) or of all points.
    pub(crate) fn sums(&self, viol_only: bool) -> &SlopeSums {
        if viol_only {
            &self.violations
        } else {
            &self.all
        }
    }
}

/// Running least-squares sums over `(x, y)` points, `x` the instant in
/// seconds and `y` the magnitude, folded from `-0.0` in push order.
///
/// `n`, `Σx` and `Σy` are the same additions in the same order as the
/// first pass of the patterns layer's two-pass slope over the same
/// points, so the means `Σx/n` and `Σy/n` equal its means bit for bit.
/// `Σx²` and `Σxy` feed only [`certified_rising`](SlopeSums::certified_rising).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlopeSums {
    n: usize,
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_xy: f64,
    /// Points with a coordinate outside the certified domain.
    outside: usize,
}

impl Default for SlopeSums {
    fn default() -> Self {
        SlopeSums { n: 0, sum_x: -0.0, sum_y: -0.0, sum_xx: -0.0, sum_xy: -0.0, outside: 0 }
    }
}

/// Upper end of the certified coordinate domain, `2¹⁰⁰`.
const DOMAIN_MAX: f64 = (1u128 << 100) as f64;

/// Whether a coordinate lies in the certified domain `{0} ∪ [2⁻¹⁰⁰, 2¹⁰⁰]`.
fn certifiable(v: f64) -> bool {
    v == 0.0 || (1.0 / DOMAIN_MAX..=DOMAIN_MAX).contains(&v)
}

impl SlopeSums {
    fn add(&mut self, (at, y, _): (SimTime, f64, bool)) {
        let x = at.as_secs_f64();
        self.n += 1;
        self.sum_x += x;
        self.sum_y += y;
        self.sum_xx += x * x;
        self.sum_xy += x * y;
        if !(certifiable(x) && certifiable(y)) {
            self.outside += 1;
        }
    }

    /// Number of points folded in.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// The sign of the two-pass least-squares slope over the folded
    /// points, when the sums alone certify it: `Some(true)` when the
    /// slope is positive, `Some(false)` when it is negative, `None` when
    /// the sums cannot decide and the caller must run the two-pass slope.
    ///
    /// The two-pass slope takes the float means `mx = Σx/n`, `my = Σy/n`,
    /// then `sxy = Σ(x−mx)(y−my)` and `sxx = Σ(x−mx)²`, and is positive
    /// exactly when `sxx > ε` (else it is undefined) and `sxy/sxx > 0`.
    /// With the same `mx`, `my`, the exact value of its `sxy` is
    /// `S = Σxy − my·Σx − mx·Σy + n·mx·my`, evaluated here in floats as
    /// `E`. Every coordinate is `≥ 0`, so `T = Σxy + my·Σx + mx·Σy +
    /// n·mx·my` bounds `Σ|x−mx|·|y−my|` and every term of `E`. With
    /// `u = 2⁻⁵³` and `γₖ = ku/(1−ku)`, recursive summation and the three
    /// roundings of each two-pass term put the two-pass `sxy` within
    /// `γₙ₊₂·T` of `S`, and the rounded sums and the four-term expression
    /// put `E` within `γₙ₊₃·T` of `S`. So `|sxy − E| ≤ 2γₙ₊₃·T`, which
    /// `τ·T` with `τ = 8·(n+10)·u` exceeds, with room for the rounding of
    /// `T` and of `τ·T` themselves. The same argument with `y = x` gives
    /// `Ex` and `Tx`, and bounds the two-pass `sxx` below by `Ex − τ·Tx`.
    /// Hence if `Ex − τ·Tx > 2ε`, then `sxx > ε`; and if `|E| > τ·T`,
    /// then `sxy` is non-zero with the sign of `E`.
    ///
    /// The error model assumes no overflow and no underflow. Restricting
    /// every coordinate to `{0} ∪ [2⁻¹⁰⁰, 2¹⁰⁰]` (instants and LIF
    /// magnitudes lie far inside it) keeps every non-zero product within
    /// `[2⁻⁴⁰⁰, 2²⁴⁰]` and the quotient `sxy/sxx` clear of underflow, for
    /// any `n < 2⁴⁰`. A series with any point outside the domain (negative,
    /// non-finite, or extreme) is never certified.
    pub(crate) fn certified_rising(&self) -> Option<bool> {
        if self.outside > 0 || self.n < 2 {
            return None;
        }
        let n = self.n as f64;
        let (mx, my) = (self.sum_x / n, self.sum_y / n);
        let tau = 8.0 * (n + 10.0) * (f64::EPSILON / 2.0);
        let ex = self.sum_xx - mx * self.sum_x - mx * self.sum_x + n * mx * mx;
        let tx = self.sum_xx + mx * self.sum_x + mx * self.sum_x + n * mx * mx;
        let e = self.sum_xy - my * self.sum_x - mx * self.sum_y + n * mx * my;
        let t = self.sum_xy + my * self.sum_x + mx * self.sum_y + n * mx * my;
        (ex - tau * tx > 2.0 * f64::EPSILON && e.abs() > tau * t).then_some(e > 0.0)
    }
}

/// Per-component long-horizon accumulators in struct-of-arrays layout.
///
/// Every column is a flat vector indexed by [`NodeId`] and grown on
/// demand, so the hot tally path is an index plus a short linear scan of
/// the component's label counts instead of two `BTreeMap` descents per
/// symptom. The `symptomatic` flag column records which components have
/// ever been a symptom *subject* (the former `comp_counts` key set);
/// observer-side rate windows are tracked separately because a component
/// can observe errors without ever being blamed for one.
#[derive(Default)]
struct ComponentColumns {
    /// Has this component ever been the subject of a symptom?
    symptomatic: Vec<bool>,
    /// Symptom-label counts per component (few distinct labels — linear
    /// scan beats a map).
    counts: Vec<Vec<(&'static str, u64)>>,
    /// Comm-error rate windows per subject component.
    subject_err: Vec<Option<RateWindows>>,
    /// Comm-error rate windows per observer component.
    observer_err: Vec<Option<RateWindows>>,
}

impl ComponentColumns {
    fn ensure(&mut self, i: usize) {
        if i >= self.symptomatic.len() {
            self.symptomatic.resize(i + 1, false);
            self.counts.resize_with(i + 1, Vec::new);
            self.subject_err.resize_with(i + 1, || None);
            self.observer_err.resize_with(i + 1, || None);
        }
    }

    fn bump(&mut self, n: NodeId, label: &'static str) {
        let i = n.0 as usize;
        self.ensure(i);
        self.symptomatic[i] = true;
        let col = &mut self.counts[i];
        match col.iter_mut().find(|(l, _)| *l == label) {
            Some((_, c)) => *c += 1,
            None => col.push((label, 1)),
        }
    }

    fn subject_rate(&mut self, n: NodeId, window: SimDuration) -> &mut RateWindows {
        let i = n.0 as usize;
        self.ensure(i);
        self.subject_err[i].get_or_insert_with(|| RateWindows::new(SimTime::ZERO, window))
    }

    fn observer_rate(&mut self, n: NodeId, window: SimDuration) -> &mut RateWindows {
        let i = n.0 as usize;
        self.ensure(i);
        self.observer_err[i].get_or_insert_with(|| RateWindows::new(SimTime::ZERO, window))
    }

    fn subject(&self, n: NodeId) -> Option<&RateWindows> {
        self.subject_err.get(n.0 as usize).and_then(Option::as_ref)
    }

    fn count(&self, n: NodeId, label: &'static str) -> u64 {
        self.counts
            .get(n.0 as usize)
            .and_then(|col| col.iter().find(|(l, _)| *l == label))
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    fn symptomatic(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.symptomatic.iter().enumerate().filter(|(_, &s)| s).map(|(i, _)| NodeId(i as u16))
    }
}

/// Comm-error matrix over (observer, subject) pairs in a window.
#[derive(Debug, Clone, Default)]
pub struct PairMatrix {
    /// (observer, subject) → (omission-like count, corruption count).
    pub pairs: BTreeMap<(NodeId, NodeId), (u64, u64)>,
}

impl PairMatrix {
    fn record(&mut self, observer: NodeId, subject: NodeId, corruption: bool) {
        let e = self.pairs.entry((observer, subject)).or_insert((0, 0));
        if corruption {
            e.1 += 1;
        } else {
            e.0 += 1;
        }
    }

    /// Total errors in the window.
    pub fn total(&self) -> u64 {
        self.pairs.values().map(|(o, c)| o + c).sum()
    }

    /// Distinct observers that complained about `subject`.
    pub fn col_breadth(&self, subject: NodeId) -> usize {
        self.pairs.keys().filter(|(_, s)| *s == subject).count()
    }

    /// Distinct subjects that `observer` complained about.
    pub fn row_breadth(&self, observer: NodeId) -> usize {
        self.pairs.keys().filter(|(o, _)| *o == observer).count()
    }

    /// Errors about `subject`: (omission-like, corruption).
    pub fn col_counts(&self, subject: NodeId) -> (u64, u64) {
        self.pairs
            .iter()
            .filter(|((_, s), _)| *s == subject)
            .fold((0, 0), |acc, (_, (o, c))| (acc.0 + o, acc.1 + c))
    }

    /// Errors raised by `observer`: (omission-like, corruption).
    pub fn row_counts(&self, observer: NodeId) -> (u64, u64) {
        self.pairs
            .iter()
            .filter(|((o, _), _)| *o == observer)
            .fold((0, 0), |acc, (_, (om, c))| (acc.0 + om, acc.1 + c))
    }

    /// Components touched by errors in either role.
    pub fn touched(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.pairs.keys().flat_map(|(o, s)| [*o, *s]).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_timebase::LatticePoint;
    use decos_vnet::PortId;

    fn sym(observer: u16, subject: Subject, kind: SymptomKind, at_ms: u64) -> Symptom {
        Symptom {
            at: SimTime::from_millis(at_ms),
            point: LatticePoint(at_ms),
            observer: NodeId(observer),
            subject,
            kind,
        }
    }

    fn state() -> DistributedState {
        DistributedState::new(100, SimDuration::from_millis(100))
    }

    #[test]
    fn ingest_and_counts() {
        let mut ds = state();
        ds.ingest_round(
            SimTime::ZERO,
            vec![
                sym(0, Subject::Component(NodeId(2)), SymptomKind::Omission, 0),
                sym(1, Subject::Component(NodeId(2)), SymptomKind::Omission, 0),
                sym(
                    0,
                    Subject::Job(JobId(5)),
                    SymptomKind::ValueViolation { deviation: 0.5, port: PortId(1) },
                    0,
                ),
            ],
        );
        assert_eq!(ds.total(), 3);
        assert_eq!(ds.comp_count(NodeId(2), "omission"), 2);
        assert_eq!(ds.job_count(JobId(5), "value-violation"), 1);
        assert_eq!(ds.subject_err_total(NodeId(2)), 2);
        assert_eq!(ds.symptomatic_components().collect::<Vec<_>>(), vec![NodeId(2)]);
        assert_eq!(ds.symptomatic_jobs().collect::<Vec<_>>(), vec![JobId(5)]);
    }

    #[test]
    fn history_is_bounded() {
        let mut ds = DistributedState::new(3, SimDuration::from_millis(100));
        for r in 0..10u64 {
            ds.ingest_round(
                SimTime::from_millis(r * 4),
                vec![sym(0, Subject::Component(NodeId(1)), SymptomKind::Omission, r * 4)],
            );
        }
        assert_eq!(ds.recent_symptoms(100).count(), 3, "history bounded to horizon");
        assert_eq!(ds.total(), 10, "long-horizon counters keep everything");
    }

    #[test]
    fn failover_forgets_short_term_but_keeps_accumulators() {
        let mut ds = state();
        for r in 0..10u64 {
            ds.ingest_round(
                SimTime::from_millis(r * 4),
                vec![sym(0, Subject::Component(NodeId(1)), SymptomKind::Omission, r * 4)],
            );
        }
        ds.forget_short_term(2);
        assert_eq!(ds.recent_symptoms(100).count(), 2, "only the resynced rounds survive");
        assert_eq!(ds.total(), 10, "the checkpointed accumulators survive the crash");
        assert_eq!(ds.subject_err_total(NodeId(1)), 10);
    }

    #[test]
    fn pair_matrix_shape() {
        let mut ds = state();
        ds.ingest_round(
            SimTime::ZERO,
            vec![
                sym(0, Subject::Component(NodeId(2)), SymptomKind::Omission, 0),
                sym(1, Subject::Component(NodeId(2)), SymptomKind::InvalidCrc, 0),
                sym(2, Subject::Component(NodeId(0)), SymptomKind::Omission, 0),
            ],
        );
        let m = ds.pair_matrix(10);
        assert_eq!(m.total(), 3);
        assert_eq!(m.col_breadth(NodeId(2)), 2);
        assert_eq!(m.row_breadth(NodeId(2)), 1);
        assert_eq!(m.col_counts(NodeId(2)), (1, 1));
        assert_eq!(m.row_counts(NodeId(2)), (1, 0));
        assert_eq!(m.touched(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn value_series_recorded_in_order() {
        let mut ds = state();
        for (i, (dev, viol)) in [(0.5, false), (0.9, false), (1.2, true)].iter().enumerate() {
            ds.ingest_round(
                SimTime::from_millis(i as u64 * 4),
                vec![sym(
                    0,
                    Subject::Job(JobId(7)),
                    if *viol {
                        SymptomKind::ValueViolation { deviation: *dev, port: PortId(1) }
                    } else {
                        SymptomKind::ValueDrift { proximity: *dev, port: PortId(1) }
                    },
                    i as u64 * 4,
                )],
            );
        }
        let series = ds.job_value_series(JobId(7)).unwrap().points();
        assert_eq!(series.len(), 3);
        assert!(series[0].1 < series[2].1);
        assert!(series[2].2, "last one is a violation");
    }

    #[test]
    fn trend_detects_growth() {
        let mut ds = DistributedState::new(1000, SimDuration::from_millis(50));
        // Rising error frequency about component 1.
        let mut t = 0u64;
        for w in 0..10u64 {
            for k in 0..=w {
                ds.ingest_round(
                    SimTime::from_millis(t),
                    vec![sym(0, Subject::Component(NodeId(1)), SymptomKind::Omission, w * 50 + k)],
                );
                t += 4;
            }
        }
        assert!(ds.subject_err_trend(NodeId(1)).unwrap() > 0.0);
        assert!(ds.subject_err_windows(NodeId(1)).unwrap().len() >= 2);
    }
}
