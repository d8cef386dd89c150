//! Fleet-scale Monte-Carlo evaluation (sharded streaming executor).
//!
//! The paper's economic claims (NFF ratio, wasted removal cost) are
//! statistical statements over a *fleet*. [`run_fleet`] simulates many
//! vehicles — each with an independently sampled ground-truth fault — and
//! aggregates classification quality and replacement economics for both the
//! integrated diagnosis and the OBD baseline.
//!
//! Vehicles are embarrassingly parallel: each runs its own deterministic
//! single-threaded simulation with a derived seed. At 10⁴–10⁶ vehicles the
//! aggregation must *stream*: every finished vehicle folds immediately into
//! a per-shard [`FleetAccumulator`] (see [`crate::fleet_exec`] for the
//! work-stealing executor, from which [`run_fleet_configured`]'s shards
//! claim one vehicle at a time), shard partials merge, and
//! [`FleetOutcome::vehicles`] retains a bounded [`RetainedVehicles`]
//! sample instead of a fleet-sized `Vec` of outcomes.
//!
//! Determinism: every aggregate except the delivery-quality sum is integer
//! arithmetic, hence order-invariant. For the one float sum each
//! accumulator keeps an `(index, quality)` pair per vehicle (16 B), and
//! [`FleetAccumulator::finish`] sorts the pairs and folds them in fixed
//! [`FLEET_BLOCK`]-sized index blocks, each front to back, then the blocks
//! in ascending order — the counter fingerprint and all gauges are
//! bit-identical for any shard count and any order the vehicles were
//! recorded in.

use crate::fleet_exec;
use crate::runner::{run_campaign_opts, Campaign, CampaignError, RunOptions};
use decos_analyzer::{analyze, ExperimentSpec};
use decos_diagnosis::EngineParams;
use decos_diagnosis::{score_case, ActionScore, ConfusionMatrix};
use decos_faults::{FaultClass, FaultSpec, FruRef, MaintenanceAction};
use decos_platform::ClusterSpec;
use decos_sim::rng::SeedSource;
use decos_sim::telemetry::{Counter, Gauge, TelemetrySnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Vehicles per delivery-quality fold block: the fleet mean sums each
/// block's qualities front to back, then the block sums in ascending
/// order, whichever accumulators recorded the vehicles and in whatever
/// order. It is the fold unit only: it fixes the float sequence, not how
/// vehicles are dealt ([`run_fleet_configured`] deals single vehicles).
pub const FLEET_BLOCK: u64 = 64;

/// Fleets at or below this size keep every [`VehicleOutcome`] under
/// [`FleetRetention::Auto`].
pub const FULL_RETENTION_MAX: u64 = 4096;

/// Approximate sample size retained for larger fleets: the stride is
/// `ceil(total / RETENTION_SAMPLE_TARGET)` and every `index % stride == 0`
/// vehicle is kept, so retention is deterministic and shard-independent.
pub const RETENTION_SAMPLE_TARGET: u64 = 1024;

/// Fleet configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of vehicles (one sampled fault each).
    pub vehicles: u64,
    /// Horizon per vehicle, TDMA rounds.
    pub rounds: u64,
    /// Rate acceleration factor.
    pub accel: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { vehicles: 100, rounds: 4000, accel: 10.0, seed: 2005 }
    }
}

/// How many per-vehicle outcomes a fleet run keeps (the aggregates are
/// always exact; retention only bounds the `vehicles` detail vector).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetRetention {
    /// Keep everything up to [`FULL_RETENTION_MAX`] vehicles, then fall
    /// back to the deterministic stride sample.
    #[default]
    Auto,
}

impl FleetRetention {
    /// Retention stride for a fleet of `total` vehicles: vehicles with
    /// `index % stride == 0` are kept. Depends only on the fleet size —
    /// never on shard count — so retained samples are identical however
    /// the fleet was executed.
    pub fn stride_for(self, total: u64) -> u64 {
        match self {
            FleetRetention::Auto if total <= FULL_RETENTION_MAX => 1,
            FleetRetention::Auto => total.div_ceil(RETENTION_SAMPLE_TARGET),
        }
    }
}

/// Optional behaviours of a fleet run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetOptions {
    /// Collect pipeline telemetry per vehicle and attach the aggregated
    /// [`TelemetrySnapshot`] to the [`FleetOutcome`]. Off by default.
    pub telemetry: bool,
    /// Faults injected into *every* vehicle on top of its sampled
    /// ground-truth fault (e.g. a fleet-wide diagnostic-path defect).
    /// Ids are remapped to avoid colliding with sampled fault ids; these
    /// faults are not scored as ground truth.
    pub base_faults: Vec<FaultSpec>,
    /// Reject the fleet at pre-flight when the *base* experiment (spec +
    /// base faults) carries DA080-series diagnosability verdicts. Applies
    /// to the pre-flight only: per-vehicle sampled faults are single-
    /// hypothesis ground truth by the primary-fault convention, and a
    /// per-vehicle denial would abort the whole fleet mid-run.
    pub deny_diagnosability: bool,
    /// Worker shards for the streaming executor; `None` = one shard per
    /// available core. The result is bit-identical for any value.
    pub shards: Option<usize>,
}

impl FleetOptions {
    /// Executor shards this fleet runs on: [`Self::shards`], or one per
    /// available core.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.unwrap_or_else(fleet_exec::default_shards).max(1)
    }
}

/// One vehicle's scored outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VehicleOutcome {
    /// The ground-truth class.
    pub truth_class: FaultClass,
    /// The ground-truth FRU.
    pub truth_fru: FruRef,
    /// The integrated diagnosis's decided class for the true FRU.
    pub decos_class: Option<FaultClass>,
    /// Integrated diagnosis action score.
    pub decos: ActionScore,
    /// Baseline action score.
    pub obd: ActionScore,
    /// Mean delivery quality of the vehicle's diagnostic path.
    pub delivery_quality: f64,
    /// The engine's own degraded-path verdict (quality below threshold,
    /// any failover, or a primary still down — see
    /// `DiagnosticEngine::report`). The fleet aggregate counts *this*
    /// flag, never a re-derived quality comparison.
    pub degraded: bool,
    /// Cold-standby failovers of the vehicle's diagnostic component.
    pub failovers: u32,
    /// Rounds lost to a crashed diagnostic component.
    pub crashed_rounds: u64,
}

/// One retained vehicle with its fleet index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampledVehicle {
    /// The vehicle's index in the fleet (`0..vehicles`).
    pub index: u64,
    /// Its scored outcome.
    pub outcome: VehicleOutcome,
}

/// Bounded per-vehicle detail of a fleet run: either the complete fleet
/// (stride 1) or a deterministic `index % stride == 0` sample. Samples are
/// always in ascending index order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RetainedVehicles {
    total: u64,
    stride: u64,
    samples: Vec<SampledVehicle>,
}

impl RetainedVehicles {
    /// Vehicles the fleet actually simulated (≥ [`Self::len`]).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Retention stride: vehicles with `index % stride == 0` were kept.
    pub fn stride(&self) -> u64 {
        self.stride.max(1)
    }

    /// Number of retained outcomes.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing was retained (also true for an empty fleet).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// True when every simulated vehicle was retained.
    pub fn is_complete(&self) -> bool {
        self.stride() == 1 && self.samples.len() as u64 == self.total
    }

    /// Iterates retained outcomes in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = &VehicleOutcome> {
        self.samples.iter().map(|s| &s.outcome)
    }

    /// The retained samples with their fleet indices.
    pub fn samples(&self) -> &[SampledVehicle] {
        &self.samples
    }
}

impl<'a> IntoIterator for &'a RetainedVehicles {
    type Item = &'a VehicleOutcome;
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, SampledVehicle>,
        fn(&'a SampledVehicle) -> &'a VehicleOutcome,
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter().map(|s| &s.outcome)
    }
}

/// Aggregated fleet results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetOutcome {
    /// Retained per-vehicle outcomes (see [`FleetRetention`]); all other
    /// fields are exact aggregates over the *whole* fleet regardless of
    /// retention.
    pub vehicles: RetainedVehicles,
    /// Confusion matrix of the integrated diagnosis.
    pub confusion: ConfusionMatrix,
    /// Aggregated integrated-diagnosis score.
    pub decos: ActionScore,
    /// Aggregated baseline score.
    pub obd: ActionScore,
    /// Ground-truth class counts.
    pub class_counts: BTreeMap<String, u64>,
    /// Correct Fig. 11 actions of the integrated diagnosis per ground-truth
    /// class (exact, unlike anything derived from the retained sample).
    pub class_correct: BTreeMap<String, u64>,
    /// Fleet-mean delivery quality of the diagnostic path (1.0 unless
    /// diagnostic-path faults were injected).
    pub mean_delivery_quality: f64,
    /// Vehicles whose diagnostic path the engine flagged degraded
    /// (carries failover-only and primary-down vehicles, not just those
    /// below the quality threshold).
    pub degraded_vehicles: u64,
    /// Aggregated pipeline telemetry ([`FleetOptions::telemetry`]);
    /// `None` when off.
    pub telemetry: Option<TelemetrySnapshot>,
}

/// Streaming per-shard fleet aggregate.
///
/// Each shard owns one accumulator and [`Self::record`]s vehicles as they
/// finish, in any order; partials [`Self::merge`] in any order and
/// [`Self::finish`] produces the [`FleetOutcome`]. What is held here:
/// integer counters, one merged telemetry snapshot, the stride-sampled
/// retention vector, and an `(index, quality)` pair, 16 B, for every
/// recorded vehicle.
#[derive(Debug)]
pub struct FleetAccumulator {
    total: u64,
    stride: u64,
    confusion: ConfusionMatrix,
    decos: ActionScore,
    obd: ActionScore,
    class_counts: BTreeMap<String, u64>,
    class_correct: BTreeMap<String, u64>,
    /// Delivery quality of every recorded vehicle, in recording order;
    /// [`Self::finish`] sorts it by index, so the f64 mean does not
    /// depend on how vehicles were dealt.
    quality: Vec<(u64, f64)>,
    degraded_vehicles: u64,
    telemetry: Option<TelemetrySnapshot>,
    samples: Vec<SampledVehicle>,
}

impl FleetAccumulator {
    /// An empty accumulator for a fleet of `total` vehicles.
    pub fn new(total: u64, retain: FleetRetention) -> Self {
        FleetAccumulator {
            total,
            stride: retain.stride_for(total),
            confusion: ConfusionMatrix::new(),
            decos: ActionScore::default(),
            obd: ActionScore::default(),
            class_counts: BTreeMap::new(),
            class_correct: BTreeMap::new(),
            quality: Vec::new(),
            degraded_vehicles: 0,
            telemetry: None,
            samples: Vec::new(),
        }
    }

    /// Folds one finished vehicle in. Vehicles may come in any order, but
    /// each index exactly once across the merged partials.
    pub fn record(
        &mut self,
        index: u64,
        outcome: VehicleOutcome,
        telemetry: Option<TelemetrySnapshot>,
    ) {
        debug_assert!(index < self.total, "vehicle index {index} outside fleet of {}", self.total);
        self.confusion.record(outcome.truth_class, outcome.decos_class);
        self.decos.merge(&outcome.decos);
        self.obd.merge(&outcome.obd);
        let class = outcome.truth_class.to_string();
        *self.class_correct.entry(class.clone()).or_insert(0) += outcome.decos.correct_actions;
        *self.class_counts.entry(class).or_insert(0) += 1;
        self.quality.push((index, outcome.delivery_quality));
        self.degraded_vehicles += u64::from(outcome.degraded);
        if let Some(t) = telemetry {
            match self.telemetry.as_mut() {
                Some(agg) => agg.merge(&t),
                None => self.telemetry = Some(t),
            }
        }
        if index % self.stride == 0 {
            self.samples.push(SampledVehicle { index, outcome });
        }
    }

    /// Merges another shard's partial in. Each vehicle must have been
    /// recorded by exactly one of the merged partials.
    pub fn merge(&mut self, other: FleetAccumulator) {
        debug_assert_eq!(self.total, other.total);
        debug_assert_eq!(self.stride, other.stride);
        self.confusion.merge(&other.confusion);
        self.decos.merge(&other.decos);
        self.obd.merge(&other.obd);
        for (k, v) in other.class_counts {
            *self.class_counts.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.class_correct {
            *self.class_correct.entry(k).or_insert(0) += v;
        }
        self.quality.extend(other.quality);
        self.degraded_vehicles += other.degraded_vehicles;
        if let Some(t) = other.telemetry {
            match self.telemetry.as_mut() {
                Some(agg) => agg.merge(&t),
                None => self.telemetry = Some(t),
            }
        }
        self.samples.extend(other.samples);
    }

    /// Finalizes the fleet aggregate: sorts the qualities by index, folds
    /// each [`FLEET_BLOCK`] front to back and the block sums in ascending
    /// order, re-derives fleet-scope gauges from the merged counters and
    /// sorts the retained sample.
    pub fn finish(mut self) -> FleetOutcome {
        debug_assert_eq!(
            self.quality.len() as u64,
            self.total,
            "accumulator must see every vehicle exactly once"
        );
        self.quality.sort_unstable_by_key(|&(i, _)| i);
        debug_assert!(
            self.quality.windows(2).all(|w| w[0].0 != w[1].0),
            "a vehicle index was recorded twice"
        );
        // Every block sum starts from +0.0 and `sum` folds the blocks left
        // to right, so the float sequence is fixed by the indices alone.
        let quality_sum: f64 = self
            .quality
            .chunk_by(|a, b| a.0 / FLEET_BLOCK == b.0 / FLEET_BLOCK)
            .map(|block| block.iter().fold(0.0, |sum, &(_, q)| sum + q))
            .sum();
        let mean_delivery_quality =
            if self.total == 0 { 1.0 } else { quality_sum / self.total as f64 };
        self.samples.sort_unstable_by_key(|s| s.index);
        if let Some(agg) = self.telemetry.as_mut() {
            // Per-vehicle snapshots already summed `vehicles` / `degraded`;
            // gauges don't sum, so re-derive them at fleet scope. The latency
            // gauges come back out of the merged round/fault counters through
            // the same `mean_latency` the campaign scope used, so the fleet
            // value is the fault-weighted fleet mean.
            debug_assert_eq!(agg.counter(Counter::Vehicles.name()), Some(self.total));
            debug_assert_eq!(
                agg.counter(Counter::DegradedVehicles.name()),
                Some(self.degraded_vehicles)
            );
            let counter = |c: Counter| agg.counter(c.name()).unwrap_or(0);
            let detect_latency = decos_sim::flightrec::mean_latency(
                counter(Counter::DetectLatencyRounds),
                counter(Counter::FaultsDetected),
            );
            let convict_latency = decos_sim::flightrec::mean_latency(
                counter(Counter::ConvictLatencyRounds),
                counter(Counter::FaultsConvicted),
            );
            let nff_ratio = self.decos.nff_ratio();
            for g in agg.gauges.iter_mut() {
                if g.name == Gauge::DeliveryQuality.name() {
                    g.value = mean_delivery_quality;
                } else if g.name == Gauge::NffRatio.name() {
                    g.value = nff_ratio;
                } else if g.name == Gauge::DetectLatency.name() {
                    g.value = detect_latency;
                } else if g.name == Gauge::ConvictLatency.name() {
                    g.value = convict_latency;
                }
            }
        }
        FleetOutcome {
            vehicles: RetainedVehicles {
                total: self.total,
                stride: self.stride,
                samples: self.samples,
            },
            confusion: self.confusion,
            decos: self.decos,
            obd: self.obd,
            class_counts: self.class_counts,
            class_correct: self.class_correct,
            mean_delivery_quality,
            degraded_vehicles: self.degraded_vehicles,
            telemetry: self.telemetry,
        }
    }
}

/// Runs a fleet and aggregates.
pub fn run_fleet(spec: &ClusterSpec, cfg: FleetConfig) -> Result<FleetOutcome, CampaignError> {
    run_fleet_configured(spec, cfg, EngineParams::default(), &FleetOptions::default())
}

/// Runs a fleet with explicit engine parameters and [`FleetOptions`]
/// (telemetry, fleet-wide base faults, shard count). Per-vehicle outcomes
/// are kept under [`FleetRetention::Auto`].
///
/// Fails with the pre-flight's rejection, or else with the error of the
/// lowest-index vehicle whose sampled campaign is rejected; that vehicle
/// is the same at any shard count.
pub fn run_fleet_configured(
    spec: &ClusterSpec,
    cfg: FleetConfig,
    params: EngineParams,
    opts: &FleetOptions,
) -> Result<FleetOutcome, CampaignError> {
    preflight(spec, cfg, params, opts)?;
    let seeds = SeedSource::new(cfg.seed);
    // The lowest vehicle index any shard has seen rejected. Vehicles above
    // it are skipped: they cannot change which rejection is reported. It
    // publishes nothing else (each rejection returns with its shard), so
    // relaxed ordering suffices.
    let first_rejected = AtomicU64::new(u64::MAX);
    // Shards claim one vehicle at a time, so the slowest vehicle, not the
    // slowest block, sets the tail.
    let parts = fleet_exec::run_sharded(
        cfg.vehicles,
        1,
        opts.shard_count(),
        || (FleetAccumulator::new(cfg.vehicles, FleetRetention::Auto), None),
        |(acc, rejected): &mut (FleetAccumulator, Option<(u64, CampaignError)>), range| {
            for v in range {
                if v > first_rejected.load(Ordering::Relaxed) {
                    return;
                }
                match run_vehicle(spec, cfg, seeds, v, params, opts) {
                    Ok((outcome, telemetry)) => acc.record(v, outcome, telemetry),
                    Err(e) => {
                        first_rejected.fetch_min(v, Ordering::Relaxed);
                        // A shard's claims ascend, so its first rejection
                        // is its lowest.
                        rejected.get_or_insert((v, e));
                        return;
                    }
                }
            }
        },
    );
    // The lowest rejected index is the same at any shard count: only
    // vehicles above a rejected one are skipped.
    let mut parts = parts.into_iter();
    let (mut acc, mut first) = parts.next().expect("run_sharded returns at least one shard");
    for (part, rejected) in parts {
        acc.merge(part);
        first = first.into_iter().chain(rejected).min_by_key(|(v, _)| *v);
    }
    match first {
        Some((_, e)) => Err(e),
        None => Ok(acc.finish()),
    }
}

/// The fleet pre-flight, stored or not: the base vehicle (before
/// per-vehicle fault sampling) must analyze clean, otherwise every
/// vehicle would fail identically.
pub(crate) fn preflight(
    spec: &ClusterSpec,
    cfg: FleetConfig,
    params: EngineParams,
    opts: &FleetOptions,
) -> Result<(), CampaignError> {
    let mut base = ExperimentSpec::with_campaign(spec, &opts.base_faults, cfg.accel, cfg.rounds);
    base.ona = params.ona;
    base.trust = params.trust;
    base.advisor = params.advisor;
    let report = analyze(&base);
    if report.has_errors()
        || (opts.deny_diagnosability
            && report.diagnostics.iter().any(|d| d.code.is_diagnosability()))
    {
        return Err(CampaignError::Rejected(report));
    }
    Ok(())
}

pub(crate) fn run_vehicle(
    spec: &ClusterSpec,
    cfg: FleetConfig,
    seeds: SeedSource,
    index: u64,
    params: EngineParams,
    opts: &FleetOptions,
) -> Result<(VehicleOutcome, Option<TelemetrySnapshot>), CampaignError> {
    let (vspec, mut faults) = decos_faults::campaign::sample_mixed_fault(spec, seeds, index);
    // Primary-fault convention (asserted on `sample_mixed_fault`): every
    // sampled spec in the vec manifests the *same* ground-truth defect —
    // one FRU, one class — so scoring against `faults[0]` is scoring
    // against the full truth set.
    let truth_fru = faults[0].target;
    let truth_class = faults[0].class();
    // Fleet-wide base faults ride along without disturbing sampled ids
    // (duplicate fault ids are an analyzer error) and without entering the
    // scored ground truth.
    let base_id = faults.iter().map(|f| f.id).max().unwrap_or(0) + 9000;
    faults.extend(
        opts.base_faults
            .iter()
            .enumerate()
            .map(|(i, f)| FaultSpec { id: base_id + i as u32, ..f.clone() }),
    );
    let campaign = Campaign {
        spec: vspec,
        faults,
        accel: cfg.accel,
        rounds: cfg.rounds,
        seed: seeds.child(index).master(),
    };
    let run_opts = RunOptions { telemetry: opts.telemetry, flightrec: false, ..Default::default() };
    // The pre-flight analyzed the base vehicle only; a sampled fault can
    // still name something this cluster lacks (the sampler draws fig10
    // jobs), and the per-vehicle analysis rejects it here.
    let out = run_campaign_opts(&campaign, params, run_opts, |_, _, _| {})?;

    let decos_actions = out.report.actions();
    let decos_class = out.report.verdict_of(truth_fru).and_then(|v| v.class);
    let obd_actions: Vec<(FruRef, MaintenanceAction)> = out
        .obd
        .replacements
        .iter()
        .map(|n| (FruRef::Component(*n), MaintenanceAction::ReplaceComponent))
        .collect();

    Ok((
        VehicleOutcome {
            truth_class,
            truth_fru,
            decos_class,
            decos: score_case(truth_fru, truth_class, &decos_actions),
            obd: score_case(truth_fru, truth_class, &obd_actions),
            delivery_quality: out.report.delivery_quality,
            degraded: out.report.degraded,
            failovers: out.report.failovers,
            crashed_rounds: out.report.crashed_rounds,
        },
        out.telemetry,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_platform::{fig10, NodeId};

    #[test]
    fn small_fleet_aggregates() {
        let cfg = FleetConfig { vehicles: 8, rounds: 1200, accel: 10.0, seed: 77 };
        let out = run_fleet(&fig10::reference_spec(), cfg).unwrap();
        assert_eq!(out.vehicles.len(), 8);
        assert!(out.vehicles.is_complete(), "small fleets keep everything under Auto");
        assert_eq!(out.vehicles.total(), 8);
        assert_eq!(out.decos.cases, 8);
        assert_eq!(out.obd.cases, 8);
        assert_eq!(out.confusion.total(), 8);
        assert!(!out.class_counts.is_empty());
        assert_eq!(
            out.class_correct.values().sum::<u64>(),
            out.decos.correct_actions,
            "per-class correctness must partition the aggregate"
        );
        assert_eq!(out.mean_delivery_quality, 1.0, "no diag-path faults sampled");
        assert_eq!(out.degraded_vehicles, 0);
        assert!(out.telemetry.is_none(), "telemetry must be off by default");
    }

    #[test]
    fn empty_fleet_is_well_defined() {
        let cfg = FleetConfig { vehicles: 0, rounds: 1200, accel: 10.0, seed: 77 };
        let out = run_fleet(&fig10::reference_spec(), cfg).unwrap();
        assert!(out.vehicles.is_empty());
        assert_eq!(out.vehicles.total(), 0);
        assert_eq!(out.decos.cases, 0);
        assert_eq!(out.confusion.total(), 0);
        assert!(out.class_counts.is_empty());
        assert_eq!(out.mean_delivery_quality, 1.0, "empty fleet must not NaN");
        assert_eq!(out.degraded_vehicles, 0);
        assert_eq!(out.decos.nff_ratio(), 0.0);
    }

    #[test]
    fn fleet_is_deterministic_despite_parallelism() {
        let cfg = FleetConfig { vehicles: 6, rounds: 800, accel: 10.0, seed: 5 };
        let a = run_fleet(&fig10::reference_spec(), cfg).unwrap();
        let b = run_fleet(&fig10::reference_spec(), cfg).unwrap();
        // Equal lengths first: a zip would silently mask a truncated run.
        assert_eq!(a.vehicles.len(), b.vehicles.len());
        for (x, y) in a.vehicles.iter().zip(b.vehicles.iter()) {
            assert_eq!(x.truth_class, y.truth_class);
            assert_eq!(x.truth_fru, y.truth_fru);
            assert_eq!(x.decos_class, y.decos_class);
            assert_eq!(x.decos, y.decos);
            assert_eq!(x.obd, y.obd);
            assert_eq!(x.delivery_quality, y.delivery_quality);
            assert_eq!(x.degraded, y.degraded);
            assert_eq!(x.failovers, y.failovers);
            assert_eq!(x.crashed_rounds, y.crashed_rounds);
        }
        assert_eq!(a.confusion, b.confusion);
        assert_eq!(a.decos, b.decos);
        assert_eq!(a.obd, b.obd);
        assert_eq!(a.class_counts, b.class_counts);
        assert_eq!(a.class_correct, b.class_correct);
        assert_eq!(a.mean_delivery_quality, b.mean_delivery_quality);
        assert_eq!(a.degraded_vehicles, b.degraded_vehicles);
    }

    /// A synthetic outcome with an index-dependent quality so float-order
    /// bugs can't cancel out.
    fn synth(i: u64) -> VehicleOutcome {
        VehicleOutcome {
            truth_class: FaultClass::ALL[(i % 6) as usize],
            truth_fru: FruRef::Component(NodeId(0)),
            decos_class: Some(FaultClass::ALL[(i % 6) as usize]),
            decos: ActionScore { cases: 1, correct_actions: i % 2, ..Default::default() },
            obd: ActionScore { cases: 1, ..Default::default() },
            delivery_quality: 1.0 / (i as f64 + 1.0),
            degraded: i % 7 == 0,
            failovers: 0,
            crashed_rounds: 0,
        }
    }

    #[test]
    fn accumulator_merge_is_bit_identical_to_a_single_fold() {
        let total = 1000u64;
        let mut whole = FleetAccumulator::new(total, FleetRetention::Auto);
        for i in 0..total {
            whole.record(i, synth(i), None);
        }
        // Two contiguous partials, split at a block boundary.
        let split = 5 * FLEET_BLOCK;
        let mut a = FleetAccumulator::new(total, FleetRetention::Auto);
        let mut b = FleetAccumulator::new(total, FleetRetention::Auto);
        for i in 0..split {
            a.record(i, synth(i), None);
        }
        for i in split..total {
            b.record(i, synth(i), None);
        }
        a.merge(b);
        let (x, y) = (whole.finish(), a.finish());
        assert_eq!(x.mean_delivery_quality.to_bits(), y.mean_delivery_quality.to_bits());
        assert_eq!(x.confusion, y.confusion);
        assert_eq!(x.decos, y.decos);
        assert_eq!(x.obd, y.obd);
        assert_eq!(x.class_counts, y.class_counts);
        assert_eq!(x.class_correct, y.class_correct);
        assert_eq!(x.degraded_vehicles, y.degraded_vehicles);
        assert_eq!(x.vehicles.len(), y.vehicles.len());
    }

    #[test]
    fn accumulator_folds_any_deal_bit_identically() {
        let total = 1000u64;
        let mut whole = FleetAccumulator::new(total, FleetRetention::Auto);
        for i in 0..total {
            whole.record(i, synth(i), None);
        }
        let want = whole.finish().mean_delivery_quality.to_bits();
        // Single vehicles dealt round-robin, in uneven runs and with a
        // split inside a block.
        let deals: [&dyn Fn(u64) -> usize; 4] = [
            &|i| (i % 2) as usize,
            &|i| (i % 7) as usize,
            &|i| usize::from(i % 97 < 40) + 2 * usize::from(i % 5 == 0),
            &|i| usize::from(i >= 100),
        ];
        // Each deal fed in ascending, descending and shuffled index order
        // (379 is coprime to 1000, so `k * 379 % 1000` is a permutation).
        let orders: [&dyn Fn(u64) -> u64; 3] =
            [&|k| k, &|k| total - 1 - k, &|k| (k * 379 + 11) % total];
        for (d, deal) in deals.iter().enumerate() {
            for (o, order) in orders.iter().enumerate() {
                let mut parts: Vec<FleetAccumulator> =
                    (0..7).map(|_| FleetAccumulator::new(total, FleetRetention::Auto)).collect();
                for k in 0..total {
                    let i = order(k);
                    parts[deal(i)].record(i, synth(i), None);
                }
                let mut parts = parts.into_iter();
                let mut acc = parts.next().unwrap();
                for p in parts {
                    acc.merge(p);
                }
                let got = acc.finish().mean_delivery_quality.to_bits();
                assert_eq!(got, want, "deal {d}, order {o}");
            }
        }
    }

    #[test]
    fn retention_samples_large_fleets_deterministically() {
        let total = 5000u64;
        let mut acc = FleetAccumulator::new(total, FleetRetention::Auto);
        for i in 0..total {
            acc.record(i, synth(i), None);
        }
        let out = acc.finish();
        let stride = FleetRetention::Auto.stride_for(total);
        assert_eq!(stride, 5);
        assert!(!out.vehicles.is_complete());
        assert_eq!(out.vehicles.total(), total);
        assert_eq!(out.vehicles.stride(), stride);
        assert_eq!(out.vehicles.len() as u64, total.div_ceil(stride));
        assert!(out.vehicles.samples().iter().all(|s| s.index % stride == 0));
        // Aggregates stay exact regardless of retention.
        assert_eq!(out.decos.cases, total);
        assert_eq!(out.confusion.total(), total);
    }
}
