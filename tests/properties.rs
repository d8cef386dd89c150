//! Property-based tests over the public API (proptest).

use decos::diagnosis::{score_case, ConfusionMatrix};
use decos::platform::{vote, VoteError};
use decos::prelude::*;
use decos::reliability::{AlphaCount, AlphaParams, Exponential, Weibull};
use decos::sim::SeedSource;
use decos::timebase::{fta_round, ActionLattice, LocalClock};
use decos::ttnet::crc::crc32;
use decos::vnet::{decode_segment, encode_segment, Message, PortId, MESSAGE_WIRE_BYTES};
use proptest::prelude::*;

proptest! {
    // ---------------- sim / timebase -------------------------------------

    #[test]
    fn lattice_order_is_antisymmetric_and_granule_consistent(
        granule_us in 1u64..10_000,
        a_ns in 0u64..10_000_000_000,
        b_ns in 0u64..10_000_000_000,
    ) {
        use decos::timebase::SparseOrder;
        let lat = ActionLattice::new(SimDuration::from_micros(granule_us));
        let (ta, tb) = (SimTime::from_nanos(a_ns), SimTime::from_nanos(b_ns));
        match lat.order(ta, tb) {
            SparseOrder::Before => prop_assert_eq!(lat.order(tb, ta), SparseOrder::After),
            SparseOrder::After => prop_assert_eq!(lat.order(tb, ta), SparseOrder::Before),
            SparseOrder::Simultaneous => {
                prop_assert_eq!(lat.order(tb, ta), SparseOrder::Simultaneous);
                prop_assert!(a_ns.abs_diff(b_ns) < granule_us * 1_000);
            }
        }
    }

    #[test]
    fn clock_reads_are_monotone_for_live_clocks(
        drift in -500.0f64..500.0,
        t1_ms in 0u64..100_000,
        dt_ms in 0u64..100_000,
    ) {
        let c = LocalClock::new(drift);
        let a = c.read(SimTime::from_millis(t1_ms));
        let b = c.read(SimTime::from_millis(t1_ms + dt_ms));
        prop_assert!(b >= a, "drifted clock went backwards: {a} -> {b}");
    }

    #[test]
    fn fta_correction_is_within_trimmed_envelope(
        devs in proptest::collection::vec(-1_000_000i64..1_000_000, 3..12),
        k in 0usize..3,
    ) {
        prop_assume!(devs.len() > 2 * k);
        let r = fta_round(&devs, k).unwrap();
        let mut sorted = devs.clone();
        sorted.sort_unstable();
        let lo = sorted[k];
        let hi = sorted[sorted.len() - 1 - k];
        // The damped correction stays within half the trimmed envelope.
        prop_assert!(r.correction_ns >= lo / 2 - 1 && r.correction_ns <= hi / 2 + 1,
            "correction {} outside [{}, {}]", r.correction_ns, lo, hi);
    }

    // ---------------- ttnet ----------------------------------------------

    #[test]
    fn crc_detects_any_single_bit_flip(data in proptest::collection::vec(any::<u8>(), 1..64),
                                       bit in 0usize..512) {
        let bit = bit % (data.len() * 8);
        let mut flipped = data.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(crc32(&data), crc32(&flipped));
    }

    // ---------------- vnet ------------------------------------------------

    #[test]
    fn segment_codec_roundtrips(
        n in 0usize..12,
        capacity_extra in 0usize..64,
        seed in any::<u64>(),
    ) {
        let mut rng = SeedSource::new(seed).stream("prop-codec", 0);
        use rand::RngExt as _;
        let msgs: Vec<Message> = (0..n)
            .map(|i| Message {
                src: PortId(rng.random::<u32>() % 1000),
                seq: i as u64,
                sent_at: SimTime::from_nanos(rng.random::<u64>() >> 20),
                value: f64::from_bits(0x3FF0_0000_0000_0000 | (rng.random::<u64>() >> 12)),
            })
            .collect();
        let cap = 2 + n * MESSAGE_WIRE_BYTES + capacity_extra;
        let mut buf = Vec::new();
        let written = encode_segment(&msgs, cap, &mut buf);
        prop_assert_eq!(written, n);
        prop_assert_eq!(buf.len(), cap);
        let back = decode_segment(&buf).unwrap();
        prop_assert_eq!(back, msgs);
    }

    // ---------------- platform (TMR) --------------------------------------

    #[test]
    fn tmr_masks_any_single_outlier(
        good in -1_000.0f64..1_000.0,
        noise in -0.01f64..0.01,
        bad in -1e6f64..1e6,
        pos in 0usize..3,
    ) {
        prop_assume!((bad - good).abs() > 1.0);
        let mut vals = [Some(good), Some(good + noise), Some(good - noise)];
        vals[pos] = Some(bad);
        let r = vote(vals, 0.1).unwrap();
        prop_assert_eq!(r.outlier, Some(pos));
        prop_assert!((r.output - good).abs() < 0.02, "output {} vs good {}", r.output, good);
    }

    #[test]
    fn tmr_never_panics(
        a in proptest::option::of(-1e9f64..1e9),
        b in proptest::option::of(-1e9f64..1e9),
        c in proptest::option::of(-1e9f64..1e9),
        eps in 0.0f64..10.0,
    ) {
        match vote([a, b, c], eps) {
            Ok(r) => prop_assert!(r.output.is_finite()),
            Err(VoteError::InsufficientReplicas { present }) => prop_assert!(present < 2),
            Err(VoteError::NoMajority) => {}
        }
    }

    // ---------------- reliability ------------------------------------------

    #[test]
    fn lifetime_samples_are_nonnegative_and_cdf_monotone(
        shape in 0.2f64..6.0,
        scale in 1.0f64..1e6,
        t1 in 0.0f64..1e6,
        t2 in 0.0f64..1e6,
        seed in any::<u64>(),
    ) {
        let w = Weibull::new(shape, scale);
        let mut rng = SeedSource::new(seed).stream("prop-weibull", 0);
        prop_assert!(w.sample_hours(&mut rng) >= 0.0);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(w.cdf(lo) <= w.cdf(hi) + 1e-12);
        let e = Exponential::new(1.0 / scale);
        prop_assert!(e.cdf(lo) <= e.cdf(hi) + 1e-12);
    }

    #[test]
    fn alpha_count_is_monotone_in_failures(
        decay in 0.0f64..0.99,
        threshold in 0.5f64..10.0,
        pattern in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        // Running the same pattern with extra failures can only raise α.
        let params = AlphaParams { decay, threshold };
        let mut base = AlphaCount::new(params);
        let mut more = AlphaCount::new(params);
        for (i, &f) in pattern.iter().enumerate() {
            base.observe(f);
            more.observe(f || i % 3 == 0);
            prop_assert!(more.alpha() >= base.alpha() - 1e-12);
        }
        if base.is_declared() {
            prop_assert!(more.is_declared(), "superset of failures must also declare");
        }
    }

    // ---------------- diagnosis metrics ------------------------------------

    #[test]
    fn confusion_matrix_counts_are_conserved(
        outcomes in proptest::collection::vec((0usize..6, proptest::option::of(0usize..6)), 0..100),
    ) {
        let mut m = ConfusionMatrix::new();
        for (t, p) in &outcomes {
            m.record(FaultClass::ALL[*t], p.map(|i| FaultClass::ALL[i]));
        }
        prop_assert_eq!(m.total(), outcomes.len() as u64);
        let acc = m.accuracy();
        prop_assert!((0.0..=1.0).contains(&acc) || outcomes.is_empty());
    }

    #[test]
    fn nff_ratio_is_a_ratio(
        n_actions in 0usize..6,
        truth_class in 0usize..6,
        seed in any::<u64>(),
    ) {
        use rand::RngExt as _;
        let mut rng = SeedSource::new(seed).stream("prop-nff", 0);
        let truth = FruRef::Component(NodeId(0));
        let actions: Vec<(FruRef, MaintenanceAction)> = (0..n_actions)
            .map(|_| {
                (
                    FruRef::Component(NodeId((rng.random::<u32>() % 4) as u16)),
                    MaintenanceAction::ReplaceComponent,
                )
            })
            .collect();
        let s = score_case(truth, FaultClass::ALL[truth_class], &actions);
        prop_assert!(s.nff_removals <= s.removals);
        prop_assert!((0.0..=1.0).contains(&s.nff_ratio()) || s.removals == 0);
        prop_assert_eq!(s.removals, n_actions as u64);
    }
}

// ---------------- non-proptest structural invariants ------------------------

#[test]
fn every_fault_class_has_exactly_one_action() {
    use std::collections::BTreeSet;
    let actions: BTreeSet<MaintenanceAction> =
        FaultClass::ALL.iter().map(FaultClass::prescribed_action).collect();
    assert_eq!(actions.len(), FaultClass::ALL.len(), "Fig. 11 mapping must be injective");
}

#[test]
fn reference_cluster_lif_is_complete() {
    let sim = ClusterSim::new(fig10::reference_spec(), 0).unwrap();
    // Every job with an output port has a LIF record.
    for j in &sim.spec().jobs {
        if let Some(p) = j.behavior.output_port() {
            assert!(
                sim.lif().iter().any(|l| l.port == p && l.producer == j.id),
                "no LIF for {} port {p}",
                j.name
            );
        }
    }
    // Nominal spans nest inside admissible ranges.
    for l in sim.lif() {
        assert!(l.value_min <= l.nominal_min && l.nominal_max <= l.value_max, "{l:?}");
    }
}
