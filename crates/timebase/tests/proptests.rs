//! Property tests for the time-base substrate.

use decos_sim::{SimDuration, SimTime};
use decos_timebase::{
    fta_round, precision_bound_ns, ActionLattice, LocalClock, SyncMonitor, SyncStatus,
};
use proptest::prelude::*;

proptest! {
    // ------------------- clocks ---------------------------------------------

    #[test]
    fn deviation_grows_linearly_with_drift(
        drift in -200.0f64..200.0,
        t_s in 1u64..100_000,
    ) {
        let c = LocalClock::new(drift, 0.0);
        let t = SimTime::from_secs(t_s);
        let dev = c.deviation_ns(t) as f64;
        let expected = t.as_nanos() as f64 * drift * 1e-6;
        // Integer truncation bounds the error to < 1 ns.
        prop_assert!((dev - expected).abs() <= 1.0, "dev {dev} vs {expected}");
    }

    #[test]
    fn corrections_are_additive(
        corr in proptest::collection::vec(-1_000_000i64..1_000_000, 0..20),
        t_s in 0u64..1_000,
    ) {
        let mut c = LocalClock::new(0.0, 0.0);
        for &d in &corr {
            c.apply_correction(d);
        }
        let sum: i64 = corr.iter().sum();
        prop_assert_eq!(c.deviation_ns(SimTime::from_secs(t_s)), sum);
    }

    #[test]
    fn dead_clocks_never_advance(
        death_s in 0u64..1_000,
        later_s in 0u64..10_000,
        drift in -100.0f64..100.0,
    ) {
        let mut c = LocalClock::new(drift, 0.0);
        let death = SimTime::from_secs(death_s);
        c.kill(death);
        let frozen = c.read(death);
        prop_assert_eq!(c.read(death + SimDuration::from_secs(later_s)), frozen);
    }

    // ------------------- FTA -------------------------------------------------

    #[test]
    fn fta_is_translation_invariant(
        devs in proptest::collection::vec(-100_000i64..100_000, 3..10),
        shift in -1_000_000i64..1_000_000,
        k in 0usize..2,
    ) {
        prop_assume!(devs.len() > 2 * k);
        let base = fta_round(&devs, k).unwrap();
        let shifted: Vec<i64> = devs.iter().map(|d| d + shift).collect();
        let moved = fta_round(&shifted, k).unwrap();
        // Shifting every measurement by s shifts the correction by ~s/2
        // (damping), up to integer division slack.
        prop_assert!((moved.correction_ns - base.correction_ns - shift / 2).abs() <= 1);
    }

    #[test]
    fn fta_average_matches_the_i128_division(
        devs in proptest::collection::vec(proptest::num::i64::ANY, 1..10),
        small in any::<bool>(),
        k in 0usize..3,
    ) {
        // Small deviations keep the sum inside i64; arbitrary ones often
        // overflow it. Either way the correction is the i128 average,
        // truncated toward zero, halved.
        let devs: Vec<i64> = if small { devs.iter().map(|d| d % 1_000_000).collect() } else { devs };
        prop_assume!(devs.len() > 2 * k);
        let mut sorted = devs.clone();
        sorted.sort_unstable();
        let used = &sorted[k..sorted.len() - k];
        let sum: i128 = used.iter().map(|&d| d as i128).sum();
        let avg = (sum / used.len() as i128) as i64;
        prop_assert_eq!(fta_round(&devs, k).unwrap().correction_ns, avg / 2);
    }

    #[test]
    fn fta_ignores_up_to_k_outliers(
        good in proptest::collection::vec(-1_000i64..1_000, 5..9),
        outlier in proptest::num::i64::ANY,
    ) {
        // One arbitrary outlier among ≥5 good measurements, k=1.
        let mut devs = good.clone();
        devs.push(outlier.clamp(i64::MIN / 4, i64::MAX / 4));
        let r = fta_round(&devs, 1).unwrap();
        let lo = *good.iter().min().unwrap();
        let hi = *good.iter().max().unwrap();
        prop_assert!(r.correction_ns >= lo / 2 - 1 && r.correction_ns <= hi / 2 + 1,
            "correction {} escaped [{lo}, {hi}]/2", r.correction_ns);
    }

    #[test]
    fn precision_bound_is_monotone(
        drift in 0.0f64..1_000.0,
        resync_ns in 0u64..1_000_000_000,
        err_ns in 0u64..100_000,
    ) {
        let base = precision_bound_ns(drift, resync_ns, err_ns);
        prop_assert!(precision_bound_ns(drift * 2.0, resync_ns, err_ns) >= base);
        prop_assert!(precision_bound_ns(drift, resync_ns * 2, err_ns) >= base);
        prop_assert!(precision_bound_ns(drift, resync_ns, err_ns + 1) > base);
    }

    // ------------------- sync monitor ----------------------------------------

    #[test]
    fn monitor_status_reflects_last_observation(
        precision in 1u64..1_000_000,
        devs in proptest::collection::vec(-2_000_000i64..2_000_000, 1..50),
    ) {
        let mut m = SyncMonitor::new(precision);
        let mut losses = 0u64;
        let mut in_sync = true;
        for &d in &devs {
            let st = m.observe(d);
            let ok = d.unsigned_abs() <= precision;
            prop_assert_eq!(st == SyncStatus::Synchronized, ok);
            if !ok && in_sync {
                losses += 1;
            }
            in_sync = ok;
        }
        prop_assert_eq!(m.lost_count(), losses, "loss transitions counted once");
    }

    // ------------------- sparse time -----------------------------------------

    #[test]
    fn lattice_points_partition_and_order(
        granule_ns in 1u64..1_000_000_000,
        t in 0u64..u64::MAX / 4,
    ) {
        let lat = ActionLattice::new(SimDuration::from_nanos(granule_ns));
        let p = lat.point(SimTime::from_nanos(t));
        let start = lat.start_of(p);
        prop_assert!(start.as_nanos() <= t);
        prop_assert!(t - start.as_nanos() < granule_ns);
        // The next granule starts a new point.
        let next = lat.point(SimTime::from_nanos(start.as_nanos() + granule_ns));
        prop_assert_eq!(next, p.next());
    }

    #[test]
    fn within_delta_is_symmetric(
        granule_us in 1u64..100_000,
        a in 0u64..1_000_000_000,
        b in 0u64..1_000_000_000,
        delta in 0u64..100,
    ) {
        let lat = ActionLattice::new(SimDuration::from_micros(granule_us));
        let (ta, tb) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
        prop_assert_eq!(lat.within_delta(ta, tb, delta), lat.within_delta(tb, ta, delta));
    }
}
