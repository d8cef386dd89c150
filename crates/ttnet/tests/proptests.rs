//! Property tests for the time-triggered network substrate.

use decos_sim::{SeedSource, SimDuration, SimTime};
use decos_ttnet::crc::{crc32, Crc32};
use decos_ttnet::{
    BroadcastBus, ChannelParams, Frame, GuardianMode, MembershipParams, MembershipService, NodeId,
    RxDisturbance, SlotIndex, TdmaSchedule, TxAttempt,
};
use proptest::prelude::*;

proptest! {
    // ------------------- CRC -----------------------------------------------

    #[test]
    fn incremental_crc_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        cut in 0usize..256,
    ) {
        let cut = cut.min(data.len());
        let mut inc = Crc32::new();
        inc.update(&data[..cut]);
        inc.update(&data[cut..]);
        prop_assert_eq!(inc.finish(), crc32(&data));
    }

    // ------------------- schedule -------------------------------------------

    #[test]
    fn slot_lookup_inverts_start_of(
        n in 1u16..32,
        slot_us in 10u64..10_000,
        round in 0u64..1_000_000,
        slot in 0u16..32,
    ) {
        let slot = slot % n;
        let sched = TdmaSchedule::round_robin(n, SimDuration::from_micros(slot_us));
        let addr = decos_ttnet::SlotAddress { round, slot: SlotIndex(slot) };
        let start = sched.start_of(addr);
        prop_assert_eq!(sched.slot_at(start), addr);
        // Any instant strictly inside the slot maps to the same address.
        let inside = start + SimDuration::from_nanos(slot_us * 1_000 - 1);
        prop_assert_eq!(sched.slot_at(inside), addr);
    }

    #[test]
    fn schedule_iteration_is_gapless(
        n in 1u16..16,
        start_round in 0u64..1000,
        steps in 1usize..100,
    ) {
        let sched = TdmaSchedule::round_robin(n, SimDuration::from_micros(100));
        let from = decos_ttnet::SlotAddress { round: start_round, slot: SlotIndex(0) };
        let addrs: Vec<_> = sched.iter_from(from).take(steps).collect();
        for w in addrs.windows(2) {
            let gap = sched.start_of(w[1]) - sched.start_of(w[0]);
            prop_assert_eq!(gap, sched.slot_len());
        }
    }

    // ------------------- frames & bus ---------------------------------------

    #[test]
    fn corrupted_frames_never_verify(
        payload in proptest::collection::vec(any::<u8>(), 1..128),
        bits in 1u32..16,
        seed in any::<u64>(),
    ) {
        let mut rng = SeedSource::new(seed).stream("prop-frame", 0);
        let mut f = Frame::new(NodeId(1), 9, SlotIndex(2), payload);
        prop_assert!(f.is_valid());
        f.corrupt_payload_bits(bits, &mut rng);
        // An even number of flips can cancel only if they hit the same bit;
        // CRC32 detects all error bursts < 32 bits and any odd-weight error,
        // so a false negative here is astronomically unlikely — but it IS
        // possible for flips to cancel pairwise on the same position.
        // Accept validity only if the payload is byte-identical to original.
        let reference = Frame::new(NodeId(1), 9, SlotIndex(2), f.payload.clone());
        prop_assert_eq!(f.is_valid(), f.crc == reference.crc && reference.is_valid());
    }

    #[test]
    fn bus_observation_count_matches_receivers(
        receivers in 0usize..32,
        silent in any::<bool>(),
        offset in -100_000i64..100_000,
        seed in any::<u64>(),
    ) {
        let mut rng = SeedSource::new(seed).stream("prop-bus", 0);
        let bus = BroadcastBus::new(ChannelParams::default());
        let frame = Frame::new(NodeId(0), 0, SlotIndex(0), vec![1, 2, 3, 4]);
        let tx = if silent {
            TxAttempt::silent()
        } else {
            TxAttempt { frame: Some(frame), offset_ns: offset, source_corrupt_bits: 0 }
        };
        let rx = vec![RxDisturbance::NONE; receivers];
        let obs = bus.resolve_slot(&tx, &rx, &mut rng);
        prop_assert_eq!(obs.len(), receivers);
        // Silent sender or guardian-cut offset → all omissions.
        if silent || offset.unsigned_abs() > 10_000 {
            prop_assert!(obs.iter().all(|o| matches!(o, decos_ttnet::SlotObservation::Omission)));
        } else {
            prop_assert!(obs.iter().all(|o| o.is_correct()));
        }
    }

    #[test]
    fn guardianless_channel_reports_timing_instead_of_omission(
        offset in 10_001i64..1_000_000,
        seed in any::<u64>(),
    ) {
        let mut rng = SeedSource::new(seed).stream("prop-bus2", 0);
        let bus = BroadcastBus::new(ChannelParams {
            guardian: GuardianMode::None,
            rx_window_half_ns: 10_000,
        });
        let frame = Frame::new(NodeId(0), 0, SlotIndex(0), vec![9]);
        let tx = TxAttempt { frame: Some(frame), offset_ns: offset, source_corrupt_bits: 0 };
        let obs = bus.resolve_slot(&tx, &[RxDisturbance::NONE], &mut rng);
        let is_timing =
            matches!(obs[0], decos_ttnet::SlotObservation::TimingViolation { .. });
        prop_assert!(is_timing);
    }

    // ------------------- membership -----------------------------------------

    #[test]
    fn membership_view_reflects_last_run(
        outcomes in proptest::collection::vec(any::<bool>(), 1..200),
        fail_t in 1u32..4,
        rejoin_t in 1u32..4,
    ) {
        let mut svc = MembershipService::new(
            2,
            MembershipParams { fail_threshold: fail_t, rejoin_threshold: rejoin_t },
        );
        for &ok in &outcomes {
            svc.observe_slot(NodeId(1), ok);
        }
        // Compute the expected membership by replaying the definition.
        let mut member = true;
        let mut fails = 0u32;
        let mut okays = 0u32;
        for &ok in &outcomes {
            if ok {
                fails = 0;
                okays += 1;
                if !member && okays >= rejoin_t {
                    member = true;
                }
            } else {
                okays = 0;
                fails += 1;
                if member && fails >= fail_t {
                    member = false;
                }
            }
        }
        prop_assert_eq!(svc.view().contains(NodeId(1)), member);
        // Departures and rejoins differ by at most one.
        prop_assert!(svc.departures() >= svc.rejoins());
        prop_assert!(svc.departures() - svc.rejoins() <= 1);
    }

    // ------------------- timing roundtrip -----------------------------------

    #[test]
    fn start_of_is_monotone_in_address(
        n in 1u16..16,
        r1 in 0u64..10_000,
        s1 in 0u16..16,
        r2 in 0u64..10_000,
        s2 in 0u16..16,
    ) {
        let sched = TdmaSchedule::round_robin(n, SimDuration::from_micros(250));
        let a = decos_ttnet::SlotAddress { round: r1, slot: SlotIndex(s1 % n) };
        let b = decos_ttnet::SlotAddress { round: r2, slot: SlotIndex(s2 % n) };
        let ord_addr = (a.round, a.slot.0).cmp(&(b.round, b.slot.0));
        let ta: SimTime = sched.start_of(a);
        let tb: SimTime = sched.start_of(b);
        prop_assert_eq!(ord_addr, ta.cmp(&tb));
    }
}
