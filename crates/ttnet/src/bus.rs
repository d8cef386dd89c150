//! Broadcast channel model.
//!
//! Resolves, per TDMA slot, what every receiver observes given the sender's
//! behaviour and the disturbances currently acting on the channel. The
//! resolution is a pure function — the discrete-event orchestration lives in
//! `decos-platform` — which keeps the protocol logic independently testable.
//!
//! Disturbance inputs come from the fault-injection engine (`decos-faults`):
//! a transmit-side disturbance (sender component fault: silence, wrong
//! timing, corrupted content at the source) and per-receiver disturbances
//! (spatially local effects such as an EMI burst near a subset of
//! components, or a marginal connector at one receiver's stub).

use crate::frame::{Frame, NodeId, SlotObservation};
use crate::guardian::GuardianMode;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

/// Sender-side behaviour in a slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxAttempt {
    /// The frame the component attempts to send; `None` models a silent
    /// (crashed, powered-down or restarting) component.
    pub frame: Option<Frame>,
    /// Deviation of the actual send instant from the nominal slot start
    /// (clock drift beyond sync, or a timing failure of the sender), ns.
    pub offset_ns: i64,
    /// Bits corrupted *at the source* (internal fault between host CPU and
    /// communication controller), applied before transmission.
    pub source_corrupt_bits: u32,
}

impl TxAttempt {
    /// A silent slot (no transmission attempt).
    pub fn silent() -> Self {
        TxAttempt { frame: None, offset_ns: 0, source_corrupt_bits: 0 }
    }
}

/// Borrowed view of a sender's slot behaviour, used by the reusing
/// resolution path ([`BroadcastBus::resolve_slot_into`]) so the caller's
/// frame buffer never has to be moved or cloned.
#[derive(Debug, Clone, Copy)]
pub struct TxSignal<'a> {
    /// The frame the component attempts to send; `None` models silence.
    pub frame: Option<&'a Frame>,
    /// Deviation of the actual send instant from the nominal slot start, ns.
    pub offset_ns: i64,
    /// Bits corrupted at the source, applied before transmission.
    pub source_corrupt_bits: u32,
}

/// Allocation-free slot judgment, the [`SlotObservation`] counterpart used
/// by [`BroadcastBus::resolve_slot_into`]. Frame *content* lives in the
/// [`ResolveScratch`]: `Correct` delivers the shared wire frame,
/// `CorrectLocal(k)` delivers `scratch.locals[k]` (a receiver-locally
/// corrupted copy that still passed the CRC check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotVerdict {
    /// A valid, well-timed frame — content is `ResolveScratch::wire`.
    Correct,
    /// A valid, well-timed frame whose receiver-local bit flips left the
    /// CRC intact — content is `ResolveScratch::locals[k]`.
    CorrectLocal(u32),
    /// Nothing usable arrived in the slot.
    Omission,
    /// A frame arrived but failed the CRC check.
    InvalidCrc {
        /// Sender claimed by the (untrusted) header.
        claimed_sender: NodeId,
    },
    /// A valid frame arrived outside the receive window.
    TimingViolation {
        /// Measured offset from the expected send instant, ns (signed).
        offset_ns: i64,
    },
}

/// Reusable buffers for [`BroadcastBus::resolve_slot_into`]. After warm-up
/// a steady-state resolution performs no heap allocation: the wire frame,
/// the verdict vector and the pool of receiver-local frame copies all keep
/// their capacity across slots.
#[derive(Debug, Default)]
pub struct ResolveScratch {
    /// The frame as put on the wire (after source-side corruption).
    pub wire: Frame,
    /// One verdict per receiver, in receiver order.
    pub verdicts: Vec<SlotVerdict>,
    /// Pool of receiver-local frame copies; `SlotVerdict::CorrectLocal(k)`
    /// and the `claimed_sender` of locally-corrupted frames index into the
    /// first `locals_used` entries. Entries beyond that are stale capacity.
    pub locals: Vec<Frame>,
    locals_used: usize,
}

impl ResolveScratch {
    /// The payload a receiver with the given verdict should decode, if any.
    pub fn delivered_payload(&self, verdict: SlotVerdict) -> Option<&[u8]> {
        match verdict {
            SlotVerdict::Correct => Some(&self.wire.payload),
            SlotVerdict::CorrectLocal(k) => Some(&self.locals[k as usize].payload),
            _ => None,
        }
    }
}

/// Receiver-side disturbance for one slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RxDisturbance {
    /// The receiver's stub loses the signal entirely (connector
    /// micro-interruption, local EMI saturation).
    pub omit: bool,
    /// Number of payload bits flipped on the path to this receiver.
    pub corrupt_bits: u32,
}

impl RxDisturbance {
    /// No disturbance.
    pub const NONE: RxDisturbance = RxDisturbance { omit: false, corrupt_bits: 0 };
}

/// Static parameters of the channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelParams {
    /// Guardian configuration on the transmit path.
    pub guardian: GuardianMode,
    /// Half-width of the receivers' acceptance window around the nominal
    /// receive instant, ns. Valid frames outside it are timing violations.
    pub rx_window_half_ns: u64,
}

impl Default for ChannelParams {
    fn default() -> Self {
        ChannelParams {
            guardian: GuardianMode::Enforcing { window_half_ns: 10_000 },
            rx_window_half_ns: 10_000,
        }
    }
}

/// The broadcast channel: resolves slot outcomes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BroadcastBus {
    params: ChannelParams,
}

impl BroadcastBus {
    /// Creates a bus with the given parameters.
    pub fn new(params: ChannelParams) -> Self {
        BroadcastBus { params }
    }

    /// Resolves one slot: what does each of the `receivers.len()` receivers
    /// observe?
    ///
    /// `rng` drives the placement of corrupted bits; all *whether* decisions
    /// (omit or not, how many bits) were already made by the injection
    /// engine and arrive here as data.
    pub fn resolve_slot(
        &self,
        tx: &TxAttempt,
        receivers: &[RxDisturbance],
        rng: &mut SmallRng,
    ) -> Vec<SlotObservation> {
        // 1. Sender silent → everyone sees an omission.
        let Some(frame) = &tx.frame else {
            return vec![SlotObservation::Omission; receivers.len()];
        };

        // 2. Source-side corruption happens before the wire.
        let mut wire_frame = frame.clone();
        if tx.source_corrupt_bits > 0 {
            wire_frame.corrupt_payload_bits(tx.source_corrupt_bits, rng);
        }

        // 3. Guardian judges the send instant.
        if !self.params.guardian.admits(tx.offset_ns) {
            return vec![SlotObservation::Omission; receivers.len()];
        }

        // 4. Per-receiver path effects.
        receivers
            .iter()
            .map(|rx| {
                if rx.omit {
                    return SlotObservation::Omission;
                }
                let mut seen = wire_frame.clone();
                if rx.corrupt_bits > 0 {
                    seen.corrupt_payload_bits(rx.corrupt_bits, rng);
                }
                if !seen.is_valid() {
                    return SlotObservation::InvalidCrc { claimed_sender: seen.sender };
                }
                if tx.offset_ns.unsigned_abs() > self.params.rx_window_half_ns {
                    return SlotObservation::TimingViolation {
                        frame: seen,
                        offset_ns: tx.offset_ns,
                    };
                }
                SlotObservation::Correct(seen)
            })
            .collect()
    }

    /// Resolves one slot into reusable buffers — the allocation-free
    /// counterpart of [`resolve_slot`](BroadcastBus::resolve_slot).
    ///
    /// Draws from `rng` in exactly the same order as `resolve_slot` for the
    /// same inputs (source corruption first, then receiver-local corruption
    /// in receiver order, with omitted receivers drawing nothing), so a
    /// simulation switching between the two paths stays bit-identical.
    pub fn resolve_slot_into(
        &self,
        tx: TxSignal<'_>,
        receivers: &[RxDisturbance],
        rng: &mut SmallRng,
        scratch: &mut ResolveScratch,
    ) {
        scratch.verdicts.clear();
        scratch.locals_used = 0;

        // 1. Sender silent → everyone sees an omission.
        let Some(frame) = tx.frame else {
            scratch.verdicts.resize(receivers.len(), SlotVerdict::Omission);
            return;
        };

        // 2. Source-side corruption happens before the wire.
        scratch.wire.copy_from(frame);
        if tx.source_corrupt_bits > 0 {
            scratch.wire.corrupt_payload_bits(tx.source_corrupt_bits, rng);
        }

        // 3. Guardian judges the send instant.
        if !self.params.guardian.admits(tx.offset_ns) {
            scratch.verdicts.resize(receivers.len(), SlotVerdict::Omission);
            return;
        }

        // 4. Per-receiver path effects. Undisturbed receivers all see the
        // identical wire frame, so its CRC is checked once up front;
        // locally-corrupted copies are checked individually.
        let wire_valid = scratch.wire.is_valid();
        let timing_bad = tx.offset_ns.unsigned_abs() > self.params.rx_window_half_ns;
        for rx in receivers {
            if rx.omit {
                scratch.verdicts.push(SlotVerdict::Omission);
                continue;
            }
            let v = if rx.corrupt_bits > 0 {
                if scratch.locals.len() == scratch.locals_used {
                    scratch.locals.push(Frame::empty());
                }
                let k = scratch.locals_used;
                scratch.locals_used += 1;
                let (valid, claimed_sender) = {
                    let local = &mut scratch.locals[k];
                    local.copy_from(&scratch.wire);
                    local.corrupt_payload_bits(rx.corrupt_bits, rng);
                    (local.is_valid(), local.sender)
                };
                if !valid {
                    SlotVerdict::InvalidCrc { claimed_sender }
                } else if timing_bad {
                    SlotVerdict::TimingViolation { offset_ns: tx.offset_ns }
                } else {
                    SlotVerdict::CorrectLocal(k as u32)
                }
            } else if !wire_valid {
                SlotVerdict::InvalidCrc { claimed_sender: scratch.wire.sender }
            } else if timing_bad {
                SlotVerdict::TimingViolation { offset_ns: tx.offset_ns }
            } else {
                SlotVerdict::Correct
            };
            scratch.verdicts.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::NodeId;
    use crate::schedule::SlotIndex;
    use decos_sim::SeedSource;

    fn frame() -> Frame {
        Frame::new(NodeId(1), 3, SlotIndex(1), vec![1, 2, 3, 4, 5, 6, 7, 8])
    }

    fn rng() -> SmallRng {
        SeedSource::new(42).stream("bus", 0)
    }

    fn nominal() -> TxAttempt {
        TxAttempt { frame: Some(frame()), offset_ns: 0, source_corrupt_bits: 0 }
    }

    #[test]
    fn nominal_slot_delivers_to_all() {
        let bus = BroadcastBus::new(ChannelParams::default());
        let obs = bus.resolve_slot(&nominal(), &[RxDisturbance::NONE; 3], &mut rng());
        assert_eq!(obs.len(), 3);
        assert!(obs.iter().all(|o| o.is_correct()));
    }

    #[test]
    fn silent_sender_is_omission_everywhere() {
        let bus = BroadcastBus::new(ChannelParams::default());
        let obs = bus.resolve_slot(&TxAttempt::silent(), &[RxDisturbance::NONE; 4], &mut rng());
        assert!(obs.iter().all(|o| *o == SlotObservation::Omission));
    }

    #[test]
    fn source_corruption_fails_crc_for_all() {
        let bus = BroadcastBus::new(ChannelParams::default());
        let tx = TxAttempt { frame: Some(frame()), offset_ns: 0, source_corrupt_bits: 3 };
        let obs = bus.resolve_slot(&tx, &[RxDisturbance::NONE; 2], &mut rng());
        for o in obs {
            assert_eq!(o, SlotObservation::InvalidCrc { claimed_sender: NodeId(1) });
        }
    }

    #[test]
    fn receiver_local_corruption_is_local() {
        let bus = BroadcastBus::new(ChannelParams::default());
        let rx = [RxDisturbance::NONE, RxDisturbance { omit: false, corrupt_bits: 2 }];
        let obs = bus.resolve_slot(&nominal(), &rx, &mut rng());
        assert!(obs[0].is_correct());
        assert!(matches!(obs[1], SlotObservation::InvalidCrc { .. }));
    }

    #[test]
    fn receiver_local_omission_is_local() {
        let bus = BroadcastBus::new(ChannelParams::default());
        let rx = [RxDisturbance { omit: true, corrupt_bits: 0 }, RxDisturbance::NONE];
        let obs = bus.resolve_slot(&nominal(), &rx, &mut rng());
        assert_eq!(obs[0], SlotObservation::Omission);
        assert!(obs[1].is_correct());
    }

    #[test]
    fn guardian_converts_gross_timing_failure_into_omission() {
        let bus = BroadcastBus::new(ChannelParams::default());
        let tx = TxAttempt { frame: Some(frame()), offset_ns: 50_000, source_corrupt_bits: 0 };
        let obs = bus.resolve_slot(&tx, &[RxDisturbance::NONE; 2], &mut rng());
        assert!(obs.iter().all(|o| *o == SlotObservation::Omission));
    }

    #[test]
    fn without_guardian_receivers_see_timing_violation() {
        let params = ChannelParams { guardian: GuardianMode::None, rx_window_half_ns: 10_000 };
        let bus = BroadcastBus::new(params);
        let tx = TxAttempt { frame: Some(frame()), offset_ns: 50_000, source_corrupt_bits: 0 };
        let obs = bus.resolve_slot(&tx, &[RxDisturbance::NONE; 1], &mut rng());
        assert!(matches!(obs[0], SlotObservation::TimingViolation { offset_ns: 50_000, .. }));
    }

    #[test]
    fn small_offsets_within_window_are_correct() {
        let bus = BroadcastBus::new(ChannelParams::default());
        let tx = TxAttempt { frame: Some(frame()), offset_ns: 5_000, source_corrupt_bits: 0 };
        let obs = bus.resolve_slot(&tx, &[RxDisturbance::NONE; 1], &mut rng());
        assert!(obs[0].is_correct());
    }

    /// Maps a reused-buffer verdict back to the owned observation it must
    /// correspond to, for comparison against `resolve_slot`.
    fn materialize(scratch: &ResolveScratch, v: SlotVerdict, offset_ns: i64) -> SlotObservation {
        match v {
            SlotVerdict::Correct => SlotObservation::Correct(scratch.wire.clone()),
            SlotVerdict::CorrectLocal(k) => {
                SlotObservation::Correct(scratch.locals[k as usize].clone())
            }
            SlotVerdict::Omission => SlotObservation::Omission,
            SlotVerdict::InvalidCrc { claimed_sender } => {
                SlotObservation::InvalidCrc { claimed_sender }
            }
            SlotVerdict::TimingViolation { offset_ns: o } => {
                assert_eq!(o, offset_ns);
                let frame = if scratch.locals_used > 0 {
                    scratch.locals[scratch.locals_used - 1].clone()
                } else {
                    scratch.wire.clone()
                };
                SlotObservation::TimingViolation { frame, offset_ns: o }
            }
        }
    }

    #[test]
    fn resolve_slot_into_matches_resolve_slot() {
        let cases: Vec<(TxAttempt, Vec<RxDisturbance>)> = vec![
            (nominal(), vec![RxDisturbance::NONE; 4]),
            (TxAttempt::silent(), vec![RxDisturbance::NONE; 4]),
            (
                TxAttempt { frame: Some(frame()), offset_ns: 0, source_corrupt_bits: 3 },
                vec![RxDisturbance::NONE; 3],
            ),
            (
                nominal(),
                vec![
                    RxDisturbance::NONE,
                    RxDisturbance { omit: true, corrupt_bits: 0 },
                    RxDisturbance { omit: false, corrupt_bits: 2 },
                    RxDisturbance { omit: false, corrupt_bits: 5 },
                ],
            ),
            (
                TxAttempt { frame: Some(frame()), offset_ns: 50_000, source_corrupt_bits: 0 },
                vec![RxDisturbance::NONE; 2],
            ),
            (
                TxAttempt { frame: Some(frame()), offset_ns: 2, source_corrupt_bits: 1 },
                vec![RxDisturbance { omit: false, corrupt_bits: 1 }, RxDisturbance::NONE],
            ),
        ];
        // One scratch reused across every case, proving stale state never
        // leaks between resolutions.
        let mut scratch = ResolveScratch::default();
        for (tx, rxs) in &cases {
            let bus = BroadcastBus::new(ChannelParams::default());
            let expected = bus.resolve_slot(tx, rxs, &mut rng());
            let signal = TxSignal {
                frame: tx.frame.as_ref(),
                offset_ns: tx.offset_ns,
                source_corrupt_bits: tx.source_corrupt_bits,
            };
            bus.resolve_slot_into(signal, rxs, &mut rng(), &mut scratch);
            assert_eq!(scratch.verdicts.len(), expected.len());
            for (v, e) in scratch.verdicts.iter().zip(&expected) {
                // TimingViolation frame recovery in `materialize` only works
                // when at most one local copy exists; the corrupt+timing case
                // above keeps it that way.
                assert_eq!(&materialize(&scratch, *v, tx.offset_ns), e);
            }
        }
    }
}
