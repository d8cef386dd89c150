//! TDMA frames.
//!
//! A frame is the unit of transmission on the time-triggered core network.
//! Its payload multiplexes the virtual-network segments of all DASs hosted
//! on the sending component (see `decos-vnet`); header fields carry the
//! sender identity and the global round/slot position so receivers can
//! detect masquerading and slot confusion; a CRC-32 trailer converts value
//! corruption into detectable invalidity.

use crate::crc::Crc32;
use crate::schedule::SlotIndex;
use rand::rngs::SmallRng;
use rand::RngExt as _;
use serde::{Deserialize, Serialize};

/// Network-level identity of a component (node computer).
///
/// `NodeId` is assigned by the cluster design and equals the index of the
/// component's slot(s) owner in the TDMA schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u16);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// A frame as put on (and taken from) the physical broadcast channel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    /// Sending component.
    pub sender: NodeId,
    /// TDMA round number at transmission.
    pub round: u64,
    /// Slot within the round.
    pub slot: SlotIndex,
    /// Multiplexed virtual-network payload.
    pub payload: Vec<u8>,
    /// CRC-32 over header and payload.
    pub crc: u32,
}

impl Frame {
    /// Builds a frame with a correct CRC.
    pub fn new(sender: NodeId, round: u64, slot: SlotIndex, payload: Vec<u8>) -> Self {
        let crc = Self::compute_crc(sender, round, slot, &payload);
        Frame { sender, round, slot, payload, crc }
    }

    fn compute_crc(sender: NodeId, round: u64, slot: SlotIndex, payload: &[u8]) -> u32 {
        let mut crc = Crc32::new();
        crc.update(&sender.0.to_le_bytes());
        crc.update(&round.to_le_bytes());
        crc.update(&slot.0.to_le_bytes());
        crc.update(payload);
        crc.finish()
    }

    /// A blank frame for buffer reuse: fill the header with [`reset_for`]
    /// (or [`copy_from`]), append to `payload`, then [`seal`].
    ///
    /// [`reset_for`]: Frame::reset_for
    /// [`copy_from`]: Frame::copy_from
    /// [`seal`]: Frame::seal
    pub(crate) fn empty() -> Self {
        Frame { sender: NodeId(0), round: 0, slot: SlotIndex(0), payload: Vec::new(), crc: 0 }
    }

    /// Rewrites the header in place and clears the payload, keeping its
    /// capacity. The CRC is stale until [`Frame::seal`] is called.
    pub fn reset_for(&mut self, sender: NodeId, round: u64, slot: SlotIndex) {
        self.sender = sender;
        self.round = round;
        self.slot = slot;
        self.payload.clear();
        self.crc = 0;
    }

    /// Becomes a copy of `src` without giving up this frame's payload
    /// buffer (the reusing counterpart of `clone_from` with an explicit
    /// contract: capacity is retained).
    pub(crate) fn copy_from(&mut self, src: &Frame) {
        self.sender = src.sender;
        self.round = src.round;
        self.slot = src.slot;
        self.payload.clear();
        self.payload.extend_from_slice(&src.payload);
        self.crc = src.crc;
    }

    /// Recomputes the CRC over the current header and payload.
    pub fn seal(&mut self) {
        self.crc = Self::compute_crc(self.sender, self.round, self.slot, &self.payload);
    }

    /// Whether the CRC matches the content.
    pub fn is_valid(&self) -> bool {
        self.crc == Self::compute_crc(self.sender, self.round, self.slot, &self.payload)
    }

    /// Flips `bits` random payload bits (EMI / SEU manifestation) without
    /// recomputing the CRC. Returns the number of bits actually flipped
    /// (0 for an empty payload).
    pub fn corrupt_payload_bits(&mut self, bits: u32, rng: &mut SmallRng) -> u32 {
        if self.payload.is_empty() {
            return 0;
        }
        let nbits = self.payload.len() * 8;
        let mut flipped = 0;
        for _ in 0..bits {
            let k = (rng.random::<u64>() as usize) % nbits;
            self.payload[k / 8] ^= 1 << (k % 8);
            flipped += 1;
        }
        flipped
    }
}

impl Default for Frame {
    fn default() -> Self {
        Frame::empty()
    }
}

/// What a receiver observed in one slot.
///
/// The interface state a component exposes to the diagnostic services is a
/// sequence of these judgments, one per (round, slot).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SlotObservation {
    /// A valid frame from the expected sender arrived at the expected
    /// instant.
    Correct(Frame),
    /// Nothing arrived in the slot (sender silent, guardian cut the
    /// transmission, or channel destroyed the signal).
    Omission,
    /// A frame arrived but its CRC check failed (value corruption). The
    /// receiver must treat the slot as an omission, but the *reason* is an
    /// observable symptom distinct from silence.
    InvalidCrc {
        /// Sender claimed by the (untrusted) header.
        claimed_sender: NodeId,
    },
    /// A valid frame arrived, but offset from the expected send instant by
    /// more than the receive-window half-width (timing failure in the sense
    /// of the fault hypothesis, §II-E).
    TimingViolation {
        /// The frame content (valid, just mistimed).
        frame: Frame,
        /// Measured offset from the expected send instant, ns (signed).
        offset_ns: i64,
    },
}

impl SlotObservation {
    /// Whether the slot delivered usable data.
    pub fn is_correct(&self) -> bool {
        matches!(self, SlotObservation::Correct(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decos_sim::SeedSource;

    fn frame() -> Frame {
        Frame::new(NodeId(3), 17, SlotIndex(2), vec![0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42])
    }

    #[test]
    fn fresh_frame_is_valid() {
        assert!(frame().is_valid());
    }

    #[test]
    fn header_is_covered_by_crc() {
        let mut f = frame();
        f.sender = NodeId(4);
        assert!(!f.is_valid());
        let mut f = frame();
        f.round += 1;
        assert!(!f.is_valid());
        let mut f = frame();
        f.slot = SlotIndex(0);
        assert!(!f.is_valid());
    }

    #[test]
    fn payload_corruption_detected() {
        let seeds = SeedSource::new(5);
        let mut rng = seeds.stream("corrupt", 0);
        let mut f = frame();
        let flipped = f.corrupt_payload_bits(3, &mut rng);
        assert_eq!(flipped, 3);
        assert!(!f.is_valid());
    }

    #[test]
    fn corrupting_empty_payload_is_a_noop() {
        let seeds = SeedSource::new(5);
        let mut rng = seeds.stream("corrupt", 1);
        let mut f = Frame::new(NodeId(0), 0, SlotIndex(0), vec![]);
        assert_eq!(f.corrupt_payload_bits(4, &mut rng), 0);
        assert!(f.is_valid());
    }

    #[test]
    fn crc_corruption_detected() {
        let mut f = frame();
        f.crc ^= 0xA5A5_A5A5;
        assert!(!f.is_valid());
    }

    #[test]
    fn observation_classification() {
        assert!(SlotObservation::Correct(frame()).is_correct());
        assert!(!SlotObservation::Omission.is_correct());
        assert!(!SlotObservation::InvalidCrc { claimed_sender: NodeId(1) }.is_correct());
        assert!(!SlotObservation::TimingViolation { frame: frame(), offset_ns: 99 }.is_correct());
    }

    #[test]
    fn reused_frame_sealed_in_place_equals_fresh_frame() {
        let mut reused = Frame::empty();
        reused.payload.extend_from_slice(&[9, 9, 9, 9]); // stale content
        reused.reset_for(NodeId(3), 17, SlotIndex(2));
        reused.payload.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42]);
        reused.seal();
        assert_eq!(reused, frame());
        assert!(reused.is_valid());
    }

    #[test]
    fn copy_from_preserves_equality_and_validity() {
        let mut dst = Frame::empty();
        dst.payload.reserve(64);
        dst.copy_from(&frame());
        assert_eq!(dst, frame());
        assert!(dst.is_valid());
    }
}
