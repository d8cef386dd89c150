//! Binary codec for the per-round campaign delta.
//!
//! One [`RoundDelta`] is journaled per TDMA round: the round's increments
//! of every dissemination counter and lifecycle statistic, the cumulative
//! delivery quality at round end (bit-exact, via `f64::to_bits`), and the
//! diagnostic-path disturbance in force. The encoding is fixed-width
//! little-endian with a leading version byte — no varints, no padding —
//! so any two encodings of equal deltas are byte-identical, which is what
//! the resume path's replay-verify step compares against.

use decos_faults::DiagDisturbance;
use decos_platform::NodeId;

/// Record kind tag for campaign round deltas.
pub const ROUND_DELTA_KIND: u8 = 1;
/// Record kind tag for fleet vehicle outcomes (opaque JSON payload,
/// encoded by the `decos` layer).
pub const VEHICLE_KIND: u8 = 2;

/// Codec version byte opening every [`RoundDelta`] payload.
const VERSION: u8 = 1;
/// Sentinel for "no babbler" in the disturbance encoding ([`NodeId`] is
/// `u16`, so `u32::MAX` can never collide with a real node).
const NO_BABBLER: u32 = u32::MAX;
/// Fixed encoded size: version + 10 u64 counters + failovers u32 +
/// quality bits u64 + crashed-rounds u64 + disturbance (8+8+4+4+4+1).
pub const ROUND_DELTA_LEN: usize = 1 + 10 * 8 + 4 + 8 + 8 + 29;

/// Why a payload failed to decode (the frame CRC already passed, so this
/// indicates a version or layout mismatch, not a torn write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Payload shorter than the fixed layout.
    Truncated,
    /// Unknown version byte.
    BadVersion(u8),
    /// Payload longer than the fixed layout.
    TrailingBytes,
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "round-delta payload truncated"),
            CodecError::BadVersion(v) => write!(f, "unknown round-delta codec version {v}"),
            CodecError::TrailingBytes => write!(f, "round-delta payload has trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// One round's journal entry: per-round increments plus end-of-round
/// cumulative quality and the active diagnostic-path disturbance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundDelta {
    /// TDMA round index.
    pub round: u64,
    /// Symptoms offered to the diagnostic network this round.
    pub offered: u64,
    /// Symptoms delivered this round.
    pub delivered: u64,
    /// Symptoms dropped this round.
    pub dropped: u64,
    /// Frames corrupted this round.
    pub corrupted: u64,
    /// Frames rejected this round.
    pub rejected: u64,
    /// Frames delayed this round.
    pub delayed: u64,
    /// Frames flagged as forged this round.
    pub forged_suspected: u64,
    /// ONA pattern matches this round.
    pub ona_matches: u64,
    /// Trust-frozen rounds accrued this round (0 or 1).
    pub frozen_rounds: u64,
    /// Crashed-diagnostic rounds accrued this round (0 or 1).
    pub crashed_rounds: u64,
    /// Cold-standby failovers this round.
    pub failovers: u32,
    /// Cumulative mean delivery quality at round end, as raw bits —
    /// bit-exact across replay by the determinism contract.
    pub quality_bits: u64,
    /// The diagnostic-path disturbance in force at round end.
    pub disturbance: DiagDisturbance,
}

impl RoundDelta {
    /// Appends the fixed-width encoding to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(ROUND_DELTA_LEN);
        out.push(VERSION);
        for v in [
            self.round,
            self.offered,
            self.delivered,
            self.dropped,
            self.corrupted,
            self.rejected,
            self.delayed,
            self.forged_suspected,
            self.ona_matches,
            self.frozen_rounds,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        // `crashed_rounds` rides with `failovers` and quality after the
        // u64 block to keep the layout grouping stable if counters grow.
        out.extend_from_slice(&self.failovers.to_le_bytes());
        out.extend_from_slice(&self.quality_bits.to_le_bytes());
        out.extend_from_slice(&self.crashed_rounds.to_le_bytes());
        out.extend_from_slice(&self.disturbance.loss_prob.to_bits().to_le_bytes());
        out.extend_from_slice(&self.disturbance.corrupt_prob.to_bits().to_le_bytes());
        out.extend_from_slice(&self.disturbance.delay_rounds.to_le_bytes());
        let babbler = self.disturbance.babbler.map_or(NO_BABBLER, |n| u32::from(n.0));
        out.extend_from_slice(&babbler.to_le_bytes());
        out.extend_from_slice(&self.disturbance.forged_per_round.to_le_bytes());
        out.push(u8::from(self.disturbance.crashed));
    }

    /// The fixed-width encoding as a fresh buffer.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ROUND_DELTA_LEN);
        self.encode_into(&mut out);
        out
    }

    /// Decodes a payload produced by `RoundDelta::encode_into`.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        if bytes.len() < ROUND_DELTA_LEN {
            return Err(CodecError::Truncated);
        }
        if bytes.len() > ROUND_DELTA_LEN {
            return Err(CodecError::TrailingBytes);
        }
        if bytes[0] != VERSION {
            return Err(CodecError::BadVersion(bytes[0]));
        }
        let mut off = 1usize;
        let u64_at = |o: &mut usize| {
            let v = u64::from_le_bytes(bytes[*o..*o + 8].try_into().unwrap());
            *o += 8;
            v
        };
        let round = u64_at(&mut off);
        let offered = u64_at(&mut off);
        let delivered = u64_at(&mut off);
        let dropped = u64_at(&mut off);
        let corrupted = u64_at(&mut off);
        let rejected = u64_at(&mut off);
        let delayed = u64_at(&mut off);
        let forged_suspected = u64_at(&mut off);
        let ona_matches = u64_at(&mut off);
        let frozen_rounds = u64_at(&mut off);
        let failovers = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        off += 4;
        let quality_bits = u64_at(&mut off);
        let crashed_rounds = u64_at(&mut off);
        let loss_prob = f64::from_bits(u64_at(&mut off));
        let corrupt_prob = f64::from_bits(u64_at(&mut off));
        let delay_rounds = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        off += 4;
        let babbler_raw = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        off += 4;
        let forged_per_round = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        off += 4;
        let crashed = bytes[off] != 0;
        let babbler = (babbler_raw != NO_BABBLER).then_some(NodeId(babbler_raw as u16));
        Ok(RoundDelta {
            round,
            offered,
            delivered,
            dropped,
            corrupted,
            rejected,
            delayed,
            forged_suspected,
            ona_matches,
            frozen_rounds,
            crashed_rounds,
            failovers,
            quality_bits,
            disturbance: DiagDisturbance {
                loss_prob,
                corrupt_prob,
                delay_rounds,
                babbler,
                forged_per_round,
                crashed,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RoundDelta {
        RoundDelta {
            round: 41,
            offered: 12,
            delivered: 11,
            dropped: 1,
            corrupted: 0,
            rejected: 2,
            delayed: 3,
            forged_suspected: 0,
            ona_matches: 4,
            frozen_rounds: 1,
            crashed_rounds: 0,
            failovers: 1,
            quality_bits: 0.987_f64.to_bits(),
            disturbance: DiagDisturbance {
                loss_prob: 0.25,
                corrupt_prob: 0.0,
                delay_rounds: 2,
                babbler: Some(NodeId(3)),
                forged_per_round: 7,
                crashed: false,
            },
        }
    }

    #[test]
    fn round_trips_bit_identically() {
        let d = sample();
        let enc = d.encode();
        assert_eq!(enc.len(), ROUND_DELTA_LEN);
        let back = RoundDelta::decode(&enc).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.encode(), enc, "re-encoding must be byte-identical");
    }

    #[test]
    fn no_babbler_round_trips() {
        let mut d = sample();
        d.disturbance.babbler = None;
        assert_eq!(RoundDelta::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn rejects_wrong_sizes_and_versions() {
        let enc = sample().encode();
        assert_eq!(RoundDelta::decode(&enc[..enc.len() - 1]), Err(CodecError::Truncated));
        let mut long = enc.clone();
        long.push(0);
        assert_eq!(RoundDelta::decode(&long), Err(CodecError::TrailingBytes));
        let mut bad = enc;
        bad[0] = 9;
        assert_eq!(RoundDelta::decode(&bad), Err(CodecError::BadVersion(9)));
    }
}
