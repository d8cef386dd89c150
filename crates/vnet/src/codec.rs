//! Encoding of virtual-network segments into TDMA frame payloads.
//!
//! A component's frame payload is the concatenation of fixed-position
//! *segments*, one per virtual network the component participates in. The
//! static layout (who gets which byte range) is part of the cluster
//! configuration — encapsulation between virtual networks is achieved
//! precisely because segment boundaries are fixed a priori and no network
//! can exceed its allocation ("no probe effect at network level", §II-D).

use crate::port::{Message, PortId, MESSAGE_WIRE_BYTES};
use decos_sim::time::SimTime;

/// Encodes up to `max` messages into a segment of `capacity` bytes.
///
/// Layout: `u16` message count, then each message as
/// `src(u32) | seq(u64) | sent_at(u64) | value(f64)`, little-endian.
/// Returns the number of messages actually encoded (bounded by capacity).
pub fn encode_segment(messages: &[Message], capacity: usize, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    if capacity < 2 {
        // Degenerate allocation: not even the count header fits. Pad and
        // carry nothing.
        out.resize(start + capacity, 0);
        return 0;
    }
    let fit = ((capacity - 2) / MESSAGE_WIRE_BYTES).min(messages.len());
    out.extend_from_slice(&(fit as u16).to_le_bytes());
    for m in &messages[..fit] {
        out.extend_from_slice(&m.src.0.to_le_bytes());
        out.extend_from_slice(&m.seq.to_le_bytes());
        out.extend_from_slice(&m.sent_at.as_nanos().to_le_bytes());
        out.extend_from_slice(&m.value.to_le_bytes());
    }
    // Pad the segment to its full capacity so downstream segments keep
    // their fixed offsets.
    out.resize(start + capacity, 0);
    fit
}

/// Decoding error for a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Segment shorter than its declared content (corruption slipped past
    /// the CRC, or a configuration mismatch between sender and receiver).
    Truncated,
}

/// Decodes a segment produced by [`encode_segment`].
pub fn decode_segment(seg: &[u8]) -> Result<Vec<Message>, DecodeError> {
    let mut msgs = Vec::new();
    decode_segment_with(seg, |m| msgs.push(m))?;
    Ok(msgs)
}

/// Streaming form of [`decode_segment`]: hands each message to `sink`
/// without building a vector. Length validation happens up front, so
/// `sink` is never called on a segment that errors. Returns the message
/// count.
pub(crate) fn decode_segment_with(
    seg: &[u8],
    mut sink: impl FnMut(Message),
) -> Result<usize, DecodeError> {
    if seg.len() < 2 {
        return Err(DecodeError::Truncated);
    }
    let count = u16::from_le_bytes([seg[0], seg[1]]) as usize;
    let need = 2 + count * MESSAGE_WIRE_BYTES;
    if seg.len() < need {
        return Err(DecodeError::Truncated);
    }
    let mut off = 2;
    for _ in 0..count {
        let src = PortId(u32::from_le_bytes(seg[off..off + 4].try_into().expect("len checked")));
        off += 4;
        let seq = u64::from_le_bytes(seg[off..off + 8].try_into().expect("len checked"));
        off += 8;
        let sent = u64::from_le_bytes(seg[off..off + 8].try_into().expect("len checked"));
        off += 8;
        let value = f64::from_le_bytes(seg[off..off + 8].try_into().expect("len checked"));
        off += 8;
        sink(Message { src, seq, sent_at: SimTime::from_nanos(sent), value });
    }
    Ok(count)
}

/// Number of whole messages a segment of `capacity` bytes can carry.
pub fn segment_message_capacity(capacity: usize) -> usize {
    capacity.saturating_sub(2) / MESSAGE_WIRE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msgs(n: u64) -> Vec<Message> {
        (0..n)
            .map(|i| Message {
                src: PortId(7),
                seq: i,
                sent_at: SimTime::from_micros(i * 100),
                value: i as f64 * 0.5 - 3.0,
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        let m = msgs(5);
        let mut buf = Vec::new();
        let cap = 2 + 5 * MESSAGE_WIRE_BYTES;
        let n = encode_segment(&m, cap, &mut buf);
        assert_eq!(n, 5);
        assert_eq!(buf.len(), cap);
        let out = decode_segment(&buf).unwrap();
        assert_eq!(out, m);
    }

    #[test]
    fn capacity_bounds_encoding() {
        let m = msgs(10);
        let cap = 2 + 3 * MESSAGE_WIRE_BYTES + 5; // room for 3, plus slack
        let mut buf = Vec::new();
        let n = encode_segment(&m, cap, &mut buf);
        assert_eq!(n, 3);
        assert_eq!(buf.len(), cap, "segment must be padded to capacity");
        let out = decode_segment(&buf).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out, m[..3]);
    }

    #[test]
    fn empty_segment() {
        let mut buf = Vec::new();
        let n = encode_segment(&[], 64, &mut buf);
        assert_eq!(n, 0);
        assert_eq!(decode_segment(&buf).unwrap(), vec![]);
    }

    #[test]
    fn degenerate_capacity() {
        let mut buf = Vec::new();
        assert_eq!(encode_segment(&msgs(2), 1, &mut buf), 0);
        assert_eq!(buf.len(), 1);
        assert_eq!(decode_segment(&buf), Err(DecodeError::Truncated));
    }

    #[test]
    fn truncated_content_detected() {
        let m = msgs(2);
        let mut buf = Vec::new();
        encode_segment(&m, 2 + 2 * MESSAGE_WIRE_BYTES, &mut buf);
        // Claim 2 messages but cut the buffer short.
        let cut = &buf[..2 + MESSAGE_WIRE_BYTES];
        assert_eq!(decode_segment(cut), Err(DecodeError::Truncated));
    }

    #[test]
    fn capacity_helper() {
        assert_eq!(segment_message_capacity(0), 0);
        assert_eq!(segment_message_capacity(2), 0);
        assert_eq!(segment_message_capacity(2 + MESSAGE_WIRE_BYTES), 1);
        assert_eq!(segment_message_capacity(1 + MESSAGE_WIRE_BYTES), 0);
    }

    #[test]
    fn encode_appends_at_offset() {
        // Two segments packed back to back keep fixed offsets.
        let mut buf = Vec::new();
        let cap = 2 + MESSAGE_WIRE_BYTES;
        encode_segment(&msgs(1), cap, &mut buf);
        encode_segment(&msgs(1), cap, &mut buf);
        assert_eq!(buf.len(), 2 * cap);
        assert!(decode_segment(&buf[..cap]).is_ok());
        assert!(decode_segment(&buf[cap..]).is_ok());
    }
}
