//! CRC-framed journal records and the recovery scan.
//!
//! Wire layout of one record (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"DCJ1"
//!      4     1  kind   (1 = campaign round delta, 2 = fleet vehicle, ...)
//!      5     8  round  u64
//!     13     8  seq    u64
//!     21     4  len    u32, payload length
//!     25   len  payload
//!  25+len     4  crc32 (IEEE) over bytes [4 .. 25+len)  — kind through payload
//! ```
//!
//! `(round, seq)` must be strictly increasing across the journal
//! (lexicographically); the scan treats a violation like corruption and
//! stops there. The CRC excludes the magic (resynchronization marker, not
//! data) and covers everything else including the length field, so a
//! torn length cannot send the check off to read garbage as a trailer of
//! the right size.

/// Resynchronization marker opening every record.
pub(crate) const MAGIC: [u8; 4] = *b"DCJ1";
/// Fixed header size: magic + kind + round + seq + len.
pub(crate) const HEADER_LEN: usize = 4 + 1 + 8 + 8 + 4;
/// Trailing CRC size.
pub(crate) const TRAILER_LEN: usize = 4;
/// Upper bound on payload length the scan will accept. Journal payloads
/// are a few hundred bytes; anything past this is a corrupt length field,
/// not a record.
pub(crate) const MAX_PAYLOAD: u32 = 1 << 24;

/// Full framed size of a record with an `n`-byte payload.
#[must_use]
pub const fn framed_len(n: usize) -> usize {
    HEADER_LEN + n + TRAILER_LEN
}

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3 polynomial, the zlib/`cksum -o 3` variant).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = (c >> 8) ^ CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize];
    }
    !c
}

/// Appends one framed record to `out`.
///
/// # Panics
/// Panics if `payload` exceeds `MAX_PAYLOAD` — journal payloads are
/// small by design and an oversized one is a caller bug, not a runtime
/// condition.
pub fn encode_record(kind: u8, round: u64, seq: u64, payload: &[u8], out: &mut Vec<u8>) {
    assert!(payload.len() <= MAX_PAYLOAD as usize, "journal payload too large");
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(kind);
    out.extend_from_slice(&round.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start + MAGIC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Why the scan stopped before the end of the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than `HEADER_LEN` bytes remained — a torn header.
    TruncatedHeader,
    /// The magic marker is wrong — garbage or a bit-flipped header.
    BadMagic,
    /// The length field exceeds `MAX_PAYLOAD` — a corrupt length.
    OversizedLength,
    /// The payload + CRC extend past the end of the file — a torn body.
    TruncatedBody,
    /// The CRC over kind..payload does not match — a bit flip or torn
    /// trailer.
    CrcMismatch,
    /// `(round, seq)` did not increase — records out of order, which the
    /// append path never produces.
    NonMonotonic,
}

impl core::fmt::Display for TornReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            TornReason::TruncatedHeader => "truncated header",
            TornReason::BadMagic => "bad magic",
            TornReason::OversizedLength => "oversized length",
            TornReason::TruncatedBody => "truncated body",
            TornReason::CrcMismatch => "crc mismatch",
            TornReason::NonMonotonic => "non-monotonic (round, seq)",
        };
        f.write_str(s)
    }
}

/// One validated record recovered from a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRecord {
    /// Record kind tag.
    pub kind: u8,
    /// Round (campaign) or vehicle index (fleet).
    pub round: u64,
    /// Sequence number within the round.
    pub seq: u64,
    /// Decoded payload bytes.
    pub payload: Vec<u8>,
    /// Byte offset of the record's first byte in the journal.
    pub offset: u64,
}

/// The result of scan-validating a journal byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Every record up to (excluding) the first invalid byte.
    pub records: Vec<ScanRecord>,
    /// Length of the valid prefix: the journal should be truncated here.
    pub valid_len: u64,
    /// Why the scan stopped early, `None` if the whole stream validated.
    pub torn: Option<TornReason>,
}

/// Scan-validates `bytes` front to back, stopping at the first record
/// that is torn, corrupt, or out of order. Everything before the stop
/// offset is committed history; everything after is a casualty of the
/// crash (or tampering) and must be quarantined, never replayed.
#[must_use]
pub fn scan(bytes: &[u8]) -> ScanOutcome {
    let mut records = Vec::new();
    let mut off = 0usize;
    let mut prev: Option<(u64, u64)> = None;
    let torn = loop {
        if off == bytes.len() {
            break None;
        }
        let rest = &bytes[off..];
        if rest.len() < HEADER_LEN {
            break Some(TornReason::TruncatedHeader);
        }
        if rest[..4] != MAGIC {
            break Some(TornReason::BadMagic);
        }
        let kind = rest[4];
        let round = u64::from_le_bytes(rest[5..13].try_into().unwrap());
        let seq = u64::from_le_bytes(rest[13..21].try_into().unwrap());
        let len = u32::from_le_bytes(rest[21..25].try_into().unwrap());
        if len > MAX_PAYLOAD {
            break Some(TornReason::OversizedLength);
        }
        let total = framed_len(len as usize);
        if rest.len() < total {
            break Some(TornReason::TruncatedBody);
        }
        let stored_crc = u32::from_le_bytes(rest[total - TRAILER_LEN..total].try_into().unwrap());
        if crc32(&rest[4..total - TRAILER_LEN]) != stored_crc {
            break Some(TornReason::CrcMismatch);
        }
        if prev.is_some_and(|p| (round, seq) <= p) {
            break Some(TornReason::NonMonotonic);
        }
        prev = Some((round, seq));
        records.push(ScanRecord {
            kind,
            round,
            seq,
            payload: rest[HEADER_LEN..HEADER_LEN + len as usize].to_vec(),
            offset: off as u64,
        });
        off += total;
    };
    ScanOutcome { records, valid_len: off as u64, torn }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal(n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n as u64 {
            encode_record(1, i, i, &i.to_le_bytes(), &mut out);
        }
        out
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE check value: crc32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn scan_round_trips_clean_journal() {
        let bytes = journal(5);
        let out = scan(&bytes);
        assert_eq!(out.torn, None);
        assert_eq!(out.valid_len, bytes.len() as u64);
        assert_eq!(out.records.len(), 5);
        for (i, r) in out.records.iter().enumerate() {
            assert_eq!(r.round, i as u64);
            assert_eq!(r.payload, (i as u64).to_le_bytes());
        }
    }

    #[test]
    fn scan_truncates_at_every_cut_of_last_record() {
        let keep = journal(3);
        let full = journal(4);
        // A cut exactly on the record boundary is a clean journal…
        let boundary = scan(&full[..keep.len()]);
        assert_eq!(boundary.torn, None);
        assert_eq!(boundary.records.len(), 3);
        // …every cut inside the final record is torn and truncates to it.
        for cut in keep.len() + 1..full.len() {
            let out = scan(&full[..cut]);
            assert_eq!(out.records.len(), 3, "cut at {cut}");
            assert_eq!(out.valid_len, keep.len() as u64, "cut at {cut}");
            assert!(out.torn.is_some(), "cut at {cut} must be reported torn");
        }
        assert_eq!(scan(&full).torn, None);
    }

    #[test]
    fn scan_rejects_any_single_byte_flip() {
        let bytes = journal(2);
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0x40;
            let out = scan(&m);
            assert!(
                out.torn.is_some() || out.records.len() < 2,
                "flip at byte {i} survived the scan"
            );
        }
    }

    #[test]
    fn scan_rejects_out_of_order_records() {
        let mut out = Vec::new();
        encode_record(1, 5, 5, b"a", &mut out);
        let stop = out.len() as u64;
        encode_record(1, 4, 4, b"b", &mut out);
        let s = scan(&out);
        assert_eq!(s.torn, Some(TornReason::NonMonotonic));
        assert_eq!(s.valid_len, stop);
        assert_eq!(s.records.len(), 1);
    }

    #[test]
    fn scan_rejects_oversized_length_field() {
        let mut bytes = journal(1);
        // Corrupt the length field to a huge value and fix nothing else:
        // the scan must stop with OversizedLength, not try to allocate.
        bytes[21..25].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let s = scan(&bytes);
        assert_eq!(s.torn, Some(TornReason::OversizedLength));
        assert_eq!(s.valid_len, 0);
    }
}
