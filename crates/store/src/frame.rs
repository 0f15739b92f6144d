//! Record framing for the partition logs: `LLLLLLLL CCCCCCCC payload\n`.
//!
//! Every record in a partition file is one line carrying an 18-byte header
//! — the payload length and its CRC32 (IEEE), both as fixed-width lowercase
//! hex — followed by the payload bytes and a terminating newline. The
//! redundancy makes three failure classes distinguishable at scan time:
//!
//! * **torn tail** — the file ends mid-record (header incomplete, payload
//!   shorter than the declared length, or the final newline missing):
//!   the crash interrupted the last append; everything before the torn
//!   record is intact and the tail is safe to truncate.
//! * **corrupt record** — the frame structure is intact (length matches,
//!   newline where expected) but the CRC does not: bytes rotted in place;
//!   the record is quarantined and the scan continues at the next frame.
//! * **broken framing** — the header is not hex or the declared length
//!   points past a non-newline byte: offsets after this point cannot be
//!   trusted, so the remainder is quarantined wholesale and the file
//!   truncated at the last good frame boundary.
//!
//! The distinction matters because only the first class is expected under
//! a clean crash model (a torn final `write`); the other two indicate
//! external corruption and are counted separately by recovery.

/// Header bytes preceding every payload: 8 hex (len) + space + 8 hex (crc)
/// + space.
pub const HEADER_LEN: usize = 18;

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial, built at
/// compile time. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 (IEEE 802.3, reflected) over `bytes` — the checksum HDFS uses per
/// block, here applied per record. Slicing-by-8: eight bytes per step
/// through [`CRC_TABLES`], the tail byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Bytes one framed record of a `payload_len`-byte payload occupies in a
/// log: header + payload + newline.
pub fn frame_len(payload_len: usize) -> u64 {
    (HEADER_LEN + payload_len + 1) as u64
}

/// Frame one payload: header + payload + newline, ready to append.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 1);
    out.extend_from_slice(format!("{:08x} {:08x} ", payload.len(), crc32(payload)).as_bytes());
    out.extend_from_slice(payload);
    out.push(b'\n');
    out
}

/// One step of a frame walk over `buf` starting at `offset`.
#[derive(Debug, PartialEq, Eq)]
pub enum Step {
    /// A checksum-clean record: payload byte range and the next offset.
    Ok {
        /// Payload byte range within the buffer.
        payload: std::ops::Range<usize>,
        /// Offset of the next frame.
        next: usize,
    },
    /// Structurally intact frame whose CRC does not match: quarantine the
    /// payload range and continue at `next`.
    Corrupt {
        /// Payload byte range within the buffer.
        payload: std::ops::Range<usize>,
        /// Offset of the next frame.
        next: usize,
    },
    /// The buffer ends mid-record (torn final append): truncate at
    /// `offset` and stop.
    Torn,
    /// The header is not a valid frame header or the declared length does
    /// not land on a newline: offsets beyond this point are untrusted.
    Broken,
    /// Clean end of buffer.
    End,
}

fn parse_hex8(bytes: &[u8]) -> Option<u32> {
    if bytes.len() != 8 {
        return None;
    }
    let mut v: u32 = 0;
    for &b in bytes {
        let d = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        v = (v << 4) | u32::from(d);
    }
    Some(v)
}

/// Classify the frame starting at `offset`.
pub fn step(buf: &[u8], offset: usize) -> Step {
    if offset >= buf.len() {
        return Step::End;
    }
    let rest = &buf[offset..];
    if rest.len() < HEADER_LEN {
        // Not even a full header: if what is there could still be a header
        // prefix (hex/space in the right positions) it is a torn append;
        // otherwise the framing is broken.
        return if header_prefix_plausible(rest) {
            Step::Torn
        } else {
            Step::Broken
        };
    }
    let (len, crc) = match (
        parse_hex8(&rest[0..8]),
        rest[8] == b' ',
        parse_hex8(&rest[9..17]),
        rest[17] == b' ',
    ) {
        (Some(len), true, Some(crc), true) => (len as usize, crc),
        _ => return Step::Broken,
    };
    let payload_start = offset + HEADER_LEN;
    let payload_end = match payload_start.checked_add(len) {
        Some(end) if end < usize::MAX => end,
        _ => return Step::Broken,
    };
    if payload_end + 1 > buf.len() {
        // Payload (or its newline) missing: torn final append.
        return Step::Torn;
    }
    if buf[payload_end] != b'\n' {
        return Step::Broken;
    }
    let payload = payload_start..payload_end;
    if crc32(&buf[payload.clone()]) == crc {
        Step::Ok { payload, next: payload_end + 1 }
    } else {
        Step::Corrupt { payload, next: payload_end + 1 }
    }
}

/// Could `rest` (shorter than a header) be the prefix of a valid header?
fn header_prefix_plausible(rest: &[u8]) -> bool {
    rest.iter().enumerate().all(|(i, &b)| match i {
        8 | 17 => b == b' ',
        _ => b.is_ascii_hexdigit() && !b.is_ascii_uppercase(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bitwise reference the table-driven [`crc32`] replaced.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        #[test]
        fn crc32_matches_bitwise_reference_at_every_length_and_alignment(
            data in proptest::collection::vec(proptest::any::<u8>(), 4096 + 8..4096 + 9),
            len in 0usize..4097,
            align in 0usize..8,
        ) {
            let slice = &data[align..align + len];
            proptest::prop_assert_eq!(crc32(slice), crc32_bitwise(slice));
        }
    }

    #[test]
    fn crc32_matches_bitwise_reference_exhaustively_on_short_inputs() {
        // Every length that exercises a partial 8-byte block, at every
        // start offset within a block.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for align in 0..8 {
            for len in 0..=40 {
                let slice = &data[align..align + len];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "align {align} len {len}");
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_then_step_roundtrips() {
        let mut buf = encode(b"hello");
        buf.extend(encode(b"")); // empty payloads frame fine
        buf.extend(encode("snowman \u{2603}".as_bytes()));
        let mut offset = 0;
        let mut seen = Vec::new();
        loop {
            match step(&buf, offset) {
                Step::Ok { payload, next } => {
                    seen.push(buf[payload].to_vec());
                    offset = next;
                }
                Step::End => break,
                other => panic!("unexpected step: {other:?}"),
            }
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], b"hello");
        assert_eq!(seen[1], b"");
        assert_eq!(seen[2], "snowman \u{2603}".as_bytes());
    }

    #[test]
    fn torn_tail_is_detected_at_every_cut_point() {
        let mut buf = encode(b"first");
        let second = encode(b"second record");
        let start = buf.len();
        buf.extend(&second);
        // Cutting anywhere inside the second record must classify as Torn
        // (never Ok, never silently End). A cut at exactly `start` is a
        // clean end — no bytes of the second record ever landed.
        for cut in start + 1..buf.len() {
            let torn = &buf[..cut];
            match step(torn, start) {
                Step::Torn => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
            // The first record stays readable.
            assert!(matches!(step(torn, 0), Step::Ok { .. }));
        }
    }

    #[test]
    fn bit_rot_is_corrupt_not_torn() {
        let mut buf = encode(b"payload-here");
        let flip = HEADER_LEN + 3;
        buf[flip] ^= 0x40;
        match step(&buf, 0) {
            Step::Corrupt { payload, next } => {
                assert_eq!(payload, HEADER_LEN..HEADER_LEN + 12);
                assert_eq!(next, buf.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn garbage_header_is_broken() {
        assert_eq!(step(b"not a frame header at all..\n", 0), Step::Broken);
        // A corrupted length that points past a non-newline byte.
        let mut buf = encode(b"abcdef");
        buf[0] = b'0';
        buf[7] = b'1'; // len now wrong -> newline check fails
        assert!(matches!(step(&buf, 0), Step::Broken | Step::Corrupt { .. }));
    }

    #[test]
    fn payload_with_newlines_survives_framing() {
        let payload = b"line1\nline2\n";
        let buf = encode(payload);
        match step(&buf, 0) {
            Step::Ok { payload: range, next } => {
                assert_eq!(&buf[range], payload);
                assert_eq!(next, buf.len());
            }
            other => panic!("{other:?}"),
        }
    }
}
