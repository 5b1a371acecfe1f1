//! LEB128 unsigned varints — the integer coding inside compressed
//! chunk payloads. Timestamps are delta-coded against the chunk's
//! first event, so the common case (events nanoseconds apart, small
//! tids, small payload words) costs 1–3 bytes per field instead of 8.

/// Append `v` to `out` as a LEB128 unsigned varint (1–10 bytes).
#[inline]
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read a LEB128 unsigned varint from `buf` at `*pos`, advancing
/// `*pos`. Returns `None` on truncation or a varint longer than the
/// 10-byte maximum for u64. (The chunk decoder inlines the one-byte
/// case itself and calls this for longer varints.)
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // overflow past 64 bits
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_boundaries() {
        let cases = [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &cases {
            put_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &cases {
            assert_eq!(get_uvarint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_is_none() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf[..cut], &mut pos), None, "cut={cut}");
        }
    }

    #[test]
    fn overlong_is_none() {
        // 11 continuation bytes can never be a valid u64 varint.
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(get_uvarint(&buf, &mut pos), None);
    }

    #[test]
    fn small_values_are_one_byte() {
        for v in 0..0x80u64 {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            assert_eq!(buf.len(), 1);
        }
    }
}
