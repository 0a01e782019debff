//! LEB128 variable-length integer encoding.
//!
//! Trace files hold millions of timestamps and small coordinates, so the
//! binary format stores every integer as an unsigned LEB128 varint:
//! 7 payload bits per byte, high bit = continuation. Timestamps are
//! additionally delta-encoded by the caller, which keeps most values in
//! one or two bytes.
//!
//! Readers take `&mut &[u8]` and advance the slice past what they consume,
//! so sequential decoding is just repeated calls on the same cursor.

use ezp_core::error::{Error, Result};
use std::io::{self, Write};

/// Maximum encoded size of a `u64` varint.
pub const MAX_LEN: usize = 10;

/// Writes `value` to `out` as LEB128, one byte at a time: into a `Vec`
/// or a buffered writer that is a store and a length check per byte.
#[inline]
pub fn write_u64(out: &mut impl Write, mut value: u64) -> io::Result<()> {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            return out.write_all(&[byte]);
        }
        out.write_all(&[byte | 0x80])?;
    }
}

/// Reads one LEB128 `u64` from the front of `buf`, advancing it.
///
/// Fails on truncated input and on encodings longer than [`MAX_LEN`]
/// bytes (which cannot come from [`write_u64`]).
pub fn read_u64(buf: &mut &[u8]) -> Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for _ in 0..MAX_LEN {
        let Some((&byte, rest)) = buf.split_first() else {
            return Err(Error::TraceFormat("truncated varint".into()));
        };
        *buf = rest;
        let payload = (byte & 0x7f) as u64;
        if shift == 63 && payload > 1 {
            return Err(Error::TraceFormat("varint overflows u64".into()));
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
    Err(Error::TraceFormat("varint longer than 10 bytes".into()))
}

/// Convenience: `write_u64` for `usize`.
#[inline]
pub fn write_usize(out: &mut impl Write, value: usize) -> io::Result<()> {
    write_u64(out, value as u64)
}

/// Convenience: `read_u64` narrowed to `usize`.
pub fn read_usize(buf: &mut &[u8]) -> Result<usize> {
    let v = read_u64(buf)?;
    usize::try_from(v).map_err(|_| Error::TraceFormat(format!("value {v} exceeds usize")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_testkit::ezp_proptest;
    use ezp_testkit::prop::{any_u64, vec_of};

    fn round_trip(v: u64) -> u64 {
        let mut buf = Vec::new();
        write_u64(&mut buf, v).unwrap();
        let mut slice = buf.as_slice();
        let got = read_u64(&mut slice).unwrap();
        assert!(slice.is_empty(), "trailing bytes after decoding {v}");
        got
    }

    #[test]
    fn small_values_are_one_byte() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            write_u64(&mut buf, v).unwrap();
            assert_eq!(buf.len(), 1);
            assert_eq!(round_trip(v), v);
        }
    }

    #[test]
    fn boundaries() {
        for v in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(round_trip(v), v);
        }
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX).unwrap();
        assert_eq!(buf.len(), MAX_LEN);
    }

    #[test]
    fn truncated_input_fails() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 300).unwrap();
        let mut short = &buf[..1];
        assert!(read_u64(&mut short).is_err());
        let mut empty: &[u8] = &[];
        assert!(read_u64(&mut empty).is_err());
    }

    #[test]
    fn overlong_encoding_rejected() {
        let bad = [0x80u8; 11];
        let mut slice = &bad[..];
        assert!(read_u64(&mut slice).is_err());
        // 10 bytes but bits beyond u64
        let mut overflow = vec![0xffu8; 9];
        overflow.push(0x7f);
        let mut slice = overflow.as_slice();
        assert!(read_u64(&mut slice).is_err());
    }

    #[test]
    fn usize_round_trip() {
        let mut buf = Vec::new();
        write_usize(&mut buf, 123_456).unwrap();
        let mut slice = buf.as_slice();
        assert_eq!(read_usize(&mut slice).unwrap(), 123_456);
    }

    ezp_proptest! {
        fn prop_round_trip(v in any_u64()) {
            assert_eq!(round_trip(v), v);
        }

        fn prop_streams_concatenate(values in vec_of(any_u64(), 0..64)) {
            let mut buf = Vec::new();
            for &v in &values {
                write_u64(&mut buf, v).unwrap();
            }
            let mut slice = buf.as_slice();
            for &v in &values {
                assert_eq!(read_u64(&mut slice).unwrap(), v);
            }
            assert!(slice.is_empty());
        }
    }
}
