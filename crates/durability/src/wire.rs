//! A canonical little-endian wire codec.
//!
//! Canonical means: the same value always produces the same bytes. Fixed
//! integer widths, `u64` length prefixes for every variable-length field,
//! floats as IEEE-754 bit patterns, and LEB128 varints in their shortest
//! form only (the reader refuses any other spelling of a number). Callers
//! are responsible for ordering unordered collections (hash maps/sets)
//! before encoding.

use crate::{DurabilityError, Result};

/// An append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forgets the bytes written so far and keeps the buffer, so one
    /// writer can encode one section after another into one allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` length.
    pub fn len_prefix(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes `v` as an unsigned LEB128 varint: seven bits a byte, low
    /// bits first, the high bit set on every byte but the last — one byte
    /// below 128, at most ten for a `u64`.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes raw bytes with no framing.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len_prefix(s.len());
        self.raw(s.as_bytes());
    }
}

/// A cursor-based decoder over a byte slice.
///
/// Every read is bounds-checked; running off the end or decoding invalid
/// UTF-8 yields a [`DurabilityError::Corrupt`] naming the offset.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor has consumed every byte.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless every byte was consumed — canonical decoding rejects
    /// trailing garbage.
    pub fn expect_exhausted(&self, what: &str) -> Result<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(DurabilityError::corrupt(format!(
                "{what}: {} trailing bytes at offset {}",
                self.remaining(),
                self.pos
            )))
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(DurabilityError::corrupt(format!(
                "{what}: need {n} bytes at offset {}, only {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        Ok(u64::from_le_bytes(w))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self, what: &str) -> Result<u128> {
        let b = self.take(16, what)?;
        let mut w = [0u8; 16];
        w.copy_from_slice(b);
        Ok(u128::from_le_bytes(w))
    }

    /// Reads a `u64` length prefix, validating it fits the remaining bytes
    /// when each element occupies at least `min_elem_bytes`.
    pub fn len_prefix(&mut self, what: &str, min_elem_bytes: usize) -> Result<usize> {
        let n = self.u64(what)?;
        let cap = self
            .remaining()
            .checked_div(min_elem_bytes)
            .map_or(u64::MAX, |c| c as u64);
        if n > cap {
            return Err(DurabilityError::corrupt(format!(
                "{what}: length {n} exceeds remaining input at offset {}",
                self.pos
            )));
        }
        Ok(n as usize)
    }

    /// Reads an unsigned LEB128 varint. Only the shortest spelling is
    /// accepted: a final zero byte after a continuation (an overlong
    /// varint) and bits beyond the 64th are corruption, so every number has
    /// exactly one encoding.
    pub fn varint(&mut self, what: &str) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8(what)?;
            let bits = u64::from(byte & 0x7F);
            if bits << shift >> shift != bits || (byte == 0 && shift > 0) {
                break;
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DurabilityError::corrupt(format!(
            "{what}: overlong or overflowing varint ending at offset {}",
            self.pos
        )))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn bool(&mut self, what: &str) -> Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DurabilityError::corrupt(format!(
                "{what}: invalid bool byte {other} at offset {}",
                self.pos - 1
            ))),
        }
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        self.take(n, what)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<&'a str> {
        let n = self.len_prefix(what, 1)?;
        let bytes = self.take(n, what)?;
        std::str::from_utf8(bytes)
            .map_err(|_| DurabilityError::corrupt(format!("{what}: invalid utf-8")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.u128(1 << 100);
        w.f64(-0.5);
        w.bool(true);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.u128("d").unwrap(), 1 << 100);
        assert_eq!(r.f64("e").unwrap(), -0.5);
        assert!(r.bool("f").unwrap());
        assert_eq!(r.str("g").unwrap(), "héllo");
        r.expect_exhausted("trailer").unwrap();
    }

    #[test]
    fn varints_round_trip_in_their_shortest_form() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            (1 << 14) - 1,
            1 << 14,
            u64::from(u32::MAX),
            1 << 63,
            u64::MAX,
        ];
        let mut w = Writer::new();
        for &v in &values {
            w.varint(v);
        }
        let bytes = w.into_bytes();
        // 1, 1, 1, 2, 2, 2, 3, 5, 10, 10 bytes.
        assert_eq!(bytes.len(), 37);
        let mut r = Reader::new(&bytes);
        for &v in &values {
            assert_eq!(r.varint("v").unwrap(), v);
        }
        r.expect_exhausted("varints").unwrap();
    }

    #[test]
    fn non_canonical_varints_are_refused() {
        let corrupt = |bytes: &[u8]| {
            matches!(
                Reader::new(bytes).varint("v"),
                Err(DurabilityError::Corrupt { .. })
            )
        };
        assert!(corrupt(&[0x80, 0x00]), "overlong zero");
        assert!(corrupt(&[0xFF, 0x80, 0x00]), "overlong three-byte form");
        assert!(corrupt(&[0x80]), "truncated after a continuation");
        assert!(corrupt(&[]), "empty input");
        // Ten bytes whose last carries more than the 64th bit.
        let mut wide = [0xFF; 10];
        wide[9] = 0x02;
        assert!(corrupt(&wide), "65th bit set");
        // Eleven bytes: a continuation on the tenth.
        let mut long = [0x80; 11];
        long[10] = 0x01;
        assert!(corrupt(&long), "more than ten bytes");
        // The largest value is still fine.
        let mut max = [0xFF; 10];
        max[9] = 0x01;
        assert_eq!(Reader::new(&max).varint("v").unwrap(), u64::MAX);
    }

    #[test]
    fn truncation_is_typed() {
        let mut w = Writer::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert!(matches!(
            r.u64("field"),
            Err(DurabilityError::Corrupt { .. })
        ));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // absurd element count
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.len_prefix("vec", 4),
            Err(DurabilityError::Corrupt { .. })
        ));
    }

    #[test]
    fn invalid_bool_rejected() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(
            r.bool("flag"),
            Err(DurabilityError::Corrupt { .. })
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut w = Writer::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.u8("x").unwrap();
        assert!(matches!(
            r.expect_exhausted("payload"),
            Err(DurabilityError::Corrupt { .. })
        ));
    }
}
