//! Dependency-free binary encoding for snapshots and journal frames.
//!
//! Little-endian fixed-width integers, `f64` as IEEE-754 bits (bit-exact
//! round trips — the determinism contract depends on it), and
//! length-prefixed byte strings. Two checksums guard the two file shapes:
//! FNV-1a 64 over whole snapshots (cheap, good dispersion for multi-KB
//! payloads) and CRC-32 (IEEE, reflected) per journal frame, which catches
//! the short torn/bit-flipped tails a crashed append leaves behind.

use crate::error::StoreError;

/// FNV-1a 64-bit hash — the snapshot checksum (and fingerprint hash).
pub use cafc_obs::fnv1a as fnv1a64;

/// Append-only byte sink for encoding payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as `u64` (the on-disk format is width-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Write an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Bounds-checked reader over an encoded payload. Every getter fails with
/// [`StoreError::Corrupt`] instead of panicking when the buffer runs out.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a str,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`; `path` labels corruption errors.
    pub fn new(buf: &'a [u8], path: &'a str) -> Self {
        ByteReader { buf, pos: 0, path }
    }

    fn corrupt(&self, what: &str) -> StoreError {
        StoreError::Corrupt {
            path: self.path.to_owned(),
            detail: format!("truncated payload reading {what} at offset {}", self.pos),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.corrupt(what))?;
        if end > self.buf.len() {
            return Err(self.corrupt(what));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4, "u32")?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8, "u64")?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a `u64` and narrow it to `usize`.
    pub fn get_usize(&mut self) -> Result<usize, StoreError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| self.corrupt("usize"))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.get_usize()?;
        self.take(len, "bytes")
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, StoreError> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("utf-8 string"))
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-frame
/// journal checksum. Bitwise implementation: journal frames are small and
/// append-rate is one frame per checkpointed event, so a lookup table
/// would buy nothing.
pub fn crc32(bytes: &[u8]) -> u32 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_shape() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_usize(12);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bytes(b"abc");
        w.put_str("naïve");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_usize().unwrap(), 12);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_str().unwrap(), "naïve");
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut w = ByteWriter::new();
        w.put_u32(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..2], "test");
        let err = r.get_u32().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        let mut r = ByteReader::new(&bytes, "test");
        assert!(r.get_bytes().is_err(), "length prefix larger than buffer");
    }

    #[test]
    fn fnv_and_crc_match_known_vectors() {
        // FNV-1a 64 test vectors from the reference implementation.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        // CRC-32 IEEE "check" value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn checksums_detect_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let f = fnv1a64(&data);
        let c = crc32(&data);
        for bit in [0usize, 13, 100, data.len() * 8 - 1] {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(fnv1a64(&flipped), f, "fnv missed bit {bit}");
            assert_ne!(crc32(&flipped), c, "crc missed bit {bit}");
        }
    }
}
