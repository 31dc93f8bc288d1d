//! FNV-1a 64: the workspace's one non-cryptographic hash.
//!
//! Digests, checksums, coverage buckets and content addresses all use it.
//! It is stable across platforms and releases, which the committed digests
//! rely on; it is not collision-resistant against an adversary.

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a 64-bit digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty digest.
    pub fn new() -> Fnv {
        Fnv(OFFSET)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// FNV-1a 64 of `bytes` in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}
