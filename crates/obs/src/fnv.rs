//! FNV-1a 64-bit hashing: the workspace's fingerprint/checksum
//! discipline.
//!
//! Tiny, stable across platforms and fast enough to checksum journal
//! records and trace files — corruption detection, not cryptographic
//! integrity. The [`recordlog`](crate::recordlog) under both journals
//! (campaign checkpoint and server) and the telemetry trace footer use
//! this exact function, so a consumer can verify any of them with the
//! same ~10 lines of code.

/// Incremental FNV-1a 64-bit hasher.
///
/// ```
/// use simcov_obs::fnv::Fnv64;
/// let mut h = Fnv64::new();
/// h.bytes(b"hello");
/// assert_eq!(h.finish(), Fnv64::hash(b"hello"));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a `u64` as little-endian bytes.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The digest so far (the hasher can keep absorbing afterwards).
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// One-shot convenience: the digest of `b`.
    pub fn hash(b: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.bytes(b);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference values for FNV-1a 64.
        assert_eq!(Fnv64::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::hash(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = Fnv64::new();
        h.bytes(b"foo");
        h.bytes(b"bar");
        assert_eq!(h.finish(), Fnv64::hash(b"foobar"));
    }

    #[test]
    fn u64_feeds_le_bytes() {
        let mut a = Fnv64::new();
        a.u64(0x0102_0304_0506_0708);
        let mut b = Fnv64::new();
        b.bytes(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }
}
