//! 64-bit FNV-1a: the one hash behind every checksum, cache key and
//! reproducibility digest in the workspace.
//!
//! Stable across processes and platforms, unlike `std::hash`, so a value
//! hashed here may be persisted (manifest checksums, disk-cache frames) or
//! committed as a golden digest.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a hasher: feed bytes in order, then [`Fnv1a::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET)
    }
}

impl Fnv1a {
    /// A hasher over no bytes yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one byte.
    #[inline]
    pub fn write_u8(&mut self, byte: u8) {
        self.0 = (self.0 ^ byte as u64).wrapping_mul(PRIME);
    }

    /// Feeds `bytes` in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Feeds `v` as its eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a over `bytes` in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write_u8(b'b');
        h.write(b"ar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut h = Fnv1a::new();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
