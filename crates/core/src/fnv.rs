//! FNV-1a 64, the one digest behind the fingerprints the product code
//! prints or pins. Two multipliers are in use, and every pinned value
//! depends on which:
//!
//! * [`Fnv1a::standard`] multiplies by FNV's published 64-bit prime,
//!   `0x100_0000_01b3`: `rfc-node`'s session fingerprint and decision
//!   digest;
//! * [`Fnv1a::short_multiplier`] multiplies by `0x1_0000_01b3`, the
//!   published prime with two zero digits missing (and not a prime): the
//!   checkpoint's config fingerprint and E16's and E17's digest columns
//!   were captured with it, as were the test corpora's digests.
//!
//! Words fold in as their little-endian bytes, so a digest is the same
//! on every host.

/// An FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    state: u64,
    multiplier: u64,
}

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

    /// FNV-1a 64 as published.
    pub fn standard() -> Self {
        Fnv1a {
            state: Self::OFFSET_BASIS,
            multiplier: 0x100_0000_01b3,
        }
    }

    /// FNV-1a 64 with the short multiplier `0x1_0000_01b3`.
    pub fn short_multiplier() -> Self {
        Fnv1a {
            state: Self::OFFSET_BASIS,
            multiplier: 0x1_0000_01b3,
        }
    }

    /// Fold `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(self.multiplier);
        }
    }

    /// Fold `v` in as its eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(mut h: Fnv1a, bytes: &[u8]) -> u64 {
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn standard_matches_the_published_test_vectors() {
        assert_eq!(digest(Fnv1a::standard(), b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(Fnv1a::standard(), b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(Fnv1a::standard(), b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn short_multiplier_keeps_its_pinned_values() {
        assert_eq!(
            digest(Fnv1a::short_multiplier(), b""),
            0xcbf2_9ce4_8422_2325
        );
        assert_eq!(
            digest(Fnv1a::short_multiplier(), b"a"),
            0x1162_bb90_8601_ec8c
        );
        assert_eq!(
            digest(Fnv1a::short_multiplier(), b"foobar"),
            0x3fef_ab5e_f739_67e8
        );
    }

    #[test]
    fn words_fold_as_little_endian_bytes() {
        let mut h = Fnv1a::standard();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(
            h.finish(),
            digest(Fnv1a::standard(), &[8, 7, 6, 5, 4, 3, 2, 1])
        );
    }
}
