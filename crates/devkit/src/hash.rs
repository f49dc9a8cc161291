//! Deterministic, zero-dependency content hashing.
//!
//! The server's snapshot store is *content-addressed*: every cached
//! analysis is keyed by a digest of the exact source bytes plus the build
//! configuration. The digest must be stable across platforms, Rust
//! versions and process runs (clients compare and persist the hex form),
//! so it is built from the same primitive family as [`crate::prng`]:
//! an FNV-1a accumulation pass, finished with a splitmix64-style avalanche
//! so that short inputs still differ in every output bit.
//!
//! This is a fast non-cryptographic digest for cache addressing, not a
//! security boundary — collision resistance is the 64-bit birthday bound.
//! [`word_digest`], the FNV-1a step applied per 64-bit word with a
//! high-to-low fold, is the integrity trailer of the on-disk snapshot
//! format.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The splitmix64 finalizer: a full-avalanche bijection on `u64`.
///
/// This is the output-mixing half of the splitmix64 step used by
/// [`crate::prng::Rng::seed_from_u64`]; applying it to an FNV state
/// spreads the last few input bytes across all 64 output bits.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A streaming FNV-1a/64 hasher with a [`mix64`] finish.
///
/// ```
/// use stcfa_devkit::hash::Fnv1a;
///
/// let source = b"fun id x = x;";
/// let mut h = Fnv1a::new();
/// h.write_u64(source.len() as u64); // length prefix, as digest_parts does
/// h.write(source);
/// h.write_u64(1); // configuration discriminant
/// assert_eq!(h.finish(), Fnv1a::digest_parts(source, &[1]));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a { state: FNV_OFFSET }
    }

    /// Absorbs a byte slice.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order (used for
    /// configuration discriminants so `("ab", 1)` and `("a", ...)` cannot
    /// collide by concatenation).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The finalized digest.
    #[inline]
    pub fn finish(&self) -> u64 {
        mix64(self.state)
    }

    /// One-shot digest of `bytes` followed by the `parts` discriminants.
    pub fn digest_parts(bytes: &[u8], parts: &[u64]) -> u64 {
        Fnv1a::digest_with(bytes.len(), |h| h.write(bytes), parts)
    }

    /// [`digest_parts`](Fnv1a::digest_parts) of content that `feed`
    /// writes in pieces, without assembling it: `len` must be the total
    /// byte length of what `feed` writes.
    pub fn digest_with(len: usize, feed: impl FnOnce(&mut Fnv1a), parts: &[u64]) -> u64 {
        let mut h = Fnv1a::new();
        // Length prefix: two inputs of different lengths never alias even
        // if the discriminant list absorbs bytes that look like content.
        h.write_u64(len as u64);
        feed(&mut h);
        for &p in parts {
            h.write_u64(p);
        }
        h.finish()
    }
}

/// FNV-1a over little-endian `u64` words, finished with [`mix64`]: the
/// integrity digest of the on-disk snapshot format.
///
/// Each 8-byte word is xored into the state, which is then multiplied by
/// the FNV prime and folded with `x ^ (x >> 32)` — FNV-1a's per-byte
/// step, applied per word, so a run costs one multiply per 8 bytes
/// instead of per byte. A partial final word is zero-padded, and the byte
/// length is absorbed last as one more word, so appending zero bytes
/// inside the padding still changes the digest.
///
/// For a fixed word all three parts of the step are bijections on the
/// state, so any change confined to one word — every single-bit flip in
/// particular — changes the digest. The fold matters once two words are
/// damaged: a multiply carries a difference only toward higher bits, so
/// without it a flip of bit 63 in two words would change the state by
/// exactly `2^63` each time and cancel. Folding the high half down after
/// every multiply lets the next multiply spread such a difference over
/// the whole state.
///
/// ```
/// use stcfa_devkit::hash::word_digest;
///
/// let body = b"nineteen byte image";
/// let mut flipped = *body;
/// flipped[3] ^= 0x01;
/// assert_ne!(word_digest(body), word_digest(&flipped));
/// assert_ne!(word_digest(body), word_digest(b"nineteen byte image\0"));
/// ```
pub fn word_digest(bytes: &[u8]) -> u64 {
    #[inline]
    fn step(state: u64, word: u64) -> u64 {
        let x = (state ^ word).wrapping_mul(FNV_PRIME);
        x ^ (x >> 32)
    }
    let mut words = bytes.chunks_exact(8);
    let mut state = FNV_OFFSET;
    for w in &mut words {
        state = step(state, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        state = step(state, u64::from_le_bytes(padded));
    }
    mix64(step(state, bytes.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_pinned() {
        // Pinned: a change to the hashing scheme invalidates every
        // persisted snapshot address and must be a reviewed event.
        assert_eq!(
            Fnv1a::digest_parts(b"fun id x = x;", &[0, 0]),
            0xc4d0_1bd3_b6d3_59b1
        );
    }

    #[test]
    fn word_digest_is_pinned() {
        // Pinned: the snapshot format's integrity trailer. A change here
        // makes every persisted image fail its integrity check and must
        // come with a format version bump.
        assert_eq!(word_digest(b"fun id x = x;"), 0x4a0e_ce5b_3f45_5bb1);
        assert_eq!(word_digest(b""), 0xe876_2870_b5f4_a9a7);
    }

    #[test]
    fn word_digest_catches_damage_to_the_top_bytes_of_two_words() {
        // A multiply carries differences only upward, so damage confined
        // to the top byte of two words is where a bare xor-multiply step
        // collides (always, for bit 63 of both). Exhaustive over word
        // pairs of a 40-word buffer, for the top bit and a spread of
        // other top-byte deltas, plus a ragged tail.
        let mut rng = crate::prng::Rng::seed_from_u64(0x7eb);
        let body: Vec<u8> = (0..40 * 8 + 5).map(|_| rng.next_u64() as u8).collect();
        let clean = word_digest(&body);
        let words = body.len() / 8;
        for j in 0..words {
            for k in j + 1..words {
                for (dj, dk) in [(0x80, 0x80), (0xff, 0xff), (0x01, 0x80), (0x5a, 0xa5)] {
                    let mut evil = body.clone();
                    evil[8 * j + 7] ^= dj;
                    evil[8 * k + 7] ^= dk;
                    assert_ne!(word_digest(&evil), clean, "words {j} and {k}");
                }
            }
        }
    }

    #[test]
    fn content_and_config_both_address() {
        let base = Fnv1a::digest_parts(b"source", &[0, 0]);
        assert_ne!(
            base,
            Fnv1a::digest_parts(b"source ", &[0, 0]),
            "content changes the key"
        );
        assert_ne!(
            base,
            Fnv1a::digest_parts(b"source", &[1, 0]),
            "policy changes the key"
        );
        assert_ne!(
            base,
            Fnv1a::digest_parts(b"source", &[0, 1]),
            "engine changes the key"
        );
    }

    #[test]
    fn length_prefix_prevents_concatenation_aliasing() {
        // Without the length prefix, b"ab" + [] could collide with b"a"
        // followed by a discriminant whose little-endian bytes start 'b'.
        assert_ne!(
            Fnv1a::digest_parts(b"ab", &[]),
            Fnv1a::digest_parts(b"a", &[u64::from_le_bytes(*b"b\0\0\0\0\0\0\0")]),
        );
    }

    #[test]
    fn mix64_is_a_bijection_on_samples() {
        let mut outs: Vec<u64> = (0..1000u64).map(mix64).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 1000, "finalizer collided on small inputs");
    }
}
