//! Word-at-a-time byte searches: eight bytes per step, in safe code.
//!
//! Each step loads eight bytes as a little-endian `u64` and flags the
//! bytes it is looking for with the classic borrow trick: for a word
//! `w`, `(w - 0x01…01) & !w & 0x80…80` sets the high bit of every zero
//! byte. The trick can also flag a byte just above a real hit (the borrow
//! runs upward), never one below it, so the lowest flag of a word is
//! always exact — and the lowest flag is the only one read.

/// `0x01` in every byte.
const LO: u64 = u64::from_le_bytes([0x01; 8]);
/// `0x80` in every byte.
const HI: u64 = u64::from_le_bytes([0x80; 8]);

/// High bit set in each byte of `w` below `n` (`n <= 0x80`), possibly
/// also in bytes above the lowest such byte.
#[inline]
fn below(w: u64, n: u8) -> u64 {
    w.wrapping_sub(LO * n as u64) & !w & HI
}

/// High bit set in each byte of `w` equal to `b`, with the same caveat.
#[inline]
fn equal(w: u64, b: u8) -> u64 {
    below(w ^ (LO * b as u64), 1)
}

/// Runs `hits` over `bytes[from..]` a word at a time and then bytewise,
/// returning the index of the first byte `hits` flags, else
/// `bytes.len()` (also when `from` is past the end).
#[inline]
fn first_hit(bytes: &[u8], from: usize, hits: impl Fn(u64) -> u64) -> usize {
    let mut i = from;
    while let Some(word) = bytes.get(i..i + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("an eight-byte window"));
        let flags = hits(w);
        if flags != 0 {
            return i + (flags.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while let Some(&b) = bytes.get(i) {
        // The byte sits alone in the low lane; only that lane's flag,
        // which no borrow can reach, counts.
        if hits(b as u64) & 0x80 != 0 {
            return i;
        }
        i += 1;
    }
    bytes.len()
}

/// The index of the first `needle` in `haystack`.
pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    let at = first_hit(haystack, 0, |w| equal(w, needle));
    (at < haystack.len()).then_some(at)
}

/// The index of the first byte at or after `from` that ends a plain run
/// inside a JSON string literal — a quote, a backslash or a control
/// byte — else `bytes.len()`.
pub(crate) fn string_run_end(bytes: &[u8], from: usize) -> usize {
    first_hit(bytes, from, |w| {
        equal(w, b'"') | equal(w, b'\\') | below(w, 0x20)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_scans_agree_with_bytewise_scans_at_every_offset() {
        // Every special byte at every position of a buffer long enough
        // for several words and a bytewise tail, with non-ASCII filler
        // (high bits set) around it.
        for special in [b'\n', b'"', b'\\', 0x00, 0x1f] {
            for len in 0..40 {
                for at in 0..=len {
                    let mut buf: Vec<u8> =
                        (0..len).map(|i| [b'a', 0xc3, 0xa9, 0x7f][i % 4]).collect();
                    if at < len {
                        buf[at] = special;
                    }
                    let want = buf.iter().position(|&b| b == special);
                    assert_eq!(
                        find_byte(&buf, special),
                        want,
                        "{special:#x} at {at} of {len}"
                    );
                    let stop = buf
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(len);
                    assert_eq!(
                        string_run_end(&buf, 0),
                        stop,
                        "{special:#x} at {at} of {len}"
                    );
                    for from in 0..=len {
                        let stop = buf[from..]
                            .iter()
                            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                            .map_or(len, |i| i + from);
                        assert_eq!(string_run_end(&buf, from), stop);
                    }
                }
            }
        }
        // Two hits in one word: the lower one is reported, including the
        // borrow case where a zero byte sits just below a 0x01 byte.
        assert_eq!(find_byte(b"ab\n\ncdefgh", b'\n'), Some(2));
        assert_eq!(find_byte(&[1, 0, 1, 0, 0, 0, 0, 0], 0), Some(1));
        assert_eq!(find_byte(&[1, 1, 1, 1, 1, 1, 1, 0, 1], 1), Some(0));
        assert_eq!(find_byte(b"", b'\n'), None);
    }
}
