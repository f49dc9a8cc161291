//! A fixed-capacity bit set over dense `usize` indices.

/// A fixed-capacity bit set.
///
/// Used for reachability frontiers and label sets; all operations the
/// analyses need (`insert`, `contains`, `union_with`, iteration) are
/// word-parallel where possible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        fresh
    }

    /// Removes `i`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        present
    }

    /// Membership test. Out-of-range indices are simply absent.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Unions `other` into `self`; returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// The backing words, little-endian within each `u64`. Bit `i` of the
    /// set is bit `i % 64` of word `i / 64`. Exposed so relation joins can
    /// run word-parallel against externally owned rows (e.g. the query
    /// engine's summary rows) without copying either side.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// ORs a raw word row into `self`; returns `true` if `self` changed.
    /// `row` may be shorter than the set's word count (missing words are
    /// zero) but must not set bits at or beyond `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `row` carries a bit `>= capacity`.
    pub fn union_words(&mut self, row: &[u64]) -> bool {
        assert!(
            row.len() <= self.words.len() || row[self.words.len()..].iter().all(|&w| w == 0),
            "word row wider than capacity {}",
            self.capacity
        );
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(row) {
            let next = *a | b;
            changed |= next != *a;
            *a = next;
        }
        // Guard the final partial word: a row bit past `capacity` would
        // corrupt `len()` and iteration.
        if !self.capacity.is_multiple_of(64) {
            if let Some(last) = self.words.last() {
                let mask = (1u64 << (self.capacity % 64)) - 1;
                assert!(last & !mask == 0, "word row set bit >= capacity");
            }
        }
        changed
    }

    /// Intersects `other` into `self`; returns `true` if `self` changed.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a & *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        ones(&self.words)
    }
}

/// The indices of the set bits of a raw word row (bit `i` is bit
/// `i % 64` of word `i / 64`), in increasing order.
pub fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut bits = w;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + b)
            }
        })
    })
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to the maximum element (plus one).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "second insert reports not-fresh");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(!s.contains(1000), "out of range is absent");
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        b.insert(3);
        b.insert(99);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "second union is a no-op");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut s = BitSet::new(200);
        let elems = [0, 5, 63, 64, 65, 127, 128, 199];
        for &e in &elems {
            s.insert(e);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, elems);
        assert_eq!(s.len(), elems.len());
    }

    #[test]
    fn from_iterator() {
        let s: BitSet = [3usize, 1, 4, 1, 5].into_iter().collect();
        assert!(s.contains(5));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::new(64);
        assert!(s.is_empty());
        s.insert(10);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn union_words_is_union_with_on_raw_rows() {
        let mut a = BitSet::new(130);
        a.insert(1);
        let row = [1u64 << 3, 0, 1u64 << 1]; // {3, 129}
        assert!(a.union_words(&row));
        assert!(!a.union_words(&row), "second union is a no-op");
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 3, 129]);
        // A short row leaves high words alone.
        let mut b = BitSet::new(130);
        b.insert(129);
        assert!(b.union_words(&[1u64]));
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    #[should_panic(expected = "bit >= capacity")]
    fn union_words_rejects_out_of_capacity_bits() {
        BitSet::new(5).union_words(&[1u64 << 10]);
    }

    #[test]
    fn intersect_reports_change() {
        let mut a: BitSet = [1usize, 3, 64].iter().copied().collect();
        let mut b = BitSet::new(a.capacity());
        b.insert(3);
        b.insert(64);
        assert!(a.intersect_with(&b));
        assert!(!a.intersect_with(&b), "second intersect is a no-op");
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 64]);
    }
}
