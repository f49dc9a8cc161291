//! String interning.
//!
//! Identifiers (variables, constructors, datatypes) are interned into
//! [`Symbol`]s — small copyable handles — so the rest of the system can
//! compare and hash names in `O(1)` and store them in dense tables.
//!
//! Every name lives in one text buffer; an open-addressed table of
//! `u32` slots maps a name's hash to its symbol. A new name costs its
//! bytes in the buffer and one slot, never an allocation of its own. The
//! hash is keyed once per process from the standard library's
//! `RandomState`, so names a client chooses cannot be picked to collide.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// An interned string handle.
///
/// Symbols are only meaningful relative to the [`Interner`] (and hence the
/// [`crate::Program`]) that produced them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Returns the dense index of this symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

/// An empty slot of the table.
const EMPTY: u32 = u32::MAX;

/// The slot table starts at this many slots and doubles before it is
/// half full.
const MIN_SLOTS: usize = 64;

/// The process's hash key, drawn once from `RandomState`.
fn key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| {
        let mut h = RandomState::new().build_hasher();
        h.write_u64(0x9e37_79b9_7f4a_7c15);
        h.finish() | 1
    })
}

/// The high and low halves of a full 64 × 64-bit product, folded.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// A keyed multiply-fold hash. A name of up to 16 bytes, which is
/// nearly every identifier, is read as two overlapping words and costs
/// two multiplies; longer names fold in 16 bytes per multiply.
#[inline]
fn hash(key: u64, bytes: &[u8]) -> u64 {
    const P0: u64 = 0xa076_1d64_78bd_642f;
    const P1: u64 = 0xe703_7ed1_a0b4_28db;
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let half = |at: usize| {
        u64::from(u32::from_le_bytes(
            bytes[at..at + 4].try_into().expect("4 bytes"),
        ))
    };
    let len = bytes.len();
    let mut seed = key;
    let (a, b) = if len <= 16 {
        if len >= 4 {
            // Two or four overlapping 4-byte reads cover every byte.
            let step = (len >> 3) << 2;
            (
                (half(0) << 32) | half(step),
                (half(len - 4) << 32) | half(len - 4 - step),
            )
        } else if len > 0 {
            let b = |at: usize| u64::from(bytes[at]);
            ((b(0) << 16) | (b(len >> 1) << 8) | b(len - 1), 0)
        } else {
            (0, 0)
        }
    } else {
        let mut at = 0;
        while len - at > 16 {
            seed = fold_mul(word(at) ^ P1, word(at + 8) ^ seed);
            at += 16;
        }
        (word(len - 16), word(len - 8))
    };
    fold_mul(P1 ^ len as u64, fold_mul(a ^ P1, b ^ seed ^ P0))
}

/// A deduplicating string table.
///
/// ```
/// use stcfa_lambda::intern::Interner;
///
/// let mut interner = Interner::new();
/// let a = interner.intern("map");
/// let b = interner.intern("map");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), "map");
/// ```
#[derive(Debug, Clone)]
pub struct Interner {
    /// Every interned name, back to back in symbol order.
    text: String,
    /// `ends[s]` is where symbol `s`'s text ends in `text`; it starts
    /// where the previous symbol's ends.
    ends: Vec<u32>,
    /// The open-addressed table, probed linearly: a symbol, or [`EMPTY`].
    /// Its length is a power of two.
    slots: Vec<u32>,
    /// This interner's copy of the process key.
    key: u64,
}

impl Default for Interner {
    fn default() -> Self {
        Interner {
            text: String::new(),
            ends: Vec::new(),
            slots: Vec::new(),
            key: key(),
        }
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where symbol `index`'s text lies in `text`.
    fn range_of(&self, index: usize) -> std::ops::Range<usize> {
        let start = match index {
            0 => 0,
            i => self.ends[i - 1] as usize,
        };
        start..self.ends[index] as usize
    }

    fn text_of(&self, index: usize) -> &str {
        &self.text[self.range_of(index)]
    }

    /// The slot holding `s`, or the empty slot where it would go.
    #[inline]
    fn find(&self, s: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash(self.key, s.as_bytes()) as usize & mask;
        loop {
            let sym = self.slots[i];
            if sym == EMPTY || self.text.as_bytes()[self.range_of(sym as usize)] == *s.as_bytes() {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table (or creates it), re-placing every symbol in
    /// symbol order.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(MIN_SLOTS);
        self.slots = vec![EMPTY; len];
        for sym in 0..self.ends.len() {
            let i = self.find(self.text_of(sym));
            self.slots[i] = sym as u32;
        }
    }

    /// Interns `s`, returning the existing symbol if it was seen before.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.grow();
        }
        let i = self.find(s);
        if self.slots[i] != EMPTY {
            return Symbol(self.slots[i]);
        }
        let sym = u32::try_from(self.ends.len())
            .ok()
            .filter(|&sym| sym != EMPTY)
            .expect("interner overflow");
        self.text.push_str(s);
        self.ends
            .push(u32::try_from(self.text.len()).expect("interner overflow"));
        self.slots[i] = sym;
        Symbol(sym)
    }

    /// Returns the string for `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was produced by a different interner and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.text_of(sym.index())
    }

    /// Looks up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        if self.slots.is_empty() {
            return None;
        }
        match self.slots[self.find(s)] {
            EMPTY => None,
            sym => Some(Symbol(sym)),
        }
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no strings have been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Forgets every symbol at index `len` and above, restoring the
    /// interner to an earlier extent. Interning is append-only, so this
    /// exactly undoes the interleaving of `intern` calls since that
    /// extent — the session rewind machinery relies on replays minting
    /// identical symbols.
    ///
    /// Symbols leave in reverse order. Linear probing only ever fills an
    /// empty slot, so emptying the slot of the newest symbol leaves the
    /// table its older symbols would have built on their own.
    pub(crate) fn rewind(&mut self, len: usize) {
        for sym in (len..self.ends.len()).rev() {
            let i = self.find(self.text_of(sym));
            self.slots[i] = EMPTY;
            let start = self.text.len() - self.text_of(sym).len();
            self.text.truncate(start);
            self.ends.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_deduplicates() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("y");
        let c = i.intern("x");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let names = ["foo", "bar", "baz", ""];
        let syms: Vec<_> = names.iter().map(|n| i.intern(n)).collect();
        for (n, s) in names.iter().zip(&syms) {
            assert_eq!(i.resolve(*s), *n);
        }
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.get("missing").is_none());
        let s = i.intern("present");
        assert_eq!(i.get("present"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }

    #[test]
    fn many_names_survive_growth() {
        let mut i = Interner::new();
        let names: Vec<String> = (0..5000).map(|k| format!("name_{k}_{}", k * 7)).collect();
        let syms: Vec<Symbol> = names.iter().map(|n| i.intern(n)).collect();
        for (k, (n, &s)) in names.iter().zip(&syms).enumerate() {
            assert_eq!(s.index(), k);
            assert_eq!(i.resolve(s), n);
            assert_eq!(i.intern(n), s);
            assert_eq!(i.get(n), Some(s));
        }
        assert_eq!(i.len(), names.len());
    }

    #[test]
    fn rewind_forgets_and_replays_identically() {
        let mut i = Interner::new();
        for k in 0..40 {
            i.intern(&format!("old{k}"));
        }
        let mark = i.len();
        let fresh: Vec<Symbol> = (0..300).map(|k| i.intern(&format!("new{k}"))).collect();
        i.rewind(mark);
        assert_eq!(i.len(), mark);
        assert_eq!(i.get("new0"), None);
        assert_eq!(i.get("new299"), None);
        assert_eq!(i.get("old39").map(Symbol::index), Some(39));
        let again: Vec<Symbol> = (0..300).map(|k| i.intern(&format!("new{k}"))).collect();
        assert_eq!(fresh, again);
        for k in 0..40 {
            assert_eq!(i.get(&format!("old{k}")).map(Symbol::index), Some(k));
        }
    }
}
