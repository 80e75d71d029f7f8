//! Dense footprint bitsets over a per-arena variable index.
//!
//! [`TxnArena`](crate::TxnArena) interns every variable a transaction's
//! static read/write set touches into a dense index (first-seen order at
//! allocation) and appends the transaction's read and write bitsets over
//! that index to one arena-wide word slab; [`BitsRef`] is the borrowed
//! view of one of them. The merge hot path — precedence rules 1/2/3, the
//! base-edge cache, the reads-from closure, the conflict slice — then
//! answers every "do these sets overlap?" question with word-wise ANDs
//! instead of walking sorted member lists. [`DenseBits`] is the owned,
//! growing bitset for aggregates (a history's read union, the epoch
//! footprint, the selected slice).
//!
//! `VarSet` stays the public vocabulary type; the bitsets are the
//! arena-internal fast path, and differential tests
//! (`tests/footprint_differential.rs`) pin the two representations to
//! identical answers.

use histmerge_txn::VarSet;

/// A borrowed bitset over dense variable indices: a transaction's interned
/// read or write set in its arena's slab, or a view of a [`DenseBits`].
///
/// Bitsets over the same interner are comparable word-by-word; sets
/// interned at different times may have different lengths (the interner
/// only grows), so every binary operation treats missing tail words as
/// zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitsRef<'a> {
    words: &'a [u64],
}

impl<'a> BitsRef<'a> {
    /// The view of `words`, bit `i` at word `i / 64`, position `i % 64`.
    pub(crate) fn new(words: &'a [u64]) -> Self {
        BitsRef { words }
    }

    /// Word-wise AND-any: `true` if the two bitsets share a set bit.
    pub fn intersects<'b>(self, other: impl Into<BitsRef<'b>>) -> bool {
        self.words.iter().zip(other.into().words).any(|(a, b)| a & b != 0)
    }

    /// Iterates the indices of the set bits in ascending order.
    pub fn iter(self) -> impl Iterator<Item = u32> + 'a {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros();
                    rest &= rest - 1;
                    (wi as u32) * 64 + b
                })
            })
        })
    }

    /// The backing words (trailing words may be zero).
    pub fn words(self) -> &'a [u64] {
        self.words
    }
}

impl<'a> From<&'a DenseBits> for BitsRef<'a> {
    fn from(bits: &'a DenseBits) -> Self {
        BitsRef { words: &bits.words }
    }
}

/// A growable, owned bitset over dense variable indices, for aggregates
/// built by OR-ing footprints together.
///
/// Comparable word-by-word with any [`BitsRef`] over the same interner;
/// missing tail words count as zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseBits {
    words: Vec<u64>,
}

impl DenseBits {
    /// Creates an empty bitset.
    pub fn new() -> Self {
        DenseBits::default()
    }

    /// Sets bit `i`, growing the word vector as needed.
    pub fn set(&mut self, i: u32) {
        let word = (i / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (i % 64);
    }

    /// Tests bit `i`.
    pub fn get(&self, i: u32) -> bool {
        let word = (i / 64) as usize;
        self.words.get(word).is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Returns `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Word-wise AND-any: `true` if the two bitsets share a set bit.
    pub fn intersects<'b>(&self, other: impl Into<BitsRef<'b>>) -> bool {
        BitsRef::from(self).intersects(other)
    }

    /// Word-wise OR of `other` into `self`, growing as needed.
    pub fn union_with<'b>(&mut self, other: impl Into<BitsRef<'b>>) {
        let other = other.into().words;
        if other.len() > self.words.len() {
            self.words.resize(other.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(other) {
            *a |= *b;
        }
    }

    /// Clears every bit, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Iterates the indices of the set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        BitsRef::from(self).iter()
    }

    /// The backing words (trailing words may be zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Interns [`VarId`](histmerge_txn::VarId)s into dense bit indices, in
/// first-seen order.
#[derive(Debug, Clone, Default)]
pub struct VarInterner {
    index: std::collections::BTreeMap<histmerge_txn::VarId, u32>,
}

impl VarInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        VarInterner::default()
    }

    /// Returns the dense index of `var`, interning it if new.
    pub fn intern(&mut self, var: histmerge_txn::VarId) -> u32 {
        let next = self.index.len() as u32;
        *self.index.entry(var).or_insert(next)
    }

    /// The dense index of `var`, if it has been interned.
    pub fn lookup(&self, var: histmerge_txn::VarId) -> Option<u32> {
        self.index.get(&var).copied()
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Interns every member of `set` and appends its bitset to `slab`:
    /// the words from the slab's old length on, as many as the highest
    /// member's index needs. Returns that word count.
    pub fn intern_into(&mut self, set: &VarSet, slab: &mut Vec<u64>) -> usize {
        let start = slab.len();
        for var in set.iter() {
            let i = self.intern(var);
            let word = start + (i / 64) as usize;
            if word >= slab.len() {
                slab.resize(word + 1, 0);
            }
            slab[word] |= 1u64 << (i % 64);
        }
        slab.len() - start
    }

    /// The bitset of `set` over the *current* index, skipping variables
    /// never interned (they cannot overlap any interned footprint).
    pub fn bits_of(&self, set: &VarSet) -> DenseBits {
        let mut bits = DenseBits::new();
        for var in set.iter() {
            if let Some(i) = self.lookup(var) {
                bits.set(i);
            }
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_txn::VarId;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    #[test]
    fn dense_bits_roundtrip() {
        let mut b = DenseBits::new();
        assert!(b.is_empty());
        b.set(0);
        b.set(70);
        assert!(b.get(0));
        assert!(b.get(70));
        assert!(!b.get(1));
        assert!(!b.get(200));
        assert_eq!(b.count(), 2);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 70]);
        assert_eq!(b.words().len(), 2);
    }

    #[test]
    fn union_with_grows_and_ors() {
        let mut a = DenseBits::new();
        a.set(3);
        let mut b = DenseBits::new();
        b.set(100);
        a.union_with(&b);
        assert!(a.get(3));
        assert!(a.get(100));
        assert_eq!(a.count(), 2);
        // Union the short set into the long one: no shrink, no loss.
        b.union_with(&DenseBits::new());
        assert!(b.get(100));
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn intersects_handles_length_mismatch() {
        let mut short = DenseBits::new();
        short.set(3);
        let mut long = DenseBits::new();
        long.set(100);
        assert!(!short.intersects(&long));
        assert!(!long.intersects(&short));
        long.set(3);
        assert!(short.intersects(&long));
        assert!(long.intersects(&short));
    }

    #[test]
    fn interner_is_first_seen_order() {
        let mut it = VarInterner::new();
        assert!(it.is_empty());
        assert_eq!(it.intern(v(9)), 0);
        assert_eq!(it.intern(v(2)), 1);
        assert_eq!(it.intern(v(9)), 0);
        assert_eq!(it.len(), 2);
        assert_eq!(it.lookup(v(2)), Some(1));
        assert_eq!(it.lookup(v(7)), None);
    }

    #[test]
    fn bits_of_skips_foreign_vars() {
        let mut it = VarInterner::new();
        let set: VarSet = [v(1), v(2)].into_iter().collect();
        let mut slab = vec![u64::MAX];
        assert_eq!(it.intern_into(&set, &mut slab), 1);
        let interned = BitsRef::new(&slab[1..]);
        assert_eq!(interned.iter().collect::<Vec<_>>(), vec![0, 1]);
        let probe: VarSet = [v(2), v(99)].into_iter().collect();
        let bits = it.bits_of(&probe);
        assert_eq!(bits.count(), 1);
        assert!(bits.intersects(interned));
        assert!(interned.intersects(&bits));
        assert_eq!(it.len(), 2, "bits_of must not intern");
    }
}
