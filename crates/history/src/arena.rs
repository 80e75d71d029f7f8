//! Transaction arena: ownership and identity for transaction instances.

use histmerge_txn::{Transaction, TxnId, VarSet};

use crate::footprint::{BitsRef, DenseBits, VarInterner};

/// Owns every transaction of a merge scenario and assigns dense [`TxnId`]s.
///
/// Histories ([`SerialHistory`](crate::SerialHistory)) reference
/// transactions by id, so a tentative history and a base history over the
/// same arena can be combined into one precedence graph without cloning
/// programs.
///
/// # Example
///
/// ```rust
/// use histmerge_txn::{Expr, ProgramBuilder, Transaction, TxnKind, VarId};
/// use histmerge_history::TxnArena;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let x = VarId::new(0);
/// let prog = std::sync::Arc::new(
///     ProgramBuilder::new("inc").read(x).update(x, Expr::var(x) + Expr::konst(1)).build()?,
/// );
/// let mut arena = TxnArena::new();
/// let id = arena.alloc(|id| Transaction::new(id, "Tm1", TxnKind::Tentative, prog, vec![]));
/// assert_eq!(arena.get(id).name(), "Tm1");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct TxnArena {
    txns: Vec<Transaction>,
    /// Dense variable index over every footprint seen at admission.
    interner: VarInterner,
    /// Every transaction's read-set bitset followed by its write-set
    /// bitset over the interner, in admission order: one slab for the
    /// whole arena, so admitting a transaction allocates nothing
    /// amortized.
    bits: Vec<u64>,
    /// Where each transaction's bitsets lie in `bits`, parallel to
    /// `txns`.
    spans: Vec<BitSpan>,
}

/// A transaction's bitsets in the arena slab: `read` words from `start`,
/// then `write` words.
#[derive(Debug, Clone, Copy)]
struct BitSpan {
    start: usize,
    read: u32,
    write: u32,
}

impl TxnArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        TxnArena::default()
    }

    /// Allocates the next [`TxnId`] and stores the transaction the callback
    /// builds for it, interning its read/write footprint into the arena's
    /// dense bitset index (the merge hot path's conflict-test
    /// representation).
    ///
    /// # Panics
    ///
    /// Panics if the callback returns a transaction whose id differs from
    /// the one supplied — ids are the arena's invariant.
    pub fn alloc(&mut self, build: impl FnOnce(TxnId) -> Transaction) -> TxnId {
        let id = TxnId::new(self.txns.len() as u32);
        let txn = build(id);
        assert_eq!(txn.id(), id, "transaction must keep the id assigned by the arena");
        let start = self.bits.len();
        let read = self.interner.intern_into(txn.readset(), &mut self.bits);
        let write = self.interner.intern_into(txn.writeset(), &mut self.bits);
        let words = |n: usize| u32::try_from(n).expect("a footprint spans fewer than 2^32 words");
        self.spans.push(BitSpan { start, read: words(read), write: words(write) });
        self.txns.push(txn);
        id
    }

    /// The interned read-set bitset of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not allocated by this arena.
    pub fn read_bits(&self, id: TxnId) -> BitsRef<'_> {
        let span = self.spans[id.index() as usize];
        BitsRef::new(&self.bits[span.start..span.start + span.read as usize])
    }

    /// The interned write-set bitset of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not allocated by this arena.
    pub fn write_bits(&self, id: TxnId) -> BitsRef<'_> {
        let span = self.spans[id.index() as usize];
        let start = span.start + span.read as usize;
        BitsRef::new(&self.bits[start..start + span.write as usize])
    }

    /// Word-wise conflict test: `true` if `a` and `b` touch a common item
    /// with at least one write (r/w, w/r or w/w overlap). Equivalent to
    /// the `VarSet` test
    /// `a.reads ∩ b.writes ∪ a.writes ∩ b.reads ∪ a.writes ∩ b.writes ≠ ∅`.
    pub fn conflicts(&self, a: TxnId, b: TxnId) -> bool {
        let (a_writes, b_writes) = (self.write_bits(a), self.write_bits(b));
        self.read_bits(a).intersects(b_writes)
            || a_writes.intersects(self.read_bits(b))
            || a_writes.intersects(b_writes)
    }

    /// Word-wise test for `reader.readset ∩ writer.writeset ≠ ∅` (the
    /// precedence rule-3 primitive).
    pub fn reads_overlap_writes(&self, reader: TxnId, writer: TxnId) -> bool {
        self.read_bits(reader).intersects(self.write_bits(writer))
    }

    /// The bitset of an arbitrary variable set over this arena's index.
    /// Variables the arena has never seen are skipped — they cannot
    /// overlap any admitted footprint.
    pub fn bits_of(&self, vars: &VarSet) -> DenseBits {
        self.interner.bits_of(vars)
    }

    /// Number of distinct variables interned across all footprints.
    pub fn var_count(&self) -> usize {
        self.interner.len()
    }

    /// Returns the transaction with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not allocated by this arena.
    pub fn get(&self, id: TxnId) -> &Transaction {
        &self.txns[id.index() as usize]
    }

    /// Returns the transaction with the given id, or `None` if the id is
    /// foreign to this arena.
    pub fn try_get(&self, id: TxnId) -> Option<&Transaction> {
        self.txns.get(id.index() as usize)
    }

    /// Number of transactions allocated.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Returns `true` if no transactions are allocated.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Iterates all transactions in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> + '_ {
        self.txns.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_txn::{Expr, Program, ProgramBuilder, TxnKind, VarId};
    use std::sync::Arc;

    fn prog() -> Arc<Program> {
        let x = VarId::new(0);
        Arc::new(
            ProgramBuilder::new("p")
                .read(x)
                .update(x, Expr::var(x) + Expr::konst(1))
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn alloc_assigns_dense_ids() {
        let mut arena = TxnArena::new();
        let p = prog();
        let a = arena.alloc(|id| Transaction::new(id, "a", TxnKind::Base, p.clone(), vec![]));
        let b = arena.alloc(|id| Transaction::new(id, "b", TxnKind::Tentative, p.clone(), vec![]));
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(b).name(), "b");
        assert!(arena.try_get(TxnId::new(5)).is_none());
    }

    #[test]
    #[should_panic(expected = "must keep the id")]
    fn alloc_rejects_id_mismatch() {
        let mut arena = TxnArena::new();
        let p = prog();
        arena.alloc(|_| Transaction::new(TxnId::new(99), "bad", TxnKind::Base, p, vec![]));
    }

    #[test]
    fn footprints_interned_at_admission() {
        use histmerge_txn::VarSet;
        let x = VarId::new(5);
        let y = VarId::new(9);
        let p1 = Arc::new(
            ProgramBuilder::new("p1")
                .read(x)
                .update(x, Expr::var(x) + Expr::konst(1))
                .build()
                .unwrap(),
        );
        let p2 = Arc::new(
            ProgramBuilder::new("p2")
                .read(y)
                .update(y, Expr::var(y) + Expr::konst(1))
                .build()
                .unwrap(),
        );
        let mut arena = TxnArena::new();
        let a = arena.alloc(|id| Transaction::new(id, "a", TxnKind::Base, p1.clone(), vec![]));
        let b = arena.alloc(|id| Transaction::new(id, "b", TxnKind::Base, p2, vec![]));
        let c = arena.alloc(|id| Transaction::new(id, "c", TxnKind::Tentative, p1, vec![]));
        assert_eq!(arena.var_count(), 2);
        // a and c share x: every conflict direction fires; b is disjoint.
        assert!(arena.conflicts(a, c));
        assert!(!arena.conflicts(a, b));
        assert!(arena.reads_overlap_writes(a, c));
        assert!(!arena.reads_overlap_writes(a, b));
        assert!(arena.read_bits(a).intersects(arena.write_bits(c)));
        // bits_of maps through the same index and skips foreign vars.
        let probe: VarSet = [x, VarId::new(77)].into_iter().collect();
        let bits = arena.bits_of(&probe);
        assert_eq!(bits.count(), 1);
        assert!(bits.intersects(arena.write_bits(a)));
        assert!(!bits.intersects(arena.write_bits(b)));
    }
}
