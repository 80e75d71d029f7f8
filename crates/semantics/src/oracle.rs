//! The [`SemanticOracle`] trait and composition.

use histmerge_txn::{Transaction, VarSet};

/// A source of semantic relations between transactions.
///
/// Implementations must be **sound**: answering `true` asserts the relation
/// genuinely holds (rewriting relies on it for final-state equivalence);
/// answering `false` is always safe and merely loses an optimization
/// opportunity. The purely syntactic *can follow* relation needs no oracle
/// (see [`canfollow`](crate::canfollow)).
///
/// Implementations must be `Send + Sync`, so a merger holding one can be
/// shared across threads (all relations are pure functions of their
/// arguments; interior mutability would need its own locking).
pub trait SemanticOracle: Send + Sync {
    /// Does `t2` commute backward through `t1`? (`T2(T1(s)) = T1(T2(s))`
    /// for every state `s` on which `T1 T2` is defined.)
    fn commutes_backward_through(&self, t2: &Transaction, t1: &Transaction) -> bool;

    /// Can `t2` precede `t1` carrying a fix over `fix_vars`
    /// (Definition 4)? Must hold for **any** assignment of values to the
    /// fix variables, not just the recorded ones.
    fn can_precede(&self, t2: &Transaction, t1: &Transaction, fix_vars: &VarSet) -> bool;

    /// Back-end name for experiment reports.
    fn name(&self) -> &'static str;
}

/// Composition of oracles: a relation holds if **any** layer says it holds.
///
/// Sound because each layer is individually sound. Typical canned-system
/// stack: [`StaticAnalyzer`](crate::StaticAnalyzer) first (cheap), then a
/// [`DeclaredTable`](crate::DeclaredTable) for the type pairs the analyzer
/// is too conservative for.
#[derive(Default)]
pub struct OracleStack {
    layers: Vec<Box<dyn SemanticOracle>>,
}

impl OracleStack {
    /// Creates an empty stack (answers `false` to everything — i.e.
    /// semantics-free, degrading Algorithm 2 to Algorithm 1).
    pub fn new() -> Self {
        OracleStack { layers: Vec::new() }
    }

    /// Adds a layer. Layers are consulted in insertion order.
    #[must_use]
    pub fn with(mut self, layer: Box<dyn SemanticOracle>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl SemanticOracle for OracleStack {
    fn commutes_backward_through(&self, t2: &Transaction, t1: &Transaction) -> bool {
        self.layers.iter().any(|l| l.commutes_backward_through(t2, t1))
    }

    fn can_precede(&self, t2: &Transaction, t1: &Transaction, fix_vars: &VarSet) -> bool {
        self.layers.iter().any(|l| l.can_precede(t2, t1, fix_vars))
    }

    fn name(&self) -> &'static str {
        "oracle-stack"
    }
}

impl std::fmt::Debug for OracleStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleStack")
            .field("layers", &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_txn::{Expr, ProgramBuilder, TxnId, TxnKind, VarId};
    use std::sync::Arc;

    struct Always(bool);
    impl SemanticOracle for Always {
        fn commutes_backward_through(&self, _: &Transaction, _: &Transaction) -> bool {
            self.0
        }
        fn can_precede(&self, _: &Transaction, _: &Transaction, _: &VarSet) -> bool {
            self.0
        }
        fn name(&self) -> &'static str {
            "always"
        }
    }

    fn t() -> Transaction {
        let x = VarId::new(0);
        let p = Arc::new(
            ProgramBuilder::new("t")
                .read(x)
                .update(x, Expr::var(x) + Expr::konst(1))
                .build()
                .unwrap(),
        );
        Transaction::new(TxnId::new(0), "t", TxnKind::Tentative, p, vec![])
    }

    #[test]
    fn empty_stack_denies_everything() {
        let s = OracleStack::new();
        assert!(s.is_empty());
        assert!(!s.commutes_backward_through(&t(), &t()));
        assert!(!s.can_precede(&t(), &t(), &VarSet::new()));
    }

    #[test]
    fn any_layer_suffices() {
        let s = OracleStack::new().with(Box::new(Always(false))).with(Box::new(Always(true)));
        assert_eq!(s.len(), 2);
        assert!(s.commutes_backward_through(&t(), &t()));
        assert!(s.can_precede(&t(), &t(), &VarSet::new()));
        let dbg = format!("{s:?}");
        assert!(dbg.contains("always"));
    }
}
