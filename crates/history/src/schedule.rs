//! Serial histories: ordered executions of transactions.

use std::fmt;

use histmerge_txn::TxnId;

/// A serial history: the order in which a set of transactions executed.
///
/// The paper assumes every history to be merged "is serializable and there
/// is an explicit serial history `H^s` of `H`" (Section 3); `SerialHistory`
/// is that explicit serial order. States are attached by
/// [`AugmentedHistory`](crate::AugmentedHistory).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SerialHistory {
    order: Vec<TxnId>,
}

impl SerialHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        SerialHistory::default()
    }

    /// Creates a history from an explicit order.
    pub fn from_order<I: IntoIterator<Item = TxnId>>(order: I) -> Self {
        SerialHistory { order: order.into_iter().collect() }
    }

    /// Appends a transaction at the end (a new commit).
    pub fn push(&mut self, id: TxnId) {
        self.order.push(id);
    }

    /// Removes every transaction, keeping the allocation.
    pub fn clear(&mut self) {
        self.order.clear();
    }

    /// The transactions in execution order.
    pub fn order(&self) -> &[TxnId] {
        &self.order
    }

    /// Number of transactions in the history.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the history contains no transactions.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The position of `id` in the history, if present.
    pub fn position(&self, id: TxnId) -> Option<usize> {
        self.order.iter().position(|t| *t == id)
    }

    /// Returns `true` if `id` appears in the history.
    pub fn contains(&self, id: TxnId) -> bool {
        self.position(id).is_some()
    }

    /// Iterates the transactions in execution order.
    pub fn iter(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.order.iter().copied()
    }

    /// The prefix of the first `n` transactions.
    pub fn prefix(&self, n: usize) -> SerialHistory {
        SerialHistory { order: self.order[..n.min(self.order.len())].to_vec() }
    }

    /// A copy of the history with every transaction in `remove` filtered
    /// out (the reads-from transitive-closure back-out produces exactly
    /// this, cf. Theorem 3).
    pub fn without<'a, I: IntoIterator<Item = &'a TxnId>>(&self, remove: I) -> SerialHistory {
        let remove: std::collections::BTreeSet<TxnId> = remove.into_iter().copied().collect();
        SerialHistory {
            order: self.order.iter().copied().filter(|t| !remove.contains(t)).collect(),
        }
    }
}

impl FromIterator<TxnId> for SerialHistory {
    fn from_iter<I: IntoIterator<Item = TxnId>>(iter: I) -> Self {
        SerialHistory::from_order(iter)
    }
}

impl fmt::Display for SerialHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.order.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }

    #[test]
    fn order_and_position() {
        let mut h = SerialHistory::new();
        assert!(h.is_empty());
        h.push(t(2));
        h.push(t(0));
        assert_eq!(h.len(), 2);
        assert_eq!(h.position(t(0)), Some(1));
        assert_eq!(h.position(t(7)), None);
        assert!(h.contains(t(2)));
        assert_eq!(h.order(), &[t(2), t(0)]);
    }

    #[test]
    fn prefix_and_without() {
        let h: SerialHistory = [t(0), t(1), t(2), t(3)].into_iter().collect();
        assert_eq!(h.prefix(2).order(), &[t(0), t(1)]);
        assert_eq!(h.prefix(99).len(), 4);
        let removed = h.without([t(1), t(3)].iter());
        assert_eq!(removed.order(), &[t(0), t(2)]);
    }

    #[test]
    fn display() {
        let h: SerialHistory = [t(0), t(2)].into_iter().collect();
        assert_eq!(h.to_string(), "T0 T2");
        assert_eq!(SerialHistory::new().to_string(), "");
    }
}
