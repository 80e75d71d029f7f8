//! Error type for the transaction substrate.

use std::fmt;

use crate::value::VarId;

/// Errors raised while building or executing transaction programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// A statement referenced a variable that has not been read yet.
    ///
    /// The paper assumes every value used in an update was read first (no
    /// blind writes, and `x := f(x, y1..yn)` reads its operands).
    UnreadVariable {
        /// The offending variable.
        var: VarId,
        /// Name of the program being built or executed.
        program: String,
    },
    /// A program attempted to update the same data item twice.
    ///
    /// Section 6.2 of the paper assumes "each data item is updated only once
    /// in a transaction".
    DuplicateUpdate {
        /// The variable updated more than once.
        var: VarId,
        /// Name of the program being built.
        program: String,
    },
    /// A read or update referenced a variable missing from the database
    /// state.
    MissingVariable {
        /// The variable absent from the state.
        var: VarId,
    },
    /// An expression referenced a parameter index that was not supplied.
    MissingParameter {
        /// The out-of-range parameter index.
        index: usize,
        /// How many parameters were supplied.
        supplied: usize,
    },
    /// A template's item slot has no item in the transaction's binding.
    UnboundSlot {
        /// The unbound slot.
        slot: VarId,
        /// How many slots the binding covers.
        bound: usize,
    },
    /// A transaction type name was not found in the registry.
    UnknownTxnType {
        /// The unknown type name.
        name: String,
    },
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::UnreadVariable { var, program } => {
                write!(f, "variable {var} used before being read in program `{program}`")
            }
            TxnError::DuplicateUpdate { var, program } => {
                write!(f, "variable {var} updated more than once in program `{program}`")
            }
            TxnError::MissingVariable { var } => {
                write!(f, "variable {var} is not present in the database state")
            }
            TxnError::MissingParameter { index, supplied } => {
                write!(f, "parameter p{index} referenced but only {supplied} supplied")
            }
            TxnError::UnboundSlot { slot, bound } => {
                write!(f, "slot {slot} is unbound (the binding covers {bound} slots)")
            }
            TxnError::UnknownTxnType { name } => {
                write!(f, "unknown transaction type `{name}`")
            }
        }
    }
}

impl std::error::Error for TxnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TxnError::UnreadVariable { var: VarId::new(3), program: "t".into() };
        assert!(e.to_string().contains("d3"));
        let e = TxnError::MissingParameter { index: 2, supplied: 1 };
        assert!(e.to_string().contains("p2"));
        let e = TxnError::UnboundSlot { slot: VarId::new(4), bound: 2 };
        assert!(e.to_string().contains("d4"));
        let e = TxnError::UnknownTxnType { name: "t".into() };
        assert!(e.to_string().contains("unknown"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<TxnError>();
    }
}
