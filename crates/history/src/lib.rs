//! History machinery for `histmerge`.
//!
//! This crate implements the history-level substrate of the paper
//! *"Incorporating Transaction Semantics to Reduce Reprocessing Overhead in
//! Replicated Mobile Data Applications"* (Liu, Ammann, Jajodia, ICDCS 1999):
//!
//! * [`TxnArena`] — owns transaction instances and assigns identities;
//! * [`SerialHistory`] — an ordered execution of transactions;
//! * [`AugmentedHistory`] — a serial history interleaved with explicit
//!   database states (Section 3), the structure the rewriting algorithms
//!   operate on, with [final-state equivalence](AugmentedHistory::final_state_equivalent)
//!   checks;
//! * [`readsfrom`] — the reads-from relation and the *affected set* `AG`
//!   (the reads-from transitive closure of the back-out set `B`);
//! * [`PrecedenceGraph`] — the Davidson-style graph `G(H_m, H_b)` built from
//!   a tentative and a base history (Section 2.1, step 1) with cycle
//!   detection (Theorem 1);
//! * [`backout`] — strategies for computing the back-out set `B`
//!   (Section 2.1, step 2; strategies follow Davidson's ACM TODS 1984
//!   paper: exact minimum, two-cycle-optimal, greedy).
//!
//! # Example
//!
//! ```rust
//! use histmerge_txn::{Expr, ProgramBuilder, Transaction, TxnKind, VarId};
//! use histmerge_history::{PrecedenceGraph, SerialHistory, TxnArena};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let x = VarId::new(0);
//! let inc = std::sync::Arc::new(
//!     ProgramBuilder::new("inc").read(x).update(x, Expr::var(x) + Expr::konst(1)).build()?,
//! );
//! let mut arena = TxnArena::new();
//! let tm = arena.alloc(|id| Transaction::new(id, "Tm1", TxnKind::Tentative, inc.clone(), vec![]));
//! let tb = arena.alloc(|id| Transaction::new(id, "Tb1", TxnKind::Base, inc.clone(), vec![]));
//! let hm = SerialHistory::from_order([tm]);
//! let hb = SerialHistory::from_order([tb]);
//! let graph = PrecedenceGraph::build(&arena, &hm, &hb);
//! // Both histories updated x from the same start state: a write-write
//! // conflict in both directions, hence a cycle.
//! assert!(!graph.is_acyclic());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod augmented;
mod schedule;

pub mod backout;
pub mod fixtures;
pub mod footprint;
pub mod interleaved;
pub mod precedence;
pub mod readsfrom;

pub use arena::TxnArena;
pub use augmented::{run_to_final, AugmentedHistory, HistoryError, StepRecord};
pub use backout::{BackoutError, BackoutStrategy, ExactMinimum, GreedyScc, TwoCycleOptimal};
pub use footprint::{BitsRef, DenseBits, VarInterner};
pub use precedence::{rule1_edge_count, BaseEdgeCache, EdgeKind, PrecedenceGraph, SliceScratch};
pub use readsfrom::{closure_weights_for, ClosureScratch, ClosureTable};
pub use schedule::SerialHistory;
