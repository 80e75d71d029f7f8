//! Transaction model substrate for `histmerge`.
//!
//! This crate implements the transaction language assumed by the paper
//! *"Incorporating Transaction Semantics to Reduce Reprocessing Overhead in
//! Replicated Mobile Data Applications"* (Liu, Ammann, Jajodia, ICDCS 1999),
//! Section 3:
//!
//! * a transaction is a sequence of statements;
//! * each statement is either a read, an update of the form
//!   `x := f(x, y1, ..., yn)`, or a conditional `if c then SS1 else SS2`;
//! * each statement updates at most one data item;
//! * each data item is updated at most once per transaction;
//! * transactions issue **no blind writes**: every written item is also read.
//!
//! The crate provides:
//!
//! * [`VarId`], [`Value`], [`DbState`] — named integer-valued data items and
//!   database states;
//! * [`Expr`] / [`Pred`] — side-effect-free arithmetic and boolean
//!   expressions over data items, transaction parameters and constants;
//! * [`Statement`] / [`Program`] — the statement AST and a validated program
//!   with statically computed read and write sets;
//! * [`exec`] — an interpreter that executes programs against a state,
//!   honouring a *fix* (Definition 1 of the paper: a set of pinned read
//!   values) and recording the observed reads plus before/after images;
//! * [`Transaction`] / [`registry`] — instantiated transactions and a canned
//!   transaction-type registry with declared inverse (compensating)
//!   programs.
//!
//! # Example
//!
//! ```rust
//! use histmerge_txn::{DbState, Fix, ProgramBuilder, Expr, VarId};
//!
//! # fn main() -> Result<(), histmerge_txn::TxnError> {
//! // B1: if x > 0 then y := y + z + 3      (from Section 3 of the paper)
//! let (x, y, z) = (VarId::new(0), VarId::new(1), VarId::new(2));
//! let prog = ProgramBuilder::new("b1")
//!     .read(x).read(y).read(z)
//!     .branch(
//!         Expr::var(x).gt(Expr::konst(0)),
//!         |t| t.update(y, Expr::var(y) + Expr::var(z) + Expr::konst(3)),
//!         |t| t,
//!     )
//!     .build()?;
//!
//! let mut s0 = DbState::new();
//! s0.set(x, 1); s0.set(y, 7); s0.set(z, 2);
//! let out = prog.execute(&[], &s0, &Fix::empty())?;
//! assert_eq!(out.after.get(y), 12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod expr;
mod fix;
mod inline;
mod program;
mod state;
mod transaction;
mod value;

pub mod exec;
pub mod registry;

pub use error::TxnError;
pub use expr::{Expr, Pred};
pub use fix::Fix;
pub use inline::TxnName;
pub use program::{Program, ProgramBuilder, Statement};
pub use state::{DbState, OverlayState, StateRead, WriteDelta};
pub use transaction::{Concrete, Transaction, TxnId, TxnKind};
pub use value::{Value, VarId, VarMask, VarSet};
