//! The history-merging core of `histmerge` — the primary contribution of
//! *"Incorporating Transaction Semantics to Reduce Reprocessing Overhead in
//! Replicated Mobile Data Applications"* (Liu, Ammann, Jajodia, ICDCS 1999).
//!
//! Two-tier replication re-executes every tentative transaction at the base
//! nodes. This crate instead **merges** the tentative history `H_m` into the
//! base history `H_b` (Section 2.1):
//!
//! 1. build the precedence graph `G(H_m, H_b)`;
//! 2. compute the back-out set `B` of undesirable tentative transactions;
//! 3. **rewrite** `H_m` so that `B` (and the affected transactions that
//!    cannot be saved) move to the end — [`rewrite`];
//! 4. **prune** the rewritten suffix by compensation or undo — [`prune`];
//! 5. forward the repaired history's final values to the base;
//! 6. re-execute the backed-out transactions the old way.
//!
//! The [`merge`] module runs steps 1–5 and stops at the install plan; step 6
//! is `BaseNode::reexecute` in `histmerge-replication`.
//!
//! # Example
//!
//! ```rust
//! use histmerge_core::merge::{MergeConfig, Merger};
//! use histmerge_history::fixtures::example1;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ex = example1();
//! let outcome = Merger::new(MergeConfig::default())
//!     .merge(&ex.arena, &ex.hm, &ex.hb, &ex.s0)?;
//! // Example 1 of the paper: B = {Tm3}, affected = {Tm4}, and the work of
//! // Tm1 and Tm2 is saved without reprocessing.
//! assert_eq!(outcome.backed_out.len(), 2);
//! assert_eq!(outcome.saved, vec![ex.m[0], ex.m[1]]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod merge;
pub mod prune;
pub mod rewrite;

pub use error::CoreError;
pub use rewrite::{FixMode, RewriteAlgorithm, RewrittenHistory};
