//! Transaction-semantics oracles for `histmerge`.
//!
//! The paper's rewriting algorithms consult three semantic relations:
//!
//! * **can follow** (Definition 3) — purely syntactic:
//!   `T` can follow a sequence `R` iff `T.writeset ∩ R.readset = ∅`;
//!   implemented in [`canfollow`].
//! * **commutes backward through** ([Wei88, LMWF94], footnote in
//!   Section 5.1) — `T2` commutes backward through `T1` iff
//!   `T2(T1(s)) = T1(T2(s))` wherever `T1 T2` is defined.
//! * **can precede** (Definition 4) — the fix-aware refinement: `T2` can
//!   precede `T1^F` iff for *any* assignment of values to the fix `F` and
//!   any state, `T1^F T2` and `T2 T1^F` produce the same final state.
//!
//! The latter two are semantic properties of transaction *code*, so the
//! crate provides the three detection back-ends Section 5.1 enumerates:
//!
//! | Paper scenario | Back-end |
//! |---|---|
//! | canned systems: relations pre-detected between transaction types | [`DeclaredTable`] |
//! | codes recorded, detected at repair time by analysis | [`StaticAnalyzer`] |
//! | detection by (possibly manual) inspection/testing | [`RandomizedTester`] |
//!
//! [`StaticAnalyzer`] is **conservative**: every `true` it returns is sound
//! (property-tested against differential execution), but it may say `false`
//! for relations that hold only through correlated guards — exactly the
//! `H5` subtlety of Section 5.1, which [`DeclaredTable`] or
//! [`RandomizedTester`] can capture instead. [`OracleStack`] composes
//! back-ends (any sound layer answering `true` wins).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canfollow;
mod declared;
mod oracle;
mod property1;
mod random_tester;
mod static_analyzer;
pub mod summary;
pub mod validate;

pub use declared::{CanPrecedePolicy, DeclaredTable};
pub use oracle::{OracleStack, SemanticOracle};
pub use property1::satisfies_property1;
pub use random_tester::RandomizedTester;
pub use static_analyzer::StaticAnalyzer;
