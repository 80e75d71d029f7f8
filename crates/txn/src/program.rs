//! Transaction programs: statement AST, validation, and static read/write
//! sets.
//!
//! Section 6.2 of the paper fixes the program shape that the undo-repair
//! construction (Algorithm 3) relies on:
//!
//! * a transaction is a sequence of statements, each either an operation or
//!   a conditional `if c then SS1 else SS2`;
//! * each statement updates at most one data item;
//! * each data item is updated at most once (per execution path);
//! * no blind writes: every operand — including the update target — is read
//!   before it is used.

use std::fmt;

use crate::error::TxnError;
use crate::exec::{self, ExecOutcome};
use crate::expr::{Expr, Pred};
use crate::fix::Fix;
use crate::state::DbState;
use crate::value::{Value, VarId, VarMask, VarSet};

/// One statement of a transaction program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// Read a data item into the transaction's local context.
    Read(VarId),
    /// Update one data item: `target := expr`, where `expr` may reference
    /// previously read items and transaction parameters.
    Update {
        /// The data item being written.
        target: VarId,
        /// The right-hand side.
        expr: Expr,
    },
    /// Conditional execution: `if cond then then_branch else else_branch`.
    If {
        /// The guard predicate.
        cond: Pred,
        /// Statements executed when the guard holds.
        then_branch: Vec<Statement>,
        /// Statements executed when the guard does not hold.
        else_branch: Vec<Statement>,
    },
}

impl Statement {
    /// The concrete statement of a template instance (see
    /// [`Expr::bound`]).
    fn bound(&self, binding: &[VarId], params: &[Value]) -> Statement {
        let slot = |v: &VarId| binding.get(v.index() as usize).copied().unwrap_or(*v);
        match self {
            Statement::Read(v) => Statement::Read(slot(v)),
            Statement::Update { target, expr } => {
                Statement::Update { target: slot(target), expr: expr.bound(binding, params) }
            }
            Statement::If { cond, then_branch, else_branch } => Statement::If {
                cond: cond.bound(binding, params),
                then_branch: then_branch.iter().map(|s| s.bound(binding, params)).collect(),
                else_branch: else_branch.iter().map(|s| s.bound(binding, params)).collect(),
            },
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self {
            Statement::Read(v) => writeln!(f, "{pad}read {v}"),
            Statement::Update { target, expr } => writeln!(f, "{pad}{target} := {expr}"),
            Statement::If { cond, then_branch, else_branch } => {
                writeln!(f, "{pad}if {cond} then")?;
                for s in then_branch {
                    s.fmt_indented(f, depth + 1)?;
                }
                if !else_branch.is_empty() {
                    writeln!(f, "{pad}else")?;
                    for s in else_branch {
                        s.fmt_indented(f, depth + 1)?;
                    }
                }
                writeln!(f, "{pad}end")
            }
        }
    }
}

/// A validated transaction program.
///
/// Construct with [`ProgramBuilder`]. A `Program` knows its static read set
/// (every item appearing in a `read` statement on any path) and static write
/// set (every update target on any path); validation guarantees
/// `writeset ⊆ readset` (no blind writes, the paper's standing assumption in
/// Section 3).
///
/// A program is also a *template*: a [`Transaction`](crate::Transaction)
/// built with [`Transaction::instance`](crate::Transaction::instance)
/// reads each `VarId::new(i)` of the program as item slot `i`, bound to
/// an item by the instance, and each [`Expr::param`] as a constant the
/// instance supplies. Generators intern one program per transaction
/// shape and share it, behind an `Arc`, among all instances of that
/// shape; hand-built transactions ([`Transaction::new`]) bind every item
/// to itself, so their program is the concrete one. The static sets here
/// are in the program's own (slot) space; an instance keeps its bound
/// sets itself.
///
/// [`Transaction::new`]: crate::Transaction::new
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    stmts: Vec<Statement>,
    /// The static read set, with its overlap filter.
    reads: VarMask,
    /// The static write set, with its overlap filter.
    writes: VarMask,
    /// `readset ∪ writeset`, precomputed so executions stop re-deriving it.
    footprint: VarSet,
    n_params: usize,
}

impl Program {
    /// Returns `true` if the program writes some item it never reads.
    ///
    /// The paper's rewriting model assumes no blind writes ("if a
    /// transaction writes some data, the transaction is assumed to read the
    /// value first", Section 3) but its set-based examples (Example 1) use
    /// them; blind writes must be enabled explicitly with
    /// [`ProgramBuilder::allow_blind_writes`].
    pub fn has_blind_writes(&self) -> bool {
        !self.writeset().is_subset(self.readset())
    }
}

impl Program {
    /// The program's name (diagnostic only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The statements, in order.
    pub fn statements(&self) -> &[Statement] {
        &self.stmts
    }

    /// Static read set: every data item read on any execution path.
    pub fn readset(&self) -> &VarSet {
        self.reads.set()
    }

    /// Static write set: every data item updated on any execution path.
    pub fn writeset(&self) -> &VarSet {
        self.writes.set()
    }

    /// Static footprint `readset ∪ writeset`, precomputed at build time
    /// (it is the projection domain of every before/after image).
    pub fn footprint(&self) -> &VarSet {
        &self.footprint
    }

    /// Overlap-test mask of the static read set (see [`VarMask`]).
    pub fn read_mask(&self) -> &VarMask {
        &self.reads
    }

    /// Overlap-test mask of the static write set (see [`VarMask`]).
    pub fn write_mask(&self) -> &VarMask {
        &self.writes
    }

    /// Number of parameters the program expects (highest index + 1).
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Total number of statements, counting nested conditional branches
    /// (used by the Section 7.1 cost model, which charges query processing
    /// per statement).
    pub fn statement_count(&self) -> usize {
        fn count(stmts: &[Statement]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Statement::Read(_) | Statement::Update { .. } => 1,
                    Statement::If { then_branch, else_branch, .. } => {
                        1 + count(then_branch) + count(else_branch)
                    }
                })
                .sum()
        }
        count(&self.stmts)
    }

    /// The concrete program of a template instance: every slot bound to
    /// its item and every parameter replaced by its constant, with the
    /// instance's already bound static sets.
    pub(crate) fn bound(
        &self,
        name: &str,
        binding: &[VarId],
        params: &[Value],
        sets: (VarMask, VarMask, VarSet),
    ) -> Program {
        let (reads, writes, footprint) = sets;
        Program {
            name: name.to_string(),
            stmts: self.stmts.iter().map(|s| s.bound(binding, params)).collect(),
            reads,
            writes,
            footprint,
            n_params: if params.len() >= self.n_params { 0 } else { self.n_params },
        }
    }

    /// Executes the program against `state` with the given parameters and
    /// fix, returning the resulting state and observation record.
    ///
    /// Reads of variables pinned in `fix` return the pinned value instead of
    /// the value in `state` (Definition 1 of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`TxnError::MissingVariable`] if the state lacks a variable
    /// in the read set, or [`TxnError::MissingParameter`] if too few
    /// parameters are supplied.
    pub fn execute(
        &self,
        params: &[Value],
        state: &DbState,
        fix: &Fix,
    ) -> Result<ExecOutcome, TxnError> {
        exec::execute(self, params, state, fix)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} (params: {})", self.name, self.n_params)?;
        for s in &self.stmts {
            s.fmt_indented(f, 1)?;
        }
        Ok(())
    }
}

/// Builder for [`Program`] values.
///
/// The builder records statements in order; [`ProgramBuilder::build`]
/// validates the paper's structural assumptions and computes static
/// read/write sets.
///
/// # Example
///
/// ```rust
/// use histmerge_txn::{Expr, ProgramBuilder, VarId};
///
/// # fn main() -> Result<(), histmerge_txn::TxnError> {
/// let x = VarId::new(0);
/// let p = ProgramBuilder::new("incr")
///     .read(x)
///     .update(x, Expr::var(x) + Expr::param(0))
///     .build()?;
/// assert!(p.writeset().contains(x));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    stmts: Vec<Statement>,
    allow_blind: bool,
}

impl ProgramBuilder {
    /// Starts a new program with the given diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder { name: name.into(), stmts: Vec::new(), allow_blind: false }
    }

    /// Permits update statements whose target was never read (blind
    /// writes). Update *operands* must still have been read.
    ///
    /// Needed only for set-level modelling such as the paper's Example 1;
    /// the rewriting algorithms reject or degrade on blind-writing
    /// transactions per Section 3.
    #[must_use]
    pub fn allow_blind_writes(mut self) -> Self {
        self.allow_blind = true;
        self
    }

    /// Appends a read statement.
    pub fn read(mut self, var: VarId) -> Self {
        self.stmts.push(Statement::Read(var));
        self
    }

    /// Appends an update statement `target := expr`.
    pub fn update(mut self, target: VarId, expr: Expr) -> Self {
        self.stmts.push(Statement::Update { target, expr });
        self
    }

    /// Appends a conditional. Each closure receives a fresh builder for its
    /// branch and returns it with the branch's statements appended.
    pub fn branch(
        mut self,
        cond: Pred,
        then_b: impl FnOnce(ProgramBuilder) -> ProgramBuilder,
        else_b: impl FnOnce(ProgramBuilder) -> ProgramBuilder,
    ) -> Self {
        let tb = then_b(ProgramBuilder::new("then"));
        let eb = else_b(ProgramBuilder::new("else"));
        self.stmts.push(Statement::If { cond, then_branch: tb.stmts, else_branch: eb.stmts });
        self
    }

    /// Appends a raw statement (used by workload generators that construct
    /// ASTs directly).
    pub fn statement(mut self, stmt: Statement) -> Self {
        self.stmts.push(stmt);
        self
    }

    /// Validates the program and computes its static read/write sets.
    ///
    /// # Errors
    ///
    /// * [`TxnError::UnreadVariable`] — an update target, update operand, or
    ///   guard variable is used on some path before being read.
    /// * [`TxnError::DuplicateUpdate`] — some execution path updates the
    ///   same data item twice.
    pub fn build(self) -> Result<Program, TxnError> {
        let mut readset = VarSet::new();
        let mut writeset = VarSet::new();
        let mut n_params = 0usize;
        Self::validate_block(
            &self.name,
            self.allow_blind,
            &self.stmts,
            &mut VarSet::new(),
            &mut VarSet::new(),
            &mut readset,
            &mut writeset,
            &mut n_params,
        )?;
        let footprint = readset.union(&writeset);
        Ok(Program {
            name: self.name,
            stmts: self.stmts,
            reads: VarMask::of(readset),
            writes: VarMask::of(writeset),
            footprint,
            n_params,
        })
    }

    /// Walks `stmts` with the set of variables available (read or already
    /// updated) and the set updated so far on this path.
    #[allow(clippy::too_many_arguments)]
    fn validate_block(
        name: &str,
        allow_blind: bool,
        stmts: &[Statement],
        available: &mut VarSet,
        updated: &mut VarSet,
        readset: &mut VarSet,
        writeset: &mut VarSet,
        n_params: &mut usize,
    ) -> Result<(), TxnError> {
        for stmt in stmts {
            match stmt {
                Statement::Read(v) => {
                    available.insert(*v);
                    readset.insert(*v);
                }
                Statement::Update { target, expr } => {
                    for v in expr.vars().iter() {
                        if !available.contains(v) {
                            return Err(TxnError::UnreadVariable {
                                var: v,
                                program: name.to_string(),
                            });
                        }
                    }
                    if !allow_blind && !available.contains(*target) {
                        // No blind writes: the target must have been read.
                        return Err(TxnError::UnreadVariable {
                            var: *target,
                            program: name.to_string(),
                        });
                    }
                    available.insert(*target);
                    if !updated.insert(*target) {
                        return Err(TxnError::DuplicateUpdate {
                            var: *target,
                            program: name.to_string(),
                        });
                    }
                    writeset.insert(*target);
                    if let Some(p) = expr.max_param() {
                        *n_params = (*n_params).max(p + 1);
                    }
                }
                Statement::If { cond, then_branch, else_branch } => {
                    for v in cond.vars().iter() {
                        if !available.contains(v) {
                            return Err(TxnError::UnreadVariable {
                                var: v,
                                program: name.to_string(),
                            });
                        }
                    }
                    if let Some(p) = cond.max_param() {
                        *n_params = (*n_params).max(p + 1);
                    }
                    // Each branch is validated on a copy of the path state;
                    // "updated once" is a per-path property, so updating the
                    // same item in both branches is legal (cf. history H5 in
                    // Section 5.1 of the paper).
                    let mut then_avail = available.clone();
                    let mut then_upd = updated.clone();
                    Self::validate_block(
                        name,
                        allow_blind,
                        then_branch,
                        &mut then_avail,
                        &mut then_upd,
                        readset,
                        writeset,
                        n_params,
                    )?;
                    let mut else_avail = available.clone();
                    let mut else_upd = updated.clone();
                    Self::validate_block(
                        name,
                        allow_blind,
                        else_branch,
                        &mut else_avail,
                        &mut else_upd,
                        readset,
                        writeset,
                        n_params,
                    )?;
                    // After the conditional, only facts common to both
                    // branches are guaranteed.
                    *available = then_avail.intersection(&else_avail);
                    *updated = then_upd.union(&else_upd);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    #[test]
    fn build_simple_increment() {
        let p = ProgramBuilder::new("inc")
            .read(v(0))
            .update(v(0), Expr::var(v(0)) + Expr::konst(1))
            .build()
            .unwrap();
        assert_eq!(p.name(), "inc");
        assert_eq!(p.readset(), &[v(0)].into_iter().collect());
        assert_eq!(p.writeset(), &[v(0)].into_iter().collect());
        assert_eq!(p.n_params(), 0);
        assert_eq!(p.statements().len(), 2);
    }

    #[test]
    fn params_counted() {
        let p = ProgramBuilder::new("t")
            .read(v(0))
            .branch(
                Expr::param(2).gt(Expr::konst(0)),
                |b| b.update(v(0), Expr::var(v(0)) + Expr::param(0)),
                |b| b,
            )
            .build()
            .unwrap();
        assert_eq!(p.n_params(), 3);
    }

    #[test]
    fn blind_write_rejected() {
        let err = ProgramBuilder::new("blind").update(v(0), Expr::konst(1)).build().unwrap_err();
        assert_eq!(err, TxnError::UnreadVariable { var: v(0), program: "blind".into() });
    }

    #[test]
    fn unread_operand_rejected() {
        let err =
            ProgramBuilder::new("t").read(v(0)).update(v(0), Expr::var(v(1))).build().unwrap_err();
        assert_eq!(err, TxnError::UnreadVariable { var: v(1), program: "t".into() });
    }

    #[test]
    fn unread_guard_rejected() {
        let err = ProgramBuilder::new("t")
            .branch(Expr::var(v(5)).gt(Expr::konst(0)), |b| b, |b| b)
            .build()
            .unwrap_err();
        assert_eq!(err, TxnError::UnreadVariable { var: v(5), program: "t".into() });
    }

    #[test]
    fn duplicate_update_rejected() {
        let err = ProgramBuilder::new("t")
            .read(v(0))
            .update(v(0), Expr::var(v(0)) + Expr::konst(1))
            .update(v(0), Expr::var(v(0)) + Expr::konst(2))
            .build()
            .unwrap_err();
        assert_eq!(err, TxnError::DuplicateUpdate { var: v(0), program: "t".into() });
    }

    #[test]
    fn both_branches_may_update_same_item() {
        // Mirrors T1 of history H5: if y > 200 then x := x+100 else x := x*2.
        let p = ProgramBuilder::new("t1")
            .read(v(0))
            .read(v(1))
            .branch(
                Expr::var(v(1)).gt(Expr::konst(200)),
                |b| b.update(v(0), Expr::var(v(0)) + Expr::konst(100)),
                |b| b.update(v(0), Expr::var(v(0)) * Expr::konst(2)),
            )
            .build()
            .unwrap();
        assert_eq!(p.writeset(), &[v(0)].into_iter().collect());
    }

    #[test]
    fn update_after_branch_update_rejected() {
        // If either branch updated x, a later unconditional update of x is a
        // duplicate on that path.
        let err = ProgramBuilder::new("t")
            .read(v(0))
            .branch(
                Expr::var(v(0)).gt(Expr::konst(0)),
                |b| b.update(v(0), Expr::var(v(0)) + Expr::konst(1)),
                |b| b,
            )
            .update(v(0), Expr::var(v(0)) + Expr::konst(2))
            .build()
            .unwrap_err();
        assert!(matches!(err, TxnError::DuplicateUpdate { .. }));
    }

    #[test]
    fn read_inside_branch_not_available_after() {
        // v1 is only read in the then-branch, so it is not available after
        // the conditional.
        let err = ProgramBuilder::new("t")
            .read(v(0))
            .branch(Expr::var(v(0)).gt(Expr::konst(0)), |b| b.read(v(1)), |b| b)
            .update(v(0), Expr::var(v(1)))
            .build()
            .unwrap_err();
        assert!(matches!(err, TxnError::UnreadVariable { .. }));
    }

    #[test]
    fn branch_reads_counted_in_readset() {
        let p = ProgramBuilder::new("t")
            .read(v(0))
            .branch(
                Expr::var(v(0)).gt(Expr::konst(0)),
                |b| b.read(v(1)).update(v(1), Expr::var(v(1)) + Expr::konst(1)),
                |b| b.read(v(2)).update(v(2), Expr::var(v(2)) - Expr::konst(1)),
            )
            .build()
            .unwrap();
        assert_eq!(p.readset(), &[v(0), v(1), v(2)].into_iter().collect());
        assert_eq!(p.writeset(), &[v(1), v(2)].into_iter().collect());
        assert!(p.writeset().is_subset(p.readset()));
    }

    #[test]
    fn update_makes_target_available() {
        // After x := x+1, x can be used as an operand (it was read earlier,
        // and updated values remain available).
        let p = ProgramBuilder::new("t")
            .read(v(0))
            .read(v(1))
            .update(v(0), Expr::var(v(0)) + Expr::konst(1))
            .update(v(1), Expr::var(v(0)) * Expr::konst(2))
            .build()
            .unwrap();
        assert_eq!(p.writeset().len(), 2);
    }

    #[test]
    fn statement_count_includes_nested() {
        let p = ProgramBuilder::new("t")
            .read(v(0))
            .branch(
                Expr::var(v(0)).gt(Expr::konst(0)),
                |b| b.update(v(0), Expr::var(v(0)) + Expr::konst(1)),
                |b| b.read(v(0)),
            )
            .build()
            .unwrap();
        // read + if + update + nested (no-op) read = 4.
        assert_eq!(p.statement_count(), 4);
    }

    #[test]
    fn blind_write_allowed_when_opted_in() {
        let p = ProgramBuilder::new("blind")
            .allow_blind_writes()
            .update(v(0), Expr::konst(7))
            .build()
            .unwrap();
        assert!(p.has_blind_writes());
        assert!(p.writeset().contains(v(0)));
        assert!(!p.readset().contains(v(0)));
    }

    #[test]
    fn blind_write_operands_must_still_be_read() {
        let err = ProgramBuilder::new("blind")
            .allow_blind_writes()
            .update(v(0), Expr::var(v(1)))
            .build()
            .unwrap_err();
        assert_eq!(err, TxnError::UnreadVariable { var: v(1), program: "blind".into() });
    }

    #[test]
    fn normal_programs_report_no_blind_writes() {
        let p = ProgramBuilder::new("t")
            .read(v(0))
            .update(v(0), Expr::var(v(0)) + Expr::konst(1))
            .build()
            .unwrap();
        assert!(!p.has_blind_writes());
    }

    #[test]
    fn footprint_and_masks_match_static_sets() {
        let p = ProgramBuilder::new("t")
            .read(v(0))
            .branch(
                Expr::var(v(0)).gt(Expr::konst(0)),
                |b| b.read(v(1)).update(v(1), Expr::var(v(1)) + Expr::konst(1)),
                |b| b.read(v(2)).update(v(2), Expr::var(v(2)) - Expr::konst(1)),
            )
            .build()
            .unwrap();
        assert_eq!(p.footprint(), &p.readset().union(p.writeset()));
        assert!(p.read_mask().contains(v(2)));
        assert!(!p.write_mask().contains(v(0)));
        assert!(p.read_mask().intersects(p.write_mask()));
    }

    #[test]
    fn display_renders_structure() {
        let p = ProgramBuilder::new("b1")
            .read(v(0))
            .read(v(1))
            .branch(
                Expr::var(v(0)).gt(Expr::konst(0)),
                |b| b.update(v(1), Expr::var(v(1)) + Expr::konst(3)),
                |b| b,
            )
            .build()
            .unwrap();
        let text = p.to_string();
        assert!(text.contains("program b1"));
        assert!(text.contains("read d0"));
        assert!(text.contains("if d0 > 0 then"));
        assert!(text.contains("d1 := (d1 + 3)"));
    }
}
