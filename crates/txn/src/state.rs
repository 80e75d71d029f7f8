//! Database states.

use std::collections::BTreeMap;
use std::fmt;

use crate::value::{ItemValues, Value, VarId, VarSet};

/// A database state: a total assignment of values to a finite set of data
/// items.
///
/// Augmented histories (Section 3 of the paper) interleave transactions with
/// explicit states `s0 T1 s1 T2 s2 ...`; `DbState` is the representation of
/// those states. Backed by a [`BTreeMap`] for deterministic iteration.
///
/// # Example
///
/// ```rust
/// use histmerge_txn::{DbState, VarId};
///
/// let x = VarId::new(0);
/// let mut s = DbState::new();
/// s.set(x, 41);
/// s.set(x, s.get(x) + 1);
/// assert_eq!(s.get(x), 42);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DbState {
    items: BTreeMap<VarId, Value>,
}

impl DbState {
    /// Creates an empty state (no data items).
    pub fn new() -> Self {
        DbState { items: BTreeMap::new() }
    }

    /// Creates a state where variables `d0..d{n-1}` all hold `value`.
    pub fn uniform(n_vars: u32, value: Value) -> Self {
        DbState { items: (0..n_vars).map(|i| (VarId::new(i), value)).collect() }
    }

    /// Returns the value of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not present; use [`DbState::try_get`] for a
    /// fallible lookup. States in this workspace are total over the workload
    /// variable space, so absence indicates a harness bug.
    pub fn get(&self, var: VarId) -> Value {
        match self.items.get(&var) {
            Some(v) => *v,
            None => panic!("variable {var} missing from database state"),
        }
    }

    /// Returns the value of `var`, or `None` if it is not present.
    pub fn try_get(&self, var: VarId) -> Option<Value> {
        self.items.get(&var).copied()
    }

    /// Sets the value of `var`, inserting it if absent. Returns the previous
    /// value if there was one.
    pub fn set(&mut self, var: VarId, value: Value) -> Option<Value> {
        self.items.insert(var, value)
    }

    /// Returns `true` if `var` is present.
    pub fn contains(&self, var: VarId) -> bool {
        self.items.contains_key(&var)
    }

    /// Number of data items in the state.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the state holds no data items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates `(variable, value)` pairs in ascending variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Value)> + '_ {
        self.items.iter().map(|(k, v)| (*k, *v))
    }

    /// The set of variables present in the state.
    pub fn vars(&self) -> VarSet {
        self.items.keys().copied().collect()
    }

    /// Returns the restriction of this state to `vars`.
    ///
    /// Used when forwarding updates: protocol step 5 forwards, for each item
    /// modified by the repaired history, only its value in the final state.
    pub fn project(&self, vars: &VarSet) -> DbState {
        DbState { items: vars.iter().filter_map(|v| self.try_get(v).map(|val| (v, val))).collect() }
    }

    /// Overwrites the items present in `patch` with the patch's values,
    /// leaving other items untouched.
    pub fn apply(&mut self, patch: &DbState) {
        for (var, val) in patch.iter() {
            self.items.insert(var, val);
        }
    }

    /// Applies an execution's writes
    /// ([`ExecDelta::writes`](crate::exec::ExecDelta)) in place:
    /// O(written items), no copy of the untouched ones and, once every
    /// written item is present, no allocation.
    pub fn apply_writes(&mut self, writes: &ItemValues) {
        for (var, val) in writes {
            self.items.insert(var, val);
        }
    }

    /// A copy of this state with `writes` applied — the one full-state
    /// copy a caller pays to materialize a delta.
    pub fn patched(&self, writes: &WriteDelta) -> DbState {
        let mut state = self.clone();
        for (var, val) in writes {
            state.items.insert(*var, *val);
        }
        state
    }

    /// Returns the set of variables on which `self` and `other` disagree
    /// (including variables present in only one of the two states).
    pub fn diff_vars(&self, other: &DbState) -> VarSet {
        let changed = self.iter().filter(|&(var, val)| other.try_get(var) != Some(val));
        let added = other.iter().filter(|&(var, _)| !self.contains(var));
        changed.chain(added).map(|(var, _)| var).collect()
    }

    /// Returns `true` if both states assign the same value to every variable
    /// in `vars`.
    pub fn agrees_on(&self, other: &DbState, vars: &VarSet) -> bool {
        vars.iter().all(|v| self.try_get(v) == other.try_get(v))
    }
}

impl FromIterator<(VarId, Value)> for DbState {
    fn from_iter<I: IntoIterator<Item = (VarId, Value)>>(iter: I) -> Self {
        DbState { items: iter.into_iter().collect() }
    }
}

/// A write delta: the items some run of transactions wrote, each with its
/// final value. Applying it to the state the run started from gives the
/// state it ended in. One execution's writes are an [`ItemValues`].
pub type WriteDelta = BTreeMap<VarId, Value>;

/// Read access to a database state, without committing to a representation.
///
/// The interpreter only ever *reads* the state it executes against; the
/// writes come back as a delta. Abstracting the read side lets history
/// execution run against a copy-on-write [`OverlayState`] — one base state
/// plus the accumulated writes — instead of cloning a full [`DbState`]
/// per transaction.
pub trait StateRead {
    /// Returns the value of `var`, or `None` if it is not present.
    fn read(&self, var: VarId) -> Option<Value>;

    /// The values of the items of `vars` present in the state: an image
    /// over a footprint, held inline for up to seven items.
    fn image(&self, vars: &VarSet) -> ItemValues {
        vars.iter().filter_map(|var| self.read(var).map(|value| (var, value))).collect()
    }
}

impl StateRead for DbState {
    fn read(&self, var: VarId) -> Option<Value> {
        self.try_get(var)
    }
}

/// An image read as a state. A transaction reads only items of its static
/// footprint, so it executes against its before image exactly as against
/// the state the image was taken from, with an inline lookup per read.
impl StateRead for ItemValues {
    fn read(&self, var: VarId) -> Option<Value> {
        self.get(var)
    }
}

/// A copy-on-write view: a borrowed base state plus an overlay of writes.
///
/// Reads consult the overlay first and fall back to the base; writes land
/// in the overlay only. Executing an `n`-transaction history through one
/// overlay costs O(items touched), where the naive
/// clone-per-step execution costs O(n · |database|).
///
/// # Example
///
/// ```rust
/// use histmerge_txn::{DbState, OverlayState, StateRead, VarId};
///
/// let x = VarId::new(0);
/// let base: DbState = [(x, 1)].into_iter().collect();
/// let mut view = OverlayState::new(&base);
/// assert_eq!(view.read(x), Some(1));
/// view.set(x, 42);
/// assert_eq!(view.read(x), Some(42));
/// assert_eq!(base.get(x), 1); // base untouched
/// assert_eq!(view.materialize().get(x), 42);
/// ```
#[derive(Debug, Clone)]
pub struct OverlayState<'a> {
    base: &'a DbState,
    overlay: BTreeMap<VarId, Value>,
}

impl<'a> OverlayState<'a> {
    /// Creates a view over `base` with an empty overlay.
    pub fn new(base: &'a DbState) -> Self {
        OverlayState { base, overlay: BTreeMap::new() }
    }

    /// Creates a view over `base` whose overlay starts as `writes` — a
    /// delta already known to hold over `base`.
    pub fn with_writes(base: &'a DbState, writes: WriteDelta) -> Self {
        OverlayState { base, overlay: writes }
    }

    /// Writes `value` to `var` in the overlay.
    pub fn set(&mut self, var: VarId, value: Value) {
        self.overlay.insert(var, value);
    }

    /// Applies an execution's writes
    /// ([`ExecDelta::writes`](crate::exec::ExecDelta)) to the overlay.
    pub fn apply_writes(&mut self, writes: &ItemValues) {
        for (var, value) in writes {
            self.overlay.insert(var, value);
        }
    }

    /// Number of overlaid (written) items.
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// The restriction of the current view to `vars` (the overlay-aware
    /// analogue of [`DbState::project`]).
    pub fn project(&self, vars: &VarSet) -> DbState {
        vars.iter().filter_map(|v| self.read(v).map(|val| (v, val))).collect()
    }

    /// Materializes the view into an owned state: a clone of the base with
    /// the overlay applied. One full-state copy for the entire history,
    /// instead of one per step.
    pub fn materialize(&self) -> DbState {
        self.base.patched(&self.overlay)
    }

    /// Consumes the view, returning its overlay: the write delta over the
    /// base.
    pub fn into_writes(self) -> WriteDelta {
        self.overlay
    }
}

impl StateRead for OverlayState<'_> {
    fn read(&self, var: VarId) -> Option<Value> {
        self.overlay.get(&var).copied().or_else(|| self.base.try_get(var))
    }
}

impl fmt::Display for DbState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (var, val)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{var}={val}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    #[test]
    fn set_get_roundtrip() {
        let mut s = DbState::new();
        assert!(s.is_empty());
        assert_eq!(s.set(v(0), 10), None);
        assert_eq!(s.set(v(0), 20), Some(10));
        assert_eq!(s.get(v(0)), 20);
        assert_eq!(s.try_get(v(1)), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "missing from database state")]
    fn get_missing_panics() {
        DbState::new().get(v(9));
    }

    #[test]
    fn uniform_state() {
        let s = DbState::uniform(3, 7);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(v(2)), 7);
        assert_eq!(s.vars().len(), 3);
    }

    #[test]
    fn project_and_apply() {
        let mut s = DbState::uniform(4, 0);
        s.set(v(1), 5);
        s.set(v(2), 6);
        let keep: VarSet = [v(1), v(3)].into_iter().collect();
        let p = s.project(&keep);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(v(1)), 5);
        assert_eq!(p.get(v(3)), 0);

        let mut t = DbState::uniform(4, -1);
        t.apply(&p);
        assert_eq!(t.get(v(1)), 5);
        assert_eq!(t.get(v(0)), -1);
    }

    #[test]
    fn diff_and_agrees() {
        let a = DbState::uniform(3, 1);
        let mut b = DbState::uniform(3, 1);
        assert!(a.diff_vars(&b).is_empty());
        b.set(v(2), 9);
        assert_eq!(a.diff_vars(&b), [v(2)].into_iter().collect());
        let on: VarSet = [v(0), v(1)].into_iter().collect();
        assert!(a.agrees_on(&b, &on));
        let on2: VarSet = [v(2)].into_iter().collect();
        assert!(!a.agrees_on(&b, &on2));
        // asymmetric presence counts as a difference
        let mut c = DbState::uniform(2, 1);
        c.set(v(5), 4);
        assert!(a.diff_vars(&c).contains(v(5)));
        assert!(a.diff_vars(&c).contains(v(2)));
    }

    #[test]
    fn display_is_sorted() {
        let mut s = DbState::new();
        s.set(v(1), 2);
        s.set(v(0), 1);
        assert_eq!(s.to_string(), "{d0=1; d1=2}");
    }

    #[test]
    fn overlay_reads_through_and_materializes() {
        let base = DbState::uniform(3, 10);
        let mut view = OverlayState::new(&base);
        assert_eq!(view.read(v(1)), Some(10));
        assert_eq!(view.read(v(9)), None);
        view.set(v(1), 99);
        view.apply_writes(&[(v(2), 50)].into_iter().collect());
        assert_eq!(view.read(v(1)), Some(99));
        assert_eq!(view.read(v(0)), Some(10));
        assert_eq!(view.overlay_len(), 2);
        let vars: VarSet = [v(0), v(1), v(7)].into_iter().collect();
        let proj = view.project(&vars);
        assert_eq!(proj.try_get(v(1)), Some(99));
        assert_eq!(proj.try_get(v(0)), Some(10));
        assert!(!proj.contains(v(7)));
        let full = view.materialize();
        assert_eq!(full.get(v(1)), 99);
        assert_eq!(full.get(v(2)), 50);
        assert_eq!(base.get(v(1)), 10);
        // The overlay is the delta: patching the base with it gives the
        // same state, and a view seeded with it reads the same values.
        let writes = view.into_writes();
        assert_eq!(base.patched(&writes), full);
        let again = OverlayState::with_writes(&base, writes);
        assert_eq!(again.read(v(1)), Some(99));
        assert_eq!(again.materialize(), full);
    }
}
