//! Data item identifiers, values, and variable sets.

use std::fmt;

/// The value type stored in every data item.
///
/// The paper's examples are all integer arithmetic; using a signed 64-bit
/// integer keeps final-state equivalence checks exact (no floating-point
/// rounding) while covering banking/inventory/reservation workloads.
pub type Value = i64;

/// Identifier of a replicated data item (the paper's `d1, d2, ...`, or the
/// named variables `x, y, z` of Section 3).
///
/// `VarId` is a dense index so that per-variable bookkeeping can use vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(u32);

impl VarId {
    /// Creates a variable identifier from a dense index.
    pub const fn new(index: u32) -> Self {
        VarId(index)
    }

    /// Returns the dense index of this variable.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl From<u32> for VarId {
    fn from(index: u32) -> Self {
        VarId(index)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Members a [`VarSet`] holds without a heap allocation; the generated
/// workloads' footprints (one to four items) fit.
const INLINE: usize = 7;

/// An ordered set of data items, used for read sets and write sets.
///
/// A sorted array of members: up to seven are stored inline, so a
/// transaction footprint costs no heap block; larger sets (aggregates such
/// as a suffix's write union) spill to a sorted `Vec`. Iteration is in
/// ascending [`VarId`] order, which keeps every experiment in the workspace
/// reproducible from a seed, and equality compares members, not storage.
///
/// # Example
///
/// ```rust
/// use histmerge_txn::{VarId, VarSet};
///
/// let a: VarSet = [VarId::new(1), VarId::new(2)].into_iter().collect();
/// let b: VarSet = [VarId::new(2), VarId::new(3)].into_iter().collect();
/// assert!(a.intersects(&b));
/// assert_eq!(a.intersection(&b).len(), 1);
/// assert!(a.difference(&b).contains(VarId::new(1)));
/// ```
#[derive(Clone)]
pub struct VarSet(Members);

/// A [`VarSet`]'s storage: inline exactly when it has at most [`INLINE`]
/// members, members ascending and distinct in both forms.
#[derive(Clone)]
enum Members {
    /// The members are `items[..len]`.
    Inline { len: u8, items: [VarId; INLINE] },
    /// More than [`INLINE`] members.
    Spilled(Vec<VarId>),
}

impl VarSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        VarSet(Members::Inline { len: 0, items: [VarId(0); INLINE] })
    }

    /// The set of an ascending, duplicate-free slice.
    fn from_sorted(members: &[VarId]) -> Self {
        if members.len() > INLINE {
            return VarSet(Members::Spilled(members.to_vec()));
        }
        let mut items = [VarId(0); INLINE];
        items[..members.len()].copy_from_slice(members);
        VarSet(Members::Inline { len: members.len() as u8, items })
    }

    /// The members, ascending.
    fn as_slice(&self) -> &[VarId] {
        match &self.0 {
            Members::Inline { len, items } => &items[..*len as usize],
            Members::Spilled(members) => members,
        }
    }

    /// Appends `var`, which must exceed every member.
    fn push_last(&mut self, var: VarId) {
        debug_assert!(self.as_slice().last().is_none_or(|last| *last < var));
        match &mut self.0 {
            Members::Inline { len, items } if (*len as usize) < INLINE => {
                items[*len as usize] = var;
                *len += 1;
            }
            Members::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(items);
                spilled.push(var);
                self.0 = Members::Spilled(spilled);
            }
            Members::Spilled(members) => members.push(var),
        }
    }

    /// Returns `true` if the set contains no variables.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Number of variables in the set.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Inserts a variable; returns `true` if it was not already present.
    pub fn insert(&mut self, var: VarId) -> bool {
        let Err(pos) = self.as_slice().binary_search(&var) else {
            return false;
        };
        match &mut self.0 {
            Members::Inline { len, items } if (*len as usize) < INLINE => {
                items.copy_within(pos..*len as usize, pos + 1);
                items[pos] = var;
                *len += 1;
            }
            Members::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(&items[..pos]);
                spilled.push(var);
                spilled.extend_from_slice(&items[pos..]);
                self.0 = Members::Spilled(spilled);
            }
            Members::Spilled(members) => members.insert(pos, var),
        }
        true
    }

    /// Removes a variable; returns `true` if it was present.
    pub fn remove(&mut self, var: VarId) -> bool {
        let Ok(pos) = self.as_slice().binary_search(&var) else {
            return false;
        };
        match &mut self.0 {
            Members::Inline { len, items } => {
                items.copy_within(pos + 1..*len as usize, pos);
                *len -= 1;
            }
            Members::Spilled(members) => {
                members.remove(pos);
                if members.len() <= INLINE {
                    *self = VarSet::from_sorted(members);
                }
            }
        }
        true
    }

    /// Returns `true` if `var` is a member.
    pub fn contains(&self, var: VarId) -> bool {
        self.as_slice().binary_search(&var).is_ok()
    }

    /// Returns `true` if the two sets share at least one variable.
    ///
    /// This is the primitive behind the paper's *conflict* test ("two
    /// operations conflict if one is a write") and the *can follow* relation
    /// of Definition 3.
    pub fn intersects(&self, other: &VarSet) -> bool {
        // Iterate the smaller set for an O(min * log max) test.
        let (small, large) = if self.len() <= other.len() { (self, other) } else { (other, self) };
        small.iter().any(|v| large.contains(v))
    }

    /// Set intersection.
    pub fn intersection(&self, other: &VarSet) -> VarSet {
        merge(self.as_slice(), other.as_slice(), Keep { left: false, both: true, right: false })
    }

    /// Set union.
    pub fn union(&self, other: &VarSet) -> VarSet {
        merge(self.as_slice(), other.as_slice(), Keep { left: true, both: true, right: true })
    }

    /// Set difference `self − other`.
    pub fn difference(&self, other: &VarSet) -> VarSet {
        merge(self.as_slice(), other.as_slice(), Keep { left: true, both: false, right: false })
    }

    /// Returns `true` if every member of `self` is a member of `other`.
    pub fn is_subset(&self, other: &VarSet) -> bool {
        self.len() <= other.len() && self.iter().all(|v| other.contains(v))
    }

    /// Iterates the variables in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = VarId> + '_ {
        self.as_slice().iter().copied()
    }

    /// Adds every member of `other` to `self`, in place: one pass that
    /// merges from the back, so folding many small sets into one
    /// aggregate costs a binary search per member already present and a
    /// move of the larger members per new one.
    pub fn extend_from(&mut self, other: &VarSet) {
        let incoming = other.as_slice();
        let old = self.len();
        let new = incoming.iter().filter(|v| self.as_slice().binary_search(v).is_err()).count();
        if new == 0 {
            return;
        }
        let total = old + new;
        match &mut self.0 {
            Members::Inline { len, items } if total <= INLINE => {
                merge_from_back(&mut items[..total], old, incoming);
                *len = total as u8;
            }
            Members::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(total);
                spilled.extend_from_slice(&items[..old]);
                spilled.resize(total, VarId(0));
                merge_from_back(&mut spilled, old, incoming);
                self.0 = Members::Spilled(spilled);
            }
            Members::Spilled(members) => {
                members.resize(total, VarId(0));
                merge_from_back(members, old, incoming);
            }
        }
    }
}

/// Which members of a two-way merge to keep: those only on the left, those
/// on both sides, those only on the right.
struct Keep {
    left: bool,
    both: bool,
    right: bool,
}

/// One linear pass over two ascending member lists.
fn merge(a: &[VarId], b: &[VarId], keep: Keep) -> VarSet {
    let mut out = VarSet::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                if keep.left {
                    out.push_last(a[i]);
                }
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                if keep.right {
                    out.push_last(b[j]);
                }
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if keep.both {
                    out.push_last(a[i]);
                }
                i += 1;
                j += 1;
            }
        }
    }
    if keep.left {
        a[i..].iter().for_each(|&var| out.push_last(var));
    }
    if keep.right {
        b[j..].iter().for_each(|&var| out.push_last(var));
    }
    out
}

/// Merges the ascending `incoming` into `buf`, whose first `old` slots hold
/// an ascending set and whose length is the size of the union. Filling
/// from the back never overwrites a member before it is read.
fn merge_from_back(buf: &mut [VarId], old: usize, incoming: &[VarId]) {
    let (mut i, mut j, mut k) = (old, incoming.len(), buf.len());
    while j > 0 {
        k -= 1;
        if i > 0 && buf[i - 1] >= incoming[j - 1] {
            if buf[i - 1] == incoming[j - 1] {
                j -= 1;
            }
            buf[k] = buf[i - 1];
            i -= 1;
        } else {
            buf[k] = incoming[j - 1];
            j -= 1;
        }
    }
    debug_assert_eq!(k, i, "the merged members fill exactly the new slots");
}

impl Default for VarSet {
    fn default() -> Self {
        VarSet::new()
    }
}

impl PartialEq for VarSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for VarSet {}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct AsSet<'a>(&'a [VarId]);
        impl fmt::Debug for AsSet<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0).finish()
            }
        }
        f.debug_tuple("VarSet").field(&AsSet(self.as_slice())).finish()
    }
}

impl FromIterator<VarId> for VarSet {
    /// Sorted insertion while the members fit inline; past that, the rest
    /// is appended and the whole sorted and deduplicated once
    /// (O(n log n)).
    fn from_iter<I: IntoIterator<Item = VarId>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut set = VarSet::new();
        while let Members::Inline { .. } = set.0 {
            match iter.next() {
                Some(var) => {
                    set.insert(var);
                }
                None => return set,
            }
        }
        if let Members::Spilled(members) = &mut set.0 {
            members.extend(iter);
            members.sort_unstable();
            members.dedup();
        }
        set
    }
}

/// A [`VarSet`] with a 64-bit overlap filter, for sets tested against each
/// other over and over.
///
/// The merge hot path asks one question about read/write sets over and
/// over: *do these two sets share a variable?* A `VarMask` answers it with
/// a single 64-bit summary AND (each variable hashes to bit `index % 64`)
/// that rejects most disjoint pairs in one instruction, falling back to a
/// linear merge over the sorted members only when the summaries collide.
/// The answer is always exact — the summary is a filter, not the verdict.
///
/// Each [`Program`](crate::Program) keeps its static read and write sets
/// as masks built once at build time; the members are the set itself (no
/// second copy), so conflict tests on the merge path allocate nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarMask {
    /// Bit `i % 64` is set for every member with index `i`.
    summary: u64,
    /// The members.
    set: VarSet,
}

impl VarMask {
    /// Builds the mask of a variable set.
    pub fn from_set(set: &VarSet) -> Self {
        VarMask::of(set.clone())
    }

    /// Builds the mask of `set`, taking ownership of it.
    pub(crate) fn of(set: VarSet) -> Self {
        let summary = set.iter().fold(0u64, |acc, v| acc | 1u64 << (v.index() % 64));
        VarMask { summary, set }
    }

    /// The members as a set.
    pub(crate) fn set(&self) -> &VarSet {
        &self.set
    }

    /// Returns `true` if the mask has no members.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The 64-bit summary (bit `i % 64` set per member index `i`) — the
    /// compact footprint fingerprint carried on telemetry events. A
    /// filter, not the membership verdict: use [`VarMask::contains`] /
    /// [`VarMask::intersects`] for exact answers.
    pub fn summary(&self) -> u64 {
        self.summary
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Exact membership test.
    pub fn contains(&self, var: VarId) -> bool {
        self.summary & (1u64 << (var.index() % 64)) != 0 && self.set.contains(var)
    }

    /// Exact overlap test, equivalent to [`VarSet::intersects`] on the
    /// originating sets.
    pub fn intersects(&self, other: &VarMask) -> bool {
        if self.summary & other.summary == 0 {
            return false;
        }
        // Summaries collide: confirm with a linear merge of the sorted
        // member lists.
        let (a, b) = (self.set.as_slice(), other.set.as_slice());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = VarId> + '_ {
        self.set.iter()
    }
}

impl Extend<VarId> for VarSet {
    fn extend<I: IntoIterator<Item = VarId>>(&mut self, iter: I) {
        let incoming: VarSet = iter.into_iter().collect();
        self.extend_from(&incoming);
    }
}

impl<'a> IntoIterator for &'a VarSet {
    type Item = VarId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, VarId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

impl fmt::Display for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
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
    fn varset_basic_ops() {
        let mut s = VarSet::new();
        assert!(s.is_empty());
        assert!(s.insert(v(3)));
        assert!(!s.insert(v(3)));
        assert!(s.insert(v(1)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(v(1)));
        assert!(!s.contains(v(2)));
        assert!(s.remove(v(1)));
        assert!(!s.remove(v(1)));
    }

    #[test]
    fn varset_algebra() {
        let a: VarSet = [v(1), v(2), v(3)].into_iter().collect();
        let b: VarSet = [v(3), v(4)].into_iter().collect();
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), [v(3)].into_iter().collect());
        assert_eq!(a.union(&b), [v(1), v(2), v(3), v(4)].into_iter().collect());
        assert_eq!(a.difference(&b), [v(1), v(2)].into_iter().collect());
        assert!(a.intersection(&b).is_subset(&a));
        let empty = VarSet::new();
        assert!(!a.intersects(&empty));
        assert!(empty.is_subset(&a));
    }

    #[test]
    fn varset_iteration_is_sorted() {
        let s: VarSet = [v(9), v(1), v(5)].into_iter().collect();
        let order: Vec<u32> = s.iter().map(VarId::index).collect();
        assert_eq!(order, vec![1, 5, 9]);
    }

    #[test]
    fn varset_display() {
        let s: VarSet = [v(2), v(1)].into_iter().collect();
        assert_eq!(s.to_string(), "{d1, d2}");
        assert_eq!(VarSet::new().to_string(), "{}");
    }

    #[test]
    fn varid_display_and_ord() {
        assert_eq!(v(7).to_string(), "d7");
        assert!(v(1) < v(2));
        assert_eq!(VarId::from(4u32), v(4));
        assert_eq!(v(4).index(), 4);
    }

    #[test]
    fn varmask_matches_varset_semantics() {
        let a: VarSet = [v(1), v(2), v(3)].into_iter().collect();
        let b: VarSet = [v(3), v(4)].into_iter().collect();
        let c: VarSet = [v(7), v(9)].into_iter().collect();
        let (ma, mb, mc) = (VarMask::from_set(&a), VarMask::from_set(&b), VarMask::from_set(&c));
        assert_eq!(ma.intersects(&mb), a.intersects(&b));
        assert_eq!(ma.intersects(&mc), a.intersects(&c));
        assert!(ma.contains(v(2)));
        assert!(!ma.contains(v(4)));
        assert_eq!(ma.len(), 3);
        assert!(!ma.is_empty());
        assert!(VarMask::from_set(&VarSet::new()).is_empty());
        assert_eq!(ma.iter().collect::<Vec<_>>(), vec![v(1), v(2), v(3)]);
    }

    #[test]
    fn varmask_summary_collisions_stay_exact() {
        // 1 and 65 share summary bit 1 but are different variables: the
        // sorted-scan fallback must still answer "disjoint".
        let a: VarSet = [v(1)].into_iter().collect();
        let b: VarSet = [v(65)].into_iter().collect();
        let (ma, mb) = (VarMask::from_set(&a), VarMask::from_set(&b));
        assert!(!ma.intersects(&mb));
        assert!(!ma.contains(v(65)));
        // And a genuine overlap past the collision is found.
        let c: VarSet = [v(65), v(1)].into_iter().collect();
        assert!(ma.intersects(&VarMask::from_set(&c)));
    }
}
