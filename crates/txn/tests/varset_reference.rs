//! `VarSet` against an obviously-correct reference: a `BTreeSet<VarId>`.
//!
//! Random operation sequences over two sets drawn from 24 variables push
//! them across the seven-member inline capacity and back. After every
//! operation both sets must match their references in members, order,
//! length, equality and `{:?}`/`{:#?}`/`Display` text, and the set
//! queries and `VarMask` tests must give the reference's answers.

use std::collections::BTreeSet;

use histmerge_txn::{VarId, VarMask, VarSet};
use proptest::prelude::*;

type Reference = BTreeSet<VarId>;

/// The layout `VarSet` had when it wrapped a `BTreeSet`, kept to pin the
/// `Debug` text byte for byte.
mod btree_layout {
    #[derive(Debug)]
    pub struct VarSet(#[allow(dead_code)] pub std::collections::BTreeSet<histmerge_txn::VarId>);
}

const VARS: u32 = 24;

fn display(reference: &Reference) -> String {
    let members: Vec<String> = reference.iter().map(ToString::to_string).collect();
    format!("{{{}}}", members.join(", "))
}

fn check(set: &VarSet, reference: &Reference) {
    assert_eq!(set.iter().collect::<Vec<_>>(), reference.iter().copied().collect::<Vec<_>>());
    assert_eq!(set.into_iter().count(), reference.len());
    assert_eq!(set.len(), reference.len());
    assert_eq!(set.is_empty(), reference.is_empty());
    for i in 0..VARS + 2 {
        assert_eq!(set.contains(VarId::new(i)), reference.contains(&VarId::new(i)));
    }
    let old = btree_layout::VarSet(reference.clone());
    assert_eq!(format!("{set:?}"), format!("{old:?}"));
    assert_eq!(format!("{set:#?}"), format!("{old:#?}"));
    assert_eq!(set.to_string(), display(reference));
    // The same members reached through a spilled set compare equal.
    let mut via_spill = set.clone();
    via_spill.extend((100..110).map(VarId::new));
    assert_eq!(via_spill.len(), reference.len() + 10);
    for i in 100..110 {
        assert!(via_spill.remove(VarId::new(i)));
    }
    assert_eq!(&via_spill, set);
    assert_eq!(format!("{via_spill:?}"), format!("{set:?}"));
}

fn check_pair(a: &VarSet, ra: &Reference, b: &VarSet, rb: &Reference) {
    check(a, ra);
    check(b, rb);
    assert_eq!(a == b, ra == rb);
    assert_eq!(a.is_subset(b), ra.is_subset(rb));
    assert_eq!(b.is_subset(a), rb.is_subset(ra));
    assert_eq!(a.intersects(b), !ra.is_disjoint(rb));
    let (ma, mb) = (VarMask::from_set(a), VarMask::from_set(b));
    assert_eq!(ma.intersects(&mb), !ra.is_disjoint(rb));
    assert_eq!(mb.intersects(&ma), !ra.is_disjoint(rb));
    assert_eq!(ma.len(), ra.len());
    assert_eq!(ma.iter().collect::<Vec<_>>(), ra.iter().copied().collect::<Vec<_>>());
    for i in 0..VARS + 2 {
        assert_eq!(ma.contains(VarId::new(i)), ra.contains(&VarId::new(i)));
    }
    // Variables 64 apart share a summary bit: the exact test must still
    // tell them apart.
    let far: VarSet = a.iter().map(|v| VarId::new(v.index() + 64)).collect();
    assert!(!ma.intersects(&VarMask::from_set(&far)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every operation agrees with the `BTreeSet` reference.
    #[test]
    fn varset_matches_btreeset(
        ops in prop::collection::vec(
            (0u32..12, 0u32..VARS, prop::collection::vec(0u32..VARS, 0..12)),
            1..60,
        ),
    ) {
        let (mut a, mut b) = (VarSet::new(), VarSet::new());
        let (mut ra, mut rb) = (Reference::new(), Reference::new());
        for (op, var, batch) in ops {
            let v = VarId::new(var);
            let batch: Vec<VarId> = batch.into_iter().map(VarId::new).collect();
            match op {
                0 => prop_assert_eq!(a.insert(v), ra.insert(v)),
                1 => prop_assert_eq!(a.remove(v), ra.remove(&v)),
                2 => prop_assert_eq!(b.insert(v), rb.insert(v)),
                3 => prop_assert_eq!(b.remove(v), rb.remove(&v)),
                4 => {
                    a.extend(batch.iter().copied());
                    ra.extend(batch.iter().copied());
                }
                5 => {
                    a.extend_from(&b);
                    ra.extend(rb.iter().copied());
                }
                6 => {
                    b = batch.iter().copied().collect();
                    rb = batch.iter().copied().collect();
                }
                7 => {
                    a = a.union(&b);
                    ra = ra.union(&rb).copied().collect();
                }
                8 => {
                    a = a.intersection(&b);
                    ra = ra.intersection(&rb).copied().collect();
                }
                9 => {
                    a = a.difference(&b);
                    ra = ra.difference(&rb).copied().collect();
                }
                10 => {
                    std::mem::swap(&mut a, &mut b);
                    std::mem::swap(&mut ra, &mut rb);
                }
                _ => {
                    b = a.clone();
                    rb = ra.clone();
                }
            }
            check_pair(&a, &ra, &b, &rb);
        }
    }
}
