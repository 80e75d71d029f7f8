//! `ItemValues` against an obviously-correct reference: a
//! `BTreeMap<VarId, Value>`.
//!
//! Random operation sequences over two maps drawn from 24 items push them
//! across the seven-entry inline capacity and back. After every operation
//! both maps must match their references in entries, order, length,
//! lookups, equality and `{:?}`/`{:#?}` text.

use std::collections::BTreeMap;

use histmerge_txn::{ItemValues, Value, VarId};
use proptest::prelude::*;

type Reference = BTreeMap<VarId, Value>;

const VARS: u32 = 24;

fn check(map: &ItemValues, reference: &Reference) {
    let entries: Vec<(VarId, Value)> =
        reference.iter().map(|(var, value)| (*var, *value)).collect();
    assert_eq!(map.iter().collect::<Vec<_>>(), entries);
    assert_eq!(map.into_iter().collect::<Vec<_>>(), entries);
    assert_eq!(map.vars().collect::<Vec<_>>(), reference.keys().copied().collect::<Vec<_>>());
    assert_eq!(map.len(), reference.len());
    assert_eq!(map.is_empty(), reference.is_empty());
    for i in 0..VARS + 2 {
        let var = VarId::new(i);
        assert_eq!(map.get(var), reference.get(&var).copied());
        assert_eq!(map.contains(var), reference.contains_key(&var));
    }
    assert_eq!(format!("{map:?}"), format!("{reference:?}"));
    assert_eq!(format!("{map:#?}"), format!("{reference:#?}"));
    // The same entries reached through a spilled map compare equal.
    let mut via_spill = map.clone();
    for i in 100..110 {
        assert_eq!(via_spill.insert(VarId::new(i), i64::from(i)), None);
    }
    assert_eq!(via_spill.len(), reference.len() + 10);
    assert_ne!(&via_spill, map);
    for i in 100..110 {
        assert_eq!(via_spill.remove(VarId::new(i)), Some(i64::from(i)));
    }
    assert_eq!(&via_spill, map);
    assert_eq!(format!("{via_spill:?}"), format!("{map:?}"));
    // Collecting the entries in any order builds the same map.
    let reversed: ItemValues = entries.iter().rev().copied().collect();
    assert_eq!(&reversed, map);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every operation agrees with the `BTreeMap` reference.
    #[test]
    fn item_values_match_btreemap(
        ops in prop::collection::vec(
            (0u32..8, 0u32..VARS, -50i64..50, prop::collection::vec((0u32..VARS, -50i64..50), 0..12)),
            1..60,
        ),
    ) {
        let (mut a, mut b) = (ItemValues::new(), ItemValues::new());
        let (mut ra, mut rb) = (Reference::new(), Reference::new());
        for (op, var, value, batch) in ops {
            let v = VarId::new(var);
            let batch: Vec<(VarId, Value)> =
                batch.into_iter().map(|(var, value)| (VarId::new(var), value)).collect();
            match op {
                0 => prop_assert_eq!(a.insert(v, value), ra.insert(v, value)),
                1 => prop_assert_eq!(a.remove(v), ra.remove(&v)),
                2 => prop_assert_eq!(b.insert(v, value), rb.insert(v, value)),
                3 => prop_assert_eq!(b.remove(v), rb.remove(&v)),
                4 => {
                    for &(var, value) in &batch {
                        prop_assert_eq!(a.insert(var, value), ra.insert(var, value));
                    }
                }
                5 => {
                    // A later entry for an item wins, as in a `BTreeMap`.
                    b = batch.iter().copied().collect();
                    rb = batch.iter().copied().collect();
                }
                6 => {
                    std::mem::swap(&mut a, &mut b);
                    std::mem::swap(&mut ra, &mut rb);
                }
                _ => {
                    b = a.clone();
                    rb = ra.clone();
                }
            }
            check(&a, &ra);
            check(&b, &rb);
            prop_assert_eq!(a == b, ra == rb);
        }
    }
}
