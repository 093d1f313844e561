//! The immediate-subset index must answer exactly what `find` answers:
//! entry `(k, j)` of [`ItemsetArena::subsets`] is `find(items(k) ∖
//! {items(k)[j]})`, with `∅` for single items — on arenas in any record
//! order, subset-closed or not, with duplicate itemsets, and after
//! mutations.

use fpm::{ItemsetArena, Subset};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// What the index must return for entry `(id, j)`, by hash lookup.
fn expected(arena: &ItemsetArena<u32>, id: usize, j: usize) -> Subset {
    let items = arena.items(id);
    if items.len() == 1 {
        return Subset::Empty;
    }
    let mut sub = items.to_vec();
    sub.remove(j);
    arena.find(&sub).map_or(Subset::Absent, Subset::Id)
}

fn check(arena: &ItemsetArena<u32>) -> Result<(), TestCaseError> {
    for id in 0..arena.len() {
        let got: Vec<Subset> = arena.subsets(id).collect();
        prop_assert_eq!(got.len(), arena.items(id).len());
        for (j, entry) in got.into_iter().enumerate() {
            prop_assert_eq!(
                entry,
                expected(arena, id, j),
                "itemset {:?} without position {}",
                arena.items(id),
                j
            );
        }
    }
    Ok(())
}

/// Canonical itemset from a bitmask over items `0..n_items`.
fn itemset(mask: u32, n_items: u32) -> Vec<u32> {
    (0..n_items).filter(|i| mask & (1 << i) != 0).collect()
}

/// Pushes `sets` in the order given by sorting on `keys`.
fn arena_in_order(sets: &[Vec<u32>], keys: &[u64]) -> ItemsetArena<u32> {
    let mut order: Vec<usize> = (0..sets.len()).collect();
    order.sort_by_key(|&i| keys[i % keys.len().max(1)].wrapping_mul(i as u64 + 1));
    let mut arena = ItemsetArena::new();
    for (n, &i) in order.iter().enumerate() {
        arena.push(&sets[i], 1, n as u32);
    }
    arena
}

/// Every non-empty subset of every generator: a subset-closed family.
fn closure(generators: &[u32], n_items: u32) -> Vec<Vec<u32>> {
    let mut masks: Vec<u32> = Vec::new();
    for &g in generators {
        let mut sub = g;
        while sub != 0 {
            masks.push(sub);
            sub = (sub - 1) & g;
        }
    }
    masks.sort_unstable();
    masks.dedup();
    masks.into_iter().map(|m| itemset(m, n_items)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn closed_arenas_in_any_order(
        n_items in 1u32..10,
        generators in proptest::collection::vec(0u32..1024, 1..6),
        keys in proptest::collection::vec(any::<u64>(), 1..16),
    ) {
        let mask = (1u32 << n_items) - 1;
        let generators: Vec<u32> = generators.iter().map(|g| g & mask).collect();
        let sets = closure(&generators, n_items);
        let arena = arena_in_order(&sets, &keys);
        check(&arena)?;
        // Closed: no entry is absent.
        for id in 0..arena.len() {
            prop_assert!(arena.subsets(id).all(|s| s != Subset::Absent));
        }
    }

    #[test]
    fn non_closed_arenas_with_duplicates(
        n_items in 1u32..10,
        generators in proptest::collection::vec(0u32..1024, 1..6),
        drop in proptest::collection::vec(any::<bool>(), 1..64),
        extra in proptest::collection::vec(0u32..1024, 0..12),
        keys in proptest::collection::vec(any::<u64>(), 1..16),
    ) {
        let mask = (1u32 << n_items) - 1;
        let generators: Vec<u32> = generators.iter().map(|g| g & mask).collect();
        // A filtered closure (holes anywhere, prefixes included), plus
        // arbitrary extra itemsets that may repeat stored ones, plus the
        // empty itemset.
        let mut sets: Vec<Vec<u32>> = closure(&generators, n_items)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !drop[i % drop.len()])
            .map(|(_, s)| s)
            .collect();
        sets.extend(extra.iter().map(|&m| itemset(m & mask, n_items)));
        sets.push(Vec::new());
        let arena = arena_in_order(&sets, &keys);
        check(&arena)?;
    }

    #[test]
    fn mutations_invalidate_the_index(
        n_items in 2u32..8,
        generators in proptest::collection::vec(0u32..256, 1..4),
        added in proptest::collection::vec(0u32..256, 1..6),
    ) {
        let mask = (1u32 << n_items) - 1;
        let generators: Vec<u32> = generators.iter().map(|g| g & mask).collect();
        let mut arena = arena_in_order(&closure(&generators, n_items), &[7]);
        check(&arena)?;
        for &m in &added {
            let set = itemset(m & mask, n_items);
            arena.push(&set, 1, 0);
            check(&arena)?;
        }
        arena.sort_canonical();
        check(&arena)?;
        let mut other = ItemsetArena::new();
        other.push(&[0, 1], 1, 0);
        other.push(&[1], 1, 0);
        arena.absorb(other);
        check(&arena)?;
    }
}
