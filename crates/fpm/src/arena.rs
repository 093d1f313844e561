//! Arena-backed itemset store: the default collecting sink.
//!
//! [`ItemsetArena`] keeps every stored itemset's items in one flat
//! `Vec<ItemId>`, with a per-itemset record of `(offset, len, support,
//! payload)`. Compared to `Vec<FrequentItemset<P>>` this removes the
//! per-itemset heap allocation (the seed's dominant allocation hot
//! path), keeps items contiguous for cache-friendly iteration, and
//! supports `O(1)` id-based access plus an itemset → id hash index that
//! is built once and shared by every lookup (subset queries in the
//! explorer).
//!
//! A second lazily built index, the *immediate-subset index*
//! ([`ItemsetArena::subsets`]), maps every `(itemset, position)` pair to
//! the id of the itemset with that item removed, so analyses that walk
//! the lattice's `I → I ∖ {α}` edges read one `u32` per edge instead of
//! allocating and hashing the sub-itemset.

use std::sync::OnceLock;

use crate::itemset::FrequentItemset;
use crate::payload::Payload;
use crate::sink::ItemsetSink;
use crate::transaction::ItemId;

/// One stored itemset: a view into the arena's flat item buffer.
#[derive(Debug, Clone)]
struct Record<P> {
    offset: usize,
    len: u32,
    support: u64,
    payload: P,
}

/// A borrowed view of one stored itemset.
#[derive(Debug, Clone, Copy)]
pub struct ArenaEntry<'a, P> {
    /// Canonical (sorted ascending) item ids.
    pub items: &'a [ItemId],
    pub support: u64,
    pub payload: &'a P,
}

/// Flat store of itemsets with supports and payloads.
///
/// Ids are assigned in insertion order (`0..len`). [`Self::sort_canonical`]
/// permutes the records (not the item buffer) into canonical order —
/// by length, then lexicographically — renumbering ids accordingly.
#[derive(Debug, Default)]
pub struct ItemsetArena<P> {
    items: Vec<ItemId>,
    recs: Vec<Record<P>>,
    /// Lazily built itemset → id index; invalidated by any mutation.
    index: OnceLock<SliceIndex>,
    /// Lazily built immediate-subset index; invalidated with `index`.
    subsets: OnceLock<SubsetIndex>,
}

/// One entry of the immediate-subset index: what
/// [`ItemsetArena::find`] returns for an itemset with one item removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subset {
    /// The removed item was the only one: the sub-itemset is `∅`.
    Empty,
    /// The sub-itemset is not stored (possible in arenas that are not
    /// subset-closed, e.g. filtered or budget-truncated runs).
    Absent,
    /// The id of the stored sub-itemset.
    Id(usize),
}

impl<P> ItemsetArena<P> {
    pub fn new() -> Self {
        ItemsetArena {
            items: Vec::new(),
            recs: Vec::new(),
            index: OnceLock::new(),
            subsets: OnceLock::new(),
        }
    }

    /// Pre-sizes for `n_itemsets` records over ~`n_items` total items.
    pub fn with_capacity(n_itemsets: usize, n_items: usize) -> Self {
        ItemsetArena {
            items: Vec::with_capacity(n_items),
            recs: Vec::with_capacity(n_itemsets),
            index: OnceLock::new(),
            subsets: OnceLock::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.recs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Total items stored across all itemsets.
    pub fn total_items(&self) -> usize {
        self.items.len()
    }

    /// Approximate heap footprint: the flat item buffer plus the record
    /// table, counted at capacity (what the allocator actually holds).
    pub fn approx_bytes(&self) -> u64 {
        (self.items.capacity() * std::mem::size_of::<ItemId>()
            + self.recs.capacity() * std::mem::size_of::<Record<P>>()) as u64
    }

    /// Appends an itemset (`items` must be in canonical order) and
    /// returns its id.
    pub fn push(&mut self, items: &[ItemId], support: u64, payload: P) -> usize {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "items must be canonical"
        );
        self.invalidate();
        let offset = self.items.len();
        self.items.extend_from_slice(items);
        self.recs.push(Record {
            offset,
            len: items.len() as u32,
            support,
            payload,
        });
        self.recs.len() - 1
    }

    /// The items of itemset `id`.
    pub fn items(&self, id: usize) -> &[ItemId] {
        let rec = &self.recs[id];
        &self.items[rec.offset..rec.offset + rec.len as usize]
    }

    pub fn support(&self, id: usize) -> u64 {
        self.recs[id].support
    }

    pub fn payload(&self, id: usize) -> &P {
        &self.recs[id].payload
    }

    pub fn entry(&self, id: usize) -> ArenaEntry<'_, P> {
        let rec = &self.recs[id];
        ArenaEntry {
            items: &self.items[rec.offset..rec.offset + rec.len as usize],
            support: rec.support,
            payload: &rec.payload,
        }
    }

    /// Iterates entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = ArenaEntry<'_, P>> + '_ {
        (0..self.recs.len()).map(move |id| self.entry(id))
    }

    /// Sorts records into canonical order (length, then lexicographic
    /// items). Only the records permute; the flat item buffer stays
    /// put. Ids refer to the new order afterwards.
    pub fn sort_canonical(&mut self) {
        self.invalidate();
        let items = std::mem::take(&mut self.items);
        self.recs.sort_by(|a, b| {
            let ia = &items[a.offset..a.offset + a.len as usize];
            let ib = &items[b.offset..b.offset + b.len as usize];
            ia.len().cmp(&ib.len()).then_with(|| ia.cmp(ib))
        });
        self.items = items;
    }

    /// Appends every record of `other`, preserving their order. Ids of
    /// `self` are unchanged; `other`'s itemsets get the next ids.
    pub fn absorb(&mut self, other: ItemsetArena<P>) {
        self.invalidate();
        let shift = self.items.len();
        self.items.extend_from_slice(&other.items);
        self.recs.extend(other.recs.into_iter().map(|mut rec| {
            rec.offset += shift;
            rec
        }));
    }

    /// Looks up an itemset (canonical item order) and returns its id.
    ///
    /// The first lookup builds a hash index over all stored itemsets;
    /// subsequent lookups are `O(1)`. Any mutation invalidates the
    /// index, and the next `find` rebuilds it.
    pub fn find(&self, items: &[ItemId]) -> Option<usize> {
        let index = self.index.get_or_init(|| SliceIndex::build(self));
        index.find(self, items)
    }

    /// The immediate subsets of itemset `id`: entry `j` is what
    /// [`Self::find`] returns for `items(id)` with its `j`-th item
    /// removed — [`Subset::Empty`] for a single item, [`Subset::Absent`]
    /// where the sub-itemset is not stored.
    ///
    /// The first call builds the index for the whole arena (one `u32`
    /// per stored item); any mutation invalidates it. Analyses that walk every lattice edge use this instead of one
    /// allocating `find` per edge.
    pub fn subsets(&self, id: usize) -> impl ExactSizeIterator<Item = Subset> + '_ {
        let index = self.subsets.get_or_init(|| SubsetIndex::build(self));
        let rec = &self.recs[id];
        index.entries[rec.offset..rec.offset + rec.len as usize]
            .iter()
            .map(|&e| match e {
                EMPTY => Subset::Empty,
                ABSENT => Subset::Absent,
                id => Subset::Id(id as usize),
            })
    }

    fn invalidate(&mut self) {
        self.index.take();
        self.subsets.take();
    }

    /// Materializes the arena into the seed representation (one `Vec`
    /// per itemset), consuming it.
    pub fn into_itemsets(self) -> Vec<FrequentItemset<P>> {
        let items = self.items;
        self.recs
            .into_iter()
            .map(|rec| FrequentItemset {
                items: items[rec.offset..rec.offset + rec.len as usize].to_vec(),
                support: rec.support,
                payload: rec.payload,
            })
            .collect()
    }

    /// Copies the lattice shape — items and supports, no payloads — into
    /// a unit-payload arena: the form persisted by on-disk artifacts and
    /// consumed by [`crate::MiningTask::recount`]. Record order is
    /// preserved.
    pub fn to_candidates(&self) -> ItemsetArena<()> {
        let mut out = ItemsetArena::with_capacity(self.len(), self.total_items());
        for id in 0..self.len() {
            out.push(self.items(id), self.support(id), ());
        }
        out
    }

    /// Builds an arena from the seed representation.
    pub fn from_itemsets(found: &[FrequentItemset<P>]) -> Self
    where
        P: Clone,
    {
        let total: usize = found.iter().map(|fi| fi.items.len()).sum();
        let mut arena = ItemsetArena::with_capacity(found.len(), total);
        for fi in found {
            arena.push(&fi.items, fi.support, fi.payload.clone());
        }
        arena
    }
}

// Manual impl: the `OnceLock` indexes are not `Clone`; the copy starts
// with empty indexes and rebuilds them on first use.
impl<P: Clone> Clone for ItemsetArena<P> {
    fn clone(&self) -> Self {
        ItemsetArena {
            items: self.items.clone(),
            recs: self.recs.clone(),
            index: OnceLock::new(),
            subsets: OnceLock::new(),
        }
    }
}

impl<P: Payload> ItemsetSink<P> for ItemsetArena<P> {
    fn emit(&mut self, items: &[ItemId], support: u64, payload: &P) {
        self.push(items, support, payload.clone());
    }
}

// ---------------------------------------------------------------------
// Slice index

/// Open-addressing hash table mapping an itemset slice to its arena id.
///
/// Stored as `id + 1` (0 = empty slot) so the table is a plain `Vec<u32>`
/// with no self-referential borrows into the arena.
#[derive(Debug)]
struct SliceIndex {
    slots: Vec<u32>,
    mask: usize,
}

fn hash_items(items: &[ItemId]) -> u64 {
    use std::hash::Hasher;
    let mut h = rustc_hash::FxHasher::default();
    for &i in items {
        h.write_u32(i);
    }
    h.finish()
}

impl SliceIndex {
    fn build<P>(arena: &ItemsetArena<P>) -> Self {
        let capacity = (arena.len() * 2).next_power_of_two().max(8);
        let mut index = SliceIndex {
            slots: vec![0; capacity],
            mask: capacity - 1,
        };
        for id in 0..arena.len() {
            index.insert(arena, id);
        }
        index
    }

    fn insert<P>(&mut self, arena: &ItemsetArena<P>, id: usize) {
        let items = arena.items(id);
        let mut slot = hash_items(items) as usize & self.mask;
        loop {
            match self.slots[slot] {
                0 => {
                    self.slots[slot] = (id + 1) as u32;
                    return;
                }
                occupied => {
                    // A duplicate itemset resolves to its last copy.
                    if arena.items((occupied - 1) as usize) == items {
                        self.slots[slot] = (id + 1) as u32;
                        return;
                    }
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }

    fn find<P>(&self, arena: &ItemsetArena<P>, items: &[ItemId]) -> Option<usize> {
        let mut slot = hash_items(items) as usize & self.mask;
        loop {
            match self.slots[slot] {
                0 => return None,
                occupied => {
                    let id = (occupied - 1) as usize;
                    if arena.items(id) == items {
                        return Some(id);
                    }
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }
}

// ---------------------------------------------------------------------
// Immediate-subset index

/// Entry marker: the sub-itemset is `∅` (the itemset has one item).
const EMPTY: u32 = u32::MAX;
/// Entry marker: the sub-itemset is not stored.
const ABSENT: u32 = u32::MAX - 1;

/// `entries[offset(k) + j]` = id of `items(k)` without its `j`-th item,
/// laid out parallel to the arena's flat item buffer (which holds each
/// record's items exactly once), so the index costs 4 bytes per stored
/// item and needs no offset table of its own.
#[derive(Debug)]
struct SubsetIndex {
    entries: Vec<u32>,
}

/// The trie-style child map of [`SubsetIndex::build`]: (id of a prefix,
/// appended item) → id, open addressing with Fibonacci hashing (the
/// high bits of one multiply, so both halves of the key spread; Fx's
/// low bits would depend on the item alone).
struct ChildMap {
    keys: Vec<u64>,
    ids: Vec<u32>,
    shift: u32,
}

impl ChildMap {
    /// Marks a free slot (no real key has an all-ones item half).
    const FREE: u64 = u64::MAX;

    fn with_capacity(n: usize) -> Self {
        let capacity = (n * 2).next_power_of_two().max(8);
        ChildMap {
            keys: vec![Self::FREE; capacity],
            ids: vec![0; capacity],
            shift: 64 - capacity.trailing_zeros(),
        }
    }

    fn slot(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        while self.keys[slot] != key && self.keys[slot] != Self::FREE {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Maps (`prefix`, `item`) to `id`, replacing an earlier mapping.
    fn insert(&mut self, prefix: u32, item: ItemId, id: u32) {
        let key = (u64::from(prefix) << 32) | u64::from(item);
        let slot = self.slot(key);
        self.keys[slot] = key;
        self.ids[slot] = id;
    }

    fn get(&self, prefix: u32, item: ItemId) -> Option<u32> {
        let key = (u64::from(prefix) << 32) | u64::from(item);
        let slot = self.slot(key);
        (self.keys[slot] == key).then(|| self.ids[slot])
    }
}

impl SubsetIndex {
    /// One level-ordered pass. Every itemset `K = P ∪ {last}` of length
    /// ≥ 2 is keyed in a child map under (id of its prefix `P`, `last`).
    /// Then `K ∖ {K[j]}` for `j < |K| − 1` is the child of
    /// `P ∖ {K[j]}` — an entry of `P`, computed one level earlier —
    /// under the same `last`, and `K ∖ {last}` is `P` itself. Where a
    /// prefix is not stored (arenas that are not subset-closed) the
    /// entry falls back to [`ItemsetArena::find`] on a reused buffer.
    fn build<P>(arena: &ItemsetArena<P>) -> Self {
        let _span = obs::span("fpm.subset_index");
        let n = arena.len();
        assert!(n < ABSENT as usize, "arena too large for u32 subset ids");
        let mut entries = vec![ABSENT; arena.items.len()];

        // Ids ordered by (length, id): a counting sort on length.
        // `levels[l]..levels[l + 1]` is the range of length-`l` ids in
        // `order`. The offsets are copied out of the (payload-sized)
        // records once, so the level-ordered pass reads a dense array.
        let max_len = arena.recs.iter().map(|r| r.len as usize).max().unwrap_or(0);
        let mut levels = vec![0usize; max_len + 2];
        for rec in &arena.recs {
            levels[rec.len as usize + 1] += 1;
        }
        for l in 1..levels.len() {
            levels[l] += levels[l - 1];
        }
        let mut next = levels.clone();
        let mut order = vec![0u32; n];
        for (id, rec) in arena.recs.iter().enumerate() {
            let slot = &mut next[rec.len as usize];
            order[*slot] = id as u32;
            *slot += 1;
        }
        let offsets: Vec<usize> = arena.recs.iter().map(|r| r.offset).collect();

        // Later duplicates overwrite earlier ones, so every lookup lands
        // on the id `find` returns (the last stored copy).
        let mut child = ChildMap::with_capacity(n);
        let mut scratch: Vec<ItemId> = Vec::new();
        let mut fallbacks = 0u64;
        // The prefix walk of the previous itemset: `walk_ids[i]` is the
        // id of `walk_items[..=i]`, reused across itemsets sharing a
        // prefix.
        let mut walk_items: Vec<ItemId> = Vec::new();
        let mut walk_ids: Vec<u32> = Vec::new();

        // Empty itemsets (level 0) have no entries.
        for (len, level) in levels.windows(2).enumerate().skip(1) {
            for &id in &order[level[0]..level[1]] {
                let out = offsets[id as usize];
                let items = &arena.items[out..out + len];
                if len == 1 {
                    entries[out] = EMPTY;
                    child.insert(EMPTY, items[0], id);
                    continue;
                }
                let last = items[len - 1];
                let prefix = &items[..len - 1];

                // The prefix id, walking the child map from the shared part
                // of the previous walk.
                let shared = walk_items
                    .iter()
                    .zip(prefix)
                    .take_while(|(a, b)| a == b)
                    .count();
                walk_items.truncate(shared);
                walk_ids.truncate(shared);
                let mut node = walk_ids.last().copied().unwrap_or(EMPTY);
                for &item in &prefix[shared..] {
                    node = match child.get(node, item) {
                        Some(next) => next,
                        None => break,
                    };
                    walk_items.push(item);
                    walk_ids.push(node);
                }
                let parent = if walk_ids.len() == prefix.len() {
                    Some(node)
                } else {
                    fallbacks += 1;
                    arena.find(prefix).map(|p| p as u32)
                };

                match parent {
                    Some(parent) => {
                        child.insert(parent, last, id);
                        entries[out + len - 1] = parent;
                        let p_off = offsets[parent as usize];
                        for j in 0..len - 1 {
                            entries[out + j] = match entries[p_off + j] {
                                ABSENT => {
                                    fallbacks += 1;
                                    find_without(arena, items, j, &mut scratch)
                                }
                                base => child.get(base, last).unwrap_or(ABSENT),
                            };
                        }
                    }
                    None => {
                        fallbacks += len as u64 - 1;
                        for j in 0..len - 1 {
                            entries[out + j] = find_without(arena, items, j, &mut scratch);
                        }
                    }
                }
            }
        }
        obs::counter("fpm.subset_index.edges", entries.len() as u64);
        obs::counter("fpm.subset_index.fallbacks", fallbacks);
        SubsetIndex { entries }
    }
}

/// `find(items ∖ {items[j]})` through a reused buffer.
fn find_without<P>(
    arena: &ItemsetArena<P>,
    items: &[ItemId],
    j: usize,
    scratch: &mut Vec<ItemId>,
) -> u32 {
    scratch.clear();
    scratch.extend_from_slice(&items[..j]);
    scratch.extend_from_slice(&items[j + 1..]);
    arena.find(scratch).map_or(ABSENT, |id| id as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::CountPayload;
    use crate::transaction::TransactionDb;
    use crate::{Algorithm, MiningParams};

    fn sample_arena() -> ItemsetArena<CountPayload> {
        let mut arena = ItemsetArena::new();
        arena.push(&[0], 5, CountPayload(1));
        arena.push(&[1], 4, CountPayload(2));
        arena.push(&[0, 1], 3, CountPayload(3));
        arena.push(&[0, 2], 2, CountPayload(4));
        arena
    }

    #[test]
    fn push_and_access() {
        let arena = sample_arena();
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.total_items(), 6);
        assert_eq!(arena.items(2), &[0, 1]);
        assert_eq!(arena.support(2), 3);
        assert_eq!(*arena.payload(3), CountPayload(4));
        let entry = arena.entry(0);
        assert_eq!((entry.items, entry.support), (&[0u32][..], 5));
    }

    #[test]
    fn find_uses_the_shared_index() {
        let arena = sample_arena();
        assert_eq!(arena.find(&[0, 1]), Some(2));
        assert_eq!(arena.find(&[1]), Some(1));
        assert_eq!(arena.find(&[2]), None);
        assert_eq!(arena.find(&[]), None);
    }

    #[test]
    fn mutation_invalidates_the_index() {
        let mut arena = sample_arena();
        assert_eq!(arena.find(&[0, 2]), Some(3));
        arena.push(&[1, 2], 1, CountPayload(9));
        assert_eq!(arena.find(&[1, 2]), Some(4));
        assert_eq!(arena.find(&[0, 1]), Some(2));
    }

    #[test]
    fn sort_canonical_matches_vec_sort() {
        let mut arena = ItemsetArena::new();
        arena.push(&[2], 1, ());
        arena.push(&[0, 1], 1, ());
        arena.push(&[0], 1, ());
        arena.push(&[0, 2], 1, ());
        arena.sort_canonical();
        let order: Vec<&[ItemId]> = arena.iter().map(|e| e.items).collect();
        assert_eq!(order, vec![&[0][..], &[2], &[0, 1], &[0, 2]]);
        assert_eq!(arena.find(&[0, 1]), Some(2));
    }

    #[test]
    fn absorb_appends_with_shifted_offsets() {
        let mut a = sample_arena();
        let mut b = ItemsetArena::new();
        b.push(&[7], 9, CountPayload(7));
        b.push(&[7, 8], 8, CountPayload(8));
        a.absorb(b);
        assert_eq!(a.len(), 6);
        assert_eq!(a.items(4), &[7]);
        assert_eq!(a.items(5), &[7, 8]);
        assert_eq!(a.find(&[7, 8]), Some(5));
    }

    #[test]
    fn roundtrip_through_itemsets() {
        let db = TransactionDb::from_rows(4, &[vec![0, 1, 2], vec![0, 1], vec![0, 3], vec![1, 2]]);
        let params = MiningParams::with_min_support_count(1);
        let payloads: Vec<CountPayload> = (0..db.len()).map(|t| CountPayload(1 << t)).collect();
        let found = crate::MiningTask::with_params(&db, params.clone())
            .payloads(&payloads)
            .algorithm(Algorithm::Dense)
            .run()
            .into_itemsets();
        let arena = ItemsetArena::from_itemsets(&found);
        assert_eq!(arena.into_itemsets(), found);
    }
}
