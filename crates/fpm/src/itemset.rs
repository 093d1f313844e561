//! The result type of a mining run.

use crate::transaction::ItemId;

/// One frequent itemset together with its support count and the merged
/// payload of its covering transactions.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FrequentItemset<P> {
    /// Canonical (sorted ascending, deduplicated) item ids.
    pub items: Vec<ItemId>,
    /// Number of transactions containing every item of `items`.
    pub support: u64,
    /// Merge of the payloads of all covering transactions.
    pub payload: P,
}

impl<P> FrequentItemset<P> {
    /// Constructs a result entry, canonicalizing the item order.
    pub fn new(mut items: Vec<ItemId>, support: u64, payload: P) -> Self {
        items.sort_unstable();
        items.dedup();
        Self {
            items,
            support,
            payload,
        }
    }

    /// Number of items (the paper's itemset *length*).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True for the empty itemset.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Relative support with respect to a database of `n` transactions.
    pub fn support_fraction(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.support as f64 / n as f64
        }
    }
}

/// Sorts a mining result into canonical order: by length, then
/// lexicographically by items. Useful for deterministic output and
/// differential tests.
pub fn sort_canonical<P>(found: &mut [FrequentItemset<P>]) {
    found.sort_by(|a, b| {
        a.items
            .len()
            .cmp(&b.items.len())
            .then_with(|| a.items.cmp(&b.items))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_canonicalizes_items() {
        let fi = FrequentItemset::new(vec![3, 1, 3], 5, ());
        assert_eq!(fi.items, vec![1, 3]);
        assert_eq!(fi.len(), 2);
    }

    #[test]
    fn support_fraction_handles_empty_db() {
        let fi = FrequentItemset::new(vec![0], 2, ());
        assert_eq!(fi.support_fraction(0), 0.0);
        assert!((fi.support_fraction(8) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn canonical_sort_orders_by_length_then_lexicographic() {
        let mut v = vec![
            FrequentItemset::new(vec![2], 1, ()),
            FrequentItemset::new(vec![0, 1], 1, ()),
            FrequentItemset::new(vec![0], 1, ()),
            FrequentItemset::new(vec![0, 2], 1, ()),
        ];
        sort_canonical(&mut v);
        let items: Vec<_> = v.iter().map(|fi| fi.items.clone()).collect();
        assert_eq!(items, vec![vec![0], vec![2], vec![0, 1], vec![0, 2]]);
    }
}
