//! Differential tests for the lattice analyses: global divergence (Eq. 8),
//! ε-pruning (§3.5), corrective items (§4.2), top-k ranking and local
//! Shapley (Eq. 5).
//!
//! Each is checked on random small datasets (≤ 6 attributes of ≤ 4 values,
//! random `v`/`u`, random support and engine) over three kinds of report:
//! complete, `max_len`-capped, and `DivergenceFilterSink`-filtered (which is
//! not subset-closed), against two independent references:
//!
//! - [`reference`]: the hash-lookup implementations the immediate-subset
//!   index replaced — one allocating `find` per lattice edge, a full sort
//!   per ranking. The indexed analyses must agree with them bit for bit.
//! - [`Oracle`]: brute force. It enumerates every itemset of the schema,
//!   counts its rows directly and applies each definition, so it shares
//!   neither the miner nor the report's indexes.

use std::collections::{HashMap, HashSet};

use divexplorer::{
    corrective::{corrective_items, top_corrective, CorrectiveItem},
    global_div::{global_item_divergence, global_itemset_divergence},
    pruning::{prune_redundant, DivergenceFilterSink},
    shapley::item_contributions,
    DatasetBuilder, DiscreteDataset, DivExplorer, DivergenceReport, ItemId, Metric, MultiCounts,
    OutcomeCounts, SortBy,
};
use proptest::prelude::*;

const METRICS: [Metric; 2] = [Metric::ErrorRate, Metric::FalsePositiveRate];

const ORDERS: [SortBy; 5] = [
    SortBy::Divergence,
    SortBy::NegativeDivergence,
    SortBy::AbsDivergence,
    SortBy::Support,
    SortBy::TStatistic,
];

/// The hash-lookup bodies of the analyses, as they were before the
/// immediate-subset index: the specification the indexed forms must
/// reproduce bit for bit.
mod reference {
    use std::collections::HashMap;

    use divexplorer::{
        corrective::CorrectiveItem,
        item::{for_each_subset, is_subset, with, without},
        shapley::ShapleyError,
        DivergenceReport, ItemId, SortBy,
    };

    pub fn ranked(report: &DivergenceReport, m: usize, order: SortBy) -> Vec<usize> {
        let key = |idx: usize| -> f64 {
            match order {
                SortBy::Divergence => report.divergence(idx, m),
                SortBy::NegativeDivergence => -report.divergence(idx, m),
                SortBy::AbsDivergence => report.divergence(idx, m).abs(),
                SortBy::Support => report.support(idx) as f64,
                SortBy::TStatistic => report.t_statistic(idx, m),
            }
        };
        let mut idxs: Vec<usize> = (0..report.len()).filter(|&i| !key(i).is_nan()).collect();
        idxs.sort_by(|&a, &b| {
            key(b)
                .partial_cmp(&key(a))
                .unwrap()
                .then_with(|| report.items(a).len().cmp(&report.items(b).len()))
                .then_with(|| report.items(a).cmp(report.items(b)))
        });
        idxs
    }

    pub fn prune_redundant(report: &DivergenceReport, m: usize, epsilon: f64) -> Vec<usize> {
        let mut retained = Vec::new();
        'patterns: for idx in 0..report.len() {
            let items = report.items(idx);
            let delta = report.divergence(idx, m);
            if delta.is_nan() {
                continue;
            }
            for &alpha in items {
                let base = without(items, alpha);
                let Some(delta_base) = report.divergence_of(&base, m) else {
                    continue 'patterns;
                };
                if delta_base.is_nan() || (delta - delta_base).abs() <= epsilon {
                    continue 'patterns;
                }
            }
            retained.push(idx);
        }
        retained
    }

    pub fn corrective_items(report: &DivergenceReport, m: usize) -> Vec<CorrectiveItem> {
        let mut out = Vec::new();
        for k_idx in 0..report.len() {
            let extended = report.pattern(k_idx);
            let delta_ext = report.divergence(k_idx, m);
            if delta_ext.is_nan() {
                continue;
            }
            for &alpha in extended.items {
                let base = without(extended.items, alpha);
                if base.is_empty() {
                    continue;
                }
                let Some(base_idx) = report.find(&base) else {
                    continue;
                };
                let delta_base = report.divergence(base_idx, m);
                if delta_base.is_nan() {
                    continue;
                }
                let factor = delta_base.abs() - delta_ext.abs();
                if factor > 0.0 {
                    let p_base = report.counts(base_idx).get(m).posterior();
                    let p_ext = extended.counts.get(m).posterior();
                    out.push(CorrectiveItem {
                        base,
                        item: alpha,
                        delta_base,
                        delta_extended: delta_ext,
                        corrective_factor: factor,
                        t: p_base.welch_t(&p_ext),
                    });
                }
            }
        }
        out.sort_by(|a, b| {
            b.corrective_factor
                .partial_cmp(&a.corrective_factor)
                .unwrap()
                .then_with(|| a.base.cmp(&b.base))
                .then_with(|| a.item.cmp(&b.item))
        });
        out
    }

    pub fn top_corrective(
        report: &DivergenceReport,
        m: usize,
        k: usize,
        min_t: Option<f64>,
    ) -> Vec<CorrectiveItem> {
        let mut all = corrective_items(report, m);
        if let Some(min_t) = min_t {
            all.retain(|c| c.t >= min_t);
        }
        all.truncate(k);
        all
    }

    fn positional_weights(n: usize) -> Vec<f64> {
        itemset_weights(n, 1)
    }

    fn itemset_weights(n: usize, i: usize) -> Vec<f64> {
        let mut w0 = 1.0f64;
        for t in 0..i {
            w0 /= (n - t) as f64;
        }
        let mut weights = Vec::with_capacity(n - i + 1);
        let mut w = w0;
        weights.push(w);
        for b in 0..(n - i) {
            w *= (b + 1) as f64 / (n - b - i) as f64;
            weights.push(w);
        }
        weights
    }

    fn domain_product(report: &DivergenceReport, items: &[ItemId]) -> f64 {
        report
            .schema()
            .itemset_attributes(items)
            .into_iter()
            .map(|a| report.schema().cardinality(a) as f64)
            .product()
    }

    pub fn global_item_divergence(report: &DivergenceReport, m: usize) -> Vec<(ItemId, f64)> {
        let delta_of = |items: &[ItemId]| -> Option<f64> { report.divergence_of(items, m) };
        let weights = positional_weights(report.schema().n_attributes());
        let mut acc: HashMap<ItemId, f64> = HashMap::new();
        for p in report.patterns() {
            if p.items.len() == 1 {
                acc.entry(p.items[0]).or_insert(0.0);
            }
        }
        for k_idx in 0..report.len() {
            let k_items = report.items(k_idx);
            let delta_k = delta_of(k_items).unwrap_or(f64::NAN);
            if delta_k.is_nan() {
                continue;
            }
            let w = weights[k_items.len() - 1] / domain_product(report, k_items);
            for &alpha in k_items {
                let j: Vec<ItemId> = k_items.iter().copied().filter(|&i| i != alpha).collect();
                let delta_j = if j.is_empty() {
                    delta_of(&j).unwrap_or(0.0)
                } else {
                    match delta_of(&j) {
                        Some(d) => d,
                        None => continue,
                    }
                };
                if delta_j.is_nan() {
                    continue;
                }
                *acc.entry(alpha).or_insert(0.0) += w * (delta_k - delta_j);
            }
        }
        let mut out: Vec<(ItemId, f64)> = acc.into_iter().collect();
        out.sort_by_key(|&(item, _)| item);
        out
    }

    pub fn global_itemset_divergence(
        report: &DivergenceReport,
        items: &[ItemId],
        m: usize,
    ) -> Option<f64> {
        if items.is_empty() || report.find(items).is_none() {
            return None;
        }
        let n_attrs = report.schema().n_attributes();
        let weights = itemset_weights(n_attrs, items.len());
        let mut total = 0.0;
        for k_idx in 0..report.len() {
            let k_items = report.items(k_idx);
            if k_items.len() < items.len() || !is_subset(items, k_items) {
                continue;
            }
            let delta_k = report.divergence(k_idx, m);
            if delta_k.is_nan() {
                continue;
            }
            let j: Vec<ItemId> = k_items
                .iter()
                .copied()
                .filter(|i| !items.contains(i))
                .collect();
            let Some(delta_j) = report.divergence_of(&j, m) else {
                continue;
            };
            if delta_j.is_nan() {
                continue;
            }
            total += weights[j.len()] / domain_product(report, k_items) * (delta_k - delta_j);
        }
        Some(total)
    }

    pub fn item_contributions(
        report: &DivergenceReport,
        items: &[ItemId],
        m: usize,
    ) -> Result<Vec<(ItemId, f64)>, ShapleyError> {
        let k = items.len();
        let mut weights = Vec::with_capacity(k);
        let mut binom = 1.0f64;
        for j in 0..k {
            weights.push(1.0 / (k as f64 * binom));
            binom *= (k - 1 - j) as f64 / (j + 1) as f64;
        }
        let delta = |subset: &[ItemId]| -> Result<f64, ShapleyError> {
            match report.divergence_of(subset, m) {
                None => Err(ShapleyError::MissingSubset(subset.to_vec())),
                Some(d) if d.is_nan() => Err(ShapleyError::UndefinedDivergence(subset.to_vec())),
                Some(d) => Ok(d),
            }
        };
        let mut out = Vec::with_capacity(k);
        for &alpha in items {
            let rest = without(items, alpha);
            let mut contribution = 0.0;
            let mut err: Option<ShapleyError> = None;
            for_each_subset(&rest, |j_subset| {
                if err.is_some() {
                    return;
                }
                let with_alpha = with(j_subset, alpha);
                match (delta(&with_alpha), delta(j_subset)) {
                    (Ok(d1), Ok(d0)) => contribution += weights[j_subset.len()] * (d1 - d0),
                    (Err(e), _) | (_, Err(e)) => err = Some(e),
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            out.push((alpha, contribution));
        }
        Ok(out)
    }
}

/// Brute-force lattice: every itemset of the schema (at most one value
/// per attribute), counted row by row, kept iff the report should hold
/// it (frequent, within `max_len`, passing the divergence filter).
struct Oracle {
    /// Stored itemsets, canonical.
    stored: Vec<Vec<ItemId>>,
    counts: HashMap<Vec<ItemId>, Vec<OutcomeCounts>>,
    dataset: Vec<OutcomeCounts>,
    /// Attribute of every item, and every attribute's cardinality.
    attribute: Vec<usize>,
    cardinality: Vec<usize>,
}

fn tally(rows: impl Iterator<Item = usize>, v: &[bool], u: &[bool]) -> Vec<OutcomeCounts> {
    let mut counts = vec![OutcomeCounts::default(); METRICS.len()];
    for r in rows {
        for (c, metric) in counts.iter_mut().zip(METRICS) {
            let one = OutcomeCounts::from_outcome(metric.outcome(v[r], u[r]));
            c.t += one.t;
            c.f += one.f;
            c.bot += one.bot;
        }
    }
    counts
}

impl Oracle {
    fn new(
        data: &DiscreteDataset,
        v: &[bool],
        u: &[bool],
        min_count: u64,
        max_len: Option<usize>,
        filter: Option<f64>,
    ) -> Self {
        let schema = data.schema();
        let cardinality: Vec<usize> = (0..schema.n_attributes())
            .map(|a| schema.cardinality(a))
            .collect();
        let mut attribute = Vec::new();
        for (a, &card) in cardinality.iter().enumerate() {
            attribute.extend(std::iter::repeat_n(a, card));
        }
        let dataset = tally(0..data.n_rows(), v, u);
        let mut oracle = Oracle {
            stored: Vec::new(),
            counts: HashMap::new(),
            dataset,
            attribute,
            cardinality,
        };
        // Odometer over (none | value) per attribute.
        let mut choice = vec![0usize; schema.n_attributes()];
        loop {
            let items: Vec<ItemId> = choice
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(a, &c)| schema.item_id(a, c - 1))
                .collect();
            let rows = data.support_set(&items);
            let keep = !items.is_empty()
                && rows.len() as u64 >= min_count
                && max_len.is_none_or(|l| items.len() <= l);
            if keep {
                let counts = tally(rows.into_iter(), v, u);
                let passes = filter.is_none_or(|t| {
                    (0..METRICS.len())
                        .any(|m| (counts[m].rate() - oracle.dataset[m].rate()).abs() >= t)
                });
                if passes {
                    oracle.stored.push(items.clone());
                    oracle.counts.insert(items, counts);
                }
            }
            let mut a = 0;
            loop {
                if a == choice.len() {
                    return oracle;
                }
                choice[a] += 1;
                if choice[a] <= oracle.cardinality[a] {
                    break;
                }
                choice[a] = 0;
                a += 1;
            }
        }
    }

    /// `Δ(I)` of a stored itemset; `Some(0.0)` for `∅`; `None` if absent.
    fn delta(&self, items: &[ItemId], m: usize) -> Option<f64> {
        if items.is_empty() {
            return Some(0.0);
        }
        let counts = self.counts.get(items)?;
        Some(counts[m].rate() - self.dataset[m].rate())
    }

    fn without(items: &[ItemId], pos: usize) -> Vec<ItemId> {
        let mut sub = items.to_vec();
        sub.remove(pos);
        sub
    }

    /// Eq. 8 summed over the stored lattice, in no particular order.
    fn global(&self, m: usize) -> Vec<(ItemId, f64)> {
        let n = self.cardinality.len();
        let factorial = |k: usize| (1..=k).map(|x| x as f64).product::<f64>();
        let mut acc: HashMap<ItemId, f64> = HashMap::new();
        for k in &self.stored {
            if k.len() == 1 {
                acc.entry(k[0]).or_insert(0.0);
            }
            let delta_k = self.delta(k, m).unwrap();
            if delta_k.is_nan() {
                continue;
            }
            let j_len = k.len() - 1;
            let weight = factorial(j_len) * factorial(n - j_len - 1) / factorial(n);
            let domain: f64 = k
                .iter()
                .map(|&i| self.cardinality[self.attribute[i as usize]] as f64)
                .product();
            for (pos, &alpha) in k.iter().enumerate() {
                let Some(delta_j) = self.delta(&Self::without(k, pos), m) else {
                    continue;
                };
                if !delta_j.is_nan() {
                    *acc.entry(alpha).or_insert(0.0) += weight / domain * (delta_k - delta_j);
                }
            }
        }
        let mut out: Vec<(ItemId, f64)> = acc.into_iter().collect();
        out.sort_by_key(|&(item, _)| item);
        out
    }

    /// The stored itemsets every item of which contributes more than `ε`.
    fn pruned(&self, m: usize, epsilon: f64) -> HashSet<Vec<ItemId>> {
        self.stored
            .iter()
            .filter(|k| {
                let delta_k = self.delta(k, m).unwrap();
                !delta_k.is_nan()
                    && (0..k.len()).all(|pos| match self.delta(&Self::without(k, pos), m) {
                        Some(d) => !d.is_nan() && (delta_k - d).abs() > epsilon,
                        None => false,
                    })
            })
            .cloned()
            .collect()
    }

    /// Every corrective `(J, α)` with `J ∪ {α}` and `J ≠ ∅` stored, in the
    /// result order.
    fn corrective(&self, m: usize) -> Vec<CorrectiveItem> {
        let mut out = Vec::new();
        for k in &self.stored {
            let delta_ext = self.delta(k, m).unwrap();
            for (pos, &alpha) in k.iter().enumerate() {
                let base = Self::without(k, pos);
                if base.is_empty() {
                    continue;
                }
                let Some(delta_base) = self.delta(&base, m) else {
                    continue;
                };
                let factor = delta_base.abs() - delta_ext.abs();
                if factor > 0.0 {
                    let p_base = self.counts[&base][m].posterior();
                    let p_ext = self.counts[k][m].posterior();
                    out.push(CorrectiveItem {
                        base,
                        item: alpha,
                        delta_base,
                        delta_extended: delta_ext,
                        corrective_factor: factor,
                        t: p_base.welch_t(&p_ext),
                    });
                }
            }
        }
        out.sort_by(|a, b| {
            b.corrective_factor
                .total_cmp(&a.corrective_factor)
                .then_with(|| a.base.cmp(&b.base))
                .then_with(|| a.item.cmp(&b.item))
        });
        out
    }

    /// Stored itemsets by divergence, largest first (shorter, then
    /// lexicographic on ties); undefined divergences left out.
    fn ranked(&self, m: usize) -> Vec<Vec<ItemId>> {
        let mut keyed: Vec<(f64, &Vec<ItemId>)> = self
            .stored
            .iter()
            .map(|k| (self.delta(k, m).unwrap(), k))
            .filter(|(d, _)| !d.is_nan())
            .collect();
        keyed.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap()
                .then_with(|| a.1.len().cmp(&b.1.len()))
                .then_with(|| a.1.cmp(b.1))
        });
        keyed.into_iter().map(|(_, k)| k.clone()).collect()
    }
}

/// Local Shapley (Eq. 5) by brute force: enumerates every `J ⊆ I ∖ {α}`,
/// counts the rows of `J` and `J ∪ {α}` directly and weighs the marginal
/// divergence by `|J|!(|I|−|J|−1)!/|I|!`. `None` when some subset's
/// divergence is undefined (an empty reference class).
fn brute_shapley(
    data: &DiscreteDataset,
    v: &[bool],
    u: &[bool],
    items: &[ItemId],
    m: usize,
) -> Option<Vec<(ItemId, f64)>> {
    let overall = tally(0..data.n_rows(), v, u)[m].rate();
    let delta = |subset: &[ItemId]| -> Option<f64> {
        if subset.is_empty() {
            return Some(0.0);
        }
        let d = tally(data.support_set(subset).into_iter(), v, u)[m].rate() - overall;
        (!d.is_nan()).then_some(d)
    };
    let factorial = |k: usize| (1..=k).map(|x| x as f64).product::<f64>();
    let k = items.len();
    let mut out = Vec::with_capacity(k);
    for &alpha in items {
        let rest: Vec<ItemId> = items.iter().copied().filter(|&i| i != alpha).collect();
        let mut contribution = 0.0;
        for mask in 0u32..1 << rest.len() {
            let j: Vec<ItemId> = (0..rest.len())
                .filter(|&b| mask >> b & 1 == 1)
                .map(|b| rest[b])
                .collect();
            let mut j_alpha = j.clone();
            j_alpha.insert(j.partition_point(|&i| i < alpha), alpha);
            let weight = factorial(j.len()) * factorial(k - j.len() - 1) / factorial(k);
            contribution += weight * (delta(&j_alpha)? - delta(&j)?);
        }
        out.push((alpha, contribution));
    }
    Some(out)
}

fn random_input() -> impl Strategy<Value = (DiscreteDataset, Vec<bool>, Vec<bool>)> {
    (proptest::collection::vec(2u16..5, 1..7), 6usize..32).prop_flat_map(|(cards, n)| {
        let width = cards.len();
        (
            proptest::collection::vec(proptest::collection::vec(0u16..4, width), n),
            proptest::collection::vec(any::<bool>(), n),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(move |(rows, v, u)| {
                let mut builder = DatasetBuilder::new();
                for (a, &card) in cards.iter().enumerate() {
                    let labels: Vec<String> = (0..card).map(|c| format!("v{c}")).collect();
                    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
                    let column: Vec<u16> = rows.iter().map(|r| r[a] % card).collect();
                    builder.categorical(format!("a{a}"), &labels, &column);
                }
                (builder.build().unwrap(), v, u)
            })
    })
}

const ENGINES: [fpm::Algorithm; 3] = [
    fpm::Algorithm::FpGrowth,
    fpm::Algorithm::Dense,
    fpm::Algorithm::Sharded,
];

/// One report per kind — complete, capped at `max_len`, filtered at
/// `|Δ| ≥ threshold` — with the oracle that describes it.
fn reports(
    data: &DiscreteDataset,
    v: &[bool],
    u: &[bool],
    explorer: &DivExplorer,
    max_len: usize,
    threshold: f64,
) -> Vec<(&'static str, DivergenceReport, Oracle)> {
    let complete = explorer.explore(data, v, u, &METRICS).unwrap();
    let count = complete.min_support_count();
    let capped = explorer
        .clone()
        .with_max_len(max_len)
        .explore(data, v, u, &METRICS)
        .unwrap();
    // The filter needs the dataset tallies up front (line 2 of Alg. 1).
    let mut dataset_counts = MultiCounts::empty(METRICS.len());
    for (&vi, &ui) in v.iter().zip(u) {
        let outcomes: Vec<_> = METRICS.iter().map(|m| m.outcome(vi, ui)).collect();
        fpm::Payload::merge(&mut dataset_counts, &MultiCounts::from_outcomes(&outcomes));
    }
    let mut sink = DivergenceFilterSink::new(fpm::ItemsetArena::new(), dataset_counts, threshold);
    let stats = explorer
        .explore_into(data, v, u, &METRICS, &mut sink)
        .unwrap();
    let filtered = DivergenceReport::from_store(
        data.schema().clone(),
        METRICS.to_vec(),
        stats.n_rows,
        stats.min_support_count,
        stats.dataset_counts,
        sink.into_inner(),
    );
    vec![
        (
            "complete",
            complete,
            Oracle::new(data, v, u, count, None, None),
        ),
        (
            "capped",
            capped,
            Oracle::new(data, v, u, count, Some(max_len), None),
        ),
        (
            "filtered",
            filtered,
            Oracle::new(data, v, u, count, None, Some(threshold)),
        ),
    ]
}

/// Bit-level float equality (NaN equal to NaN).
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn same_corrective(a: &[CorrectiveItem], b: &[CorrectiveItem]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.base == y.base
                && x.item == y.item
                && same(x.delta_base, y.delta_base)
                && same(x.delta_extended, y.delta_extended)
                && same(x.corrective_factor, y.corrective_factor)
                && same(x.t, y.t)
        })
}

fn same_pairs(a: &[(ItemId, f64)], b: &[(ItemId, f64)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && same(x.1, y.1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn indexed_analyses_match_the_references_and_the_oracles(
        (data, v, u) in random_input(),
        support in 0.0f64..0.4,
        engine in 0usize..3,
        max_len in 1usize..4,
        threshold in 0.0f64..0.3,
        epsilon in 0.0f64..0.1,
    ) {
        let explorer = DivExplorer::new(support).with_algorithm(ENGINES[engine]);
        for (kind, report, oracle) in reports(&data, &v, &u, &explorer, max_len, threshold) {
            let items = |idxs: &[usize]| -> Vec<Vec<ItemId>> {
                idxs.iter().map(|&i| report.items(i).to_vec()).collect()
            };
            let mut stored = items(&(0..report.len()).collect::<Vec<_>>());
            stored.sort();
            let mut expected = oracle.stored.clone();
            expected.sort();
            prop_assert_eq!(stored, expected, "{} lattice", kind);

            for m in 0..METRICS.len() {
                // Global divergence (Eq. 8).
                let global = global_item_divergence(&report, m);
                prop_assert!(
                    same_pairs(&global, &reference::global_item_divergence(&report, m)),
                    "{} global m={}", kind, m
                );
                let brute = oracle.global(m);
                prop_assert_eq!(global.len(), brute.len(), "{} global items", kind);
                for (&(item, g), &(b_item, b)) in global.iter().zip(&brute) {
                    prop_assert_eq!(item, b_item);
                    prop_assert!((g - b).abs() <= 1e-9 * b.abs().max(1.0), "{} item {}: {} vs {}", kind, item, g, b);
                }
                for idx in 0..report.len().min(25) {
                    let target = report.items(idx);
                    let got = global_itemset_divergence(&report, target, m);
                    let want = reference::global_itemset_divergence(&report, target, m);
                    prop_assert!(
                        match (got, want) {
                            (Some(a), Some(b)) => same(a, b),
                            (a, b) => a == b,
                        },
                        "{} global itemset {:?}: {:?} vs {:?}", kind, target, got, want
                    );
                }

                // ε-pruning.
                let kept = prune_redundant(&report, m, epsilon);
                prop_assert_eq!(&kept, &reference::prune_redundant(&report, m, epsilon), "{} prune", kind);
                let kept_items: HashSet<Vec<ItemId>> = items(&kept).into_iter().collect();
                prop_assert_eq!(kept_items, oracle.pruned(m, epsilon), "{} prune oracle", kind);

                // Corrective items.
                let corrective = corrective_items(&report, m);
                prop_assert!(
                    same_corrective(&corrective, &reference::corrective_items(&report, m)),
                    "{} corrective m={}", kind, m
                );
                prop_assert!(same_corrective(&corrective, &oracle.corrective(m)), "{} corrective oracle", kind);
                for k in [0, 1, 3, corrective.len() + 2] {
                    for min_t in [None, Some(0.5)] {
                        prop_assert!(
                            same_corrective(
                                &top_corrective(&report, m, k, min_t),
                                &reference::top_corrective(&report, m, k, min_t),
                            ),
                            "{} top_corrective k={} min_t={:?}", kind, k, min_t
                        );
                    }
                }

                // Ranking and top-k.
                for order in ORDERS {
                    let full = reference::ranked(&report, m, order);
                    prop_assert_eq!(&report.ranked(m, order), &full, "{} ranked {:?}", kind, order);
                    for k in [0, 1, 5, full.len(), full.len() + 3] {
                        let top = report.top_k(m, k, order);
                        prop_assert_eq!(&top[..], &full[..k.min(full.len())], "{} top {} {:?}", kind, k, order);
                    }
                    let among: Vec<usize> = full.iter().copied().filter(|&i| kept.contains(&i)).take(4).collect();
                    prop_assert_eq!(report.top_k_among(kept.iter().copied(), m, 4, order), among);
                }
                let ranked = report.ranked(m, SortBy::Divergence);
                prop_assert_eq!(items(&ranked), oracle.ranked(m), "{} ranked oracle", kind);
            }
        }
    }

    #[test]
    fn shapley_matches_the_hash_lookup_reference(
        (data, v, u) in random_input(),
        support in 0.0f64..0.3,
    ) {
        let report = DivExplorer::new(support).explore(&data, &v, &u, &METRICS).unwrap();
        for idx in 0..report.len().min(20) {
            for m in 0..METRICS.len() {
                let target = report.items(idx);
                let got = item_contributions(&report, target, m);
                let want = reference::item_contributions(&report, target, m);
                match (&got, &want) {
                    (Ok(a), Ok(b)) => prop_assert!(same_pairs(a, b), "{:?}", target),
                    _ => prop_assert_eq!(&got, &want),
                }
            }
        }
    }

    /// Local Shapley (Eq. 5) against the brute-force oracle, which shares
    /// neither the miner nor the report: every contribution within 1e-9,
    /// and an undefined subset divergence exactly where the oracle finds
    /// one.
    #[test]
    fn shapley_matches_the_brute_force_oracle(
        (data, v, u) in random_input(),
        support in 0.0f64..0.3,
        engine in 0usize..3,
    ) {
        let report = DivExplorer::new(support)
            .with_algorithm(ENGINES[engine])
            .explore(&data, &v, &u, &METRICS)
            .unwrap();
        for idx in 0..report.len().min(20) {
            for m in 0..METRICS.len() {
                let target = report.items(idx);
                let got = item_contributions(&report, target, m);
                match (got, brute_shapley(&data, &v, &u, target, m)) {
                    (Ok(got), Some(want)) => {
                        prop_assert_eq!(got.len(), want.len());
                        for (&(item, g), &(w_item, w)) in got.iter().zip(&want) {
                            prop_assert_eq!(item, w_item);
                            prop_assert!(
                                (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                                "{:?} item {} m={}: {} vs {}", target, item, m, g, w
                            );
                        }
                    }
                    (Err(divexplorer::shapley::ShapleyError::UndefinedDivergence(_)), None) => {}
                    (got, want) => prop_assert!(false, "{:?} m={}: {:?} vs {:?}", target, m, got, want),
                }
            }
        }
    }
}
