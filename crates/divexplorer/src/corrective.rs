//! Corrective items (§4.2, Definition 4.2): items that *reduce* the absolute
//! divergence when added to a pattern.
//!
//! Divergence is not monotone over the itemset lattice, so a pruned search
//! would never see these; finding them requires the exhaustive exploration
//! DivExplorer performs.

use std::cmp::Ordering;

use fpm::Subset;

use crate::item::ItemId;
use crate::report::DivergenceReport;

/// One corrective observation: adding `item` to `base` shrinks `|Δ|`.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrectiveItem {
    /// The base pattern `I` (sorted items).
    pub base: Vec<ItemId>,
    /// The corrective item `α ∉ I`.
    pub item: ItemId,
    /// `Δ(I)`.
    pub delta_base: f64,
    /// `Δ(I ∪ {α})`.
    pub delta_extended: f64,
    /// The corrective factor `|Δ(I)| − |Δ(I ∪ {α})| > 0`.
    pub corrective_factor: f64,
    /// Welch t-statistic between the base and extended posterior rates — the
    /// significance of the corrective effect.
    pub t: f64,
}

/// Finds every corrective `(base, item)` pair among the frequent patterns of
/// the report, for metric `m`.
///
/// Iterates over the extended patterns `K = I ∪ {α}` (every frequent pattern
/// of length ≥ 1) and compares each against its `|K|` immediate sub-patterns,
/// read from the report's immediate-subset index (frequent by closure; a
/// sub-pattern missing from a filtered report is skipped). Pairs
/// whose base or extended divergence is undefined are skipped. Results are
/// sorted by corrective factor, largest first, then by base (lexicographic)
/// and item.
pub fn corrective_items(report: &DivergenceReport, m: usize) -> Vec<CorrectiveItem> {
    let _span = obs::span("corrective.items");
    let delta = report.divergences(m);
    let mut edges = corrective_edges(report, &delta);
    edges.sort_unstable_by(|a, b| a.cmp(b, report));
    edges
        .iter()
        .map(|e| e.materialize(report, &delta, m))
        .collect()
}

/// The `k` most corrective observations, optionally requiring a minimum
/// significance `min_t` of the corrective effect: the first `k` of
/// [`corrective_items`] with `t ≥ min_t`, found by a partial selection
/// over compact edge keys, so only the winners are materialized.
pub fn top_corrective(
    report: &DivergenceReport,
    m: usize,
    k: usize,
    min_t: Option<f64>,
) -> Vec<CorrectiveItem> {
    let _span = obs::span("corrective.top");
    if k == 0 {
        return Vec::new();
    }
    let delta = report.divergences(m);
    let mut edges = corrective_edges(report, &delta);
    if let Some(min_t) = min_t {
        edges.retain(|e| e.t(report, m) >= min_t);
    }
    if k < edges.len() {
        edges.select_nth_unstable_by(k - 1, |a, b| a.cmp(b, report));
        edges.truncate(k);
    }
    edges.sort_unstable_by(|a, b| a.cmp(b, report));
    edges
        .iter()
        .map(|e| e.materialize(report, &delta, m))
        .collect()
}

/// One corrective lattice edge in compact form: `items(ext)[pos]` added
/// to pattern `base` shrinks `|Δ|` by `factor`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    factor: f64,
    base: u32,
    ext: u32,
    pos: u32,
}

impl Edge {
    fn item(&self, report: &DivergenceReport) -> ItemId {
        report.items(self.ext as usize)[self.pos as usize]
    }

    /// The result order: factor descending, then base lexicographic, then
    /// item — with the extended pattern's index last, so duplicated
    /// patterns keep their scan order.
    fn cmp(&self, other: &Edge, report: &DivergenceReport) -> Ordering {
        other
            .factor
            .partial_cmp(&self.factor)
            .unwrap()
            .then_with(|| {
                report
                    .items(self.base as usize)
                    .cmp(report.items(other.base as usize))
            })
            .then_with(|| self.item(report).cmp(&other.item(report)))
            .then_with(|| self.ext.cmp(&other.ext))
    }

    /// Welch t between the base and extended posterior rates.
    fn t(&self, report: &DivergenceReport, m: usize) -> f64 {
        let p_base = report.counts(self.base as usize).get(m).posterior();
        let p_ext = report.counts(self.ext as usize).get(m).posterior();
        p_base.welch_t(&p_ext)
    }

    fn materialize(&self, report: &DivergenceReport, delta: &[f64], m: usize) -> CorrectiveItem {
        CorrectiveItem {
            base: report.items(self.base as usize).to_vec(),
            item: self.item(report),
            delta_base: delta[self.base as usize],
            delta_extended: delta[self.ext as usize],
            corrective_factor: self.factor,
            t: self.t(report, m),
        }
    }
}

/// Every corrective edge of the lattice, in scan order (extended pattern,
/// then item position). `delta` holds every pattern's divergence.
fn corrective_edges(report: &DivergenceReport, delta: &[f64]) -> Vec<Edge> {
    let mut edges = Vec::new();
    for (ext, &delta_ext) in delta.iter().enumerate() {
        if delta_ext.is_nan() {
            continue;
        }
        for (pos, sub) in report.subsets(ext).enumerate() {
            // Correcting the empty pattern (Δ=0) is impossible:
            // |Δ({α})| ≥ 0 = |Δ(∅)|. An absent base only happens in a
            // report that is not subset-closed (e.g. filtered); skip it.
            let Subset::Id(base) = sub else { continue };
            let delta_base = delta[base];
            if delta_base.is_nan() {
                continue;
            }
            let factor = delta_base.abs() - delta_ext.abs();
            if factor > 0.0 {
                edges.push(Edge {
                    factor,
                    base: base as u32,
                    ext: ext as u32,
                    pos: pos as u32,
                });
            }
        }
    }
    obs::counter("corrective.edges", edges.len() as u64);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::explorer::DivExplorer;
    use crate::Metric;

    /// g=a concentrates the false positives (Δ = +0.25), but within
    /// g=a ∧ h=y the FPR drops back toward the overall rate: h=y corrects
    /// g=a with factor 0.125.
    fn fixture() -> (crate::DiscreteDataset, Vec<bool>, Vec<bool>) {
        let g = [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1u16];
        let h = [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1u16];
        let mut b = DatasetBuilder::new();
        b.categorical("g", &["a", "b"], &g);
        b.categorical("h", &["x", "y"], &h);
        let data = b.build().unwrap();
        let v = vec![false; 16];
        let u = vec![
            true, true, true, false, true, false, true, false, // g=a: 5 FP / 8
            true, false, false, false, false, false, false, false, // g=b: 1 FP / 8
        ];
        (data, v, u)
    }

    #[test]
    fn detects_the_planted_corrective_item() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let ga = report.schema().item_by_name("g", "a").unwrap();
        let hy = report.schema().item_by_name("h", "y").unwrap();
        let found = corrective_items(&report, 0);
        let hit = found
            .iter()
            .find(|c| c.base == vec![ga] && c.item == hy)
            .expect("h=y should correct g=a");
        // Overall FPR = 6/16. Δ(g=a) = 5/8 − 6/16 = 0.25;
        // Δ(g=a, h=y) = 1/4 − 6/16 = −0.125; factor = 0.25 − 0.125.
        assert!((hit.delta_base - 0.25).abs() < 1e-12);
        assert!((hit.delta_extended + 0.125).abs() < 1e-12);
        assert!((hit.corrective_factor - 0.125).abs() < 1e-12);
        assert!(hit.t > 0.0);
    }

    #[test]
    fn every_result_satisfies_the_definition() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        for c in corrective_items(&report, 0) {
            assert!(c.delta_extended.abs() < c.delta_base.abs());
            assert!(c.corrective_factor > 0.0);
            assert!(
                (c.corrective_factor - (c.delta_base.abs() - c.delta_extended.abs())).abs() < 1e-12
            );
            assert!(!c.base.contains(&c.item));
        }
    }

    #[test]
    fn results_are_sorted_by_factor() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let found = corrective_items(&report, 0);
        assert!(found
            .windows(2)
            .all(|w| w[0].corrective_factor >= w[1].corrective_factor));
    }

    #[test]
    fn top_corrective_filters_by_t() {
        let (data, v, u) = fixture();
        let report = DivExplorer::new(0.1)
            .explore(&data, &v, &u, &[Metric::FalsePositiveRate])
            .unwrap();
        let all = top_corrective(&report, 0, 100, None);
        let strict = top_corrective(&report, 0, 100, Some(f64::INFINITY));
        assert!(strict.is_empty());
        assert!(!all.is_empty());
        let top1 = top_corrective(&report, 0, 1, None);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0], all[0]);
    }
}
