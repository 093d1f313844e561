//! Class-mask lowering: payload aggregation as popcounts over a
//! class-sorted row layout.
//!
//! Algorithm 1 of the paper fuses the `(T, F, ⊥)` outcome tallies into
//! mining, and the merge-based miners realize that fusion as one
//! [`Payload::merge`] call per covering transaction. For payloads whose
//! aggregate is really a handful of *class counts* — "how many covering
//! rows fall into class `c`" — there is a much cheaper realization.
//!
//! A row's *class signature* is the set of classes it belongs to. A
//! DivExplorer row's classes depend only on its `(v, u)` pair, so a
//! dataset has at most four signatures however many metrics a run
//! tallies. [`ClassMasks`] orders the rows stably by signature, once per
//! run, and the counting engines index every tidset by *layout
//! position*. Each signature then owns one contiguous run of positions —
//! a *segment* — and a class count is the popcount of the tidset over
//! the segments carrying that class: one popcount per tidset word in
//! total, for support and every class at once. Sorted tid-lists count by
//! one merge walk against the segment bounds.
//!
//! The lowering is described by a [`MaskSpec`] (how many classes, and how
//! composite payloads nest) and materialized as [`ClassMasks`]. A payload
//! type opts in by overriding the `mask_spec` / `encode_classes` /
//! `decode_classes` hooks on [`Payload`]; types that keep the default
//! (`mask_spec` → `None`) simply fall back to merge-based counting in
//! [`crate::dense`].

use std::collections::BTreeMap;

use crate::bitset::Bitset;
use crate::kernels::{self, Kernel};
use crate::payload::Payload;

/// Shape of a payload type's lowering into counting classes.
///
/// A *leaf* spec says the payload decomposes into `n_classes` flat
/// counters. A *composite* spec concatenates the class ranges of its
/// children in order — how tuple and array payloads compose.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MaskSpec {
    n_classes: usize,
    children: Vec<MaskSpec>,
}

impl MaskSpec {
    /// A flat spec with `n_classes` counting classes.
    pub fn leaf(n_classes: usize) -> Self {
        MaskSpec {
            n_classes,
            children: Vec::new(),
        }
    }

    /// A composite spec: children own consecutive class ranges.
    pub fn composite(children: Vec<MaskSpec>) -> Self {
        MaskSpec {
            n_classes: children.iter().map(|c| c.n_classes).sum(),
            children,
        }
    }

    /// Total number of counting classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Component specs of a composite payload (empty for leaves).
    pub fn children(&self) -> &[MaskSpec] {
        &self.children
    }
}

/// The class-sorted row layout of one run's payloads.
///
/// Rows are stably ordered by class signature; `position(row)` says where
/// a row sits, [`ClassMasks::rows`] lists the rows in layout order, and
/// the segment table holds each signature's run of positions with its
/// classes. Tidsets handed to the counting methods are indexed by layout
/// position. Built once per mining run; read-only afterwards, so the
/// parallel engine shares one instance across all workers.
#[derive(Debug, Clone)]
pub struct ClassMasks {
    spec: MaskSpec,
    position: Vec<u32>,
    rows: Vec<u32>,
    /// Segment `i` holds positions `bounds[i]..bounds[i + 1]`.
    bounds: Vec<usize>,
    /// Segment `i`'s classes are `classes[class_bounds[i]..class_bounds[i + 1]]`.
    class_bounds: Vec<usize>,
    classes: Vec<u32>,
    /// Words one dense tally reads ([`kernels::segment_words`]).
    tally_words: u64,
}

impl ClassMasks {
    /// Lowers a run's per-transaction payloads into the class layout.
    ///
    /// Returns `None` when the payload type does not support the
    /// lowering, or when these particular values don't (e.g. a counts
    /// payload where some per-row tally exceeds 1 and therefore is not
    /// a class membership).
    pub fn build<P: Payload>(payloads: &[P]) -> Option<ClassMasks> {
        let spec = P::mask_spec(payloads)?;
        let _span = obs::span("fpm.layout.build");
        // Intern each row's signature; the map's order is the layout's
        // segment order.
        let mut ids: BTreeMap<Vec<u32>, u32> = BTreeMap::new();
        let mut row_sig: Vec<u32> = Vec::with_capacity(payloads.len());
        let mut sig: Vec<u32> = Vec::new();
        for p in payloads {
            sig.clear();
            p.encode_classes(&spec, &mut |class| sig.push(class as u32));
            sig.sort_unstable();
            sig.dedup();
            let id = match ids.get(sig.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = ids.len() as u32;
                    ids.insert(sig.clone(), id);
                    id
                }
            };
            row_sig.push(id);
        }
        // Counting sort by signature rank: stable, so rows keep their
        // order inside a segment.
        let mut sizes = vec![0usize; ids.len()];
        for &id in &row_sig {
            sizes[id as usize] += 1;
        }
        let mut next_pos = vec![0usize; ids.len()];
        let mut bounds = vec![0];
        let mut class_bounds = vec![0];
        let mut classes = Vec::new();
        for (sig, &id) in &ids {
            let start = *bounds.last().expect("bounds start at 0");
            next_pos[id as usize] = start;
            bounds.push(start + sizes[id as usize]);
            classes.extend_from_slice(sig);
            class_bounds.push(classes.len());
        }
        let mut position = vec![0u32; payloads.len()];
        let mut rows = vec![0u32; payloads.len()];
        for (row, &id) in row_sig.iter().enumerate() {
            let pos = next_pos[id as usize];
            next_pos[id as usize] += 1;
            position[row] = pos as u32;
            rows[pos] = row as u32;
        }
        let tally_words = kernels::segment_words(&bounds);
        obs::counter("fpm.layout.segments", ids.len() as u64);
        Some(ClassMasks {
            spec,
            position,
            rows,
            bounds,
            class_bounds,
            classes,
            tally_words,
        })
    }

    /// The lowering shape this layout realizes.
    pub fn spec(&self) -> &MaskSpec {
        &self.spec
    }

    /// Number of counting classes.
    pub fn n_classes(&self) -> usize {
        self.spec.n_classes
    }

    /// Number of transactions the layout covers.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Layout position of `row`.
    pub fn position(&self, row: usize) -> usize {
        self.position[row] as usize
    }

    /// The rows in layout order: `rows()[position(r)] == r`.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Number of segments (distinct class signatures).
    pub fn n_segments(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Words one dense tally reads ([`ClassMasks::count_dense`] per
    /// tidset, [`ClassMasks::count_and`] per operand): every word once,
    /// plus once more for each word a segment bound splits.
    pub fn tally_words(&self) -> u64 {
        self.tally_words
    }

    /// Tallies a dense tidset (indexed by layout position): overwrites
    /// `counts[c]` with the number of its rows in class `c` and returns
    /// its support. One popcount per word, under the process-selected
    /// [`Kernel`].
    pub fn count_dense(&self, tids: &Bitset, counts: &mut [u64]) -> u64 {
        self.count_dense_with(kernels::selected(), tids, counts)
    }

    /// [`ClassMasks::count_dense`] under an explicit [`Kernel`] — how
    /// tests and benches pin a kernel without touching process state.
    pub fn count_dense_with(&self, kernel: Kernel, tids: &Bitset, counts: &mut [u64]) -> u64 {
        self.check_universe(tids);
        counts.fill(0);
        let mut support = 0;
        kernel.count_segments(tids.words(), &self.bounds, |segment, n| {
            self.credit(segment, n, counts, &mut support)
        });
        support
    }

    /// Tallies `a ∩ b` without storing it — the fused count of a DFS
    /// leaf. Same result as [`ClassMasks::count_dense`] on the
    /// intersection.
    pub fn count_and(&self, a: &Bitset, b: &Bitset, counts: &mut [u64]) -> u64 {
        self.count_and_with(kernels::selected(), a, b, counts)
    }

    /// [`ClassMasks::count_and`] under an explicit [`Kernel`].
    pub fn count_and_with(
        &self,
        kernel: Kernel,
        a: &Bitset,
        b: &Bitset,
        counts: &mut [u64],
    ) -> u64 {
        self.check_universe(a);
        self.check_universe(b);
        counts.fill(0);
        let mut support = 0;
        kernel.and_count_segments(a.words(), b.words(), &self.bounds, |segment, n| {
            self.credit(segment, n, counts, &mut support)
        });
        support
    }

    /// Tallies a sorted list of layout positions: overwrites `counts` and
    /// returns the support (the list's length).
    pub fn count_sparse(&self, positions: &[u32], counts: &mut [u64]) -> u64 {
        counts.fill(0);
        self.walk_sparse(positions, |class, n| counts[class] += n);
        positions.len() as u64
    }

    /// Subtracts the per-class membership of `positions` from `counts` —
    /// the dEclat step: `counts(child) = counts(parent) − counts(diffset)`.
    pub fn subtract_sparse(&self, positions: &[u32], counts: &mut [u64]) {
        self.walk_sparse(positions, |class, n| counts[class] -= n);
    }

    /// Rebuilds an aggregate payload from per-class counts.
    pub fn decode<P: Payload>(&self, counts: &[u64]) -> P {
        P::decode_classes(&self.spec, counts)
    }

    fn check_universe(&self, tids: &Bitset) {
        assert_eq!(
            tids.n_words(),
            self.rows.len().div_ceil(64),
            "tidset word length must match the layout's universe"
        );
    }

    fn classes_of(&self, segment: usize) -> &[u32] {
        &self.classes[self.class_bounds[segment]..self.class_bounds[segment + 1]]
    }

    /// Adds a segment's count `n` to the support and to its classes.
    #[inline]
    fn credit(&self, segment: usize, n: u64, counts: &mut [u64], support: &mut u64) {
        debug_assert_eq!(counts.len(), self.n_classes());
        *support += n;
        for &class in self.classes_of(segment) {
            counts[class as usize] += n;
        }
    }

    /// One merge walk of a sorted position list against the segment
    /// bounds, calling `credit(class, n)` for each class of a segment
    /// holding `n > 0` of the positions.
    fn walk_sparse(&self, positions: &[u32], mut credit: impl FnMut(usize, u64)) {
        debug_assert!(positions.is_sorted(), "positions must be sorted");
        let mut rest = positions;
        for (segment, &end) in self.bounds[1..].iter().enumerate() {
            if rest.is_empty() {
                break;
            }
            let n = rest.partition_point(|&p| (p as usize) < end);
            if n > 0 {
                for &class in self.classes_of(segment) {
                    credit(class as usize, n as u64);
                }
            }
            rest = &rest[n..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::CountPayload;
    use crate::vertical;

    /// Sorted layout positions of `rows`.
    fn positions(masks: &ClassMasks, rows: impl IntoIterator<Item = usize>) -> Vec<u32> {
        let mut out: Vec<u32> = rows.into_iter().map(|r| masks.position(r) as u32).collect();
        out.sort_unstable();
        out
    }

    /// Dense tidset over layout positions holding `rows`.
    fn bitset(masks: &ClassMasks, rows: impl IntoIterator<Item = usize>) -> Bitset {
        let mut bs = Bitset::zeros(masks.n_rows());
        for r in rows {
            bs.set(masks.position(r));
        }
        bs
    }

    /// Per-row reference tally, in row order.
    fn reference<P: Payload>(payloads: &[P], masks: &ClassMasks, rows: &[usize]) -> Vec<u64> {
        let mut counts = vec![0u64; masks.n_classes()];
        for &r in rows {
            payloads[r].encode_classes(masks.spec(), &mut |c| counts[c] += 1);
        }
        counts
    }

    #[test]
    fn composite_spec_concatenates_class_ranges() {
        let spec = MaskSpec::composite(vec![MaskSpec::leaf(3), MaskSpec::leaf(2)]);
        assert_eq!(spec.n_classes(), 5);
        assert_eq!(spec.children().len(), 2);
    }

    /// The layout is a permutation, stable inside each segment, and each
    /// segment's rows carry exactly the segment's classes.
    #[test]
    fn layout_is_a_stable_sort_by_class_signature() {
        let payloads: Vec<CountPayload> = (0..100u64).map(|t| CountPayload(t * 7 % 6)).collect();
        let masks = ClassMasks::build(&payloads).unwrap();
        assert_eq!(masks.n_segments(), 6);
        let mut seen = vec![false; 100];
        for (i, w) in masks.bounds.windows(2).enumerate() {
            let (rows, classes) = (&masks.rows()[w[0]..w[1]], masks.classes_of(i));
            assert!(
                rows.windows(2).all(|w| w[0] < w[1]),
                "stable within a segment"
            );
            for &r in rows {
                assert!(!seen[r as usize]);
                seen[r as usize] = true;
                let mut sig = Vec::new();
                payloads[r as usize].encode_classes(masks.spec(), &mut |c| sig.push(c as u32));
                assert_eq!(sig, classes);
            }
        }
        assert!(seen.into_iter().all(|s| s));
        for r in 0..100 {
            assert_eq!(masks.rows()[masks.position(r)] as usize, r);
        }
    }

    #[test]
    fn count_payload_round_trips_through_masks() {
        // Values 0..6 need 3 bit-plane classes; the class counts of any
        // subset must decode to the subset's payload sum.
        let payloads: Vec<CountPayload> = (0..10u64).map(|t| CountPayload(t % 6)).collect();
        let masks = ClassMasks::build(&payloads).expect("CountPayload is maskable");
        assert_eq!(masks.n_classes(), 3);

        let rows = [1u32, 4, 7, 9];
        let mut counts = vec![0u64; masks.n_classes()];
        let support = masks.count_sparse(&positions(&masks, rows.map(|r| r as usize)), &mut counts);
        assert_eq!(support, 4);
        let decoded: CountPayload = masks.decode(&counts);
        assert_eq!(decoded, vertical::sum_payloads(&rows, &payloads));
    }

    #[test]
    fn dense_and_sparse_tallies_agree() {
        let payloads: Vec<CountPayload> = (0..200u64).map(|t| CountPayload(t % 4)).collect();
        let masks = ClassMasks::build(&payloads).unwrap();
        let rows: Vec<usize> = (0..200).step_by(3).collect();
        let bs = bitset(&masks, rows.iter().copied());
        let mut dense = vec![0u64; masks.n_classes()];
        let mut sparse = vec![0u64; masks.n_classes()];
        let dense_support = masks.count_dense(&bs, &mut dense);
        let sparse_support =
            masks.count_sparse(&positions(&masks, rows.iter().copied()), &mut sparse);
        assert_eq!(dense, sparse);
        assert_eq!(dense, reference(&payloads, &masks, &rows));
        assert_eq!(
            (dense_support, sparse_support),
            (rows.len() as u64, rows.len() as u64)
        );
    }

    #[test]
    fn subtract_sparse_implements_the_diffset_step() {
        let payloads: Vec<CountPayload> = (0..50u64).map(|t| CountPayload(t % 3)).collect();
        let masks = ClassMasks::build(&payloads).unwrap();
        let parent = positions(&masks, 0..50);
        let child = positions(&masks, (0..50).filter(|t| t % 5 != 0));
        let diff = positions(&masks, (0..50).step_by(5));

        let mut counts = vec![0u64; masks.n_classes()];
        masks.count_sparse(&parent, &mut counts);
        masks.subtract_sparse(&diff, &mut counts);
        let mut expected = vec![0u64; masks.n_classes()];
        masks.count_sparse(&child, &mut expected);
        assert_eq!(counts, expected);
    }

    /// The segment tally — stored and fused-AND — must equal the per-row
    /// reference for every kernel, on a ≥3-class composite spec, across
    /// tidset sizes that exercise partial blocks, trailing words and long
    /// whole-word runs, and must overwrite stale counts.
    #[test]
    fn segment_tally_matches_per_row_reference_for_every_kernel() {
        for n_rows in [8usize, 63, 64, 65, 511, 512, 513, 1000, 5000] {
            // (values % 8, values % 4) → 3 + 2 = 5 bit-plane classes.
            let payloads: Vec<(CountPayload, CountPayload)> = (0..n_rows as u64)
                .map(|t| (CountPayload(t % 8), CountPayload(t % 4)))
                .collect();
            let masks = ClassMasks::build(&payloads).unwrap();
            assert_eq!(masks.n_classes(), 5, "n_rows={n_rows}");
            let rows: Vec<usize> = (0..n_rows).filter(|t| t % 3 != 1).collect();
            let all: Vec<usize> = (0..n_rows).collect();
            let want = reference(&payloads, &masks, &rows);
            let tids = bitset(&masks, rows.iter().copied());
            let full = bitset(&masks, all.iter().copied());
            let split = masks.bounds[1..].iter().filter(|&&b| b % 64 != 0).count();
            assert_eq!(
                masks.tally_words(),
                (n_rows.div_ceil(64) + split - usize::from(n_rows % 64 != 0)) as u64,
                "n_rows={n_rows}"
            );
            for kernel in Kernel::ALL {
                let mut got = vec![u64::MAX; 5]; // stale: must be overwritten
                let support = masks.count_dense_with(kernel, &tids, &mut got);
                assert_eq!(got, want, "{kernel} n_rows={n_rows}");
                assert_eq!(support, rows.len() as u64, "{kernel} n_rows={n_rows}");
                let mut fused = vec![u64::MAX; 5];
                let support = masks.count_and_with(kernel, &full, &tids, &mut fused);
                assert_eq!(fused, want, "{kernel} fused n_rows={n_rows}");
                assert_eq!(support, rows.len() as u64, "{kernel} n_rows={n_rows}");
            }
        }
    }

    #[test]
    fn rows_in_no_class_count_toward_support_only() {
        // Even values of a 1-bit plane: half the rows carry no class.
        let payloads: Vec<CountPayload> = (0..130u64).map(|t| CountPayload(t % 2)).collect();
        let masks = ClassMasks::build(&payloads).unwrap();
        assert_eq!(masks.n_segments(), 2);
        let bs = bitset(&masks, 0..130);
        let mut counts = vec![0u64; 1];
        assert_eq!(masks.count_dense(&bs, &mut counts), 130);
        assert_eq!(counts, vec![65]);
    }

    #[test]
    fn unit_payload_lowers_to_zero_classes() {
        let masks = ClassMasks::build(&[(), (), ()]).expect("() is trivially maskable");
        assert_eq!(masks.n_classes(), 0);
        assert_eq!(masks.n_segments(), 1);
        let decoded: () = masks.decode(&[]);
        let () = decoded;
        let mut bs = Bitset::zeros(3);
        bs.set(0);
        bs.set(2);
        for kernel in Kernel::ALL {
            assert_eq!(masks.count_dense_with(kernel, &bs, &mut []), 2, "{kernel}");
            assert_eq!(
                masks.count_and_with(kernel, &bs, &bs, &mut []),
                2,
                "{kernel}"
            );
        }
    }

    #[test]
    fn empty_tidsets_and_layouts_count_zero() {
        let payloads: Vec<CountPayload> = (0..70u64).map(|t| CountPayload(t % 4)).collect();
        let masks = ClassMasks::build(&payloads).unwrap();
        let empty = Bitset::zeros(70);
        for kernel in Kernel::ALL {
            let mut counts = vec![7u64; 2];
            assert_eq!(
                masks.count_dense_with(kernel, &empty, &mut counts),
                0,
                "{kernel}"
            );
            assert_eq!(counts, vec![0, 0], "{kernel}: stale counts are zeroed");
        }
        let mut counts = vec![7u64; 2];
        assert_eq!(masks.count_sparse(&[], &mut counts), 0);
        assert_eq!(counts, vec![0, 0]);

        let none = ClassMasks::build::<CountPayload>(&[]).unwrap();
        assert_eq!((none.n_rows(), none.n_segments()), (0, 0));
        assert_eq!(none.count_dense(&Bitset::zeros(0), &mut []), 0);
    }
}
