//! Per-transaction payloads fused into support counting.
//!
//! Algorithm 1 of the DivExplorer paper augments frequent-pattern mining so
//! that the `(T, F, ⊥)` outcome tallies of every itemset are computed during
//! the mining pass itself. This module abstracts that mechanism: a
//! [`Payload`] is any commutative-monoid value attached to each transaction;
//! miners merge the payloads of the covering transactions of every itemset
//! they count.

use crate::masks::MaskSpec;

/// A commutative monoid merged alongside support counting.
///
/// Laws (relied upon by the miners, checked by property tests):
/// - `zero` is an identity: `merge(x, zero()) == x`;
/// - `merge` is commutative and associative, so the merge order chosen by a
///   particular algorithm (horizontal scan, FP-tree accumulation, tid-list
///   intersection) does not affect the result.
///
/// # Class-mask lowering
///
/// Payloads whose aggregate is a vector of *class counts* ("how many
/// covering transactions fall into class `c`") can additionally opt into
/// the popcount counting path of [`crate::dense`] by overriding the three
/// mask hooks. The contract, checked by differential property tests:
///
/// - `mask_spec(payloads)` returns `Some(spec)` only if every payload in
///   the slice is exactly the indicator of its class memberships — i.e.
///   `decode_classes(spec, class_counts_of(tids))` equals the `merge` of
///   `payloads[t]` over `tids`, for every subset `tids`.
/// - `encode_classes` calls `set(c)` once for each class the (single
///   transaction) payload belongs to.
/// - `decode_classes` rebuilds the aggregate from per-class counts.
///
/// The default `mask_spec` returns `None`: the payload only supports
/// merge-based counting, and mask-driven engines fall back transparently.
pub trait Payload: Clone {
    /// The identity element.
    fn zero() -> Self;
    /// Merges `other` into `self`.
    fn merge(&mut self, other: &Self);

    /// Describes how a run's payloads lower into counting classes, or
    /// `None` (the default) if they don't.
    fn mask_spec(payloads: &[Self]) -> Option<MaskSpec> {
        let _ = payloads;
        None
    }

    /// Calls `set(class)` for every class this per-transaction payload
    /// belongs to. Only invoked when [`Payload::mask_spec`] returned
    /// `Some` for the run.
    fn encode_classes(&self, spec: &MaskSpec, set: &mut dyn FnMut(usize)) {
        let _ = (spec, set);
        unreachable!("encode_classes called on a payload without a mask spec");
    }

    /// Rebuilds an aggregate payload from per-class counts. Only invoked
    /// when [`Payload::mask_spec`] returned `Some` for the run.
    fn decode_classes(spec: &MaskSpec, counts: &[u64]) -> Self {
        let _ = (spec, counts);
        unreachable!("decode_classes called on a payload without a mask spec");
    }
}

/// The trivial payload: plain frequent-itemset mining.
impl Payload for () {
    fn zero() -> Self {}
    fn merge(&mut self, _other: &Self) {}

    /// Lowers to zero classes: support is the only counter.
    fn mask_spec(_payloads: &[Self]) -> Option<MaskSpec> {
        Some(MaskSpec::leaf(0))
    }
    fn encode_classes(&self, _spec: &MaskSpec, _set: &mut dyn FnMut(usize)) {}
    fn decode_classes(_spec: &MaskSpec, _counts: &[u64]) -> Self {}
}

/// A payload carrying a single `u64` counter (e.g. a weighted support).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct CountPayload(pub u64);

impl Payload for CountPayload {
    fn zero() -> Self {
        CountPayload(0)
    }
    fn merge(&mut self, other: &Self) {
        self.0 += other.0;
    }

    /// Lowers each *bit plane* of the value to a class: class `k` holds
    /// the transactions whose value has bit `k` set, so the aggregate sum
    /// is `Σ_k counts[k] << k` — exact for any values, since addition
    /// distributes over the binary decomposition.
    fn mask_spec(payloads: &[Self]) -> Option<MaskSpec> {
        let max = payloads.iter().map(|p| p.0).max().unwrap_or(0);
        Some(MaskSpec::leaf(64 - max.leading_zeros() as usize))
    }
    fn encode_classes(&self, spec: &MaskSpec, set: &mut dyn FnMut(usize)) {
        for k in 0..spec.n_classes() {
            if self.0 >> k & 1 == 1 {
                set(k);
            }
        }
    }
    fn decode_classes(_spec: &MaskSpec, counts: &[u64]) -> Self {
        CountPayload(counts.iter().enumerate().map(|(k, &c)| c << k).sum())
    }
}

/// Pairs compose: merged component-wise.
impl<A: Payload, B: Payload> Payload for (A, B) {
    fn zero() -> Self {
        (A::zero(), B::zero())
    }
    fn merge(&mut self, other: &Self) {
        self.0.merge(&other.0);
        self.1.merge(&other.1);
    }

    /// Maskable iff both components are; class ranges are concatenated.
    fn mask_spec(payloads: &[Self]) -> Option<MaskSpec> {
        let a: Vec<A> = payloads.iter().map(|p| p.0.clone()).collect();
        let b: Vec<B> = payloads.iter().map(|p| p.1.clone()).collect();
        Some(MaskSpec::composite(vec![
            A::mask_spec(&a)?,
            B::mask_spec(&b)?,
        ]))
    }
    fn encode_classes(&self, spec: &MaskSpec, set: &mut dyn FnMut(usize)) {
        let children = spec.children();
        self.0.encode_classes(&children[0], set);
        let offset = children[0].n_classes();
        self.1
            .encode_classes(&children[1], &mut |c| set(offset + c));
    }
    fn decode_classes(spec: &MaskSpec, counts: &[u64]) -> Self {
        let children = spec.children();
        let split = children[0].n_classes();
        (
            A::decode_classes(&children[0], &counts[..split]),
            B::decode_classes(&children[1], &counts[split..]),
        )
    }
}

/// Fixed-size arrays compose: merged element-wise.
impl<P: Payload, const N: usize> Payload for [P; N] {
    fn zero() -> Self {
        std::array::from_fn(|_| P::zero())
    }
    fn merge(&mut self, other: &Self) {
        for (a, b) in self.iter_mut().zip(other.iter()) {
            a.merge(b);
        }
    }

    /// Maskable iff every element column is; class ranges are
    /// concatenated in element order.
    fn mask_spec(payloads: &[Self]) -> Option<MaskSpec> {
        let mut children = Vec::with_capacity(N);
        for i in 0..N {
            let column: Vec<P> = payloads.iter().map(|p| p[i].clone()).collect();
            children.push(P::mask_spec(&column)?);
        }
        Some(MaskSpec::composite(children))
    }
    fn encode_classes(&self, spec: &MaskSpec, set: &mut dyn FnMut(usize)) {
        let mut offset = 0;
        for (p, child) in self.iter().zip(spec.children()) {
            let base = offset;
            p.encode_classes(child, &mut |c| set(base + c));
            offset += child.n_classes();
        }
    }
    fn decode_classes(spec: &MaskSpec, counts: &[u64]) -> Self {
        let children = spec.children();
        let mut offsets = [0usize; N];
        let mut offset = 0;
        for i in 0..N {
            offsets[i] = offset;
            offset += children[i].n_classes();
        }
        std::array::from_fn(|i| {
            let lo = offsets[i];
            P::decode_classes(&children[i], &counts[lo..lo + children[i].n_classes()])
        })
    }
}

/// Merges all payloads of an iterator starting from the identity.
pub fn merge_all<P: Payload>(iter: impl IntoIterator<Item = P>) -> P {
    let mut acc = P::zero();
    for p in iter {
        acc.merge(&p);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::masks::ClassMasks;

    #[test]
    fn count_payload_is_a_monoid() {
        let mut a = CountPayload(3);
        a.merge(&CountPayload::zero());
        assert_eq!(a, CountPayload(3));
        a.merge(&CountPayload(4));
        assert_eq!(a, CountPayload(7));
    }

    #[test]
    fn pair_payload_merges_componentwise() {
        let mut p = (CountPayload(1), CountPayload(10));
        p.merge(&(CountPayload(2), CountPayload(20)));
        assert_eq!(p, (CountPayload(3), CountPayload(30)));
    }

    #[test]
    fn array_payload_merges_elementwise() {
        let mut p = [CountPayload(1), CountPayload(2)];
        p.merge(&[CountPayload(10), CountPayload(20)]);
        assert_eq!(p, [CountPayload(11), CountPayload(22)]);
    }

    #[test]
    fn merge_all_folds_from_zero() {
        let total = merge_all((1..=4).map(CountPayload));
        assert_eq!(total, CountPayload(10));
    }

    #[test]
    fn composite_payloads_round_trip_through_class_counts() {
        // A pair of (scalar, 2-array) payloads: 3 leaf specs concatenated.
        type Composite = (CountPayload, [CountPayload; 2]);
        let payloads: Vec<Composite> = (0..12u64)
            .map(|t| (CountPayload(t % 3), [CountPayload(t % 2), CountPayload(1)]))
            .collect();
        let masks = ClassMasks::build(&payloads).expect("composite is maskable");
        let rows = [0usize, 3, 5, 8, 11];
        // The tally takes layout positions, sorted.
        let mut positions: Vec<u32> = rows.iter().map(|&r| masks.position(r) as u32).collect();
        positions.sort_unstable();
        let mut counts = vec![0u64; masks.n_classes()];
        masks.count_sparse(&positions, &mut counts);
        let decoded: Composite = masks.decode(&counts);
        let expected = merge_all(rows.iter().map(|&r| payloads[r]));
        assert_eq!(decoded, expected);
    }

    #[test]
    fn unmaskable_component_disables_the_whole_composite() {
        #[derive(Clone)]
        struct Opaque;
        impl Payload for Opaque {
            fn zero() -> Self {
                Opaque
            }
            fn merge(&mut self, _other: &Self) {}
        }
        let payloads = vec![(CountPayload(1), Opaque), (CountPayload(2), Opaque)];
        assert!(<(CountPayload, Opaque)>::mask_spec(&payloads).is_none());
    }
}
