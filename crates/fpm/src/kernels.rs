//! Runtime-dispatched AND+popcount kernels behind every tally.
//!
//! All engines in this crate reduce the paper's `(T, F, ⊥)` tallies to
//! popcounts of tidsets and their intersections; this module owns that
//! inner loop so the bit-identical contract lives in exactly one place:
//!
//! - [`Kernel::count`] / [`Kernel::and_count`] — population count of a
//!   word buffer / of an intersection, without materializing it.
//! - [`Kernel::count_segments`] / [`Kernel::and_count_segments`] — the
//!   same over consecutive *bit ranges* (segments) of one buffer, one
//!   count per segment. One pass takes the prefix popcount at each
//!   segment bound: the runs of whole words between bounds go through
//!   the kernel's wide body, and a word a bound splits is masked. This
//!   is the tally of [`crate::masks::ClassMasks`], whose
//!   class-sorted row layout turns every class count into segment
//!   counts. The SIMD body is entered once per call, not once per
//!   segment, so its split words compile to hardware popcounts too and
//!   short tidsets pay no per-segment dispatch.
//!
//! Three implementations are selectable: `Scalar` (the reference
//! word-by-word zip), `Unrolled` (8×u64 chunks with independent
//! accumulators plus a scalar tail), and `Simd` (AVX2 256-bit loads/ANDs
//! with hardware popcounts on `x86_64`, falling back to `Unrolled`
//! elsewhere or when the CPU lacks `avx2`/`popcnt`). [`selected`]
//! resolves the process-wide choice once — best available, overridable
//! via the `FPM_KERNEL` environment variable (`scalar` / `unrolled` /
//! `simd`) — and every engine records it in its obs counters.
//!
//! Every kernel reads exactly the words `[0, len)` of its inputs (full
//! 8-word blocks plus a scalar tail), so odd lengths and trailing-word
//! masks are handled identically by all three and none can read out of
//! bounds. [`AlignedWords`] provides 64-byte-aligned backing storage so
//! the wide loads of full blocks never split a cache line.

use std::sync::OnceLock;

/// Words per 64-byte cache line; the kernels' block size.
pub const BLOCK_WORDS: usize = 8;

/// One 64-byte-aligned block of eight words.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy, Default)]
struct Block([u64; BLOCK_WORDS]);

/// A growable `u64` buffer whose storage is 64-byte aligned.
///
/// Backing store for [`crate::bitset::Bitset`] words and the dense
/// engine's buffer pool. The buffer rounds its capacity up to whole
/// [`Block`]s; the logical length is tracked in words, and padding words
/// past `len` inside the last block are never observable through
/// [`AlignedWords::as_slice`].
#[derive(Debug, Clone, Default)]
pub struct AlignedWords {
    blocks: Vec<Block>,
    len: usize,
}

impl AlignedWords {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An all-zero buffer of `n_words` words.
    pub fn zeroed(n_words: usize) -> Self {
        AlignedWords {
            blocks: vec![Block::default(); n_words.div_ceil(BLOCK_WORDS)],
            len: n_words,
        }
    }

    /// Copies a word slice into fresh aligned storage.
    pub fn from_slice(words: &[u64]) -> Self {
        let mut out = Self::zeroed(words.len());
        out.as_mut_slice().copy_from_slice(words);
        out
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the buffer holds no words.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The words as a slice (exactly `len()` long; padding is hidden).
    pub fn as_slice(&self) -> &[u64] {
        // Sound: `Block` is `repr(C)` over `[u64; 8]`, so `blocks` is a
        // contiguous array of `blocks.len() * 8 >= len` u64s.
        unsafe { std::slice::from_raw_parts(self.blocks.as_ptr() as *const u64, self.len) }
    }

    /// The words as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        unsafe { std::slice::from_raw_parts_mut(self.blocks.as_mut_ptr() as *mut u64, self.len) }
    }

    /// Empties the buffer, keeping its capacity for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Resizes to `n_words`, zero-filling any newly exposed words (both
    /// grown blocks and recycled padding).
    pub fn resize_zeroed(&mut self, n_words: usize) {
        self.blocks
            .resize(n_words.div_ceil(BLOCK_WORDS), Block::default());
        let old = self.len;
        self.len = n_words;
        if n_words > old {
            self.as_mut_slice()[old..].fill(0);
        }
    }
}

impl From<Vec<u64>> for AlignedWords {
    fn from(words: Vec<u64>) -> Self {
        Self::from_slice(&words)
    }
}

impl PartialEq for AlignedWords {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for AlignedWords {}

/// One AND+popcount implementation. All variants compute bit-identical
/// results; they differ only in instruction selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Word-by-word zip — the differential-testing reference.
    Scalar,
    /// 8×u64 blocks with independent accumulators plus a scalar tail;
    /// autovectorizes on any target.
    Unrolled,
    /// AVX2 256-bit loads and ANDs with hardware popcounts. Requires
    /// `x86_64` with `avx2` + `popcnt`; transparently executes as
    /// [`Kernel::Unrolled`] anywhere else, so calling it is always safe.
    Simd,
}

impl Kernel {
    /// Every kernel, reference first.
    pub const ALL: [Kernel; 3] = [Kernel::Scalar, Kernel::Unrolled, Kernel::Simd];

    /// Stable lower-case name (`FPM_KERNEL` values, counter suffixes,
    /// RunReport `kernel` field).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Unrolled => "unrolled",
            Kernel::Simd => "simd",
        }
    }

    /// Parses a [`Kernel::name`] back.
    pub fn from_name(name: &str) -> Option<Kernel> {
        match name {
            "scalar" => Some(Kernel::Scalar),
            "unrolled" => Some(Kernel::Unrolled),
            "simd" => Some(Kernel::Simd),
            _ => None,
        }
    }

    /// True iff this kernel runs its own code path on this machine
    /// (rather than falling back to another variant).
    pub fn available(self) -> bool {
        match self {
            Kernel::Scalar | Kernel::Unrolled => true,
            Kernel::Simd => simd_available(),
        }
    }

    /// Obs counter bumped once per engine run selecting this kernel.
    pub fn selected_counter(self) -> &'static str {
        match self {
            Kernel::Scalar => "fpm.kernel.selected.scalar",
            Kernel::Unrolled => "fpm.kernel.selected.unrolled",
            Kernel::Simd => "fpm.kernel.selected.simd",
        }
    }

    /// Obs counter accumulating words ANDed through this kernel.
    pub fn words_counter(self) -> &'static str {
        match self {
            Kernel::Scalar => "fpm.kernel.words_anded.scalar",
            Kernel::Unrolled => "fpm.kernel.words_anded.unrolled",
            Kernel::Simd => "fpm.kernel.words_anded.simd",
        }
    }

    /// Population count of `words`.
    pub fn count(self, words: &[u64]) -> u64 {
        match self {
            Kernel::Scalar => words.iter().map(|w| w.count_ones() as u64).sum(),
            Kernel::Unrolled => unrolled::count(words),
            Kernel::Simd => {
                #[cfg(target_arch = "x86_64")]
                if simd_available() {
                    // Safety: avx2+popcnt presence just checked.
                    return unsafe { avx2::count(words) };
                }
                unrolled::count(words)
            }
        }
    }

    /// Popcount of `a & b` without materializing the intersection.
    ///
    /// Both slices must have equal length (callers enforce the bitset
    /// universe contract; this is re-checked in debug builds).
    pub fn and_count(self, a: &[u64], b: &[u64]) -> u64 {
        debug_assert_eq!(a.len(), b.len(), "kernel operands must match");
        match self {
            Kernel::Scalar => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x & y).count_ones() as u64)
                .sum(),
            Kernel::Unrolled => unrolled::and_count(a, b),
            Kernel::Simd => {
                #[cfg(target_arch = "x86_64")]
                if simd_available() {
                    // Safety: avx2+popcnt presence just checked.
                    return unsafe { avx2::and_count(a, b) };
                }
                unrolled::and_count(a, b)
            }
        }
    }

    /// Popcounts the segments `[bounds[i], bounds[i + 1])` of `words`
    /// (bit positions, `bounds` non-decreasing), calling
    /// `credit(i, count)` once per segment in order.
    pub fn count_segments(self, words: &[u64], bounds: &[usize], credit: impl FnMut(usize, u64)) {
        #[cfg(target_arch = "x86_64")]
        if self == Kernel::Simd && simd_available() {
            // Safety: avx2+popcnt presence just checked.
            return unsafe { avx2::count_segments(words, bounds, credit) };
        }
        segments(bounds, credit, |w| words[w], |r| self.count(&words[r]))
    }

    /// [`Kernel::count_segments`] of `a & b`, without materializing the
    /// intersection.
    pub fn and_count_segments(
        self,
        a: &[u64],
        b: &[u64],
        bounds: &[usize],
        credit: impl FnMut(usize, u64),
    ) {
        debug_assert_eq!(a.len(), b.len(), "kernel operands must match");
        #[cfg(target_arch = "x86_64")]
        if self == Kernel::Simd && simd_available() {
            // Safety: avx2+popcnt presence just checked.
            return unsafe { avx2::and_count_segments(a, b, bounds, credit) };
        }
        segments(
            bounds,
            credit,
            |w| a[w] & b[w],
            |r| self.and_count(&a[r.clone()], &b[r]),
        )
    }
}

/// Words [`Kernel::count_segments`] reads for `bounds` (per operand,
/// for [`Kernel::and_count_segments`]): every word up to the last bound
/// once, plus one extra read of each word a bound splits.
pub fn segment_words(bounds: &[usize]) -> u64 {
    let mut done = 0;
    let mut words = 0;
    for &b in bounds {
        if b / 64 > done {
            words += b / 64 - done;
            done = b / 64;
        }
        if b % 64 != 0 {
            words += 1;
        }
    }
    words as u64
}

/// The segment walk behind every kernel: one pass over the words up to
/// the last bound, taking the prefix popcount at each bound and crediting
/// segment `i` with `prefix(bounds[i + 1]) − prefix(bounds[i])`.
/// `word(w)` yields word `w` of the operand, and `run` counts a range of
/// whole words.
#[inline(always)]
fn segments(
    bounds: &[usize],
    mut credit: impl FnMut(usize, u64),
    word: impl Fn(usize) -> u64,
    mut run: impl FnMut(std::ops::Range<usize>) -> u64,
) {
    let mut done = 0; // words [0, done) are in `acc`
    let mut acc = 0u64;
    let mut prev = 0u64;
    for (i, &b) in bounds.iter().enumerate() {
        let w = b / 64;
        if w > done {
            acc += run(done..w);
            done = w;
        }
        let prefix = match b % 64 {
            0 => acc,
            bit => acc + (word(w) & ((1u64 << bit) - 1)).count_ones() as u64,
        };
        if i > 0 {
            credit(i - 1, prefix - prev);
        }
        prev = prefix;
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The process-wide kernel: `FPM_KERNEL` if set to an available kernel,
/// otherwise the best available (`Simd` where supported, else
/// `Unrolled`). Resolved once; tests compare kernels by passing them
/// explicitly instead.
pub fn selected() -> Kernel {
    static SELECTED: OnceLock<Kernel> = OnceLock::new();
    *SELECTED.get_or_init(|| {
        let best = if simd_available() {
            Kernel::Simd
        } else {
            Kernel::Unrolled
        };
        match std::env::var("FPM_KERNEL") {
            Ok(name) => match Kernel::from_name(name.trim()) {
                // A forced-but-unavailable kernel (e.g. `simd` on arm)
                // would silently execute as its fallback; resolve the
                // honest name here so counters and reports never lie.
                Some(k) if k.available() => k,
                _ => best,
            },
            Err(_) => best,
        }
    })
}

/// Publishes which kernel an engine run used (pair with the per-kernel
/// words counter from [`Kernel::words_counter`]).
pub fn publish_selected(words_anded: u64) {
    let k = selected();
    obs::counter(k.selected_counter(), 1);
    obs::counter(k.words_counter(), words_anded);
}

/// 8×u64 unrolled bodies with scalar tails. Safe code; the fixed-width
/// inner loops give LLVM independent accumulators to vectorize.
mod unrolled {
    use super::BLOCK_WORDS;

    pub fn count(words: &[u64]) -> u64 {
        let mut acc = [0u64; BLOCK_WORDS];
        let mut chunks = words.chunks_exact(BLOCK_WORDS);
        for ch in chunks.by_ref() {
            for (a, w) in acc.iter_mut().zip(ch) {
                *a += w.count_ones() as u64;
            }
        }
        let mut total: u64 = acc.iter().sum();
        for w in chunks.remainder() {
            total += w.count_ones() as u64;
        }
        total
    }

    pub fn and_count(a: &[u64], b: &[u64]) -> u64 {
        let mut acc = [0u64; BLOCK_WORDS];
        let mut ca = a.chunks_exact(BLOCK_WORDS);
        let mut cb = b.chunks_exact(BLOCK_WORDS);
        for (xs, ys) in ca.by_ref().zip(cb.by_ref()) {
            for ((s, x), y) in acc.iter_mut().zip(xs).zip(ys) {
                *s += (x & y).count_ones() as u64;
            }
        }
        let mut total: u64 = acc.iter().sum();
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            total += (x & y).count_ones() as u64;
        }
        total
    }
}

/// AVX2 bodies: 256-bit loads and ANDs, per-lane hardware popcounts,
/// scalar tails. Callers must verify `avx2` + `popcnt` at runtime.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::BLOCK_WORDS;
    use std::arch::x86_64::*;

    /// Popcount of one 8-word block already ANDed into two 256-bit
    /// lanes. `popcnt` is enabled, so `count_ones` is the hardware
    /// instruction.
    #[inline]
    #[target_feature(enable = "avx2", enable = "popcnt")]
    unsafe fn popcount_2x256(lo: __m256i, hi: __m256i) -> u64 {
        let mut lanes = [0u64; BLOCK_WORDS];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, lo);
        _mm256_storeu_si256(lanes.as_mut_ptr().add(4) as *mut __m256i, hi);
        lanes.iter().map(|w| w.count_ones() as u64).sum()
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub unsafe fn count(words: &[u64]) -> u64 {
        let full = words.len() / BLOCK_WORDS;
        let mut total = 0u64;
        for blk in 0..full {
            let p = words.as_ptr().add(blk * BLOCK_WORDS) as *const __m256i;
            total += popcount_2x256(_mm256_loadu_si256(p), _mm256_loadu_si256(p.add(1)));
        }
        for w in &words[full * BLOCK_WORDS..] {
            total += w.count_ones() as u64;
        }
        total
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub unsafe fn and_count(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len().min(b.len());
        let full = n / BLOCK_WORDS;
        let mut total = 0u64;
        for blk in 0..full {
            let pa = a.as_ptr().add(blk * BLOCK_WORDS) as *const __m256i;
            let pb = b.as_ptr().add(blk * BLOCK_WORDS) as *const __m256i;
            let lo = _mm256_and_si256(_mm256_loadu_si256(pa), _mm256_loadu_si256(pb));
            let hi = _mm256_and_si256(_mm256_loadu_si256(pa.add(1)), _mm256_loadu_si256(pb.add(1)));
            total += popcount_2x256(lo, hi);
        }
        for i in full * BLOCK_WORDS..n {
            total += (a[i] & b[i]).count_ones() as u64;
        }
        total
    }

    /// [`super::Kernel::count_segments`] with popcnt enabled throughout,
    /// so the split words use the hardware popcount too.
    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub unsafe fn count_segments(words: &[u64], bounds: &[usize], credit: impl FnMut(usize, u64)) {
        super::segments(bounds, credit, |w| words[w], |r| count(&words[r]))
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    pub unsafe fn and_count_segments(
        a: &[u64],
        b: &[u64],
        bounds: &[usize],
        credit: impl FnMut(usize, u64),
    ) {
        super::segments(
            bounds,
            credit,
            |w| a[w] & b[w],
            |r| and_count(&a[r.clone()], &b[r]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random words (splitmix64).
    fn words(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    /// Reference bit-range count: one probe per bit.
    fn bits_ref(words: &[u64], lo: usize, hi: usize) -> u64 {
        (lo..hi)
            .filter(|&i| words[i / 64] >> (i % 64) & 1 == 1)
            .count() as u64
    }

    /// Per-segment counts of `a` (of `a & b` when `b` is given).
    fn seg_counts(k: Kernel, a: &[u64], b: Option<&[u64]>, bounds: &[usize]) -> Vec<u64> {
        let mut out = Vec::new();
        let mut credit = |i: usize, n: u64| {
            assert_eq!(i, out.len(), "segments are credited in order");
            out.push(n);
        };
        match b {
            None => k.count_segments(a, bounds, &mut credit),
            Some(b) => k.and_count_segments(a, b, bounds, &mut credit),
        }
        out
    }

    fn count_bits(k: Kernel, a: &[u64], lo: usize, hi: usize) -> u64 {
        seg_counts(k, a, None, &[lo, hi])[0]
    }

    fn and_count_bits(k: Kernel, a: &[u64], b: &[u64], lo: usize, hi: usize) -> u64 {
        seg_counts(k, a, Some(b), &[lo, hi])[0]
    }

    /// Every kernel matches the scalar reference on ragged lengths —
    /// including lengths straddling the 8-word block boundary and a
    /// trailing partial word pattern — for count, and_count and the
    /// bit-range counts. Odd lengths prove no kernel reads past `len`:
    /// the buffers are exactly `len` words long, so an out-of-bounds
    /// block read would fault or (under the aligned storage) read padding
    /// and diverge from the scalar result.
    #[test]
    fn kernels_match_scalar_on_ragged_lengths() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 34, 64, 100] {
            let a = words(n, 1);
            let mut b = words(n, 2);
            if let Some(last) = b.last_mut() {
                *last &= 0x00FF_FFFF_0000_FFFF; // trailing-word mask
            }
            let ab: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
            let want_count = Kernel::Scalar.count(&a);
            let want_and = Kernel::Scalar.and_count(&a, &b);
            let bits = n * 64;
            // Ranges inside one word, across one boundary, and whole-word
            // runs on both sides of the short-run cutoff.
            let ranges = [
                (0, bits),
                (1, bits.saturating_sub(1)),
                (5, 6),
                (63, 65),
                (64, 128),
                (3, 33 * 64 + 7),
                (70, 35 * 64 - 1),
                (bits / 2, bits / 2),
            ];
            for k in Kernel::ALL {
                assert_eq!(k.count(&a), want_count, "{k} count n={n}");
                assert_eq!(k.and_count(&a, &b), want_and, "{k} and_count n={n}");
                for (lo, hi) in ranges {
                    let hi = hi.min(bits);
                    let lo = lo.min(hi);
                    assert_eq!(
                        count_bits(k, &a, lo, hi),
                        bits_ref(&a, lo, hi),
                        "{k} [{lo},{hi}) n={n}"
                    );
                    assert_eq!(
                        and_count_bits(k, &a, &b, lo, hi),
                        bits_ref(&ab, lo, hi),
                        "{k} and [{lo},{hi}) n={n}"
                    );
                }
            }
        }
    }

    /// Every bit range of a short buffer, one bit at a time at each end:
    /// an off-by-one in either boundary mask shows here.
    #[test]
    fn bit_ranges_are_exact_at_every_boundary() {
        let a = words(3, 4);
        let b = words(3, 5);
        let ab: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
        for lo in 0..=192 {
            for hi in lo..=192 {
                for k in Kernel::ALL {
                    assert_eq!(
                        count_bits(k, &a, lo, hi),
                        bits_ref(&a, lo, hi),
                        "{k} [{lo},{hi})"
                    );
                    assert_eq!(
                        and_count_bits(k, &a, &b, lo, hi),
                        bits_ref(&ab, lo, hi),
                        "{k} and"
                    );
                }
            }
        }
    }

    /// Consecutive segments of one buffer — empty ones, mid-word bounds,
    /// one-bit ones and long runs — each count exactly their own bits.
    #[test]
    fn segments_partition_the_buffer_exactly() {
        let n = 101;
        let a = words(n, 6);
        let b = words(n, 7);
        let ab: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & y).collect();
        let bits = n * 64;
        let bounds = [0, 0, 1, 63, 64, 64, 200, 201, 64 * 64 + 3, bits - 1, bits];
        for k in Kernel::ALL {
            let plain = seg_counts(k, &a, None, &bounds);
            let anded = seg_counts(k, &a, Some(&b), &bounds);
            for (i, w) in bounds.windows(2).enumerate() {
                assert_eq!(plain[i], bits_ref(&a, w[0], w[1]), "{k} segment {i}");
                assert_eq!(anded[i], bits_ref(&ab, w[0], w[1]), "{k} and segment {i}");
            }
            assert_eq!(plain.iter().sum::<u64>(), k.count(&a), "{k}");
            assert!(seg_counts(k, &a, None, &[0]).is_empty(), "{k}: no segments");
        }
    }

    #[test]
    fn empty_ranges_and_buffers_count_zero() {
        for k in Kernel::ALL {
            assert_eq!(count_bits(k, &[u64::MAX], 7, 7), 0, "{k}");
            assert_eq!(and_count_bits(k, &[], &[], 0, 0), 0, "{k}");
            assert_eq!(k.count(&[]), 0, "{k}");
            assert_eq!(k.and_count(&[], &[]), 0, "{k}");
        }
        assert_eq!(segment_words(&[]), 0);
        assert_eq!(segment_words(&[0, 0]), 0);
        // Words 0..2 once each, word 1 once more for the split at bit 70.
        assert_eq!(segment_words(&[0, 70, 192]), 4);
        assert_eq!(segment_words(&[0, 64, 130]), 3);
    }

    #[test]
    fn aligned_words_storage_is_64_byte_aligned_and_padding_is_hidden() {
        for n in [1usize, 7, 8, 9, 1000] {
            let mut buf = AlignedWords::zeroed(n);
            assert_eq!(buf.len(), n);
            assert_eq!(buf.as_slice().as_ptr() as usize % 64, 0, "n={n}");
            buf.as_mut_slice().fill(u64::MAX);
            assert_eq!(buf.as_slice().len(), n);
            // Shrink then regrow: recycled padding must come back zeroed.
            buf.clear();
            buf.resize_zeroed(n + 3);
            assert!(buf.as_slice().iter().all(|&w| w == 0), "n={n}");
        }
    }

    #[test]
    fn aligned_words_round_trips_slices() {
        let src = words(13, 9);
        let buf = AlignedWords::from_slice(&src);
        assert_eq!(buf.as_slice(), src.as_slice());
        assert_eq!(AlignedWords::from(src.clone()), buf);
        assert_ne!(buf, AlignedWords::zeroed(13));
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::from_name(k.name()), Some(k));
            assert!(k.selected_counter().ends_with(k.name()));
            assert!(k.words_counter().ends_with(k.name()));
        }
        assert_eq!(Kernel::from_name("avx512"), None);
        // The resolved kernel is always one that actually runs its own
        // code path on this machine.
        assert!(selected().available());
    }
}
