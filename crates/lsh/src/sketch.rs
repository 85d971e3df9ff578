//! One sketch for a whole `K × L` MinHash bank.
//!
//! A bank of `K × L` independent MinHash rows costs `|q| · K · L` hash
//! evaluations per point. The engine's draw is uniform over whatever
//! colliding near set its `L` tables produce, and that argument does not
//! use independence between the tables; what it needs from the hash family
//! is recall. [`BankSketch`] draws all `m = K · L` MinHash-like values of a
//! set from one hash evaluation per item, after the first phase of the fast
//! similarity sketch of Dahlgaard, Knudsen and Thorup (*Fast Similarity
//! Sketching*, FOCS 2017), with affine permutations:
//!
//! * one hash of item `x` gives it a start `s_x ∈ [0, m)`, a step `a_x`
//!   drawn uniformly from the units of `Z_m`, and a priority `p_x`;
//! * item `x` ranks `(i − s_x) · a_x mod m` in bin `i` — a permutation of
//!   the ranks over the bins, so each item has rank 0 in exactly one bin,
//!   rank 1 in exactly one other, and so on;
//! * bin `i` keeps the item of smallest rank, ties broken by priority: its
//!   key `rank << b | priority` is the minimum over the set's items, the
//!   MinHash value of the bin.
//!
//! For a fixed bin the rank of each item is uniform on `[0, m)`, so the
//! winner of a bin over `A ∪ B` is uniform over the union and two sets
//! collide in a bin with probability `J(A, B)`, like one MinHash row. Table
//! `t` concatenates bins `t·K .. t·K + K`. A bin's token is a mix of its
//! key and its index (`BankSketch::token`); the one-bit variant keeps its
//! lowest bit. A table's key folds its `K` tokens, or its `K` bits packed
//! 64 to a word.
//!
//! Evaluation is one sweep per item over all bins: a key of 16 consecutive
//! bins advances by `16 · a_x mod m` with one add, one subtract and one
//! unsigned minimum, and the bins take one more minimum — a 16-lane
//! AVX-512 step where the CPU has it (`kernel::sweep_avx512`), the same
//! arithmetic per lane otherwise (`sweep_scalar`), bit for bit. Ranks are
//! kept shifted by the priority width with the priority in the low bits,
//! so the add and the subtract never touch the priority. The per-thread
//! scratch is `O(m)`; nothing is sized by the item universe.
//!
//! The sketch is fixed by its seed, which is all a bank image stores of it.

use crate::concat::fold;
use fairnn_sketch::hashing::splitmix64;
use std::cell::RefCell;
use std::ops::Range;

/// Bins one sweep step covers: sixteen 32-bit keys, one AVX-512 vector.
const LANES: usize = 16;

/// The most bins a sketch holds (`K · L ≤ 2^16`): a bin's rank and an
/// item's priority of at least 15 bits then share one 32-bit key, with the
/// headroom the modular add of the sweep needs.
pub const MAX_BINS: usize = 1 << 16;

/// Multiplier that spreads bin indices before the token mix.
const BIN_SALT: u32 = 0x9E37_79B9;

thread_local! {
    /// Per-thread bin tokens of one sweep, so the query hot path does not
    /// allocate in the steady state.
    static BIN_TOKENS: RefCell<BinTokens> = RefCell::new(BinTokens::default());
}

/// What a sketched bank keeps of a bin: the whole mixed token (MinHash) or
/// its lowest bit (1-bit MinHash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchToken {
    /// The full token of a bin: two sets collide in it with probability
    /// `J`.
    Full,
    /// One bit of the token: two sets collide in it with probability
    /// `(1 + J) / 2`.
    OneBit,
}

/// How a row family evaluates a sketched bank: the token it keeps per bin
/// and the items of a point (see [`crate::LshHasher::SKETCH`]).
#[derive(Debug)]
pub struct SketchFamily<P> {
    /// What a bin's token keeps.
    pub token: SketchToken,
    /// The items of a point, in any order.
    pub items: fn(&P) -> &[u32],
}

/// The `m = K · L` bins of one sketched bank (see the module docs).
#[derive(Debug)]
pub struct BankSketch {
    seed: u64,
    /// `m`, the number of bins.
    bins: u32,
    /// The priority width `b`: ranks are stored shifted left by `b`.
    priority_bits: u32,
    /// `⌊(2^64 − 1) / m⌋ + 1`, for a remainder by `m` without a division.
    reciprocal: u64,
    /// The units `a` of `Z_m` in increasing order, each with
    /// `16 · a mod m`: an item's step and its step per 16 bins.
    units: Box<[(u32, u32)]>,
    token: SketchToken,
}

/// The tokens of one sweep: per bin for [`SketchToken::Full`], one bit per
/// bin in 16-bin masks for [`SketchToken::OneBit`] (bin `i` is bit `i % 16`
/// of mask `i / 16`).
#[derive(Debug, Default)]
pub(crate) struct BinTokens {
    tokens: Vec<u32>,
    masks: Vec<u16>,
    /// The scalar sweep's bin keys.
    keys: Vec<u32>,
}

/// One item's place in the sweep: the key it offers bin 0, how far its
/// keys advance from one bin to the next and per 16 bins (all shifted by
/// the priority width), and its priority.
#[derive(Debug, Clone, Copy)]
struct Place {
    first: u32,
    step: u32,
    block_step: u32,
    priority: u32,
}

impl BankSketch {
    /// The sketch of `bins` bins fixed by `seed`. Panics unless
    /// `1 ≤ bins ≤ MAX_BINS`.
    pub(crate) fn new(seed: u64, bins: usize, token: SketchToken) -> Self {
        assert!(
            (1..=MAX_BINS).contains(&bins),
            "a sketch holds 1 to {MAX_BINS} bins, not {bins}"
        );
        let m = bins as u32;
        let units = (0..m)
            .filter(|&a| gcd(a, m) == 1)
            .map(|a| (a, ((LANES as u64 * u64::from(a)) % u64::from(m)) as u32))
            .collect();
        // 2 · (m << b) must not pass 2^32 for the sweep's modular add.
        let priority_bits = 31 - (32 - (m - 1).leading_zeros());
        Self {
            seed,
            bins: m,
            priority_bits,
            reciprocal: (u64::MAX / u64::from(m)).wrapping_add(1),
            units,
            token,
        }
    }

    /// The seed that fixes the sketch.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The number of bins `m = K · L`.
    pub fn bins(&self) -> usize {
        self.bins as usize
    }

    /// What a bin's token keeps.
    pub fn token_kind(&self) -> SketchToken {
        self.token
    }

    /// `m << b`: the modulus of the shifted ranks.
    fn modulus(&self) -> u32 {
        self.bins << self.priority_bits
    }

    /// `x mod m` for `x < 2^32` (Lemire's remainder by multiplication).
    #[inline]
    fn rem(&self, x: u32) -> u32 {
        let low = self.reciprocal.wrapping_mul(u64::from(x));
        ((u128::from(low) * u128::from(self.bins)) >> 64) as u32
    }

    /// Item `item`'s place, from one hash: the low half picks the start,
    /// the high half the step, a remix the priority.
    #[inline]
    fn place(&self, item: u32) -> Place {
        let h = splitmix64(self.seed ^ u64::from(item));
        let m = u64::from(self.bins);
        let start = (((h & 0xFFFF_FFFF) * m) >> 32) as u32;
        let (step, block_step) = self.units[(((h >> 32) * self.units.len() as u64) >> 32) as usize];
        let priority = (splitmix64(h) >> (64 - self.priority_bits)) as u32;
        // Bin 0 ranks (0 − start) · step; (m − start) · step < m² ≤ 2^32.
        let rank = self.rem((self.bins - start) * step);
        let shift = self.priority_bits;
        Place {
            first: rank << shift | priority,
            step: step << shift,
            block_step: block_step << shift,
            priority,
        }
    }

    /// The key item `item` offers bin `bin < m`: its rank there, shifted,
    /// or-ed with its priority. The definition the sweeps evaluate 16 bins
    /// at a time.
    fn key(&self, item: u32, bin: usize) -> u32 {
        let place = self.place(item);
        let rank = (place.first >> self.priority_bits) as u64;
        let step = u64::from(place.step >> self.priority_bits);
        let rank = (rank + bin as u64 * step) % u64::from(self.bins);
        (rank as u32) << self.priority_bits | place.priority
    }

    /// A bin's token: a mix of its key (the winner; `u32::MAX` when no item
    /// reached the bin) and its index. [`SketchToken::OneBit`] keeps its
    /// lowest bit.
    #[inline]
    fn token(&self, key: u32, bin: usize) -> u32 {
        fmix32(key ^ (bin as u32).wrapping_mul(BIN_SALT))
    }

    /// The key of each bin of `bins` over `items`, each the minimum of its
    /// items' keys (`BankSketch::key`), bin by bin.
    fn bin_keys<'a>(
        &'a self,
        items: &'a [u32],
        bins: Range<usize>,
    ) -> impl Iterator<Item = u32> + 'a {
        bins.map(move |bin| {
            items
                .iter()
                .map(|&item| self.key(item, bin))
                .min()
                .unwrap_or(u32::MAX)
        })
    }

    /// The key of the table over `bins`, evaluated bin by bin from the
    /// definition: the reference every sweep must match, and one table's
    /// hash.
    pub(crate) fn table_key(&self, items: &[u32], bins: Range<usize>) -> u64 {
        let tokens = self
            .bin_keys(items, bins.clone())
            .zip(bins)
            .map(|(key, bin)| self.token(key, bin));
        match self.token {
            SketchToken::Full => fold(tokens.map(u64::from)),
            SketchToken::OneBit => {
                let bits: Vec<u64> = tokens.map(|t| u64::from(t & 1)).collect();
                fold(
                    bits.chunks(64)
                        .map(|c| c.iter().rev().fold(0, |word, &bit| word << 1 | bit)),
                )
            }
        }
    }

    /// Sweeps `items` over every bin and hands `f` the bins' tokens (in a
    /// per-thread buffer; nothing is allocated in the steady state).
    pub(crate) fn with_tokens<R>(&self, items: &[u32], f: impl FnOnce(&BinTokens) -> R) -> R {
        let mut tokens = BIN_TOKENS.take();
        self.sweep(items, &mut tokens);
        let out = f(&tokens);
        BIN_TOKENS.set(tokens);
        out
    }

    /// Fills `out` with the tokens of every bin over `items`, `m` rounded
    /// up to whole 16-bin blocks (padding bins hold tokens no table reads).
    fn sweep(&self, items: &[u32], out: &mut BinTokens) {
        let blocks = self.bins().div_ceil(LANES);
        out.tokens.clear();
        out.masks.clear();
        match self.token {
            SketchToken::Full => out.tokens.resize(blocks * LANES, 0),
            SketchToken::OneBit => out.masks.resize(blocks, 0),
        }
        fairnn_snapshot::dispatch_x86_feature!(
            ["avx512f"],
            kernel::sweep_avx512(self, items, out),
            sweep_scalar(self, items, out)
        );
    }
}

impl BinTokens {
    /// The key of the table over `bins` of `sketch`: equal to
    /// [`BankSketch::table_key`] over the items of the sweep.
    pub(crate) fn table_key(&self, sketch: &BankSketch, bins: Range<usize>) -> u64 {
        match sketch.token {
            SketchToken::Full => fold(self.tokens[bins].iter().map(|&t| u64::from(t))),
            SketchToken::OneBit => fold(
                bins.clone()
                    .step_by(64)
                    .map(|start| self.bits(start, (bins.end - start).min(64))),
            ),
        }
    }

    /// Bits `start .. start + len` (`len ≤ 64`) of the one-bit masks,
    /// `start` in the lowest bit.
    fn bits(&self, start: usize, len: usize) -> u64 {
        let mut window = 0u128;
        for (j, &mask) in self.masks[start / LANES..].iter().take(5).enumerate() {
            window |= u128::from(mask) << (LANES * j);
        }
        let word = (window >> (start % LANES)) as u64;
        if len == 64 {
            word
        } else {
            word & ((1 << len) - 1)
        }
    }
}

/// Euclid's greatest common divisor.
fn gcd(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// MurmurHash3's 32-bit finalizer: a bijection that mixes every input bit
/// into every output bit.
#[inline]
fn fmix32(mut x: u32) -> u32 {
    x ^= x >> 16;
    x = x.wrapping_mul(0x85EB_CA6B);
    x ^= x >> 13;
    x = x.wrapping_mul(0xC2B2_AE35);
    x ^ (x >> 16)
}

/// The scalar sweep: every item offers each bin its key, 16 bins at a
/// time as the lane kernel does, then the bins' keys become tokens. A key
/// is its rank, shifted, with the priority in the low bits; the step's low
/// bits are zero, so the add and the modular subtract keep the priority.
fn sweep_scalar(sketch: &BankSketch, items: &[u32], out: &mut BinTokens) {
    let modulus = sketch.modulus();
    let keys = &mut out.keys;
    keys.clear();
    keys.resize(sketch.bins().div_ceil(LANES) * LANES, u32::MAX);
    let advance = |key: u32, step: u32| {
        // key, step < modulus ≤ 2^31: the sum cannot wrap, and when it
        // passes the modulus the difference is the smaller of the two.
        let next = key + step;
        next.min(next.wrapping_sub(modulus))
    };
    for &item in items {
        let place = sketch.place(item);
        let mut lanes = [place.first; LANES];
        for j in 1..LANES {
            lanes[j] = advance(lanes[j - 1], place.step);
        }
        for block in keys.chunks_exact_mut(LANES) {
            for (key, lane) in block.iter_mut().zip(&mut lanes) {
                *key = (*key).min(*lane);
                *lane = advance(*lane, place.block_step);
            }
        }
    }
    match sketch.token {
        SketchToken::Full => {
            for (bin, (token, &key)) in out.tokens.iter_mut().zip(keys.iter()).enumerate() {
                *token = sketch.token(key, bin);
            }
        }
        SketchToken::OneBit => {
            for (block, (mask, keys)) in out
                .masks
                .iter_mut()
                .zip(keys.chunks_exact(LANES))
                .enumerate()
            {
                *mask = (0..LANES).rev().fold(0, |mask, j| {
                    mask << 1 | (sketch.token(keys[j], block * LANES + j) & 1) as u16
                });
            }
        }
    }
}

/// The AVX-512 lane kernel behind [`BankSketch::sweep`].
///
/// One 512-bit vector holds the keys of 16 consecutive bins. Per item and
/// block the kernel runs `min`, `add`, `sub`, `min` on 32-bit lanes, on two
/// independent chains (even and odd blocks) so the add → sub → min latency
/// overlaps. `vpaddd`/`vpsubd` *are* wrapping 32-bit add and subtract,
/// `vpminud` *is* unsigned minimum and `vpmulld` *is* wrapping 32-bit
/// multiply, so every lane, and the token mix at the end, is an exact image
/// of [`sweep_scalar`]'s arithmetic: the tokens are bit for bit the same,
/// and `scalar_and_simd_sweeps_agree` pins it on hardware that runs both.
#[cfg(target_arch = "x86_64")]
mod kernel {
    use super::{BankSketch, BinTokens, SketchToken, BIN_SALT, LANES};
    use std::arch::x86_64::{
        __m512i, _mm256_extract_epi64, _mm512_add_epi32, _mm512_extracti64x4_epi64,
        _mm512_min_epu32, _mm512_mullo_epi32, _mm512_set1_epi32, _mm512_set_epi32,
        _mm512_srli_epi32, _mm512_sub_epi32, _mm512_test_epi32_mask, _mm512_xor_si512,
    };
    use std::cell::RefCell;

    thread_local! {
        /// Per-thread vector image of the bin keys during a sweep.
        static VECTORS: RefCell<Vec<__m512i>> = const { RefCell::new(Vec::new()) };
    }

    /// `x + step` reduced below `modulus` (`x, step < modulus ≤ 2^31`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn advance(x: __m512i, step: __m512i, modulus: __m512i) -> __m512i {
        let next = _mm512_add_epi32(x, step);
        _mm512_min_epu32(next, _mm512_sub_epi32(next, modulus))
    }

    /// Lane `j` = `first + j · step`, reduced below `modulus`, as the
    /// scalar sweep builds its first block.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn first_block(first: u32, step: u32, modulus: u32) -> __m512i {
        let mut lanes = [first; LANES];
        for j in 1..LANES {
            let next = lanes[j - 1] + step;
            lanes[j] = next.min(next.wrapping_sub(modulus));
        }
        let l = lanes.map(|v| v as i32);
        // `_mm512_set_epi32` takes its arguments from lane 15 down to 0.
        _mm512_set_epi32(
            l[15], l[14], l[13], l[12], l[11], l[10], l[9], l[8], l[7], l[6], l[5], l[4], l[3],
            l[2], l[1], l[0],
        )
    }

    /// `fmix32(key ^ bin · BIN_SALT)` on 16 lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn tokens(keys: __m512i, bins: __m512i) -> __m512i {
        let salt = _mm512_set1_epi32(BIN_SALT as i32);
        let x = _mm512_xor_si512(keys, _mm512_mullo_epi32(bins, salt));
        let x = _mm512_xor_si512(x, _mm512_srli_epi32::<16>(x));
        let x = _mm512_mullo_epi32(x, _mm512_set1_epi32(0x85EB_CA6B_u32 as i32));
        let x = _mm512_xor_si512(x, _mm512_srli_epi32::<13>(x));
        let x = _mm512_mullo_epi32(x, _mm512_set1_epi32(0xC2B2_AE35_u32 as i32));
        _mm512_xor_si512(x, _mm512_srli_epi32::<16>(x))
    }

    /// Sweeps every item over all bins, 16 bins per step, and writes the
    /// bins' tokens into `out` (sized by [`BankSketch::sweep`]).
    /// Safe-bodied: only value-based intrinsics (no pointer loads),
    /// callable through [`fairnn_snapshot::dispatch_x86_feature!`] once
    /// `avx512f` is detected.
    #[target_feature(enable = "avx512f")]
    pub(super) fn sweep_avx512(sketch: &BankSketch, items: &[u32], out: &mut BinTokens) {
        let mut vectors = VECTORS.take();
        vectors.clear();
        vectors.resize(sketch.bins().div_ceil(LANES), _mm512_set1_epi32(-1));
        let m = sketch.modulus();
        let modulus = _mm512_set1_epi32(m as i32);
        for &item in items {
            let place = sketch.place(item);
            let block_step = _mm512_set1_epi32(place.block_step as i32);
            // Two chains, even and odd blocks, each two blocks a step.
            let mut even = first_block(place.first, place.step, m);
            let mut odd = advance(even, block_step, modulus);
            let pair_step = advance(block_step, block_step, modulus);
            let mut pairs = vectors.chunks_exact_mut(2);
            for pair in pairs.by_ref() {
                pair[0] = _mm512_min_epu32(pair[0], even);
                pair[1] = _mm512_min_epu32(pair[1], odd);
                even = advance(even, pair_step, modulus);
                odd = advance(odd, pair_step, modulus);
            }
            if let [last] = pairs.into_remainder() {
                *last = _mm512_min_epu32(*last, even);
            }
        }
        // The bin indices of the current block, lane by lane.
        let mut bins = _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
        let next_block = _mm512_set1_epi32(LANES as i32);
        match sketch.token {
            SketchToken::Full => {
                for (keys, dst) in vectors.iter().zip(out.tokens.chunks_exact_mut(LANES)) {
                    let t = tokens(*keys, bins);
                    bins = _mm512_add_epi32(bins, next_block);
                    let (lo, hi) = (
                        _mm512_extracti64x4_epi64::<0>(t),
                        _mm512_extracti64x4_epi64::<1>(t),
                    );
                    let words = [
                        _mm256_extract_epi64::<0>(lo),
                        _mm256_extract_epi64::<1>(lo),
                        _mm256_extract_epi64::<2>(lo),
                        _mm256_extract_epi64::<3>(lo),
                        _mm256_extract_epi64::<0>(hi),
                        _mm256_extract_epi64::<1>(hi),
                        _mm256_extract_epi64::<2>(hi),
                        _mm256_extract_epi64::<3>(hi),
                    ];
                    // 64-bit word `w` holds lane `2w` in its low half.
                    for (pair, word) in dst.chunks_exact_mut(2).zip(words) {
                        pair[0] = word as u32;
                        pair[1] = ((word as u64) >> 32) as u32;
                    }
                }
            }
            SketchToken::OneBit => {
                let one = _mm512_set1_epi32(1);
                for (keys, mask) in vectors.iter().zip(out.masks.iter_mut()) {
                    *mask = _mm512_test_epi32_mask(tokens(*keys, bins), one);
                    bins = _mm512_add_epi32(bins, next_block);
                }
            }
        }
        VECTORS.set(vectors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dispatched sweep (AVX-512 where the CPU has it) and the scalar
    /// one over the same items.
    fn both_sweeps(sketch: &BankSketch, items: &[u32]) -> (BinTokens, BinTokens) {
        let mut dispatched = BinTokens::default();
        sketch.sweep(items, &mut dispatched);
        let mut scalar = BinTokens::default();
        scalar.tokens.resize(dispatched.tokens.len(), 0);
        scalar.masks.resize(dispatched.masks.len(), 0);
        sweep_scalar(sketch, items, &mut scalar);
        scalar.keys.clear();
        (dispatched, scalar)
    }

    #[test]
    fn scalar_and_simd_sweeps_agree() {
        // On hardware with AVX-512F this compares the lane kernel against
        // the scalar one bit for bit; elsewhere it degenerates to scalar ==
        // scalar and only exercises the dispatch plumbing. The sizes cover
        // the empty set, one item, and more items than bins, on bin counts
        // with an odd and an even number of blocks and a partial block.
        let shapes = [
            (1, SketchToken::Full),
            (40, SketchToken::OneBit),
            (48, SketchToken::Full),
            (400, SketchToken::Full),
            (7_600, SketchToken::OneBit),
        ];
        for (bins, token) in shapes {
            let sketch = BankSketch::new(bins as u64 ^ 0x5EED, bins, token);
            for len in [0usize, 1, 2, 17, bins + 3] {
                let items: Vec<u32> = (0..len as u32)
                    .map(|i| i.wrapping_mul(2_654_435_761))
                    .collect();
                let (dispatched, scalar) = both_sweeps(&sketch, &items);
                assert_eq!(dispatched.tokens, scalar.tokens, "{bins} bins, {len} items");
                assert_eq!(dispatched.masks, scalar.masks, "{bins} bins, {len} items");
                // And every table key matches the bin-by-bin definition.
                for k in [1, 3, bins].into_iter().filter(|&k| k <= bins) {
                    for start in (0..bins - k + 1).step_by(k.max(bins / 7)) {
                        assert_eq!(
                            scalar.table_key(&sketch, start..start + k),
                            sketch.table_key(&items, start..start + k),
                            "{bins} bins, {len} items, bins {start}..{}",
                            start + k
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn each_item_ranks_every_value_once_across_the_bins() {
        // The affine permutation: an item's ranks over the bins are a
        // permutation of 0..m, whatever its start and step.
        let sketch = BankSketch::new(3, 360, SketchToken::Full);
        for item in 0..50u32 {
            let mut ranks: Vec<u32> = (0..360)
                .map(|bin| sketch.key(item, bin) >> sketch.priority_bits)
                .collect();
            ranks.sort_unstable();
            assert!(ranks.iter().copied().eq(0..360), "item {item}");
        }
    }

    #[test]
    fn units_widths_and_remainders_fit_the_bins() {
        let sketch = BankSketch::new(1, 12, SketchToken::Full);
        let units: Vec<u32> = sketch.units.iter().map(|u| u.0).collect();
        assert_eq!(units, [1, 5, 7, 11]);
        assert_eq!(BankSketch::new(1, 1, SketchToken::Full).units[..], [(0, 0)]);
        for bins in [1usize, 2, 3, 400, 7_600, 8_192, 8_193, MAX_BINS] {
            let sketch = BankSketch::new(9, bins, SketchToken::OneBit);
            assert!(sketch.priority_bits >= 15, "{bins} bins");
            assert!(u64::from(sketch.modulus()) * 2 <= 1 << 32, "{bins} bins");
            assert_eq!(sketch.bins(), bins);
            for x in [0u32, 1, 12_345, bins as u32 * 7 + 3, u32::MAX] {
                assert_eq!(sketch.rem(x), x % bins as u32, "{x} mod {bins}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bins")]
    fn a_sketch_needs_a_bin() {
        let _ = BankSketch::new(1, 0, SketchToken::Full);
    }
}
