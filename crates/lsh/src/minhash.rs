//! MinHash and 1-bit ("b-bit") MinHash for Jaccard similarity.
//!
//! MinHash (Broder \[12\]) hashes a set to the minimum value of a random
//! permutation of the item universe restricted to the set; two sets collide
//! with probability exactly equal to their Jaccard similarity. The paper's
//! experiments (Section 6) use the 1-bit variant of Li and König \[29\],
//! which keeps only the least-significant bit of the MinHash value; a single
//! bit collides with probability `(1 + J) / 2` for Jaccard similarity `J`,
//! and concatenating `K` bits gives a compact `K`-bit bucket key.
//!
//! Random permutations are approximated by multiply-shift hash functions
//! over the item universe, the standard practice for MinHash
//! implementations.
//!
//! The rows here are Section 6's family: [`crate::LshIndex`] and the paper
//! samplers draw `K × L` independent [`MinHasher`] or [`OneBitMinHasher`]
//! rows and evaluate them in one blocked pass per point
//! ([`LshHasher::hash_all`]), so they reproduce the paper's experiments.
//! The engine's bank, drawn by [`crate::HasherBank::sample`], keeps these
//! types but holds no rows: it is one sketch of `K × L` bins
//! ([`crate::sketch`]), with the full token of a bin for [`MinHash`] and
//! its lowest bit for [`OneBitMinHash`], because the engine needs the
//! family's recall, not independent tables, and the sketch hashes each item
//! once instead of `K × L` times. Each hasher says so through
//! [`LshHasher::SKETCH`] and [`crate::snapshot::RowCodec::SKETCH_TOKEN`].

use crate::family::{CollisionModel, LshFamily, LshHasher};
use crate::sketch::{SketchFamily, SketchToken};
use fairnn_sketch::hashing::{splitmix64, MultiplyShift};
use fairnn_space::SparseSet;
use rand::Rng;

/// The classic MinHash family: one random "permutation" per hasher.
///
/// Collision probability of a single hasher equals the Jaccard similarity.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinHash;

/// A single MinHash function.
#[derive(Debug, Clone)]
pub struct MinHasher {
    perm: MultiplyShift,
}

impl MinHasher {
    /// Creates a MinHash function from a seed.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            perm: MultiplyShift::new(splitmix64(seed), 64),
        }
    }

    /// Returns the full 64-bit MinHash value (minimum hashed item).
    /// The empty set maps to `u64::MAX`.
    ///
    /// The multiply-shift value is passed through the SplitMix64 finalizer so
    /// that *all* output bits are well mixed; the 1-bit variant keeps only
    /// the least-significant bit, which would otherwise be badly distributed
    /// for multiply-shift.
    pub fn min_value(&self, set: &SparseSet) -> u64 {
        set.items()
            .iter()
            .map(|&item| splitmix64(self.perm.hash(item as u64)))
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// Width of a row block in the batched MinHash evaluation: small enough
/// that a block's running minima and hash coefficients stay in registers,
/// wide enough to expose independent multiply chains to the pipeline.
const MIN_BLOCK: usize = 8;

/// Batched MinHash evaluation: rows are processed in blocks of
/// [`MIN_BLOCK`]; within a block each item of the set is loaded once and
/// updates all of the block's running minima, which live in a fixed-size
/// (register-promoted) array. Bit-identical to evaluating the rows one by
/// one — a minimum is order-independent — while loading the set
/// `rows.len() / MIN_BLOCK` times instead of `rows.len()` times and keeping
/// eight independent hash/min chains in flight per item.
///
/// On x86-64 CPUs with AVX-512DQ the block kernel runs eight lanes wide
/// ([`kernel::min_block_avx512`]); everywhere else (and on the remainder
/// rows) the scalar block kernel runs. The two produce identical bits —
/// [`kernel`]'s docs spell out why, and the equality tests pin it.
#[inline]
fn min_values_blocked<T>(
    rows: &[T],
    perm_of: impl Fn(&T) -> MultiplyShift,
    point: &SparseSet,
    out: &mut [u64],
) {
    let items = point.items();
    let mut row_blocks = rows.chunks_exact(MIN_BLOCK);
    let mut out_blocks = out.chunks_exact_mut(MIN_BLOCK);
    for (row_block, out_block) in row_blocks.by_ref().zip(out_blocks.by_ref()) {
        // MinHash rows are always full-width multiply-shift (see
        // `MinHasher::from_seed`), so the coefficients alone drive the
        // kernel: a block's (a, b) pairs and running minima all fit in
        // registers for the duration of the item stream.
        let coeff: [(u64, u64); MIN_BLOCK] =
            std::array::from_fn(|j| perm_of(&row_block[j]).coefficients());
        let mut mins = [u64::MAX; MIN_BLOCK];
        fairnn_snapshot::dispatch_x86_feature!(
            ["avx512f", "avx512dq", "avx2"],
            kernel::min_block_avx512(&coeff, items, &mut mins),
            min_block_scalar(&coeff, items, &mut mins)
        );
        out_block.copy_from_slice(&mins);
    }
    for (row, slot) in row_blocks
        .remainder()
        .iter()
        .zip(out_blocks.into_remainder())
    {
        let perm = perm_of(row);
        let mut min = u64::MAX;
        for &item in items {
            min = min.min(splitmix64(perm.hash(item as u64)));
        }
        *slot = min;
    }
}

/// Scalar form of the block kernel: eight independent multiply-shift →
/// SplitMix64 → running-min chains advance per item load.
#[inline]
fn min_block_scalar(coeff: &[(u64, u64); MIN_BLOCK], items: &[u32], mins: &mut [u64; MIN_BLOCK]) {
    for &item in items {
        let x = item as u64;
        for j in 0..MIN_BLOCK {
            let (a, b) = coeff[j];
            mins[j] = mins[j].min(splitmix64(a.wrapping_mul(x).wrapping_add(b)));
        }
    }
}

/// The AVX-512 lane kernel behind [`min_values_blocked`].
///
/// One 512-bit vector holds all eight lanes of a [`MIN_BLOCK`] row block,
/// so the multiply-shift evaluation, the full SplitMix64 finalizer, and the
/// running-minimum update each execute once per item instead of eight
/// times. Every step is a lane-wise exact image of the scalar arithmetic
/// (`vpmullq` *is* 64-bit wrapping multiply, `vpminuq` *is* unsigned min),
/// so the minima — and therefore the sampling output — are bit-for-bit
/// identical to the scalar kernel; the `scalar_and_simd_kernels_agree` test
/// pins this on hardware that runs both.
#[cfg(target_arch = "x86_64")]
mod kernel {
    use super::MIN_BLOCK;
    use std::arch::x86_64::{
        _mm256_extract_epi64, _mm512_add_epi64, _mm512_extracti64x4_epi64, _mm512_min_epu64,
        _mm512_mullo_epi64, _mm512_set1_epi64, _mm512_set_epi64, _mm512_srli_epi64,
        _mm512_xor_epi64,
    };

    /// SplitMix64's golden-ratio increment, folded into the `b` addends up
    /// front so the per-item loop starts directly at the finalizer.
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    const MIX_1: i64 = 0xBF58_476D_1CE4_E5B9_u64 as i64;
    const MIX_2: i64 = 0x94D0_49BB_1331_11EB_u64 as i64;

    /// `mins[j] = min(mins[j], splitmix64(a_j * x + b_j))` over all items
    /// `x`, eight lanes at a time. Safe-bodied: only value-based intrinsics
    /// (no pointer loads), callable through
    /// [`fairnn_snapshot::dispatch_x86_feature!`] once `avx512f`,
    /// `avx512dq` and `avx2` are detected.
    #[target_feature(enable = "avx512f", enable = "avx512dq", enable = "avx2")]
    pub(super) fn min_block_avx512(
        coeff: &[(u64, u64); MIN_BLOCK],
        items: &[u32],
        mins: &mut [u64; MIN_BLOCK],
    ) {
        // `_mm512_set_epi64` takes its arguments from lane 7 down to lane 0.
        let va = _mm512_set_epi64(
            coeff[7].0 as i64,
            coeff[6].0 as i64,
            coeff[5].0 as i64,
            coeff[4].0 as i64,
            coeff[3].0 as i64,
            coeff[2].0 as i64,
            coeff[1].0 as i64,
            coeff[0].0 as i64,
        );
        let vb = _mm512_set_epi64(
            coeff[7].1.wrapping_add(GOLDEN) as i64,
            coeff[6].1.wrapping_add(GOLDEN) as i64,
            coeff[5].1.wrapping_add(GOLDEN) as i64,
            coeff[4].1.wrapping_add(GOLDEN) as i64,
            coeff[3].1.wrapping_add(GOLDEN) as i64,
            coeff[2].1.wrapping_add(GOLDEN) as i64,
            coeff[1].1.wrapping_add(GOLDEN) as i64,
            coeff[0].1.wrapping_add(GOLDEN) as i64,
        );
        let mix1 = _mm512_set1_epi64(MIX_1);
        let mix2 = _mm512_set1_epi64(MIX_2);
        let mut vmin = _mm512_set1_epi64(-1); // u64::MAX in every lane
        for &item in items {
            // Items are u32, so the i64 widening never sign-extends.
            let vx = _mm512_set1_epi64(item as i64);
            let z = _mm512_add_epi64(_mm512_mullo_epi64(va, vx), vb);
            let z = _mm512_mullo_epi64(_mm512_xor_epi64(z, _mm512_srli_epi64::<30>(z)), mix1);
            let z = _mm512_mullo_epi64(_mm512_xor_epi64(z, _mm512_srli_epi64::<27>(z)), mix2);
            let z = _mm512_xor_epi64(z, _mm512_srli_epi64::<31>(z));
            vmin = _mm512_min_epu64(vmin, z);
        }
        let (lo, hi) = (
            _mm512_extracti64x4_epi64::<0>(vmin),
            _mm512_extracti64x4_epi64::<1>(vmin),
        );
        *mins = [
            _mm256_extract_epi64::<0>(lo) as u64,
            _mm256_extract_epi64::<1>(lo) as u64,
            _mm256_extract_epi64::<2>(lo) as u64,
            _mm256_extract_epi64::<3>(lo) as u64,
            _mm256_extract_epi64::<0>(hi) as u64,
            _mm256_extract_epi64::<1>(hi) as u64,
            _mm256_extract_epi64::<2>(hi) as u64,
            _mm256_extract_epi64::<3>(hi) as u64,
        ];
    }
}

impl fairnn_snapshot::Codec for MinHasher {
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        self.perm.encode(enc);
    }

    fn decode(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        let perm = MultiplyShift::decode(dec)?;
        if perm.out_bits() != 64 {
            return Err(fairnn_snapshot::SnapshotError::Corrupt(
                "MinHash permutations are full-width multiply-shift".into(),
            ));
        }
        Ok(Self { perm })
    }
}

/// Writes a MinHash bank as one aligned `[a0, b0, a1, b1, …]` coefficient
/// array — the snapshot-v3 bulk layout shared by [`MinHasher`] and
/// [`OneBitMinHasher`] row banks.
fn encode_coefficient_rows(
    perms: impl ExactSizeIterator<Item = MultiplyShift>,
    enc: &mut fairnn_snapshot::Encoder,
) {
    let mut coefficients = Vec::with_capacity(perms.len() * 2);
    for perm in perms {
        let (a, b) = perm.coefficients();
        coefficients.push(a);
        coefficients.push(b);
    }
    fairnn_snapshot::encode_pod_slice(&coefficients, enc, |enc, v| enc.write_u64(*v));
}

/// Reads a coefficient array written by [`encode_coefficient_rows`] back
/// into `count` full-width multiply-shift permutations. The array is
/// borrowed zero-copy from a snapshot image when one backs the decoder;
/// the permutations themselves are rebuilt in a single pass.
fn decode_coefficient_rows(
    dec: &mut fairnn_snapshot::Decoder<'_>,
    count: usize,
) -> Result<Vec<MultiplyShift>, fairnn_snapshot::SnapshotError> {
    use fairnn_snapshot::SnapshotError;
    let coefficients = fairnn_snapshot::decode_pod_slice(dec, |dec| dec.read_u64())?;
    if coefficients.len() != count * 2 {
        return Err(SnapshotError::Corrupt(format!(
            "MinHash bank stores {} coefficients but {count} rows require {}",
            coefficients.len(),
            count * 2
        )));
    }
    let mut perms = Vec::with_capacity(count);
    for pair in coefficients.chunks_exact(2) {
        let (a, b) = (pair[0], pair[1]);
        if a & 1 == 0 {
            return Err(SnapshotError::Corrupt(
                "multiply-shift multiplier must be odd".into(),
            ));
        }
        perms.push(MultiplyShift::from_coefficients(a, b));
    }
    Ok(perms)
}

impl crate::snapshot::RowCodec for MinHasher {
    const SKETCH_TOKEN: Option<SketchToken> = Some(SketchToken::Full);

    fn encode_rows(rows: &[Self], enc: &mut fairnn_snapshot::Encoder) {
        encode_coefficient_rows(rows.iter().map(|r| r.perm), enc);
    }

    fn decode_rows(
        dec: &mut fairnn_snapshot::Decoder<'_>,
        count: usize,
    ) -> Result<Vec<Self>, fairnn_snapshot::SnapshotError> {
        Ok(decode_coefficient_rows(dec, count)?
            .into_iter()
            .map(|perm| Self { perm })
            .collect())
    }
}

impl LshHasher<SparseSet> for MinHasher {
    const SKETCH: Option<SketchFamily<SparseSet>> = Some(SketchFamily {
        token: SketchToken::Full,
        items: SparseSet::items,
    });

    fn hash(&self, point: &SparseSet) -> u64 {
        self.min_value(point)
    }

    fn hash_all(rows: &[Self], point: &SparseSet, out: &mut [u64]) {
        debug_assert_eq!(rows.len(), out.len(), "one output slot per row");
        min_values_blocked(rows, |r| r.perm, point, out);
    }
}

impl CollisionModel for MinHash {
    /// `Pr[h(A) = h(B)] = J(A, B)`.
    fn collision_probability(&self, similarity: f64) -> f64 {
        similarity.clamp(0.0, 1.0)
    }
}

impl LshFamily<SparseSet> for MinHash {
    type Hasher = MinHasher;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> MinHasher {
        MinHasher::from_seed(rng.random())
    }
}

/// The 1-bit MinHash family of Li and König, used by the paper's
/// experimental evaluation.
///
/// Keeps the least-significant bit of the MinHash value; the collision
/// probability of a single bit is `(1 + J) / 2`.
#[derive(Debug, Clone, Copy, Default)]
pub struct OneBitMinHash;

/// A single 1-bit MinHash function.
#[derive(Debug, Clone)]
pub struct OneBitMinHasher {
    inner: MinHasher,
}

impl OneBitMinHasher {
    /// Creates a 1-bit MinHash function from a seed.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            inner: MinHasher::from_seed(seed),
        }
    }
}

impl fairnn_snapshot::Codec for OneBitMinHasher {
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        self.inner.encode(enc);
    }

    fn decode(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Self, fairnn_snapshot::SnapshotError> {
        Ok(Self {
            inner: MinHasher::decode(dec)?,
        })
    }
}

impl crate::snapshot::RowCodec for OneBitMinHasher {
    const SKETCH_TOKEN: Option<SketchToken> = Some(SketchToken::OneBit);

    fn encode_rows(rows: &[Self], enc: &mut fairnn_snapshot::Encoder) {
        encode_coefficient_rows(rows.iter().map(|r| r.inner.perm), enc);
    }

    fn decode_rows(
        dec: &mut fairnn_snapshot::Decoder<'_>,
        count: usize,
    ) -> Result<Vec<Self>, fairnn_snapshot::SnapshotError> {
        Ok(decode_coefficient_rows(dec, count)?
            .into_iter()
            .map(|perm| Self {
                inner: MinHasher { perm },
            })
            .collect())
    }
}

impl LshHasher<SparseSet> for OneBitMinHasher {
    const SKETCH: Option<SketchFamily<SparseSet>> = Some(SketchFamily {
        token: SketchToken::OneBit,
        items: SparseSet::items,
    });

    fn hash(&self, point: &SparseSet) -> u64 {
        self.inner.min_value(point) & 1
    }

    fn hash_all(rows: &[Self], point: &SparseSet, out: &mut [u64]) {
        debug_assert_eq!(rows.len(), out.len(), "one output slot per row");
        // The full 64-bit minima are tracked during the pass; the 1-bit
        // truncation happens once at the end.
        min_values_blocked(rows, |r| r.inner.perm, point, out);
        for slot in out {
            *slot &= 1;
        }
    }
}

impl CollisionModel for OneBitMinHash {
    /// `Pr[bit(A) = bit(B)] = (1 + J) / 2`.
    fn collision_probability(&self, similarity: f64) -> f64 {
        (1.0 + similarity.clamp(0.0, 1.0)) / 2.0
    }
}

impl LshFamily<SparseSet> for OneBitMinHash {
    type Hasher = OneBitMinHasher;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> OneBitMinHasher {
        OneBitMinHasher::from_seed(rng.random())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn collision_rate<H, F>(family: &F, a: &SparseSet, b: &SparseSet, trials: usize) -> f64
    where
        F: LshFamily<SparseSet, Hasher = H>,
        H: LshHasher<SparseSet>,
    {
        let mut rng = StdRng::seed_from_u64(0xFEED);
        let mut collisions = 0usize;
        for _ in 0..trials {
            let h = family.sample(&mut rng);
            if h.hash(a) == h.hash(b) {
                collisions += 1;
            }
        }
        collisions as f64 / trials as f64
    }

    #[test]
    fn identical_sets_always_collide() {
        let a = SparseSet::from_items(vec![1, 5, 9, 42]);
        assert_eq!(collision_rate(&MinHash, &a, &a, 200), 1.0);
        assert_eq!(collision_rate(&OneBitMinHash, &a, &a, 200), 1.0);
    }

    #[test]
    fn minhash_collision_rate_tracks_jaccard() {
        // J = 1/3: A = {1..4}, B = {3..8} -> |A ∩ B| = 2, |A ∪ B| = 8... pick clean sets.
        let a = SparseSet::from_items((0..30).collect());
        let b = SparseSet::from_items((15..45).collect());
        let j = a.jaccard(&b); // 15 / 45 = 1/3
        assert!((j - 1.0 / 3.0).abs() < 1e-12);
        let rate = collision_rate(&MinHash, &a, &b, 4000);
        assert!(
            (rate - j).abs() < 0.05,
            "empirical collision rate {rate} far from Jaccard {j}"
        );
    }

    #[test]
    fn one_bit_minhash_collision_rate_is_half_plus_half_jaccard() {
        let a = SparseSet::from_items((0..30).collect());
        let b = SparseSet::from_items((15..45).collect());
        let expected = (1.0 + a.jaccard(&b)) / 2.0;
        let rate = collision_rate(&OneBitMinHash, &a, &b, 4000);
        assert!(
            (rate - expected).abs() < 0.05,
            "empirical rate {rate}, expected {expected}"
        );
    }

    #[test]
    fn disjoint_sets_rarely_collide_under_full_minhash() {
        let a = SparseSet::from_items((0..50).collect());
        let b = SparseSet::from_items((100..150).collect());
        let rate = collision_rate(&MinHash, &a, &b, 2000);
        assert!(rate < 0.01, "rate {rate}");
    }

    #[test]
    fn collision_model_values() {
        assert_eq!(MinHash.collision_probability(0.25), 0.25);
        assert_eq!(MinHash.collision_probability(2.0), 1.0);
        assert_eq!(OneBitMinHash.collision_probability(0.0), 0.5);
        assert_eq!(OneBitMinHash.collision_probability(1.0), 1.0);
        assert_eq!(OneBitMinHash.collision_probability(0.2), 0.6);
    }

    #[test]
    fn rho_is_less_than_one_for_separated_thresholds() {
        let rho = MinHash.rho(0.5, 0.1);
        assert!(rho > 0.0 && rho < 1.0, "rho = {rho}");
        let rho_bit = OneBitMinHash.rho(0.5, 0.1);
        assert!(rho_bit > 0.0 && rho_bit < 1.0, "rho = {rho_bit}");
    }

    #[test]
    fn empty_set_hashes_consistently() {
        let h = MinHasher::from_seed(7);
        let empty = SparseSet::new();
        assert_eq!(h.min_value(&empty), u64::MAX);
        assert_eq!(h.hash(&empty), u64::MAX);
        let hb = OneBitMinHasher::from_seed(7);
        assert_eq!(hb.hash(&empty), 1); // LSB of u64::MAX
    }

    #[test]
    fn one_bit_output_is_a_single_bit() {
        let mut rng = StdRng::seed_from_u64(3);
        let set = SparseSet::from_items(vec![2, 4, 8, 16]);
        for _ in 0..50 {
            let h = OneBitMinHash.sample(&mut rng);
            assert!(h.hash(&set) <= 1);
        }
    }

    #[test]
    fn scalar_and_simd_kernels_agree() {
        // On hardware with AVX-512DQ this compares the lane kernel against
        // the scalar one bit for bit; elsewhere it degenerates to scalar ==
        // scalar and only exercises the dispatch plumbing.
        let mut rng = StdRng::seed_from_u64(0xB10C);
        for trial in 0..50 {
            let rows: Vec<MinHasher> = (0..MIN_BLOCK).map(|_| MinHash.sample(&mut rng)).collect();
            let coeff: [(u64, u64); MIN_BLOCK] =
                std::array::from_fn(|j| rows[j].perm.coefficients());
            let items: Vec<u32> = (0..(trial % 40)).map(|_| rng.random()).collect();
            let set = SparseSet::from_items(items);
            let mut scalar = [u64::MAX; MIN_BLOCK];
            min_block_scalar(&coeff, set.items(), &mut scalar);
            let mut dispatched = [u64::MAX; MIN_BLOCK];
            fairnn_snapshot::dispatch_x86_feature!(
                ["avx512f", "avx512dq", "avx2"],
                kernel::min_block_avx512(&coeff, set.items(), &mut dispatched),
                min_block_scalar(&coeff, set.items(), &mut dispatched)
            );
            assert_eq!(scalar, dispatched, "trial {trial}");
            // And both match the definitional one-row-at-a-time path.
            for (j, row) in rows.iter().enumerate() {
                assert_eq!(scalar[j], row.min_value(&set), "trial {trial} row {j}");
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = SparseSet::from_items(vec![3, 14, 15, 92]);
        let h1 = MinHasher::from_seed(99);
        let h2 = MinHasher::from_seed(99);
        assert_eq!(h1.hash(&a), h2.hash(&a));
        let d = MinHasher::from_seed(100);
        // Different seeds need not differ on one input, but the min values
        // should differ on at least one of a few sets.
        let sets: Vec<SparseSet> = (0..10)
            .map(|i| SparseSet::from_items((i..i + 20).collect()))
            .collect();
        assert!(sets.iter().any(|s| h1.hash(s) != d.hash(s)));
    }
}
