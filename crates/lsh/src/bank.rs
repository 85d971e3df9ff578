//! The hash functions of an LSH structure, on their own.
//!
//! An `L`-table LSH structure is defined by its `L` (concatenated) hash
//! functions; the tables are only their image over the data.
//! [`HasherBank`] holds those functions behind an [`Arc`], so several table
//! sets can be keyed by one bank. Every LSH structure holds its hashers as
//! one: [`crate::LshIndex`], the paper samplers of `fairnn-core` and the
//! engine, and each decoder checks the bank against its stored parameters
//! with [`HasherBank::check_shape`]. The engine indexes its base and its delta
//! with the same bank: a query is then hashed once for both, and the
//! union of their colliding sets is exactly the colliding set of one
//! `L`-table structure over all points (Sections 3–4 of the paper).
//!
//! **Which family evaluates a bank.** [`HasherBank::sample`], which draws
//! the engine's bank, draws one sketch ([`crate::sketch`]) for MinHash and
//! 1-bit MinHash: each item of a point is hashed once and swept over the
//! `K × L` bins, where `K × L` independent rows cost `|q| · K · L` hash
//! evaluations. The engine's draw is uniform over whatever colliding near
//! set its tables produce and does not rely on the tables being
//! independent; what it needs from the family is recall, which
//! `tests/tests/sketch_recall.rs` measures against per-row MinHash. The
//! paper's own structures ([`crate::LshIndex`] and the samplers built on
//! it) keep Section 6's `K × L` independent MinHash rows, because they
//! reproduce the paper's experiments with the paper's family. Families
//! without a sketch (SimHash, p-stable), and banks of more than
//! [`crate::sketch::MAX_BINS`] bins, are drawn row by row everywhere.

use crate::concat::ConcatenatedHasher;
use crate::family::{LshFamily, LshHasher};
use crate::params::LshParams;
use crate::sketch::MAX_BINS;
use crate::snapshot::HasherBankCodec;
use fairnn_obs::{LazyHistogram, Timer};
use fairnn_snapshot::SnapshotError;
use rand::Rng;
use std::sync::Arc;

/// Wall time of one batched `K x L` hash-bank evaluation of a query — one
/// observation per [`HasherBank::query_keys_into`] call, so mean(=
/// sum/count) is the hash-bank ns/point figure and the count is the number
/// of query hashes. Every structure hashes its queries through that call:
/// the engine's `prepare`, `sample` and `neighborhood`, [`crate::LshIndex`]
/// (and the `fairnn-core` baselines built on it), and the paper samplers
/// (`FairNns`, `RankSwapSampler`, `FairNnis`). Point hashes for builds,
/// inserts and rank swaps are not counted.
static HASH_BANK_NS: LazyHistogram = LazyHistogram::new(
    "lsh_hash_bank_ns",
    "batched K x L hash-bank evaluation time per point in nanoseconds",
);

/// Writes the per-table bucket keys of `query` into `keys` (resized to
/// `hashers.len()`) in one batched pass, timed into `lsh_hash_bank_ns`.
fn hash_query_into<P, H: LshHasher<P>>(hashers: &[H], query: &P, keys: &mut Vec<u64>) {
    let _timer = Timer::start(&HASH_BANK_NS);
    keys.clear();
    keys.resize(hashers.len(), 0);
    H::hash_all(hashers, query, keys);
}

/// Computes every point's `L` bucket keys into one point-major buffer
/// (`keys[i * L + t]` is point `i`'s key in table `t`): one batched
/// [`LshHasher::hash_all`] evaluation per point, with disjoint point chunks
/// hashed on parallel build workers. Chunks are concatenated in point
/// order, so the buffer is bit-identical at every thread count.
fn compute_point_keys<P, H>(hashers: &[H], points: &[P]) -> Vec<u64>
where
    H: LshHasher<P> + Sync,
    P: Sync,
{
    let l = hashers.len();
    let chunks = fairnn_parallel::map_slices(points, 32, |_, chunk| {
        let mut keys = vec![0u64; chunk.len() * l];
        for (i, p) in chunk.iter().enumerate() {
            H::hash_all(hashers, p, &mut keys[i * l..(i + 1) * l]);
        }
        keys
    });
    let mut keys = Vec::with_capacity(points.len() * l);
    for chunk in chunks {
        keys.extend(chunk);
    }
    keys
}

/// The `L` per-table hashers of an LSH structure, shared behind an [`Arc`]
/// (cloning is a reference-count bump).
#[derive(Debug)]
pub struct HasherBank<H> {
    hashers: Arc<[H]>,
}

impl<H> Clone for HasherBank<H> {
    fn clone(&self) -> Self {
        Self {
            hashers: Arc::clone(&self.hashers),
        }
    }
}

impl<H> HasherBank<H> {
    /// Wraps `L ≥ 1` per-table hashers.
    pub fn new(hashers: Vec<H>) -> Self {
        assert!(
            !hashers.is_empty(),
            "a hasher bank needs at least one table"
        );
        Self {
            hashers: hashers.into(),
        }
    }

    /// The per-table hashers (index `t` keys table `t`).
    pub fn hashers(&self) -> &[H] {
        &self.hashers
    }

    /// Number of tables `L` the bank keys.
    pub fn num_tables(&self) -> usize {
        self.hashers.len()
    }

    /// Writes the per-table bucket keys of `query` into `keys` (resized to
    /// `L`), all `K × L` rows in one batched pass. Each call is one
    /// `lsh_hash_bank_ns` observation.
    pub fn query_keys_into<P>(&self, query: &P, keys: &mut Vec<u64>)
    where
        H: LshHasher<P>,
    {
        hash_query_into(&self.hashers, query, keys);
    }

    /// The per-table bucket keys of one point being inserted or removed
    /// (untimed: `lsh_hash_bank_ns` counts query hashes only).
    pub fn point_keys<P>(&self, point: &P) -> Vec<u64>
    where
        H: LshHasher<P>,
    {
        let mut keys = vec![0u64; self.hashers.len()];
        H::hash_all(&self.hashers, point, &mut keys);
        keys
    }

    /// Every point's bucket keys, point-major (`keys[i * L + t]`), hashed
    /// on the parallel build workers — the input of
    /// [`crate::LshTables::build`].
    pub fn all_point_keys<P>(&self, points: &[P]) -> Vec<u64>
    where
        H: LshHasher<P> + Sync,
        P: Sync,
    {
        compute_point_keys(&self.hashers, points)
    }
}

impl<BH> HasherBank<ConcatenatedHasher<BH>> {
    /// Draws the engine's `K × L` bank. For a family with a sketch
    /// ([`LshHasher::SKETCH`]: MinHash and 1-bit MinHash) and
    /// `K × L ≤ MAX_BINS`, it is one sketched bank
    /// ([`ConcatenatedHasher::sketched_bank`]) fixed by a single `u64`
    /// drawn from `rng`. Otherwise it is `L` concatenations of `K` draws
    /// from `family`, in one shared table-major row bank
    /// ([`ConcatenatedHasher::bank`]) — the same draws, in the same order,
    /// as [`crate::LshIndex::build`] makes from the same `rng`.
    ///
    /// [`MAX_BINS`]: crate::sketch::MAX_BINS
    pub fn sample<P, F, R>(family: &F, params: LshParams, rng: &mut R) -> Self
    where
        BH: LshHasher<P>,
        F: LshFamily<P, Hasher = BH>,
        R: Rng + ?Sized,
    {
        let bins = params.k * params.l;
        match BH::SKETCH {
            Some(sketch) if bins <= MAX_BINS => Self::new(ConcatenatedHasher::sketched_bank(
                rng.random(),
                params.l,
                params.k,
                sketch.token,
            )),
            _ => Self::new(ConcatenatedHasher::bank(
                family.sample_many(rng, bins),
                params.k,
            )),
        }
    }
}

impl<H: HasherBankCodec> HasherBank<H> {
    /// Checks a decoded bank against the parameters stored next to it: it
    /// must key exactly `L` tables with `K × L` rows in total, or queries
    /// would index past the tables.
    pub fn check_shape(&self, params: LshParams) -> Result<(), SnapshotError> {
        let rows = H::bank_rows(&self.hashers);
        let expected = params.k.checked_mul(params.l);
        if self.hashers.len() != params.l || Some(rows) != expected {
            return Err(SnapshotError::Corrupt(format!(
                "hasher bank holds {} tables with {rows} rows, parameters K = {}, L = {} need {} \
                 tables with K x L rows",
                self.hashers.len(),
                params.k,
                params.l,
                params.l
            )));
        }
        Ok(())
    }
}

impl<H: HasherBankCodec> fairnn_snapshot::Codec for HasherBank<H> {
    fn encode(&self, enc: &mut fairnn_snapshot::Encoder) {
        H::encode_bank(&self.hashers, enc);
    }

    fn decode(dec: &mut fairnn_snapshot::Decoder<'_>) -> Result<Self, SnapshotError> {
        let hashers = H::decode_bank(dec)?;
        if hashers.is_empty() {
            return Err(SnapshotError::Corrupt(
                "a hasher bank needs at least one table".into(),
            ));
        }
        Ok(Self {
            hashers: hashers.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::{MinHash, MinHasher, OneBitMinHash, OneBitMinHasher};
    use crate::params::ParamsBuilder;
    use crate::sketch::SketchToken;
    use crate::LshIndex;
    use fairnn_space::SparseSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Sketched banks of both MinHash families for `params`, fixed by
    /// `seed`.
    fn sketched_banks(
        params: LshParams,
        seed: u64,
    ) -> (
        HasherBank<ConcatenatedHasher<MinHasher>>,
        HasherBank<ConcatenatedHasher<OneBitMinHasher>>,
    ) {
        let (k, l) = (params.k, params.l);
        (
            HasherBank::new(ConcatenatedHasher::sketched_bank(
                seed,
                l,
                k,
                SketchToken::Full,
            )),
            HasherBank::new(ConcatenatedHasher::sketched_bank(
                seed,
                l,
                k,
                SketchToken::OneBit,
            )),
        )
    }

    /// `bank`'s batched keys against each table's own `hash`, the bin by
    /// bin scalar reference of a sketched bank.
    fn assert_keys_match_each_table<H: LshHasher<SparseSet> + Sync>(
        bank: &HasherBank<H>,
        points: &[SparseSet],
    ) {
        let mut keys = Vec::new();
        for p in points {
            bank.query_keys_into(p, &mut keys);
            let reference: Vec<u64> = bank.hashers().iter().map(|h| h.hash(p)).collect();
            assert_eq!(keys, reference);
            assert_eq!(bank.point_keys(p), keys);
        }
        let each: Vec<u64> = points.iter().flat_map(|p| bank.point_keys(p)).collect();
        assert_eq!(bank.all_point_keys(points), each);
    }

    /// The empty set, one item, a few, and more items than `bins`.
    fn sample_points(bins: usize) -> Vec<SparseSet> {
        vec![
            SparseSet::new(),
            SparseSet::from_items(vec![7]),
            SparseSet::from_items(vec![1, 2, 3]),
            SparseSet::from_items(vec![2, 3, 4, 9]),
            SparseSet::from_items((0..bins as u32 + 5).collect()),
        ]
    }

    #[test]
    fn sketched_bank_keys_match_each_tables_reference() {
        // A sketched bank's batched keys (the sweep) equal each table's
        // hash evaluated bin by bin from the definition: a table's hash is
        // its slot of `hash_all`.
        let params = LshParams::explicit(3, 7, 0.5, 0.1);
        let (full, one_bit) = sketched_banks(params, 5);
        let points = sample_points(21);
        assert_keys_match_each_table(&full, &points);
        assert_keys_match_each_table(&one_bit, &points);
        assert!(one_bit.hashers()[0].rows().is_empty());
    }

    #[test]
    fn sampled_bank_keys_match_each_tables_reference() {
        // The engine's bank is one sketch, keyed as each table's reference.
        let params = ParamsBuilder::new(50, 0.5, 0.05).empirical(&MinHash);
        let full = HasherBank::sample(&MinHash, params, &mut StdRng::seed_from_u64(4));
        let one_bit = HasherBank::sample(&OneBitMinHash, params, &mut StdRng::seed_from_u64(4));
        assert_eq!(full.num_tables(), params.l);
        let sketch = full.hashers()[0].sketch().expect("a sketched bank");
        assert_eq!(sketch.bins(), params.k * params.l);
        assert_eq!(sketch.token_kind(), SketchToken::Full);
        let points = sample_points(params.k * params.l);
        assert_keys_match_each_table(&full, &points);
        assert_keys_match_each_table(&one_bit, &points);
    }

    #[test]
    fn a_bank_too_wide_for_a_sketch_keys_like_an_index_drawn_from_the_same_stream() {
        // Past `MAX_BINS` bins the bank is drawn row by row: the same draws,
        // in the same order, as `LshIndex::build` makes.
        let params = LshParams::explicit(2, MAX_BINS / 2 + 1, 0.5, 0.05);
        let bank = HasherBank::sample(&MinHash, params, &mut StdRng::seed_from_u64(4));
        assert!(bank.hashers()[0].sketch().is_none());
        let points = vec![
            SparseSet::from_items(vec![1, 2, 3]),
            SparseSet::from_items(vec![2, 3, 4, 9]),
        ];
        let index = LshIndex::build(&MinHash, params, &points, &mut StdRng::seed_from_u64(4));
        for p in &points {
            assert_eq!(bank.point_keys(p), index.query_keys(p));
        }
    }

    /// The share of `(table, seed)` pairs over `seeds` sketched banks of
    /// `K × L` bins in which `a` and `b` collide.
    fn table_collision_rate(
        k: usize,
        l: usize,
        token: SketchToken,
        a: &SparseSet,
        b: &SparseSet,
        seeds: u64,
    ) -> f64 {
        let mut collisions = 0usize;
        for seed in 0..seeds {
            let bank: HasherBank<ConcatenatedHasher<MinHasher>> =
                HasherBank::new(ConcatenatedHasher::sketched_bank(seed, l, k, token));
            let (ka, kb) = (bank.point_keys(a), bank.point_keys(b));
            collisions += ka.iter().zip(&kb).filter(|(x, y)| x == y).count();
        }
        collisions as f64 / (seeds as usize * l) as f64
    }

    #[test]
    fn sketch_bin_collision_rate_tracks_jaccard() {
        // One bin per table: a bin's full token collides with probability
        // J, its one bit with probability (1 + J) / 2, as one MinHash row.
        let a = SparseSet::from_items((0..30).collect());
        let b = SparseSet::from_items((15..45).collect());
        let j = a.jaccard(&b); // 15 / 45 = 1/3
        let full = table_collision_rate(1, 40, SketchToken::Full, &a, &b, 200);
        assert!(
            (full - j).abs() < 0.05,
            "full-token rate {full}, Jaccard {j}"
        );
        let bit = table_collision_rate(1, 40, SketchToken::OneBit, &a, &b, 200);
        let expected = (1.0 + j) / 2.0;
        assert!(
            (bit - expected).abs() < 0.05,
            "one-bit rate {bit}, expected {expected}"
        );
    }

    #[test]
    fn a_sketched_table_of_k_bins_collides_at_about_j_to_the_k() {
        let a = SparseSet::from_items((0..30).collect());
        let b = SparseSet::from_items((10..40).collect()); // J = 0.5
        let j: f64 = a.jaccard(&b);
        for (k, token, p) in [
            (3, SketchToken::Full, j),
            (3, SketchToken::OneBit, (1.0 + j) / 2.0),
        ] {
            let rate = table_collision_rate(k, 40, token, &a, &b, 200);
            let expected = p.powi(k as i32);
            assert!(
                (rate - expected).abs() < 0.04,
                "{token:?}, K = {k}: rate {rate}, expected {expected}"
            );
        }
        // Far apart, a K = 10 one-bit table (the paper's Last.FM K) almost
        // never collides: 0.55^10 < 0.003 at J = 0.1.
        let c = SparseSet::from_items((0..20).chain(200..240).collect());
        let d = SparseSet::from_items((14..20).chain(400..420).collect());
        let rate = table_collision_rate(10, 76, SketchToken::OneBit, &c, &d, 100);
        assert!(rate < 0.01, "K = 10 one-bit rate {rate}");
    }

    /// The canonical wire bytes of a bank.
    fn encode<H: HasherBankCodec>(bank: &HasherBank<H>) -> Vec<u8> {
        let mut enc = fairnn_snapshot::Encoder::new();
        fairnn_snapshot::Codec::encode(bank, &mut enc);
        enc.into_bytes()
    }

    fn decode<H: HasherBankCodec>(bytes: &[u8]) -> Result<HasherBank<H>, SnapshotError> {
        let mut dec = fairnn_snapshot::Decoder::new(bytes);
        let bank = <HasherBank<H> as fairnn_snapshot::Codec>::decode(&mut dec)?;
        dec.finish()?;
        Ok(bank)
    }

    #[test]
    fn a_sketched_bank_round_trips_as_its_seed() {
        let params = LshParams::explicit(4, 100, 0.5, 0.1);
        let (full, one_bit) = sketched_banks(params, 9);
        let bytes = encode(&full);
        // Tag, L, K, seed: no rows.
        assert_eq!(bytes.len(), 1 + 3 * 8);
        let back: HasherBank<ConcatenatedHasher<MinHasher>> = decode(&bytes).expect("decode");
        assert_eq!(encode(&back), bytes);
        back.check_shape(params).expect("shape");
        let point = SparseSet::from_items(vec![3, 1, 4, 15, 92, 65]);
        assert_eq!(back.point_keys(&point), full.point_keys(&point));
        let back: HasherBank<ConcatenatedHasher<OneBitMinHasher>> =
            decode(&encode(&one_bit)).expect("decode");
        assert_eq!(back.point_keys(&point), one_bit.point_keys(&point));
        assert_eq!(
            back.hashers()[0].sketch().map(|s| s.token_kind()),
            Some(SketchToken::OneBit)
        );
    }

    #[test]
    fn a_bad_sketch_layout_fails_with_a_typed_error() {
        let params = LshParams::explicit(4, 100, 0.5, 0.1);
        let bytes = encode(&sketched_banks(params, 9).0);
        // A layout tag no encoder writes.
        let mut bad_tag = bytes.clone();
        bad_tag[0] = 3;
        let err = decode::<ConcatenatedHasher<MinHasher>>(&bad_tag).expect_err("bad tag");
        assert!(
            matches!(err, SnapshotError::Corrupt(ref m) if m.contains("layout tag 3")),
            "{err}"
        );
        // A seed field cut short.
        let err = decode::<ConcatenatedHasher<MinHasher>>(&bytes[..bytes.len() - 3])
            .expect_err("short seed");
        assert!(matches!(err, SnapshotError::Truncated { .. }), "{err}");
        // A sketch layout for rows without a sketch.
        let err = decode::<ConcatenatedHasher<crate::SimHasher>>(&bytes).expect_err("no sketch");
        assert!(
            matches!(err, SnapshotError::Corrupt(ref m) if m.contains("no sketch")),
            "{err}"
        );
        // More bins than a sketch holds, or none.
        for (tables, arity) in [(MAX_BINS / 4 + 1, 4u64), (0, 4), (100, 0)] {
            let mut enc = fairnn_snapshot::Encoder::new();
            enc.write_u8(bytes[0]);
            enc.write_u64(tables as u64);
            enc.write_u64(arity);
            enc.write_u64(9);
            let err =
                decode::<ConcatenatedHasher<MinHasher>>(&enc.into_bytes()).expect_err("bin count");
            assert!(
                matches!(err, SnapshotError::Corrupt(ref m) if m.contains("sketched bank")),
                "{err}"
            );
        }
    }

    #[test]
    fn shape_check_rejects_a_bank_that_does_not_fit_the_parameters() {
        let params = ParamsBuilder::new(50, 0.5, 0.05).empirical(&MinHash);
        let bank: HasherBank<ConcatenatedHasher<MinHasher>> =
            HasherBank::sample(&MinHash, params, &mut StdRng::seed_from_u64(5));
        assert!(bank.check_shape(params).is_ok());
        let wider = LshParams {
            k: params.k + 1,
            ..params
        };
        assert!(matches!(
            bank.check_shape(wider),
            Err(SnapshotError::Corrupt(_))
        ));
        let longer = LshParams {
            l: params.l + 1,
            ..params
        };
        assert!(matches!(
            bank.check_shape(longer),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
