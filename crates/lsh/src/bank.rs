//! The hash functions of an LSH structure, on their own.
//!
//! An `L`-table LSH structure is defined by its `L` (concatenated) hash
//! functions; the tables are only their image over the data.
//! [`HasherBank`] holds those functions behind an [`Arc`], so several table
//! sets can be keyed by one bank. The engine indexes its base and its delta
//! with the same bank: a query is then hashed once for both, and the
//! union of their colliding sets is exactly the colliding set of one
//! `L`-table structure over all points (Sections 3–4 of the paper).

use crate::concat::ConcatenatedHasher;
use crate::family::{LshFamily, LshHasher};
use crate::params::LshParams;
use crate::snapshot::HasherBankCodec;
use fairnn_obs::{LazyHistogram, Timer};
use fairnn_snapshot::SnapshotError;
use rand::Rng;
use std::sync::Arc;

/// Wall time of one batched `K x L` hash-bank evaluation of a query — one
/// observation per hashed query, so mean(= sum/count) is the hash-bank
/// ns/point figure and the count is the number of query hashes.
static HASH_BANK_NS: LazyHistogram = LazyHistogram::new(
    "lsh_hash_bank_ns",
    "batched K x L hash-bank evaluation time per point in nanoseconds",
);

/// Writes the per-table bucket keys of `query` into `keys` (resized to
/// `hashers.len()`) in one batched pass, timed into `lsh_hash_bank_ns`.
pub(crate) fn hash_query_into<P, H: LshHasher<P>>(hashers: &[H], query: &P, keys: &mut Vec<u64>) {
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
pub(crate) fn compute_point_keys<P, H>(hashers: &[H], points: &[P]) -> Vec<u64>
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
    /// Draws the standard `K × L` bank: `L` concatenations of `K` draws
    /// from `family`, in one shared table-major row bank
    /// ([`ConcatenatedHasher::bank`]) — the same draws, in the same order,
    /// as [`crate::LshIndex::build`] makes from the same `rng`.
    pub fn sample<P, F, R>(family: &F, params: LshParams, rng: &mut R) -> Self
    where
        F: LshFamily<P, Hasher = BH>,
        R: Rng + ?Sized,
    {
        let rows = family.sample_many(rng, params.k * params.l);
        Self::new(ConcatenatedHasher::bank(rows, params.k))
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
    use crate::minhash::{MinHash, MinHasher};
    use crate::params::ParamsBuilder;
    use crate::LshIndex;
    use fairnn_space::SparseSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_bank_keys_like_an_index_drawn_from_the_same_stream() {
        let params = ParamsBuilder::new(50, 0.5, 0.05).empirical(&MinHash);
        let bank = HasherBank::sample(&MinHash, params, &mut StdRng::seed_from_u64(4));
        let points = vec![
            SparseSet::from_items(vec![1, 2, 3]),
            SparseSet::from_items(vec![2, 3, 4, 9]),
        ];
        let index = LshIndex::build(&MinHash, params, &points, &mut StdRng::seed_from_u64(4));
        assert_eq!(bank.num_tables(), params.l);
        let mut keys = Vec::new();
        for p in &points {
            bank.query_keys_into(p, &mut keys);
            assert_eq!(keys, index.query_keys(p));
            assert_eq!(bank.point_keys(p), keys);
        }
        assert_eq!(
            bank.all_point_keys(&points),
            [index.query_keys(&points[0]), index.query_keys(&points[1])].concat()
        );
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
