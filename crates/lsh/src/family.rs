//! LSH family abstractions.
//!
//! A *hasher* maps a point to a 64-bit token; two points "collide" under the
//! hasher when their tokens are equal. A *family* is a distribution over
//! hashers together with a model of the collision probability as a function
//! of similarity (Definition 3 of the paper). The collision model is what
//! parameter selection (`K`, `L`) is computed from, exactly as in the
//! paper's Section 6 setup.

use crate::sketch::SketchFamily;
use rand::Rng;

/// A single locality-sensitive hash function.
///
/// Tokens are `u64`; equality of tokens defines a collision. Concatenations
/// of several hashers are combined into a single token by
/// [`crate::ConcatenatedHasher`].
pub trait LshHasher<P> {
    /// How a bank of this family is drawn and evaluated as one sketch
    /// ([`crate::sketch`]) when [`crate::HasherBank::sample`] draws it, or
    /// `None`, the default: such banks are `K × L` independent rows.
    const SKETCH: Option<SketchFamily<P>> = None;

    /// Hashes one point to its token.
    fn hash(&self, point: &P) -> u64;

    /// Hashes a batch of points. The default implementation simply maps
    /// [`LshHasher::hash`]; families with shared per-batch work may override
    /// it.
    fn hash_batch(&self, points: &[P]) -> Vec<u64> {
        points.iter().map(|p| self.hash(p)).collect()
    }

    /// Row-batched evaluation: writes `out[i] = rows[i].hash(point)` for
    /// every hasher in `rows` (`out.len()` must equal `rows.len()`).
    ///
    /// The default implementation makes one pass over the point per row.
    /// Families whose evaluation streams the point's data override it with a
    /// *single* pass that advances all rows per element — one item load
    /// updates every running minimum for MinHash, and SimHash / p-stable use
    /// a blocked matrix–vector product — which is what makes the query hot
    /// path bound by one traversal of the point instead of `K × L`
    /// re-traversals. Implementations must be bit-for-bit equivalent to the
    /// per-row default; the property suite checks this for every family.
    fn hash_all(rows: &[Self], point: &P, out: &mut [u64])
    where
        Self: Sized,
    {
        debug_assert_eq!(rows.len(), out.len(), "one output slot per row");
        for (slot, row) in out.iter_mut().zip(rows) {
            *slot = row.hash(point);
        }
    }
}

/// Model of the collision probability of a family as a function of the
/// similarity (or distance) between two points.
///
/// The orientation matters: for similarity measures (Jaccard, inner product)
/// the probability is *increasing* in the argument, for distances it is
/// *decreasing*. The samplers only need the values at the near threshold
/// `r` and the far threshold `cr`, i.e. `p1` and `p2` of Definition 3.
pub trait CollisionModel {
    /// Probability that two points at similarity (or distance) `x` collide
    /// under a single hasher drawn from the family.
    fn collision_probability(&self, x: f64) -> f64;

    /// `ρ = log(1/p1) / log(1/p2)` for the given near/far thresholds —
    /// the exponent in the `n^ρ` query-time bound.
    fn rho(&self, near: f64, far: f64) -> f64 {
        let p1 = self
            .collision_probability(near)
            .clamp(f64::MIN_POSITIVE, 1.0);
        let p2 = self
            .collision_probability(far)
            .clamp(f64::MIN_POSITIVE, 1.0);
        if p1 >= 1.0 {
            return 0.0;
        }
        (1.0 / p1).ln() / (1.0 / p2).ln()
    }
}

/// A distribution over LSH hashers for point type `P`.
pub trait LshFamily<P>: CollisionModel {
    /// The hasher type this family samples.
    type Hasher: LshHasher<P>;

    /// Draws one hasher from the family.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Hasher;

    /// Draws `count` independent hashers from the family.
    fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<Self::Hasher> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy family over integers used to test the trait plumbing: points
    /// collide when they fall in the same residue class modulo `m`.
    struct ModuloFamily {
        m: u64,
    }

    struct ModuloHasher {
        m: u64,
        offset: u64,
    }

    impl LshHasher<u64> for ModuloHasher {
        fn hash(&self, point: &u64) -> u64 {
            (point + self.offset) % self.m
        }
    }

    impl CollisionModel for ModuloFamily {
        fn collision_probability(&self, x: f64) -> f64 {
            // Pretend collision probability decays linearly with distance.
            (1.0 - x / self.m as f64).clamp(0.0, 1.0)
        }
    }

    impl LshFamily<u64> for ModuloFamily {
        type Hasher = ModuloHasher;

        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ModuloHasher {
            ModuloHasher {
                m: self.m,
                offset: rng.random_range(0..self.m),
            }
        }
    }

    #[test]
    fn sample_many_returns_requested_count() {
        use rand::SeedableRng;
        let family = ModuloFamily { m: 8 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let hashers = family.sample_many(&mut rng, 5);
        assert_eq!(hashers.len(), 5);
    }

    #[test]
    fn hash_batch_matches_individual_hashes() {
        let hasher = ModuloHasher { m: 10, offset: 3 };
        let points = vec![1u64, 5, 9, 17];
        let batch = hasher.hash_batch(&points);
        for (p, h) in points.iter().zip(batch.iter()) {
            assert_eq!(hasher.hash(p), *h);
        }
    }

    #[test]
    fn rho_is_between_zero_and_one_for_monotone_models() {
        let family = ModuloFamily { m: 100 };
        let rho = family.rho(10.0, 50.0);
        assert!(rho > 0.0 && rho < 1.0, "rho = {rho}");
    }

    #[test]
    fn rho_is_zero_when_near_points_always_collide() {
        let family = ModuloFamily { m: 100 };
        assert_eq!(family.rho(0.0, 50.0), 0.0);
    }
}
