//! Deterministic RNG stream splitting.
//!
//! The engine's reproducibility contract is that a root seed fully
//! determines every answer, *regardless of scheduling or thread count*.
//! That requires never sharing one RNG between concurrent units of work;
//! instead every unit (the hasher bank, a batch, a query within a
//! batch) gets its own stream derived from the root seed by hashing the
//! stream id through SplitMix64 — the same mixer the sketches use for
//! seeding. SplitMix64 is a bijection of `u64`, so for a fixed root
//! distinct stream ids can never collide.

use fairnn_sketch::splitmix64;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives a child seed for stream `stream` of the generator rooted at
/// `root`. Injective in `stream` for any fixed `root`.
pub fn split_seed(root: u64, stream: u64) -> u64 {
    splitmix64(root ^ splitmix64(stream.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

/// A fresh deterministic generator for stream `stream` of `root`.
pub fn stream_rng(root: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(split_seed(root, stream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let mut a = stream_rng(7, 0);
        let mut a2 = stream_rng(7, 0);
        let mut b = stream_rng(7, 1);
        for _ in 0..32 {
            assert_eq!(a.random::<u64>(), a2.random::<u64>());
        }
        assert_ne!(stream_rng(7, 0).random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn split_is_injective_over_a_window() {
        let mut seen = std::collections::HashSet::new();
        for stream in 0..10_000u64 {
            assert!(seen.insert(split_seed(99, stream)), "collision at {stream}");
        }
    }

    #[test]
    fn nested_splits_do_not_alias_siblings() {
        // (root -> batch -> query) must not collide with (root -> batch')
        // for the small ids the engine actually uses.
        let root = 0xFEED;
        let mut seen = std::collections::HashSet::new();
        for batch in 0..64u64 {
            let bs = split_seed(root, batch);
            for query in 0..64u64 {
                assert!(seen.insert(split_seed(bs, query)));
            }
        }
    }
}
