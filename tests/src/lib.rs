//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in `tests/tests/*.rs`; this small library holds the
//! fixtures they share (a common scaled-down workload and the LSH parameter
//! recipe of the paper's evaluation).

use fairnn_data::setdata::SetDataConfig;
use fairnn_lsh::{LshParams, OneBitMinHash, ParamsBuilder};
use fairnn_space::{Dataset, SparseSet};

/// A compact clustered set-dataset used by most integration tests: the same
/// qualitative structure as the paper's datasets (interest clusters plus
/// background users) at a size where exact ground truth is cheap.
pub fn test_dataset(seed: u64) -> Dataset<SparseSet> {
    SetDataConfig {
        num_users: 220,
        universe_size: 1500,
        mean_set_size: 24.0,
        std_set_size: 4.0,
        popularity_exponent: 1.0,
        num_clusters: 4,
        clustered_fraction: 0.8,
        core_fraction: 0.75,
        core_pool_factor: 1.2,
    }
    .generate(seed)
}

/// The Section 6 parameter recipe (1-bit MinHash, far threshold 0.1,
/// ≥ 99 % recall at `r`).
pub fn test_params(n: usize, r: f64) -> LshParams {
    ParamsBuilder::new(n, r, 0.1).empirical(&OneBitMinHash)
}

/// The clustered fixture behind the seed-pinned golden tests: one 10-member
/// cluster and 20 isolated points (the same shape the unit suites use).
/// Shared between `golden_samples.rs` (pins the behaviour of the live
/// structures) and `snapshot_roundtrip.rs` (pins that structures restored
/// from disk reproduce the very same sequences).
pub fn golden_dataset() -> Dataset<SparseSet> {
    let mut sets = Vec::new();
    for j in 0..10u32 {
        let mut items: Vec<u32> = (0..25).collect();
        items.push(100 + j);
        items.push(200 + j);
        sets.push(SparseSet::from_items(items));
    }
    for j in 0..20u32 {
        sets.push(SparseSet::from_items(
            (1000 + j * 40..1000 + j * 40 + 15).collect(),
        ));
    }
    Dataset::new(sets)
}

/// The LSH parameters the golden captures were taken with (full MinHash,
/// `r = 0.5`, far threshold 0.05).
pub fn golden_params(n: usize) -> LshParams {
    ParamsBuilder::new(n, 0.5, 0.05).empirical(&fairnn_lsh::MinHash)
}

/// Flattens optional ids for comparison against the golden constants
/// (`-1` encodes the paper's `⊥`).
pub fn golden_ids(v: &[Option<fairnn_space::PointId>]) -> Vec<i64> {
    v.iter()
        .map(|id| id.map_or(-1, |p| i64::from(p.0)))
        .collect()
}

/// Expected output of the pinned `FairNns` query sequence (seeds 1/5).
pub const GOLDEN_FAIR_NNS: [i64; 10] = [0, 0, 0, 10, 13, 16, 19, 22, 25, 28];
/// Expected output of the pinned `FairNnis` query sequence (seeds 2/99).
pub const GOLDEN_FAIR_NNIS: [i64; 20] =
    [7, 3, 8, 4, 8, 7, 0, 5, 2, 0, 6, 2, 6, 6, 7, 5, 7, 4, 4, 2];
/// Expected output of the pinned `RankSwapSampler` sequence (seeds 3/7).
pub const GOLDEN_RANK_SWAP: [i64; 20] =
    [3, 3, 6, 1, 9, 3, 7, 8, 2, 9, 1, 9, 1, 9, 8, 6, 9, 3, 9, 6];
/// Expected output of the pinned `ShardedIndex` sequence (seeds 17/11).
pub const GOLDEN_SHARDED: [i64; 20] = [8, 6, 7, 8, 1, 3, 3, 3, 6, 0, 9, 0, 9, 8, 4, 0, 6, 5, 1, 1];
/// Expected answers of batch 0 on the pinned engine (seed 23).
pub const GOLDEN_ENGINE_FIRST: [i64; 10] = [2, 9, 4, 3, 8, 3, 2, 0, 5, 2];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = test_dataset(1);
        let b = test_dataset(1);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.points()[0], b.points()[0]);
        let p = test_params(a.len(), 0.3);
        assert!(p.k >= 1 && p.l >= 1);
    }
}
