//! Partitioning helpers for sharded serving.
//!
//! The sharded engine splits a dataset across shards, each of which owns its
//! own LSH tables. Because the fair samplers only need the shards to be
//! *disjoint and exhaustive* (the two-level sampler weighs each shard by its
//! own bucket lengths, so balance affects speed, not correctness), the
//! helpers here are deliberately simple deterministic assignments over
//! `0..n`; the engine maps the returned indices to whatever point storage it
//! uses.

use fairnn_sketch::splitmix64;

/// Round-robin assignment: index `i` goes to part `i % parts`. Produces the
/// most even split possible (part sizes differ by at most one) and is the
/// engine's default.
pub fn round_robin(n: usize, parts: usize) -> Vec<Vec<usize>> {
    assert!(parts >= 1, "need at least one part");
    let mut out: Vec<Vec<usize>> = (0..parts)
        .map(|_| Vec::with_capacity(n / parts + 1))
        .collect();
    for i in 0..n {
        out[i % parts].push(i);
    }
    out
}

/// Contiguous-range assignment: part `p` gets the `p`-th chunk of `0..n`
/// (chunk sizes differ by at most one). Useful when locality of ids matters
/// more than interleaving, e.g. when shards map to storage ranges.
pub fn contiguous(n: usize, parts: usize) -> Vec<Vec<usize>> {
    assert!(parts >= 1, "need at least one part");
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push((start..start + len).collect());
        start += len;
    }
    out
}

/// Hashed assignment: index `i` goes to part `splitmix64(seed ^ i) % parts`.
/// Statistically balanced and stable under appends (existing indices never
/// move when `n` grows), which is what an incrementally growing shard set
/// wants.
pub fn by_hash(n: usize, parts: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(parts >= 1, "need at least one part");
    let mut out: Vec<Vec<usize>> = (0..parts).map(|_| Vec::new()).collect();
    for i in 0..n {
        out[hash_part(i, parts, seed)].push(i);
    }
    out
}

/// The part `by_hash` assigns to a single index (for routing one new point
/// without materialising the whole assignment).
pub fn hash_part(index: usize, parts: usize, seed: u64) -> usize {
    assert!(parts >= 1, "need at least one part");
    (splitmix64(seed ^ index as u64) % parts as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_exhaustive_and_disjoint(assignment: &[Vec<usize>], n: usize) {
        let mut seen = vec![false; n];
        for part in assignment {
            for &i in part {
                assert!(i < n, "index {i} out of range");
                assert!(!seen[i], "index {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some index left unassigned");
    }

    #[test]
    fn round_robin_is_balanced() {
        let parts = round_robin(10, 3);
        assert_exhaustive_and_disjoint(&parts, 10);
        let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        assert_eq!(parts[1], vec![1, 4, 7]);
    }

    #[test]
    fn contiguous_covers_in_order() {
        let parts = contiguous(10, 4);
        assert_exhaustive_and_disjoint(&parts, 10);
        assert_eq!(parts[0], vec![0, 1, 2]);
        assert_eq!(parts[3], vec![8, 9]);
        for part in &parts {
            for w in part.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
        }
    }

    #[test]
    fn by_hash_is_exhaustive_stable_and_roughly_balanced() {
        let n = 4000;
        let parts = by_hash(n, 8, 7);
        assert_exhaustive_and_disjoint(&parts, n);
        for part in &parts {
            // 8-way split of 4000: expect ~500 per part; allow wide slack.
            assert!(part.len() > 300 && part.len() < 700, "size {}", part.len());
        }
        // Stability under growth: the first n indices keep their parts.
        let grown = by_hash(2 * n, 8, 7);
        for (p, part) in parts.iter().enumerate() {
            for &i in part {
                assert_eq!(hash_part(i, 8, 7), p);
                assert!(grown[p].contains(&i));
            }
        }
    }

    #[test]
    fn single_part_degenerates_to_identity() {
        for f in [round_robin, contiguous] {
            let parts = f(5, 1);
            assert_eq!(parts.len(), 1);
            assert_eq!(parts[0], vec![0, 1, 2, 3, 4]);
        }
        assert_eq!(by_hash(5, 1, 0)[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn zero_parts_rejected() {
        let _ = round_robin(3, 0);
    }

    #[test]
    fn empty_input_yields_empty_parts() {
        let parts = round_robin(0, 3);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(Vec::is_empty));
    }
}
