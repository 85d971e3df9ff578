//! AND-concatenation of LSH functions.
//!
//! Section 2.2 of the paper assumes `p2 ≤ 1/n` and notes that this can
//! always be achieved by concatenating `K = Θ(log_{1/p2}(n))` independent
//! functions: the concatenated family is `(r, cr, p1^K, p2^K)`-sensitive and
//! `ρ` is unchanged. [`ConcatenatedHasher`] performs that concatenation and
//! folds the `K` tokens into a single 64-bit bucket key with a polynomial
//! hash (collisions of the fold are astronomically unlikely and only ever
//! *merge* buckets, which the query algorithms tolerate because they always
//! re-check distances).

use crate::family::{CollisionModel, LshFamily, LshHasher};
use crate::sketch::{BankSketch, SketchToken, MAX_BINS};
use rand::Rng;
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// Per-thread token scratch for [`ConcatenatedHasher`]'s `hash_all`:
    /// holds the `K × L` row hashes of one batched evaluation so the query
    /// hot path performs no heap allocation in the steady state. Thread
    /// local (rather than caller-provided) so the batched path is available
    /// behind the plain [`LshHasher`] trait, including from the engine's
    /// worker threads.
    static ROW_TOKENS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A hasher formed by concatenating `K` independent hashers from a base
/// family.
///
/// The rows live in an [`Arc`] slice so that the `L` table hashers of one
/// index can share a single table-major *bank* (see
/// [`ConcatenatedHasher::bank`]); when a whole slice of such siblings is
/// evaluated through [`LshHasher::hash_all`], all `K × L` rows are hashed in
/// one pass over the point.
///
/// A *sketched* bank ([`ConcatenatedHasher::sketched_bank`]) has no rows:
/// its `L` tables share one [`BankSketch`] of `K × L` bins, and table `t`
/// concatenates bins `t·K .. t·K + K`.
#[derive(Debug, Clone)]
pub struct ConcatenatedHasher<H> {
    rows: Arc<[H]>,
    /// The table's first row (or bin, in a sketched bank).
    start: usize,
    arity: usize,
    sketch: Option<Arc<BankSketch>>,
}

impl<H> ConcatenatedHasher<H> {
    /// Combines `rows` hashers into one. `rows` must be non-empty.
    pub fn new(rows: Vec<H>) -> Self {
        assert!(!rows.is_empty(), "concatenation needs at least one hasher");
        let arity = rows.len();
        Self {
            rows: rows.into(),
            start: 0,
            arity,
            sketch: None,
        }
    }

    /// Splits a flat, table-major bank of `rows.len() / arity` tables ×
    /// `arity` rows into table hashers that all share one allocation.
    /// [`crate::LshIndex::build`] uses this so a query can evaluate every
    /// row of every table in a single pass over the point.
    pub fn bank(rows: Vec<H>, arity: usize) -> Vec<Self> {
        assert!(arity >= 1, "concatenation needs at least one hasher");
        assert_eq!(
            rows.len() % arity,
            0,
            "bank size must be a multiple of the arity"
        );
        let shared: Arc<[H]> = rows.into();
        (0..shared.len() / arity)
            .map(|table| Self {
                rows: Arc::clone(&shared),
                start: table * arity,
                arity,
                sketch: None,
            })
            .collect()
    }

    /// The `tables` table hashers of one sketched bank of `tables × arity`
    /// bins fixed by `seed` ([`crate::sketch`]), keeping `token` of each
    /// bin. Panics unless `1 ≤ tables × arity ≤ MAX_BINS`.
    pub fn sketched_bank(seed: u64, tables: usize, arity: usize, token: SketchToken) -> Vec<Self> {
        assert!(arity >= 1, "concatenation needs at least one hasher");
        let bins = tables.saturating_mul(arity);
        let sketch = Arc::new(BankSketch::new(seed, bins, token));
        (0..tables)
            .map(|table| Self {
                rows: Arc::new([]),
                start: table * arity,
                arity,
                sketch: Some(Arc::clone(&sketch)),
            })
            .collect()
    }

    /// Number of concatenated rows `K`.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The individual row hashers (none in a sketched bank).
    pub fn rows(&self) -> &[H] {
        self.rows
            .get(self.start..self.start + self.arity)
            .unwrap_or(&[])
    }

    /// The sketch of a sketched bank's table, `None` for drawn rows.
    pub fn sketch(&self) -> Option<&BankSketch> {
        self.sketch.as_deref()
    }

    /// When every hasher in `tables` views consecutive chunks of one shared
    /// bank (the layout [`ConcatenatedHasher::bank`] produces), returns the
    /// flat prefix of that bank covering all of them.
    fn flat_bank(tables: &[Self]) -> Option<&[H]> {
        let first = tables.first()?;
        let mut expected_start = 0;
        for table in tables {
            if table.sketch.is_some()
                || !Arc::ptr_eq(&table.rows, &first.rows)
                || table.start != expected_start
            {
                return None;
            }
            expected_start += table.arity;
        }
        Some(&first.rows[..expected_start])
    }

    /// When every hasher in `tables` is a table of one sketched bank,
    /// returns that bank's sketch.
    fn shared_sketch(tables: &[Self]) -> Option<&BankSketch> {
        let sketch = tables.first()?.sketch.as_ref()?;
        tables
            .iter()
            .all(|t| t.sketch.as_ref().is_some_and(|s| Arc::ptr_eq(s, sketch)))
            .then_some(&**sketch)
    }

    /// The bins of this table in its sketched bank.
    fn bins(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.arity
    }

    /// The items of `point` for a sketched bank. Only [`HasherBank::sample`]
    /// and the bank decoder make sketched banks, and both only for a family
    /// with a sketch.
    ///
    /// [`HasherBank::sample`]: crate::HasherBank::sample
    fn sketch_items<P>(point: &P) -> &[u32]
    where
        H: LshHasher<P>,
    {
        let family = <H as LshHasher<P>>::SKETCH
            .expect("sketched banks are drawn only for families with a sketch");
        (family.items)(point)
    }
}

/// Folds a table's row tokens into its 64-bit bucket key — a polynomial in
/// a fixed odd base. Equal row-token vectors always produce equal keys;
/// distinct vectors collide only if the fold collides.
#[inline]
pub(crate) fn fold(tokens: impl IntoIterator<Item = u64>) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for token in tokens {
        acc = acc
            .wrapping_mul(0x0000_0100_0000_01B3)
            .wrapping_add(token.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
            .wrapping_add(1);
    }
    acc
}

impl<P, H: LshHasher<P>> LshHasher<P> for ConcatenatedHasher<H> {
    /// The table's bucket key. A sketched bank's table is evaluated bin by
    /// bin over its own `K` bins only (`BankSketch::table_key`), which is
    /// the definition the bank-wide sweep of [`LshHasher::hash_all`] must
    /// match.
    fn hash(&self, point: &P) -> u64 {
        match &self.sketch {
            Some(sketch) => sketch.table_key(Self::sketch_items(point), self.bins()),
            None => fold(self.rows().iter().map(|row| row.hash(point))),
        }
    }

    /// Batched bucket keys: `out[t] = tables[t].hash(point)`.
    ///
    /// When the tables are tables of one sketched bank, one sweep of the
    /// point's items over all `K × L` bins (`BankSketch::with_tokens`)
    /// gives every table's tokens. When they share one contiguous bank
    /// (the [`ConcatenatedHasher::bank`] layout), all `K × L` row hashes
    /// are computed by a *single* `H::hash_all` pass over the point and
    /// then folded per table; otherwise each table gets its own single-pass
    /// evaluation of its `K` rows. Either way the keys are bit-identical to
    /// the per-table [`LshHasher::hash`] path, and the intermediate tokens
    /// live in a reusable thread-local buffer, so steady-state queries do
    /// not allocate.
    fn hash_all(tables: &[Self], point: &P, out: &mut [u64]) {
        debug_assert_eq!(tables.len(), out.len(), "one output slot per table");
        if let Some(sketch) = Self::shared_sketch(tables) {
            sketch.with_tokens(Self::sketch_items(point), |tokens| {
                for (table, slot) in tables.iter().zip(out.iter_mut()) {
                    *slot = tokens.table_key(sketch, table.bins());
                }
            });
            return;
        }
        // Take the buffer out of the thread-local instead of holding the
        // borrow across the `H::hash_all` calls: if `H` is itself a
        // `ConcatenatedHasher` (nested concatenation), the inner call then
        // simply starts from an empty taken buffer rather than hitting a
        // re-entrant `RefCell` borrow.
        let mut tokens = ROW_TOKENS.with(|cell| std::mem::take(&mut *cell.borrow_mut()));
        if let Some(flat) = Self::flat_bank(tables) {
            tokens.clear();
            tokens.resize(flat.len(), 0);
            H::hash_all(flat, point, &mut tokens);
            let mut offset = 0;
            for (table, slot) in tables.iter().zip(out.iter_mut()) {
                *slot = fold(tokens[offset..offset + table.arity].iter().copied());
                offset += table.arity;
            }
        } else {
            for (table, slot) in tables.iter().zip(out.iter_mut()) {
                let rows = table.rows();
                tokens.clear();
                tokens.resize(rows.len(), 0);
                H::hash_all(rows, point, &mut tokens);
                *slot = fold(tokens.iter().copied());
            }
        }
        ROW_TOKENS.with(|cell| *cell.borrow_mut() = tokens);
    }
}

/// Bank layout tags of the [`crate::snapshot::HasherBankCodec`] encoding.
const BANK_SHARED: u8 = 1;
const BANK_INDEPENDENT: u8 = 0;
/// A sketched bank: `L`, `K` and the sketch's seed, no rows.
const BANK_SKETCH: u8 = 2;

impl<H: crate::snapshot::RowCodec> crate::snapshot::HasherBankCodec for ConcatenatedHasher<H> {
    /// Writes the table hashers as a sketched bank's seed (the layout
    /// [`ConcatenatedHasher::sketched_bank`] produces: `L`, `K` and the
    /// seed, 24 bytes past the tag for the whole bank), as one flat shared
    /// bank (the layout [`ConcatenatedHasher::bank`] produces — each row
    /// written exactly once, in bulk via [`crate::snapshot::RowCodec`])
    /// or, for independently built hashers, as one row vector per table.
    /// Tables of a sketched bank are encoded whole and in order, as a
    /// [`crate::HasherBank`] holds them.
    fn encode_bank(tables: &[Self], enc: &mut fairnn_snapshot::Encoder) {
        let uniform_arity = tables
            .first()
            .is_some_and(|first| tables.iter().all(|t| t.arity == first.arity));
        if tables.iter().any(|t| t.sketch.is_some()) {
            let sketch = Self::shared_sketch(tables).filter(|sketch| {
                uniform_arity
                    && sketch.bins() == tables.len() * tables[0].arity
                    && tables
                        .iter()
                        .enumerate()
                        .all(|(t, table)| table.start == t * table.arity)
            });
            let sketch = sketch.expect("a sketched bank is encoded whole, in table order");
            enc.write_u8(BANK_SKETCH);
            enc.write_u64(tables.len() as u64);
            enc.write_u64(tables[0].arity as u64);
            enc.write_u64(sketch.seed());
            return;
        }
        match Self::flat_bank(tables) {
            Some(flat) if uniform_arity => {
                enc.write_u8(BANK_SHARED);
                enc.write_len(tables.len());
                enc.write_u64(tables[0].arity as u64);
                H::encode_rows(flat, enc);
            }
            _ => {
                enc.write_u8(BANK_INDEPENDENT);
                enc.write_len(tables.len());
                for table in tables {
                    enc.write_u64(table.arity as u64);
                    for row in table.rows() {
                        row.encode(enc);
                    }
                }
            }
        }
    }

    fn bank_rows(tables: &[Self]) -> usize {
        tables.iter().map(|t| t.arity).sum()
    }

    fn decode_bank(
        dec: &mut fairnn_snapshot::Decoder<'_>,
    ) -> Result<Vec<Self>, fairnn_snapshot::SnapshotError> {
        use fairnn_snapshot::{Codec, SnapshotError};
        let layout = dec.read_u8()?;
        match layout {
            BANK_SKETCH => {
                // A table count, not the length of what follows: no rows do.
                let num_tables = usize::decode(dec)?;
                let arity = usize::decode(dec)?;
                let seed = dec.read_u64()?;
                let Some(token) = H::SKETCH_TOKEN else {
                    return Err(SnapshotError::Corrupt(
                        "hasher bank layout tag 2 is a sketched bank, and these rows have no \
                         sketch"
                            .into(),
                    ));
                };
                let bins = num_tables.saturating_mul(arity);
                if num_tables < 1 || arity < 1 || bins > MAX_BINS {
                    return Err(SnapshotError::Corrupt(format!(
                        "a sketched bank of {num_tables} tables x {arity} bins is not 1 to \
                         {MAX_BINS} bins"
                    )));
                }
                Ok(Self::sketched_bank(seed, num_tables, arity, token))
            }
            BANK_SHARED => {
                let num_tables = dec.read_len()?;
                let arity = usize::decode(dec)?;
                if arity < 1 {
                    return Err(SnapshotError::Corrupt(
                        "hasher bank arity must be at least 1".into(),
                    ));
                }
                let total = num_tables.checked_mul(arity).ok_or_else(|| {
                    SnapshotError::Corrupt(format!(
                        "hasher bank of {num_tables} tables x {arity} rows overflows"
                    ))
                })?;
                let rows = H::decode_rows(dec, total)?;
                if rows.len() != total {
                    return Err(SnapshotError::Corrupt(format!(
                        "hasher bank stores {} rows but its header promises {total}",
                        rows.len()
                    )));
                }
                Ok(Self::bank(rows, arity))
            }
            BANK_INDEPENDENT => {
                let num_tables = dec.read_len()?;
                let mut tables = Vec::with_capacity(num_tables.min(dec.remaining()));
                for _ in 0..num_tables {
                    let arity = usize::decode(dec)?;
                    if arity < 1 {
                        return Err(SnapshotError::Corrupt(
                            "concatenated hasher arity must be at least 1".into(),
                        ));
                    }
                    let mut rows = Vec::with_capacity(arity.min(dec.remaining()));
                    for _ in 0..arity {
                        rows.push(H::decode(dec)?);
                    }
                    tables.push(Self::new(rows));
                }
                Ok(tables)
            }
            other => Err(SnapshotError::Corrupt(format!(
                "unknown hasher bank layout tag {other}"
            ))),
        }
    }
}

/// A family whose samples are concatenations of `K` draws from a base
/// family.
#[derive(Debug, Clone)]
pub struct ConcatenatedFamily<F> {
    base: F,
    arity: usize,
}

impl<F> ConcatenatedFamily<F> {
    /// Creates a family concatenating `arity >= 1` draws from `base`.
    pub fn new(base: F, arity: usize) -> Self {
        assert!(arity >= 1, "concatenation arity must be at least 1");
        Self { base, arity }
    }

    /// The concatenation arity `K`.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The underlying base family.
    pub fn base(&self) -> &F {
        &self.base
    }
}

impl<F: CollisionModel> CollisionModel for ConcatenatedFamily<F> {
    /// The concatenation collides only if every row collides:
    /// `p(x)^K` for base collision probability `p(x)`.
    fn collision_probability(&self, x: f64) -> f64 {
        self.base.collision_probability(x).powi(self.arity as i32)
    }
}

impl<P, F: LshFamily<P>> LshFamily<P> for ConcatenatedFamily<F> {
    type Hasher = ConcatenatedHasher<F::Hasher>;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Hasher {
        ConcatenatedHasher::new(self.base.sample_many(rng, self.arity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::{MinHash, OneBitMinHash};
    use fairnn_space::SparseSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn concatenation_preserves_equality_of_identical_points() {
        let mut rng = StdRng::seed_from_u64(1);
        let family = ConcatenatedFamily::new(OneBitMinHash, 8);
        let set = SparseSet::from_items(vec![1, 2, 3, 4, 5]);
        for _ in 0..20 {
            let h = family.sample(&mut rng);
            assert_eq!(h.arity(), 8);
            assert_eq!(h.hash(&set), h.hash(&set));
        }
    }

    #[test]
    fn concatenation_separates_dissimilar_points_more_strongly() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = SparseSet::from_items((0..40).collect());
        let b = SparseSet::from_items((20..60).collect()); // Jaccard 1/3
        let single = MinHash;
        let concat = ConcatenatedFamily::new(MinHash, 4);
        let trials = 2000;
        let mut single_coll = 0;
        let mut concat_coll = 0;
        for _ in 0..trials {
            let h1 = single.sample(&mut rng);
            if h1.hash(&a) == h1.hash(&b) {
                single_coll += 1;
            }
            let h4 = concat.sample(&mut rng);
            if h4.hash(&a) == h4.hash(&b) {
                concat_coll += 1;
            }
        }
        assert!(
            concat_coll < single_coll,
            "concatenation should collide less: single {single_coll}, concat {concat_coll}"
        );
    }

    #[test]
    fn collision_model_is_power_of_base() {
        let base = OneBitMinHash;
        let fam = ConcatenatedFamily::new(base, 10);
        assert_eq!(fam.arity(), 10);
        let s = 0.4;
        let expected = base.collision_probability(s).powi(10);
        assert!((fam.collision_probability(s) - expected).abs() < 1e-12);
        // Base accessor exposes the original family.
        assert_eq!(
            fam.base().collision_probability(s),
            base.collision_probability(s)
        );
    }

    #[test]
    fn concatenation_reduces_p2_below_target() {
        // With K bits of 1-bit MinHash, far points (J = 0.1) collide with
        // probability 0.55^K; choose K so this is below 1/n for n = 1000.
        let n = 1000f64;
        let base = OneBitMinHash;
        let p2 = base.collision_probability(0.1);
        let k = ((1.0 / n).ln() / p2.ln()).ceil() as usize;
        let fam = ConcatenatedFamily::new(base, k);
        assert!(fam.collision_probability(0.1) <= 1.0 / n * 1.0001);
    }

    #[test]
    #[should_panic(expected = "at least one hasher")]
    fn empty_concatenation_rejected() {
        let _: ConcatenatedHasher<crate::minhash::MinHasher> = ConcatenatedHasher::new(vec![]);
    }

    #[test]
    fn empirical_concatenated_collision_rate_matches_model() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = SparseSet::from_items((0..30).collect());
        let b = SparseSet::from_items((10..40).collect()); // Jaccard 0.5
        let fam = ConcatenatedFamily::new(OneBitMinHash, 3);
        let expected = fam.collision_probability(0.5); // 0.75^3
        let trials = 4000;
        let mut coll = 0;
        for _ in 0..trials {
            let h = fam.sample(&mut rng);
            if h.hash(&a) == h.hash(&b) {
                coll += 1;
            }
        }
        let rate = coll as f64 / trials as f64;
        assert!(
            (rate - expected).abs() < 0.04,
            "rate {rate}, expected {expected}"
        );
    }
}
