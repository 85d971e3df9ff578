//! [`Codec`] implementations for the point types and measures, so the data
//! structures built over them can be persisted by `fairnn-snapshot`.
//!
//! The measures ([`Jaccard`], [`Euclidean`], …) are stateless unit structs;
//! they encode to zero bytes and exist in the format only through the
//! structure that embeds them — which keeps a snapshot's similarity
//! orientation a property of the *type* being loaded, exactly like in
//! memory.

use crate::metric::{Cosine, Euclidean, Hamming, InnerProduct, Jaccard, SquaredEuclidean};
use crate::point::{DenseVector, PointId, SparseSet};
use fairnn_snapshot::{
    decode_pod_slice, encode_pod_slice, ArcSlice, Codec, Decoder, Encoder, SliceCodec,
    SnapshotError,
};

impl Codec for PointId {
    fn encode(&self, enc: &mut Encoder) {
        enc.write_u32(self.0);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(PointId(dec.read_u32()?))
    }
}

// `PointId` is a `#[repr(transparent)]` wrapper over `u32`, so id columns
// (bucket entry arrays, shard maps) can be viewed in place from a loaded
// snapshot image instead of being decoded element by element.
fairnn_snapshot::impl_pod!(PointId, u32);

impl SliceCodec for PointId {
    fn encode_slice(items: &[Self], enc: &mut Encoder) {
        encode_pod_slice(items, enc, |enc, id| id.encode(enc));
    }

    fn decode_slice(dec: &mut Decoder<'_>) -> Result<ArcSlice<Self>, SnapshotError> {
        decode_pod_slice(dec, PointId::decode)
    }
}

impl Codec for SparseSet {
    fn encode(&self, enc: &mut Encoder) {
        let items = self.items();
        enc.write_len(items.len());
        for &item in items {
            enc.write_u32(item);
        }
    }

    /// Takes the items' bytes at once and converts them in one pass.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let items: Vec<u32> = take_items(dec, 4)?
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        if !items.windows(2).all(|w| w[0] < w[1]) {
            return Err(SnapshotError::Corrupt(
                "sparse set items are not strictly increasing".into(),
            ));
        }
        Ok(SparseSet::from_sorted(items))
    }
}

impl Codec for DenseVector {
    fn encode(&self, enc: &mut Encoder) {
        let values = self.values();
        enc.write_len(values.len());
        for &v in values {
            enc.write_f64(v);
        }
    }

    /// Takes the values' bytes at once and converts them in one pass.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let values = take_items(dec, 8)?
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .collect();
        Ok(DenseVector::new(values))
    }
}

/// Reads a length prefix and takes the bytes of that many `width`-byte
/// items in one piece: `Truncated` when they run past the input.
fn take_items<'a>(dec: &mut Decoder<'a>, width: usize) -> Result<&'a [u8], SnapshotError> {
    let len = dec.read_len()?;
    dec.take(len.saturating_mul(width))
}

/// Implements a zero-byte [`Codec`] for a stateless unit-struct measure.
macro_rules! impl_unit_codec {
    ($($t:ty),+ $(,)?) => {$(
        impl Codec for $t {
            fn encode(&self, _enc: &mut Encoder) {}

            fn decode(_dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
                Ok(<$t>::default())
            }
        }
    )+};
}

impl_unit_codec!(
    Jaccard,
    Euclidean,
    SquaredEuclidean,
    Hamming,
    InnerProduct,
    Cosine
);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let mut enc = Encoder::new();
        value.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(T::decode(&mut dec).expect("decode"), value);
        dec.finish().expect("fully consumed");
    }

    #[test]
    fn point_types_roundtrip() {
        roundtrip(PointId(77));
        roundtrip(SparseSet::from_items(vec![9, 2, 2, 7]));
        roundtrip(SparseSet::new());
        roundtrip(DenseVector::new(vec![0.5, -1.25, f64::NEG_INFINITY]));
        roundtrip(Jaccard);
        roundtrip(Euclidean);
    }

    #[test]
    fn unsorted_sparse_set_payload_is_corrupt() {
        let mut enc = Encoder::new();
        enc.write_len(2);
        enc.write_u32(5);
        enc.write_u32(3); // out of order
        let bytes = enc.into_bytes();
        assert!(matches!(
            SparseSet::decode(&mut Decoder::new(&bytes)),
            Err(SnapshotError::Corrupt(_))
        ));
        // Duplicates violate the strictly-increasing invariant too.
        let mut enc = Encoder::new();
        enc.write_len(2);
        enc.write_u32(4);
        enc.write_u32(4);
        let bytes = enc.into_bytes();
        assert!(matches!(
            SparseSet::decode(&mut Decoder::new(&bytes)),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    /// A payload whose length prefix claims `len` items but holds only
    /// `bytes` bytes after it.
    fn overlong(len: usize, bytes: usize) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.write_len(len);
        enc.write_bytes(&vec![0x11; bytes]);
        enc.into_bytes()
    }

    #[test]
    fn length_prefixes_past_the_input_are_rejected() {
        // Fewer items than bytes, so the prefix passes `read_len`, but the
        // items run past the input: three `u32`s or `f64`s in 8 bytes.
        for payload in [overlong(3, 8), overlong(1, 3)] {
            let set = SparseSet::decode(&mut Decoder::new(&payload));
            assert!(
                matches!(set, Err(SnapshotError::Truncated { .. })),
                "{set:?}"
            );
        }
        for payload in [overlong(3, 8), overlong(1, 7)] {
            let vector = DenseVector::decode(&mut Decoder::new(&payload));
            assert!(
                matches!(vector, Err(SnapshotError::Truncated { .. })),
                "{vector:?}"
            );
        }
        // More items than bytes: rejected at the prefix.
        let payload = overlong(9, 8);
        assert!(matches!(
            SparseSet::decode(&mut Decoder::new(&payload)),
            Err(SnapshotError::Corrupt(msg)) if msg.contains("length prefix 9")
        ));
        assert!(matches!(
            DenseVector::decode(&mut Decoder::new(&payload)),
            Err(SnapshotError::Corrupt(msg)) if msg.contains("length prefix 9")
        ));
        // Exactly enough bytes decodes, and leaves nothing behind.
        let payload = overlong(2, 16);
        let mut dec = Decoder::new(&payload);
        assert_eq!(
            DenseVector::decode(&mut dec).expect("decode").values(),
            &[f64::from_bits(0x1111_1111_1111_1111); 2]
        );
        dec.finish().expect("fully consumed");
    }

    #[test]
    fn measures_encode_to_zero_bytes() {
        let mut enc = Encoder::new();
        Jaccard.encode(&mut enc);
        Euclidean.encode(&mut enc);
        assert!(enc.is_empty());
    }
}
