//! The byte-level encoder/decoder pair, the [`Codec`] trait and the
//! [`SnapshotCodec`] trait of whole snapshot images.
//!
//! Everything on disk is little-endian, independent of the host: writers use
//! `to_le_bytes`, readers use `from_le_bytes`, so a snapshot produced on any
//! toolchain loads on any other. The decoder owns a cursor over a borrowed
//! byte slice and bounds-checks every read, returning
//! [`SnapshotError::Truncated`] instead of panicking; length prefixes are
//! sanity-checked against the remaining input so corrupt lengths cannot
//! trigger absurd allocations.

use crate::bytes::{pod_bytes, ArcBytes, ArcSlice, Pod, SECTION_ALIGN};
use crate::error::SnapshotError;

/// Append-only byte sink for encoding (always little-endian).
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder and returns the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32` little-endian.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern, little-endian (NaN
    /// payloads survive the round trip bit for bit).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Writes a length prefix (`usize` as `u64`).
    pub fn write_len(&mut self, len: usize) {
        self.write_u64(len as u64);
    }

    /// Writes raw bytes with no length prefix.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pads with zero bytes so the next write lands on a
    /// [`SECTION_ALIGN`]-byte boundary *relative to the section start*.
    /// Format v3 places every section at a 64-byte-aligned image offset,
    /// so a section-relative boundary is also an absolute one — which is
    /// what lets [`decode_pod_slice`] hand out in-place views.
    pub fn align64(&mut self) {
        let rem = self.buf.len() % SECTION_ALIGN;
        if rem != 0 {
            let target = self.buf.len() + (SECTION_ALIGN - rem);
            self.buf.resize(target, 0);
        }
    }
}

/// Bounds-checked cursor over an encoded payload.
///
/// A decoder can optionally carry the [`ArcBytes`] buffer its input slice
/// lives in (plus the slice's byte offset within that buffer). When it
/// does, [`decode_pod_slice`] returns zero-copy [`ArcSlice`] views into
/// the buffer instead of copied vectors; without an owner every decode
/// falls back to the owned element-wise path.
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    owner: Option<(&'a ArcBytes, usize)>,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            owner: None,
        }
    }

    /// Creates a decoder whose input is `bytes`, known to live at byte
    /// `offset` inside `owner` — the zero-copy entry point a
    /// [`Section`] with an owner produces.
    fn with_owner(bytes: &'a [u8], owner: &'a ArcBytes, offset: usize) -> Self {
        Self {
            bytes,
            pos: 0,
            owner: Some((owner, offset)),
        }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `n` bytes, or reports truncation. Uses checked
    /// slicing throughout: no input, however corrupt, can panic here.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let slice = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end));
        match slice {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => Err(SnapshotError::Truncated {
                needed: n,
                available: self.remaining(),
            }),
        }
    }

    /// Takes the next `N` bytes as a fixed array (the `from_le_bytes`
    /// input), or reports truncation.
    fn read_array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        for (dst, src) in out.iter_mut().zip(slice) {
            *dst = *src;
        }
        Ok(out)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, SnapshotError> {
        let [byte] = self.read_array::<1>()?;
        Ok(byte)
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.read_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.read_array()?))
    }

    /// Reads an `f64` from its little-endian bit pattern.
    pub fn read_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a length prefix, rejecting values that do not fit `usize` or
    /// that exceed the remaining input (every encoded element occupies at
    /// least one byte, so a greater length is provably corrupt and must not
    /// reach the allocator).
    pub fn read_len(&mut self) -> Result<usize, SnapshotError> {
        let raw = self.read_u64()?;
        let len = usize::try_from(raw)
            .map_err(|_| SnapshotError::Corrupt(format!("length {raw} does not fit usize")))?;
        if len > self.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "length prefix {len} exceeds the {} remaining payload byte(s)",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// Skips the zero padding up to the next [`SECTION_ALIGN`]-byte
    /// boundary (section-relative), rejecting nonzero padding bytes — the
    /// read-side counterpart of [`Encoder::align64`].
    pub fn skip_align64(&mut self) -> Result<(), SnapshotError> {
        let rem = self.pos % SECTION_ALIGN;
        if rem != 0 {
            let pad = self.take(SECTION_ALIGN - rem)?;
            if pad.iter().any(|&b| b != 0) {
                return Err(SnapshotError::Corrupt(
                    "alignment padding must be zero".into(),
                ));
            }
        }
        Ok(())
    }

    /// Asserts that the payload was fully consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// One independently checksummed slice of a snapshot image, as handed to
/// [`SnapshotCodec::decode_sections`]. Carries the backing [`ArcBytes`]
/// buffer (and this section's offset within it) when the image was loaded
/// through a [`crate::SnapshotImage`], which is what enables zero-copy
/// decodes; sections built from a plain byte slice decode element-wise
/// instead.
#[derive(Debug, Clone, Copy)]
pub struct Section<'a> {
    bytes: &'a [u8],
    owner: Option<(&'a ArcBytes, usize)>,
}

impl<'a> Section<'a> {
    /// A section over plain bytes (owned decode only).
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, owner: None }
    }

    /// A section over `bytes` known to start at byte `offset` inside
    /// `owner` — decodes may borrow from the buffer.
    pub fn with_owner(bytes: &'a [u8], owner: &'a ArcBytes, offset: usize) -> Self {
        Self {
            bytes,
            owner: Some((owner, offset)),
        }
    }

    /// The section payload.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// A decoder over the payload, carrying the owner when present.
    pub fn decoder(&self) -> Decoder<'a> {
        match self.owner {
            Some((owner, offset)) => Decoder::with_owner(self.bytes, owner, offset),
            None => Decoder::new(self.bytes),
        }
    }
}

/// Encodes `items` as a v3 pod slice: a length prefix, zero padding to the
/// next 64-byte boundary, then the elements as one contiguous
/// little-endian array — the exact in-memory image on little-endian
/// targets, written with a single `memcpy`. On big-endian hosts (where the
/// in-memory image is not the wire format) `write_elem` serializes each
/// element instead; the bytes produced are identical either way.
pub fn encode_pod_slice<T, F>(items: &[T], enc: &mut Encoder, mut write_elem: F)
where
    T: Pod,
    F: FnMut(&mut Encoder, &T),
{
    enc.write_len(items.len());
    enc.align64();
    match pod_bytes(items) {
        Some(raw) => enc.write_bytes(raw),
        None => {
            for item in items {
                write_elem(enc, item);
            }
        }
    }
}

/// Decodes a pod slice written by [`encode_pod_slice`]. When the decoder
/// carries an owning buffer and the array lands aligned, this is O(1): the
/// returned [`ArcSlice`] borrows the file bytes in place. Otherwise
/// `read_elem` decodes each element into an owned vector (same values —
/// `T: Pod` guarantees a fixed-width little-endian image with no invalid
/// bit patterns, so the two paths cannot disagree).
pub fn decode_pod_slice<T, F>(
    dec: &mut Decoder<'_>,
    mut read_elem: F,
) -> Result<ArcSlice<T>, SnapshotError>
where
    T: Pod,
    F: FnMut(&mut Decoder<'_>) -> Result<T, SnapshotError>,
{
    let len = dec.read_len()?;
    dec.skip_align64()?;
    let byte_len = len.checked_mul(std::mem::size_of::<T>()).ok_or_else(|| {
        SnapshotError::Corrupt(format!("pod slice of {len} elements overflows usize"))
    })?;
    let start = dec.pos;
    let raw = dec.take(byte_len)?;
    if let Some((owner, base)) = dec.owner {
        if let Some(offset) = base.checked_add(start) {
            if let Some(view) = ArcSlice::borrowed(owner, offset, len) {
                return Ok(view);
            }
        }
    }
    let mut elems = Decoder::new(raw);
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(read_elem(&mut elems)?);
    }
    elems.finish()?;
    Ok(ArcSlice::from_vec(out))
}

/// Element types whose slices use the aligned v3 array layout, borrowed in
/// place from a loaded image when possible ([`ArcSlice`]). Distinct from
/// `Vec<T>`'s [`Codec`] impl, which keeps the dense element-wise layout
/// for nested and non-pod data.
pub trait SliceCodec: Sized {
    /// Appends the canonical aligned-array encoding of `items`.
    fn encode_slice(items: &[Self], enc: &mut Encoder);

    /// Reads a slice written by [`SliceCodec::encode_slice`], borrowing
    /// from the decoder's backing buffer when possible.
    fn decode_slice(dec: &mut Decoder<'_>) -> Result<ArcSlice<Self>, SnapshotError>;
}

macro_rules! impl_pod_slice_codec {
    ($ty:ty, $write:ident, $read:ident) => {
        impl SliceCodec for $ty {
            fn encode_slice(items: &[Self], enc: &mut Encoder) {
                encode_pod_slice(items, enc, |enc, v| enc.$write(*v));
            }
            fn decode_slice(dec: &mut Decoder<'_>) -> Result<ArcSlice<Self>, SnapshotError> {
                decode_pod_slice(dec, |dec| dec.$read())
            }
        }
    };
}

impl_pod_slice_codec!(u8, write_u8, read_u8);
impl_pod_slice_codec!(u32, write_u32, read_u32);
impl_pod_slice_codec!(u64, write_u64, read_u64);
impl_pod_slice_codec!(f64, write_f64, read_f64);

/// Tuples store element-wise (their in-memory layout has padding and is
/// not a wire format), but keep the same length-prefix + alignment frame
/// so mixed pod/tuple columns share one layout discipline. Always owned.
impl<A: Codec, B: Codec> SliceCodec for (A, B) {
    fn encode_slice(items: &[Self], enc: &mut Encoder) {
        enc.write_len(items.len());
        enc.align64();
        for (a, b) in items {
            a.encode(enc);
            b.encode(enc);
        }
    }
    fn decode_slice(dec: &mut Decoder<'_>) -> Result<ArcSlice<Self>, SnapshotError> {
        let len = dec.read_len()?;
        dec.skip_align64()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(<(A, B)>::decode(dec)?);
        }
        Ok(ArcSlice::from_vec(out))
    }
}

/// A type that can write itself into an [`Encoder`] and read itself back
/// from a [`Decoder`].
///
/// The contract the snapshot tests enforce: `decode(encode(x)) == x`
/// observationally, and `encode(decode(bytes)) == bytes` for every payload
/// `encode` can produce (the encoding is canonical — unordered containers
/// are written in sorted order).
///
/// One restriction: a type whose encoding is zero bytes (the stateless unit
/// measures) must not be stored inside a length-prefixed container such as
/// `Vec<T>` — the decoder bounds every length prefix by the remaining input
/// (see [`Decoder::read_len`]), which assumes at least one byte per
/// element. `Vec::encode` carries a debug assertion for this; embed unit
/// types directly in their owning struct instead.
pub trait Codec: Sized {
    /// Appends this value's canonical encoding.
    fn encode(&self, enc: &mut Encoder);

    /// Reads one value, validating structural invariants.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError>;
}

/// The encoding of a value stored as a whole snapshot image: its container
/// sections (the container stores one length and checksum per section and
/// places each section payload at a 64-byte-aligned image offset; see
/// `crate::container`). [`crate::to_bytes`], [`crate::from_bytes`],
/// [`crate::save`], [`crate::load`] and [`crate::SnapshotImage::decode`]
/// take any `SnapshotCodec`.
///
/// Every [`Codec`] type is one: a single section holding its
/// [`Codec::encode`] bytes. Large structures instead implement this trait
/// directly, and **not** [`Codec`], with one section per table or per
/// table range, so encode, checksum and decode all run on parallel build workers
/// (the emitted bytes are identical at every thread count, because sections
/// are always concatenated in order). Having no [`Codec`] impl, a sectioned
/// value cannot be nested inside another encoding: it exists only at the
/// top level of an image.
pub trait SnapshotCodec: Sized {
    /// Splits this value's image into independently decodable sections.
    fn encode_sections(&self) -> Vec<Vec<u8>>;

    /// Reassembles a value from the sections written by
    /// [`SnapshotCodec::encode_sections`]. Implementations must reject a
    /// section count they did not produce, and every section must be fully
    /// consumed. Sections loaded through a [`crate::SnapshotImage`] carry
    /// their backing buffer, so [`SliceCodec`] columns decode zero-copy.
    fn decode_sections(sections: &[Section<'_>]) -> Result<Self, SnapshotError>;
}

impl<T: Codec> SnapshotCodec for T {
    fn encode_sections(&self) -> Vec<Vec<u8>> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        vec![enc.into_bytes()]
    }

    fn decode_sections(sections: &[Section<'_>]) -> Result<Self, SnapshotError> {
        let [payload] = sections else {
            return Err(SnapshotError::Corrupt(format!(
                "expected a single snapshot section, found {}",
                sections.len()
            )));
        };
        let mut dec = payload.decoder();
        let value = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(value)
    }
}

impl Codec for u8 {
    fn encode(&self, enc: &mut Encoder) {
        enc.write_u8(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        dec.read_u8()
    }
}

impl Codec for u32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.write_u32(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        dec.read_u32()
    }
}

impl Codec for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.write_u64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        dec.read_u64()
    }
}

impl Codec for usize {
    fn encode(&self, enc: &mut Encoder) {
        enc.write_u64(*self as u64);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let raw = dec.read_u64()?;
        usize::try_from(raw)
            .map_err(|_| SnapshotError::Corrupt(format!("value {raw} does not fit usize")))
    }
}

impl Codec for f64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.write_f64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        dec.read_f64()
    }
}

impl Codec for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.write_u8(u8::from(*self));
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        match dec.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!(
                "boolean byte must be 0 or 1, found {other}"
            ))),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.write_u8(0),
            Some(v) => {
                enc.write_u8(1);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        match dec.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            other => Err(SnapshotError::Corrupt(format!(
                "option tag must be 0 or 1, found {other}"
            ))),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.write_len(self.len());
        let payload_start = enc.len();
        for item in self {
            item.encode(enc);
        }
        debug_assert!(
            self.is_empty() || enc.len() > payload_start,
            "zero-byte Codec types cannot be length-prefixed (see the Codec trait docs)"
        );
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let len = dec.read_len()?;
        // `read_len` bounds the length by the remaining input, so the
        // capacity request cannot exceed the snapshot size.
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

/// Transparent wrapper: an `Arc<T>` encodes exactly like its `T` (the
/// generational engine shares frozen parts between generations through
/// `Arc`s without changing the wire format).
impl<T: Codec> Codec for std::sync::Arc<T> {
    fn encode(&self, enc: &mut Encoder) {
        (**self).encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(std::sync::Arc::new(T::decode(dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let mut enc = Encoder::new();
        value.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = T::decode(&mut dec).expect("decode");
        dec.finish().expect("fully consumed");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(-0.0f64);
        roundtrip(f64::INFINITY);
        roundtrip(true);
        roundtrip(false);
        roundtrip((7u32, 9u64));
        roundtrip(Option::<u64>::None);
        roundtrip(Some(42u64));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u32>::new());
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut enc = Encoder::new();
        weird.encode(&mut enc);
        let bytes = enc.into_bytes();
        let back = f64::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn encoding_is_little_endian() {
        let mut enc = Encoder::new();
        enc.write_u32(0x0A0B_0C0D);
        assert_eq!(enc.into_bytes(), vec![0x0D, 0x0C, 0x0B, 0x0A]);
    }

    #[test]
    fn truncated_reads_error_not_panic() {
        let mut dec = Decoder::new(&[1, 2, 3]);
        match dec.read_u64() {
            Err(SnapshotError::Truncated {
                needed: 8,
                available: 3,
            }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn every_primitive_read_reports_truncation() {
        assert!(matches!(
            Decoder::new(&[]).read_u8(),
            Err(SnapshotError::Truncated {
                needed: 1,
                available: 0
            })
        ));
        assert!(matches!(
            Decoder::new(&[1, 2]).read_u32(),
            Err(SnapshotError::Truncated {
                needed: 4,
                available: 2
            })
        ));
        assert!(matches!(
            Decoder::new(&[0; 7]).read_f64(),
            Err(SnapshotError::Truncated {
                needed: 8,
                available: 7
            })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_corrupt() {
        let mut enc = Encoder::new();
        enc.write_u64(1 << 40); // a "vector" far longer than the payload
        let bytes = enc.into_bytes();
        match Vec::<u64>::decode(&mut Decoder::new(&bytes)) {
            Err(SnapshotError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bad_tags_are_corrupt() {
        assert!(matches!(
            bool::decode(&mut Decoder::new(&[7])),
            Err(SnapshotError::Corrupt(_))
        ));
        assert!(matches!(
            Option::<u8>::decode(&mut Decoder::new(&[9])),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let dec = Decoder::new(&[0, 1]);
        assert!(matches!(
            dec.finish(),
            Err(SnapshotError::TrailingBytes { remaining: 2 })
        ));
    }

    #[test]
    fn align64_pads_with_zeros_and_skip_verifies() {
        let mut enc = Encoder::new();
        enc.write_u8(0xFF);
        enc.align64();
        assert_eq!(enc.len(), SECTION_ALIGN);
        let bytes = enc.into_bytes();
        assert!(bytes[1..].iter().all(|&b| b == 0));

        let mut dec = Decoder::new(&bytes);
        dec.read_u8().unwrap();
        dec.skip_align64().unwrap();
        dec.finish().unwrap();

        // Nonzero padding is rejected.
        let mut corrupt = bytes.clone();
        corrupt[7] = 1;
        let mut dec = Decoder::new(&corrupt);
        dec.read_u8().unwrap();
        assert!(matches!(dec.skip_align64(), Err(SnapshotError::Corrupt(_))));

        // Already aligned: a no-op.
        let mut dec = Decoder::new(&bytes);
        dec.skip_align64().unwrap();
        assert_eq!(dec.remaining(), bytes.len());
    }

    #[test]
    fn pod_slice_roundtrips_without_owner() {
        let values: Vec<u64> = (0..100).map(|i| i * 31).collect();
        let mut enc = Encoder::new();
        u64::encode_slice(&values, &mut enc);
        // Length prefix, padding to 64, then 8 bytes per element.
        assert_eq!(enc.len(), SECTION_ALIGN + values.len() * 8);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = u64::decode_slice(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.as_slice(), &values[..]);
        assert!(!back.is_borrowed(), "no owner: must decode owned");
    }

    #[test]
    fn pod_slice_borrows_from_an_owning_buffer() {
        let values: Vec<f64> = (0..32).map(|i| i as f64 * 0.5).collect();
        let mut enc = Encoder::new();
        f64::encode_slice(&values, &mut enc);
        let owner = crate::ArcBytes::copy_from_slice(&enc.into_bytes()).unwrap();
        let section = Section::with_owner(owner.as_slice(), &owner, 0);
        let mut dec = section.decoder();
        let back = f64::decode_slice(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.as_slice(), &values[..]);
        assert!(
            back.is_borrowed(),
            "aligned owner-backed decode must borrow"
        );
        // The view points into the owner's allocation.
        let base = owner.as_slice().as_ptr() as usize;
        let view = back.as_slice().as_ptr() as usize;
        assert!(view >= base && view < base + owner.len());
    }

    #[test]
    fn tuple_slices_are_owned_but_framed_identically() {
        let values: Vec<(u32, u64)> = vec![(1, 10), (2, 20), (3, 30)];
        let mut enc = Encoder::new();
        <(u32, u64)>::encode_slice(&values, &mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = <(u32, u64)>::decode_slice(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.as_slice(), &values[..]);
        assert!(!back.is_borrowed());
    }

    #[test]
    fn empty_pod_slice_roundtrips() {
        let mut enc = Encoder::new();
        u32::encode_slice(&[], &mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = u32::decode_slice(&mut dec).unwrap();
        dec.finish().unwrap();
        assert!(back.is_empty());
    }
}
