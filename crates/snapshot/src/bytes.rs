//! The workspace's one blessed unsafe module: 64-byte-aligned buffers,
//! zero-copy typed views over them, software prefetch, the SIMD feature
//! dispatcher, and the large-allocation counter the restart benchmarks
//! assert against.
//!
//! Everything `unsafe` in the workspace lives behind this module's safe
//! API: every other crate root forbids `unsafe_code`, `fairnn-snapshot`
//! denies it outside this module, and every unsafe block or impl here
//! carries a `// SAFETY:` comment (`clippy::undocumented_unsafe_blocks`).
//! The exposed surface is safe:
//!
//! * [`ArcBytes`] — an immutable, atomically shared byte buffer whose
//!   first byte is 64-byte aligned. A snapshot image read into one keeps
//!   every section payload at the alignment the writer laid out, so typed
//!   views borrow directly from the file bytes.
//! * [`Pod`] / [`impl_pod!`](crate::impl_pod) — the marker for fixed-width, padding-free,
//!   any-bit-pattern-valid element types that may be viewed in place.
//! * [`ArcSlice`] — a `Vec<T>`-or-borrowed-view slice. The borrowed form
//!   holds an [`ArcBytes`] owner plus an offset, performs no per-element
//!   work to materialize, and keeps the backing buffer alive for as long
//!   as any view of it exists.
//! * [`pod_bytes`] — the encode-side raw little-endian view of a `&[T]`.
//! * [`prefetch_read`] — best-effort cache-line prefetch for the frozen
//!   CSR candidate walks; a no-op where unsupported.
//! * [`dispatch_x86_feature!`](crate::dispatch_x86_feature) — runtime CPU-feature dispatch for the
//!   `#[target_feature]` hash kernels, so the single `unsafe` call the
//!   dispatch requires lives here rather than in the kernel crates.
//! * [`CountingAlloc`] — a `System`-wrapping global allocator that counts
//!   large allocations; the O(1)-allocation restart guarantee is asserted
//!   with it.

#![expect(
    unsafe_code,
    reason = "the workspace's one byte-view module: aligned buffers, Pod views, prefetch, \
              feature dispatch and the counting allocator"
)]

use crate::error::SnapshotError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Alignment (bytes) of every [`ArcBytes`] buffer and of every section
/// payload inside a format-v3 snapshot image. One x86-64 cache line, and
/// enough for every element type the workspace stores.
pub const SECTION_ALIGN: usize = 64;

// ---------------------------------------------------------------------------
// AlignedBuf: the unique owner of a 64-byte-aligned heap allocation.
// ---------------------------------------------------------------------------

/// A heap allocation of `len` bytes whose base address is
/// [`SECTION_ALIGN`]-aligned. Unique owner; always wrapped in an `Arc` by
/// [`ArcBytes`].
struct AlignedBuf {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the buffer is plain bytes behind a unique pointer, with no
// interior mutability, so it is freely shareable across threads; `ArcBytes`
// only ever hands out shared `&[u8]` views once construction finishes.
unsafe impl Send for AlignedBuf {}
// SAFETY: as for `Send`: a plain-byte buffer with no interior mutability.
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// Allocates a zero-filled aligned buffer. `len == 0` allocates one
    /// alignment unit so the base pointer is always real and aligned.
    fn zeroed(len: usize) -> Result<Self, SnapshotError> {
        let capacity = len.max(1);
        let Ok(layout) = Layout::from_size_align(capacity, SECTION_ALIGN) else {
            return Err(SnapshotError::Corrupt(format!(
                "buffer of {len} bytes exceeds the allocatable range"
            )));
        };
        // SAFETY: `layout` has non-zero size by the `max(1)` above.
        // `std::alloc` is the only way to request an alignment above the
        // element type's.
        let ptr = unsafe { std::alloc::alloc_zeroed(layout) };
        if ptr.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        Ok(Self { ptr, len })
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: reconstitutes the slice this type's allocation invariant
        // guarantees: `ptr` is valid for `len` initialized bytes for the
        // life of `self`, and no `&mut` view exists after construction.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: `&mut self` proves unique access; `ptr` is valid for
        // `len` initialized bytes, the allocation's own bounds.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        let capacity = self.len.max(1);
        if let Ok(layout) = Layout::from_size_align(capacity, SECTION_ALIGN) {
            // SAFETY: releases the allocation acquired in `zeroed`: `ptr`
            // came from `alloc_zeroed` with exactly this layout (same
            // `max(1)` capacity rounding).
            unsafe { std::alloc::dealloc(self.ptr, layout) };
        }
    }
}

// ---------------------------------------------------------------------------
// ArcBytes: shared, immutable, aligned bytes.
// ---------------------------------------------------------------------------

/// An immutable byte buffer behind an `Arc`, guaranteed to start at a
/// [`SECTION_ALIGN`]-aligned address. Cloning is O(1); the buffer lives
/// until the last clone (or [`ArcSlice`] borrowing from it) drops.
#[derive(Clone)]
pub struct ArcBytes {
    buf: Arc<AlignedBuf>,
}

impl ArcBytes {
    /// Copies `bytes` into a fresh aligned buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut buf = AlignedBuf::zeroed(bytes.len())?;
        buf.as_mut_slice().copy_from_slice(bytes);
        Ok(Self { buf: Arc::new(buf) })
    }

    /// Reads a whole file into one aligned allocation — the single large
    /// read a [`crate::SnapshotImage`] load performs.
    pub fn read_file(path: &Path) -> Result<Self, SnapshotError> {
        let mut file = std::fs::File::open(path)?;
        let meta = file.metadata()?;
        let len = usize::try_from(meta.len()).map_err(|_| {
            SnapshotError::Corrupt(format!("file of {} bytes exceeds usize", meta.len()))
        })?;
        let mut buf = AlignedBuf::zeroed(len)?;
        file.read_exact(buf.as_mut_slice())?;
        // A trailing read must see EOF; a file that grew mid-read would
        // silently truncate otherwise.
        let mut probe = [0u8; 1];
        if file.read(&mut probe)? != 0 {
            return Err(SnapshotError::Corrupt(
                "file grew while being read".to_string(),
            ));
        }
        Ok(Self { buf: Arc::new(buf) })
    }

    /// The buffer contents.
    pub fn as_slice(&self) -> &[u8] {
        self.buf.as_slice()
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.buf.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.len == 0
    }
}

impl std::ops::Deref for ArcBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for ArcBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ArcBytes({} bytes)", self.len())
    }
}

// ---------------------------------------------------------------------------
// Pod: element types that may be viewed in place.
// ---------------------------------------------------------------------------

/// Marker for element types that can be reinterpreted directly from
/// little-endian snapshot bytes: fixed width, no padding, no invalid bit
/// patterns, no pointers or lifetimes.
///
/// # Safety
///
/// Implementors guarantee `Self` is inhabited for **every** bit pattern of
/// its size, contains no padding bytes, and has no drop glue — i.e. a
/// `#[repr(transparent)]`/`#[repr(C)]` composition of the primitive
/// integer/float types. Violating this makes the borrowed [`ArcSlice`]
/// views undefined behavior. Implement via [`impl_pod!`](crate::impl_pod), which pins the
/// size against the on-wire width at compile time.
//
// SAFETY: the unsafe marker trait is the contract the byte views rely on;
// implementors sign it via `impl_pod!`.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

/// Implements [`Pod`] for a `#[repr(transparent)]` wrapper of a primitive.
///
/// `impl_pod!(PointId, u32)` asserts at compile time that the wrapper has
/// exactly the primitive's size and alignment; the caller asserts (by
/// writing the macro invocation next to a `#[repr(transparent)]` type
/// definition) that the layout actually is transparent.
#[macro_export]
macro_rules! impl_pod {
    ($ty:ty, $prim:ty) => {
        const _: () = {
            assert!(std::mem::size_of::<$ty>() == std::mem::size_of::<$prim>());
            assert!(std::mem::align_of::<$ty>() == std::mem::align_of::<$prim>());
        };
        // SAFETY: size/align pinned by the const assertions above; the
        // invoking site pairs this with a `#[repr(transparent)]` wrapper
        // of a primitive, which has no padding and accepts every bit
        // pattern.
        unsafe impl $crate::Pod for $ty {}
    };
}

// SAFETY: u8 is the canonical Pod type: one byte, every bit pattern valid.
unsafe impl Pod for u8 {}
// SAFETY: fixed-width primitive integer: no padding, every bit pattern valid.
unsafe impl Pod for u32 {}
// SAFETY: fixed-width primitive integer: no padding, every bit pattern valid.
unsafe impl Pod for u64 {}
// SAFETY: fixed-width primitive float: no padding, every bit pattern valid;
// NaN payloads round-trip bit-exactly.
unsafe impl Pod for f64 {}

/// The raw little-endian byte image of a `&[T]` — the encode-side
/// counterpart of the borrowed [`ArcSlice`] views. Returns `None` on
/// big-endian targets, where the in-memory image is not the wire format
/// and callers must serialize per element.
pub fn pod_bytes<T: Pod>(items: &[T]) -> Option<&[u8]> {
    if !cfg!(target_endian = "little") {
        return None;
    }
    // SAFETY: `T: Pod` guarantees a padding-free image, so every byte of
    // the slice is initialized; the length is the exact byte size of the
    // elements.
    Some(unsafe {
        std::slice::from_raw_parts(items.as_ptr().cast::<u8>(), std::mem::size_of_val(items))
    })
}

// ---------------------------------------------------------------------------
// ArcSlice: Vec<T> or a borrowed view into an ArcBytes.
// ---------------------------------------------------------------------------

enum Repr<T> {
    Owned(Vec<T>),
    /// Invariant (established by [`ArcSlice::borrowed`]): `T: Pod`,
    /// little-endian target, `offset + len * size_of::<T>()` is in bounds
    /// of `owner`, `len > 0`, and `owner.as_ptr() + offset` is aligned for
    /// `T`.
    Borrowed {
        owner: ArcBytes,
        offset: usize,
        len: usize,
    },
}

/// A read-mostly slice that is either an owned `Vec<T>` or a zero-copy
/// view into an [`ArcBytes`] buffer (a loaded snapshot image). Both forms
/// deref to `&[T]`; mutation goes through [`ArcSlice::to_mut`], which
/// converts a borrowed view into an owned vector first (copy-on-write).
pub struct ArcSlice<T> {
    repr: Repr<T>,
}

impl<T> ArcSlice<T> {
    /// Wraps an owned vector.
    pub fn from_vec(items: Vec<T>) -> Self {
        Self {
            repr: Repr::Owned(items),
        }
    }

    /// A zero-copy view of `len` elements of `T` starting `offset` bytes
    /// into `owner`. Returns `None` when the view cannot be materialized
    /// soundly — out of bounds, misaligned base address, or a big-endian
    /// target (where the file bytes are not the in-memory representation);
    /// callers fall back to an element-wise copy.
    pub fn borrowed(owner: &ArcBytes, offset: usize, len: usize) -> Option<Self>
    where
        T: Pod,
    {
        if len == 0 {
            return Some(Self::from_vec(Vec::new()));
        }
        if !cfg!(target_endian = "little") {
            return None;
        }
        let byte_len = len.checked_mul(std::mem::size_of::<T>())?;
        let end = offset.checked_add(byte_len)?;
        if end > owner.len() {
            return None;
        }
        let base = owner.as_slice().as_ptr() as usize;
        if !(base + offset).is_multiple_of(std::mem::align_of::<T>()) {
            return None;
        }
        Some(Self {
            repr: Repr::Borrowed {
                owner: owner.clone(),
                offset,
                len,
            },
        })
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v.as_slice(),
            Repr::Borrowed { owner, offset, len } => {
                // SAFETY: the `Borrowed` variant is only constructible
                // through the checks in `borrowed`, whose invariant (see
                // `Repr`) guarantees bounds, alignment and bit-validity;
                // `owner` keeps the buffer alive for `&self`'s lifetime.
                unsafe {
                    let base = owner.as_slice().as_ptr().add(*offset);
                    std::slice::from_raw_parts(base.cast::<T>(), *len)
                }
            }
        }
    }

    /// Whether this slice borrows from a shared buffer (true) or owns its
    /// elements (false). The O(1)-allocation load tests assert on this.
    pub fn is_borrowed(&self) -> bool {
        matches!(self.repr, Repr::Borrowed { .. })
    }

    /// Mutable access, converting a borrowed view into an owned vector
    /// first (the copy-on-write seam the thaw/compact paths use).
    pub fn to_mut(&mut self) -> &mut Vec<T>
    where
        T: Clone,
    {
        if let Repr::Borrowed { .. } = &self.repr {
            self.repr = Repr::Owned(self.as_slice().to_vec());
        }
        let Repr::Owned(v) = &mut self.repr else {
            // Unreachable — the assignment above replaced any borrowed
            // form; diverge without the panic machinery this crate bans.
            std::process::abort();
        };
        v
    }

    /// Consumes the slice into an owned vector (copying when borrowed).
    pub fn into_vec(self) -> Vec<T>
    where
        T: Clone,
    {
        match self.repr {
            Repr::Owned(v) => v,
            Repr::Borrowed { .. } => self.as_slice().to_vec(),
        }
    }
}

impl<T> std::ops::Deref for ArcSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> Default for ArcSlice<T> {
    fn default() -> Self {
        Self::from_vec(Vec::new())
    }
}

impl<T: Clone> Clone for ArcSlice<T> {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Owned(v) => Self::from_vec(v.clone()),
            Repr::Borrowed { owner, offset, len } => Self {
                repr: Repr::Borrowed {
                    owner: owner.clone(),
                    offset: *offset,
                    len: *len,
                },
            },
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ArcSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: PartialEq> PartialEq for ArcSlice<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for ArcSlice<T> {}

impl<T> From<Vec<T>> for ArcSlice<T> {
    fn from(items: Vec<T>) -> Self {
        Self::from_vec(items)
    }
}

// ---------------------------------------------------------------------------
// Software prefetch.
// ---------------------------------------------------------------------------

/// Hints the CPU to pull `slice[index]`'s cache line toward L1 ahead of a
/// dependent access. Out-of-bounds indexes and non-x86-64 targets are
/// silent no-ops; the hint never affects observable state.
#[inline(always)]
pub fn prefetch_read<T>(slice: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(element) = slice.get(index) {
        // SAFETY: prefetch is a pure performance hint with no
        // architectural effect: PREFETCHT0 performs no memory access an
        // invalid address could fault on, and the pointer is cast from a
        // live reference.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                (element as *const T).cast::<i8>(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, index);
    }
}

// ---------------------------------------------------------------------------
// CPU-feature dispatch for #[target_feature] kernels.
// ---------------------------------------------------------------------------

/// Calls a `#[target_feature]` kernel when the named x86-64 features are
/// available at runtime, and a scalar fallback otherwise (including on
/// other architectures at compile time).
///
/// ```ignore
/// dispatch_x86_feature!(
///     ["avx512f", "avx512dq"],
///     kernel_avx512(items, &coeff, &mut mins),
///     kernel_scalar(items, &coeff, &mut mins)
/// );
/// ```
///
/// # Contract
///
/// The first expression must be a call to a **safe-bodied** function whose
/// `#[target_feature(enable = …)]` list is covered by the features named
/// here — that detection is the call's entire safety requirement, which is
/// why the expansion's `unsafe` block (written in this module, the one
/// place `unsafe` is allowed) is sound. Both expressions
/// must be semantically identical; the kernel equality tests enforce it.
#[macro_export]
macro_rules! dispatch_x86_feature {
    ([$($feat:tt),+ $(,)?], $fast:expr, $fallback:expr $(,)?) => {{
        #[cfg(target_arch = "x86_64")]
        {
            if true $(&& std::arch::is_x86_feature_detected!($feat))+ {
                #[expect(
                    clippy::macro_metavars_in_unsafe,
                    reason = "the macro's documented contract: callers pass a safe-bodied \
                              target_feature call"
                )]
                // SAFETY: every feature the kernel's #[target_feature]
                // attribute enables was just detected on this CPU, and
                // that detection is the call's entire safety requirement.
                unsafe {
                    $fast
                }
            } else {
                $fallback
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            $fallback
        }
    }};
}

// ---------------------------------------------------------------------------
// CountingAlloc: the large-allocation meter.
// ---------------------------------------------------------------------------

/// Allocations at or above this size count as "large" — the O(1) the
/// zero-copy load path promises is O(1) allocations of this class.
pub const LARGE_ALLOC_THRESHOLD: usize = 64 * 1024;

static LARGE_ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// A global allocator wrapping [`System`] that counts allocations of at
/// least [`LARGE_ALLOC_THRESHOLD`] bytes. Install with
/// `#[global_allocator]` in a test or bench binary, then bracket the
/// measured region with [`CountingAlloc::reset`] /
/// [`CountingAlloc::large_allocs`].
pub struct CountingAlloc;

impl CountingAlloc {
    /// The allocator value for a `#[global_allocator]` static.
    pub const fn new() -> Self {
        Self
    }

    /// Large allocations since the last [`CountingAlloc::reset`].
    pub fn large_allocs() -> u64 {
        LARGE_ALLOC_COUNT.load(Ordering::Relaxed)
    }

    /// Bytes requested by those large allocations.
    pub fn large_alloc_bytes() -> u64 {
        LARGE_ALLOC_BYTES.load(Ordering::Relaxed)
    }

    /// Zeroes both counters.
    pub fn reset() {
        LARGE_ALLOC_COUNT.store(0, Ordering::Relaxed);
        LARGE_ALLOC_BYTES.store(0, Ordering::Relaxed);
    }

    #[inline]
    fn record(size: usize) {
        if size >= LARGE_ALLOC_THRESHOLD {
            LARGE_ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            LARGE_ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: a pass-through to the System allocator that only counts, never
// alters, requests: every allocation is deferred to `System` unchanged, and
// the counters are relaxed atomics with no allocation of their own. The
// `unsafe fn` signatures are the ones the GlobalAlloc trait requires.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        // SAFETY: forwards the caller's own layout to System, under the
        // caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwards the caller's own pointer and layout to System,
        // under the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        // SAFETY: forwards the caller's own layout to System, under the
        // caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        // SAFETY: forwards the caller's own pointer, layout and size to
        // System, under the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arc_bytes_is_aligned_and_round_trips() {
        let data: Vec<u8> = (0..200u8).collect();
        let bytes = ArcBytes::copy_from_slice(&data).unwrap();
        assert_eq!(bytes.as_slice(), &data[..]);
        assert_eq!(bytes.len(), 200);
        assert_eq!(bytes.as_slice().as_ptr() as usize % SECTION_ALIGN, 0);
        let clone = bytes.clone();
        assert_eq!(clone.as_slice(), bytes.as_slice());
    }

    #[test]
    fn empty_arc_bytes_is_fine() {
        let bytes = ArcBytes::copy_from_slice(&[]).unwrap();
        assert!(bytes.is_empty());
        assert_eq!(bytes.as_slice(), &[] as &[u8]);
    }

    #[test]
    fn read_file_matches_fs_read() {
        let path =
            std::env::temp_dir().join(format!("fairnn-bytes-test-{}.bin", std::process::id()));
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        std::fs::write(&path, &data).unwrap();
        let bytes = ArcBytes::read_file(&path).unwrap();
        assert_eq!(bytes.as_slice(), &data[..]);
        assert_eq!(bytes.as_slice().as_ptr() as usize % SECTION_ALIGN, 0);
        std::fs::remove_file(&path).unwrap();
        assert!(ArcBytes::read_file(&path).is_err());
    }

    #[test]
    fn borrowed_slice_views_the_buffer_in_place() {
        let values: Vec<u64> = (0..32).map(|i| i * 0x0101_0101).collect();
        let raw = pod_bytes(&values).unwrap();
        let owner = ArcBytes::copy_from_slice(raw).unwrap();
        let view: ArcSlice<u64> = ArcSlice::borrowed(&owner, 0, 32).unwrap();
        assert!(view.is_borrowed());
        assert_eq!(view.as_slice(), &values[..]);
        // The view points into the owner's buffer, not a copy.
        assert_eq!(
            view.as_slice().as_ptr() as usize,
            owner.as_slice().as_ptr() as usize
        );
        // Dropping the owner handle keeps the view alive via its clone.
        drop(owner);
        assert_eq!(view.len(), 32);
        assert_eq!(view[31], 31 * 0x0101_0101);
    }

    #[test]
    fn borrowed_rejects_misaligned_and_out_of_bounds() {
        let owner = ArcBytes::copy_from_slice(&[0u8; 64]).unwrap();
        assert!(
            ArcSlice::<u64>::borrowed(&owner, 1, 4).is_none(),
            "misaligned"
        );
        assert!(
            ArcSlice::<u64>::borrowed(&owner, 0, 9).is_none(),
            "past end"
        );
        assert!(ArcSlice::<u64>::borrowed(&owner, 64, 1).is_none(), "at end");
        assert!(ArcSlice::<u64>::borrowed(&owner, 0, 8).is_some());
        // Zero-length views degenerate to an (empty) owned form.
        let empty = ArcSlice::<u64>::borrowed(&owner, 0, 0).unwrap();
        assert!(!empty.is_borrowed());
        assert!(empty.is_empty());
    }

    #[test]
    fn to_mut_copies_on_write() {
        let values: Vec<u32> = (0..16).collect();
        let owner = ArcBytes::copy_from_slice(pod_bytes(&values).unwrap()).unwrap();
        let mut view: ArcSlice<u32> = ArcSlice::borrowed(&owner, 0, 16).unwrap();
        assert!(view.is_borrowed());
        view.to_mut().push(99);
        assert!(!view.is_borrowed());
        assert_eq!(view.len(), 17);
        assert_eq!(view[16], 99);
        // The original buffer is untouched.
        assert_eq!(owner.len(), 64);
    }

    #[test]
    fn owned_and_borrowed_compare_equal_by_contents() {
        let values: Vec<u64> = vec![7, 8, 9];
        let owner = ArcBytes::copy_from_slice(pod_bytes(&values).unwrap()).unwrap();
        let borrowed: ArcSlice<u64> = ArcSlice::borrowed(&owner, 0, 3).unwrap();
        let owned: ArcSlice<u64> = ArcSlice::from_vec(values.clone());
        assert_eq!(borrowed, owned);
        assert_eq!(owned.clone().into_vec(), values);
        assert_eq!(borrowed.clone().into_vec(), values);
    }

    #[test]
    fn prefetch_is_a_safe_no_op_observably() {
        let data: Vec<u64> = (0..100).collect();
        prefetch_read(&data, 50);
        prefetch_read(&data, 1_000_000); // out of bounds: silent
        prefetch_read::<u64>(&[], 0);
        assert_eq!(data[50], 50);
    }

    #[test]
    fn counting_alloc_records_large_allocations() {
        // Not installed as the global allocator here; exercise the
        // counters directly.
        CountingAlloc::reset();
        CountingAlloc::record(LARGE_ALLOC_THRESHOLD);
        CountingAlloc::record(LARGE_ALLOC_THRESHOLD - 1);
        assert_eq!(CountingAlloc::large_allocs(), 1);
        assert_eq!(
            CountingAlloc::large_alloc_bytes(),
            LARGE_ALLOC_THRESHOLD as u64
        );
        CountingAlloc::reset();
        assert_eq!(CountingAlloc::large_allocs(), 0);
    }

    #[test]
    fn dispatch_macro_runs_exactly_one_branch() {
        fn fallback(x: u64) -> u64 {
            x + 1
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "sse2")]
        fn fast(x: u64) -> u64 {
            x + 1
        }
        #[cfg(not(target_arch = "x86_64"))]
        fn fast(x: u64) -> u64 {
            x + 1
        }
        let out = crate::dispatch_x86_feature!(["sse2"], fast(41), fallback(41));
        assert_eq!(out, 42);
    }
}
