//! Simulated global (device) memory.
//!
//! A [`GlobalBuffer`] is the host-runtime analogue of a `cudaMalloc`'d
//! array: shared by all blocks, readable and writable by any of them, with
//! no per-access ordering. Internally every element is an atomic cell and
//! accesses are `Relaxed`; the inter-block barriers establish the
//! happens-before edges between rounds, exactly as the CUDA memory model
//! does around `__threadfence()`/barrier points.
//!
//! Cloning a `GlobalBuffer` is shallow (like copying a device pointer).
//!
//! Like a `cudaMalloc`'d array, every buffer's first element sits on a
//! 256-byte boundary (`ALIGN`), so a block's chunk of a
//! buffer shares no cache line with its neighbour's unless the chunk
//! itself is not a multiple of the line: the block boundaries of a grid of
//! 64-thread blocks over 4-byte elements fall on line boundaries.

use std::mem::size_of;
use std::sync::Arc;

use crate::scalar::DeviceScalar;

/// Where every buffer's first element sits: on a multiple of 256 bytes,
/// the alignment `cudaMalloc` guarantees.
const ALIGN: usize = 256;

/// A shared, block-addressable array in "global memory".
///
/// ```
/// use blocksync_core::GlobalBuffer;
/// let buf = GlobalBuffer::from_slice(&[1.0f32, 2.0, 3.0]);
/// let alias = buf.clone(); // shallow: same storage
/// alias.set(1, 20.0);
/// assert_eq!(buf.get(1), 20.0);
/// assert_eq!(buf.to_vec(), vec![1.0, 20.0, 3.0]);
/// ```
pub struct GlobalBuffer<T: DeviceScalar> {
    /// The allocation: the elements, and `ALIGN` bytes of atoms around
    /// them that are never read or written after they are made.
    storage: Arc<[T::Atom]>,
    /// Where the elements start in `storage`: its first atom on an
    /// `ALIGN` boundary.
    start: usize,
    len: usize,
}

impl<T: DeviceScalar> Clone for GlobalBuffer<T> {
    fn clone(&self) -> Self {
        GlobalBuffer {
            storage: Arc::clone(&self.storage),
            start: self.start,
            len: self.len,
        }
    }
}

impl<T: DeviceScalar> GlobalBuffer<T> {
    /// Allocate `len` elements, default-initialized (zero for all supported
    /// scalars): one allocation, `ALIGN` bytes longer than the elements so
    /// that one of its first `ALIGN` bytes is on the boundary.
    pub fn new(len: usize) -> Self {
        let size = size_of::<T::Atom>();
        let storage: Arc<[T::Atom]> = (0..len + ALIGN / size)
            .map(|_| T::atom_new(T::default()))
            .collect();
        // An atom's size is its alignment, so the distance to the boundary
        // is whole atoms, fewer than the `ALIGN / size` of padding.
        let at = storage.as_ptr().addr();
        let start = (at.next_multiple_of(ALIGN) - at) / size;
        GlobalBuffer {
            storage,
            start,
            len,
        }
    }

    /// Allocate and copy from host data.
    pub fn from_slice(data: &[T]) -> Self {
        let mut buf = Self::new(data.len());
        let (start, len) = (buf.start, buf.len);
        // Plain writes through the still-unique allocation: atomic stores
        // would not vectorize.
        let cells = Arc::get_mut(&mut buf.storage).expect("a buffer just built is unshared");
        for (cell, &v) in cells[start..start + len].iter_mut().zip(data) {
            *cell = T::atom_new(v);
        }
        buf
    }

    /// The elements.
    #[inline]
    fn cells(&self) -> &[T::Atom] {
        &self.storage[self.start..self.start + self.len]
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read element `i` (relaxed).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds, like slice indexing.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        T::atom_load(&self.cells()[i])
    }

    /// Write element `i` (relaxed).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        T::atom_store(&self.cells()[i], v)
    }

    /// Copy the whole buffer back to the host.
    pub fn to_vec(&self) -> Vec<T> {
        self.cells().iter().map(|a| T::atom_load(a)).collect()
    }

    /// Overwrite every element with `v`.
    pub fn fill(&self, v: T) {
        for a in self.cells() {
            T::atom_store(a, v);
        }
    }

    /// Overwrite the buffer from host data.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn copy_from_slice(&self, data: &[T]) {
        assert_eq!(data.len(), self.len(), "copy_from_slice: length mismatch");
        for (a, &v) in self.cells().iter().zip(data) {
            T::atom_store(a, v);
        }
    }

    /// Read a contiguous range into a `Vec` (a "device-to-host memcpy" of a
    /// slice).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn read_range(&self, start: usize, len: usize) -> Vec<T> {
        self.cells()[start..start + len]
            .iter()
            .map(|a| T::atom_load(a))
            .collect()
    }

    /// The `len` elements from `start` as a contiguous view: the range is
    /// checked here, once, so a round body can be a loop over the windows
    /// of its chunk rather than one range-checked call per element.
    ///
    /// # Panics
    /// Panics if the range is out of bounds, like slicing.
    #[inline]
    pub fn window(&self, start: usize, len: usize) -> Window<'_, T> {
        Window {
            cells: &self.cells()[start..start + len],
        }
    }
}

/// A contiguous view of a [`GlobalBuffer`] (see [`GlobalBuffer::window`]).
/// It aliases the buffer — nothing is copied — and every access is still
/// one relaxed atomic, indexed from the window's first element.
pub struct Window<'a, T: DeviceScalar> {
    cells: &'a [T::Atom],
}

impl<T: DeviceScalar> Window<'_, T> {
    /// Read the window's element `k` (relaxed).
    ///
    /// # Panics
    /// Panics if `k` is not below the window's length.
    #[inline]
    pub fn get(&self, k: usize) -> T {
        T::atom_load(&self.cells[k])
    }

    /// Write the window's element `k` (relaxed).
    ///
    /// # Panics
    /// Panics if `k` is not below the window's length.
    #[inline]
    pub fn set(&self, k: usize, v: T) {
        T::atom_store(&self.cells[k], v)
    }
}

impl<T: DeviceScalar + std::fmt::Debug> std::fmt::Debug for GlobalBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalBuffer")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn new_is_zeroed() {
        let b: GlobalBuffer<u32> = GlobalBuffer::new(16);
        assert_eq!(b.len(), 16);
        assert!(!b.is_empty());
        assert!(b.to_vec().iter().all(|&v| v == 0));
    }

    #[test]
    fn empty_buffer() {
        let b: GlobalBuffer<f64> = GlobalBuffer::new(0);
        assert!(b.is_empty());
        assert_eq!(b.to_vec(), Vec::<f64>::new());
    }

    #[test]
    fn from_slice_and_back() {
        let b = GlobalBuffer::from_slice(&[3i32, -1, 7]);
        assert_eq!(b.to_vec(), vec![3, -1, 7]);
        b.set(0, 42);
        assert_eq!(b.get(0), 42);
    }

    #[test]
    fn clone_aliases_storage() {
        let a = GlobalBuffer::from_slice(&[0u64; 4]);
        let b = a.clone();
        b.set(2, 99);
        assert_eq!(a.get(2), 99);
    }

    #[test]
    fn fill_and_copy_from_slice() {
        let b: GlobalBuffer<f32> = GlobalBuffer::new(4);
        b.fill(2.5);
        assert_eq!(b.to_vec(), vec![2.5; 4]);
        b.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_from_slice_length_checked() {
        let b: GlobalBuffer<u8> = GlobalBuffer::new(3);
        b.copy_from_slice(&[1, 2]);
    }

    #[test]
    fn read_range_extracts_window() {
        let b = GlobalBuffer::from_slice(&[10u16, 20, 30, 40, 50]);
        assert_eq!(b.read_range(1, 3), vec![20, 30, 40]);
        assert_eq!(b.read_range(0, 0), Vec::<u16>::new());
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_get_panics() {
        let b: GlobalBuffer<u32> = GlobalBuffer::new(2);
        let _ = b.get(2);
    }

    #[test]
    fn window_aliases_its_buffer() {
        let b = GlobalBuffer::from_slice(&[10u16, 20, 30, 40, 50]);
        let w = b.window(1, 3);
        assert_eq!((w.get(0), w.get(2)), (20, 40));
        w.set(1, 33);
        assert_eq!(b.get(2), 33);
        b.set(3, 44);
        assert_eq!(w.get(2), 44);
        let _empty = b.window(5, 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_window_panics() {
        let b: GlobalBuffer<u32> = GlobalBuffer::new(4);
        let _ = b.window(2, 3);
    }

    #[test]
    #[should_panic]
    fn out_of_window_get_panics() {
        // In the buffer, past the window.
        let b: GlobalBuffer<u32> = GlobalBuffer::new(4);
        let _ = b.window(1, 2).get(2);
    }

    #[test]
    fn concurrent_disjoint_writes_are_safe() {
        // Many threads writing disjoint slots must all land.
        let b: GlobalBuffer<u64> = GlobalBuffer::new(64);
        thread::scope(|s| {
            for t in 0..8 {
                let b = b.clone();
                s.spawn(move || {
                    for i in 0..8 {
                        b.set(t * 8 + i, (t * 8 + i) as u64 + 1);
                    }
                });
            }
        });
        let v = b.to_vec();
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u64 + 1);
        }
    }

    /// Every buffer starts on a 256-byte boundary, as a `cudaMalloc`'d one
    /// does, and none of its padding shows.
    #[test]
    fn buffers_start_on_a_256_byte_boundary() {
        fn check<T: DeviceScalar + PartialEq + std::fmt::Debug>(len: usize, v: T) {
            let data = vec![v; len];
            for b in [GlobalBuffer::new(len), GlobalBuffer::from_slice(&data)] {
                let at = b.cells().as_ptr().addr();
                assert_eq!(at % ALIGN, 0, "{len} x {}", std::any::type_name::<T>());
                assert_eq!(b.len(), len);
                assert_eq!(b.to_vec().len(), len);
                assert_eq!(b.clone().cells().as_ptr().addr(), at);
                let _whole = b.window(0, len);
            }
            assert_eq!(GlobalBuffer::from_slice(&data).to_vec(), data);
            assert!(GlobalBuffer::<T>::new(len)
                .to_vec()
                .iter()
                .all(|x| *x == T::default()));
        }
        for len in [0, 1, 63, 64, 1000] {
            check(len, 1.5f32);
            check(len, u64::MAX);
            check(len, 7u8);
        }
    }

    #[test]
    #[should_panic]
    fn the_padding_is_out_of_range() {
        let b: GlobalBuffer<u8> = GlobalBuffer::new(1);
        let _ = b.get(1);
    }

    #[test]
    fn debug_impl_mentions_len() {
        let b: GlobalBuffer<u32> = GlobalBuffer::new(5);
        assert!(format!("{b:?}").contains("len: 5"));
    }
}
