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

use std::sync::Arc;

use crate::scalar::DeviceScalar;

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
    cells: Arc<[T::Atom]>,
}

impl<T: DeviceScalar> Clone for GlobalBuffer<T> {
    fn clone(&self) -> Self {
        GlobalBuffer {
            cells: Arc::clone(&self.cells),
        }
    }
}

impl<T: DeviceScalar> GlobalBuffer<T> {
    /// Allocate `len` elements, default-initialized (zero for all supported
    /// scalars).
    pub fn new(len: usize) -> Self {
        GlobalBuffer {
            cells: (0..len).map(|_| T::atom_new(T::default())).collect(),
        }
    }

    /// Allocate and copy from host data.
    pub fn from_slice(data: &[T]) -> Self {
        GlobalBuffer {
            cells: data.iter().map(|&v| T::atom_new(v)).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Read element `i` (relaxed).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds, like slice indexing.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        T::atom_load(&self.cells[i])
    }

    /// Write element `i` (relaxed).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        T::atom_store(&self.cells[i], v)
    }

    /// Copy the whole buffer back to the host.
    pub fn to_vec(&self) -> Vec<T> {
        self.cells.iter().map(|a| T::atom_load(a)).collect()
    }

    /// Overwrite every element with `v`.
    pub fn fill(&self, v: T) {
        for a in self.cells.iter() {
            T::atom_store(a, v);
        }
    }

    /// Overwrite the buffer from host data.
    ///
    /// # Panics
    /// Panics if `data.len() != self.len()`.
    pub fn copy_from_slice(&self, data: &[T]) {
        assert_eq!(data.len(), self.len(), "copy_from_slice: length mismatch");
        for (a, &v) in self.cells.iter().zip(data) {
            T::atom_store(a, v);
        }
    }

    /// Read a contiguous range into a `Vec` (a "device-to-host memcpy" of a
    /// slice).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn read_range(&self, start: usize, len: usize) -> Vec<T> {
        self.cells[start..start + len]
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
            cells: &self.cells[start..start + len],
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

/// A row-major 2-D view over a [`GlobalBuffer`] — the shape of the SWat
/// matrices and 2-D FFT planes. Cloning is shallow, like the underlying
/// buffer.
pub struct GlobalBuffer2d<T: DeviceScalar> {
    buf: GlobalBuffer<T>,
    rows: usize,
    cols: usize,
}

impl<T: DeviceScalar> Clone for GlobalBuffer2d<T> {
    fn clone(&self) -> Self {
        GlobalBuffer2d {
            buf: self.buf.clone(),
            rows: self.rows,
            cols: self.cols,
        }
    }
}

impl<T: DeviceScalar> GlobalBuffer2d<T> {
    /// Allocate a zeroed `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        GlobalBuffer2d {
            buf: GlobalBuffer::new(rows * cols),
            rows,
            cols,
        }
    }

    /// Wrap an existing buffer (`buf.len()` must equal `rows * cols`).
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn from_buffer(buf: GlobalBuffer<T>, rows: usize, cols: usize) -> Self {
        assert_eq!(buf.len(), rows * cols, "shape mismatch");
        GlobalBuffer2d { buf, rows, cols }
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Read element `(r, c)`.
    ///
    /// # Panics
    /// Panics when out of bounds (both axes checked).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.buf.get(r * self.cols + c)
    }

    /// Write element `(r, c)`.
    ///
    /// # Panics
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&self, r: usize, c: usize, v: T) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.buf.set(r * self.cols + c, v)
    }

    /// One row as a host vector.
    pub fn row(&self, r: usize) -> Vec<T> {
        assert!(r < self.rows);
        self.buf.read_range(r * self.cols, self.cols)
    }

    /// The flat underlying buffer.
    pub fn flat(&self) -> &GlobalBuffer<T> {
        &self.buf
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

    #[test]
    fn buffer2d_round_trips() {
        let m: GlobalBuffer2d<i32> = GlobalBuffer2d::new(3, 4);
        assert_eq!(m.shape(), (3, 4));
        m.set(2, 3, 42);
        m.set(0, 0, -1);
        assert_eq!(m.get(2, 3), 42);
        assert_eq!(m.get(0, 0), -1);
        assert_eq!(m.row(2), vec![0, 0, 0, 42]);
        assert_eq!(m.flat().len(), 12);
        // Shallow clone aliases storage.
        let alias = m.clone();
        alias.set(1, 1, 7);
        assert_eq!(m.get(1, 1), 7);
    }

    #[test]
    fn buffer2d_wraps_flat_buffer() {
        let flat = GlobalBuffer::from_slice(&[1u32, 2, 3, 4, 5, 6]);
        let m = GlobalBuffer2d::from_buffer(flat, 2, 3);
        assert_eq!(m.get(1, 2), 6);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn buffer2d_shape_checked() {
        let flat: GlobalBuffer<u8> = GlobalBuffer::new(5);
        let _ = GlobalBuffer2d::from_buffer(flat, 2, 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn buffer2d_bounds_checked() {
        let m: GlobalBuffer2d<u8> = GlobalBuffer2d::new(2, 2);
        let _ = m.get(0, 2);
    }

    #[test]
    fn debug_impl_mentions_len() {
        let b: GlobalBuffer<u32> = GlobalBuffer::new(5);
        assert!(format!("{b:?}").contains("len: 5"));
    }
}
