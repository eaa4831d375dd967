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
//!
//! Like a GPU runtime's caching allocator, the process keeps the storage
//! of large buffers when their last clone drops and builds later buffers
//! of the same atom type and length in it (see `Pool`): a fresh page
//! costs a fault on first touch, about 2 µs per 4 KiB on the 2-vCPU
//! reference host, so a fresh 2 MiB buffer builds in 1–1.6 ms there and a
//! recycled one, zeroed or copied into with plain writes, in 0.1–0.3 ms.
//! A buffer reads the same either way: zero from [`GlobalBuffer::new`],
//! its data from [`GlobalBuffer::from_slice`].

use std::any::{Any, TypeId};
use std::collections::VecDeque;
use std::mem::{size_of, size_of_val};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::scalar::DeviceScalar;

/// Where every buffer's first element sits: on a multiple of 256 bytes,
/// the alignment `cudaMalloc` guarantees.
const ALIGN: usize = 256;

/// Storage of at least this many bytes goes back to [`POOL`] when its last
/// buffer drops. Smaller storage is freed: it faults in few pages, and the
/// per-launch buffers of the micro-benchmark kernels never take the lock.
const POOL_MIN_BYTES: usize = 64 << 10;

/// The most storage [`POOL`] keeps: well above the 70 MB one slice of the
/// `algos` benchmark builds.
const POOL_CAP_BYTES: usize = 256 << 20;

/// The process's free storage.
static POOL: Pool = Pool::new(POOL_CAP_BYTES);

/// Free buffer storage by atom type and length, at most `cap` bytes of it:
/// a give past the cap frees the oldest storage first, so a process whose
/// buffer sizes change does not keep the old ones.
struct Pool {
    cap: usize,
    inner: Mutex<Pooled>,
}

struct Pooled {
    bytes: usize,
    /// Oldest first.
    free: VecDeque<Free>,
}

/// One `Arc<[A]>`, unshared.
struct Free {
    atom: TypeId,
    len: usize,
    bytes: usize,
    storage: Box<dyn Any + Send>,
}

impl Pool {
    const fn new(cap: usize) -> Pool {
        Pool {
            cap,
            inner: Mutex::new(Pooled {
                bytes: 0,
                free: VecDeque::new(),
            }),
        }
    }

    /// The most recently given storage of `len` atoms of type `A`, if any.
    fn take<A: Send + Sync + 'static>(&self, len: usize) -> Option<Arc<[A]>> {
        let atom = TypeId::of::<A>();
        let free = {
            let mut pooled = self.inner.lock();
            let at = pooled
                .free
                .iter()
                .rposition(|f| f.atom == atom && f.len == len)?;
            let free = pooled.free.remove(at)?;
            pooled.bytes -= free.bytes;
            free
        };
        free.storage.downcast::<Arc<[A]>>().ok().map(|s| *s)
    }

    /// Keep `storage`, which nothing else holds, for a later
    /// [`Pool::take`]; storage larger than the cap is freed.
    fn give<A: Send + Sync + 'static>(&self, storage: Arc<[A]>) {
        let bytes = size_of_val(&*storage);
        if bytes > self.cap {
            return;
        }
        let free = Free {
            atom: TypeId::of::<A>(),
            len: storage.len(),
            bytes,
            storage: Box::new(storage),
        };
        loop {
            let mut pooled = self.inner.lock();
            if pooled.bytes + bytes <= self.cap {
                pooled.bytes += bytes;
                pooled.free.push_back(free);
                return;
            }
            let oldest = pooled.free.pop_front().expect("over the cap, so not empty");
            pooled.bytes -= oldest.bytes;
            // Freed outside the lock: returning pages to the system is the
            // slow part.
            drop(pooled);
            drop(oldest);
        }
    }
}

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

/// The last clone of a buffer of at least `POOL_MIN_BYTES` gives its
/// storage to `POOL`.
impl<T: DeviceScalar> Drop for GlobalBuffer<T> {
    fn drop(&mut self) {
        if size_of_val(&*self.storage) >= POOL_MIN_BYTES
            && Arc::get_mut(&mut self.storage).is_some()
        {
            POOL.give(std::mem::take(&mut self.storage));
        }
    }
}

impl<T: DeviceScalar> GlobalBuffer<T> {
    /// Allocate `len` elements, default-initialized (zero for all supported
    /// scalars).
    pub fn new(len: usize) -> Self {
        Self::alloc(len, None)
    }

    /// Allocate and copy from host data.
    pub fn from_slice(data: &[T]) -> Self {
        Self::alloc(data.len(), Some(data))
    }

    /// `len` elements holding `data`, or zero: one allocation, `ALIGN`
    /// bytes longer than the elements so that one of its first `ALIGN`
    /// bytes is on the boundary, taken from `POOL` when it is large
    /// enough to be pooled and the pool has one of its length.
    fn alloc(len: usize, data: Option<&[T]>) -> Self {
        let size = size_of::<T::Atom>();
        let atoms = len + ALIGN / size;
        let recycled = if atoms * size >= POOL_MIN_BYTES {
            POOL.take(atoms)
        } else {
            None
        };
        let fresh = recycled.is_none();
        let mut storage: Arc<[T::Atom]> =
            recycled.unwrap_or_else(|| (0..atoms).map(|_| T::atom_new(T::default())).collect());
        // An atom's size is its alignment, so the distance to the boundary
        // is whole atoms, fewer than the `ALIGN / size` of padding.
        let at = storage.as_ptr().addr();
        let start = (at.next_multiple_of(ALIGN) - at) / size;
        // Plain writes through the still-unique allocation: atomic stores
        // would not vectorize.
        let cells = &mut Arc::get_mut(&mut storage).expect("new or pooled storage is unshared")
            [start..start + len];
        match data {
            Some(data) => {
                for (cell, &v) in cells.iter_mut().zip(data) {
                    *cell = T::atom_new(v);
                }
            }
            // Recycled storage holds what its last buffer left there.
            None if !fresh => cells.fill_with(|| T::atom_new(T::default())),
            None => {}
        }
        GlobalBuffer {
            storage,
            start,
            len,
        }
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
    use std::sync::atomic::{AtomicU32, AtomicU64};
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

    impl Pool {
        fn bytes(&self) -> usize {
            self.inner.lock().bytes
        }
    }

    /// Elements of a pooled buffer of `T` whose storage is `kib` KiB and
    /// `ALIGN` bytes. Each test takes its own `kib`: the tests of this
    /// binary share the process's pool, which matches storage by length.
    fn pooled_len<T: DeviceScalar>(kib: usize) -> usize {
        (kib << 10) / size_of::<T::Atom>()
    }

    /// Where a buffer's storage sits.
    fn storage_at<T: DeviceScalar>(b: &GlobalBuffer<T>) -> usize {
        b.storage.as_ptr().addr()
    }

    /// A dirtied buffer's storage comes back zeroed from `new` and holding
    /// exactly its data from `from_slice`, at every atom width, still on
    /// its 256-byte boundary.
    #[test]
    fn recycled_storage_reads_like_fresh_storage() {
        fn check<T: DeviceScalar + PartialEq + std::fmt::Debug>(kib: usize, dirt: T, data: T) {
            let len = pooled_len::<T>(kib);
            let name = std::any::type_name::<T>();
            let dirty = GlobalBuffer::new(len);
            dirty.fill(dirt);
            let at = storage_at(&dirty);
            drop(dirty);
            let b = GlobalBuffer::<T>::new(len);
            assert_eq!(storage_at(&b), at, "{name}: new took the dropped storage");
            assert_eq!(b.cells().as_ptr().addr() % ALIGN, 0, "{name}");
            assert!(b.to_vec().iter().all(|x| *x == T::default()), "{name}");
            b.fill(dirt);
            drop(b);
            let mut want = vec![data; len];
            want[len / 2] = T::default();
            let b = GlobalBuffer::from_slice(&want);
            assert_eq!(storage_at(&b), at, "{name}: from_slice took it");
            assert_eq!(b.cells().as_ptr().addr() % ALIGN, 0, "{name}");
            assert_eq!(b.to_vec(), want, "{name}");
        }
        check(65, u8::MAX, 7u8);
        check(66, -1i16, 300i16);
        check(67, f32::NAN, 1.5f32);
        check(68, u32::MAX, 9u32);
        check(69, -1i64, i64::MIN);
        check(70, f64::INFINITY, -0.5f64);
    }

    /// Storage goes back only with the last clone, and never while a
    /// clone can still write it.
    #[test]
    fn storage_a_clone_holds_is_never_recycled() {
        let len = pooled_len::<u32>(71);
        let a = GlobalBuffer::<u32>::new(len);
        let alias = a.clone();
        let at = storage_at(&a);
        drop(a);
        let b = GlobalBuffer::<u32>::new(len);
        assert_ne!(storage_at(&b), at);
        alias.fill(5);
        assert!(b.to_vec().iter().all(|&x| x == 0));
        drop(alias);
        let c = GlobalBuffer::<u32>::new(len);
        assert_eq!(storage_at(&c), at, "the last clone gave it back");
    }

    #[test]
    fn only_storage_of_64_kib_or_more_is_pooled() {
        let pooled = |atoms: usize| POOL.inner.lock().free.iter().any(|f| f.len == atoms);
        // One atom short of the threshold, then exactly at it.
        for (len, kept) in [
            ((POOL_MIN_BYTES - ALIGN) / 2 - 1, false),
            ((POOL_MIN_BYTES - ALIGN) / 2, true),
        ] {
            let b = GlobalBuffer::<u16>::new(len);
            let atoms = b.storage.len();
            assert_eq!(atoms * 2 >= POOL_MIN_BYTES, kept);
            drop(b);
            assert_eq!(pooled(atoms), kept, "{len} elements");
        }
    }

    /// A give past the cap frees the oldest storage first, and storage
    /// larger than the whole cap is not kept at all.
    #[test]
    fn pooled_bytes_never_exceed_the_cap() {
        let cap = 10 << 10;
        let pool = Pool::new(cap);
        let storage =
            |n: usize| -> Arc<[AtomicU64]> { (0..n).map(|_| AtomicU64::new(0)).collect() };
        for (i, n) in [512usize, 384, 256, 128, 700, 64, 1280, 1281]
            .into_iter()
            .enumerate()
        {
            pool.give(storage(n));
            assert!(
                pool.bytes() <= cap,
                "give {i} of {n} atoms: {}",
                pool.bytes()
            );
            if n == 700 {
                // 5600 bytes over a full cap: the two oldest went.
                let lens: Vec<usize> = pool.inner.lock().free.iter().map(|f| f.len).collect();
                assert_eq!(lens, [256, 128, 700]);
            }
        }
        // 1280 atoms are the whole cap: everything else went first, and
        // 1281 were never kept.
        assert_eq!(pool.bytes(), cap);
        assert!(pool.take::<AtomicU64>(1281).is_none());
        assert!(pool.take::<AtomicU64>(512).is_none());
        assert_eq!(pool.take::<AtomicU64>(1280).map(|s| s.len()), Some(1280));
        assert_eq!(pool.bytes(), 0);
        // Keyed by atom type as well as length.
        pool.give(storage(16));
        assert!(pool.take::<AtomicU32>(16).is_none());
        assert!(pool.take::<AtomicU64>(16).is_some());
    }

    /// Eight threads building and dropping buffers of one size at once:
    /// each sees its own zeroed storage, whichever thread dropped it last.
    #[test]
    fn concurrent_builds_each_get_their_own_zeroed_storage() {
        let len = pooled_len::<u32>(72);
        thread::scope(|s| {
            for t in 1..=8u32 {
                s.spawn(move || {
                    for i in 0..50 {
                        let b = if i % 2 == 0 {
                            GlobalBuffer::<u32>::new(len)
                        } else {
                            GlobalBuffer::from_slice(&vec![0; len])
                        };
                        assert!(b.to_vec().iter().all(|&x| x == 0), "thread {t} build {i}");
                        b.fill(t);
                        thread::yield_now();
                        assert!(b.to_vec().iter().all(|&x| x == t), "thread {t} build {i}");
                    }
                });
            }
        });
        assert!(POOL.bytes() <= POOL_CAP_BYTES);
    }
}
