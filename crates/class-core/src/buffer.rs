//! Contiguous sliding buffers used by the streaming algorithms.
//!
//! The hot path of ClaSS reads *all* buffered elements on every update, so
//! the buffers keep the live elements in one contiguous slice that the SIMD
//! kernels read directly. Behind the live region sits a spare region of
//! `slack = max(capacity / 8, 1)` slots. Pushes walk the live region
//! forward through the spare slots; once they are used up, one
//! `copy_within` moves the live region back to the front. A full buffer
//! thus compacts every `slack + 1` pushes, moving `capacity - 1` elements:
//! about 8 element moves per push, amortized, for 12.5% extra memory.
//!
//! In the streaming k-NN at d = 10k (w = 50, k = 3, Pearson), the
//! per-subsequence columns share one capacity and are pushed in lockstep,
//! so they all compact in the same update, every 1,244 updates, moving
//! ~0.73 MB at once; the raw window compacts on its own cycle of 1,251
//! updates, moving 80 KB.

/// Spare slots (rows) behind the live region of a buffer that keeps at
/// most `capacity` elements (rows).
#[inline]
fn slack(capacity: usize) -> usize {
    (capacity / 8).max(1)
}

/// A fixed-capacity sliding window over `T` values with a contiguous view.
///
/// `push` appends to the logical end; once `capacity` elements are stored the
/// oldest element is evicted. Physically the buffer holds
/// `capacity + max(capacity / 8, 1)` slots and, once full, compacts with a
/// single `copy_within` every `max(capacity / 8, 1) + 1` pushes (see the
/// module docs), which makes `push` amortized O(1) while `as_slice` stays
/// contiguous.
#[derive(Debug, Clone)]
pub struct ShiftBuffer<T: Copy + Default> {
    data: Vec<T>,
    capacity: usize,
    start: usize,
    len: usize,
}

impl<T: Copy + Default> ShiftBuffer<T> {
    /// Creates an empty buffer that keeps at most `capacity` elements.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ShiftBuffer capacity must be positive");
        Self {
            data: vec![T::default(); capacity + slack(capacity)],
            capacity,
            start: 0,
            len: 0,
        }
    }

    /// Appends `value`, evicting the oldest element if the buffer is full.
    ///
    /// Returns `true` if an element was evicted.
    #[inline]
    pub fn push(&mut self, value: T) -> bool {
        let evicted = if self.len == self.capacity {
            self.start += 1;
            self.len -= 1;
            true
        } else {
            false
        };
        if self.start + self.len == self.data.len() {
            // Compact: move the live region back to the front.
            self.data.copy_within(self.start..self.start + self.len, 0);
            self.start = 0;
        }
        self.data[self.start + self.len] = value;
        self.len += 1;
        evicted
    }

    /// Number of live elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the buffer is at capacity (the next push evicts).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Maximum number of retained elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Contiguous view of the live elements, oldest first.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data[self.start..self.start + self.len]
    }

    /// Mutable contiguous view of the live elements, oldest first.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data[self.start..self.start + self.len]
    }

    /// Element at logical index `i` (0 = oldest).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        self.data[self.start + i]
    }

    /// Removes all elements without releasing memory.
    pub fn clear(&mut self) {
        self.start = 0;
        self.len = 0;
    }

    /// Heap bytes allocated for the slots, spare region included.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * core::mem::size_of::<T>()
    }
}

/// A sliding matrix with a fixed number of columns and row-wise eviction.
///
/// Rows are appended with [`ShiftMatrix::push_row`]; once `row_capacity` rows
/// are live, the oldest row is evicted. Storage is a flat, contiguous
/// row-major buffer of `row_capacity + max(row_capacity / 8, 1)` rows,
/// compacted lazily like [`ShiftBuffer`]. Used for the k-NN index (`N`) and
/// score (`C`) tables of the streaming k-NN, which are scanned fully on
/// every stream update.
#[derive(Debug, Clone)]
pub struct ShiftMatrix<T: Copy + Default> {
    data: Vec<T>,
    cols: usize,
    row_capacity: usize,
    start_row: usize,
    rows: usize,
}

impl<T: Copy + Default> ShiftMatrix<T> {
    /// Creates an empty matrix with `cols` columns keeping at most
    /// `row_capacity` rows.
    ///
    /// # Panics
    /// Panics if `cols == 0` or `row_capacity == 0`.
    pub fn new(row_capacity: usize, cols: usize) -> Self {
        assert!(cols > 0, "ShiftMatrix needs at least one column");
        assert!(
            row_capacity > 0,
            "ShiftMatrix row capacity must be positive"
        );
        Self {
            data: vec![T::default(); (row_capacity + slack(row_capacity)) * cols],
            cols,
            row_capacity,
            start_row: 0,
            rows: 0,
        }
    }

    /// Appends a row (padded/truncated semantics are the caller's concern;
    /// `row` must have exactly `cols` elements). Evicts the oldest row when
    /// full. Returns `true` if a row was evicted.
    pub fn push_row(&mut self, row: &[T]) -> bool {
        debug_assert_eq!(row.len(), self.cols);
        let evicted = if self.rows == self.row_capacity {
            self.start_row += 1;
            self.rows -= 1;
            true
        } else {
            false
        };
        if (self.start_row + self.rows + 1) * self.cols > self.data.len() {
            let src = self.start_row * self.cols..(self.start_row + self.rows) * self.cols;
            self.data.copy_within(src, 0);
            self.start_row = 0;
        }
        let at = (self.start_row + self.rows) * self.cols;
        self.data[at..at + self.cols].copy_from_slice(row);
        self.rows += 1;
        evicted
    }

    /// Number of live rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` (0 = oldest) as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        debug_assert!(r < self.rows);
        let at = (self.start_row + r) * self.cols;
        &self.data[at..at + self.cols]
    }

    /// Mutable row `r` (0 = oldest).
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        debug_assert!(r < self.rows);
        let at = (self.start_row + r) * self.cols;
        &mut self.data[at..at + self.cols]
    }

    /// Contiguous view of all live rows, row-major, oldest row first.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data[self.start_row * self.cols..(self.start_row + self.rows) * self.cols]
    }

    /// Removes all rows without releasing memory.
    pub fn clear(&mut self) {
        self.start_row = 0;
        self.rows = 0;
    }

    /// Heap bytes allocated for the rows, spare region included.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * core::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Capacities with a spare region of 1 slot (1..=15) and of 2 (16, 17),
    /// plus one large buffer.
    fn boundary_capacities() -> impl Iterator<Item = usize> {
        (1..=17).chain([1000])
    }

    #[test]
    fn shift_buffer_matches_vecdeque_across_compactions() {
        for cap in boundary_capacities() {
            let mut b = ShiftBuffer::new(cap);
            assert_eq!(
                b.heap_bytes(),
                (cap + (cap / 8).max(1)) * core::mem::size_of::<u64>(),
                "cap {cap}: allocation"
            );
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut compactions = 0;
            // The first compaction comes `slack + 1` pushes after the
            // buffer fills, and every `slack + 1` pushes after that.
            let pushes = cap + 4 * (slack(cap) + 1);
            for i in 0..pushes as u64 {
                let start = b.start;
                let evicted = b.push(i);
                model.push_back(i);
                let model_evicted = model.len() > cap;
                if model_evicted {
                    model.pop_front();
                }
                compactions += usize::from(b.start < start);
                assert_eq!(evicted, model_evicted, "cap {cap} push {i}");
                // Writes through the mutable view must survive compaction.
                b.as_mut_slice()[0] += 1;
                model[0] += 1;
                assert_eq!(b.as_slice(), model.make_contiguous(), "cap {cap} push {i}");
                assert_eq!(b.get(b.len() - 1), model[model.len() - 1]);
                assert_eq!(b.is_full(), model.len() == cap);
            }
            assert_eq!(compactions, 4, "cap {cap}: compaction cycles");
        }
    }

    #[test]
    fn shift_matrix_matches_vecdeque_of_rows_across_compactions() {
        for cap in boundary_capacities() {
            for cols in [1, 3] {
                let mut m = ShiftMatrix::new(cap, cols);
                assert_eq!(
                    m.heap_bytes(),
                    (cap + (cap / 8).max(1)) * cols * core::mem::size_of::<i64>(),
                    "cap {cap} cols {cols}: allocation"
                );
                let mut model: VecDeque<Vec<i64>> = VecDeque::new();
                let mut compactions = 0;
                let pushes = cap + 4 * (slack(cap) + 1);
                for i in 0..pushes as i64 {
                    let row: Vec<i64> = (0..cols as i64).map(|c| i * 10 + c).collect();
                    let start = m.start_row;
                    let evicted = m.push_row(&row);
                    model.push_back(row);
                    let model_evicted = model.len() > cap;
                    if model_evicted {
                        model.pop_front();
                    }
                    compactions += usize::from(m.start_row < start);
                    assert_eq!(evicted, model_evicted, "cap {cap} push {i}");
                    m.row_mut(0)[cols - 1] -= 1;
                    model[0][cols - 1] -= 1;
                    assert_eq!(m.rows(), model.len());
                    for (r, want) in model.iter().enumerate() {
                        assert_eq!(m.row(r), &want[..], "cap {cap} push {i} row {r}");
                    }
                    let flat: Vec<i64> = model.iter().flatten().copied().collect();
                    assert_eq!(m.as_slice(), &flat[..]);
                }
                assert_eq!(compactions, 4, "cap {cap} cols {cols}: compaction cycles");
            }
        }
    }

    #[test]
    fn shift_buffer_basic_push_and_view() {
        let mut b = ShiftBuffer::new(3);
        assert!(b.is_empty());
        assert!(!b.push(1));
        assert!(!b.push(2));
        assert!(!b.push(3));
        assert!(b.is_full());
        assert_eq!(b.as_slice(), &[1, 2, 3]);
        assert!(b.push(4));
        assert_eq!(b.as_slice(), &[2, 3, 4]);
        assert_eq!(b.get(0), 2);
        assert_eq!(b.get(2), 4);
    }

    #[test]
    fn shift_buffer_stays_contiguous_over_many_wraps() {
        let mut b = ShiftBuffer::new(5);
        for i in 0..1000u64 {
            b.push(i);
            let s = b.as_slice();
            assert_eq!(s.len(), (i as usize + 1).min(5));
            // Oldest-first ordering check.
            for (j, &v) in s.iter().enumerate() {
                assert_eq!(v, i + 1 - s.len() as u64 + j as u64);
            }
        }
    }

    #[test]
    fn shift_buffer_capacity_one() {
        let mut b = ShiftBuffer::new(1);
        b.push(10);
        assert_eq!(b.as_slice(), &[10]);
        assert!(b.push(20));
        assert_eq!(b.as_slice(), &[20]);
    }

    #[test]
    fn shift_buffer_clear_resets() {
        let mut b = ShiftBuffer::new(4);
        for i in 0..10 {
            b.push(i);
        }
        b.clear();
        assert!(b.is_empty());
        b.push(42);
        assert_eq!(b.as_slice(), &[42]);
    }

    #[test]
    #[should_panic]
    fn shift_buffer_zero_capacity_panics() {
        let _ = ShiftBuffer::<f64>::new(0);
    }

    #[test]
    fn shift_matrix_push_evict_and_rows() {
        let mut m = ShiftMatrix::new(2, 3);
        m.push_row(&[1, 2, 3]);
        m.push_row(&[4, 5, 6]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), &[1, 2, 3]);
        assert_eq!(m.row(1), &[4, 5, 6]);
        assert!(m.push_row(&[7, 8, 9]));
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), &[4, 5, 6]);
        assert_eq!(m.row(1), &[7, 8, 9]);
        assert_eq!(m.as_slice(), &[4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn shift_matrix_many_wraps_keep_order() {
        let mut m = ShiftMatrix::new(4, 2);
        for i in 0..500i64 {
            m.push_row(&[i, -i]);
            let rows = m.rows();
            for r in 0..rows {
                let expect = i - (rows as i64 - 1) + r as i64;
                assert_eq!(m.row(r), &[expect, -expect]);
            }
        }
    }

    #[test]
    fn shift_matrix_row_mut_updates_in_place() {
        let mut m = ShiftMatrix::new(3, 2);
        m.push_row(&[0.0, 0.0]);
        m.push_row(&[1.0, 1.0]);
        m.row_mut(0)[1] = 9.5;
        assert_eq!(m.row(0), &[0.0, 9.5]);
        assert_eq!(m.row(1), &[1.0, 1.0]);
    }
}
