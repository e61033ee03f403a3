//! Borrowed, leading-dimension strided matrix views.
//!
//! Every kernel in this crate operates on [`MatView`] / [`MatViewMut`]
//! rather than on owned [`crate::Matrix`] values so that blocked algorithms
//! (panel factorizations, trailing updates, block-cyclic local storage) can
//! address arbitrary sub-blocks without copying — the same role `(ptr, lda)`
//! pairs play in Fortran BLAS.
//!
//! # Safety model
//!
//! A view is a `(ptr, rows, cols, ld)` quadruple with the invariants
//!
//! * `ld >= rows.max(1)`,
//! * for every `j < cols` the memory range `[ptr + j*ld, ptr + j*ld + rows)`
//!   is valid for the view's lifetime (and writable for `MatViewMut`),
//! * distinct `MatViewMut`s never alias.
//!
//! The public splitting/sub-view API only hands out views that preserve the
//! invariants, so kernels built on top are safe code. The only `unsafe`
//! outside this module is the packed micro-kernel (`kernel.rs`), which
//! addresses the register tiles of a view through its raw pointer. Element
//! accesses are bounds-checked with `debug_assert!` (tests run with debug
//! assertions on).

use crate::scalar::Scalar;
use std::fmt;
use std::marker::PhantomData;

/// Immutable view of a column-major matrix block.
#[derive(Clone, Copy)]
pub struct MatView<'a, T = f64> {
    ptr: *const T,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a T>,
}

/// Mutable view of a column-major matrix block.
pub struct MatViewMut<'a, T = f64> {
    ptr: *mut T,
    rows: usize,
    cols: usize,
    ld: usize,
    _marker: PhantomData<&'a mut T>,
}

// A view is semantically a (slice of) shared scalars; a mutable view is
// semantically an exclusive slice. Both patterns are Send/Sync exactly like
// `&[T]` / `&mut [T]`.
unsafe impl<T: Sync> Send for MatView<'_, T> {}
unsafe impl<T: Sync> Sync for MatView<'_, T> {}
unsafe impl<T: Send> Send for MatViewMut<'_, T> {}
unsafe impl<T: Sync> Sync for MatViewMut<'_, T> {}

impl<'a, T: Scalar> MatView<'a, T> {
    /// Builds a view over `data` interpreted as column-major with leading
    /// dimension `ld`.
    ///
    /// # Panics
    /// If the slice is too short for the shape or `ld < rows`.
    pub fn from_slice(data: &'a [T], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows.max(1), "leading dimension {ld} < rows {rows}");
        if cols > 0 && rows > 0 {
            let need = (cols - 1) * ld + rows;
            assert!(data.len() >= need, "slice len {} < required {need}", data.len());
        }
        Self { ptr: data.as_ptr(), rows, cols, ld, _marker: PhantomData }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (column stride).
    #[inline(always)]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// `true` if the view contains no elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Element `(i, j)`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        unsafe { *self.ptr.add(j * self.ld + i) }
    }

    /// Column `j` as a contiguous slice of length `rows`.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &'a [T] {
        debug_assert!(j < self.cols, "column {j} out of {}", self.cols);
        unsafe { std::slice::from_raw_parts(self.ptr.add(j * self.ld), self.rows) }
    }

    /// Sub-block of shape `nrows x ncols` starting at `(i, j)`.
    pub fn submatrix(&self, i: usize, j: usize, nrows: usize, ncols: usize) -> MatView<'a, T> {
        assert!(i + nrows <= self.rows, "row range {i}+{nrows} out of {}", self.rows);
        assert!(j + ncols <= self.cols, "col range {j}+{ncols} out of {}", self.cols);
        MatView {
            ptr: unsafe { self.ptr.add(j * self.ld + i) },
            rows: nrows,
            cols: ncols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Splits into `(top, bottom)` at row `i`.
    pub fn split_at_row(&self, i: usize) -> (MatView<'a, T>, MatView<'a, T>) {
        (self.submatrix(0, 0, i, self.cols), self.submatrix(i, 0, self.rows - i, self.cols))
    }

    /// Splits into `(left, right)` at column `j`.
    pub fn split_at_col(&self, j: usize) -> (MatView<'a, T>, MatView<'a, T>) {
        (self.submatrix(0, 0, self.rows, j), self.submatrix(0, j, self.rows, self.cols - j))
    }

    /// Copies the viewed block into an owned [`crate::Matrix`].
    pub fn to_matrix(&self) -> crate::Matrix<T> {
        let mut m = crate::Matrix::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            m.col_mut(j).copy_from_slice(self.col(j));
        }
        m
    }

    /// Maximum absolute value over the block (0 for an empty block).
    pub fn max_abs(&self) -> T {
        let mut best = T::ZERO;
        for j in 0..self.cols {
            for &x in self.col(j) {
                let a = x.abs();
                if a > best {
                    best = a;
                }
            }
        }
        best
    }
}

impl<'a, T: Scalar> MatViewMut<'a, T> {
    /// Builds a mutable view over `data` (column-major, leading dimension `ld`).
    ///
    /// # Panics
    /// If the slice is too short for the shape or `ld < rows`.
    pub fn from_slice(data: &'a mut [T], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows.max(1), "leading dimension {ld} < rows {rows}");
        if cols > 0 && rows > 0 {
            let need = (cols - 1) * ld + rows;
            assert!(data.len() >= need, "slice len {} < required {need}", data.len());
        }
        Self { ptr: data.as_mut_ptr(), rows, cols, ld, _marker: PhantomData }
    }

    /// Builds a mutable view directly over raw strided storage, without
    /// materializing an intermediate `&mut [f64]` over the whole span.
    ///
    /// This is the constructor for callers (like the task-graph runtime)
    /// that carve *logically* disjoint blocks whose strided footprints
    /// interleave in memory: two views over disjoint row ranges of the
    /// same columns never alias element-wise, but `&mut` slices covering
    /// their full `(cols-1)·ld + rows` spans would overlap in the
    /// inter-row gaps — undefined behavior Rust's aliasing rules reject
    /// even if no element is touched twice. Starting from the raw pointer
    /// keeps every reference this view hands out (per-column slices,
    /// element accesses) confined to the block's own elements.
    ///
    /// # Safety
    /// For the lifetime `'a` the caller must guarantee, for every
    /// `j < cols`, that `[ptr + j·ld, ptr + j·ld + rows)` is valid,
    /// writable, and not accessed through any other reference or view
    /// (the usual `MatViewMut` invariants), and that `ld ≥ rows.max(1)`.
    pub unsafe fn from_raw_parts(ptr: *mut T, rows: usize, cols: usize, ld: usize) -> Self {
        debug_assert!(ld >= rows.max(1), "leading dimension {ld} < rows {rows}");
        Self { ptr, rows, cols, ld, _marker: PhantomData }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (column stride).
    #[inline(always)]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// `true` if the view contains no elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Element `(i, j)`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        unsafe { *self.ptr.add(j * self.ld + i) }
    }

    /// Sets element `(i, j)` to `v`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        unsafe { *self.ptr.add(j * self.ld + i) = v }
    }

    /// Column `j` as an immutable contiguous slice.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.cols, "column {j} out of {}", self.cols);
        unsafe { std::slice::from_raw_parts(self.ptr.add(j * self.ld), self.rows) }
    }

    /// Column `j` as a mutable contiguous slice.
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.cols, "column {j} out of {}", self.cols);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(j * self.ld), self.rows) }
    }

    /// Pointer to element `(0, 0)`, valid for every element of the view
    /// (the packed kernels address register tiles through it).
    #[inline(always)]
    pub(crate) fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr
    }

    /// Two distinct columns mutably at once (used by column swaps).
    ///
    /// # Panics
    /// If `j1 == j2` or either is out of range.
    pub fn two_cols_mut(&mut self, j1: usize, j2: usize) -> (&mut [T], &mut [T]) {
        assert!(j1 != j2, "two_cols_mut requires distinct columns");
        assert!(j1 < self.cols && j2 < self.cols);
        unsafe {
            let a = std::slice::from_raw_parts_mut(self.ptr.add(j1 * self.ld), self.rows);
            let b = std::slice::from_raw_parts_mut(self.ptr.add(j2 * self.ld), self.rows);
            (a, b)
        }
    }

    /// Reborrows as an immutable view with a shorter lifetime.
    #[inline(always)]
    pub fn as_view(&self) -> MatView<'_, T> {
        MatView {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Reborrows mutably with a shorter lifetime (so a view can be passed to
    /// a kernel without being consumed).
    #[inline(always)]
    pub fn rb_mut(&mut self) -> MatViewMut<'_, T> {
        MatViewMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Mutable sub-block of shape `nrows x ncols` starting at `(i, j)`,
    /// consuming the view (use [`Self::rb_mut`] first to keep it).
    pub fn into_submatrix(
        self,
        i: usize,
        j: usize,
        nrows: usize,
        ncols: usize,
    ) -> MatViewMut<'a, T> {
        assert!(i + nrows <= self.rows, "row range {i}+{nrows} out of {}", self.rows);
        assert!(j + ncols <= self.cols, "col range {j}+{ncols} out of {}", self.cols);
        MatViewMut {
            ptr: unsafe { self.ptr.add(j * self.ld + i) },
            rows: nrows,
            cols: ncols,
            ld: self.ld,
            _marker: PhantomData,
        }
    }

    /// Mutable sub-block borrowing from `self` (non-consuming).
    pub fn submatrix_mut(
        &mut self,
        i: usize,
        j: usize,
        nrows: usize,
        ncols: usize,
    ) -> MatViewMut<'_, T> {
        self.rb_mut().into_submatrix(i, j, nrows, ncols)
    }

    /// Immutable sub-block.
    pub fn submatrix(&self, i: usize, j: usize, nrows: usize, ncols: usize) -> MatView<'_, T> {
        self.as_view().submatrix(i, j, nrows, ncols)
    }

    /// Splits into disjoint `(top, bottom)` mutable views at row `i`.
    pub fn split_at_row_mut(self, i: usize) -> (MatViewMut<'a, T>, MatViewMut<'a, T>) {
        assert!(i <= self.rows);
        let top = MatViewMut {
            ptr: self.ptr,
            rows: i,
            cols: self.cols,
            ld: self.ld,
            _marker: PhantomData,
        };
        let bottom = MatViewMut {
            ptr: unsafe { self.ptr.add(i) },
            rows: self.rows - i,
            cols: self.cols,
            ld: self.ld,
            _marker: PhantomData,
        };
        (top, bottom)
    }

    /// Splits into disjoint `(left, right)` mutable views at column `j`.
    pub fn split_at_col_mut(self, j: usize) -> (MatViewMut<'a, T>, MatViewMut<'a, T>) {
        assert!(j <= self.cols);
        let left = MatViewMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: j,
            ld: self.ld,
            _marker: PhantomData,
        };
        let right = MatViewMut {
            ptr: unsafe { self.ptr.add(j * self.ld) },
            rows: self.rows,
            cols: self.cols - j,
            ld: self.ld,
            _marker: PhantomData,
        };
        (left, right)
    }

    /// Swaps rows `i1` and `i2` across all columns of the view.
    pub fn swap_rows(&mut self, i1: usize, i2: usize) {
        assert!(i1 < self.rows && i2 < self.rows);
        if i1 == i2 {
            return;
        }
        for j in 0..self.cols {
            unsafe {
                let base = self.ptr.add(j * self.ld);
                std::ptr::swap(base.add(i1), base.add(i2));
            }
        }
    }

    /// Fills the whole block with `v`.
    pub fn fill(&mut self, v: T) {
        for j in 0..self.cols {
            self.col_mut(j).fill(v);
        }
    }

    /// Copies `src` (same shape) into this block.
    ///
    /// # Panics
    /// If the shapes differ.
    pub fn copy_from(&mut self, src: MatView<'_, T>) {
        assert_eq!(self.rows, src.rows(), "copy_from: row mismatch");
        assert_eq!(self.cols, src.cols(), "copy_from: col mismatch");
        for j in 0..self.cols {
            self.col_mut(j).copy_from_slice(src.col(j));
        }
    }

    /// Copies the viewed block into an owned [`crate::Matrix`].
    pub fn to_matrix(&self) -> crate::Matrix<T> {
        self.as_view().to_matrix()
    }
}

impl<T> fmt::Debug for MatView<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MatView({}x{}, ld={})", self.rows, self.cols, self.ld)
    }
}

impl<T> fmt::Debug for MatViewMut<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MatViewMut({}x{}, ld={})", self.rows, self.cols, self.ld)
    }
}

#[cfg(test)]
mod tests {
    use crate::Matrix;

    #[test]
    fn submatrix_addresses_expected_elements() {
        let m = Matrix::from_fn(4, 5, |i, j| (i * 10 + j) as f64);
        let v = m.view();
        let s = v.submatrix(1, 2, 2, 3);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 3);
        assert_eq!(s.get(0, 0), 12.0);
        assert_eq!(s.get(1, 2), 24.0);
        assert_eq!(s.col(1), &[13.0, 23.0]);
    }

    #[test]
    fn split_at_row_mut_is_disjoint_and_correct() {
        let mut m = Matrix::from_fn(4, 3, |i, j| (i + 10 * j) as f64);
        let (mut top, mut bot) = m.view_mut().split_at_row_mut(1);
        assert_eq!(top.rows(), 1);
        assert_eq!(bot.rows(), 3);
        top.set(0, 0, -1.0);
        bot.set(0, 0, -2.0);
        assert_eq!(m[(0, 0)], -1.0);
        assert_eq!(m[(1, 0)], -2.0);
    }

    #[test]
    fn split_at_col_mut_is_disjoint_and_correct() {
        let mut m = Matrix::from_fn(3, 4, |i, j| (i + 10 * j) as f64);
        let (mut l, mut r) = m.view_mut().split_at_col_mut(2);
        assert_eq!(l.cols(), 2);
        assert_eq!(r.cols(), 2);
        l.set(0, 1, -1.0);
        r.set(2, 0, -2.0);
        assert_eq!(m[(0, 1)], -1.0);
        assert_eq!(m[(2, 2)], -2.0);
    }

    #[test]
    fn swap_rows_swaps_entire_rows() {
        let mut m = Matrix::from_fn(3, 3, |i, _| i as f64);
        m.view_mut().swap_rows(0, 2);
        for j in 0..3 {
            assert_eq!(m[(0, j)], 2.0);
            assert_eq!(m[(2, j)], 0.0);
        }
    }

    #[test]
    fn copy_from_round_trips() {
        let src = Matrix::from_fn(3, 2, |i, j| (i * 7 + j) as f64);
        let mut dst = Matrix::zeros(3, 2);
        dst.view_mut().copy_from(src.view());
        assert_eq!(src, dst);
    }

    #[test]
    #[should_panic(expected = "row range")]
    fn submatrix_out_of_range_panics() {
        let m: Matrix = Matrix::zeros(3, 3);
        let _ = m.view().submatrix(2, 0, 2, 1);
    }

    #[test]
    fn two_cols_mut_allows_column_swap() {
        let mut m = Matrix::from_fn(2, 3, |_, j| j as f64);
        let mut v = m.view_mut();
        let (a, b) = v.two_cols_mut(0, 2);
        a.swap_with_slice(b);
        assert_eq!(m[(0, 0)], 2.0);
        assert_eq!(m[(0, 2)], 0.0);
    }

    #[test]
    fn nested_submatrices_compose_offsets() {
        let m = Matrix::from_fn(6, 6, |i, j| (i * 10 + j) as f64);
        let v = m.view();
        let outer = v.submatrix(1, 1, 4, 4);
        let inner = outer.submatrix(1, 2, 2, 2);
        // inner(0,0) is global (2, 3).
        assert_eq!(inner.get(0, 0), 23.0);
        assert_eq!(inner.get(1, 1), 34.0);
        assert_eq!(inner.ld(), 6, "leading dimension survives nesting");
    }

    #[test]
    fn empty_views_are_legal() {
        let m: Matrix = Matrix::zeros(4, 4);
        let v = m.view();
        let e1 = v.submatrix(2, 2, 0, 2);
        let e2 = v.submatrix(0, 4, 4, 0);
        assert!(e1.is_empty() && e2.is_empty());
        assert_eq!(e1.rows(), 0);
        assert_eq!(e2.cols(), 0);
        assert_eq!(e1.max_abs(), 0.0);
    }

    #[test]
    fn split_at_extremes() {
        let mut m = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        // Split at 0 and at the full extent: one side empty, both valid.
        let (top, bot) = m.view_mut().split_at_row_mut(0);
        assert_eq!(top.rows(), 0);
        assert_eq!(bot.rows(), 3);
        let (l, r) = m.view_mut().split_at_col_mut(3);
        assert_eq!(l.cols(), 3);
        assert_eq!(r.cols(), 0);
    }

    #[test]
    fn from_slice_respects_leading_dimension() {
        // A 2x2 window with ld = 3 over a flat buffer of a 3x3 matrix.
        let data: Vec<f64> = (0..9).map(|x| x as f64).collect(); // col-major 3x3
        let v = super::MatView::from_slice(&data, 2, 2, 3);
        assert_eq!(v.get(0, 0), 0.0);
        assert_eq!(v.get(1, 0), 1.0);
        assert_eq!(v.get(0, 1), 3.0);
        assert_eq!(v.get(1, 1), 4.0);
    }

    #[test]
    fn to_matrix_copies_out_of_strided_view() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let sub = m.view().submatrix(1, 1, 2, 3).to_matrix();
        assert_eq!(sub.rows(), 2);
        assert_eq!(sub.cols(), 3);
        assert_eq!(sub[(0, 0)], m[(1, 1)]);
        assert_eq!(sub[(1, 2)], m[(2, 3)]);
    }
}
