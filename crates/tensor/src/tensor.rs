//! The dense row-major `f32` tensor.

use crate::gemm::{gemm, Dest, Mat, MR, NR};
use crate::rng::Rng64;
use crate::shape::{Shape, ShapeError};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// Rows of the left operand [`Tensor::matmul_transb`] transposes at a time,
/// which bounds its scratch to `k × 64` values.
const TRANSB_BLOCK_ROWS: usize = 64;

/// A dense, row-major tensor of `f32` values.
///
/// `Tensor` is the single numeric container shared by the training engine,
/// the selection algorithms, and the quantizer. Most methods panic on shape
/// mismatch (training code treats that as a programming error); fallible
/// `try_*` variants exist where callers may want to recover.
///
/// ```
/// use nessa_tensor::Tensor;
///
/// let x = Tensor::zeros(&[2, 3]);
/// assert_eq!(x.shape().dims(), &[2, 3]);
/// assert_eq!(x.numel(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.numel()];
        Self { shape, data }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.numel()];
        Self { shape, data }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {:?}",
            data.len(),
            dims
        );
        Self { shape, data }
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self::from_vec(data.to_vec(), &[data.len()])
    }

    /// Creates a tensor with entries drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut Rng64) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.numel()).map(|_| rng.uniform(lo, hi)).collect();
        Self { shape, data }
    }

    /// Creates a tensor with entries drawn from `N(mean, std^2)`.
    pub fn randn(dims: &[usize], mean: f32, std: f32, rng: &mut Rng64) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.numel()).map(|_| rng.normal(mean, std)).collect();
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Size of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a valid dimension.
    pub fn dim(&self, i: usize) -> usize {
        self.shape.dim(i)
    }

    /// Read-only view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        let off = self.shape.offset(index).expect("index out of bounds");
        self.data[off]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index).expect("index out of bounds");
        self.data[off] = value;
    }

    /// Returns a reshaped copy sharing the same element order.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::BadReshape`] if the element counts differ.
    pub fn try_reshape(&self, dims: &[usize]) -> Result<Tensor, ShapeError> {
        let to = Shape::new(dims);
        if to.numel() != self.numel() {
            return Err(ShapeError::BadReshape {
                from: self.shape.dims().to_vec(),
                to: dims.to_vec(),
            });
        }
        Ok(Tensor {
            shape: to,
            data: self.data.clone(),
        })
    }

    /// Returns a reshaped copy.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ; see [`Tensor::try_reshape`].
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        self.try_reshape(dims).expect("invalid reshape")
    }

    /// Row `r` of a 2-D tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() requires a 2-D tensor");
        let cols = self.dim(1);
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row `r` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.ndim(), 2, "row_mut() requires a 2-D tensor");
        let cols = self.dim(1);
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Gathers the given rows of a 2-D tensor into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or any row index is out of bounds.
    pub fn gather_rows(&self, rows: &[usize]) -> Tensor {
        assert_eq!(self.ndim(), 2, "gather_rows() requires a 2-D tensor");
        let cols = self.dim(1);
        let mut out = Vec::with_capacity(rows.len() * cols);
        for &r in rows {
            out.extend_from_slice(self.row(r));
        }
        Tensor::from_vec(out, &[rows.len(), cols])
    }

    /// Matrix product of two 2-D tensors: `self (m×k) · other (k×n)`.
    ///
    /// Serves the linear layers' input gradient `dx = g · W`. Like every
    /// entry point of the tiled kernel, each output sums `a·b` over k in
    /// sequential order from `0.0`, with no FMA and no zero-skip.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (other.dim(0), other.dim(1));
        assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        let mut dest = Dest {
            data: &mut out,
            stride: n,
            transposed: false,
        };
        gemm::<MR, NR>(self.mat(), other.mat(), m, n, k, &mut dest);
        Tensor::from_vec(out, &[m, n])
    }

    /// `self (m×k) · otherᵀ` where `other` is `n×k`.
    ///
    /// Serves the linear layers' forward pass (with `other` the weight),
    /// the selection proxy forward, `evaluate`, and the distance kernels in
    /// [`crate::linalg`]. It computes `outᵀ = other · selfᵀ`: the rows of
    /// `other` are the broadcast operand, read in place, and only blocks of
    /// at most 64 rows of `self` are transposed so that the tile streams
    /// along them. Each output sums `a·b` over k in sequential order from
    /// `0.0`, with no FMA and no zero-skip.
    ///
    /// # Panics
    ///
    /// Panics on rank or inner-dimension mismatch.
    pub fn matmul_transb(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_transb lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_transb rhs must be 2-D");
        let (m, k) = (self.dim(0), self.dim(1));
        let (n, k2) = (other.dim(0), other.dim(1));
        assert_eq!(k, k2, "matmul_transb inner dimensions differ: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        let mut block = vec![0.0f32; k * m.min(TRANSB_BLOCK_ROWS)];
        for i0 in (0..m).step_by(TRANSB_BLOCK_ROWS) {
            let rows = TRANSB_BLOCK_ROWS.min(m - i0);
            let block = transpose_into(&self.data[i0 * k..(i0 + rows) * k], rows, k, &mut block);
            let mut dest = Dest {
                data: &mut out[i0 * n..],
                stride: n,
                transposed: true,
            };
            gemm::<MR, NR>(other.mat(), block, n, rows, k, &mut dest);
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// `selfᵀ (k×m) · other (k×n)` producing `m×n`.
    ///
    /// See [`Tensor::add_matmul_transa`], which adds the same product into
    /// an existing tensor.
    ///
    /// # Panics
    ///
    /// Panics on rank or leading-dimension mismatch.
    pub fn matmul_transa(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_transa lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_transa rhs must be 2-D");
        let mut out = Tensor::zeros(&[self.dim(1), other.dim(1)]);
        out.add_matmul_transa(self, other);
        out
    }

    /// `self += aᵀ (k×m) · b (k×n)`, where `self` is `m×n`.
    ///
    /// Serves the linear layers' weight gradient `dW += gᵀ · x`. Each
    /// product entry sums `a·b` over k in sequential order from `0.0`, with
    /// no FMA and no zero-skip, and is then added to `self` once, so the
    /// result is bit-identical to `*self += &a.matmul_transa(b)` without
    /// the temporary.
    ///
    /// # Panics
    ///
    /// Panics on rank or leading-dimension mismatch, or if `self` is not
    /// `m×n`.
    pub fn add_matmul_transa(&mut self, a: &Tensor, b: &Tensor) {
        assert_eq!(a.ndim(), 2, "matmul_transa lhs must be 2-D");
        assert_eq!(b.ndim(), 2, "matmul_transa rhs must be 2-D");
        let (k, m) = (a.dim(0), a.dim(1));
        let (k2, n) = (b.dim(0), b.dim(1));
        assert_eq!(
            k, k2,
            "matmul_transa leading dimensions differ: {k} vs {k2}"
        );
        assert_eq!(
            self.shape.dims(),
            &[m, n],
            "add_matmul_transa destination must be {m}x{n}"
        );
        let mut at = vec![0.0f32; m * k];
        let at = transpose_into(&a.data, k, m, &mut at);
        let mut dest = Dest {
            data: &mut self.data,
            stride: n,
            transposed: false,
        };
        gemm::<MR, NR>(at, b.mat(), m, n, k, &mut dest);
    }

    /// A 2-D tensor's buffer as a [`Mat`] with the same rows.
    fn mat(&self) -> Mat<'_> {
        Mat {
            data: &self.data,
            stride: self.dim(1),
        }
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.ndim(), 2, "transpose requires a 2-D tensor");
        let (m, n) = (self.dim(0), self.dim(1));
        let mut out = vec![0.0f32; m * n];
        transpose_into(&self.data, m, n, &mut out);
        Tensor::from_vec(out, &[n, m])
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise binary operation with shape checking.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::Mismatch`] when the shapes differ.
    pub fn try_zip(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::Mismatch {
                op,
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (`0.0` for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (`-inf` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (`+inf` for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first occurrence; `0` when empty).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Dot product of two same-shape tensors viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.numel(),
            other.numel(),
            "dot requires equal element counts"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// `self += alpha * other`, the in-place AXPY used by the optimizer.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy requires matching shapes");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns a copy scaled by `s`.
    pub fn scaled(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// True when every element is finite (no NaN/inf) — used by training
    /// sanity checks and failure-injection tests.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// Writes the transpose of the row-major `rows × cols` matrix `src` into
/// the front of `buf` and returns it as a `cols × rows` [`Mat`].
fn transpose_into<'a>(src: &[f32], rows: usize, cols: usize, buf: &'a mut [f32]) -> Mat<'a> {
    for (i, src_row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (p, &v) in src_row.iter().enumerate() {
            buf[p * rows + i] = v;
        }
    }
    Mat {
        data: &buf[..rows * cols],
        stride: rows,
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;

    fn add(self, rhs: &Tensor) -> Tensor {
        self.try_zip(rhs, "add", |a, b| a + b)
            .expect("add shape mismatch")
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;

    fn sub(self, rhs: &Tensor) -> Tensor {
        self.try_zip(rhs, "sub", |a, b| a - b)
            .expect("sub shape mismatch")
    }
}

impl Mul<&Tensor> for &Tensor {
    type Output = Tensor;

    fn mul(self, rhs: &Tensor) -> Tensor {
        self.try_zip(rhs, "mul", |a, b| a * b)
            .expect("mul shape mismatch")
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.axpy(1.0, rhs);
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}, ", self.shape)?;
        if self.numel() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(
                f,
                "data=[{:.4}, {:.4}, ... ; n={}])",
                self.data[0],
                self.data[1],
                self.numel()
            )
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use proptest::prelude::*;

    /// One sequential dot per output: `Σ_p a(i, p) · b(p, j)` from `0.0`,
    /// `p` ascending, no FMA and no zero-skip. The bit-exactness oracle of
    /// every matmul entry point; `a_at` and `b_at` give each entry point's
    /// operand layout.
    fn sequential_dots(
        m: usize,
        n: usize,
        k: usize,
        a_at: impl Fn(usize, usize) -> f32,
        b_at: impl Fn(usize, usize) -> f32,
    ) -> Tensor {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a_at(i, p) * b_at(p, j);
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// `a (m×k) · b (k×n)`.
    fn matmul_oracle(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.dim(0), a.dim(1), b.dim(1));
        sequential_dots(m, n, k, |i, p| a.data[i * k + p], |p, j| b.data[p * n + j])
    }

    /// `aᵀ · b` for `a (k×m)`, `b (k×n)`.
    fn matmul_transa_oracle(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, m, n) = (a.dim(0), a.dim(1), b.dim(1));
        sequential_dots(m, n, k, |i, p| a.data[p * m + i], |p, j| b.data[p * n + j])
    }

    /// `a · bᵀ` for `a (m×k)`, `b (n×k)`.
    fn matmul_transb_oracle(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.dim(0), a.dim(1), b.dim(0));
        sequential_dots(m, n, k, |i, p| a.data[i * k + p], |p, j| b.data[j * k + p])
    }

    /// `dest + aᵀ · b`, one add per element after the sum.
    fn add_matmul_transa_oracle(dest: &Tensor, a: &Tensor, b: &Tensor) -> Tensor {
        dest + &matmul_transa_oracle(a, b)
    }

    /// Row counts the bit-exactness properties draw from: empty, single,
    /// the tile sizes (4, 8) and their neighbours, one past the 64-row
    /// transpose block, and the production chunk size.
    const ROWS: [usize; 9] = [0, 1, 2, 4, 7, 8, 33, 65, 100];
    /// Inner widths, including the degenerate empty one and the 32- and
    /// 96-wide production features.
    const WIDTHS: [usize; 6] = [0, 1, 3, 10, 32, 96];

    /// A `rows × width` tensor mixing the inputs that expose rounding
    /// differences: dense normal rows, duplicates of earlier rows,
    /// signed-zero rows, and rows of subnormal values of either sign.
    fn tricky_rows(rows: usize, width: usize, seed: u64) -> Tensor {
        let mut rng = Rng64::new(seed);
        let mut data = Vec::with_capacity(rows * width);
        for r in 0..rows {
            match rng.index(5) {
                0 if r > 0 => {
                    let src = rng.index(r);
                    data.extend_from_within(src * width..(src + 1) * width);
                }
                1 => data.extend((0..width).map(|_| if rng.coin(0.5) { 0.0 } else { -0.0 })),
                2 => data.extend((0..width).map(|_| rng.uniform(-1.0, 1.0) * 1e-38)),
                _ => data.extend((0..width).map(|_| rng.normal(0.0, 3.0))),
            }
        }
        Tensor::from_vec(data, &[rows, width])
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn matmul_transb_is_bit_identical_to_sequential_dots(
            m in 0usize..ROWS.len(),
            n in 0usize..ROWS.len(),
            k in 0usize..WIDTHS.len(),
            seed in any::<u64>(),
        ) {
            let a = tricky_rows(ROWS[m], WIDTHS[k], seed);
            let b = tricky_rows(ROWS[n], WIDTHS[k], seed ^ 0x9e37);
            let fast = a.matmul_transb(&b);
            prop_assert_eq!(fast.shape().dims(), &[ROWS[m], ROWS[n]]);
            prop_assert_eq!(bits(&fast), bits(&matmul_transb_oracle(&a, &b)));
            // The self-Gram is what the distance kernels build.
            prop_assert_eq!(bits(&a.matmul_transb(&a)), bits(&matmul_transb_oracle(&a, &a)));
        }

        #[test]
        fn matmul_is_bit_identical_to_sequential_dots(
            m in 0usize..ROWS.len(),
            n in 0usize..ROWS.len(),
            k in 0usize..WIDTHS.len(),
            seed in any::<u64>(),
        ) {
            let a = tricky_rows(ROWS[m], WIDTHS[k], seed);
            let b = tricky_rows(WIDTHS[k], ROWS[n], seed ^ 0x51ed);
            let fast = a.matmul(&b);
            prop_assert_eq!(fast.shape().dims(), &[ROWS[m], ROWS[n]]);
            prop_assert_eq!(bits(&fast), bits(&matmul_oracle(&a, &b)));
        }

        #[test]
        fn matmul_transa_and_its_fused_accumulate_are_bit_identical_to_sequential_dots(
            m in 0usize..ROWS.len(),
            n in 0usize..ROWS.len(),
            k in 0usize..ROWS.len(),
            seed in any::<u64>(),
        ) {
            // k is the batch axis here, so it draws from the row counts.
            let a = tricky_rows(ROWS[k], ROWS[m], seed);
            let b = tricky_rows(ROWS[k], ROWS[n], seed ^ 0x2545);
            let fast = a.matmul_transa(&b);
            prop_assert_eq!(fast.shape().dims(), &[ROWS[m], ROWS[n]]);
            prop_assert_eq!(bits(&fast), bits(&matmul_transa_oracle(&a, &b)));
            let mut grad = tricky_rows(ROWS[m], ROWS[n], seed ^ 0x7f4a);
            let expect = add_matmul_transa_oracle(&grad, &a, &b);
            grad.add_matmul_transa(&a, &b);
            prop_assert_eq!(bits(&grad), bits(&expect));
        }
    }

    #[test]
    fn every_entry_point_is_bit_identical_at_production_shapes() {
        let mut rng = Rng64::new(17);
        // The wide MLP's 256×256 layer at batch 16, ReLU-sparse input.
        let x = Tensor::randn(&[16, 256], 0.0, 1.0, &mut rng).map(|v| v.max(0.0));
        let w = Tensor::randn(&[256, 256], 0.0, 0.09, &mut rng);
        let g = Tensor::randn(&[16, 256], 0.0, 0.01, &mut rng);
        assert_eq!(
            bits(&x.matmul_transb(&w)),
            bits(&matmul_transb_oracle(&x, &w))
        );
        assert_eq!(bits(&g.matmul(&w)), bits(&matmul_oracle(&g, &w)));
        let mut grad = Tensor::randn(&[256, 256], 0.0, 0.01, &mut rng);
        let expect = add_matmul_transa_oracle(&grad, &g, &x);
        grad.add_matmul_transa(&g, &x);
        assert_eq!(bits(&grad), bits(&expect));
        // The select_heavy proxy's last layer over a 100-row chunk, and
        // the 100×32 self-product of the distance kernels.
        let acts = Tensor::randn(&[100, 96], 0.0, 1.0, &mut rng);
        let head = Tensor::randn(&[10, 96], 0.0, 0.1, &mut rng);
        assert_eq!(
            bits(&acts.matmul_transb(&head)),
            bits(&matmul_transb_oracle(&acts, &head))
        );
        let points = Tensor::randn(&[100, 32], 0.0, 1.0, &mut rng);
        assert_eq!(
            bits(&points.matmul_transb(&points)),
            bits(&matmul_transb_oracle(&points, &points))
        );
    }

    #[test]
    fn matmul_transb_propagates_zero_times_inf() {
        // Skipping zero multipliers would hide 0·inf = NaN.
        let a = Tensor::from_vec(vec![-0.0, 0.0, 1.0, 0.0], &[2, 2]);
        let b = Tensor::from_vec(vec![1.0, 1.0, -1.0, f32::INFINITY], &[2, 2]);
        let fast = a.matmul_transb(&b);
        assert_eq!(bits(&fast), bits(&matmul_transb_oracle(&a, &b)));
        assert!(fast.as_slice()[1].is_nan());
        // With the operands swapped the zeros sit in the broadcast operand.
        let swapped = b.matmul_transb(&a);
        assert_eq!(bits(&swapped), bits(&matmul_transb_oracle(&b, &a)));
        assert!(swapped.as_slice()[2].is_nan());
    }

    #[test]
    fn matmul_propagates_zero_times_inf() {
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
        let b = Tensor::from_vec(vec![f32::INFINITY, 2.0, 1.0, 3.0], &[2, 2]);
        let fast = a.matmul(&b);
        assert_eq!(bits(&fast), bits(&matmul_oracle(&a, &b)));
        assert!(fast.as_slice()[0].is_nan());
        assert_eq!(fast.as_slice()[1], 3.0);
    }

    #[test]
    fn matmul_transa_propagates_zero_times_inf() {
        let a = Tensor::from_vec(vec![-0.0, 1.0], &[2, 1]);
        let b = Tensor::from_vec(vec![f32::INFINITY, 2.0, 1.0, 3.0], &[2, 2]);
        let fast = a.matmul_transa(&b);
        assert_eq!(bits(&fast), bits(&matmul_transa_oracle(&a, &b)));
        assert!(fast.as_slice()[0].is_nan());
        assert_eq!(fast.as_slice()[1], 3.0);
    }

    #[test]
    fn add_matmul_transa_propagates_zero_times_inf() {
        let a = Tensor::from_vec(vec![0.0, 1.0], &[2, 1]);
        let b = Tensor::from_vec(vec![1.0, f32::INFINITY, 1.0, 3.0], &[2, 2]);
        let mut grad = Tensor::from_vec(vec![0.5, 0.5], &[1, 2]);
        let expect = add_matmul_transa_oracle(&grad, &a, &b);
        grad.add_matmul_transa(&a, &b);
        assert_eq!(bits(&grad), bits(&expect));
        assert_eq!(grad.as_slice()[0], 1.5);
        assert!(grad.as_slice()[1].is_nan());
    }

    #[test]
    #[should_panic(expected = "destination must be 2x3")]
    fn add_matmul_transa_rejects_a_misshaped_destination() {
        let mut grad = Tensor::zeros(&[3, 2]);
        grad.add_matmul_transa(&Tensor::zeros(&[4, 2]), &Tensor::zeros(&[4, 3]));
    }

    #[test]
    fn construction_basics() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(&[4]);
        assert_eq!(o.sum(), 4.0);
        let f = Tensor::full(&[2, 2], 2.5);
        assert_eq!(f.mean(), 2.5);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_len() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let mut rng = Rng64::new(7);
        let a = Tensor::rand_uniform(&[3, 3], -1.0, 1.0, &mut rng);
        let i = Tensor::eye(3);
        let prod = a.matmul(&i);
        for (x, y) in prod.as_slice().iter().zip(a.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let mut rng = Rng64::new(3);
        let a = Tensor::rand_uniform(&[4, 5], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[6, 5], -1.0, 1.0, &mut rng);
        let fast = a.matmul_transb(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_transa_matches_explicit_transpose() {
        let mut rng = Rng64::new(4);
        let a = Tensor::rand_uniform(&[5, 4], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[5, 6], -1.0, 1.0, &mut rng);
        let fast = a.matmul_transa(&b);
        let slow = a.transpose().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_rejects_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng64::new(11);
        let a = Tensor::rand_uniform(&[3, 7], -1.0, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let b = a.reshape(&[2, 6]);
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(a.try_reshape(&[5, 5]).is_err());
    }

    #[test]
    fn gather_rows_selects() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.shape().dims(), &[2, 3]);
        assert_eq!(g.row(0), &[6.0, 7.0, 8.0]);
        assert_eq!(g.row(1), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.argmax(), 2);
        assert!((a.norm() - (14.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn axpy_and_operators() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
        let c = &a + &b;
        assert_eq!(c.as_slice(), &[16.0, 32.0]);
        let d = &c - &b;
        assert_eq!(d.as_slice(), a.as_slice());
        let e = &a * &b;
        assert_eq!(e.as_slice(), &[60.0, 240.0]);
    }

    #[test]
    fn at_and_set_round_trip() {
        let mut a = Tensor::zeros(&[2, 3, 4]);
        a.set(&[1, 2, 3], 42.0);
        assert_eq!(a.at(&[1, 2, 3]), 42.0);
        assert_eq!(a.at(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn randn_has_plausible_moments() {
        let mut rng = Rng64::new(5);
        let a = Tensor::randn(&[10_000], 1.0, 2.0, &mut rng);
        let m = a.mean();
        let var = a.as_slice().iter().map(|x| (x - m) * (x - m)).sum::<f32>() / 10_000.0;
        assert!((m - 1.0).abs() < 0.1, "mean {m}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut a = Tensor::ones(&[3]);
        assert!(a.is_finite());
        a.as_mut_slice()[1] = f32::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Tensor::zeros(&[2])).is_empty());
        assert!(!format!("{:?}", Tensor::zeros(&[100])).is_empty());
    }
}
