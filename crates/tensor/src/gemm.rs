//! The one register-tiled matrix-product routine behind
//! [`Tensor::matmul`](crate::Tensor::matmul),
//! [`Tensor::add_matmul_transa`](crate::Tensor::add_matmul_transa) and
//! [`Tensor::matmul_transb`](crate::Tensor::matmul_transb).
//!
//! [`gemm`] adds `Σ_p a[r][p] · b[p][c]` into every output `(r, c)`. Both
//! operands are row-major: `a` is read in place as `R` row slices per tile
//! and broadcast one scalar at a time, and `b` is streamed `C` contiguous
//! values per step of `p`. An `R × C` tile keeps its `R·C` sums in
//! registers until the last `p`.
//!
//! Every sum starts at `0.0` and adds `a·b` over `p` in sequential order,
//! with no FMA, no split accumulators and no zero-skip, so each output
//! rounds exactly as one scalar sequential dot does (DESIGN.md §13). The
//! finished sum is added to the destination once. That add is what lets
//! the weight gradient accumulate without a temporary, and it is exact on
//! a zeroed destination: a sum that starts at `+0.0` is never `-0.0`
//! under round-to-nearest, and `+0.0 + s == s` for every other `s`.

/// Rows of `a` per full tile.
pub(crate) const MR: usize = 4;
/// Contiguous columns of `b` per full tile.
pub(crate) const NR: usize = 8;

/// A row-major matrix: element `(r, c)` is `data[r * stride + c]`.
#[derive(Clone, Copy)]
pub(crate) struct Mat<'a> {
    pub data: &'a [f32],
    pub stride: usize,
}

/// The destination: output `(r, c)` is added into `data[r * stride + c]`,
/// or into `data[c * stride + r]` when `transposed`.
pub(crate) struct Dest<'a> {
    pub data: &'a mut [f32],
    pub stride: usize,
    pub transposed: bool,
}

/// `out(r, c) += Σ_{p < depth} a[r][p] · b[p][c]` for every `r < rows`,
/// `c < cols`, in `R × C` tiles, with single-row and single-column tiles
/// for the tails.
pub(crate) fn gemm<const R: usize, const C: usize>(
    a: Mat,
    b: Mat,
    rows: usize,
    cols: usize,
    depth: usize,
    out: &mut Dest,
) {
    let full_rows = rows - rows % R;
    for r0 in (0..full_rows).step_by(R) {
        tile_band::<R, C>(a, b, r0, cols, depth, out);
    }
    for r0 in full_rows..rows {
        tile_band::<1, C>(a, b, r0, cols, depth, out);
    }
}

/// Rows `r0..r0 + R` of `a` against all `cols` columns of `b`.
fn tile_band<const R: usize, const C: usize>(
    a: Mat,
    b: Mat,
    r0: usize,
    cols: usize,
    depth: usize,
    out: &mut Dest,
) {
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a.data[(r0 + r) * a.stride..][..depth]);
    let full_cols = cols - cols % C;
    for c0 in (0..full_cols).step_by(C) {
        tile::<R, C>(&a_rows, b, r0, c0, depth, out);
    }
    for c0 in full_cols..cols {
        tile::<R, 1>(&a_rows, b, r0, c0, depth, out);
    }
}

/// The `R × C` tile at `(r0, c0)`.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a_rows: &[&[f32]; R],
    b: Mat,
    r0: usize,
    c0: usize,
    depth: usize,
    out: &mut Dest,
) {
    let mut acc = [[0.0f32; C]; R];
    for p in 0..depth {
        let bp = &b.data[p * b.stride + c0..][..C];
        for (acc_r, a_row) in acc.iter_mut().zip(a_rows) {
            let av = a_row[p];
            for (s, &bv) in acc_r.iter_mut().zip(bp) {
                *s += av * bv;
            }
        }
    }
    if out.transposed {
        for c in 0..C {
            let o = &mut out.data[(c0 + c) * out.stride + r0..][..R];
            for (o, acc_r) in o.iter_mut().zip(&acc) {
                *o += acc_r[c];
            }
        }
    } else {
        for (r, acc_r) in acc.iter().enumerate() {
            let o = &mut out.data[(r0 + r) * out.stride + c0..][..C];
            for (o, &s) in o.iter_mut().zip(acc_r) {
                *o += s;
            }
        }
    }
}
