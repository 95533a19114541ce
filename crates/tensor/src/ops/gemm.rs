//! im2col + GEMM convolution — the lowering used by CPU/GPU frameworks
//! (and by TVM's x86 schedules) that the thesis' CPU baselines run on.
//!
//! Providing it here gives the host executor a second, independent
//! convolution algorithm: the direct implementation and the GEMM lowering
//! cross-check each other (unit + property tests), and the Criterion benches
//! compare their host performance the way the TF/TVM baselines would.

use super::conv::ConvArgs;
use crate::shape::{conv_out_shape, Shape};
use crate::tensor::Tensor;

/// Dense row-major matrix multiply `C[m x n] = A[m x k] * B[k x n]`,
/// parallel over rows of `A`.
///
/// # Panics
/// Panics on dimension mismatches.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.shape().rank(), 2, "matmul rhs must be 2-D");
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
    let out = gemm(a.data(), b.data(), m, n, |_, _| {});
    Tensor::from_vec(Shape::d2(m, n), out)
}

/// `A[m x k] * B[k x n]` over row-major slices, with `k` implied by
/// `a.len() / m`, parallel over rows of `A`. Each finished output row `i`
/// is handed to `epilogue(i, row)` on the thread that computed it.
fn gemm(
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    epilogue: impl Fn(usize, &mut [f32]) + Sync,
) -> Vec<f32> {
    let k = a.len().checked_div(m).unwrap_or(0);
    let mut out = vec![0.0f32; m * n];
    crate::par::for_each_chunk_mut(&mut out, n, |i, row| {
        let arow = &a[i * k..(i + 1) * k];
        // k-outer accumulation keeps the inner loop contiguous over B.
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (r, &bv) in row.iter_mut().zip(brow) {
                *r += av * bv;
            }
        }
        epilogue(i, row);
    });
    out
}

/// Unfolds a CHW input into the im2col matrix `[C1*F*F, H2*W2]`: column
/// `(yy, xx)` holds the receptive field of output position `(yy, xx)`.
///
/// # Panics
/// Panics if the input is not CHW.
pub fn im2col(input: &Tensor, f: usize, stride: usize, pad: usize) -> Tensor {
    assert_eq!(input.shape().rank(), 3, "im2col input must be CHW");
    let (c1, h1, w1) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
    );
    let out = conv_out_shape(input.shape(), c1, f, stride, pad);
    let (h2, w2) = (out.dim(1), out.dim(2));
    let rows = c1 * f * f;
    let cols = h2 * w2;
    let idata = input.data();
    let mut m = vec![0.0f32; rows * cols];
    crate::par::for_each_chunk_mut(&mut m, cols, |row, dst| {
        let rc = row / (f * f);
        let ry = (row / f) % f;
        let rx = row % f;
        for yy in 0..h2 {
            let iy = (stride * yy + ry) as isize - pad as isize;
            if iy < 0 || iy >= h1 as isize {
                continue;
            }
            for xx in 0..w2 {
                let ix = (stride * xx + rx) as isize - pad as isize;
                if ix < 0 || ix >= w1 as isize {
                    continue;
                }
                dst[yy * w2 + xx] = idata[rc * h1 * w1 + iy as usize * w1 + ix as usize];
            }
        }
    });
    Tensor::from_vec(Shape::d2(rows, cols), m)
}

/// Convolution via im2col + GEMM: computes exactly what
/// [`super::conv::conv2d`] computes (up to float reassociation).
///
/// The row-major `[K, C1, F, F]` weights already are the `[K, C1*F*F]` GEMM
/// operand, and a 1×1, stride-1, unpadded convolution's im2col matrix is
/// its CHW input, so neither is copied. The fused epilogue runs on each
/// output row as the GEMM finishes it.
///
/// # Panics
/// Panics on shape mismatches.
pub fn conv2d_im2col<'a>(input: &Tensor, weights: &Tensor, p: impl Into<ConvArgs<'a>>) -> Tensor {
    let p = p.into();
    assert_eq!(weights.shape().rank(), 4, "weights must be KCFF");
    let k = weights.shape().dim(0);
    let c1 = weights.shape().dim(1);
    let f = weights.shape().dim(2);
    assert_eq!(
        input.shape().dim(0),
        c1,
        "input channel mismatch with weights"
    );
    let out_shape = conv_out_shape(input.shape(), k, f, p.stride, p.pad);
    let plane = out_shape.dim(1) * out_shape.dim(2);
    let epilogue = |kk: usize, row: &mut [f32]| {
        for v in row {
            *v = p.epilogue(kk, *v);
        }
    };
    let data = if f == 1 && p.stride == 1 && p.pad == 0 {
        gemm(weights.data(), input.data(), k, plane, epilogue)
    } else {
        let cols = im2col(input, f, p.stride, p.pad);
        gemm(weights.data(), cols.data(), k, plane, epilogue)
    };
    Tensor::from_vec(out_shape, data)
}

/// Picks the faster convolution algorithm for the given shape: im2col+GEMM
/// for reduction-heavy convolutions (its inner loops are contiguous), the
/// direct implementation for small reductions where the unfold overhead
/// dominates. Both compute the same function (property-tested); results may
/// differ by float reassociation only.
pub fn conv2d_auto<'a>(input: &Tensor, weights: &Tensor, p: impl Into<ConvArgs<'a>>) -> Tensor {
    let c1 = weights.shape().dim(1);
    let f = weights.shape().dim(2);
    if c1 * f * f >= 8 {
        conv2d_im2col(input, weights, p)
    } else {
        super::conv::conv2d(input, weights, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{conv2d, Activation, Conv2dParams};

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &i).data(), a.data());
        assert_eq!(matmul(&i, &a).data(), a.data());
    }

    #[test]
    fn matmul_rectangular() {
        // [1 2 3] * [[1],[2],[3]] = [14]
        let a = Tensor::from_vec(Shape::d2(1, 3), vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(Shape::d2(3, 1), vec![1.0, 2.0, 3.0]);
        assert_eq!(matmul(&a, &b).data(), &[14.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_mismatch() {
        matmul(
            &Tensor::zeros(Shape::d2(2, 3)),
            &Tensor::zeros(Shape::d2(2, 3)),
        );
    }

    #[test]
    fn im2col_shape_and_content() {
        // 1x3x3 input 1..9, f=2, s=1: 4x4 matrix.
        let input = Tensor::from_vec(Shape::chw(1, 3, 3), (1..=9).map(|v| v as f32).collect());
        let m = im2col(&input, 2, 1, 0);
        assert_eq!(m.shape(), &Shape::d2(4, 4));
        // Row 0 = top-left elements of each window: 1, 2, 4, 5.
        assert_eq!(&m.data()[..4], &[1.0, 2.0, 4.0, 5.0]);
        // Row 3 = bottom-right elements: 5, 6, 8, 9.
        assert_eq!(&m.data()[12..], &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_conv_matches_direct_plain() {
        let input = Tensor::random(Shape::chw(4, 9, 9), 1, 1.0);
        let w = Tensor::random(Shape::kcff(6, 4, 3), 2, 0.5);
        let p = Conv2dParams::plain(1, 0);
        let direct = conv2d(&input, &w, &p);
        let gemm = conv2d_im2col(&input, &w, &p);
        assert!(crate::allclose(&gemm, &direct, 1e-4, 1e-5));
    }

    #[test]
    fn im2col_conv_matches_direct_with_stride_pad_epilogue() {
        let input = Tensor::random(Shape::chw(3, 11, 11), 3, 1.0);
        let w = Tensor::random(Shape::kcff(5, 3, 3), 4, 0.5);
        let p = Conv2dParams {
            stride: 2,
            pad: 1,
            bias: Some((0..5).map(|i| i as f32 * 0.1).collect()),
            bn: Some((
                (0..5).map(|i| 1.0 + 0.05 * i as f32).collect(),
                vec![0.2; 5],
            )),
            activation: Activation::Relu,
        };
        let direct = conv2d(&input, &w, &p);
        let gemm = conv2d_im2col(&input, &w, &p);
        assert!(crate::allclose(&gemm, &direct, 1e-4, 1e-5));
    }

    #[test]
    fn one_by_one_conv_is_pure_gemm() {
        let input = Tensor::random(Shape::chw(8, 6, 6), 5, 1.0);
        let w = Tensor::random(Shape::kcff(4, 8, 1), 6, 0.5);
        let p = Conv2dParams::plain(1, 0);
        let direct = conv2d(&input, &w, &p);
        let gemm = conv2d_im2col(&input, &w, &p);
        assert!(crate::allclose(&gemm, &direct, 1e-4, 1e-5));
    }

    #[test]
    fn one_by_one_path_is_bit_identical_to_matmul_of_im2col() {
        let input = Tensor::random(Shape::chw(16, 9, 7), 7, 1.0);
        let w = Tensor::random(Shape::kcff(12, 16, 1), 8, 0.5);
        let p = Conv2dParams {
            bias: Some((0..12).map(|i| i as f32 * 0.1).collect()),
            activation: Activation::Relu6,
            ..Conv2dParams::plain(1, 0)
        };
        let wmat = Tensor::from_vec(Shape::d2(12, 16), w.data().to_vec());
        let mut expect = matmul(&wmat, &im2col(&input, 1, 1, 0)).into_vec();
        for (kk, plane) in expect.chunks_mut(9 * 7).enumerate() {
            for v in plane {
                *v = p.epilogue(kk, *v);
            }
        }
        let got = conv2d_im2col(&input, &w, &p);
        assert_eq!(got.shape(), &Shape::chw(12, 9, 7));
        assert_eq!(got.data(), &expect[..]);
    }
}
