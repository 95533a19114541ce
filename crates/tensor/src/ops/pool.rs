//! Pooling layers (§2.1.2).

use super::{Buffers, Fresh};
use crate::shape::conv_out_shape;
#[cfg(test)]
use crate::shape::Shape;
use crate::tensor::Tensor;

/// How a pooling window reduces: `fold` over the window's taps from
/// `start`, in `(ry, rx)` order, a padding tap reading `pad`, then
/// `finish` on the result.
struct Reduce<F, G> {
    start: f32,
    pad: f32,
    fold: F,
    finish: G,
}

/// Pools each window straight from the input rows into the output buffer
/// from `bufs`.
fn pool2d(
    input: &Tensor,
    window: usize,
    stride: usize,
    pad: usize,
    r: Reduce<impl Fn(f32, f32) -> f32, impl Fn(f32) -> f32>,
    bufs: &mut dyn Buffers,
) -> Tensor {
    assert_eq!(input.shape().rank(), 3, "pool input must be CHW");
    let (c, h1, w1) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
    );
    let out_shape = conv_out_shape(input.shape(), c, window, stride, pad);
    let (h2, w2) = (out_shape.dim(1), out_shape.dim(2));
    let mut out = bufs.zeroed(c * h2 * w2);
    // The input coordinate of window offset `r` from output position `o`,
    // if it is not padding.
    let at = |o: usize, r: usize, n: usize| (stride * o + r).checked_sub(pad).filter(|&i| i < n);
    for (ch, plane) in out.chunks_exact_mut(h2 * w2).enumerate() {
        let iplane = &input.data()[ch * h1 * w1..(ch + 1) * h1 * w1];
        for (yy, orow) in plane.chunks_exact_mut(w2).enumerate() {
            for (xx, o) in orow.iter_mut().enumerate() {
                let mut acc = r.start;
                for ry in 0..window {
                    let row = at(yy, ry, h1).map(|iy| &iplane[iy * w1..(iy + 1) * w1]);
                    for rx in 0..window {
                        let v = match (row, at(xx, rx, w1)) {
                            (Some(row), Some(ix)) => row[ix],
                            _ => r.pad,
                        };
                        acc = (r.fold)(acc, v);
                    }
                }
                *o = (r.finish)(acc);
            }
        }
    }
    Tensor::from_vec(out_shape, out)
}

/// Max pooling over an `F x F` window.
pub fn maxpool2d(input: &Tensor, window: usize, stride: usize, pad: usize) -> Tensor {
    maxpool2d_with(input, window, stride, pad, &mut Fresh)
}

/// [`maxpool2d`] into an output buffer from `bufs`. Padding reads
/// `-inf`, so it never wins.
pub(crate) fn maxpool2d_with(
    input: &Tensor,
    window: usize,
    stride: usize,
    pad: usize,
    bufs: &mut dyn Buffers,
) -> Tensor {
    let r = Reduce {
        start: f32::NEG_INFINITY,
        pad: f32::NEG_INFINITY,
        fold: f32::max,
        finish: |m| m,
    };
    pool2d(input, window, stride, pad, r, bufs)
}

/// Average pooling over an `F x F` window. Padding contributes zeros to the
/// average with the full window size as the divisor (TVM's
/// `count_include_pad` default for the networks under study).
pub fn avgpool2d(input: &Tensor, window: usize, stride: usize, pad: usize) -> Tensor {
    avgpool2d_with(input, window, stride, pad, &mut Fresh)
}

/// [`avgpool2d`] into an output buffer from `bufs`. The sum starts from
/// -0.0, as `Iterator::sum` over floats does, so a window of -0.0 values
/// averages to -0.0.
pub(crate) fn avgpool2d_with(
    input: &Tensor,
    window: usize,
    stride: usize,
    pad: usize,
    bufs: &mut dyn Buffers,
) -> Tensor {
    let taps = (window * window) as f32;
    let r = Reduce {
        start: -0.0,
        pad: 0.0,
        fold: |a: f32, b: f32| a + b,
        finish: |sum| sum / taps,
    };
    pool2d(input, window, stride, pad, r, bufs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_2x2_stride2() {
        let input = Tensor::from_vec(Shape::chw(1, 4, 4), (0..16).map(|v| v as f32).collect());
        let y = maxpool2d(&input, 2, 2, 0);
        assert_eq!(y.shape(), &Shape::chw(1, 2, 2));
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avgpool_full_window_is_mean() {
        let input = Tensor::from_vec(Shape::chw(1, 2, 2), vec![1., 2., 3., 4.]);
        let y = avgpool2d(&input, 2, 1, 0);
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn maxpool_with_padding_sees_interior_values() {
        // Negative interior; padding is -inf for max so it never wins.
        let input = Tensor::full(Shape::chw(1, 2, 2), -1.0);
        let y = maxpool2d(&input, 3, 2, 1);
        assert_eq!(y.shape(), &Shape::chw(1, 1, 1));
        assert_eq!(y.data(), &[-1.0]);
    }

    #[test]
    fn pool_preserves_channel_independence() {
        let mut input = Tensor::zeros(Shape::chw(2, 2, 2));
        input.set(&[0, 0, 0], 5.0);
        input.set(&[1, 1, 1], 9.0);
        let y = maxpool2d(&input, 2, 2, 0);
        assert_eq!(y.data(), &[5.0, 9.0]);
    }

    #[test]
    fn mobilenet_global_avgpool_shape() {
        // MobileNet pool (Table 2.2): 1024x7x7 -> 1024x1x1 with 7x7 s1.
        let input = Tensor::random(Shape::chw(8, 7, 7), 5, 1.0);
        let y = avgpool2d(&input, 7, 1, 0);
        assert_eq!(y.shape(), &Shape::chw(8, 1, 1));
    }
}
