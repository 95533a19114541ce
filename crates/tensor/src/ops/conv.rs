//! Direct 2-D convolution (technically cross-correlation, as the thesis notes
//! §2.1.2) and depthwise convolution, NCHW with N = 1.

use super::activation::Activation;
use super::{Buffers, Fresh};
use crate::shape::conv_out_shape;
#[cfg(test)]
use crate::shape::Shape;
use crate::tensor::Tensor;
use std::ops::Range;

/// Hyper-parameters of a convolution (§2.1.2): stride `S`, zero-padding `P`,
/// and the fused epilogue (bias + activation) the flow attaches after the
/// Relay fusion pass.
#[derive(Clone, Debug, Default)]
pub struct Conv2dParams {
    /// Stride `S` (same in both spatial dims).
    pub stride: usize,
    /// Zero padding `P` (same on all sides).
    pub pad: usize,
    /// Optional per-output-channel bias.
    pub bias: Option<Vec<f32>>,
    /// Optional folded batch norm: per-output-channel `(scale, shift)`.
    pub bn: Option<(Vec<f32>, Vec<f32>)>,
    /// Fused activation.
    pub activation: Activation,
}

impl Conv2dParams {
    /// Plain stride-`s`, pad-`p` convolution with no epilogue.
    pub fn plain(stride: usize, pad: usize) -> Self {
        Conv2dParams {
            stride,
            pad,
            ..Default::default()
        }
    }

    /// Applies the fused epilogue (bias, folded BN, activation) to one output
    /// element of channel `k`.
    #[inline]
    pub fn epilogue(&self, k: usize, acc: f32) -> f32 {
        ConvArgs::from(self).epilogue(k, acc)
    }
}

/// A convolution's stride, padding and fused epilogue, borrowed from where
/// they are kept: a [`Conv2dParams`] or a graph node's own fields. The
/// convolution operators take `impl Into<ConvArgs>`, so a caller passes a
/// `&Conv2dParams` or builds these without copying a parameter vector.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConvArgs<'a> {
    /// Stride `S` (same in both spatial dims).
    pub stride: usize,
    /// Zero padding `P` (same on all sides).
    pub pad: usize,
    /// Optional per-output-channel bias.
    pub bias: Option<&'a [f32]>,
    /// Optional folded batch norm: per-output-channel `(scale, shift)`.
    pub bn: Option<(&'a [f32], &'a [f32])>,
    /// Fused activation.
    pub activation: Activation,
}

impl ConvArgs<'_> {
    /// Applies the fused epilogue (bias, folded BN, activation) to one output
    /// element of channel `k`.
    #[inline]
    pub fn epilogue(&self, k: usize, mut acc: f32) -> f32 {
        if let Some(b) = self.bias {
            acc += b[k];
        }
        if let Some((s, sh)) = self.bn {
            acc = acc * s[k] + sh[k];
        }
        self.activation.apply(acc)
    }
}

impl<'a> From<&'a Conv2dParams> for ConvArgs<'a> {
    fn from(p: &'a Conv2dParams) -> Self {
        ConvArgs {
            stride: p.stride,
            pad: p.pad,
            bias: p.bias.as_deref(),
            bn: p.bn.as_ref().map(|(s, sh)| (&s[..], &sh[..])),
            activation: p.activation,
        }
    }
}

/// Direct convolution: input `[C1, H1, W1]`, weights `[K, C1, F, F]`,
/// output `[K, H2, W2]` per Eq. 2.1 / Listing 2.1.
///
/// Parallelized over output channels ([`crate::par`]), matching the axis
/// TVM's x86 schedule parallelizes (§6.4.2).
///
/// # Panics
/// Panics on rank/shape mismatches.
pub fn conv2d<'a>(input: &Tensor, weights: &Tensor, p: impl Into<ConvArgs<'a>>) -> Tensor {
    conv2d_with(input, weights, p.into(), &mut Fresh)
}

/// [`conv2d`] into an output buffer from `bufs`.
pub(crate) fn conv2d_with(
    input: &Tensor,
    weights: &Tensor,
    p: ConvArgs<'_>,
    bufs: &mut dyn Buffers,
) -> Tensor {
    assert_eq!(input.shape().rank(), 3, "conv2d input must be CHW");
    assert_eq!(weights.shape().rank(), 4, "conv2d weights must be KCFF");
    let (c1, h1, w1) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
    );
    let (k, wc, f, f2) = (
        weights.shape().dim(0),
        weights.shape().dim(1),
        weights.shape().dim(2),
        weights.shape().dim(3),
    );
    assert_eq!(f, f2, "conv2d filters must be square");
    assert_eq!(wc, c1, "conv2d weight input-channel mismatch");
    if let Some(b) = p.bias {
        assert_eq!(b.len(), k, "bias length must equal output channels");
    }
    let out_shape = conv_out_shape(input.shape(), k, f, p.stride, p.pad);
    let (h2, w2) = (out_shape.dim(1), out_shape.dim(2));

    let idata = input.data();
    let wdata = weights.data();

    let mut out = bufs.zeroed(k * h2 * w2);
    crate::par::for_each_chunk_mut(&mut out, h2 * w2, |ax1, plane| {
        for yy in 0..h2 {
            for xx in 0..w2 {
                let mut acc = 0.0f32;
                for rc in 0..c1 {
                    for ry in 0..f {
                        // Signed coordinate before padding removal.
                        let iy = (p.stride * yy + ry) as isize - p.pad as isize;
                        if iy < 0 || iy >= h1 as isize {
                            continue;
                        }
                        for rx in 0..f {
                            let ix = (p.stride * xx + rx) as isize - p.pad as isize;
                            if ix < 0 || ix >= w1 as isize {
                                continue;
                            }
                            let iv = idata[(rc * h1 + iy as usize) * w1 + ix as usize];
                            let wv = wdata[((ax1 * c1 + rc) * f + ry) * f + rx];
                            acc += iv * wv;
                        }
                    }
                }
                plane[yy * w2 + xx] = p.epilogue(ax1, acc);
            }
        }
    });
    Tensor::from_vec(out_shape, out)
}

/// Depthwise convolution (§2.1.2): one filter per input channel, weights
/// `[C, 1, F, F]`, output `[C, H2, W2]`.
///
/// Each channel plane is built tap by tap: tap `(ry, rx)` adds
/// `input * weight` into every output element whose input coordinate lies
/// inside the unpadded input, a precomputed range of rows and, within each
/// row, of columns, so no element is bounds-tested. Every element still
/// sums its taps from `0.0` in `(ry, rx)` order, as a per-pixel loop that
/// skips the padding would, and the epilogue runs once per element at the
/// end.
///
/// # Panics
/// Panics on rank/shape mismatches.
pub fn depthwise_conv2d<'a>(
    input: &Tensor,
    weights: &Tensor,
    p: impl Into<ConvArgs<'a>>,
) -> Tensor {
    depthwise_conv2d_with(input, weights, p.into(), &mut Fresh)
}

/// [`depthwise_conv2d`] into an output buffer from `bufs`.
pub(crate) fn depthwise_conv2d_with(
    input: &Tensor,
    weights: &Tensor,
    p: ConvArgs<'_>,
    bufs: &mut dyn Buffers,
) -> Tensor {
    assert_eq!(input.shape().rank(), 3, "depthwise input must be CHW");
    assert_eq!(weights.shape().rank(), 4, "depthwise weights must be C1FF");
    let (c, h1, w1) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
    );
    assert_eq!(weights.shape().dim(0), c, "depthwise channel mismatch");
    assert_eq!(weights.shape().dim(1), 1, "depthwise weights must have C=1");
    let f = weights.shape().dim(2);
    let out_shape = conv_out_shape(input.shape(), c, f, p.stride, p.pad);
    let (h2, w2) = (out_shape.dim(1), out_shape.dim(2));
    let (s, pad) = (p.stride, p.pad);
    let idata = input.data();
    let wdata = weights.data();

    let mut out = bufs.zeroed(c * h2 * w2);
    crate::par::for_each_chunk_mut(&mut out, h2 * w2, |ch, plane| {
        let iplane = &idata[ch * h1 * w1..(ch + 1) * h1 * w1];
        let taps = &wdata[ch * f * f..(ch + 1) * f * f];
        for ry in 0..f {
            let rows = tap_range(h2, h1, ry, s, pad);
            for rx in 0..f {
                let cols = tap_range(w2, w1, rx, s, pad);
                if cols.is_empty() {
                    continue;
                }
                let wv = taps[ry * f + rx];
                let ix = s * cols.start + rx - pad;
                for yy in rows.clone() {
                    let iy = s * yy + ry - pad;
                    let src = &iplane[iy * w1 + ix..(iy + 1) * w1];
                    let dst = &mut plane[yy * w2 + cols.start..yy * w2 + cols.end];
                    // Stride 1 has its own loop because it vectorizes and
                    // the stepped one does not (half the depthwise time).
                    if s == 1 {
                        for (o, &v) in dst.iter_mut().zip(src) {
                            *o += v * wv;
                        }
                    } else {
                        for (o, &v) in dst.iter_mut().zip(src.iter().step_by(s)) {
                            *o += v * wv;
                        }
                    }
                }
            }
        }
        for v in plane {
            *v = p.epilogue(ch, *v);
        }
    });
    Tensor::from_vec(out_shape, out)
}

/// The output positions `o < out` whose input coordinate
/// `stride * o + r - pad` for window offset `r` lies in `0..input`.
fn tap_range(out: usize, input: usize, r: usize, stride: usize, pad: usize) -> Range<usize> {
    let start = pad.saturating_sub(r).div_ceil(stride);
    let end = (input + pad).saturating_sub(r).div_ceil(stride).min(out);
    start.min(end)..end
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example of Figure 2.1: 5x5 input, 2 filters of 3x3, S=1,
    /// P=0 -> 2x3x3 output.
    #[test]
    fn figure_2_1_shape() {
        let input = Tensor::random(Shape::chw(1, 5, 5), 1, 1.0);
        let w = Tensor::random(Shape::kcff(2, 1, 3), 2, 1.0);
        let y = conv2d(&input, &w, &Conv2dParams::plain(1, 0));
        assert_eq!(y.shape(), &Shape::chw(2, 3, 3));
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // A 1x1 filter with weight 1.0 is the identity map.
        let input = Tensor::random(Shape::chw(3, 4, 4), 7, 1.0);
        let mut w = Tensor::zeros(Shape::kcff(3, 3, 1));
        for k in 0..3 {
            w.set(&[k, k, 0, 0], 1.0);
        }
        let y = conv2d(&input, &w, &Conv2dParams::plain(1, 0));
        assert_eq!(y.data(), input.data());
    }

    #[test]
    fn hand_computed_3x3() {
        // 1x3x3 input = 1..9, single 3x3 all-ones filter: output = sum = 45.
        let input = Tensor::from_vec(Shape::chw(1, 3, 3), (1..=9).map(|v| v as f32).collect());
        let w = Tensor::full(Shape::kcff(1, 1, 3), 1.0);
        let y = conv2d(&input, &w, &Conv2dParams::plain(1, 0));
        assert_eq!(y.data(), &[45.0]);
    }

    #[test]
    fn padding_matches_explicit_pad() {
        use crate::ops::pad::pad2d;
        let input = Tensor::random(Shape::chw(2, 6, 6), 11, 1.0);
        let w = Tensor::random(Shape::kcff(4, 2, 3), 12, 1.0);
        let direct = conv2d(&input, &w, &Conv2dParams::plain(1, 1));
        let padded = pad2d(&input, 1);
        let via_pad = conv2d(&padded, &w, &Conv2dParams::plain(1, 0));
        assert_eq!(direct.shape(), via_pad.shape());
        assert!(crate::allclose(&direct, &via_pad, 1e-6, 1e-6));
    }

    #[test]
    fn stride_two_halves_output() {
        let input = Tensor::random(Shape::chw(1, 8, 8), 3, 1.0);
        let w = Tensor::random(Shape::kcff(1, 1, 2), 4, 1.0);
        let y = conv2d(&input, &w, &Conv2dParams::plain(2, 0));
        assert_eq!(y.shape(), &Shape::chw(1, 4, 4));
    }

    #[test]
    fn bias_and_relu_epilogue() {
        let input = Tensor::full(Shape::chw(1, 2, 2), 1.0);
        let w = Tensor::full(Shape::kcff(2, 1, 1), -1.0);
        let p = Conv2dParams {
            stride: 1,
            pad: 0,
            bias: Some(vec![0.5, 2.0]),
            bn: None,
            activation: Activation::Relu,
        };
        let y = conv2d(&input, &w, &p);
        // Channel 0: -1 + 0.5 = -0.5 -> relu -> 0; channel 1: -1 + 2 = 1.
        assert_eq!(&y.data()[..4], &[0.0; 4]);
        assert_eq!(&y.data()[4..], &[1.0; 4]);
    }

    #[test]
    fn depthwise_equals_grouped_direct() {
        // Depthwise conv == direct conv with block-diagonal weights.
        let c = 3;
        let input = Tensor::random(Shape::chw(c, 5, 5), 21, 1.0);
        let dw = Tensor::random(Shape::new(&[c, 1, 3, 3]), 22, 1.0);
        let out_dw = depthwise_conv2d(&input, &dw, &Conv2dParams::plain(1, 0));

        let mut full = Tensor::zeros(Shape::kcff(c, c, 3));
        for ch in 0..c {
            for ry in 0..3 {
                for rx in 0..3 {
                    full.set(&[ch, ch, ry, rx], dw.at(&[ch, 0, ry, rx]));
                }
            }
        }
        let out_full = conv2d(&input, &full, &Conv2dParams::plain(1, 0));
        assert!(crate::allclose(&out_dw, &out_full, 1e-6, 1e-6));
    }

    #[test]
    fn folded_bn_epilogue() {
        let input = Tensor::full(Shape::chw(1, 1, 1), 2.0);
        let w = Tensor::full(Shape::kcff(1, 1, 1), 3.0);
        let p = Conv2dParams {
            stride: 1,
            pad: 0,
            bias: None,
            bn: Some((vec![0.5], vec![1.0])),
            activation: Activation::None,
        };
        let y = conv2d(&input, &w, &p);
        assert_eq!(y.data(), &[2.0 * 3.0 * 0.5 + 1.0]);
    }
}
