//! Direct 2-D convolution (technically cross-correlation, as the thesis notes
//! §2.1.2) and depthwise convolution, NCHW with N = 1.

use super::activation::Activation;
use crate::shape::conv_out_shape;
#[cfg(test)]
use crate::shape::Shape;
use crate::tensor::Tensor;

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
    pub fn epilogue(&self, k: usize, mut acc: f32) -> f32 {
        if let Some(b) = &self.bias {
            acc += b[k];
        }
        if let Some((s, sh)) = &self.bn {
            acc = acc * s[k] + sh[k];
        }
        self.activation.apply(acc)
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
pub fn conv2d(input: &Tensor, weights: &Tensor, p: &Conv2dParams) -> Tensor {
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
    if let Some(b) = &p.bias {
        assert_eq!(b.len(), k, "bias length must equal output channels");
    }
    let out_shape = conv_out_shape(input.shape(), k, f, p.stride, p.pad);
    let (h2, w2) = (out_shape.dim(1), out_shape.dim(2));

    let istride = input.shape().strides();
    let wstride = weights.shape().strides();
    let idata = input.data();
    let wdata = weights.data();

    let mut out = vec![0.0f32; k * h2 * w2];
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
                            let iv =
                                idata[rc * istride[0] + iy as usize * istride[1] + ix as usize];
                            let wv =
                                wdata[ax1 * wstride[0] + rc * wstride[1] + ry * wstride[2] + rx];
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
/// # Panics
/// Panics on rank/shape mismatches.
pub fn depthwise_conv2d(input: &Tensor, weights: &Tensor, p: &Conv2dParams) -> Tensor {
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
    let idata = input.data();
    let wdata = weights.data();

    let mut out = vec![0.0f32; c * h2 * w2];
    crate::par::for_each_chunk_mut(&mut out, h2 * w2, |ch, plane| {
        for yy in 0..h2 {
            for xx in 0..w2 {
                let mut acc = 0.0f32;
                for ry in 0..f {
                    let iy = (p.stride * yy + ry) as isize - p.pad as isize;
                    if iy < 0 || iy >= h1 as isize {
                        continue;
                    }
                    for rx in 0..f {
                        let ix = (p.stride * xx + rx) as isize - p.pad as isize;
                        if ix < 0 || ix >= w1 as isize {
                            continue;
                        }
                        acc += idata[ch * h1 * w1 + iy as usize * w1 + ix as usize]
                            * wdata[ch * f * f + ry * f + rx];
                    }
                }
                plane[yy * w2 + xx] = p.epilogue(ch, acc);
            }
        }
    });
    Tensor::from_vec(out_shape, out)
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
        let dw = Tensor::random(Shape(vec![c, 1, 3, 3]), 22, 1.0);
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
