//! Reference implementations of every CNN operator the thesis deploys.
//!
//! These are the *functional* ground truth for the whole workspace: the
//! simulated FPGA kernels, the IR interpreter and the baseline engine are all
//! validated against them. They are written for clarity first, but the
//! convolution kernels are also thread-parallel over output channels (the
//! same axis TVM's x86 schedule parallelizes, §6.4.2; see [`crate::par`]) so
//! full MobileNet/ResNet forward passes stay fast.

mod activation;
mod conv;
mod dense;
mod gemm;
mod pad;
mod pool;

pub use activation::{relu, relu6, softmax, Activation};
pub use conv::{conv2d, depthwise_conv2d, Conv2dParams, ConvArgs};
pub use dense::dense;
pub use gemm::{conv2d_auto, conv2d_im2col, im2col, matmul};
pub use pad::pad2d;
pub use pool::{avgpool2d, maxpool2d};

use crate::tensor::Tensor;

/// Element-wise addition (residual/skip connections, §2.1.5).
///
/// # Panics
/// Panics if shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "residual add shape mismatch");
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| x + y)
        .collect();
    Tensor::from_vec(a.shape().clone(), data)
}

/// Inference-time batch normalization folded to per-channel scale and shift:
/// `y = x * scale[c] + shift[c]`. The thesis notes TVM fuses batch norms into
/// convolution outputs (§3.1); this is the fused form.
///
/// # Panics
/// Panics if the input is not CHW or the channel counts mismatch.
pub fn batchnorm(x: &Tensor, scale: &[f32], shift: &[f32]) -> Tensor {
    assert_eq!(x.shape().rank(), 3, "batchnorm input must be CHW");
    let (c, h, w) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2));
    assert_eq!(scale.len(), c, "batchnorm scale channel mismatch");
    assert_eq!(shift.len(), c, "batchnorm shift channel mismatch");
    let mut out = x.clone();
    let hw = h * w;
    for ch in 0..c {
        let (s, b) = (scale[ch], shift[ch]);
        for v in &mut out.data_mut()[ch * hw..(ch + 1) * hw] {
            *v = *v * s + b;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn add_is_elementwise() {
        let a = Tensor::from_vec(Shape::d1(3), vec![1., 2., 3.]);
        let b = Tensor::from_vec(Shape::d1(3), vec![10., 20., 30.]);
        assert_eq!(add(&a, &b).data(), &[11., 22., 33.]);
    }

    #[test]
    fn batchnorm_scales_per_channel() {
        let x = Tensor::from_vec(Shape::chw(2, 1, 2), vec![1., 2., 3., 4.]);
        let y = batchnorm(&x, &[2.0, 0.5], &[1.0, -1.0]);
        assert_eq!(y.data(), &[3., 5., 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_mismatched_shapes() {
        add(&Tensor::zeros(Shape::d1(3)), &Tensor::zeros(Shape::d1(4)));
    }
}
