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

pub(crate) use activation::{activate, softmax_in_place};
pub(crate) use conv::depthwise_conv2d_with;
pub(crate) use dense::dense_with;
pub(crate) use gemm::{conv2d_auto_scratch, conv2d_auto_with};
pub(crate) use pad::pad2d_with;
pub(crate) use pool::{avgpool2d_with, maxpool2d_with};

use crate::tensor::Tensor;

/// Where an operator takes its output and scratch buffers from, and where
/// it hands back scratch it is done with. Each operator has one body, which
/// takes its buffers from here: the public operators pass [`Fresh`], the
/// graph executor the buffers its per-call plan recycles.
pub(crate) trait Buffers {
    /// A dead buffer with room for `n` elements, emptied, if there is one
    /// to reuse.
    fn reuse(&mut self, n: usize) -> Option<Vec<f32>>;

    /// Takes back a buffer whose values nothing reads any more.
    fn recycle(&mut self, buf: Vec<f32>);

    /// A buffer of `n` zeros.
    fn zeroed(&mut self, n: usize) -> Vec<f32> {
        match self.reuse(n) {
            Some(mut buf) => {
                buf.resize(n, 0.0);
                buf
            }
            None => vec![0.0; n],
        }
    }

    /// A buffer holding a copy of `src`.
    fn copy_of(&mut self, src: &[f32]) -> Vec<f32> {
        match self.reuse(src.len()) {
            Some(mut buf) => {
                buf.extend_from_slice(src);
                buf
            }
            None => src.to_vec(),
        }
    }
}

/// Buffers that are always allocated fresh; a recycled one is dropped.
pub(crate) struct Fresh;

impl Buffers for Fresh {
    fn reuse(&mut self, _: usize) -> Option<Vec<f32>> {
        None
    }

    fn recycle(&mut self, _: Vec<f32>) {}
}

/// Element-wise addition (residual/skip connections, §2.1.5).
///
/// # Panics
/// Panics if shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = a.clone();
    add_assign(&mut out, b, Activation::None);
    out
}

/// `acc = activation(acc + other)`, in place: an [`add`] with no
/// activation, or a fused residual add whose activation the fusion pass
/// defers past the add.
///
/// # Panics
/// Panics if the shapes differ.
pub(crate) fn add_assign(acc: &mut Tensor, other: &Tensor, activation: Activation) {
    assert_eq!(acc.shape(), other.shape(), "residual add shape mismatch");
    for (o, &r) in acc.data_mut().iter_mut().zip(other.data()) {
        *o = activation.apply(*o + r);
    }
}

/// Inference-time batch normalization folded to per-channel scale and shift:
/// `y = x * scale[c] + shift[c]`. The thesis notes TVM fuses batch norms into
/// convolution outputs (§3.1); this is the fused form.
///
/// # Panics
/// Panics if the input is not CHW or the channel counts mismatch.
pub fn batchnorm(x: &Tensor, scale: &[f32], shift: &[f32]) -> Tensor {
    batchnorm_in_place(x.clone(), scale, shift)
}

/// [`batchnorm`] over `x`'s own buffer.
pub(crate) fn batchnorm_in_place(mut x: Tensor, scale: &[f32], shift: &[f32]) -> Tensor {
    assert_eq!(x.shape().rank(), 3, "batchnorm input must be CHW");
    let (c, h, w) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2));
    assert_eq!(scale.len(), c, "batchnorm scale channel mismatch");
    assert_eq!(shift.len(), c, "batchnorm shift channel mismatch");
    let hw = h * w;
    for ch in 0..c {
        let (s, b) = (scale[ch], shift[ch]);
        for v in &mut x.data_mut()[ch * hw..(ch + 1) * hw] {
            *v = *v * s + b;
        }
    }
    x
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
