//! Zero padding as a standalone operator.
//!
//! TVM generates a distinct kernel for each padding operation (§3.1), and the
//! thesis finds these zero-FLOP kernels consume 8–22% of runtime on the
//! optimized accelerators (Tables 6.8/6.16) because the generated modulo
//! addressing maps poorly to hardware. Keeping the operator separate lets the
//! flow reproduce that cost.

use super::{Buffers, Fresh};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Pads a CHW feature map with `pad` rings of zeros on every spatial side.
///
/// # Panics
/// Panics if the input is not CHW.
pub fn pad2d(input: &Tensor, pad: usize) -> Tensor {
    pad2d_with(input, pad, &mut Fresh)
}

/// [`pad2d`] into an output buffer from `bufs`.
pub(crate) fn pad2d_with(input: &Tensor, pad: usize, bufs: &mut dyn Buffers) -> Tensor {
    assert_eq!(input.shape().rank(), 3, "pad2d input must be CHW");
    if pad == 0 {
        return Tensor::from_vec(input.shape().clone(), bufs.copy_of(input.data()));
    }
    let (c, h, w) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
    );
    let (h2, w2) = (h + 2 * pad, w + 2 * pad);
    let mut out = bufs.zeroed(c * h2 * w2);
    for ch in 0..c {
        for y in 0..h {
            let src = &input.data()[ch * h * w + y * w..ch * h * w + (y + 1) * w];
            let dst_off = ch * h2 * w2 + (y + pad) * w2 + pad;
            out[dst_off..dst_off + w].copy_from_slice(src);
        }
    }
    Tensor::from_vec(Shape::chw(c, h2, w2), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_zero_is_identity() {
        let t = Tensor::random(Shape::chw(2, 3, 3), 9, 1.0);
        assert_eq!(pad2d(&t, 0), t);
    }

    #[test]
    fn pad_one_surrounds_with_zeros() {
        let t = Tensor::full(Shape::chw(1, 2, 2), 1.0);
        let p = pad2d(&t, 1);
        assert_eq!(p.shape(), &Shape::chw(1, 4, 4));
        assert_eq!(p.sum(), 4.0);
        assert_eq!(p.at(&[0, 0, 0]), 0.0);
        assert_eq!(p.at(&[0, 1, 1]), 1.0);
        assert_eq!(p.at(&[0, 3, 3]), 0.0);
    }

    #[test]
    fn pad_three_for_resnet_stem() {
        // ResNet conv1 needs P=3 around a 224x224 input.
        let t = Tensor::random(Shape::chw(3, 10, 10), 2, 1.0);
        let p = pad2d(&t, 3);
        assert_eq!(p.shape(), &Shape::chw(3, 16, 16));
        // Interior preserved.
        assert_eq!(p.at(&[1, 3, 3]), t.at(&[1, 0, 0]));
        assert_eq!(p.at(&[2, 12, 12]), t.at(&[2, 9, 9]));
    }
}
