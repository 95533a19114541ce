//! Fully-connected (dense) layers (§2.1.2, §5.1.2).

use super::activation::Activation;
use super::{Buffers, Fresh};
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Unbatched dense layer: matrix-vector product `y = W x (+ bias)` with an
/// optional fused activation. `input` is `[N]`, `weights` are `[M, N]`
/// (row-major, matching Listing 5.5's `W[j*N + k]` addressing), output `[M]`.
///
/// # Panics
/// Panics on shape mismatches.
pub fn dense(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    activation: Activation,
) -> Tensor {
    dense_with(input, weights, bias, activation, &mut Fresh)
}

/// [`dense`] into an output buffer from `bufs`.
pub(crate) fn dense_with(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    activation: Activation,
    bufs: &mut dyn Buffers,
) -> Tensor {
    assert_eq!(input.shape().rank(), 1, "dense input must be a vector");
    assert_eq!(weights.shape().rank(), 2, "dense weights must be MxN");
    let n = input.shape().dim(0);
    let m = weights.shape().dim(0);
    assert_eq!(
        weights.shape().dim(1),
        n,
        "dense weight columns must match input length"
    );
    if let Some(b) = bias {
        assert_eq!(b.len(), m, "dense bias length must equal output length");
    }
    let x = input.data();
    let w = weights.data();
    let mut out = bufs.zeroed(m);
    for (j, o) in out.iter_mut().enumerate() {
        let row = &w[j * n..(j + 1) * n];
        let mut dot = 0.0f32;
        for (a, b) in row.iter().zip(x) {
            dot += a * b;
        }
        if let Some(bv) = bias {
            dot += bv[j];
        }
        *o = activation.apply(dot);
    }
    Tensor::from_vec(Shape::d1(m), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_vector_identity() {
        let x = Tensor::from_vec(Shape::d1(3), vec![1.0, 2.0, 3.0]);
        let w = Tensor::from_vec(Shape::d2(3, 3), vec![1., 0., 0., 0., 1., 0., 0., 0., 1.]);
        let y = dense(&x, &w, None, Activation::None);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn bias_and_activation() {
        let x = Tensor::from_vec(Shape::d1(2), vec![1.0, 1.0]);
        let w = Tensor::from_vec(Shape::d2(2, 2), vec![1., 1., -1., -1.]);
        let y = dense(&x, &w, Some(&[0.0, 1.0]), Activation::Relu);
        assert_eq!(y.data(), &[2.0, 0.0]);
    }

    #[test]
    fn rectangular_shapes() {
        let x = Tensor::random(Shape::d1(400), 1, 1.0);
        let w = Tensor::random(Shape::d2(120, 400), 2, 0.1);
        let y = dense(&x, &w, None, Activation::None);
        assert_eq!(y.shape(), &Shape::d1(120));
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn rejects_mismatched_inner_dim() {
        let x = Tensor::zeros(Shape::d1(4));
        let w = Tensor::zeros(Shape::d2(2, 3));
        dense(&x, &w, None, Activation::None);
    }
}
