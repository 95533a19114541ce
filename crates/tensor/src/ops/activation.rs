//! Activation functions (§2.1.2).

use crate::tensor::Tensor;

/// Activation applied at the output of convolution/dense layers. The fusion
/// pass (§3.1) attaches one of these to the producing layer so a single
/// OpenCL kernel computes both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Identity.
    #[default]
    None,
    /// `max(0, x)` (Eq. 2.2).
    Relu,
    /// `min(max(0, x), 6)` — the thesis writes Eq. 2.3 as `max(6, x)` but the
    /// standard (and MobileNet's) definition is the clamp; we implement the
    /// clamp.
    Relu6,
}

impl Activation {
    /// Applies the activation to a scalar.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::None => x,
            Activation::Relu => x.max(0.0),
            Activation::Relu6 => x.clamp(0.0, 6.0),
        }
    }

    /// Short OpenCL-ish spelling used in generated kernel code.
    pub fn c_expr(self, arg: &str) -> String {
        match self {
            Activation::None => arg.to_string(),
            Activation::Relu => format!("max({arg}, 0.0f)"),
            Activation::Relu6 => format!("min(max({arg}, 0.0f), 6.0f)"),
        }
    }
}

/// ReLU over a whole tensor.
pub fn relu(x: &Tensor) -> Tensor {
    activate(x.clone(), Activation::Relu)
}

/// ReLU6 over a whole tensor.
pub fn relu6(x: &Tensor) -> Tensor {
    activate(x.clone(), Activation::Relu6)
}

/// Applies `a` to every element of `x`, in `x`'s own buffer.
pub(crate) fn activate(mut x: Tensor, a: Activation) -> Tensor {
    for v in x.data_mut() {
        *v = a.apply(*v);
    }
    x
}

/// Numerically-stable softmax (Eq. 2.4 with the max-subtraction trick the
/// thesis notes TVM applies, §2.1.2).
///
/// # Panics
/// Panics on an empty tensor.
pub fn softmax(x: &Tensor) -> Tensor {
    softmax_in_place(x.clone())
}

/// [`softmax`] over `x`'s own buffer: the exponentials overwrite the
/// inputs, then their normalized values the exponentials.
pub(crate) fn softmax_in_place(mut x: Tensor) -> Tensor {
    assert!(x.numel() > 0, "softmax of empty tensor");
    let max = x.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for v in x.data_mut() {
        *v = (*v - max).exp();
    }
    let sum: f32 = x.data().iter().sum();
    for v in x.data_mut() {
        *v /= sum;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(Shape::d1(4), vec![-1.0, 0.0, 2.0, -0.5]);
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu6_clamps_both_sides() {
        let x = Tensor::from_vec(Shape::d1(3), vec![-2.0, 3.0, 9.0]);
        assert_eq!(relu6(&x).data(), &[0.0, 3.0, 6.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_monotone() {
        let x = Tensor::from_vec(Shape::d1(4), vec![1.0, 2.0, 3.0, 4.0]);
        let s = softmax(&x);
        let total: f32 = s.data().iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        for w in s.data().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let x = Tensor::from_vec(Shape::d1(3), vec![1000.0, 1001.0, 1002.0]);
        let s = softmax(&x);
        assert!(s.all_finite());
        assert!((s.sum() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn activation_c_expr_spellings() {
        assert_eq!(Activation::Relu.c_expr("x"), "max(x, 0.0f)");
        assert_eq!(Activation::None.c_expr("y"), "y");
        assert_eq!(Activation::Relu6.c_expr("z"), "min(max(z, 0.0f), 6.0f)");
    }
}
