//! Deterministic synthetic inputs (§6.1.1).
//!
//! The thesis tests LeNet on the MNIST test set and uses "randomly generated
//! ImageNet-size inputs because input values do not alter computation time"
//! for MobileNet/ResNet. We have no dataset access, so LeNet inputs are
//! synthetic digit-like images (a distinct deterministic stroke pattern per
//! class plus seeded noise) and ImageNet inputs are seeded random tensors —
//! exactly the substitution DESIGN.md documents: timing is input-independent
//! and correctness is validated against the host graph executor on
//! identical inputs.

use crate::rng::Rng64;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// MNIST image side length.
pub const MNIST_SIDE: usize = 28;
/// ImageNet input side length.
pub const IMAGENET_SIDE: usize = 224;

/// A synthetic 1x28x28 "digit": class-dependent sinusoidal stroke pattern
/// plus seeded noise, normalized to `[0, 1]`.
pub fn synthetic_digit(class: usize, seed: u64) -> Tensor {
    let mut rng = Rng64::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(class as u64));
    let mut data = Vec::with_capacity(MNIST_SIDE * MNIST_SIDE);
    let (fy, fx) = (
        0.3 + 0.15 * (class % 5) as f32,
        0.2 + 0.1 * (class / 5) as f32,
    );
    for y in 0..MNIST_SIDE {
        for x in 0..MNIST_SIDE {
            let stroke = ((y as f32 * fy).sin() * (x as f32 * fx).cos()).abs();
            let noise: f32 = rng.range(0.0, 0.15);
            data.push((stroke * 0.85 + noise).min(1.0));
        }
    }
    Tensor::from_vec(Shape::chw(1, MNIST_SIDE, MNIST_SIDE), data)
}

/// A batch of synthetic digits cycling through the ten classes.
pub fn digit_batch(n: usize, seed: u64) -> Vec<Tensor> {
    (0..n)
        .map(|i| synthetic_digit(i % 10, seed.wrapping_add(i as u64)))
        .collect()
}

/// A seeded batch of uniform random tensors of an arbitrary shape in
/// `[0, 1]` — the generic calibration input for quantized compiles of
/// graphs whose input is not MNIST- or ImageNet-shaped.
pub fn calibration_batch(shape: &Shape, n: usize, seed: u64) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            let mut rng =
                Rng64::seed_from_u64(seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Tensor::from_vec(
                shape.clone(),
                (0..shape.numel()).map(|_| rng.uniform()).collect(),
            )
        })
        .collect()
}

/// A seeded random 3x224x224 ImageNet-size input in `[0, 1]`.
pub fn imagenet_input(seed: u64) -> Tensor {
    let mut rng = Rng64::seed_from_u64(seed);
    let n = 3 * IMAGENET_SIDE * IMAGENET_SIDE;
    Tensor::from_vec(
        Shape::chw(3, IMAGENET_SIDE, IMAGENET_SIDE),
        (0..n).map(|_| rng.uniform()).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_are_deterministic_and_in_range() {
        let a = synthetic_digit(3, 1);
        let b = synthetic_digit(3, 1);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn different_classes_differ() {
        assert_ne!(synthetic_digit(0, 1), synthetic_digit(7, 1));
    }

    #[test]
    fn imagenet_input_shape() {
        let t = imagenet_input(5);
        assert_eq!(t.shape(), &Shape::chw(3, 224, 224));
        assert!(t.all_finite());
    }

    #[test]
    fn batch_cycles_classes() {
        let b = digit_batch(12, 0);
        assert_eq!(b.len(), 12);
        assert_eq!(b[0].shape(), &Shape::chw(1, 28, 28));
    }
}
