//! Tensor shapes and the CNN dimension arithmetic of §2.1.2.

use std::fmt;

/// The highest rank a [`Shape`] holds: `[K, C, F, F]` convolution weights.
const MAX_RANK: usize = 4;

/// A dense tensor shape (row-major).
///
/// CNN feature maps use `[C, H, W]` (the thesis fixes batch `N = 1`), weights
/// use `[K, C, F, F]`, dense weights use `[M, N]` and vectors use `[N]`.
///
/// The dims are kept inline, so building or cloning a shape never
/// allocates. Dims past the rank stay zero, so the derived `Eq` and `Hash`
/// see only the dims in use.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// A shape with the given dims.
    ///
    /// # Panics
    /// Panics if there are more than four dims.
    pub fn new(dims: &[usize]) -> Self {
        let rank = dims.len();
        assert!(
            rank <= MAX_RANK,
            "a shape holds at most {MAX_RANK} dims, got rank {rank}"
        );
        let mut inline = [0; MAX_RANK];
        inline[..rank].copy_from_slice(dims);
        Shape { dims: inline, rank }
    }

    /// 1-D shape.
    pub fn d1(n: usize) -> Self {
        Shape::new(&[n])
    }

    /// 2-D shape.
    pub fn d2(a: usize, b: usize) -> Self {
        Shape::new(&[a, b])
    }

    /// Channel-first feature-map shape `[C, H, W]`.
    pub fn chw(c: usize, h: usize, w: usize) -> Self {
        Shape::new(&[c, h, w])
    }

    /// Convolution weight shape `[K, C, F, F]`.
    pub fn kcff(k: usize, c: usize, f: usize) -> Self {
        Shape::new(&[k, c, f, f])
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total element count (product of all dims; 1 for scalar shapes).
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Dimension `i`.
    ///
    /// # Panics
    /// Panics if `i >= rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// The dims as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Linear offset of a multi-index.
    ///
    /// # Panics
    /// Panics (with debug assertions) if the index rank or any coordinate is
    /// out of range.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.rank, "index rank mismatch");
        let mut off = 0usize;
        for (d, (&i, &n)) in idx.iter().zip(self.dims()).enumerate() {
            debug_assert!(i < n, "index {i} out of range {n} in dim {d}");
            off = off * n + i;
        }
        off
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                f.write_str("x")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape::new(&v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape::new(v)
    }
}

/// Output spatial size of a convolution/pooling window sweep:
/// `(in + 2*pad - window) / stride + 1` (§2.1.2).
///
/// # Panics
/// Panics if the window does not fit the (padded) input.
pub fn conv_out_dim(input: usize, window: usize, stride: usize, pad: usize) -> usize {
    let padded = input + 2 * pad;
    assert!(
        padded >= window,
        "window {window} larger than padded input {padded}"
    );
    (padded - window) / stride + 1
}

/// Output feature-map shape of a (possibly depthwise) convolution.
pub fn conv_out_shape(
    in_shape: &Shape,
    out_channels: usize,
    window: usize,
    stride: usize,
    pad: usize,
) -> Shape {
    assert_eq!(in_shape.rank(), 3, "conv input must be CHW");
    Shape::chw(
        out_channels,
        conv_out_dim(in_shape.dim(1), window, stride, pad),
        conv_out_dim(in_shape.dim(2), window, stride, pad),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_is_the_product_of_the_dims() {
        assert_eq!(Shape::new(&[2, 3, 4]).numel(), 24);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(&[5, 7, 3]);
        let st = [7 * 3, 3, 1];
        for a in 0..5 {
            for b in 0..7 {
                for c in 0..3 {
                    assert_eq!(s.offset(&[a, b, c]), a * st[0] + b * st[1] + c * st[2]);
                }
            }
        }
    }

    #[test]
    fn conv_dims_match_thesis_examples() {
        // Figure 2.1: 5x5 input, 3x3 filter, S=1, P=0 -> 3x3 output.
        assert_eq!(conv_out_dim(5, 3, 1, 0), 3);
        // LeNet conv1 (Table 2.1): 28 -> 26 with 3x3 s1 p0.
        assert_eq!(conv_out_dim(28, 3, 1, 0), 26);
        // MobileNet conv_1 (Table 2.2): 224 -> 112 with 3x3 s2 p1.
        assert_eq!(conv_out_dim(224, 3, 2, 1), 112);
        // ResNet conv1 (Table 2.3): 224 -> 112 with 7x7 s2 p3.
        assert_eq!(conv_out_dim(224, 7, 2, 3), 112);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn conv_dim_rejects_oversized_window() {
        conv_out_dim(2, 5, 1, 0);
    }

    #[test]
    fn display_is_x_separated() {
        assert_eq!(Shape::chw(16, 5, 5).to_string(), "16x5x5");
        assert_eq!(Shape::d1(10).to_string(), "10");
        assert_eq!(Shape::new(&[]).to_string(), "");
    }

    #[test]
    fn debug_lists_the_dims_in_use() {
        assert_eq!(format!("{:?}", Shape::kcff(8, 1, 3)), "Shape[8, 1, 3, 3]");
        assert_eq!(format!("{:?}", Shape::d2(2, 5)), "Shape[2, 5]");
        assert_eq!(format!("{:?}", Shape::new(&[])), "Shape[]");
    }

    #[test]
    fn equality_and_hash_see_only_the_dims_in_use() {
        use std::collections::HashSet;
        assert_eq!(Shape::from(vec![3, 4]), Shape::d2(3, 4));
        assert_eq!(Shape::from(&[3, 4][..]), Shape::d2(3, 4));
        assert_ne!(Shape::d2(3, 4), Shape::chw(3, 4, 0));
        assert_ne!(Shape::d1(0), Shape::new(&[]));
        let set: HashSet<Shape> = [Shape::d2(3, 4), Shape::new(&[3, 4])].into();
        assert_eq!(set.len(), 1);
        assert_eq!(Shape::new(&[]).numel(), 1);
    }

    #[test]
    #[should_panic(expected = "rank 5")]
    fn rank_above_four_is_rejected() {
        Shape::new(&[1, 2, 3, 4, 5]);
    }
}
