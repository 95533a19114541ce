//! Schedule candidates and the legality-checked proposal generator.
//!
//! A candidate is a point of the folded-deployment design space the thesis
//! explores by hand in Table 6.6: a `(W_2vec, C_2vec, C_1vec)` tiling for
//! the parameterized 1x1-convolution kernel plus the AOC numeric precision.
//! The [`SearchSpace`] enumerates only *legal* candidates — every factor
//! must divide the corresponding loop extent of every 1x1 layer (the same
//! requirement `tir::schedule::try_split` enforces per loop, §4.11) — and
//! reports anything else as a structured [`LegalityError`] instead of a
//! panic or a mid-synthesis failure.

use fpgaccel_aoc::Precision;

/// One point of the schedule design space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// `(W_2vec, C_2vec, C_1vec)` for the parameterized 1x1 convolution.
    pub tile: (usize, usize, usize),
    /// AOC numeric precision for the whole bitstream.
    pub precision: Precision,
}

impl Candidate {
    /// A candidate tiling at the default (thesis) `F32` precision.
    pub fn new(tile: (usize, usize, usize)) -> Candidate {
        Candidate {
            tile,
            precision: Precision::F32,
        }
    }
}

impl std::fmt::Display for Candidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (w2, c2, c1) = self.tile;
        write!(f, "{w2}/{c2}/{c1} {:?}", self.precision)
    }
}

/// Loop extents of one 1x1-convolution layer, as the proposal generator
/// validates tile factors against them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Conv1x1Shape {
    /// Layer name (for error messages and the shape signature).
    pub layer: String,
    /// Output width `W_2` (the tiled spatial extent).
    pub w2: usize,
    /// Output height `H_2` (not tiled; part of the work term).
    pub h2: usize,
    /// Output channels `C_2`.
    pub c2: usize,
    /// Input channels `C_1`.
    pub c1: usize,
}

/// Why a candidate is illegal for a layer set — the structured form of the
/// divisibility requirement, produced *before* any synthesis is attempted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LegalityError {
    /// A tile factor does not divide a layer's loop extent.
    Indivisible {
        /// Offending layer name.
        layer: String,
        /// Which extent (`W2`, `C2` or `C1`).
        dim: &'static str,
        /// The loop extent.
        extent: usize,
        /// The candidate factor.
        factor: usize,
    },
    /// The model has no 1x1 convolutions to tune.
    NoOneByOneLayers,
}

impl std::fmt::Display for LegalityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LegalityError::Indivisible {
                layer,
                dim,
                extent,
                factor,
            } => write!(
                f,
                "layer `{layer}`: {dim} = {extent} not divisible by tile {factor}"
            ),
            LegalityError::NoOneByOneLayers => {
                write!(f, "model has no 1x1 convolutions")
            }
        }
    }
}

impl std::error::Error for LegalityError {}

/// All divisors of `n` in increasing order.
pub fn divisors(n: usize) -> Vec<usize> {
    (1..=n).filter(|d| n.is_multiple_of(*d)).collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The candidate space for one (model, platform) pair: the layer extents
/// legality is checked against.
#[derive(Clone, Debug)]
pub struct SearchSpace {
    /// Every 1x1-convolution layer's loop extents.
    pub shapes: Vec<Conv1x1Shape>,
}

impl SearchSpace {
    /// A space over `shapes`.
    pub fn new(shapes: Vec<Conv1x1Shape>) -> SearchSpace {
        SearchSpace { shapes }
    }

    /// Legal factors per tiled axis: the divisors of the greatest common
    /// divisor of the axis extent across all layers (a factor is legal iff
    /// it divides *every* layer, §4.11 requirement 2).
    pub fn axis_factors(&self) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        let fold = |pick: fn(&Conv1x1Shape) -> usize| {
            let g = self.shapes.iter().map(pick).fold(0, gcd);
            divisors(g)
        };
        (fold(|s| s.w2), fold(|s| s.c2), fold(|s| s.c1))
    }

    /// Checks one candidate against every layer's loop extents.
    ///
    /// # Errors
    /// The first [`LegalityError`] encountered, in layer order.
    pub fn validate(&self, c: &Candidate) -> Result<(), LegalityError> {
        if self.shapes.is_empty() {
            return Err(LegalityError::NoOneByOneLayers);
        }
        let (w2v, c2v, c1v) = c.tile;
        for s in &self.shapes {
            let checks: [(&'static str, usize, usize); 3] =
                [("W2", s.w2, w2v), ("C2", s.c2, c2v), ("C1", s.c1, c1v)];
            for (dim, extent, factor) in checks {
                if factor == 0 || !extent.is_multiple_of(factor) {
                    return Err(LegalityError::Indivisible {
                        layer: s.layer.clone(),
                        dim,
                        extent,
                        factor,
                    });
                }
            }
        }
        Ok(())
    }

    /// The proposal generator: the full legal grid at `F32`, in
    /// deterministic (w2, c2, c1) lexicographic order.
    ///
    /// # Errors
    /// [`LegalityError::NoOneByOneLayers`] when the model has nothing to
    /// tune.
    pub fn proposals(&self) -> Result<Vec<Candidate>, LegalityError> {
        if self.shapes.is_empty() {
            return Err(LegalityError::NoOneByOneLayers);
        }
        let (w2s, c2s, c1s) = self.axis_factors();
        let mut out = Vec::with_capacity(w2s.len() * c2s.len() * c1s.len());
        for &w2 in &w2s {
            for &c2 in &c2s {
                for &c1 in &c1s {
                    let c = Candidate::new((w2, c2, c1));
                    debug_assert!(self.validate(&c).is_ok());
                    out.push(c);
                }
            }
        }
        Ok(out)
    }
}

/// A compact deterministic fingerprint of a layer-shape set — the
/// "layer shape" component of the tuning-database key. FNV-1a over the
/// canonical rendering, prefixed with the layer count for readability.
pub fn shape_signature(shapes: &[Conv1x1Shape]) -> String {
    let canonical: String = shapes
        .iter()
        .map(|s| format!("{}x{}x{}x{};", s.w2, s.h2, s.c2, s.c1))
        .collect();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("n{}-{:08x}", shapes.len(), (h >> 32) as u32 ^ h as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shapes() -> Vec<Conv1x1Shape> {
        vec![
            Conv1x1Shape {
                layer: "a".into(),
                w2: 56,
                h2: 56,
                c2: 64,
                c1: 32,
            },
            Conv1x1Shape {
                layer: "b".into(),
                w2: 7,
                h2: 7,
                c2: 1024,
                c1: 512,
            },
        ]
    }

    fn space() -> SearchSpace {
        SearchSpace::new(shapes())
    }

    #[test]
    fn proposals_cover_exactly_the_legal_grid() {
        let s = space();
        let (w2s, c2s, c1s) = s.axis_factors();
        assert_eq!(w2s, vec![1, 7]);
        assert_eq!(c2s, vec![1, 2, 4, 8, 16, 32, 64]);
        assert_eq!(c1s, vec![1, 2, 4, 8, 16, 32]);
        let all = s.proposals().unwrap();
        assert_eq!(all.len(), 2 * 7 * 6);
        for c in &all {
            assert_eq!(s.validate(c), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_indivisible_factors_structurally() {
        let s = space();
        let err = s.validate(&Candidate::new((7, 8, 3))).unwrap_err();
        assert_eq!(
            err,
            LegalityError::Indivisible {
                layer: "a".into(),
                dim: "C1",
                extent: 32,
                factor: 3
            }
        );
        assert!(err.to_string().contains("not divisible by tile 3"));
    }

    #[test]
    fn empty_layer_set_is_an_error_not_a_panic() {
        let s = SearchSpace::new(vec![]);
        assert_eq!(s.proposals(), Err(LegalityError::NoOneByOneLayers));
        assert_eq!(
            s.validate(&Candidate::new((1, 1, 1))),
            Err(LegalityError::NoOneByOneLayers)
        );
    }

    #[test]
    fn signature_is_deterministic_and_shape_sensitive() {
        let a = shape_signature(&shapes());
        let b = shape_signature(&shapes());
        assert_eq!(a, b);
        assert!(a.starts_with("n2-"));
        let mut other = shapes();
        other[0].c2 = 128;
        assert_ne!(a, shape_signature(&other));
    }
}
