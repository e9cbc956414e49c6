//! `D`-dimensional points with single-precision coordinates.

use core::ops::{Index, IndexMut};

use crate::Scalar;

/// A point in `D`-dimensional Euclidean space.
///
/// `D` is a const generic; the workspace instantiates `Point<2>` and
/// `Point<3>`, matching the paper's 2D/3D evaluation datasets.
#[derive(Clone, Copy, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Point<const D: usize> {
    /// Cartesian coordinates.
    pub coords: [Scalar; D],
}

impl<const D: usize> Point<D> {
    /// Creates a point from its coordinate array.
    #[inline]
    pub const fn new(coords: [Scalar; D]) -> Self {
        Self { coords }
    }

    /// The origin (all coordinates zero).
    #[inline]
    pub const fn origin() -> Self {
        Self { coords: [0.0; D] }
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Preferred over [`Self::distance`] inside hot loops: it avoids the
    /// square root and preserves the ordering of distances, which is all that
    /// nearest-neighbour pruning needs.
    #[inline]
    pub fn squared_distance(&self, other: &Self) -> Scalar {
        let mut acc = 0.0;
        for d in 0..D {
            let diff = self.coords[d] - other.coords[d];
            acc += diff * diff;
        }
        acc
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Self) -> Scalar {
        self.squared_distance(other).sqrt()
    }

    /// Component-wise minimum of two points.
    #[inline]
    pub fn min(&self, other: &Self) -> Self {
        let mut coords = [0.0; D];
        for d in 0..D {
            coords[d] = self.coords[d].min(other.coords[d]);
        }
        Self { coords }
    }

    /// Component-wise maximum of two points.
    #[inline]
    pub fn max(&self, other: &Self) -> Self {
        let mut coords = [0.0; D];
        for d in 0..D {
            coords[d] = self.coords[d].max(other.coords[d]);
        }
        Self { coords }
    }

    /// Returns true when every coordinate is finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.coords.iter().all(|c| c.is_finite())
    }
}

/// Largest accepted input coordinate magnitude. Two 3D points with every
/// coordinate in `[-MAX_COORDINATE, MAX_COORDINATE]` are at most
/// `3 · (2e18)² = 1.2e37` apart squared, which is finite in `f32`
/// (`f32::MAX` ≈ 3.4e38).
pub const MAX_COORDINATE: Scalar = 1e18;

/// Whether `c` is an accepted input coordinate: `|c| <= MAX_COORDINATE`.
/// NaN and ±inf fail the comparison. The solvers assume finite squared
/// distances (a NaN never compares, so a Borůvka round can stall on it);
/// point files and wire requests are checked with this at the boundary.
#[inline]
pub fn is_valid_coordinate(c: Scalar) -> bool {
    c.abs() <= MAX_COORDINATE
}

impl<const D: usize> Default for Point<D> {
    fn default() -> Self {
        Self::origin()
    }
}

impl<const D: usize> Index<usize> for Point<D> {
    type Output = Scalar;

    #[inline]
    fn index(&self, i: usize) -> &Scalar {
        &self.coords[i]
    }
}

impl<const D: usize> IndexMut<usize> for Point<D> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut Scalar {
        &mut self.coords[i]
    }
}

impl<const D: usize> From<[Scalar; D]> for Point<D> {
    #[inline]
    fn from(coords: [Scalar; D]) -> Self {
        Self { coords }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn squared_distance_matches_hand_computation() {
        let a = Point::new([0.0, 3.0]);
        let b = Point::new([4.0, 0.0]);
        assert_eq!(a.squared_distance(&b), 25.0);
        assert_eq!(a.distance(&b), 5.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point::new([1.5, -2.5, 3.25]);
        assert_eq!(p.squared_distance(&p), 0.0);
    }

    #[test]
    fn min_max_are_componentwise() {
        let a = Point::new([1.0, 5.0]);
        let b = Point::new([3.0, 2.0]);
        assert_eq!(a.min(&b), Point::new([1.0, 2.0]));
        assert_eq!(a.max(&b), Point::new([3.0, 5.0]));
    }

    #[test]
    fn indexing_reads_and_writes() {
        let mut p = Point::new([1.0, 2.0, 3.0]);
        p[1] = 9.0;
        assert_eq!(p[1], 9.0);
        assert_eq!(p[2], 3.0);
    }

    #[test]
    fn is_finite_detects_nan_and_inf() {
        assert!(Point::new([0.0, 1.0]).is_finite());
        assert!(!Point::new([f32::NAN, 1.0]).is_finite());
        assert!(!Point::new([f32::INFINITY, 1.0]).is_finite());
    }

    #[test]
    fn valid_coordinates_keep_squared_distances_finite() {
        for c in [0.0, -0.0, 1.0, -MAX_COORDINATE, MAX_COORDINATE, f32::MIN_POSITIVE] {
            assert!(is_valid_coordinate(c), "{c}");
        }
        for c in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30, -1.1e18] {
            assert!(!is_valid_coordinate(c), "{c}");
        }
        let lo = Point::new([-MAX_COORDINATE; 3]);
        let hi = Point::new([MAX_COORDINATE; 3]);
        assert!(lo.squared_distance(&hi).is_finite());
    }

    fn arb_point3() -> impl Strategy<Value = Point<3>> {
        prop::array::uniform3(-1e3f32..1e3).prop_map(Point::new)
    }

    proptest! {
        #[test]
        fn distance_is_symmetric(a in arb_point3(), b in arb_point3()) {
            prop_assert_eq!(a.squared_distance(&b), b.squared_distance(&a));
        }

        #[test]
        fn distance_is_nonnegative(a in arb_point3(), b in arb_point3()) {
            prop_assert!(a.squared_distance(&b) >= 0.0);
        }

        #[test]
        fn triangle_inequality_holds_with_tolerance(
            a in arb_point3(), b in arb_point3(), c in arb_point3()
        ) {
            let ab = a.distance(&b) as f64;
            let bc = b.distance(&c) as f64;
            let ac = a.distance(&c) as f64;
            // f32 rounding can violate the exact inequality by a few ulps.
            prop_assert!(ac <= ab + bc + 1e-3);
        }

        #[test]
        fn min_max_bracket_both_inputs(a in arb_point3(), b in arb_point3()) {
            let lo = a.min(&b);
            let hi = a.max(&b);
            for d in 0..3 {
                prop_assert!(lo[d] <= a[d] && lo[d] <= b[d]);
                prop_assert!(hi[d] >= a[d] && hi[d] >= b[d]);
            }
        }
    }
}
