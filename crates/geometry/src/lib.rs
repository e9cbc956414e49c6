//! Geometric primitives shared by every crate in the `emst` workspace.
//!
//! The paper ("A single-tree algorithm to compute the Euclidean minimum
//! spanning tree on GPUs", Prokopenko et al., ICPP 2022) operates on
//! low-dimensional (2D/3D) point clouds stored in single precision
//! (`Kokkos::View<float*>`). This crate mirrors that choice: coordinates are
//! [`f32`], and the dimension is a const generic so 2D and 3D code share one
//! implementation without dynamic dispatch.
//!
//! Contents:
//! - [`Point`] — a `D`-dimensional point, and [`is_valid_coordinate`],
//!   the finite-and-bounded check every input coordinate passes;
//! - [`Aabb`] — axis-aligned bounding box (the BVH bounding volume);
//! - [`metric`] — the [`metric::Metric`] abstraction with
//!   [`metric::Euclidean`] and [`metric::MutualReachability`] (the HDBSCAN*
//!   distance of §4.5 of the paper).

// Loops over the const-generic dimension D index several parallel arrays;
// clippy's iterator suggestion does not apply cleanly there.
#![allow(clippy::needless_range_loop)]

pub mod aabb;
pub mod metric;
pub mod point;

pub use aabb::Aabb;
pub use metric::{brute_force_core_distances_sq, Euclidean, Metric, MutualReachability};
pub use point::{is_valid_coordinate, Point, MAX_COORDINATE};

/// The scalar type used for coordinates and distances throughout the
/// workspace. Single precision matches the paper's implementation.
pub type Scalar = f32;

/// Total order on non-negative floats via their IEEE-754 bit patterns.
///
/// For non-negative finite floats (and `+inf`), `a <= b` iff
/// `a.to_bits() <= b.to_bits()`, which lets device-style atomics order
/// distances as plain `u32` integers. Squared distances are always
/// non-negative, so this is safe everywhere in the workspace.
#[inline]
pub fn nonneg_f32_to_ordered_bits(x: f32) -> u32 {
    debug_assert!(x >= 0.0 || x.is_nan(), "ordered bits require non-negative input");
    x.to_bits()
}

/// Inverse of [`nonneg_f32_to_ordered_bits`].
#[inline]
pub fn ordered_bits_to_f32(bits: u32) -> f32 {
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_bits_is_monotone_on_nonnegative_floats() {
        let values = [0.0f32, 1e-30, 1e-3, 0.5, 1.0, 2.0, 1e10, f32::INFINITY];
        for w in values.windows(2) {
            assert!(
                nonneg_f32_to_ordered_bits(w[0]) < nonneg_f32_to_ordered_bits(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn ordered_bits_round_trips() {
        for x in [0.0f32, 0.25, 3.5, 1e20] {
            assert_eq!(ordered_bits_to_f32(nonneg_f32_to_ordered_bits(x)), x);
        }
    }
}
