//! Linear bounding volume hierarchy (LBVH).
//!
//! A from-scratch reimplementation of the tree at the heart of ArborX — the
//! geometric search library the paper builds on. The construction follows
//! Karras (2012) as refined by Apetrei (2014):
//!
//! 1. points are assigned Morton codes on the scene bounding box and sorted
//!    along the Z-order curve (ties broken by index, so keys are unique);
//! 2. the binary radix hierarchy over the sorted keys is built **bottom-up
//!    and fully in parallel**: every leaf walks toward the root, the first
//!    thread to reach an internal node records its half-range and stops, the
//!    second merges the children's bounding boxes and continues;
//! 3. the hierarchy is stored structure-of-arrays (contiguous `children`,
//!    `bounds` and `parent` arrays) and additionally **collapsed into a
//!    4-wide rope-linked tree** ([`WideBvh`]) whose child-box tests
//!    auto-vectorize;
//! 4. queries run one traversal per thread (Algorithm 2 of the paper): a
//!    **stackless rope traversal** of the wide tree ([`Bvh::nearest`]) —
//!    pure index chasing with no per-thread stack, the GPU-faithful form.
//!
//! Given `n` points the tree has `n` leaves and `n − 1` internal nodes
//! (2n−1 total), and leaves appear in Morton order — the property the
//! paper's Optimization 2 (curve-neighbour upper bounds) relies on.
//!
//! The traversal entry points are deliberately generic: the single-tree
//! Borůvka algorithm of `emst-core` injects its component-skip predicate
//! (Optimization 1) and its metric through [`Bvh::nearest`].

pub mod build;
pub mod node;
pub mod quality;
pub mod traverse;
pub mod wide;

pub use build::{Bvh, MortonResolution};
pub use node::{NodeId, INVALID_NODE};
pub use quality::TreeQuality;
pub use traverse::{NearestHit, TraversalStats};
pub use wide::{WideBvh, WideNode};
