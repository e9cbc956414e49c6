//! The paper's primary contribution: a **single-tree Borůvka algorithm** for
//! the Euclidean minimum spanning tree, designed for massively parallel
//! (GPU-style) execution.
//!
//! Reference: A. Prokopenko, P. Sao, D. Lebrun-Grandié, *"A single-tree
//! algorithm to compute the Euclidean minimum spanning tree on GPUs"*,
//! ICPP 2022 (arXiv:2207.00514).
//!
//! The algorithm (paper Fig. 3) iterates Borůvka rounds, each consisting of
//! four bulk-synchronous kernels over a linear BVH:
//!
//! 1. [`labels::reduce_labels`] — propagate per-point component labels from
//!    the leaves into the internal tree nodes (bottom-up, atomic-flag
//!    synchronized). Internal nodes whose leaves span several components get
//!    an *invalid* label. This enables **Optimization 1: subtree skipping** —
//!    nearest-neighbour traversals bypass subtrees entirely contained in the
//!    query's own component;
//! 2. `compute_upper_bounds` — for every pair of points adjacent on the
//!    Z-order curve but in different components, their distance is a valid
//!    upper bound on both components' shortest outgoing edge
//!    (**Optimization 2**), seeding the traversal cutoff radius;
//! 3. `find_component_outgoing_edges` — one constrained nearest-neighbour
//!    traversal per point (paper Algorithm 2), reduced to a per-component
//!    shortest outgoing edge under the total edge order
//!    `(weight, min endpoint, max endpoint)` (the paper's §2 tie-breaking,
//!    without which Borůvka may cycle);
//! 4. `merge_components` — follow the chains of chosen edges to their
//!    terminal mutually-pointing pair and relabel every point
//!    (embarrassingly parallel, §3 "Merging components together").
//!
//! Two implementations of the edge selection step are provided (see
//! [`EdgeSelection`]): a mutex-per-component reference and the GPU-faithful
//! lock-free packed-atomic scheme. They produce identical results and are
//! compared in the ablation bench.
//!
//! The algorithm is generic over the [`emst_geometry::Metric`]; with
//! [`emst_geometry::MutualReachability`] it computes the HDBSCAN* MST of
//! §4.5 of the paper.

pub mod boruvka;
pub mod brute;
pub mod dsu;
pub mod edge;
pub mod labels;

pub use boruvka::{BoruvkaScratch, EdgeSelection, EmstConfig, EmstResult, SingleTreeBoruvka};
pub use dsu::UnionFind;
pub use edge::{verify_spanning_tree, Edge};
