//! # emst — single-tree Euclidean minimum spanning trees
//!
//! A from-scratch Rust reproduction of *"A single-tree algorithm to compute
//! the Euclidean minimum spanning tree on GPUs"* (Prokopenko, Sao,
//! Lebrun-Grandié — ICPP 2022, arXiv:2207.00514).
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`geometry`] — points, bounding boxes, metrics;
//! - [`morton`] — Z-order curve encodings;
//! - [`exec`] — Kokkos-like execution spaces (`Serial`, `Threads`, `GpuSim`);
//! - [`bvh`] — the linear bounding volume hierarchy;
//! - [`core`] — ★ the paper's single-tree Borůvka EMST;
//! - [`kdtree`] — the dual-tree Borůvka baseline (MLPACK-like);
//! - [`wspd`] — the WSPD / GeoFilterKruskal baseline (MemoGFK-like);
//! - [`hdbscan`] — mutual-reachability clustering on top of the EMST;
//! - [`shard`] — Morton-range sharded EMST (parallel per-shard solves +
//!   cross-shard Borůvka merge), with an out-of-core CSV path;
//! - [`serve`] — the long-lived serving engine: resident shard artifacts
//!   behind a `(content digest, K)`-keyed cache with LRU spill eviction,
//!   answering repeated EMST/subset/HDBSCAN/k-NN queries without
//!   re-running the local phase; every query takes `&self`, so N threads
//!   share one engine by reference with bit-identical answers;
//! - [`obs`] — the observability layer behind the serving engine:
//!   lock-free metrics (counters, gauges, log₂-bucketed latency
//!   histograms with p50/p95/p99), a bounded ring of per-query phase
//!   traces, a leveled text/JSON logger, and Prometheus-style + JSON
//!   exporters;
//! - [`datasets`] — the synthetic evaluation datasets;
//! - [`graph`] — the classical explicit-graph MST algorithms of the paper's
//!   Background section (Borůvka, Kruskal, Prim).
//!
//! ## Quickstart
//!
//! ```
//! use emst::core::{EmstConfig, SingleTreeBoruvka};
//! use emst::datasets::Kind;
//! use emst::exec::Threads;
//!
//! let points = Kind::Uniform.generate::<2>(1_000, 42);
//! let result = SingleTreeBoruvka::new(&points)
//!     .run(&Threads, &EmstConfig::default());
//! assert_eq!(result.edges.len(), points.len() - 1);
//! println!("EMST total weight: {}", result.total_weight);
//! ```

pub use emst_bvh as bvh;
pub use emst_core as core;
pub use emst_datasets as datasets;
pub use emst_exec as exec;
pub use emst_geometry as geometry;
pub use emst_graph as graph;
pub use emst_hdbscan as hdbscan;
pub use emst_kdtree as kdtree;
pub use emst_morton as morton;
pub use emst_obs as obs;
pub use emst_serve as serve;
pub use emst_shard as shard;
pub use emst_wspd as wspd;
