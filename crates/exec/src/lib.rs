//! Kokkos-like execution spaces for the `emst` workspace.
//!
//! The paper implements its algorithm on top of Kokkos, whose
//! `parallel_for` / `parallel_reduce` / `parallel_scan` patterns map the same
//! kernel source onto Serial, OpenMP, CUDA and HIP backends. This crate is
//! the Rust substitute:
//!
//! - [`Serial`] — plain loops (the paper's sequential results);
//! - [`Threads`] — kernels on one persistent worker pool whose threads
//!   claim blocks of the index range from a shared counter (the paper's
//!   multithreaded results);
//! - [`GpuSim`] — executes kernels on the same pool (bit-identical
//!   results) while recording [`KernelStats`]; an analytic [`DeviceModel`]
//!   converts the recorded work into a modeled GPU execution time. This is
//!   the documented substitution for the paper's A100/MI250X measurements —
//!   see the [`device`] module docs for the model and its calibration, and
//!   README's "Benches" section for how the figure benches use it.
//!
//! Algorithms in this workspace are written strictly in terms of
//! [`ExecSpace`], which forces the bulk-synchronous, kernel-per-phase
//! structure of the paper's implementation: no sequential shortcuts are
//! possible inside a kernel body.
//!
//! The crate also hosts the device-style atomic helpers
//! ([`atomic::AtomicF32Min`], [`atomic::AtomicU64Min`]…), the algorithm
//! instrumentation [`Counters`], and [`PhaseTimings`] used by the figure
//! harnesses.

pub mod atomic;
pub mod chaos;
pub mod counters;
pub mod device;
pub mod shared;
pub mod space;
pub mod timings;

pub use atomic::{AtomicF32Min, AtomicU64Min};
pub use chaos::ChaosSerial;
pub use counters::Counters;
pub use device::{DeviceModel, ModeledTime};
pub use shared::SyncUnsafeSlice;
pub use space::{ExecSpace, GpuSim, KernelStats, Serial, Threads};
pub use timings::PhaseTimings;
