//! Device-memory accounting and hardware cost models.
//!
//! The Skipper paper ([Singh et al., MICRO 2022]) measures three system-level
//! quantities while training spiking neural networks on NVIDIA GPUs:
//!
//! 1. **peak tensor memory by category** (activations / input / weights /
//!    weight gradients / optimizer state / other) via PyTorch's
//!    `max_memory_allocated()`,
//! 2. **overall device memory** (tensors + framework cache + CUDA context)
//!    via `nvidia-smi` / `pynvml`,
//! 3. **training wall time** on the device.
//!
//! This crate is the Rust substrate that stands in for that measurement
//! stack. It provides:
//!
//! * [`tracker`] — byte-exact live/peak accounting of every tensor
//!   allocation in the process, tagged with a [`Category`] taken from a
//!   scoped guard (the analogue of `max_memory_allocated`, but by category);
//! * [`alloc_model`] — an event-driven model of a PyTorch-style caching
//!   allocator (512 B rounding, block reuse, high-watermark "reserved"
//!   bytes), the analogue of `max_memory_reserved`;
//! * [`device`] — device presets (A100-80GB, Jetson Nano, …) holding the
//!   CUDA-context constant, memory capacity and compute/bandwidth figures;
//! * [`latency`] — an analytic GPU latency model (`launch overhead +
//!   max(flops/peak, bytes/bandwidth)` per op) fed by an op log that the
//!   tensor kernels populate, which reproduces the batch-size amortisation
//!   behaviour of the paper's Figs. 3(e,f), 10 and 11;
//! * [`parallel`] — a small data-parallel cost model for the 4-GPU
//!   experiment of Fig. 4(b).
//!
//! Everything here is deterministic and pure-CPU; see `DESIGN.md` at the
//! repository root for the substitution argument.
//!
//! # Example
//!
//! ```
//! use skipper_memprof::{Category, CategoryGuard, Registration, snapshot, reset_peaks};
//!
//! reset_peaks();
//! let _weights = {
//!     let _g = CategoryGuard::new(Category::Weights);
//!     Registration::new(1024) // a tensor of 1 KiB is born under Weights
//! };
//! let snap = snapshot();
//! assert_eq!(snap.live(Category::Weights), 1024);
//! assert_eq!(snap.peak(Category::Weights), 1024);
//! ```
//!
//! [Singh et al., MICRO 2022]: https://doi.org/10.1109/MICRO56248.2022.00047
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod alloc_model;
pub mod category;
pub mod device;
pub mod latency;
pub mod parallel;
pub mod timeline;
pub mod tracker;

pub use alloc_model::{AllocStats, CachingAllocator};
pub use category::Category;
pub use device::DeviceModel;
pub use latency::{
    pause_op_log, record_op, take_op_log, LatencyModel, OpKind, OpLog, OpLogPause, OpRecord,
};
pub use parallel::{DataParallelModel, ParallelStepCost};
pub use timeline::{downsample, sparkline, timeline_from_events, TimelinePoint};
pub use tracker::{
    current_category, enable_event_log, inject_pressure, injected_pressure, publish_peaks,
    release_pressure, reset_all, reset_peaks, snapshot, take_events, AllocEvent, CategoryGuard,
    MemorySnapshot, Registration,
};
