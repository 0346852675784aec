//! Dense `f32` tensors and the CPU compute kernels used by the Skipper SNN
//! training stack.
//!
//! This crate is the lowest-level compute substrate of the reproduction of
//! *Skipper: Enabling efficient SNN training through activation-checkpointing
//! and time-skipping* (MICRO 2022). It provides:
//!
//! * [`Tensor`] — a row-major, reference-counted, copy-on-write dense `f32`
//!   tensor whose backing storage is registered with
//!   [`skipper_memprof`], so that every byte of "device" memory the
//!   training algorithms touch is accounted for exactly;
//! * [`Shape`] — a small dimension vector with the usual helpers;
//! * elementwise/reduction kernels ([`Tensor::add`], [`Tensor::scale`],
//!   [`Tensor::sum`], …);
//! * [`matmul`](fn@matmul)/[`matmul_tn`]/[`matmul_nt`] — matrix products
//!   (the forward and the two backward variants) on one register-tiled
//!   kernel, compiled for the baseline target, AVX2 and AVX-512, of which
//!   each call runs the widest the CPU supports, with the same bits on
//!   every one;
//! * [`conv2d`] and friends — im2col-based 2-D convolution with the
//!   backward-by-input and backward-by-weight kernels;
//! * [`avg_pool2d`] — average pooling forward/backward;
//! * [`lif_fire`] — the leaky-integrate-and-fire step as one pass that
//!   also counts the spikes it emits;
//! * [`SpikeBits`] — a spike map packed one bit per element, the storage
//!   of checkpointed spikes and the cluster wire's spike encoding.
//!
//! Every kernel records its FLOP and byte counts with
//! [`skipper_memprof::record_op`], feeding the GPU latency model.
//!
//! # Example
//!
//! ```
//! use skipper_tensor::{matmul, Tensor};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
//! let b = Tensor::eye(2);
//! assert_eq!(matmul(&a, &b).data(), a.data());
//! ```
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod conv;
pub mod lif;
mod manip;
pub mod matmul;
pub mod pool;
pub mod random;
pub mod shape;
pub mod spike_bits;
pub mod tensor;

pub use conv::{conv2d, conv2d_backward_input, conv2d_backward_weight, Conv2dGrad, Conv2dSpec};
pub use lif::lif_fire;
pub use matmul::{matmul, matmul_nt, matmul_tn};
pub use pool::{avg_pool2d, avg_pool2d_backward};
pub use random::XorShiftRng;
pub use shape::Shape;
pub use spike_bits::SpikeBits;
pub use tensor::Tensor;
