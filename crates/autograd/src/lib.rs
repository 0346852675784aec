//! Define-by-run reverse-mode automatic differentiation for SNN-BPTT.
//!
//! This crate stands in for the slice of PyTorch autograd that the Skipper
//! paper (MICRO 2022) builds on. The central type is [`Graph`], an arena
//! tape: every forward op appends a node holding its output tensor (the
//! "stored activation") and, on [`Graph::backward`], gradients flow through
//! the nodes in reverse creation order.
//!
//! Three properties matter for reproducing the paper:
//!
//! 1. **The tape keeps what the backward reads.** A node value that some
//!    recorded op's backward reads (a layer's input, the membrane a spike
//!    fired from) is a saved activation and lives until the `Graph` is
//!    dropped; [`Graph::release`] drops every other value once the forward
//!    is done with it, keeping its shape. The memory tracker therefore sees
//!    what a framework's autograd would keep. Baseline BPTT keeps one graph
//!    for all `T` timesteps; checkpointed training builds and drops one
//!    small graph per time segment.
//! 2. **Seed-gradient injection.** [`Graph::seed_grad`] accumulates an
//!    external gradient into any node, which is how a later time segment
//!    hands `∂L/∂U`, `∂L/∂o` across a checkpoint boundary, and how the
//!    analytically computed loss gradient enters at the readout.
//! 3. **Surrogate spike gradients.** [`Graph::spike`] implements the
//!    non-differentiable Heaviside firing function with a
//!    [`Surrogate`] derivative on the backward pass (Neftci et al. 2019),
//!    and [`Graph::lif`]'s membrane reset uses the *detached* previous
//!    spikes, matching the paper's "the reset term is not taken into
//!    account for the gradient computation".
//!
//! # Example
//!
//! ```
//! use skipper_autograd::Graph;
//! use skipper_tensor::Tensor;
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(vec![2.0], [1]), true);
//! let y = g.scale(x, 3.0); // y = 3x
//! let z = g.mul(y, y); // z = 9x²; dz/dx = 18x = 36
//! g.seed_grad(z, Tensor::ones([1]));
//! g.backward();
//! assert_eq!(g.grad(x).unwrap().data(), &[36.0]);
//! ```
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod gradcheck;
pub mod graph;
pub mod surrogate;

pub use graph::{Graph, Var};
pub use surrogate::Surrogate;
