//! The Skipper paper's contribution: memory-efficient SNN-BPTT training.
//!
//! This crate implements, on top of the `skipper-snn` substrate, every
//! training regime the paper evaluates (Sections V–VII). They differ in
//! one thing that matters to the code — whether the first forward pass is
//! taped — so there are two cores:
//!
//! * **Taped first pass** (the private `windowed` module): windows of
//!   `trW` timesteps over gradient-isolated module blocks, one autodiff
//!   graph per (window, block), state carried across as detached values.
//!   The three baselines are window × block choices of that one loop:
//!   **baseline SNN-BPTT** ([`Method::Bptt`], Section III-B) is one window
//!   of `T` over one block, so its activation memory grows as `O(T)`;
//!   **truncated BPTT** ([`Method::Tbptt`], Section III-C) shortens the
//!   window; **TBPTT-LBP** ([`Method::TbpttLbp`], Guo et al. \[28\], the
//!   related-work baseline of Table II / Fig. 16) also cuts the network at
//!   the taps of its auxiliary classifiers ([`lbp`]).
//! * **Untaped first pass + recompute** ([`checkpoint`]): **temporal
//!   activation checkpointing** ([`Method::Checkpointed`], Section V) runs
//!   a gradient-free first forward pass that saves the neuron state at `C`
//!   boundaries; the backward pass re-executes one `T/C` segment at a time
//!   on a short-lived tape, handing `∂L/∂U` across boundaries. Memory is
//!   `O(T/C) + O(C)`, minimised at `C = √T` (Eq. 3), at the price of one
//!   extra forward pass (~33 %). **Skipper** ([`Method::Skipper`], Section
//!   VI) adds time-skipping: the Spike Activity Monitor ([`sam`]) records
//!   `s_t = Σ_l sum(o_t^l)` during the first pass; before re-executing a
//!   segment, the Spike-Sum-Threshold `SST_c = percentile({s_t}_c, p)` is
//!   formed and every timestep with `s_t < SST_c` is skipped outright — a
//!   shallower recomputed graph that removes the checkpointing overhead
//!   *and* shrinks memory further (Eq. 6), with the
//!   `(1 − p/100)·T/C ≥ L_n` bound of Eq. 7.
//!
//! [`runner::TrainSession`] wraps any of these behind one API and measures
//! what the paper measures: per-category peak tensor bytes, allocator
//! events, kernel logs (for the GPU latency model) and wall time.
//! [`analytic`] projects the same memory quantities from shapes alone, for
//! the configurations the paper itself extrapolates (Figs. 4 and 14).
//!
//! # Quickstart
//!
//! ```
//! use skipper_core::{Method, TrainSession};
//! use skipper_snn::{custom_net, Adam, ModelConfig, PoissonEncoder, Encoder};
//! use skipper_tensor::{Tensor, XorShiftRng};
//!
//! let net = custom_net(&ModelConfig {
//!     input_hw: 8,
//!     width_mult: 0.25,
//!     ..ModelConfig::default()
//! });
//! let mut session = TrainSession::builder(
//!     net,
//!     Method::Skipper { checkpoints: 2, percentile: 50.0 },
//!     16, // timesteps
//! )
//! .optimizer(Box::new(Adam::new(1e-3)))
//! .build()
//! .expect("the method is valid for this network and horizon");
//! let mut rng = XorShiftRng::new(1);
//! let frames = Tensor::rand([4, 3, 8, 8], &mut rng);
//! let spikes = PoissonEncoder::default().encode(&frames, 16, &mut rng);
//! let stats = session.train_batch(&spikes, &[0, 1, 2, 3]);
//! assert!(stats.loss.is_finite());
//! assert!(stats.skipped_steps > 0);
//! ```
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod analytic;
pub mod builder;
pub mod checkpoint;
pub mod cluster;
pub mod engine;
pub mod error;
pub mod governor;
pub mod infer;
pub mod lbp;
pub mod method;
pub mod resume;
pub mod runner;
pub mod sam;
mod shard;
pub mod stats;
pub mod transport;
mod windowed;

pub use analytic::{AnalyticBreakdown, AnalyticModel};
pub use builder::{SessionBuilder, WORKERS_ENV};
pub use cluster::{
    cluster_addr_from_env, run_worker, BackoffConfig, ClusterConfig, Coordinator, WorkerOptions,
    WorkerReport, CLUSTER_ADDR_ENV,
};
pub use error::SkipperError;
pub use governor::GovernorAction;
pub use infer::{InferSession, InferSkip, Prediction};
pub use lbp::LocalClassifiers;
pub use method::{Method, MethodError};
pub use resume::{read_snapshot, write_snapshot, SessionState};
pub use runner::{SentinelConfig, TrainSession};
pub use sam::{
    decide_skips, max_checkpoints, max_skippable_percentile, percentile, SamMetric, SkipDecisions,
    SkipPolicy, SpikeActivityMonitor,
};
pub use stats::{BatchStats, EpochStats, EvalStats};
pub use transport::{ChaosConfig, TcpConnector};
