//! # skipper
//!
//! A from-scratch Rust reproduction of **"Skipper: Enabling efficient SNN
//! training through activation-checkpointing and time-skipping"**
//! (Singh et al., MICRO 2022).
//!
//! Training spiking neural networks with backpropagation-through-time
//! stores every layer's state for every timestep, so activation memory
//! grows linearly with the simulation horizon `T` and dominates device
//! memory. This workspace implements the paper's two remedies and
//! everything they stand on:
//!
//! * **temporal activation checkpointing** — save the neuron state at `C`
//!   boundaries, re-execute one segment at a time during the backward pass
//!   (`O(T/C) + O(C)` memory, one extra forward pass);
//! * **Skipper** — monitor the per-timestep spike activity during the
//!   first forward pass and skip the recomputation (and backward) of
//!   low-activity timesteps entirely, removing the overhead and shrinking
//!   memory again with little accuracy cost.
//!
//! The facade re-exports the sub-crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `skipper-tensor` | dense tensors, conv/matmul/pool kernels |
//! | [`autograd`] | `skipper-autograd` | reverse-mode tape, surrogate spikes |
//! | [`obs`] | `skipper-obs` | structured tracing, metrics, Perfetto trace export |
//! | [`memprof`] | `skipper-memprof` | memory accounting, allocator/device/latency models |
//! | [`snn`] | `skipper-snn` | LIF neurons, layers, topologies, encoders, optimizers |
//! | [`data`] | `skipper-data` | synthetic CIFAR / DVS-Gesture / N-MNIST |
//! | [`core`] | `skipper-core` | the five training methods + instrumentation |
//!
//! # Example
//!
//! Train a small SNN with Skipper and watch memory and skipping at work:
//!
//! ```
//! use skipper::prelude::*;
//!
//! let net = custom_net(&ModelConfig {
//!     input_hw: 8,
//!     width_mult: 0.25,
//!     ..ModelConfig::default()
//! });
//! let mut session = TrainSession::builder(
//!     net,
//!     Method::Skipper { checkpoints: 2, percentile: 50.0 },
//!     16,
//! )
//! .optimizer(Box::new(Adam::new(1e-3)))
//! .build()
//! .expect("valid method for this network and horizon");
//! let mut rng = XorShiftRng::new(7);
//! let frames = Tensor::rand([2, 3, 8, 8], &mut rng);
//! let spikes = PoissonEncoder::default().encode(&frames, 16, &mut rng);
//! let stats = session.train_batch(&spikes, &[0, 1]);
//! assert!(stats.skipped_steps > 0);
//! ```

pub use skipper_autograd as autograd;
pub use skipper_core as core;
pub use skipper_data as data;
pub use skipper_memprof as memprof;
pub use skipper_obs as obs;
pub use skipper_snn as snn;
pub use skipper_tensor as tensor;

/// One-stop imports for the common training workflow: build a session with
/// [`TrainSession::builder`], feed it encoded spike batches, read the
/// stats.
///
/// ```
/// use skipper::prelude::*;
///
/// let net = custom_net(&ModelConfig::default());
/// let session = TrainSession::builder(net, Method::Bptt, 8)
///     .workers(1)
///     .build()
///     .unwrap();
/// assert_eq!(session.timesteps(), 8);
/// ```
pub mod prelude {
    pub use skipper_core::{
        BatchStats, EpochStats, EvalStats, InferSession, InferSkip, Method, MethodError,
        Prediction, SamMetric, SentinelConfig, SessionBuilder, SkipPolicy, SkipperError,
        TrainSession,
    };
    pub use skipper_snn::{
        custom_net, lenet5, vgg5, Adam, Encoder, ModelConfig, Optimizer, PoissonEncoder, Sgd,
        SpikingNetwork,
    };
    pub use skipper_tensor::{Tensor, XorShiftRng};
}
