//! The spiking-neural-network substrate of the Skipper reproduction.
//!
//! The Skipper paper (MICRO 2022) trains deep convolutional SNNs — VGG5,
//! VGG11, ResNet20, LeNet, a custom network and (for the TBPTT-LBP
//! comparison) AlexNet — with BPTT and surrogate gradients. This crate
//! provides everything those experiments need *below* the training
//! algorithms:
//!
//! * [`lif`] — the discrete-time leaky-integrate-and-fire neuron of the
//!   paper's Eq. 1, with both a plain ("no-grad") step and a taped step for
//!   [`skipper_autograd::Graph`];
//! * [`params`] — the parameter store ([`ParamStore`]) and the per-graph
//!   parameter binder ([`ParamBinder`]) that let one set of weights be
//!   re-inserted into many short-lived tapes (the mechanism behind
//!   checkpoint segment re-execution);
//! * [`layers`] — convolutional and dense synapse layers with Kaiming
//!   initialisation;
//! * [`network`] — the [`SpikingNetwork`] container: modules, state
//!   handling, the per-timestep forward in both plain and taped form, and
//!   shape/cost introspection for the analytic memory model;
//! * [`models`] — constructors for the paper's topologies;
//! * [`encode`] — Poisson rate encoding of frame data (the paper's
//!   CIFAR-10/100 pipeline);
//! * [`loss`] — softmax cross-entropy on time-accumulated readout logits,
//!   returning the analytic `∂L/∂logits` used to seed tapes;
//! * [`optim`] — SGD(+momentum) and Adam (the paper trains with Adam).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod ann;
pub mod calibrate;
pub mod encode;
pub mod error;
pub mod layers;
pub mod lif;
pub mod loss;
pub mod models;
pub mod network;
pub mod optim;
pub mod params;
pub mod serialize;

pub use ann::{ann_logits_taped, ann_train_batch};
pub use calibrate::{calibrate_thresholds, set_threshold};
pub use encode::{Encoder, PoissonEncoder};
pub use error::SnnError;
pub use layers::{Conv2dLayer, LinearLayer};
pub use lif::{lif_step_infer, lif_step_taped, LifConfig};
pub use loss::{softmax_cross_entropy, softmax_cross_entropy_scaled, LossOutput, ShardLossOutput};
pub use models::{alexnet, custom_net, lenet5, resnet20, resnet34, vgg11, vgg5, ModelConfig};
pub use network::{
    LifUnit, Module, NetworkState, SpikingNetwork, StepCtx, StepOutput, TapedState, TapedStepOutput,
};
pub use optim::{Adam, Optimizer, OptimizerState, Sgd};
pub use params::{ParamBinder, ParamId, ParamStore, Parameter, ShardGrads};
pub use serialize::{crc32, load_params, save_params, ParamRecord};
