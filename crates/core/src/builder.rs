//! [`SessionBuilder`]: the one-stop construction path for
//! [`TrainSession`].
//!
//! [`build`](SessionBuilder::build) runs the *full* [`Method`] validity
//! checks (segment arithmetic, Eq. 7's `(1 − p/100)·T/C ≥ L_n` bound,
//! window/tap sanity) up front — a bad configuration fails at construction
//! with a typed [`SkipperError::Method`], not at the first batch.
//!
//! The builder holds what fixes the session's structure: the optimizer,
//! the worker count and the cluster. Knobs that may change between
//! iterations (SAM metric, skip policy, sentinels, memory budget) are
//! setters on [`TrainSession`].
//!
//! ```
//! use skipper_core::{Method, TrainSession};
//! use skipper_snn::{custom_net, Adam, ModelConfig};
//!
//! let net = custom_net(&ModelConfig { input_hw: 8, width_mult: 0.25, ..ModelConfig::default() });
//! let session = TrainSession::builder(net, Method::Skipper { checkpoints: 2, percentile: 25.0 }, 8)
//!     .optimizer(Box::new(Adam::new(1e-3)))
//!     .workers(1)
//!     .build()
//!     .expect("valid configuration");
//! assert_eq!(session.workers(), 1);
//! ```

use crate::cluster::Coordinator;
use crate::error::SkipperError;
use crate::method::Method;
use crate::runner::TrainSession;
use skipper_snn::{Optimizer, SpikingNetwork};

/// Environment variable consulted for the worker count when
/// [`SessionBuilder::workers`] is not called explicitly (used by CI to
/// exercise the sharded engine across the whole test suite).
pub const WORKERS_ENV: &str = "SKIPPER_WORKERS";

/// Fluent configuration for a [`TrainSession`]; obtain one via
/// [`TrainSession::builder`] and finish with
/// [`build`](SessionBuilder::build).
pub struct SessionBuilder {
    net: SpikingNetwork,
    method: Method,
    timesteps: usize,
    optimizer: Option<Box<dyn Optimizer>>,
    workers: Option<usize>,
    cluster: Option<Coordinator>,
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("net", &self.net.name())
            .field("method", &self.method)
            .field("timesteps", &self.timesteps)
            .field("workers", &self.workers)
            .finish()
    }
}

impl SessionBuilder {
    pub(crate) fn new(net: SpikingNetwork, method: Method, timesteps: usize) -> SessionBuilder {
        SessionBuilder {
            net,
            method,
            timesteps,
            optimizer: None,
            workers: None,
            cluster: None,
        }
    }

    /// The weight optimizer (default: Adam at `1e-3`).
    pub fn optimizer(mut self, optimizer: Box<dyn Optimizer>) -> SessionBuilder {
        self.optimizer = Some(optimizer);
        self
    }

    /// Data-parallel worker threads. `1` (the default) runs the unsharded
    /// reference path on the session thread; `n ≥ 2` spawns the sharded
    /// engine, whose results are bit-identical for every `n ≥ 2` (see
    /// [`crate::engine`]). When not called, the `SKIPPER_WORKERS`
    /// environment variable is consulted before falling back to `1`.
    pub fn workers(mut self, workers: usize) -> SessionBuilder {
        self.workers = Some(workers);
        self
    }

    /// Run iterations over a distributed [`Coordinator`] instead of the
    /// in-process engine: shards are dispatched to connected
    /// `skipper-worker` processes (or threads dialing loopback) with
    /// results bit-identical to the local paths (see [`crate::cluster`]).
    /// Overrides [`workers`](SessionBuilder::workers).
    pub fn cluster(mut self, coordinator: Coordinator) -> SessionBuilder {
        self.cluster = Some(coordinator);
        self
    }

    /// Validate the configuration and construct the session.
    ///
    /// # Errors
    ///
    /// [`SkipperError::Method`] if the method fails its full validity
    /// checks for this network and horizon (Eq. 7, `T/C ≥ L_n`, window and
    /// tap sanity); [`SkipperError::Config`] for a zero worker count, or
    /// for a cluster session with a method the transport cannot carry
    /// (TBPTT-LBP's auxiliary classifiers).
    pub fn build(self) -> Result<TrainSession, SkipperError> {
        self.method.validate(&self.net, self.timesteps)?;
        self.assemble()
    }

    /// Construct the session **without** the up-front [`Method`] validity
    /// checks: a structurally runnable but paper-invalid configuration
    /// (e.g. one that violates Eq. 7's skip bound) surfaces its complaint
    /// at the first batch instead of at construction.
    ///
    /// This exists for boundary-condition studies — the edge-case suite
    /// deliberately runs configurations the validator rejects to observe
    /// what the mechanism does there. Everything else should call
    /// [`build`](SessionBuilder::build).
    ///
    /// # Errors
    ///
    /// [`SkipperError::Config`] for a zero worker count or an unsupported
    /// cluster/method combination; worker-pool spawn failures.
    pub fn build_unvalidated(self) -> Result<TrainSession, SkipperError> {
        self.assemble()
    }

    fn assemble(mut self) -> Result<TrainSession, SkipperError> {
        if let Some(cluster) = self.cluster.as_mut() {
            crate::shard::reject_lbp_over_wire(&self.method)?;
            cluster.set_horizon(self.timesteps);
        }
        let workers = match self.workers {
            Some(0) => return Err(SkipperError::Config("workers must be at least 1".into())),
            Some(n) => n,
            None => workers_from_env().unwrap_or(1),
        };
        let optimizer = self
            .optimizer
            .unwrap_or_else(|| Box::new(skipper_snn::Adam::new(1e-3)));
        TrainSession::assemble(
            self.net,
            optimizer,
            self.method,
            self.timesteps,
            workers,
            self.cluster,
        )
    }
}

/// The `SKIPPER_WORKERS` override, if set to a positive integer.
fn workers_from_env() -> Option<usize> {
    std::env::var(WORKERS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SkipperError;
    use skipper_snn::{custom_net, Adam, ModelConfig};

    fn net() -> SpikingNetwork {
        custom_net(&ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        })
    }

    #[test]
    fn build_validates_up_front() {
        // C > T is structurally impossible.
        let err = TrainSession::builder(net(), Method::Checkpointed { checkpoints: 20 }, 8)
            .build()
            .unwrap_err();
        assert!(matches!(err, SkipperError::Method(_)), "{err}");
        // Eq. 7: the percentile leaves fewer steps than the network depth.
        let err = TrainSession::builder(
            net(),
            Method::Skipper {
                checkpoints: 4,
                percentile: 99.0,
            },
            8,
        )
        .build()
        .unwrap_err();
        assert!(matches!(err, SkipperError::Method(_)), "{err}");
    }

    #[test]
    fn build_applies_every_knob() {
        let session = TrainSession::builder(
            net(),
            Method::Skipper {
                checkpoints: 2,
                percentile: 25.0,
            },
            8,
        )
        .optimizer(Box::new(Adam::new(5e-4)))
        .workers(2)
        .build()
        .expect("valid configuration");
        assert_eq!(session.workers(), 2);
        assert!((session.learning_rate() - 5e-4).abs() < 1e-9);
    }

    #[test]
    fn zero_workers_is_a_config_error() {
        let err = TrainSession::builder(net(), Method::Bptt, 8)
            .workers(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, SkipperError::Config(_)), "{err}");
    }
}
