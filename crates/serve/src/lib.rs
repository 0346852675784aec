//! `skipper-serve`: a multi-tenant inference gateway over
//! [`InferSession`](skipper_core::InferSession).
//!
//! Training amortizes kernel launches over large batches; serving gets
//! single-sample requests. The gateway recovers the batch efficiency by
//! **dynamic micro-batching**: admitted requests queue, and a batcher
//! thread coalesces compatible ones (same timestep count and shape) into
//! one forward pass — up to `max_batch` requests or `max_delay` of
//! waiting, and never past any request's deadline.
//!
//! The pieces, each its own module:
//!
//! * [`config`] — [`GatewayConfig`]/[`TenantConfig`];
//! * [`tenancy`] — token-bucket admission control: per-tenant rate
//!   limits answered with typed `429`s, so one noisy tenant cannot
//!   starve the rest;
//! * [`model`] — the hot-reloadable [`ModelPool`]: an atomic
//!   `Arc<InferSession>` swap keyed on the watched `.skw` file's stamp;
//! * [`api`] — the JSON wire types (`/v1/predict`, `/v1/tenants`,
//!   `/slo`) and the one-pass `/v1/predict` body decoder;
//! * [`slo`] — the [`SloEngine`]: rolling-window burn rates over the
//!   latency histogram and shed counters, published as
//!   `serve.slo_burn_rate{window}` gauges and the `GET /slo` endpoint;
//! * [`gateway`] — the [`Gateway`]: HTTP handlers on a
//!   [`skipper_obs::Router`], the queue, the batcher thread (which also
//!   polls a watched `.skw`) and the SLO thread.
//!
//! Everything rides the shared router redesign: registering on
//! [`skipper_obs::global_router()`] puts `/v1/predict` on the same
//! server as `/metrics` and `/cluster`; a private router isolates a
//! gateway instance completely (tests run several side by side).
//!
//! The paper's time-skipping transfers to serving as an optional
//! inference-time mode: serve a session built with
//! [`InferSession::with_skip`](skipper_core::InferSession::with_skip)
//! (`ModelPool::fixed(session.with_skip(..))`), and per micro-batch the
//! SST percentile of input spike activity early-exits quiet timesteps.
//! `tests/gateway.rs` holds the served skip count equal to a direct
//! session's; serving speed is the `serve` workload of `benchmark/`.
//!
//! ```
//! use skipper_core::InferSession;
//! use skipper_serve::{Gateway, GatewayConfig, ModelPool, TenantConfig};
//! use skipper_snn::{custom_net, ModelConfig};
//! use std::sync::Arc;
//!
//! let net = custom_net(&ModelConfig {
//!     input_hw: 8,
//!     width_mult: 0.25,
//!     ..ModelConfig::default()
//! });
//! let cfg = GatewayConfig {
//!     tenants: vec![TenantConfig::new("acme", 100.0, 100.0)],
//!     ..GatewayConfig::default()
//! };
//! let router = Arc::new(skipper_obs::Router::new());
//! let mut gateway = Gateway::start(
//!     cfg,
//!     ModelPool::fixed(InferSession::new(net)),
//!     Arc::clone(&router),
//! )
//! .expect("threads spawn");
//! let addr = gateway.bind("127.0.0.1:0").expect("loopback binds");
//! // POST /v1/predict and GET /v1/tenants now answer at `addr`.
//! # let _ = addr;
//! ```
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod api;
pub mod config;
pub mod gateway;
pub mod model;
pub mod slo;
pub mod tenancy;

pub use api::{
    PredictRequest, PredictResponse, SloStatus, SloWindowStatus, TenantStatus, TenantsResponse,
};
pub use config::{GatewayConfig, TenantConfig};
pub use gateway::Gateway;
pub use model::{ModelPool, NetFactory};
pub use slo::{SloConfig, SloEngine};
pub use tenancy::{Admission, AdmitError};

use std::sync::{Mutex, MutexGuard};

/// Lock a mutex, recovering from poisoning: gateway state (queue,
/// buckets, the model pointer) is always valid between single in-place
/// updates, so a panicking handler thread must not wedge the batcher.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
