//! Gateway configuration: batching budgets and per-tenant rate limits.

use crate::slo::SloConfig;
use std::time::Duration;

/// One tenant's admission-control budget: a token bucket holding up to
/// `burst` tokens, refilled at `rate_per_sec`; each admitted request
/// spends one token.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantConfig {
    /// Tenant name as sent in the request body.
    pub name: String,
    /// Steady-state requests per second.
    pub rate_per_sec: f64,
    /// Bucket capacity: how far above the steady rate a burst may go.
    pub burst: f64,
}

impl TenantConfig {
    /// A tenant allowing `rate_per_sec` sustained and the same burst.
    pub fn new(name: impl Into<String>, rate_per_sec: f64, burst: f64) -> TenantConfig {
        TenantConfig {
            name: name.into(),
            rate_per_sec,
            burst,
        }
    }
}

/// Everything the gateway needs besides the model itself. Start from
/// [`GatewayConfig::default`] and set fields.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Micro-batch size cap: the batcher dispatches as soon as this many
    /// compatible requests are queued.
    pub max_batch: usize,
    /// Coalescing window: the oldest queued request never waits longer
    /// than this for company (its own deadline can cut the wait shorter).
    pub max_delay: Duration,
    /// Queue capacity; requests beyond it are shed with `503 overloaded`.
    pub queue_cap: usize,
    /// Default per-request deadline (a request may tighten it with
    /// `deadline_ms`). Requests that cannot be answered by their deadline
    /// are shed with `503 deadline`.
    pub deadline: Duration,
    /// The admission table. A request naming an unlisted tenant is
    /// rejected up front.
    pub tenants: Vec<TenantConfig>,
    /// How often the batcher polls the model pool's watched `.skw` for
    /// changes, at its first wake-up after each interval.
    pub reload_poll: Duration,
    /// The serving SLO the burn-rate engine evaluates; `None` disables
    /// the engine (no `/slo` endpoint, no `serve.slo_burn_rate` gauges).
    pub slo: Option<SloConfig>,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(5),
            queue_cap: 64,
            deadline: Duration::from_millis(1000),
            tenants: Vec::new(),
            reload_poll: Duration::from_millis(500),
            slo: Some(SloConfig::default()),
        }
    }
}

impl GatewayConfig {
    /// The configured tenant named `name`, if any.
    pub fn tenant(&self, name: &str) -> Option<&TenantConfig> {
        self.tenants.iter().find(|t| t.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = GatewayConfig::default();
        assert!(cfg.max_batch >= 1);
        assert!(cfg.queue_cap >= 1);
        assert!(cfg.tenant("nobody").is_none());
    }
}
