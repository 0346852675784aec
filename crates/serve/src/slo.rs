//! The SLO burn-rate engine: turns the gateway's raw latency histogram
//! and shed counters into "are we OK?" numbers.
//!
//! An SLO has two parts here: a **latency target** (the p99 of answered
//! requests must stay under `latency_p99_us`) and an **availability
//! target** (at least `availability_target` of attempts must be
//! answered). Each implies an error budget — 1 % of requests may be
//! slower, `1 - availability_target` of attempts may be shed — and the
//! *burn rate* is how fast a window of traffic spends that budget:
//!
//! ```text
//! latency_burn      = slow_fraction / (1 - 0.99)
//! availability_burn = shed_fraction / (1 - availability_target)
//! burn_rate         = max(latency_burn, availability_burn)
//! ```
//!
//! Burn 1.0 = exactly on budget; 10 = the budget disappears ten times
//! faster than allowed. The engine evaluates two rolling windows (short
//! and long) and publishes both as `serve.slo_burn_rate{window}` gauges
//! plus the `GET /slo` endpoint the gateway registers. Alerting should
//! require **both** windows to burn: the short window alone pages on
//! blips, the long window alone pages an hour late (see DESIGN.md §13).
//!
//! Only *involuntary* sheds count against availability: `queue_full`,
//! `deadline` and `shutdown`. Rate-limit and unknown-tenant rejections
//! are admission control doing its job — a tenant bursting past its
//! contract must not page the operator.

use crate::api::{SloStatus, SloWindowStatus};
use crate::lock_unpoisoned;
use skipper_obs::{gauge_set, labeled, Histogram};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shed reasons that spend the availability budget. The other typed
/// reasons (`rate_limited`, `unknown_tenant`) are deliberate rejections.
const INVOLUNTARY_SHEDS: [&str; 3] = ["queue_full", "deadline", "shutdown"];

/// The serving SLO: targets plus the evaluation cadence.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// The p99 of `serve.request_wall_us` must stay at or under this many
    /// microseconds. Defaults to the gateway's default request deadline
    /// (1 s): answering slower than clients wait is already failure.
    pub latency_p99_us: f64,
    /// Fraction of attempts that must be answered (0.99 = 99 %).
    pub availability_target: f64,
    /// Fast-burn window: catches "everything is on fire right now".
    pub short_window: Duration,
    /// Slow-burn window: catches "we are steadily leaking budget".
    pub long_window: Duration,
    /// How often the engine samples the registry and re-evaluates.
    pub eval_period: Duration,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            latency_p99_us: 1_000_000.0,
            availability_target: 0.99,
            short_window: Duration::from_secs(60),
            long_window: Duration::from_secs(600),
            eval_period: Duration::from_millis(250),
        }
    }
}

/// One registry reading the engine keeps in its ring.
#[derive(Debug, Clone)]
struct Sample {
    at: Instant,
    hist: Option<Histogram>,
    shed: f64,
}

fn read_registry_sample() -> Sample {
    let registry = skipper_obs::registry();
    let shed = INVOLUNTARY_SHEDS
        .iter()
        .map(|reason| registry.counter(&labeled("serve.shed", "reason", reason)))
        .sum();
    Sample {
        at: Instant::now(),
        hist: registry.histogram("serve.request_wall_us"),
        shed,
    }
}

/// Evaluate one window between two registry readings. Pure: testable
/// without threads or the global registry.
fn window_status(window: &str, old: &Sample, new: &Sample, cfg: &SloConfig) -> SloWindowStatus {
    let seconds = new.at.saturating_duration_since(old.at).as_secs_f64();
    // A registry cleared mid-window leaves no meaningful delta: the
    // window reports empty.
    let delta = match (&old.hist, &new.hist) {
        (_, None) => None,
        (None, Some(cur)) => Some(cur.clone()),
        (Some(prev), Some(cur)) => cur.since(prev),
    };
    let (requests, slow) = delta.map_or((0.0, 0.0), |d| {
        (d.count() as f64, d.count_above(cfg.latency_p99_us))
    });
    let shed = (new.shed - old.shed).max(0.0);
    let latency_budget = 1.0 - 0.99;
    let latency_burn = if requests > 0.0 {
        (slow / requests) / latency_budget
    } else {
        0.0
    };
    let availability_budget = (1.0 - cfg.availability_target).max(1e-9);
    let attempts = requests + shed;
    let availability_burn = if attempts > 0.0 {
        (shed / attempts) / availability_budget
    } else {
        0.0
    };
    SloWindowStatus {
        window: window.to_string(),
        seconds,
        burn_rate: latency_burn.max(availability_burn),
        latency_burn,
        availability_burn,
        requests,
        slow,
        shed,
    }
}

fn idle_status(cfg: &SloConfig) -> SloStatus {
    SloStatus {
        latency_p99_target_us: cfg.latency_p99_us,
        availability_target: cfg.availability_target,
        healthy: true,
        windows: Vec::new(),
    }
}

/// The running burn-rate engine; dropping it stops and joins the
/// evaluation thread.
#[derive(Debug)]
pub struct SloEngine {
    stop: Arc<AtomicBool>,
    status: Arc<Mutex<SloStatus>>,
    thread: Option<JoinHandle<()>>,
}

impl SloEngine {
    /// Start evaluating `cfg` against the global registry.
    pub fn start(cfg: SloConfig) -> SloEngine {
        let stop = Arc::new(AtomicBool::new(false));
        let status = Arc::new(Mutex::new(idle_status(&cfg)));
        let eval_stop = Arc::clone(&stop);
        let eval_status = Arc::clone(&status);
        let thread = std::thread::Builder::new()
            .name("skipper-serve-slo".into())
            .spawn(move || eval_loop(&cfg, &eval_stop, &eval_status))
            .ok();
        if thread.is_none() {
            eprintln!("skipper-serve: cannot spawn the SLO engine thread");
        }
        SloEngine {
            stop,
            status,
            thread,
        }
    }

    /// The latest evaluation (what `GET /slo` serves).
    pub fn status(&self) -> SloStatus {
        lock_unpoisoned(&self.status).clone()
    }
}

impl Drop for SloEngine {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn eval_loop(cfg: &SloConfig, stop: &AtomicBool, status: &Mutex<SloStatus>) {
    let mut ring: VecDeque<Sample> = VecDeque::new();
    let slice = Duration::from_millis(25);
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let now_sample = read_registry_sample();
        ring.push_back(now_sample.clone());
        // Keep one sample older than the long window so its delta always
        // spans the full window once the process has lived that long.
        while ring.len() > 2
            && ring
                .get(1)
                .is_some_and(|s| now_sample.at.duration_since(s.at) >= cfg.long_window)
        {
            ring.pop_front();
        }
        let oldest_at_least = |window: Duration| -> &Sample {
            ring.iter()
                .rev()
                .find(|s| now_sample.at.duration_since(s.at) >= window)
                .or_else(|| ring.front())
                .unwrap_or(&now_sample)
        };
        let windows = vec![
            window_status("short", oldest_at_least(cfg.short_window), &now_sample, cfg),
            window_status("long", oldest_at_least(cfg.long_window), &now_sample, cfg),
        ];
        for w in &windows {
            gauge_set(
                &labeled("serve.slo_burn_rate", "window", &w.window),
                w.burn_rate,
            );
        }
        let healthy = windows.iter().all(|w| w.burn_rate < 1.0);
        {
            let mut s = lock_unpoisoned(status);
            s.healthy = healthy;
            s.windows = windows;
        }
        // Sliced sleep keeps shutdown prompt.
        let mut waited = Duration::ZERO;
        while waited < cfg.eval_period {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let step = slice.min(cfg.eval_period - waited);
            std::thread::sleep(step);
            waited += step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at: Instant, walls: &[f64], shed: f64) -> Sample {
        let mut hist = Histogram::default();
        for &w in walls {
            hist.observe(w);
        }
        Sample {
            at,
            hist: Some(hist),
            shed,
        }
    }

    #[test]
    fn healthy_traffic_burns_below_one() {
        let cfg = SloConfig::default();
        let t0 = Instant::now();
        let old = sample(t0, &[], 0.0);
        // 100 requests around 5 ms, none near the 1 s target, nothing shed.
        let new = sample(t0 + Duration::from_secs(60), &[5_000.0; 100], 0.0);
        let w = window_status("short", &old, &new, &cfg);
        assert_eq!(w.requests, 100.0);
        assert!(w.burn_rate < 1.0, "burn {w:?}");
        assert_eq!(w.shed, 0.0);
    }

    #[test]
    fn slow_tail_breaches_the_latency_budget() {
        let cfg = SloConfig::default();
        let t0 = Instant::now();
        let old = sample(t0, &[], 0.0);
        // 10 % of requests land an order of magnitude over the target:
        // 10x the 1 % budget → burn 10.
        let mut walls = vec![5_000.0; 90];
        walls.extend(vec![20_000_000.0; 10]);
        let new = sample(t0 + Duration::from_secs(60), &walls, 0.0);
        let w = window_status("short", &old, &new, &cfg);
        assert!(
            w.latency_burn > 5.0,
            "a 10% slow tail must burn way past 1: {w:?}"
        );
        assert!(w.burn_rate >= w.latency_burn);
    }

    #[test]
    fn involuntary_sheds_burn_availability() {
        let cfg = SloConfig::default();
        let t0 = Instant::now();
        let old = sample(t0, &[], 2.0);
        // 95 answered + 5 shed in the window: 5 % unavailability over a
        // 1 % budget → availability burn 5.
        let new = sample(t0 + Duration::from_secs(60), &[5_000.0; 95], 7.0);
        let w = window_status("short", &old, &new, &cfg);
        assert_eq!(w.shed, 5.0);
        assert!((w.availability_burn - 5.0).abs() < 1e-9, "{w:?}");
        assert!(w.burn_rate >= 1.0);
    }

    #[test]
    fn empty_window_is_healthy() {
        let cfg = SloConfig::default();
        let t0 = Instant::now();
        let old = Sample {
            at: t0,
            hist: None,
            shed: 0.0,
        };
        let new = Sample {
            at: t0 + Duration::from_secs(60),
            hist: None,
            shed: 0.0,
        };
        let w = window_status("long", &old, &new, &cfg);
        assert_eq!(w.burn_rate, 0.0);
        assert_eq!(w.requests, 0.0);
    }

    #[test]
    fn registry_reset_mid_window_reports_empty_not_garbage() {
        let cfg = SloConfig::default();
        let t0 = Instant::now();
        let old = sample(t0, &[5_000.0; 50], 0.0);
        let new = sample(t0 + Duration::from_secs(5), &[5_000.0; 10], 0.0);
        let w = window_status("short", &old, &new, &cfg);
        assert_eq!(w.requests, 0.0, "shrunk count means a cleared registry");
        assert_eq!(w.burn_rate, 0.0);
    }

    #[test]
    fn count_above_interpolates_within_buckets() {
        // One bucket (100, 1000] with 10 samples; threshold 550 sits
        // halfway → 5 estimated above.
        let mut counts = [0u64; 10];
        counts[3] = 10;
        let hist = Histogram::from_parts(&counts, 5_500.0, 10, 100.0, 1000.0).unwrap();
        assert!((hist.count_above(550.0) - 5.0).abs() < 1e-9);
        // Threshold below the bucket: everything above.
        assert!((hist.count_above(50.0) - 10.0).abs() < 1e-9);
        // Threshold above the bucket: nothing.
        assert_eq!(hist.count_above(1000.0), 0.0);
        // Overflow bucket counts as above.
        let mut counts = [0u64; 10];
        counts[9] = 3;
        let overflow = Histogram::from_parts(&counts, 6e8, 3, 2e8, 2e8).unwrap();
        assert_eq!(overflow.count_above(1e9), 3.0);
    }

    #[test]
    fn engine_evaluates_and_serves_status() {
        let cfg = SloConfig {
            eval_period: Duration::from_millis(20),
            ..SloConfig::default()
        };
        let engine = SloEngine::start(cfg);
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if engine.status().windows.len() == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let status = engine.status();
        assert_eq!(status.windows.len(), 2, "engine never evaluated");
        assert_eq!(status.windows[0].window, "short");
        assert_eq!(status.windows[1].window, "long");
    }
}
