//! Per-run observability harness: one RAII guard that standardizes how
//! a bench bin (or one figure of `figures`) starts and ends its
//! instrumented life.
//!
//! [`BenchRun::start`] clears the metrics registry, installs a
//! [`NullSink`](skipper_obs::NullSink) (so the registry aggregates even
//! with no other sink) and honors the `SKIPPER_OBS`, `SKIPPER_OBS_ADDR`
//! and `SKIPPER_OBS_JSONL` environment knobs. Dropping the guard —
//! including on early return — stops the metrics endpoint and calls
//! [`skipper_obs::shutdown`] so a JSONL sink is never left truncated.
//!
//! It records no timings: how fast the code is, is `benchmark/`'s
//! question.

/// RAII harness for one instrumented run; see the module docs.
#[derive(Debug)]
pub struct BenchRun {
    server: Option<skipper_obs::MetricsServer>,
}

impl BenchRun {
    /// Start the harness. Call first thing and keep the guard alive to
    /// the end:
    ///
    /// ```no_run
    /// let _run = skipper_bench::BenchRun::start();
    /// // ... benchmark ...
    /// ```
    pub fn start() -> BenchRun {
        skipper_obs::registry().clear();
        skipper_obs::add_sink(Box::new(skipper_obs::NullSink::new()));
        skipper_obs::init_from_env();
        skipper_obs::jsonl_from_env();
        BenchRun {
            server: skipper_obs::serve_from_env(),
        }
    }
}

impl Drop for BenchRun {
    fn drop(&mut self) {
        // Stop the endpoint before tearing the sinks down: its NullSink
        // keeps `enabled()` true until the very end of the run.
        self.server.take();
        skipper_obs::shutdown();
    }
}
