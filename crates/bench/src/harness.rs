//! Per-run observability harness: one RAII guard that standardizes how
//! a bench bin (or one figure of `figures`) starts and ends its
//! instrumented life.
//!
//! [`BenchRun::start`] clears the metrics registry, installs a
//! [`NullSink`](skipper_obs::NullSink) (so the registry aggregates even
//! with no other sink) and honors the `SKIPPER_OBS`, `SKIPPER_OBS_ADDR`
//! and `SKIPPER_OBS_JSONL` environment knobs. Dropping the guard —
//! including on early return — stops the metrics endpoint and calls
//! [`skipper_obs::shutdown`] so file-backed sinks (JSONL, Chrome traces)
//! are never left truncated.
//!
//! The harness also owns the continuous profiler: `SKIPPER_PROF_HZ`
//! starts the span-stack sampler, and a profiled run writes its folded
//! stacks to `results/profile_<name>.folded` — ready for `flamegraph.pl`
//! or any collapsed-stack viewer.
//!
//! It records no timings: how fast the code is, is `benchmark/`'s
//! question.

/// RAII harness for one instrumented run; see the module docs.
#[derive(Debug)]
pub struct BenchRun {
    name: &'static str,
    server: Option<skipper_obs::MetricsServer>,
    profiler: Option<skipper_obs::Profiler>,
}

impl BenchRun {
    /// Start the harness. Call first thing and keep the guard alive to
    /// the end:
    ///
    /// ```no_run
    /// let _run = skipper_bench::BenchRun::start("fig03_time_vs_batch");
    /// // ... benchmark ...
    /// ```
    pub fn start(name: &'static str) -> BenchRun {
        skipper_obs::registry().clear();
        skipper_obs::add_sink(Box::new(skipper_obs::NullSink::new()));
        skipper_obs::init_from_env();
        skipper_obs::jsonl_from_env();
        let server = skipper_obs::serve_from_env();
        skipper_obs::profile::reset();
        BenchRun {
            name,
            server,
            profiler: skipper_obs::Profiler::from_env(),
        }
    }
}

impl Drop for BenchRun {
    fn drop(&mut self) {
        // Stop the sampler first so the folded export is final.
        if self.profiler.take().is_some() {
            let folded = skipper_obs::profile::folded_text();
            if !folded.is_empty() {
                let dir = skipper_report::results_dir();
                let path = dir.join(format!("profile_{}.folded", self.name));
                let write =
                    std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, folded));
                match write {
                    Ok(()) => println!("profile: {}", path.display()),
                    Err(err) => eprintln!(
                        "profile: failed to save profile_{}.folded: {err}",
                        self.name
                    ),
                }
            }
        }
        // Stop the endpoint before tearing the sinks down: its NullSink
        // keeps `enabled()` true until the very end of the run.
        self.server.take();
        skipper_obs::shutdown();
    }
}
