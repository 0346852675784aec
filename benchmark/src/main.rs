//! The repository benchmark. One command runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload conv_dense --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). Everything else
//! goes to standard error. See README.md for what each workload is for and
//! which layer each metric belongs to.

mod hostinfo;
mod pin;
mod probes;
mod serve;
mod spans;
mod stats;
mod train;
mod workload;

use pin::Pinned;
use serve::ServeResult;
use skipper_obs::RingBufferSink;
use spans::Phase;
use stats::{mean, p50, quantile, supported_tail};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use train::{TrainResult, Trainer};
use workload::{build_session, Rig, Workload, METHODS, WORKLOADS};

/// Times the workload is set up per run; `setup_s` is the median.
const SETUPS: usize = 3;
/// Alternations of training and serving per run.
const SLICES: usize = 8;
/// Share of `--seconds` one per-layer probe may use (traced runs).
const PROBE_SHARE: f64 = 0.01;

/// Named values with units, in the order they were measured.
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// # Panics
    ///
    /// Panics on a non-finite value: JSON cannot carry it and a metric
    /// that is not a number is a bug in the benchmark.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload NAME is required")?,
        seed: seed.ok_or("--seed N is required")?,
        seconds: seconds.ok_or("--seconds S is required")?,
        trace: trace.ok_or("--trace 0|1 is required")?,
    })
}

/// On a sharded workload, two more builds from the same seed must give
/// bit-identical losses.
fn sharded_runs_repeat(w: &Workload, rig: &Rig, seed: u64) -> Result<(), String> {
    let mut rng = skipper_tensor::XorShiftRng::new(seed);
    let (inputs, labels) = rig
        .data
        .spikes(&rig.data.spread(w.batch), w.timesteps, &mut rng);
    for (m, name) in METHODS.iter().enumerate() {
        let mut losses = Vec::new();
        for _ in 0..2 {
            let mut session = build_session(w, seed, &rig.thresholds, w.method(m), w.workers);
            let first = session.train_batch(&inputs, &labels).loss;
            let second = session.train_batch(&inputs, &labels).loss;
            losses.push([first.to_bits(), second.to_bits()]);
        }
        if losses[0] != losses[1] {
            return Err(format!(
                "{name} at {} workers: two builds from seed {seed} disagree: {losses:x?}",
                w.workers
            ));
        }
    }
    Ok(())
}

fn end_to_end(setup_s: &[f64], train: &TrainResult, serve: &ServeResult, out: &mut Metrics) {
    out.put("setup_s", p50(setup_s), "s");
    for (name, m) in METHODS.iter().zip(&train.methods) {
        out.put(format!("{name}_step_ms_p50"), p50(&m.step_ms), "ms");
    }
    for (name, m) in METHODS.iter().zip(&train.methods) {
        out.put(
            format!("{name}_peak_bytes"),
            p50(&m.exact.peak_bytes),
            "bytes",
        );
    }
    out.put("predict_ms_p50", p50(&train.predict_ms), "ms");
    out.put("serve_req_per_s", p50(&serve.slice_req_per_s), "1/s");
    out.put("serve_latency_ms_p50", p50(&serve.latency_ms), "ms");
}

fn per_layer(train: &TrainResult, serve: &ServeResult, batches: f64, out: &mut Metrics) {
    out.put("snn.input_density", mean(&train.input_density), "ratio");
    for (name, m) in METHODS.iter().zip(&train.methods) {
        let iterations = m.profiles.len().max(1) as f64;
        for phase in Phase::ALL {
            let total: f64 = m.profiles.iter().map(|p| p.phase(phase)).sum();
            out.put(
                format!("core.phase.{}_ms.{name}", phase.label()),
                total / iterations / 1e3,
                "ms",
            );
        }
        out.put(
            format!("core.flops_per_iter.{name}"),
            m.exact.flops_per_iter,
            "FLOP",
        );
        out.put(
            format!("core.bytes_per_iter.{name}"),
            m.exact.bytes_per_iter,
            "bytes",
        );
        out.put(
            format!("core.loss_final.{name}"),
            m.exact.loss_final,
            "nats",
        );
        out.put(
            format!("memprof.peak_bytes.activations.{name}"),
            p50(&m.exact.peak_activations),
            "bytes",
        );
        out.put(
            format!("memprof.peak_bytes.workspace.{name}"),
            p50(&m.exact.peak_workspace),
            "bytes",
        );
        out.put(
            format!("memprof.alloc_events_per_iter.{name}"),
            mean(&m.alloc_events),
            "count",
        );
    }
    out.put("core.ckpt_loss_drift", train.ckpt_loss_drift, "ratio");
    let skipper = &train.methods[2].exact;
    out.put(
        "core.recomputed_steps",
        skipper.recomputed_steps as f64,
        "count",
    );
    out.put("core.skipped_steps", skipper.skipped_steps as f64, "count");
    let step = |m: usize| p50(&train.methods[m].step_ms);
    out.put("core.ckpt_over_bptt_x", step(1) / step(0), "x");
    out.put("core.skipper_over_ckpt_x", step(2) / step(1), "x");
    out.put("core.skipper_over_bptt_x", step(2) / step(0), "x");
    let traced: f64 = train.methods.iter().map(|m| p50(&m.traced_step_ms)).sum();
    let plain: f64 = (0..METHODS.len()).map(step).sum();
    out.put("obs.trace_overhead_x", traced / plain, "x");
    let events: Vec<f64> = train
        .methods
        .iter()
        .flat_map(|m| m.events.iter().copied())
        .collect();
    out.put("obs.events_per_iter", mean(&events), "count");
    out.put(
        "serve.batch_occupancy",
        serve.latency_ms.len() as f64 / batches,
        "req/batch",
    );
    out.put(
        "serve.latency_ms_p95",
        quantile(&serve.latency_ms, 0.95),
        "ms",
    );
}

/// The highest tail percentile `values` supports, for the report.
fn tail_text(values: &[f64]) -> String {
    supported_tail(values).map_or("no tail percentile supported".to_string(), |(pct, v)| {
        format!("p{pct} {v:.2} ms")
    })
}

fn report(w: &Workload, args: &Args, train: &TrainResult, serve: &ServeResult) {
    eprintln!(
        "workload {} seed {} seconds {} trace {}: {} rounds, {} requests ({} ok)",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        train.rounds,
        serve.sent,
        serve.latency_ms.len()
    );
    for (name, m) in METHODS.iter().zip(&train.methods) {
        let tail = tail_text(&m.step_ms);
        eprintln!(
            "  {name:8} step p50 {:.2} ms over {} samples ({tail}); peak {} bytes; loss {}",
            p50(&m.step_ms),
            m.step_ms.len(),
            p50(&m.exact.peak_bytes),
            m.exact.loss_final
        );
        if !m.profiles.is_empty() {
            let phases: f64 = m.profiles.iter().map(|p| p.wall_us as f64).sum::<f64>() / 1e3;
            let wall: f64 = m.traced_wall_ms.iter().sum();
            eprintln!(
                "  {name:8} phases sum to {:.1} % of the traced train_batch wall ({} iterations)",
                100.0 * phases / wall,
                m.profiles.len()
            );
        }
    }
    eprintln!(
        "  predict  p50 {:.2} ms over {} samples; checkpointed loss within {:.1e} of bptt over the exact rounds",
        p50(&train.predict_ms),
        train.predict_ms.len(),
        train.ckpt_loss_drift
    );
    let tail = tail_text(&serve.latency_ms);
    eprintln!(
        "  serve    {:.1} req/s, latency p50 {:.2} ms ({tail}){}",
        p50(&serve.slice_req_per_s),
        p50(&serve.latency_ms),
        if supported_tail(&serve.latency_ms).is_some_and(|(pct, _)| pct >= 95) {
            ""
        } else {
            "; fewer than 10 samples beyond p95"
        }
    );
}

/// What one run prints as its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Outcome {
    fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

fn run(args: &Args, pinned: &Pinned) -> Result<Outcome, String> {
    let w = args.workload;
    let (steal0, ticks0) = hostinfo::cpu_ticks(pinned.cpu);

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take()); // joins the previous gateway's threads, untimed
        let t = Instant::now();
        rig = Some(workload::setup(w, args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("SETUPS is at least one");
    let bodies = serve::build_bodies(w, &rig, args.seed);

    // A traced run trains half as long and spends the time on probes. It
    // serves as long as an untraced run, so that the tail percentile has
    // the same number of samples beyond it.
    let train_scale = if args.trace { 0.5 } else { 1.0 };
    let train_slice = args.seconds * w.train_share * train_scale / SLICES as f64;
    let serve_slice = args.seconds * (1.0 - w.train_share) / SLICES as f64;

    // The host's speed drifts over seconds, so training and serving
    // alternate in slices: every metric samples the whole run, and a
    // disturbed slice moves a median less than it would move a total.
    let mut trainer = Trainer::new(w, &rig, args.seed, args.trace);
    let mut served = ServeResult::default();
    let batches_before = skipper_obs::registry().counter("serve.batches");
    for slice in 1..=SLICES {
        trainer.run_until(
            &mut rig,
            Duration::from_secs_f64(train_slice * slice as f64),
        );
        // The gateway counts its batches only while a sink is installed.
        let ring = args.trace.then(|| {
            let (sink, _handle) = RingBufferSink::new(1 << 12);
            skipper_obs::add_sink(Box::new(sink))
        });
        // What earlier slices overshot comes off this one.
        let budget = (serve_slice * slice as f64 - served.wall_s).max(serve_slice / 2.0);
        served.absorb(serve::run_clients(
            rig.addr,
            &bodies,
            Duration::from_secs_f64(budget),
        ));
        if let Some(id) = ring {
            skipper_obs::remove_sink(id);
        }
    }
    let batches = skipper_obs::registry().counter("serve.batches") - batches_before;
    let train = trainer.finish();

    let mut violations = train.violations.clone();
    // From identical weights the first forward pass, and so the loss, is
    // the same whatever the method does on the way back.
    let first = rig.warmup_loss[0];
    if !first.is_finite()
        || rig
            .warmup_loss
            .iter()
            .any(|l| l.to_bits() != first.to_bits())
    {
        violations.push(format!(
            "first iteration: losses {:?} of {METHODS:?} are not one finite bit pattern",
            rig.warmup_loss
        ));
    }
    if served.mismatched > 0 {
        violations.push(format!(
            "{} of {} answers differ from a direct prediction",
            served.mismatched,
            served.latency_ms.len()
        ));
    }
    if served.latency_ms.is_empty() {
        return Err("the gateway answered no request".into());
    }
    if w.workers > 1 {
        if let Err(e) = sharded_runs_repeat(w, &rig, args.seed) {
            violations.push(e);
        }
    }

    let mut metrics = Metrics(Vec::new());
    if args.trace {
        per_layer(&train, &served, batches, &mut metrics);
        let probe_budget = Duration::from_secs_f64(args.seconds * PROBE_SHARE);
        probes::layer_probes(
            w,
            &rig,
            pinned,
            &bodies,
            args.seed,
            probe_budget,
            &mut metrics,
        );
        let (user, sys) = hostinfo::cpu_seconds();
        let (steal1, ticks1) = hostinfo::cpu_ticks(pinned.cpu);
        metrics.put("proc.user_cpu_s", user, "s");
        metrics.put("proc.sys_cpu_s", sys, "s");
        metrics.put(
            "proc.max_rss_bytes",
            hostinfo::max_rss_bytes() as f64,
            "bytes",
        );
        metrics.put(
            "host.steal_share",
            (steal1 - steal0) / (ticks1 - ticks0).max(1.0),
            "ratio",
        );
        metrics.put(
            "host.cpus_allowed",
            f64::from(pinned.saved.count()),
            "count",
        );
    } else {
        end_to_end(&setup_s, &train, &served, &mut metrics);
    }

    report(w, args, &train, &served);
    for v in &violations {
        eprintln!("  CHECK FAILED: {v}");
    }
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted: train.attempted + served.sent,
        failed: train.failed + served.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    // Before anything else: no knob from the environment, one CPU.
    let vars = pin::skipper_env_vars();
    if !vars.is_empty() {
        eprintln!("refusing to run with {vars:?} set: they change what the library does");
        return ExitCode::from(2);
    }
    let pinned = match pin::pin_to_first_cpu() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot pin to one CPU: {e}");
            return ExitCode::from(2);
        }
    };
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args, &pinned) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// One short run of the smallest workload in each mode: the outputs
    /// check out, and the run prints exactly the metrics BENCHMARK.json
    /// declares for that mode, with the declared units.
    #[test]
    fn a_run_prints_what_benchmark_json_declares() {
        let spec: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names: Vec<&str> = spec["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());

        let pinned = pin::pin_to_first_cpu().expect("pin");
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let args = Args {
                workload: Workload::by_name("serve").expect("serve workload"),
                seed: 7,
                seconds: 0.5,
                trace,
            };
            let outcome = run(&args, &pinned).expect("run completes");
            assert!(outcome.correct);
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            let mut printed: Vec<(String, String)> = outcome
                .metrics
                .0
                .iter()
                .map(|(name, _, unit)| (name.clone(), unit.to_string()))
                .collect();
            let mut declared: Vec<(String, String)> = spec[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect();
            printed.sort();
            declared.sort();
            assert_eq!(printed, declared, "{key}");
            let reparsed: Value = serde_json::from_str(&outcome.to_json()).expect("output is JSON");
            assert_eq!(
                reparsed["metrics"].as_object().expect("metrics").len(),
                printed.len()
            );
        }
    }
}
