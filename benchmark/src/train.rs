//! The training rounds: one encoded batch per round, fed to the three
//! training sessions and one direct prediction in rotating order.

use crate::spans::{iteration_profiles, IterationProfile};
use crate::workload::{Batches, Rig, Workload, METHODS};
use skipper_memprof::Category;
use skipper_obs::RingBufferSink;
use skipper_tensor::{Tensor, XorShiftRng};
use std::time::{Duration, Instant};

/// Rounds every run executes whatever its length. Peak bytes, losses, step
/// counts and FLOPs are taken from these rounds only, so for one seed they
/// are the same numbers on every run and every commit that leaves the
/// arithmetic alone.
pub const EXACT_ROUNDS: usize = 6;

/// Events the ring holds; one iteration of the longest workload emits a
/// few thousand.
const RING_CAPACITY: usize = 1 << 16;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one method did over the [`EXACT_ROUNDS`].
#[derive(Debug, Clone, Default)]
pub struct Exact {
    /// `BatchStats::peak_bytes()` of each round. Reported as the median:
    /// when two timesteps tie at Skipper's threshold one more step is
    /// recomputed and that round's peak is one step higher, which would
    /// make a maximum depend on the seed.
    pub peak_bytes: Vec<f64>,
    /// Per-category peaks of each round: activations, workspace.
    pub peak_activations: Vec<f64>,
    pub peak_workspace: Vec<f64>,
    /// Loss of the last exact round.
    pub loss_final: f64,
    pub recomputed_steps: u64,
    pub skipped_steps: u64,
    /// Kernel FLOPs and bytes moved per iteration (mean over the rounds).
    pub flops_per_iter: f64,
    pub bytes_per_iter: f64,
}

#[derive(Debug, Default)]
pub struct MethodSamples {
    /// Encode + `train_batch` wall of rounds without a sink, ms.
    pub step_ms: Vec<f64>,
    /// The same for rounds with the ring sink installed.
    pub traced_step_ms: Vec<f64>,
    /// `train_batch` wall alone of the rounds in `profiles`, ms.
    pub traced_wall_ms: Vec<f64>,
    /// Phase split of every traced iteration.
    pub profiles: Vec<IterationProfile>,
    /// Events the sink received per traced iteration.
    pub events: Vec<f64>,
    /// Tensor allocations and frees per traced iteration within the exact
    /// rounds (session thread).
    pub alloc_events: Vec<f64>,
    pub exact: Exact,
}

#[derive(Debug, Default)]
pub struct TrainResult {
    pub rounds: usize,
    pub methods: [MethodSamples; 3],
    pub predict_ms: Vec<f64>,
    pub encode_ms: Vec<f64>,
    /// Spikes per input element, per exact round.
    pub input_density: Vec<f64>,
    /// Largest relative difference between the checkpointed and the BPTT
    /// loss over the exact rounds. The two sessions apply gradients that
    /// agree to rounding only, so this is about 1e-9 — until one spike
    /// flips (on a few seeds within these rounds, on every seed some tens
    /// of rounds later) and the trajectories part for good. Reported, not
    /// checked: only the first iteration, from identical weights, must
    /// agree bit for bit.
    pub ckpt_loss_drift: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub violations: Vec<String>,
}

/// The round loop's state between slices of a run.
pub struct Trainer<'a> {
    w: &'a Workload,
    trace: bool,
    batches: Batches,
    rng: XorShiftRng,
    round: usize,
    /// Wall time spent in rounds so far.
    spent: Duration,
    /// The previous round's batch, kept alive one round longer. The engine
    /// hands its workers clones of the input tensors, and a worker that is
    /// descheduled right after reporting back drops its clone late. If that
    /// clone is the last reference, the storage is released on the worker
    /// thread, and the thread-local memory tracker of the session thread
    /// counts the batch as live for the rest of the process: peak bytes on
    /// `sharded` then read one batch higher from some round on, a different
    /// round every run. A session's workers finish with a batch before they
    /// take the next, so one round later the last reference is ours.
    previous: Option<Vec<Tensor>>,
    out: TrainResult,
}

impl<'a> Trainer<'a> {
    pub fn new(w: &'a Workload, rig: &Rig, seed: u64, trace: bool) -> Trainer<'a> {
        Trainer {
            w,
            trace,
            batches: Batches::new(rig.data.len(), w.batch, seed),
            rng: XorShiftRng::new(seed ^ 0xE4C0DE),
            round: 0,
            spent: Duration::ZERO,
            previous: None,
            out: TrainResult::default(),
        }
    }

    /// Run rounds until `total` has been spent in rounds since the run
    /// began (a slice that overshoots shortens the next one), and until
    /// [`EXACT_ROUNDS`] are done. The very first round warms up and is not
    /// timed. With `trace`, every even round runs with a ring sink
    /// installed and is profiled; odd rounds run without, so the same
    /// process yields the tracing overhead.
    pub fn run_until(&mut self, rig: &mut Rig, total: Duration) {
        while self.round < EXACT_ROUNDS || self.spent < total {
            let start = Instant::now();
            self.one_round(rig);
            self.spent += start.elapsed();
            self.round += 1;
        }
    }

    pub fn finish(mut self) -> TrainResult {
        self.out.rounds = self.round;
        self.out
    }

    fn one_round(&mut self, rig: &mut Rig) {
        let (w, round, trace) = (self.w, self.round, self.trace);
        let out = &mut self.out;
        let timed = round > 0;
        let exact = round < EXACT_ROUNDS;
        let encode_start = Instant::now();
        let (inputs, labels) =
            rig.data
                .spikes(&self.batches.next_indices(), w.timesteps, &mut self.rng);
        let encode = ms(encode_start.elapsed());
        if timed {
            out.encode_ms.push(encode);
        }
        if exact {
            let elements: usize = inputs.iter().map(|t| t.numel()).sum();
            out.input_density
                .push(inputs.iter().map(|t| t.sum()).sum::<f64>() / elements as f64);
        }

        let ring = (trace && round % 2 == 0).then(|| {
            let (sink, handle) = RingBufferSink::new(RING_CAPACITY);
            (skipper_obs::add_sink(Box::new(sink)), handle)
        });
        let mut losses = [f64::NAN; 3];
        for slot in 0..4 {
            let m = (round + slot) % 4;
            out.attempted += 1;
            if m == 3 {
                let t = Instant::now();
                let prediction = rig.infer.predict(&inputs);
                let wall = ms(t.elapsed());
                match prediction {
                    Ok(p) if p.logits.data().iter().all(|x| x.is_finite()) => {
                        if timed {
                            out.predict_ms.push(wall);
                        }
                    }
                    _ => out.failed += 1,
                }
                continue;
            }
            if let Some((_, handle)) = &ring {
                handle.clear();
                if exact {
                    skipper_memprof::enable_event_log();
                }
            }
            let t = Instant::now();
            let result = rig.sessions[m].try_train_batch(&inputs, &labels);
            let wall = ms(t.elapsed());
            let samples = &mut out.methods[m];
            if let Some((_, handle)) = &ring {
                if exact {
                    samples
                        .alloc_events
                        .push(skipper_memprof::take_events().len() as f64);
                }
                let events = handle.snapshot();
                if timed {
                    samples.events.push(events.len() as f64);
                    samples.profiles.extend(iteration_profiles(&events));
                    samples.traced_wall_ms.push(wall);
                }
            }
            let stats = match result {
                Ok(stats) if stats.loss.is_finite() => stats,
                Ok(stats) => {
                    out.failed += 1;
                    out.violations
                        .push(format!("round {round} {}: loss {}", METHODS[m], stats.loss));
                    continue;
                }
                Err(e) => {
                    out.failed += 1;
                    out.violations
                        .push(format!("round {round} {}: {e}", METHODS[m]));
                    continue;
                }
            };
            losses[m] = stats.loss;
            if timed {
                if ring.is_some() {
                    samples.traced_step_ms.push(encode + wall);
                } else {
                    samples.step_ms.push(encode + wall);
                }
            }
            if m == 2
                && (stats.skipped_steps == 0
                    || stats.recomputed_steps + stats.skipped_steps != w.timesteps)
            {
                out.violations.push(format!(
                    "round {round}: skipper recomputed {} + skipped {} of T={}",
                    stats.recomputed_steps, stats.skipped_steps, w.timesteps
                ));
            }
            if exact {
                let e = &mut samples.exact;
                e.peak_bytes.push(stats.peak_bytes() as f64);
                e.peak_activations
                    .push(stats.mem.peak(Category::Activations) as f64);
                e.peak_workspace
                    .push(stats.mem.peak(Category::Workspace) as f64);
                e.loss_final = stats.loss;
                e.recomputed_steps += stats.recomputed_steps as u64;
                e.skipped_steps += stats.skipped_steps as u64;
                e.flops_per_iter += stats.ops.total_flops() / EXACT_ROUNDS as f64;
                e.bytes_per_iter += stats.ops.total_bytes() / EXACT_ROUNDS as f64;
            }
        }
        if let Some((id, _)) = ring {
            skipper_obs::remove_sink(id);
        }
        let drift = ((losses[1] - losses[0]) / losses[0]).abs();
        if exact && drift.is_finite() {
            out.ckpt_loss_drift = out.ckpt_loss_drift.max(drift);
        }
        self.previous = Some(inputs);
    }
}
