//! An oracle for the taped-first-pass methods. BPTT and TBPTT are one
//! algorithm — windows of `trW` timesteps, each on its own tape, state
//! carried across as detached values — with BPTT the limit `trW = T`. The
//! reference below states that algorithm as naively as the public
//! `skipper_snn`/`skipper_autograd` API allows and shares nothing with
//! `crates/core/src`; a `TrainSession` must reproduce it bit for bit.

use skipper_autograd::Graph;
use skipper_core::{Method, TrainSession};
use skipper_snn::{
    custom_net, softmax_cross_entropy_scaled, ModelConfig, Optimizer, ParamBinder, Sgd,
    SpikingNetwork, StepCtx, TapedState,
};
use skipper_tensor::{Tensor, XorShiftRng};

const T: usize = 12;
const BATCH: usize = 5;
const LR: f32 = 0.5;

fn net() -> SpikingNetwork {
    custom_net(&ModelConfig {
        input_hw: 8,
        width_mult: 0.25,
        seed: 23,
        ..ModelConfig::default()
    })
}

fn spike_inputs(seed: u64) -> Vec<Tensor> {
    let mut rng = XorShiftRng::new(seed);
    (0..T)
        .map(|_| Tensor::rand([BATCH, 3, 8, 8], &mut rng).map(|x| (x > 0.6) as i32 as f32))
        .collect()
}

fn labels() -> Vec<usize> {
    (0..BATCH).map(|i| (3 * i) % 10).collect()
}

/// One iteration of windowed BPTT: gradients accumulate in `net`; returns
/// the loss (mean over windows of the batch-mean loss) and the SAM record.
fn reference_step(
    net: &mut SpikingNetwork,
    inputs: &[Tensor],
    labels: &[usize],
    seed: u64,
    window: usize,
) -> (f64, Vec<f64>) {
    let batch = labels.len();
    let mut carried = net.init_state(batch);
    let (mut sam, mut window_losses) = (Vec::new(), Vec::new());
    for (w, chunk) in inputs.chunks(window).enumerate() {
        let mut g = Graph::new();
        let mut binder = ParamBinder::new(net.params());
        let mut state = TapedState::from_state(&mut g, &carried, false);
        let mut vars = Vec::new();
        for (i, input) in chunk.iter().enumerate() {
            let ctx = StepCtx::train(seed, w * window + i);
            let out = net.step_taped(&mut g, &mut binder, input, &mut state, &ctx);
            sam.push(out.spike_sum);
            vars.push(out.logits);
        }
        let steps = vars.len() as f32;
        let mut logits = g.value(vars[0]).clone();
        for &v in &vars[1..] {
            logits.add_assign(g.value(v));
        }
        logits.scale_assign(1.0 / steps);
        let loss = softmax_cross_entropy_scaled(&logits, labels, batch);
        let per_step = loss.dlogits.scale(1.0 / steps);
        for &v in &vars {
            g.seed_grad(v, per_step.clone());
        }
        g.backward();
        binder.harvest(&mut g, net.params_mut());
        carried = state.to_state(&g);
        window_losses.push(loss.per_sample.iter().sum::<f64>() / batch as f64);
    }
    let loss = window_losses.iter().sum::<f64>() / window_losses.len() as f64;
    (loss, sam)
}

fn session(method: Method, workers: usize) -> TrainSession {
    TrainSession::builder(net(), method, T)
        .optimizer(Box::new(Sgd::new(LR)))
        .workers(workers)
        .build()
        .expect("valid method")
}

fn weight_bits(net: &SpikingNetwork) -> Vec<Vec<u32>> {
    net.params()
        .iter()
        .map(|p| p.value().data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// `(method, the window the reference runs it with)`: plain BPTT, TBPTT at
/// the full horizon, and a ragged truncation (5 + 5 + 2).
fn cases() -> [(Method, usize); 3] {
    [
        (Method::Bptt, T),
        (Method::Tbptt { window: T }, T),
        (Method::Tbptt { window: 5 }, 5),
    ]
}

#[test]
fn the_unsharded_session_is_the_reference_bit_for_bit() {
    for (method, window) in cases() {
        let mut session = session(method.clone(), 1);
        let mut reference = net();
        let mut sgd = Sgd::new(LR);
        for i in 1..=3u64 {
            let inputs = spike_inputs(60 + i);
            let stats = session.train_batch(&inputs, &labels());
            let (loss, sam) = reference_step(&mut reference, &inputs, &labels(), i, window);
            sgd.step(reference.params_mut());
            reference.params_mut().zero_grads();
            assert_eq!(
                stats.loss.to_bits(),
                loss.to_bits(),
                "{method} loss, iteration {i}"
            );
            assert_eq!(
                session.last_sam_sums(),
                sam,
                "{method} SAM sums, iteration {i}"
            );
            assert_eq!(
                weight_bits(session.net()),
                weight_bits(&reference),
                "{method} weights after iteration {i}"
            );
        }
    }
}

/// A sharded step folds the weight gradient per shard first, so its weights
/// leave the reference's after one update; the forward pass of a first
/// iteration — loss and SAM record — is the reference's bit for bit.
#[test]
fn the_pool_reproduces_the_reference_forward_pass() {
    for (method, window) in cases() {
        for batch_seed in 70..73u64 {
            let inputs = spike_inputs(batch_seed);
            let mut session = session(method.clone(), 3);
            let stats = session.train_batch(&inputs, &labels());
            let (loss, sam) = reference_step(&mut net(), &inputs, &labels(), 1, window);
            assert_eq!(
                stats.loss.to_bits(),
                loss.to_bits(),
                "{method} loss, batch {batch_seed}"
            );
            assert_eq!(
                session.last_sam_sums(),
                sam,
                "{method} SAM sums, batch {batch_seed}"
            );
        }
    }
}
