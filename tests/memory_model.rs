//! Cross-crate validation of the memory accounting:
//!
//! * the analytic model (Eqs. 3 and 6) must agree with what the byte-exact
//!   tracker measures during real training — this is what licenses using
//!   the analytic model for the paper-scale projections of Figs. 4 and 14;
//! * the measured peaks must obey the paper's ordering
//!   (skipper < checkpointed < baseline) and scaling laws.

use skipper::core::{AnalyticModel, Method, TrainSession};
use skipper::memprof::{self as mp, Category};
use skipper::snn::{custom_net, lenet5, ModelConfig, Sgd, SpikingNetwork};
use skipper::tensor::{Tensor, XorShiftRng};

fn net() -> SpikingNetwork {
    custom_net(&ModelConfig {
        input_hw: 16,
        width_mult: 0.25,
        ..ModelConfig::default()
    })
}

fn inputs(t: usize, batch: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = XorShiftRng::new(seed);
    (0..t)
        .map(|_| Tensor::rand([batch, 3, 16, 16], &mut rng).map(|x| (x > 0.5) as i32 as f32))
        .collect()
}

/// Peak activation bytes measured while training one batch with `method`.
fn measured_activation_peak(method: Method, t: usize, batch: usize) -> u64 {
    let mut session = TrainSession::builder(net(), method, t)
        .optimizer(Box::new(Sgd::new(1e-3)))
        .workers(1)
        .build()
        .expect("valid method");
    let ins = inputs(t, batch, 42);
    let labels: Vec<usize> = (0..batch).map(|i| i % 10).collect();
    // Warm-up so optimizer state exists, then measure.
    let _ = session.train_batch(&ins, &labels);
    mp::reset_peaks();
    let stats = session.train_batch(&ins, &labels);
    stats.mem.peak(Category::Activations)
}

#[test]
fn analytic_model_matches_measured_bptt_peak() {
    // T = 24 keeps the tape term T·A dominant, as it is at the paper's
    // horizons. What the model leaves out — the initial state and the
    // backward's working set — does not grow with T
    // (`baseline_memory_scales_linearly_with_t_and_b`).
    let (t, batch) = (24usize, 4usize);
    let n = net();
    let model = AnalyticModel::new(&n);
    let predicted = model.activation_bytes(&Method::Bptt, t, batch);
    let measured = measured_activation_peak(Method::Bptt, t, batch);
    let ratio = measured as f64 / predicted as f64;
    assert!(
        (0.9..1.3).contains(&ratio),
        "BPTT: predicted {predicted}, measured {measured}, ratio {ratio:.3}"
    );
}

#[test]
fn analytic_model_matches_measured_checkpointed_peak() {
    let (t, batch) = (16usize, 4usize);
    let n = net();
    let model = AnalyticModel::new(&n);
    for c in [2usize, 4] {
        let m = Method::Checkpointed { checkpoints: c };
        let predicted = model.activation_bytes(&m, t, batch);
        let measured = measured_activation_peak(m, t, batch);
        let ratio = measured as f64 / predicted as f64;
        assert!(
            (0.7..1.6).contains(&ratio),
            "C={c}: predicted {predicted}, measured {measured}, ratio {ratio:.3}"
        );
    }
}

#[test]
fn measured_memory_ordering_matches_paper() {
    // skipper < checkpointed < baseline (Figs. 7/12), on a deeper net with
    // a longer horizon for clear separation.
    let t = 24usize;
    let make = || {
        lenet5(&ModelConfig {
            input_hw: 16,
            in_channels: 3,
            width_mult: 0.25,
            ..ModelConfig::default()
        })
    };
    let measure = |method: Method| -> u64 {
        let mut session = TrainSession::builder(make(), method, t)
            .optimizer(Box::new(Sgd::new(1e-3)))
            .workers(1)
            .build()
            .expect("valid method");
        let ins = inputs(t, 2, 7);
        let labels = vec![0usize, 1];
        let _ = session.train_batch(&ins, &labels);
        mp::reset_peaks();
        session
            .train_batch(&ins, &labels)
            .mem
            .peak(Category::Activations)
    };
    // C = 3 keeps 8-step segments, whose Eq. 7 cap (37.5 % on this
    // 5-layer net) still allows substantial skipping.
    let checkpointed = Method::Checkpointed { checkpoints: 3 };
    let base = measure(Method::Bptt);
    let ck = measure(checkpointed.clone());
    let sk = measure(Method::Skipper {
        checkpoints: 3,
        percentile: 37.5,
    });
    // Checkpointing saves at least the bytes Eq. 3 says it saves.
    let net = make();
    let model = AnalyticModel::new(&net);
    let predicted_saving =
        model.activation_bytes(&Method::Bptt, t, 2) - model.activation_bytes(&checkpointed, t, 2);
    assert!(
        base - ck >= predicted_saving,
        "checkpointing must save the {predicted_saving} bytes of Eq. 3: {ck} vs {base}"
    );
    assert!(sk < ck, "skipper must undercut checkpointing: {sk} vs {ck}");
}

#[test]
fn baseline_memory_scales_linearly_with_t_and_b() {
    // Every timestep adds exactly the model's per-step bytes A; the rest
    // of the peak does not depend on T.
    let n = net();
    let per_step = AnalyticModel::new(&n).per_step_bytes(2);
    let m8 = measured_activation_peak(Method::Bptt, 8, 2);
    let m16 = measured_activation_peak(Method::Bptt, 16, 2);
    assert_eq!(m16 - m8, 8 * per_step, "T 8 → 16 must add 8·A bytes");
    let b2 = measured_activation_peak(Method::Bptt, 8, 2);
    let b4 = measured_activation_peak(Method::Bptt, 8, 4);
    let ratio_b = b4 as f64 / b2 as f64;
    assert!(
        (1.8..2.2).contains(&ratio_b),
        "B doubling should ~double memory: {ratio_b:.2}"
    );
}

#[test]
fn skipper_compute_savings_show_in_the_op_log() {
    let t = 16usize;
    let flops_of = |method: Method| -> f64 {
        let mut session = TrainSession::builder(net(), method, t)
            .optimizer(Box::new(Sgd::new(1e-3)))
            .workers(1)
            .build()
            .expect("valid method");
        let ins = inputs(t, 2, 9);
        let stats = session.train_batch(&ins, &[0, 1]);
        stats.ops.total_flops()
    };
    let base = flops_of(Method::Bptt);
    let ck = flops_of(Method::Checkpointed { checkpoints: 2 });
    let sk = flops_of(Method::Skipper {
        checkpoints: 2,
        percentile: 60.0,
    });
    // Checkpointing adds one forward pass: expect roughly +25–45 %.
    let overhead = ck / base;
    assert!(
        (1.15..1.55).contains(&overhead),
        "checkpointing FLOP overhead {overhead:.2}"
    );
    // Skipper must fall below plain checkpointing, and below baseline.
    assert!(sk < ck, "skipper {sk:.3e} vs checkpointed {ck:.3e}");
    assert!(sk < base, "skipper {sk:.3e} vs baseline {base:.3e}");
}

#[test]
fn weights_grads_and_optimizer_bytes_are_exact() {
    let n = net();
    let model = AnalyticModel::new(&n);
    mp::reset_all();
    let mut session = TrainSession::builder(net(), Method::Bptt, 4)
        .optimizer(Box::new(skipper::snn::Adam::new(1e-3)))
        .workers(1)
        .build()
        .expect("valid method");
    let ins = inputs(4, 2, 1);
    let _ = session.train_batch(&ins, &[0, 1]);
    let snap = mp::snapshot();
    assert_eq!(snap.live(Category::Weights), model.weight_bytes());
    assert_eq!(snap.live(Category::WeightGrads), model.weight_bytes());
    // Adam: two moments per weight.
    assert_eq!(
        snap.live(Category::OptimizerState),
        2 * model.weight_bytes()
    );
    drop(session);
}
