//! End-to-end fault-tolerance tests: durable snapshots with bit-exact
//! resume, divergence sentinels with backoff-and-retry, and the
//! memory-budget governor.

use skipper_core::resume::write_snapshot_to;
use skipper_core::{Method, SentinelConfig, SessionState, SkipperError, TrainSession};
use skipper_snn::{custom_net, Adam, Encoder, ModelConfig, PoissonEncoder};
use skipper_tensor::{Tensor, XorShiftRng};

fn session(method: Method, timesteps: usize) -> TrainSession {
    let net = custom_net(&ModelConfig {
        input_hw: 8,
        width_mult: 0.25,
        ..ModelConfig::default()
    });
    TrainSession::builder(net, method, timesteps)
        .optimizer(Box::new(Adam::new(1e-3)))
        .workers(1)
        .build()
        .expect("valid method")
}

fn batch(seed: u64, timesteps: usize) -> (Vec<Tensor>, Vec<usize>) {
    let mut rng = XorShiftRng::new(seed);
    let frames = Tensor::rand([4, 3, 8, 8], &mut rng);
    let spikes = PoissonEncoder::default().encode(&frames, timesteps, &mut rng);
    (spikes, vec![0, 1, 2, 3])
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("skipper_fault_tolerance_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The headline acceptance test: train, snapshot to disk mid-run, keep
/// training to record the reference trajectory; then resume a *fresh*
/// session from the file and replay the same batches. Every loss must
/// match bit-for-bit.
#[test]
fn resume_reproduces_loss_trajectory_bit_exactly() {
    let method = Method::Skipper {
        checkpoints: 2,
        percentile: 25.0,
    };
    let path = tmp_path("trajectory.sksn");

    let mut a = session(method.clone(), 8);
    for seed in 0..3 {
        let (inputs, labels) = batch(seed, 8);
        a.train_batch(&inputs, &labels);
    }
    a.save_snapshot(&path).unwrap();
    let reference: Vec<u64> = (3..7)
        .map(|seed| {
            let (inputs, labels) = batch(seed, 8);
            a.train_batch(&inputs, &labels).loss.to_bits()
        })
        .collect();

    // A brand-new session (different random init) restored from the file.
    let mut b = session(method, 8);
    b.resume_from(&path).unwrap();
    assert_eq!(b.iteration(), 3);
    let resumed: Vec<u64> = (3..7)
        .map(|seed| {
            let (inputs, labels) = batch(seed, 8);
            b.train_batch(&inputs, &labels).loss.to_bits()
        })
        .collect();

    assert_eq!(
        reference, resumed,
        "resumed trajectory must be bit-exact against the uninterrupted run"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_snapshot_is_rejected_descriptively() {
    let path = tmp_path("corrupt.sksn");
    let mut s = session(Method::Bptt, 8);
    let (inputs, labels) = batch(1, 8);
    s.train_batch(&inputs, &labels);
    s.save_snapshot(&path).unwrap();

    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let err = session(Method::Bptt, 8).resume_from(&path).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("CRC mismatch") || msg.contains("snapshot"),
        "unexpected error: {msg}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_snapshot_is_rejected() {
    let path = tmp_path("truncated.sksn");
    let mut s = session(Method::Bptt, 8);
    let (inputs, labels) = batch(2, 8);
    s.train_batch(&inputs, &labels);
    s.save_snapshot(&path).unwrap();

    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    assert!(session(Method::Bptt, 8).resume_from(&path).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn horizon_mismatch_is_a_config_error() {
    let path = tmp_path("horizon.sksn");
    let mut s = session(Method::Bptt, 8);
    let (inputs, labels) = batch(3, 8);
    s.train_batch(&inputs, &labels);
    s.save_snapshot(&path).unwrap();

    let err = session(Method::Bptt, 16).resume_from(&path).unwrap_err();
    assert!(matches!(err, SkipperError::Config(_)), "{err}");
    std::fs::remove_file(&path).ok();
}

/// A NaN loss injected mid-run must be caught before the optimizer applies
/// the update; the session drops the attempt's gradients, backs the
/// learning rate off, and the batch still completes with a finite loss.
#[test]
fn nan_injection_is_caught_before_the_update_and_recovers() {
    let mut s = session(
        Method::Skipper {
            checkpoints: 2,
            percentile: 25.0,
        },
        8,
    );
    s.enable_sentinels(SentinelConfig::default());
    let lr_before = s.learning_rate();
    s.inject_loss_poison(3);

    let mut recoveries_seen = 0;
    for seed in 0..4 {
        let (inputs, labels) = batch(seed, 8);
        let stats = s.try_train_batch(&inputs, &labels).unwrap();
        assert!(
            stats.loss.is_finite(),
            "loss must stay finite under recovery"
        );
        recoveries_seen += stats.recoveries;
    }
    assert_eq!(recoveries_seen, 1, "exactly one poisoned iteration");
    assert!(
        s.learning_rate() < lr_before,
        "recovery must back the learning rate off"
    );
}

/// With a gradient-norm limit of zero every attempt is divergent, so the
/// retry budget runs dry and the typed error surfaces.
#[test]
fn exhausted_retries_surface_divergence_error() {
    let mut s = session(Method::Bptt, 8);
    s.enable_sentinels(SentinelConfig {
        max_grad_norm: 0.0,
        max_retries: 2,
        lr_backoff: 0.5,
    });
    let (inputs, labels) = batch(9, 8);
    let err = s.try_train_batch(&inputs, &labels).unwrap_err();
    assert!(matches!(err, SkipperError::Divergence { .. }), "{err}");
    // 1 initial attempt + 2 retries.
    assert_eq!(s.iteration(), 3);
}

/// A divergent attempt never reaches the optimizer, so a batch that
/// exhausts its retries leaves the weights exactly at the last good
/// state.
#[test]
fn failed_batch_leaves_weights_at_last_good_state() {
    let mut s = session(Method::Bptt, 8);
    s.enable_sentinels(SentinelConfig::default());
    let (inputs, labels) = batch(11, 8);
    s.try_train_batch(&inputs, &labels).unwrap();
    let good: Vec<f32> = s
        .net()
        .params()
        .iter()
        .next()
        .unwrap()
        .value()
        .data()
        .to_vec();

    // Now make every further attempt divergent.
    s.enable_sentinels(SentinelConfig {
        max_grad_norm: 0.0,
        max_retries: 1,
        lr_backoff: 0.5,
    });
    s.try_train_batch(&inputs, &labels).unwrap_err();
    let after: Vec<f32> = s
        .net()
        .params()
        .iter()
        .next()
        .unwrap()
        .value()
        .data()
        .to_vec();
    assert_eq!(good, after, "weights must be at the last good state");
}

/// A batch that runs out of retries on a session's first iteration leaves
/// the learning rate bit-equal to its value at entry, as it does after a
/// good iteration.
#[test]
fn exhausted_first_iteration_keeps_the_entry_learning_rate() {
    let mut s = session(Method::Bptt, 8);
    s.enable_sentinels(SentinelConfig {
        max_grad_norm: 0.0,
        max_retries: 2,
        lr_backoff: 0.5,
    });
    let entry = s.learning_rate();
    let (inputs, labels) = batch(9, 8);
    s.try_train_batch(&inputs, &labels).unwrap_err();
    assert_eq!(s.learning_rate().to_bits(), entry.to_bits());
}

/// A faulty attempt changes nothing but the iteration counter: the
/// recovered iteration equals a clean run at the retry's seed, bit for
/// bit, in the weights, the optimizer moments and the LBP heads.
#[test]
fn recovered_iteration_equals_a_clean_run_at_the_retry_seed() {
    let methods = [
        Method::Skipper {
            checkpoints: 2,
            percentile: 25.0,
        },
        Method::TbpttLbp {
            window: 4,
            taps: vec![1, 2],
        },
    ];
    // Poison the session's first iteration, then one after a good
    // iteration has given the optimizer moments to keep.
    for (method, warmup) in methods.iter().flat_map(|m| [(m, 0), (m, 1)]) {
        let (inputs, labels) = batch(13, 8);
        let mut recovered = session(method.clone(), 8);
        for _ in 0..warmup {
            recovered.train_batch(&inputs, &labels);
        }
        recovered.enable_sentinels(SentinelConfig {
            lr_backoff: 1.0,
            ..SentinelConfig::default()
        });
        let entry = recovered.capture_state();
        recovered.inject_loss_poison(entry.iteration + 1);
        let stats = recovered.try_train_batch(&inputs, &labels).unwrap();
        assert_eq!(stats.recoveries, 1, "{method}, warmup {warmup}");

        let mut clean = session(method.clone(), 8);
        clean
            .restore_state(&SessionState {
                iteration: entry.iteration + 1,
                ..entry
            })
            .unwrap();
        clean.train_batch(&inputs, &labels);

        let bytes = |s: &TrainSession| {
            let mut buf = Vec::new();
            write_snapshot_to(&s.capture_state(), &mut buf).unwrap();
            buf
        };
        assert_eq!(
            bytes(&recovered),
            bytes(&clean),
            "{method}, warmup {warmup}"
        );
    }
}

/// Under a byte budget the governor converts plain BPTT to temporal
/// checkpointing at the analytic memory minimum; the next iteration's peak
/// must actually drop.
#[test]
fn governor_relieves_real_memory_pressure() {
    let mut s = session(Method::Bptt, 16);
    s.set_memory_budget(Some(1)); // impossible budget: always under pressure
    let (inputs, labels) = batch(21, 16);

    let p1 = s.train_batch(&inputs, &labels).peak_bytes();
    assert_eq!(s.governor_log().len(), 1);
    let action = &s.governor_log()[0];
    assert_eq!(action.from, Method::Bptt);
    assert!(matches!(action.to, Method::Checkpointed { .. }), "{action}");
    assert_eq!(s.method(), &action.to);

    let p2 = s.train_batch(&inputs, &labels).peak_bytes();
    assert!(
        p2 < p1,
        "checkpointing must reduce peak memory: {p1} -> {p2}"
    );
}

/// Synthetic allocation pressure (the deterministic fault-injection hook
/// in `skipper-memprof`) counts toward the measured peak and therefore
/// triggers the governor even when the model itself is small.
#[test]
fn injected_pressure_triggers_governor() {
    let mut s = session(Method::Checkpointed { checkpoints: 1 }, 16);
    let (inputs, labels) = batch(22, 16);
    let quiet = s.train_batch(&inputs, &labels).peak_bytes();
    assert!(s.governor_log().is_empty());

    // Budget comfortably above the quiet peak, then inject pressure past it.
    s.set_memory_budget(Some(quiet * 2));
    skipper_memprof::inject_pressure(quiet * 4, skipper_memprof::Category::Other);
    s.train_batch(&inputs, &labels);
    skipper_memprof::release_pressure();

    assert_eq!(s.governor_log().len(), 1, "{:?}", s.governor_log());
    // C stepped toward the analytic memory minimum.
    assert_eq!(s.method(), &Method::Checkpointed { checkpoints: 2 });
}
