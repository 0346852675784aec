//! Property tests for the sharded training engine: for any admissible
//! configuration, an N-worker session must reproduce the single-worker
//! session exactly.
//!
//! Two levels of agreement are asserted, mirroring the engine's design
//! (see `skipper_core::engine`):
//!
//! * **across worker counts ≥ 2** the shard plan is canonical, so losses
//!   *and* gradients are bit-identical;
//! * **sharded vs the unsharded reference** the loss, the SAM spike sums
//!   and every skip decision are bit-identical, while gradients agree only
//!   to rounding (the single-graph path folds the batch dimension inside
//!   the kernels in a different grouping).

use proptest::prelude::*;
use skipper_core::{
    max_skippable_percentile, run_worker, BatchStats, ClusterConfig, Coordinator, Method,
    TcpConnector, TrainSession, WorkerOptions,
};
use skipper_snn::{custom_net, ModelConfig, Sgd, SpikingNetwork};
use skipper_tensor::{Tensor, XorShiftRng};

fn tiny_net(seed: u64) -> SpikingNetwork {
    custom_net(&ModelConfig {
        input_hw: 8,
        width_mult: 0.25,
        seed,
        ..ModelConfig::default()
    })
}

fn spike_inputs(t: usize, batch: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = XorShiftRng::new(seed);
    (0..t)
        .map(|_| Tensor::rand([batch, 3, 8, 8], &mut rng).map(|x| (x > 0.6) as i32 as f32))
        .collect()
}

/// Train one batch with momentum-free unit-lr SGD so the weight delta *is*
/// the gradient, and return (gradients, stats).
fn run_once(
    method: &Method,
    t: usize,
    batch: usize,
    workers: usize,
    data_seed: u64,
) -> (Vec<Vec<f32>>, BatchStats) {
    let net = tiny_net(11);
    let before: Vec<Vec<f32>> = net
        .params()
        .iter()
        .map(|p| p.value().data().to_vec())
        .collect();
    let mut session = TrainSession::builder(net, method.clone(), t)
        .optimizer(Box::new(Sgd::new(1.0)))
        .workers(workers)
        .build()
        .expect("valid method");
    let labels: Vec<usize> = (0..batch).map(|i| i % 10).collect();
    let stats = session.train_batch(&spike_inputs(t, batch, data_seed), &labels);
    let net = session.into_net();
    let grads = net
        .params()
        .iter()
        .zip(before)
        .map(|(p, b)| b.iter().zip(p.value().data()).map(|(x, y)| x - y).collect())
        .collect();
    (grads, stats)
}

/// Same contract as [`run_once`], but the shards are computed by worker
/// threads behind the cluster transport (loopback TCP) instead of by the
/// engine's own thread pool.
fn run_once_cluster(
    method: &Method,
    t: usize,
    batch: usize,
    workers: usize,
    data_seed: u64,
) -> (Vec<Vec<f32>>, BatchStats) {
    let cfg = ClusterConfig {
        expected_workers: workers,
        ..ClusterConfig::new(ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            seed: 11,
            ..ModelConfig::default()
        })
    };
    let coordinator = Coordinator::listen_tcp("127.0.0.1:0", cfg).expect("loopback bind");
    let handles: Vec<_> = (1..=workers as u64)
        .map(|id| {
            let mut conn = TcpConnector::new(coordinator.addr(), None);
            std::thread::spawn(move || {
                run_worker(
                    &mut conn,
                    &WorkerOptions {
                        id,
                        ..WorkerOptions::default()
                    },
                )
            })
        })
        .collect();
    let net = tiny_net(11);
    let before: Vec<Vec<f32>> = net
        .params()
        .iter()
        .map(|p| p.value().data().to_vec())
        .collect();
    let mut session = TrainSession::builder(net, method.clone(), t)
        .optimizer(Box::new(Sgd::new(1.0)))
        .cluster(coordinator)
        .build()
        .expect("valid method");
    let labels: Vec<usize> = (0..batch).map(|i| i % 10).collect();
    let stats = session.train_batch(&spike_inputs(t, batch, data_seed), &labels);
    let net = session.into_net();
    for h in handles {
        h.join()
            .expect("worker thread")
            .expect("workers exit via Shutdown");
    }
    let grads = net
        .params()
        .iter()
        .zip(before)
        .map(|(p, b)| b.iter().zip(p.value().data()).map(|(x, y)| x - y).collect())
        .collect();
    (grads, stats)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case trains four sessions; keep the budget sane
        .. ProptestConfig::default()
    })]

    /// The headline guarantee: for any (T, C, p, B, N) within the paper's
    /// constraints, sharded training reproduces the unsharded run — loss
    /// and skip schedule bitwise, gradients bitwise across worker counts.
    #[test]
    fn sharded_training_is_deterministic(
        t in 8usize..13,
        c in 1usize..3,
        p in 5f32..60.0,
        batch in 2usize..6,
        workers in 2usize..5,
        data_seed in 0u64..1000,
    ) {
        prop_assume!(t / c >= 3); // segment ≥ L_n
        prop_assume!(p <= max_skippable_percentile(t, c, 3)); // Eq. 7
        let method = Method::Skipper { checkpoints: c, percentile: p };

        let (g1, s1) = run_once(&method, t, batch, 1, data_seed);
        let (ga, sa) = run_once(&method, t, batch, workers, data_seed);
        let (gb, sb) = run_once(&method, t, batch, workers + 1, data_seed);

        // Sharded vs unsharded: loss and the global skip schedule are
        // bit-identical because the SAM sums are aggregated across shards
        // before the SST percentile is formed.
        prop_assert_eq!(sa.loss.to_bits(), s1.loss.to_bits(), "loss {} vs {}", sa.loss, s1.loss);
        prop_assert_eq!(sa.skipped_steps, s1.skipped_steps);
        prop_assert_eq!(sa.recomputed_steps, s1.recomputed_steps);
        prop_assert_eq!(sa.correct, s1.correct);

        // Across worker counts ≥ 2 everything, gradients included, is
        // bit-identical: the shard plan and reduction order are canonical.
        prop_assert_eq!(sb.loss.to_bits(), sa.loss.to_bits());
        prop_assert_eq!(sb.skipped_steps, sa.skipped_steps);
        for (a, b) in ga.iter().zip(&gb) {
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
            }
        }

        // Sharded vs unsharded gradients agree to kernel rounding.
        for (a, b) in ga.iter().zip(&g1) {
            for (x, y) in a.iter().zip(b) {
                prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
            }
        }
    }

    /// The transport boundary is invisible: a cluster of worker threads
    /// speaking the framed protocol reproduces the in-process engine bit
    /// for bit — loss, skip schedule, and gradients.
    #[test]
    fn cluster_transport_is_bit_identical_to_the_engine(
        t in 8usize..13,
        c in 1usize..3,
        p in 5f32..60.0,
        batch in 2usize..6,
        workers in 2usize..4,
        data_seed in 0u64..1000,
    ) {
        prop_assume!(t / c >= 3); // segment ≥ L_n
        prop_assume!(p <= max_skippable_percentile(t, c, 3)); // Eq. 7
        let method = Method::Skipper { checkpoints: c, percentile: p };

        let (ge, se) = run_once(&method, t, batch, workers, data_seed);
        let (gc, sc) = run_once_cluster(&method, t, batch, workers, data_seed);

        prop_assert_eq!(sc.loss.to_bits(), se.loss.to_bits(), "loss {} vs {}", sc.loss, se.loss);
        prop_assert_eq!(sc.skipped_steps, se.skipped_steps);
        prop_assert_eq!(sc.recomputed_steps, se.recomputed_steps);
        prop_assert_eq!(sc.correct, se.correct);
        for (a, b) in gc.iter().zip(&ge) {
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
            }
        }
    }

    /// The exact-forward methods shard just as deterministically.
    #[test]
    fn bptt_loss_is_worker_count_independent(
        t in 6usize..10,
        batch in 2usize..6,
        workers in 2usize..5,
        data_seed in 0u64..1000,
    ) {
        let (_, s1) = run_once(&Method::Bptt, t, batch, 1, data_seed);
        let (_, sn) = run_once(&Method::Bptt, t, batch, workers, data_seed);
        prop_assert_eq!(sn.loss.to_bits(), s1.loss.to_bits());
        prop_assert_eq!(sn.correct, s1.correct);
    }
}

#[test]
fn workers_env_variable_feeds_the_default() {
    // Only this test reads the variable: every other session in this
    // binary pins `.workers(n)` explicitly.
    std::env::set_var(skipper_core::WORKERS_ENV, "3");
    let session = TrainSession::builder(tiny_net(1), Method::Bptt, 8)
        .build()
        .expect("valid method");
    std::env::remove_var(skipper_core::WORKERS_ENV);
    assert_eq!(session.workers(), 3);
}
