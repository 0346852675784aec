//! Coordinator host for a real multi-process cluster: binds a TCP
//! address, waits for externally launched `skipper_worker` processes and
//! trains a few Skipper iterations across them, printing each loss with
//! its bit pattern.
//!
//! ```text
//! # terminal 1
//! SKIPPER_CLUSTER_ADDR=127.0.0.1:7177 cluster_host
//!
//! # terminals 2 and 3 — one worker each
//! SKIPPER_CLUSTER_ADDR=127.0.0.1:7177 skipper_worker --id 1
//! SKIPPER_CLUSTER_ADDR=127.0.0.1:7177 skipper_worker --id 2
//! ```
//!
//! A demo, not a check: that a cluster matches the in-process engine bit
//! for bit — under chaos, kills and reconnects — is asserted by
//! `crates/core/tests/cluster_recovery.rs` and `cluster_chaos_tcp.rs`.
//! Here one can watch it from outside: kill a worker mid-run, or arm
//! `SKIPPER_CHAOS` on one, and the printed bits do not change.

use skipper_core::{cluster_addr_from_env, ClusterConfig, Coordinator, Method, TrainSession};
use skipper_snn::{custom_net, ModelConfig, Sgd};
use skipper_tensor::{Tensor, XorShiftRng};
use std::time::Duration;

const T: usize = 12;
const BATCH: usize = 8;
const WORKERS: usize = 2;
const ITERATIONS: usize = 8;

fn main() {
    let _run = skipper_bench::BenchRun::start();
    let model = ModelConfig {
        input_hw: 8,
        width_mult: 0.25,
        seed: 11,
        ..ModelConfig::default()
    };
    let cfg = ClusterConfig {
        expected_workers: WORKERS,
        min_workers: 1,
        // Time for a human to start workers in other terminals; after it
        // the run proceeds with whoever has joined.
        connect_timeout: Duration::from_secs(60),
        ..ClusterConfig::new(model.clone())
    };
    let bind = cluster_addr_from_env().unwrap_or_else(|| "127.0.0.1:7177".into());
    let coordinator = Coordinator::listen_tcp(&bind, cfg).expect("bind the cluster address");
    println!(
        "coordinator on {}: waiting for {WORKERS} skipper_worker processes",
        coordinator.addr()
    );

    let method = Method::Skipper {
        checkpoints: 2,
        percentile: 30.0,
    };
    let mut session = TrainSession::builder(custom_net(&model), method, T)
        .optimizer(Box::new(Sgd::new(0.5)))
        .cluster(coordinator)
        .build()
        .expect("valid method");
    let mut rng = XorShiftRng::new(42);
    let inputs: Vec<Tensor> = (0..T)
        .map(|_| Tensor::rand([BATCH, 3, 8, 8], &mut rng).map(|x| (x > 0.6) as i32 as f32))
        .collect();
    let labels: Vec<usize> = (0..BATCH).map(|i| i % 10).collect();
    for i in 1..=ITERATIONS {
        match session.try_train_batch(&inputs, &labels) {
            Ok(stats) => println!(
                "iter {i:>2}  loss {:.6} (bits {:016x})  skipped {}",
                stats.loss,
                stats.loss.to_bits(),
                stats.skipped_steps
            ),
            Err(e) => {
                eprintln!("training stopped: {e}");
                break;
            }
        }
    }
}
