//! What must hold whichever driver runs an iteration — the unsharded
//! reference (`workers(1)`), the in-process pool (`workers(3)`) or a
//! loopback TCP cluster — since the pool and the cluster execute one shard
//! protocol (`skipper_core`'s `shard.rs`).

use skipper_core::{
    run_worker, ClusterConfig, Coordinator, Method, SkipperError, TcpConnector, TrainSession,
    WorkerOptions,
};
use skipper_memprof::{Category, CategoryGuard};
use skipper_snn::{custom_net, ModelConfig, Sgd};
use skipper_tensor::{Tensor, XorShiftRng};
use std::thread::JoinHandle;

const T: usize = 12;
const BATCH: usize = 5;
const CHECKPOINTS: usize = 2;

fn model() -> ModelConfig {
    ModelConfig {
        input_hw: 8,
        width_mult: 0.25,
        seed: 11,
        ..ModelConfig::default()
    }
}

fn spike_inputs(seed: u64) -> Vec<Tensor> {
    let _cat = CategoryGuard::new(Category::Input);
    let mut rng = XorShiftRng::new(seed);
    (0..T)
        .map(|_| Tensor::rand([BATCH, 3, 8, 8], &mut rng).map(|x| (x > 0.6) as i32 as f32))
        .collect()
}

fn labels() -> Vec<usize> {
    (0..BATCH).map(|i| i % 10).collect()
}

#[derive(Clone, Copy, Debug)]
enum Driver {
    Unsharded,
    Pool,
    Cluster,
}

fn coordinator() -> Coordinator {
    Coordinator::listen_tcp("127.0.0.1:0", ClusterConfig::new(model())).expect("loopback bind")
}

/// A session of `method` on `driver`, plus the cluster's worker threads
/// (they exit when the session, and with it the coordinator, is dropped).
fn session(driver: Driver, method: Method) -> (TrainSession, Vec<JoinHandle<()>>) {
    let builder =
        TrainSession::builder(custom_net(&model()), method, T).optimizer(Box::new(Sgd::new(0.5)));
    match driver {
        Driver::Unsharded => (builder.workers(1).build().expect("valid method"), vec![]),
        Driver::Pool => (builder.workers(3).build().expect("valid method"), vec![]),
        Driver::Cluster => {
            let coordinator = coordinator();
            let workers = (1..=2)
                .map(|id| {
                    let mut conn = TcpConnector::new(coordinator.addr(), None);
                    let opts = WorkerOptions {
                        id,
                        ..WorkerOptions::default()
                    };
                    std::thread::spawn(move || {
                        run_worker(&mut conn, &opts).expect("worker exits via Shutdown");
                    })
                })
                .collect();
            let session = builder.cluster(coordinator).build().expect("valid method");
            (session, workers)
        }
    }
}

/// Per-iteration `(loss bits, SAM sums)` of `iters` iterations, then the
/// trained weights.
type Run = (Vec<(u64, Vec<f64>)>, Vec<Vec<f32>>);

fn train(driver: Driver, method: Method, iters: u64) -> Run {
    let (mut session, workers) = session(driver, method);
    let per_iteration = (0..iters)
        .map(|i| {
            let loss = session.train_batch(&spike_inputs(40 + i), &labels()).loss;
            (loss.to_bits(), session.last_sam_sums().to_vec())
        })
        .collect();
    let weights = session
        .into_net()
        .params()
        .iter()
        .map(|p| p.value().data().to_vec())
        .collect();
    for w in workers {
        w.join().expect("worker thread");
    }
    (per_iteration, weights)
}

/// The paper's identities between its methods, on every driver: Skipper at
/// `p = 0` *is* checkpointing (loss, SAM record and updated weights, bit
/// for bit, over several optimizer steps), and TBPTT with a window of `T`
/// *is* BPTT in the same sense.
#[test]
fn method_identities_hold_on_every_driver() {
    for driver in [Driver::Unsharded, Driver::Pool, Driver::Cluster] {
        let skipper = Method::Skipper {
            checkpoints: CHECKPOINTS,
            percentile: 0.0,
        };
        let checkpointed = Method::Checkpointed {
            checkpoints: CHECKPOINTS,
        };
        let pairs = [
            (skipper, checkpointed, "Skipper(p=0) vs checkpointing"),
            (
                Method::Tbptt { window: T },
                Method::Bptt,
                "TBPTT(T) vs BPTT",
            ),
        ];
        for (a, b, what) in pairs {
            let (a_iters, a_weights) = train(driver, a, 3);
            let (b_iters, b_weights) = train(driver, b, 3);
            assert_eq!(a_iters, b_iters, "{driver:?}, {what}: loss bits, SAM sums");
            for (i, (x, y)) in a_weights.iter().zip(&b_weights).enumerate() {
                assert!(
                    x.iter().zip(y).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{driver:?}, {what}: weight tensor {i} differs"
                );
            }
        }
    }
}

/// The pool hands its threads clones of the caller's input tensors. Every
/// clone must be gone before a thread reports back: a thread that is
/// descheduled right after reporting would otherwise free the batch's
/// storage on its own thread once the caller drops it, and the caller's
/// thread-local tracker would count the batch as live for good.
#[test]
fn a_pool_session_leaves_no_input_bytes_behind() {
    let skipper = Method::Skipper {
        checkpoints: CHECKPOINTS,
        percentile: 30.0,
    };
    // BPTT too: its single round is the last thing a pool thread does in
    // an iteration, so nothing later on that thread hides a late drop.
    for method in [skipper, Method::Bptt] {
        let mut session = TrainSession::builder(custom_net(&model()), method.clone(), T)
            .optimizer(Box::new(Sgd::new(0.5)))
            .workers(2)
            .build()
            .expect("valid method");
        let labels = labels();
        let before = skipper_memprof::snapshot().live(Category::Input);
        for i in 0..40 {
            let inputs = spike_inputs(i);
            session.train_batch(&inputs, &labels);
            drop(inputs);
            assert_eq!(
                skipper_memprof::snapshot().live(Category::Input),
                before,
                "{method}: input bytes still booked on the session thread after iteration {i}"
            );
        }
    }
}

/// A wire worker has no auxiliary classifiers, so a cluster session refuses
/// TBPTT-LBP with a typed configuration error — at build, and per iteration
/// when the method is switched afterwards.
#[test]
fn tbptt_lbp_is_refused_on_a_cluster_session() {
    let lbp = Method::TbpttLbp {
        window: 4,
        taps: vec![1, 2],
    };
    let err = TrainSession::builder(custom_net(&model()), lbp.clone(), T)
        .cluster(coordinator())
        .build()
        .unwrap_err();
    assert!(matches!(err, SkipperError::Config(_)), "{err}");

    let mut session = TrainSession::builder(custom_net(&model()), Method::Bptt, T)
        .cluster(coordinator())
        .build()
        .expect("BPTT runs over a cluster");
    session.set_method(lbp);
    // Refused before any worker is waited for: none ever connects here.
    let err = session
        .try_train_batch(&spike_inputs(1), &labels())
        .unwrap_err();
    assert!(matches!(err, SkipperError::Config(_)), "{err}");
}
