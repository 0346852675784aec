//! Recovery-path tests for the distributed coordinator/worker cluster.
//!
//! The contract under test (see `skipper_core::cluster`): whatever faults
//! the transport or the workers suffer — kills mid-epoch, torn frames,
//! reconnects after backoff — a training run that completes produces
//! results **bit-identical** to an unfailed run, because nothing is
//! applied to the parameter store until one fully consistent
//! `(iteration, attempt)` result set exists, and a retried attempt starts
//! from unchanged parameters.

use skipper_core::{
    run_worker, BackoffConfig, ChaosConfig, ClusterConfig, Coordinator, Method, SkipperError,
    TcpConnector, TrainSession, WorkerOptions, WorkerReport,
};
use skipper_snn::{custom_net, ModelConfig, Sgd, SpikingNetwork};
use skipper_tensor::{Tensor, XorShiftRng};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const T: usize = 12;
const BATCH: usize = 4;
const METHOD: Method = Method::Skipper {
    checkpoints: 2,
    percentile: 30.0,
};

fn model() -> ModelConfig {
    ModelConfig {
        input_hw: 8,
        width_mult: 0.25,
        seed: 11,
        ..ModelConfig::default()
    }
}

fn net() -> SpikingNetwork {
    custom_net(&model())
}

fn spike_inputs(data_seed: u64) -> Vec<Tensor> {
    let mut rng = XorShiftRng::new(data_seed);
    (0..T)
        .map(|_| Tensor::rand([BATCH, 3, 8, 8], &mut rng).map(|x| (x > 0.6) as i32 as f32))
        .collect()
}

fn labels() -> Vec<usize> {
    (0..BATCH).map(|i| i % 10).collect()
}

/// Fast knobs for loopback tests: everything that is a multi-second
/// production deadline shrinks so faulty paths converge in milliseconds.
fn fast_cfg(expected_workers: usize) -> ClusterConfig {
    ClusterConfig {
        expected_workers,
        min_workers: 1,
        work_timeout: Duration::from_secs(10),
        connect_timeout: Duration::from_secs(10),
        ..ClusterConfig::new(model())
    }
}

fn fast_backoff() -> BackoffConfig {
    BackoffConfig {
        base: Duration::from_millis(1),
        max: Duration::from_millis(20),
        max_retries: 20,
        ..BackoffConfig::default()
    }
}

type WorkerHandle = JoinHandle<Result<WorkerReport, SkipperError>>;

/// What one completed cluster run produced, for bit-exact comparison.
struct RunOutcome {
    /// Per-iteration loss bits.
    losses: Vec<u64>,
    /// Final weights after all optimizer steps.
    weights: Vec<Vec<f32>>,
    /// One entry per worker thread; `Err` only on transport exhaustion.
    reports: Vec<Result<WorkerReport, SkipperError>>,
}

/// A coordinator on a loopback port, and a connector to it per worker.
/// Chaos (if configured) is armed on both ends of every connection.
fn loopback_cluster(cfg: ClusterConfig) -> (Coordinator, impl Fn() -> TcpConnector) {
    let chaos = cfg.chaos.clone();
    let coordinator = Coordinator::listen_tcp("127.0.0.1:0", cfg).expect("loopback bind");
    let addr = coordinator.addr();
    (coordinator, move || {
        TcpConnector::new(addr.clone(), chaos.clone())
    })
}

/// Run `iters` Skipper iterations over a loopback TCP cluster of worker
/// threads with the given per-worker options, on a fixed batch.
fn run_cluster(iters: usize, cfg: ClusterConfig, workers: Vec<WorkerOptions>) -> RunOutcome {
    run_cluster_then(iters, cfg, workers, || ())
}

/// [`run_cluster`], calling `probe` after the last iteration while the
/// coordinator still serves its `/cluster` table.
fn run_cluster_then(
    iters: usize,
    cfg: ClusterConfig,
    workers: Vec<WorkerOptions>,
    probe: impl FnOnce(),
) -> RunOutcome {
    let (coordinator, connector) = loopback_cluster(cfg);
    let handles: Vec<WorkerHandle> = workers
        .into_iter()
        .map(|opts| {
            let mut conn = connector();
            std::thread::spawn(move || run_worker(&mut conn, &opts))
        })
        .collect();
    let mut session = TrainSession::builder(net(), METHOD, T)
        .optimizer(Box::new(Sgd::new(0.5)))
        .cluster(coordinator)
        .build()
        .expect("valid method");
    let inputs = spike_inputs(42);
    let labels = labels();
    let losses = (0..iters)
        .map(|_| session.train_batch(&inputs, &labels).loss.to_bits())
        .collect();
    probe();
    // Dropping the session shuts the coordinator down (Shutdown to every
    // live worker), which ends the worker threads.
    let trained = session.into_net();
    let weights = trained
        .params()
        .iter()
        .map(|p| p.value().data().to_vec())
        .collect();
    let reports = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread must not panic"))
        .collect();
    RunOutcome {
        losses,
        weights,
        reports,
    }
}

fn worker(id: u64) -> WorkerOptions {
    WorkerOptions {
        id,
        backoff: fast_backoff(),
        heartbeat_interval: Duration::from_millis(25),
        ..WorkerOptions::default()
    }
}

/// The rows of the `/cluster` document whose worker ids are exactly
/// `ids`. Tests of this file run side by side and the latest coordinator's
/// table shadows the others', so the route is read until this run's table
/// is the one it serves.
fn cluster_rows(ids: &[u64]) -> Vec<serde_json::Value> {
    let get = skipper_obs::Request {
        method: "GET".into(),
        path: "/cluster".into(),
        query: String::new(),
        body: Vec::new(),
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = skipper_obs::global_router().dispatch(&get);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let doc: serde_json::Value = serde_json::from_str(&resp.body).expect("/cluster is JSON");
        let rows = doc["workers"].as_array().cloned().unwrap_or_default();
        if rows
            .iter()
            .map(|r| r["id"].as_u64())
            .eq(ids.iter().map(|&id| Some(id)))
        {
            return rows;
        }
        assert!(Instant::now() < deadline, "no /cluster table lists {ids:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn assert_bit_identical(a: &RunOutcome, b: &RunOutcome, what: &str) {
    assert_eq!(a.losses, b.losses, "{what}: per-iteration loss bits");
    assert_eq!(a.weights.len(), b.weights.len());
    for (i, (wa, wb)) in a.weights.iter().zip(&b.weights).enumerate() {
        assert!(
            wa.iter().zip(wb).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{what}: weight tensor {i} differs"
        );
    }
}

#[test]
fn clean_cluster_run_matches_the_in_process_engine_bit_exactly() {
    let clean = run_cluster(3, fast_cfg(2), vec![worker(1), worker(2)]);
    for r in &clean.reports {
        let rep = r.as_ref().expect("clean run: workers exit via Shutdown");
        assert!(!rep.killed);
        assert_eq!(rep.reconnects, 0, "no reconnects without chaos");
        assert!(rep.shards > 0, "both workers computed shards");
    }

    // The in-process engine is the determinism reference: same shard
    // plan, same tree reduction, same optimizer arithmetic.
    let mut session = TrainSession::builder(net(), METHOD, T)
        .optimizer(Box::new(Sgd::new(0.5)))
        .workers(4)
        .build()
        .expect("valid method");
    let inputs = spike_inputs(42);
    let labels = labels();
    let engine_losses: Vec<u64> = (0..3)
        .map(|_| session.train_batch(&inputs, &labels).loss.to_bits())
        .collect();
    let engine_net = session.into_net();

    assert_eq!(clean.losses, engine_losses, "cluster vs engine loss bits");
    for (i, (p, w)) in engine_net.params().iter().zip(&clean.weights).enumerate() {
        assert!(
            p.value()
                .data()
                .iter()
                .zip(w)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "cluster vs engine: weight tensor {i} differs"
        );
    }
}

#[test]
fn killed_worker_mid_epoch_reassigns_and_stays_bit_exact() {
    // Ids no other test of this file uses, so that `/cluster` can tell
    // this run's table apart.
    let ids = [21, 22, 23];
    let clean = run_cluster(4, fast_cfg(3), ids.map(worker).to_vec());

    // Worker 22's chaos schedule kills it when it receives work for
    // iteration 3: the attempt fails, its shards are reassigned over the
    // two survivors, and the retried attempt (parameters untouched) is
    // bit-identical — so the whole 4-iteration run must match.
    let mut victim = worker(22);
    victim.chaos = Some(ChaosConfig {
        kill: Some((22, 3)),
        ..ChaosConfig::default()
    });
    let mut rows = Vec::new();
    let chaotic = run_cluster_then(4, fast_cfg(3), vec![worker(21), victim, worker(23)], || {
        rows = cluster_rows(&ids)
    });

    assert_bit_identical(&clean, &chaotic, "kill-mid-epoch");
    let killed: Vec<&WorkerReport> = chaotic
        .reports
        .iter()
        .map(|r| r.as_ref().expect("kill run: workers exit cleanly"))
        .filter(|r| r.killed)
        .collect();
    assert_eq!(killed.len(), 1, "exactly the scheduled worker died");
    assert!(
        killed[0].iterations >= 2,
        "the victim computed shards before its death schedule fired"
    );

    // The coordinator's `/cluster` table reads the same story.
    assert_eq!(rows[1]["state"].as_str(), Some("lost"), "{:?}", rows[1]);
    let reason = rows[1]["lost_reason"].as_str().unwrap_or_default();
    assert!(!reason.is_empty(), "the victim's row names why it was lost");
    for survivor in [&rows[0], &rows[2]] {
        assert_eq!(survivor["state"].as_str(), Some("live"), "{survivor:?}");
    }
}

#[test]
fn frame_corruption_forces_reconnects_without_duplicate_gradients() {
    let clean = run_cluster(6, fast_cfg(2), vec![worker(1), worker(2)]);

    // ~10 % of all frames (both directions) arrive with a flipped bit:
    // every such frame poisons its connection, the coordinator abandons
    // the in-flight attempt, the worker reconnects after backoff, and the
    // attempt is retried — results must not drift by a single bit, and in
    // particular a re-delivered stale result must never apply twice.
    let mut cfg = fast_cfg(2);
    cfg.chaos = Some(ChaosConfig {
        seed: 9,
        corrupt: 0.1,
        ..ChaosConfig::default()
    });
    cfg.max_attempts = 50;
    let chaotic = run_cluster(6, cfg, vec![worker(1), worker(2)]);

    assert_bit_identical(&clean, &chaotic, "frame corruption");
    // At ~10 % corruption over hundreds of frames some connection must
    // have torn: either a worker logged a successful reconnect, or it
    // ended on the (legitimate) exhausted-reconnect path after the
    // coordinator shut down mid-handshake.
    assert!(
        chaotic.reports.iter().any(|r| match r {
            Ok(rep) => rep.reconnects > 0,
            Err(SkipperError::Transport { .. }) => true,
            Err(other) => panic!("unexpected worker error: {other}"),
        }),
        "chaos at 10% corruption must exercise the reconnect path"
    );
}

#[test]
fn degraded_start_proceeds_below_expected_workers() {
    // Two workers expected, one shows up: after `connect_timeout` the
    // coordinator degrades to the floor and the run still bit-matches.
    let clean = run_cluster(2, fast_cfg(2), vec![worker(1), worker(2)]);
    let mut cfg = fast_cfg(2);
    cfg.connect_timeout = Duration::from_millis(300);
    let degraded = run_cluster(2, cfg, vec![worker(1)]);
    assert_bit_identical(&clean, &degraded, "degraded start");
}

#[test]
fn cluster_with_no_workers_is_a_typed_worker_lost_error() {
    let mut cfg = fast_cfg(1);
    cfg.connect_timeout = Duration::from_millis(150);
    // Nobody will ever dial in.
    let coordinator = Coordinator::listen_tcp("127.0.0.1:0", cfg).expect("loopback bind");
    let mut session = TrainSession::builder(net(), METHOD, T)
        .optimizer(Box::new(Sgd::new(0.5)))
        .cluster(coordinator)
        .build()
        .expect("valid method");
    let err = session
        .try_train_batch(&spike_inputs(42), &labels())
        .expect_err("no workers can serve the iteration");
    assert!(matches!(err, SkipperError::WorkerLost { .. }), "{err}");
}

#[test]
fn epoch_replay_from_snapshot_resumes_bit_exactly_after_total_cluster_loss() {
    let uninterrupted = run_cluster(5, fast_cfg(2), vec![worker(1), worker(2)]);

    let dir = std::env::temp_dir().join(format!("skipper_cluster_replay_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap = dir.join("epoch.sksn");

    // First cluster: train three iterations, snapshot, then lose
    // everything (session drop kills coordinator and workers).
    let inputs = spike_inputs(42);
    let labels = labels();
    let mut first_losses: Vec<u64> = Vec::new();
    {
        let (coordinator, connector) = loopback_cluster(fast_cfg(2));
        let handles: Vec<WorkerHandle> = [1u64, 2]
            .into_iter()
            .map(|id| {
                let mut conn = connector();
                std::thread::spawn(move || run_worker(&mut conn, &worker(id)))
            })
            .collect();
        let mut session = TrainSession::builder(net(), METHOD, T)
            .optimizer(Box::new(Sgd::new(0.5)))
            .cluster(coordinator)
            .build()
            .expect("valid method");
        for _ in 0..3 {
            first_losses.push(session.train_batch(&inputs, &labels).loss.to_bits());
        }
        session.save_snapshot(&snap).expect("snapshot");
        drop(session);
        for h in handles {
            let _ = h.join().expect("worker thread");
        }
    }

    // Second, completely fresh cluster: resume from the snapshot and run
    // the remaining two iterations — the full trajectory must equal the
    // uninterrupted run's, bit for bit.
    let (coordinator, connector) = loopback_cluster(fast_cfg(2));
    let handles: Vec<WorkerHandle> = [1u64, 2]
        .into_iter()
        .map(|id| {
            let mut conn = connector();
            std::thread::spawn(move || run_worker(&mut conn, &worker(id)))
        })
        .collect();
    let mut session = TrainSession::builder(net(), METHOD, T)
        .optimizer(Box::new(Sgd::new(0.5)))
        .cluster(coordinator)
        .build()
        .expect("valid method");
    session.resume_from(&snap).expect("resume");
    assert_eq!(session.iteration(), 3);
    let mut losses = first_losses;
    for _ in 0..2 {
        losses.push(session.train_batch(&inputs, &labels).loss.to_bits());
    }
    let trained = session.into_net();
    for h in handles {
        let _ = h.join().expect("worker thread");
    }
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(losses, uninterrupted.losses, "resumed trajectory");
    for (p, w) in trained.params().iter().zip(&uninterrupted.weights) {
        assert!(
            p.value()
                .data()
                .iter()
                .zip(w)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "resumed weights differ from the uninterrupted run"
        );
    }
}
