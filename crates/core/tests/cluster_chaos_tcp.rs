//! The cluster's whole fault surface in one run, over real sockets: four
//! TCP workers on loopback with the chaos layer armed on both sides
//! (corrupted frames, delivery delays) *and* a scheduled kill of the last
//! worker. `cluster_recovery.rs` covers chaos, a kill and a clean run
//! separately; this is the only place they meet.
//!
//! A file of its own because it is a process of its own: it records every
//! event of the process to one JSONL stream and reads the process-wide
//! metrics registry.

use skipper_core::{
    run_worker, BackoffConfig, ChaosConfig, ClusterConfig, Coordinator, Method, TcpConnector,
    TrainSession, WorkerOptions,
};
use skipper_snn::{custom_net, ModelConfig, Sgd, SpikingNetwork};
use skipper_tensor::{Tensor, XorShiftRng};
use std::time::{Duration, Instant};

const T: usize = 12;
const BATCH: usize = 8;
const WORKERS: u64 = 4;
const ITERS: usize = 4;
/// The last worker dies when it receives work for this iteration.
const KILL_ITER: u64 = 2;
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

fn session(net: SpikingNetwork) -> skipper_core::SessionBuilder {
    TrainSession::builder(net, METHOD, T).optimizer(Box::new(Sgd::new(0.5)))
}

fn weight_bits(net: &SpikingNetwork) -> Vec<Vec<u32>> {
    net.params()
        .iter()
        .map(|p| p.value().data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn tcp_cluster_under_chaos_and_a_kill_matches_the_pool_and_leaves_its_evidence() {
    let dir = std::env::temp_dir().join(format!("skipper_chaos_tcp_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let mut rng = XorShiftRng::new(42);
    let inputs: Vec<Tensor> = (0..T)
        .map(|_| Tensor::rand([BATCH, 3, 8, 8], &mut rng).map(|x| (x > 0.6) as i32 as f32))
        .collect();
    let labels: Vec<usize> = (0..BATCH).map(|i| i % 10).collect();

    // The in-process pool defines the right answer: the transport, its
    // faults and the recovery from them must be invisible in the bits.
    let mut reference = session(custom_net(&model()))
        .workers(WORKERS as usize)
        .build()
        .expect("valid method");
    let want_losses: Vec<u64> = (0..ITERS)
        .map(|_| reference.train_batch(&inputs, &labels).loss.to_bits())
        .collect();
    let want_weights = weight_bits(&reference.into_net());

    // Record the cluster run's events (and only those): frame instants,
    // metric federation and trace contexts are off without a sink, and
    // check (3) and the stitcher read this stream back.
    let events = dir.join("obs.jsonl");
    let sink = skipper_obs::add_sink(Box::new(
        skipper_obs::JsonlSink::create(&events).expect("event stream"),
    ));

    let chaos = ChaosConfig {
        seed: 7,
        corrupt: 0.02,
        delay: 0.05,
        delay_us: 2_000,
        ..ChaosConfig::default()
    };
    let cfg = ClusterConfig {
        expected_workers: WORKERS as usize,
        min_workers: 1,
        work_timeout: Duration::from_secs(2),
        connect_timeout: Duration::from_secs(10),
        max_attempts: 50,
        chaos: Some(chaos.clone()),
        ..ClusterConfig::new(model())
    };
    let coordinator = Coordinator::listen_tcp("127.0.0.1:0", cfg).expect("loopback bind");
    let addr = coordinator.addr();
    let handles: Vec<_> = (1..=WORKERS)
        .map(|id| {
            let addr = addr.clone();
            let chaos = ChaosConfig {
                kill: (id == WORKERS).then_some((id, KILL_ITER)),
                ..chaos.clone()
            };
            std::thread::spawn(move || {
                let mut conn = TcpConnector::new(addr, Some(chaos.clone()));
                run_worker(
                    &mut conn,
                    &WorkerOptions {
                        id,
                        chaos: Some(chaos),
                        backoff: BackoffConfig {
                            base: Duration::from_millis(2),
                            max: Duration::from_millis(50),
                            max_retries: 20,
                            ..BackoffConfig::default()
                        },
                        // Fast idle heartbeats, so that a run this short
                        // still federates worker metrics.
                        heartbeat_interval: Duration::from_millis(10),
                    },
                )
            })
        })
        .collect();

    let mut clustered = session(custom_net(&model()))
        .cluster(coordinator)
        .build()
        .expect("valid method");
    let got_losses: Vec<u64> = (0..ITERS)
        .map(|_| clustered.train_batch(&inputs, &labels).loss.to_bits())
        .collect();
    let got_weights = weight_bits(clustered.net());

    // (1) Bit-identical to the pool.
    assert_eq!(got_losses, want_losses, "per-iteration loss bits");
    assert_eq!(got_weights, want_weights, "final weight bits");

    // (2) Heartbeats carry registry deltas, which the coordinator
    // re-publishes under `worker="<id>"` labels. A worker beacons when it
    // has been idle for its heartbeat interval and the coordinator reads
    // beacons while it collects an iteration's results, so idle, iterate
    // again (the compared bits are already taken) and look.
    let federated = || {
        let snap = skipper_obs::registry().snapshot();
        let series = snap.counters.iter().chain(&snap.gauges);
        series.filter(|(name, _)| name.contains("worker=")).count()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while federated() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        clustered.train_batch(&inputs, &labels);
    }
    assert!(
        federated() > 0,
        "no worker-labelled series reached the coordinator"
    );

    drop(clustered);
    let mut killed = 0;
    for h in handles {
        // A worker may also end on the exhausted-reconnect path, when
        // chaos corrupts the final Shutdown frame: that is an `Err`, not
        // a panic.
        if let Ok(report) = h.join().expect("worker thread must not panic") {
            killed += report.killed as usize;
        }
    }
    assert_eq!(killed, 1, "exactly the scheduled worker died");

    // (3) The killed worker's history is in the event stream: its frames,
    // then the coordinator's `cluster.worker_lost` with the connection's
    // final counts, and its own `cluster.worker_exit`.
    skipper_obs::remove_sink(sink);
    let text = std::fs::read_to_string(&events).expect("event stream");
    let instants: Vec<serde_json::Value> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("JSONL line"))
        .filter(|e: &serde_json::Value| e["ev"].as_str() == Some("instant"))
        .collect();
    // Positions in the stream of the victim's `name` instants.
    let of_victim = |name: &str| -> Vec<usize> {
        (0..instants.len())
            .filter(|&i| instants[i]["name"].as_str() == Some(name))
            .filter(|&i| instants[i]["fields"]["worker"].as_u64() == Some(WORKERS))
            .collect()
    };
    let last_frame = *of_victim("cluster.frame")
        .last()
        .expect("the victim's frames");
    let lost = *of_victim("cluster.worker_lost")
        .last()
        .expect("the victim's loss");
    assert!(last_frame < lost, "frame {last_frame} after loss {lost}");
    let counts = &instants[lost]["fields"];
    assert!(counts["frames_sent"].as_u64() > Some(0), "{counts:?}");
    assert!(counts["frames_received"].as_u64() > Some(0), "{counts:?}");
    assert!(counts["frame_errors"].as_u64().is_some(), "{counts:?}");
    let exits: Vec<Option<&str>> = of_victim("cluster.worker_exit")
        .into_iter()
        .map(|i| instants[i]["fields"]["reason"].as_str())
        .collect();
    assert_eq!(exits, [Some("killed")]);

    // (4) Every worker_task span resolves to a coordinator `iteration`.
    let stats = skipper_report::stitch::stitch_files(&[events])
        .expect("stitch")
        .stats;
    assert!(stats.worker_tasks > 0, "{stats:?}");
    assert_eq!(
        stats.nested_under_iteration, stats.worker_tasks,
        "{stats:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
