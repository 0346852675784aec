//! The deployment the wire exists for, and the only place it runs: the
//! real `cluster_host` binary and two real `skipper_worker` processes,
//! talking TCP between address spaces. Every other cluster test runs its
//! workers as threads of the test.
//!
//! One worker has the README's chaos armed on its link through the
//! environment, as a user would arm it: `skipper_worker` must accept the
//! documented grammar, and armed chaos must leave the bits alone. (With
//! this seed a connection delays about one frame in twenty and corrupts
//! its 117th first — more than a run this short sends unless the worker
//! idles — so this is not where reconnect-and-replay is exercised;
//! `crates/core/tests/cluster_chaos_tcp.rs` is.) The printed loss bits must
//! be the ones a `workers(2)` pool session computes here from the same
//! constants `cluster_host` uses.

use skipper_core::{Method, TrainSession};
use skipper_snn::{custom_net, ModelConfig, Sgd};
use skipper_tensor::{Tensor, XorShiftRng};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// `cluster_host`'s constants (its `T`, `BATCH`, `ITERATIONS`, model and
/// data seeds); the comparison below fails if the two drift apart.
const T: usize = 12;
const BATCH: usize = 8;
const ITERATIONS: usize = 8;

/// A child that is killed if the test unwinds before it has exited.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Reaped {
    fn exit_status(&mut self, what: &str) -> ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Some(status) = self.0.try_wait().expect("poll child") {
                return status;
            }
            assert!(Instant::now() < deadline, "{what} did not exit");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// `bin` with everything it could write pointed at `dir`, and none of the
/// caller's observability knobs (a sink or endpoint from the environment
/// would write outside it).
fn command(bin: &str, dir: &Path) -> Command {
    let mut cmd = Command::new(bin);
    cmd.current_dir(dir)
        .env_remove("SKIPPER_CHAOS")
        .env_remove("SKIPPER_OBS")
        .env_remove("SKIPPER_OBS_ADDR")
        .env_remove("SKIPPER_OBS_JSONL");
    cmd
}

fn pool_reference() -> Vec<String> {
    let model = ModelConfig {
        input_hw: 8,
        width_mult: 0.25,
        seed: 11,
        ..ModelConfig::default()
    };
    let method = Method::Skipper {
        checkpoints: 2,
        percentile: 30.0,
    };
    let mut session = TrainSession::builder(custom_net(&model), method, T)
        .optimizer(Box::new(Sgd::new(0.5)))
        .workers(2)
        .build()
        .expect("valid method");
    let mut rng = XorShiftRng::new(42);
    let inputs: Vec<Tensor> = (0..T)
        .map(|_| Tensor::rand([BATCH, 3, 8, 8], &mut rng).map(|x| (x > 0.6) as i32 as f32))
        .collect();
    let labels: Vec<usize> = (0..BATCH).map(|i| i % 10).collect();
    (0..ITERATIONS)
        .map(|_| {
            format!(
                "{:016x}",
                session.train_batch(&inputs, &labels).loss.to_bits()
            )
        })
        .collect()
}

#[test]
fn host_and_two_worker_processes_print_the_pool_sessions_loss_bits() {
    let dir =
        std::env::temp_dir().join(format!("skipper_cluster_processes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let mut host = Reaped(
        command(env!("CARGO_BIN_EXE_cluster_host"), &dir)
            .env("SKIPPER_CLUSTER_ADDR", "127.0.0.1:0")
            .stdout(Stdio::piped())
            .spawn()
            .expect("start cluster_host"),
    );
    let mut stdout = BufReader::new(host.0.stdout.take().expect("piped stdout")).lines();

    // "coordinator on 127.0.0.1:PORT: waiting for …" — the resolved port.
    let first = stdout.next().expect("a first line").expect("utf-8");
    let addr = first
        .strip_prefix("coordinator on ")
        .and_then(|rest| rest.split_once(": waiting"))
        .map(|(addr, _)| addr.to_string())
        .unwrap_or_else(|| panic!("no address in {first:?}"));

    let mut workers: Vec<Reaped> = [
        (1, None),
        (2, Some("seed=7,corrupt=0.02,delay=0.05,delay_us=2000")),
    ]
    .into_iter()
    .map(|(id, chaos)| {
        let mut cmd = command(env!("CARGO_BIN_EXE_skipper_worker"), &dir);
        cmd.args(["--addr", &addr, "--id", &id.to_string()])
            .stdout(Stdio::null());
        if let Some(chaos) = chaos {
            cmd.env("SKIPPER_CHAOS", chaos);
        }
        Reaped(cmd.spawn().expect("start skipper_worker"))
    })
    .collect();

    // "iter  1  loss 2.302585 (bits 40026bb1bbb55515)  skipped 2"
    let printed: Vec<String> = stdout
        .map(|line| line.expect("utf-8"))
        .filter_map(|line| {
            let (_, rest) = line.split_once("(bits ")?;
            Some(rest.split_once(')')?.0.to_string())
        })
        .collect();

    assert!(host.exit_status("cluster_host").success());
    for (i, worker) in workers.iter_mut().enumerate() {
        let status = worker.exit_status("skipper_worker");
        assert!(status.success(), "worker {}: {status}", i + 1);
    }
    assert_eq!(printed, pool_reference(), "loss bits, host vs pool");

    let _ = std::fs::remove_dir_all(&dir);
}
