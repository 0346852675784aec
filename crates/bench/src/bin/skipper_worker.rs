//! Standalone cluster worker: dials a Skipper coordinator over TCP and
//! computes whatever shards it is assigned until the coordinator shuts
//! the cluster down.
//!
//! ```text
//! # terminal 1 — any trainer built with .cluster(Coordinator::listen_tcp(..))
//! SKIPPER_CLUSTER_ADDR=127.0.0.1:7177 cluster_host
//!
//! # terminals 2..n — one worker each
//! SKIPPER_CLUSTER_ADDR=127.0.0.1:7177 skipper_worker --id 1
//! ```
//!
//! The worker needs no model file and no data: the coordinator's Welcome
//! frame carries the `WireSpec` (model config and horizon), and every
//! work message carries its method, weights and input rows. Faults are
//! survivable by construction — a torn connection is retried with bounded
//! exponential backoff, and the coordinator replays any attempt the death
//! of this worker invalidated.
//!
//! Knobs: `--addr HOST:PORT` (overrides `SKIPPER_CLUSTER_ADDR`),
//! `--id N` (stable worker id; 0 lets the coordinator assign one),
//! `SKIPPER_CHAOS` (deterministic fault injection on this worker's link,
//! e.g. `seed=7,corrupt=0.02,delay=0.05,delay_us=2000,kill=1@3`).

use skipper_core::{cluster_addr_from_env, run_worker, ChaosConfig, TcpConnector, WorkerOptions};

struct Args {
    addr: Option<String>,
    id: u64,
}

fn parse_args() -> Args {
    let mut args = Args { addr: None, id: 0 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} expects a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")),
            "--id" => args.id = value("--id").parse().expect("--id: u64"),
            "--help" | "-h" => {
                println!("usage: skipper_worker [--addr HOST:PORT] [--id N]");
                println!("       SKIPPER_CLUSTER_ADDR supplies --addr when the flag is absent");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    args
}

fn main() {
    // `std::process::exit` skips destructors, so all exit codes funnel
    // through `real_main`'s return value: the `BenchRun` guard (which
    // flushes obs sinks, the `SKIPPER_OBS_JSONL` event stream among them)
    // drops on every path, including disconnect/kill failures.
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let _run = skipper_bench::BenchRun::start();
    let args = parse_args();
    let Some(addr) = args.addr.or_else(cluster_addr_from_env) else {
        eprintln!("no coordinator address: pass --addr or set SKIPPER_CLUSTER_ADDR");
        return 2;
    };
    let chaos = match ChaosConfig::from_env() {
        Ok(chaos) => chaos,
        Err(e) => {
            eprintln!("bad SKIPPER_CHAOS: {e}");
            return 2;
        }
    };
    if let Some(cfg) = &chaos {
        println!("chaos armed on this link: {cfg:?}");
    }

    println!("dialing coordinator at {addr} (worker id {})", args.id);
    let mut connector = TcpConnector::new(addr, chaos.clone());
    let opts = WorkerOptions {
        id: args.id,
        chaos,
        ..WorkerOptions::default()
    };
    match run_worker(&mut connector, &opts) {
        Ok(report) => {
            println!(
                "worker done: {} iterations, {} shards, {} reconnects{}",
                report.iterations,
                report.shards,
                report.reconnects,
                if report.killed {
                    " (killed by chaos schedule)"
                } else {
                    ""
                }
            );
            0
        }
        Err(e) => {
            eprintln!("worker failed: {e}");
            1
        }
    }
}
