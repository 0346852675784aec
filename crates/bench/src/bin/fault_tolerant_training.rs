//! Kill-and-resume demo: fault-tolerant training with durable snapshots,
//! divergence sentinels and the memory-budget governor.
//!
//! The batch fed at iteration `i` is derived deterministically from `i`,
//! so a run that is killed and resumed from its snapshot replays the
//! exact batches the uninterrupted run would have seen — and, because
//! snapshots restore the complete optimizer state and the iteration
//! counter that seeds every iteration's randomness, the loss trajectory
//! after the resume is **bit-exact** against the uninterrupted run.
//!
//! ```text
//! # uninterrupted reference
//! fault_tolerant_training --batches 10
//!
//! # crash after 5 batches, then pick the run back up
//! fault_tolerant_training --batches 10 --kill-after 5
//! fault_tolerant_training --batches 10 --resume
//! ```
//!
//! The per-iteration `loss bits` lines of the reference and of the
//! resumed run agree exactly from iteration 6 on.
//!
//! Other knobs: `--poison N` forces the loss to NaN at iteration `N`
//! (watch the sentinels drop the faulty gradients, back the learning
//! rate off and retry); `--mem-budget BYTES` arms the governor (watch it step the
//! method toward the paper's `C = √T` optimum under pressure).

use skipper_bench::{Workload, WorkloadKind};
use skipper_core::{Method, SentinelConfig, TrainSession};
use skipper_snn::Adam;
use skipper_tensor::XorShiftRng;

struct Args {
    batches: u64,
    snapshot: String,
    resume: bool,
    mem_budget: Option<u64>,
    kill_after: Option<u64>,
    poison: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        batches: 10,
        snapshot: "fault_demo.sksn".into(),
        resume: false,
        mem_budget: None,
        kill_after: None,
        poison: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} expects a value"))
        };
        match flag.as_str() {
            "--batches" => args.batches = value("--batches").parse().expect("--batches: u64"),
            "--snapshot" => args.snapshot = value("--snapshot"),
            "--resume" => args.resume = true,
            "--mem-budget" => {
                args.mem_budget = Some(value("--mem-budget").parse().expect("--mem-budget: bytes"))
            }
            "--kill-after" => {
                args.kill_after = Some(value("--kill-after").parse().expect("--kill-after: u64"))
            }
            "--poison" => args.poison = Some(value("--poison").parse().expect("--poison: u64")),
            "--help" | "-h" => {
                println!(
                    "usage: fault_tolerant_training [--batches N] [--snapshot PATH] [--resume] \
                     [--mem-budget BYTES] [--kill-after N] [--poison ITER]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    args
}

fn main() {
    // Installs the env-driven sinks, serves SKIPPER_OBS_ADDR and flushes
    // everything on a normal exit (the crash-injection path leaves through
    // process::exit, as a crash would).
    let _run = skipper_bench::BenchRun::start();
    let args = parse_args();
    let w = Workload::build_for_measurement(WorkloadKind::CustomNetNmnist);
    let timesteps = w.timesteps;
    let method = Method::Skipper {
        checkpoints: w.checkpoints,
        percentile: w.percentile,
    };
    let mut session = TrainSession::builder(w.net, method, timesteps)
        .optimizer(Box::new(Adam::new(1e-3)))
        .build()
        .expect("valid method");
    session.enable_sentinels(SentinelConfig::default());
    session.set_memory_budget(args.mem_budget);
    if let Some(iter) = args.poison {
        session.inject_loss_poison(iter);
    }

    if args.resume {
        session
            .resume_from(&args.snapshot)
            .unwrap_or_else(|e| panic!("cannot resume from {}: {e}", args.snapshot));
        println!(
            "resumed from {} at iteration {}",
            args.snapshot,
            session.iteration()
        );
    } else {
        println!("fresh session ({}, T={timesteps})", session.method());
    }

    let mut completed = 0u64;
    while session.iteration() < args.batches {
        // The upcoming iteration index alone decides the batch content, so
        // interrupted and uninterrupted runs see identical data.
        let seed = session.iteration() + 1;
        let (inputs, labels) = w
            .train
            .first_batch(w.batch, timesteps, &mut XorShiftRng::new(seed));
        let stats = match session.try_train_batch(&inputs, &labels) {
            Ok(stats) => stats,
            Err(e) => {
                eprintln!("training stopped: {e}");
                eprintln!("last good state is in {}", args.snapshot);
                std::process::exit(2);
            }
        };
        println!(
            "iter {:>3}  loss {:.6} (bits {:016x})  acc {:.2}  peak {:>6} KiB  lr {:.2e}{}",
            session.iteration(),
            stats.loss,
            stats.loss.to_bits(),
            stats.accuracy(),
            stats.peak_bytes() / 1024,
            session.learning_rate(),
            if stats.recoveries > 0 {
                format!("  [recovered x{}]", stats.recoveries)
            } else {
                String::new()
            }
        );
        for action in session
            .governor_log()
            .iter()
            .filter(|a| a.iteration == session.iteration())
        {
            println!("       governor: {action}");
        }
        session
            .save_snapshot(&args.snapshot)
            .unwrap_or_else(|e| panic!("cannot snapshot to {}: {e}", args.snapshot));
        completed += 1;
        if args.kill_after == Some(completed) {
            println!("simulating a crash after {completed} batches (snapshot is durable)");
            std::process::exit(17);
        }
    }
    println!(
        "done: {} iterations, snapshot at {}",
        session.iteration(),
        args.snapshot
    );
}
