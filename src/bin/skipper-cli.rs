//! `skipper-cli` — train, evaluate and inspect SNNs from the command line.
//!
//! ```text
//! skipper-cli info  --model vgg5
//! skipper-cli train --model lenet5 --dataset dvs-gesture --method skipper \
//!                   --checkpoints 4 --percentile 50 --epochs 4 --save model.skw
//! skipper-cli eval  --model lenet5 --dataset dvs-gesture --load model.skw
//! skipper-cli sweep --model vgg5 --dataset cifar10
//! ```
//!
//! Models/datasets are the paper's scaled workload pairings (see
//! `skipper-bench`); methods are `bptt`, `checkpointed`, `skipper`,
//! `tbptt`.

use skipper_bench::{evaluate, fit, measure, MeasureConfig, Workload, WorkloadKind};
use skipper_core::{AnalyticModel, Method, TrainSession};
use skipper_memprof::DeviceModel;
use skipper_snn::{load_params, save_params, Adam};
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
skipper-cli — memory-efficient SNN training (Skipper, MICRO 2022 reproduction)

USAGE:
    skipper-cli <COMMAND> [OPTIONS]

COMMANDS:
    info     describe a model: layers, parameters, analytic memory table
    train    train a model on a synthetic dataset
    eval     evaluate saved weights
    sweep    compare all four training methods on one workload

OPTIONS (with defaults):
    --model <vgg5|vgg11|resnet20|lenet5|custom-net|alexnet>   [vgg5]
    --dataset <cifar10|cifar100|dvs-gesture|n-mnist>          [matched to model]
    --method <bptt|checkpointed|skipper|tbptt>                [skipper]
    --checkpoints <C>        checkpoint count                 [workload default]
    --percentile <p>         skip percentile (skipper)        [workload default]
    --window <trW>           truncation window (tbptt)        [workload default]
    --timesteps <T>          simulation horizon               [workload default]
    --batch <B>              batch size                       [workload default]
    --epochs <N>             training epochs                  [3]
    --lr <f>                 Adam learning rate               [2e-3]
    --save <path>            write weights after training
    --load <path>            read weights before eval/train
";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    command: String,
    options: HashMap<String, String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let command = argv.first().cloned().ok_or("missing command")?;
    let mut options = HashMap::new();
    let mut i = 1;
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got '{}'", argv[i]))?;
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        options.insert(key.to_owned(), value.clone());
        i += 2;
    }
    Ok(Args { command, options })
}

impl Args {
    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    fn str(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_owned())
    }
}

fn workload_kind(model: &str) -> Result<WorkloadKind, String> {
    Ok(match model {
        "vgg5" => WorkloadKind::Vgg5Cifar10,
        "vgg11" => WorkloadKind::Vgg11Cifar100,
        "resnet20" => WorkloadKind::Resnet20Cifar10,
        "lenet5" => WorkloadKind::LenetDvsGesture,
        "custom-net" => WorkloadKind::CustomNetNmnist,
        "alexnet" => WorkloadKind::AlexnetCifar10,
        other => return Err(format!("unknown model '{other}' (see --help)")),
    })
}

fn method_from(args: &Args, w: &Workload) -> Result<Method, String> {
    let c = args.get("checkpoints", w.checkpoints)?;
    let p = args.get("percentile", w.percentile)?;
    let trw = args.get("window", w.trw)?;
    Ok(match args.str("method", "skipper").as_str() {
        "bptt" => Method::Bptt,
        "checkpointed" => Method::Checkpointed { checkpoints: c },
        "skipper" => Method::Skipper {
            checkpoints: c,
            percentile: p,
        },
        "tbptt" => Method::Tbptt { window: trw },
        other => return Err(format!("unknown method '{other}'")),
    })
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let kind = workload_kind(&args.str("model", "vgg5"))?;
    let w = Workload::build(kind);
    let t = args.get("timesteps", w.timesteps)?;
    let b = args.get("batch", w.batch)?;
    println!("{} (scaled reproduction workload)", w.name);
    println!("  spiking layers (L_n): {}", w.net.spiking_layer_count());
    println!("  parameters:           {}", w.net.param_scalars());
    println!("  input shape:          {:?}", w.net.input_shape());
    println!("  classes:              {}", w.net.num_classes());
    println!(
        "  per-step tape:        {} elems/sample",
        w.net.per_step_graph_elems_per_sample()
    );
    println!(
        "  paper parameters:     T={}, B={}, C={}, p={}, trW={}",
        w.paper.timesteps, w.paper.batch, w.paper.checkpoints, w.paper.percentile, w.paper.trw
    );
    let model = AnalyticModel::new(&w.net);
    println!("\n  analytic activation memory at T={t}, B={b}:");
    for m in [
        Method::Bptt,
        Method::Checkpointed {
            checkpoints: w.checkpoints,
        },
        Method::Skipper {
            checkpoints: w.checkpoints,
            percentile: w.percentile,
        },
        Method::Tbptt { window: w.trw },
    ] {
        println!(
            "    {:<16} {:>12} bytes",
            m.label(),
            model.activation_bytes(&m, t, b)
        );
    }
    println!(
        "    optimal C (analytic): {}",
        model.best_checkpoint_count(t, b)
    );
    Ok(())
}

fn load_into(w: &mut Workload, path: &str) -> Result<(), String> {
    load_params(w.net.params_mut(), path).map_err(|e| format!("loading '{path}': {e}"))
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let kind = workload_kind(&args.str("model", "vgg5"))?;
    let mut w = Workload::build(kind);
    if let Some(path) = args.options.get("load") {
        load_into(&mut w, path)?;
    }
    let t = args.get("timesteps", w.timesteps)?;
    let batch = args.get("batch", w.batch)?;
    let epochs = args.get("epochs", 3usize)?;
    let lr = args.get("lr", 2e-3f32)?;
    let method = method_from(args, &w)?;
    method
        .validate(&w.net, t)
        .map_err(|e| format!("invalid configuration: {e}"))?;
    println!(
        "training {} with {} for {epochs} epochs (T={t}, B={batch}, lr={lr})",
        w.name, method
    );
    let mut session = TrainSession::builder(w.net, method, t)
        .optimizer(Box::new(Adam::new(lr)))
        .build()
        .expect("valid method");
    let r = fit(&mut session, &w.train, &w.test, epochs, batch, 42);
    for (e, (tr, va)) in r.train_acc.iter().zip(&r.val_acc).enumerate() {
        println!(
            "  epoch {e}: train {:.1}%, val {:.1}%",
            100.0 * tr,
            100.0 * va
        );
    }
    println!(
        "done in {:.1}s; skipped {} timesteps total",
        r.wall_s, r.skipped
    );
    if let Some(path) = args.options.get("save") {
        let net = session.into_net();
        save_params(net.params(), path).map_err(|e| format!("saving '{path}': {e}"))?;
        println!("weights written to {path}");
    }
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    let kind = workload_kind(&args.str("model", "vgg5"))?;
    let mut w = Workload::build(kind);
    if let Some(path) = args.options.get("load") {
        load_into(&mut w, path)?;
    } else {
        println!("note: no --load given; evaluating the fresh initialisation");
    }
    let t = args.get("timesteps", w.timesteps)?;
    let batch = args.get("batch", w.batch)?;
    let session = TrainSession::builder(w.net, Method::Bptt, t)
        .optimizer(Box::new(Adam::new(1e-3)))
        .build()
        .expect("valid method");
    let acc = evaluate(&session, &w.test, batch, 7);
    let chance = 1.0 / w.test.num_classes() as f64;
    println!(
        "test accuracy: {:.1}% ({} samples, chance {:.1}%)",
        100.0 * acc,
        w.test.len(),
        100.0 * chance
    );
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let kind = workload_kind(&args.str("model", "vgg5"))?;
    let w0 = Workload::build(kind);
    let t = args.get("timesteps", w0.timesteps)?;
    let batch = args.get("batch", w0.batch)?;
    let device = DeviceModel::a100_80gb();
    println!("{} — method comparison (T={t}, B={batch})", w0.name);
    println!(
        "{:<16} {:>14} {:>14} {:>12}",
        "method", "tensor peak", "modeled iter", "vs baseline"
    );
    let mut base = None;
    for m in w0.methods() {
        let w = Workload::build(kind);
        if m.validate(&w.net, t).is_err() {
            println!("{:<16} (invalid at T={t})", m.label());
            continue;
        }
        let mut session = TrainSession::builder(w.net, m.clone(), t)
            .optimizer(Box::new(Adam::new(1e-3)))
            .build()
            .expect("valid method");
        let meas = measure(
            &mut session,
            &w.train,
            &MeasureConfig {
                iterations: 2,
                warmup: 1,
                batch,
                timesteps: t,
            },
        );
        let modeled_s = meas.modeled_s(&device);
        let rel = base.map_or(1.0, |b: f64| modeled_s / b);
        if base.is_none() {
            base = Some(modeled_s);
        }
        println!(
            "{:<16} {:>10} KiB {:>12.2}ms {:>11.2}x",
            m.label(),
            meas.tensor_peak / 1024,
            modeled_s * 1e3,
            rel
        );
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" || argv[0] == "help" {
        println!("{USAGE}");
        return Ok(());
    }
    let args = parse_args(&argv)?;
    match args.command.as_str() {
        "info" => cmd_info(&args),
        "train" => cmd_train(&args),
        "eval" => cmd_eval(&args),
        "sweep" => cmd_sweep(&args),
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    // Flush/teardown order: the metrics server drops before the guard
    // runs shutdown(), so /metrics stays live for the whole run and every
    // sink (stderr, files) is drained even on the error path.
    let _obs = skipper::obs::ShutdownGuard::new();
    skipper::obs::init_from_env();
    let _serve = skipper::obs::serve_from_env();
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parses_command_and_options() {
        let a = args(&["train", "--model", "vgg5", "--epochs", "7"]);
        assert_eq!(a.command, "train");
        assert_eq!(a.str("model", "x"), "vgg5");
        assert_eq!(a.get("epochs", 0usize).unwrap(), 7);
        assert_eq!(a.get("batch", 8usize).unwrap(), 8, "default");
    }

    #[test]
    fn rejects_malformed_options() {
        let argv: Vec<String> = vec!["train".into(), "oops".into()];
        assert!(parse_args(&argv).is_err());
        let argv: Vec<String> = vec!["train".into(), "--epochs".into()];
        assert!(parse_args(&argv).is_err());
    }

    #[test]
    fn model_names_resolve() {
        assert!(workload_kind("resnet20").is_ok());
        assert!(workload_kind("vgg19").is_err());
    }

    #[test]
    fn method_selection_uses_workload_defaults() {
        let w = Workload::build(WorkloadKind::Vgg5Cifar10);
        let a = args(&["train", "--method", "skipper"]);
        match method_from(&a, &w).unwrap() {
            Method::Skipper {
                checkpoints,
                percentile,
            } => {
                assert_eq!(checkpoints, w.checkpoints);
                assert_eq!(percentile, w.percentile);
            }
            other => panic!("unexpected {other:?}"),
        }
        let a = args(&["train", "--method", "tbptt", "--window", "9"]);
        assert_eq!(method_from(&a, &w).unwrap(), Method::Tbptt { window: 9 });
    }

    #[test]
    fn bad_numbers_are_reported() {
        let a = args(&["train", "--epochs", "banana"]);
        assert!(a.get("epochs", 1usize).is_err());
    }
}
