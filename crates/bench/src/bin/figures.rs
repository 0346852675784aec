//! `figures [--quick] [NAME…]` — the paper's evaluation (Section VII:
//! Figs. 3–4 and 7–16, Tables I–II) plus this repository's supplementary
//! figures, as one table ([`FIGURES`]) over `skipper_bench::workloads`.
//!
//! No name runs every entry in paper order; a name is an entry's `name`
//! and also the stem of its outputs, `results/<name>.txt` and
//! `results/<name>.json`. `--quick` shrinks every sweep to a smoke run.
//!
//! Everything printed is deterministic — byte-exact tracker peaks, modeled
//! device time from exact kernel counts, accuracy, step counts — so two
//! runs of one commit can be compared with `cmp`. Wall-clock time is the
//! pinned benchmark's job (`benchmark/`), not this binary's.
//!
//! Tracker measurements go through one cache ([`Ctx::cell`]): a
//! (workload, method, B, T) cell is trained and measured once, however
//! many figures print it and under whichever device model.

use serde_json::{json, Map, Value};
use skipper_autograd::Surrogate;
use skipper_bench::WorkloadKind::{self, *};
use skipper_bench::{
    fit, human_bytes, measure, BenchRun, MeasureConfig, Measurement, Report, Workload,
};
use skipper_core::{
    max_checkpoints, max_skippable_percentile, percentile, AnalyticModel, Method, SamMetric,
    SkipPolicy, TrainSession,
};
use skipper_memprof::{
    downsample, enable_event_log, reset_peaks, snapshot, sparkline, take_events,
    timeline_from_events, Category, DataParallelModel, DeviceModel,
};
use skipper_snn::{resnet20, resnet34, vgg11, vgg5, Adam, ModelConfig, SpikingNetwork};
use skipper_tensor::XorShiftRng;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Where an entry's numbers come from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Source {
    /// The byte-exact memory tracker and kernel log of instrumented
    /// iterations, through the measurement cache.
    Tracker,
    /// Held-out accuracy of a `fit` run.
    Fit,
    /// The analytic memory model at paper scale, or one narrated run: a
    /// plain function, nothing swept.
    Plain,
}

/// What an entry sweeps, with the values it takes.
#[derive(Clone, Copy)]
enum Sweep {
    /// Batch size `B`.
    Batch([&'static [usize]; 2]),
    /// Horizon `T`, in eighths of the workload's scaled default.
    Eighths([&'static [usize]; 2]),
    /// Horizon `T`, absolute.
    Timesteps([&'static [usize]; 2]),
    /// Checkpoint count `C`: candidates, which the network's depth bounds.
    Checkpoints([&'static [usize]; 2]),
    /// TBPTT-LBP truncation window `trW`.
    Window([&'static [usize]; 2]),
    /// Nothing beyond workloads and methods.
    Nothing,
}

/// One row of the evaluation. Pairs are `[full, quick]`.
struct Figure {
    /// Entry name and output file stem.
    name: &'static str,
    /// Prints everything up to the expected-shape text.
    render: fn(&mut Ctx, &Figure, &mut Report),
    workloads: [&'static [WorkloadKind]; 2],
    sweep: Sweep,
    /// Which of the workload's four paper methods it compares (a range of
    /// [`Workload::methods`]: baseline, checkpointed, Skipper, TBPTT);
    /// empty where the entry brings its own configurations.
    methods: Range<usize>,
    /// Training epochs per point (`Fit` entries only).
    epochs: [usize; 2],
    /// The closing "Expected shape" lines: what the paper shows.
    expected: &'static str,
}

impl Figure {
    /// The methods it compares on `workload`, at the scaled defaults.
    fn methods(&self, workload: &Workload) -> Vec<Method> {
        workload.methods()[self.methods.clone()].to_vec()
    }

    fn source(&self) -> Source {
        match (self.workloads[0], self.epochs[0]) {
            ([], _) => Source::Plain,
            (_, 0) => Source::Tracker,
            _ => Source::Fit,
        }
    }
}

const BATCHES: Sweep = Sweep::Batch([&[2, 4, 8, 16], &[4]]);
const VGG5_RESNET20: [&[WorkloadKind]; 2] = [&[Vgg5Cifar10, Resnet20Cifar10]; 2];
const LENET: [&[WorkloadKind]; 2] = [&[LenetDvsGesture]; 2];
const ALEXNET: [&[WorkloadKind]; 2] = [&[AlexnetCifar10]; 2];

/// A narrated or analytic entry: the defaults of the fields it leaves out.
const PLAIN: Figure = Figure {
    name: "",
    render: |_, _, _| {},
    workloads: [&[], &[]],
    sweep: Sweep::Nothing,
    methods: 0..0,
    epochs: [0, 0],
    expected: "",
};

/// An entry on the batch grid of Figs. 10–13: the four sweep workloads at
/// B = 2, 4, 8, 16.
const GRID: Figure = Figure {
    workloads: [&WorkloadKind::SWEEPS, &[Vgg5Cifar10]],
    sweep: BATCHES,
    ..PLAIN
};

/// The evaluation, in paper order.
const FIGURES: [Figure; 21] = [
    Figure {
        name: "fig03_accuracy_memory_vs_t",
        render: fig03_accuracy_memory_vs_t,
        workloads: VGG5_RESNET20,
        sweep: Sweep::Eighths([&[1, 2, 4, 6, 8], &[2, 4]]),
        methods: 0..1,
        epochs: [3, 1],
        expected: "Expected shape (paper Fig. 3a,b): accuracy rises with T while\n\
                   memory grows linearly in T.",
    },
    Figure {
        name: "fig03_breakdown_vs_t",
        render: fig03_breakdown_vs_t,
        workloads: VGG5_RESNET20,
        sweep: Sweep::Eighths([&[2, 4, 6, 8]; 2]),
        methods: 0..1,
        expected: "Expected shape (paper Fig. 3c,d): activations dominate and their\n\
                   share grows with T (paper: 60%-95%).",
        ..PLAIN
    },
    Figure {
        name: "fig03_time_vs_batch",
        render: fig03_time_vs_batch,
        workloads: VGG5_RESNET20,
        sweep: Sweep::Batch([&[2, 4, 8, 16, 32], &[2, 8]]),
        methods: 0..1,
        expected: "Expected shape (paper Fig. 3e,f): modeled epoch time drops\n\
                   several-fold as B grows; memory scales linearly with B.",
        ..PLAIN
    },
    Figure {
        name: "fig04_resnet34_imagenet",
        render: fig04_resnet34_imagenet,
        expected: "Expected shape (paper Fig. 4): activations are 56-90% of memory,\n\
                   growing with T; larger batches amortise time but B=16 is the\n\
                   largest that fits at T=200, and one ImageNet epoch takes days.",
        ..PLAIN
    },
    Figure {
        name: "fig07_memory_vs_checkpoints",
        render: fig07_memory_vs_checkpoints,
        sweep: Sweep::Checkpoints([&[1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 24]; 2]),
        methods: 0..2,
        expected: "Expected shape (paper Fig. 7): memory falls to a minimum near\n\
                   C = sqrt(T) then rises again; the checkpointed runtime sits ~30%\n\
                   above baseline and stays roughly constant across C.",
        ..GRID
    },
    Figure {
        name: "table1_accuracy",
        render: table1_accuracy,
        workloads: [&WorkloadKind::TABLE1, &[Vgg5Cifar10, CustomNetNmnist]],
        methods: 0..4,
        epochs: [8, 1],
        expected: "Expected shape (paper Table I): checkpointed == baseline;\n\
                   skipper within noise of baseline even at high p; TBPTT\n\
                   competitive on shallow nets, weaker on the deep ones.",
        ..PLAIN
    },
    Figure {
        name: "fig08_scratch_curves",
        render: fig08_scratch_curves,
        workloads: LENET,
        methods: 0..3,
        epochs: [8, 2],
        expected: "Expected shape (paper Fig. 8): the three curves overlap — skipper\n\
                   converges like baseline while skipping low-activity timesteps.",
        ..PLAIN
    },
    Figure {
        name: "fig09_accuracy_vs_t",
        render: fig09_accuracy_vs_t,
        workloads: LENET,
        sweep: Sweep::Timesteps([&[8, 16, 24, 32, 40], &[16, 32]]),
        epochs: [5, 2],
        expected: "Expected shape (paper Fig. 9): accuracy improves with T; skipper\n\
                   tracks baseline at every horizon.",
        ..PLAIN
    },
    Figure {
        name: "fig10_overhead_vs_batch",
        render: fig10_overhead_vs_batch,
        methods: 0..4,
        expected: "Expected shape (paper Fig. 10): checkpointing ~+30%; skipper\n\
                   negative overhead (faster than baseline); TBPTT also fast.",
        ..GRID
    },
    Figure {
        name: "fig11_latency_vs_batch",
        render: fig11_latency_vs_batch,
        methods: 0..3,
        expected: "Expected shape (paper Fig. 11): at any fixed memory budget the\n\
                   skipper column reaches the largest batch and lowest epoch latency.",
        ..GRID
    },
    Figure {
        name: "fig12_memory_vs_batch",
        render: fig12_memory_vs_batch,
        methods: 0..4,
        expected: "Expected shape (paper Fig. 12): baseline >> checkpointed ≈ TBPTT\n\
                   > skipper, with the gap widening as B grows (paper: 1.7x-3.7x\n\
                   for checkpointing, a further 1.2x-1.7x for skipper).",
        ..GRID
    },
    Figure {
        name: "fig13_memory_breakdown",
        render: fig13_memory_breakdown,
        sweep: Sweep::Batch([&[2, 8, 16], &[4]]),
        methods: 0..3,
        expected: "Expected shape (paper Fig. 13): the fixed context share is largest\n\
                   for the smallest (skipper) configurations, so tensor-only savings\n\
                   exceed the overall-memory savings of Fig. 12.",
        ..GRID
    },
    Figure {
        name: "fig14_memory_vs_timesteps",
        render: fig14_memory_vs_timesteps,
        workloads: [&[Vgg11Cifar100, Resnet20Cifar10]; 2],
        sweep: Sweep::Eighths([&[4, 8], &[4]]),
        methods: 0..3,
        expected: "Expected shape (paper Fig. 14): baseline grows linearly and OOMs\n\
                   first; checkpointing reaches ~3-4.5x its T_max; skipper ~9x.",
        ..PLAIN
    },
    Figure {
        name: "fig15_edge_device",
        render: fig15_edge_device,
        workloads: [&[Vgg5Cifar10]; 2],
        methods: 0..3,
        expected: "Expected shape (paper Fig. 15): baseline stalls around B=8,\n\
                   checkpointing reaches ~B=32, skipper ~B=64, halving latency.",
        ..GRID
    },
    Figure {
        name: "table2_tbptt_lbp",
        render: table2_tbptt_lbp,
        workloads: ALEXNET,
        epochs: [4, 1],
        expected: "Expected shape (paper Table II): similar accuracy everywhere;\n\
                   LBP trW=20 costs more memory than trW=10 without gaining\n\
                   accuracy; C=2 and C=2&p=20 match it at equal or lower memory.",
        ..PLAIN
    },
    Figure {
        name: "fig16_tbptt_lbp_sweep",
        render: fig16_tbptt_lbp_sweep,
        workloads: ALEXNET,
        sweep: Sweep::Window([&[10, 25, 50], &[10]]),
        epochs: [3, 1],
        expected: "Expected shape (paper Fig. 16): larger LBP windows cost memory/\n\
                   time with flat accuracy; the proposed schemes hold accuracy at\n\
                   T=50 with up to 40% of timesteps skipped, at lower memory.",
        ..PLAIN
    },
    Figure {
        name: "memory_timeline",
        render: memory_timeline,
        expected: "Expected shape: one tall sawtooth for baseline; C low humps for\n\
                   checkpointing; flattened humps for skipper.",
        ..PLAIN
    },
    Figure {
        name: "walkthrough",
        render: walkthrough,
        ..PLAIN
    },
    Figure {
        name: "ablation_sam_policy",
        render: ablation_sam_policy,
        workloads: LENET,
        epochs: [6, 2],
        expected: "Expected shape: all SST variants track baseline accuracy; the\n\
                   random policy is the weakest guide at equal p (the paper's\n\
                   argument for activity-guided rather than random skipping).",
        ..PLAIN
    },
    Figure {
        name: "ablation_surrogate",
        render: ablation_surrogate,
        workloads: [&[Vgg5Cifar10]; 2],
        epochs: [4, 1],
        expected: "Expected shape: every surrogate trains; skipper stays within\n\
                   noise of its own baseline for each surrogate family.",
        ..PLAIN
    },
    Figure {
        name: "trace_training",
        render: trace_training,
        ..PLAIN
    },
];

/// What the entries of one invocation share.
struct Ctx {
    quick: bool,
    /// Where reports and artefacts are written.
    out: PathBuf,
    /// The measurement cache: every cell measured so far, by
    /// (workload, method, B, T).
    cells: Vec<(Cell, Rc<Measurement>)>,
}

type Cell = (WorkloadKind, Method, usize, usize);

impl Ctx {
    /// The full or the quick half of a `[full, quick]` pair.
    fn pick<T: Copy>(&self, pair: [T; 2]) -> T {
        pair[self.quick as usize]
    }

    /// The values `fig` sweeps on a workload whose scaled default horizon
    /// is `timesteps`.
    fn sweep(&self, fig: &Figure, timesteps: usize) -> Vec<usize> {
        use Sweep::*;
        match fig.sweep {
            Eighths(v) => self.pick(v).iter().map(|k| timesteps * k / 8).collect(),
            Batch(v) | Timesteps(v) | Checkpoints(v) | Window(v) => self.pick(v).to_vec(),
            Nothing => Vec::new(),
        }
    }

    /// Tracker measurement of one grid cell: a fresh measurement build of
    /// `kind` trained with `method` at batch `batch` over `timesteps`
    /// steps, one warm-up iteration and two instrumented ones. A cell
    /// already measured in this invocation is not run again.
    fn cell(
        &mut self,
        kind: WorkloadKind,
        method: &Method,
        batch: usize,
        timesteps: usize,
    ) -> Rc<Measurement> {
        let cell = (kind, method.clone(), batch, timesteps);
        if let Some((_, hit)) = self.cells.iter().find(|(c, _)| *c == cell) {
            return Rc::clone(hit);
        }
        let w = Workload::build_for_measurement(kind);
        let mut s = session(w.net, method, timesteps, 1e-3);
        let cfg = MeasureConfig {
            iterations: 2,
            warmup: 1,
            batch,
            timesteps,
        };
        let measured = Rc::new(measure(&mut s, &w.train, &cfg));
        self.cells.push((cell, Rc::clone(&measured)));
        measured
    }
}

/// The one way a figure builds a training session.
fn session(net: SpikingNetwork, method: &Method, timesteps: usize, lr: f32) -> TrainSession {
    TrainSession::builder(net, method.clone(), timesteps)
        .optimizer(Box::new(Adam::new(lr)))
        .build()
        .expect("valid method")
}

/// Learning rate of the accuracy (`fit`) entries; measured cells use 1e-3.
const FIT_LR: f32 = 2e-3;

fn skipper(checkpoints: usize, percentile: f32) -> Method {
    Method::Skipper {
        checkpoints,
        percentile,
    }
}

/// Column header of a table with one row per sweep value and one column
/// per method.
fn method_columns(axis: &str, methods: &[Method]) -> String {
    let mut header = format!("{axis:>6}");
    for m in methods {
        header += &format!(" {:>16}", m.label());
    }
    header
}

/// Paper Fig. 3(a,b): test accuracy and GPU memory vs timesteps for
/// VGG5+CIFAR10 and ResNet20+CIFAR10 under baseline BPTT.
fn fig03_accuracy_memory_vs_t(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    let epochs = cx.pick(fig.epochs);
    for &kind in cx.pick(fig.workloads) {
        let probe = Workload::build_raw(kind);
        r.line(format!(
            "== {} (scaled from paper T={} B={}) — baseline BPTT ==",
            probe.name, probe.paper.timesteps, probe.paper.batch
        ));
        r.line(format!(
            "{:>6} {:>10} {:>14}",
            "T", "test acc", "peak tensor mem"
        ));
        let mut series = Vec::new();
        for t in cx.sweep(fig, probe.timesteps) {
            let w = Workload::build(kind);
            let mut s = session(w.net, &Method::Bptt, t, FIT_LR);
            reset_peaks();
            let acc = fit(&mut s, &w.train, &w.test, epochs, w.batch, 42).final_val_acc();
            let peak = snapshot().total_peak();
            r.line(format!(
                "{t:>6} {:>9.1}% {:>10.2} MiB",
                100.0 * acc,
                peak as f64 / (1 << 20) as f64
            ));
            series.push(json!({"t": t, "test_acc": acc, "peak_bytes": peak}));
        }
        r.json(probe.name, series);
        r.blank();
    }
}

/// Paper Fig. 3(c,d): breakdown of GPU tensor memory by category vs
/// timesteps, for VGG5 and ResNet20 at fixed batch size, baseline BPTT.
fn fig03_breakdown_vs_t(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    let cats = [
        Category::Activations,
        Category::Input,
        Category::Weights,
        Category::WeightGrads,
        Category::OptimizerState,
    ];
    for &kind in cx.pick(fig.workloads) {
        let probe = Workload::build_raw(kind);
        r.line(format!(
            "== {} — tensor memory breakdown vs T (B={}) ==",
            probe.name, probe.batch
        ));
        let mut header = format!("{:>6}", "T");
        for c in cats {
            header += &format!(" {:>14}", c.label());
        }
        r.line(header);
        let mut series = Vec::new();
        for t in cx.sweep(fig, probe.timesteps) {
            let m = cx.cell(kind, &Method::Bptt, probe.batch, t);
            let total: u64 = cats.iter().map(|&c| m.peak(c)).sum();
            let mut row = format!("{t:>6}");
            let mut frac = Map::new();
            for c in cats {
                let pct = 100.0 * m.peak(c) as f64 / total.max(1) as f64;
                row += &format!(" {pct:>13.1}%");
                frac.insert(c.label().to_owned(), json!(pct));
            }
            r.line(row);
            series.push(json!({"t": t, "percent": frac, "total_bytes": total}));
        }
        r.json(probe.name, series);
        r.blank();
    }
}

/// Paper Fig. 3(e,f): time per training epoch and GPU memory vs batch
/// size, for VGG5 and ResNet20 under baseline BPTT. Modeled device time
/// only: what a data-parallel step costs in wall time on this host is
/// `core.engine.w2_over_w1_x` and `mt.*` in `benchmark/`, and that its
/// loss is bit-identical for every worker count is `engine_determinism.rs`.
fn fig03_time_vs_batch(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    let device = DeviceModel::a100_80gb();
    let epoch_samples = 512usize; // fixed sample budget per epoch
    for &kind in cx.pick(fig.workloads) {
        let probe = Workload::build_raw(kind);
        r.line(format!(
            "== {} — epoch time & memory vs batch size (T={}) ==",
            probe.name, probe.timesteps
        ));
        r.line(format!(
            "{:>6} {:>16} {:>14}",
            "B", "epoch (modeled)", "tensor peak"
        ));
        let mut series = Vec::new();
        for b in cx.sweep(fig, probe.timesteps) {
            let m = cx.cell(kind, &Method::Bptt, b, probe.timesteps);
            let epoch_s = m.modeled_s(&device) * epoch_samples.div_ceil(b) as f64;
            r.line(format!(
                "{b:>6} {epoch_s:>14.2} s {:>14}",
                human_bytes(m.tensor_peak)
            ));
            series.push(json!({
                "batch": b,
                "epoch_modeled_s": epoch_s,
                "tensor_peak": m.tensor_peak,
            }));
        }
        r.json(probe.name, series);
        r.blank();
    }
}

/// Paper Fig. 4: ResNet34 SNN on ImageNet — (a) tensor memory breakdown vs
/// timesteps at B=1, and (b) data-parallel training time on 4x A100 and
/// per-GPU memory vs batch size at T=200.
///
/// The paper itself can only run this configuration partially (B=16 is the
/// largest batch that fits at T=200, and a single epoch extrapolates to
/// ~3.5 days); here the *validated* analytic memory model and the GPU
/// roofline model project the full figure.
fn fig04_resnet34_imagenet(_: &mut Ctx, _: &Figure, r: &mut Report) {
    // Full-scale ResNet34 at ImageNet geometry (this only allocates the
    // weights, ~85 MB — the activations exist analytically).
    let net = resnet34(&ModelConfig {
        input_hw: 224,
        in_channels: 3,
        num_classes: 1000,
        width_mult: 1.0,
        ..ModelConfig::default()
    });
    let model = AnalyticModel::new(&net);
    r.line(format!(
        "ResNet34 SNN @ ImageNet geometry: {} spiking layers, {:.1}M params",
        net.spiking_layer_count(),
        net.param_scalars() as f64 / 1e6
    ));

    r.blank();
    r.line("(a) tensor memory breakdown vs T at B=1 (baseline BPTT):");
    r.line(format!(
        "{:>6} {:>12} {:>8} {:>9} {:>9} {:>10} {:>10}",
        "T", "total", "act %", "input %", "wts %", "grads %", "optim %"
    ));
    let mut series_a = Vec::new();
    for t in [50usize, 100, 150, 200] {
        let b = model.breakdown(&Method::Bptt, t, 1);
        let total = b.total() as f64;
        r.line(format!(
            "{t:>6} {:>12} {:>7.1}% {:>8.1}% {:>8.1}% {:>9.1}% {:>9.1}%",
            human_bytes(b.total()),
            100.0 * b.activations as f64 / total,
            100.0 * b.input as f64 / total,
            100.0 * b.weights as f64 / total,
            100.0 * b.weight_grads as f64 / total,
            100.0 * b.optimizer as f64 / total,
        ));
        series_a.push(json!({
            "t": t,
            "total": b.total(),
            "activation_fraction": b.activation_fraction(),
        }));
    }
    r.json("breakdown_vs_t", series_a);

    r.blank();
    r.line("(b) 4x A100 data-parallel: time to train 800 samples and per-GPU");
    r.line("    memory vs global batch size (T=200):");
    r.line(format!(
        "{:>6} {:>16} {:>16} {:>6}",
        "B", "train time", "per-GPU mem", "fits?"
    ));
    let cluster = DataParallelModel::four_a100();
    let device = DeviceModel::a100_80gb();
    let t = 200usize;
    let fwd_flops = net.per_step_flops_per_sample();
    let param_bytes = net.param_scalars() * 4;
    let resident = param_bytes * 4; // weights + grads + 2 Adam moments
    let kernels_per_step = net.modules().len() as f64 * 2.0;
    let mut series_b = Vec::new();
    for batch in [4usize, 8, 12, 16] {
        let shard = (batch / cluster.n_devices).max(1);
        // Iteration = forward + recompute-free backward (2x) over T steps.
        let step_flops = fwd_flops * shard as f64;
        let iter_s: f64 = (0..t)
            .map(|_| {
                3.0 * device.kernel_time_s(step_flops, step_flops)
                    + kernels_per_step * device.launch_overhead_s
            })
            .sum();
        let act = model.activation_bytes(&Method::Bptt, t, shard);
        let cost = cluster.step(iter_s, param_bytes, resident, act);
        let total_s = cost.total_s() * 800usize.div_ceil(batch) as f64;
        r.line(format!(
            "{batch:>6} {:>13.1} min {:>16} {:>6}",
            total_s / 60.0,
            human_bytes(cost.per_device_bytes),
            if cluster.fits(&cost) { "yes" } else { "OOM" }
        ));
        series_b.push(json!({
            "batch": batch,
            "train_800_s": total_s,
            "per_gpu_bytes": cost.per_device_bytes,
            "fits": cluster.fits(&cost),
        }));
    }
    r.json("data_parallel_vs_batch", series_b);
    r.blank();
}

/// Paper Fig. 7: overall peak memory and computation time vs the number of
/// checkpoints C, for the four sweep workloads at fixed B and T.
fn fig07_memory_vs_checkpoints(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    let device = DeviceModel::a100_80gb();
    for &kind in cx.pick(fig.workloads) {
        let probe = Workload::build_raw(kind);
        let layers = probe.net.spiking_layer_count();
        // Shallow networks get a doubled horizon so the U-shaped minimum
        // (near sqrt(T·A/S), Eq. 3) falls inside the admissible C range.
        let t = probe.timesteps * if layers <= 7 { 2 } else { 1 };
        let cmax = max_checkpoints(t, layers);
        r.line(format!(
            "== {} — memory & time vs C (T={t}, B={}, C_max={cmax}) ==",
            probe.name, probe.batch
        ));
        r.line(format!(
            "{:>10} {:>14} {:>14} {:>14} {:>12}",
            "C", "tensor peak", "overall mem", "modeled iter", "vs baseline"
        ));
        let mut rows = vec![("baseline".to_owned(), 0, Method::Bptt)];
        for c in cx
            .sweep(fig, t)
            .into_iter()
            .filter(|&c| c <= cmax && c <= t)
        {
            rows.push((c.to_string(), c, Method::Checkpointed { checkpoints: c }));
        }
        let base_s = cx
            .cell(kind, &Method::Bptt, probe.batch, t)
            .modeled_s(&device);
        let mut series = Vec::new();
        for (label, c, method) in rows {
            let m = cx.cell(kind, &method, probe.batch, t);
            let modeled_s = m.modeled_s(&device);
            r.line(format!(
                "{label:>10} {:>14} {:>14} {:>12.2}ms {:>11.2}x",
                human_bytes(m.tensor_peak),
                human_bytes(m.overall_bytes(&device)),
                modeled_s * 1e3,
                modeled_s / base_s
            ));
            series.push(json!({
                "c": c,
                "tensor_peak": m.tensor_peak,
                "overall_bytes": m.overall_bytes(&device),
                "modeled_s": modeled_s,
            }));
        }
        r.json(probe.name, series);
        r.blank();
    }
}

/// Paper Table I: test accuracy of the five workloads under the four
/// training techniques (baseline BPTT, checkpointed, Skipper, TBPTT).
fn table1_accuracy(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    r.line("Table I (scaled): test accuracy on synthetic data");
    r.line(format!(
        "{:<20} {:>10} {:>12} {:>14} {:>12} {:>8}",
        "workload", "baseline", "checkpointed", "skipper", "TBPTT", "chance"
    ));
    let mut rows = Vec::new();
    for &kind in cx.pick(fig.workloads) {
        // Heavier networks get fewer epochs (the hybrid ANN
        // pre-initialisation gives them a head start, as in the paper's
        // 20-epoch fine-tuning).
        let epochs = cx.pick(fig.epochs).min(match kind {
            Resnet20Cifar10 => 3,
            Vgg11Cifar100 => 6,
            _ => usize::MAX,
        });
        let probe = Workload::build_raw(kind);
        let t = probe.timesteps;
        let mut accs = Vec::new();
        for method in &fig.methods(&probe) {
            let w = Workload::build(kind);
            let mut s = session(w.net, method, t, FIT_LR);
            accs.push(fit(&mut s, &w.train, &w.test, epochs, w.batch, 42).final_val_acc());
        }
        let chance = 1.0 / probe.train.num_classes() as f64;
        r.line(format!(
            "{:<20} {:>9.1}% {:>11.1}% {:>8.1}% (p={:.0}) {:>11.1}% {:>7.1}%",
            probe.name,
            100.0 * accs[0],
            100.0 * accs[1],
            100.0 * accs[2],
            probe.percentile,
            100.0 * accs[3],
            100.0 * chance,
        ));
        rows.push(json!({
            "workload": probe.name,
            "baseline": accs[0],
            "checkpointed": accs[1],
            "skipper": accs[2],
            "tbptt": accs[3],
            "checkpoints": probe.checkpoints,
            "percentile": probe.percentile,
            "trw": probe.trw,
            "timesteps": t,
        }));
    }
    r.json("rows", rows);
    r.blank();
}

/// Paper Fig. 8: training and validation accuracy vs epochs when training
/// the LeNet SNN on DVS-Gesture *from scratch* under baseline, plain
/// checkpointing, and Skipper.
fn fig08_scratch_curves(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    let kind = cx.pick(fig.workloads)[0];
    let epochs = cx.pick(fig.epochs);
    let probe = Workload::build_raw(kind);
    r.line(format!(
        "LeNet on synthetic DVS-gesture from scratch, T={}, B={}, {} epochs",
        probe.timesteps, probe.batch, epochs
    ));
    for method in &fig.methods(&probe) {
        let w = Workload::build(kind);
        let mut s = session(w.net, method, w.timesteps, FIT_LR);
        let fitted = fit(&mut s, &w.train, &w.test, epochs, w.batch, 7);
        r.blank();
        r.line(format!("-- {} --", method.label()));
        r.line(format!("{:>7} {:>10} {:>10}", "epoch", "train", "val"));
        for e in 0..epochs {
            r.line(format!(
                "{e:>7} {:>9.1}% {:>9.1}%",
                100.0 * fitted.train_acc[e],
                100.0 * fitted.val_acc[e]
            ));
        }
        r.json(
            method.label(),
            json!({
                "train": fitted.train_acc,
                "val": fitted.val_acc,
                "skipped_steps": fitted.skipped,
            }),
        );
    }
    r.blank();
}

/// Paper Fig. 9: accuracy vs timesteps for the LeNet SNN on DVS-Gesture,
/// trained with baseline BPTT and with Skipper.
fn fig09_accuracy_vs_t(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    let kind = cx.pick(fig.workloads)[0];
    let epochs = cx.pick(fig.epochs);
    let probe = Workload::build_raw(kind);
    let layers = probe.net.spiking_layer_count();
    r.line(format!(
        "LeNet + synthetic DVS-gesture, B={}, {epochs} epochs per point",
        probe.batch
    ));
    r.line(format!(
        "{:>6} {:>12} {:>18}",
        "T", "baseline", "skipper (C, p)"
    ));
    let mut series = Vec::new();
    for t in cx.sweep(fig, probe.timesteps) {
        // Scale C and p with T, respecting the Eq. 7 bound.
        let c = (t / (2 * layers)).max(1);
        let p = (max_skippable_percentile(t, c, layers) - 10.0).clamp(0.0, 70.0);
        let [base_acc, skip_acc] = [Method::Bptt, skipper(c, p)].map(|method| {
            let w = Workload::build(kind);
            let mut s = session(w.net, &method, t, FIT_LR);
            fit(&mut s, &w.train, &w.test, epochs, w.batch, 11).final_val_acc()
        });
        r.line(format!(
            "{t:>6} {:>11.1}% {:>9.1}% (C={c}, p={p:.0})",
            100.0 * base_acc,
            100.0 * skip_acc
        ));
        series.push(json!({
            "t": t, "baseline": base_acc, "skipper": skip_acc, "c": c, "p": p,
        }));
    }
    r.json("series", series);
    r.blank();
}

/// Paper Fig. 10: computational overhead of checkpointing, Skipper and
/// TBPTT relative to baseline BPTT, vs batch size, for the four sweep
/// workloads.
fn fig10_overhead_vs_batch(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    let device = DeviceModel::a100_80gb();
    for &kind in cx.pick(fig.workloads) {
        let probe = Workload::build_raw(kind);
        let t = probe.timesteps;
        let methods = &fig.methods(&probe);
        let (baseline, others) = methods.split_first().expect("baseline first");
        r.line(format!(
            "== {} — modeled time overhead vs baseline (T={t}) ==",
            probe.name
        ));
        r.line(method_columns("B", others));
        let mut series = Vec::new();
        for b in cx.sweep(fig, t) {
            let base = cx.cell(kind, baseline, b, t).modeled_s(&device);
            let mut row = format!("{b:>6}");
            let mut entry = Map::new();
            entry.insert("batch".into(), json!(b));
            for m in others {
                let time = cx.cell(kind, m, b, t).modeled_s(&device);
                let overhead = 100.0 * (time - base) / base;
                row += &format!(" {overhead:>+15.1}%");
                entry.insert(m.label(), json!(overhead / 100.0));
            }
            r.line(row);
            series.push(Value::Object(entry));
        }
        r.json(probe.name, series);
        r.blank();
    }
}

/// Paper Fig. 11: end-to-end training latency per epoch vs batch size,
/// with each bar annotated by its memory consumption — under a constant
/// memory budget, Skipper fits larger batches and finishes epochs sooner.
fn fig11_latency_vs_batch(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    let device = DeviceModel::a100_80gb();
    let epoch_samples = 512usize;
    for &kind in cx.pick(fig.workloads) {
        let probe = Workload::build_raw(kind);
        let t = probe.timesteps;
        r.line(format!(
            "== {} — epoch latency (modeled) and memory vs B (T={t}) ==",
            probe.name
        ));
        let mut series = Vec::new();
        for m in &fig.methods(&probe) {
            r.line(format!("-- {} --", m.label()));
            r.line(format!(
                "{:>6} {:>14} {:>16}",
                "B", "epoch latency", "overall memory"
            ));
            for b in cx.sweep(fig, t) {
                let meas = cx.cell(kind, m, b, t);
                let epoch_s = meas.modeled_s(&device) * epoch_samples.div_ceil(b) as f64;
                let overall = meas.overall_bytes(&device);
                r.line(format!(
                    "{b:>6} {epoch_s:>12.2} s {:>16}",
                    human_bytes(overall)
                ));
                series.push(json!({
                    "method": m.label(),
                    "batch": b,
                    "epoch_s": epoch_s,
                    "overall_bytes": overall,
                }));
            }
        }
        r.json(probe.name, series);
        r.blank();
    }
}

/// Paper Fig. 12: overall GPU memory consumption vs batch size for
/// baseline BPTT, checkpointing, Skipper and TBPTT, on the four sweep
/// workloads.
fn fig12_memory_vs_batch(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    let device = DeviceModel::a100_80gb();
    for &kind in cx.pick(fig.workloads) {
        let probe = Workload::build_raw(kind);
        let t = probe.timesteps;
        let methods = &fig.methods(&probe);
        r.line(format!(
            "== {} — peak tensor memory vs batch size (T={t}) ==",
            probe.name
        ));
        r.line("   (overall = tensor + cache + 600 MiB context; see JSON)");
        r.line(method_columns("B", methods));
        let mut series = Vec::new();
        for b in cx.sweep(fig, t) {
            let mut row = format!("{b:>6}");
            let mut entry = Map::new();
            entry.insert("batch".into(), json!(b));
            for m in methods {
                let meas = cx.cell(kind, m, b, t);
                row += &format!(" {:>16}", human_bytes(meas.tensor_peak));
                entry.insert(
                    m.label(),
                    json!({
                        "tensor_peak": meas.tensor_peak,
                        "overall_bytes": meas.overall_bytes(&device),
                    }),
                );
            }
            r.line(row);
            series.push(Value::Object(entry));
        }
        r.json(probe.name, series);
        r.blank();
    }
}

/// Paper Fig. 13: breakdown of overall GPU memory into live tensors,
/// allocator cache and CUDA context, for baseline / checkpointing /
/// Skipper across batch sizes.
fn fig13_memory_breakdown(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    let context = DeviceModel::a100_80gb().context_bytes;
    for &kind in cx.pick(fig.workloads) {
        let probe = Workload::build_raw(kind);
        let t = probe.timesteps;
        r.line(format!(
            "== {} — tensors / cache / context shares (T={t}) ==",
            probe.name
        ));
        r.line(format!(
            "{:>6} {:<16} {:>10} {:>10} {:>10}",
            "B", "method", "tensors", "cached", "context"
        ));
        let mut series = Vec::new();
        for b in cx.sweep(fig, t) {
            for m in &fig.methods(&probe) {
                let meas = cx.cell(kind, m, b, t);
                let tensors = meas.alloc.peak_allocated;
                let cached = meas.alloc.cache_overhead();
                let total = (tensors + cached + context) as f64;
                r.line(format!(
                    "{b:>6} {:<16} {:>9.1}% {:>9.1}% {:>9.1}%",
                    m.label(),
                    100.0 * tensors as f64 / total,
                    100.0 * cached as f64 / total,
                    100.0 * context as f64 / total,
                ));
                series.push(json!({
                    "batch": b,
                    "method": m.label(),
                    "tensor_bytes": tensors,
                    "cached_bytes": cached,
                    "context_bytes": context,
                }));
            }
        }
        r.json(probe.name, series);
        r.blank();
    }
}

/// Paper Fig. 14: peak GPU memory (log scale) vs timesteps for VGG11 and
/// ResNet20 under baseline / checkpointing / Skipper, including the
/// extrapolated out-of-memory bars.
///
/// Small horizons are *measured*; large horizons use the analytic model
/// (validated against the tracker in the integration tests) — exactly the
/// paper's own methodology for its patterned bars.
fn fig14_memory_vs_timesteps(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    let device = DeviceModel::a100_80gb();
    for &kind in cx.pick(fig.workloads) {
        // The analytic projection: the network at full width and CIFAR
        // resolution, with the paper's (C, p) and horizons.
        type Build = fn(&ModelConfig) -> SpikingNetwork;
        let (build, num_classes, c, p, paper_ts): (Build, _, _, _, &[usize]) = match kind {
            Vgg11Cifar100 => (
                vgg11,
                100,
                5,
                50.0,
                &[100, 200, 300, 500, 900, 1000, 1500, 1800],
            ),
            _ => (
                resnet20,
                10,
                5,
                52.0,
                &[200, 300, 500, 900, 1000, 2500, 2800],
            ),
        };
        let probe = Workload::build_raw(kind);
        let layers = probe.net.spiking_layer_count();
        let defaults = probe.methods();

        r.line(format!(
            "== {} — MEASURED at laptop scale (B={}) ==",
            probe.name, probe.batch
        ));
        r.line(format!(
            "{:>6} {:>14} {:>14} {:>14}",
            "T",
            "baseline",
            defaults[1].label(),
            defaults[2].label()
        ));
        let mut measured = Vec::new();
        for t in cx.sweep(fig, probe.timesteps) {
            let mut row = format!("{t:>6}");
            let mut entry = Map::new();
            entry.insert("t".into(), json!(t));
            // The scaled defaults, clamped to what Eq. 7 admits at `t`.
            let cc = probe.checkpoints.min(t / layers.max(1)).max(1);
            let pp = probe
                .percentile
                .min((max_skippable_percentile(t, cc, layers) - 1.0).max(0.0));
            for m in &paper_family(cc, pp) {
                let meas = cx.cell(kind, m, probe.batch, t);
                row += &format!(" {:>14}", human_bytes(meas.tensor_peak));
                entry.insert(m.label(), json!(meas.tensor_peak));
            }
            r.line(row);
            measured.push(Value::Object(entry));
        }
        r.json(format!("{}_measured", probe.name), measured);

        let net = build(&ModelConfig {
            input_hw: 32,
            num_classes,
            width_mult: 1.0,
            ..ModelConfig::default()
        });
        let model = AnalyticModel::new(&net);
        let batch = 128usize;
        let methods = paper_family(c, p);
        r.blank();
        r.line(format!(
            "== {} — ANALYTIC at paper scale (width 1.0, 32x32, B={batch}) ==",
            probe.name
        ));
        r.line(format!(
            "{:>6} {:>14} {:>14} {:>14}",
            "T",
            "baseline",
            format!("C={c}"),
            format!("C={c} & p={p:.0}")
        ));
        let mut analytic = Vec::new();
        for &t in paper_ts {
            let mut row = format!("{t:>6}");
            let mut entry = Map::new();
            entry.insert("t".into(), json!(t));
            for m in &methods {
                let bytes = model.breakdown(m, t, batch).total();
                let marker = if device.fits(bytes) { ' ' } else { '*' };
                row += &format!(" {:>13}{marker}", human_bytes(bytes));
                entry.insert(m.label(), json!(bytes));
            }
            r.line(row);
            analytic.push(Value::Object(entry));
        }
        r.json(format!("{}_analytic", probe.name), analytic);
        // Largest horizon (in steps of 50) that still fits the device.
        let [tb, tc, ts] = methods.map(|m| {
            (1..=1000)
                .map(|k| 50 * k)
                .take_while(|&t| device.fits(model.breakdown(&m, t, batch).total()))
                .last()
                .unwrap_or(0)
        });
        r.line(format!(
            "  T_max: baseline {tb}, checkpointed {tc} ({:.1}x), skipper {ts} ({:.1}x)",
            tc as f64 / tb.max(1) as f64,
            ts as f64 / tb.max(1) as f64
        ));
        r.line("  (* = exceeds the 80 GiB A100: the paper's patterned bars)");
        r.blank();
    }
}

/// Baseline, checkpointing and Skipper at the given `C` and `p`.
fn paper_family(checkpoints: usize, percentile: f32) -> [Method; 3] {
    [
        Method::Bptt,
        Method::Checkpointed { checkpoints },
        skipper(checkpoints, percentile),
    ]
}

/// Paper Fig. 15: VGG5+CIFAR10 training on an NVIDIA Jetson Nano —
/// memory consumption and per-epoch latency vs batch size for baseline,
/// checkpointing (C=4) and Skipper (C=4, p=70).
///
/// The Nano's 4 GiB unified memory loses ~2 GiB to the CUDA context (the
/// paper adds 4 GiB of swap); the device model reproduces that budget and
/// the roofline gives Nano-scale latencies.
fn fig15_edge_device(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    let nano = DeviceModel::jetson_nano();
    let kind = cx.pick(fig.workloads)[0];
    let probe = Workload::build_raw(kind);
    let t = probe.timesteps;

    r.line(format!(
        "== VGG5 (scaled) on {nano} — measured iterations, Nano roofline =="
    ));
    r.line(format!(
        "{:>6} {:<16} {:>14} {:>16}",
        "B", "method", "overall mem", "epoch latency"
    ));
    let epoch_samples = 256usize;
    let mut measured = Vec::new();
    for b in cx.sweep(fig, t) {
        for m in &fig.methods(&probe) {
            let meas = cx.cell(kind, m, b, t);
            let overall = meas.overall_bytes(&nano);
            let epoch_s = meas.modeled_s(&nano) * epoch_samples.div_ceil(b) as f64;
            let fits = nano.fits(meas.alloc.reserved);
            r.line(format!(
                "{b:>6} {:<16} {:>14} {epoch_s:>14.1} s{}",
                m.label(),
                human_bytes(overall),
                if fits { "" } else { "  (OOM at device scale)" }
            ));
            measured.push(json!({
                "batch": b,
                "method": m.label(),
                "overall_bytes": overall,
                "epoch_s": epoch_s,
            }));
        }
    }
    r.json("measured", measured);

    r.blank();
    r.line("== VGG5 at paper scale (width 1.0, 32x32, T=100) — analytic ==");
    let net = vgg5(&ModelConfig {
        input_hw: 32,
        width_mult: 1.0,
        ..ModelConfig::default()
    });
    let model = AnalyticModel::new(&net);
    r.line(format!("{:<16} {:>8}", "method", "B_max"));
    let mut series = Vec::new();
    for m in &paper_family(4, 70.0) {
        let best = (1..=512)
            .rev()
            .find(|&b| nano.fits(model.breakdown(m, 100, b).total()))
            .unwrap_or(0);
        r.line(format!("{:<16} {best:>8}", m.label()));
        series.push(json!({"method": m.label(), "b_max": best}));
    }
    r.json("paper_scale_bmax", series);
    r.blank();
}

/// Train `method` on `kind` over `t` steps, then measure two more
/// iterations of the trained session: one row of Table II or Fig. 16.
/// Returns (accuracy, measurement).
fn lbp_comparison_row(
    kind: WorkloadKind,
    method: &Method,
    t: usize,
    epochs: usize,
    seed: u64,
) -> (f64, Measurement) {
    let w = Workload::build(kind);
    let mut s = session(w.net, method, t, FIT_LR);
    let acc = fit(&mut s, &w.train, &w.test, epochs, w.batch, seed).final_val_acc();
    let cfg = MeasureConfig {
        iterations: 2,
        warmup: 0,
        batch: w.batch,
        timesteps: t,
    };
    (acc, measure(&mut s, &w.train, &cfg))
}

/// AlexNet modules: 5 ConvLif, Flatten, 2 LinearLif, Output. The paper
/// attaches local classifiers at layers 4 and 8 → module taps 2, 5.
fn lbp(window: usize) -> Method {
    Method::TbpttLbp {
        window,
        taps: vec![2, 5],
    }
}

/// Paper Table II: checkpointing and Skipper vs TBPTT-LBP (Guo et al.
/// \[28\]) on AlexNet+CIFAR10 at T=20 — accuracy and memory.
fn table2_tbptt_lbp(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    let device = DeviceModel::a100_80gb();
    let kind = cx.pick(fig.workloads)[0];
    let epochs = cx.pick(fig.epochs);
    let probe = Workload::build_raw(kind);
    let t = probe.timesteps; // 20, as in the paper
    r.line(format!(
        "AlexNet+CIFAR10 (scaled), T={t}, B={}, {epochs} epochs",
        probe.batch
    ));
    r.line(format!(
        "{:<22} {:>10} {:>14}",
        "config", "accuracy", "overall mem"
    ));
    let mut rows = Vec::new();
    for m in [
        lbp(10),
        lbp(20),
        Method::Checkpointed { checkpoints: 2 },
        skipper(2, 20.0),
    ] {
        let (acc, meas) = lbp_comparison_row(kind, &m, t, epochs, 21);
        r.line(format!(
            "{:<22} {:>9.1}% {:>14}",
            m.label(),
            100.0 * acc,
            human_bytes(meas.overall_bytes(&device))
        ));
        rows.push(json!({
            "config": m.label(),
            "accuracy": acc,
            "overall_bytes": meas.overall_bytes(&device),
        }));
    }
    r.json("rows", rows);
    r.blank();
}

/// Paper Fig. 16: AlexNet+CIFAR10 at T=50 — (a) memory / time / accuracy
/// of TBPTT-LBP as a function of its truncation window, against (b) the
/// proposed baseline / checkpointing / Skipper configurations.
fn fig16_tbptt_lbp_sweep(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    let device = DeviceModel::a100_80gb();
    let kind = cx.pick(fig.workloads)[0];
    let epochs = cx.pick(fig.epochs);
    let probe = Workload::build_raw(kind);
    let t = 50usize; // the paper's Fig. 16 horizon
    r.line(format!(
        "AlexNet+CIFAR10 (scaled), T={t}, B={}, {epochs} epochs per point",
        probe.batch
    ));
    let windows = cx.sweep(fig, t).into_iter().map(lbp).collect();
    let ours = vec![
        Method::Bptt,
        Method::Checkpointed { checkpoints: 4 },
        skipper(4, 25.0),
        skipper(4, 40.0),
    ];
    for (key, title, methods) in [
        ("lbp_sweep", "(a) TBPTT-LBP vs truncation window:", windows),
        ("proposed", "(b) proposed training schemes:", ours),
    ] {
        r.blank();
        r.line(title);
        r.line(format!(
            "{:<22} {:>14} {:>17} {:>10}",
            "config", "memory", "iter (modeled)", "accuracy"
        ));
        let mut rows = Vec::new();
        for m in &methods {
            let (acc, meas) = lbp_comparison_row(kind, m, t, epochs, 16);
            r.line(format!(
                "{:<22} {:>14} {:>14.1} ms {:>9.1}%",
                m.label(),
                human_bytes(meas.overall_bytes(&device)),
                meas.modeled_s(&device) * 1e3,
                100.0 * acc,
            ));
            rows.push(json!({
                "config": m.label(),
                "overall_bytes": meas.overall_bytes(&device),
                "modeled_s": meas.modeled_s(&device),
                "accuracy": acc,
            }));
        }
        r.json(key, rows);
    }
    r.blank();
}

/// Within-iteration activation-memory timelines (supplementary figure).
///
/// The defining picture of the paper's mechanism, reconstructed from the
/// allocation event log of one real training iteration per method:
/// baseline BPTT ramps over the whole forward pass and drains during
/// backward; checkpointing re-executes one segment at a time; Skipper
/// leaves the skipped timesteps out of each.
fn memory_timeline(_: &mut Ctx, _: &Figure, r: &mut Report) {
    let kind = Vgg5Cifar10;
    let probe = Workload::build_raw(kind);
    let t = probe.timesteps;
    let width = 72usize;
    r.line(format!(
        "Activation memory over one training iteration — {} (T={t}, B={})",
        probe.name, probe.batch
    ));
    r.blank();
    let mut series = Vec::new();
    for m in &probe.methods()[..3] {
        let w = Workload::build_for_measurement(kind);
        let mut s = session(w.net, m, t, 1e-3);
        let mut rng = XorShiftRng::new(1);
        let (inputs, labels) = w.train.first_batch(probe.batch, t, &mut rng);
        // Warm-up so persistent buffers exist, then record one iteration.
        let _ = s.train_batch(&inputs, &labels);
        enable_event_log();
        let _ = s.train_batch(&inputs, &labels);
        let events = take_events();
        let tl = timeline_from_events(&events);
        let peak = tl
            .iter()
            .map(|p| p.live(Category::Activations))
            .max()
            .unwrap_or(0);
        let small = downsample(&tl, width);
        r.line(format!(
            "{:<14} peak {:>10}  ({} allocation events)",
            m.label(),
            human_bytes(peak),
            events.len()
        ));
        r.line(format!("  {}", sparkline(&small, Category::Activations)));
        r.blank();
        series.push(json!({
            "method": m.label(),
            "peak_bytes": peak,
            "curve": small
                .iter()
                .map(|p| p.live(Category::Activations))
                .collect::<Vec<_>>(),
        }));
    }
    r.json("timelines", series);
}

/// A narrated walkthrough of the paper's Figs. 5 and 6: the exact
/// step-by-step execution of checkpointed and time-skipped training on a
/// tiny SNN with `T = 20`, `C = 2` — the same configuration the figures
/// illustrate — with real numbers: which timesteps are checkpointed, what
/// the SAM records, where the SST lands, which steps are skipped, and how
/// much tape memory each segment holds.
fn walkthrough(_: &mut Ctx, _: &Figure, r: &mut Report) {
    let kind = CustomNetNmnist;
    let (t, c, p) = (20usize, 2usize, 50.0f32);
    let w = Workload::build_for_measurement(kind);
    let mut rng = XorShiftRng::new(3);
    let (inputs, labels) = w.train.first_batch(4, t, &mut rng);

    r.line(format!(
        "Walkthrough of paper Figs. 5/6 on {} (T={t}, C={c}, p={p})",
        w.name
    ));
    r.line("segments: [0,10) and [10,20); checkpoints taken at t=0 and t=10");

    r.blank();
    r.line("== Fig. 5 — activation checkpointing ==");
    r.line("Step 1   forward pass, no grad; save state at t=0 and t=10");
    r.line("Step 2/3 rebuild segment [10,20) on a tape; backprop; free it");
    r.line("Step 4/5 rebuild segment [0,10); seed dL/dU from step 3; backprop");
    {
        let net = Workload::build_for_measurement(kind).net;
        let mut s = session(net, &Method::Checkpointed { checkpoints: c }, t, 1e-3);
        let _ = s.train_batch(&inputs, &labels); // warm-up
        enable_event_log();
        let stats = s.train_batch(&inputs, &labels);
        let tl = timeline_from_events(&take_events());
        r.line(format!(
            "observed: {} steps recomputed, peak activations {} KiB",
            stats.recomputed_steps,
            stats.mem.peak(Category::Activations) / 1024
        ));
        r.line("activation memory over the iteration (two humps = two segments):");
        r.line(format!(
            "  {}",
            sparkline(&downsample(&tl, 64), Category::Activations)
        ));
    }

    r.blank();
    r.line("== Fig. 6 — checkpointing with time-skipping ==");
    {
        let net = Workload::build_for_measurement(kind).net;
        let mut s = session(net, &skipper(c, p), t, 1e-3);
        let stats = s.train_batch(&inputs, &labels);
        let sums = s.last_sam_sums();
        r.line("Step 1: first forward pass records the SAM trace s_t:");
        r.line(format!(
            "  s = [{}]",
            sums.iter()
                .map(|s| format!("{s:.0}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        for (seg, range) in [(1usize, 0..10usize), (2, 10..20)] {
            let sst = percentile(&sums[range.clone()], p);
            let skipped: Vec<usize> = range.clone().filter(|&ti| sums[ti] < sst).collect();
            r.line(format!(
                "Step 2 (segment {seg}): SST = percentile(s[{}..{}], {p}) = {sst:.0}",
                range.start, range.end
            ));
            r.line(format!(
                "  → skip t ∈ {skipped:?} (s_t < SST); recompute the rest"
            ));
        }
        r.line(format!(
            "observed: {} skipped, {} recomputed, peak activations {} KiB",
            stats.skipped_steps,
            stats.recomputed_steps,
            stats.mem.peak(Category::Activations) / 1024
        ));
    }
    r.blank();
    r.line("The skipped timesteps never enter the second-pass tape, which is");
    r.line("why skipper's humps are lower and its backward pass shorter.");
}

/// Ablation: what should Skipper monitor, and does the activity heuristic
/// beat random skipping?
///
/// The paper (Section VI-A) motivates the spike-sum SAM and names two
/// refinements as future work — spike counts normalised by layer size and
/// the ℓ2-norm of the membrane trace; Section VII-B stresses that skipped
/// timesteps "are not chosen randomly, but are based on a well-defined
/// heuristic". This trains the same workload with each SAM under the SST
/// policy, with the random policy (pure temporal dropout) at the same `p`,
/// and with baseline BPTT as the reference.
fn ablation_sam_policy(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    let kind = cx.pick(fig.workloads)[0];
    let epochs = cx.pick(fig.epochs);
    let probe = Workload::build_raw(kind);
    let (c, p) = (probe.checkpoints, probe.percentile);
    r.line(format!(
        "Skipper ablation on {} (T={}, C={c}, p={p:.0}, {epochs} epochs)",
        probe.name, probe.timesteps
    ));
    r.line(format!(
        "{:<26} {:>10} {:>10} {:>10}",
        "configuration", "train", "val", "skipped"
    ));
    let sst = SkipPolicy::SpikeActivity;
    let configs = [
        ("SST spike-sum (paper)", Some((SamMetric::SpikeSum, sst))),
        (
            "SST neuron-normalized",
            Some((SamMetric::NeuronNormalized, sst)),
        ),
        ("SST membrane-l2", Some((SamMetric::MembraneL2, sst))),
        (
            "random skipping",
            Some((SamMetric::SpikeSum, SkipPolicy::Random)),
        ),
        ("baseline (no skipping)", None),
    ];
    let mut rows = Vec::new();
    for (name, skipping) in configs {
        let w = Workload::build(kind);
        let method = skipping.map_or(Method::Bptt, |_| skipper(c, p));
        let mut s = session(w.net, &method, w.timesteps, FIT_LR);
        if let Some((metric, policy)) = skipping {
            s.set_sam_metric(metric);
            s.set_skip_policy(policy);
        }
        let fitted = fit(&mut s, &w.train, &w.test, epochs, w.batch, 77);
        r.line(format!(
            "{:<26} {:>9.1}% {:>9.1}% {:>10}",
            name,
            100.0 * fitted.train_acc.last().copied().unwrap_or(0.0),
            100.0 * fitted.final_val_acc(),
            fitted.skipped,
        ));
        rows.push(json!({
            "config": if skipping.is_some() { name } else { "baseline" },
            "train_acc": fitted.train_acc,
            "val_acc": fitted.val_acc,
            "skipped": fitted.skipped,
        }));
    }
    r.json("rows", rows);
    r.blank();
}

/// Ablation: surrogate-gradient family under Skipper.
///
/// The paper trains with a fixed surrogate (following Neftci et al. 2019);
/// this checks that time-skipping is robust to the choice — triangle,
/// fast-sigmoid and arc-tan all train, and the skipper-vs-baseline
/// accuracy gap stays small for each.
fn ablation_surrogate(cx: &mut Ctx, fig: &Figure, r: &mut Report) {
    use skipper_snn::Module;
    let kind = cx.pick(fig.workloads)[0];
    let epochs = cx.pick(fig.epochs);
    let probe = Workload::build_raw(kind);
    r.line(format!(
        "Surrogate ablation on {} (T={}, {epochs} epochs)",
        probe.name, probe.timesteps
    ));
    r.line(format!(
        "{:<28} {:>12} {:>12}",
        "surrogate", "baseline", "skipper"
    ));
    let mut rows = Vec::new();
    for (name, surrogate) in [
        ("triangle(w=1)", Surrogate::Triangle { width: 1.0 }),
        ("triangle(w=0.5)", Surrogate::Triangle { width: 0.5 }),
        ("fast-sigmoid(s=2)", Surrogate::FastSigmoid { slope: 2.0 }),
        ("arctan(a=2)", Surrogate::ArcTan { alpha: 2.0 }),
    ] {
        let methods = [Method::Bptt, skipper(probe.checkpoints, probe.percentile)];
        let [base_acc, skip_acc] = methods.map(|method| {
            let mut w = Workload::build(kind);
            for m in w.net.modules_mut() {
                match m {
                    Module::ConvLif { lif, .. } | Module::LinearLif { lif, .. } => {
                        lif.cfg.surrogate = surrogate;
                    }
                    Module::Residual { lif1, lif2, .. } => {
                        lif1.cfg.surrogate = surrogate;
                        lif2.cfg.surrogate = surrogate;
                    }
                    _ => {}
                }
            }
            let mut s = session(w.net, &method, w.timesteps, FIT_LR);
            fit(&mut s, &w.train, &w.test, epochs, w.batch, 31).final_val_acc()
        });
        r.line(format!(
            "{:<28} {:>11.1}% {:>11.1}%",
            name,
            100.0 * base_acc,
            100.0 * skip_acc
        ));
        rows.push(json!({
            "surrogate": name,
            "baseline": base_acc,
            "skipper": skip_acc,
        }));
    }
    r.json("rows", rows);
    r.blank();
}

/// Record a structured trace of a short Skipper training run.
///
/// Installs a `skipper-obs` ring buffer, trains the tiny N-MNIST net for a
/// few iterations with `T = 20`, `C = 2`, `p = 50`, and writes the whole
/// capture three ways: `trace_training.trace.json` next to the report
/// (Chrome trace-event format, drag into <https://ui.perfetto.dev> or
/// `chrome://tracing`), the summary table, and
/// `profile_trace_training.folded` (the capture's span fold: collapsed
/// stacks weighted by exact self µs, for `flamegraph.pl`). The summary's timing columns and the profile's weights are
/// wall-clock: this is the one entry whose output does not repeat byte
/// for byte. That the trace agrees with the runner's own accounting is
/// `obs_events.rs`'s test, not checked here.
fn trace_training(cx: &mut Ctx, _: &Figure, r: &mut Report) {
    use skipper_obs as obs;
    let (t, c, p) = (20usize, 2usize, 50.0f32);
    let iterations = if cx.quick { 2 } else { 8 };
    r.line(format!(
        "Tracing {iterations} Skipper iterations on custom-net/N-MNIST (T={t}, C={c}, p={p})"
    ));

    // (The harness already cleared the registry and installed its no-op
    // sink.)
    std::fs::create_dir_all(&cx.out).ok();
    let (ring, handle) = obs::RingBufferSink::new(1 << 16);
    let ring = obs::add_sink(Box::new(ring));

    let w = Workload::build_for_measurement(CustomNetNmnist);
    let mut s = session(w.net, &skipper(c, p), t, 1e-3);
    let mut rng = XorShiftRng::new(7);
    let (inputs, labels) = w.train.first_batch(4, t, &mut rng);
    let (mut skipped, mut recomputed) = (0usize, 0usize);
    for _ in 0..iterations {
        let stats = s.train_batch(&inputs, &labels);
        skipped += stats.skipped_steps;
        recomputed += stats.recomputed_steps;
    }
    // Dropping the session joins its pool, so the capture holds the end of
    // every `worker_task` (a worker hands its result back before its span
    // closes).
    drop(s);

    obs::remove_sink(ring);
    assert_eq!(handle.dropped(), 0, "the ring holds the whole capture");
    let events = handle.snapshot();
    let trace_file = "trace_training.trace.json";
    obs::write_chrome_trace(&events, cx.out.join(trace_file))
        .unwrap_or_else(|err| panic!("cannot write {trace_file}: {err}"));
    r.line(format!(
        "{iterations} iters x {t} steps: {skipped} skipped + {recomputed} recomputed = {}",
        skipped + recomputed
    ));
    r.line(format!("trace: {} events -> {trace_file}", events.len()));
    let profile_file = "profile_trace_training.folded";
    std::fs::write(
        cx.out.join(profile_file),
        obs::SpanFold::from_events(&events).folded_text(),
    )
    .unwrap_or_else(|err| panic!("cannot write {profile_file}: {err}"));
    r.line(format!("profile: self µs per span stack -> {profile_file}"));
    r.blank();
    for line in obs::render_summary(&events, &obs::registry().snapshot(), 12).lines() {
        r.line(line);
    }
    r.json("iterations", iterations);
    r.json("events", events.len());
    r.json("skipped_steps", skipped);
    r.json("recomputed_steps", recomputed);
}

/// Run the named entries (all of them when `names` is empty) in table
/// order, each under its own [`BenchRun`], and write their reports into
/// `out`.
fn run(quick: bool, names: &[String], out: &Path) -> Ctx {
    if let Some(unknown) = names.iter().find(|n| !FIGURES.iter().any(|f| f.name == *n)) {
        let known: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        panic!("unknown figure {unknown:?}; known: {}", known.join(", "));
    }
    let mut cx = Ctx {
        quick,
        out: out.to_path_buf(),
        cells: Vec::new(),
    };
    for fig in FIGURES
        .iter()
        .filter(|f| names.is_empty() || names.iter().any(|n| n == f.name))
    {
        println!("=== {} ({:?}) ===", fig.name, fig.source());
        let _run = BenchRun::start();
        let mut report = Report::new(fig.name);
        (fig.render)(&mut cx, fig, &mut report);
        for line in fig.expected.lines() {
            report.line(line);
        }
        report.save(out);
    }
    cx
}

fn main() {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with('-'));
    if let Some(flag) = flags.iter().find(|f| *f != "--quick") {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        println!(
            "usage: figures [--quick] [NAME…]\n\nnames: {}",
            names.join(" ")
        );
        std::process::exit(if flag == "--help" || flag == "-h" {
            0
        } else {
            2
        });
    }
    let quick = flags.iter().any(|f| f == "--quick");
    run(quick, &names, &skipper_report::results_dir());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names() -> BTreeSet<&'static str> {
        FIGURES.iter().map(|f| f.name).collect()
    }

    fn figure(name: &str) -> &'static Figure {
        FIGURES.iter().find(|f| f.name == name).expect("a figure")
    }

    /// Run `names` in quick mode into a fresh temp directory (never into
    /// `results/`: a quick run must not overwrite a committed full table).
    fn quick_run(tag: &str, names: &[&str]) -> (Ctx, PathBuf) {
        let out =
            std::env::temp_dir().join(format!("skipper_figures_{tag}_{}", std::process::id()));
        let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        (run(true, &names, &out), out)
    }

    #[test]
    fn the_table_and_the_docs_name_the_same_entries() {
        assert_eq!(names().len(), FIGURES.len(), "entry names are unique");

        // EXPERIMENTS.md: one "### … (`<name>`)" heading per entry.
        let headed: BTreeSet<&str> = include_str!("../../../../EXPERIMENTS.md")
            .lines()
            .filter(|l| l.starts_with("### "))
            .filter_map(|l| Some(l.strip_suffix("`)")?.rsplit_once("(`")?.1))
            .collect();
        assert_eq!(headed, names(), "EXPERIMENTS.md headings");

        // DESIGN.md §5: the last cell of every table row names an entry.
        let design = include_str!("../../../../DESIGN.md");
        let index = design
            .split("\n## ")
            .find(|section| section.starts_with("5. "))
            .expect("DESIGN.md has a section 5");
        let indexed: BTreeSet<&str> = index
            .lines()
            .filter_map(|l| l.strip_suffix("` |")?.rsplit_once("| `"))
            .map(|(_, name)| name)
            .collect();
        assert_eq!(indexed, names(), "DESIGN.md section 5 rows");
    }

    #[test]
    fn the_batch_grid_is_measured_once_for_the_four_figures_that_print_it() {
        let grid = [
            "fig10_overhead_vs_batch",
            "fig11_latency_vs_batch",
            "fig12_memory_vs_batch",
            "fig13_memory_breakdown",
        ];
        let (cx, out) = quick_run("grid", &grid);
        // Quick mode: VGG5 at B=4 under baseline, C=2, C=2 & p=70, trW=10.
        assert_eq!(cx.cells.len(), 4, "one measurement per distinct cell");
        for name in grid {
            assert_eq!(figure(name).source(), Source::Tracker);
            let text = std::fs::read_to_string(out.join(format!("{name}.txt"))).unwrap();
            assert!(text.ends_with(&format!("{}\n", figure(name).expected)));
        }
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn the_cheapest_fit_and_plain_entries_run() {
        let (fit, plain) = ("fig09_accuracy_vs_t", "fig04_resnet34_imagenet");
        assert_eq!(figure(fit).source(), Source::Fit);
        assert_eq!(figure(plain).source(), Source::Plain);
        let (cx, out) = quick_run("smoke", &[fit, plain]);
        assert!(
            cx.cells.is_empty(),
            "neither goes through the tracker cache"
        );
        for name in [fit, plain] {
            let text = std::fs::read_to_string(out.join(format!("{name}.txt"))).unwrap();
            assert!(text.ends_with(&format!("{}\n", figure(name).expected)));
            let json = std::fs::read_to_string(out.join(format!("{name}.json"))).unwrap();
            serde_json::from_str::<Value>(&json).expect("the JSON twin parses");
        }
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    #[should_panic(expected = "unknown figure")]
    fn an_unknown_name_is_refused_before_anything_runs() {
        run(true, &["fig99".to_string()], Path::new("/nonexistent"));
    }
}
