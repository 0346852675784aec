//! Per-layer probes: calls into each crate's public functions, timed from
//! here, at the shapes and spike densities the workload produces.
//!
//! The layer a metric belongs to is the crate name that prefixes it.

use crate::hostinfo::cpu_seconds;
use crate::pin::Pinned;
use crate::serve::{get, Body};
use crate::stats::p50;
use crate::train::ms;
use crate::workload::{bernoulli as spikes, build_net, build_session, Data, Rig, Workload};
use crate::Metrics;
use skipper_autograd::Graph;
use skipper_core::method::segment_bounds;
use skipper_core::{decide_skips, SkipPolicy, SpikeActivityMonitor};
use skipper_data::event_batch;
use skipper_serve::PredictRequest;
use skipper_snn::{
    lif_step_infer, Adam, Conv2dLayer, Encoder, LifConfig, LinearLayer, Module, Optimizer,
    ParamBinder, PoissonEncoder, SpikingNetwork, StepCtx, TapedState,
};
use skipper_tensor::{
    avg_pool2d, conv2d, conv2d_backward_input, conv2d_backward_weight, matmul, matmul_nt,
    matmul_tn, Tensor, XorShiftRng,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median wall of `f`, in ms, over as many calls as fit `budget` (at
/// least five).
fn time_ms<R>(budget: Duration, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        black_box(f());
        samples.push(ms(t.elapsed()));
    }
    p50(&samples)
}

/// A convolution of the network with the shape of the input it sees.
struct ConvSite<'a> {
    conv: &'a Conv2dLayer,
    in_chw: [usize; 3],
    out_hw: (usize, usize),
    pool: Option<usize>,
}

impl ConvSite<'_> {
    fn macs_per_sample(&self) -> usize {
        let k = self.conv.kernel();
        self.conv.out_channels() * self.in_chw[0] * k * k * self.out_hw.0 * self.out_hw.1
    }
}

/// Every convolution and every dense layer of `net`, with input shapes
/// followed through the topology.
fn sites(net: &SpikingNetwork) -> (Vec<ConvSite<'_>>, Vec<&LinearLayer>) {
    let input = net.input_shape();
    let mut chw = [input[0], input[1], input[2]];
    let mut convs = Vec::new();
    let mut linears = Vec::new();
    for module in net.modules() {
        match module {
            Module::ConvLif { conv, pool, .. } => {
                let out_hw = conv.out_hw(chw[1], chw[2]);
                convs.push(ConvSite {
                    conv,
                    in_chw: chw,
                    out_hw,
                    pool: *pool,
                });
                let p = pool.unwrap_or(1);
                chw = [conv.out_channels(), out_hw.0 / p, out_hw.1 / p];
            }
            Module::Pool(k) => chw = [chw[0], chw[1] / k, chw[2] / k],
            Module::LinearLif { lin, .. } | Module::Output(lin) => linears.push(lin),
            Module::Flatten => {}
            Module::Residual { .. } => {
                unreachable!("no benchmark workload uses a residual topology")
            }
        }
    }
    (convs, linears)
}

/// `tensor.*`: the kernels at the network's largest convolution (by
/// multiply-adds), inputs at the hidden spike density.
fn tensor_probes(
    net: &SpikingNetwork,
    batch: usize,
    density: f64,
    budget: Duration,
    rng: &mut XorShiftRng,
    out: &mut Metrics,
) {
    let (convs, linears) = sites(net);
    let site = convs
        .iter()
        .max_by_key(|s| s.macs_per_sample())
        .expect("every workload network has a convolution");
    let weight = net.params().value(site.conv.weight_id());
    let spec = site.conv.spec();
    let [cin, h, w] = site.in_chw;
    let x = spikes(&[batch, cin, h, w], density, rng);
    let out_dims = |s: &ConvSite| [batch, s.conv.out_channels(), s.out_hw.0, s.out_hw.1];
    let gy = Tensor::randn(out_dims(site), rng);

    let fwd = time_ms(budget, || conv2d(&x, weight, None, spec));
    out.put("tensor.conv2d_fwd_ms", fwd, "ms");
    let flops = 2.0 * (batch * site.macs_per_sample()) as f64;
    out.put(
        "tensor.conv2d_fwd_gflops",
        flops / (fwd * 1e-3) / 1e9,
        "GFLOP/s",
    );
    out.put(
        "tensor.conv2d_bwd_input_ms",
        time_ms(budget, || {
            conv2d_backward_input(&gy, x.shape().dims(), weight, spec)
        }),
        "ms",
    );
    out.put(
        "tensor.conv2d_bwd_weight_ms",
        time_ms(budget, || {
            conv2d_backward_weight(&gy, &x, weight.shape().dims(), spec)
        }),
        "ms",
    );
    // Pooling after the largest convolution, or after the first pooled one
    // when the largest is not.
    let pooled = std::iter::once(site)
        .chain(convs.iter())
        .find(|s| s.pool.is_some())
        .expect("every workload network pools");
    let spikes_out = spikes(&out_dims(pooled), density, rng);
    let k = pooled.pool.expect("found by its pool");
    out.put(
        "tensor.avg_pool2d_ms",
        time_ms(budget, || avg_pool2d(&spikes_out, k)),
        "ms",
    );

    // The three matrix products, at the shapes the largest dense layer
    // gives them: forward x·Wᵀ, grad-input gy·W, grad-weight gyᵀ·x.
    let lin = linears
        .iter()
        .max_by_key(|l| l.in_features() * l.out_features())
        .expect("every network ends in a dense readout");
    let wmat = net.params().value(lin.weight_id());
    let lx = spikes(&[batch, lin.in_features()], density, rng);
    let lgy = Tensor::randn([batch, lin.out_features()], rng);
    out.put(
        "tensor.matmul_nt_ms",
        time_ms(budget, || matmul_nt(&lx, wmat)),
        "ms",
    );
    out.put(
        "tensor.matmul_ms",
        time_ms(budget, || matmul(&lgy, wmat)),
        "ms",
    );
    out.put(
        "tensor.matmul_tn_ms",
        time_ms(budget, || matmul_tn(&lgy, &lx)),
        "ms",
    );
}

/// `snn.step_*`, `snn.hidden_density`, `autograd.*`: one timestep and one
/// `T/C`-step taped segment on the round's batch. Returns the hidden spike
/// density for the kernel probes.
fn step_probes(
    w: &Workload,
    net: &SpikingNetwork,
    inputs: &[Tensor],
    budget: Duration,
    out: &mut Metrics,
) -> f64 {
    let batch = inputs[0].shape()[0];
    let neurons = (net.state_elems_per_sample() / 2) as f64 * batch as f64;

    // Plain steps over the whole horizon; keep the state reached after one
    // segment as a realistic start for the taped segment.
    let segment = w.timesteps / w.checkpoints;
    let mut state = net.init_state(batch);
    let mut warmed = None;
    let mut step_ms = Vec::new();
    let mut spike_sum = 0.0;
    for (t, input) in inputs.iter().enumerate() {
        if t == segment {
            warmed = Some(state.clone());
        }
        let start = Instant::now();
        let step = net.step_infer(input, &mut state, &StepCtx::eval(t));
        step_ms.push(ms(start.elapsed()));
        spike_sum += step.spike_sum;
    }
    let density = spike_sum / (neurons * inputs.len() as f64);
    out.put("snn.step_infer_ms", p50(&step_ms), "ms");
    out.put("snn.hidden_density", density, "ratio");

    let warmed = warmed.expect("horizon holds at least two segments");
    let grad = Tensor::full([batch, net.num_classes()], 1.0 / w.timesteps as f32);
    let mut taped_ms = Vec::new();
    let mut backward_ms = Vec::new();
    let (mut nodes, mut bytes) = (0usize, 0u64);
    let start = Instant::now();
    while backward_ms.len() < 3 || start.elapsed() < budget {
        let mut g = Graph::new();
        let mut binder = ParamBinder::new(net.params());
        let mut tstate = TapedState::from_state(&mut g, &warmed, true);
        let mut logits = Vec::with_capacity(segment);
        for (t, input) in inputs.iter().enumerate().skip(segment).take(segment) {
            let step_start = Instant::now();
            let step = net.step_taped(
                &mut g,
                &mut binder,
                input,
                &mut tstate,
                &StepCtx::train(1, t),
            );
            taped_ms.push(ms(step_start.elapsed()));
            logits.push(step.logits);
        }
        nodes = g.len();
        bytes = g.activation_bytes();
        for &v in &logits {
            g.seed_grad(v, grad.clone());
        }
        let backward_start = Instant::now();
        g.backward();
        backward_ms.push(ms(backward_start.elapsed()));
    }
    out.put("snn.step_taped_ms", p50(&taped_ms), "ms");
    out.put("autograd.backward_ms", p50(&backward_ms), "ms");
    out.put(
        "autograd.tape_nodes_per_step",
        nodes as f64 / segment as f64,
        "count",
    );
    out.put(
        "autograd.activation_bytes_per_step",
        bytes as f64 / segment as f64,
        "bytes",
    );
    density
}

/// Median Skipper step at one worker and at two, sessions built fresh and
/// stepped alternately on one batch, plus the largest peak bytes a single
/// worker booked in its first iteration.
fn worker_pair_ms(
    w: &Workload,
    rig: &Rig,
    seed: u64,
    inputs: &[Tensor],
    labels: &[usize],
    budget: Duration,
) -> (f64, f64, u64) {
    let mut one = build_session(w, seed, &rig.thresholds, w.method(2), 1);
    let mut two = build_session(w, seed, &rig.thresholds, w.method(2), 2);
    one.train_batch(inputs, labels);
    // The first iteration's peak: the same number on every run, however
    // many iterations the budget then allows.
    let warm = two.train_batch(inputs, labels);
    let worker_peak = warm
        .worker_mem
        .iter()
        .map(|m| m.total_peak())
        .max()
        .unwrap_or(0);
    let (mut one_ms, mut two_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while one_ms.len() < 3 || start.elapsed() < budget {
        one_ms.push(ms(one.train_batch(inputs, labels).wall));
        two_ms.push(ms(two.train_batch(inputs, labels).wall));
    }
    (p50(&one_ms), p50(&two_ms), worker_peak)
}

/// Everything the traced run measures outside the main loop.
pub fn layer_probes(
    w: &Workload,
    rig: &Rig,
    pinned: &Pinned,
    bodies: &[Body],
    seed: u64,
    budget: Duration,
    out: &mut Metrics,
) {
    let mut rng = XorShiftRng::new(seed ^ 0x9E0BE5);
    let indices = rig.data.spread(w.batch);
    let (inputs, labels) = rig.data.spikes(&indices, w.timesteps, &mut rng);
    let net = rig.infer.net();

    // data, snn.encode
    let gather = match &rig.data {
        Data::Images(d) => time_ms(budget, || d.batch(&indices)),
        Data::Events(d) => time_ms(budget, || event_batch(d, &indices, w.timesteps)),
    };
    out.put("data.batch_ms", gather, "ms");
    let mut rates = inputs[0].clone();
    for input in &inputs[1..] {
        rates.add_assign(input);
    }
    rates.scale_assign(1.0 / w.timesteps as f32);
    out.put(
        "snn.encode_ms",
        time_ms(budget, || {
            PoissonEncoder::default().encode(&rates, w.timesteps, &mut rng)
        }),
        "ms",
    );

    let density = step_probes(w, net, &inputs, budget, out);
    tensor_probes(net, w.batch, density, budget, &mut rng, out);

    // snn.lif_step_infer at the largest population.
    let population = net
        .state_shapes()
        .iter()
        .max_by_key(|s| s.iter().product::<usize>())
        .expect("networks have LIF populations");
    let dims: Vec<usize> = std::iter::once(w.batch)
        .chain(population.iter().copied())
        .collect();
    let current = Tensor::randn(dims.as_slice(), &mut rng);
    let mem = Tensor::randn(dims.as_slice(), &mut rng);
    let prev = spikes(&dims, density, &mut rng);
    let lif = LifConfig::default();
    out.put(
        "snn.lif_step_infer_ms",
        time_ms(budget, || lif_step_infer(&lif, &current, &mem, &prev)),
        "ms",
    );

    // snn.adam_step on a scratch copy of the network.
    let mut scratch = build_net(w, seed, &rig.thresholds);
    let mut adam = Adam::new(1e-3);
    out.put(
        "snn.adam_step_ms",
        time_ms(budget, || adam.step(scratch.params_mut())),
        "ms",
    );

    // core.decide_skips on the last recorded activity.
    let sam = SpikeActivityMonitor::from_sums(rig.sessions[2].last_sam_sums().to_vec());
    let bounds = segment_bounds(w.timesteps, w.checkpoints);
    let decide = time_ms(budget, || {
        decide_skips(&sam, &bounds, w.percentile, SkipPolicy::default(), seed)
    });
    out.put("core.decide_skips_us", decide * 1e3, "us");

    // core.engine: two workers against one, still on one CPU.
    let (one, two, worker_peak) = worker_pair_ms(w, rig, seed, &inputs, &labels, budget * 6);
    out.put("core.engine.w2_over_w1_x", two / one, "x");
    out.put("core.engine.worker_peak_bytes", worker_peak as f64, "bytes");

    // mt: the same pair with the start-up affinity mask restored. Ungated:
    // on a shared host this does not repeat within any useful bound.
    pinned
        .saved
        .apply()
        .expect("restoring the start-up affinity mask");
    let (user0, sys0) = cpu_seconds();
    let (one, two, _) = worker_pair_ms(w, rig, seed, &inputs, &labels, budget * 6);
    let (user1, sys1) = cpu_seconds();
    pinned
        .repin()
        .expect("pinning again after the multi-core probe");
    out.put("mt.step_ms_p50_w1", one, "ms");
    out.put("mt.step_ms_p50_w2", two, "ms");
    out.put(
        "mt.sys_cpu_share",
        // At least one clock tick, so a probe too short to register reads 0.
        (sys1 - sys0) / (user1 - user0 + sys1 - sys0).max(0.01),
        "ratio",
    );

    // serve: transport, parsing and the model alone.
    out.put(
        "serve.http_roundtrip_ms",
        time_ms(budget, || {
            get(rig.addr, "/v1/tenants").expect("gateway answers")
        }),
        "ms",
    );
    let parse = |body: &Body| {
        serde_json::from_str::<PredictRequest>(&body.json)
            .expect("own body parses")
            .to_timestep_tensors()
            .expect("own body has a consistent shape")
    };
    out.put(
        "serve.parse_ms",
        time_ms(budget, || parse(&bodies[0])),
        "ms",
    );
    let served = rig.gateway.pool().current();
    let single = parse(&bodies[0]);
    out.put(
        "serve.direct_predict_ms_b1",
        time_ms(budget, || served.predict(&single)),
        "ms",
    );
    let pair: Vec<Tensor> = single
        .iter()
        .zip(&parse(&bodies[1]))
        .map(|(a, b)| {
            let mut dims = a.shape().dims().to_vec();
            dims[0] = 2;
            Tensor::from_vec([a.data(), b.data()].concat(), dims)
        })
        .collect();
    out.put(
        "serve.direct_predict_ms_b2",
        time_ms(budget, || served.predict(&pair)),
        "ms",
    );
}
