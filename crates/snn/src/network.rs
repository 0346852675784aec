//! The [`SpikingNetwork`] container: a feed-forward (optionally residual)
//! stack of spiking modules, unrolled over time by the trainers.
//!
//! A network exposes its per-timestep forward in two forms:
//!
//! * [`SpikingNetwork::step_infer`] — plain tensors, no graph. Used for the
//!   gradient-free first forward pass of checkpointed training and for
//!   evaluation. Intermediate tensors die immediately; only the neuron
//!   state survives.
//! * [`SpikingNetwork::step_taped`] — appends nodes to a
//!   [`Graph`]. The tape keeps what the backward reads — each layer's
//!   membrane `U` and the input of each synapse — as the "stored
//!   activations" whose footprint the paper measures; the synaptic
//!   currents, and spikes that are pooled or dropped out before the next
//!   synapse, are released once the module's forward is done.
//!
//! Both forms also report the timestep's network-wide spike count — the
//! Spike Activity Monitor (SAM) statistic `s_t = Σ_l sum(o_t^l)` of the
//! paper's Eq. 4.
//!
//! Because the membrane reset is detached (see [`crate::lif`]), the neuron
//! state carried between timesteps is `(U, o)` as *values*; only `U`
//! carries gradient across a checkpoint boundary.

use crate::layers::{Conv2dLayer, LinearLayer};
use crate::lif::{lif_step_taped, LifConfig};
use crate::params::{ParamBinder, ParamStore};
use skipper_autograd::{Graph, Var};
use skipper_memprof::{Category, CategoryGuard};
use skipper_tensor::{avg_pool2d, lif_fire, Tensor, XorShiftRng};

/// A LIF population attached to a synapse layer.
#[derive(Debug, Clone)]
pub struct LifUnit {
    /// Neuron parameters.
    pub cfg: LifConfig,
    /// Index into the network's state vectors.
    pub state_id: usize,
}

impl LifUnit {
    /// One gradient-free step of this population: advances its `(U, o)` in
    /// `state`, adds its spike count to `spike_sum` and returns the spikes.
    fn step_infer(
        &self,
        current: &Tensor,
        state: &mut NetworkState,
        spike_sum: &mut f64,
    ) -> Tensor {
        let id = self.state_id;
        let (mem, prev) = (&state.mems[id], &state.spikes[id]);
        let (u, o, fired) = lif_fire(current, mem, prev, self.cfg.leak, self.cfg.threshold);
        *spike_sum += fired;
        state.mems[id] = u;
        state.spikes[id] = o.clone();
        o
    }
}

/// One stage of a [`SpikingNetwork`].
#[derive(Debug, Clone)]
pub enum Module {
    /// Convolution → LIF (→ optional average pool).
    ConvLif {
        /// The synapse.
        conv: Conv2dLayer,
        /// The neuron population.
        lif: LifUnit,
        /// Non-overlapping pool window applied to the spikes.
        pool: Option<usize>,
    },
    /// Dense → LIF (→ optional dropout on the spikes).
    LinearLif {
        /// The synapse.
        lin: LinearLayer,
        /// The neuron population.
        lif: LifUnit,
        /// Drop probability (masks are deterministic per iteration seed so
        /// recomputation reproduces them exactly).
        dropout: Option<f32>,
    },
    /// Pre-activation residual block: `LIF₂(conv₂(LIF₁(conv₁(x))) + sc(x))`.
    Residual {
        /// First convolution of the main path.
        conv1: Conv2dLayer,
        /// Neuron after `conv1`.
        lif1: LifUnit,
        /// Second convolution of the main path.
        conv2: Conv2dLayer,
        /// `1x1` projection for channel/stride changes (`None` = identity).
        shortcut: Option<Conv2dLayer>,
        /// Neuron after the junction.
        lif2: LifUnit,
    },
    /// Standalone average pooling.
    Pool(usize),
    /// Collapse `[B,C,H,W]` to `[B,C·H·W]`.
    Flatten,
    /// Non-spiking readout integrator: produces the timestep's logit
    /// contribution. Must be the last module.
    Output(LinearLayer),
}

impl Module {
    /// Number of spiking (LIF) layers in this module.
    pub fn spiking_layers(&self) -> usize {
        match self {
            Module::ConvLif { .. } | Module::LinearLif { .. } => 1,
            Module::Residual { .. } => 2,
            Module::Pool(_) | Module::Flatten | Module::Output(_) => 0,
        }
    }
}

/// Execution context of one timestep.
#[derive(Debug, Clone, Copy)]
pub struct StepCtx {
    /// Seed fixed for the whole iteration; dropout masks derive from it so
    /// the recomputation pass reproduces the first pass exactly.
    pub iter_seed: u64,
    /// The timestep index.
    pub t: usize,
    /// Training mode (enables dropout).
    pub train: bool,
    /// Index of this tensor's first sample within the *global* batch.
    /// Zero for unsharded execution; a shard of a data-parallel engine
    /// passes its offset so per-sample randomness (dropout masks) is
    /// identical to the unsharded run over the same global batch.
    pub batch_offset: usize,
}

impl StepCtx {
    /// Training context at time `t` for an unsharded batch.
    pub fn train(iter_seed: u64, t: usize) -> StepCtx {
        StepCtx::train_shard(iter_seed, t, 0)
    }

    /// Training context at time `t` for a batch shard starting at global
    /// sample index `batch_offset`.
    pub fn train_shard(iter_seed: u64, t: usize, batch_offset: usize) -> StepCtx {
        StepCtx {
            iter_seed,
            t,
            train: true,
            batch_offset,
        }
    }

    /// Evaluation context (no dropout) at time `t`.
    pub fn eval(t: usize) -> StepCtx {
        StepCtx {
            train: false,
            ..StepCtx::train(0, t)
        }
    }
}

fn dropout_mask(shape: &[usize], p: f32, state_id: usize, ctx: &StepCtx) -> Tensor {
    // Seeded per (iteration, layer, timestep, global sample): each batch
    // row draws from its own stream, so a shard computes exactly the mask
    // rows the unsharded run would give its samples.
    let rows = shape[0];
    let cols: usize = shape[1..].iter().product();
    let keep = 1.0 - p;
    let inv = 1.0 / keep;
    let mut data = vec![0.0f32; rows * cols];
    for (r, row) in data.chunks_exact_mut(cols).enumerate() {
        let sample = (ctx.batch_offset + r) as u64;
        let seed = ctx
            .iter_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((state_id as u64) << 32)
            .wrapping_add(ctx.t as u64 + 1)
            .wrapping_add(sample.wrapping_mul(0xD129_9617_17B9_2C4B));
        let mut rng = XorShiftRng::new(seed);
        for v in row.iter_mut() {
            *v = if rng.next_f32() < keep { inv } else { 0.0 };
        }
    }
    Tensor::from_vec(data, shape)
}

/// Per-layer neuron state `(U, o)` as plain tensors.
///
/// Cloning is cheap (shared storage) and is exactly how a checkpoint is
/// taken: the clone keeps the storage alive after the live state moves on,
/// which is also how a framework's saved-tensor references behave.
#[derive(Debug, Clone)]
pub struct NetworkState {
    /// Membrane potentials per LIF unit.
    pub mems: Vec<Tensor>,
    /// Previous-step spikes per LIF unit.
    pub spikes: Vec<Tensor>,
}

impl NetworkState {
    /// Total bytes held (counting shared storages once per tensor).
    pub fn byte_size(&self) -> u64 {
        self.mems
            .iter()
            .chain(self.spikes.iter())
            .map(Tensor::byte_size)
            .sum()
    }
}

/// Neuron state during taped execution: membranes are graph variables (the
/// gradient path through time), previous spikes are detached values.
#[derive(Debug)]
pub struct TapedState {
    /// Membrane variables, updated every step.
    pub mems: Vec<Var>,
    /// Detached previous-step spikes.
    pub prev_spikes: Vec<Tensor>,
    /// The leaf variables the state started from (checkpoint boundary);
    /// their gradients after `backward()` are `∂L/∂U` at the boundary.
    pub initial_mems: Vec<Var>,
}

impl TapedState {
    /// Insert `state` into `g` as leaves. `requires_grad` marks membrane
    /// leaves as gradient sinks (true at checkpoint boundaries).
    pub fn from_state(g: &mut Graph, state: &NetworkState, requires_grad: bool) -> TapedState {
        let mems: Vec<Var> = state
            .mems
            .iter()
            .map(|m| g.leaf(m.clone(), requires_grad))
            .collect();
        TapedState {
            initial_mems: mems.clone(),
            mems,
            prev_spikes: state.spikes.clone(),
        }
    }

    /// Extract the current state as plain tensors.
    pub fn to_state(&self, g: &Graph) -> NetworkState {
        NetworkState {
            mems: self.mems.iter().map(|&v| g.value(v).clone()).collect(),
            spikes: self.prev_spikes.clone(),
        }
    }
}

/// Result of a plain step.
#[derive(Debug)]
pub struct StepOutput {
    /// This timestep's logit contribution `[B, classes]`.
    pub logits: Tensor,
    /// SAM statistic `s_t` (network-wide spike count).
    pub spike_sum: f64,
}

/// Result of a taped step.
#[derive(Debug)]
pub struct TapedStepOutput {
    /// This timestep's logit contribution (graph variable).
    pub logits: Var,
    /// SAM statistic `s_t`.
    pub spike_sum: f64,
}

/// A complete spiking network: modules + parameters + shape metadata.
#[derive(Debug)]
pub struct SpikingNetwork {
    name: String,
    modules: Vec<Module>,
    params: ParamStore,
    state_shapes: Vec<Vec<usize>>,
    input_shape: Vec<usize>,
    num_classes: usize,
}

impl SpikingNetwork {
    /// Assemble a network. Intended to be called by the constructors in
    /// [`crate::models`] (or custom builders following the same pattern).
    ///
    /// # Panics
    ///
    /// Panics if the last module is not [`Module::Output`] or if
    /// `state_shapes` does not cover every LIF unit.
    pub fn from_parts(
        name: impl Into<String>,
        modules: Vec<Module>,
        params: ParamStore,
        state_shapes: Vec<Vec<usize>>,
        input_shape: Vec<usize>,
        num_classes: usize,
    ) -> SpikingNetwork {
        assert!(
            matches!(modules.last(), Some(Module::Output(_))),
            "last module must be the readout"
        );
        let lif_units: usize = modules.iter().map(Module::spiking_layers).sum();
        assert_eq!(state_shapes.len(), lif_units, "state shape per LIF unit");
        SpikingNetwork {
            name: name.into(),
            modules,
            params,
            state_shapes,
            input_shape,
            num_classes,
        }
    }

    /// Network name (e.g. `"vgg5"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Storage-sharing view of this network for a worker thread.
    ///
    /// Weights are Arc clones of the originals (no bytes are booked with
    /// the memory tracker), so the view is read-consistent with the main
    /// copy for the duration of an iteration. Gradient accumulation must
    /// not go through the view — shards harvest into
    /// [`crate::params::ShardGrads`] instead.
    pub fn share(&self) -> SpikingNetwork {
        SpikingNetwork {
            name: self.name.clone(),
            modules: self.modules.clone(),
            params: self.params.share(),
            state_shapes: self.state_shapes.clone(),
            input_shape: self.input_shape.clone(),
            num_classes: self.num_classes,
        }
    }

    /// The modules, in execution order.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Mutable module access (threshold calibration and similar surgery).
    pub fn modules_mut(&mut self) -> &mut [Module] {
        &mut self.modules
    }

    /// The parameter store.
    pub fn params(&self) -> &ParamStore {
        &self.params
    }

    /// Mutable parameter store (optimizers, auxiliary classifiers).
    pub fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.params
    }

    /// Input shape per sample, `[C, H, W]`.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// `L_n`: the number of spiking layers (the paper's constraint
    /// parameter in Eq. 7).
    pub fn spiking_layer_count(&self) -> usize {
        self.modules.iter().map(Module::spiking_layers).sum()
    }

    /// Total trainable scalars.
    pub fn param_scalars(&self) -> u64 {
        self.params.scalar_count()
    }

    /// State shapes (per sample) of each LIF unit.
    pub fn state_shapes(&self) -> &[Vec<usize>] {
        &self.state_shapes
    }

    /// Per-sample scalar elements of the full neuron state `(U, o)`.
    pub fn state_elems_per_sample(&self) -> u64 {
        2 * self
            .state_shapes
            .iter()
            .map(|s| s.iter().product::<usize>() as u64)
            .sum::<u64>()
    }

    /// Zeroed neuron state for a batch (booked as activations).
    pub fn init_state(&self, batch: usize) -> NetworkState {
        let _cat = CategoryGuard::new(Category::Activations);
        let make = |shape: &Vec<usize>| {
            let mut dims = vec![batch];
            dims.extend_from_slice(shape);
            Tensor::zeros(dims)
        };
        NetworkState {
            mems: self.state_shapes.iter().map(make).collect(),
            spikes: self.state_shapes.iter().map(make).collect(),
        }
    }

    /// Scalar elements one training [`step_taped`] call adds to what a
    /// tape holds, per sample, in the steady state (the step's spikes
    /// replace the previous step's as the reset carry) — the analytic
    /// activation-cost `A` used to project the paper's Fig. 4/14
    /// configurations without running them.
    ///
    /// Each LIF layer of `N` neurons keeps its membrane `U` (N), which the
    /// spike's backward reads. Its spikes `o` (N) are kept when the next
    /// synapse reads them; a pooled or dropped-out `o` is released and
    /// lives on only as the carry, so the pooled map (`N/k²`) or the mask
    /// and masked spikes (2·N) are kept instead. Synaptic currents are
    /// released. Reshape nodes alias existing storage and are excluded; the
    /// input leaf is excluded (it is accounted as [`Category::Input`]).
    ///
    /// [`step_taped`]: SpikingNetwork::step_taped
    pub fn per_step_graph_elems_per_sample(&self) -> u64 {
        let mut total: u64 = 0;
        let mut lif = 0usize;
        let elems = |shape: &[usize]| shape.iter().product::<usize>() as u64;
        let mut cur: u64 = elems(&self.input_shape);
        for m in &self.modules {
            match m {
                Module::ConvLif { pool, .. } => {
                    let out = elems(&self.state_shapes[lif]);
                    lif += 1;
                    cur = match pool {
                        Some(k) => out / (k * k) as u64, // U, pooled o
                        None => out,                     // U, o
                    };
                    total += out + cur;
                }
                Module::LinearLif { dropout, .. } => {
                    let out = elems(&self.state_shapes[lif]);
                    lif += 1;
                    total += match dropout {
                        Some(_) => 3 * out, // U, mask, masked o
                        None => 2 * out,    // U, o
                    };
                    cur = out;
                }
                Module::Residual { .. } => {
                    let mid = elems(&self.state_shapes[lif]);
                    let out = elems(&self.state_shapes[lif + 1]);
                    lif += 2;
                    total += 2 * mid + 2 * out; // U1, o1, U2, o2
                    cur = out;
                }
                Module::Pool(k) => {
                    cur /= (k * k) as u64;
                    total += cur;
                }
                Module::Flatten => {} // aliasing reshape
                Module::Output(lin) => {
                    total += lin.out_features() as u64;
                }
            }
        }
        total
    }

    /// Forward FLOPs of one timestep per sample, from shapes alone — the
    /// analytic counterpart of the kernel log, used to project
    /// configurations too large to execute (paper Fig. 4).
    pub fn per_step_flops_per_sample(&self) -> f64 {
        let elems = |shape: &[usize]| shape.iter().product::<usize>() as f64;
        let conv_flops = |conv: &Conv2dLayer, out_elems: f64| {
            2.0 * (conv.in_channels() * conv.kernel() * conv.kernel()) as f64 * out_elems
        };
        let mut total = 0.0f64;
        let mut lif = 0usize;
        for m in &self.modules {
            match m {
                Module::ConvLif { conv, pool, .. } => {
                    let out = elems(&self.state_shapes[lif]);
                    lif += 1;
                    total += conv_flops(conv, out) + 4.0 * out;
                    if let Some(k) = pool {
                        total += out / (k * k) as f64;
                    }
                }
                Module::LinearLif { lin, .. } => {
                    let out = elems(&self.state_shapes[lif]);
                    lif += 1;
                    total += 2.0 * (lin.in_features() * lin.out_features()) as f64 + 4.0 * out;
                }
                Module::Residual {
                    conv1,
                    conv2,
                    shortcut,
                    ..
                } => {
                    let mid = elems(&self.state_shapes[lif]);
                    let out = elems(&self.state_shapes[lif + 1]);
                    lif += 2;
                    total += conv_flops(conv1, mid) + 4.0 * mid;
                    total += conv_flops(conv2, out);
                    if let Some(sc) = shortcut {
                        total += conv_flops(sc, out);
                    }
                    total += out + 4.0 * out; // junction add + LIF
                }
                Module::Pool(_) | Module::Flatten => {}
                Module::Output(lin) => {
                    total += 2.0 * (lin.in_features() * lin.out_features()) as f64;
                }
            }
        }
        total
    }

    // ------------------------------------------------------------------
    // Plain (gradient-free) step
    // ------------------------------------------------------------------

    /// Advance the network one timestep without building a graph.
    ///
    /// Updates `state` in place and returns the logit contribution plus the
    /// SAM spike count.
    pub fn step_infer(
        &self,
        input: &Tensor,
        state: &mut NetworkState,
        ctx: &StepCtx,
    ) -> StepOutput {
        let (_, logits, spike_sum) =
            self.step_infer_modules(input.clone(), state, ctx, 0..self.modules.len());
        StepOutput {
            #[expect(clippy::expect_used, reason = "every network ends with Output")]
            logits: logits.expect("network ends with Output"),
            spike_sum,
        }
    }

    /// Run only the modules in `range` for one timestep (no graph), taking
    /// `x` as the subnetwork input. Returns `(output, logits, spike_sum)`;
    /// `logits` is `Some` only when the range contains the readout.
    ///
    /// This is the building block for locally-supervised training
    /// (TBPTT-LBP), where gradient-isolated blocks execute separately.
    pub fn step_infer_modules(
        &self,
        input: Tensor,
        state: &mut NetworkState,
        ctx: &StepCtx,
        range: std::ops::Range<usize>,
    ) -> (Tensor, Option<Tensor>, f64) {
        let _cat = CategoryGuard::new(Category::Activations);
        let mut x = input;
        let mut spike_sum = 0.0f64;
        let mut logits = None;
        for m in &self.modules[range] {
            match m {
                Module::ConvLif { conv, lif, pool } => {
                    let current = conv.forward_infer(&self.params, &x);
                    let o = lif.step_infer(&current, state, &mut spike_sum);
                    x = match pool {
                        Some(k) => avg_pool2d(&o, *k),
                        None => o,
                    };
                }
                Module::LinearLif { lin, lif, dropout } => {
                    let current = lin.forward_infer(&self.params, &x);
                    let o = lif.step_infer(&current, state, &mut spike_sum);
                    x = match dropout {
                        Some(p) if ctx.train => {
                            let mask = dropout_mask(o.shape().dims(), *p, lif.state_id, ctx);
                            o.mul(&mask)
                        }
                        _ => o,
                    };
                }
                Module::Residual {
                    conv1,
                    lif1,
                    conv2,
                    shortcut,
                    lif2,
                } => {
                    let c1 = conv1.forward_infer(&self.params, &x);
                    let o1 = lif1.step_infer(&c1, state, &mut spike_sum);
                    let c2 = conv2.forward_infer(&self.params, &o1);
                    let sc = match shortcut {
                        Some(p) => p.forward_infer(&self.params, &x),
                        None => x.clone(),
                    };
                    let junction = c2.add(&sc);
                    x = lif2.step_infer(&junction, state, &mut spike_sum);
                }
                Module::Pool(k) => x = avg_pool2d(&x, *k),
                Module::Flatten => {
                    let b = x.shape()[0];
                    let n = x.numel() / b;
                    x = x.reshape([b, n]);
                }
                Module::Output(lin) => {
                    logits = Some(lin.forward_infer(&self.params, &x));
                }
            }
        }
        (x, logits, spike_sum)
    }

    // ------------------------------------------------------------------
    // Taped step
    // ------------------------------------------------------------------

    /// Advance the network one timestep on tape `g`.
    ///
    /// `input` is inserted as a non-gradient leaf (it shares storage with
    /// the encoded input sequence, so no new bytes are booked).
    pub fn step_taped(
        &self,
        g: &mut Graph,
        binder: &mut ParamBinder,
        input: &Tensor,
        state: &mut TapedState,
        ctx: &StepCtx,
    ) -> TapedStepOutput {
        let x = g.leaf(input.clone(), false);
        let (_, logits, spike_sum) =
            self.step_taped_modules(g, binder, x, state, ctx, 0..self.modules.len());
        TapedStepOutput {
            #[expect(clippy::expect_used, reason = "every network ends with Output")]
            logits: logits.expect("network ends with Output"),
            spike_sum,
        }
    }

    /// Run only the modules in `range` for one timestep on tape `g`, taking
    /// variable `x` as the subnetwork input. Returns
    /// `(output, logits, spike_sum)`; `logits` is `Some` only when the
    /// range contains the readout. See [`step_infer_modules`].
    ///
    /// [`step_infer_modules`]: SpikingNetwork::step_infer_modules
    pub fn step_taped_modules(
        &self,
        g: &mut Graph,
        binder: &mut ParamBinder,
        x: Var,
        state: &mut TapedState,
        ctx: &StepCtx,
        range: std::ops::Range<usize>,
    ) -> (Var, Option<Var>, f64) {
        let _cat = CategoryGuard::new(Category::Activations);
        let mut x = x;
        let mut spike_sum = 0.0f64;
        let mut logits = None;
        for m in &self.modules[range] {
            match m {
                Module::ConvLif { conv, lif, pool } => {
                    let current = conv.forward_taped(g, binder, &self.params, x);
                    let prev = state.prev_spikes[lif.state_id].clone();
                    let (u, o, fired) =
                        lif_step_taped(g, &lif.cfg, current, state.mems[lif.state_id], &prev);
                    spike_sum += fired;
                    state.mems[lif.state_id] = u;
                    state.prev_spikes[lif.state_id] = g.value(o).clone();
                    g.release(current);
                    x = match pool {
                        Some(k) => {
                            let pooled = g.avg_pool2d(o, *k);
                            g.release(o);
                            pooled
                        }
                        None => o,
                    };
                }
                Module::LinearLif { lin, lif, dropout } => {
                    let current = lin.forward_taped(g, binder, &self.params, x);
                    let prev = state.prev_spikes[lif.state_id].clone();
                    let (u, o, fired) =
                        lif_step_taped(g, &lif.cfg, current, state.mems[lif.state_id], &prev);
                    spike_sum += fired;
                    state.mems[lif.state_id] = u;
                    state.prev_spikes[lif.state_id] = g.value(o).clone();
                    g.release(current);
                    x = match dropout {
                        Some(p) if ctx.train => {
                            let mask = dropout_mask(g.shape(o).dims(), *p, lif.state_id, ctx);
                            let dropped = g.mask_mul(o, mask);
                            g.release(o);
                            dropped
                        }
                        _ => o,
                    };
                }
                Module::Residual {
                    conv1,
                    lif1,
                    conv2,
                    shortcut,
                    lif2,
                } => {
                    let c1 = conv1.forward_taped(g, binder, &self.params, x);
                    let prev1 = state.prev_spikes[lif1.state_id].clone();
                    let (u1, o1, fired) =
                        lif_step_taped(g, &lif1.cfg, c1, state.mems[lif1.state_id], &prev1);
                    spike_sum += fired;
                    state.mems[lif1.state_id] = u1;
                    state.prev_spikes[lif1.state_id] = g.value(o1).clone();
                    let c2 = conv2.forward_taped(g, binder, &self.params, o1);
                    let projection = shortcut
                        .as_ref()
                        .map(|p| p.forward_taped(g, binder, &self.params, x));
                    let junction = g.add(c2, projection.unwrap_or(x));
                    let prev2 = state.prev_spikes[lif2.state_id].clone();
                    let (u2, o2, fired) =
                        lif_step_taped(g, &lif2.cfg, junction, state.mems[lif2.state_id], &prev2);
                    spike_sum += fired;
                    state.mems[lif2.state_id] = u2;
                    state.prev_spikes[lif2.state_id] = g.value(o2).clone();
                    for current in [c1, c2, junction].into_iter().chain(projection) {
                        g.release(current);
                    }
                    x = o2;
                }
                Module::Pool(k) => x = g.avg_pool2d(x, *k),
                Module::Flatten => {
                    let b = g.value(x).shape()[0];
                    let n = g.value(x).numel() / b;
                    x = g.reshape(x, [b, n]);
                }
                Module::Output(lin) => {
                    logits = Some(lin.forward_taped(g, binder, &self.params, x));
                }
            }
        }
        (x, logits, spike_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{custom_net, ModelConfig};

    fn tiny() -> SpikingNetwork {
        custom_net(&ModelConfig {
            input_hw: 8,
            in_channels: 2,
            num_classes: 4,
            width_mult: 0.25,
            ..ModelConfig::default()
        })
    }

    #[test]
    fn infer_and_taped_steps_agree() {
        let net = tiny();
        let mut rng = XorShiftRng::new(44);
        let input = Tensor::rand([2, 2, 8, 8], &mut rng).map(|x| (x > 0.5) as i32 as f32);
        let ctx = StepCtx::eval(0);

        let mut state = net.init_state(2);
        let plain = net.step_infer(&input, &mut state, &ctx);

        let mut g = Graph::new();
        let mut binder = ParamBinder::new(net.params());
        let mut tstate = TapedState::from_state(&mut g, &net.init_state(2), true);
        let taped = net.step_taped(&mut g, &mut binder, &input, &mut tstate, &ctx);

        assert!(g.value(taped.logits).allclose(&plain.logits, 1e-4));
        assert_eq!(taped.spike_sum, plain.spike_sum);
        // State agrees too.
        let tnext = tstate.to_state(&g);
        for (a, b) in tnext.mems.iter().zip(&state.mems) {
            assert!(a.allclose(b, 1e-4));
        }
        for (a, b) in tnext.spikes.iter().zip(&state.spikes) {
            assert!(a.allclose(b, 1e-5));
        }
    }

    #[test]
    fn per_step_elems_matches_real_tape_exactly() {
        use crate::models::{alexnet, lenet5, resnet20, vgg5};
        use skipper_memprof as mp;
        // Dropout on, so vgg5's and alexnet's dense layers mask; resnet20's
        // first block of each later stage has a projection shortcut.
        let cfg = ModelConfig {
            input_hw: 8,
            in_channels: 2,
            num_classes: 4,
            width_mult: 0.25,
            dropout: Some(0.5),
            ..ModelConfig::default()
        };
        let batch = 3usize;
        let mut rng = XorShiftRng::new(45);
        let input = Tensor::rand([batch, 2, 8, 8], &mut rng);
        let nets = [
            tiny(),
            vgg5(&cfg),
            resnet20(&cfg),
            alexnet(&cfg),
            lenet5(&cfg),
            custom_net(&cfg),
        ];
        for net in nets {
            mp::reset_all(); // isolate: count only what this net books
            let state = net.init_state(batch);
            let mut g = Graph::new();
            let mut binder = ParamBinder::new(net.params());
            let mut tstate = TapedState::from_state(&mut g, &state, true);
            // The first step's reset carry is still held by `state`; the
            // second step's replaces the first step's spikes: steady state.
            let mut step = |t| {
                let ctx = StepCtx::train(9, t);
                let _ = net.step_taped(&mut g, &mut binder, &input, &mut tstate, &ctx);
                mp::snapshot().live(mp::Category::Activations)
            };
            let live_before = step(0);
            let live_after = step(1);
            let expect = net.per_step_graph_elems_per_sample() * batch as u64 * 4;
            assert_eq!(
                live_after - live_before,
                expect,
                "{}: analytic per-step bytes must match the tape",
                net.name()
            );
        }
    }

    #[test]
    fn spiking_layer_count_and_state_shapes() {
        let net = tiny();
        assert_eq!(net.spiking_layer_count(), 3, "custom-net has conv(3)");
        assert_eq!(net.state_shapes().len(), 3);
        assert!(net.param_scalars() > 0);
    }

    #[test]
    fn dropout_masks_are_deterministic_per_iteration() {
        let a = dropout_mask(&[4, 4], 0.5, 1, &StepCtx::train(99, 3));
        let b = dropout_mask(&[4, 4], 0.5, 1, &StepCtx::train(99, 3));
        let c = dropout_mask(&[4, 4], 0.5, 1, &StepCtx::train(100, 3));
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn dropout_masks_shard_consistently_with_batch_offset() {
        // Rows [2..4) of the full-batch mask equal rows [0..2) of a shard
        // whose batch_offset is 2: sharded dropout matches unsharded.
        let full = dropout_mask(&[4, 6], 0.5, 1, &StepCtx::train(7, 2));
        let shard = dropout_mask(&[2, 6], 0.5, 1, &StepCtx::train_shard(7, 2, 2));
        assert_eq!(&full.data()[2 * 6..], shard.data());
    }

    #[test]
    fn state_checkpoint_clone_is_cheap_until_replaced() {
        let net = tiny();
        let state = net.init_state(1);
        let checkpoint = state.clone();
        for (a, b) in state.mems.iter().zip(&checkpoint.mems) {
            assert!(a.shares_storage(b));
        }
    }
}
