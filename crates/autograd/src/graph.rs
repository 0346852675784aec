//! The arena tape: nodes, ops, forward construction and reverse sweep.

use crate::surrogate::Surrogate;
use skipper_memprof::{record_op, Category, CategoryGuard, OpKind};
use skipper_tensor::{
    avg_pool2d, avg_pool2d_backward, conv2d, lif_fire, matmul, matmul_nt, matmul_tn, Conv2dGrad,
    Conv2dSpec, Shape, Tensor,
};

/// Handle to a node in a [`Graph`].
///
/// A `Var` is only meaningful with the graph that created it; using it with
/// another graph panics (indices are bounds-checked) or yields nonsense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// Arena index of this variable.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// External input (weights, checkpoint states, spike inputs).
    Leaf,
    /// `a + b`.
    Add(Var, Var),
    /// `a + s·b`.
    AddScaled(Var, Var, f32),
    /// `s·a`.
    Scale(Var, f32),
    /// Hadamard product `a ⊙ b`.
    Mul(Var, Var),
    /// Dense layer `x[B,I] · w[O,I]ᵀ (+ b[O])`.
    Linear { x: Var, w: Var, b: Option<Var> },
    /// 2-D convolution.
    Conv2d {
        x: Var,
        w: Var,
        b: Option<Var>,
        spec: Conv2dSpec,
    },
    /// Non-overlapping average pooling with window `k`.
    AvgPool { x: Var, k: usize },
    /// Shape view; gradient reshapes back.
    Reshape(Var),
    /// LIF membrane update `U = (I + λ·mem) − θ·o_prev`; the reset term
    /// is a constant (detached), so gradient reaches `current` and `mem`.
    Lif { current: Var, mem: Var, leak: f32 },
    /// Heaviside firing with a surrogate backward.
    Spike {
        u: Var,
        theta: f32,
        surrogate: Surrogate,
    },
    /// `x ⊙ mask` with a fixed binary mask (dropout; mask is pre-scaled).
    MaskMul { x: Var, mask: Tensor },
    /// `max(0, x)` — used by the ANN pre-training mode of hybrid training.
    Relu(Var),
}

impl Op {
    /// The inputs whose *values* this op's backward reads. Every other
    /// input is needed, at most, for its shape.
    fn saved_inputs(&self) -> [Option<Var>; 2] {
        match *self {
            Op::Linear { x, w, .. } | Op::Conv2d { x, w, .. } | Op::Mul(x, w) => [Some(x), Some(w)],
            Op::Spike { u, .. } => [Some(u), None],
            Op::Relu(x) => [Some(x), None],
            _ => [None, None],
        }
    }
}

#[derive(Debug)]
struct Node {
    shape: Shape,
    /// `None` once [`Graph::release`] dropped it.
    value: Option<Tensor>,
    grad: Option<Tensor>,
    op: Op,
    requires_grad: bool,
    /// Some recorded op's backward reads this value, so it is kept.
    saved: bool,
}

/// A define-by-run autodiff tape.
///
/// Nodes are created in topological order by the forward-building methods;
/// [`Graph::backward`] sweeps them once in reverse. Node output tensors are
/// the "stored activations" of the paper. A value that some recorded op's
/// backward reads (a layer's input, the membrane a spike fired from) is
/// *saved* and lives until the graph is dropped; every other value can be
/// dropped with [`Graph::release`] once the forward no longer needs it,
/// keeping only its shape — the lifetime autograd frameworks give saved
/// tensors.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total bytes held by node values (the live activation footprint of
    /// this graph, excluding gradients). Released values do not count.
    pub fn activation_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .filter_map(|n| n.value.as_ref())
            .map(Tensor::byte_size)
            .sum()
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        for v in op.saved_inputs().into_iter().flatten() {
            self.nodes[v.0].saved = true;
        }
        self.nodes.push(Node {
            shape: value.shape().clone(),
            value: Some(value),
            grad: None,
            op,
            requires_grad,
            saved: false,
        });
        Var(self.nodes.len() - 1)
    }

    fn requires(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    // ------------------------------------------------------------------
    // Forward construction
    // ------------------------------------------------------------------

    /// Insert an external tensor. `requires_grad` marks it as a gradient
    /// sink (weights, checkpoint boundary states).
    pub fn leaf(&mut self, value: Tensor, requires_grad: bool) -> Var {
        self.push(value, Op::Leaf, requires_grad)
    }

    /// `a + b` (elementwise).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::Add(a, b), rg)
    }

    /// `a + s·b` (elementwise).
    pub fn add_scaled(&mut self, a: Var, b: Var, s: f32) -> Var {
        let value = self.value(a).add_scaled(self.value(b), s);
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::AddScaled(a, b, s), rg)
    }

    /// `s·a`.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).scale(s);
        let rg = self.requires(a);
        self.push(value, Op::Scale(a, s), rg)
    }

    /// `a ⊙ b` (elementwise).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::Mul(a, b), rg)
    }

    /// Dense layer: `x[B,I] · w[O,I]ᵀ + b`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn linear(&mut self, x: Var, w: Var, b: Option<Var>) -> Var {
        let mut out = matmul_nt(self.value(x), self.value(w));
        if let Some(b) = b {
            let bias = self.value(b).clone();
            let (rows, cols) = out.shape().as_2d();
            assert_eq!(bias.numel(), cols, "bias length vs output features");
            let od = out.data_mut();
            for r in 0..rows {
                for (c, &bv) in bias.data().iter().enumerate() {
                    od[r * cols + c] += bv;
                }
            }
        }
        let rg = self.requires(x) || self.requires(w) || b.is_some_and(|b| self.requires(b));
        self.push(out, Op::Linear { x, w, b }, rg)
    }

    /// 2-D convolution (see [`skipper_tensor::conv2d`]).
    pub fn conv2d(&mut self, x: Var, w: Var, b: Option<Var>, spec: Conv2dSpec) -> Var {
        let bias = b.map(|b| self.value(b).clone());
        let out = conv2d(self.value(x), self.value(w), bias.as_ref(), spec);
        let rg = self.requires(x) || self.requires(w) || b.is_some_and(|b| self.requires(b));
        self.push(out, Op::Conv2d { x, w, b, spec }, rg)
    }

    /// Non-overlapping average pooling.
    pub fn avg_pool2d(&mut self, x: Var, k: usize) -> Var {
        let out = avg_pool2d(self.value(x), k);
        let rg = self.requires(x);
        self.push(out, Op::AvgPool { x, k }, rg)
    }

    /// Shape view over the same elements.
    pub fn reshape(&mut self, x: Var, shape: impl Into<Shape>) -> Var {
        let out = self.value(x).reshape(shape);
        let rg = self.requires(x);
        self.push(out, Op::Reshape(x), rg)
    }

    /// Spike generation `o = H(u − θ)` with surrogate backward
    /// `∂o/∂u := σ′(u − θ)`.
    pub fn spike(&mut self, u: Var, theta: f32, surrogate: Surrogate) -> Var {
        let value = self.value(u).map(|x| if x >= theta { 1.0 } else { 0.0 });
        let rg = self.requires(u);
        self.push(
            value,
            Op::Spike {
                u,
                theta,
                surrogate,
            },
            rg,
        )
    }

    /// One leaky-integrate-and-fire step in one pass ([`lif_fire`]):
    /// `U = (I + λ·mem) + (−θ)·o_prev` and `o = H(U − θ)`, appending the
    /// membrane node `U` and its [`Graph::spike`] node `o`, and returning
    /// the number of spikes in `o` as well.
    ///
    /// `prev_spike` enters as a value: the reset is detached (paper Section
    /// III-B), so the backward gives `current` the gradient of `U` and `mem`
    /// that gradient times `λ`. The op log records the kernels of the
    /// unfused chain — two axpys, a threshold and the count's reduce — so
    /// FLOP and byte counts do not depend on the fusion.
    ///
    /// # Panics
    ///
    /// Panics if `current`, `mem` and `prev_spike` differ in shape.
    pub fn lif(
        &mut self,
        current: Var,
        mem: Var,
        prev_spike: &Tensor,
        leak: f32,
        theta: f32,
        surrogate: Surrogate,
    ) -> (Var, Var, f64) {
        let (u, o, fired) = lif_fire(
            self.value(current),
            self.value(mem),
            prev_spike,
            leak,
            theta,
        );
        let rg = self.requires(current) || self.requires(mem);
        let u = self.push(u, Op::Lif { current, mem, leak }, rg);
        let spike = Op::Spike {
            u,
            theta,
            surrogate,
        };
        (u, self.push(o, spike, rg), fired)
    }

    /// Rectified linear unit `max(0, x)`.
    pub fn relu(&mut self, x: Var) -> Var {
        let value = self.value(x).map(|v| v.max(0.0));
        let rg = self.requires(x);
        self.push(value, Op::Relu(x), rg)
    }

    /// Multiply by a fixed (pre-scaled) mask — dropout and similar.
    pub fn mask_mul(&mut self, x: Var, mask: Tensor) -> Var {
        let value = self.value(x).mul(&mask);
        let rg = self.requires(x);
        self.push(value, Op::MaskMul { x, mask }, rg)
    }

    // ------------------------------------------------------------------
    // Values and gradients
    // ------------------------------------------------------------------

    /// The forward value of `v`.
    ///
    /// # Panics
    ///
    /// Panics, naming the node, if [`Graph::release`] dropped the value.
    pub fn value(&self, v: Var) -> &Tensor {
        match &self.nodes[v.0].value {
            Some(value) => value,
            #[expect(clippy::panic, reason = "reading a released value must fail loudly")]
            None => panic!("value of node {} was released; only its shape is kept", v.0),
        }
    }

    /// The shape of `v`'s value, kept after [`Graph::release`].
    pub fn shape(&self, v: Var) -> &Shape {
        &self.nodes[v.0].shape
    }

    /// Drop `v`'s value unless some recorded op's backward reads it (a
    /// layer's input, the membrane a spike fired from). Call once the
    /// forward has built every op that consumes `v`; the gradient sweep
    /// needs only its shape.
    pub fn release(&mut self, v: Var) {
        let node = &mut self.nodes[v.0];
        if !node.saved {
            node.value = None;
        }
    }

    /// The accumulated gradient of `v`, if any flowed into it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Remove and return the gradient of `v`.
    pub fn take_grad(&mut self, v: Var) -> Option<Tensor> {
        self.nodes[v.0].grad.take()
    }

    /// Accumulate an externally supplied gradient into `v` (checkpoint
    /// boundary gradients, analytic loss gradients).
    ///
    /// # Panics
    ///
    /// Panics if `grad`'s shape differs from the node value's.
    pub fn seed_grad(&mut self, v: Var, grad: Tensor) {
        assert_eq!(
            grad.shape(),
            self.shape(v),
            "seed gradient shape mismatch at node {}",
            v.0
        );
        self.accumulate(v, grad);
    }

    fn accumulate(&mut self, v: Var, grad: Tensor) {
        let node = &mut self.nodes[v.0];
        match node.grad.as_mut() {
            Some(g) => g.add_assign(&grad),
            None => node.grad = Some(grad),
        }
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Propagate all seeded gradients through the tape, in reverse
    /// topological (creation) order. Gradients land on every node with
    /// `requires_grad`; read them with [`Graph::grad`]/[`Graph::take_grad`].
    pub fn backward(&mut self) {
        let _cat = CategoryGuard::new(Category::Activations);
        for i in (0..self.nodes.len()).rev() {
            if !self.nodes[i].requires_grad {
                self.nodes[i].grad = None;
                continue;
            }
            let Some(g) = self.nodes[i].grad.clone() else {
                continue;
            };
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    if self.requires(a) {
                        self.accumulate(a, g.clone());
                    }
                    if self.requires(b) {
                        self.accumulate(b, g);
                    }
                }
                // The LIF reset term is a constant: `U`'s gradient flows to
                // the current and the membrane exactly as through `a + s·b`.
                Op::AddScaled(a, b, s)
                | Op::Lif {
                    current: a,
                    mem: b,
                    leak: s,
                } => {
                    if self.requires(a) {
                        self.accumulate(a, g.clone());
                    }
                    if self.requires(b) {
                        self.accumulate(b, g.scale(s));
                    }
                }
                Op::Scale(a, s) => {
                    if self.requires(a) {
                        self.accumulate(a, g.scale(s));
                    }
                }
                Op::Mul(a, b) => {
                    if self.requires(a) {
                        let ga = g.mul(self.value(b));
                        self.accumulate(a, ga);
                    }
                    if self.requires(b) {
                        let gb = g.mul(self.value(a));
                        self.accumulate(b, gb);
                    }
                }
                Op::Linear { x, w, b } => {
                    if self.requires(x) {
                        let gx = matmul(&g, self.value(w)); // [B,O]·[O,I]
                        self.accumulate(x, gx);
                    }
                    if self.requires(w) {
                        let gw = matmul_tn(&g, self.value(x)); // [B,O]ᵀ·[B,I]
                        self.accumulate(w, gw);
                    }
                    if let Some(b) = b {
                        if self.requires(b) {
                            let gb = column_sums(&g);
                            self.accumulate(b, gb);
                        }
                    }
                }
                Op::Conv2d { x, w, b, spec } => {
                    // One permute of `g` serves both gradients.
                    let grad =
                        Conv2dGrad::new(&g, self.shape(x).dims(), self.shape(w).dims(), spec);
                    if self.requires(x) {
                        let gx = grad.input(self.value(w));
                        self.accumulate(x, gx);
                    }
                    let need_w = self.requires(w);
                    let need_b = b.is_some_and(|b| self.requires(b));
                    if need_w || need_b {
                        let (gw, gb) = grad.weight(self.value(x));
                        if need_w {
                            self.accumulate(w, gw);
                        }
                        if let (Some(b), true) = (b, need_b) {
                            self.accumulate(b, gb);
                        }
                    }
                }
                Op::AvgPool { x, k } => {
                    if self.requires(x) {
                        let shape = self.shape(x).dims().to_vec();
                        let gx = avg_pool2d_backward(&g, &shape, k);
                        self.accumulate(x, gx);
                    }
                }
                Op::Reshape(x) => {
                    if self.requires(x) {
                        let shape = self.shape(x).clone();
                        self.accumulate(x, g.reshape(shape));
                    }
                }
                Op::Spike {
                    u,
                    theta,
                    surrogate,
                } => {
                    if self.requires(u) {
                        record_op(
                            OpKind::Elementwise,
                            2.0 * g.numel() as f64,
                            3.0 * g.byte_size() as f64,
                        );
                        let uval = self.value(u);
                        let data = surrogate.backward(g.data(), uval.data(), theta);
                        let gu = Tensor::from_vec(data, uval.shape().clone());
                        self.accumulate(u, gu);
                    }
                }
                Op::MaskMul { x, mask } => {
                    if self.requires(x) {
                        self.accumulate(x, g.mul(&mask));
                    }
                }
                Op::Relu(x) => {
                    if self.requires(x) {
                        let xval = self.value(x).clone();
                        let data: Vec<f32> = g
                            .data()
                            .iter()
                            .zip(xval.data())
                            .map(|(&gv, &xv)| if xv > 0.0 { gv } else { 0.0 })
                            .collect();
                        self.accumulate(x, Tensor::from_vec(data, xval.shape().clone()));
                    }
                }
            }
            // Interior gradients are no longer needed once propagated; free
            // them eagerly, as autograd frameworks do.
            if !matches!(self.nodes[i].op, Op::Leaf) {
                self.nodes[i].grad = None;
            }
        }
    }
}

/// Sum each column of a `[R,C]` tensor into a `[C]` vector.
fn column_sums(t: &Tensor) -> Tensor {
    let (rows, cols) = t.shape().as_2d();
    record_op(OpKind::Reduce, t.numel() as f64, t.byte_size() as f64);
    let mut out = Tensor::zeros([cols]);
    let od = out.data_mut();
    for r in 0..rows {
        let row = &t.data()[r * cols..(r + 1) * cols];
        for (o, &v) in od.iter_mut().zip(row) {
            *o += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_tensor::XorShiftRng;

    #[test]
    fn add_and_scale_chain() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]), true);
        let b = g.leaf(Tensor::from_vec(vec![3.0, 4.0], [2]), true);
        let c = g.add(a, b);
        let d = g.scale(c, 2.0);
        assert_eq!(g.value(d).data(), &[8.0, 12.0]);
        g.seed_grad(d, Tensor::ones([2]));
        g.backward();
        assert_eq!(g.grad(a).unwrap().data(), &[2.0, 2.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[2.0, 2.0]);
    }

    #[test]
    fn fan_out_accumulates() {
        // y = x + x should give dy/dx = 2.
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![5.0], [1]), true);
        let y = g.add(x, x);
        g.seed_grad(y, Tensor::ones([1]));
        g.backward();
        assert_eq!(g.grad(x).unwrap().data(), &[2.0]);
    }

    #[test]
    fn mul_product_rule() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![3.0], [1]), true);
        let b = g.leaf(Tensor::from_vec(vec![4.0], [1]), true);
        let c = g.mul(a, b);
        g.seed_grad(c, Tensor::ones([1]));
        g.backward();
        assert_eq!(g.grad(a).unwrap().data(), &[4.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[3.0]);
    }

    #[test]
    fn detached_const_blocks_gradient() {
        // The LIF reset's previous spikes are a constant: no gradient
        // path runs through them.
        let mut g = Graph::new();
        let current = g.leaf(Tensor::from_vec(vec![1.0], [1]), true);
        let mem = g.leaf(Tensor::from_vec(vec![0.5], [1]), true);
        let prev = Tensor::from_vec(vec![1.0], [1]);
        let (u, o, fired) = g.lif(current, mem, &prev, 0.5, 0.5, Surrogate::default_triangle());
        assert_eq!(fired, 1.0);
        // U = (1 + 0.5·0.5) − 0.5·1 = 0.75 ≥ θ = 0.5.
        assert_eq!(g.value(u).data(), &[0.75]);
        assert_eq!(g.value(o).data(), &[1.0]);
        assert_eq!(g.len(), 4, "two nodes per LIF step");
        g.seed_grad(u, Tensor::from_vec(vec![2.0], [1]));
        g.backward();
        assert_eq!(g.grad(current).unwrap().data(), &[2.0], "∂U/∂I = 1");
        assert_eq!(g.grad(mem).unwrap().data(), &[1.0], "∂U/∂mem = λ");
    }

    #[test]
    fn linear_gradients_match_manual() {
        // x[1,2]·w[1,2]ᵀ + b: out = x·w + b
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![2.0, 3.0], [1, 2]), true);
        let w = g.leaf(Tensor::from_vec(vec![5.0, 7.0], [1, 2]), true);
        let b = g.leaf(Tensor::from_vec(vec![1.0], [1]), true);
        let y = g.linear(x, w, Some(b));
        assert_eq!(g.value(y).data(), &[2.0 * 5.0 + 3.0 * 7.0 + 1.0]);
        g.seed_grad(y, Tensor::ones([1, 1]));
        g.backward();
        assert_eq!(g.grad(x).unwrap().data(), &[5.0, 7.0]);
        assert_eq!(g.grad(w).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[1.0]);
    }

    #[test]
    fn spike_forward_is_binary_and_backward_is_surrogate() {
        let mut g = Graph::new();
        let u = g.leaf(Tensor::from_vec(vec![0.2, 0.9, 1.4, 2.5], [4]), true);
        let o = g.spike(u, 1.0, Surrogate::default_triangle());
        assert_eq!(g.value(o).data(), &[0.0, 0.0, 1.0, 1.0]);
        g.seed_grad(o, Tensor::ones([4]));
        g.backward();
        let gu = g.grad(u).unwrap();
        // triangle derivative at u-θ = -0.8, -0.1, 0.4, 1.5
        let expect = [0.2f32, 0.9, 0.6, 0.0];
        for (a, e) in gu.data().iter().zip(expect) {
            assert!((a - e).abs() < 1e-5, "{a} vs {e}");
        }
    }

    #[test]
    fn seed_grad_into_interior_node_adds_paths() {
        // z = 2y, with an extra seed on y: dL/dx must include both.
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1.0], [1]), true);
        let y = g.scale(x, 3.0);
        let z = g.scale(y, 2.0);
        g.seed_grad(z, Tensor::ones([1]));
        g.seed_grad(y, Tensor::ones([1])); // boundary-style injection
        g.backward();
        // dz/dx = 6, plus seeded dy/dx = 3 → 9.
        assert_eq!(g.grad(x).unwrap().data(), &[9.0]);
    }

    #[test]
    fn no_requires_grad_prunes_propagation() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1.0], [1]), false);
        let y = g.scale(x, 2.0);
        g.seed_grad(y, Tensor::ones([1]));
        g.backward();
        assert!(g.grad(x).is_none());
    }

    #[test]
    fn reshape_routes_gradient_back() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::ones([2, 3]), true);
        let y = g.reshape(x, [6]);
        g.seed_grad(y, Tensor::from_fn([6], |i| i as f32));
        g.backward();
        let gx = g.grad(x).unwrap();
        assert_eq!(gx.shape().dims(), &[2, 3]);
        assert_eq!(gx.data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn mask_mul_applies_mask_both_ways() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]), true);
        let mask = Tensor::from_vec(vec![0.0, 2.0], [2]);
        let y = g.mask_mul(x, mask);
        assert_eq!(g.value(y).data(), &[0.0, 4.0]);
        g.seed_grad(y, Tensor::ones([2]));
        g.backward();
        assert_eq!(g.grad(x).unwrap().data(), &[0.0, 2.0]);
    }

    #[test]
    fn activation_bytes_counts_node_values() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros([10]), true);
        let _y = g.scale(x, 1.0);
        assert_eq!(g.activation_bytes(), 2 * 40);
    }

    #[test]
    fn activation_bytes_skips_released_nodes() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros([10]), true);
        let y = g.scale(x, 2.0);
        let _z = g.scale(y, 3.0);
        g.release(y);
        assert_eq!(g.activation_bytes(), 2 * 40);
        assert_eq!(g.shape(y).dims(), &[10], "the shape outlives the value");
    }

    #[test]
    #[should_panic(expected = "value of node 1 was released")]
    fn reading_a_released_value_panics() {
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros([2]), true);
        let y = g.scale(x, 2.0);
        g.release(y);
        let _ = g.value(y);
    }

    #[test]
    fn releasing_a_saved_value_is_a_no_op() {
        let mut g = Graph::new();
        let u = g.leaf(Tensor::from_vec(vec![0.2, 1.4], [2]), true);
        let o = g.spike(u, 1.0, Surrogate::default_triangle());
        g.release(u); // the spike's backward reads u
        assert_eq!(g.value(u).data(), &[0.2, 1.4]);
        g.seed_grad(o, Tensor::ones([2]));
        g.backward();
        assert!(g.grad(u).is_some());
    }

    #[test]
    fn released_values_backpropagate_through_their_shapes() {
        let mut rng = XorShiftRng::new(4);
        let input = Tensor::randn([1, 2, 4, 4], &mut rng);
        let weight = Tensor::randn([3, 2, 3, 3], &mut rng);
        let grads = |release: bool| {
            let mut g = Graph::new();
            let x = g.leaf(input.clone(), false);
            let w = g.leaf(weight.clone(), true);
            let c = g.conv2d(x, w, None, Conv2dSpec::padded(1));
            let p = g.avg_pool2d(c, 2);
            let f = g.reshape(p, [1, 12]);
            if release {
                g.release(c);
                g.release(p);
            }
            g.seed_grad(f, Tensor::from_fn([1, 12], |i| i as f32));
            g.backward();
            g.take_grad(w).unwrap()
        };
        let kept = grads(false);
        let released = grads(true);
        assert_eq!(kept.data(), released.data());
    }

    #[test]
    fn conv_and_pool_nodes_run_end_to_end() {
        let mut rng = XorShiftRng::new(3);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::randn([1, 2, 4, 4], &mut rng), false);
        let w = g.leaf(Tensor::randn([3, 2, 3, 3], &mut rng), true);
        let b = g.leaf(Tensor::zeros([3]), true);
        let c = g.conv2d(x, w, Some(b), Conv2dSpec::padded(1));
        let p = g.avg_pool2d(c, 2);
        let f = g.reshape(p, [1, 3 * 2 * 2]);
        g.seed_grad(f, Tensor::ones([1, 12]));
        g.backward();
        assert!(g.grad(w).is_some());
        assert!(g.grad(b).is_some());
        assert_eq!(g.grad(w).unwrap().shape().dims(), &[3, 2, 3, 3]);
    }
}
