//! Optimizers over a [`ParamStore`].
//!
//! The paper trains everything with Adam (Section VII); its first/second
//! moments are why the "optimizer" share of the memory breakdowns is 2x
//! the weight size. Moments and momentum buffers are booked under
//! [`Category::OptimizerState`].
//!
//! [`Category::OptimizerState`]: skipper_memprof::Category::OptimizerState

use crate::error::SnnError;
use crate::params::ParamStore;
use skipper_memprof::{record_op, Category, CategoryGuard, OpKind};
use skipper_tensor::Tensor;

/// Portable optimizer state, as captured for durable session snapshots.
///
/// The representation is deliberately generic — a kind tag, named scalar
/// hyper-parameters/counters and named state tensors — so a snapshot file
/// does not need per-optimizer record formats, and an optimizer restored
/// from it is **bit-exact**: resuming training reproduces the exact update
/// sequence of an uninterrupted run.
#[derive(Debug, Clone, Default)]
pub struct OptimizerState {
    /// Which optimizer produced this state (`"sgd"` or `"adam"`).
    pub kind: String,
    /// Named scalars (learning rate, betas, step counter, slot count, …).
    pub scalars: Vec<(String, f64)>,
    /// Named state tensors (momentum / moment buffers), keyed by slot.
    pub tensors: Vec<(String, Tensor)>,
}

impl OptimizerState {
    /// Look up a named scalar.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// A named scalar that must be present.
    fn require(&self, name: &str) -> Result<f64, SnnError> {
        self.scalar(name)
            .ok_or_else(|| SnnError::Format(format!("optimizer state is missing scalar '{name}'")))
    }

    /// Check the kind tag before importing.
    fn expect_kind(&self, kind: &str) -> Result<(), SnnError> {
        if self.kind == kind {
            Ok(())
        } else {
            Err(SnnError::Mismatch(format!(
                "optimizer state is for '{}', not '{kind}'",
                self.kind
            )))
        }
    }
}

/// Rebuild a `Vec<Option<Tensor>>` slot array from named tensors with the
/// given per-slot prefix, booking the clones as optimizer state so resumed
/// sessions account memory exactly like uninterrupted ones.
fn slots_from_state(
    state: &OptimizerState,
    prefix: &str,
    len: usize,
) -> Result<Vec<Option<Tensor>>, SnnError> {
    let mut slots: Vec<Option<Tensor>> = (0..len).map(|_| None).collect();
    for (name, tensor) in &state.tensors {
        if let Some(rest) = name.strip_prefix(prefix) {
            let i: usize = rest
                .parse()
                .map_err(|_| SnnError::Format(format!("bad optimizer tensor name '{name}'")))?;
            if i >= len {
                return Err(SnnError::Format(format!(
                    "optimizer tensor '{name}' out of range (slots = {len})"
                )));
            }
            let _c = CategoryGuard::new(Category::OptimizerState);
            slots[i] = Some(Tensor::from_vec(
                tensor.data().to_vec(),
                tensor.shape().dims().to_vec(),
            ));
        }
    }
    Ok(slots)
}

/// A gradient-descent update rule.
pub trait Optimizer {
    /// Apply one update using the gradients accumulated in `params`
    /// (does not zero them; call [`ParamStore::zero_grads`] afterwards).
    fn step(&mut self, params: &mut ParamStore);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Change the learning rate (schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Capture the complete update-rule state (hyper-parameters, step
    /// counters and moment buffers) for snapshots.
    fn export_state(&self) -> OptimizerState;

    /// Restore state captured by [`export_state`], making subsequent
    /// updates bit-identical to the exporting optimizer's.
    ///
    /// # Errors
    ///
    /// Fails if `state` was exported by a different optimizer kind or is
    /// structurally inconsistent (bad tensor names, out-of-range slots).
    ///
    /// [`export_state`]: Optimizer::export_state
    fn import_state(&mut self, state: &OptimizerState) -> Result<(), SnnError>;
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Option<Tensor>>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Sgd {
        Sgd::with_momentum(lr, 0.0)
    }

    /// SGD with momentum `mu`.
    pub fn with_momentum(lr: f32, momentum: f32) -> Sgd {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamStore) {
        let _span = skipper_obs::span!("sgd_step", params = params.len());
        self.velocity.resize_with(params.len(), || None);
        for (i, p) in params.iter_mut().enumerate() {
            record_op(
                OpKind::Optimizer,
                2.0 * p.value().numel() as f64,
                3.0 * p.value().byte_size() as f64,
            );
            if self.momentum > 0.0 {
                let v = self.velocity[i].get_or_insert_with(|| {
                    let _c = CategoryGuard::new(Category::OptimizerState);
                    Tensor::zeros(p.value().shape().clone())
                });
                v.scale_assign(self.momentum);
                v.add_assign(p.grad());
                let update = v.clone();
                p.value_mut().add_scaled_assign(&update, -self.lr);
            } else {
                let g = p.grad().clone();
                p.value_mut().add_scaled_assign(&g, -self.lr);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self) -> OptimizerState {
        let mut state = OptimizerState {
            kind: "sgd".into(),
            scalars: vec![
                ("lr".into(), f64::from(self.lr)),
                ("momentum".into(), f64::from(self.momentum)),
                ("slots".into(), self.velocity.len() as f64),
            ],
            tensors: Vec::new(),
        };
        for (i, v) in self.velocity.iter().enumerate() {
            if let Some(v) = v {
                state.tensors.push((format!("v{i}"), v.clone()));
            }
        }
        state
    }

    fn import_state(&mut self, state: &OptimizerState) -> Result<(), SnnError> {
        state.expect_kind("sgd")?;
        let slots = state.require("slots")? as usize;
        self.lr = state.require("lr")? as f32;
        self.momentum = state.require("momentum")? as f32;
        self.velocity = slots_from_state(state, "v", slots)?;
        Ok(())
    }
}

/// Adam (Kingma & Ba, 2014), the paper's optimizer.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    moments: Vec<Option<(Tensor, Tensor)>>,
}

impl Adam {
    /// Adam with standard betas `(0.9, 0.999)`.
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            moments: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamStore) {
        let _span = skipper_obs::span!("adam_step", params = params.len());
        self.t += 1;
        self.moments.resize_with(params.len(), || None);
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in params.iter_mut().enumerate() {
            record_op(
                OpKind::Optimizer,
                8.0 * p.value().numel() as f64,
                5.0 * p.value().byte_size() as f64,
            );
            let (m, v) = self.moments[i].get_or_insert_with(|| {
                let _c = CategoryGuard::new(Category::OptimizerState);
                (
                    Tensor::zeros(p.value().shape().clone()),
                    Tensor::zeros(p.value().shape().clone()),
                )
            });
            let g = p.grad().clone();
            m.scale_assign(self.beta1);
            m.add_scaled_assign(&g, 1.0 - self.beta1);
            v.scale_assign(self.beta2);
            let g2 = g.mul(&g);
            v.add_scaled_assign(&g2, 1.0 - self.beta2);
            let (lr, eps) = (self.lr, self.eps);
            let md = m.data();
            let vd = v.data();
            let w = p.value_mut().data_mut();
            for ((wi, &mi), &vi) in w.iter_mut().zip(md).zip(vd) {
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                *wi -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self) -> OptimizerState {
        let mut state = OptimizerState {
            kind: "adam".into(),
            scalars: vec![
                ("lr".into(), f64::from(self.lr)),
                ("beta1".into(), f64::from(self.beta1)),
                ("beta2".into(), f64::from(self.beta2)),
                ("eps".into(), f64::from(self.eps)),
                ("t".into(), self.t as f64),
                ("slots".into(), self.moments.len() as f64),
            ],
            tensors: Vec::new(),
        };
        for (i, mv) in self.moments.iter().enumerate() {
            if let Some((m, v)) = mv {
                state.tensors.push((format!("m{i}"), m.clone()));
                state.tensors.push((format!("v{i}"), v.clone()));
            }
        }
        state
    }

    fn import_state(&mut self, state: &OptimizerState) -> Result<(), SnnError> {
        state.expect_kind("adam")?;
        let slots = state.require("slots")? as usize;
        self.lr = state.require("lr")? as f32;
        self.beta1 = state.require("beta1")? as f32;
        self.beta2 = state.require("beta2")? as f32;
        self.eps = state.require("eps")? as f32;
        self.t = state.require("t")? as u64;
        let ms = slots_from_state(state, "m", slots)?;
        let vs = slots_from_state(state, "v", slots)?;
        self.moments = ms
            .into_iter()
            .zip(vs)
            .enumerate()
            .map(|(i, pair)| match pair {
                (Some(m), Some(v)) => Ok(Some((m, v))),
                (None, None) => Ok(None),
                _ => Err(SnnError::Format(format!(
                    "adam state has unpaired moment tensors at slot {i}"
                ))),
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_store(x0: f32) -> (ParamStore, crate::params::ParamId) {
        let mut store = ParamStore::new();
        let id = store.add("x", Tensor::from_vec(vec![x0], [1]));
        (store, id)
    }

    /// Minimise f(x) = x² by feeding grad = 2x.
    fn optimise(opt: &mut dyn Optimizer, steps: usize, x0: f32) -> f32 {
        let (mut store, id) = quadratic_store(x0);
        for _ in 0..steps {
            store.zero_grads();
            let x = store.value(id).data()[0];
            store.accumulate_grad(id, &Tensor::from_vec(vec![2.0 * x], [1]));
            opt.step(&mut store);
        }
        store.value(id).data()[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = optimise(&mut Sgd::new(0.1), 100, 5.0);
        assert!(x.abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn momentum_outpaces_plain_sgd_early() {
        let plain = optimise(&mut Sgd::new(0.02), 20, 5.0);
        let momentum = optimise(&mut Sgd::with_momentum(0.02, 0.9), 20, 5.0);
        assert!(momentum.abs() < plain.abs());
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = optimise(&mut Adam::new(0.3), 200, 5.0);
        assert!(x.abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_moments_booked_as_optimizer_state() {
        use skipper_memprof as mp;
        mp::reset_all();
        let (mut store, id) = quadratic_store(1.0);
        let mut adam = Adam::new(0.1);
        store.accumulate_grad(id, &Tensor::ones([1]));
        adam.step(&mut store);
        // Two moments of one f32 each.
        assert_eq!(mp::snapshot().live(mp::Category::OptimizerState), 8);
        drop((store, adam));
    }

    /// Resume `opt2` from `opt1`'s exported state mid-run; both must then
    /// produce bit-identical trajectories.
    fn check_resume_bit_exact(mut fresh: impl FnMut() -> Box<dyn Optimizer>) {
        let (mut store_a, id_a) = quadratic_store(5.0);
        let mut opt_a = fresh();
        let run = |store: &mut ParamStore, id, opt: &mut dyn Optimizer, steps: usize| {
            for _ in 0..steps {
                store.zero_grads();
                let x = store.value(id).data()[0];
                store.accumulate_grad(id, &Tensor::from_vec(vec![2.0 * x], [1]));
                opt.step(store);
            }
        };
        run(&mut store_a, id_a, opt_a.as_mut(), 7);
        // Clone the world into a resumed twin.
        let (mut store_b, id_b) = quadratic_store(store_a.value(id_a).data()[0]);
        let mut opt_b = fresh();
        opt_b.import_state(&opt_a.export_state()).unwrap();
        run(&mut store_a, id_a, opt_a.as_mut(), 5);
        run(&mut store_b, id_b, opt_b.as_mut(), 5);
        assert_eq!(
            store_a.value(id_a).data()[0].to_bits(),
            store_b.value(id_b).data()[0].to_bits(),
            "resumed optimizer must be bit-exact"
        );
    }

    #[test]
    fn adam_state_roundtrip_is_bit_exact() {
        check_resume_bit_exact(|| Box::new(Adam::new(0.05)));
    }

    #[test]
    fn sgd_state_roundtrip_is_bit_exact() {
        check_resume_bit_exact(|| Box::new(Sgd::with_momentum(0.05, 0.9)));
    }

    #[test]
    fn import_rejects_wrong_kind() {
        let state = Sgd::new(0.1).export_state();
        let err = Adam::new(0.1).import_state(&state).unwrap_err();
        assert!(err.to_string().contains("'sgd'"), "{err}");
    }

    #[test]
    fn imported_moments_booked_as_optimizer_state() {
        use skipper_memprof as mp;
        let (mut store, id) = quadratic_store(1.0);
        let mut adam = Adam::new(0.1);
        store.accumulate_grad(id, &Tensor::ones([1]));
        adam.step(&mut store);
        let state = adam.export_state();
        mp::reset_all();
        let mut resumed = Adam::new(0.1);
        resumed.import_state(&state).unwrap();
        assert_eq!(mp::snapshot().live(mp::Category::OptimizerState), 8);
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Adam::new(0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
