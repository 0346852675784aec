//! Trainable parameters and their binding into short-lived tapes.
//!
//! Checkpointed training rebuilds a fresh autodiff graph for every time
//! segment, but the weights persist across segments and iterations. The
//! [`ParamStore`] owns them (booked under [`Category::Weights`]) together
//! with their gradient accumulators ([`Category::WeightGrads`]); a
//! [`ParamBinder`] lazily inserts each parameter into the current graph as
//! a leaf and, after the backward sweep, harvests the leaf gradients back
//! into the store — *accumulating* across segments, exactly as the paper's
//! Eq. 2 sums error gradients over all timesteps.
//!
//! [`Category::Weights`]: skipper_memprof::Category::Weights
//! [`Category::WeightGrads`]: skipper_memprof::Category::WeightGrads

use skipper_autograd::{Graph, Var};
use skipper_memprof::{Category, CategoryGuard};
use skipper_tensor::Tensor;

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

impl ParamId {
    /// Dense index of this parameter.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One trainable tensor plus its gradient accumulator.
#[derive(Debug)]
pub struct Parameter {
    name: String,
    value: Tensor,
    grad: Tensor,
}

impl Parameter {
    /// Diagnostic name (e.g. `"conv3.weight"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current weights.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable weights (optimizer updates).
    pub fn value_mut(&mut self) -> &mut Tensor {
        &mut self.value
    }

    /// The accumulated gradient.
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// Mutable gradient.
    pub fn grad_mut(&mut self) -> &mut Tensor {
        &mut self.grad
    }

    /// Storage-sharing handle to this parameter (Arc clones; no new bytes
    /// are booked with the memory tracker). Used by the data-parallel
    /// engine to hand read-only weight views to worker threads; writers
    /// must go through the original, and shard gradients are collected in
    /// a [`ShardGrads`] sink rather than the shared accumulator.
    pub fn share(&self) -> Parameter {
        Parameter {
            name: self.name.clone(),
            value: self.value.clone(),
            grad: self.grad.clone(),
        }
    }
}

/// Owner of all trainable parameters of a network.
#[derive(Debug, Default)]
pub struct ParamStore {
    params: Vec<Parameter>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> ParamStore {
        ParamStore::default()
    }

    /// Register a parameter; the value is re-booked under
    /// [`Category::Weights`] and a zero gradient under
    /// [`Category::WeightGrads`].
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let value = {
            // A fresh copy (not `deep_clone`, which preserves the source's
            // category) so the bytes are booked as weights.
            let _g = CategoryGuard::new(Category::Weights);
            Tensor::from_vec(value.data().to_vec(), value.shape().clone())
        };
        let grad = {
            let _g = CategoryGuard::new(Category::WeightGrads);
            Tensor::zeros(value.shape().clone())
        };
        self.params.push(Parameter {
            name: name.into(),
            value,
            grad,
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn scalar_count(&self) -> u64 {
        self.params.iter().map(|p| p.value.numel() as u64).sum()
    }

    /// The parameter behind `id`.
    pub fn param(&self, id: ParamId) -> &Parameter {
        &self.params[id.0]
    }

    /// The value tensor behind `id`.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// Iterate over all parameters.
    pub fn iter(&self) -> impl Iterator<Item = &Parameter> {
        self.params.iter()
    }

    /// Iterate mutably over all parameters.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Parameter> {
        self.params.iter_mut()
    }

    /// Zero every gradient accumulator (start of an iteration).
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.fill(0.0);
        }
    }

    /// Add `grad` into the accumulator of `id`.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch.
    pub fn accumulate_grad(&mut self, id: ParamId, grad: &Tensor) {
        self.params[id.0].grad.add_assign(grad);
    }

    /// Storage-sharing view of the whole store (see [`Parameter::share`]).
    pub fn share(&self) -> ParamStore {
        ParamStore {
            params: self.params.iter().map(Parameter::share).collect(),
        }
    }
}

/// Per-shard gradient sink.
///
/// A data-parallel worker cannot accumulate into the shared
/// [`ParamStore`] (its tensors are copy-on-write views owned by the main
/// thread), so each shard harvests into its own `ShardGrads` and the
/// engine reduces the sinks in a fixed order afterwards. Slots stay
/// `None` for parameters the shard never touched.
#[derive(Debug)]
pub struct ShardGrads {
    grads: Vec<Option<Tensor>>,
}

impl ShardGrads {
    /// Empty sink sized for `store`.
    pub fn for_store(store: &ParamStore) -> ShardGrads {
        ShardGrads {
            grads: (0..store.len()).map(|_| None).collect(),
        }
    }

    /// Add `grad` into slot `index` (moving it in if the slot was empty).
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch or `index` is out of range.
    pub fn accumulate(&mut self, index: usize, grad: Tensor) {
        match &mut self.grads[index] {
            Some(t) => t.add_assign(&grad),
            slot @ None => *slot = Some(grad),
        }
    }

    /// Per-parameter gradients as plain buffers, in store order.
    ///
    /// The buffers own no tensor storage, so they can cross threads
    /// without upsetting the thread-local memory tracker.
    pub fn into_raw(self) -> Vec<Option<Vec<f32>>> {
        self.grads
            .into_iter()
            .map(|g| g.map(|t| t.data().to_vec()))
            .collect()
    }
}

/// Per-graph cache of parameter leaves.
///
/// Binding is lazy: a parameter used by several timesteps within one
/// segment is inserted once and its gradient accumulates on that single
/// leaf; [`ParamBinder::harvest`] then moves the leaf gradients into the
/// store.
#[derive(Debug)]
pub struct ParamBinder {
    vars: Vec<Option<Var>>,
}

impl ParamBinder {
    /// Binder sized for `store`.
    pub fn new(store: &ParamStore) -> ParamBinder {
        ParamBinder {
            vars: vec![None; store.len()],
        }
    }

    /// The graph leaf for `id`, inserting it on first use.
    pub fn bind(&mut self, g: &mut Graph, store: &ParamStore, id: ParamId) -> Var {
        if let Some(v) = self.vars[id.0] {
            return v;
        }
        // Cheap: the leaf shares the parameter's storage (Arc clone).
        let v = g.leaf(store.value(id).clone(), true);
        self.vars[id.0] = Some(v);
        v
    }

    /// Move every bound leaf's gradient from `g` into `store`'s
    /// accumulators. Call after `g.backward()`.
    pub fn harvest(&self, g: &mut Graph, store: &mut ParamStore) {
        for (i, v) in self.vars.iter().enumerate() {
            if let Some(v) = v {
                if let Some(grad) = g.take_grad(*v) {
                    store.accumulate_grad(ParamId(i), &grad);
                }
            }
        }
    }

    /// Like [`ParamBinder::harvest`], but into a per-shard sink instead of
    /// the shared store.
    pub fn harvest_into(&self, g: &mut Graph, sink: &mut ShardGrads) {
        for (i, v) in self.vars.iter().enumerate() {
            if let Some(v) = v {
                if let Some(grad) = g.take_grad(*v) {
                    sink.accumulate(i, grad);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::ones([2, 2]));
        assert_eq!(store.len(), 1);
        assert_eq!(store.scalar_count(), 4);
        assert_eq!(store.param(id).name(), "w");
        assert_eq!(store.value(id).data(), &[1.0; 4]);
        assert_eq!(store.param(id).grad().data(), &[0.0; 4]);
    }

    #[test]
    fn grads_accumulate_and_zero() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros([2]));
        store.accumulate_grad(id, &Tensor::from_vec(vec![1.0, 2.0], [2]));
        store.accumulate_grad(id, &Tensor::from_vec(vec![0.5, 0.5], [2]));
        assert_eq!(store.param(id).grad().data(), &[1.5, 2.5]);
        store.zero_grads();
        assert_eq!(store.param(id).grad().data(), &[0.0, 0.0]);
    }

    #[test]
    fn weights_and_grads_booked_under_their_categories() {
        use skipper_memprof as mp;
        mp::reset_all();
        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros([256]));
        let snap = mp::snapshot();
        assert_eq!(snap.live(mp::Category::Weights), 1024);
        assert_eq!(snap.live(mp::Category::WeightGrads), 1024);
        drop(store);
        assert_eq!(mp::snapshot().total_live(), 0);
    }

    #[test]
    fn share_books_no_new_bytes_and_tracks_values() {
        use skipper_memprof as mp;
        mp::reset_all();
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::zeros([64]));
        let before = mp::snapshot().total_live();
        let view = store.share();
        assert_eq!(mp::snapshot().total_live(), before, "share is Arc-only");
        assert!(view.value(id).shares_storage(store.value(id)));
        drop(view);
        assert_eq!(mp::snapshot().total_live(), before);
    }

    #[test]
    fn shard_grads_accumulate_and_export() {
        let mut store = ParamStore::new();
        let _a = store.add("a", Tensor::zeros([2]));
        let _b = store.add("b", Tensor::zeros([3]));
        let mut sink = ShardGrads::for_store(&store);
        sink.accumulate(0, Tensor::from_vec(vec![1.0, 2.0], [2]));
        sink.accumulate(0, Tensor::from_vec(vec![0.5, 0.5], [2]));
        let raw = sink.into_raw();
        assert_eq!(raw[0].as_deref(), Some([1.5, 2.5].as_slice()));
        assert!(raw[1].is_none(), "untouched parameter stays None");
    }

    #[test]
    fn binder_binds_once_and_harvests() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![2.0], [1]));
        let mut g = Graph::new();
        let mut binder = ParamBinder::new(&store);
        let v1 = binder.bind(&mut g, &store, id);
        let v2 = binder.bind(&mut g, &store, id);
        assert_eq!(v1, v2, "same leaf reused");
        // y = w·w → dy/dw = 2w = 4
        let y = g.mul(v1, v2);
        g.seed_grad(y, Tensor::ones([1]));
        g.backward();
        binder.harvest(&mut g, &mut store);
        assert_eq!(store.param(id).grad().data(), &[4.0]);
        // Harvest from a second "segment" accumulates.
        let mut g2 = Graph::new();
        let mut b2 = ParamBinder::new(&store);
        let v = b2.bind(&mut g2, &store, id);
        let y2 = g2.scale(v, 3.0);
        g2.seed_grad(y2, Tensor::ones([1]));
        g2.backward();
        b2.harvest(&mut g2, &mut store);
        assert_eq!(store.param(id).grad().data(), &[7.0]);
    }
}
