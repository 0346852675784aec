//! Synapse layers: the weighted connections `W^l · o_t^{l-1}` of Eq. 1.
//!
//! Layers own [`ParamId`]s, not tensors — the weights live in a
//! [`ParamStore`] so they can be bound into many short-lived tapes (see
//! [`crate::params`]). Each layer offers a taped forward (builds graph
//! nodes) and a plain forward (used during the gradient-free first pass of
//! checkpointed training).

use crate::params::{ParamBinder, ParamId, ParamStore};
use skipper_autograd::{Graph, Var};
use skipper_tensor::{conv2d, matmul_nt, Conv2dSpec, Tensor, XorShiftRng};

fn kaiming(shape: &[usize], fan_in: usize, rng: &mut XorShiftRng) -> Tensor {
    let std = (2.0 / fan_in as f32).sqrt();
    let mut t = Tensor::randn(shape, rng);
    t.scale_assign(std);
    t
}

/// A 2-D convolutional synapse.
#[derive(Debug, Clone)]
pub struct Conv2dLayer {
    weight: ParamId,
    bias: Option<ParamId>,
    spec: Conv2dSpec,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
}

impl Conv2dLayer {
    /// Create a `kernel x kernel` convolution with Kaiming-initialised
    /// weights registered in `store`.
    #[expect(clippy::too_many_arguments, reason = "one argument per layer setting")]
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        spec: Conv2dSpec,
        bias: bool,
        rng: &mut XorShiftRng,
    ) -> Conv2dLayer {
        let fan_in = in_channels * kernel * kernel;
        let w = kaiming(&[out_channels, in_channels, kernel, kernel], fan_in, rng);
        let weight = store.add(format!("{name}.weight"), w);
        let bias = bias.then(|| store.add(format!("{name}.bias"), Tensor::zeros(out_channels)));
        Conv2dLayer {
            weight,
            bias,
            spec,
            in_channels,
            out_channels,
            kernel,
        }
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Kernel extent.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride/padding specification.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Weight parameter id.
    pub fn weight_id(&self) -> ParamId {
        self.weight
    }

    /// Spatial output size for an `(h, w)` input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            self.spec.out_dim(h, self.kernel),
            self.spec.out_dim(w, self.kernel),
        )
    }

    /// Taped forward.
    pub fn forward_taped(
        &self,
        g: &mut Graph,
        binder: &mut ParamBinder,
        store: &ParamStore,
        x: Var,
    ) -> Var {
        let w = binder.bind(g, store, self.weight);
        let b = self.bias.map(|b| binder.bind(g, store, b));
        g.conv2d(x, w, b, self.spec)
    }

    /// Plain forward (no graph).
    pub fn forward_infer(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        conv2d(
            x,
            store.value(self.weight),
            self.bias.map(|b| store.value(b)),
            self.spec,
        )
    }
}

/// A dense (fully connected) synapse, weights `[out, in]`.
#[derive(Debug, Clone)]
pub struct LinearLayer {
    weight: ParamId,
    bias: Option<ParamId>,
    in_features: usize,
    out_features: usize,
}

impl LinearLayer {
    /// Create a dense layer with Kaiming-initialised weights registered in
    /// `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_features: usize,
        out_features: usize,
        bias: bool,
        rng: &mut XorShiftRng,
    ) -> LinearLayer {
        let w = kaiming(&[out_features, in_features], in_features, rng);
        let weight = store.add(format!("{name}.weight"), w);
        let bias = bias.then(|| store.add(format!("{name}.bias"), Tensor::zeros(out_features)));
        LinearLayer {
            weight,
            bias,
            in_features,
            out_features,
        }
    }

    /// Input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Weight parameter id.
    pub fn weight_id(&self) -> ParamId {
        self.weight
    }

    /// Taped forward.
    pub fn forward_taped(
        &self,
        g: &mut Graph,
        binder: &mut ParamBinder,
        store: &ParamStore,
        x: Var,
    ) -> Var {
        let w = binder.bind(g, store, self.weight);
        let b = self.bias.map(|b| binder.bind(g, store, b));
        g.linear(x, w, b)
    }

    /// Plain forward (no graph).
    pub fn forward_infer(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        let mut out = matmul_nt(x, store.value(self.weight));
        if let Some(bid) = self.bias {
            let bias = store.value(bid);
            let (rows, cols) = out.shape().as_2d();
            let od = out.data_mut();
            for r in 0..rows {
                for (c, &bv) in bias.data().iter().enumerate() {
                    od[r * cols + c] += bv;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_taped_matches_infer() {
        let mut rng = XorShiftRng::new(31);
        let mut store = ParamStore::new();
        let layer = Conv2dLayer::new(
            &mut store,
            "c1",
            2,
            3,
            3,
            Conv2dSpec::padded(1),
            true,
            &mut rng,
        );
        let x = Tensor::randn([2, 2, 5, 5], &mut rng);
        let plain = layer.forward_infer(&store, &x);
        let mut g = Graph::new();
        let mut binder = ParamBinder::new(&store);
        let xv = g.leaf(x.clone(), false);
        let out = layer.forward_taped(&mut g, &mut binder, &store, xv);
        assert!(g.value(out).allclose(&plain, 1e-5));
        assert_eq!(plain.shape().dims(), &[2, 3, 5, 5]);
    }

    #[test]
    fn linear_taped_matches_infer() {
        let mut rng = XorShiftRng::new(32);
        let mut store = ParamStore::new();
        let layer = LinearLayer::new(&mut store, "fc", 6, 4, true, &mut rng);
        let x = Tensor::randn([3, 6], &mut rng);
        let plain = layer.forward_infer(&store, &x);
        let mut g = Graph::new();
        let mut binder = ParamBinder::new(&store);
        let xv = g.leaf(x.clone(), false);
        let out = layer.forward_taped(&mut g, &mut binder, &store, xv);
        assert!(g.value(out).allclose(&plain, 1e-5));
        assert_eq!(plain.shape().dims(), &[3, 4]);
    }

    #[test]
    fn kaiming_scale_tracks_fan_in() {
        let mut rng = XorShiftRng::new(33);
        let mut store = ParamStore::new();
        let small = Conv2dLayer::new(
            &mut store,
            "a",
            4,
            8,
            3,
            Conv2dSpec::default(),
            false,
            &mut rng,
        );
        let big = Conv2dLayer::new(
            &mut store,
            "b",
            64,
            8,
            3,
            Conv2dSpec::default(),
            false,
            &mut rng,
        );
        let var = |id: ParamId| {
            let t = store.value(id);
            t.map(|x| x * x).mean()
        };
        let vs = var(small.weight_id());
        let vb = var(big.weight_id());
        assert!(
            vs > 5.0 * vb,
            "fan-in 36 variance {vs} should dwarf fan-in 576 variance {vb}"
        );
    }

    #[test]
    fn out_hw_arithmetic() {
        let mut rng = XorShiftRng::new(34);
        let mut store = ParamStore::new();
        let layer = Conv2dLayer::new(
            &mut store,
            "c",
            1,
            1,
            3,
            Conv2dSpec {
                stride: 2,
                padding: 1,
            },
            false,
            &mut rng,
        );
        assert_eq!(layer.out_hw(8, 8), (4, 4));
    }
}
