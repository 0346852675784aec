//! The network topologies evaluated in the paper.
//!
//! Table I of the paper lists five workloads — VGG5 (conv3+lin3), VGG11
//! (conv9+lin3), ResNet20 (conv20+lin1), LeNet (conv5+lin1) and a custom
//! network (conv3+lin1) — plus AlexNet for the TBPTT-LBP comparison
//! (Table II / Fig. 16) and ResNet34 for the ImageNet motivation study
//! (Fig. 4). All constructors take a [`ModelConfig`] whose `width_mult`
//! scales channel counts: layer *counts* and therefore the paper's
//! `T/L_n` trade-off (Eq. 7) are preserved at any width, while absolute
//! bytes/FLOPs shrink to laptop scale (see `DESIGN.md`).

use crate::layers::{Conv2dLayer, LinearLayer};
use crate::lif::LifConfig;
use crate::network::{LifUnit, Module, SpikingNetwork};
use crate::params::ParamStore;
use skipper_tensor::{Conv2dSpec, XorShiftRng};

/// Shared knobs of every model constructor.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelConfig {
    /// Input height = width, pixels.
    pub input_hw: usize,
    /// Input channels (3 for rate-coded RGB, 2 for DVS polarity).
    pub in_channels: usize,
    /// Output classes.
    pub num_classes: usize,
    /// Channel-width multiplier (1.0 = paper widths).
    pub width_mult: f32,
    /// Neuron parameters applied to every LIF population.
    pub lif: LifConfig,
    /// Dropout on hidden dense layers (`None` disables).
    pub dropout: Option<f32>,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            input_hw: 32,
            in_channels: 3,
            num_classes: 10,
            width_mult: 1.0,
            lif: LifConfig::default(),
            dropout: None,
            seed: 0xC0FFEE,
        }
    }
}

impl ModelConfig {
    /// Scaled channel count (at least 1).
    fn ch(&self, base: usize) -> usize {
        ((base as f32 * self.width_mult).round() as usize).max(1)
    }
}

/// What both phases of the topology builder carry: the parameters,
/// modules and LIF state shapes built so far.
struct Parts {
    params: ParamStore,
    modules: Vec<Module>,
    state_shapes: Vec<Vec<usize>>,
    lif: LifConfig,
    rng: XorShiftRng,
    next_name: usize,
}

impl Parts {
    fn name(&mut self, prefix: &str) -> String {
        let n = self.next_name;
        self.next_name += 1;
        format!("{prefix}{n}")
    }

    fn lif_unit(&mut self, shape: Vec<usize>) -> LifUnit {
        self.state_shapes.push(shape);
        LifUnit {
            cfg: self.lif,
            state_id: self.state_shapes.len() - 1,
        }
    }
}

/// The builder's spatial phase: feature maps of shape `(c, h, w)`.
/// [`Spatial::flatten`] moves it into the [`Flat`] phase, so a dense layer
/// on a feature map, or a convolution on a vector, does not compile.
struct Spatial {
    parts: Parts,
    chw: (usize, usize, usize),
}

/// The builder's flat phase: vectors of `features` elements.
struct Flat {
    parts: Parts,
    features: usize,
}

impl Spatial {
    fn new(cfg: &ModelConfig) -> Spatial {
        Spatial {
            parts: Parts {
                params: ParamStore::new(),
                modules: Vec::new(),
                state_shapes: Vec::new(),
                lif: cfg.lif,
                rng: XorShiftRng::new(cfg.seed),
                next_name: 0,
            },
            chw: (cfg.in_channels, cfg.input_hw, cfg.input_hw),
        }
    }

    fn conv_lif(&mut self, out_c: usize, k: usize, spec: Conv2dSpec, pool: Option<usize>) {
        let (c, h, w) = self.chw;
        let p = &mut self.parts;
        let name = p.name("conv");
        let conv = Conv2dLayer::new(&mut p.params, &name, c, out_c, k, spec, true, &mut p.rng);
        let (ho, wo) = conv.out_hw(h, w);
        let lif = p.lif_unit(vec![out_c, ho, wo]);
        let (ho, wo) = match pool {
            Some(k) => (ho / k, wo / k),
            None => (ho, wo),
        };
        p.modules.push(Module::ConvLif { conv, lif, pool });
        self.chw = (out_c, ho, wo);
    }

    /// Conv with 3x3 kernel, padding 1, optional 2x pool — the standard
    /// VGG-style stage. Pooling is skipped automatically once the feature
    /// map cannot be halved, so topologies stay valid at small input sizes.
    fn vgg_stage(&mut self, out_c: usize, pool: bool) {
        let (_, h, _) = self.chw;
        let pool = (pool && h >= 2 && h % 2 == 0).then_some(2);
        self.conv_lif(out_c, 3, Conv2dSpec::padded(1), pool);
    }

    fn residual(&mut self, out_c: usize, stride: usize) {
        let (c, h, w) = self.chw;
        let p = &mut self.parts;
        let n1 = p.name("res_conv");
        let conv1 = Conv2dLayer::new(
            &mut p.params,
            &n1,
            c,
            out_c,
            3,
            Conv2dSpec { stride, padding: 1 },
            true,
            &mut p.rng,
        );
        let (h1, w1) = conv1.out_hw(h, w);
        let lif1 = p.lif_unit(vec![out_c, h1, w1]);
        let n2 = p.name("res_conv");
        let conv2 = Conv2dLayer::new(
            &mut p.params,
            &n2,
            out_c,
            out_c,
            3,
            Conv2dSpec::padded(1),
            true,
            &mut p.rng,
        );
        let shortcut = (stride != 1 || c != out_c).then(|| {
            let n = p.name("res_proj");
            Conv2dLayer::new(
                &mut p.params,
                &n,
                c,
                out_c,
                1,
                Conv2dSpec { stride, padding: 0 },
                false,
                &mut p.rng,
            )
        });
        let lif2 = p.lif_unit(vec![out_c, h1, w1]);
        p.modules.push(Module::Residual {
            conv1,
            lif1,
            conv2,
            shortcut,
            lif2,
        });
        self.chw = (out_c, h1, w1);
    }

    /// Global average pool down to 1x1 (nothing to do on a 1x1 map).
    fn global_pool(&mut self) {
        let (c, h, w) = self.chw;
        if h > 1 {
            self.parts.modules.push(Module::Pool(h));
            self.chw = (c, 1, w / h);
        }
    }

    fn flatten(self) -> Flat {
        let (c, h, w) = self.chw;
        let mut parts = self.parts;
        parts.modules.push(Module::Flatten);
        Flat {
            parts,
            features: c * h * w,
        }
    }
}

impl Flat {
    fn linear_lif(&mut self, out: usize, dropout: Option<f32>) {
        let p = &mut self.parts;
        let name = p.name("fc");
        let lin = LinearLayer::new(&mut p.params, &name, self.features, out, true, &mut p.rng);
        let lif = p.lif_unit(vec![out]);
        p.modules.push(Module::LinearLif { lin, lif, dropout });
        self.features = out;
    }

    fn finish(self, name: &str, cfg: &ModelConfig) -> SpikingNetwork {
        let mut p = self.parts;
        let lin = LinearLayer::new(
            &mut p.params,
            "readout",
            self.features,
            cfg.num_classes,
            true,
            &mut p.rng,
        );
        p.modules.push(Module::Output(lin));
        SpikingNetwork::from_parts(
            name,
            p.modules,
            p.params,
            p.state_shapes,
            vec![cfg.in_channels, cfg.input_hw, cfg.input_hw],
            cfg.num_classes,
        )
    }
}

/// VGG5: conv(3) + lin(3). Paper workload for CIFAR-10, `T = 100`.
pub fn vgg5(cfg: &ModelConfig) -> SpikingNetwork {
    let mut b = Spatial::new(cfg);
    b.vgg_stage(cfg.ch(64), true);
    b.vgg_stage(cfg.ch(128), true);
    b.vgg_stage(cfg.ch(128), true);
    let mut b = b.flatten();
    b.linear_lif(cfg.ch(256), cfg.dropout);
    b.linear_lif(cfg.ch(256), cfg.dropout);
    b.finish("vgg5", cfg)
}

/// VGG11: conv(9) + lin(3). Paper workload for CIFAR-100, `T = 125`.
pub fn vgg11(cfg: &ModelConfig) -> SpikingNetwork {
    let mut b = Spatial::new(cfg);
    let plan: [(usize, bool); 9] = [
        (64, true),
        (128, true),
        (256, false),
        (256, true),
        (512, false),
        (512, true),
        (512, false),
        (512, false),
        (512, true),
    ];
    for (ch, pool) in plan {
        b.vgg_stage(cfg.ch(ch), pool);
    }
    let mut b = b.flatten();
    b.linear_lif(cfg.ch(512), cfg.dropout);
    b.linear_lif(cfg.ch(512), cfg.dropout);
    b.finish("vgg11", cfg)
}

/// ResNet20: conv(20) + lin(1). Paper workload for CIFAR-10, `T = 250`.
pub fn resnet20(cfg: &ModelConfig) -> SpikingNetwork {
    let mut b = Spatial::new(cfg);
    b.conv_lif(cfg.ch(16), 3, Conv2dSpec::padded(1), None);
    for (stage, ch) in [16usize, 32, 64].into_iter().enumerate() {
        for block in 0..3 {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            b.residual(cfg.ch(ch), stride);
        }
    }
    b.global_pool();
    b.flatten().finish("resnet20", cfg)
}

/// LeNet variant: conv(5) + lin(1). Paper workload for DVS-Gesture,
/// `T = 400` (event-camera input, 2 polarity channels).
pub fn lenet5(cfg: &ModelConfig) -> SpikingNetwork {
    let mut b = Spatial::new(cfg);
    for ch in [16usize, 32, 64, 64, 128] {
        b.vgg_stage(cfg.ch(ch), true);
    }
    b.flatten().finish("lenet5", cfg)
}

/// custom-Net: conv(3) + lin(1). Paper workload for N-MNIST, `T = 300`.
pub fn custom_net(cfg: &ModelConfig) -> SpikingNetwork {
    let mut b = Spatial::new(cfg);
    for ch in [16usize, 32, 64] {
        b.vgg_stage(cfg.ch(ch), true);
    }
    b.flatten().finish("custom-net", cfg)
}

/// AlexNet (CIFAR variant of Guo et al. \[28\]): conv(5) + lin(3). Used for
/// the TBPTT-LBP comparison (Table II, Fig. 16).
pub fn alexnet(cfg: &ModelConfig) -> SpikingNetwork {
    let mut b = Spatial::new(cfg);
    b.vgg_stage(cfg.ch(96), true);
    b.vgg_stage(cfg.ch(256), true);
    b.vgg_stage(cfg.ch(384), false);
    b.vgg_stage(cfg.ch(384), false);
    b.vgg_stage(cfg.ch(256), true);
    let mut b = b.flatten();
    b.linear_lif(cfg.ch(1024), cfg.dropout);
    b.linear_lif(cfg.ch(1024), cfg.dropout);
    b.finish("alexnet", cfg)
}

/// ResNet34 at ImageNet geometry (224x224), used *analytically* for the
/// paper's Fig. 4 — constructing it is cheap; training it is not intended.
pub fn resnet34(cfg: &ModelConfig) -> SpikingNetwork {
    let mut b = Spatial::new(cfg);
    // 7x7/2 stem + 2x2 pool (stand-in for the 3x3/2 max pool).
    b.conv_lif(
        cfg.ch(64),
        7,
        Conv2dSpec {
            stride: 2,
            padding: 3,
        },
        Some(2),
    );
    for (stage, (ch, blocks)) in [(64usize, 3usize), (128, 4), (256, 6), (512, 3)]
        .into_iter()
        .enumerate()
    {
        for block in 0..blocks {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            b.residual(cfg.ch(ch), stride);
        }
    }
    b.global_pool();
    b.flatten().finish("resnet34", cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(width: f32) -> ModelConfig {
        ModelConfig {
            width_mult: width,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn layer_counts_match_table_1() {
        let cfg = small(0.125);
        assert_eq!(vgg5(&cfg).spiking_layer_count(), 3 + 2); // conv3 + 2 hidden lin
        assert_eq!(vgg11(&cfg).spiking_layer_count(), 9 + 2);
        assert_eq!(resnet20(&cfg).spiking_layer_count(), 1 + 18);
        assert_eq!(lenet5(&cfg).spiking_layer_count(), 5);
        assert_eq!(custom_net(&cfg).spiking_layer_count(), 3);
        assert_eq!(alexnet(&cfg).spiking_layer_count(), 5 + 2);
    }

    #[test]
    fn width_mult_scales_params() {
        let narrow = vgg5(&small(0.125)).param_scalars();
        let wide = vgg5(&small(0.25)).param_scalars();
        assert!(wide > 2 * narrow, "wide {wide} vs narrow {narrow}");
    }

    #[test]
    fn networks_run_one_step() {
        use crate::network::StepCtx;
        use skipper_tensor::Tensor;
        let cfg = ModelConfig {
            input_hw: 16,
            width_mult: 0.125,
            ..ModelConfig::default()
        };
        for net in [
            vgg5(&cfg),
            vgg11(&cfg),
            resnet20(&cfg),
            lenet5(&cfg),
            custom_net(&cfg),
            alexnet(&cfg),
        ] {
            let input = Tensor::ones([2, 3, 16, 16]);
            let mut state = net.init_state(2);
            let out = net.step_infer(&input, &mut state, &StepCtx::eval(0));
            assert_eq!(
                out.logits.shape().dims(),
                &[2, 10],
                "{} logits shape",
                net.name()
            );
            assert!(out.spike_sum.is_finite());
        }
    }

    #[test]
    fn resnet34_shapes_are_imagenet_scale() {
        let cfg = ModelConfig {
            input_hw: 224,
            width_mult: 0.03125, // tiny for the test; geometry is what matters
            num_classes: 1000,
            ..ModelConfig::default()
        };
        let net = resnet34(&cfg);
        assert_eq!(net.spiking_layer_count(), 1 + 2 * (3 + 4 + 6 + 3));
        // First state shape: 64-scaled channels at 112x112.
        assert_eq!(net.state_shapes()[0][1], 112);
    }

    #[test]
    fn dropout_config_reaches_linear_layers() {
        let cfg = ModelConfig {
            dropout: Some(0.5),
            width_mult: 0.125,
            ..ModelConfig::default()
        };
        let net = vgg5(&cfg);
        let has_dropout = net
            .modules()
            .iter()
            .any(|m| matches!(m, Module::LinearLif { dropout: Some(p), .. } if *p == 0.5));
        assert!(has_dropout);
    }
}
