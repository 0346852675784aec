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

/// Incremental topology builder with shape tracking.
struct NetBuilder {
    params: ParamStore,
    modules: Vec<Module>,
    state_shapes: Vec<Vec<usize>>,
    lif: LifConfig,
    rng: XorShiftRng,
    /// Current spatial shape, if any.
    chw: Option<(usize, usize, usize)>,
    /// Current flat feature count, if flattened.
    flat: Option<usize>,
    next_name: usize,
}

impl NetBuilder {
    fn new(cfg: &ModelConfig) -> NetBuilder {
        NetBuilder {
            params: ParamStore::new(),
            modules: Vec::new(),
            state_shapes: Vec::new(),
            lif: cfg.lif,
            rng: XorShiftRng::new(cfg.seed),
            chw: Some((cfg.in_channels, cfg.input_hw, cfg.input_hw)),
            flat: None,
            next_name: 0,
        }
    }

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

    fn conv_lif(&mut self, out_c: usize, k: usize, spec: Conv2dSpec, pool: Option<usize>) {
        // lint:allow(panic): topology builder invariant: conv follows a spatial layer; misuse fails fast in model-construction tests
        let (c, h, w) = self.chw.expect("conv on spatial input");
        let name = self.name("conv");
        let conv = Conv2dLayer::new(
            &mut self.params,
            &name,
            c,
            out_c,
            k,
            spec,
            true,
            &mut self.rng,
        );
        let (ho, wo) = conv.out_hw(h, w);
        let lif = self.lif_unit(vec![out_c, ho, wo]);
        let (ho, wo) = match pool {
            Some(p) => (ho / p, wo / p),
            None => (ho, wo),
        };
        self.modules.push(Module::ConvLif { conv, lif, pool });
        self.chw = Some((out_c, ho, wo));
    }

    /// Conv with 3x3 kernel, padding 1, optional 2x pool — the standard
    /// VGG-style stage. Pooling is skipped automatically once the feature
    /// map cannot be halved, so topologies stay valid at small input sizes.
    fn vgg_stage(&mut self, out_c: usize, pool: bool) {
        // lint:allow(panic): topology builder invariant: preceding layer is spatial
        let (_, h, _) = self.chw.expect("spatial");
        let pool = (pool && h >= 2 && h % 2 == 0).then_some(2);
        self.conv_lif(out_c, 3, Conv2dSpec::padded(1), pool);
    }

    fn residual(&mut self, out_c: usize, stride: usize) {
        // lint:allow(panic): topology builder invariant: residual follows a spatial layer
        let (c, h, w) = self.chw.expect("residual on spatial input");
        let n1 = self.name("res_conv");
        let conv1 = Conv2dLayer::new(
            &mut self.params,
            &n1,
            c,
            out_c,
            3,
            Conv2dSpec { stride, padding: 1 },
            true,
            &mut self.rng,
        );
        let (h1, w1) = conv1.out_hw(h, w);
        let lif1 = self.lif_unit(vec![out_c, h1, w1]);
        let n2 = self.name("res_conv");
        let conv2 = Conv2dLayer::new(
            &mut self.params,
            &n2,
            out_c,
            out_c,
            3,
            Conv2dSpec::padded(1),
            true,
            &mut self.rng,
        );
        let shortcut = (stride != 1 || c != out_c).then(|| {
            let n = self.name("res_proj");
            Conv2dLayer::new(
                &mut self.params,
                &n,
                c,
                out_c,
                1,
                Conv2dSpec { stride, padding: 0 },
                false,
                &mut self.rng,
            )
        });
        let lif2 = self.lif_unit(vec![out_c, h1, w1]);
        self.modules.push(Module::Residual {
            conv1,
            lif1,
            conv2,
            shortcut,
            lif2,
        });
        self.chw = Some((out_c, h1, w1));
    }

    fn pool(&mut self, k: usize) {
        // lint:allow(panic): topology builder invariant: pool follows a spatial layer
        let (c, h, w) = self.chw.expect("pool on spatial input");
        self.modules.push(Module::Pool(k));
        self.chw = Some((c, h / k, w / k));
    }

    fn flatten(&mut self) {
        // lint:allow(panic): topology builder invariant: flatten follows a spatial layer
        let (c, h, w) = self.chw.take().expect("flatten on spatial input");
        self.flat = Some(c * h * w);
        self.modules.push(Module::Flatten);
    }

    fn linear_lif(&mut self, out: usize, dropout: Option<f32>) {
        // lint:allow(panic): topology builder invariant: linear follows flatten or another flat layer
        let inf = self.flat.expect("linear on flat input");
        let name = self.name("fc");
        let lin = LinearLayer::new(&mut self.params, &name, inf, out, true, &mut self.rng);
        let lif = self.lif_unit(vec![out]);
        self.modules.push(Module::LinearLif { lin, lif, dropout });
        self.flat = Some(out);
    }

    fn finish(mut self, name: &str, cfg: &ModelConfig) -> SpikingNetwork {
        if self.flat.is_none() {
            self.flatten();
        }
        // lint:allow(panic): topology builder invariant: output follows a flat layer
        let inf = self.flat.expect("flat before output");
        let lin = LinearLayer::new(
            &mut self.params,
            "readout",
            inf,
            cfg.num_classes,
            true,
            &mut self.rng,
        );
        self.modules.push(Module::Output(lin));
        SpikingNetwork::from_parts(
            name,
            self.modules,
            self.params,
            self.state_shapes,
            vec![cfg.in_channels, cfg.input_hw, cfg.input_hw],
            cfg.num_classes,
        )
    }
}

/// VGG5: conv(3) + lin(3). Paper workload for CIFAR-10, `T = 100`.
pub fn vgg5(cfg: &ModelConfig) -> SpikingNetwork {
    let mut b = NetBuilder::new(cfg);
    b.vgg_stage(cfg.ch(64), true);
    b.vgg_stage(cfg.ch(128), true);
    b.vgg_stage(cfg.ch(128), true);
    b.flatten();
    b.linear_lif(cfg.ch(256), cfg.dropout);
    b.linear_lif(cfg.ch(256), cfg.dropout);
    b.finish("vgg5", cfg)
}

/// VGG11: conv(9) + lin(3). Paper workload for CIFAR-100, `T = 125`.
pub fn vgg11(cfg: &ModelConfig) -> SpikingNetwork {
    let mut b = NetBuilder::new(cfg);
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
    b.flatten();
    b.linear_lif(cfg.ch(512), cfg.dropout);
    b.linear_lif(cfg.ch(512), cfg.dropout);
    b.finish("vgg11", cfg)
}

/// ResNet20: conv(20) + lin(1). Paper workload for CIFAR-10, `T = 250`.
pub fn resnet20(cfg: &ModelConfig) -> SpikingNetwork {
    let mut b = NetBuilder::new(cfg);
    b.conv_lif(cfg.ch(16), 3, Conv2dSpec::padded(1), None);
    for (stage, ch) in [16usize, 32, 64].into_iter().enumerate() {
        for block in 0..3 {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            b.residual(cfg.ch(ch), stride);
        }
    }
    // Global average pool to 1x1.
    // lint:allow(panic): lenet5 wiring keeps this block spatial
    let (_, h, _) = b.chw.expect("spatial");
    if h > 1 {
        b.pool(h);
    }
    b.finish("resnet20", cfg)
}

/// LeNet variant: conv(5) + lin(1). Paper workload for DVS-Gesture,
/// `T = 400` (event-camera input, 2 polarity channels).
pub fn lenet5(cfg: &ModelConfig) -> SpikingNetwork {
    let mut b = NetBuilder::new(cfg);
    for ch in [16usize, 32, 64, 64, 128] {
        b.vgg_stage(cfg.ch(ch), true);
    }
    b.finish("lenet5", cfg)
}

/// custom-Net: conv(3) + lin(1). Paper workload for N-MNIST, `T = 300`.
pub fn custom_net(cfg: &ModelConfig) -> SpikingNetwork {
    let mut b = NetBuilder::new(cfg);
    for ch in [16usize, 32, 64] {
        b.vgg_stage(cfg.ch(ch), true);
    }
    b.finish("custom-net", cfg)
}

/// AlexNet (CIFAR variant of Guo et al. \[28\]): conv(5) + lin(3). Used for
/// the TBPTT-LBP comparison (Table II, Fig. 16).
pub fn alexnet(cfg: &ModelConfig) -> SpikingNetwork {
    let mut b = NetBuilder::new(cfg);
    b.vgg_stage(cfg.ch(96), true);
    b.vgg_stage(cfg.ch(256), true);
    b.vgg_stage(cfg.ch(384), false);
    b.vgg_stage(cfg.ch(384), false);
    b.vgg_stage(cfg.ch(256), true);
    b.flatten();
    b.linear_lif(cfg.ch(1024), cfg.dropout);
    b.linear_lif(cfg.ch(1024), cfg.dropout);
    b.finish("alexnet", cfg)
}

/// ResNet34 at ImageNet geometry (224x224), used *analytically* for the
/// paper's Fig. 4 — constructing it is cheap; training it is not intended.
pub fn resnet34(cfg: &ModelConfig) -> SpikingNetwork {
    let mut b = NetBuilder::new(cfg);
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
    // lint:allow(panic): vgg9 wiring keeps this block spatial
    let (_, h, _) = b.chw.expect("spatial");
    if h > 1 {
        b.pool(h);
    }
    b.finish("resnet34", cfg)
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
