//! The paper's workload pairings (Table I) at laptop scale.
//!
//! Each [`Workload`] builds the paper's topology (layer counts intact, so
//! `T/L_n` and Eq. 7 behave as in the paper) at reduced width/resolution,
//! together with the matching synthetic dataset. The paper's original
//! `T`, `C`, `p` and `trW` are kept as metadata; the scaled defaults are
//! chosen so one benchmark iteration takes milliseconds, not minutes.

use skipper_data::{
    synth_cifar, synth_dvs_gesture, synth_nmnist, SynthEventConfig, SynthImageConfig,
};
use skipper_snn::{
    alexnet, custom_net, lenet5, resnet20, vgg11, vgg5, LifConfig, ModelConfig, SpikingNetwork,
};

use crate::measure::DataSource;
use skipper_core::Method;

/// Which of the paper's five (+ AlexNet) pairings to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// VGG5 + CIFAR-10 (paper: T=100, B=128, C=4, p=70, trW=25).
    Vgg5Cifar10,
    /// VGG11 + CIFAR-100 (paper: T=125, B=128, C=5, p=50, trW=25).
    Vgg11Cifar100,
    /// ResNet20 + CIFAR-10 (paper: T=250, B=128, C=5, p=52, trW=50).
    Resnet20Cifar10,
    /// LeNet + DVS-Gesture (paper: T=400, B=32, C=10, p=70, trW=40).
    LenetDvsGesture,
    /// custom-Net + N-MNIST (paper: T=300, B=256, C=4, p=70).
    CustomNetNmnist,
    /// AlexNet + CIFAR-10 (Table II / Fig. 16; paper T=20/50).
    AlexnetCifar10,
}

impl WorkloadKind {
    /// All five Table I workloads (AlexNet excluded; it belongs to the
    /// TBPTT-LBP comparison).
    pub const TABLE1: [WorkloadKind; 5] = [
        WorkloadKind::Vgg5Cifar10,
        WorkloadKind::Vgg11Cifar100,
        WorkloadKind::Resnet20Cifar10,
        WorkloadKind::LenetDvsGesture,
        WorkloadKind::CustomNetNmnist,
    ];

    /// The four workloads used by the batch/checkpoint sweeps
    /// (Figs. 7, 10–13).
    pub const SWEEPS: [WorkloadKind; 4] = [
        WorkloadKind::Vgg5Cifar10,
        WorkloadKind::Vgg11Cifar100,
        WorkloadKind::Resnet20Cifar10,
        WorkloadKind::LenetDvsGesture,
    ];
}

/// The paper's parameters for a workload, kept for reference/reporting.
#[derive(Debug, Clone, Copy)]
pub struct PaperParams {
    /// Simulation horizon in the paper.
    pub timesteps: usize,
    /// Batch size in the paper.
    pub batch: usize,
    /// Checkpoint count in Table I.
    pub checkpoints: usize,
    /// Skip percentile in Table I.
    pub percentile: f32,
    /// TBPTT truncation window in Table I (0 = not reported).
    pub trw: usize,
}

/// A network + dataset pairing ready to benchmark.
pub struct Workload {
    /// Short name matching the paper ("VGG5+CIFAR10", …).
    pub name: &'static str,
    /// The spiking network (scaled width).
    pub net: SpikingNetwork,
    /// The synthetic dataset, wrapped for uniform batching.
    pub train: DataSource,
    /// Held-out split.
    pub test: DataSource,
    /// Scaled default horizon used by the benches.
    pub timesteps: usize,
    /// Scaled default batch size.
    pub batch: usize,
    /// Scaled default checkpoint count.
    pub checkpoints: usize,
    /// Scaled default skip percentile.
    pub percentile: f32,
    /// Scaled default truncation window.
    pub trw: usize,
    /// The paper's original parameters.
    pub paper: PaperParams,
}

impl Workload {
    /// Build a workload at the default laptop scale, ready to train for
    /// accuracy.
    pub fn build(kind: WorkloadKind) -> Workload {
        let mut w = Workload::build_raw(kind);
        // The paper's hybrid recipe (Section VII, ref. [37]): frame-based
        // SNNs are pre-initialised from an ANN trained on the same data,
        // then converted (threshold balancing, Diehl et al. [18]) and
        // fine-tuned as SNNs. Event-based workloads (DVS-Gesture, N-MNIST)
        // are trained from scratch, exactly as in the paper — calibration
        // alone revives their sparse-input activity.
        if let DataSource::Images { dataset, .. } = &w.train {
            let mut opt = skipper_snn::Adam::new(5e-3);
            for epoch in 0..3u64 {
                for idx in skipper_data::BatchIter::new_drop_last(dataset.len(), 16, epoch) {
                    let (frames, labels) = dataset.batch(&idx);
                    skipper_snn::ann_train_batch(&mut w.net, &mut opt, &frames, &labels);
                }
            }
        }
        w.calibrate();
        w
    }

    /// Build for memory/time measurement: thresholds are calibrated (so
    /// spike activity — and therefore kernel sparsity — is realistic) but
    /// the ANN pre-training is skipped (weight values do not affect the
    /// cost measurements).
    pub fn build_for_measurement(kind: WorkloadKind) -> Workload {
        let mut w = Workload::build_raw(kind);
        w.calibrate();
        w
    }

    /// Balance the firing thresholds on the first eight training samples.
    fn calibrate(&mut self) {
        let mut rng = skipper_tensor::XorShiftRng::new(0xCA11B);
        let n = 8.min(self.train.len());
        let (inputs, _) = self.train.first_batch(n, self.timesteps, &mut rng);
        let _ = skipper_snn::calibrate_thresholds(&mut self.net, &inputs, 0.08);
    }

    /// Build without the hybrid ANN pre-training and threshold calibration
    /// — raw Kaiming initialisation. Cheap: for reading a workload's shape
    /// (name, scaled defaults, depth) without paying for either.
    pub fn build_raw(kind: WorkloadKind) -> Workload {
        use WorkloadKind::*;
        let params = |timesteps, batch, checkpoints, percentile, trw| PaperParams {
            timesteps,
            batch,
            checkpoints,
            percentile,
            trw,
        };
        // One row per pairing: name, topology, width multiplier, then
        // (T, B, C, p, trW) at laptop scale and in the paper.
        type Topology = fn(&ModelConfig) -> SpikingNetwork;
        let (name, topology, width_mult, scaled, paper): (_, Topology, _, _, _) = match kind {
            Vgg5Cifar10 => (
                "VGG5+CIFAR10",
                vgg5,
                0.25,
                params(40, 8, 2, 70.0, 10),
                params(100, 128, 4, 70.0, 25),
            ),
            Vgg11Cifar100 => (
                "VGG11+CIFAR100",
                vgg11,
                0.25,
                params(44, 8, 2, 50.0, 11),
                params(125, 128, 5, 50.0, 25),
            ),
            Resnet20Cifar10 => (
                "ResNet20+CIFAR10",
                resnet20,
                0.25,
                params(60, 4, 2, 30.0, 12),
                params(250, 128, 5, 52.0, 50),
            ),
            LenetDvsGesture => (
                "LeNet+DVS-gesture",
                lenet5,
                0.25,
                params(40, 4, 4, 50.0, 8),
                params(400, 32, 10, 70.0, 40),
            ),
            CustomNetNmnist => (
                "custom-Net+N-MNIST",
                custom_net,
                0.25,
                params(30, 8, 3, 70.0, 6),
                params(300, 256, 4, 70.0, 0),
            ),
            AlexnetCifar10 => (
                "AlexNet+CIFAR10",
                alexnet,
                0.0625,
                params(20, 8, 2, 20.0, 10),
                params(20, 256, 2, 20.0, 10),
            ),
        };

        let images = |classes: usize| SynthImageConfig {
            hw: 16,
            num_classes: classes,
            train_per_class: (480 / classes.max(8)).max(16),
            test_per_class: (120 / classes.max(8)).max(4),
            ..SynthImageConfig::default()
        };
        let events = SynthEventConfig {
            hw: 16,
            train_per_class: 8,
            test_per_class: 2,
            ..SynthEventConfig::default()
        };
        let (in_channels, (train, test)) = match kind {
            // 20 classes on a deep stack from scratch is the hardest
            // scaled workload; keep the class patterns crisp (no shift,
            // low noise) so few-epoch training is meaningful.
            Vgg11Cifar100 => (
                3,
                split(
                    DataSource::images,
                    synth_cifar(&SynthImageConfig {
                        noise: 0.04,
                        max_shift: 0,
                        ..images(20)
                    }),
                ),
            ),
            Vgg5Cifar10 | Resnet20Cifar10 | AlexnetCifar10 => {
                (3, split(DataSource::images, synth_cifar(&images(10))))
            }
            LenetDvsGesture => (2, split(DataSource::events, synth_dvs_gesture(&events))),
            CustomNetNmnist => (2, split(DataSource::events, synth_nmnist(&events))),
        };
        let net = topology(&ModelConfig {
            input_hw: 16,
            in_channels,
            num_classes: train.num_classes(),
            width_mult,
            lif: LifConfig::default(),
            ..ModelConfig::default()
        });
        Workload {
            name,
            net,
            train,
            test,
            timesteps: scaled.timesteps,
            batch: scaled.batch,
            checkpoints: scaled.checkpoints,
            percentile: scaled.percentile,
            trw: scaled.trw,
            paper,
        }
    }

    /// The four methods the paper compares on this workload, at the scaled
    /// defaults: baseline, checkpointed, Skipper and TBPTT.
    pub fn methods(&self) -> Vec<Method> {
        vec![
            Method::Bptt,
            Method::Checkpointed {
                checkpoints: self.checkpoints,
            },
            Method::Skipper {
                checkpoints: self.checkpoints,
                percentile: self.percentile,
            },
            Method::Tbptt { window: self.trw },
        ]
    }
}

/// Wrap a (train, test) dataset pair.
fn split<D>(wrap: fn(D) -> DataSource, (train, test): (D, D)) -> (DataSource, DataSource) {
    (wrap(train), wrap(test))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_build_and_validate() {
        for kind in WorkloadKind::TABLE1 {
            let w = Workload::build(kind);
            assert!(!w.train.is_empty(), "{}", w.name);
            assert!(!w.test.is_empty());
            assert_eq!(w.net.num_classes(), w.train.num_classes());
            for m in w.methods() {
                m.validate(&w.net, w.timesteps)
                    .unwrap_or_else(|e| panic!("{} {m}: {e}", w.name));
            }
        }
    }

    #[test]
    fn alexnet_matches_paper_t20() {
        let w = Workload::build(WorkloadKind::AlexnetCifar10);
        assert_eq!(w.timesteps, w.paper.timesteps);
        assert_eq!(w.net.spiking_layer_count(), 7);
    }

    #[test]
    fn scaled_horizons_preserve_t_over_l_ordering() {
        // VGG5 has a higher T/L_n than VGG11, which has the lowest —
        // the property the paper uses to explain skip headroom.
        let ratio = |k: WorkloadKind| {
            let w = Workload::build(k);
            w.timesteps as f32 / w.net.spiking_layer_count() as f32
        };
        assert!(ratio(WorkloadKind::Vgg5Cifar10) > ratio(WorkloadKind::Vgg11Cifar100));
        assert!(ratio(WorkloadKind::Resnet20Cifar10) < ratio(WorkloadKind::Vgg5Cifar10));
    }
}
