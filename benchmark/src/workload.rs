//! The four workloads and the set-up each run repeats: dataset, networks,
//! threshold calibration, sessions, gateway and one warm-up round.
//!
//! Every workload is one configuration of the same run: it trains one
//! batch per round with BPTT, checkpointing and Skipper, predicts on the
//! same batch, and then serves the network through the gateway. The
//! workloads differ in network, data, horizon, worker count and in how the
//! run's seconds are split between training and serving, so each puts a
//! different layer on the critical path (see README.md).

use skipper_core::{InferSession, Method, TrainSession};
use skipper_data::{
    event_batch, synth_cifar, synth_dvs_gesture, synth_nmnist, BatchIter, EventDataset,
    ImageDataset, SynthEventConfig, SynthImageConfig,
};
use skipper_serve::{Gateway, GatewayConfig, ModelPool, TenantConfig};
use skipper_snn::{
    calibrate_thresholds, custom_net, lenet5, set_threshold, vgg5, Adam, Encoder, ModelConfig,
    PoissonEncoder, SpikingNetwork,
};
use skipper_tensor::{Tensor, XorShiftRng};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Input height = width of every workload.
pub const HW: usize = 16;
/// Tenant the load generator sends as.
pub const TENANT: &str = "bench";
/// Short names of the three training methods, in session order.
pub const METHODS: [&str; 3] = ["bptt", "ckpt", "skipper"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataKind {
    /// `synth_cifar`, Poisson rate-encoded per round.
    Cifar,
    /// `synth_dvs_gesture`, one microstep per timestep.
    DvsGesture,
    /// `synth_nmnist`, one microstep per timestep.
    Nmnist,
}

/// What the gateway's clients send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bodies {
    /// Spike trains of the workload's own samples.
    Dataset,
    /// Bernoulli spike trains alternating between these two densities.
    Alternating([f64; 2]),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub net: fn(&ModelConfig) -> SpikingNetwork,
    pub data: DataKind,
    pub timesteps: usize,
    pub batch: usize,
    pub checkpoints: usize,
    pub percentile: f32,
    /// Worker threads of the three training sessions (all on one CPU).
    pub workers: usize,
    /// Share of the run's seconds spent in training rounds; the rest
    /// serves.
    pub train_share: f64,
    pub bodies: Bodies,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "conv_dense",
        net: vgg5,
        data: DataKind::Cifar,
        timesteps: 40,
        batch: 4,
        checkpoints: 2,
        percentile: 70.0,
        workers: 1,
        train_share: 0.65,
        bodies: Bodies::Dataset,
    },
    Workload {
        name: "event_long",
        net: lenet5,
        data: DataKind::DvsGesture,
        timesteps: 160,
        batch: 4,
        checkpoints: 8,
        percentile: 50.0,
        workers: 1,
        train_share: 0.65,
        bodies: Bodies::Dataset,
    },
    Workload {
        name: "sharded",
        net: vgg5,
        data: DataKind::Cifar,
        timesteps: 40,
        batch: 4,
        checkpoints: 2,
        percentile: 70.0,
        workers: 2,
        train_share: 0.65,
        bodies: Bodies::Dataset,
    },
    Workload {
        name: "serve",
        net: custom_net,
        data: DataKind::Nmnist,
        timesteps: 30,
        batch: 4,
        checkpoints: 3,
        percentile: 70.0,
        workers: 1,
        train_share: 0.25,
        bodies: Bodies::Alternating([0.05, 0.30]),
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn channels(&self) -> usize {
        match self.data {
            DataKind::Cifar => 3,
            DataKind::DvsGesture | DataKind::Nmnist => 2,
        }
    }

    pub fn classes(&self) -> usize {
        match self.data {
            DataKind::DvsGesture => 11,
            DataKind::Cifar | DataKind::Nmnist => 10,
        }
    }

    /// The training method of session `i` (indexed like [`METHODS`]).
    pub fn method(&self, i: usize) -> Method {
        match i {
            0 => Method::Bptt,
            1 => Method::Checkpointed {
                checkpoints: self.checkpoints,
            },
            _ => Method::Skipper {
                checkpoints: self.checkpoints,
                percentile: self.percentile,
            },
        }
    }

    pub fn model_config(&self, seed: u64) -> ModelConfig {
        ModelConfig {
            input_hw: HW,
            in_channels: self.channels(),
            num_classes: self.classes(),
            width_mult: 0.25,
            seed,
            ..ModelConfig::default()
        }
    }
}

/// The workload's synthetic dataset (train split only).
pub enum Data {
    Images(ImageDataset),
    Events(EventDataset),
}

impl Data {
    fn synth(w: &Workload, seed: u64) -> Data {
        let events = |synth: fn(&SynthEventConfig) -> (EventDataset, EventDataset)| {
            let (train, _) = synth(&SynthEventConfig {
                hw: HW,
                train_per_class: 8,
                test_per_class: 1,
                // One sensor microstep per simulation timestep, so no bin
                // is empty merely because the recording was shorter than T.
                duration: w.timesteps as u32,
                seed,
                ..SynthEventConfig::default()
            });
            Data::Events(train)
        };
        match w.data {
            DataKind::Cifar => {
                let (train, _) = synth_cifar(&SynthImageConfig {
                    hw: HW,
                    train_per_class: 16,
                    test_per_class: 1,
                    seed,
                    ..SynthImageConfig::default()
                });
                Data::Images(train)
            }
            DataKind::DvsGesture => events(synth_dvs_gesture),
            DataKind::Nmnist => events(synth_nmnist),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Data::Images(d) => d.len(),
            Data::Events(d) => d.len(),
        }
    }

    /// `n` sample indices spread evenly over the dataset, which is ordered
    /// by class.
    pub fn spread(&self, n: usize) -> Vec<usize> {
        (0..n).map(|i| i * self.len() / n).collect()
    }

    /// The samples at `indices` as a spike sequence (`timesteps` tensors of
    /// `[B,C,H,W]`) plus labels. `rng` drives the Poisson encoder.
    pub fn spikes(
        &self,
        indices: &[usize],
        timesteps: usize,
        rng: &mut XorShiftRng,
    ) -> (Vec<Tensor>, Vec<usize>) {
        match self {
            Data::Images(d) => {
                let (frames, labels) = d.batch(indices);
                (
                    PoissonEncoder::default().encode(&frames, timesteps, rng),
                    labels,
                )
            }
            Data::Events(d) => event_batch(d, indices, timesteps),
        }
    }
}

/// A spike tensor of `shape` in which each element fires with probability
/// `density`.
pub fn bernoulli(shape: &[usize], density: f64, rng: &mut XorShiftRng) -> Tensor {
    Tensor::rand(shape, rng).map(|x| if f64::from(x) < density { 1.0 } else { 0.0 })
}

/// Endless shuffled batches: a fresh seeded permutation per epoch.
pub struct Batches {
    len: usize,
    batch: usize,
    seed: u64,
    epoch: u64,
    iter: BatchIter,
}

impl Batches {
    pub fn new(len: usize, batch: usize, seed: u64) -> Batches {
        assert!(len >= batch, "dataset smaller than one batch");
        Batches {
            len,
            batch,
            seed,
            epoch: 0,
            iter: BatchIter::new_drop_last(len, batch, seed),
        }
    }

    pub fn next_indices(&mut self) -> Vec<usize> {
        loop {
            if let Some(indices) = self.iter.next() {
                return indices;
            }
            self.epoch += 1;
            self.iter = BatchIter::new_drop_last(self.len, self.batch, self.seed + self.epoch);
        }
    }
}

/// Everything one run works with.
pub struct Rig {
    pub data: Data,
    /// One session per entry of [`METHODS`], identical initial weights.
    pub sessions: Vec<TrainSession>,
    /// Direct inference on the initial weights; also the reference the
    /// gateway's answers are compared with.
    pub infer: InferSession,
    pub gateway: Gateway,
    pub addr: SocketAddr,
    /// Calibrated firing thresholds, for probes that build more networks.
    pub thresholds: Vec<f32>,
    /// Loss of each session's warm-up iteration: the one iteration in
    /// which all three still hold bit-identical weights.
    pub warmup_loss: Vec<f64>,
}

/// A network of the workload with the calibrated thresholds applied.
pub fn build_net(w: &Workload, seed: u64, thresholds: &[f32]) -> SpikingNetwork {
    let mut net = (w.net)(&w.model_config(seed));
    for (layer, &theta) in thresholds.iter().enumerate() {
        set_threshold(&mut net, layer, theta).expect("thresholds come from this topology");
    }
    net
}

/// A training session of the workload on a fresh network.
pub fn build_session(
    w: &Workload,
    seed: u64,
    thresholds: &[f32],
    method: Method,
    workers: usize,
) -> TrainSession {
    TrainSession::builder(build_net(w, seed, thresholds), method, w.timesteps)
        .optimizer(Box::new(Adam::new(1e-3)))
        .workers(workers)
        .build()
        .expect("workload methods are valid for their network and horizon")
}

/// Set the workload up from `seed`: synthesise the dataset, build and
/// calibrate the network, build the three training sessions, the direct
/// inference session and the gateway, and run one warm-up round through
/// each (lazy state such as Adam's moments is allocated there).
pub fn setup(w: &Workload, seed: u64) -> Rig {
    let data = Data::synth(w, seed);
    let mut rng = XorShiftRng::new(seed ^ 0xCA11B);
    let (calib_inputs, _) = data.spikes(&data.spread(8), w.timesteps, &mut rng);
    let mut calibrated = (w.net)(&w.model_config(seed));
    let thresholds = calibrate_thresholds(&mut calibrated, &calib_inputs, 0.08);

    let mut sessions: Vec<TrainSession> = (0..METHODS.len())
        .map(|i| build_session(w, seed, &thresholds, w.method(i), w.workers))
        .collect();
    let infer = InferSession::new(calibrated);

    let cfg = GatewayConfig {
        max_batch: 2,
        max_delay: Duration::from_millis(5),
        // One tenant that the token bucket never refuses.
        tenants: vec![TenantConfig::new(TENANT, 1e9, 1e9)],
        slo: None,
        ..GatewayConfig::default()
    };
    let pool = ModelPool::fixed(InferSession::new(build_net(w, seed, &thresholds)));
    let mut gateway = Gateway::start(cfg, pool, Arc::new(skipper_obs::Router::new()))
        .expect("gateway threads spawn");
    let addr = gateway.bind("127.0.0.1:0").expect("loopback binds");

    let (inputs, labels) = data.spikes(&data.spread(w.batch), w.timesteps, &mut rng);
    let warmup_loss = sessions
        .iter_mut()
        .map(|session| session.train_batch(&inputs, &labels).loss)
        .collect();
    infer
        .predict(&inputs)
        .expect("warm-up batch is well-formed");

    Rig {
        data,
        sessions,
        infer,
        gateway,
        addr,
        thresholds,
        warmup_loss,
    }
}
