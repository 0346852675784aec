//! Instrumented measurement of training iterations.

use skipper_core::{BatchStats, TrainSession};
use skipper_data::{event_batch, BatchIter, EventDataset, ImageDataset};
use skipper_memprof::{
    enable_event_log, reset_peaks, take_events, AllocStats, CachingAllocator, Category,
    DeviceModel, LatencyModel, MemorySnapshot, OpLog,
};
use skipper_snn::{Encoder, PoissonEncoder};
use skipper_tensor::{Tensor, XorShiftRng};

/// A dataset wrapped for uniform spike-batch production.
pub enum DataSource {
    /// Frame data, Poisson rate-encoded on the fly.
    Images {
        /// The frames.
        dataset: ImageDataset,
        /// The encoder applied per batch.
        encoder: PoissonEncoder,
    },
    /// Event data, binned into polarity frames.
    Events(EventDataset),
}

impl DataSource {
    /// Wrap frames with the default Poisson encoder.
    pub fn images(dataset: ImageDataset) -> DataSource {
        DataSource::Images {
            dataset,
            encoder: PoissonEncoder::default(),
        }
    }

    /// Wrap event streams.
    pub fn events(dataset: EventDataset) -> DataSource {
        DataSource::Events(dataset)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        match self {
            DataSource::Images { dataset, .. } => dataset.len(),
            DataSource::Events(d) => d.len(),
        }
    }

    /// Whether the source is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        match self {
            DataSource::Images { dataset, .. } => dataset.num_classes(),
            DataSource::Events(d) => d.num_classes(),
        }
    }

    /// Spike sequence + labels for the samples at `indices`.
    pub fn batch(
        &self,
        indices: &[usize],
        timesteps: usize,
        rng: &mut XorShiftRng,
    ) -> (Vec<Tensor>, Vec<usize>) {
        match self {
            DataSource::Images { dataset, encoder } => {
                let (frames, labels) = dataset.batch(indices);
                (encoder.encode(&frames, timesteps, rng), labels)
            }
            DataSource::Events(d) => event_batch(d, indices, timesteps),
        }
    }

    /// A batch of the first `batch_size` samples wrapped for quick
    /// measurement loops (cycling when the dataset is small).
    pub fn first_batch(
        &self,
        batch_size: usize,
        timesteps: usize,
        rng: &mut XorShiftRng,
    ) -> (Vec<Tensor>, Vec<usize>) {
        let indices: Vec<usize> = (0..batch_size).map(|i| i % self.len()).collect();
        self.batch(&indices, timesteps, rng)
    }

    /// Shuffled epoch iterator.
    pub fn epoch(&self, batch_size: usize, seed: u64) -> BatchIter {
        BatchIter::new_drop_last(self.len(), batch_size, seed)
    }
}

/// How to measure.
#[derive(Debug, Clone, Copy)]
pub struct MeasureConfig {
    /// Instrumented iterations (after warm-up).
    pub iterations: usize,
    /// Warm-up iterations (excluded from the averages; lets allocator and
    /// parameter state settle, like the paper's "after a warm start").
    pub warmup: usize,
    /// Batch size.
    pub batch: usize,
    /// Simulation horizon.
    pub timesteps: usize,
}

/// What one measurement run produced. Everything in it is a count the
/// run repeats exactly; what depends on a device model
/// ([`modeled_s`](Measurement::modeled_s),
/// [`overall_bytes`](Measurement::overall_bytes)) is derived on demand, so
/// one run serves every device.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Kernel log of each instrumented iteration.
    ops: Vec<OpLog>,
    /// Per-category peaks of the last instrumented iteration.
    mem: MemorySnapshot,
    /// Peak coincident tensor bytes.
    pub tensor_peak: u64,
    /// Caching-allocator statistics over the instrumented window.
    pub alloc: AllocStats,
}

impl Measurement {
    /// Peak bytes of one category.
    pub fn peak(&self, category: Category) -> u64 {
        self.mem.peak(category)
    }

    /// Mean modeled seconds per iteration on `device` (its roofline over
    /// the logged kernels).
    pub fn modeled_s(&self, device: &DeviceModel) -> f64 {
        let latency = LatencyModel::new(device.clone());
        self.ops.iter().map(|ops| latency.time_s(ops)).sum::<f64>() / self.ops.len() as f64
    }

    /// `nvidia-smi`-style overall bytes on `device`: its context plus what
    /// the caching allocator reserved.
    pub fn overall_bytes(&self, device: &DeviceModel) -> u64 {
        device.overall_bytes(self.alloc.reserved)
    }
}

/// Run `cfg.warmup + cfg.iterations` training iterations of `session` on
/// repeated batches from `source`.
pub fn measure(
    session: &mut TrainSession,
    source: &DataSource,
    cfg: &MeasureConfig,
) -> Measurement {
    let mut rng = XorShiftRng::new(0xBEEF);
    // Warm-up (not instrumented).
    for _ in 0..cfg.warmup {
        let (inputs, labels) = source.first_batch(cfg.batch, cfg.timesteps, &mut rng);
        let _ = session.train_batch(&inputs, &labels);
    }
    reset_peaks();
    enable_event_log();
    let mut batches: Vec<BatchStats> = Vec::with_capacity(cfg.iterations);
    for _ in 0..cfg.iterations {
        let (inputs, labels) = source.first_batch(cfg.batch, cfg.timesteps, &mut rng);
        batches.push(session.train_batch(&inputs, &labels));
    }
    Measurement {
        mem: batches.last().expect("at least one iteration").mem,
        tensor_peak: batches.iter().map(|b| b.peak_bytes()).max().unwrap_or(0),
        alloc: CachingAllocator::replay(&take_events()),
        ops: batches.into_iter().map(|b| b.ops).collect(),
    }
}

/// Format bytes as MiB/GiB with sensible precision.
pub fn human_bytes(bytes: u64) -> String {
    let gib = bytes as f64 / (1u64 << 30) as f64;
    if gib >= 1.0 {
        format!("{gib:.2} GiB")
    } else {
        format!("{:.1} MiB", bytes as f64 / (1u64 << 20) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Workload, WorkloadKind};
    use skipper_core::Method;
    use skipper_snn::Adam;

    #[test]
    fn measure_produces_consistent_numbers() {
        let w = Workload::build(WorkloadKind::CustomNetNmnist);
        let mut session =
            skipper_core::TrainSession::builder(w.net, Method::Checkpointed { checkpoints: 3 }, 12)
                .optimizer(Box::new(Adam::new(1e-3)))
                .build()
                .expect("valid method");
        let cfg = MeasureConfig {
            iterations: 2,
            warmup: 1,
            batch: 4,
            timesteps: 12,
        };
        let m = measure(&mut session, &w.train, &cfg);
        assert!(m.tensor_peak > 0);
        assert!(m.alloc.reserved >= m.alloc.peak_allocated);
        assert!(m.peak(Category::Activations) > 0);
        // One run, two devices: the slower device models more time and
        // the larger context more bytes.
        let (a100, nano) = (DeviceModel::a100_80gb(), DeviceModel::jetson_nano());
        assert!(m.modeled_s(&a100) > 0.0);
        assert!(m.modeled_s(&nano) > m.modeled_s(&a100));
        assert!(m.overall_bytes(&a100) > m.alloc.reserved);
        assert!(m.overall_bytes(&nano) > m.overall_bytes(&a100));
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(512 << 20), "512.0 MiB");
        assert_eq!(human_bytes(3 << 30), "3.00 GiB");
    }
}
