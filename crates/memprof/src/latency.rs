//! Op logging and the analytic GPU latency model.
//!
//! Tensor kernels call [`record_op`] with their FLOP and byte-traffic
//! counts. A trainer drains the log per phase ([`take_op_log`]) and the
//! [`LatencyModel`] converts it into a modeled device time using the
//! roofline of [`DeviceModel::kernel_time_s`]. Because every kernel pays a
//! fixed launch overhead, small batches are overhead-dominated and large
//! batches compute-dominated — exactly the behaviour behind the paper's
//! batch-size sweeps (Figs. 3(e,f), 10, 11).

use crate::device::DeviceModel;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Coarse kind of a compute kernel, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Dense matrix multiplication.
    MatMul,
    /// 2-D convolution (forward or backward).
    Conv,
    /// Elementwise arithmetic, thresholding, surrogate gradients.
    Elementwise,
    /// Pooling.
    Pool,
    /// Reductions (sums, losses).
    Reduce,
    /// Memory movement without arithmetic.
    Copy,
    /// Optimizer update kernels.
    Optimizer,
    /// Anything else.
    Other,
}

/// One logged kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpRecord {
    /// Kernel kind.
    pub kind: OpKind,
    /// Floating-point operations performed.
    pub flops: f64,
    /// Bytes read + written.
    pub bytes: f64,
}

/// A drained sequence of kernel records.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OpLog {
    records: Vec<OpRecord>,
}

impl OpLog {
    /// Log containing no ops.
    pub fn new() -> OpLog {
        OpLog::default()
    }

    /// Number of kernels logged.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no kernels were logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total floating point operations.
    pub fn total_flops(&self) -> f64 {
        self.records.iter().map(|r| r.flops).sum()
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> f64 {
        self.records.iter().map(|r| r.bytes).sum()
    }

    /// Iterate over the records.
    pub fn iter(&self) -> impl Iterator<Item = &OpRecord> {
        self.records.iter()
    }

    /// Append another log.
    pub fn extend(&mut self, other: OpLog) {
        self.records.extend(other.records);
    }

    /// Append a single record.
    pub fn push(&mut self, record: OpRecord) {
        self.records.push(record);
    }
}

impl FromIterator<OpRecord> for OpLog {
    fn from_iter<I: IntoIterator<Item = OpRecord>>(iter: I) -> Self {
        OpLog {
            records: iter.into_iter().collect(),
        }
    }
}

thread_local! {
    static OP_LOG: RefCell<OpLog> = RefCell::new(OpLog::new());
    static LOGGING: RefCell<bool> = const { RefCell::new(true) };
}

/// Record one kernel invocation on the calling thread's log.
#[inline]
pub fn record_op(kind: OpKind, flops: f64, bytes: f64) {
    let on = LOGGING.with(|l| *l.borrow());
    if !on {
        return;
    }
    OP_LOG.with(|log| log.borrow_mut().push(OpRecord { kind, flops, bytes }));
}

/// Drain and return the calling thread's op log.
pub fn take_op_log() -> OpLog {
    OP_LOG.with(|log| std::mem::take(&mut *log.borrow_mut()))
}

/// Turn op logging off on this thread (it is on by default) until the
/// returned guard is dropped. For kernels that are not a training
/// iteration's cost, and for threads whose log nothing drains (serving,
/// a cluster worker), where the records would pile up for good.
#[must_use = "logging resumes when the guard is dropped"]
pub fn pause_op_log() -> OpLogPause {
    OpLogPause {
        was_logging: LOGGING.with(|l| std::mem::replace(&mut *l.borrow_mut(), false)),
    }
}

/// Restores this thread's op-logging setting when dropped; see
/// [`pause_op_log`].
#[derive(Debug)]
pub struct OpLogPause {
    was_logging: bool,
}

impl Drop for OpLogPause {
    fn drop(&mut self) {
        LOGGING.with(|l| *l.borrow_mut() = self.was_logging);
    }
}

/// Converts op logs into modeled device time.
#[derive(Debug, Clone, Default)]
pub struct LatencyModel {
    device: DeviceModel,
}

impl LatencyModel {
    /// Model running on `device`.
    pub fn new(device: DeviceModel) -> LatencyModel {
        LatencyModel { device }
    }

    /// The device being modeled.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Modeled execution time of `log` in seconds (kernels serialized, as on
    /// a single CUDA stream).
    pub fn time_s(&self, log: &OpLog) -> f64 {
        log.iter()
            .map(|r| self.device.kernel_time_s(r.flops, r.bytes))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_drain() {
        take_op_log();
        record_op(OpKind::MatMul, 100.0, 10.0);
        record_op(OpKind::Elementwise, 1.0, 8.0);
        let log = take_op_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log.total_flops(), 101.0);
        assert!(take_op_log().is_empty());
    }

    #[test]
    fn logging_can_be_paused() {
        take_op_log();
        let pause = pause_op_log();
        record_op(OpKind::Other, 5.0, 5.0);
        drop(pause);
        assert!(take_op_log().is_empty());
        record_op(OpKind::Other, 5.0, 5.0);
        assert_eq!(take_op_log().len(), 1);
    }

    #[test]
    fn model_time_sums_kernels() {
        let model = LatencyModel::new(DeviceModel::a100_80gb());
        let log: OpLog = vec![
            OpRecord {
                kind: OpKind::MatMul,
                flops: 1e12,
                bytes: 1e6,
            };
            2
        ]
        .into_iter()
        .collect();
        let t = model.time_s(&log);
        let single = model.device().kernel_time_s(1e12, 1e6);
        assert!((t - 2.0 * single).abs() < 1e-12);
    }

    #[test]
    fn more_kernels_cost_more_overhead() {
        let model = LatencyModel::new(DeviceModel::a100_80gb());
        let work = OpRecord {
            kind: OpKind::Elementwise,
            flops: 1.0,
            bytes: 1.0,
        };
        let few: OpLog = std::iter::repeat_n(work, 10).collect();
        let many: OpLog = std::iter::repeat_n(work, 1000).collect();
        assert!(model.time_s(&many) > 50.0 * model.time_s(&few));
    }
}
