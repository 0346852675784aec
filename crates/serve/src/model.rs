//! The model pool: the gateway's handle on "the current model".
//!
//! A [`ModelPool`] hands out `Arc<InferSession>` clones, so a hot reload
//! is one atomic pointer swap: in-flight micro-batches keep predicting on
//! the session they already hold while new batches pick up the reloaded
//! weights — no request ever observes a half-written model.
//!
//! A pool built with [`ModelPool::watching`] owns a network factory and a
//! `.skw` path; [`ModelPool::poll_reload`] stats the file and, when the
//! (mtime, length) stamp moved, builds a **fresh** network from the
//! factory, loads the weights into it, and swaps. Building fresh instead
//! of mutating the live network is what keeps the swap atomic —
//! `SpikingNetwork::share` aliases parameter storage, so loading into a
//! shared copy would tear the weights under a concurrent `predict`.

use skipper_core::{InferSession, SkipperError};
use skipper_snn::SpikingNetwork;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use crate::lock_unpoisoned;

/// Builds the network topology a watched `.skw` is loaded into.
pub type NetFactory = Box<dyn Fn() -> SpikingNetwork + Send + Sync>;

/// `(mtime, length)` stamp used to detect weight-file changes.
type Stamp = (SystemTime, u64);

struct WatchSource {
    factory: NetFactory,
    path: PathBuf,
    seen: Mutex<Option<Stamp>>,
}

impl std::fmt::Debug for WatchSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WatchSource")
            .field("path", &self.path)
            .finish()
    }
}

/// A swappable `Arc<InferSession>`; see the module docs.
#[derive(Debug)]
pub struct ModelPool {
    current: Mutex<Arc<InferSession>>,
    watch: Option<WatchSource>,
    reloads: AtomicU64,
}

impl ModelPool {
    /// A pool that always serves `session` (no hot reload).
    pub fn fixed(session: InferSession) -> ModelPool {
        ModelPool {
            current: Mutex::new(Arc::new(session)),
            watch: None,
            reloads: AtomicU64::new(0),
        }
    }

    /// A pool that serves `factory()` weights-loaded from the `.skw` at
    /// `path`, reloading whenever the file changes.
    ///
    /// # Errors
    ///
    /// The initial load must succeed — a gateway must not start serving
    /// uninitialized weights. I/O, container and shape errors propagate.
    pub fn watching(
        factory: NetFactory,
        path: impl Into<PathBuf>,
    ) -> Result<ModelPool, SkipperError> {
        let path = path.into();
        let session = build_session(&factory, &path)?;
        let seen = stamp(&path);
        Ok(ModelPool {
            current: Mutex::new(Arc::new(session)),
            watch: Some(WatchSource {
                factory,
                path,
                seen: Mutex::new(seen),
            }),
            reloads: AtomicU64::new(0),
        })
    }

    /// The current session. Callers hold the `Arc` across a whole
    /// micro-batch so a concurrent reload cannot tear their model.
    pub fn current(&self) -> Arc<InferSession> {
        Arc::clone(&lock_unpoisoned(&self.current))
    }

    /// Whether this pool watches a weight file.
    pub fn watches(&self) -> bool {
        self.watch.is_some()
    }

    /// Successful hot reloads since construction.
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// Check the watched file and swap in a freshly built session when
    /// its stamp moved. Returns `Ok(true)` on a swap, `Ok(false)` when
    /// unchanged (or not watching, or the file is momentarily absent —
    /// `.skw` writes go through a tmp-file rename, so absence is
    /// transient).
    ///
    /// # Errors
    ///
    /// A changed file that fails to load is an error; the previous
    /// session keeps serving.
    pub fn poll_reload(&self) -> Result<bool, SkipperError> {
        let Some(watch) = &self.watch else {
            return Ok(false);
        };
        let Some(now) = stamp(&watch.path) else {
            return Ok(false);
        };
        {
            let seen = lock_unpoisoned(&watch.seen);
            if *seen == Some(now) {
                return Ok(false);
            }
        }
        let session = build_session(&watch.factory, &watch.path)?;
        *lock_unpoisoned(&self.current) = Arc::new(session);
        *lock_unpoisoned(&watch.seen) = Some(now);
        self.reloads.fetch_add(1, Ordering::Relaxed);
        skipper_obs::counter_add("serve.model_reloads", 1.0);
        Ok(true)
    }
}

fn build_session(factory: &NetFactory, path: &Path) -> Result<InferSession, SkipperError> {
    let mut session = InferSession::new(factory());
    session.load_weights(path)?;
    Ok(session)
}

fn stamp(path: &Path) -> Option<Stamp> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_core::{Method, TrainSession};
    use skipper_snn::{custom_net, save_params, Adam, ModelConfig};
    use skipper_tensor::{Tensor, XorShiftRng};

    fn net() -> SpikingNetwork {
        custom_net(&ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        })
    }

    fn spikes(seed: u64, t: usize) -> Vec<Tensor> {
        let mut rng = XorShiftRng::new(seed);
        (0..t)
            .map(|_| Tensor::rand([2, 3, 8, 8], &mut rng).map(|x| (x > 0.5) as i32 as f32))
            .collect()
    }

    #[test]
    fn watching_pool_swaps_on_file_change_and_keeps_old_arc_alive() {
        let dir = std::env::temp_dir().join(format!("skipper-pool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.skw");
        save_params(net().params(), &path).unwrap();

        let pool = ModelPool::watching(Box::new(net), &path).unwrap();
        let before = pool.current();
        assert!(!pool.poll_reload().unwrap(), "unchanged file: no swap");

        // Train a couple of steps and overwrite the weights.
        let mut session = TrainSession::builder(net(), Method::Bptt, 4)
            .optimizer(Box::new(Adam::new(0.05)))
            .workers(1)
            .build()
            .unwrap();
        let inputs = spikes(1, 4);
        session.train_batch(&inputs, &[0, 1]);
        std::thread::sleep(std::time::Duration::from_millis(20));
        save_params(session.net().params(), &path).unwrap();

        assert!(pool.poll_reload().unwrap(), "changed file must swap");
        assert_eq!(pool.reloads(), 1);
        let after = pool.current();
        assert!(!Arc::ptr_eq(&before, &after));

        // The old handle still predicts — in-flight batches are safe —
        // and the two handles disagree, proving the swap took.
        let old = before.predict(&inputs).unwrap();
        let new = after.predict(&inputs).unwrap();
        assert!(old.logits.data().iter().all(|v| v.is_finite()));
        assert_ne!(old.logits.data(), new.logits.data());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fixed_pool_never_reloads() {
        let pool = ModelPool::fixed(InferSession::new(net()));
        assert!(!pool.watches());
        assert!(!pool.poll_reload().unwrap());
        assert_eq!(pool.reloads(), 0);
    }

    #[test]
    fn missing_watch_file_fails_construction() {
        let err = ModelPool::watching(Box::new(net), "/nonexistent/model.skw");
        assert!(err.is_err());
    }
}
