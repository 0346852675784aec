//! Synthetic stand-ins for the paper's datasets.
//!
//! The paper evaluates on CIFAR-10, CIFAR-100 (frame-based, Poisson
//! rate-coded), DVS-Gesture and N-MNIST (event-based, recorded with
//! neuromorphic vision sensors). Those datasets are not available in this
//! environment, so this crate generates **label-consistent synthetic
//! equivalents** that exercise the identical code paths (see `DESIGN.md`
//! for the substitution argument):
//!
//! * [`images`] — class-prototype image generators ("synthetic CIFAR"):
//!   each class is a smooth random pattern; samples add jitter, shift and
//!   noise. Learnable by the paper's topologies within a few epochs.
//! * [`events`] — DVS-style address-event streams `(x, y, p, t)`:
//!   class-coded moving objects for *synthetic DVS-Gesture* and
//!   saccade-style motion over static patterns for *synthetic N-MNIST*,
//!   plus the binning that turns event streams into `[2,H,W]` spike frames.
//! * [`loader`] — deterministic shuffling batch iteration.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod events;
pub mod images;
pub mod loader;

pub use events::{
    bin_events, event_batch, synth_dvs_gesture, synth_nmnist, Event, EventDataset, EventStream,
    SynthEventConfig,
};
pub use images::{synth_cifar, ImageDataset, SynthImageConfig};
pub use loader::BatchIter;
