//! DVS-style address-event datasets and binning.
//!
//! Event cameras report sparse asynchronous brightness changes as
//! `(x, y, p, t)` tuples. Two synthetic generators mimic the paper's
//! neuromorphic datasets:
//!
//! * **synthetic DVS-Gesture** ([`synth_dvs_gesture`], 11 classes): a bright
//!   object moves along a class-specific trajectory (direction, oscillation
//!   and speed encode the class, standing in for gesture kinematics);
//! * **synthetic N-MNIST** ([`synth_nmnist`], 10 classes): a static
//!   class-prototype pattern is swept through the three saccade motions the
//!   ATIS sensor performed over MNIST digits.
//!
//! Events are produced by a simulated DVS pixel: a change detector fires an
//! ON/OFF event whenever the log-intensity at a pixel moves by more than a
//! threshold since that pixel's last event. [`bin_events`] then integrates
//! events into `[2, H, W]` polarity spike frames, the format the paper's
//! SNNs consume.

use skipper_memprof::{Category, CategoryGuard};
use skipper_tensor::{Tensor, XorShiftRng};

/// One address event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Column.
    pub x: u16,
    /// Row.
    pub y: u16,
    /// `true` = ON (brightness increase).
    pub polarity: bool,
    /// Timestamp in microsteps `[0, duration)`.
    pub t: u32,
}

/// An event stream from one recording.
#[derive(Debug, Clone, Default)]
pub struct EventStream {
    /// Events ordered by timestamp.
    pub events: Vec<Event>,
    /// Sensor height = width.
    pub hw: usize,
    /// Length of the recording in microsteps.
    pub duration: u32,
}

/// A labelled set of event streams.
#[derive(Debug, Clone)]
pub struct EventDataset {
    streams: Vec<EventStream>,
    labels: Vec<usize>,
    num_classes: usize,
    hw: usize,
}

impl EventDataset {
    /// Number of recordings.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Sensor resolution.
    pub fn hw(&self) -> usize {
        self.hw
    }

    /// Recording `i` as `(stream, label)`.
    pub fn sample(&self, i: usize) -> (&EventStream, usize) {
        (&self.streams[i], self.labels[i])
    }
}

/// Configuration of the synthetic event generators.
#[derive(Debug, Clone)]
pub struct SynthEventConfig {
    /// Sensor height = width.
    pub hw: usize,
    /// Recordings per class (train split).
    pub train_per_class: usize,
    /// Recordings per class (test split).
    pub test_per_class: usize,
    /// Microsteps per recording.
    pub duration: u32,
    /// DVS change-detector threshold.
    pub threshold: f32,
    /// Background noise event rate per pixel per microstep.
    pub noise_rate: f32,
    /// Generator seed.
    pub seed: u64,
}

impl Default for SynthEventConfig {
    fn default() -> Self {
        SynthEventConfig {
            hw: 16,
            train_per_class: 24,
            test_per_class: 6,
            duration: 64,
            threshold: 0.15,
            noise_rate: 0.0005,
            seed: 11,
        }
    }
}

/// A frame renderer: writes the row-major `hw × hw` frame of microstep `t`,
/// placing the object once per frame.
type Scene = Box<dyn Fn(u32, &mut [f32])>;

/// Simulate a DVS sensor watching `scene`.
fn dvs_record(scene: &Scene, cfg: &SynthEventConfig, rng: &mut XorShiftRng) -> EventStream {
    let hw = cfg.hw;
    let mut last = vec![0.0f32; hw * hw];
    scene(0, &mut last);
    let mut frame = vec![0.0f32; hw * hw];
    let mut events = Vec::new();
    for t in 1..cfg.duration {
        scene(t, &mut frame);
        for (i, (&v, r)) in frame.iter().zip(&mut last).enumerate() {
            let (x, y) = ((i % hw) as u16, (i / hw) as u16);
            let event = |polarity| Event { x, y, polarity, t };
            let dv = v - *r;
            if dv.abs() >= cfg.threshold {
                events.push(event(dv > 0.0));
                *r = v;
            }
            if rng.next_f32() < cfg.noise_rate {
                events.push(event(rng.next_f32() < 0.5));
            }
        }
    }
    EventStream {
        events,
        hw,
        duration: cfg.duration,
    }
}

/// Fill the row-major `hw × hw` `frame` with `pixel(x, y)`.
fn render(frame: &mut [f32], hw: usize, pixel: impl Fn(usize, usize) -> f32) {
    for (i, v) in frame.iter_mut().enumerate() {
        *v = pixel(i % hw, i / hw);
    }
}

fn blob(cx: f32, cy: f32, sigma: f32, x: usize, y: usize) -> f32 {
    let dx = x as f32 - cx;
    let dy = y as f32 - cy;
    (-(dx * dx + dy * dy) / (2.0 * sigma * sigma)).exp()
}

/// Synthetic DVS-Gesture: 11 classes of object motion.
///
/// Class `k` selects a heading angle, an angular oscillation and a speed,
/// so every class has a distinct spatio-temporal event signature.
pub fn synth_dvs_gesture(cfg: &SynthEventConfig) -> (EventDataset, EventDataset) {
    synth_motion_dataset(cfg, 11, false)
}

/// Synthetic N-MNIST: 10 classes of static patterns under saccades.
pub fn synth_nmnist(cfg: &SynthEventConfig) -> (EventDataset, EventDataset) {
    synth_motion_dataset(cfg, 10, true)
}

fn synth_motion_dataset(
    cfg: &SynthEventConfig,
    num_classes: usize,
    saccade: bool,
) -> (EventDataset, EventDataset) {
    let make = |per_class: usize, salt: u64| {
        let mut streams = Vec::new();
        let mut labels = Vec::new();
        for class in 0..num_classes {
            let mut rng = XorShiftRng::new(
                cfg.seed ^ salt ^ ((class as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D)),
            );
            for _ in 0..per_class {
                let scene = if saccade {
                    saccade_scene(cfg, class, num_classes, &mut rng)
                } else {
                    gesture_scene(cfg, class, num_classes, &mut rng)
                };
                streams.push(dvs_record(&scene, cfg, &mut rng));
                labels.push(class);
            }
        }
        EventDataset {
            streams,
            labels,
            num_classes,
            hw: cfg.hw,
        }
    };
    (
        make(cfg.train_per_class, 0x1111),
        make(cfg.test_per_class, 0x8888),
    )
}

/// Moving-blob scene whose kinematics encode the class.
///
/// The blob oscillates along a class-specific axis through the image
/// centre, with a class-specific temporal frequency — the event histogram
/// of each class concentrates along a distinct line, and the event *timing*
/// differs too, so both spatial and temporal features are informative (as
/// with real gestures).
fn gesture_scene(
    cfg: &SynthEventConfig,
    class: usize,
    num_classes: usize,
    rng: &mut XorShiftRng,
) -> Scene {
    let hw = cfg.hw as f32;
    let angle = class as f32 / num_classes as f32 * std::f32::consts::PI;
    let cycles = 1.0 + (class % 3) as f32; // oscillation frequency
    let amp = hw * (0.22 + 0.08 * ((class / 3) % 2) as f32);
    let phase = rng.next_f32() * 0.6; // small start-phase jitter
    let (jx, jy) = (rng.next_f32() * 2.0 - 1.0, rng.next_f32() * 2.0 - 1.0);
    let sigma = hw * 0.12;
    let duration = cfg.duration as f32;
    let side = cfg.hw;
    Box::new(move |t, frame| {
        let tf = t as f32 / duration * std::f32::consts::TAU;
        let s = (cycles * tf + phase).sin();
        let cx = hw * 0.5 + jx + amp * s * angle.cos();
        let cy = hw * 0.5 + jy + amp * s * angle.sin();
        render(frame, side, |x, y| blob(cx, cy, sigma, x, y));
    })
}

/// Static class pattern swept by three saccades (N-MNIST style).
fn saccade_scene(
    cfg: &SynthEventConfig,
    class: usize,
    num_classes: usize,
    rng: &mut XorShiftRng,
) -> Scene {
    let hw = cfg.hw;
    // Class pattern: two blobs at class-specific locations.
    let a = class as f32 / num_classes as f32 * std::f32::consts::TAU;
    let (c1x, c1y) = (
        hw as f32 * (0.5 + 0.25 * a.cos()),
        hw as f32 * (0.5 + 0.25 * a.sin()),
    );
    let (c2x, c2y) = (
        hw as f32 * (0.5 - 0.2 * (a * 2.0).cos()),
        hw as f32 * (0.5 - 0.2 * (a * 2.0).sin()),
    );
    let sigma = hw as f32 * 0.1;
    let jx = rng.next_f32() * 2.0 - 1.0;
    let jy = rng.next_f32() * 2.0 - 1.0;
    let third = cfg.duration / 3;
    let amp = hw as f32 * 0.12;
    // The pattern is sampled at integer pixels only, so it is one table
    // over the sensor that each frame reads shifted.
    let mut pattern = vec![0.0f32; hw * hw];
    render(&mut pattern, hw, |x, y| {
        blob(c1x, c1y, sigma, x, y).max(blob(c2x, c2y, sigma, x, y))
    });
    Box::new(move |t, frame| {
        // Saccades: right-down, left-down, up (like the ATIS recording).
        let seg = (t / third.max(1)).min(2);
        let f = (t % third.max(1)) as f32 / third.max(1) as f32;
        let (ox, oy) = match seg {
            0 => (amp * f, amp * f * 0.5),
            1 => (amp * (1.0 - f), amp * (0.5 + f * 0.5)),
            _ => (0.0, amp * (1.0 - f)),
        };
        // A shift past the left or top edge saturates to pixel 0.
        render(frame, hw, |x, y| {
            let px = (x as f32 - ox - jx) as usize % hw;
            let py = (y as f32 - oy - jy) as usize % hw;
            pattern[py * hw + px]
        });
    })
}

/// Integrate one stream into `timesteps` polarity frames `[2, H, W]`
/// (element = spike if ≥1 event of that polarity fell in the bin).
pub fn bin_events(stream: &EventStream, timesteps: usize) -> Vec<Tensor> {
    let _cat = CategoryGuard::new(Category::Input);
    let hw = stream.hw;
    let mut frames = vec![vec![0.0f32; 2 * hw * hw]; timesteps];
    let scale = timesteps as f64 / stream.duration.max(1) as f64;
    for e in &stream.events {
        let bin = ((e.t as f64 * scale) as usize).min(timesteps - 1);
        let pol = usize::from(e.polarity);
        frames[bin][(pol * hw + e.y as usize) * hw + e.x as usize] = 1.0;
    }
    frames
        .into_iter()
        .map(|f| Tensor::from_vec(f, [2, hw, hw]))
        .collect()
}

/// Bin a batch of streams into `timesteps` tensors of shape `[B,2,H,W]`.
pub fn event_batch(
    dataset: &EventDataset,
    indices: &[usize],
    timesteps: usize,
) -> (Vec<Tensor>, Vec<usize>) {
    let _cat = CategoryGuard::new(Category::Input);
    let hw = dataset.hw();
    let b = indices.len();
    let per = 2 * hw * hw;
    let mut frames = vec![vec![0.0f32; b * per]; timesteps];
    let mut labels = Vec::with_capacity(b);
    for (bi, &i) in indices.iter().enumerate() {
        let (stream, label) = dataset.sample(i);
        labels.push(label);
        let scale = timesteps as f64 / stream.duration.max(1) as f64;
        for e in &stream.events {
            let bin = ((e.t as f64 * scale) as usize).min(timesteps - 1);
            let pol = usize::from(e.polarity);
            frames[bin][bi * per + (pol * hw + e.y as usize) * hw + e.x as usize] = 1.0;
        }
    }
    (
        frames
            .into_iter()
            .map(|f| Tensor::from_vec(f, [b, 2, hw, hw]))
            .collect(),
        labels,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-pixel renderer [`Scene`] replaced: the scene's pose is
    /// recomputed for every pixel of every frame.
    type PixelScene = Box<dyn Fn(usize, usize, u32) -> f32>;

    fn reference_record(
        scene: &PixelScene,
        cfg: &SynthEventConfig,
        rng: &mut XorShiftRng,
    ) -> EventStream {
        let hw = cfg.hw;
        let mut last = vec![0.0f32; hw * hw];
        for y in 0..hw {
            for x in 0..hw {
                last[y * hw + x] = scene(x, y, 0);
            }
        }
        let mut events = Vec::new();
        for t in 1..cfg.duration {
            for y in 0..hw {
                for x in 0..hw {
                    let v = scene(x, y, t);
                    let r = &mut last[y * hw + x];
                    let dv = v - *r;
                    if dv.abs() >= cfg.threshold {
                        events.push(Event {
                            x: x as u16,
                            y: y as u16,
                            polarity: dv > 0.0,
                            t,
                        });
                        *r = v;
                    }
                    if rng.next_f32() < cfg.noise_rate {
                        events.push(Event {
                            x: x as u16,
                            y: y as u16,
                            polarity: rng.next_f32() < 0.5,
                            t,
                        });
                    }
                }
            }
        }
        EventStream {
            events,
            hw,
            duration: cfg.duration,
        }
    }

    fn reference_gesture(
        cfg: &SynthEventConfig,
        class: usize,
        num_classes: usize,
        rng: &mut XorShiftRng,
    ) -> PixelScene {
        let hw = cfg.hw as f32;
        let angle = class as f32 / num_classes as f32 * std::f32::consts::PI;
        let cycles = 1.0 + (class % 3) as f32;
        let amp = hw * (0.22 + 0.08 * ((class / 3) % 2) as f32);
        let phase = rng.next_f32() * 0.6;
        let (jx, jy) = (rng.next_f32() * 2.0 - 1.0, rng.next_f32() * 2.0 - 1.0);
        let sigma = hw * 0.12;
        let duration = cfg.duration as f32;
        Box::new(move |x, y, t| {
            let tf = t as f32 / duration * std::f32::consts::TAU;
            let s = (cycles * tf + phase).sin();
            let cx = hw * 0.5 + jx + amp * s * angle.cos();
            let cy = hw * 0.5 + jy + amp * s * angle.sin();
            blob(cx, cy, sigma, x, y)
        })
    }

    fn reference_saccade(
        cfg: &SynthEventConfig,
        class: usize,
        num_classes: usize,
        rng: &mut XorShiftRng,
    ) -> PixelScene {
        let hw = cfg.hw;
        let a = class as f32 / num_classes as f32 * std::f32::consts::TAU;
        let (c1x, c1y) = (
            hw as f32 * (0.5 + 0.25 * a.cos()),
            hw as f32 * (0.5 + 0.25 * a.sin()),
        );
        let (c2x, c2y) = (
            hw as f32 * (0.5 - 0.2 * (a * 2.0).cos()),
            hw as f32 * (0.5 - 0.2 * (a * 2.0).sin()),
        );
        let sigma = hw as f32 * 0.1;
        let jx = rng.next_f32() * 2.0 - 1.0;
        let jy = rng.next_f32() * 2.0 - 1.0;
        let third = cfg.duration / 3;
        let amp = hw as f32 * 0.12;
        Box::new(move |x, y, t| {
            let seg = (t / third.max(1)).min(2);
            let f = (t % third.max(1)) as f32 / third.max(1) as f32;
            let (ox, oy) = match seg {
                0 => (amp * f, amp * f * 0.5),
                1 => (amp * (1.0 - f), amp * (0.5 + f * 0.5)),
                _ => (0.0, amp * (1.0 - f)),
            };
            let px = x as f32 - ox - jx;
            let py = y as f32 - oy - jy;
            blob(c1x, c1y, sigma, px as usize % hw, py.max(0.0) as usize % hw).max(blob(
                c2x,
                c2y,
                sigma,
                px.max(0.0) as usize % hw,
                py.max(0.0) as usize % hw,
            ))
        })
    }

    /// Both splits of a generator, built with the per-pixel reference.
    fn reference_dataset(
        cfg: &SynthEventConfig,
        num_classes: usize,
        saccade: bool,
    ) -> Vec<Vec<EventStream>> {
        [(cfg.train_per_class, 0x1111), (cfg.test_per_class, 0x8888)]
            .into_iter()
            .map(|(per_class, salt)| {
                let mut streams = Vec::new();
                for class in 0..num_classes {
                    let mut rng = XorShiftRng::new(
                        cfg.seed ^ salt ^ ((class as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D)),
                    );
                    for _ in 0..per_class {
                        let scene = if saccade {
                            reference_saccade(cfg, class, num_classes, &mut rng)
                        } else {
                            reference_gesture(cfg, class, num_classes, &mut rng)
                        };
                        streams.push(reference_record(&scene, cfg, &mut rng));
                    }
                }
                streams
            })
            .collect()
    }

    fn streams(dataset: &EventDataset) -> Vec<Vec<Event>> {
        (0..dataset.len())
            .map(|i| dataset.sample(i).0.events.clone())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Rendering whole frames, with the pose computed once per frame,
        /// gives the per-pixel reference's frames bit for bit and its event
        /// streams exactly: the same float expressions, and the same RNG
        /// draws in the same order.
        #[test]
        fn frame_renderer_matches_the_per_pixel_reference(
            side in 0usize..3,
            duration in 2u32..40,
            noise in 0usize..4,
            seed in 0u64..1_000_000,
            saccade in 0u8..2,
        ) {
            // Durations off a multiple of 3 leave the last saccade a
            // remainder.
            let duration = if duration % 3 == 0 { duration + 1 } else { duration };
            let cfg = SynthEventConfig {
                hw: [8, 16, 32][side],
                train_per_class: 1,
                test_per_class: 1,
                duration,
                noise_rate: [0.0, 0.0005, 0.01, 0.2][noise],
                seed,
                ..SynthEventConfig::default()
            };
            let saccade = saccade == 1;
            let (classes, (train, test)) = if saccade {
                (10, synth_nmnist(&cfg))
            } else {
                (11, synth_dvs_gesture(&cfg))
            };
            // Every frame, bit for bit, for scenes built from one RNG state.
            for class in 0..classes {
                let mut rng = XorShiftRng::new(seed ^ class as u64);
                let mut reference_rng = rng.clone();
                let (scene, pixels) = if saccade {
                    (
                        saccade_scene(&cfg, class, classes, &mut rng),
                        reference_saccade(&cfg, class, classes, &mut reference_rng),
                    )
                } else {
                    (
                        gesture_scene(&cfg, class, classes, &mut rng),
                        reference_gesture(&cfg, class, classes, &mut reference_rng),
                    )
                };
                let mut frame = vec![0.0f32; cfg.hw * cfg.hw];
                for t in 0..duration {
                    scene(t, &mut frame);
                    for (i, v) in frame.iter().enumerate() {
                        let want = pixels(i % cfg.hw, i / cfg.hw, t);
                        prop_assert_eq!(v.to_bits(), want.to_bits());
                    }
                }
                prop_assert_eq!(rng, reference_rng);
            }
            let reference = reference_dataset(&cfg, classes, saccade);
            for (split, want) in [train, test].iter().zip(&reference) {
                prop_assert_eq!(split.len(), want.len());
                let want: Vec<Vec<Event>> = want.iter().map(|s| s.events.clone()).collect();
                prop_assert_eq!(streams(split), want);
            }
        }
    }

    #[test]
    fn gesture_dataset_shape_and_determinism() {
        let cfg = SynthEventConfig {
            train_per_class: 2,
            test_per_class: 1,
            ..SynthEventConfig::default()
        };
        let (train, test) = synth_dvs_gesture(&cfg);
        assert_eq!(train.len(), 22);
        assert_eq!(test.len(), 11);
        assert_eq!(train.num_classes(), 11);
        let (again, _) = synth_dvs_gesture(&cfg);
        assert_eq!(train.sample(5).0.events, again.sample(5).0.events);
    }

    #[test]
    fn streams_contain_sorted_in_range_events() {
        let cfg = SynthEventConfig {
            train_per_class: 1,
            test_per_class: 1,
            ..SynthEventConfig::default()
        };
        let (train, _) = synth_dvs_gesture(&cfg);
        for i in 0..train.len() {
            let (s, _) = train.sample(i);
            assert!(!s.events.is_empty(), "moving object must emit events");
            let mut prev = 0;
            for e in &s.events {
                assert!(e.t >= prev && e.t < s.duration);
                assert!((e.x as usize) < s.hw && (e.y as usize) < s.hw);
                prev = e.t;
            }
        }
    }

    #[test]
    fn nmnist_has_ten_classes_and_events() {
        let cfg = SynthEventConfig {
            train_per_class: 1,
            test_per_class: 1,
            ..SynthEventConfig::default()
        };
        let (train, _) = synth_nmnist(&cfg);
        assert_eq!(train.num_classes(), 10);
        assert!(train.sample(0).0.events.len() > 5);
    }

    #[test]
    fn binning_is_binary_and_preserves_activity() {
        let cfg = SynthEventConfig::default();
        let (train, _) = synth_dvs_gesture(&SynthEventConfig {
            train_per_class: 1,
            test_per_class: 1,
            ..cfg
        });
        let (stream, _) = train.sample(0);
        let frames = bin_events(stream, 8);
        assert_eq!(frames.len(), 8);
        let total: f64 = frames.iter().map(|f| f.sum()).sum();
        assert!(total > 0.0);
        for f in &frames {
            assert_eq!(f.shape().dims(), &[2, 16, 16]);
            assert!(f.data().iter().all(|&v| v == 0.0 || v == 1.0));
        }
    }

    #[test]
    fn event_batch_matches_individual_binning() {
        let cfg = SynthEventConfig {
            train_per_class: 2,
            test_per_class: 1,
            ..SynthEventConfig::default()
        };
        let (train, _) = synth_dvs_gesture(&cfg);
        let (batched, labels) = event_batch(&train, &[0, 3], 6);
        assert_eq!(batched.len(), 6);
        assert_eq!(batched[0].shape().dims(), &[2, 2, 16, 16]);
        assert_eq!(labels, vec![0, 1]);
        let solo = bin_events(train.sample(3).0, 6);
        for t in 0..6 {
            let per = 2 * 16 * 16;
            assert_eq!(&batched[t].data()[per..], solo[t].data());
        }
    }

    #[test]
    fn classes_have_distinct_event_signatures() {
        // Spatial event histograms concentrate along a class-specific axis,
        // so intra-class histogram distance must undercut inter-class.
        let cfg = SynthEventConfig {
            train_per_class: 3,
            test_per_class: 1,
            noise_rate: 0.0,
            ..SynthEventConfig::default()
        };
        let (train, _) = synth_dvs_gesture(&cfg);
        let hist = |i: usize| -> Vec<f64> {
            let (s, _) = train.sample(i);
            let mut h = vec![0.0f64; s.hw * s.hw];
            for e in &s.events {
                h[e.y as usize * s.hw + e.x as usize] += 1.0;
            }
            let norm: f64 = h.iter().map(|v| v * v).sum::<f64>().sqrt();
            h.iter().map(|v| v / norm.max(1e-12)).collect()
        };
        let dist =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum() };
        let (mut intra, mut inter, mut ni, mut nx) = (0.0, 0.0, 0, 0);
        for i in 0..train.len() {
            for j in (i + 1)..train.len() {
                let d = dist(&hist(i), &hist(j));
                if train.sample(i).1 == train.sample(j).1 {
                    intra += d;
                    ni += 1;
                } else {
                    inter += d;
                    nx += 1;
                }
            }
        }
        let (intra, inter) = (intra / ni as f64, inter / nx as f64);
        assert!(
            intra * 1.5 < inter,
            "histograms not separable: intra {intra} vs inter {inter}"
        );
    }
}
