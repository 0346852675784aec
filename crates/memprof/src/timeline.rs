//! Within-iteration memory timelines.
//!
//! The defining visual of activation checkpointing is the *shape* of
//! memory over one training iteration: baseline BPTT ramps up for the
//! whole forward pass and drains during the backward (one big sawtooth),
//! while a checkpointed iteration shows `C` small humps, and Skipper's
//! humps are smaller still. This module reconstructs that curve from the
//! tracker's [`AllocEvent`] log — no instrumentation inside the trainers
//! required.

use crate::category::Category;
use crate::tracker::AllocEvent;
use serde::{Deserialize, Serialize};

/// Live bytes after one allocation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelinePoint {
    /// Index of the event this point follows.
    pub event_index: usize,
    /// Live bytes per category.
    pub live: [u64; Category::COUNT],
    /// Total live bytes.
    pub total: u64,
}

impl TimelinePoint {
    /// Live bytes of one category.
    pub fn live(&self, category: Category) -> u64 {
        self.live[category.index()]
    }
}

/// Replay `events` into a per-event live-bytes curve.
pub fn timeline_from_events(events: &[AllocEvent]) -> Vec<TimelinePoint> {
    let mut live = [0u64; Category::COUNT];
    let mut total = 0u64;
    events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let slot = &mut live[e.category.index()];
            if e.is_alloc {
                *slot += e.bytes;
                total += e.bytes;
            } else {
                *slot = slot.saturating_sub(e.bytes);
                total = total.saturating_sub(e.bytes);
            }
            TimelinePoint {
                event_index: i,
                live,
                total,
            }
        })
        .collect()
}

/// Reduce a timeline to at most `n` points, keeping each bucket's maximum
/// (so peaks survive downsampling).
#[expect(clippy::expect_used, reason = "chunks() never yields an empty slice")]
pub fn downsample(points: &[TimelinePoint], n: usize) -> Vec<TimelinePoint> {
    if points.len() <= n || n == 0 {
        return points.to_vec();
    }
    let bucket = points.len().div_ceil(n);
    points
        .chunks(bucket)
        .map(|chunk| {
            *chunk
                .iter()
                .max_by_key(|p| p.total)
                .expect("chunks are non-empty")
        })
        .collect()
}

/// Render one category of a timeline as a unicode sparkline.
pub fn sparkline(points: &[TimelinePoint], category: Category) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = points
        .iter()
        .map(|p| p.live(category))
        .max()
        .unwrap_or(0)
        .max(1);
    points
        .iter()
        .map(|p| {
            let idx = (p.live(category) * (BARS.len() as u64 - 1) + max / 2) / max;
            BARS[idx as usize]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, bytes: u64, is_alloc: bool, category: Category) -> AllocEvent {
        AllocEvent {
            id,
            bytes,
            is_alloc,
            category,
        }
    }

    #[test]
    fn timeline_tracks_rise_and_fall() {
        let events = vec![
            ev(0, 100, true, Category::Activations),
            ev(1, 50, true, Category::Activations),
            ev(0, 100, false, Category::Activations),
            ev(1, 50, false, Category::Activations),
        ];
        let tl = timeline_from_events(&events);
        let totals: Vec<u64> = tl.iter().map(|p| p.total).collect();
        assert_eq!(totals, vec![100, 150, 50, 0]);
        assert_eq!(tl[1].live(Category::Activations), 150);
    }

    #[test]
    fn categories_are_separate() {
        let events = vec![
            ev(0, 10, true, Category::Weights),
            ev(1, 20, true, Category::Activations),
        ];
        let tl = timeline_from_events(&events);
        assert_eq!(tl[1].live(Category::Weights), 10);
        assert_eq!(tl[1].live(Category::Activations), 20);
        assert_eq!(tl[1].total, 30);
    }

    #[test]
    fn downsample_preserves_the_peak() {
        let events: Vec<AllocEvent> = (0..100)
            .map(|i| ev(i, 8, true, Category::Other))
            .chain((0..100).map(|i| ev(i, 8, false, Category::Other)))
            .collect();
        let tl = timeline_from_events(&events);
        let peak = tl.iter().map(|p| p.total).max().unwrap();
        let small = downsample(&tl, 10);
        assert!(small.len() <= 10 + 1);
        assert_eq!(small.iter().map(|p| p.total).max().unwrap(), peak);
    }

    #[test]
    fn sparkline_has_one_char_per_point() {
        let events = vec![
            ev(0, 1, true, Category::Activations),
            ev(1, 100, true, Category::Activations),
        ];
        let tl = timeline_from_events(&events);
        let s = sparkline(&tl, Category::Activations);
        assert_eq!(s.chars().count(), 2);
        assert!(s.ends_with('█'));
    }

    #[test]
    fn empty_events_give_empty_timeline() {
        assert!(timeline_from_events(&[]).is_empty());
        assert_eq!(downsample(&[], 10).len(), 0);
    }
}
