//! Thread-local, byte-exact accounting of live and peak tensor memory.
//!
//! Every tensor storage in the workspace owns a [`Registration`]; creating
//! the registration adds the storage's bytes to the current thread's
//! tracker under the *current category* (see [`CategoryGuard`]), dropping it
//! subtracts them again. Peaks are maintained per category **and** for the
//! total, because the paper reports both per-category breakdowns
//! (Figs. 3(c,d), 4(a)) and overall peaks (Figs. 7, 12, 14).
//!
//! The tracker is thread-local so that parallel tests do not interfere; the
//! training code in this workspace drops every tensor on the thread that
//! allocated it (compute kernels run on their caller's thread, and the shard
//! pool keeps each worker's tensors on that worker), which keeps the books
//! consistent.

use crate::category::Category;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// One allocation or deallocation, as consumed by
/// [`CachingAllocator`](crate::alloc_model::CachingAllocator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocEvent {
    /// Monotonically increasing id of the allocation this event belongs to.
    pub id: u64,
    /// Size of the allocation in bytes (un-rounded).
    pub bytes: u64,
    /// `true` for allocation, `false` for free.
    pub is_alloc: bool,
    /// Category active when the allocation was made.
    pub category: Category,
}

#[derive(Debug, Default)]
struct TrackerState {
    live: [u64; Category::COUNT],
    peak: [u64; Category::COUNT],
    total_live: u64,
    total_peak: u64,
    current: Category,
    next_id: u64,
    events: Option<Vec<AllocEvent>>,
}

thread_local! {
    static TRACKER: RefCell<TrackerState> = RefCell::new(TrackerState::default());
}

/// Ticket held by a tensor storage for the duration of its life.
///
/// Creating a `Registration` books `bytes` under the current thread's
/// current [`Category`]; dropping it releases them. The registration must be
/// dropped on the thread that created it (guaranteed within this workspace,
/// where tracked storages never cross threads).
#[derive(Debug)]
pub struct Registration {
    bytes: u64,
    category: Category,
    id: u64,
}

impl Registration {
    /// Book `bytes` under the current category of the calling thread.
    pub fn new(bytes: u64) -> Registration {
        Self::with_category(bytes, current_category())
    }

    /// Book `bytes` under an explicit category, ignoring the scoped one.
    pub fn with_category(bytes: u64, category: Category) -> Registration {
        let id = TRACKER.with(|t| {
            let mut t = t.borrow_mut();
            let id = t.next_id;
            t.next_id += 1;
            let i = category.index();
            t.live[i] += bytes;
            t.peak[i] = t.peak[i].max(t.live[i]);
            t.total_live += bytes;
            t.total_peak = t.total_peak.max(t.total_live);
            if let Some(events) = t.events.as_mut() {
                events.push(AllocEvent {
                    id,
                    bytes,
                    is_alloc: true,
                    category,
                });
            }
            id
        });
        Registration {
            bytes,
            category,
            id,
        }
    }

    /// Size booked by this registration, in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Category the bytes were booked under.
    pub fn category(&self) -> Category {
        self.category
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        TRACKER.with(|t| {
            let mut t = t.borrow_mut();
            let i = self.category.index();
            t.live[i] = t.live[i].saturating_sub(self.bytes);
            t.total_live = t.total_live.saturating_sub(self.bytes);
            if let Some(events) = t.events.as_mut() {
                events.push(AllocEvent {
                    id: self.id,
                    bytes: self.bytes,
                    is_alloc: false,
                    category: self.category,
                });
            }
        });
    }
}

/// Scoped override of the category new registrations are booked under.
///
/// Guards nest; dropping restores the previous category.
///
/// ```
/// use skipper_memprof::{Category, CategoryGuard, current_category};
/// assert_eq!(current_category(), Category::Other);
/// {
///     let _g = CategoryGuard::new(Category::Activations);
///     assert_eq!(current_category(), Category::Activations);
/// }
/// assert_eq!(current_category(), Category::Other);
/// ```
#[derive(Debug)]
pub struct CategoryGuard {
    previous: Category,
}

impl CategoryGuard {
    /// Make `category` the current one until the guard is dropped.
    pub fn new(category: Category) -> CategoryGuard {
        let previous = TRACKER.with(|t| {
            let mut t = t.borrow_mut();
            std::mem::replace(&mut t.current, category)
        });
        CategoryGuard { previous }
    }
}

impl Drop for CategoryGuard {
    fn drop(&mut self) {
        TRACKER.with(|t| t.borrow_mut().current = self.previous);
    }
}

/// The category new registrations on this thread are currently booked under.
pub fn current_category() -> Category {
    TRACKER.with(|t| t.borrow().current)
}

/// Immutable view of the tracker's live and peak counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemorySnapshot {
    live: [u64; Category::COUNT],
    peak: [u64; Category::COUNT],
    total_live: u64,
    total_peak: u64,
}

impl MemorySnapshot {
    /// Live bytes currently booked under `category`.
    pub fn live(&self, category: Category) -> u64 {
        self.live[category.index()]
    }

    /// Peak bytes ever booked under `category` since the last
    /// [`reset_peaks`].
    pub fn peak(&self, category: Category) -> u64 {
        self.peak[category.index()]
    }

    /// Sum of live bytes across all categories.
    pub fn total_live(&self) -> u64 {
        self.total_live
    }

    /// Peak of the *total* (which is ≤ the sum of per-category peaks,
    /// because categories usually do not peak simultaneously).
    pub fn total_peak(&self) -> u64 {
        self.total_peak
    }

    /// `(category, peak bytes)` pairs in display order.
    pub fn peaks(&self) -> impl Iterator<Item = (Category, u64)> + '_ {
        Category::ALL.iter().map(move |&c| (c, self.peak(c)))
    }

    /// Elementwise maximum of two snapshots.
    ///
    /// The tracker is thread-local, so a data-parallel iteration produces
    /// one snapshot per worker; merging with `max` models the device view
    /// where the workers are lanes of one accelerator and the iteration's
    /// footprint is bounded by the hungriest lane per category.
    pub fn merge_max(&self, other: &MemorySnapshot) -> MemorySnapshot {
        let mut out = *self;
        for i in 0..Category::COUNT {
            out.live[i] = out.live[i].max(other.live[i]);
            out.peak[i] = out.peak[i].max(other.peak[i]);
        }
        out.total_live = out.total_live.max(other.total_live);
        out.total_peak = out.total_peak.max(other.total_peak);
        out
    }
}

impl std::fmt::Display for MemorySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peak {} B [", self.total_peak)?;
        for (i, (c, p)) in self.peaks().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}: {p}")?;
        }
        write!(f, "]")
    }
}

/// Snapshot the calling thread's tracker.
pub fn snapshot() -> MemorySnapshot {
    TRACKER.with(|t| {
        let t = t.borrow();
        MemorySnapshot {
            live: t.live,
            peak: t.peak,
            total_live: t.total_live,
            total_peak: t.total_peak,
        }
    })
}

/// Publish `snapshot`'s per-category and total peaks as observability
/// gauges (`memprof.peak_bytes{category=...}` and
/// `memprof.peak_bytes{category=total}`).
///
/// The bridge between the byte-exact tracker and `skipper-obs`: callers
/// that already snapshot per iteration (e.g. the training runner) invoke
/// it so Perfetto traces grow counter tracks aligned with the span
/// timeline. No-op while tracing is disabled.
pub fn publish_peaks(snapshot: &MemorySnapshot) {
    if !skipper_obs::enabled() {
        return;
    }
    for (category, peak) in snapshot.peaks() {
        skipper_obs::gauge_set(
            &skipper_obs::labeled("memprof.peak_bytes", "category", category),
            peak as f64,
        );
    }
    skipper_obs::gauge_set(
        &skipper_obs::labeled("memprof.peak_bytes", "category", "total"),
        snapshot.total_peak() as f64,
    );
}

/// Reset every peak to the current live value (start of a new measurement
/// window, e.g. a training iteration).
pub fn reset_peaks() {
    TRACKER.with(|t| {
        let mut t = t.borrow_mut();
        t.peak = t.live;
        t.total_peak = t.total_live;
    });
}

/// Zero all counters, drop the event log, and reset the category.
///
/// Intended for test isolation only: live registrations created before the
/// reset will under-flow-saturate to zero on drop, so callers must ensure no
/// tracked storage is alive.
pub fn reset_all() {
    TRACKER.with(|t| *t.borrow_mut() = TrackerState::default());
}

thread_local! {
    static PRESSURE: RefCell<Vec<Registration>> = const { RefCell::new(Vec::new()) };
}

/// Book `bytes` of synthetic allocation pressure under `category` until
/// [`release_pressure`] is called.
///
/// This is the deterministic fault-injection hook used to exercise
/// memory-budget handling: the bytes count toward live and peak exactly
/// like real tensor storage, so budget governors and tests can provoke
/// "out of budget" conditions at a chosen iteration without allocating.
pub fn inject_pressure(bytes: u64, category: Category) {
    let registration = Registration::with_category(bytes, category);
    PRESSURE.with(|p| p.borrow_mut().push(registration));
}

/// Release every synthetic registration created by [`inject_pressure`] on
/// this thread, returning how many bytes were released.
pub fn release_pressure() -> u64 {
    PRESSURE.with(|p| {
        let drained = std::mem::take(&mut *p.borrow_mut());
        drained.iter().map(Registration::bytes).sum()
    })
}

/// Bytes of synthetic pressure currently injected on this thread.
pub fn injected_pressure() -> u64 {
    PRESSURE.with(|p| p.borrow().iter().map(Registration::bytes).sum())
}

/// Start recording allocation events for the caching-allocator model.
///
/// Recording stays on until [`take_events`] is called.
pub fn enable_event_log() {
    TRACKER.with(|t| {
        let mut t = t.borrow_mut();
        if t.events.is_none() {
            t.events = Some(Vec::new());
        }
    });
}

/// Stop recording and return the events captured since
/// [`enable_event_log`].
pub fn take_events() -> Vec<AllocEvent> {
    TRACKER.with(|t| t.borrow_mut().events.take().unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_and_peak_track_alloc_and_drop() {
        reset_all();
        let a = Registration::with_category(100, Category::Weights);
        {
            let _b = Registration::with_category(50, Category::Weights);
            assert_eq!(snapshot().live(Category::Weights), 150);
        }
        let s = snapshot();
        assert_eq!(s.live(Category::Weights), 100);
        assert_eq!(s.peak(Category::Weights), 150);
        assert_eq!(s.total_peak(), 150);
        drop(a);
        assert_eq!(snapshot().total_live(), 0);
    }

    #[test]
    fn category_guard_nests() {
        reset_all();
        let _g1 = CategoryGuard::new(Category::Activations);
        {
            let _g2 = CategoryGuard::new(Category::Input);
            let r = Registration::new(10);
            assert_eq!(r.category(), Category::Input);
        }
        let r = Registration::new(10);
        assert_eq!(r.category(), Category::Activations);
    }

    #[test]
    fn total_peak_counts_disjoint_lifetimes_once() {
        reset_all();
        {
            let _a = Registration::with_category(100, Category::Activations);
        }
        {
            let _b = Registration::with_category(100, Category::Input);
        }
        let s = snapshot();
        assert_eq!(s.peak(Category::Activations), 100);
        assert_eq!(s.peak(Category::Input), 100);
        assert_eq!(s.total_peak(), 100);
    }

    #[test]
    fn reset_peaks_rebases_to_live() {
        reset_all();
        let _a = Registration::with_category(40, Category::Other);
        {
            let _b = Registration::with_category(60, Category::Other);
        }
        assert_eq!(snapshot().peak(Category::Other), 100);
        reset_peaks();
        assert_eq!(snapshot().peak(Category::Other), 40);
    }

    #[test]
    fn event_log_records_alloc_and_free_in_order() {
        reset_all();
        enable_event_log();
        {
            let _a = Registration::with_category(64, Category::Workspace);
        }
        let events = take_events();
        assert_eq!(events.len(), 2);
        assert!(events[0].is_alloc && !events[1].is_alloc);
        assert_eq!(events[0].id, events[1].id);
        assert_eq!(events[0].bytes, 64);
    }

    #[test]
    fn injected_pressure_counts_until_released() {
        reset_all();
        inject_pressure(1 << 20, Category::Activations);
        let s = snapshot();
        assert_eq!(s.live(Category::Activations), 1 << 20);
        assert_eq!(s.peak(Category::Activations), 1 << 20);
        assert_eq!(injected_pressure(), 1 << 20);
        assert_eq!(release_pressure(), 1 << 20);
        assert_eq!(snapshot().live(Category::Activations), 0);
        assert_eq!(injected_pressure(), 0);
    }

    #[test]
    fn snapshot_display_is_nonempty() {
        reset_all();
        let _a = Registration::new(8);
        let text = snapshot().to_string();
        assert!(text.contains("peak"));
        assert!(text.contains("others"));
    }
}
