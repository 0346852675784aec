//! Event-driven model of a PyTorch-style caching device allocator.
//!
//! The paper's Fig. 13 splits overall device memory into *tensors*,
//! *PyTorch cache* and *CUDA context*. The cache exists because frameworks
//! never return freed blocks to the device: they round requests up, keep
//! freed blocks on free lists, and only `cudaMalloc` when no cached block
//! fits. `reserved` memory (what `nvidia-smi` sees on top of the context) is
//! therefore the **high watermark of blocks ever requested from the
//! device**, not the live tensor bytes.
//!
//! [`CachingAllocator`] replays the [`AllocEvent`] stream captured by the
//! [tracker](crate::tracker) and reports both numbers. The rounding rules
//! follow the CUDA caching allocator: small requests round to 512 B,
//! requests of 1 MiB or more round to 2 MiB blocks; a cached block may be
//! reused for a request of at most its size and at least half its size
//! (a stand-in for PyTorch's split-with-remainder policy).

use crate::tracker::AllocEvent;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Granularity of small allocations (bytes).
pub const SMALL_ROUND: u64 = 512;
/// Threshold above which allocations use large blocks (bytes).
pub const LARGE_THRESHOLD: u64 = 1 << 20;
/// Granularity of large allocations (bytes).
pub const LARGE_ROUND: u64 = 2 << 20;

/// Round a request up the way the caching allocator would.
pub fn round_size(bytes: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    if bytes >= LARGE_THRESHOLD {
        bytes.div_ceil(LARGE_ROUND) * LARGE_ROUND
    } else {
        bytes.div_ceil(SMALL_ROUND) * SMALL_ROUND
    }
}

/// Statistics after replaying an event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AllocStats {
    /// Peak of rounded, in-use bytes (analogue of `max_memory_allocated`).
    pub peak_allocated: u64,
    /// Bytes ever requested from the device (analogue of
    /// `max_memory_reserved`); never decreases.
    pub reserved: u64,
    /// Rounded bytes in use when the replay finished.
    pub live_allocated: u64,
    /// Number of allocations served from the cache.
    pub cache_hits: u64,
    /// Number of allocations that had to grow the reservation.
    pub cache_misses: u64,
}

impl AllocStats {
    /// Bytes held in the cache beyond live tensors at peak
    /// (`reserved − peak_allocated`).
    pub fn cache_overhead(&self) -> u64 {
        self.reserved.saturating_sub(self.peak_allocated)
    }
}

/// Model of a caching device allocator. See the module docs.
#[derive(Debug, Default)]
pub struct CachingAllocator {
    /// Free blocks: rounded size → count.
    free: BTreeMap<u64, u64>,
    /// Live allocation id → rounded size.
    live: HashMap<u64, u64>,
    allocated: u64,
    stats: AllocStats,
}

impl CachingAllocator {
    /// Fresh allocator with an empty cache.
    pub fn new() -> CachingAllocator {
        CachingAllocator::default()
    }

    /// Apply a single event.
    pub fn apply(&mut self, event: &AllocEvent) {
        if event.is_alloc {
            self.alloc(event.id, event.bytes);
        } else {
            self.free(event.id);
        }
    }

    /// Replay a whole event stream and return the resulting statistics.
    pub fn replay(events: &[AllocEvent]) -> AllocStats {
        let mut a = CachingAllocator::new();
        for e in events {
            a.apply(e);
        }
        a.stats()
    }

    fn alloc(&mut self, id: u64, bytes: u64) {
        let want = round_size(bytes);
        if want == 0 {
            self.live.insert(id, 0);
            return;
        }
        // Best fit: smallest cached block that fits and wastes at most 2x.
        let hit = self
            .free
            .range_mut(want..=want.saturating_mul(2))
            .next()
            .map(|(&size, count)| {
                *count -= 1;
                (size, *count == 0)
            });
        let granted = if let Some((size, emptied)) = hit {
            if emptied {
                self.free.remove(&size);
            }
            self.stats.cache_hits += 1;
            size
        } else {
            self.stats.reserved += want;
            self.stats.cache_misses += 1;
            want
        };
        self.allocated += granted;
        self.stats.peak_allocated = self.stats.peak_allocated.max(self.allocated);
        self.live.insert(id, granted);
    }

    fn free(&mut self, id: u64) {
        let Some(size) = self.live.remove(&id) else {
            return; // unmatched free: ignore, mirroring allocator leniency
        };
        if size == 0 {
            return;
        }
        self.allocated -= size;
        *self.free.entry(size).or_insert(0) += 1;
    }

    /// Statistics accumulated so far, with the live counter filled in.
    pub fn stats(&self) -> AllocStats {
        AllocStats {
            live_allocated: self.allocated,
            ..self.stats
        }
    }

    /// Rounded bytes currently in use.
    pub fn live_allocated(&self) -> u64 {
        self.allocated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::Category;

    fn ev(id: u64, bytes: u64, is_alloc: bool) -> AllocEvent {
        AllocEvent {
            id,
            bytes,
            is_alloc,
            category: Category::Other,
        }
    }

    #[test]
    fn rounding_small_and_large() {
        assert_eq!(round_size(0), 0);
        assert_eq!(round_size(1), 512);
        assert_eq!(round_size(512), 512);
        assert_eq!(round_size(513), 1024);
        assert_eq!(round_size(1 << 20), 2 << 20);
        assert_eq!(round_size((2 << 20) + 1), 4 << 20);
    }

    #[test]
    fn cache_reuse_avoids_reservation_growth() {
        let events = vec![
            ev(0, 4096, true),
            ev(0, 4096, false),
            ev(1, 4096, true),
            ev(1, 4096, false),
        ];
        let stats = CachingAllocator::replay(&events);
        assert_eq!(stats.reserved, 4096);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
    }

    #[test]
    fn reserved_is_high_watermark() {
        // Two overlapping 4 KiB allocations force reservation of 8 KiB even
        // though each is freed eventually.
        let events = vec![
            ev(0, 4096, true),
            ev(1, 4096, true),
            ev(0, 4096, false),
            ev(1, 4096, false),
            ev(2, 4096, true),
        ];
        let stats = CachingAllocator::replay(&events);
        assert_eq!(stats.reserved, 8192);
        assert_eq!(stats.peak_allocated, 8192);
    }

    #[test]
    fn oversized_cached_block_is_not_reused_beyond_2x() {
        let events = vec![
            ev(0, 100 << 10, true), // 100 KiB
            ev(0, 100 << 10, false),
            ev(1, 10 << 10, true), // 10 KiB: cached 100 KiB block wastes >2x
        ];
        let stats = CachingAllocator::replay(&events);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.reserved, round_size(100 << 10) + round_size(10 << 10));
    }

    #[test]
    fn zero_sized_allocations_are_noops() {
        let events = vec![ev(0, 0, true), ev(0, 0, false)];
        let stats = CachingAllocator::replay(&events);
        assert_eq!(stats.reserved, 0);
        assert_eq!(stats.peak_allocated, 0);
    }

    #[test]
    fn peak_allocated_at_least_live_sum() {
        let events = vec![ev(0, 1000, true), ev(1, 2000, true)];
        let stats = CachingAllocator::replay(&events);
        assert!(stats.peak_allocated >= 3000);
        assert!(stats.reserved >= stats.peak_allocated);
    }
}
