//! Per-thread scratch-buffer pooling for tensor storage.
//!
//! Every owned tensor allocation in this crate funnels through the helpers
//! here. Each thread keeps a [`BufferPool`] of retired `Vec<f32>` buffers
//! (returned by [`Tape::reset`](crate::tape::Tape::reset) and
//! [`recycle_vec`]), segregated into power-of-two capacity classes:
//! fresh allocations round their capacity up to the class size, so a
//! retired buffer lands back in exactly the class that future requests of
//! the same shape hit, and both `take` and `give` are O(1) bucket
//! operations (no scanning, no first-fit waste where a small request
//! consumes a large buffer). An allocation request falls back to a fresh
//! heap allocation only when its class — and every larger one — is empty.
//! In steady state — one persistent worker thread running one pooled tape
//! per window, where successive windows repeat the same tensor shapes —
//! the forward/backward hot path recycles the previous window's buffers
//! instead of touching the allocator.
//!
//! Accounting happens at two levels:
//!
//! - **Per-thread tallies** ([`thread_stats`]): reuse hits, bytes served
//!   from the pool, and bytes freshly allocated, kept in plain
//!   thread-local cells so the hot path never takes a lock. Tests read
//!   these directly (each libtest test runs on its own thread, so the
//!   numbers are isolated per test).
//! - **Global metrics** (`tensor.pool_reuse`, `tensor.bytes_reused`,
//!   `tensor.bytes_allocated` in the `adaptraj-obs` registry): flushed
//!   from the thread tallies by [`flush_thread_metrics`], which
//!   `Tape::reset` calls once per window so per-allocation cost stays a
//!   couple of thread-local adds.
//!
//! The tape's profiler reads `drain_pending_fresh_bytes` at each node push
//! and after each node's backward step, so profile byte lines count only
//! *fresh* allocations, charged to the op (and direction) that made them — a
//! buffer served from the pool (or a leaf borrowed from the `ParamStore`)
//! is no longer double-counted as newly allocated memory.

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;

/// Number of power-of-two capacity classes (class `b` holds buffers of
/// capacity `[2^b, 2^(b+1))`; the top class also absorbs anything larger).
const BUCKETS: usize = 31;

/// Keep at most this many retired buffers per capacity class; beyond it,
/// retired buffers are dropped to bound steady-state memory. One window's
/// tape can retire upwards of a thousand buffers of the same small class
/// (per-timestep constants and their gradients), and every buffer dropped
/// here is a guaranteed pool miss — a fresh heap allocation — on the next
/// window, so the budget errs large: 2048 buffers of the biggest common
/// hot-path class (~4 KB) is ~8 MB per worker thread, a fraction of one
/// training batch.
const MAX_FREE_PER_BUCKET: usize = 2048;

/// Class a request of `len` elements is served from: the smallest class
/// whose buffers are all guaranteed to hold `len`.
fn request_class(len: usize) -> usize {
    (len.max(1).next_power_of_two().trailing_zeros() as usize).min(BUCKETS - 1)
}

/// Class a retired buffer of capacity `cap >= 1` is stored in:
/// `floor(log2(cap))`, so every buffer in class `b` has capacity `>= 2^b`.
fn storage_class(cap: usize) -> usize {
    ((usize::BITS - 1 - cap.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Cumulative allocation statistics of one thread's pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocation requests served from the free list.
    pub reuse_hits: u64,
    /// Bytes of those requests (requested length × 4).
    pub bytes_reused: u64,
    /// Bytes served by fresh heap allocations.
    pub bytes_allocated: u64,
}

/// Size-class buckets of retired `Vec<f32>` scratch buffers.
#[derive(Debug)]
pub struct BufferPool {
    free: [Vec<Vec<f32>>; BUCKETS],
    stats: PoolStats,
    /// Stats not yet flushed to the global metrics registry.
    unflushed: PoolStats,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    pub fn new() -> Self {
        Self {
            free: std::array::from_fn(|_| Vec::new()),
            stats: PoolStats::default(),
            unflushed: PoolStats::default(),
        }
    }

    /// Number of buffers currently retired into the pool.
    pub fn free_buffers(&self) -> usize {
        self.free.iter().map(Vec::len).sum()
    }

    /// Total `f32` capacity currently retained in the pool.
    pub fn free_capacity(&self) -> usize {
        self.free
            .iter()
            .flat_map(|bucket| bucket.iter().map(Vec::capacity))
            .sum()
    }

    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    fn note(&mut self, reused: bool, bytes: u64) {
        if reused {
            self.stats.reuse_hits += 1;
            self.stats.bytes_reused += bytes;
            self.unflushed.reuse_hits += 1;
            self.unflushed.bytes_reused += bytes;
        } else {
            self.stats.bytes_allocated += bytes;
            self.unflushed.bytes_allocated += bytes;
        }
    }

    /// Pops a retired buffer with capacity ≥ `len`, if any: the request's
    /// own class first (newest first — the most recently retired buffer
    /// is the most likely to be cache-warm), then any larger class. As a
    /// last resort the class below is scanned: buffers that entered the
    /// pool from outside (`recycle_vec` on a caller-built `Vec`) can have
    /// a non-rounded capacity that lands one class under the request yet
    /// still fits. Pool-allocated buffers never need that scan.
    fn pop_with_capacity(&mut self, len: usize) -> Option<Vec<f32>> {
        let class = request_class(len);
        for bucket in &mut self.free[class..] {
            // The class invariant guarantees the capacity except in the
            // top (clamped) bucket, so check the candidate rather than
            // assume.
            if bucket.last().is_some_and(|b| b.capacity() >= len) {
                return bucket.pop();
            }
        }
        if class > 0 {
            let below = &mut self.free[class - 1];
            if let Some(idx) = below.iter().rposition(|b| b.capacity() >= len) {
                return Some(below.swap_remove(idx));
            }
        }
        None
    }

    /// A zero-filled buffer of exactly `len` elements. Fresh allocations
    /// round their capacity up to the class size, so the buffer re-enters
    /// its exact class when retired.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let bytes = (len * std::mem::size_of::<f32>()) as u64;
        match self.pop_with_capacity(len) {
            Some(mut buf) => {
                self.note(true, bytes);
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                self.note(false, bytes);
                let mut buf = Vec::with_capacity(len.max(1).next_power_of_two());
                buf.resize(len, 0.0);
                buf
            }
        }
    }

    /// An empty buffer with capacity ≥ `cap`, ready for `extend`/`push`.
    pub fn take_empty(&mut self, cap: usize) -> Vec<f32> {
        let bytes = (cap * std::mem::size_of::<f32>()) as u64;
        match self.pop_with_capacity(cap) {
            Some(mut buf) => {
                self.note(true, bytes);
                buf.clear();
                buf
            }
            None => {
                self.note(false, bytes);
                Vec::with_capacity(cap.max(1).next_power_of_two())
            }
        }
    }

    /// Retires a buffer into its capacity class. No-ops on zero-capacity
    /// buffers and when the class is full.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let bucket = &mut self.free[storage_class(buf.capacity())];
        if bucket.len() < MAX_FREE_PER_BUCKET {
            bucket.push(buf);
        }
    }
}

thread_local! {
    static TL_POOL: RefCell<BufferPool> = RefCell::new(BufferPool::new());
    /// Fresh bytes allocated since the tape last drained — the forward
    /// profiler's per-op allocation attribution.
    static PENDING_FRESH: Cell<u64> = const { Cell::new(0) };
}

struct PoolMetrics {
    reuse: adaptraj_obs::CounterHandle,
    bytes_reused: adaptraj_obs::CounterHandle,
    bytes_allocated: adaptraj_obs::CounterHandle,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = adaptraj_obs::global();
        PoolMetrics {
            reuse: reg.counter("tensor.pool_reuse"),
            bytes_reused: reg.counter("tensor.bytes_reused"),
            bytes_allocated: reg.counter("tensor.bytes_allocated"),
        }
    })
}

/// A zero-filled buffer of `len` elements from the calling thread's pool.
pub(crate) fn alloc_zeroed(len: usize) -> Vec<f32> {
    TL_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let before = pool.stats.bytes_allocated;
        let buf = pool.take_zeroed(len);
        let fresh = pool.stats.bytes_allocated - before;
        if fresh > 0 {
            PENDING_FRESH.with(|c| c.set(c.get() + fresh));
        }
        buf
    })
}

/// An empty buffer with capacity ≥ `cap` from the calling thread's pool.
pub(crate) fn alloc_empty(cap: usize) -> Vec<f32> {
    TL_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let before = pool.stats.bytes_allocated;
        let buf = pool.take_empty(cap);
        let fresh = pool.stats.bytes_allocated - before;
        if fresh > 0 {
            PENDING_FRESH.with(|c| c.set(c.get() + fresh));
        }
        buf
    })
}

/// A pooled copy of `src`.
pub(crate) fn alloc_copy(src: &[f32]) -> Vec<f32> {
    let mut buf = alloc_empty(src.len());
    buf.extend_from_slice(src);
    buf
}

/// Retires a buffer into the calling thread's pool.
pub fn recycle_vec(buf: Vec<f32>) {
    TL_POOL.with(|p| p.borrow_mut().give(buf));
}

/// Fresh bytes allocated on this thread since the last drain. The tape
/// calls this once per recorded node so profile byte lines attribute only
/// genuinely fresh allocations to each op.
pub(crate) fn drain_pending_fresh_bytes() -> u64 {
    PENDING_FRESH.with(|c| c.replace(0))
}

/// Cumulative stats of the calling thread's pool.
pub fn thread_stats() -> PoolStats {
    TL_POOL.with(|p| p.borrow().stats())
}

/// Buffers currently retained by the calling thread's pool.
pub fn thread_free_buffers() -> usize {
    TL_POOL.with(|p| p.borrow().free_buffers())
}

/// Flushes this thread's unflushed tallies into the global metrics
/// registry (`tensor.pool_reuse` / `tensor.bytes_reused` /
/// `tensor.bytes_allocated`). Called by `Tape::reset` once per window.
pub fn flush_thread_metrics() {
    TL_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let u = std::mem::take(&mut pool.unflushed);
        if u == PoolStats::default() {
            return;
        }
        let m = pool_metrics();
        m.reuse.add(u.reuse_hits);
        m.bytes_reused.add(u.bytes_reused);
        m.bytes_allocated.add(u.bytes_allocated);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_allocation_when_pool_is_empty() {
        let mut pool = BufferPool::new();
        let buf = pool.take_zeroed(8);
        assert_eq!(buf.len(), 8);
        assert!(buf.iter().all(|&x| x == 0.0));
        let s = pool.stats();
        assert_eq!(s.reuse_hits, 0);
        assert_eq!(s.bytes_allocated, 32);
        assert_eq!(s.bytes_reused, 0);
    }

    #[test]
    fn retired_buffer_is_reused_and_zeroed() {
        let mut pool = BufferPool::new();
        let mut buf = pool.take_zeroed(16);
        buf.iter_mut().for_each(|x| *x = 7.0);
        let ptr = buf.as_ptr();
        pool.give(buf);
        assert_eq!(pool.free_buffers(), 1);

        let again = pool.take_zeroed(10);
        assert_eq!(again.as_ptr(), ptr, "capacity not retained across reuse");
        assert_eq!(again.len(), 10);
        assert!(again.iter().all(|&x| x == 0.0), "stale values leaked");
        let s = pool.stats();
        assert_eq!(s.reuse_hits, 1);
        assert_eq!(s.bytes_reused, 40);
    }

    #[test]
    fn undersized_buffers_are_skipped() {
        let mut pool = BufferPool::new();
        pool.give(vec![0.0; 4]);
        let buf = pool.take_zeroed(64);
        assert_eq!(buf.len(), 64);
        assert_eq!(pool.stats().reuse_hits, 0, "4-slot buffer cannot serve 64");
        assert_eq!(pool.free_buffers(), 1, "small buffer stays pooled");
    }

    #[test]
    fn take_empty_keeps_capacity_but_clears_length() {
        let mut pool = BufferPool::new();
        pool.give(vec![3.0; 32]);
        let buf = pool.take_empty(20);
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 32);
        assert_eq!(pool.stats().reuse_hits, 1);
    }

    #[test]
    fn capacity_classes_are_bounded() {
        let mut pool = BufferPool::new();
        for _ in 0..(MAX_FREE_PER_BUCKET + 100) {
            pool.give(vec![0.0; 2]);
        }
        assert_eq!(pool.free_buffers(), MAX_FREE_PER_BUCKET);
        // A different capacity class has its own budget.
        pool.give(vec![0.0; 64]);
        assert_eq!(pool.free_buffers(), MAX_FREE_PER_BUCKET + 1);
    }

    #[test]
    fn request_is_served_from_its_own_class_before_larger_ones() {
        let mut pool = BufferPool::new();
        pool.give(vec![0.0; 1024]);
        pool.give(vec![0.0; 16]);
        // A 10-element request must take the 16-slot buffer, not burn the
        // 1024-slot one.
        let buf = pool.take_zeroed(10);
        assert!(buf.capacity() < 1024);
        assert_eq!(pool.free_capacity(), 1024);
    }

    #[test]
    fn fresh_allocations_round_capacity_to_the_class_size() {
        let mut pool = BufferPool::new();
        // 600 rounds to 1024, so retire + re-request of the same odd
        // length is a guaranteed class hit.
        let buf = pool.take_zeroed(600);
        assert_eq!(buf.capacity(), 1024);
        pool.give(buf);
        let again = pool.take_zeroed(600);
        assert_eq!(again.len(), 600);
        assert_eq!(pool.stats().reuse_hits, 1);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let mut pool = BufferPool::new();
        pool.give(Vec::new());
        assert_eq!(pool.free_buffers(), 0);
    }
}
