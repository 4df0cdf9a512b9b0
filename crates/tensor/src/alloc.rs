//! Byte accounting for tensor storage.
//!
//! Tensors allocate from the system allocator and free their buffers on
//! drop; Rust ownership is the whole memory policy. What this module keeps
//! is the tally observability reads. Every owned buffer a tensor is built
//! on ([`Tensor::from_vec`](crate::tensor::Tensor::from_vec), and the deep
//! copy when an owned tensor is cloned) adds its bytes to two plain
//! thread-local cells, so the hot path never takes a lock or an atomic:
//!
//! - the *pending* tally, which the tape drains at each recorded node and
//!   after each node's backward step, so profile byte lines charge every
//!   allocation to the op (and direction) that made it. `Arc`-shared
//!   parameter leaves allocate nothing and count as zero;
//! - the *unflushed* tally, added to the global `tensor.bytes_allocated`
//!   counter once per tape, when the tape drops.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    static PENDING: Cell<u64> = const { Cell::new(0) };
    static UNFLUSHED: Cell<u64> = const { Cell::new(0) };
}

/// Charges a freshly allocated buffer of `len` elements to this thread.
#[inline]
pub(crate) fn note(len: usize) {
    let bytes = (len * std::mem::size_of::<f32>()) as u64;
    PENDING.with(|c| c.set(c.get() + bytes));
    UNFLUSHED.with(|c| c.set(c.get() + bytes));
}

/// Bytes allocated on this thread since the last drain. The tape calls
/// this once per recorded node and once per backward step.
pub(crate) fn drain_pending_bytes() -> u64 {
    PENDING.with(|c| c.replace(0))
}

/// Adds this thread's unflushed bytes to the `tensor.bytes_allocated`
/// counter. Called when a tape drops: once per job, not per allocation.
pub(crate) fn flush_metrics() {
    let bytes = UNFLUSHED.with(|c| c.replace(0));
    if bytes > 0 {
        static COUNTER: OnceLock<adaptraj_obs::CounterHandle> = OnceLock::new();
        COUNTER
            .get_or_init(|| adaptraj_obs::global().counter("tensor.bytes_allocated"))
            .add(bytes);
    }
}
