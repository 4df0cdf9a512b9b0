//! The one span guard: [`span`] scopes a named region of work for both
//! capture layers at once.
//!
//! While the op profiler is on, the guard pushes its name onto the
//! thread's profiler path (`step1/epoch/encode`), so every tape op
//! recorded inside it attributes there. While the flight recorder is on,
//! the guard records one timeline event on the thread's lane when it
//! drops. Both switches live in one mask, so with capture off a span
//! site costs a single relaxed atomic load: no clock read, no lock, no
//! allocation.
//!
//! Work handed to another thread keeps its place in the tree through
//! [`SpanPath`]: the dispatcher captures its path once and each job
//! re-enters it. `WorkerPool::map` in `adaptraj-exec` does this for every
//! job, so closures run on the pool need no re-entry code of their own.

use crate::{profile, timeline};
use std::sync::atomic::{AtomicU8, Ordering};

/// Mask bit of the op profiler ([`profile::set_enabled`]).
pub(crate) const PROFILE: u8 = 1;
/// Mask bit of the flight recorder ([`timeline::set_enabled`]).
pub(crate) const TIMELINE: u8 = 2;

static CAPTURE: AtomicU8 = AtomicU8::new(0);

/// Sets or clears one capture bit.
pub(crate) fn set_capture(bit: u8, on: bool) {
    if on {
        CAPTURE.fetch_or(bit, Ordering::Relaxed);
    } else {
        CAPTURE.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// The capture mask: one relaxed load.
#[inline]
pub(crate) fn capture() -> u8 {
    CAPTURE.load(Ordering::Relaxed)
}

/// Scope guard returned by [`span`] and [`SpanPath::enter`]. It leaves
/// the profiler path and records its timeline event when it drops.
#[must_use = "the span ends when the guard drops"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    /// Whether a profiler path entry was pushed (popped on drop).
    pushed: bool,
    /// Timeline start, when the flight recorder was on at entry.
    start_us: Option<u64>,
    arg: Option<(&'static str, u64)>,
}

/// Enters the span `name`. Free while both capture layers are off.
#[inline]
pub fn span(name: &'static str) -> Span {
    let mask = capture();
    let pushed = mask & PROFILE != 0;
    if pushed {
        profile::push_child(name);
    }
    Span {
        name,
        pushed,
        start_us: (mask & TIMELINE != 0).then(timeline::now_us),
        arg: None,
    }
}

impl Span {
    /// Attaches one numeric argument to the timeline event (e.g. the
    /// epoch number).
    pub fn arg(mut self, key: &'static str, value: u64) -> Span {
        self.arg = Some((key, value));
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.pushed {
            profile::pop();
        }
        if let Some(t0) = self.start_us {
            timeline::record_span_since(self.name, t0, self.arg);
        }
    }
}

/// A thread's place in the span tree, captured on one thread and
/// re-entered on another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanPath(profile::PhaseId);

impl SpanPath {
    /// The calling thread's current path; `None` while the profiler is
    /// off or outside every span.
    #[inline]
    pub fn current() -> Option<SpanPath> {
        (capture() & PROFILE != 0)
            .then(profile::current_phase)
            .flatten()
            .map(SpanPath)
    }

    /// Re-enters this path on the calling thread until the guard drops,
    /// so its ops attribute to the thread that captured the path. It
    /// records no timeline event: the job that runs it already has one.
    pub fn enter(self) -> Span {
        profile::push(self.0);
        Span {
            name: "",
            pushed: true,
            start_us: None,
            arg: None,
        }
    }
}

/// Capture is process-global: the crate's tests that flip it or reset
/// what it captured serialize on this lock.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static L: std::sync::Mutex<()> = std::sync::Mutex::new(());
    L.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{op_timer, record_op, Dir};

    fn set_both(on: bool) {
        profile::set_enabled(on);
        timeline::set_enabled(on);
    }

    #[test]
    fn disabled_span_reads_no_clock_and_records_nothing() {
        let _g = test_lock();
        set_both(false);
        profile::reset();
        timeline::reset();
        {
            let s = span("sp_off").arg("epoch", 1);
            // No start timestamp was taken and no path was pushed.
            assert!(s.start_us.is_none() && !s.pushed);
            record_op("add", Dir::Forward, op_timer(), 8);
            assert!(SpanPath::current().is_none());
        }
        assert!(profile::snapshot().entries.is_empty());
        assert!(timeline::snapshot().is_empty());
    }

    #[test]
    fn one_span_feeds_the_profiler_path_and_the_timeline() {
        let _g = test_lock();
        set_both(true);
        profile::reset();
        timeline::reset();
        {
            let _outer = span("sp_outer").arg("epoch", 4);
            let _inner = span("inner");
            record_op("matmul", Dir::Forward, op_timer(), 16);
        }
        set_both(false);
        let prof = profile::snapshot().under("sp_outer");
        assert_eq!(prof.entries.len(), 1);
        assert_eq!(prof.entries[0].phase, "sp_outer/inner");
        let tl = timeline::snapshot();
        let counts = tl.span_counts();
        assert_eq!(counts.get("sp_outer"), Some(&1));
        assert_eq!(counts.get("inner"), Some(&1));
        let outer = tl.lanes[0]
            .events
            .iter()
            .find(|e| e.name == "sp_outer")
            .unwrap();
        assert_eq!(outer.arg, Some(("epoch", 4)));
        profile::reset();
        timeline::reset();
    }

    #[test]
    fn each_layer_follows_its_own_switch() {
        let _g = test_lock();
        timeline::reset();
        profile::reset();
        profile::set_enabled(true);
        {
            let _s = span("sp_profile_only");
            record_op("add", Dir::Forward, op_timer(), 1);
        }
        profile::set_enabled(false);
        timeline::set_enabled(true);
        {
            let _s = span("sp_timeline_only");
            record_op("add", Dir::Forward, op_timer(), 1);
        }
        timeline::set_enabled(false);
        assert_eq!(
            profile::snapshot().under("sp_profile_only").entries.len(),
            1
        );
        assert!(profile::snapshot()
            .under("sp_timeline_only")
            .entries
            .is_empty());
        let counts = timeline::snapshot().span_counts();
        assert_eq!(counts.get("sp_profile_only"), None);
        assert_eq!(counts.get("sp_timeline_only"), Some(&1));
        profile::reset();
        timeline::reset();
    }

    #[test]
    fn a_path_reentered_on_other_threads_merges_under_the_dispatcher() {
        let _g = test_lock();
        set_both(true);
        profile::reset();
        timeline::reset();
        {
            let _s = span("sp_merge");
            let path = SpanPath::current().expect("inside a span");
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    std::thread::spawn(move || {
                        let _p = path.enter();
                        record_op("add", Dir::Forward, op_timer(), 16);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            record_op("add", Dir::Forward, op_timer(), 16);
        }
        set_both(false);
        let snap = profile::snapshot().under("sp_merge");
        assert_eq!(snap.entries.len(), 1);
        assert_eq!(snap.entries[0].calls, 4);
        // Re-entry adds no timeline events of its own.
        assert_eq!(timeline::snapshot().span_counts().get("sp_merge"), Some(&1));
        assert_eq!(timeline::snapshot().len(), 1);
        profile::reset();
        timeline::reset();
    }
}
