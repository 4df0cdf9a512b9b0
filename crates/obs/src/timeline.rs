//! Execution-timeline flight recorder: spans on per-thread event
//! buffers, exported as Chrome trace-event JSON (loadable in Perfetto or
//! `chrome://tracing`) and as folded stacks (flamegraph format) derived
//! from the phase profiler.
//!
//! Where the [`profile`](crate::profile) module answers "how much total
//! time did op/phase X cost", the timeline answers "*when* did each worker
//! do what": every `adaptraj-exec` job records `queue_wait` and `job_run`
//! spans on its worker's lane, and every [`span`](crate::span()) guard —
//! `epoch`, `grad_reduce`, `evaluate`, `encode`, ... — records one event
//! on the lane of the thread that entered it, so the Perfetto view shows
//! one lane per worker with the nesting of spans inside jobs.
//!
//! Cost model (same contract as the profiler): capture is **off by
//! default**, and a disabled recorder costs a single relaxed atomic load
//! per span site — no clock read, no allocation. When enabled, each span
//! pays two clock reads and a push onto its thread's buffer; the buffer
//! mutex is per-thread and only contended by [`snapshot`]/[`reset`], so
//! recording never serializes worker threads against each other.
//! Recording observes wall-clock only — it never touches RNG streams or
//! reduction order, so the bit-identity determinism contract is unaffected.
//!
//! Timestamps are microseconds of monotonic time since the first event of
//! the process (a lazily initialized [`Instant`] epoch), which is exactly
//! the `ts` convention of the Chrome trace-event format.

use crate::json::{Arr, Obj};
use crate::profile::{Dir, ProfileSnapshot};
use crate::span::{capture, set_capture, TIMELINE};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Turns timeline capture on or off. Spans started while disabled are not
/// recorded; enable the recorder before the run you want to trace.
pub fn set_enabled(on: bool) {
    set_capture(TIMELINE, on);
}

/// Whether timeline capture is currently on — one relaxed atomic load.
#[inline]
pub fn timeline_enabled() -> bool {
    capture() & TIMELINE != 0
}

/// The process-wide monotonic epoch all timeline timestamps count from.
fn epoch() -> Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    *T0.get_or_init(Instant::now)
}

/// Microseconds of monotonic time since the process's timeline epoch.
/// Capture a start timestamp with this (e.g. at enqueue) and close the
/// span later with [`record_span_since`].
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// One completed span on a thread's lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Span name (`queue_wait`, `job_run`, or a [`span`](crate::span())
    /// name).
    pub name: &'static str,
    /// Start, µs since the timeline epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Optional single numeric argument (e.g. the item index of a job).
    pub arg: Option<(&'static str, u64)>,
}

/// Per-thread event buffer. The mutex exists only so [`snapshot`] and
/// [`reset`] can read/clear from another thread; the owning thread is the
/// only writer, so pushes are uncontended in steady state.
struct ThreadBuf {
    tid: u64,
    name: String,
    events: Mutex<Vec<TimelineEvent>>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static R: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

/// Lane ids are process-sequential (first thread to record gets 1), so
/// trace lanes stay small and stable within a run.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static BUF: OnceCell<Arc<ThreadBuf>> = const { OnceCell::new() };
}

fn thread_buf() -> Arc<ThreadBuf> {
    BUF.with(|cell| {
        Arc::clone(cell.get_or_init(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let buf = Arc::new(ThreadBuf {
                tid,
                name,
                events: Mutex::new(Vec::new()),
            });
            registry()
                .lock()
                .expect("timeline registry poisoned")
                .push(Arc::clone(&buf));
            buf
        }))
    })
}

/// Records, on the calling thread's lane, a span that started at
/// `start_us` (captured with [`now_us`]) and ends now. Spans whose start
/// and end happen on different threads, like a job's enqueue→start queue
/// wait, use it directly; [`span`](crate::span()) guards close through
/// it. It records unconditionally, so a span started while capture was on
/// still completes after capture is switched off.
pub fn record_span_since(name: &'static str, start_us: u64, arg: Option<(&'static str, u64)>) {
    let dur_us = now_us().saturating_sub(start_us);
    thread_buf()
        .events
        .lock()
        .expect("timeline buffer poisoned")
        .push(TimelineEvent {
            name,
            start_us,
            dur_us,
            arg,
        });
}

/// Clears every thread's buffer (thread lanes and their ids survive, like
/// the profiler's interned phase table).
pub fn reset() {
    let reg = registry().lock().expect("timeline registry poisoned");
    for buf in reg.iter() {
        buf.events.lock().expect("timeline buffer poisoned").clear();
    }
}

/// One thread's recorded events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimelineLane {
    pub tid: u64,
    pub thread_name: String,
    /// Events in completion order (an outer span closes after its inner
    /// spans, so this is not start-sorted; Perfetto sorts on load).
    pub events: Vec<TimelineEvent>,
}

/// Point-in-time copy of every non-empty thread lane, tid-sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimelineSnapshot {
    pub lanes: Vec<TimelineLane>,
}

/// Copies the current timeline. Lanes with no events are omitted.
pub fn snapshot() -> TimelineSnapshot {
    let reg = registry().lock().expect("timeline registry poisoned");
    let mut lanes: Vec<TimelineLane> = reg
        .iter()
        .map(|b| TimelineLane {
            tid: b.tid,
            thread_name: b.name.clone(),
            events: b.events.lock().expect("timeline buffer poisoned").clone(),
        })
        .filter(|l| !l.events.is_empty())
        .collect();
    lanes.sort_by_key(|l| l.tid);
    TimelineSnapshot { lanes }
}

impl TimelineSnapshot {
    /// Total recorded events across all lanes.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Multiset of span names (name → occurrence count), merged across
    /// lanes. This is the ordering-invariant view: the same workload run
    /// with different worker counts produces the same counts even though
    /// the per-lane layout differs.
    pub fn span_counts(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for lane in &self.lanes {
            for e in &lane.events {
                *counts.entry(e.name.to_string()).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Serializes the timeline as a Chrome trace-event JSON document
    /// (`{"traceEvents":[...]}` with complete `"ph":"X"` events plus
    /// `thread_name` metadata), loadable in Perfetto / `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = Arr::new();
        for lane in &self.lanes {
            events = events.push_raw(
                &Obj::new()
                    .str("ph", "M")
                    .str("name", "thread_name")
                    .u64("ts", 0)
                    .u64("pid", 1)
                    .u64("tid", lane.tid)
                    .raw("args", &Obj::new().str("name", &lane.thread_name).finish())
                    .finish(),
            );
        }
        for lane in &self.lanes {
            for e in &lane.events {
                let mut obj = Obj::new()
                    .str("ph", "X")
                    .str("name", e.name)
                    .u64("ts", e.start_us)
                    .u64("dur", e.dur_us)
                    .u64("pid", 1)
                    .u64("tid", lane.tid);
                if let Some((k, v)) = e.arg {
                    obj = obj.raw("args", &Obj::new().u64(k, v).finish());
                }
                events = events.push_raw(&obj.finish());
            }
        }
        Obj::new()
            .raw("traceEvents", &events.finish())
            .str("displayTimeUnit", "ms")
            .finish()
    }
}

/// Renders a [`ProfileSnapshot`] as folded stacks (the flamegraph.pl /
/// inferno input format): one `frame;frame;leaf weight` line per profiler
/// cell, with phase-path segments as frames, `kind.fwd|bwd` as the leaf,
/// and total nanoseconds as the weight.
pub fn folded_stacks(profile: &ProfileSnapshot) -> String {
    let mut out = String::new();
    for e in &profile.entries {
        if e.phase.is_empty() {
            out.push_str("(unattributed)");
        } else {
            out.push_str(&e.phase.replace('/', ";"));
        }
        out.push(';');
        out.push_str(e.kind);
        out.push('.');
        out.push_str(match e.dir {
            Dir::Forward => "fwd",
            Dir::Backward => "bwd",
        });
        out.push(' ');
        out.push_str(&e.total_ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::profile::ProfileEntry;
    use crate::span::{span, test_lock};

    #[test]
    fn spans_record_with_monotonic_nonnegative_durations() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        {
            let _outer = span("tl_outer");
            let _inner = span("job_run").arg("item", 3);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let t0 = now_us();
        record_span_since("queue_wait", t0, Some(("item", 3)));
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.len(), 3);
        let counts = snap.span_counts();
        assert_eq!(counts.get("tl_outer"), Some(&1));
        assert_eq!(counts.get("job_run"), Some(&1));
        assert_eq!(counts.get("queue_wait"), Some(&1));
        for lane in &snap.lanes {
            for e in &lane.events {
                assert!(e.start_us <= now_us());
            }
        }
        // The inner job_run slept ≥1ms.
        let job = snap.lanes[0]
            .events
            .iter()
            .find(|e| e.name == "job_run")
            .unwrap();
        assert!(job.dur_us >= 1_000, "dur {}", job.dur_us);
        assert_eq!(job.arg, Some(("item", 3)));
        reset();
    }

    #[test]
    fn worker_threads_get_their_own_lanes() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        {
            let _main = span("dispatch");
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    std::thread::Builder::new()
                        .name(format!("tl-worker-{i}"))
                        .spawn(|| {
                            let _s = span("job_run");
                        })
                        .unwrap()
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.lanes.len(), 3, "{snap:?}");
        assert!(snap
            .lanes
            .iter()
            .any(|l| l.thread_name.starts_with("tl-worker-")));
        reset();
    }

    #[test]
    fn chrome_trace_is_valid_json_with_required_keys() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        {
            let _s = span("job_run").arg("item", 7);
        }
        set_enabled(false);
        let trace = snapshot().to_chrome_trace();
        reset();
        let v = Value::parse(&trace).expect("chrome trace parses");
        let events = v
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert!(events.len() >= 2, "metadata + span: {trace}");
        for e in events {
            for key in ["ph", "ts", "pid", "tid", "name"] {
                assert!(e.get(key).is_some(), "missing {key} in {trace}");
            }
        }
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .expect("one complete event");
        assert_eq!(x.get("name").and_then(Value::as_str), Some("job_run"));
        assert!(x.get("dur").and_then(Value::as_u64).is_some());
        assert_eq!(
            x.get("args")
                .and_then(|a| a.get("item"))
                .and_then(Value::as_u64),
            Some(7)
        );
        let m = events
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .expect("thread_name metadata");
        assert_eq!(m.get("name").and_then(Value::as_str), Some("thread_name"));
    }

    #[test]
    fn folded_stacks_render_phase_paths_and_op_leaves() {
        let profile = ProfileSnapshot {
            entries: vec![
                ProfileEntry {
                    phase: "bench/train".into(),
                    kind: "matmul",
                    dir: Dir::Forward,
                    calls: 2,
                    total_ns: 1500,
                    bytes: 64,
                },
                ProfileEntry {
                    phase: String::new(),
                    kind: "add",
                    dir: Dir::Backward,
                    calls: 1,
                    total_ns: 200,
                    bytes: 0,
                },
            ],
        };
        let folded = folded_stacks(&profile);
        assert_eq!(
            folded,
            "bench;train;matmul.fwd 1500\n(unattributed);add.bwd 200\n"
        );
    }
}
