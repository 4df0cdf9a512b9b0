//! Op-level autodiff profiler: per-op-kind and per-phase attribution of
//! forward/backward wall-clock and allocation.
//!
//! The tape in `adaptraj-tensor` reports every recorded operation through
//! the single [`record_op`] choke point, tagged with the op kind (`matmul`,
//! `tanh`, ...), the direction ([`Dir::Forward`] at record time,
//! [`Dir::Backward`] while the chain rule runs), the elapsed wall-clock,
//! and the bytes of every tensor the op allocated in that direction (its
//! result value and temporaries forward, its parents' gradients and
//! temporaries backward). The phase of an op is
//! the thread's [`span`](crate::span()) path: spans nest into
//! `/`-separated paths, so a `matmul` executed inside `step2/epoch/encode`
//! attributes to that phase and — via the inclusive rollup in
//! [`ProfileSnapshot::by_phase`] — to every ancestor.
//!
//! Cost model: profiling is **off by default** and the hot path stays
//! clean. [`op_timer`] is a single relaxed atomic load returning `None`,
//! and [`record_op`] returns immediately on a `None` timer, so a disabled
//! profiler adds only that load per op. When enabled, each op pays one
//! `Instant::now` pair plus a short global-mutex critical section.
//!
//! Threading: the phase stack is thread-local, but the aggregation cells
//! and the interned phase-path table are process-global behind one mutex,
//! so records from `adaptraj-exec` worker threads merge into the same
//! snapshot automatically. Worker threads re-enter their dispatcher's
//! path through [`SpanPath`](crate::span::SpanPath).

use crate::json::{Arr, Obj};
use crate::span::{capture, set_capture, PROFILE};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Schema tag of the JSON document produced by [`ProfileSnapshot::to_json`].
pub const PROFILE_SCHEMA: &str = "adaptraj-profile/v1";

/// Turns op recording on or off. Spans entered while disabled are not
/// tracked; enable the profiler before entering the spans you care about.
pub fn set_enabled(on: bool) {
    set_capture(PROFILE, on);
}

/// Which half of autodiff an op sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    Forward,
    Backward,
}

impl Dir {
    pub fn as_str(self) -> &'static str {
        match self {
            Dir::Forward => "forward",
            Dir::Backward => "backward",
        }
    }
}

/// An opaque started-or-not timer handed back to [`record_op`]. `None`
/// when profiling is disabled, so the disabled path never reads the clock.
#[derive(Debug)]
pub struct OpTimer(Option<Instant>);

/// Starts an op timer — one relaxed atomic load when profiling is off.
#[inline]
pub fn op_timer() -> OpTimer {
    if capture() & PROFILE != 0 {
        OpTimer(Some(Instant::now()))
    } else {
        OpTimer(None)
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    calls: u64,
    total_ns: u64,
    bytes: u64,
}

/// Interned id of a full phase path; 0 is the root (unattributed) phase.
pub(crate) type PhaseId = u32;

struct State {
    /// Phase id → full `/`-joined path. Id 0 is the root (unattributed)
    /// phase with the empty path. Interned paths are never evicted —
    /// [`reset`] clears only the aggregation cells, so phase ids held by
    /// live spans stay valid.
    phase_paths: Vec<String>,
    phase_ids: HashMap<String, PhaseId>,
    cells: HashMap<(PhaseId, &'static str, Dir), Agg>,
}

fn state() -> &'static Mutex<State> {
    static S: OnceLock<Mutex<State>> = OnceLock::new();
    S.get_or_init(|| {
        Mutex::new(State {
            phase_paths: vec![String::new()],
            phase_ids: HashMap::from([(String::new(), 0)]),
            cells: HashMap::new(),
        })
    })
}

thread_local! {
    static PHASE_STACK: RefCell<Vec<PhaseId>> = const { RefCell::new(Vec::new()) };
}

fn top() -> PhaseId {
    PHASE_STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// The phase this thread is inside, or `None` at the root.
pub(crate) fn current_phase() -> Option<PhaseId> {
    Some(top()).filter(|&id| id != 0)
}

/// Full `/`-joined path of the phase this thread is inside, or `None` at
/// the root (health incidents carry it).
pub(crate) fn current_path() -> Option<String> {
    let id = current_phase()?;
    let st = state().lock().expect("profiler poisoned");
    Some(st.phase_paths[id as usize].clone())
}

/// Pushes `parent/name` (interned on first use) onto this thread's phase
/// stack.
pub(crate) fn push_child(name: &str) {
    let parent = top();
    let id = {
        let mut st = state().lock().expect("profiler poisoned");
        let path = if parent == 0 {
            name.to_string()
        } else {
            format!("{}/{}", st.phase_paths[parent as usize], name)
        };
        match st.phase_ids.get(&path) {
            Some(&id) => id,
            None => {
                let id = st.phase_paths.len() as PhaseId;
                st.phase_paths.push(path.clone());
                st.phase_ids.insert(path, id);
                id
            }
        }
    };
    push(id);
}

/// Pushes an already interned phase (a path re-entered on a worker).
pub(crate) fn push(id: PhaseId) {
    PHASE_STACK.with(|s| s.borrow_mut().push(id));
}

/// Leaves the innermost phase of this thread.
pub(crate) fn pop() {
    PHASE_STACK.with(|s| {
        s.borrow_mut().pop();
    });
}

/// The choke point every instrumented op reports through. A no-op when the
/// timer was started while profiling was disabled.
#[inline]
pub fn record_op(kind: &'static str, dir: Dir, timer: OpTimer, bytes: u64) {
    let Some(t0) = timer.0 else { return };
    let ns = t0.elapsed().as_nanos() as u64;
    let phase = top();
    let mut st = state().lock().expect("profiler poisoned");
    let cell = st.cells.entry((phase, kind, dir)).or_default();
    cell.calls += 1;
    cell.total_ns += ns;
    cell.bytes += bytes;
}

/// Clears every aggregation cell (interned phase paths are kept — see
/// `State::phase_paths`).
pub fn reset() {
    state().lock().expect("profiler poisoned").cells.clear();
}

/// One `(phase, op kind, direction)` aggregation cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Full `/`-joined phase path; empty for ops recorded outside any
    /// phase.
    pub phase: String,
    pub kind: &'static str,
    pub dir: Dir,
    pub calls: u64,
    pub total_ns: u64,
    pub bytes: u64,
}

/// Per-op-kind rollup (forward and backward side by side), across phases.
/// `bytes` sums both directions.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRow {
    pub kind: &'static str,
    pub fwd_calls: u64,
    pub fwd_ns: u64,
    pub bwd_calls: u64,
    pub bwd_ns: u64,
    pub bytes: u64,
}

impl OpRow {
    pub fn total_ns(&self) -> u64 {
        self.fwd_ns + self.bwd_ns
    }
}

/// Per-phase rollup. Inclusive: a sample in `a/b` also counts toward `a`.
/// `bytes` sums both directions.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    pub phase: String,
    pub calls: u64,
    pub fwd_ns: u64,
    pub bwd_ns: u64,
    pub bytes: u64,
}

impl PhaseRow {
    pub fn total_ns(&self) -> u64 {
        self.fwd_ns + self.bwd_ns
    }
}

/// Point-in-time copy of every profiler cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileSnapshot {
    pub entries: Vec<ProfileEntry>,
}

/// Copies the current profiler state, sorted by (phase, kind, dir).
pub fn snapshot() -> ProfileSnapshot {
    let st = state().lock().expect("profiler poisoned");
    let mut entries: Vec<ProfileEntry> = st
        .cells
        .iter()
        .map(|(&(phase, kind, dir), agg)| ProfileEntry {
            phase: st.phase_paths[phase as usize].clone(),
            kind,
            dir,
            calls: agg.calls,
            total_ns: agg.total_ns,
            bytes: agg.bytes,
        })
        .collect();
    entries.sort_by(|a, b| (&a.phase, a.kind, a.dir).cmp(&(&b.phase, b.kind, b.dir)));
    ProfileSnapshot { entries }
}

impl ProfileSnapshot {
    /// Keeps only entries whose phase path starts with `prefix`.
    pub fn under(&self, prefix: &str) -> ProfileSnapshot {
        ProfileSnapshot {
            entries: self
                .entries
                .iter()
                .filter(|e| {
                    e.phase == prefix
                        || e.phase
                            .strip_prefix(prefix)
                            .is_some_and(|rest| rest.starts_with('/'))
                })
                .cloned()
                .collect(),
        }
    }

    /// Per-op-kind rollup across all phases, sorted by total time
    /// descending.
    pub fn by_op(&self) -> Vec<OpRow> {
        let mut map: HashMap<&'static str, OpRow> = HashMap::new();
        for e in &self.entries {
            let row = map.entry(e.kind).or_insert_with(|| OpRow {
                kind: e.kind,
                fwd_calls: 0,
                fwd_ns: 0,
                bwd_calls: 0,
                bwd_ns: 0,
                bytes: 0,
            });
            row.bytes += e.bytes;
            match e.dir {
                Dir::Forward => {
                    row.fwd_calls += e.calls;
                    row.fwd_ns += e.total_ns;
                }
                Dir::Backward => {
                    row.bwd_calls += e.calls;
                    row.bwd_ns += e.total_ns;
                }
            }
        }
        let mut rows: Vec<OpRow> = map.into_values().collect();
        rows.sort_by(|a, b| b.total_ns().cmp(&a.total_ns()).then(a.kind.cmp(b.kind)));
        rows
    }

    /// Inclusive per-phase rollup sorted by total time descending. Ops
    /// recorded outside any phase appear under `(unattributed)`.
    pub fn by_phase(&self) -> Vec<PhaseRow> {
        let mut map: HashMap<String, PhaseRow> = HashMap::new();
        for e in &self.entries {
            // A sample in "a/b/c" counts toward "a", "a/b", and "a/b/c".
            let label = if e.phase.is_empty() {
                "(unattributed)".to_string()
            } else {
                e.phase.clone()
            };
            let mut targets = vec![label.clone()];
            if !e.phase.is_empty() {
                let mut path = String::new();
                for part in e.phase.split('/') {
                    if !path.is_empty() {
                        path.push('/');
                    }
                    path.push_str(part);
                    if path != e.phase {
                        targets.push(path.clone());
                    }
                }
            }
            for t in targets {
                let row = map.entry(t.clone()).or_insert_with(|| PhaseRow {
                    phase: t,
                    calls: 0,
                    fwd_ns: 0,
                    bwd_ns: 0,
                    bytes: 0,
                });
                row.calls += e.calls;
                row.bytes += e.bytes;
                match e.dir {
                    Dir::Forward => row.fwd_ns += e.total_ns,
                    Dir::Backward => row.bwd_ns += e.total_ns,
                }
            }
        }
        let mut rows: Vec<PhaseRow> = map.into_values().collect();
        rows.sort_by(|a, b| b.total_ns().cmp(&a.total_ns()).then(a.phase.cmp(&b.phase)));
        rows
    }

    /// JSON array of per-op rollups (for embedding in larger documents).
    pub fn ops_json(&self) -> String {
        let mut arr = Arr::new();
        for r in self.by_op() {
            arr = arr.push_raw(
                &Obj::new()
                    .str("kind", r.kind)
                    .u64("fwd_calls", r.fwd_calls)
                    .u64("fwd_ns", r.fwd_ns)
                    .u64("bwd_calls", r.bwd_calls)
                    .u64("bwd_ns", r.bwd_ns)
                    .u64("bytes", r.bytes)
                    .finish(),
            );
        }
        arr.finish()
    }

    /// JSON array of inclusive per-phase rollups.
    pub fn phases_json(&self) -> String {
        let mut arr = Arr::new();
        for r in self.by_phase() {
            arr = arr.push_raw(
                &Obj::new()
                    .str("phase", &r.phase)
                    .u64("calls", r.calls)
                    .u64("fwd_ns", r.fwd_ns)
                    .u64("bwd_ns", r.bwd_ns)
                    .u64("bytes", r.bytes)
                    .finish(),
            );
        }
        arr.finish()
    }

    /// Standalone machine-readable profile document
    /// (`adaptraj-profile/v1`).
    pub fn to_json(&self) -> String {
        let mut raw = Arr::new();
        for e in &self.entries {
            raw = raw.push_raw(
                &Obj::new()
                    .str("phase", &e.phase)
                    .str("kind", e.kind)
                    .str("dir", e.dir.as_str())
                    .u64("calls", e.calls)
                    .u64("total_ns", e.total_ns)
                    .u64("bytes", e.bytes)
                    .finish(),
            );
        }
        Obj::new()
            .str("schema", PROFILE_SCHEMA)
            .raw("ops", &self.ops_json())
            .raw("phases", &self.phases_json())
            .raw("cells", &raw.finish())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{span, test_lock};
    use std::time::Duration;

    fn burn(d: Duration) -> OpTimer {
        let t = op_timer();
        std::thread::sleep(d);
        t
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _g = test_lock();
        set_enabled(false);
        reset();
        let t = op_timer();
        record_op("matmul", Dir::Forward, t, 1024);
        assert!(snapshot().entries.is_empty());
    }

    #[test]
    fn records_attribute_to_nested_phases() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        {
            let _outer = span("t_outer");
            record_op("add", Dir::Forward, burn(Duration::from_millis(1)), 64);
            {
                let _inner = span("inner");
                record_op("matmul", Dir::Forward, burn(Duration::from_millis(1)), 256);
                record_op("matmul", Dir::Backward, burn(Duration::from_millis(1)), 0);
            }
        }
        set_enabled(false);
        let snap = snapshot().under("t_outer");
        assert_eq!(snap.entries.len(), 3);
        let phases: Vec<&str> = snap.entries.iter().map(|e| e.phase.as_str()).collect();
        assert_eq!(phases, ["t_outer", "t_outer/inner", "t_outer/inner"]);

        // Per-op rollup merges directions per kind.
        let ops = snap.by_op();
        let mm = ops.iter().find(|r| r.kind == "matmul").unwrap();
        assert_eq!(mm.fwd_calls, 1);
        assert_eq!(mm.bwd_calls, 1);
        assert_eq!(mm.bytes, 256);
        assert!(mm.fwd_ns >= 1_000_000 && mm.bwd_ns >= 1_000_000);

        // Phase rollup is inclusive: the outer phase absorbs the inner's
        // samples.
        let by_phase = snap.by_phase();
        let outer = by_phase.iter().find(|r| r.phase == "t_outer").unwrap();
        assert_eq!(outer.calls, 3);
        assert_eq!(outer.bytes, 64 + 256);
        let inner = by_phase
            .iter()
            .find(|r| r.phase == "t_outer/inner")
            .unwrap();
        assert_eq!(inner.calls, 2);
        assert!(outer.total_ns() >= inner.total_ns());
        reset();
    }

    #[test]
    fn reset_clears_cells_but_guards_survive() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        let _p = span("t_reset");
        record_op("mul", Dir::Forward, op_timer(), 8);
        reset();
        assert!(snapshot().under("t_reset").entries.is_empty());
        // The phase id interned before reset still resolves.
        record_op("mul", Dir::Forward, op_timer(), 8);
        set_enabled(false);
        let snap = snapshot().under("t_reset");
        assert_eq!(snap.entries.len(), 1);
        assert_eq!(snap.entries[0].phase, "t_reset");
        reset();
    }

    #[test]
    fn json_render() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        {
            let _p = span("t_json");
            record_op("tanh", Dir::Forward, op_timer(), 100);
        }
        set_enabled(false);
        let snap = snapshot().under("t_json");
        let json = snap.to_json();
        assert!(
            json.starts_with(r#"{"schema":"adaptraj-profile/v1""#),
            "{json}"
        );
        assert!(json.contains(r#""kind":"tanh""#));
        assert!(json.contains(r#""phase":"t_json""#));
        reset();
    }
}
