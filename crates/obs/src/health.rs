//! Training-health observatory: numerics tripwires and the incident
//! stream that lands in the run manifest.
//!
//! - **Numerics tripwires.** The tape in `adaptraj-tensor` probes every
//!   recorded value through [`check_tensor`], next to the profiler's
//!   `record_op` choke point. A disabled observatory costs one relaxed
//!   atomic load per op (same pattern as [`crate::profile`]). When
//!   enabled, the probe checks the result buffer for NaN/Inf/exploding
//!   magnitudes and records an [`Incident`] carrying the op kind, the
//!   profiler phase path, and the training window/epoch context set via
//!   [`batch_scope`]. Training keeps going (a job whose loss or
//!   gradient went non-finite is dropped by the trainer's own guard)
//!   unless [`set_halt_on_fault`] is on: then the first fault latches
//!   [`halt_requested`] and training stops so the run record is written
//!   with the incident and `"halted":true`.
//! - **Incident stream.** Incidents accumulate in a process-global,
//!   deterministically ordered list. Worker threads buffer them
//!   thread-locally ([`take_thread_incidents`]); the executor ships them
//!   back with each job result and the dispatcher absorbs them in item
//!   order ([`absorb_incidents`]), so the sequence is bit-identical for
//!   any worker count.
//!
//! The per-source-domain gradient diagnostics (norms, pairwise cosines,
//! update ratios) are fields of [`crate::telemetry::EpochRecord`], filled
//! by the training loop while the observatory is on.
//!
//! Capture is observation-only: nothing in the numeric path changes,
//! goldens stay bit-identical, and the determinism suite is unaffected.

use crate::json::{Obj, Value};
use crate::metrics::global;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// |x| above which a finite value counts as exploding.
const EXPLODE_THRESHOLD: f32 = 1.0e6;

static ENABLED: AtomicBool = AtomicBool::new(false);
static HALT_ON_FAULT: AtomicBool = AtomicBool::new(false);
static HALT: AtomicBool = AtomicBool::new(false);

/// Turns the health observatory on or off. While off, every probe and
/// scope helper early-returns after a single relaxed atomic load. While
/// on, the tape's debug finiteness assertion stands down so non-finite
/// values are recorded as incidents rather than aborting the process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether health capture is currently on.
#[inline]
pub fn health_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether a tripwire also stops training (default off: record and
/// keep going).
pub fn set_halt_on_fault(on: bool) {
    HALT_ON_FAULT.store(on, Ordering::Relaxed);
}

/// True once a tripwire fired with halt-on-fault set; training loops
/// poll this between batches and stop early.
pub fn halt_requested() -> bool {
    HALT.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// NaN injection (test/CI hook)
// ---------------------------------------------------------------------------

/// `i64::MIN` = env not parsed yet, `-1` = injection off, `>= 0` =
/// zero-based index of the op whose output gets poisoned.
const INJ_UNPARSED: i64 = i64::MIN;
const INJ_OFF: i64 = -1;
static INJECT_TARGET: AtomicI64 = AtomicI64::new(INJ_UNPARSED);
static INJECT_COUNTER: AtomicU64 = AtomicU64::new(0);
/// Window-targeted injection: `(epoch << 32) | window`, `u64::MAX` = off.
const INJ_WINDOW_OFF: u64 = u64::MAX;
static INJECT_WINDOW: AtomicU64 = AtomicU64::new(INJ_WINDOW_OFF);

fn inject_target() -> i64 {
    let t = INJECT_TARGET.load(Ordering::Relaxed);
    if t != INJ_UNPARSED {
        return t;
    }
    // `N` poisons the N-th probed op (process-global counter —
    // deterministic only for a single worker thread); `E:W` poisons
    // every op of window W in epoch E (deterministic for any worker
    // count, since window contexts are thread-local and seeded by
    // batch position).
    let raw = std::env::var("ADAPTRAJ_HEALTH_INJECT_NAN").unwrap_or_default();
    let parsed = if let Some((e, w)) = raw.split_once(':') {
        if let (Ok(e), Ok(w)) = (e.parse::<u32>(), w.parse::<u32>()) {
            INJECT_WINDOW.store(((e as u64) << 32) | w as u64, Ordering::Relaxed);
        }
        INJ_OFF
    } else {
        raw.parse::<u64>().map(|n| n as i64).unwrap_or(INJ_OFF)
    };
    INJECT_TARGET.store(parsed, Ordering::Relaxed);
    parsed
}

/// Programmatic override for `ADAPTRAJ_HEALTH_INJECT_NAN` (tests). Also
/// rewinds the op counter.
pub fn set_inject_nan(target: Option<u64>) {
    INJECT_TARGET.store(
        target.map(|n| n as i64).unwrap_or(INJ_OFF),
        Ordering::Relaxed,
    );
    INJECT_COUNTER.store(0, Ordering::Relaxed);
}

/// Programmatic override for window-targeted injection (the `E:W` form
/// of `ADAPTRAJ_HEALTH_INJECT_NAN`): every op inside window `w` of
/// epoch `e` gets poisoned — worker-count-deterministic, unlike the
/// op-index form.
pub fn set_inject_window(target: Option<(u32, u32)>) {
    INJECT_WINDOW.store(
        target
            .map(|(e, w)| ((e as u64) << 32) | w as u64)
            .unwrap_or(INJ_WINDOW_OFF),
        Ordering::Relaxed,
    );
    // Pin the op-index mode to a definite state so the env var is not
    // re-parsed over this override.
    if INJECT_TARGET.load(Ordering::Relaxed) == INJ_UNPARSED {
        INJECT_TARGET.store(INJ_OFF, Ordering::Relaxed);
    }
}

/// True when the tape should poison the current op's output with a NaN
/// so the tripwire→run record→doctor path can be exercised end to end on a
/// healthy model. Two trigger modes (see `ADAPTRAJ_HEALTH_INJECT_NAN`):
/// the N-th probed op (fires exactly once), or every op of one
/// `(epoch, window)` context.
#[inline]
pub fn should_inject() -> bool {
    if !health_enabled() {
        return false;
    }
    let t = inject_target();
    let wt = INJECT_WINDOW.load(Ordering::Relaxed);
    if wt != INJ_WINDOW_OFF {
        let ctx = CTX.with(|c| c.get());
        let (te, tw) = (wt >> 32, wt & 0xFFFF_FFFF);
        // Under batched execution a job covers several windows; the
        // injection fires when the target window is any of them, so the
        // `E:W` form stays deterministic regardless of job formation.
        let hit = ctx.epoch == te
            && BATCH_IDS.with(|b| {
                let ids = b.borrow();
                if ids.is_empty() {
                    ctx.window == tw
                } else {
                    ids.contains(&tw)
                }
            });
        if hit {
            return true;
        }
    }
    if t < 0 {
        return false;
    }
    INJECT_COUNTER.fetch_add(1, Ordering::Relaxed) == t as u64
}

// ---------------------------------------------------------------------------
// Window context + tripwire probe
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Ctx {
    epoch: u64,
    window: u64,
}

thread_local! {
    static CTX: Cell<Ctx> = const { Cell::new(Ctx { epoch: 0, window: 0 }) };
    static BATCH_IDS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TRIPPED: Cell<bool> = const { Cell::new(false) };
    static PENDING: RefCell<Vec<Incident>> = const { RefCell::new(Vec::new()) };
}

/// Scope guard tagging incidents recorded on this thread with the
/// training epoch and window index. Inert (one atomic load) while the
/// observatory is disabled.
#[must_use = "the window context ends when the guard drops"]
#[derive(Debug)]
pub struct WindowScope {
    entered: bool,
    prev: Ctx,
    prev_ids: Vec<u64>,
}

/// Enters a batch context covering all windows of one job: tripwire
/// incidents on this thread attribute to `(epoch, ids[0])` — the job's
/// first window in batch order — and window-targeted NaN injection
/// (`E:W`) fires when window `W` is *any* window of the job, keeping the
/// injection deterministic under batched execution. The tripped flag is
/// per job, so each job records at most one incident.
pub fn batch_scope(epoch: u64, ids: &[u64]) -> WindowScope {
    if !health_enabled() {
        return WindowScope {
            entered: false,
            prev: Ctx {
                epoch: 0,
                window: 0,
            },
            prev_ids: Vec::new(),
        };
    }
    let window = ids.first().copied().unwrap_or(0);
    let prev = CTX.with(|c| c.replace(Ctx { epoch, window }));
    let prev_ids = BATCH_IDS.with(|b| std::mem::replace(&mut *b.borrow_mut(), ids.to_vec()));
    TRIPPED.with(|t| t.set(false));
    WindowScope {
        entered: true,
        prev,
        prev_ids,
    }
}

impl Drop for WindowScope {
    fn drop(&mut self) {
        if self.entered {
            CTX.with(|c| c.set(self.prev));
            BATCH_IDS.with(|b| *b.borrow_mut() = std::mem::take(&mut self.prev_ids));
        }
    }
}

/// Kind of numerics fault a tripwire detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    Nan,
    Inf,
    Exploding,
}

impl FaultKind {
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Nan => "nan",
            FaultKind::Inf => "inf",
            FaultKind::Exploding => "exploding",
        }
    }
}

/// Summary statistics of the offending tensor buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorStats {
    pub len: u64,
    pub nan_count: u64,
    pub inf_count: u64,
    /// Largest finite |x| in the buffer.
    pub max_abs: f64,
    /// Mean of finite |x| in the buffer.
    pub mean_abs: f64,
}

/// One tripwire firing, attributed to an op kind, a profiler phase path,
/// and the training window/epoch it occurred in.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    pub epoch: u64,
    pub window: u64,
    pub op: String,
    /// Full `/`-joined profiler phase path; empty when recorded outside
    /// any phase (or with the profiler disabled).
    pub phase: String,
    pub fault: FaultKind,
    pub stats: TensorStats,
}

impl Incident {
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("epoch", self.epoch)
            .u64("window", self.window)
            .str("op", &self.op)
            .str("phase", &self.phase)
            .str("fault", self.fault.as_str())
            .u64("len", self.stats.len)
            .u64("nan_count", self.stats.nan_count)
            .u64("inf_count", self.stats.inf_count)
            .f64("max_abs", self.stats.max_abs)
            .f64("mean_abs", self.stats.mean_abs)
            .finish()
    }

    /// Reads back one incident as [`Incident::to_json`] wrote it.
    pub fn from_json(v: &Value) -> Incident {
        let u = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        let s = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        // A non-finite value is written as `null` and reads back as NaN.
        let f = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        Incident {
            epoch: u("epoch"),
            window: u("window"),
            op: s("op"),
            phase: s("phase"),
            fault: match v.get("fault").and_then(Value::as_str) {
                Some("inf") => FaultKind::Inf,
                Some("exploding") => FaultKind::Exploding,
                _ => FaultKind::Nan,
            },
            stats: TensorStats {
                len: u("len"),
                nan_count: u("nan_count"),
                inf_count: u("inf_count"),
                max_abs: f("max_abs"),
                mean_abs: f("mean_abs"),
            },
        }
    }
}

/// The tape-level probe: scans an op's freshly produced value buffer and
/// records an [`Incident`] when it contains NaN/Inf or a finite value
/// beyond the explosion threshold. One relaxed atomic load when the
/// observatory is disabled.
#[inline]
pub fn check_tensor(kind: &'static str, data: &[f32]) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    scan_tensor(kind, data);
}

fn scan_tensor(kind: &'static str, data: &[f32]) {
    if let Some((fault, stats)) = classify(data, EXPLODE_THRESHOLD) {
        trip(kind, fault, stats);
    }
}

/// The tripwire's verdict on one buffer: `None` when every value is
/// finite with |x| at most `threshold`, else the fault and the buffer's
/// statistics. A clean buffer costs one branch-free pass; the counting
/// pass runs only on the fault path.
fn classify(data: &[f32], threshold: f32) -> Option<(FaultKind, TensorStats)> {
    // NaN fails `<=`, and capping the threshold at f32::MAX keeps ±Inf
    // failing it even when the threshold itself is +Inf.
    let thr = threshold.min(f32::MAX);
    if data.iter().fold(true, |ok, &x| ok & (x.abs() <= thr)) {
        return None;
    }
    let mut nan = 0u64;
    let mut inf = 0u64;
    let mut max_abs = 0f32;
    let mut sum_abs = 0f64;
    let mut finite = 0u64;
    for &x in data {
        if x.is_nan() {
            nan += 1;
        } else if x.is_infinite() {
            inf += 1;
        } else {
            let a = x.abs();
            if a > max_abs {
                max_abs = a;
            }
            sum_abs += a as f64;
            finite += 1;
        }
    }
    let fault = if nan > 0 {
        FaultKind::Nan
    } else if inf > 0 {
        FaultKind::Inf
    } else {
        FaultKind::Exploding
    };
    Some((
        fault,
        TensorStats {
            len: data.len() as u64,
            nan_count: nan,
            inf_count: inf,
            max_abs: max_abs as f64,
            mean_abs: if finite > 0 {
                sum_abs / finite as f64
            } else {
                0.0
            },
        },
    ))
}

fn trip(kind: &'static str, fault: FaultKind, stats: TensorStats) {
    // Only the first fault per window is recorded: once a NaN appears it
    // propagates through every downstream op, and the diagnosis wants
    // the *first* unhealthy op, not the flood.
    let first = TRIPPED.with(|t| !t.replace(true));
    if HALT_ON_FAULT.load(Ordering::Relaxed) {
        HALT.store(true, Ordering::Relaxed);
    }
    if !first {
        return;
    }
    let ctx = CTX.with(|c| c.get());
    let incident = Incident {
        epoch: ctx.epoch,
        window: ctx.window,
        op: kind.to_string(),
        phase: crate::profile::current_path().unwrap_or_default(),
        fault,
        stats,
    };
    PENDING.with(|p| p.borrow_mut().push(incident));
}

// ---------------------------------------------------------------------------
// Global incident store + deterministic cross-worker merge
// ---------------------------------------------------------------------------

fn store_lock() -> std::sync::MutexGuard<'static, Vec<Incident>> {
    static S: OnceLock<Mutex<Vec<Incident>>> = OnceLock::new();
    match S.get_or_init(|| Mutex::new(Vec::new())).lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Drains the incidents buffered on this thread. The executor calls this
/// at the end of each job and ships the buffer back with the job result
/// so the dispatcher can absorb buffers in item order — the global
/// incident sequence is then identical for any worker count. One relaxed
/// atomic load (and no allocation) while disabled.
pub fn take_thread_incidents() -> Vec<Incident> {
    if !health_enabled() {
        return Vec::new();
    }
    PENDING.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

/// Appends worker-buffered incidents to the global store (dispatcher
/// side, in item order) and counts them in `health.incidents`.
pub fn absorb_incidents(incidents: Vec<Incident>) {
    if incidents.is_empty() {
        return;
    }
    global()
        .counter("health.incidents")
        .add(incidents.len() as u64);
    store_lock().extend(incidents);
}

/// Point-in-time copy of the recorded incidents, in record order.
pub fn incidents() -> Vec<Incident> {
    store_lock().clone()
}

/// Clears the incident store, the halt latch, the injection op counter,
/// and this thread's pending buffer. The halt-on-fault switch is kept.
pub fn reset() {
    store_lock().clear();
    HALT.store(false, Ordering::Relaxed);
    INJECT_COUNTER.store(0, Ordering::Relaxed);
    PENDING.with(|p| p.borrow_mut().clear());
    TRIPPED.with(|t| t.set(false));
    BATCH_IDS.with(|b| b.borrow_mut().clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The observatory is process-global; tests that flip the enable bit
    /// serialize on this lock so they cannot clobber each other.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static L: OnceLock<Mutex<()>> = OnceLock::new();
        match L.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn fresh() {
        set_enabled(true);
        set_halt_on_fault(false);
        set_inject_nan(None);
        reset();
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let _g = test_lock();
        set_enabled(false);
        reset();
        check_tensor("matmul", &[f32::NAN, 1.0]);
        absorb_incidents(take_thread_incidents());
        assert!(incidents().is_empty());
    }

    #[test]
    fn probe_classifies_nan_inf_and_exploding() {
        let _g = test_lock();
        fresh();
        {
            let _w = batch_scope(2, &[7]);
            check_tensor("tanh", &[0.5, f32::NAN, f32::INFINITY, -3.0]);
        }
        absorb_incidents(take_thread_incidents());
        let first = incidents()[0].clone();
        assert_eq!(first.fault, FaultKind::Nan);
        assert_eq!(first.op, "tanh");
        assert_eq!((first.epoch, first.window), (2, 7));
        assert_eq!(first.stats.nan_count, 1);
        assert_eq!(first.stats.inf_count, 1);
        assert_eq!(first.stats.len, 4);
        assert_eq!(first.stats.max_abs, 3.0);

        reset();
        {
            let _w = batch_scope(0, &[0]);
            check_tensor("exp", &[1.0, f32::INFINITY]);
        }
        absorb_incidents(take_thread_incidents());
        assert_eq!(incidents()[0].fault, FaultKind::Inf);

        reset();
        {
            let _w = batch_scope(0, &[0]);
            check_tensor("matmul", &[2.0e6, 1.0]);
        }
        absorb_incidents(take_thread_incidents());
        assert_eq!(incidents()[0].fault, FaultKind::Exploding);
        set_enabled(false);
        reset();
    }

    #[test]
    fn only_first_fault_per_window_is_recorded() {
        let _g = test_lock();
        fresh();
        {
            let _w = batch_scope(1, &[1]);
            check_tensor("a", &[f32::NAN]);
            check_tensor("b", &[f32::NAN]);
        }
        {
            let _w = batch_scope(1, &[2]);
            check_tensor("c", &[f32::NAN]);
        }
        absorb_incidents(take_thread_incidents());
        assert_eq!(incidents().len(), 2);
        assert_eq!(incidents()[0].op, "a");
        assert!(!halt_requested(), "a fault halts only when asked to");
        set_enabled(false);
        reset();
    }

    #[test]
    fn halt_on_fault_latches_and_the_incident_round_trips() {
        let _g = test_lock();
        fresh();
        set_halt_on_fault(true);
        assert!(!halt_requested());
        {
            let _w = batch_scope(3, &[9]);
            check_tensor("sub", &[f32::NAN, f32::INFINITY, -2.5]);
        }
        absorb_incidents(take_thread_incidents());
        assert!(halt_requested());
        let inc = incidents()[0].clone();
        assert_eq!(
            Incident::from_json(&Value::parse(&inc.to_json()).unwrap()),
            inc
        );
        set_halt_on_fault(false);
        set_enabled(false);
        reset();
    }

    #[test]
    fn worker_records_merge_in_absorb_order() {
        let _g = test_lock();
        fresh();
        let bufs: Vec<Vec<Incident>> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    let _w = batch_scope(0, &[i]);
                    check_tensor("matmul", &[f32::NAN]);
                    take_thread_incidents()
                })
                .join()
                .unwrap()
            })
            .collect();
        for b in bufs {
            absorb_incidents(b);
        }
        let windows: Vec<u64> = incidents().iter().map(|i| i.window).collect();
        assert_eq!(windows, [0, 1, 2]);
        set_enabled(false);
        reset();
    }

    #[test]
    fn injection_counter_fires_once_at_target() {
        let _g = test_lock();
        fresh();
        set_inject_nan(Some(2));
        assert!(!should_inject());
        assert!(!should_inject());
        assert!(should_inject());
        assert!(!should_inject());
        set_inject_nan(None);
        assert!(!should_inject());
        set_enabled(false);
        reset();
    }

    #[test]
    fn batch_scope_matches_injection_on_any_window_of_the_job() {
        let _g = test_lock();
        fresh();
        set_inject_window(Some((3, 7)));
        {
            let _b = batch_scope(3, &[5, 7, 9]);
            assert!(should_inject(), "target window 7 is in the job");
        }
        {
            let _b = batch_scope(3, &[5, 6, 9]);
            assert!(!should_inject(), "target window 7 is not in the job");
        }
        {
            let _b = batch_scope(2, &[7]);
            assert!(!should_inject(), "epoch must match too");
        }
        {
            let _b = batch_scope(3, &[7]);
            assert!(should_inject(), "a batch of one is its window");
        }
        set_inject_window(None);
        set_enabled(false);
        reset();
    }

    #[test]
    fn batch_scope_attributes_incidents_to_the_first_window() {
        let _g = test_lock();
        fresh();
        {
            let _b = batch_scope(4, &[11, 12, 13]);
            check_tensor("gemm", &[f32::NAN]);
        }
        absorb_incidents(take_thread_incidents());
        let inc = incidents()[0].clone();
        assert_eq!(inc.epoch, 4);
        assert_eq!(
            inc.window, 11,
            "incidents attribute to the job's first window"
        );
        set_enabled(false);
        reset();
    }

    /// The full counting scan the tripwire ran on every op before the
    /// clean-buffer pass: the reference the verdict must match.
    fn full_scan(data: &[f32], threshold: f32) -> Option<(FaultKind, TensorStats)> {
        let (mut nan, mut inf, mut finite) = (0u64, 0u64, 0u64);
        let (mut max_abs, mut sum_abs) = (0f32, 0f64);
        for &x in data {
            if x.is_nan() {
                nan += 1;
            } else if x.is_infinite() {
                inf += 1;
            } else {
                max_abs = max_abs.max(x.abs());
                sum_abs += x.abs() as f64;
                finite += 1;
            }
        }
        let fault = if nan > 0 {
            FaultKind::Nan
        } else if inf > 0 {
            FaultKind::Inf
        } else if max_abs > threshold {
            FaultKind::Exploding
        } else {
            return None;
        };
        let mean_abs = if finite > 0 {
            sum_abs / finite as f64
        } else {
            0.0
        };
        Some((
            fault,
            TensorStats {
                len: data.len() as u64,
                nan_count: nan,
                inf_count: inf,
                max_abs: max_abs as f64,
                mean_abs,
            },
        ))
    }

    #[test]
    fn clean_pass_verdict_matches_the_full_scan_on_random_buffers() {
        // xorshift64*: the obs crate has no rng of its own.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut verdicts = [0usize; 4];
        for case in 0..4000 {
            let threshold = match case % 4 {
                0 => 1.0e6,
                1 => 10.0,
                2 => 0.5,
                _ => f32::INFINITY,
            };
            let len = (next() % 40) as usize;
            let data: Vec<f32> = (0..len)
                .map(|_| match next() % 64 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => threshold.min(f32::MAX),
                    4 => -threshold.min(f32::MAX),
                    5 => f32::MAX,
                    _ => {
                        let unit = (next() >> 40) as f32 / (1u64 << 24) as f32;
                        (unit - 0.5) * 4.0 * threshold.min(1.0e6)
                    }
                })
                .collect();
            let got = classify(&data, threshold);
            let want = full_scan(&data, threshold);
            // Debug equality: NaN never appears in the stats, so this is
            // exact, field by field.
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{data:?} @ {threshold}"
            );
            let slot = match want.map(|(f, _)| f) {
                None => 0,
                Some(FaultKind::Nan) => 1,
                Some(FaultKind::Inf) => 2,
                Some(FaultKind::Exploding) => 3,
            };
            verdicts[slot] += 1;
        }
        assert!(
            verdicts.iter().all(|&n| n > 0),
            "verdict never drawn: {verdicts:?}"
        );
        // Exactly at the threshold is clean; one ulp past it explodes.
        assert!(classify(&[10.0, -10.0], 10.0).is_none());
        let over = f32::from_bits(10.0f32.to_bits() + 1);
        assert_eq!(classify(&[over], 10.0).unwrap().0, FaultKind::Exploding);
        // An infinite threshold never explodes, but ±Inf still faults.
        assert!(classify(&[f32::MAX, -f32::MAX], f32::INFINITY).is_none());
        assert_eq!(
            classify(&[f32::NEG_INFINITY], f32::INFINITY).unwrap().0,
            FaultKind::Inf
        );
    }
}
