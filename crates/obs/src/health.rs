//! Training-health observatory: numerics tripwires, per-domain gradient
//! diagnostics, and the `adaptraj-health/v1` record stream consumed by
//! the `doctor` CLI.
//!
//! Three layers:
//!
//! - **Numerics tripwires.** The tape in `adaptraj-tensor` probes every
//!   recorded value through [`check_tensor`], next to the profiler's
//!   `record_op` choke point. A disabled observatory costs one relaxed
//!   atomic load per op (same pattern as [`crate::profile`]). When
//!   enabled, the probe scans the result buffer for NaN/Inf/exploding
//!   magnitudes and records an [`Incident`] carrying the op kind, the
//!   profiler phase path, and the training window/epoch context set via
//!   [`window_scope`]. The configured [`Policy`] decides what happens
//!   next: `warn` logs, `skip-window` drops the window's gradient
//!   contribution, `halt-and-dump` stops training and writes a
//!   diagnostic bundle ([`write_bundle`]).
//! - **Per-domain gradient diagnostics.** Training loops call
//!   [`record_epoch`] with per-source-domain gradient norms, pairwise
//!   cosine similarities (the negative-transfer signal), and
//!   per-parameter-group update-to-weight ratios. Each value is mirrored
//!   into the metrics registry (`health.grad_norm.<domain>`,
//!   `health.grad_cosine.<a>__<b>`, `health.update_ratio.<group>`) so it
//!   shows up on `GET /metrics`.
//! - **Record stream.** Incidents and epoch diagnostics accumulate in a
//!   process-global, deterministically ordered record list. Worker
//!   threads buffer incidents thread-locally ([`take_thread_records`]);
//!   the executor ships them back with each job result and the
//!   dispatcher absorbs them in item order ([`absorb_records`]), so the
//!   record sequence is bit-identical for any worker count.
//!
//! Capture is observation-only at the default `warn` policy: nothing in
//! the numeric path changes, goldens stay bit-identical, and the
//! determinism suite is unaffected.

use crate::json::{Arr, Obj, Value};
use crate::metrics::global;
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Schema tag of the health JSONL stream (`--health-out`) header line.
pub const HEALTH_SCHEMA: &str = "adaptraj-health/v1";
/// Schema tag of the `bundle.json` index written by [`write_bundle`].
pub const BUNDLE_SCHEMA: &str = "adaptraj-health-bundle/v1";

static ENABLED: AtomicBool = AtomicBool::new(false);
static POLICY: AtomicU8 = AtomicU8::new(0);
/// Explosion threshold as `f32` bits; 0 means "use the default" (1e6).
static EXPLODE_BITS: AtomicU32 = AtomicU32::new(0);
static HALT: AtomicBool = AtomicBool::new(false);

/// Turns the health observatory on or off. While off, every probe and
/// scope helper early-returns after a single relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether health capture is currently on.
#[inline]
pub fn health_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Alias used by the tape's debug assertion: when the tripwire is armed
/// it supersedes the hard `all_finite` debug assert so non-finite values
/// are *observed* (and policed by the configured policy) rather than
/// aborting the process.
#[inline]
pub fn tripwire_enabled() -> bool {
    health_enabled()
}

/// What to do when a tripwire fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Log the incident and keep training (observation-only; default).
    #[default]
    Warn,
    /// Drop the offending window's gradient contribution.
    SkipWindow,
    /// Stop training and write a diagnostic bundle.
    HaltAndDump,
}

impl Policy {
    pub fn parse(s: &str) -> Result<Policy, String> {
        match s {
            "warn" => Ok(Policy::Warn),
            "skip-window" => Ok(Policy::SkipWindow),
            "halt-and-dump" => Ok(Policy::HaltAndDump),
            other => Err(format!(
                "unknown health policy '{other}' (expected warn | skip-window | halt-and-dump)"
            )),
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Policy::Warn => "warn",
            Policy::SkipWindow => "skip-window",
            Policy::HaltAndDump => "halt-and-dump",
        }
    }
}

/// Sets the tripwire policy (default [`Policy::Warn`]).
pub fn set_policy(p: Policy) {
    POLICY.store(p as u8, Ordering::Relaxed);
}

/// The currently configured tripwire policy.
pub fn policy() -> Policy {
    match POLICY.load(Ordering::Relaxed) {
        1 => Policy::SkipWindow,
        2 => Policy::HaltAndDump,
        _ => Policy::Warn,
    }
}

/// Sets the |x| threshold above which a finite value counts as
/// exploding. Non-positive values restore the default (1e6).
pub fn set_explode_threshold(t: f32) {
    let bits = if t > 0.0 { t.to_bits() } else { 0 };
    EXPLODE_BITS.store(bits, Ordering::Relaxed);
}

/// The current explosion threshold.
pub fn explode_threshold() -> f32 {
    match EXPLODE_BITS.load(Ordering::Relaxed) {
        0 => 1.0e6,
        bits => f32::from_bits(bits),
    }
}

/// True once a `halt-and-dump` tripwire has fired; training loops poll
/// this between batches and stop early.
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
/// so the tripwire→policy→doctor path can be exercised end to end on a
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
    static PENDING: RefCell<Vec<HealthRecord>> = const { RefCell::new(Vec::new()) };
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

/// Enters a window context: subsequent tripwire incidents on this thread
/// attribute to `(epoch, window)`, and the per-window tripped flag is
/// cleared so [`should_skip_window`] reflects only this window. The
/// batch-of-one form of [`batch_scope`].
pub fn window_scope(epoch: u64, window: u64) -> WindowScope {
    batch_scope(epoch, std::slice::from_ref(&window))
}

/// Enters a batch context covering all windows of one job: tripwire
/// incidents on this thread attribute to `(epoch, ids[0])` — the job's
/// first window in batch order — and window-targeted NaN injection
/// (`E:W`) fires when window `W` is *any* window of the job, keeping the
/// injection deterministic under batched execution. The tripped flag is
/// per job: under the `skip-window` policy a tripped job drops the
/// gradient contribution of all its windows.
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

/// Whether the current window (or any window of the current job's batch)
/// tripped a wire under the `skip-window` policy; training loops drop the
/// job's gradient contribution when true. Read before the
/// [`WindowScope`] guard drops.
pub fn should_skip_window() -> bool {
    health_enabled() && policy() == Policy::SkipWindow && TRIPPED.with(|t| t.get())
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
            .str("type", "incident")
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
    } else if max_abs > explode_threshold() {
        FaultKind::Exploding
    } else {
        return;
    };
    trip(
        kind,
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
    );
}

fn trip(kind: &'static str, fault: FaultKind, stats: TensorStats) {
    // Only the first fault per window is recorded: once a NaN appears it
    // propagates through every downstream op, and the diagnosis wants
    // the *first* unhealthy op, not the flood.
    let first = TRIPPED.with(|t| !t.replace(true));
    if policy() == Policy::HaltAndDump {
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
    PENDING.with(|p| p.borrow_mut().push(HealthRecord::Incident(incident)));
}

// ---------------------------------------------------------------------------
// Per-domain gradient diagnostics
// ---------------------------------------------------------------------------

/// Per-source-domain gradient L2 norm for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainNorm {
    pub domain: String,
    pub grad_norm: f64,
}

/// Cosine similarity between two source domains' accumulated gradients.
/// Negative values are the negative-transfer signal AdapTraj targets.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainCosine {
    pub a: String,
    pub b: String,
    pub cosine: f64,
}

/// Update-to-weight ratio `‖Δw‖ / ‖w‖` for one parameter group over the
/// epoch's final optimizer step.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRatio {
    pub group: String,
    pub ratio: f64,
}

/// One epoch's gradient diagnostics, emitted by the training loops.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochHealth {
    pub epoch: u64,
    /// Schedule phase label ("step1".."step3" for AdapTraj, the trainer
    /// phase otherwise).
    pub phase: String,
    pub domains: Vec<DomainNorm>,
    pub cosines: Vec<DomainCosine>,
    pub update_ratios: Vec<GroupRatio>,
}

impl EpochHealth {
    pub fn to_json(&self) -> String {
        let mut domains = Arr::new();
        for d in &self.domains {
            domains = domains.push_raw(
                &Obj::new()
                    .str("domain", &d.domain)
                    .f64("grad_norm", d.grad_norm)
                    .finish(),
            );
        }
        let mut cosines = Arr::new();
        for c in &self.cosines {
            cosines = cosines.push_raw(
                &Obj::new()
                    .str("a", &c.a)
                    .str("b", &c.b)
                    .f64("cosine", c.cosine)
                    .finish(),
            );
        }
        let mut ratios = Arr::new();
        for r in &self.update_ratios {
            ratios = ratios.push_raw(
                &Obj::new()
                    .str("group", &r.group)
                    .f64("ratio", r.ratio)
                    .finish(),
            );
        }
        Obj::new()
            .str("type", "epoch")
            .u64("epoch", self.epoch)
            .str("phase", &self.phase)
            .raw("domains", &domains.finish())
            .raw("cosines", &cosines.finish())
            .raw("update_ratios", &ratios.finish())
            .finish()
    }
}

/// One line of the `adaptraj-health/v1` stream.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthRecord {
    Incident(Incident),
    Epoch(EpochHealth),
}

impl HealthRecord {
    pub fn to_json(&self) -> String {
        match self {
            HealthRecord::Incident(i) => i.to_json(),
            HealthRecord::Epoch(e) => e.to_json(),
        }
    }
}

// ---------------------------------------------------------------------------
// Global record store + deterministic cross-worker merge
// ---------------------------------------------------------------------------

fn store() -> &'static Mutex<Vec<HealthRecord>> {
    static S: OnceLock<Mutex<Vec<HealthRecord>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(Vec::new()))
}

fn store_lock() -> std::sync::MutexGuard<'static, Vec<HealthRecord>> {
    match store().lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Drains the records buffered on this thread. The executor calls this
/// at the end of each job and ships the buffer back with the job result
/// so the dispatcher can absorb buffers in item order — the global
/// record sequence is then identical for any worker count. One relaxed
/// atomic load (and no allocation) while disabled.
pub fn take_thread_records() -> Vec<HealthRecord> {
    if !health_enabled() {
        return Vec::new();
    }
    PENDING.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

/// Appends worker-buffered records to the global store (dispatcher side,
/// in item order). Incidents are logged here — not on the worker thread
/// — so warning output is deterministic too.
pub fn absorb_records(records: Vec<HealthRecord>) {
    if records.is_empty() {
        return;
    }
    for r in &records {
        if let HealthRecord::Incident(i) = r {
            global().counter("health.incidents").incr();
            eprintln!(
                "[health] {} in op '{}' (phase '{}', epoch {}, window {}): \
                 {} NaN, {} Inf, max |x| {:.3e} over {} values (policy: {})",
                i.fault.as_str(),
                i.op,
                i.phase,
                i.epoch,
                i.window,
                i.stats.nan_count,
                i.stats.inf_count,
                i.stats.max_abs,
                i.stats.len,
                policy().as_str(),
            );
        }
    }
    store_lock().extend(records);
}

/// Records one epoch's gradient diagnostics: appended to the record
/// stream and mirrored into the metrics registry as gauges
/// (`health.grad_norm.<domain>`, `health.grad_cosine.<a>__<b>`,
/// `health.update_ratio.<group>`).
pub fn record_epoch(e: EpochHealth) {
    if !health_enabled() {
        return;
    }
    let reg = global();
    for d in &e.domains {
        reg.gauge(&format!("health.grad_norm.{}", d.domain))
            .set(d.grad_norm);
    }
    for c in &e.cosines {
        reg.gauge(&format!("health.grad_cosine.{}__{}", c.a, c.b))
            .set(c.cosine);
    }
    for r in &e.update_ratios {
        reg.gauge(&format!("health.update_ratio.{}", r.group))
            .set(r.ratio);
    }
    store_lock().push(HealthRecord::Epoch(e));
}

/// Point-in-time copy of the global record stream.
pub fn records() -> Vec<HealthRecord> {
    store_lock().clone()
}

/// The first recorded incident, if any — the "first unhealthy op".
pub fn first_incident() -> Option<Incident> {
    store_lock().iter().find_map(|r| match r {
        HealthRecord::Incident(i) => Some(i.clone()),
        HealthRecord::Epoch(_) => None,
    })
}

/// Number of incidents recorded so far.
pub fn incident_count() -> usize {
    store_lock()
        .iter()
        .filter(|r| matches!(r, HealthRecord::Incident(_)))
        .count()
}

/// Clears the record store, the halt latch, the injection op counter,
/// and this thread's pending buffer. Policy and threshold are kept.
pub fn reset() {
    store_lock().clear();
    HALT.store(false, Ordering::Relaxed);
    INJECT_COUNTER.store(0, Ordering::Relaxed);
    PENDING.with(|p| p.borrow_mut().clear());
    TRIPPED.with(|t| t.set(false));
    BATCH_IDS.with(|b| b.borrow_mut().clear());
}

// ---------------------------------------------------------------------------
// JSONL stream + diagnostic bundle
// ---------------------------------------------------------------------------

/// Renders records as an `adaptraj-health/v1` JSONL document: a header
/// line with the schema tag and creation timestamp, then one record per
/// line. Everything except the header timestamp is deterministic.
pub fn render_jsonl(records: &[HealthRecord], created_unix: u64) -> String {
    let mut out = Obj::new()
        .str("schema", HEALTH_SCHEMA)
        .u64("created_unix", created_unix)
        .finish();
    out.push('\n');
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

fn now_unix() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Writes the current record stream to `path` as health JSONL.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_jsonl(&records(), now_unix()))
}

/// Writes the `halt-and-dump` diagnostic bundle to `dir`:
///
/// - `bundle.json` — index with the schema tag, the file list, and the
///   offending incident (op, phase, tensor stats) inlined,
/// - `manifest.json` — the run manifest, when the caller has one,
/// - `registry.json` — counters and gauges from the metrics registry,
/// - `health.jsonl` — the last `last_k` health records.
pub fn write_bundle(dir: &Path, manifest_json: Option<&str>, last_k: usize) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let records = records();
    let tail_start = records.len().saturating_sub(last_k);
    std::fs::write(
        dir.join("health.jsonl"),
        render_jsonl(&records[tail_start..], now_unix()),
    )?;
    if let Some(m) = manifest_json {
        std::fs::write(dir.join("manifest.json"), m)?;
    }
    let snap = global().snapshot();
    let mut counters = Obj::new();
    for (name, v) in snap.counters() {
        counters = counters.u64(name, v);
    }
    let mut gauges = Obj::new();
    for (name, v) in snap.gauges() {
        gauges = gauges.f64(name, v);
    }
    std::fs::write(
        dir.join("registry.json"),
        Obj::new()
            .raw("counters", &counters.finish())
            .raw("gauges", &gauges.finish())
            .finish(),
    )?;
    let mut files = Arr::new()
        .push_str("health.jsonl")
        .push_str("registry.json");
    if manifest_json.is_some() {
        files = files.push_str("manifest.json");
    }
    let mut bundle = Obj::new()
        .str("schema", BUNDLE_SCHEMA)
        .u64("created_unix", now_unix())
        .str("policy", policy().as_str())
        .raw("files", &files.finish())
        .u64("records", records.len() as u64)
        .u64("incidents", incident_count() as u64);
    if let Some(i) = first_incident() {
        bundle = bundle.raw("first_incident", &i.to_json());
    }
    let mut f = std::fs::File::create(dir.join("bundle.json"))?;
    f.write_all(bundle.finish().as_bytes())
}

/// Reads a float field written by [`push_f64`](crate::json::push_f64):
/// `null` stands for a non-finite value and reads back as NaN; a missing
/// field reads as 0.0.
fn f64_field(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::Null) => f64::NAN,
        Some(x) => x.as_f64().unwrap_or(0.0),
        None => 0.0,
    }
}

/// Parses one health JSONL line back into a [`HealthRecord`]. Header
/// lines (and unknown record types) return `None`.
pub fn parse_record(v: &Value) -> Option<HealthRecord> {
    match v.get("type").and_then(Value::as_str) {
        Some("incident") => Some(HealthRecord::Incident(Incident {
            epoch: v.get("epoch").and_then(Value::as_u64).unwrap_or(0),
            window: v.get("window").and_then(Value::as_u64).unwrap_or(0),
            op: v
                .get("op")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            phase: v
                .get("phase")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            fault: match v.get("fault").and_then(Value::as_str) {
                Some("inf") => FaultKind::Inf,
                Some("exploding") => FaultKind::Exploding,
                _ => FaultKind::Nan,
            },
            stats: TensorStats {
                len: v.get("len").and_then(Value::as_u64).unwrap_or(0),
                nan_count: v.get("nan_count").and_then(Value::as_u64).unwrap_or(0),
                inf_count: v.get("inf_count").and_then(Value::as_u64).unwrap_or(0),
                max_abs: f64_field(v, "max_abs"),
                mean_abs: f64_field(v, "mean_abs"),
            },
        })),
        Some("epoch") => {
            let list = |key: &str| -> Vec<Value> {
                v.get(key)
                    .and_then(Value::as_array)
                    .map(|a| a.to_vec())
                    .unwrap_or_default()
            };
            let s = |item: &Value, key: &str| -> String {
                item.get(key)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            Some(HealthRecord::Epoch(EpochHealth {
                epoch: v.get("epoch").and_then(Value::as_u64).unwrap_or(0),
                phase: v
                    .get("phase")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                domains: list("domains")
                    .iter()
                    .map(|d| DomainNorm {
                        domain: s(d, "domain"),
                        grad_norm: f64_field(d, "grad_norm"),
                    })
                    .collect(),
                cosines: list("cosines")
                    .iter()
                    .map(|c| DomainCosine {
                        a: s(c, "a"),
                        b: s(c, "b"),
                        cosine: f64_field(c, "cosine"),
                    })
                    .collect(),
                update_ratios: list("update_ratios")
                    .iter()
                    .map(|r| GroupRatio {
                        group: s(r, "group"),
                        ratio: f64_field(r, "ratio"),
                    })
                    .collect(),
            }))
        }
        _ => None,
    }
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
        set_policy(Policy::Warn);
        set_explode_threshold(0.0);
        set_inject_nan(None);
        reset();
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let _g = test_lock();
        set_enabled(false);
        reset();
        check_tensor("matmul", &[f32::NAN, 1.0]);
        absorb_records(take_thread_records());
        assert!(records().is_empty());
        assert!(!should_skip_window());
    }

    #[test]
    fn probe_classifies_nan_inf_and_exploding() {
        let _g = test_lock();
        fresh();
        {
            let _w = window_scope(2, 7);
            check_tensor("tanh", &[0.5, f32::NAN, f32::INFINITY, -3.0]);
        }
        absorb_records(take_thread_records());
        let first = first_incident().expect("incident recorded");
        assert_eq!(first.fault, FaultKind::Nan);
        assert_eq!(first.op, "tanh");
        assert_eq!((first.epoch, first.window), (2, 7));
        assert_eq!(first.stats.nan_count, 1);
        assert_eq!(first.stats.inf_count, 1);
        assert_eq!(first.stats.len, 4);
        assert_eq!(first.stats.max_abs, 3.0);

        reset();
        {
            let _w = window_scope(0, 0);
            check_tensor("exp", &[1.0, f32::INFINITY]);
        }
        absorb_records(take_thread_records());
        assert_eq!(first_incident().unwrap().fault, FaultKind::Inf);

        reset();
        set_explode_threshold(10.0);
        {
            let _w = window_scope(0, 0);
            check_tensor("matmul", &[11.0, 1.0]);
        }
        absorb_records(take_thread_records());
        assert_eq!(first_incident().unwrap().fault, FaultKind::Exploding);
        set_explode_threshold(0.0);
        set_enabled(false);
        reset();
    }

    #[test]
    fn only_first_fault_per_window_is_recorded() {
        let _g = test_lock();
        fresh();
        {
            let _w = window_scope(1, 1);
            check_tensor("a", &[f32::NAN]);
            check_tensor("b", &[f32::NAN]);
        }
        {
            let _w = window_scope(1, 2);
            check_tensor("c", &[f32::NAN]);
        }
        absorb_records(take_thread_records());
        assert_eq!(incident_count(), 2);
        assert_eq!(first_incident().unwrap().op, "a");
        set_enabled(false);
        reset();
    }

    #[test]
    fn skip_window_policy_flags_only_tripped_windows() {
        let _g = test_lock();
        fresh();
        set_policy(Policy::SkipWindow);
        {
            let _w = window_scope(0, 0);
            check_tensor("mul", &[1.0, 2.0]);
            assert!(!should_skip_window());
            check_tensor("mul", &[f32::NAN]);
            assert!(should_skip_window());
        }
        {
            let _w = window_scope(0, 1);
            assert!(!should_skip_window(), "tripped flag cleared per window");
        }
        set_policy(Policy::Warn);
        set_enabled(false);
        reset();
    }

    #[test]
    fn halt_and_dump_latches_and_bundle_loads() {
        let _g = test_lock();
        fresh();
        set_policy(Policy::HaltAndDump);
        assert!(!halt_requested());
        {
            let _w = window_scope(3, 9);
            check_tensor("sub", &[f32::NAN]);
        }
        absorb_records(take_thread_records());
        assert!(halt_requested());

        let dir = std::env::temp_dir().join(format!("adaptraj-bundle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_bundle(&dir, Some(r#"{"schema":"adaptraj-run-manifest/v1"}"#), 16).unwrap();
        let bundle =
            Value::parse(&std::fs::read_to_string(dir.join("bundle.json")).unwrap()).unwrap();
        assert_eq!(
            bundle.get("schema").and_then(Value::as_str),
            Some(BUNDLE_SCHEMA)
        );
        assert_eq!(
            bundle
                .get("first_incident")
                .and_then(|i| i.get("op"))
                .and_then(Value::as_str),
            Some("sub")
        );
        let jsonl = std::fs::read_to_string(dir.join("health.jsonl")).unwrap();
        let mut lines = jsonl.lines();
        let header = Value::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("schema").and_then(Value::as_str),
            Some(HEALTH_SCHEMA)
        );
        assert!(dir.join("registry.json").exists());
        assert!(dir.join("manifest.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
        set_policy(Policy::Warn);
        set_enabled(false);
        reset();
    }

    #[test]
    fn epoch_records_round_trip_and_set_gauges() {
        let _g = test_lock();
        fresh();
        record_epoch(EpochHealth {
            epoch: 4,
            phase: "step2".into(),
            domains: vec![
                DomainNorm {
                    domain: "eth_ucy".into(),
                    grad_norm: 1.25,
                },
                DomainNorm {
                    domain: "l_cas".into(),
                    grad_norm: 0.5,
                },
            ],
            cosines: vec![DomainCosine {
                a: "eth_ucy".into(),
                b: "l_cas".into(),
                cosine: -0.25,
            }],
            update_ratios: vec![GroupRatio {
                group: "backbone".into(),
                ratio: 1e-3,
            }],
        });
        let recs = records();
        assert_eq!(recs.len(), 1);
        let line = recs[0].to_json();
        let parsed = parse_record(&Value::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, recs[0]);
        let snap = global().snapshot();
        assert_eq!(snap.gauge("health.grad_norm.eth_ucy"), Some(1.25));
        assert_eq!(snap.gauge("health.grad_cosine.eth_ucy__l_cas"), Some(-0.25));
        assert_eq!(snap.gauge("health.update_ratio.backbone"), Some(1e-3));
        set_enabled(false);
        reset();
    }

    #[test]
    fn non_finite_values_read_back_as_nan() {
        let rec = HealthRecord::Epoch(EpochHealth {
            epoch: 1,
            phase: "step1".into(),
            domains: vec![DomainNorm {
                domain: "eth_ucy".into(),
                grad_norm: f64::NAN,
            }],
            cosines: vec![DomainCosine {
                a: "eth_ucy".into(),
                b: "l_cas".into(),
                cosine: f64::NAN,
            }],
            update_ratios: vec![GroupRatio {
                group: "backbone".into(),
                ratio: 0.5,
            }],
        });
        let line = rec.to_json();
        assert!(line.contains(r#""grad_norm":null"#), "{line}");
        let Some(HealthRecord::Epoch(back)) = parse_record(&Value::parse(&line).unwrap()) else {
            panic!("epoch record did not parse: {line}");
        };
        assert!(back.domains[0].grad_norm.is_nan(), "{back:?}");
        assert!(back.cosines[0].cosine.is_nan(), "{back:?}");
        // Finite values and the labels still round-trip exactly.
        assert_eq!(back.update_ratios[0].ratio, 0.5);
        assert_eq!(back.domains[0].domain, "eth_ucy");
        assert_eq!((back.epoch, back.phase.as_str()), (1, "step1"));
    }

    #[test]
    fn worker_records_merge_in_absorb_order() {
        let _g = test_lock();
        fresh();
        let bufs: Vec<Vec<HealthRecord>> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    let _w = window_scope(0, i);
                    check_tensor("matmul", &[f32::NAN]);
                    take_thread_records()
                })
                .join()
                .unwrap()
            })
            .collect();
        for b in bufs {
            absorb_records(b);
        }
        let windows: Vec<u64> = records()
            .iter()
            .filter_map(|r| match r {
                HealthRecord::Incident(i) => Some(i.window),
                _ => None,
            })
            .collect();
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
        // The batch-of-one form behaves like the historical window scope.
        {
            let _w = window_scope(3, 7);
            assert!(should_inject());
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
        absorb_records(take_thread_records());
        let recs = records();
        let inc = recs
            .iter()
            .find_map(|r| match r {
                HealthRecord::Incident(i) => Some(i.clone()),
                _ => None,
            })
            .expect("one incident recorded");
        assert_eq!(inc.epoch, 4);
        assert_eq!(
            inc.window, 11,
            "incidents attribute to the job's first window"
        );
        set_enabled(false);
        reset();
    }

    #[test]
    fn policy_parses_all_variants() {
        assert_eq!(Policy::parse("warn"), Ok(Policy::Warn));
        assert_eq!(Policy::parse("skip-window"), Ok(Policy::SkipWindow));
        assert_eq!(Policy::parse("halt-and-dump"), Ok(Policy::HaltAndDump));
        assert!(Policy::parse("explode").is_err());
    }

    #[test]
    fn jsonl_render_is_deterministic_modulo_header() {
        let _g = test_lock();
        fresh();
        {
            let _w = window_scope(0, 5);
            check_tensor("relu", &[f32::NAN]);
        }
        absorb_records(take_thread_records());
        let recs = records();
        let a = render_jsonl(&recs, 0);
        let b = render_jsonl(&recs, 0);
        assert_eq!(a, b);
        assert!(a.starts_with(r#"{"schema":"adaptraj-health/v1""#));
        set_enabled(false);
        reset();
    }
}
