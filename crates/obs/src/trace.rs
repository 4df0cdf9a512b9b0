//! Level-filtered tracing with pluggable sinks.
//!
//! Design constraints (see DESIGN.md "Observability"):
//!
//! * **Zero dependencies** — the whole facility is `std` only.
//! * **Cheap when disabled** — the level check is a single relaxed atomic
//!   load; no allocation happens for filtered-out events.
//! * **Pluggable sinks** — a global registry of [`Sink`]s receives every
//!   enabled [`Event`]. The workspace ships a stderr pretty-printer
//!   ([`StderrSink`]) and a JSONL file writer ([`JsonlSink`]); tests
//!   install capture sinks.
//!
//! Timing scopes are [`span`](crate::span())s, which feed the profiler
//! and the flight recorder; an event that reports a duration carries it
//! as an ordinary field.

use crate::json::Obj;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Verbosity levels, most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
    Trace = 4,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses `error | warn | info | debug | trace` (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            3 => Level::Debug,
            _ => Level::Trace,
        }
    }
}

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(v as f64)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// One trace record, delivered to every installed sink.
#[derive(Debug, Clone)]
pub struct Event {
    pub level: Level,
    /// Subsystem tag, e.g. `"core.fit"` or `"eval.cell"`.
    pub target: &'static str,
    pub message: String,
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Milliseconds since the Unix epoch at emission.
    pub ts_ms: u64,
}

impl Event {
    /// Serializes the event as one compact JSON line (the [`JsonlSink`]
    /// record schema; see the golden test in `tests/obs.rs`).
    pub fn to_json(&self) -> String {
        let mut fields = Obj::new();
        for (k, v) in &self.fields {
            fields = match v {
                FieldValue::U64(x) => fields.u64(k, *x),
                FieldValue::I64(x) => fields.i64(k, *x),
                FieldValue::F64(x) => fields.f64(k, *x),
                FieldValue::Str(x) => fields.str(k, x),
                FieldValue::Bool(x) => fields.bool(k, *x),
            };
        }
        Obj::new()
            .str("type", "event")
            .u64("ts_ms", self.ts_ms)
            .str("level", self.level.as_str())
            .str("target", self.target)
            .str("msg", &self.message)
            .raw("fields", &fields.finish())
            .finish()
    }
}

/// Receives enabled events. Implementations must be thread-safe.
pub trait Sink: Send + Sync {
    fn record(&self, event: &Event);
    fn flush(&self) {}
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static SINKS: RwLock<Vec<Arc<dyn Sink>>> = RwLock::new(Vec::new());

/// Sets the global maximum level; events above it are dropped before any
/// allocation.
pub fn set_max_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

pub fn max_level() -> Level {
    Level::from_u8(MAX_LEVEL.load(Ordering::Relaxed))
}

/// Whether an event at `level` would currently be delivered.
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Installs a sink; every subsequent enabled event is delivered to it.
pub fn add_sink(sink: Arc<dyn Sink>) {
    SINKS.write().expect("sink registry poisoned").push(sink);
}

/// Removes all sinks (used by tests and at process teardown).
pub fn clear_sinks() {
    SINKS.write().expect("sink registry poisoned").clear();
}

/// Flushes every installed sink (call before process exit so buffered
/// JSONL writers hit disk).
pub fn flush_sinks() {
    for s in SINKS.read().expect("sink registry poisoned").iter() {
        s.flush();
    }
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Delivers an event to all sinks if its level is enabled.
pub fn dispatch(event: Event) {
    if !enabled(event.level) {
        return;
    }
    for s in SINKS.read().expect("sink registry poisoned").iter() {
        s.record(&event);
    }
}

/// Emits a message-plus-fields event at `level`.
pub fn emit(
    level: Level,
    target: &'static str,
    message: impl Into<String>,
    fields: Vec<(&'static str, FieldValue)>,
) {
    if !enabled(level) {
        return;
    }
    dispatch(Event {
        level,
        target,
        message: message.into(),
        fields,
        ts_ms: now_ms(),
    });
}

/// Pretty-printer sink for interactive runs:
/// `12:03:04.512 INFO  eval.cell cell ade=0.4100 elapsed_ms=1234.5000`.
#[derive(Debug, Default)]
pub struct StderrSink;

impl Sink for StderrSink {
    fn record(&self, e: &Event) {
        let secs_of_day = (e.ts_ms / 1000) % 86_400;
        let (h, m, s, ms) = (
            secs_of_day / 3600,
            (secs_of_day / 60) % 60,
            secs_of_day % 60,
            e.ts_ms % 1000,
        );
        let mut line = format!(
            "{h:02}:{m:02}:{s:02}.{ms:03} {:5} {} {}",
            e.level.as_str().to_ascii_uppercase(),
            e.target,
            e.message
        );
        for (k, v) in &e.fields {
            let rendered = match v {
                FieldValue::U64(x) => x.to_string(),
                FieldValue::I64(x) => x.to_string(),
                FieldValue::F64(x) => format!("{x:.4}"),
                FieldValue::Str(x) => x.clone(),
                FieldValue::Bool(x) => x.to_string(),
            };
            line.push_str(&format!(" {k}={rendered}"));
        }
        eprintln!("{line}");
    }
}

/// JSONL file sink: one [`Event::to_json`] line per record. Also accepts
/// raw pre-serialized lines so the final metrics dump can share the file.
///
/// Writes are line-atomic: each record is assembled into one buffer
/// (line + `\n`) and written with a single `write_all` under the writer
/// mutex, so concurrent worker threads can never interleave partial
/// lines. The sink also flushes on drop, so records survive even when
/// [`flush_sinks`] is not reached (e.g. a panicking run).
pub struct JsonlSink {
    writer: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl JsonlSink {
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(std::io::BufWriter::new(file)),
        })
    }

    /// Appends one pre-serialized JSON line (no trailing newline needed).
    /// The full line lands in one `write_all` call under the lock, so
    /// lines from concurrent threads never tear.
    pub fn write_raw_line(&self, json: &str) {
        let mut line = String::with_capacity(json.len() + 1);
        line.push_str(json);
        line.push('\n');
        let mut w = self.writer.lock().expect("jsonl writer poisoned");
        let _ = w.write_all(line.as_bytes());
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(w) = self.writer.get_mut() {
            let _ = w.flush();
        }
    }
}

impl Sink for JsonlSink {
    fn record(&self, e: &Event) {
        self.write_raw_line(&e.to_json());
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl writer poisoned").flush();
    }
}

/// In-memory capture sink for tests.
#[derive(Debug, Default)]
pub struct CaptureSink {
    events: Mutex<Vec<Event>>,
}

impl CaptureSink {
    pub fn new() -> Arc<CaptureSink> {
        Arc::new(CaptureSink::default())
    }

    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("capture poisoned").clone()
    }
}

impl Sink for CaptureSink {
    fn record(&self, e: &Event) {
        self.events
            .lock()
            .expect("capture poisoned")
            .push(e.clone());
    }
}

/// Emits at `Level::Error`. Usage: `obs_error!("target", "msg {}", x)`.
#[macro_export]
macro_rules! obs_error {
    ($target:expr, $($arg:tt)*) => {
        $crate::trace::emit($crate::trace::Level::Error, $target, format!($($arg)*), vec![])
    };
}

/// Emits at `Level::Warn`.
#[macro_export]
macro_rules! obs_warn {
    ($target:expr, $($arg:tt)*) => {
        $crate::trace::emit($crate::trace::Level::Warn, $target, format!($($arg)*), vec![])
    };
}

/// Emits at `Level::Info`.
#[macro_export]
macro_rules! obs_info {
    ($target:expr, $($arg:tt)*) => {
        $crate::trace::emit($crate::trace::Level::Info, $target, format!($($arg)*), vec![])
    };
}

/// Emits at `Level::Debug`.
#[macro_export]
macro_rules! obs_debug {
    ($target:expr, $($arg:tt)*) => {
        $crate::trace::emit($crate::trace::Level::Debug, $target, format!($($arg)*), vec![])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink registry and level filter are process-global, so tests that
    // install sinks serialize on this lock to avoid cross-talk.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn level_parse_round_trips() {
        for l in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn level_filter_drops_events() {
        let _guard = TEST_LOCK.lock().unwrap();
        let cap = CaptureSink::new();
        clear_sinks();
        add_sink(cap.clone());
        set_max_level(Level::Warn);
        emit(Level::Info, "t", "dropped", vec![]);
        emit(Level::Warn, "t", "kept", vec![]);
        clear_sinks();
        set_max_level(Level::Info);
        let evs = cap.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].message, "kept");
    }

    #[test]
    fn event_json_has_stable_schema() {
        let e = Event {
            level: Level::Info,
            target: "train.epoch",
            message: "epoch done".into(),
            fields: vec![
                ("epoch", FieldValue::U64(3)),
                ("loss", FieldValue::F64(0.5)),
            ],
            ts_ms: 1700000000000,
        };
        assert_eq!(
            e.to_json(),
            r#"{"type":"event","ts_ms":1700000000000,"level":"info","target":"train.epoch","msg":"epoch done","fields":{"epoch":3,"loss":0.5}}"#
        );
    }
}
