//! Observability for the AdapTraj workspace: spans, tracing events,
//! metrics, profiling, training-run telemetry and live endpoints — all
//! dependency-free (std only).
//!
//! One span model: [`span(name)`](span()) is the single scope guard. It
//! feeds the op profiler's phase path and the flight recorder's timeline
//! behind one relaxed atomic load of the capture mask, so an
//! instrumented site costs nothing measurable while capture is off.
//! [`SpanPath`] carries a thread's place in the span tree into the jobs
//! it dispatches. Around it, from hot path outward:
//!
//! - [`trace`]: leveled events dispatched to pluggable [`Sink`]s (a
//!   stderr pretty-printer and a JSONL file writer ship in-crate).
//!   Filtering is a single atomic load, so disabled levels cost nothing
//!   on the hot path.
//! - [`metrics`]: a process-global registry of counters, gauges, and
//!   log-bucketed streaming histograms (p50/p90/p99) behind cheap
//!   cloneable handles, with snapshot/delta support for
//!   order-independent measurements.
//! - [`profile`]: the op-level autodiff profiler — per-op-kind and
//!   per-span-path forward/backward wall-clock and allocation
//!   attribution, fed by the tape in `adaptraj-tensor` through a single
//!   [`profile::record_op`] choke point that compiles down to one atomic
//!   load when profiling is disabled.
//! - [`timeline`]: the execution flight recorder — per-thread event
//!   buffers (`queue_wait` / `job_run` from the worker pool, one event
//!   per span) exported as Chrome trace-event JSON for Perfetto and as
//!   folded stacks for flamegraphs.
//! - [`telemetry`]: the [`RunTelemetry`] recorder capturing per-epoch
//!   decomposed losses, per-group gradient/parameter norms, non-finite
//!   guards, per-source-domain gradient diagnostics (norms, pairwise
//!   cosines, update-to-weight ratios), per-phase wall-clock and the
//!   tripwire incidents, serialized as the run-manifest JSON document
//!   the `doctor` CLI reads.
//! - [`health`]: the training-health observatory — tape-level numerics
//!   tripwires (NaN/Inf/exploding, with warn / skip-window /
//!   halt-and-dump policies) and their deterministic incident stream.
//! - [`http`] and [`serve`]: the one route-table HTTP server, and the
//!   telemetry routes (`GET /metrics` with p50/p90/p99/p999 quantiles,
//!   `/profile`, `/timeline`) that every listener mounts on it.
//!
//! The crate sits below every other workspace crate (even
//! `adaptraj-tensor` instruments its tape with it) and therefore
//! depends on nothing.

pub mod health;
pub mod http;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod serve;
pub mod span;
pub mod telemetry;
pub mod timeline;
pub mod trace;

pub use health::{Incident, Policy};
pub use metrics::{
    global, CounterHandle, GaugeHandle, HistSnapshot, HistogramHandle, Registry, RegistryDelta,
    RegistrySnapshot,
};
pub use profile::{ProfileSnapshot, PROFILE_SCHEMA};
pub use serve::TelemetryServer;
pub use span::{span, Span, SpanPath};
pub use telemetry::{
    DomainCosine, DomainNorm, EpochRecord, EvalSummary, GroupNorm, GroupRatio, LossComponents,
    PhaseTiming, RunTelemetry, MANIFEST_SCHEMA,
};
pub use timeline::{TimelineEvent, TimelineLane, TimelineSnapshot};
pub use trace::{
    add_sink, clear_sinks, emit, enabled, flush_sinks, max_level, set_max_level, CaptureSink,
    Event, FieldValue, JsonlSink, Level, Sink, StderrSink,
};
