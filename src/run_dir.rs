//! The run record: the fixed file set `adaptraj run --out DIR` writes and
//! `adaptraj doctor --run DIR` reads. Both sides take the names from here.

/// The run manifest (`adaptraj-run-manifest/v2`): config, one record per
/// epoch with its losses, gradient norms and health diagnostics, phase
/// timings, the evaluation summary, tripwire incidents and the halt flag.
pub const MANIFEST: &str = "manifest.json";
/// Trace events as JSONL, ending with the final metrics-registry dump.
pub const EVENTS: &str = "events.jsonl";
/// The op-level profile (`adaptraj-profile/v1`).
pub const PROFILE: &str = "profile.json";
/// The flight-recorder timeline as Chrome trace-event JSON (Perfetto).
pub const TRACE: &str = "trace.json";
/// Flamegraph folded stacks keyed by span path.
pub const FOLDED: &str = "trace.folded";
/// The trained parameters, loadable by `serve --checkpoint`.
pub const CHECKPOINT: &str = "checkpoint.atps";

/// Every file of the record, in the order `run` writes them.
pub const FILES: [&str; 6] = [MANIFEST, EVENTS, PROFILE, TRACE, FOLDED, CHECKPOINT];
