//! The tape's op inventory holds both ways: every kind in [`OP_KINDS`] is
//! recorded by some golden micro-run, except the reference-only kinds,
//! which no model may record. A tape op that no model records is dead
//! surface, and one the reference-only list names has crept into a model.
//!
//! This lives in its own test binary because it switches the process-wide
//! profiler on: no other test may toggle it while the micro-runs record.

use adaptraj_check::golden::micro_datasets;
use adaptraj_check::{run_golden, GOLDEN_NAMES, OP_KINDS};
use adaptraj_obs::profile;

/// Kept on the tape only as the unfused reference the fused-node tests
/// compare against bit for bit.
const REFERENCE_ONLY: [&str; 3] = ["relu", "sigmoid", "add_row_broadcast"];

#[test]
fn golden_micro_runs_record_every_op_kind_but_the_reference_only_ones() {
    let datasets = micro_datasets();
    profile::set_enabled(true);
    let snapshot = {
        let _span = adaptraj_obs::span("op_inventory");
        for name in GOLDEN_NAMES {
            run_golden(name, &datasets);
        }
        profile::snapshot().under("op_inventory")
    };
    profile::set_enabled(false);

    let recorded: Vec<&str> = snapshot
        .by_op()
        .iter()
        .filter(|r| r.fwd_calls > 0)
        .map(|r| r.kind)
        .collect();
    let never_recorded: Vec<&str> = OP_KINDS
        .into_iter()
        .filter(|k| !REFERENCE_ONLY.contains(k) && !recorded.contains(k))
        .collect();
    assert!(
        never_recorded.is_empty(),
        "op kinds no golden micro-run records: {never_recorded:?}"
    );
    let reference_recorded: Vec<&str> = REFERENCE_ONLY
        .into_iter()
        .filter(|k| recorded.contains(k))
        .collect();
    assert!(
        reference_recorded.is_empty(),
        "reference-only op kinds recorded by a model: {reference_recorded:?}"
    );
    let unlisted: Vec<&str> = recorded
        .iter()
        .copied()
        .filter(|k| !OP_KINDS.contains(k))
        .collect();
    assert!(
        unlisted.is_empty(),
        "recorded op kinds missing from OP_KINDS: {unlisted:?}"
    );
}
