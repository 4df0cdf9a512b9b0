//! End-to-end behavior of the golden-regression layer on a *real*
//! micro-run (not the synthetic docs the unit tests use): determinism of
//! the pinned training stack, JSON round-tripping through files on disk,
//! and the gate's reaction to injected drift.
//!
//! Only the cheapest micro-run (`pecnet-vanilla`) executes here — the
//! full six-run sweep is exercised by `adaptraj check` in scripts/ci.sh.

use adaptraj_check::{compare, load_baselines, parse_doc, run_golden, write_doc, GOLDEN_NAMES};
use adaptraj_eval::{BackboneKind, MethodKind};

#[test]
fn micro_run_is_deterministic_and_round_trips_through_disk() {
    let datasets = adaptraj_check::golden::micro_datasets();
    let a = run_golden("pecnet-vanilla", &datasets);
    let b = run_golden("pecnet-vanilla", &datasets);
    assert_eq!(
        a, b,
        "two identically-seeded micro-runs must agree bit-for-bit"
    );
    assert!(!a.epochs.is_empty());
    assert!(a.ade.is_finite() && a.fde.is_finite());

    // The document must survive a real write + parse, not just an
    // in-memory to_json/parse_doc pair.
    let dir = std::env::temp_dir().join(format!("adaptraj-golden-test-{}", std::process::id()));
    let path = write_doc(&dir, &a).expect("write golden doc");
    let parsed = parse_doc(&std::fs::read_to_string(&path).unwrap()).expect("parse golden doc");
    assert_eq!(
        parsed, a,
        "disk round trip changed the document (losses, metrics or probe bits)"
    );

    // An identical candidate passes the gate; flipping one ulp of one
    // epoch loss, or one bit of one probe future, fails it with a
    // field-level diagnosis.
    let cmp = compare(std::slice::from_ref(&a), std::slice::from_ref(&b));
    assert!(cmp.ok(), "{}", cmp.render_text());
    let mut drifted = a.clone();
    drifted.epochs[0].loss_bits ^= 1;
    let cmp = compare(std::slice::from_ref(&a), &[drifted]);
    assert!(!cmp.ok(), "one-ulp loss drift must fail the gate");
    assert!(cmp.diffs[0].field.contains("loss_bits"), "{:?}", cmp.diffs);
    let mut drifted = a.clone();
    drifted.probe_bits[55] ^= 1;
    let cmp = compare(&[a], &[drifted]);
    assert!(!cmp.ok(), "one-bit probe drift must fail the gate");
    assert_eq!(cmp.diffs.len(), 1, "{}", cmp.render_text());
    assert_eq!(cmp.diffs[0].field, "probe_bits[55]", "{:?}", cmp.diffs);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn committed_baselines_load_and_cover_every_golden_name() {
    // The baselines live at the repository root; this test runs from
    // crates/check. Locating them relatively keeps the test hermetic.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let docs = load_baselines(&dir).expect(
        "committed results/GOLDEN_*.json must parse; regenerate with \
         `cargo run --release -- check --update-golden` if the schema changed",
    );
    assert_eq!(docs.len(), GOLDEN_NAMES.len());
    for (doc, name) in docs.iter().zip(GOLDEN_NAMES) {
        assert_eq!(doc.name, name);
        assert!(!doc.epochs.is_empty(), "{name} has no pinned epochs");
        assert!(
            doc.epochs.iter().all(|e| e.loss.is_finite()),
            "{name} pinned a non-finite loss"
        );
    }
    // The AdapTraj run must pin one epoch in each schedule step — that is
    // the whole point of its 3-epoch layout.
    let adaptraj = &docs[GOLDEN_NAMES
        .iter()
        .position(|n| *n == "pecnet-adaptraj")
        .unwrap()];
    let phases: Vec<&str> = adaptraj.epochs.iter().map(|e| e.phase.as_str()).collect();
    assert_eq!(phases.len(), 3, "adaptraj golden must span three epochs");
    assert_ne!(phases[0], phases[1], "steps 1 and 2 share a phase label");
    assert_ne!(phases[1], phases[2], "steps 2 and 3 share a phase label");
}

#[test]
fn goldens_pin_every_backbone_and_every_compared_method() {
    // Golden names are `<backbone>-<method>`, lowercase, no separators.
    let slug = |name: &str| name.to_lowercase().replace(['-', ' '], "");
    let pinned: Vec<(&str, &str)> = GOLDEN_NAMES
        .iter()
        .map(|n| {
            n.split_once('-')
                .expect("golden names are <backbone>-<method>")
        })
        .collect();
    for b in BackboneKind::ALL {
        assert!(
            pinned.iter().any(|(pb, _)| *pb == slug(b.name())),
            "no golden pins backbone {}",
            b.name()
        );
    }
    for m in MethodKind::COMPARED {
        assert!(
            pinned.iter().any(|(_, pm)| *pm == slug(m.name())),
            "no golden pins method {}",
            m.name()
        );
    }
}
