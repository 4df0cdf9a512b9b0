//! Golden-regression layer: fixed-seed micro-runs of every backbone whose
//! per-epoch decomposed losses, ADE/FDE and sampled futures on a fixed
//! probe scene are pinned in committed `results/GOLDEN_*.json` files.
//!
//! The training stack is deterministic by construction (fixed seeds,
//! `window_seed`-derived per-window streams, order-preserving parallel
//! reduction), so a golden micro-run reproduces *exactly* — any bit of
//! drift in an epoch loss means a semantic change to the forward pass,
//! the backward pass, the optimizer, or the data pipeline, which is
//! precisely what a perf-motivated tape change must not cause silently.
//! Losses therefore compare on raw `f64` bit patterns (exact), while
//! ADE/FDE compare within [`METRIC_TOL_PCT`] percent. Sampling is pinned
//! exactly by the probe: the trained predictor's
//! `predict_k(probe_window(), PROBE_K, Rng::seed_from(PROBE_SEED))`,
//! stored as `f32` bit patterns. The serving contract
//! (`tests/serve.rs`) pins served modes to that same offline `predict_k`
//! bit for bit, so the probe also pins what a server returns for every
//! backbone × method.
//!
//! These micro-runs are 2–3 epochs over ≤30 windows: they validate
//! *reproducibility*, not model quality — see EXPERIMENTS.md.

use adaptraj_core::AdapTrajConfig;
use adaptraj_data::dataset::{synthesize_domain, DomainDataset, SynthesisConfig};
use adaptraj_data::domain::DomainId;
use adaptraj_data::trajectory::{Point, TrajWindow, T_OBS, T_PRED};
use adaptraj_eval::runner::train_cell;
use adaptraj_eval::{BackboneKind, CellSpec, MethodKind, RunnerConfig};
use adaptraj_models::predictor::TrainReport;
use adaptraj_models::{Predictor, TrainerConfig};
use adaptraj_obs::json::{Arr, Obj, Value};
use adaptraj_tensor::Rng;
use std::fmt;
use std::path::{Path, PathBuf};

/// Schema tag every golden document carries.
pub const GOLDEN_SCHEMA: &str = "adaptraj-golden/v1";

/// Decomposed-loss field order inside `component_bits`.
pub const COMPONENT_NAMES: [&str; 5] = ["backbone", "recon", "diff", "similar", "distill"];

/// The six pinned micro-runs, `<backbone>-<method>`: every compared
/// method on PECNet (vanilla, Counter's counterfactual pass, the V-REx
/// risk of CausalMotion, the full AdapTraj schedule) and LBEBM under
/// vanilla training and under AdapTraj, so each backbone and each method
/// of the paper's tables is pinned at least once.
pub const GOLDEN_NAMES: [&str; 6] = [
    "pecnet-vanilla",
    "lbebm-vanilla",
    "pecnet-counter",
    "pecnet-causalmotion",
    "pecnet-adaptraj",
    "lbebm-adaptraj",
];

/// One epoch of a pinned run. `loss_bits`/`component_bits` are the `f64`
/// bit patterns and the source of truth for comparison; `loss` and
/// `components_pretty` are human-readable views of the same values (NaN
/// components — terms a method doesn't produce — survive the bit
/// round-trip where decimal JSON could not carry them).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochGold {
    pub epoch: u64,
    pub phase: String,
    pub loss: f64,
    pub loss_bits: u64,
    pub component_bits: [u64; 5],
}

impl EpochGold {
    fn from_components(epoch: u64, phase: &str, loss: f64, comps: [f64; 5]) -> Self {
        EpochGold {
            epoch,
            phase: phase.to_string(),
            loss,
            loss_bits: loss.to_bits(),
            component_bits: comps.map(f64::to_bits),
        }
    }

    pub fn components(&self) -> [f64; 5] {
        self.component_bits.map(f64::from_bits)
    }

    fn pretty_components(&self) -> String {
        COMPONENT_NAMES
            .iter()
            .zip(self.components())
            .map(|(n, v)| format!("{n}={v:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A pinned micro-run.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenDoc {
    pub name: String,
    pub seed: u64,
    pub epochs: Vec<EpochGold>,
    pub ade: f64,
    pub fde: f64,
    /// `f32` bit patterns of the trained predictor's [`probe_modes`]:
    /// mode after mode, `x` and `y` of each future step in turn.
    pub probe_bits: Vec<u32>,
}

impl GoldenDoc {
    pub fn to_json(&self) -> String {
        let mut epochs = Arr::new();
        for e in &self.epochs {
            // Bit patterns are serialized as decimal *strings*: a u64 bit
            // pattern generally exceeds 2^53, and the JSON reader holds
            // numbers as f64, which would silently round the low bits —
            // the exact bits are the entire point of this file.
            let mut obj = Obj::new()
                .u64("epoch", e.epoch)
                .str("phase", &e.phase)
                .str("loss_bits", &e.loss_bits.to_string());
            if e.loss.is_finite() {
                obj = obj.f64("loss", e.loss);
            }
            let mut bits = Arr::new();
            for b in e.component_bits {
                bits = bits.push_str(&b.to_string());
            }
            epochs = epochs.push_raw(
                &obj.raw("component_bits", &bits.finish())
                    .str("components_pretty", &e.pretty_components())
                    .finish(),
            );
        }
        Obj::new()
            .str("schema", GOLDEN_SCHEMA)
            .str("name", &self.name)
            .u64("seed", self.seed)
            .raw("epochs", &epochs.finish())
            .f64("ade", self.ade)
            .f64("fde", self.fde)
            .raw("probe_bits", &probe_json(&self.probe_bits))
            .finish()
    }
}

/// A JSON number array: a `u32` is exact as a JSON number, unlike the
/// `u64` loss bits.
fn probe_json(bits: &[u32]) -> String {
    bits.iter()
        .fold(Arr::new(), |arr, b| arr.push_raw(&b.to_string()))
        .finish()
}

/// Structured failures when loading a golden document.
#[derive(Debug)]
pub enum GoldenError {
    Io(std::io::Error),
    /// Malformed JSON, wrong schema tag, or missing/mistyped fields.
    Schema(String),
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenError::Io(e) => write!(f, "golden io error: {e}"),
            GoldenError::Schema(msg) => write!(f, "golden schema error: {msg}"),
        }
    }
}

impl std::error::Error for GoldenError {}

impl From<std::io::Error> for GoldenError {
    fn from(e: std::io::Error) -> Self {
        GoldenError::Io(e)
    }
}

fn schema_err(msg: impl Into<String>) -> GoldenError {
    GoldenError::Schema(msg.into())
}

/// Parses and validates one `adaptraj-golden/v1` document.
pub fn parse_doc(text: &str) -> Result<GoldenDoc, GoldenError> {
    let v = Value::parse(text).map_err(schema_err)?;
    let schema = v
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| schema_err("missing 'schema'"))?;
    if schema != GOLDEN_SCHEMA {
        return Err(schema_err(format!(
            "schema '{schema}', expected '{GOLDEN_SCHEMA}'"
        )));
    }
    let name = v
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| schema_err("missing 'name'"))?
        .to_string();
    let seed = v
        .get("seed")
        .and_then(Value::as_u64)
        .ok_or_else(|| schema_err("missing 'seed'"))?;
    let ade = v
        .get("ade")
        .and_then(Value::as_f64)
        .ok_or_else(|| schema_err("missing 'ade'"))?;
    let fde = v
        .get("fde")
        .and_then(Value::as_f64)
        .ok_or_else(|| schema_err("missing 'fde'"))?;
    let mut epochs = Vec::new();
    for (i, e) in v
        .get("epochs")
        .and_then(Value::as_array)
        .ok_or_else(|| schema_err("missing 'epochs'"))?
        .iter()
        .enumerate()
    {
        let epoch = e
            .get("epoch")
            .and_then(Value::as_u64)
            .ok_or_else(|| schema_err(format!("epoch {i}: missing 'epoch'")))?;
        let phase = e
            .get("phase")
            .and_then(Value::as_str)
            .ok_or_else(|| schema_err(format!("epoch {i}: missing 'phase'")))?
            .to_string();
        let loss_bits = e
            .get("loss_bits")
            .and_then(Value::as_str)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| schema_err(format!("epoch {i}: missing or non-string 'loss_bits'")))?;
        let bits_arr = e
            .get("component_bits")
            .and_then(Value::as_array)
            .ok_or_else(|| schema_err(format!("epoch {i}: missing 'component_bits'")))?;
        if bits_arr.len() != COMPONENT_NAMES.len() {
            return Err(schema_err(format!(
                "epoch {i}: {} component bits, expected {}",
                bits_arr.len(),
                COMPONENT_NAMES.len()
            )));
        }
        let mut component_bits = [0u64; 5];
        for (j, b) in bits_arr.iter().enumerate() {
            component_bits[j] = b.as_str().and_then(|s| s.parse().ok()).ok_or_else(|| {
                schema_err(format!("epoch {i}: component bit {j} not a u64 string"))
            })?;
        }
        epochs.push(EpochGold {
            epoch,
            phase,
            loss: f64::from_bits(loss_bits),
            loss_bits,
            component_bits,
        });
    }
    if epochs.is_empty() {
        return Err(schema_err("no epochs"));
    }
    let probe_bits = v
        .get("probe_bits")
        .and_then(Value::as_array)
        .ok_or_else(|| schema_err("missing 'probe_bits'"))?
        .iter()
        .map(|b| b.as_u64().and_then(|b| u32::try_from(b).ok()))
        .collect::<Option<Vec<u32>>>()
        .ok_or_else(|| schema_err("'probe_bits' holds a value that is not a u32"))?;
    if probe_bits.len() != PROBE_BITS {
        return Err(schema_err(format!(
            "{} probe bits, expected {PROBE_BITS}",
            probe_bits.len()
        )));
    }
    Ok(GoldenDoc {
        name,
        seed,
        epochs,
        ade,
        fde,
        probe_bits,
    })
}

/// `GOLDEN_<name>.json` inside `dir`.
pub fn golden_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("GOLDEN_{name}.json"))
}

pub fn write_doc(dir: &Path, doc: &GoldenDoc) -> Result<PathBuf, GoldenError> {
    std::fs::create_dir_all(dir)?;
    let path = golden_path(dir, &doc.name);
    std::fs::write(&path, doc.to_json())?;
    Ok(path)
}

/// Loads the committed baselines for all [`GOLDEN_NAMES`]; a missing file
/// is a [`GoldenError::Io`] — an absent baseline must fail the gate, never
/// silently shrink it.
pub fn load_baselines(dir: &Path) -> Result<Vec<GoldenDoc>, GoldenError> {
    GOLDEN_NAMES
        .iter()
        .map(|name| {
            let path = golden_path(dir, name);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| schema_err(format!("cannot read baseline {}: {e}", path.display())))?;
            parse_doc(&text)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Micro-runs.

/// Fixed seed all golden micro-runs train with.
pub const GOLDEN_SEED: u64 = 7;

/// The datasets the micro-runs draw from: smoke-sized synthesis of the
/// two source domains plus the held-out target.
pub fn micro_datasets() -> Vec<DomainDataset> {
    [DomainId::EthUcy, DomainId::LCas, DomainId::Syi]
        .iter()
        .map(|&d| synthesize_domain(d, &SynthesisConfig::smoke()))
        .collect()
}

fn micro_runner(epochs: usize) -> RunnerConfig {
    RunnerConfig {
        trainer: TrainerConfig {
            epochs,
            max_train_windows: 30,
            workers: 1,
            seed: GOLDEN_SEED,
            ..TrainerConfig::default()
        },
        // With 3 epochs the smoke fractions put exactly one epoch in each
        // of the AdapTraj schedule's three steps, so the golden pins a
        // step1/step2/step3 loss apiece.
        adaptraj: AdapTrajConfig::smoke(),
        samples_k: 2,
        eval_cap: 10,
        ..RunnerConfig::default()
    }
}

fn micro_spec(backbone: BackboneKind, method: MethodKind) -> CellSpec {
    CellSpec {
        backbone,
        method,
        sources: vec![DomainId::EthUcy, DomainId::LCas],
        target: DomainId::Syi,
    }
}

/// Seed of the probe's sample stream.
pub const PROBE_SEED: u64 = 20240108;

/// Sampled futures drawn for the probe.
pub const PROBE_K: usize = 3;

/// Length of `probe_bits`: `x` and `y` of every step of every mode.
const PROBE_BITS: usize = PROBE_K * T_PRED * 2;

/// The fixed probe scene: a focal agent walking +x with two neighbors,
/// deterministic coordinates, in the `eth_ucy` source domain of every
/// micro-run. Changing it moves every committed `probe_bits`.
pub fn probe_window() -> TrajWindow {
    let obs: Vec<Point> = (0..T_OBS)
        .map(|t| [0.4 * t as f32 - 2.8, 0.05 * t as f32])
        .collect();
    let n1: Vec<Point> = (0..T_OBS).map(|t| [1.5 - 0.1 * t as f32, 0.8]).collect();
    let n2: Vec<Point> = (0..T_OBS).map(|t| [-1.0, -0.6 + 0.2 * t as f32]).collect();
    TrajWindow {
        obs,
        fut: vec![[0.0, 0.0]; T_PRED],
        neighbors: vec![n1, n2],
        domain: DomainId::EthUcy,
        origin: [4.0, 1.0],
    }
}

/// `predictor`'s [`PROBE_K`] sampled futures for [`probe_window`] from a
/// [`PROBE_SEED`] stream.
pub fn probe_modes(predictor: &dyn Predictor) -> Vec<Vec<Point>> {
    predictor.predict_k(&probe_window(), PROBE_K, &mut Rng::seed_from(PROBE_SEED))
}

fn doc_from_report(
    name: &str,
    report: &TrainReport,
    ade: f32,
    fde: f32,
    probe_bits: Vec<u32>,
) -> GoldenDoc {
    let epochs = report
        .epochs
        .iter()
        .map(|r| {
            let c = &r.components;
            EpochGold::from_components(
                r.epoch as u64,
                &r.phase,
                r.loss,
                [c.backbone, c.recon, c.diff, c.similar, c.distill],
            )
        })
        .collect();
    GoldenDoc {
        name: name.to_string(),
        seed: GOLDEN_SEED,
        epochs,
        ade: ade as f64,
        fde: fde as f64,
        probe_bits,
    }
}

/// Re-runs the named micro-run and returns its golden document.
/// Panics on an unknown name — the name list is a compile-time constant.
pub fn run_golden(name: &str, datasets: &[DomainDataset]) -> GoldenDoc {
    // AdapTraj runs 3 epochs, one per schedule step; the rest run 2.
    let (backbone, method, epochs) = match name {
        "pecnet-vanilla" => (BackboneKind::PecNet, MethodKind::Vanilla, 2),
        "lbebm-vanilla" => (BackboneKind::Lbebm, MethodKind::Vanilla, 2),
        "pecnet-counter" => (BackboneKind::PecNet, MethodKind::Counter, 2),
        "pecnet-causalmotion" => (BackboneKind::PecNet, MethodKind::CausalMotion, 2),
        "pecnet-adaptraj" => (BackboneKind::PecNet, MethodKind::AdapTraj, 3),
        "lbebm-adaptraj" => (BackboneKind::Lbebm, MethodKind::AdapTraj, 3),
        other => panic!("unknown golden micro-run '{other}'"),
    };
    let (r, predictor) = train_cell(
        &micro_spec(backbone, method),
        datasets,
        &micro_runner(epochs),
    );
    let probe = probe_modes(predictor.as_ref())
        .iter()
        .flatten()
        .flat_map(|p| [p[0].to_bits(), p[1].to_bits()])
        .collect();
    doc_from_report(name, &r.report, r.eval.ade, r.eval.fde, probe)
}

/// Runs every micro-run of [`GOLDEN_NAMES`].
pub fn run_all_goldens() -> Vec<GoldenDoc> {
    let datasets = micro_datasets();
    GOLDEN_NAMES
        .iter()
        .map(|name| run_golden(name, &datasets))
        .collect()
}

// ---------------------------------------------------------------------------
// Comparison.

/// One divergence between a baseline and a candidate document.
#[derive(Debug, Clone)]
pub struct GoldenDiff {
    pub name: String,
    /// What diverged, e.g. `epoch[1].loss_bits` or `ade`.
    pub field: String,
    pub expected: String,
    pub actual: String,
}

/// Outcome of gating candidates against baselines.
#[derive(Debug, Clone)]
pub struct GoldenComparison {
    pub diffs: Vec<GoldenDiff>,
    /// Baseline runs with no candidate — always a failure.
    pub missing: Vec<String>,
    /// Number of documents compared.
    pub compared: usize,
}

impl GoldenComparison {
    pub fn ok(&self) -> bool {
        self.diffs.is_empty() && self.missing.is_empty()
    }

    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "golden gate: {} run(s) compared, metric tolerance {METRIC_TOL_PCT}%\n",
            self.compared
        ));
        for m in &self.missing {
            out.push_str(&format!("  MISSING  {m}: no candidate run\n"));
        }
        for d in &self.diffs {
            out.push_str(&format!(
                "  DRIFT    {} {}: expected {} got {}\n",
                d.name, d.field, d.expected, d.actual
            ));
        }
        if self.ok() {
            out.push_str("  OK       no drift\n");
        }
        out
    }
}

/// How far (percent of the baseline) a candidate's ADE/FDE may drift
/// before the golden gate fails.
pub const METRIC_TOL_PCT: f64 = 0.1;

/// Whether `actual` is within [`METRIC_TOL_PCT`] percent of `baseline`
/// (so a zero-baseline metric only accepts zero).
fn pct_close(baseline: f64, actual: f64) -> bool {
    (baseline - actual).abs() <= METRIC_TOL_PCT / 100.0 * baseline.abs()
}

/// Gates `candidates` against `baselines`: epoch losses, decomposed
/// components and probe futures must match *bit-for-bit*; ADE/FDE must
/// agree within [`METRIC_TOL_PCT`] percent of the baseline.
pub fn compare(baselines: &[GoldenDoc], candidates: &[GoldenDoc]) -> GoldenComparison {
    let mut diffs = Vec::new();
    let mut missing = Vec::new();
    let mut compared = 0usize;
    for base in baselines {
        let Some(cand) = candidates.iter().find(|c| c.name == base.name) else {
            missing.push(base.name.clone());
            continue;
        };
        compared += 1;
        let mut push = |field: String, expected: String, actual: String| {
            diffs.push(GoldenDiff {
                name: base.name.clone(),
                field,
                expected,
                actual,
            });
        };
        if base.epochs.len() != cand.epochs.len() {
            push(
                "epochs".into(),
                base.epochs.len().to_string(),
                cand.epochs.len().to_string(),
            );
            continue;
        }
        for (i, (b, c)) in base.epochs.iter().zip(&cand.epochs).enumerate() {
            if b.phase != c.phase {
                push(
                    format!("epoch[{i}].phase"),
                    b.phase.clone(),
                    c.phase.clone(),
                );
            }
            if b.loss_bits != c.loss_bits {
                push(
                    format!("epoch[{i}].loss_bits"),
                    format!("{} ({:.9})", b.loss_bits, b.loss),
                    format!("{} ({:.9})", c.loss_bits, c.loss),
                );
            }
            for (j, comp) in COMPONENT_NAMES.iter().enumerate() {
                if b.component_bits[j] != c.component_bits[j] {
                    push(
                        format!("epoch[{i}].{comp}"),
                        format!("{:.9}", f64::from_bits(b.component_bits[j])),
                        format!("{:.9}", f64::from_bits(c.component_bits[j])),
                    );
                }
            }
        }
        let (b, c) = (&base.probe_bits, &cand.probe_bits);
        let differing: Vec<usize> = (0..b.len().max(c.len()))
            .filter(|&i| b.get(i) != c.get(i))
            .collect();
        if let Some(&i) = differing.first() {
            let show = |bits: Option<&u32>| {
                bits.map_or("nothing".to_string(), |&x| {
                    format!("{x} ({:?})", f32::from_bits(x))
                })
            };
            push(
                format!("probe_bits[{i}]"),
                show(b.get(i)),
                format!(
                    "{} ({} of {} differ)",
                    show(c.get(i)),
                    differing.len(),
                    b.len()
                ),
            );
        }
        for (field, b, c) in [("ade", base.ade, cand.ade), ("fde", base.fde, cand.fde)] {
            if !pct_close(b, c) {
                push(
                    field.to_string(),
                    format!("{b:.6}"),
                    format!("{c:.6} (tol {METRIC_TOL_PCT}%)"),
                );
            }
        }
    }
    GoldenComparison {
        diffs,
        missing,
        compared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(name: &str) -> GoldenDoc {
        GoldenDoc {
            name: name.to_string(),
            seed: 7,
            epochs: vec![
                // Non-dyadic values: their bit patterns use the low
                // mantissa bits, which only survive the JSON round trip
                // because bits are serialized as strings (a JSON number
                // would round above 2^53).
                EpochGold::from_components(
                    0,
                    "train",
                    1.5,
                    [0.1, f64::NAN, std::f64::consts::PI, 3.0, f64::NAN],
                ),
                EpochGold::from_components(1, "train", 0.75, [0.5, 0.3, 0.5, 0.7, 0.5]),
            ],
            ade: 0.42,
            fde: 0.84,
            probe_bits: (0..PROBE_BITS as u32).map(|i| u32::MAX - i).collect(),
        }
    }

    #[test]
    fn json_round_trip_is_exact_including_nan_components() {
        let d = doc("rt");
        let parsed = parse_doc(&d.to_json()).expect("round trip");
        assert_eq!(parsed, d, "bit patterns survive the JSON round trip");
        assert!(parsed.epochs[0].components()[1].is_nan());
    }

    #[test]
    fn parse_rejects_bad_schema_and_missing_fields() {
        assert!(matches!(
            parse_doc("{\"schema\":\"other/v9\"}"),
            Err(GoldenError::Schema(_))
        ));
        assert!(matches!(parse_doc("not json"), Err(GoldenError::Schema(_))));
        let no_epochs = Obj::new()
            .str("schema", GOLDEN_SCHEMA)
            .str("name", "x")
            .u64("seed", 1)
            .f64("ade", 0.0)
            .f64("fde", 0.0)
            .raw("epochs", "[]")
            .finish();
        assert!(matches!(parse_doc(&no_epochs), Err(GoldenError::Schema(_))));
        // A document without its probe fails to load: an absent pin must
        // fail the gate, never silently shrink it.
        let full = doc("p").to_json();
        let (head, _) = full.split_once(",\"probe_bits\"").unwrap();
        let no_probe = format!("{head}}}");
        assert!(matches!(parse_doc(&no_probe), Err(GoldenError::Schema(_))));
    }

    #[test]
    fn identical_docs_pass_the_gate() {
        let cmp = compare(&[doc("a")], &[doc("a")]);
        assert!(cmp.ok(), "{}", cmp.render_text());
        assert_eq!(cmp.compared, 1);
    }

    #[test]
    fn single_bit_loss_drift_fails() {
        let base = doc("a");
        let mut cand = doc("a");
        cand.epochs[1].loss_bits ^= 1; // one ulp
        let cmp = compare(&[base], &[cand]);
        assert!(!cmp.ok());
        assert!(cmp.diffs[0].field.contains("loss_bits"));
    }

    #[test]
    fn component_bit_drift_names_the_component() {
        let base = doc("a");
        let mut cand = doc("a");
        cand.epochs[0].component_bits[3] ^= 1;
        let cmp = compare(&[base], &[cand]);
        assert!(!cmp.ok());
        assert!(cmp.diffs[0].field.ends_with("similar"));
    }

    #[test]
    fn metric_tolerance_is_respected() {
        let base = doc("a");
        let mut cand = doc("a");
        cand.ade = base.ade * 1.0004; // +0.04%
        let within = compare(std::slice::from_ref(&base), std::slice::from_ref(&cand));
        assert!(within.ok(), "{}", within.render_text());
        cand.ade = base.ade * 1.004; // +0.4%
        let drifted = compare(&[base], &[cand]);
        assert!(!drifted.ok(), "0.4% drift must fail a 0.1% gate");
    }

    #[test]
    fn missing_candidate_always_fails() {
        let cmp = compare(&[doc("a"), doc("b")], &[doc("a")]);
        assert!(!cmp.ok());
        assert_eq!(cmp.missing, vec!["b".to_string()]);
        assert!(cmp.render_text().contains("MISSING"));
    }
}
