//! `adaptraj doctor` — offline diagnosis of a training run from its
//! observability artifacts.
//!
//! Ingests the run record `run --out DIR` writes (its
//! `adaptraj-run-manifest/v2` manifest, see [`crate::run_dir`]), a
//! baseline/candidate pair of `perfbench` outputs and a GOLDEN
//! baseline/candidate directory pair, any of them optional, and produces
//! a structured [`Diagnosis`]:
//!
//! - **first unhealthy op** — the earliest numerics-tripwire incident,
//!   with the op kind and profiler phase path that produced it,
//! - **domain-conflict ranking** — source-domain pairs ordered by mean
//!   pairwise gradient cosine (most negative first: the paper's
//!   negative-transfer signal),
//! - **loss trajectory** — divergence (fatal) and plateau (warning)
//!   detection over the manifest's per-epoch losses,
//! - **regression summaries** — golden drift via the comparator
//!   `adaptraj check` uses, and bench regressions judged against the
//!   bounds the repository's `BENCHMARK.json` declares (on `--trace 1`
//!   outputs, the per-layer metric that moved most).
//!
//! The diagnosis renders as text or JSON (`adaptraj-doctor/v1`); any
//! fatal finding makes the CLI exit nonzero.

use adaptraj_obs::health::Incident;
use adaptraj_obs::json::{Arr, Obj, Value};
use adaptraj_obs::telemetry::MANIFEST_SCHEMA;

/// Schema tag of the `doctor --json` output document.
pub const DOCTOR_SCHEMA: &str = "adaptraj-doctor/v1";

/// How many trailing epochs the plateau detector inspects.
const PLATEAU_WINDOW: usize = 4;
/// Relative improvement below which the trailing window counts as flat.
const PLATEAU_REL_TOL: f64 = 1e-3;
/// A phase whose last loss exceeds its minimum by this factor diverged.
const DIVERGENCE_FACTOR: f64 = 5.0;

/// The repository benchmark's declaration: every metric's better
/// direction and, for the end-to-end metrics, the bound a regression
/// must stay within.
const BENCHMARK_JSON: &str = include_str!("../BENCHMARK.json");
/// Schema tag of the environment line `perfbench` prints.
const PERFBENCH_SCHEMA: &str = "adaptraj-perfbench/v1";

/// Severity of one diagnosis finding. Fatal findings make the doctor
/// exit nonzero; warnings and infos do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Info,
    Warning,
    Fatal,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Fatal => "fatal",
        }
    }
}

/// One diagnosis finding: a stable machine-readable code plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub severity: Severity,
    /// Stable code (`numerics-incident`, `loss-divergence`,
    /// `loss-plateau`, `domain-conflict`, `golden-drift`,
    /// `bench-regression`, ...).
    pub code: &'static str,
    pub message: String,
}

/// A source-domain pair ranked by mean pairwise gradient cosine.
#[derive(Debug, Clone, PartialEq)]
pub struct PairConflict {
    pub a: String,
    pub b: String,
    /// Mean cosine over all epochs that reported the pair.
    pub mean_cosine: f64,
    pub epochs: u64,
}

/// The full structured diagnosis.
#[derive(Debug, Clone, Default)]
pub struct Diagnosis {
    pub findings: Vec<Finding>,
    /// Earliest tripwire incident in the run record.
    pub first_unhealthy_op: Option<Incident>,
    pub incident_count: usize,
    pub epoch_records: usize,
    /// Pairs ordered most-conflicting (lowest mean cosine) first.
    pub conflicts: Vec<PairConflict>,
    pub divergence: bool,
    pub plateau: bool,
    /// `Some(summary)` when a golden comparison ran.
    pub golden_summary: Option<String>,
    pub golden_ok: Option<bool>,
    /// `Some(summary)` when a bench comparison ran.
    pub bench_summary: Option<String>,
    pub bench_ok: Option<bool>,
    /// On a `--trace 1` pair, the per-layer metric that moved most in
    /// its worse direction.
    pub bench_layer_move: Option<MetricMove>,
    /// False when only bench or golden inputs were given, so there is no
    /// training run to report on.
    pub has_run: bool,
}

impl Diagnosis {
    /// True when any finding is fatal — the CLI then exits nonzero.
    pub fn fatal(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Fatal)
    }

    fn push(&mut self, severity: Severity, code: &'static str, message: impl Into<String>) {
        self.findings.push(Finding {
            severity,
            code,
            message: message.into(),
        });
    }

    pub fn render_text(&self) -> String {
        let mut out = String::from("adaptraj doctor — diagnosis\n");
        if self.has_run {
            self.render_run(&mut out);
        }
        if let Some(s) = &self.golden_summary {
            out.push_str(&format!("  golden: {s}\n"));
        }
        if let Some(s) = &self.bench_summary {
            out.push_str(&format!("  bench: {s}\n"));
        }
        for f in &self.findings {
            out.push_str(&format!(
                "  [{}] {}: {}\n",
                f.severity.as_str(),
                f.code,
                f.message
            ));
        }
        let fatals = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Fatal)
            .count();
        out.push_str(&format!(
            "verdict: {}\n",
            if fatals > 0 {
                format!("UNHEALTHY ({fatals} fatal finding(s))")
            } else {
                "HEALTHY".to_string()
            }
        ));
        out
    }

    /// The training-run lines: health records, first unhealthy op,
    /// domain conflicts and the loss trajectory.
    fn render_run(&self, out: &mut String) {
        out.push_str(&format!(
            "  health records: {} epoch, {} incident(s)\n",
            self.epoch_records, self.incident_count
        ));
        match &self.first_unhealthy_op {
            Some(i) => out.push_str(&format!(
                "  first unhealthy op: '{}' ({}) in phase '{}' at epoch {}, window {} \
                 [{} NaN / {} Inf of {} values, max |x| {:.3e}]\n",
                i.op,
                i.fault.as_str(),
                if i.phase.is_empty() {
                    "<none>"
                } else {
                    &i.phase
                },
                i.epoch,
                i.window,
                i.stats.nan_count,
                i.stats.inf_count,
                i.stats.len,
                i.stats.max_abs,
            )),
            None => out.push_str("  first unhealthy op: none\n"),
        }
        if self.conflicts.is_empty() {
            out.push_str("  domain conflicts: no pairwise gradient data\n");
        } else {
            out.push_str("  domain conflict ranking (mean grad cosine, most conflicting first):\n");
            for c in &self.conflicts {
                out.push_str(&format!(
                    "    {:<24} {:+.4}{}\n",
                    format!("{}__{}", c.a, c.b),
                    c.mean_cosine,
                    if c.mean_cosine < 0.0 {
                        "  <- negative transfer"
                    } else {
                        ""
                    }
                ));
            }
        }
        out.push_str(&format!(
            "  loss trajectory: {}\n",
            if self.divergence {
                "DIVERGED"
            } else if self.plateau {
                "plateaued"
            } else {
                "healthy"
            }
        ));
    }

    pub fn to_json(&self) -> String {
        let mut findings = Arr::new();
        for f in &self.findings {
            findings = findings.push_raw(
                &Obj::new()
                    .str("severity", f.severity.as_str())
                    .str("code", f.code)
                    .str("message", &f.message)
                    .finish(),
            );
        }
        let mut conflicts = Arr::new();
        for c in &self.conflicts {
            conflicts = conflicts.push_raw(
                &Obj::new()
                    .str("a", &c.a)
                    .str("b", &c.b)
                    .f64("mean_cosine", c.mean_cosine)
                    .u64("epochs", c.epochs)
                    .finish(),
            );
        }
        let mut obj = Obj::new()
            .str("schema", DOCTOR_SCHEMA)
            .bool("healthy", !self.fatal())
            .u64("epoch_records", self.epoch_records as u64)
            .u64("incidents", self.incident_count as u64)
            .bool("divergence", self.divergence)
            .bool("plateau", self.plateau)
            .raw("conflicts", &conflicts.finish())
            .raw("findings", &findings.finish());
        if let Some(i) = &self.first_unhealthy_op {
            obj = obj.raw("first_unhealthy_op", &i.to_json());
        }
        if let Some(ok) = self.golden_ok {
            obj = obj.bool("golden_ok", ok);
        }
        if let Some(ok) = self.bench_ok {
            obj = obj.bool("bench_ok", ok);
        }
        if let Some(m) = &self.bench_layer_move {
            obj = obj.raw(
                "bench_largest_layer_move",
                &Obj::new()
                    .str("metric", &m.name)
                    .str("unit", &m.unit)
                    .f64("baseline", m.baseline)
                    .f64("candidate", m.candidate)
                    .f64("worse_by", m.worse_by)
                    .finish(),
            );
        }
        obj.finish()
    }
}

// ---------------------------------------------------------------------------
// Input parsing
// ---------------------------------------------------------------------------

/// Parses and schema-checks a run manifest (`adaptraj-run-manifest/v2`).
pub fn parse_manifest(text: &str) -> Result<Value, String> {
    let v = Value::parse(text).map_err(|e| format!("manifest: {e}"))?;
    match v.get("schema").and_then(Value::as_str) {
        Some(s) if s == MANIFEST_SCHEMA => Ok(v),
        Some(s) => Err(format!(
            "manifest schema '{s}', expected '{MANIFEST_SCHEMA}'"
        )),
        None => Err("manifest missing 'schema'".into()),
    }
}

// ---------------------------------------------------------------------------
// Diagnosis
// ---------------------------------------------------------------------------

/// Per-epoch loss point pulled from the manifest.
#[derive(Debug, Clone)]
struct LossPoint {
    phase: String,
    loss: f64,
}

/// The manifest's members of array `key` (empty when absent).
fn array<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    v.get(key).and_then(Value::as_array).unwrap_or_default()
}

/// A float as the manifest writes it: `null` (a non-finite value) and a
/// missing member both read as NaN.
fn float(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn string(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

fn manifest_losses(manifest: &Value) -> Vec<LossPoint> {
    array(manifest, "epochs")
        .iter()
        .map(|e| LossPoint {
            phase: string(e, "phase"),
            loss: float(e, "loss"),
        })
        .collect()
}

/// Diagnoses the loss trajectory: divergence when any epoch loss is
/// non-finite or a phase's final loss blew past `DIVERGENCE_FACTOR`
/// times its own minimum; plateau when the final phase's trailing
/// window improved by less than `PLATEAU_REL_TOL` relative.
fn diagnose_losses(d: &mut Diagnosis, points: &[LossPoint]) {
    if points.is_empty() {
        return;
    }
    if let Some(p) = points.iter().find(|p| !p.loss.is_finite()) {
        d.divergence = true;
        d.push(
            Severity::Fatal,
            "loss-divergence",
            format!("non-finite epoch loss in phase '{}'", p.phase),
        );
        return;
    }
    // Per-phase blow-up check: compare each phase's last loss to the
    // minimum it reached earlier in that phase.
    let mut phases: Vec<&str> = Vec::new();
    for p in points {
        if !phases.contains(&p.phase.as_str()) {
            phases.push(&p.phase);
        }
    }
    for phase in &phases {
        let losses: Vec<f64> = points
            .iter()
            .filter(|p| p.phase == *phase)
            .map(|p| p.loss)
            .collect();
        let min = losses.iter().cloned().fold(f64::INFINITY, f64::min);
        let last = *losses.last().unwrap();
        if min > 0.0 && last > min * DIVERGENCE_FACTOR {
            d.divergence = true;
            d.push(
                Severity::Fatal,
                "loss-divergence",
                format!(
                    "phase '{phase}' loss rose to {last:.4} from a minimum of {min:.4} \
                     ({:.1}x)",
                    last / min
                ),
            );
        }
    }
    if d.divergence {
        return;
    }
    // Plateau over the final phase's trailing window (warning only, so a
    // short healthy run still exits zero).
    let final_phase = phases.last().unwrap();
    let losses: Vec<f64> = points
        .iter()
        .filter(|p| p.phase == *final_phase)
        .map(|p| p.loss)
        .collect();
    if losses.len() >= PLATEAU_WINDOW {
        let start = losses[losses.len() - PLATEAU_WINDOW];
        let end = *losses.last().unwrap();
        let rel = (start - end).abs() / start.abs().max(1e-12);
        if rel < PLATEAU_REL_TOL {
            d.plateau = true;
            d.push(
                Severity::Warning,
                "loss-plateau",
                format!(
                    "phase '{final_phase}' loss flat over the last {PLATEAU_WINDOW} \
                     epochs ({start:.6} -> {end:.6})"
                ),
            );
        }
    }
}

/// Ranks source-domain pairs by mean pairwise gradient cosine across
/// all epoch records, most conflicting (lowest) first. A non-finite
/// cosine (written as `null`) is skipped, not averaged in.
fn rank_conflicts(manifest: &Value) -> Vec<PairConflict> {
    let mut pairs: Vec<(String, String, f64, u64)> = Vec::new();
    for e in array(manifest, "epochs") {
        for c in array(e, "cosines") {
            let (a, b, cosine) = (string(c, "a"), string(c, "b"), float(c, "cosine"));
            if !cosine.is_finite() {
                continue;
            }
            match pairs.iter_mut().find(|(pa, pb, ..)| *pa == a && *pb == b) {
                Some((_, _, sum, n)) => {
                    *sum += cosine;
                    *n += 1;
                }
                None => pairs.push((a, b, cosine, 1)),
            }
        }
    }
    let mut out: Vec<PairConflict> = pairs
        .into_iter()
        .map(|(a, b, sum, n)| PairConflict {
            a,
            b,
            mean_cosine: sum / n as f64,
            epochs: n,
        })
        .collect();
    out.sort_by(|x, y| {
        x.mean_cosine
            .partial_cmp(&y.mean_cosine)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (x.a.as_str(), x.b.as_str()).cmp(&(y.a.as_str(), y.b.as_str())))
    });
    out
}

/// Builds the diagnosis of one run from its parsed manifest. Pure — file
/// ingestion and the gate comparators are layered on top in
/// [`run_doctor`].
pub fn diagnose(manifest: &Value) -> Diagnosis {
    let epochs = array(manifest, "epochs");
    let incidents = array(manifest, "incidents");
    let mut d = Diagnosis {
        has_run: true,
        // Epochs that carry the observatory's diagnostics.
        epoch_records: epochs
            .iter()
            .filter(|e| !array(e, "domains").is_empty())
            .count(),
        incident_count: incidents.len(),
        first_unhealthy_op: incidents.first().map(Incident::from_json),
        ..Diagnosis::default()
    };
    if let Some(i) = d.first_unhealthy_op.clone() {
        d.push(
            Severity::Fatal,
            "numerics-incident",
            format!(
                "{} incident(s); first: {} in op '{}' (phase '{}', epoch {}, window {})",
                d.incident_count,
                i.fault.as_str(),
                i.op,
                if i.phase.is_empty() {
                    "<none>"
                } else {
                    &i.phase
                },
                i.epoch,
                i.window
            ),
        );
    }
    d.conflicts = rank_conflicts(manifest);
    let conflict_findings: Vec<String> = d
        .conflicts
        .iter()
        .filter(|c| c.mean_cosine < 0.0)
        .map(|c| {
            format!(
                "sources '{}' and '{}' pull in conflicting directions \
                 (mean grad cosine {:+.4} over {} epoch(s))",
                c.a, c.b, c.mean_cosine, c.epochs
            )
        })
        .collect();
    for msg in conflict_findings {
        d.push(Severity::Warning, "domain-conflict", msg);
    }
    diagnose_losses(&mut d, &manifest_losses(manifest));
    let skipped = manifest
        .get("non_finite_batches_total")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    if skipped > 0 {
        d.push(
            Severity::Warning,
            "non-finite-batches",
            format!("{skipped} window(s) skipped for non-finite losses or gradients"),
        );
    }
    d
}

// ---------------------------------------------------------------------------
// Bench comparison (perfbench outputs)
// ---------------------------------------------------------------------------

/// One metric's move between two perfbench runs of the same workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricMove {
    pub name: String,
    pub unit: String,
    pub baseline: f64,
    pub candidate: f64,
    /// How far the metric moved in its worse direction: relative to the
    /// baseline, or in points over 100 for a `%` metric, which is relative
    /// already. Negative means it got better.
    pub worse_by: f64,
    /// The end-to-end bound from `BENCHMARK.json`; `None` for a per-layer
    /// metric, which has none.
    pub bound: Option<f64>,
}

impl MetricMove {
    /// Past its bound in the worse direction; a move that cannot be
    /// measured (a non-finite value) counts as past it.
    fn regressed(&self) -> bool {
        self.bound
            .is_some_and(|b| self.worse_by.is_nan() || self.worse_by > b)
    }

    fn describe(&self) -> String {
        format!(
            "{} {} by {:.1}% ({:.6} -> {:.6} {})",
            self.name,
            if self.worse_by > 0.0 {
                "worse"
            } else {
                "better"
            },
            self.worse_by.abs() * 100.0,
            self.baseline,
            self.candidate,
            self.unit
        )
    }
}

/// What doctor reads from one perfbench output: the environment line
/// (schema-tagged) and the result line, which comes last.
struct PerfRun {
    workload: String,
    trace: bool,
    correct: bool,
    /// `(name, value, unit)` in the result line's order; a non-finite
    /// value (JSON `null`) reads as NaN.
    metrics: Vec<(String, f64, String)>,
}

fn parse_perfbench(text: &str) -> Result<PerfRun, String> {
    let env_line = text
        .lines()
        .filter_map(|l| Value::parse(l).ok())
        .find(|v| v.get("schema").and_then(Value::as_str) == Some(PERFBENCH_SCHEMA))
        .ok_or(format!(
            "no '{PERFBENCH_SCHEMA}' line; not perfbench output"
        ))?;
    let env = env_line.get("env").ok_or("perfbench line missing 'env'")?;
    let workload = env
        .get("workload")
        .and_then(Value::as_str)
        .ok_or("perfbench env missing 'workload'")?
        .to_string();
    let trace = env
        .get("trace")
        .and_then(Value::as_bool)
        .ok_or("perfbench env missing 'trace'")?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or_default();
    let result = Value::parse(last).map_err(|e| format!("perfbench result line: {e}"))?;
    let correct = result
        .get("correct")
        .and_then(Value::as_bool)
        .ok_or("perfbench result line missing 'correct'")?;
    let Some(Value::Obj(members)) = result.get("metrics") else {
        return Err("perfbench result line missing 'metrics'".into());
    };
    let metrics = members
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                m.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
            )
        })
        .collect();
    Ok(PerfRun {
        workload,
        trace,
        correct,
        metrics,
    })
}

/// `(name, lower is better, bound)` for every metric `BENCHMARK.json`
/// names; only the end-to-end metrics have a bound.
fn benchmark_specs() -> Result<Vec<(String, bool, Option<f64>)>, String> {
    let v = Value::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut specs = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for m in v.get(section).and_then(Value::as_array).unwrap_or_default() {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let (Some(name), Some(better @ ("lower" | "higher"))) = (name, better) else {
                return Err(format!("BENCHMARK.json: malformed {section} metric"));
            };
            let bound = m.get("bound").and_then(Value::as_f64);
            if section == "end_to_end" && bound.is_none() {
                return Err(format!(
                    "BENCHMARK.json: end-to-end metric {name} has no bound"
                ));
            }
            specs.push((name.to_string(), better == "lower", bound));
        }
    }
    Ok(specs)
}

/// Compares two perfbench outputs of the same workload and trace mode
/// against `BENCHMARK.json`: a Fatal `bench-regression` for each
/// end-to-end metric past its bound in its worse direction, a Fatal
/// `bench-incorrect` for each run whose result line says
/// `"correct":false`, and on a `--trace 1` pair the per-layer metric that
/// moved most in its worse direction. Outputs of different workloads or
/// trace modes, or with different metric sets, are refused.
pub fn diagnose_bench(d: &mut Diagnosis, baseline: &str, candidate: &str) -> Result<(), String> {
    let b = parse_perfbench(baseline).map_err(|e| format!("bench baseline: {e}"))?;
    let c = parse_perfbench(candidate).map_err(|e| format!("bench candidate: {e}"))?;
    if (&b.workload, b.trace) != (&c.workload, c.trace) {
        return Err(format!(
            "bench outputs are not comparable: baseline is {} --trace {}, \
             candidate is {} --trace {}",
            b.workload, b.trace as u8, c.workload, c.trace as u8
        ));
    }
    if b.metrics.len() != c.metrics.len() {
        return Err(format!(
            "bench outputs report {} and {} metrics",
            b.metrics.len(),
            c.metrics.len()
        ));
    }
    let specs = benchmark_specs()?;
    let mut moves = Vec::new();
    for (name, value, unit) in &c.metrics {
        let (_, lower, bound) = specs
            .iter()
            .find(|(n, ..)| n == name)
            .ok_or(format!("metric {name} is not in BENCHMARK.json"))?;
        let (_, base, _) = b
            .metrics
            .iter()
            .find(|(n, ..)| n == name)
            .ok_or(format!("metric {name} is missing from the bench baseline"))?;
        let change = if value == base {
            0.0
        } else if unit == "%" {
            (value - base) / 100.0
        } else {
            (value - base) / base.abs()
        };
        moves.push(MetricMove {
            name: name.clone(),
            unit: unit.clone(),
            baseline: *base,
            candidate: *value,
            worse_by: if *lower { change } else { -change },
            bound: *bound,
        });
    }

    for (role, run) in [("baseline", &b), ("candidate", &c)] {
        if !run.correct {
            d.push(
                Severity::Fatal,
                "bench-incorrect",
                format!("the bench {role} run says \"correct\":false"),
            );
        }
    }
    let end_to_end = moves.iter().filter(|m| m.bound.is_some()).count();
    let mut regressed = 0;
    for m in moves.iter().filter(|m| m.regressed()) {
        regressed += 1;
        d.push(
            Severity::Fatal,
            "bench-regression",
            format!(
                "{}, past its {:.0}% bound",
                m.describe(),
                m.bound.unwrap_or_default() * 100.0
            ),
        );
    }
    d.bench_layer_move = moves
        .into_iter()
        .filter(|m| m.bound.is_none() && !m.worse_by.is_nan())
        .max_by(|x, y| x.worse_by.total_cmp(&y.worse_by));
    let ok = regressed == 0 && b.correct && c.correct;
    let detail = match &d.bench_layer_move {
        Some(m) => format!("largest per-layer move: {}", m.describe()),
        None => format!("{regressed} of {end_to_end} end-to-end metric(s) past their bound"),
    };
    d.bench_summary = Some(format!(
        "{} on {} --trace {}: {detail}",
        if ok { "OK" } else { "REGRESSED" },
        c.workload,
        c.trace as u8
    ));
    d.bench_ok = Some(ok);
    Ok(())
}

// ---------------------------------------------------------------------------
// File-level driver
// ---------------------------------------------------------------------------

/// File paths for one doctor invocation; every input is optional but at
/// least one must be given (the bench and golden inputs in pairs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DoctorArgs {
    /// A run record directory (`run --out DIR`).
    pub run: Option<String>,
    pub bench_baseline: Option<String>,
    pub bench_candidate: Option<String>,
    pub golden_dir: Option<String>,
    pub golden_candidate: Option<String>,
}

/// The error for an invocation with nothing to diagnose.
pub const NO_INPUT: &str = "doctor needs at least one of --run DIR, \
     --bench-baseline/--bench-candidate or --golden-dir/--golden-candidate";

fn read(path: impl AsRef<std::path::Path>) -> Result<String, String> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Ingests the artifact files and produces the diagnosis.
pub fn run_doctor(args: &DoctorArgs) -> Result<Diagnosis, String> {
    let has_bench = args.bench_baseline.is_some() && args.bench_candidate.is_some();
    let has_golden = args.golden_dir.is_some() && args.golden_candidate.is_some();
    let mut d = if let Some(dir) = &args.run {
        let path = std::path::Path::new(dir).join(crate::run_dir::MANIFEST);
        diagnose(&parse_manifest(&read(path)?)?)
    } else if has_bench || has_golden {
        Diagnosis::default()
    } else {
        return Err(NO_INPUT.into());
    };

    if let (Some(base), Some(cand)) = (&args.golden_dir, &args.golden_candidate) {
        use adaptraj_check::golden::{compare, load_baselines};
        let b = load_baselines(std::path::Path::new(base)).map_err(|e| format!("{base}: {e}"))?;
        let c = load_baselines(std::path::Path::new(cand)).map_err(|e| format!("{cand}: {e}"))?;
        let cmp = compare(&b, &c, 0.1);
        d.golden_ok = Some(cmp.ok());
        if cmp.ok() {
            d.golden_summary = Some(format!("OK ({} run(s) bit-identical)", cmp.compared));
        } else {
            d.golden_summary = Some(format!(
                "DRIFT ({} divergence(s), {} missing run(s))",
                cmp.diffs.len(),
                cmp.missing.len()
            ));
            d.push(
                Severity::Fatal,
                "golden-drift",
                format!(
                    "{} divergence(s) from the golden baselines in {base}",
                    cmp.diffs.len() + cmp.missing.len()
                ),
            );
        }
    }
    if let (Some(base), Some(cand)) = (&args.bench_baseline, &args.bench_candidate) {
        diagnose_bench(&mut d, &read(base)?, &read(cand)?)?;
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptraj_obs::health::{FaultKind, TensorStats};
    use adaptraj_obs::{DomainCosine, DomainNorm, EpochRecord, RunTelemetry};

    fn epoch_rec(epoch: usize, cosine: f64) -> EpochRecord {
        let mut e = EpochRecord::new(epoch, "step1");
        e.loss = 1.0 - 0.1 * epoch as f64;
        e.domains = vec![
            DomainNorm {
                domain: "ETH&UCY".into(),
                grad_norm: 1.0,
            },
            DomainNorm {
                domain: "L-CAS".into(),
                grad_norm: 2.0,
            },
        ];
        e.cosines = vec![DomainCosine {
            a: "ETH&UCY".into(),
            b: "L-CAS".into(),
            cosine,
        }];
        e
    }

    fn incident() -> Incident {
        Incident {
            epoch: 2,
            window: 17,
            op: "mul".into(),
            phase: "train/step1".into(),
            fault: FaultKind::Nan,
            stats: TensorStats {
                len: 128,
                nan_count: 3,
                inf_count: 0,
                max_abs: 1.5,
                mean_abs: 0.2,
            },
        }
    }

    /// A run's manifest as `doctor --run` reads it back.
    fn manifest(epochs: Vec<EpochRecord>, incidents: Vec<Incident>) -> Value {
        let run = RunTelemetry {
            epochs,
            incidents,
            ..RunTelemetry::default()
        };
        parse_manifest(&run.to_json()).unwrap()
    }

    #[test]
    fn incident_is_fatal_and_surfaces_first_unhealthy_op() {
        let d = diagnose(&manifest(vec![epoch_rec(0, 0.5)], vec![incident()]));
        assert!(d.fatal());
        let i = d.first_unhealthy_op.as_ref().unwrap();
        assert_eq!(i.op, "mul");
        assert_eq!(i.phase, "train/step1");
        assert!(d.render_text().contains("first unhealthy op: 'mul' (nan)"));
        assert!(d.to_json().contains("\"healthy\":false"));
    }

    #[test]
    fn negative_mean_cosine_ranks_first_and_warns() {
        let epochs = vec![epoch_rec(0, -0.4), epoch_rec(1, -0.2), epoch_rec(2, 0.1)];
        let d = diagnose(&manifest(epochs, Vec::new()));
        assert!(!d.fatal());
        assert_eq!(d.conflicts.len(), 1);
        let c = &d.conflicts[0];
        assert_eq!((c.a.as_str(), c.b.as_str()), ("ETH&UCY", "L-CAS"));
        assert!((c.mean_cosine - (-0.5 / 3.0)).abs() < 1e-12);
        assert!(d
            .findings
            .iter()
            .any(|f| f.code == "domain-conflict" && f.severity == Severity::Warning));
    }

    fn manifest_with_losses(losses: &[(&str, f64)]) -> Value {
        let epochs = losses
            .iter()
            .enumerate()
            .map(|(i, &(phase, loss))| {
                let mut e = EpochRecord::new(i, phase);
                e.loss = loss;
                e
            })
            .collect();
        manifest(epochs, Vec::new())
    }

    #[test]
    fn divergence_is_fatal() {
        let m = manifest_with_losses(&[("train", 1.0), ("train", 0.5), ("train", 40.0)]);
        let d = diagnose(&m);
        assert!(d.divergence);
        assert!(d.fatal());

        let m = manifest_with_losses(&[("train", 1.0), ("train", f64::NAN)]);
        let d = diagnose(&m);
        assert!(d.divergence && d.fatal());
    }

    #[test]
    fn plateau_is_a_warning_not_fatal() {
        let m = manifest_with_losses(&[
            ("train", 1.0),
            ("train", 0.5),
            ("train", 0.5),
            ("train", 0.5),
            ("train", 0.5),
        ]);
        let d = diagnose(&m);
        assert!(d.plateau);
        assert!(!d.fatal());
        assert!(d.render_text().contains("plateaued"));
    }

    #[test]
    fn healthy_run_is_healthy() {
        let d = diagnose(&manifest(vec![epoch_rec(0, 0.3)], Vec::new()));
        assert!(!d.fatal());
        assert!(d
            .render_text()
            .contains("health records: 1 epoch, 0 incident(s)"));
        assert!(d.render_text().contains("verdict: HEALTHY"));
        assert!(d.to_json().contains("\"healthy\":true"));
    }

    #[test]
    fn incidents_round_trip_through_the_manifest() {
        let mut second = incident();
        second.window = 18;
        second.fault = FaultKind::Inf;
        let d = diagnose(&manifest(
            vec![epoch_rec(0, -0.25)],
            vec![incident(), second],
        ));
        assert_eq!(d.incident_count, 2);
        assert_eq!(d.first_unhealthy_op, Some(incident()));
        assert_eq!(d.epoch_records, 1);
    }

    #[test]
    fn conflict_ranking_from_a_file_matches_the_in_memory_ranking() {
        // A non-finite cosine is written as `null`; read back, it must
        // still be skipped, not averaged in as 0.0.
        let epochs = vec![
            epoch_rec(0, -0.4),
            epoch_rec(1, f64::NAN),
            epoch_rec(2, -0.2),
        ];
        let run = RunTelemetry {
            epochs,
            ..RunTelemetry::default()
        };
        let in_memory = diagnose(&parse_manifest(&run.to_json()).unwrap()).conflicts;
        let dir = std::env::temp_dir().join(format!("adaptraj_doctor_run_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        run.write_to_file(&dir.join(crate::run_dir::MANIFEST))
            .unwrap();
        let from_file = run_doctor(&DoctorArgs {
            run: Some(dir.to_string_lossy().into_owned()),
            ..DoctorArgs::default()
        })
        .unwrap()
        .conflicts;
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(from_file, in_memory);
        assert_eq!(in_memory[0].epochs, 2);
        assert!((in_memory[0].mean_cosine - (-0.3)).abs() < 1e-12);
    }

    #[test]
    fn wrong_schemas_are_rejected() {
        assert!(parse_manifest("{\"schema\":\"nope/v1\"}").is_err());
        // The previous manifest version is refused, not half-read.
        assert!(parse_manifest("{\"schema\":\"adaptraj-run-manifest/v1\"}").is_err());
        let e = run_doctor(&DoctorArgs::default()).unwrap_err();
        assert!(e.contains("at least one"));
    }

    /// A perfbench output as the benchmark prints it: metric lines, the
    /// schema-tagged environment line, and last the result line.
    fn perfbench_out(
        workload: &str,
        trace: bool,
        correct: bool,
        metrics: &[(&str, f64)],
    ) -> String {
        let unit = |name: &str| match name {
            "setup_s" => "s",
            "peak_rss_mb" => "MB",
            "throughput_per_s" => "1/s",
            "obs.trace_overhead_pct" => "%",
            _ => "ms",
        };
        let mut text = String::new();
        let mut figures = Obj::new();
        for &(name, value) in metrics {
            text.push_str(&format!("{name:<32} {value:>16.6} {}\n", unit(name)));
            figures = figures.raw(
                name,
                &Obj::new()
                    .f64("value", value)
                    .str("unit", unit(name))
                    .finish(),
            );
        }
        let figures = figures.finish();
        let env = Obj::new()
            .str("workload", workload)
            .u64("seed", 1)
            .bool("trace", trace)
            .finish();
        text.push_str(
            &Obj::new()
                .str("schema", PERFBENCH_SCHEMA)
                .raw("env", &env)
                .raw("figures", &figures)
                .finish(),
        );
        text.push('\n');
        text.push_str(
            &Obj::new()
                .bool("correct", correct)
                .u64("attempted", 10)
                .u64("failed", u64::from(!correct))
                .raw("metrics", &figures)
                .finish(),
        );
        text.push('\n');
        text
    }

    fn end_to_end(throughput: f64, latency: f64) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", 0.6),
            ("peak_rss_mb", 40.0),
            ("throughput_per_s", throughput),
            ("latency_p50_ms", latency),
        ]
    }

    fn bench_diagnosis(baseline: &str, candidate: &str) -> Result<Diagnosis, String> {
        let mut d = Diagnosis::default();
        diagnose_bench(&mut d, baseline, candidate)?;
        Ok(d)
    }

    #[test]
    fn benchmark_json_declares_every_metric_with_a_direction() {
        let specs = benchmark_specs().unwrap();
        let bounded: Vec<&str> = specs
            .iter()
            .filter(|(_, _, bound)| bound.is_some())
            .map(|(name, ..)| name.as_str())
            .collect();
        assert_eq!(
            bounded,
            [
                "setup_s",
                "peak_rss_mb",
                "throughput_per_s",
                "latency_p50_ms"
            ]
        );
        assert!(specs
            .iter()
            .any(|(n, lower, _)| n == "throughput_per_s" && !lower));
        assert!(specs
            .iter()
            .any(|(n, lower, _)| n == "latency_p50_ms" && *lower));
    }

    #[test]
    fn end_to_end_regression_past_its_bound_is_fatal() {
        let base = perfbench_out("eval_best_of_20", false, true, &end_to_end(600.0, 400.0));
        // Throughput 30% lower, past its 25% bound in the worse direction.
        let cand = perfbench_out("eval_best_of_20", false, true, &end_to_end(420.0, 400.0));
        let d = bench_diagnosis(&base, &cand).unwrap();
        assert!(d.fatal());
        assert_eq!(d.bench_ok, Some(false));
        let f: Vec<&Finding> = d
            .findings
            .iter()
            .filter(|f| f.code == "bench-regression")
            .collect();
        assert_eq!(f.len(), 1);
        assert!(
            f[0].message.starts_with("throughput_per_s worse by 30.0%"),
            "{}",
            f[0].message
        );
        assert!(d
            .render_text()
            .contains("bench: REGRESSED on eval_best_of_20 --trace 0"));
        // Without --run there is no run to report on.
        assert!(!d.render_text().contains("loss trajectory"));

        // The same on a lower-is-better metric.
        let cand = perfbench_out("eval_best_of_20", false, true, &end_to_end(600.0, 520.0));
        let d = bench_diagnosis(&base, &cand).unwrap();
        assert!(d.fatal());
        assert!(d.findings[0]
            .message
            .starts_with("latency_p50_ms worse by 30.0%"));
    }

    #[test]
    fn better_moves_and_moves_within_the_bound_are_ok() {
        let base = perfbench_out("train_adaptraj", false, true, &end_to_end(600.0, 400.0));
        // Far past the bound, but in the better direction.
        let better = perfbench_out("train_adaptraj", false, true, &end_to_end(1200.0, 200.0));
        // Worse, but by 20% and 24%, inside the 25% bound.
        let within = perfbench_out("train_adaptraj", false, true, &end_to_end(480.0, 496.0));
        for cand in [&base, &better, &within] {
            let d = bench_diagnosis(&base, cand).unwrap();
            assert!(!d.fatal(), "{}", d.render_text());
            assert_eq!(d.bench_ok, Some(true));
            assert!(d.render_text().contains("verdict: HEALTHY"));
        }
    }

    #[test]
    fn traced_pair_names_the_largest_per_layer_move() {
        let base = perfbench_out(
            "train_adaptraj",
            true,
            true,
            &[
                ("tensor.lstm_cell.fwd_ms", 400.0),
                ("exec.worker_utilization", 0.9),
                ("eval.remainder_ms", 250.0),
                ("obs.trace_overhead_pct", 3.0),
            ],
        );
        let cand = perfbench_out(
            "train_adaptraj",
            true,
            true,
            &[
                // 10% worse; utilization 0.9 -> 0.6 is 33% worse (higher
                // is better); the remainder halved, which is better; the
                // overhead moved 9 points, 9% of the whole.
                ("tensor.lstm_cell.fwd_ms", 440.0),
                ("exec.worker_utilization", 0.6),
                ("eval.remainder_ms", 125.0),
                ("obs.trace_overhead_pct", 12.0),
            ],
        );
        let d = bench_diagnosis(&base, &cand).unwrap();
        // Per-layer metrics carry no bound: naming one is not fatal.
        assert!(!d.fatal());
        let m = d.bench_layer_move.as_ref().unwrap();
        assert_eq!(m.name, "exec.worker_utilization");
        assert!((m.worse_by - 1.0 / 3.0).abs() < 1e-12);
        assert!(d
            .render_text()
            .contains("largest per-layer move: exec.worker_utilization worse by 33.3%"));
        let json = Value::parse(&d.to_json()).unwrap();
        let moved = json.get("bench_largest_layer_move").unwrap();
        assert_eq!(
            moved.get("metric").and_then(Value::as_str),
            Some("exec.worker_utilization")
        );
        assert_eq!(moved.get("baseline").and_then(Value::as_f64), Some(0.9));
    }

    #[test]
    fn incorrect_candidate_is_fatal() {
        let base = perfbench_out("serve_closed_k1", false, true, &end_to_end(450.0, 3.5));
        let cand = perfbench_out("serve_closed_k1", false, false, &end_to_end(450.0, 3.5));
        let d = bench_diagnosis(&base, &cand).unwrap();
        assert!(d.fatal());
        assert_eq!(d.bench_ok, Some(false));
        assert!(d
            .findings
            .iter()
            .any(|f| f.code == "bench-incorrect" && f.message.contains("candidate")));
        assert!(d.to_json().contains("\"bench_ok\":false"));
    }

    #[test]
    fn mismatched_outputs_are_refused() {
        let train = perfbench_out("train_adaptraj", false, true, &end_to_end(600.0, 400.0));
        let eval = perfbench_out("eval_best_of_20", false, true, &end_to_end(600.0, 400.0));
        let e = bench_diagnosis(&train, &eval).unwrap_err();
        assert!(e.contains("not comparable"), "{e}");
        let traced = perfbench_out("train_adaptraj", true, true, &end_to_end(600.0, 400.0));
        let e = bench_diagnosis(&train, &traced).unwrap_err();
        assert!(e.contains("not comparable"), "{e}");
        let e = bench_diagnosis(&train, "throughput_per_s 1.0 1/s\n").unwrap_err();
        assert!(e.contains("not perfbench output"), "{e}");
    }
}
