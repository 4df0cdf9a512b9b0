//! Training-run telemetry: per-epoch decomposed losses, gradient and
//! parameter norms per optimizer group, non-finite-loss guards, and
//! wall-clock per phase, assembled into a run-manifest JSON document.
//!
//! The recorder is deliberately passive — training loops push plain
//! structs into it and `RunTelemetry::to_json` serializes the whole run
//! at the end. Nothing here reads the global metrics registry; the
//! caller hands over its final snapshot ([`Registry::dump_jsonl`]'s
//! per-metric objects) as [`RunTelemetry::metrics`], so the manifest is
//! a self-contained artifact (`manifest.json` in the directory
//! `run --out DIR` writes). While the health observatory is armed, each
//! epoch record also carries the per-source-domain gradient
//! diagnostics, and the run carries the tripwire incidents and whether
//! a `halt-and-dump` policy stopped training.
//!
//! [`Registry::dump_jsonl`]: crate::metrics::Registry::dump_jsonl

use crate::health::Incident;
use crate::json::{Arr, Obj};
use std::io::Write;
use std::path::Path;

/// Version tag embedded in every manifest so downstream tooling can
/// detect schema drift.
pub const MANIFEST_SCHEMA: &str = "adaptraj-run-manifest/v2";

/// Total windows skipped due to non-finite losses or gradients across
/// `epochs`.
pub fn non_finite_total(epochs: &[EpochRecord]) -> u64 {
    epochs.iter().map(|e| e.non_finite_batches).sum()
}

/// The decomposed training objective for one epoch (means over batches).
///
/// Mirrors the AdapTraj loss: `total = backbone + δ·(α·recon + β·diff +
/// γ·similar) + distill`. Each component is stored *unweighted* so the
/// manifest shows raw magnitudes; the weights live in the config echoed
/// alongside. Components that a phase does not compute (e.g. the ours
/// terms during pure-backbone epochs) are `NaN` and serialize as `null`.
#[derive(Debug, Clone, Copy)]
pub struct LossComponents {
    pub backbone: f64,
    pub recon: f64,
    pub diff: f64,
    pub similar: f64,
    pub distill: f64,
}

impl Default for LossComponents {
    fn default() -> Self {
        LossComponents {
            backbone: f64::NAN,
            recon: f64::NAN,
            diff: f64::NAN,
            similar: f64::NAN,
            distill: f64::NAN,
        }
    }
}

impl LossComponents {
    pub fn to_json(&self) -> String {
        Obj::new()
            .f64("backbone", self.backbone)
            .f64("recon", self.recon)
            .f64("diff", self.diff)
            .f64("similar", self.similar)
            .f64("distill", self.distill)
            .finish()
    }
}

/// Gradient/parameter L2 norms for one optimizer parameter group.
#[derive(Debug, Clone)]
pub struct GroupNorm {
    /// Numeric group id (`GroupId.0` in the tensor crate).
    pub group: u32,
    /// Human-readable label ("backbone", "invariant", ...), supplied by
    /// the layer that knows the group map.
    pub label: String,
    pub grad_norm: f64,
    pub param_norm: f64,
}

impl GroupNorm {
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("group", self.group as u64)
            .str("label", &self.label)
            .f64("grad_norm", self.grad_norm)
            .f64("param_norm", self.param_norm)
            .finish()
    }
}

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

/// Everything recorded about one training epoch.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    pub epoch: usize,
    /// Training phase this epoch ran under ("train" for single-phase
    /// loops; "step1"/"step2"/"step3" for the AdapTraj schedule).
    pub phase: String,
    /// Mean total loss over finite batches.
    pub loss: f64,
    pub components: LossComponents,
    /// Global (all-group) gradient norm, pre-clipping, averaged over
    /// batches.
    pub grad_norm: f64,
    pub group_norms: Vec<GroupNorm>,
    pub duration_s: f64,
    /// Windows skipped because their job's (or, for CausalMotion, their
    /// batch's) loss came back NaN/inf, or because their batch's gradient
    /// norm did and the batch took no step. Serialized as
    /// `non_finite_batches`, the historical key.
    pub non_finite_batches: u64,
    /// True on the epoch that triggered patience-based early stopping.
    pub early_stop: bool,
    /// Health-observatory diagnostics, empty while it is off: the
    /// per-source-domain gradient norms, every pairwise cosine, and the
    /// per-group update-to-weight ratios of the epoch's final step.
    pub domains: Vec<DomainNorm>,
    pub cosines: Vec<DomainCosine>,
    pub update_ratios: Vec<GroupRatio>,
}

impl EpochRecord {
    pub fn new(epoch: usize, phase: &str) -> Self {
        EpochRecord {
            epoch,
            phase: phase.to_string(),
            loss: f64::NAN,
            components: LossComponents::default(),
            grad_norm: f64::NAN,
            group_norms: Vec::new(),
            duration_s: 0.0,
            non_finite_batches: 0,
            early_stop: false,
            domains: Vec::new(),
            cosines: Vec::new(),
            update_ratios: Vec::new(),
        }
    }

    pub fn to_json(&self) -> String {
        let mut groups = Arr::new();
        for g in &self.group_norms {
            groups = groups.push_raw(&g.to_json());
        }
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
            .u64("epoch", self.epoch as u64)
            .str("phase", &self.phase)
            .f64("loss", self.loss)
            .raw("components", &self.components.to_json())
            .f64("grad_norm", self.grad_norm)
            .raw("group_norms", &groups.finish())
            .f64("duration_s", self.duration_s)
            .u64("non_finite_batches", self.non_finite_batches)
            .bool("early_stop", self.early_stop)
            .raw("domains", &domains.finish())
            .raw("cosines", &cosines.finish())
            .raw("update_ratios", &ratios.finish())
            .finish()
    }
}

/// Wall-clock for one named phase of the run ("train.step1", "eval", ...).
#[derive(Debug, Clone)]
pub struct PhaseTiming {
    pub phase: String,
    pub duration_s: f64,
}

impl PhaseTiming {
    pub fn new(phase: &str, duration_s: f64) -> Self {
        PhaseTiming {
            phase: phase.to_string(),
            duration_s,
        }
    }

    pub fn to_json(&self) -> String {
        Obj::new()
            .str("phase", &self.phase)
            .f64("duration_s", self.duration_s)
            .finish()
    }
}

/// Final evaluation summary attached to the manifest.
#[derive(Debug, Clone, Copy)]
pub struct EvalSummary {
    pub ade: f64,
    pub fde: f64,
    pub infer_time_s: f64,
    pub num_windows: u64,
}

impl EvalSummary {
    pub fn to_json(&self) -> String {
        Obj::new()
            .f64("ade", self.ade)
            .f64("fde", self.fde)
            .f64("infer_time_s", self.infer_time_s)
            .u64("num_windows", self.num_windows)
            .finish()
    }
}

/// Recorder for a whole training/evaluation run; serializes to the run
/// manifest that `doctor --run DIR` reads.
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// Free-form `(key, value)` pairs echoing the run configuration
    /// (backbone, method, sources, target, seed, ...).
    pub config: Vec<(String, String)>,
    pub epochs: Vec<EpochRecord>,
    pub phases: Vec<PhaseTiming>,
    pub eval: Option<EvalSummary>,
    /// Numerics-tripwire incidents in record order (first = the first
    /// unhealthy op).
    pub incidents: Vec<Incident>,
    /// True when a `halt-and-dump` tripwire stopped training.
    pub halted: bool,
    /// The final metrics-registry snapshot, one JSON object per metric
    /// (`{"type":"counter","name":...,"value":...}` and the gauge and
    /// histogram shapes), serialized as the manifest's `metrics` array.
    pub metrics: Vec<String>,
}

impl RunTelemetry {
    pub fn new() -> Self {
        RunTelemetry::default()
    }

    /// Records a config key echoed into the manifest header.
    pub fn config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    pub fn push_epoch(&mut self, rec: EpochRecord) {
        self.epochs.push(rec);
    }

    pub fn push_phase(&mut self, phase: &str, duration_s: f64) {
        self.phases.push(PhaseTiming::new(phase, duration_s));
    }

    /// True when early stopping fired at any epoch.
    pub fn early_stopped(&self) -> bool {
        self.epochs.iter().any(|e| e.early_stop)
    }

    pub fn to_json(&self) -> String {
        let mut cfg = Obj::new();
        for (k, v) in &self.config {
            cfg = cfg.str(k, v);
        }
        let mut epochs = Arr::new();
        for e in &self.epochs {
            epochs = epochs.push_raw(&e.to_json());
        }
        let mut phases = Arr::new();
        for p in &self.phases {
            phases = phases.push_raw(&p.to_json());
        }
        let mut incidents = Arr::new();
        for i in &self.incidents {
            incidents = incidents.push_raw(&i.to_json());
        }
        let mut metrics = Arr::new();
        for m in &self.metrics {
            metrics = metrics.push_raw(m);
        }
        let mut obj = Obj::new()
            .str("schema", MANIFEST_SCHEMA)
            .raw("config", &cfg.finish())
            .u64("num_epochs", self.epochs.len() as u64)
            .u64("non_finite_batches_total", non_finite_total(&self.epochs))
            .bool("early_stopped", self.early_stopped())
            .bool("halted", self.halted)
            .raw("incidents", &incidents.finish())
            .raw("epochs", &epochs.finish())
            .raw("phases", &phases.finish());
        if let Some(ev) = &self.eval {
            obj = obj.raw("eval", &ev.to_json());
        }
        obj.raw("metrics", &metrics.finish()).finish()
    }

    /// Writes the manifest (plus trailing newline) to `path`.
    pub fn write_to_file(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())?;
        f.write_all(b"\n")?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_epoch(i: usize) -> EpochRecord {
        let mut e = EpochRecord::new(i, "step2");
        e.loss = 1.0 / (i + 1) as f64;
        e.components = LossComponents {
            backbone: 0.5,
            recon: 0.2,
            diff: 0.1,
            similar: 0.05,
            distill: f64::NAN,
        };
        e.grad_norm = 3.0;
        e.group_norms.push(GroupNorm {
            group: 1,
            label: "invariant".into(),
            grad_norm: 1.5,
            param_norm: 10.0,
        });
        e.duration_s = 0.25;
        e
    }

    #[test]
    fn manifest_counts_epochs_and_guards() {
        let mut t = RunTelemetry::new();
        t.config("backbone", "pecnet");
        let mut e0 = sample_epoch(0);
        e0.non_finite_batches = 2;
        t.push_epoch(e0);
        let mut e1 = sample_epoch(1);
        e1.early_stop = true;
        e1.cosines.push(DomainCosine {
            a: "ETH&UCY".into(),
            b: "L-CAS".into(),
            cosine: f64::NAN,
        });
        t.push_epoch(e1);
        t.push_phase("train.step2", 0.5);
        t.halted = true;
        t.metrics
            .push(r#"{"type":"counter","name":"c","value":4}"#.into());
        let j = t.to_json();
        assert!(j.starts_with(&format!(r#"{{"schema":"{MANIFEST_SCHEMA}""#)));
        assert!(j.contains(r#""num_epochs":2"#));
        assert!(j.contains(r#""non_finite_batches_total":2"#));
        assert!(j.contains(r#""early_stopped":true"#));
        assert!(j.contains(r#""backbone":"pecnet""#));
        assert!(j.contains(r#""halted":true,"incidents":[]"#));
        assert!(j.ends_with(r#""metrics":[{"type":"counter","name":"c","value":4}]}"#));
        // Observatory fields are present, and empty while it is off.
        assert!(j.contains(r#""domains":[],"cosines":[],"update_ratios":[]"#));
        assert!(j.contains(r#""cosines":[{"a":"ETH&UCY","b":"L-CAS","cosine":null}]"#));
        // NaN distill serializes as null, not NaN.
        assert!(j.contains(r#""distill":null"#));
        assert!(!j.contains("NaN"));
    }

    #[test]
    fn write_round_trips_through_file() {
        let mut t = RunTelemetry::new();
        t.push_epoch(sample_epoch(0));
        let dir = std::env::temp_dir().join("adaptraj-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.json");
        t.write_to_file(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.trim_end(), t.to_json());
        std::fs::remove_file(&path).ok();
    }
}
