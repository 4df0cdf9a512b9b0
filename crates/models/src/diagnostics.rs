//! Per-domain gradient diagnostics feeding the health observatory
//! (`adaptraj_obs::health`).
//!
//! The shared training loop, [`crate::trainer::Trainer`] (which also runs
//! each step of AdapTraj's three-step schedule), reduces worker gradients
//! in batch-position order. [`HealthAccum`] rides that reduction: while the
//! observatory is enabled it additionally accumulates each window's
//! gradient pairs into a per-source-domain [`GradBuffer`], and at epoch
//! end fills the per-domain L2 norms, all pairwise cosine similarities
//! (the negative-transfer signal), and per-parameter-group
//! update-to-weight ratios into the epoch's [`EpochRecord`]. Every
//! accumulation happens on the dispatcher thread in batch-position
//! order, so the recorded series are bit-identical for any worker count.
//!
//! While the observatory is disabled, construction is one relaxed atomic
//! load and every method is a no-op — training pays nothing.

use crate::predictor::group_label;
use adaptraj_obs::{global, health, DomainCosine, DomainNorm, EpochRecord, GroupRatio};
use adaptraj_tensor::{GradBuffer, ParamId, ParamStore, Tensor};

/// L2 norm of a gradient buffer, accumulated in `f64` (deterministic:
/// slot order is parameter-id order).
pub fn grad_norm_f64(buf: &GradBuffer) -> f64 {
    let mut sq = 0.0f64;
    for (_, g) in buf.iter() {
        for &x in g.data() {
            sq += x as f64 * x as f64;
        }
    }
    sq.sqrt()
}

/// Cosine similarity between two accumulated gradient buffers, over the
/// parameters present in both. Zero when either buffer has zero norm.
pub fn grad_cosine(a: &GradBuffer, b: &GradBuffer) -> f64 {
    let mut dot = 0.0f64;
    for (id, ga) in a.iter() {
        if let Some(gb) = b.get(id) {
            for (&x, &y) in ga.data().iter().zip(gb.data()) {
                dot += x as f64 * y as f64;
            }
        }
    }
    let (na, nb) = (grad_norm_f64(a), grad_norm_f64(b));
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Per-parameter-group update-to-weight ratios `‖Δw‖ / ‖w_before‖` for
/// one optimizer step, given the parameter snapshot taken before the
/// step. Groups are reported in ascending group-id order; a group whose
/// pre-step weights have zero norm reports ratio 0.
pub fn update_ratios(store: &ParamStore, before: &[Tensor]) -> Vec<GroupRatio> {
    // (group, delta_sq, weight_sq), sorted by group id at the end.
    let mut acc: Vec<(u32, f64, f64)> = Vec::new();
    for (id, prev) in store.ids().zip(before) {
        let g = store.group(id).0;
        let i = match acc.iter().position(|(gg, _, _)| *gg == g) {
            Some(i) => i,
            None => {
                acc.push((g, 0.0, 0.0));
                acc.len() - 1
            }
        };
        for (&now, &was) in store.value(id).data().iter().zip(prev.data()) {
            let d = now as f64 - was as f64;
            acc[i].1 += d * d;
            acc[i].2 += was as f64 * was as f64;
        }
    }
    acc.sort_by_key(|(g, _, _)| *g);
    acc.into_iter()
        .map(|(g, d_sq, w_sq)| GroupRatio {
            group: group_label(adaptraj_tensor::GroupId(g)).to_string(),
            ratio: if w_sq > 0.0 {
                d_sq.sqrt() / w_sq.sqrt()
            } else {
                0.0
            },
        })
        .collect()
}

/// One epoch's worth of per-domain gradient accumulation. Inert while
/// the health observatory is disabled.
#[derive(Debug)]
pub struct HealthAccum {
    enabled: bool,
    domains: Vec<(String, GradBuffer)>,
    ratios: Vec<GroupRatio>,
}

impl HealthAccum {
    /// Starts an epoch accumulator over `domains` (source-domain names in
    /// a fixed order — the recorded series follow it).
    pub fn new<I, S>(domains: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let enabled = health::health_enabled();
        HealthAccum {
            enabled,
            domains: if enabled {
                domains
                    .into_iter()
                    .map(|d| (d.into(), GradBuffer::new()))
                    .collect()
            } else {
                Vec::new()
            },
            ratios: Vec::new(),
        }
    }

    /// Mirrors one window's gradient contribution into its domain's
    /// buffer. Call from the batch-position-order reduction, right next
    /// to the main buffer's `absorb_pairs_scaled`.
    pub fn absorb(&mut self, domain: &str, pairs: &[(ParamId, Tensor)], alpha: f32) {
        if !self.enabled {
            return;
        }
        if let Some((_, buf)) = self.domains.iter_mut().find(|(d, _)| d == domain) {
            buf.absorb_pairs_scaled(pairs, alpha);
        }
    }

    /// Snapshot hook for the update-to-weight ratios: call just before
    /// the epoch's *final* optimizer step. Returns `None` (no snapshot
    /// cost) unless enabled and `last_batch`.
    pub fn pre_step(&self, store: &ParamStore, last_batch: bool) -> Option<Vec<Tensor>> {
        if self.enabled && last_batch {
            Some(store.snapshot())
        } else {
            None
        }
    }

    /// Consumes the pre-step snapshot after the optimizer step ran.
    pub fn post_step(&mut self, store: &ParamStore, before: Option<Vec<Tensor>>) {
        if let Some(before) = before {
            self.ratios = update_ratios(store, &before);
        }
    }

    /// Fills the epoch's norms, pairwise cosines and update ratios into
    /// `rec`, mirrors each into the metrics registry as a gauge
    /// (`health.grad_norm.<domain>`, `health.grad_cosine.<a>__<b>`,
    /// `health.update_ratio.<group>`, the `GET /metrics` surface), then
    /// retires the domain buffers into the pool.
    pub fn finish(self, rec: &mut EpochRecord) {
        if !self.enabled {
            return;
        }
        let norms: Vec<DomainNorm> = self
            .domains
            .iter()
            .map(|(d, buf)| DomainNorm {
                domain: d.clone(),
                grad_norm: grad_norm_f64(buf),
            })
            .collect();
        let mut cosines = Vec::new();
        for i in 0..self.domains.len() {
            for j in (i + 1)..self.domains.len() {
                cosines.push(DomainCosine {
                    a: self.domains[i].0.clone(),
                    b: self.domains[j].0.clone(),
                    cosine: grad_cosine(&self.domains[i].1, &self.domains[j].1),
                });
            }
        }
        let reg = global();
        for d in &norms {
            reg.gauge(&format!("health.grad_norm.{}", d.domain))
                .set(d.grad_norm);
        }
        for c in &cosines {
            reg.gauge(&format!("health.grad_cosine.{}__{}", c.a, c.b))
                .set(c.cosine);
        }
        for r in &self.ratios {
            reg.gauge(&format!("health.update_ratio.{}", r.group))
                .set(r.ratio);
        }
        rec.domains = norms;
        rec.cosines = cosines;
        rec.update_ratios = self.ratios;
        for (_, buf) in self.domains {
            buf.recycle();
        }
    }
}

/// Serializes this crate's unit tests that switch the process-global
/// health observatory on or off.
#[cfg(test)]
pub(crate) static HEALTH_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use adaptraj_tensor::{GroupId, Tensor};

    fn store_with_two_groups() -> (ParamStore, ParamId, ParamId) {
        let mut store = ParamStore::new();
        let a = store.register("a", Tensor::row(&[1.0, 2.0]), GroupId(0));
        let b = store.register("b", Tensor::row(&[3.0]), GroupId(3));
        (store, a, b)
    }

    #[test]
    fn cosine_of_aligned_and_opposed_buffers() {
        let (_, a, b) = store_with_two_groups();
        let mut ga = GradBuffer::new();
        ga.absorb_pairs_scaled(
            &[(a, Tensor::row(&[1.0, 0.0])), (b, Tensor::row(&[2.0]))],
            1.0,
        );
        let mut gb = GradBuffer::new();
        gb.absorb_pairs_scaled(
            &[(a, Tensor::row(&[1.0, 0.0])), (b, Tensor::row(&[2.0]))],
            1.0,
        );
        assert!((grad_cosine(&ga, &gb) - 1.0).abs() < 1e-12);

        let mut gc = GradBuffer::new();
        gc.absorb_pairs_scaled(
            &[(a, Tensor::row(&[-1.0, 0.0])), (b, Tensor::row(&[-2.0]))],
            1.0,
        );
        assert!((grad_cosine(&ga, &gc) + 1.0).abs() < 1e-12);
        assert_eq!(grad_cosine(&ga, &GradBuffer::new()), 0.0);
    }

    #[test]
    fn update_ratios_measure_relative_weight_change() {
        let (mut store, a, _) = store_with_two_groups();
        let before = store.snapshot();
        // Move group-0's "a" from (1,2) to (1.1, 2.0): ‖Δw‖ = 0.1.
        let id = a;
        store.value_mut(id).data_mut()[0] = 1.1;
        let ratios = update_ratios(&store, &before);
        assert_eq!(ratios.len(), 2);
        assert_eq!(ratios[0].group, "backbone");
        let expected = 0.1f64 / (1.0f64 + 4.0).sqrt();
        assert!((ratios[0].ratio - expected).abs() < 1e-6, "{ratios:?}");
        assert_eq!(ratios[1].group, "aggregator");
        assert_eq!(ratios[1].ratio, 0.0);
    }

    #[test]
    fn disabled_accumulator_is_inert() {
        let _lock = HEALTH_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        health::set_enabled(false);
        let mut acc = HealthAccum::new(["x".to_string()]);
        let (_, a, _) = store_with_two_groups();
        acc.absorb("x", &[(a, Tensor::row(&[1.0, 1.0]))], 1.0);
        assert!(acc.domains.is_empty());
        let mut rec = EpochRecord::new(0, "step1");
        acc.finish(&mut rec);
        assert!(rec.domains.is_empty() && rec.cosines.is_empty());
    }
}
