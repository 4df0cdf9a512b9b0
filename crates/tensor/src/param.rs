//! Parameter storage shared across forward passes.
//!
//! A [`ParamStore`] owns the persistent state of a model: each parameter is
//! a named tensor assigned to a *group*. Groups are the unit at which the
//! AdapTraj training schedule (Alg. 1 of the paper) manipulates learning:
//! step 2 trains the aggregator group at `lr × f_high` while every other
//! group runs at `lr × f_low`, and the domain-specific extractor group is
//! frozen outright. Optimizers consume gradients via a [`GradBuffer`], which
//! lets several tapes (e.g. one per scene) accumulate into a single step.

use crate::tape::{Grads, Tape};
use crate::tensor::Tensor;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

impl ParamId {
    pub fn index(self) -> usize {
        self.0
    }
}

/// Label partitioning parameters for per-group learning-rate control and
/// freezing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

impl GroupId {
    /// Default group for parameters without special scheduling needs.
    pub const DEFAULT: GroupId = GroupId(0);
}

#[derive(Debug, Clone)]
struct ParamEntry {
    name: String,
    value: Tensor,
    group: GroupId,
}

/// Owns all trainable tensors of a model.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    entries: Vec<ParamEntry>,
}

impl ParamStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle. The value is held in
    /// shared (`Arc`-backed) storage so bringing it onto a tape
    /// ([`Tape::param`]) is a refcount bump, not a full clone; optimizer
    /// updates go through copy-on-write and mutate in place once no tape
    /// holds a reference.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor, group: GroupId) -> ParamId {
        self.entries.push(ParamEntry {
            name: name.into(),
            value: value.into_shared(),
            group,
        });
        ParamId(self.entries.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.entries[id.0].value
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    pub fn group(&self, id: ParamId) -> GroupId {
        self.entries[id.0].group
    }

    /// Iterates over all parameter handles.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.entries.len()).map(ParamId)
    }

    /// Handles of every parameter in `group`.
    pub fn ids_in_group(&self, group: GroupId) -> Vec<ParamId> {
        self.ids().filter(|&id| self.group(id) == group).collect()
    }

    /// Deep copy of all parameter values (for checkpoint/restore in tests
    /// and for the freezing invariants).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.entries.iter().map(|e| e.value.clone()).collect()
    }

    /// Restores a snapshot previously taken with [`ParamStore::snapshot`].
    pub fn restore(&mut self, snapshot: &[Tensor]) {
        assert_eq!(snapshot.len(), self.entries.len(), "snapshot size mismatch");
        for (e, s) in self.entries.iter_mut().zip(snapshot) {
            assert_eq!(e.value.shape(), s.shape(), "snapshot shape mismatch");
            e.value = s.clone();
        }
    }
}

/// Accumulates parameter gradients across one or more tapes before an
/// optimizer step.
#[derive(Debug, Default)]
pub struct GradBuffer {
    slots: Vec<Option<Tensor>>,
}

impl GradBuffer {
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, None);
        }
    }

    /// Adds the parameter gradients recorded by `tape` (after a backward
    /// pass producing `grads`).
    pub fn absorb(&mut self, tape: &Tape, grads: &Grads) {
        for (id, g) in tape.param_grads(grads) {
            self.ensure(id.index() + 1);
            match &mut self.slots[id.index()] {
                Some(acc) => acc.axpy(1.0, &g),
                slot @ None => *slot = Some(g),
            }
        }
    }

    /// Adds the parameter gradients scaled by `alpha` (e.g. `1/batch`).
    pub fn absorb_scaled(&mut self, tape: &Tape, grads: &Grads, alpha: f32) {
        for (id, g) in tape.param_grads(grads) {
            self.ensure(id.index() + 1);
            match &mut self.slots[id.index()] {
                Some(acc) => acc.axpy(alpha, &g),
                slot @ None => *slot = Some(g.scale(alpha)),
            }
        }
    }

    /// Adds pre-extracted `(id, grad)` pairs scaled by `alpha`. The
    /// worker-pool executor ships `tape.param_grads(..)` results across
    /// threads and reduces them here in dispatch order, so the sum is
    /// bit-identical to the sequential `absorb_scaled` loop.
    pub fn absorb_pairs_scaled(&mut self, pairs: &[(ParamId, Tensor)], alpha: f32) {
        for (id, g) in pairs {
            self.ensure(id.index() + 1);
            match &mut self.slots[id.index()] {
                Some(acc) => acc.axpy(alpha, g),
                slot @ None => *slot = Some(g.scale(alpha)),
            }
        }
    }

    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.slots.get(id.index()).and_then(|s| s.as_ref())
    }

    /// Clears all accumulated gradients, keeping capacity.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
    }

    /// Global L2 norm over all accumulated gradients.
    pub fn global_norm(&self) -> f32 {
        self.slots
            .iter()
            .flatten()
            .map(Tensor::frob_sq)
            .sum::<f32>()
            .sqrt()
    }

    /// In-place global-norm clipping: if the global norm exceeds
    /// `max_norm`, every gradient is rescaled so the norm equals it.
    /// Returns the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in self.slots.iter_mut().flatten() {
                g.data_mut().iter_mut().for_each(|x| *x *= s);
            }
        }
        norm
    }

    /// Accumulates another buffer scaled by `alpha`: `self += alpha * other`.
    /// Used to combine per-group gradient buffers with data-dependent
    /// weights (e.g. the V-REx risk-variance penalty in CausalMotion).
    pub fn scaled_add(&mut self, other: &GradBuffer, alpha: f32) {
        self.ensure(other.slots.len());
        for (i, g) in other.slots.iter().enumerate() {
            if let Some(g) = g {
                match &mut self.slots[i] {
                    Some(acc) => acc.axpy(alpha, g),
                    slot @ None => *slot = Some(g.scale(alpha)),
                }
            }
        }
    }

    /// Iterates `(id, grad)` pairs for present gradients.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|g| (ParamId(i), g)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(n: usize) -> (ParamStore, Vec<ParamId>) {
        let mut store = ParamStore::new();
        let ids = (0..n)
            .map(|i| {
                store.register(
                    format!("p{i}"),
                    Tensor::full(1, 2, i as f32),
                    GroupId(i as u32 % 2),
                )
            })
            .collect();
        (store, ids)
    }

    #[test]
    fn register_and_lookup() {
        let (store, ids) = store_with(3);
        assert_eq!(store.len(), 3);
        assert_eq!(store.name(ids[1]), "p1");
        assert_eq!(store.group(ids[1]), GroupId(1));
        assert_eq!(store.value(ids[2]).data(), &[2.0, 2.0]);
        assert_eq!(store.ids_in_group(GroupId(0)), vec![ids[0], ids[2]]);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let (mut store, ids) = store_with(2);
        let snap = store.snapshot();
        store.value_mut(ids[0]).data_mut()[0] = 99.0;
        assert_eq!(store.value(ids[0]).data()[0], 99.0);
        store.restore(&snap);
        assert_eq!(store.value(ids[0]).data()[0], 0.0);
    }

    #[test]
    fn grad_buffer_accumulates_across_tapes() {
        let (store, ids) = store_with(1);
        let mut buf = GradBuffer::new();
        for _ in 0..2 {
            let mut tape = Tape::new();
            let p = tape.param(&store, ids[0]);
            let loss = tape.sum_all(p);
            let grads = tape.backward(loss);
            buf.absorb(&tape, &grads);
        }
        assert_eq!(buf.get(ids[0]).unwrap().data(), &[2.0, 2.0]);
        buf.clear();
        assert!(buf.get(ids[0]).is_none());
    }

    #[test]
    fn repeated_param_use_in_one_tape_sums() {
        let (store, ids) = store_with(1);
        let mut tape = Tape::new();
        let p1 = tape.param(&store, ids[0]);
        let p2 = tape.param(&store, ids[0]);
        let s = tape.add(p1, p2);
        let loss = tape.sum_all(s);
        let grads = tape.backward(loss);
        let mut buf = GradBuffer::new();
        buf.absorb(&tape, &grads);
        assert_eq!(buf.get(ids[0]).unwrap().data(), &[2.0, 2.0]);
    }

    #[test]
    fn absorb_pairs_matches_absorb_scaled_bitwise() {
        let (store, ids) = store_with(2);
        let run = |via_pairs: bool| -> Vec<Vec<f32>> {
            let mut buf = GradBuffer::new();
            for k in 0..3 {
                let mut tape = Tape::new();
                let p0 = tape.param(&store, ids[0]);
                let p1 = tape.param(&store, ids[1]);
                let s = tape.add(p0, p1);
                let scaled = tape.scale(s, 1.0 + k as f32 * 0.3);
                let loss = tape.sum_all(scaled);
                let grads = tape.backward(loss);
                if via_pairs {
                    let pairs = tape.param_grads(&grads);
                    buf.absorb_pairs_scaled(&pairs, 1.0 / 3.0);
                } else {
                    buf.absorb_scaled(&tape, &grads, 1.0 / 3.0);
                }
            }
            ids.iter()
                .map(|&id| buf.get(id).unwrap().data().to_vec())
                .collect()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn param_store_is_read_shareable_across_threads() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<ParamStore>();
        let (store, ids) = store_with(1);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    assert_eq!(store.value(ids[0]).data(), &[0.0, 0.0]);
                });
            }
        });
    }

    #[test]
    fn clip_global_norm_rescales() {
        let (store, ids) = store_with(1);
        let mut tape = Tape::new();
        let p = tape.param(&store, ids[0]);
        let scaled = tape.scale(p, 3.0);
        let loss = tape.sum_all(scaled);
        let grads = tape.backward(loss);
        let mut buf = GradBuffer::new();
        buf.absorb(&tape, &grads); // grad = [3, 3], norm = 3*sqrt(2)
        let pre = buf.clip_global_norm(1.0);
        assert!((pre - 3.0 * 2.0f32.sqrt()).abs() < 1e-5);
        assert!((buf.global_norm() - 1.0).abs() < 1e-5);
    }
}
