//! Adam with per-group learning-rate control.
//!
//! The AdapTraj training procedure (Alg. 1) requires three scheduling
//! capabilities beyond a plain optimizer: a per-module learning-rate
//! multiplier (`f_low` / `f_high`), outright freezing of module groups
//! (the domain-specific extractor during aggregator training), and
//! changing the multipliers between training steps. [`Adam`] exposes
//! those via a [`GroupId`]-keyed [`Schedule`].

use crate::param::{GradBuffer, GroupId, ParamStore};
use crate::tensor::Tensor;
use std::collections::{HashMap, HashSet};

/// Shared learning-rate schedule: base rate, per-group multipliers, frozen
/// groups.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    base_lr: f32,
    multipliers: HashMap<u32, f32>,
    frozen: HashSet<u32>,
}

impl Schedule {
    pub fn new(base_lr: f32) -> Self {
        Self {
            base_lr,
            multipliers: HashMap::new(),
            frozen: HashSet::new(),
        }
    }

    /// Sets the learning-rate multiplier for a group (default 1.0).
    pub fn set_group_multiplier(&mut self, group: GroupId, mult: f32) {
        self.multipliers.insert(group.0, mult);
    }

    /// Restores the default multiplier (1.0) for every group.
    pub fn clear_multipliers(&mut self) {
        self.multipliers.clear();
    }

    pub fn freeze(&mut self, group: GroupId) {
        self.frozen.insert(group.0);
    }

    pub fn unfreeze_all(&mut self) {
        self.frozen.clear();
    }

    pub fn is_frozen(&self, group: GroupId) -> bool {
        self.frozen.contains(&group.0)
    }

    /// Effective learning rate for a group; `None` when frozen.
    pub fn effective_lr(&self, group: GroupId) -> Option<f32> {
        if self.is_frozen(group) {
            return None;
        }
        let mult = self.multipliers.get(&group.0).copied().unwrap_or(1.0);
        Some(self.base_lr * mult)
    }
}

/// Adam (Kingma & Ba) with bias correction and per-group learning rates.
/// The moments use the usual defaults, β₁ = 0.9, β₂ = 0.999, ε = 1e-8,
/// with no weight decay.
#[derive(Debug)]
pub struct Adam {
    pub schedule: Schedule,
    t: i32,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

const BETA1: f32 = 0.9;
const BETA2: f32 = 0.999;
const EPS: f32 = 1e-8;

impl Adam {
    pub fn new(lr: f32) -> Self {
        Self {
            schedule: Schedule::new(lr),
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one Adam update from the accumulated gradients.
    pub fn step(&mut self, store: &mut ParamStore, grads: &GradBuffer) {
        if self.m.len() < store.len() {
            self.m.resize(store.len(), None);
            self.v.resize(store.len(), None);
        }
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t);
        let bc2 = 1.0 - BETA2.powi(self.t);

        for (id, g) in grads.iter() {
            let Some(lr) = self.schedule.effective_lr(store.group(id)) else {
                continue;
            };
            let idx = id.index();
            let m = self.m[idx].get_or_insert_with(|| Tensor::zeros(g.rows(), g.cols()));
            let v = self.v[idx].get_or_insert_with(|| Tensor::zeros(g.rows(), g.cols()));

            m.data_mut().iter_mut().for_each(|mm| *mm *= BETA1);
            m.axpy(1.0 - BETA1, g);
            for (vv, &gg) in v.data_mut().iter_mut().zip(g.data()) {
                *vv = BETA2 * *vv + (1.0 - BETA2) * gg * gg;
            }

            let update = m.zip_map(v, |mm, vv| {
                let m_hat = mm / bc1;
                let v_hat = vv / bc2;
                m_hat / (v_hat.sqrt() + EPS)
            });
            store.value_mut(id).axpy(-lr, &update);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{GroupId, ParamId, ParamStore};
    use crate::tape::Tape;

    fn quadratic_store() -> (ParamStore, ParamId) {
        let mut store = ParamStore::new();
        let id = store.register("x", Tensor::row(&[4.0, -3.0]), GroupId::DEFAULT);
        (store, id)
    }

    /// Loss = sum(x^2); Adam should drive x toward 0.
    fn loss_grad(store: &ParamStore, id: ParamId) -> (Tape, crate::tape::Var) {
        let mut tape = Tape::new();
        let x = tape.param(store, id);
        let sq = tape.mul(x, x);
        let l = tape.sum_all(sq);
        (tape, l)
    }

    #[test]
    fn adam_descends_quadratic() {
        let (mut store, id) = quadratic_store();
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            let (tape, loss) = loss_grad(&store, id);
            let grads = tape.backward(loss);
            let mut buf = GradBuffer::new();
            buf.absorb(&tape, &grads);
            opt.step(&mut store, &buf);
        }
        assert!(store.value(id).max_abs() < 1e-2, "{:?}", store.value(id));
    }

    /// A tape holds `Arc` references to the parameters it bound. Once the
    /// job's tape has dropped, a step updates each parameter's buffer in
    /// place; a tape kept alive across the step makes it copy-on-write.
    #[test]
    fn step_after_the_tape_drops_updates_parameters_in_place() {
        let (mut store, id) = quadratic_store();
        let mut opt = Adam::new(0.1);
        let buf = {
            let (tape, loss) = loss_grad(&store, id);
            let grads = tape.backward(loss);
            let mut buf = GradBuffer::new();
            buf.absorb(&tape, &grads);
            buf
        };
        let ptr = store.value(id).data().as_ptr();
        opt.step(&mut store, &buf);
        assert_ne!(
            store.value(id).data(),
            &[4.0, -3.0],
            "the step moved nothing"
        );
        assert_eq!(store.value(id).data().as_ptr(), ptr, "the step copied");

        // The same step under a live tape must copy: the tape still reads
        // the old buffer, so the new one cannot share its address.
        let (live, _) = loss_grad(&store, id);
        opt.step(&mut store, &buf);
        assert_ne!(store.value(id).data().as_ptr(), ptr);
        drop(live);
    }

    #[test]
    fn adam_first_step_matches_hand_computation() {
        // With a constant gradient g, the first Adam step is -lr * g/|g|
        // (bias corrections cancel, eps negligible).
        let mut store = ParamStore::new();
        let id = store.register("x", Tensor::row(&[1.0]), GroupId::DEFAULT);
        let mut opt = Adam::new(0.1);
        let mut buf = GradBuffer::new();
        let mut tape = Tape::new();
        let x = tape.param(&store, id);
        let l = tape.scale(x, 5.0); // dl/dx = 5
        let l = tape.sum_all(l);
        let grads = tape.backward(l);
        buf.absorb(&tape, &grads);
        opt.step(&mut store, &buf);
        assert!((store.value(id).data()[0] - (1.0 - 0.1)).abs() < 1e-4);
    }

    #[test]
    fn frozen_group_is_untouched() {
        let mut store = ParamStore::new();
        let free = store.register("free", Tensor::row(&[1.0]), GroupId(0));
        let ice = store.register("ice", Tensor::row(&[1.0]), GroupId(1));
        let mut opt = Adam::new(0.1);
        opt.schedule.freeze(GroupId(1));

        let mut tape = Tape::new();
        let a = tape.param(&store, free);
        let b = tape.param(&store, ice);
        let s = tape.add(a, b);
        let sq = tape.mul(s, s);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        let mut buf = GradBuffer::new();
        buf.absorb(&tape, &grads);
        opt.step(&mut store, &buf);

        assert_eq!(store.value(ice).data(), &[1.0], "frozen param moved");
        assert_ne!(store.value(free).data(), &[1.0], "free param did not move");
    }

    #[test]
    fn group_multiplier_scales_update() {
        let mut store = ParamStore::new();
        let slow = store.register("slow", Tensor::row(&[1.0]), GroupId(0));
        let fast = store.register("fast", Tensor::row(&[1.0]), GroupId(1));
        // Adam's first step moves each parameter by lr·mult·g/(|g| + ε):
        // exactly lr·mult for a unit gradient, as in f_low/f_high.
        let mut opt = Adam::new(0.1);
        opt.schedule.set_group_multiplier(GroupId(0), 0.1);
        opt.schedule.set_group_multiplier(GroupId(1), 10.0);

        let mut tape = Tape::new();
        let a = tape.param(&store, slow);
        let b = tape.param(&store, fast);
        let s = tape.add(a, b);
        let loss = tape.sum_all(s); // grad 1 for both
        let grads = tape.backward(loss);
        let mut buf = GradBuffer::new();
        buf.absorb(&tape, &grads);
        opt.step(&mut store, &buf);

        let d_slow = 1.0 - store.value(slow).data()[0];
        let d_fast = 1.0 - store.value(fast).data()[0];
        assert!((d_slow - 0.01).abs() < 1e-6);
        assert!((d_fast - 1.0).abs() < 1e-6);
    }

    #[test]
    fn schedule_effective_lr() {
        let mut s = Schedule::new(0.5);
        assert_eq!(s.effective_lr(GroupId(3)), Some(0.5));
        s.set_group_multiplier(GroupId(3), 0.2);
        assert!((s.effective_lr(GroupId(3)).unwrap() - 0.1).abs() < 1e-7);
        s.freeze(GroupId(3));
        assert_eq!(s.effective_lr(GroupId(3)), None);
        s.unfreeze_all();
        assert!(s.effective_lr(GroupId(3)).is_some());
        s.clear_multipliers();
        assert_eq!(s.effective_lr(GroupId(3)), Some(0.5));
    }
}
