//! Central-finite-difference gradient verification.
//!
//! The analytic side is one [`Tape::backward`] pass; the numeric side
//! perturbs each checked scalar by `±eps` and re-runs the forward pass,
//! with the difference quotient accumulated in `f64`. The acceptance
//! criterion is the repo-wide normalized error
//!
//! ```text
//! |analytic − numeric| ≤ tol · (1 + |numeric|)
//! ```
//!
//! which behaves like an absolute tolerance near zero and a relative one
//! for large derivatives — the right shape for `f32` forwards, where a
//! loss around magnitude `L` carries ~`L·1e-7` of rounding noise that the
//! division by `2·eps` amplifies to `~L·1e-5` regardless of the true
//! derivative's size.
//!
//! Two intentional forward/backward asymmetries in this codebase make a
//! naive whole-model check wrong, so [`grad_check_state`] accepts a
//! parameter filter:
//!
//! * **Gradient reversal** (`Tape::grad_reverse`, used by the domain
//!   similarity loss): the forward is the identity but the backward
//!   multiplies by `−λ`. Finite differences see the forward, so for
//!   parameters upstream of a reversal the analytic gradient equals
//!   `−λ ×` the numeric one — asserted directly by the dedicated GRL
//!   tests rather than hidden under a loose tolerance.
//! * **Detached samples** (LBEBM's Langevin negative, AdapTraj's
//!   distillation teacher): the detached value still *depends on* the
//!   parameters, so FD sees `∂L/∂detached · ∂detached/∂θ` while the tape
//!   (correctly, by design) does not. Checks either zero the detached
//!   term's weight or filter to parameters the detached path cannot
//!   reach.

use adaptraj_tensor::{ParamId, ParamStore, Tape, Tensor, Var};

/// Every `Op` kind the tape can record, by its stable profiler label.
/// `tests/op_grads.rs` machine-checks that the per-op fixtures exercise
/// all of these in both directions; if a new op is added to the tape this
/// list (and a fixture) must grow with it.
///
/// `tests/op_inventory.rs` checks the other side: the golden micro-runs
/// record every kind here except three reference-only ones, `relu`,
/// `sigmoid` and `add_row_broadcast`. No model records those; they are
/// the unfused composition that the fused `fused_affine` and `lstm_cell`
/// nodes are compared against bit for bit.
pub const OP_KINDS: [&str; 27] = [
    "leaf",
    "add",
    "sub",
    "mul",
    "scale",
    "add_scalar",
    "matmul",
    "add_row_broadcast",
    "relu",
    "tanh",
    "sigmoid",
    "exp",
    "softmax_rows",
    "concat_cols",
    "concat_rows",
    "slice_cols",
    "gather_rows",
    "mean_rows",
    "mean_all",
    "sum_all",
    "hadamard_const",
    "reshape",
    "sum_row_groups",
    "softmax_cross_entropy",
    "grad_reverse",
    "fused_affine",
    "lstm_cell",
];

/// Tuning knobs for a finite-difference check.
#[derive(Debug, Clone, Copy)]
pub struct GradCheckConfig {
    /// Half-width of the central difference. `1e-2` balances truncation
    /// error (`O(eps²·f‴)`) against `f32` rounding noise (`O(|L|·1e-7/eps)`).
    pub eps: f32,
    /// Normalized-error threshold (see the module docs).
    pub tol: f64,
    /// Cap on elements checked per parameter tensor, spread evenly across
    /// the tensor; `0` checks every element. Whole-model checks use this
    /// to stay fast — per-op fixtures check exhaustively.
    pub max_per_param: usize,
}

impl Default for GradCheckConfig {
    fn default() -> Self {
        Self {
            eps: 1e-2,
            tol: 1e-2,
            max_per_param: 0,
        }
    }
}

/// One checked scalar derivative.
#[derive(Debug, Clone)]
pub struct ElementCheck {
    /// Parameter name, or `"<input>"` for [`grad_check_input`].
    pub param: String,
    /// Flat element index within the tensor.
    pub index: usize,
    /// `∂L/∂θ` from `Tape::backward`.
    pub analytic: f64,
    /// `(L(θ+eps) − L(θ−eps)) / 2·eps`, accumulated in `f64`.
    pub numeric: f64,
    /// `|analytic − numeric| / (1 + |numeric|)`.
    pub rel_err: f64,
    pub ok: bool,
}

/// The full per-element outcome of one check.
#[derive(Debug, Clone)]
pub struct GradReport {
    pub records: Vec<ElementCheck>,
    pub tol: f64,
}

impl GradReport {
    pub fn ok(&self) -> bool {
        self.records.iter().all(|r| r.ok)
    }

    pub fn checked(&self) -> usize {
        self.records.len()
    }

    pub fn failures(&self) -> Vec<&ElementCheck> {
        self.records.iter().filter(|r| !r.ok).collect()
    }

    pub fn max_rel_err(&self) -> f64 {
        self.records.iter().fold(0.0, |m, r| m.max(r.rel_err))
    }

    /// Worst offenders first, one line each, capped at `limit` rows.
    pub fn render_failures(&self, limit: usize) -> String {
        let mut rows: Vec<&ElementCheck> = self.failures();
        rows.sort_by(|a, b| b.rel_err.total_cmp(&a.rel_err));
        let mut out = String::new();
        for r in rows.iter().take(limit) {
            out.push_str(&format!(
                "  {}[{}]: analytic {:+.6e} vs numeric {:+.6e} (rel {:.3e} > tol {:.1e})\n",
                r.param, r.index, r.analytic, r.numeric, r.rel_err, self.tol
            ));
        }
        if rows.len() > limit {
            out.push_str(&format!("  … and {} more\n", rows.len() - limit));
        }
        out
    }

    /// Panics with a per-element diagnosis if any derivative disagrees.
    pub fn assert_ok(&self, label: &str) {
        assert!(
            self.ok(),
            "{label}: {}/{} derivatives outside tolerance (max rel err {:.3e}):\n{}",
            self.failures().len(),
            self.checked(),
            self.max_rel_err(),
            self.render_failures(12)
        );
    }
}

/// Evenly spread `take` indices over `0..len` (all of them when
/// `take == 0` or `take >= len`), deterministically.
fn spread_indices(len: usize, take: usize) -> Vec<usize> {
    if take == 0 || take >= len {
        (0..len).collect()
    } else {
        (0..take).map(|i| i * len / take).collect()
    }
}

/// Checks `Tape::backward` against central finite differences over the
/// parameters of a store embedded in arbitrary state `S` (a bare store, a
/// `(store, model)` pair, or a model that owns its store).
///
/// `eval` must rebuild the loss *deterministically* — seed any internal
/// `Rng` inside the closure — and return the scalar loss value plus
/// `Tape::param_grads` of its backward pass (only the base call's
/// gradients are used; FD calls pay the extra backward on fixture-sized
/// models, which keeps the API a single closure). `filter` selects which
/// parameters to check by name (see the module docs for why whole-model
/// checks must exclude reversal-upstream or detach-feeding parameters).
pub fn grad_check_state<S>(
    state: &mut S,
    store_mut: impl Fn(&mut S) -> &mut ParamStore,
    mut eval: impl FnMut(&S) -> (f64, Vec<(ParamId, Tensor)>),
    filter: impl Fn(&str) -> bool,
    cfg: &GradCheckConfig,
) -> GradReport {
    let (base_loss, grads) = eval(state);
    assert!(
        base_loss.is_finite(),
        "grad_check: non-finite base loss {base_loss}"
    );

    // Snapshot the parameter inventory up front so the perturbation loop
    // holds no borrow of the store across `eval` calls.
    let inventory: Vec<(ParamId, String, usize)> = {
        let store = store_mut(state);
        store
            .ids()
            .map(|id| (id, store.name(id).to_string(), store.value(id).len()))
            .filter(|(_, name, _)| filter(name))
            .collect()
    };

    let grad_of =
        |id: ParamId| -> Option<&Tensor> { grads.iter().find(|(g, _)| *g == id).map(|(_, t)| t) };

    let eps = cfg.eps as f64;
    let mut records = Vec::new();
    for (id, name, len) in &inventory {
        for i in spread_indices(*len, cfg.max_per_param) {
            let orig = store_mut(state).value(*id).data()[i];
            store_mut(state).value_mut(*id).data_mut()[i] = orig + cfg.eps;
            let (lp, _) = eval(state);
            store_mut(state).value_mut(*id).data_mut()[i] = orig - cfg.eps;
            let (lm, _) = eval(state);
            store_mut(state).value_mut(*id).data_mut()[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad_of(*id).map_or(0.0, |g| g.data()[i]) as f64;
            let rel_err = (analytic - numeric).abs() / (1.0 + numeric.abs());
            records.push(ElementCheck {
                param: name.clone(),
                index: i,
                analytic,
                numeric,
                rel_err,
                ok: rel_err <= cfg.tol,
            });
        }
    }
    GradReport {
        records,
        tol: cfg.tol,
    }
}

/// [`grad_check_state`] for the common case: the loss is a function of a
/// free-standing [`ParamStore`], all parameters checked.
pub fn grad_check(
    store: &mut ParamStore,
    eval: impl FnMut(&ParamStore) -> (f64, Vec<(ParamId, Tensor)>),
    cfg: &GradCheckConfig,
) -> GradReport {
    grad_check_state(store, |s| s, eval, |_| true, cfg)
}

/// Builds a scalar loss from one *input* leaf and checks its gradient —
/// the harness for the per-op fixtures, where the differentiated quantity
/// is the op's input rather than a stored parameter. `build` receives a
/// fresh tape and the input `Var` and must return a `1×1` loss node.
pub fn grad_check_input(
    x0: &Tensor,
    build: impl Fn(&mut Tape, Var) -> Var,
    cfg: &GradCheckConfig,
) -> GradReport {
    let run = |x: Tensor| -> (f64, Option<Tensor>) {
        let mut tape = Tape::new();
        let xv = tape.input(x);
        let loss = build(&mut tape, xv);
        let value = tape.value(loss).item() as f64;
        let grads = tape.backward(loss);
        (value, grads.get(xv).cloned())
    };

    let (base_loss, grad) = run(x0.clone());
    assert!(
        base_loss.is_finite(),
        "grad_check_input: non-finite base loss {base_loss}"
    );

    let eps = cfg.eps as f64;
    let mut records = Vec::new();
    for i in spread_indices(x0.len(), cfg.max_per_param) {
        let mut plus = x0.clone();
        plus.data_mut()[i] += cfg.eps;
        let mut minus = x0.clone();
        minus.data_mut()[i] -= cfg.eps;
        let numeric = (run(plus).0 - run(minus).0) / (2.0 * eps);
        let analytic = grad.as_ref().map_or(0.0, |g| g.data()[i]) as f64;
        let rel_err = (analytic - numeric).abs() / (1.0 + numeric.abs());
        records.push(ElementCheck {
            param: "<input>".to_string(),
            index: i,
            analytic,
            numeric,
            rel_err,
            ok: rel_err <= cfg.tol,
        });
    }
    GradReport {
        records,
        tol: cfg.tol,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptraj_tensor::{GroupId, Rng};

    #[test]
    fn passes_on_a_correct_gradient() {
        // L = Σ w² has dL/dw = 2w — the tape gets this right, so the
        // checker must agree.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(0);
        let w = store.register(
            "w",
            Tensor::randn(2, 3, 0.0, 1.0, &mut rng),
            GroupId::DEFAULT,
        );
        let report = grad_check(
            &mut store,
            |s| {
                let mut tape = Tape::new();
                let wv = tape.param(s, w);
                let sq = tape.mul(wv, wv);
                let loss = tape.sum_all(sq);
                let v = tape.value(loss).item() as f64;
                let g = tape.backward(loss);
                (v, tape.param_grads(&g))
            },
            &GradCheckConfig::default(),
        );
        assert_eq!(report.checked(), 6);
        report.assert_ok("sum of squares");
    }

    #[test]
    fn catches_a_wrong_gradient() {
        // Same loss, but the "analytic" side lies by a factor of 2 — the
        // checker exists to catch exactly this.
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        let w = store.register(
            "w",
            Tensor::randn(1, 4, 0.5, 0.2, &mut rng),
            GroupId::DEFAULT,
        );
        let report = grad_check(
            &mut store,
            |s| {
                let mut tape = Tape::new();
                let wv = tape.param(s, w);
                let sq = tape.mul(wv, wv);
                let loss = tape.sum_all(sq);
                let v = tape.value(loss).item() as f64;
                let g = tape.backward(loss);
                let mut pairs = tape.param_grads(&g);
                for (_, t) in &mut pairs {
                    let doubled = t.scale(2.0);
                    *t = doubled;
                }
                (v, pairs)
            },
            &GradCheckConfig::default(),
        );
        assert!(!report.ok(), "doubled gradient must not pass");
        assert!(!report.render_failures(12).is_empty());
    }

    #[test]
    fn unused_parameters_check_against_zero() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let used = store.register(
            "used",
            Tensor::randn(1, 2, 0.0, 1.0, &mut rng),
            GroupId::DEFAULT,
        );
        store.register(
            "dead",
            Tensor::randn(1, 2, 0.0, 1.0, &mut rng),
            GroupId::DEFAULT,
        );
        let report = grad_check(
            &mut store,
            |s| {
                let mut tape = Tape::new();
                let wv = tape.param(s, used);
                let loss = tape.sum_all(wv);
                let v = tape.value(loss).item() as f64;
                let g = tape.backward(loss);
                (v, tape.param_grads(&g))
            },
            &GradCheckConfig::default(),
        );
        // The dead parameter's FD derivative is 0 and its analytic grad is
        // absent (treated as 0): both elements must still be checked.
        assert_eq!(report.checked(), 4);
        report.assert_ok("dead parameter");
    }

    #[test]
    fn filter_and_subsampling_limit_coverage() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(3);
        let a = store.register(
            "keep.a",
            Tensor::randn(1, 8, 0.0, 1.0, &mut rng),
            GroupId::DEFAULT,
        );
        let b = store.register(
            "skip.b",
            Tensor::randn(1, 8, 0.0, 1.0, &mut rng),
            GroupId::DEFAULT,
        );
        let cfg = GradCheckConfig {
            max_per_param: 3,
            ..GradCheckConfig::default()
        };
        let report = grad_check_state(
            &mut store,
            |s| s,
            |s| {
                let mut tape = Tape::new();
                let av = tape.param(s, a);
                let bv = tape.param(s, b);
                let sum = tape.add(av, bv);
                let sq = tape.mul(sum, sum);
                let loss = tape.sum_all(sq);
                let v = tape.value(loss).item() as f64;
                let g = tape.backward(loss);
                (v, tape.param_grads(&g))
            },
            |name| name.starts_with("keep."),
            &cfg,
        );
        assert_eq!(report.checked(), 3, "3 of 8 elements of the kept param");
        assert!(report.records.iter().all(|r| r.param == "keep.a"));
        report.assert_ok("filtered");
    }

    #[test]
    fn input_checker_runs_and_catches_sign_flips() {
        let mut rng = Rng::seed_from(4);
        let x = Tensor::randn(2, 3, 0.0, 1.0, &mut rng);
        let good = grad_check_input(
            &x,
            |tape, xv| {
                let t = tape.tanh(xv);
                tape.sum_all(t)
            },
            &GradCheckConfig::default(),
        );
        good.assert_ok("tanh-sum");
        // grad_reverse flips the backward sign while FD sees the identity
        // forward: the checker must flag it (its *correct* handling is the
        // dedicated GRL fixture's job).
        let flipped = grad_check_input(
            &x,
            |tape, xv| {
                let r = tape.grad_reverse(xv, 1.0);
                let sq = tape.mul(r, r);
                tape.sum_all(sq)
            },
            &GradCheckConfig::default(),
        );
        assert!(!flipped.ok(), "reversed gradient must disagree with FD");
    }
}
