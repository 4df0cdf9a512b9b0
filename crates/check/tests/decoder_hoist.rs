//! The rollout decoder's hoisted context, pinned bit for bit.
//!
//! `RolloutDecoder` multiplies its step-invariant context by `W_ctx` once
//! per rollout and starts every step's gates from that product
//! (`Tape::lstm_cell`'s `pre`). The reference is the unhoisted form: a
//! plain cell on `[ctx | e]` with the stacked `[W_ctx; W_e; W_h]`, its
//! context product redone at every step. The GEMMs continue each gate's
//! accumulator, so the forward must agree exactly; for one step, so must
//! every gradient.
//!
//! Tape ops dispatch on the process-wide kernel; `scripts/ci.sh` runs this
//! binary again under `ADAPTRAJ_FORCE_SCALAR=1` for the scalar kernel.

use adaptraj_data::trajectory::T_PRED;
use adaptraj_models::{BackboneConfig, RolloutDecoder};
use adaptraj_tensor::{Activation, ParamId, ParamStore, Rng, Tape, Tensor, Var};

fn randn(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::randn(rows, cols, 0.0, 1.0, &mut Rng::seed_from(seed))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn assert_same_bits(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    assert_eq!(bits(a), bits(b), "{what} drifted");
}

/// Loss over `[h' | c']`, so both halves carry gradient into the cell.
fn square_sum(t: &mut Tape, hc: Var) -> Var {
    let sq = t.mul(hc, hc);
    t.sum_all(sq)
}

#[test]
fn hoisted_step_matches_the_stacked_cell_bitwise() {
    let (n, ctx_dim, in_dim, hid) = (5, 7, 3, 4);
    let mut ctx = randn(n, ctx_dim, 1);
    // Exact zeros exercise the GEMMs' zero-skip in both forms.
    ctx.data_mut()[2] = 0.0;
    ctx.data_mut()[9] = 0.0;
    let e = randn(n, in_dim, 2);
    let h0 = randn(n, hid, 3);
    let c0 = randn(n, hid, 4);
    let w_ctx = randn(ctx_dim, 4 * hid, 5);
    let w_cell = randn(in_dim + hid, 4 * hid, 6);
    let b = randn(1, 4 * hid, 7);

    let mut t1 = Tape::new();
    let (cv1, ev1, hv1, c_1) = (
        t1.input(ctx.clone()),
        t1.input(e.clone()),
        t1.input(h0.clone()),
        t1.input(c0.clone()),
    );
    let (wc1, w1, b1) = (
        t1.input(w_ctx.clone()),
        t1.input(w_cell.clone()),
        t1.input(b.clone()),
    );
    let pre = t1.matmul(cv1, wc1);
    let hc1 = t1.lstm_cell(ev1, hv1, c_1, w1, b1, Some(pre));
    let l1 = square_sum(&mut t1, hc1);
    let g1 = t1.backward(l1);

    let mut t2 = Tape::new();
    let (cv2, ev2, hv2, c_2) = (t2.input(ctx), t2.input(e), t2.input(h0), t2.input(c0));
    let stacked = Tensor::concat_rows(&[&w_ctx, &w_cell]);
    let (w2, b2) = (t2.input(stacked), t2.input(b));
    let x = t2.concat_cols(&[cv2, ev2]);
    let hc2 = t2.lstm_cell(x, hv2, c_2, w2, b2, None);
    let l2 = square_sum(&mut t2, hc2);
    let g2 = t2.backward(l2);

    assert_same_bits(t1.value(hc1), t2.value(hc2), "[h' | c']");
    let dw = Tensor::concat_rows(&[g1.expect(wc1), g1.expect(w1)]);
    assert_same_bits(&dw, g2.expect(w2), "dW");
    for (hoisted, stacked, what) in [
        (cv1, cv2, "dctx"),
        (ev1, ev2, "de"),
        (hv1, hv2, "dh"),
        (c_1, c_2, "dc"),
        (b1, b2, "db"),
    ] {
        assert_same_bits(g1.expect(hoisted), g2.expect(stacked), what);
    }
}

fn param(store: &ParamStore, name: &str) -> Tensor {
    let id: ParamId = store
        .ids()
        .find(|&id| store.name(id) == name)
        .unwrap_or_else(|| panic!("no parameter {name}"));
    store.value(id).clone()
}

#[test]
fn rollout_forward_matches_the_per_step_stacked_reference_bitwise() {
    let cfg = BackboneConfig::default().with_extra(6);
    let mut store = ParamStore::new();
    let dec = RolloutDecoder::new(&mut store, &mut Rng::seed_from(11), "d", &cfg, 2);
    let b = 3;
    let ctx = randn(b, dec.ctx_dim(), 12);

    let mut t1 = Tape::new();
    let cv = t1.constant(ctx.clone());
    let pred = dec.rollout(&store, &mut t1, cv);

    // The unhoisted rollout over the same parameters: `[ctx | e]`
    // and the stacked W at every step.
    let mut t2 = Tape::new();
    let mut leaf = |name: &str| t2.constant(param(&store, name));
    let (init_w, init_b) = (leaf("d.init.0.w"), leaf("d.init.0.b"));
    let (emb_w, emb_b) = (leaf("d.demb.w"), leaf("d.demb.b"));
    let (head_w, head_b) = (leaf("d.head.w"), leaf("d.head.b"));
    let cell_b = leaf("d.dec.b");
    let stacked = Tensor::concat_rows(&[&param(&store, "d.dec.w_ctx"), &param(&store, "d.dec.w")]);
    let w = t2.constant(stacked);
    let ctx = t2.constant(ctx);
    let mut h = t2.fused_affine(ctx, init_w, init_b, Activation::Tanh);
    let hid = t2.value(h).cols();
    let mut c = t2.constant(Tensor::zeros(b, hid));
    let mut pos = t2.constant(Tensor::zeros(b, 2));
    let mut outputs = Vec::new();
    for _ in 0..T_PRED {
        let e = t2.fused_affine(pos, emb_w, emb_b, Activation::Relu);
        let x = t2.concat_cols(&[ctx, e]);
        let hc = t2.lstm_cell(x, h, c, w, cell_b, None);
        h = t2.slice_cols(hc, 0, hid);
        c = t2.slice_cols(hc, hid, 2 * hid);
        let delta = t2.fused_affine(h, head_w, head_b, Activation::Identity);
        pos = t2.add(pos, delta);
        outputs.push(pos);
    }
    let reference = t2.concat_rows(&outputs);

    assert_same_bits(t1.value(pred), t2.value(reference), "rollout");
}
