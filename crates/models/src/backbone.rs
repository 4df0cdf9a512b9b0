//! The shared seq2seq backbone skeleton (Fig. 1 of the paper), batched.
//!
//! Three stages:
//! 1. **Individual mobility layer** — MLP location embedding (Eq. 1) fed to
//!    an LSTM encoder (Eq. 2) over every agent in the window.
//! 2. **Neighbor interaction layer** — an aggregation `φ` over all agents'
//!    final hidden states producing the interaction tensor `P_i` (Eq. 3);
//!    both the attention (PECNet-style non-local) and mean-pooling
//!    (Social-LSTM-style) variants are provided.
//! 3. **Future trajectory generator** — decoder state initialized from
//!    `γ(P_i, h_i)` and a latent `z` (Eqs. 4–5), then an autoregressive
//!    LSTM rollout emitting per-step displacements (Eqs. 6–7).
//!
//! Every stage operates on a [`WindowBatch`]: agents of all windows are
//! stacked row-wise (the batch layout contract), so one pass issues one
//! batched matmul/LSTM-step per layer instead of one per window. Ragged
//! per-window agent counts are handled with a padded `[B·A_max]` slot
//! grid: pad slots re-gather the window's focal row and are masked to
//! exact zeros (an additive [`PAD_BIAS`] softmax bias, or a `0/1`
//! mean-pool mask), so a padded slot provably contributes zero value *and* zero
//! gradient — see the padded-slot property tests in `adaptraj-check`.
//!
//! The concrete backbones (PECNet, LBEBM) compose these parts and differ
//! in how `z` is produced and which auxiliary losses they add.

use crate::config::BackboneConfig;
use adaptraj_data::trajectory::{Point, TrajWindow, T_OBS, T_PRED};
use adaptraj_data::WindowBatch;
use adaptraj_tensor::nn::{xavier_std, Activation, Linear, Lstm, LstmCell, LstmState, Mlp};
use adaptraj_tensor::{GroupId, ParamId, ParamStore, Rng, Tape, Tensor, Var};

/// Parameter group for all backbone weights (the AdapTraj schedule
/// addresses modules by group).
pub const BACKBONE_GROUP: GroupId = GroupId(0);

/// Additive attention bias at padded slots. A pad slot re-gathers the
/// focal row, so its raw score never exceeds the row max; after the
/// row-max subtraction inside the softmax the pad exponent is at most
/// `−1e5`, and `exp(−1e5)` underflows to exactly `0.0` in f32 (anything
/// below ≈ `−104` does). Pad weights — and through `y ⊙ (g − y·g)`
/// their gradients — are therefore exact zeros, not merely small. The
/// magnitude is kept under the health tripwire's 1e6 explosion
/// threshold so a masked clean run records zero incidents.
pub const PAD_BIAS: f32 = -1e5;

/// Output of the encoding stages, on a tape.
#[derive(Debug, Clone, Copy)]
pub struct EncodedScene {
    /// Focal agents' individual-mobility states `h_ei` — `[B, hidden]`,
    /// one row per window in batch order.
    pub h_focal: Var,
    /// Interaction tensors `P_i` — `[B, inter]`.
    pub p_i: Var,
}

impl EncodedScene {
    /// Both tensors repeated for `k` stacked samples ([`repeat_rows`]).
    pub fn repeat(&self, tape: &mut Tape, k: usize) -> EncodedScene {
        EncodedScene {
            h_focal: repeat_rows(tape, self.h_focal, k),
            p_i: repeat_rows(tape, self.p_i, k),
        }
    }
}

/// `v`'s `B` rows repeated sample-major for `k` stacked samples: row
/// `j·B + b` is row `b`. With `k = 1` this is `v` itself and records no op.
pub fn repeat_rows(tape: &mut Tape, v: Var, k: usize) -> Var {
    if k == 1 {
        return v;
    }
    let b = tape.value(v).rows();
    let idx: Vec<usize> = (0..k).flat_map(|_| 0..b).collect();
    tape.gather_rows(v, &idx)
}

/// Which `φ` aggregates the neighbors (Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InteractionKind {
    /// Scaled dot-product attention with the focal agent as the query
    /// (non-local social layer, as in PECNet).
    Attention,
    /// Mean pooling of projected hidden states (Social-LSTM style).
    MeanPool,
}

/// Per-slot gather indices and validity flags for the padded `[B·A_max]`
/// slot grid, in slot order (window-major). Pad slots re-gather the
/// window's focal row — a real row, so shapes stay rectangular — and rely
/// on downstream masking to zero their contribution exactly.
pub fn padded_slots(batch: &WindowBatch<'_>) -> (Vec<usize>, Vec<bool>) {
    let a_max = batch.max_agents();
    let mut slots = Vec::with_capacity(batch.len() * a_max);
    let mut valid = Vec::with_capacity(batch.len() * a_max);
    for (i, w) in batch.windows().iter().enumerate() {
        let off = batch.agent_offset(i);
        for j in 0..a_max {
            let ok = j < w.agents();
            slots.push(off + if ok { j } else { 0 });
            valid.push(ok);
        }
    }
    (slots, valid)
}

/// Stages 1–2: embedding, encoder, and interaction layer.
#[derive(Debug, Clone)]
pub struct SceneEncoder {
    embed: Linear,
    encoder: Lstm,
    kind: InteractionKind,
    w_q: Linear,
    w_k: Linear,
    w_v: Linear,
    hidden_dim: usize,
    inter_dim: usize,
}

impl SceneEncoder {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        cfg: &BackboneConfig,
        kind: InteractionKind,
    ) -> Self {
        Self {
            embed: Linear::new(
                store,
                rng,
                &format!("{name}.embed"),
                2,
                cfg.embed_dim,
                BACKBONE_GROUP,
            ),
            encoder: Lstm::new(
                store,
                rng,
                &format!("{name}.enc"),
                cfg.embed_dim,
                cfg.hidden_dim,
                BACKBONE_GROUP,
            ),
            w_q: Linear::new(
                store,
                rng,
                &format!("{name}.wq"),
                cfg.hidden_dim,
                cfg.inter_dim,
                BACKBONE_GROUP,
            ),
            w_k: Linear::new(
                store,
                rng,
                &format!("{name}.wk"),
                cfg.hidden_dim,
                cfg.inter_dim,
                BACKBONE_GROUP,
            ),
            w_v: Linear::new(
                store,
                rng,
                &format!("{name}.wv"),
                cfg.hidden_dim,
                cfg.inter_dim,
                BACKBONE_GROUP,
            ),
            kind,
            hidden_dim: cfg.hidden_dim,
            inter_dim: cfg.inter_dim,
        }
    }

    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    pub fn inter_dim(&self) -> usize {
        self.inter_dim
    }

    /// Encodes a window batch: every agent of every window through
    /// Eq. 1–2 jointly (stacked agents are batch rows), then `φ` (Eq. 3)
    /// over the padded slot grid.
    pub fn encode(
        &self,
        store: &ParamStore,
        tape: &mut Tape,
        batch: &WindowBatch<'_>,
    ) -> EncodedScene {
        // Eq. 1–2 over all agents of all windows jointly.
        let mut steps = Vec::with_capacity(T_OBS);
        for t in 0..T_OBS {
            let pos = tape.constant(batch_step_positions(batch, t));
            steps.push(self.embed.forward_act(store, tape, pos, Activation::Relu));
        }
        let h_all = self.encoder.forward(store, tape, &steps).h; // [N_total, hidden]
        let h_focal = tape.gather_rows(h_all, &batch.focal_rows()); // [B, hidden]

        // Eq. 3 over the padded `[B·A_max]` slot grid.
        let b = batch.len();
        let a_max = batch.max_agents();
        let d = self.inter_dim;
        let (slots, valid) = padded_slots(batch);
        let fully_packed = valid.iter().all(|&ok| ok);
        let p_i = match self.kind {
            InteractionKind::Attention => {
                let q = self.w_q.forward(store, tape, h_focal); // [B, d]
                let k = self.w_k.forward(store, tape, h_all); // [N, d]
                let v = self.w_v.forward(store, tape, h_all); // [N, d]
                                                              // Fully packed batches have identity slot maps: the
                                                              // stacked rows already ARE the slot grid.
                let kp = if fully_packed {
                    k
                } else {
                    tape.gather_rows(k, &slots) // [B·A_max, d]
                };
                let vp = if fully_packed {
                    v
                } else {
                    tape.gather_rows(v, &slots)
                };
                let q_idx: Vec<usize> =
                    (0..b).flat_map(|i| std::iter::repeat_n(i, a_max)).collect();
                let qp = tape.gather_rows(q, &q_idx); // [B·A_max, d]
                                                      // Per-slot q·k dots: elementwise product, then a row sum.
                let prod = tape.mul(qp, kp);
                let ones_col = tape.constant(Tensor::ones(d, 1));
                let scores_col = tape.matmul(prod, ones_col); // [B·A_max, 1]
                let scores = tape.reshape(scores_col, b, a_max);
                let scaled = tape.scale(scores, 1.0 / (d as f32).sqrt());
                // Pad slots get an additive PAD_BIAS: their softmax
                // weight underflows to exactly 0.0 (see [`PAD_BIAS`]).
                let biased = if fully_packed {
                    scaled
                } else {
                    let bias: Vec<f32> = valid
                        .iter()
                        .map(|&ok| if ok { 0.0 } else { PAD_BIAS })
                        .collect();
                    let bt = tape.constant(Tensor::from_vec(b, a_max, bias));
                    tape.add(scaled, bt)
                };
                let attn = tape.softmax_rows(biased); // [B, A_max]
                                                      // Broadcast weights over the feature dim and reduce each
                                                      // window's slot group.
                let attn_col = tape.reshape(attn, b * a_max, 1);
                let ones_row = tape.constant(Tensor::ones(1, d));
                let attn_b = tape.matmul(attn_col, ones_row); // [B·A_max, d]
                let weighted = tape.mul(attn_b, vp);
                tape.sum_row_groups(weighted, a_max) // [B, d]
            }
            InteractionKind::MeanPool => {
                let act = self.w_v.forward_act(store, tape, h_all, Activation::Relu); // [N, d]
                let masked = if fully_packed {
                    act // identity slot map, no padding to mask
                } else {
                    let ap = tape.gather_rows(act, &slots); // [B·A_max, d]
                    let mut mask = Vec::with_capacity(b * a_max * d);
                    for &ok in &valid {
                        let m = if ok { 1.0 } else { 0.0 };
                        mask.extend(std::iter::repeat_n(m, d));
                    }
                    tape.hadamard_const(ap, Tensor::from_vec(b * a_max, d, mask))
                };
                let sums = tape.sum_row_groups(masked, a_max); // [B, d]
                                                               // Divide each window's slot sum by its true agent count.
                let mut inv = Vec::with_capacity(b * d);
                for w in batch.windows() {
                    inv.extend(std::iter::repeat_n(1.0 / w.agents() as f32, d));
                }
                tape.hadamard_const(sums, Tensor::from_vec(b, d, inv))
            }
        };
        EncodedScene { h_focal, p_i }
    }
}

/// Stage 3: the autoregressive future-trajectory generator.
///
/// The context `ctx = [h | P | extra | cond]` is the same at every step,
/// so its share of the gate projection, `ctx·W_ctx`, is computed once per
/// rollout and each step's cell starts its gates from it
/// ([`Tape::lstm_cell`]'s `pre`), multiplying only `[e | h_dec]`. Per
/// gate, the forward sums the ctx, e and h_dec terms in that order, which
/// equals one step on `[ctx | e | h_dec]` bit for bit; `dctx` and
/// `dW_ctx` come from one matmul backward over the step-summed gate
/// gradient, and those bits differ from a per-step reduction. `extra`
/// sits before `cond` because only `cond` (the latent or endpoint) differs
/// between the stacked samples of one window.
#[derive(Debug, Clone)]
pub struct RolloutDecoder {
    init: Mlp,
    embed: Linear,
    /// `ctx`'s rows of the gate projection, `[ctx_dim, 4·dec_hidden]`.
    w_ctx: ParamId,
    /// The step cell over `[e | h_dec]`.
    cell: LstmCell,
    head: Linear,
    ctx_dim: usize,
}

impl RolloutDecoder {
    /// `cond_dim` is the width of the backbone's own conditioning (the
    /// endpoint or latent); the context is `[h | P | extra | cond]`,
    /// `cfg.base_ctx_dim() + cond_dim` wide.
    ///
    /// The initial values are those of the unhoisted layout
    /// `[h | P | cond | extra]`, drawn in the same RNG order: the init
    /// layer's rows are permuted to the new order, and the gate projection
    /// is drawn whole as `[e | ctx | h_dec]` rows, then split into `W_ctx`
    /// and the cell's `[W_e; W_h]`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        cfg: &BackboneConfig,
        cond_dim: usize,
    ) -> Self {
        let ctx_dim = cfg.base_ctx_dim() + cond_dim;
        // Row of the old layout that each new context row takes.
        let hp = cfg.hidden_dim + cfg.inter_dim;
        let old_row: Vec<usize> = (0..hp)
            .chain(hp + cond_dim..ctx_dim)
            .chain(hp..hp + cond_dim)
            .collect();
        let init = Mlp::new(
            store,
            rng,
            &format!("{name}.init"),
            &[ctx_dim, cfg.dec_hidden],
            Activation::Tanh,
            BACKBONE_GROUP,
        )
        .with_output_activation();
        let (init_w, _) = init.layers()[0].params();
        let permuted = store.value(init_w).gather_rows(&old_row);
        *store.value_mut(init_w) = permuted.into_shared();
        let embed = Linear::new(
            store,
            rng,
            &format!("{name}.demb"),
            2,
            cfg.embed_dim,
            BACKBONE_GROUP,
        );
        let (e, h) = (cfg.embed_dim, cfg.dec_hidden);
        let w = Tensor::randn(
            e + ctx_dim + h,
            4 * h,
            0.0,
            xavier_std(e + ctx_dim + h, h),
            rng,
        );
        let ctx_rows: Vec<usize> = old_row.iter().map(|r| e + r).collect();
        let cell_rows: Vec<usize> = (0..e).chain(e + ctx_dim..e + ctx_dim + h).collect();
        let w_ctx = store.register(
            format!("{name}.dec.w_ctx"),
            w.gather_rows(&ctx_rows),
            BACKBONE_GROUP,
        );
        let cell = LstmCell::from_weights(
            store,
            &format!("{name}.dec"),
            w.gather_rows(&cell_rows),
            e,
            BACKBONE_GROUP,
        );
        let head = Linear::new(
            store,
            rng,
            &format!("{name}.head"),
            cfg.dec_hidden,
            2,
            BACKBONE_GROUP,
        );
        Self {
            init,
            embed,
            w_ctx,
            cell,
            head,
            ctx_dim,
        }
    }

    pub fn ctx_dim(&self) -> usize {
        self.ctx_dim
    }

    /// Rolls out [`T_PRED`] steps for every window at once, starting at
    /// the origin (each focal agent's last observed position in its
    /// normalized frame). `ctx` is `[B, ctx_dim]`; returns predicted
    /// positions `[T_PRED·B, 2]`, time-major (window `b` at step `t` is
    /// row `t·B + b`).
    pub fn rollout(&self, store: &ParamStore, tape: &mut Tape, ctx: Var) -> Var {
        let b = tape.value(ctx).rows();
        debug_assert_eq!(tape.value(ctx).cols(), self.ctx_dim);
        // Eqs. 4–5: initialize the decoder states from the contexts.
        let h0 = self.init.forward(store, tape, ctx);
        let c0 = tape.constant(Tensor::zeros(b, tape.value(h0).cols()));
        let mut state = LstmState { h: h0, c: c0 };
        // The context's gate pre-activation, once for all steps.
        let w_ctx = tape.param(store, self.w_ctx);
        let pre = tape.matmul(ctx, w_ctx);

        // Eqs. 6–7: autoregressive rollout emitting displacements.
        let mut pos = tape.constant(Tensor::zeros(b, 2));
        let mut outputs = Vec::with_capacity(T_PRED);
        for _ in 0..T_PRED {
            let e = self.embed.forward_act(store, tape, pos, Activation::Relu);
            state = self.cell.step(store, tape, e, state, Some(pre));
            let delta = self.head.forward(store, tape, state.h);
            pos = tape.add(pos, delta);
            outputs.push(pos);
        }
        tape.concat_rows(&outputs)
    }
}

/// `L_base` (Eq. 8): summed squared error between predicted and true
/// future positions, averaged over the horizon *and* the batch so the
/// job loss is the mean of the per-window losses.
pub fn base_loss(tape: &mut Tape, pred: Var, batch: &WindowBatch<'_>) -> Var {
    let target = batch_future_tensor(batch);
    let sse = tape.sse_to(pred, &target);
    tape.scale(sse, 1.0 / (T_PRED * batch.len()) as f32)
}

/// Stacks all agents' positions at observation step `t` into an
/// `[N_total, 2]` tensor following the batch layout contract (each
/// window's focal agent first, then its neighbors).
pub fn batch_step_positions(batch: &WindowBatch<'_>, t: usize) -> Tensor {
    let n = batch.total_agents();
    let mut data = Vec::with_capacity(n * 2);
    for w in batch.windows() {
        data.extend_from_slice(&w.obs[t]);
        for nb in &w.neighbors {
            data.extend_from_slice(&nb[t]);
        }
    }
    Tensor::from_vec(n, 2, data)
}

/// Ground-truth futures as a `[T_PRED·B, 2]` tensor in the rollout's
/// time-major layout (window `b` at step `t` is row `t·B + b`).
pub fn batch_future_tensor(batch: &WindowBatch<'_>) -> Tensor {
    let b = batch.len();
    let mut data = vec![0.0f32; T_PRED * b * 2];
    for (i, w) in batch.windows().iter().enumerate() {
        for (t, p) in w.fut.iter().enumerate() {
            let r = t * b + i;
            data[r * 2] = p[0];
            data[r * 2 + 1] = p[1];
        }
    }
    Tensor::from_vec(T_PRED * b, 2, data)
}

/// Flattened observed focal tracks `[B, T_OBS·2]` (used by CVAE encoders
/// and the reconstruction loss).
pub fn batch_obs_flat_tensor(batch: &WindowBatch<'_>) -> Tensor {
    let mut data = Vec::with_capacity(batch.len() * T_OBS * 2);
    for w in batch.windows() {
        for p in &w.obs {
            data.extend_from_slice(p);
        }
    }
    Tensor::from_vec(batch.len(), T_OBS * 2, data)
}

/// Flattened future focal tracks `[B, T_PRED·2]`.
pub fn batch_fut_flat_tensor(batch: &WindowBatch<'_>) -> Tensor {
    let mut data = Vec::with_capacity(batch.len() * T_PRED * 2);
    for w in batch.windows() {
        for p in &w.fut {
            data.extend_from_slice(p);
        }
    }
    Tensor::from_vec(batch.len(), T_PRED * 2, data)
}

/// Ground-truth endpoints `[B, 2]` (the CVAE target of PECNet).
pub fn batch_endpoint_tensor(batch: &WindowBatch<'_>) -> Tensor {
    let mut data = Vec::with_capacity(batch.len() * 2);
    for w in batch.windows() {
        data.extend_from_slice(w.fut.last().expect("future non-empty"));
    }
    Tensor::from_vec(batch.len(), 2, data)
}

/// Unstacks a time-major `[T_PRED·B, 2]` prediction into per-window
/// tracks, in batch order.
pub fn batch_pred_points(t: &Tensor, b: usize) -> Vec<Vec<Point>> {
    assert_eq!(t.cols(), 2);
    assert_eq!(t.rows() % b, 0, "prediction rows must split over the batch");
    let steps = t.rows() / b;
    (0..b)
        .map(|i| {
            (0..steps)
                .map(|s| {
                    let r = s * b + i;
                    [t.at(r, 0), t.at(r, 1)]
                })
                .collect()
        })
        .collect()
}

/// Ground-truth future of one window as a `[T_PRED, 2]` tensor.
pub fn future_tensor(w: &TrajWindow) -> Tensor {
    let mut data = Vec::with_capacity(T_PRED * 2);
    for p in &w.fut {
        data.extend_from_slice(p);
    }
    Tensor::from_vec(T_PRED, 2, data)
}

/// Flattened observed focal track `[1, T_OBS·2]` of one window.
pub fn obs_flat_tensor(w: &TrajWindow) -> Tensor {
    let mut data = Vec::with_capacity(T_OBS * 2);
    for p in &w.obs {
        data.extend_from_slice(p);
    }
    Tensor::from_vec(1, T_OBS * 2, data)
}

/// Flattened future focal track `[1, T_PRED·2]` of one window.
pub fn fut_flat_tensor(w: &TrajWindow) -> Tensor {
    let mut data = Vec::with_capacity(T_PRED * 2);
    for p in &w.fut {
        data.extend_from_slice(p);
    }
    Tensor::from_vec(1, T_PRED * 2, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptraj_data::domain::DomainId;
    use adaptraj_data::trajectory::T_TOTAL;

    fn toy_window(neighbors: usize) -> TrajWindow {
        let focal: Vec<Point> = (0..T_TOTAL).map(|t| [0.3 * t as f32, 0.0]).collect();
        let nb: Vec<Vec<Point>> = (0..neighbors)
            .map(|k| {
                (0..T_OBS)
                    .map(|t| [0.3 * t as f32, 1.0 + k as f32])
                    .collect()
            })
            .collect();
        TrajWindow::from_world(&focal, &nb, DomainId::EthUcy)
    }

    fn setup(kind: InteractionKind) -> (ParamStore, SceneEncoder, BackboneConfig) {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(0);
        let cfg = BackboneConfig::default();
        let enc = SceneEncoder::new(&mut store, &mut rng, "b", &cfg, kind);
        (store, enc, cfg)
    }

    #[test]
    fn encode_shapes_batched() {
        for kind in [InteractionKind::Attention, InteractionKind::MeanPool] {
            let (store, enc, cfg) = setup(kind);
            let ws = [toy_window(3), toy_window(0), toy_window(1)];
            let batch = WindowBatch::new(ws.iter().collect(), vec![0, 1, 2]);
            let mut tape = Tape::new();
            let scene = enc.encode(&store, &mut tape, &batch);
            assert_eq!(tape.value(scene.h_focal).shape(), (3, cfg.hidden_dim));
            assert_eq!(tape.value(scene.p_i).shape(), (3, cfg.inter_dim));
            assert!(tape.value(scene.p_i).all_finite());
        }
    }

    #[test]
    fn batched_encode_matches_per_window_encode() {
        // The ragged batch must reproduce each window's batch-of-one
        // encoding: padding is masked to exact zeros, so stacking cannot
        // change any window's numbers beyond float re-association.
        for kind in [InteractionKind::Attention, InteractionKind::MeanPool] {
            let (store, enc, _) = setup(kind);
            let ws = [toy_window(4), toy_window(0), toy_window(2)];
            let batch = WindowBatch::new(ws.iter().collect(), vec![0, 1, 2]);
            let mut tape = Tape::new();
            let scene = enc.encode(&store, &mut tape, &batch);
            let stacked_h = tape.value(scene.h_focal).clone();
            let stacked_p = tape.value(scene.p_i).clone();
            for (i, w) in ws.iter().enumerate() {
                let single = WindowBatch::single(w, 0);
                let mut t1 = Tape::new();
                let s1 = enc.encode(&store, &mut t1, &single);
                let h1 = t1.value(s1.h_focal);
                let p1 = t1.value(s1.p_i);
                for c in 0..h1.cols() {
                    assert!(
                        (stacked_h.at(i, c) - h1.at(0, c)).abs() < 1e-5,
                        "h_focal row {i} col {c} diverged"
                    );
                }
                for c in 0..p1.cols() {
                    assert!(
                        (stacked_p.at(i, c) - p1.at(0, c)).abs() < 1e-5,
                        "p_i row {i} col {c} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn encode_works_with_zero_neighbors() {
        let (store, enc, _) = setup(InteractionKind::Attention);
        let w = toy_window(0);
        let batch = WindowBatch::single(&w, 0);
        let mut tape = Tape::new();
        let scene = enc.encode(&store, &mut tape, &batch);
        assert!(tape.value(scene.p_i).all_finite());
    }

    #[test]
    fn neighbors_change_interaction_tensor() {
        let (store, enc, _) = setup(InteractionKind::Attention);
        let w0 = toy_window(0);
        let w3 = toy_window(3);
        let mut t1 = Tape::new();
        let s1 = enc.encode(&store, &mut t1, &WindowBatch::single(&w0, 0));
        let mut t2 = Tape::new();
        let s2 = enc.encode(&store, &mut t2, &WindowBatch::single(&w3, 0));
        assert_ne!(
            t1.value(s1.p_i).data(),
            t2.value(s2.p_i).data(),
            "interaction tensor must be neighbor-sensitive"
        );
        // The focal agent's own encoding is unaffected by neighbors.
        assert_eq!(t1.value(s1.h_focal).data(), t2.value(s2.h_focal).data());
    }

    #[test]
    fn padded_slots_layout() {
        let ws = [toy_window(2), toy_window(0)];
        let batch = WindowBatch::new(ws.iter().collect(), vec![0, 1]);
        let (slots, valid) = padded_slots(&batch);
        // A_max = 3; window 0 has agents {0,1,2}, window 1 only {3}.
        assert_eq!(slots, vec![0, 1, 2, 3, 3, 3]);
        assert_eq!(valid, vec![true, true, true, true, false, false]);
    }

    #[test]
    fn rollout_shape_and_continuity() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(1);
        let cfg = BackboneConfig::default();
        let dec = RolloutDecoder::new(&mut store, &mut rng, "d", &cfg, 2);
        let mut tape = Tape::new();
        let ctx = tape.constant(Tensor::randn(3, dec.ctx_dim(), 0.0, 1.0, &mut rng));
        let pred = dec.rollout(&store, &mut tape, ctx);
        assert_eq!(tape.value(pred).shape(), (T_PRED * 3, 2));
        assert!(tape.value(pred).all_finite());
    }

    #[test]
    fn base_loss_zero_on_perfect_prediction() {
        let w = toy_window(0);
        let batch = WindowBatch::single(&w, 0);
        let mut tape = Tape::new();
        let pred = tape.input(batch_future_tensor(&batch));
        let loss = base_loss(&mut tape, pred, &batch);
        assert!(tape.value(loss).item() < 1e-9);
    }

    #[test]
    fn flat_tensors_shapes() {
        let ws = [toy_window(1), toy_window(0)];
        let batch = WindowBatch::new(ws.iter().collect(), vec![0, 1]);
        assert_eq!(batch_obs_flat_tensor(&batch).shape(), (2, T_OBS * 2));
        assert_eq!(batch_fut_flat_tensor(&batch).shape(), (2, T_PRED * 2));
        assert_eq!(batch_future_tensor(&batch).shape(), (T_PRED * 2, 2));
        assert_eq!(batch_endpoint_tensor(&batch).shape(), (2, 2));
        // Time-major layout: step t of window i sits at row t·B + i.
        let fut = batch_future_tensor(&batch);
        assert_eq!([fut.at(2, 0), fut.at(2, 1)], ws[0].fut[1]);
        assert_eq!([fut.at(3, 0), fut.at(3, 1)], ws[1].fut[1]);
        // And unstacks back to per-window tracks.
        let tracks = batch_pred_points(&fut, 2);
        assert_eq!(tracks[0], ws[0].fut);
        assert_eq!(tracks[1], ws[1].fut);
        // Batch-of-one helpers agree with the per-window builders.
        let single = WindowBatch::single(&ws[0], 0);
        assert_eq!(
            batch_obs_flat_tensor(&single).data(),
            obs_flat_tensor(&ws[0]).data()
        );
        assert_eq!(
            batch_fut_flat_tensor(&single).data(),
            fut_flat_tensor(&ws[0]).data()
        );
        assert_eq!(
            batch_future_tensor(&single).data(),
            future_tensor(&ws[0]).data()
        );
        let pts = batch_pred_points(&future_tensor(&ws[0]), 1).remove(0);
        assert_eq!(pts.len(), T_PRED);
        assert_eq!(pts[0], ws[0].fut[0]);
    }

    #[test]
    fn rollout_gradients_reach_decoder_params() {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(2);
        let cfg = BackboneConfig::default();
        let dec = RolloutDecoder::new(&mut store, &mut rng, "d", &cfg, 8);
        let w = toy_window(0);
        let batch = WindowBatch::single(&w, 0);
        let mut tape = Tape::new();
        let ctx = tape.constant(Tensor::randn(1, dec.ctx_dim(), 0.0, 1.0, &mut rng));
        let pred = dec.rollout(&store, &mut tape, ctx);
        let loss = base_loss(&mut tape, pred, &batch);
        let grads = tape.backward(loss);
        let pgrads = tape.param_grads(&grads);
        assert!(!pgrads.is_empty(), "decoder params got no gradients");
        assert!(pgrads.iter().all(|(_, g)| g.all_finite()));
        // The hoisted context projection learns too.
        let (_, g_ctx) = pgrads
            .iter()
            .find(|(id, _)| *id == dec.w_ctx)
            .expect("W_ctx got no gradient");
        assert!(g_ctx.max_abs() > 0.0, "W_ctx gradient is all zero");
    }

    #[test]
    fn initial_values_are_the_unhoisted_layouts_permuted() {
        // Same seed, same draws: the init layer and the gate projection
        // hold the values the `[h | P | cond | extra]` layout and one
        // `[e | ctx | h_dec]` draw had, with rows moved to the new layout.
        let cfg = BackboneConfig::default().with_extra(3);
        let (hp, cond) = (cfg.hidden_dim + cfg.inter_dim, 2);
        let mut store = ParamStore::new();
        let dec = RolloutDecoder::new(&mut store, &mut Rng::seed_from(4), "d", &cfg, cond);
        let ctx_dim = dec.ctx_dim();
        let mut rng = Rng::seed_from(4);
        let mut old = ParamStore::new();
        let _init = Mlp::new(
            &mut old,
            &mut rng,
            "d.init",
            &[ctx_dim, cfg.dec_hidden],
            Activation::Tanh,
            BACKBONE_GROUP,
        );
        let _embed = Linear::new(&mut old, &mut rng, "e", 2, cfg.embed_dim, BACKBONE_GROUP);
        let (e, h) = (cfg.embed_dim, cfg.dec_hidden);
        let _cell = LstmCell::new(&mut old, &mut rng, "d.dec", e + ctx_dim, h, BACKBONE_GROUP);
        let named = |s: &ParamStore, name: &str| {
            let id = s.ids().find(|&id| s.name(id) == name).expect(name);
            s.value(id).clone()
        };
        let (old_init, old_w) = (named(&old, "d.init.0.w"), named(&old, "d.dec.w"));
        let new_init = named(&store, "d.init.0.w");
        let new_w_ctx = named(&store, "d.dec.w_ctx");
        let new_w_cell = named(&store, "d.dec.w");
        for r in 0..ctx_dim {
            // New row r ([h | P | extra | cond]) came from old row `o`.
            let o = if r < hp {
                r
            } else if r < ctx_dim - cond {
                r + cond
            } else {
                r - (ctx_dim - cond - hp)
            };
            assert_eq!(new_init.row_slice(r), old_init.row_slice(o), "init row {r}");
            assert_eq!(
                new_w_ctx.row_slice(r),
                old_w.row_slice(e + o),
                "W_ctx row {r}"
            );
        }
        for r in 0..e + h {
            let o = if r < e { r } else { r + ctx_dim };
            assert_eq!(
                new_w_cell.row_slice(r),
                old_w.row_slice(o),
                "cell W row {r}"
            );
        }
    }
}
