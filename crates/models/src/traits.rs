//! The backbone abstraction that learning methods (vanilla, Counter,
//! CausalMotion, AdapTraj) plug into.
//!
//! Since the batched-execution redesign every forward pass operates on a
//! [`WindowBatch`]: one tape pass encodes and generates for all windows of
//! a job at once, with batched `GEMM`/`FusedAffine`/`LstmCell` nodes.
//! The per-window path is the batch-of-one special case
//! ([`WindowBatch::single`]).

use crate::backbone::{base_loss, batch_pred_points, repeat_rows, EncodedScene};
use crate::config::BackboneConfig;
use adaptraj_data::trajectory::Point;
use adaptraj_data::WindowBatch;
use adaptraj_obs::span;
use adaptraj_tensor::{ParamStore, Rng, Tape, Tensor, Var};

/// Whether a generation pass is a training pass or an inference sample,
/// and where its random draws come from.
#[derive(Debug)]
pub enum GenMode<'a> {
    /// Training pass (posterior latents, teacher signals). Latents are
    /// drawn as the pass runs, one rng per batched window in batch order.
    /// Under the executor rng `b` is seeded from
    /// `window_seed(run_seed, epoch, ids[b])`, so each window's draws are
    /// identical whether it runs in a batch of one or of eight, and do not
    /// depend on the worker count.
    Train(&'a mut [Rng]),
    /// Inference sample. Every draw was taken before the pass: row `r`
    /// holds one [`Backbone::sample_draws`] row for generated row `r`.
    Sample(&'a Tensor),
}

/// Everything a forward pass threads through the model stack: the shared
/// (read-only) parameter store, this job's tape, and the mode with its
/// source of randomness. Bundling these lets the worker-pool executor
/// hand one value across a thread boundary and keeps backbone signatures
/// to `(ctx, batch, enc, extra)`.
#[derive(Debug)]
pub struct ForwardCtx<'a> {
    /// Parameters, shared read-only across worker threads; writes happen
    /// only at optimizer-step barriers on the dispatching thread.
    pub store: &'a ParamStore,
    /// The autodiff tape owned by this job's forward pass.
    pub tape: &'a mut Tape,
    /// Training pass with its rng streams, or inference sample with its
    /// pre-drawn rows.
    pub mode: GenMode<'a>,
}

impl<'a> ForwardCtx<'a> {
    /// Context for a training pass ([`GenMode::Train`]), one rng per
    /// batched window.
    pub fn train(store: &'a ParamStore, tape: &'a mut Tape, rngs: &'a mut [Rng]) -> Self {
        Self {
            store,
            tape,
            mode: GenMode::Train(rngs),
        }
    }

    /// Context for an inference sample ([`GenMode::Sample`]), one
    /// [`Backbone::sample_draws`] row per generated row.
    pub fn sample(store: &'a ParamStore, tape: &'a mut Tape, draws: &'a Tensor) -> Self {
        Self {
            store,
            tape,
            mode: GenMode::Sample(draws),
        }
    }
}

/// One `[1, cols]` Gaussian draw per window, stacked into `[B, cols]` with
/// row `b` drawn from `rngs[b]`. Keeping every window on its own rng
/// stream is what makes a batched pass draw-for-draw identical to `B`
/// batch-of-one passes, independent of job formation.
pub fn randn_per_window(rngs: &mut [Rng], cols: usize, mean: f32, std: f32) -> Tensor {
    let rows: Vec<Tensor> = rngs
        .iter_mut()
        .map(|r| Tensor::randn(1, cols, mean, std, r))
        .collect();
    let refs: Vec<&Tensor> = rows.iter().collect();
    Tensor::concat_rows(&refs)
}

/// Result of one generation pass.
#[derive(Debug, Clone, Copy)]
pub struct Generation {
    /// Predicted future positions `[T_PRED·B, 2]` in the normalized frame,
    /// time-major: window `b`'s position at step `t` is row `t·B + b`. A
    /// batch of one reproduces the historical `[T_PRED, 2]` layout.
    pub pred: Var,
    /// Backbone-specific auxiliary loss, averaged over the batch (CVAE
    /// KL plus endpoint loss for PECNet; energy contrast for LBEBM).
    /// `None` in sample mode.
    pub aux_loss: Option<Var>,
}

/// A multi-agent trajectory-prediction backbone (Sec. II-C).
///
/// The split into `encode` and `generate` is what makes AdapTraj
/// plug-and-play: the framework taps `h_ei` and `P_i` from
/// [`EncodedScene`], derives its four feature types, and passes the fused
/// `[H^i | H^s]` back as `extra` conditioning for generation.
///
/// Both stages take a [`WindowBatch`] and batch along rows: `encode`
/// stacks all windows' agents ([`WindowBatch`]'s layout contract),
/// `generate` works on `[B, ·]` per-window rows. `train_forward` is the
/// provided training entry point that wires encode → generate → loss with
/// the profiling phases the observatory expects; inference goes through
/// [`sample_backbone`].
///
/// `Send + Sync` is a supertrait so the worker-pool executor can share
/// `&dyn Backbone` across threads; backbones are plain configuration data
/// (all learned state lives in the [`ParamStore`]), so every impl
/// satisfies it automatically.
pub trait Backbone: Send + Sync {
    fn name(&self) -> &'static str;

    fn config(&self) -> &BackboneConfig;

    /// Stages 1–2: individual mobility + neighbor interaction, over all
    /// windows of the batch in one pass.
    fn encode(&self, store: &ParamStore, tape: &mut Tape, batch: &WindowBatch<'_>) -> EncodedScene;

    /// Stage 3: future-trajectory generation conditioned on the encoded
    /// scene and an optional `extra` matrix of width
    /// [`BackboneConfig::extra_dim`] (must be `Some` iff `extra_dim > 0`).
    /// In train mode `enc` and `extra` have one row per window of `batch`.
    /// In sample mode they have one row per row of the context's draws,
    /// which may stack several samples of each window
    /// ([`sample_passes`]); every op a sample pass records is row-wise.
    fn generate(
        &self,
        ctx: &mut ForwardCtx<'_>,
        batch: &WindowBatch<'_>,
        enc: &EncodedScene,
        extra: Option<Var>,
    ) -> Generation;

    /// Every random draw one sample-mode [`Backbone::generate`] pass takes
    /// for one window, as one `[1, n]` row, taken from `rng` in the order
    /// the pass uses it. No draw depends on a computed value, so the
    /// draws of a pass can be taken before it runs.
    fn sample_draws(&self, rng: &mut Rng) -> Tensor;

    /// One full training forward pass: encode, generate in train mode, and
    /// combine `L_base` (Eq. 8, averaged over the batch) with the
    /// backbone's auxiliary loss. Returns `(prediction, loss)` where the
    /// loss is the batch-mean training objective. The context must be a
    /// training one ([`ForwardCtx::train`]).
    fn train_forward(
        &self,
        ctx: &mut ForwardCtx<'_>,
        batch: &WindowBatch<'_>,
        extra: Option<Var>,
    ) -> (Var, Var) {
        assert!(
            matches!(ctx.mode, GenMode::Train(_)),
            "train_forward needs a training context"
        );
        let enc = {
            let _p = span("encode");
            self.encode(ctx.store, ctx.tape, batch)
        };
        let _p = span("generate");
        let gen = self.generate(ctx, batch, &enc, extra);
        let mut loss = base_loss(ctx.tape, gen.pred, batch);
        if let Some(aux) = gen.aux_loss {
            loss = ctx.tape.add(loss, aux);
        }
        (gen.pred, loss)
    }
}

/// Encode once, sample `k` in one stacked pass: the tape skeleton behind
/// every [`crate::Predictor::sample`]. Returns `[B][k]` tracks, one rng
/// per window; `k = 0` draws and records nothing.
///
/// `draw` takes one pass's randomness for one window
/// ([`Backbone::sample_draws`]). All of it is taken first, pass by pass,
/// so `rngs[b]` gives out exactly the draws, in the same order, that `k`
/// successive single-sample calls would take from it, and ends in the
/// same state. Row `j·B + b` of the `[k·B, n]` draws is sample `j` of
/// window `b` (sample-major). `forward` then records the scene encoding
/// once at `B` rows, repeats it to `k·B` rows ([`EncodedScene::repeat`]) and
/// records one generate pass over all of them, returning the
/// `[T_PRED·k·B, 2]` time-major prediction. Every op of that pass is
/// row-wise, so row `j·B + b` holds the same bits as the `j`-th
/// single-sample call on window `b`.
pub fn sample_passes(
    rngs: &mut [Rng],
    k: usize,
    mut draw: impl FnMut(&mut Rng) -> Tensor,
    forward: impl FnOnce(&mut Tape, &Tensor) -> Var,
) -> Vec<Vec<Vec<Point>>> {
    let b = rngs.len();
    let mut out: Vec<Vec<Vec<Point>>> = (0..b).map(|_| Vec::with_capacity(k)).collect();
    if k == 0 {
        return out;
    }
    let mut rows = Vec::with_capacity(k * b);
    for _ in 0..k {
        rows.extend(rngs.iter_mut().map(&mut draw));
    }
    let draws = Tensor::concat_rows(&rows.iter().collect::<Vec<_>>());
    adaptraj_tensor::with_pooled(|tape| {
        let pred = forward(tape, &draws);
        for (r, points) in batch_pred_points(tape.value(pred), k * b)
            .into_iter()
            .enumerate()
        {
            out[r % b].push(points);
        }
    });
    out
}

/// [`sample_passes`] for methods whose inference is one backbone pass:
/// encode the batch, derive the optional `extra` conditioning from the
/// encoding with `condition` (AdapTraj's features; `None` for vanilla and
/// CausalMotion), then one sample-mode generate over `k` stacked samples
/// per window.
pub fn sample_backbone<B: Backbone + ?Sized>(
    backbone: &B,
    store: &ParamStore,
    batch: &WindowBatch<'_>,
    rngs: &mut [Rng],
    k: usize,
    condition: impl FnOnce(&mut Tape, &EncodedScene) -> Option<Var>,
) -> Vec<Vec<Vec<Point>>> {
    assert_eq!(batch.len(), rngs.len(), "one rng per batched window");
    sample_passes(
        rngs,
        k,
        |rng| backbone.sample_draws(rng),
        |tape, draws| {
            let enc = {
                let _p = span("encode");
                backbone.encode(store, tape, batch)
            };
            let extra = condition(tape, &enc);
            let _p = span("generate");
            let enc = enc.repeat(tape, k);
            let extra = extra.map(|e| repeat_rows(tape, e, k));
            let mut ctx = ForwardCtx::sample(store, tape, draws);
            backbone.generate(&mut ctx, batch, &enc, extra).pred
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randn_per_window_rows_match_independent_draws() {
        let mut rngs = vec![Rng::seed_from(7), Rng::seed_from(99)];
        let stacked = randn_per_window(&mut rngs, 4, 0.0, 1.0);
        assert_eq!(stacked.shape(), (2, 4));
        let mut r0 = Rng::seed_from(7);
        let mut r1 = Rng::seed_from(99);
        let a = Tensor::randn(1, 4, 0.0, 1.0, &mut r0);
        let b = Tensor::randn(1, 4, 0.0, 1.0, &mut r1);
        assert_eq!(&stacked.data()[..4], a.data());
        assert_eq!(&stacked.data()[4..], b.data());
    }
}
