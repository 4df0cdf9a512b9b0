//! Model hyperparameters.

/// Architecture dimensions shared by the backbones. Sized for CPU training
/// (the paper uses GPU-scale widths; the architecture is identical, only
/// narrower — see DESIGN.md).
#[derive(Debug, Clone)]
pub struct BackboneConfig {
    /// Location-embedding width (Eq. 1).
    pub embed_dim: usize,
    /// Individual-mobility encoder hidden width (Eq. 2).
    pub hidden_dim: usize,
    /// Neighbor-interaction tensor width (Eq. 3).
    pub inter_dim: usize,
    /// Decoder LSTM width (Eqs. 4–7).
    pub dec_hidden: usize,
    /// Latent/noise width `z` (Eq. 5) — the CVAE latent for PECNet, the
    /// belief latent for LBEBM.
    pub z_dim: usize,
    /// Width of the optional extra conditioning vector appended by a
    /// learning method (AdapTraj passes `[H^i, H^s]`; vanilla passes
    /// nothing). Fixed at construction because it sizes the decoder-init
    /// layer.
    pub extra_dim: usize,
}

impl Default for BackboneConfig {
    fn default() -> Self {
        Self {
            embed_dim: 16,
            hidden_dim: 32,
            inter_dim: 32,
            dec_hidden: 32,
            z_dim: 8,
            extra_dim: 0,
        }
    }
}

impl BackboneConfig {
    /// Same architecture with room for an extra conditioning vector.
    pub fn with_extra(mut self, extra_dim: usize) -> Self {
        self.extra_dim = extra_dim;
        self
    }

    /// Width of the decoder conditioning context:
    /// `[h_focal | P_i | z-or-endpoint-conditioning | extra]` is assembled
    /// by each backbone; this is just the shared `[h | P | extra]` part.
    pub fn base_ctx_dim(&self) -> usize {
        self.hidden_dim + self.inter_dim + self.extra_dim
    }
}

/// Optimization hyperparameters for the learning-method trainers.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
    pub seed: u64,
    /// Cap on training windows per source domain (0 = use all). Keeps the
    /// CPU reproduction tractable; the sampling is chronological-prefix so
    /// it stays leak-free.
    pub max_train_windows: usize,
    /// Early stopping on the training loss: stop after this many epochs
    /// without improvement (0 disables). Applies to the single-phase
    /// trainers; AdapTraj's three-step schedule always runs to `epochs`.
    pub patience: usize,
    /// Worker threads for the data-parallel executor (`adaptraj-exec`).
    /// `0` or `1` run per-window passes inline on the calling thread; the
    /// per-window seed-splitting scheme makes results bit-identical for
    /// every worker count.
    pub workers: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            epochs: 12,
            batch_size: 32,
            lr: 3e-3,
            grad_clip: 5.0,
            seed: 1,
            max_train_windows: 400,
            patience: 0,
            workers: 1,
        }
    }
}

impl TrainerConfig {
    /// Fast settings for unit tests.
    pub fn smoke() -> Self {
        Self {
            epochs: 3,
            batch_size: 16,
            max_train_windows: 60,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_dim_includes_extra() {
        let base = BackboneConfig::default();
        let with = base.clone().with_extra(10);
        assert_eq!(with.base_ctx_dim(), base.base_ctx_dim() + 10);
    }
}
