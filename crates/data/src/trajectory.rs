//! Core trajectory data types.
//!
//! Following the paper's protocol (Sec. IV-A.4), every prediction instance
//! is a 20-step window sampled at 0.4 s: 8 observed steps (3.2 s) and 12
//! future steps (4.8 s) for a *focal* agent, together with the observed
//! 8-step tracks of every neighbor co-present during the observation
//! window.

use crate::domain::DomainId;

/// Observation horizon |T_obs| (steps).
pub const T_OBS: usize = 8;
/// Prediction horizon |T_pred| (steps).
pub const T_PRED: usize = 12;
/// Total window length.
pub const T_TOTAL: usize = T_OBS + T_PRED;
/// Sampling interval (seconds), as standardized by TrajNet++.
pub const FRAME_DT: f32 = 0.4;

/// A 2-D position (already resampled to the 0.4 s grid).
pub type Point = [f32; 2];

/// One prediction instance: a focal agent's observed and future track plus
/// its neighbors' observed tracks, all expressed in a frame where the focal
/// agent's last observed position is the origin (the standard
/// normalization; displacement-based metrics are unaffected).
#[derive(Debug, Clone)]
pub struct TrajWindow {
    /// Focal observed track, length [`T_OBS`].
    pub obs: Vec<Point>,
    /// Focal ground-truth future, length [`T_PRED`].
    pub fut: Vec<Point>,
    /// Neighbor observed tracks, each of length [`T_OBS`]. May be empty.
    pub neighbors: Vec<Vec<Point>>,
    /// Source domain of this window.
    pub domain: DomainId,
    /// Original world position of the focal agent at the last observed
    /// step (the normalization origin), kept for diagnostics.
    pub origin: Point,
}

impl TrajWindow {
    /// Builds a window from world-frame tracks, normalizing every
    /// coordinate relative to the focal agent's last observed position.
    ///
    /// Panics if track lengths do not match the protocol horizons.
    pub fn from_world(focal: &[Point], neighbors: &[Vec<Point>], domain: DomainId) -> Self {
        assert_eq!(focal.len(), T_TOTAL, "focal track must be {T_TOTAL} steps");
        for n in neighbors {
            assert_eq!(n.len(), T_OBS, "neighbor tracks must be {T_OBS} steps");
        }
        let origin = focal[T_OBS - 1];
        let shift = |p: Point| [p[0] - origin[0], p[1] - origin[1]];
        TrajWindow {
            obs: focal[..T_OBS].iter().copied().map(shift).collect(),
            fut: focal[T_OBS..].iter().copied().map(shift).collect(),
            neighbors: neighbors
                .iter()
                .map(|n| n.iter().copied().map(shift).collect())
                .collect(),
            domain,
            origin,
        }
    }

    /// Number of co-present agents (focal + neighbors).
    pub fn agents(&self) -> usize {
        1 + self.neighbors.len()
    }

    /// Per-step displacement vectors of the observed focal track
    /// (length `T_OBS - 1`).
    pub fn obs_velocities(&self) -> Vec<Point> {
        self.obs
            .windows(2)
            .map(|w| [w[1][0] - w[0][0], w[1][1] - w[0][1]])
            .collect()
    }

    /// The full focal track (obs ++ fut) in the normalized frame.
    pub fn full_track(&self) -> Vec<Point> {
        let mut t = self.obs.clone();
        t.extend_from_slice(&self.fut);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight_track(v: f32) -> Vec<Point> {
        (0..T_TOTAL).map(|t| [v * t as f32, 0.0]).collect()
    }

    #[test]
    fn normalization_puts_last_obs_at_origin() {
        let focal = straight_track(0.5);
        let w = TrajWindow::from_world(&focal, &[], DomainId::EthUcy);
        assert_eq!(w.obs.len(), T_OBS);
        assert_eq!(w.fut.len(), T_PRED);
        assert_eq!(w.obs[T_OBS - 1], [0.0, 0.0]);
        assert_eq!(w.origin, [0.5 * (T_OBS - 1) as f32, 0.0]);
        // Future continues in the same direction.
        assert!(w.fut[0][0] > 0.0);
    }

    #[test]
    fn neighbors_share_the_frame() {
        let focal = straight_track(1.0);
        let neighbor: Vec<Point> = (0..T_OBS).map(|t| [t as f32, 3.0]).collect();
        let w = TrajWindow::from_world(&focal, &[neighbor], DomainId::Sdd);
        assert_eq!(w.agents(), 2);
        // Neighbor y-offset is preserved after the shared shift.
        assert_eq!(w.neighbors[0][0][1], 3.0);
        assert_eq!(w.neighbors[0][0][0], -(T_OBS as f32 - 1.0));
    }

    #[test]
    fn velocities_are_per_step_displacements() {
        let focal = straight_track(0.5);
        let w = TrajWindow::from_world(&focal, &[], DomainId::Syi);
        let v = w.obs_velocities();
        assert_eq!(v.len(), T_OBS - 1);
        assert!(v.iter().all(|p| (p[0] - 0.5).abs() < 1e-6 && p[1] == 0.0));
    }

    #[test]
    fn full_track_concatenates() {
        let focal = straight_track(1.0);
        let w = TrajWindow::from_world(&focal, &[], DomainId::LCas);
        let t = w.full_track();
        assert_eq!(t.len(), T_TOTAL);
        assert_eq!(t[T_OBS - 1], [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "focal track must be")]
    fn rejects_short_focal() {
        TrajWindow::from_world(&[[0.0, 0.0]; 5], &[], DomainId::EthUcy);
    }
}
