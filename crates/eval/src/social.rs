//! Social-compliance and coverage metrics beyond ADE/FDE.
//!
//! The paper motivates multi-agent prediction with socially governed
//! behaviors (collision avoidance, social distances). These metrics make
//! that aspect measurable for predicted futures: collision rate against
//! observed neighbor positions (extrapolated at constant velocity over
//! the prediction horizon, the standard approximation when neighbor
//! futures are not predicted jointly) and miss rate at a distance
//! threshold — both common in the trajectory-forecasting literature
//! (e.g. TrajNet++). [`crate::evaluate`] applies both to each window's
//! first sample and records the outcome in its [`crate::WindowScore`].

use adaptraj_data::trajectory::{Point, TrajWindow, T_OBS, T_PRED};

/// Body-to-body distance (m) under which two pedestrians are considered
/// colliding (2 × body radius of the simulator's agents).
pub const COLLISION_RADIUS: f32 = 0.6;

/// Final-displacement threshold (m) for the miss rate.
pub const MISS_THRESHOLD: f32 = 2.0;

#[inline]
fn dist(a: Point, b: Point) -> f32 {
    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt()
}

/// Extrapolates a neighbor's observed track at constant velocity over the
/// prediction horizon.
fn extrapolate_neighbor(obs: &[Point]) -> Vec<Point> {
    debug_assert_eq!(obs.len(), T_OBS);
    let last = obs[T_OBS - 1];
    let vel = [last[0] - obs[T_OBS - 2][0], last[1] - obs[T_OBS - 2][1]];
    (1..=T_PRED)
        .map(|t| [last[0] + vel[0] * t as f32, last[1] + vel[1] * t as f32])
        .collect()
}

/// True if the predicted future comes within [`COLLISION_RADIUS`] of any
/// (constant-velocity extrapolated) neighbor at the same time step.
pub fn collides(pred: &[Point], w: &TrajWindow) -> bool {
    assert_eq!(pred.len(), T_PRED, "prediction horizon mismatch");
    w.neighbors.iter().any(|nb| {
        let nb_future = extrapolate_neighbor(nb);
        pred.iter()
            .zip(&nb_future)
            .any(|(&p, &q)| dist(p, q) < COLLISION_RADIUS)
    })
}

/// True if the prediction's final point misses the ground truth by more
/// than [`MISS_THRESHOLD`].
pub fn misses(pred: &[Point], gt: &[Point]) -> bool {
    dist(
        *pred.last().expect("non-empty"),
        *gt.last().expect("non-empty"),
    ) > MISS_THRESHOLD
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptraj_data::domain::DomainId;
    use adaptraj_data::trajectory::T_TOTAL;

    fn window_with_parallel_neighbor(offset_y: f32) -> TrajWindow {
        let focal: Vec<Point> = (0..T_TOTAL).map(|t| [0.4 * t as f32, 0.0]).collect();
        let nb: Vec<Point> = (0..T_OBS).map(|t| [0.4 * t as f32, offset_y]).collect();
        TrajWindow::from_world(&focal, &[nb], DomainId::EthUcy)
    }

    #[test]
    fn parallel_distant_neighbor_never_collides() {
        let w = window_with_parallel_neighbor(5.0);
        assert!(!collides(&w.fut, &w));
    }

    #[test]
    fn converging_prediction_collides() {
        let w = window_with_parallel_neighbor(1.0);
        // A prediction that swerves into the neighbor's lane.
        let pred: Vec<Point> = (1..=T_PRED).map(|t| [0.4 * t as f32, 1.0]).collect();
        assert!(collides(&pred, &w));
    }

    #[test]
    fn ground_truth_future_is_not_a_miss_of_itself() {
        let w = window_with_parallel_neighbor(3.0);
        assert!(!misses(&w.fut, &w.fut));
        let mut far = w.fut.clone();
        far.last_mut().unwrap()[0] += 10.0;
        assert!(misses(&far, &w.fut));
    }

    #[test]
    fn extrapolation_continues_velocity() {
        let obs: Vec<Point> = (0..T_OBS).map(|t| [0.5 * t as f32, 1.0]).collect();
        let fut = extrapolate_neighbor(&obs);
        assert_eq!(fut.len(), T_PRED);
        assert!((fut[0][0] - 0.5 * T_OBS as f32).abs() < 1e-5);
        assert!((fut[T_PRED - 1][1] - 1.0).abs() < 1e-5);
    }
}
