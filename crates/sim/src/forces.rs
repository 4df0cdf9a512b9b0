//! Social-force terms (Helbing & Molnár, 1995).
//!
//! Pedestrian acceleration is a sum of: a relaxation toward the desired
//! velocity, exponential repulsion from nearby agents, repulsion from walls,
//! attraction toward the centroid of the agent's group, and a small noise
//! term. Each term is a pure function here so it can be tested in isolation;
//! [`crate::world::World::step`] composes them.

use crate::agent::Agent;
use crate::vec2::Vec2;

/// Parameters of the social-force model. Calibrated per domain by
/// `adaptraj-data` to match the paper's Table I statistics.
#[derive(Debug, Clone)]
pub struct ForceParams {
    /// Relaxation time τ (s) toward the desired velocity.
    pub relaxation_time: f32,
    /// Agent–agent repulsion strength A (m/s²).
    pub repulsion_strength: f32,
    /// Agent–agent repulsion range B (m).
    pub repulsion_range: f32,
    /// Interaction cutoff (m); pairs farther apart exert no force.
    pub interaction_radius: f32,
    /// Wall repulsion strength (m/s²).
    pub wall_strength: f32,
    /// Wall repulsion range (m).
    pub wall_range: f32,
    /// Group cohesion gain (1/s²): pull toward the group centroid when more
    /// than `group_slack` away.
    pub group_cohesion: f32,
    /// Distance (m) a group member may stray before cohesion engages.
    pub group_slack: f32,
    /// Standard deviation of isotropic acceleration noise (m/s²).
    pub noise_std: f32,
    /// Anisotropy λ ∈ `[0, 1]`: pedestrians react more to what is in front of
    /// them. 1 = isotropic.
    pub anisotropy: f32,
}

impl Default for ForceParams {
    fn default() -> Self {
        Self {
            relaxation_time: 0.5,
            repulsion_strength: 6.0,
            repulsion_range: 0.4,
            interaction_radius: 4.0,
            wall_strength: 3.0,
            wall_range: 0.3,
            group_cohesion: 0.8,
            group_slack: 1.0,
            noise_std: 0.05,
            anisotropy: 0.4,
        }
    }
}

/// Relaxation toward the desired velocity: `(v_des · ê − v) / τ`.
pub fn goal_force(agent: &Agent, desired_dir: Vec2, params: &ForceParams) -> Vec2 {
    let desired_vel = desired_dir.normalized() * agent.desired_speed;
    (desired_vel - agent.vel) / params.relaxation_time
}

/// Exponential repulsion exerted on `a` by `b`:
/// `A · exp((r_ab − d) / B) · n̂`, scaled by the anisotropy factor when `b`
/// is behind `a`'s heading.
pub fn agent_repulsion(a: &Agent, b: &Agent, params: &ForceParams) -> Vec2 {
    let diff = a.pos - b.pos;
    let d = diff.norm();
    if d < 1e-6 || d > params.interaction_radius {
        return Vec2::ZERO;
    }
    let n = diff / d;
    let r_ab = a.radius + b.radius;
    let magnitude = params.repulsion_strength * ((r_ab - d) / params.repulsion_range).exp();

    // Anisotropy: weight by how much b lies in front of a's motion.
    let heading = a.vel.normalized();
    let w = if heading == Vec2::ZERO {
        1.0
    } else {
        let cos = heading.dot(-n); // +1 when b is straight ahead
        params.anisotropy + (1.0 - params.anisotropy) * (1.0 + cos) / 2.0
    };
    n * (magnitude * w)
}

/// An axis-aligned or free line-segment wall.
#[derive(Debug, Clone, Copy)]
pub struct Wall {
    pub a: Vec2,
    pub b: Vec2,
}

impl Wall {
    pub fn new(a: Vec2, b: Vec2) -> Self {
        Self { a, b }
    }

    /// Closest point on the segment to `p`.
    pub fn closest_point(&self, p: Vec2) -> Vec2 {
        let ab = self.b - self.a;
        let len_sq = ab.norm_sq();
        if len_sq < 1e-12 {
            return self.a;
        }
        let t = ((p - self.a).dot(ab) / len_sq).clamp(0.0, 1.0);
        self.a + ab * t
    }
}

/// Exponential repulsion from the nearest point of a wall.
pub fn wall_force(agent: &Agent, wall: &Wall, params: &ForceParams) -> Vec2 {
    let cp = wall.closest_point(agent.pos);
    let diff = agent.pos - cp;
    let d = diff.norm();
    if d < 1e-6 || d > params.interaction_radius {
        return Vec2::ZERO;
    }
    let n = diff / d;
    n * (params.wall_strength * ((agent.radius - d) / params.wall_range).exp())
}

/// A circular static obstacle (pillar, kiosk, tree planter).
#[derive(Debug, Clone, Copy)]
pub struct Obstacle {
    pub center: Vec2,
    pub radius: f32,
}

/// Exponential repulsion from a circular obstacle's surface.
pub fn obstacle_force(agent: &Agent, obstacle: &Obstacle, params: &ForceParams) -> Vec2 {
    let diff = agent.pos - obstacle.center;
    let d = diff.norm();
    if d < 1e-6 || d > params.interaction_radius + obstacle.radius {
        return Vec2::ZERO;
    }
    let n = diff / d;
    let surface_gap = d - obstacle.radius;
    n * (params.wall_strength * ((agent.radius - surface_gap) / params.wall_range).exp())
}

/// Spring-like pull toward the group centroid once beyond the slack
/// distance.
pub fn group_force(agent: &Agent, centroid: Vec2, params: &ForceParams) -> Vec2 {
    let diff = centroid - agent.pos;
    let d = diff.norm();
    if d <= params.group_slack {
        return Vec2::ZERO;
    }
    diff.normalized() * (params.group_cohesion * (d - params.group_slack))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walker_at(x: f32, y: f32) -> Agent {
        Agent::walker(Vec2::new(x, y), Vec2::new(100.0, 0.0), 1.3)
    }

    #[test]
    fn goal_force_accelerates_toward_goal() {
        let a = walker_at(0.0, 0.0);
        let p = ForceParams::default();
        let f = goal_force(&a, Vec2::new(1.0, 0.0), &p);
        assert!(f.x > 0.0);
        assert!(f.y.abs() < 1e-6);
        // Magnitude = desired_speed / tau when at rest.
        assert!((f.x - a.desired_speed / p.relaxation_time).abs() < 1e-5);
    }

    #[test]
    fn goal_force_damps_excess_velocity() {
        let mut a = walker_at(0.0, 0.0);
        a.vel = Vec2::new(5.0, 0.0); // much faster than desired
        let f = goal_force(&a, Vec2::new(1.0, 0.0), &ForceParams::default());
        assert!(f.x < 0.0, "should brake");
    }

    #[test]
    fn repulsion_pushes_apart_and_decays() {
        let p = ForceParams::default();
        let a = walker_at(0.0, 0.0);
        let near = walker_at(0.5, 0.0);
        let far = walker_at(2.5, 0.0);
        let f_near = agent_repulsion(&a, &near, &p);
        let f_far = agent_repulsion(&a, &far, &p);
        assert!(f_near.x < 0.0, "pushed away from neighbor on the right");
        assert!(
            f_near.norm() > f_far.norm(),
            "repulsion decays with distance"
        );
    }

    #[test]
    fn repulsion_zero_beyond_cutoff() {
        let p = ForceParams::default();
        let a = walker_at(0.0, 0.0);
        let b = walker_at(p.interaction_radius + 1.0, 0.0);
        assert_eq!(agent_repulsion(&a, &b, &p), Vec2::ZERO);
    }

    #[test]
    fn repulsion_is_anisotropic() {
        let mut a = walker_at(0.0, 0.0);
        a.vel = Vec2::new(1.0, 0.0); // heading +x
        let ahead = walker_at(1.0, 0.0);
        let behind = walker_at(-1.0, 0.0);
        let p = ForceParams::default();
        let f_ahead = agent_repulsion(&a, &ahead, &p);
        let f_behind = agent_repulsion(&a, &behind, &p);
        assert!(
            f_ahead.norm() > f_behind.norm(),
            "agents ahead matter more: {} vs {}",
            f_ahead.norm(),
            f_behind.norm()
        );
    }

    #[test]
    fn wall_closest_point_clamps_to_segment() {
        let w = Wall::new(Vec2::new(0.0, 0.0), Vec2::new(10.0, 0.0));
        assert_eq!(w.closest_point(Vec2::new(5.0, 3.0)), Vec2::new(5.0, 0.0));
        assert_eq!(w.closest_point(Vec2::new(-5.0, 3.0)), Vec2::new(0.0, 0.0));
        assert_eq!(w.closest_point(Vec2::new(15.0, -2.0)), Vec2::new(10.0, 0.0));
    }

    #[test]
    fn wall_force_pushes_away() {
        let w = Wall::new(Vec2::new(-10.0, 0.0), Vec2::new(10.0, 0.0));
        let a = walker_at(0.0, 0.2);
        let f = wall_force(&a, &w, &ForceParams::default());
        assert!(f.y > 0.0, "pushed up away from wall below");
        assert!(f.x.abs() < 1e-6);
    }

    #[test]
    fn obstacle_force_pushes_radially_outward() {
        let p = ForceParams::default();
        let ob = Obstacle {
            center: Vec2::new(0.0, 0.0),
            radius: 1.0,
        };
        let a = walker_at(1.3, 0.0); // 0.3 m from the surface
        let f = obstacle_force(&a, &ob, &p);
        assert!(f.x > 0.0, "pushed away from the pillar");
        assert!(f.y.abs() < 1e-6);
        // Decays with distance from the surface.
        let far = walker_at(3.0, 0.0);
        assert!(obstacle_force(&far, &ob, &p).norm() < f.norm());
    }

    #[test]
    fn obstacle_force_zero_beyond_cutoff() {
        let p = ForceParams::default();
        let ob = Obstacle {
            center: Vec2::new(0.0, 0.0),
            radius: 0.5,
        };
        let a = walker_at(p.interaction_radius + 1.0, 0.0);
        assert_eq!(obstacle_force(&a, &ob, &p), Vec2::ZERO);
    }

    #[test]
    fn group_force_engages_beyond_slack() {
        let p = ForceParams::default();
        let a = walker_at(0.0, 0.0);
        let near_centroid = Vec2::new(0.5, 0.0);
        let far_centroid = Vec2::new(5.0, 0.0);
        assert_eq!(group_force(&a, near_centroid, &p), Vec2::ZERO);
        let f = group_force(&a, far_centroid, &p);
        assert!(f.x > 0.0, "pulled toward distant centroid");
    }
}
