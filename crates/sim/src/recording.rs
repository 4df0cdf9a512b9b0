//! Frame-by-frame capture of simulated scenes.

use crate::agent::AgentId;
use crate::vec2::Vec2;
use crate::world::World;

/// Positions of all agents over time. `frames[t][agent]` is `Some(pos)`
/// while the agent is active (present in the scene) at frame `t`.
#[derive(Debug, Clone)]
pub struct Recording {
    dt: f32,
    frames: Vec<Vec<Option<Vec2>>>,
    num_agents: usize,
}

impl Recording {
    pub fn new(dt: f32) -> Self {
        Self {
            dt,
            frames: Vec::new(),
            num_agents: 0,
        }
    }

    /// Simulation time step between frames (s).
    pub fn dt(&self) -> f32 {
        self.dt
    }

    /// Appends the current world state as a frame.
    pub fn capture(&mut self, world: &World) {
        self.num_agents = self.num_agents.max(world.agents.len());
        self.frames.push(
            world
                .agents
                .iter()
                .map(|a| a.active.then_some(a.pos))
                .collect(),
        );
    }

    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    pub fn num_agents(&self) -> usize {
        self.num_agents
    }

    /// Position of `agent` at `frame`, if present.
    pub fn position(&self, frame: usize, agent: AgentId) -> Option<Vec2> {
        self.frames.get(frame)?.get(agent).copied().flatten()
    }

    /// Ids of agents present at `frame`.
    pub fn active_at(&self, frame: usize) -> Vec<AgentId> {
        match self.frames.get(frame) {
            Some(f) => f
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.map(|_| i))
                .collect(),
            None => Vec::new(),
        }
    }

    /// The contiguous presence of one agent: `(first_frame, positions)`.
    /// Returns `None` if the agent never appears.
    pub fn trajectory_of(&self, agent: AgentId) -> Option<(usize, Vec<Vec2>)> {
        let first = (0..self.num_frames()).find(|&t| self.position(t, agent).is_some())?;
        let mut pts = Vec::new();
        for t in first..self.num_frames() {
            match self.position(t, agent) {
                Some(p) => pts.push(p),
                None => break,
            }
        }
        Some((first, pts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::Agent;
    use crate::forces::ForceParams;

    fn recorded_world() -> Recording {
        let p = ForceParams {
            noise_std: 0.0,
            ..Default::default()
        };
        let mut w = World::new(p, 0.1, 0);
        w.spawn(Agent::walker(Vec2::ZERO, Vec2::new(2.0, 0.0), 1.3));
        w.spawn(Agent::stationary(Vec2::new(5.0, 5.0)));
        w.run_record(80)
    }

    #[test]
    fn frames_and_agents_counted() {
        let rec = recorded_world();
        assert_eq!(rec.num_frames(), 81);
        assert_eq!(rec.num_agents(), 2);
    }

    #[test]
    fn walker_disappears_after_goal() {
        let rec = recorded_world();
        assert!(rec.position(0, 0).is_some());
        assert!(
            rec.position(80, 0).is_none(),
            "walker should have exited the scene"
        );
        // Stationary agent present throughout.
        assert!(rec.position(80, 1).is_some());
    }

    #[test]
    fn trajectory_extraction_is_contiguous() {
        let rec = recorded_world();
        let (start, pts) = rec.trajectory_of(0).expect("walker trajectory");
        assert_eq!(start, 0);
        assert!(pts.len() < rec.num_frames(), "exited early");
        assert!(pts.len() > 5);
        // Monotone progress toward the goal on x.
        assert!(pts.last().unwrap().x > pts[0].x);
    }

    #[test]
    fn active_at_lists_present_agents() {
        let rec = recorded_world();
        assert_eq!(rec.active_at(0), vec![0, 1]);
        assert_eq!(rec.active_at(80), vec![1]);
        assert!(rec.active_at(10_000).is_empty());
    }

    #[test]
    fn missing_agent_has_no_trajectory() {
        let rec = recorded_world();
        assert!(rec.trajectory_of(99).is_none());
    }
}
