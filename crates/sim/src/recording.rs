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
        // The walker moves toward its goal on x while present.
        let last = (0..rec.num_frames())
            .take_while(|&t| rec.position(t, 0).is_some())
            .last()
            .unwrap();
        assert!(last > 5);
        assert!(rec.position(last, 0).unwrap().x > rec.position(0, 0).unwrap().x);
        // Frames and agents that were never recorded have no position.
        assert!(rec.position(10_000, 1).is_none());
        assert!(rec.position(0, 99).is_none());
    }
}
