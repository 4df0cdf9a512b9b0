//! Simulation world and time stepping.

use crate::agent::{Agent, AgentId, Role};
use crate::forces::{agent_repulsion, goal_force, group_force, wall_force, ForceParams, Wall};
use crate::recording::Recording;
use crate::vec2::Vec2;
use adaptraj_tensor::rng::Rng;
use std::sync::OnceLock;
use std::time::Instant;

/// Cached global-metrics handles for the hot stepping loop.
struct SimMetrics {
    steps: adaptraj_obs::CounterHandle,
    steps_per_sec: adaptraj_obs::HistogramHandle,
    active_agents: adaptraj_obs::HistogramHandle,
}

fn sim_metrics() -> &'static SimMetrics {
    static METRICS: OnceLock<SimMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = adaptraj_obs::global();
        SimMetrics {
            steps: reg.counter("sim.steps"),
            steps_per_sec: reg.histogram("sim.steps_per_sec"),
            active_agents: reg.histogram("sim.active_agents"),
        }
    })
}

/// Distance at which a walker is considered to have reached its goal and
/// leaves the scene.
const GOAL_TOLERANCE: f32 = 0.6;

/// Preferred following distance for `Role::Follower` agents.
const FOLLOW_DISTANCE: f32 = 1.0;

/// The complete simulation state: agents, static geometry, force
/// parameters, and the integration clock.
#[derive(Debug)]
pub struct World {
    pub agents: Vec<Agent>,
    pub walls: Vec<Wall>,
    pub params: ForceParams,
    /// Integration step (s). The paper's preprocessing standardizes
    /// trajectories to 0.4 s; the simulator typically runs at a finer step
    /// and `adaptraj-data` resamples.
    pub dt: f32,
    step_count: usize,
    rng: Rng,
}

impl World {
    pub fn new(params: ForceParams, dt: f32, seed: u64) -> Self {
        assert!(dt > 0.0, "dt must be positive");
        Self {
            agents: Vec::new(),
            walls: Vec::new(),
            params,
            dt,
            step_count: 0,
            rng: Rng::seed_from(seed),
        }
    }

    /// Adds an agent, stamping its spawn step; returns its id. Agents
    /// with a nonzero `entry_delay` start inactive and enter the scene
    /// once the delay elapses.
    pub fn spawn(&mut self, mut agent: Agent) -> AgentId {
        agent.spawn_step = self.step_count;
        if agent.entry_delay > 0 {
            agent.active = false;
        }
        self.agents.push(agent);
        self.agents.len() - 1
    }

    pub fn add_wall(&mut self, wall: Wall) {
        self.walls.push(wall);
    }

    pub fn step_count(&self) -> usize {
        self.step_count
    }

    pub fn active_count(&self) -> usize {
        self.agents.iter().filter(|a| a.active).count()
    }

    /// Centroid of the active members of `group`.
    fn group_centroid(&self, group: usize) -> Option<Vec2> {
        let mut sum = Vec2::ZERO;
        let mut n = 0;
        for a in &self.agents {
            if a.active && a.group == Some(group) {
                sum += a.pos;
                n += 1;
            }
        }
        (n > 1).then(|| sum / n as f32)
    }

    /// The direction an agent currently wants to move in, given its role.
    fn desired_direction(&self, id: AgentId) -> Vec2 {
        let agent = &self.agents[id];
        match agent.role {
            Role::Walker | Role::Leader => (agent.goal - agent.pos).normalized(),
            Role::Stationary => Vec2::ZERO,
            Role::Follower(leader) => {
                let leader_agent = &self.agents[leader];
                if !leader_agent.active {
                    // Leader left: head to the leader's last goal.
                    return (leader_agent.goal - agent.pos).normalized();
                }
                let to_leader = leader_agent.pos - agent.pos;
                if to_leader.norm() <= FOLLOW_DISTANCE {
                    // Close enough — match the leader's heading.
                    leader_agent.vel.normalized()
                } else {
                    to_leader.normalized()
                }
            }
        }
    }

    /// Advances the simulation by one time step (semi-implicit Euler).
    pub fn step(&mut self) {
        // Delayed entries.
        let now = self.step_count;
        for agent in &mut self.agents {
            if !agent.active && agent.entry_delay > 0 && now >= agent.spawn_step + agent.entry_delay
            {
                agent.active = true;
                agent.entry_delay = 0;
            }
        }
        let n = self.agents.len();
        let mut forces = vec![Vec2::ZERO; n];

        #[allow(clippy::needless_range_loop)] // i indexes both agents and forces
        for i in 0..n {
            if !self.agents[i].active {
                continue;
            }
            let desired = self.desired_direction(i);
            let mut f = goal_force(&self.agents[i], desired, &self.params);

            for j in 0..n {
                if i != j && self.agents[j].active {
                    f += agent_repulsion(&self.agents[i], &self.agents[j], &self.params);
                }
            }
            for wall in &self.walls {
                f += wall_force(&self.agents[i], wall, &self.params);
            }
            if let Some(g) = self.agents[i].group {
                if let Some(centroid) = self.group_centroid(g) {
                    f += group_force(&self.agents[i], centroid, &self.params);
                }
            }
            if self.params.noise_std > 0.0 {
                f += Vec2::new(
                    self.rng.normal(0.0, self.params.noise_std),
                    self.rng.normal(0.0, self.params.noise_std),
                );
            }
            forces[i] = f;
        }

        let dt = self.dt;
        for (agent, f) in self.agents.iter_mut().zip(&forces) {
            if !agent.active {
                continue;
            }
            agent.vel = (agent.vel + *f * dt).clamp_norm(agent.max_speed);
            agent.pos += agent.vel * dt;
            debug_assert!(agent.pos.is_finite(), "agent position diverged");
            if agent.reached_goal(GOAL_TOLERANCE) {
                agent.active = false;
            }
        }
        self.step_count += 1;
        sim_metrics().steps.incr();
    }

    /// Runs `steps` steps, recording every agent's position per frame.
    /// Frame 0 is the state *before* the first step.
    pub fn run_record(&mut self, steps: usize) -> Recording {
        let t0 = Instant::now();
        let mut rec = Recording::new(self.dt);
        rec.capture(self);
        for _ in 0..steps {
            self.step();
            rec.capture(self);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let m = sim_metrics();
        if steps > 0 && elapsed > 0.0 {
            m.steps_per_sec.record(steps as f64 / elapsed);
        }
        m.active_agents.record(self.active_count() as f64);
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn free_world(seed: u64) -> World {
        let p = ForceParams {
            noise_std: 0.0,
            ..Default::default()
        };
        World::new(p, 0.1, seed)
    }

    #[test]
    fn lone_walker_reaches_goal() {
        let mut w = free_world(0);
        let id = w.spawn(Agent::walker(Vec2::ZERO, Vec2::new(5.0, 0.0), 1.3));
        for _ in 0..200 {
            w.step();
        }
        assert!(!w.agents[id].active, "walker should arrive and deactivate");
        assert!(w.agents[id].pos.distance(Vec2::new(5.0, 0.0)) < 1.0);
    }

    #[test]
    fn walker_approaches_desired_speed() {
        let mut w = free_world(1);
        let id = w.spawn(Agent::walker(Vec2::ZERO, Vec2::new(100.0, 0.0), 1.3));
        for _ in 0..50 {
            w.step();
        }
        let speed = w.agents[id].vel.norm();
        assert!((speed - 1.3).abs() < 0.1, "cruise speed {speed}");
    }

    #[test]
    fn head_on_agents_avoid_collision() {
        let mut w = free_world(2);
        // Two walkers heading straight at each other.
        let a = w.spawn(Agent::walker(
            Vec2::new(0.0, 0.05),
            Vec2::new(10.0, 0.0),
            1.3,
        ));
        let b = w.spawn(Agent::walker(
            Vec2::new(10.0, -0.05),
            Vec2::new(0.0, 0.0),
            1.3,
        ));
        let mut min_dist = f32::MAX;
        for _ in 0..300 {
            w.step();
            if w.agents[a].active && w.agents[b].active {
                min_dist = min_dist.min(w.agents[a].pos.distance(w.agents[b].pos));
            }
        }
        let hard = w.agents[a].radius + w.agents[b].radius;
        assert!(
            min_dist > hard * 0.8,
            "agents interpenetrated: min dist {min_dist} vs body {hard}"
        );
    }

    #[test]
    fn stationary_agents_stay_put() {
        let mut w = free_world(3);
        let id = w.spawn(Agent::stationary(Vec2::new(2.0, 2.0)));
        for _ in 0..100 {
            w.step();
        }
        assert!(w.agents[id].pos.distance(Vec2::new(2.0, 2.0)) < 0.3);
        assert!(w.agents[id].active);
    }

    #[test]
    fn follower_tracks_leader() {
        let mut w = free_world(4);
        let leader = w.spawn(Agent::walker(Vec2::ZERO, Vec2::new(20.0, 0.0), 1.0));
        w.agents[leader].role = Role::Leader;
        let mut f = Agent::walker(Vec2::new(-2.0, 0.3), Vec2::ZERO, 1.2);
        f.role = Role::Follower(leader);
        let follower = w.spawn(f);
        for _ in 0..100 {
            w.step();
        }
        let gap = w.agents[follower].pos.distance(w.agents[leader].pos);
        assert!(gap < 3.0, "follower fell behind: gap {gap}");
        // Follower should be moving in roughly the leader's direction.
        assert!(w.agents[follower].vel.x > 0.0);
    }

    #[test]
    fn group_members_stay_together() {
        let mut w = free_world(5);
        let mut ids = Vec::new();
        for dy in [-1.5f32, 0.0, 1.5] {
            let mut a = Agent::walker(Vec2::new(0.0, dy * 2.0), Vec2::new(15.0, dy * 2.0), 1.2);
            a.group = Some(7);
            ids.push(w.spawn(a));
        }
        for _ in 0..60 {
            w.step();
        }
        // Pairwise spread should be bounded by cohesion.
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                let d = w.agents[ids[i]].pos.distance(w.agents[ids[j]].pos);
                assert!(d < 6.0, "group dispersed: {d}");
            }
        }
    }

    #[test]
    fn walls_contain_agents() {
        let mut w = free_world(6);
        w.add_wall(Wall::new(Vec2::new(-100.0, 1.0), Vec2::new(100.0, 1.0)));
        w.add_wall(Wall::new(Vec2::new(-100.0, -1.0), Vec2::new(100.0, -1.0)));
        // Goal deliberately beyond the wall: the corridor should keep y small.
        let id = w.spawn(Agent::walker(Vec2::ZERO, Vec2::new(30.0, 0.0), 1.3));
        for _ in 0..150 {
            w.step();
            assert!(
                w.agents[id].pos.y.abs() < 1.0,
                "agent escaped corridor: y = {}",
                w.agents[id].pos.y
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let p = ForceParams {
                noise_std: 0.2,
                ..Default::default()
            };
            let mut w = World::new(p, 0.1, seed);
            let id = w.spawn(Agent::walker(Vec2::ZERO, Vec2::new(8.0, 3.0), 1.1));
            for _ in 0..100 {
                w.step();
            }
            w.agents[id].pos
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn delayed_agents_enter_late() {
        let mut w = free_world(8);
        let mut a = Agent::walker(Vec2::ZERO, Vec2::new(50.0, 0.0), 1.0);
        a.entry_delay = 10;
        let id = w.spawn(a);
        assert!(!w.agents[id].active, "not yet in the scene");
        for _ in 0..5 {
            w.step();
        }
        assert!(!w.agents[id].active);
        for _ in 0..6 {
            w.step();
        }
        assert!(w.agents[id].active, "entered after the delay");
        // Entered agents move normally.
        let x0 = w.agents[id].pos.x;
        for _ in 0..10 {
            w.step();
        }
        assert!(w.agents[id].pos.x > x0);
    }

    #[test]
    fn delayed_agents_are_absent_from_recordings() {
        let mut w = free_world(9);
        let mut a = Agent::walker(Vec2::ZERO, Vec2::new(50.0, 0.0), 1.0);
        a.entry_delay = 20;
        w.spawn(a);
        let rec = w.run_record(40);
        assert!(rec.position(0, 0).is_none(), "invisible while delayed");
        assert!(rec.position(40, 0).is_some(), "visible after entry");
    }

    #[test]
    fn recording_captures_all_frames() {
        let mut w = free_world(7);
        w.spawn(Agent::walker(Vec2::ZERO, Vec2::new(3.0, 0.0), 1.0));
        let rec = w.run_record(50);
        assert_eq!(rec.num_frames(), 51);
    }

    #[test]
    fn stepping_feeds_the_metrics_registry() {
        let before = adaptraj_obs::global().counter("sim.steps").get();
        let mut w = free_world(10);
        w.spawn(Agent::walker(Vec2::ZERO, Vec2::new(3.0, 0.0), 1.0));
        w.run_record(20);
        let reg = adaptraj_obs::global();
        assert!(reg.counter("sim.steps").get() >= before + 20);
        assert!(reg.histogram("sim.steps_per_sec").snapshot().count >= 1);
        assert!(reg.histogram("sim.active_agents").snapshot().count >= 1);
    }
}
