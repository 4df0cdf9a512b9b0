//! Property tests spanning crates: metric axioms, window normalization,
//! and simulator determinism. Run on the offline `adaptraj_check::prop`
//! harness; best-of-k monotonicity is an input of the unit test
//! `eval::metrics::best_of_k_not_worse_than_any_sample`.

use adaptraj::check::prop::{check, Gen};
use adaptraj::data::domain::DomainId;
use adaptraj::data::trajectory::{Point, TrajWindow, T_OBS, T_PRED, T_TOTAL};
use adaptraj::eval::metrics::{ade, fde};
use adaptraj::sim::{build_world, ForceParams, ScenarioConfig};

const CASES: usize = 48;

/// A track of `len` points with coordinates in `[-20, 20)`.
fn track(g: &mut Gen, len: usize) -> Vec<Point> {
    (0..len)
        .map(|_| [g.rng().uniform(-20.0, 20.0), g.rng().uniform(-20.0, 20.0)])
        .collect()
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

#[test]
fn ade_is_a_metric_on_tracks() {
    check("ade-metric", CASES, |g| {
        let (a, b, c) = (track(g, T_PRED), track(g, T_PRED), track(g, T_PRED));
        // Symmetry, identity, triangle inequality.
        ensure(
            (ade(&a, &b) - ade(&b, &a)).abs() < 1e-5,
            "ADE not symmetric",
        )?;
        ensure(ade(&a, &a) < 1e-6, "ADE(a, a) is not zero")?;
        ensure(
            ade(&a, &c) <= ade(&a, &b) + ade(&b, &c) + 1e-4,
            "ADE breaks the triangle inequality",
        )?;
        ensure(
            (fde(&a, &b) - fde(&b, &a)).abs() < 1e-5,
            "FDE not symmetric",
        )
    });
}

#[test]
fn displacement_metrics_are_translation_invariant() {
    check("ade-fde-translation", CASES, |g| {
        let (a, b) = (track(g, T_PRED), track(g, T_PRED));
        let (dx, dy) = (g.rng().uniform(-50.0, 50.0), g.rng().uniform(-50.0, 50.0));
        let shift =
            |t: &[Point]| -> Vec<Point> { t.iter().map(|p| [p[0] + dx, p[1] + dy]).collect() };
        let (sa, sb) = (shift(&a), shift(&b));
        ensure(
            (ade(&a, &b) - ade(&sa, &sb)).abs() < 2e-3,
            "ADE moved under a shift",
        )?;
        ensure(
            (fde(&a, &b) - fde(&sa, &sb)).abs() < 2e-3,
            "FDE moved under a shift",
        )
    });
}

#[test]
fn window_normalization_is_translation_invariant() {
    check("window-translation", CASES, |g| {
        let focal = track(g, T_TOTAL);
        let (dx, dy) = (
            g.rng().uniform(-100.0, 100.0),
            g.rng().uniform(-100.0, 100.0),
        );
        // Shifting the whole world leaves the normalized window unchanged
        // except for the recorded origin.
        let shifted: Vec<Point> = focal.iter().map(|p| [p[0] + dx, p[1] + dy]).collect();
        let w1 = TrajWindow::from_world(&focal, &[], DomainId::EthUcy);
        let w2 = TrajWindow::from_world(&shifted, &[], DomainId::EthUcy);
        let close = |p: &Point, q: &Point| (p[0] - q[0]).abs() < 1e-3 && (p[1] - q[1]).abs() < 1e-3;
        ensure(
            w1.obs.iter().zip(&w2.obs).all(|(p, q)| close(p, q)),
            "observed track moved under a shift",
        )?;
        ensure(
            w1.fut.iter().zip(&w2.fut).all(|(p, q)| close(p, q)),
            "future track moved under a shift",
        )?;
        ensure(
            (w2.origin[0] - w1.origin[0] - dx).abs() < 1e-3,
            "origin did not absorb the shift",
        )
    });
}

#[test]
fn window_velocities_are_shift_free() {
    check("window-velocities", CASES, |g| {
        let focal = track(g, T_TOTAL);
        let v = TrajWindow::from_world(&focal, &[], DomainId::Sdd).obs_velocities();
        ensure(v.len() == T_OBS - 1, "wrong velocity count")?;
        // Velocities from the normalized frame equal raw differences of the
        // world track.
        for (i, vel) in v.iter().enumerate() {
            let raw = focal[i + 1][0] - focal[i][0];
            ensure(
                (vel[0] - raw).abs() < 1e-3,
                &format!("step {i}: {} vs {raw}", vel[0]),
            )?;
        }
        Ok(())
    });
}

#[test]
fn simulator_is_deterministic_and_finite() {
    check("sim-determinism", CASES, |g| {
        let seed = g.rng().below(500) as u64;
        let steps = g.int_in(10, 79);
        let run = |s| {
            let mut w = build_world(&ScenarioConfig::default(), &ForceParams::default(), 0.1, s);
            for _ in 0..steps {
                w.step();
            }
            w.agents
                .iter()
                .map(|a| (a.pos.x, a.pos.y))
                .collect::<Vec<_>>()
        };
        let a = run(seed);
        ensure(
            a == run(seed),
            &format!("seed {seed}, {steps} steps: runs differ"),
        )?;
        ensure(
            a.iter().all(|(x, y)| x.is_finite() && y.is_finite()),
            &format!("seed {seed}: non-finite position"),
        )
    });
}

#[test]
fn simulated_speeds_are_bounded() {
    check("sim-speed-bound", CASES, |g| {
        let seed = g.rng().below(200) as u64;
        let mut w = build_world(
            &ScenarioConfig::default(),
            &ForceParams::default(),
            0.1,
            seed,
        );
        let caps: Vec<f32> = w.agents.iter().map(|a| a.max_speed).collect();
        for step in 0..100 {
            w.step();
            for (agent, &cap) in w.agents.iter().zip(&caps) {
                let speed = agent.vel.norm();
                ensure(
                    speed <= cap + 1e-4,
                    &format!("seed {seed}, step {step}: speed {speed} over cap {cap}"),
                )?;
            }
        }
        Ok(())
    });
}
