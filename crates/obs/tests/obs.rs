//! Integration tests for the observability crate: histogram accuracy
//! against a brute-force oracle and registry round-trips.

use adaptraj_obs::Registry;

/// Minimal deterministic generator (64-bit LCG, Knuth constants) so the
/// oracle test needs no external randomness.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Nearest-rank quantile over the raw samples — the oracle the streaming
/// histogram is checked against.
fn oracle_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn histogram_quantiles_match_sorted_sample_oracle() {
    // Log-bucketed sketch with GAMMA = 1.02 guarantees ~1% relative error;
    // allow 2.5% for rank discretization at the distribution tails.
    let reg = Registry::new();
    let h = reg.histogram("oracle");
    let mut rng = Lcg(0x9E3779B97F4A7C15);
    let mut samples = Vec::with_capacity(5000);
    for _ in 0..5000 {
        // Log-uniform over ~6 decades, the shape of latency data.
        let v = 10f64.powf(rng.next_f64() * 6.0 - 3.0);
        h.record(v);
        samples.push(v);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let snap = h.snapshot();
    assert_eq!(snap.count, 5000);
    for (q, got) in [
        (0.5, snap.p50),
        (0.9, snap.p90),
        (0.99, snap.p99),
        (0.999, snap.p999),
    ] {
        let want = oracle_quantile(&samples, q);
        let rel = (got - want).abs() / want;
        assert!(rel < 0.025, "p{q}: got {got}, oracle {want}, rel err {rel}");
    }
    // Extremes are tracked exactly, not sketched.
    assert_eq!(snap.min, samples[0]);
    assert_eq!(snap.max, samples[samples.len() - 1]);
}

#[test]
fn counter_and_gauge_round_trip_through_the_registry() {
    let reg = Registry::new();
    reg.counter("windows").add(41);
    reg.counter("windows").incr();
    reg.gauge("lr").set(3e-3);
    // Handles obtained later observe earlier writes (shared state, not
    // per-handle copies).
    assert_eq!(reg.counter("windows").get(), 42);
    assert!((reg.gauge("lr").get() - 3e-3).abs() < 1e-12);

    let dump = reg.dump_jsonl();
    assert!(dump
        .iter()
        .any(|l| l == r#"{"type":"counter","name":"windows","value":42}"#));
    assert!(dump
        .iter()
        .any(|l| l.starts_with(r#"{"type":"gauge","name":"lr","value":0.003"#)));

    reg.reset();
    assert!(reg.dump_jsonl().is_empty());
    // A fresh handle after reset starts from zero.
    assert_eq!(reg.counter("windows").get(), 0);
}
