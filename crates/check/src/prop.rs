//! A small offline property-test harness over the workspace's own
//! xoshiro [`Rng`].
//!
//! The workspace builds without registry access, so `proptest` is not
//! available. This harness keeps the useful half of proptest —
//! randomized cases, a growing size parameter, and shrinking to a minimal
//! failing case — with zero dependencies:
//!
//! * Cases are generated from deterministically derived seeds (an FNV-1a
//!   hash of the property name mixed with the case index), so a failure
//!   report is exactly reproducible.
//! * The [`Gen::size`] parameter ramps from 1 up to [`MAX_SIZE`] across
//!   the run, bounding every dimension and magnitude a generator draws.
//! * On failure the runner *shrinks by size*: it replays the failing seed
//!   at every smaller size and reports the smallest size that still
//!   fails. Because generators scale their draws by `size`, this
//!   minimizes dimensions and magnitudes together — cruder than
//!   proptest's per-value shrinking, but deterministic, dependency-free,
//!   and effective for the dimension-driven failures tape code produces.

use adaptraj_tensor::{Rng, Tensor};

/// Upper bound for [`Gen::size`]; dimensions drawn by [`Gen::dim`] never
/// exceed it. Kept small: tape ops are O(rows·cols) dense kernels and a
/// property runs hundreds of cases.
pub const MAX_SIZE: usize = 8;

/// A source of random test data bounded by a `size` parameter.
pub struct Gen {
    rng: Rng,
    /// Current case's size bound (`1..=MAX_SIZE`).
    pub size: usize,
}

impl Gen {
    fn new(seed: u64, size: usize) -> Self {
        Self {
            rng: Rng::seed_from(seed),
            size: size.max(1),
        }
    }

    /// A dimension in `1..=size`.
    pub fn dim(&mut self) -> usize {
        1 + self.rng.below(self.size)
    }

    /// A uniform integer in `lo..=hi`.
    pub fn int_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.rng.below(hi - lo + 1)
    }

    /// A finite value with magnitude scaled by `size` (≤ `size`), so small
    /// cases stay numerically tame.
    pub fn value(&mut self) -> f32 {
        let range = self.size as f32;
        self.rng.uniform(-range, range)
    }

    /// A `rows × cols` tensor of [`Gen::value`]s.
    pub fn tensor(&mut self, rows: usize, cols: usize) -> Tensor {
        let data = (0..rows * cols).map(|_| self.value()).collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// `n` row indices each `< rows` (repeats allowed, like `gather_rows`).
    pub fn row_indices(&mut self, n: usize, rows: usize) -> Vec<usize> {
        (0..n).map(|_| self.rng.below(rows)).collect()
    }

    /// Direct access for draws the helpers don't cover.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

/// FNV-1a, so each property gets its own seed stream without colliding
/// with other properties that share a case index.
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn case_seed(name: &str, case: usize) -> u64 {
    fnv1a(name) ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn case_size(case: usize, runs: usize) -> usize {
    // Ramp 1..=MAX_SIZE across the run so early cases are trivially small.
    1 + case * MAX_SIZE / runs.max(1)
}

/// Runs `prop` over `runs` generated cases; on the first failure, shrinks
/// by size and panics with the *minimal* reproduction (property name,
/// seed, size, and the property's message).
pub fn check(name: &str, runs: usize, prop: impl Fn(&mut Gen) -> Result<(), String>) {
    for case in 0..runs {
        let seed = case_seed(name, case);
        let size = case_size(case, runs);
        let mut gen = Gen::new(seed, size);
        if let Err(msg) = prop(&mut gen) {
            // Shrink: smallest size (same seed) that still fails.
            let (min_size, min_msg) = (1..size)
                .find_map(|s| {
                    let mut g = Gen::new(seed, s);
                    prop(&mut g).err().map(|m| (s, m))
                })
                .unwrap_or((size, msg));
            panic!(
                "property '{name}' failed (case {case}, seed {seed:#x}, \
                 size {size}; minimal size {min_size}): {min_msg}"
            );
        }
    }
}

/// `Err` unless `|a − b| ≤ tol·(1 + |b|)` element-wise — the same
/// normalized criterion the gradient checker uses.
pub fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) -> Result<(), String> {
    if a.shape() != b.shape() {
        return Err(format!("{what}: shape {:?} vs {:?}", a.shape(), b.shape()));
    }
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        if (x - y).abs() > tol * (1.0 + y.abs()) {
            return Err(format!("{what}: element {i}: {x} vs {y}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0usize);
        check("always-true", 50, |g| {
            count.set(count.get() + 1);
            let (rows, cols) = (g.dim(), g.dim());
            let t = g.tensor(rows, cols);
            if t.data().iter().all(|v| v.abs() <= MAX_SIZE as f32) {
                Ok(())
            } else {
                Err("value out of size bound".into())
            }
        });
        assert_eq!(count.get(), 50);
    }

    #[test]
    fn failing_property_shrinks_to_minimal_size() {
        let caught = std::panic::catch_unwind(|| {
            check("always-false", 40, |_| Err("nope".into()));
        });
        let msg = *caught
            .expect_err("property must fail")
            .downcast::<String>()
            .expect("panic payload is the report string");
        assert!(
            msg.contains("minimal size 1"),
            "an always-failing property shrinks to size 1: {msg}"
        );
        assert!(msg.contains("always-false") && msg.contains("nope"));
    }

    #[test]
    fn size_dependent_failure_reports_threshold_size() {
        // Fails only once the size bound reaches 3 — the minimal
        // reproduction must be exactly the threshold size.
        let caught = std::panic::catch_unwind(|| {
            check("needs-size-3", 200, |g| {
                if g.size >= 3 {
                    Err(format!("size bound reached {}", g.size))
                } else {
                    Ok(())
                }
            });
        });
        let msg = *caught
            .expect_err("property must fail")
            .downcast::<String>()
            .expect("panic payload is the report string");
        assert!(msg.contains("minimal size 3"), "shrunk report: {msg}");
    }

    #[test]
    fn cases_are_deterministic_per_name() {
        let draw = |name: &str| {
            let mut gen = Gen::new(case_seed(name, 7), 5);
            gen.tensor(2, 2).into_vec()
        };
        assert_eq!(draw("p"), draw("p"));
        assert_ne!(draw("p"), draw("q"), "different names, different streams");
    }
}
