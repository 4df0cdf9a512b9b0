//! Evaluation metrics: Average and Final Displacement Error (Sec. IV-A.3).

use adaptraj_data::trajectory::Point;

/// Euclidean distance between two points.
#[inline]
fn dist(a: Point, b: Point) -> f32 {
    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt()
}

/// ADE: mean Euclidean distance between predicted and ground-truth
/// locations over the prediction horizon.
///
/// ```
/// use adaptraj_eval::metrics::ade;
/// let gt = [[0.0, 0.0], [1.0, 0.0]];
/// let pred = [[0.0, 1.0], [1.0, 1.0]];
/// assert!((ade(&pred, &gt) - 1.0).abs() < 1e-6);
/// ```
pub fn ade(pred: &[Point], gt: &[Point]) -> f32 {
    assert_eq!(pred.len(), gt.len(), "ADE needs equal-length tracks");
    assert!(!pred.is_empty(), "ADE of empty tracks");
    pred.iter().zip(gt).map(|(&p, &g)| dist(p, g)).sum::<f32>() / pred.len() as f32
}

/// FDE: Euclidean distance at the final prediction step.
pub fn fde(pred: &[Point], gt: &[Point]) -> f32 {
    assert_eq!(pred.len(), gt.len(), "FDE needs equal-length tracks");
    let (&p, &g) = (
        pred.last().expect("non-empty"),
        gt.last().expect("non-empty"),
    );
    dist(p, g)
}

/// Best-of-k errors: the minimum ADE and minimum FDE over `k` sampled
/// futures (each minimized independently, the standard protocol for
/// stochastic predictors).
///
/// ```
/// use adaptraj_eval::metrics::best_of_k;
/// let gt = vec![[1.0, 0.0]];
/// let samples = vec![vec![[3.0, 0.0]], vec![[1.5, 0.0]]];
/// let (ade, fde) = best_of_k(&samples, &gt);
/// assert!((ade - 0.5).abs() < 1e-6 && (fde - 0.5).abs() < 1e-6);
/// ```
pub fn best_of_k(samples: &[Vec<Point>], gt: &[Point]) -> (f32, f32) {
    assert!(!samples.is_empty(), "need at least one sample");
    let min_ade = samples
        .iter()
        .map(|s| ade(s, gt))
        .fold(f32::INFINITY, f32::min);
    let min_fde = samples
        .iter()
        .map(|s| fde(s, gt))
        .fold(f32::INFINITY, f32::min);
    (min_ade, min_fde)
}

/// Aggregate ADE/FDE over a test set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    pub ade: f32,
    pub fde: f32,
}

impl std::fmt::Display for EvalResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}/{:.3}", self.ade, self.fde)
    }
}

/// Running average over windows.
#[derive(Debug, Default, Clone)]
pub struct EvalAccumulator {
    ade_sum: f64,
    fde_sum: f64,
    n: usize,
}

impl EvalAccumulator {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, ade: f32, fde: f32) {
        self.ade_sum += ade as f64;
        self.fde_sum += fde as f64;
        self.n += 1;
    }

    pub fn count(&self) -> usize {
        self.n
    }

    pub fn result(&self) -> EvalResult {
        let n = self.n.max(1) as f64;
        EvalResult {
            ade: (self.ade_sum / n) as f32,
            fde: (self.fde_sum / n) as f32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_has_zero_error() {
        let gt: Vec<Point> = (0..12).map(|t| [t as f32, 2.0 * t as f32]).collect();
        assert_eq!(ade(&gt, &gt), 0.0);
        assert_eq!(fde(&gt, &gt), 0.0);
    }

    #[test]
    fn constant_offset_error() {
        let gt: Vec<Point> = (0..12).map(|t| [t as f32, 0.0]).collect();
        let pred: Vec<Point> = gt.iter().map(|p| [p[0] + 3.0, p[1] + 4.0]).collect();
        assert!((ade(&pred, &gt) - 5.0).abs() < 1e-6);
        assert!((fde(&pred, &gt) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn fde_only_cares_about_last_step() {
        let gt: Vec<Point> = vec![[0.0, 0.0], [1.0, 0.0]];
        let pred: Vec<Point> = vec![[100.0, 0.0], [1.0, 0.0]];
        assert_eq!(fde(&pred, &gt), 0.0);
        assert!(ade(&pred, &gt) > 0.0);
    }

    #[test]
    fn best_of_k_not_worse_than_any_sample() {
        let gt: Vec<Point> = (0..4).map(|t| [t as f32, 0.0]).collect();
        let good: Vec<Point> = gt.iter().map(|p| [p[0] + 0.1, p[1]]).collect();
        let bad: Vec<Point> = gt.iter().map(|p| [p[0] + 5.0, p[1]]).collect();
        let (a, f) = best_of_k(&[bad.clone(), good.clone()], &gt);
        assert!((a - 0.1).abs() < 1e-5);
        assert!((f - 0.1).abs() < 1e-5);
        // Monotonicity: adding samples can only improve either minimum.
        let (a1, f1) = best_of_k(std::slice::from_ref(&bad), &gt);
        assert!(a <= a1 && f <= f1);
        // A sample that wins on FDE alone lowers only the FDE minimum.
        let last = gt.len() - 1;
        let ends_right: Vec<Point> = gt
            .iter()
            .enumerate()
            .map(|(t, p)| [p[0] + if t == last { 0.0 } else { 8.0 }, p[1]])
            .collect();
        assert_eq!(best_of_k(&[bad, ends_right], &gt), (a1, 0.0));
    }

    #[test]
    fn accumulator_averages() {
        let mut acc = EvalAccumulator::new();
        acc.push(1.0, 2.0);
        acc.push(3.0, 4.0);
        assert_eq!(acc.count(), 2);
        let r = acc.result();
        assert!((r.ade - 2.0).abs() < 1e-6);
        assert!((r.fde - 3.0).abs() < 1e-6);
        assert_eq!(format!("{r}"), "2.000/3.000");
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn ade_rejects_mismatched_lengths() {
        ade(&[[0.0, 0.0]], &[[0.0, 0.0], [1.0, 1.0]]);
    }
}
