//! Mini-batch iteration over window indices and the [`WindowBatch`]
//! view consumed by the batched forward path.

use crate::trajectory::TrajWindow;
use adaptraj_tensor::rng::Rng;

/// Fixed cap on windows per tape pass. Deliberately worker-count
/// independent: job formation must produce the same sub-batches whether
/// the pool runs 1 or N workers, so the cap is a constant rather than a
/// function of parallelism. Eight windows per pass cuts tape nodes by
/// roughly that factor while leaving enough jobs per mini-batch to keep a
/// multi-worker pool busy.
pub const MAX_WINDOWS_PER_JOB: usize = 8;

/// A batch of trajectory windows presented to one tape pass.
///
/// Layout contract (the "stacked agent" layout every batched kernel
/// assumes): agents of all windows are stacked row-wise in batch order,
/// each window contributing its focal agent first, then its neighbors in
/// their stored order. Window `i` owns stacked rows
/// `agent_offset(i) .. agent_offset(i) + windows()[i].agents()`, and
/// `agent_offset(i)` is its focal row. The batch itself stores no
/// padding; ragged per-window agent counts are padded downstream with
/// masks (see `DESIGN.md`, "Batched execution model").
#[derive(Debug, Clone)]
pub struct WindowBatch<'a> {
    windows: Vec<&'a TrajWindow>,
    ids: Vec<u64>,
    /// Cumulative agent offsets, length `len() + 1`; `offsets[i]` is the
    /// first stacked agent row of window `i`, `offsets[len()]` the total.
    offsets: Vec<usize>,
    max_agents: usize,
}

impl<'a> WindowBatch<'a> {
    /// Builds a batch from windows plus their per-epoch window indices
    /// (the `window_index` fed to `window_seed`, also used by the health
    /// observatory for incident attribution).
    pub fn new(windows: Vec<&'a TrajWindow>, ids: Vec<u64>) -> Self {
        assert!(
            !windows.is_empty(),
            "a WindowBatch must hold at least one window"
        );
        assert_eq!(windows.len(), ids.len(), "one id per window");
        let mut offsets = Vec::with_capacity(windows.len() + 1);
        let mut total = 0usize;
        let mut max_agents = 0usize;
        for w in &windows {
            offsets.push(total);
            total += w.agents();
            max_agents = max_agents.max(w.agents());
        }
        offsets.push(total);
        WindowBatch {
            windows,
            ids,
            offsets,
            max_agents,
        }
    }

    /// The batch-of-one view used by the prediction path; bit-compatible
    /// with the historical per-window layout.
    pub fn single(w: &'a TrajWindow, id: u64) -> Self {
        WindowBatch::new(vec![w], vec![id])
    }

    /// Number of windows in the batch.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Always false: batches are constructed non-empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The batched windows, in batch order.
    pub fn windows(&self) -> &[&'a TrajWindow] {
        &self.windows
    }

    /// Per-epoch window indices, aligned with [`Self::windows`].
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// First stacked agent row of window `i` (also its focal row).
    pub fn agent_offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Total stacked agent rows across the batch.
    pub fn total_agents(&self) -> usize {
        self.offsets[self.len()]
    }

    /// Largest per-window agent count; the padded slot width `A_max`.
    pub fn max_agents(&self) -> usize {
        self.max_agents
    }

    /// Focal rows of every window, in batch order.
    pub fn focal_rows(&self) -> Vec<usize> {
        self.offsets[..self.len()].to_vec()
    }
}

/// Groups batch positions `0..keys.len()` by key in first-appearance
/// order, splitting each group into runs of at most `cap` positions while
/// preserving original within-group order. This is the single job-forming
/// primitive for batched training: its output depends only on the keys,
/// never on worker count, so gradient reduction in job order is
/// reproducible across pool sizes.
pub fn keyed_jobs<K: PartialEq + Copy>(keys: &[K], cap: usize) -> Vec<Vec<usize>> {
    assert!(cap > 0, "job cap must be positive");
    let mut groups: Vec<(K, Vec<usize>)> = Vec::new();
    for (pos, &k) in keys.iter().enumerate() {
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, v)) => v.push(pos),
            None => groups.push((k, vec![pos])),
        }
    }
    groups
        .into_iter()
        .flat_map(|(_, v)| v.chunks(cap).map(|c| c.to_vec()).collect::<Vec<_>>())
        .collect()
}

/// Shuffled mini-batches of indices `0..n`. The final batch may be short.
pub fn shuffled_batches(n: usize, batch_size: usize, rng: &mut Rng) -> Vec<Vec<usize>> {
    assert!(batch_size > 0, "batch_size must be positive");
    let order = rng.permutation(n);
    order.chunks(batch_size).map(|c| c.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainId;
    use crate::trajectory::{T_OBS, T_TOTAL};

    fn window_with(neighbors: usize) -> TrajWindow {
        let focal: Vec<[f32; 2]> = (0..T_TOTAL).map(|t| [t as f32, 0.0]).collect();
        let nei: Vec<Vec<[f32; 2]>> = (0..neighbors)
            .map(|n| (0..T_OBS).map(|t| [t as f32, n as f32 + 1.0]).collect())
            .collect();
        TrajWindow::from_world(&focal, &nei, DomainId::EthUcy)
    }

    #[test]
    fn window_batch_offsets_follow_ragged_agent_counts() {
        let ws = [window_with(2), window_with(0), window_with(4)];
        let b = WindowBatch::new(ws.iter().collect(), vec![10, 11, 12]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.total_agents(), 3 + 1 + 5);
        assert_eq!(b.max_agents(), 5);
        assert_eq!(b.focal_rows(), vec![0, 3, 4]);
        assert_eq!(b.agent_offset(2), 4);
        assert_eq!(b.ids(), &[10, 11, 12]);
    }

    #[test]
    fn single_window_batch_matches_per_window_layout() {
        let w = window_with(3);
        let b = WindowBatch::single(&w, 42);
        assert_eq!(b.len(), 1);
        assert_eq!(b.total_agents(), w.agents());
        assert_eq!(b.max_agents(), w.agents());
        assert_eq!(b.focal_rows(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn window_batch_rejects_empty() {
        WindowBatch::new(Vec::new(), Vec::new());
    }

    #[test]
    fn keyed_jobs_group_in_first_appearance_order_with_cap() {
        let keys = ['b', 'a', 'b', 'b', 'a', 'c', 'b'];
        assert_eq!(
            keyed_jobs(&keys, 2),
            vec![vec![0, 2], vec![3, 6], vec![1, 4], vec![5]],
        );
        // Cap of 1 degenerates to per-window jobs in group order.
        assert_eq!(
            keyed_jobs(&keys, 1),
            vec![
                vec![0],
                vec![2],
                vec![3],
                vec![6],
                vec![1],
                vec![4],
                vec![5]
            ],
        );
    }

    #[test]
    fn batches_cover_all_indices_exactly_once() {
        let mut rng = Rng::seed_from(0);
        let batches = shuffled_batches(10, 3, &mut rng);
        assert_eq!(batches.len(), 4);
        assert_eq!(batches.last().unwrap().len(), 1);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shuffling_changes_order() {
        let mut rng = Rng::seed_from(1);
        let flat: Vec<usize> = shuffled_batches(50, 50, &mut rng).remove(0);
        assert_ne!(flat, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_gives_no_batches() {
        let mut rng = Rng::seed_from(2);
        assert!(shuffled_batches(0, 4, &mut rng).is_empty());
    }
}
