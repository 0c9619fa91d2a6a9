//! One partition of a candidate index range, shared by every
//! candidate-length pass of a search iteration.
//!
//! [`Partition`] cuts `[0, len)` into at most `workers` contiguous chunks
//! of equal size (±1). The gradient assembly, BinarizedAttack's PGD step
//! and GradMaxSearch's mark and argmax passes all split on the one
//! `Partition` an attack builds for its candidate set (see
//! `GradKernel::partition`): each worker writes a disjoint run of its
//! output and reads the inputs it wrote itself in the pass before, and
//! results are combined in chunk order, so every pass is bit-identical
//! at any worker count. A cut may fall inside a row (the candidates
//! sharing a smaller endpoint); the row kernel then scatters that row
//! once in each of the two chunks, which costs one row's wedges per cut.
//!
//! [`fold_chunks`] runs one chunk on the calling thread and each other on
//! its own scoped thread. Workers allocate nothing: every buffer a chunk
//! writes is handed to it by the caller, sized for the whole chunk.

use std::ops::Range;

/// Least assembly work, in the gradient cost model's units (one
/// row-kernel adjacency touch; see `grad::plan`), worth one more worker.
/// One scoped spawn and join costs about 45 µs on a 2-core VM. Timing
/// one assembly on one worker against two on that VM (ER graphs of mean
/// degree 13.5 and BA graphs, `Full` and `TargetNeighborhood` sets), two
/// workers broke even between 64k and 115k units on the row kernel
/// (0.80–0.90× at 64k, 1.04–1.07× at 80k, 1.45× at 158k) and between
/// 47k and 96k on the merge path (0.72–0.80× at 47k, 1.22–1.26× at 96k),
/// so two workers start at 80k.
pub(crate) const MIN_WORK: f64 = 40_000.0;

/// Worker count for an assembly costing `work` units at a thread budget
/// of `threads`: `min(threads, work / MIN_WORK)`, at least one.
/// [`Partition::new`] caps it further at the candidate count.
pub(crate) fn workers(threads: usize, work: f64) -> usize {
    let by_work = (work / MIN_WORK) as usize;
    threads.min(by_work).max(1)
}

/// Chunk boundaries over a candidate index range: `bounds[0] = 0`, the
/// last entry is the candidate count, and chunk `k` starts at
/// `k·len/workers`. Strictly increasing, except that an empty range is
/// the one empty chunk `[0, 0]`.
#[derive(Debug, Clone)]
pub(crate) struct Partition {
    bounds: Vec<usize>,
}

impl Partition {
    /// Cuts `[0, len)` into `min(workers, len)` chunks (one when
    /// `len == 0`) whose sizes differ by at most one.
    pub(crate) fn new(len: usize, workers: usize) -> Self {
        let chunks = workers.clamp(1, len.max(1));
        Self {
            bounds: (0..=chunks).map(|k| k * len / chunks).collect(),
        }
    }

    /// Number of candidates the partition covers.
    pub(crate) fn len(&self) -> usize {
        self.bounds[self.bounds.len() - 1]
    }

    /// Number of chunks.
    pub(crate) fn chunks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The chunks' index ranges, in order.
    pub(crate) fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.bounds.windows(2).map(|w| w[0]..w[1])
    }

    /// Splits a candidate-length slice along the chunks: each chunk's
    /// index range with its run of `items`.
    pub(crate) fn split_mut<'a, T>(
        &'a self,
        items: &'a mut [T],
    ) -> impl Iterator<Item = (Range<usize>, &'a mut [T])> + 'a {
        debug_assert_eq!(items.len(), self.len());
        let mut rest = items;
        self.ranges().map(move |range| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
            rest = tail;
            (range, head)
        })
    }
}

/// Runs `work` on every chunk item and folds the results in item order,
/// starting from `init`. The first item runs on the calling thread and
/// each other on its own scoped thread; a single item spawns nothing.
/// A worker's panic is re-raised on the calling thread.
pub(crate) fn fold_chunks<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    work: impl Fn(T) -> R + Sync,
    init: R,
    mut fold: impl FnMut(R, R) -> R,
) -> R {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return init;
    };
    let mut rest = items.peekable();
    if rest.peek().is_none() {
        return fold(init, work(first));
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest.map(|item| scope.spawn(move || work(item))).collect();
        let mut acc = fold(init, work(first));
        for handle in handles {
            let r = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            acc = fold(acc, r);
        }
        acc
    })
}

/// [`fold_chunks`] for passes that only write their chunk's outputs.
pub(crate) fn for_chunks<T: Send>(items: impl IntoIterator<Item = T>, work: impl Fn(T) + Sync) {
    fold_chunks(items, work, (), |(), ()| ());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_tiles_the_range_in_balanced_chunks() {
        for len in [0usize, 1, 2, 5, 99, 4950] {
            for workers in [0usize, 1, 2, 3, 7, 100] {
                let p = Partition::new(len, workers);
                let b = &p.bounds;
                assert_eq!((b[0], p.len()), (0, len));
                assert_eq!(p.chunks(), workers.clamp(1, len.max(1)), "{len}, {workers}");
                let sizes: Vec<usize> = p.ranges().map(|r| r.len()).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "{len}, {workers}: {sizes:?}");
                assert!(*lo > 0 || len == 0, "{len}, {workers}: {sizes:?}");
            }
        }
        assert_eq!(Partition::new(10, 4).bounds, vec![0, 2, 5, 7, 10]);
    }

    #[test]
    fn worker_count_respects_threads_and_work_floor() {
        assert_eq!(workers(8, 0.0), 1);
        assert_eq!(workers(8, MIN_WORK - 1.0), 1);
        assert_eq!(workers(8, 3.0 * MIN_WORK), 3);
        assert_eq!(workers(2, 100.0 * MIN_WORK), 2);
        assert_eq!(workers(1, 100.0 * MIN_WORK), 1);
        // `tests/thread_split.rs` relies on its 300-node `Full` instance
        // splitting three ways or more. Either strategy's cost is at
        // least 4 units per candidate.
        assert!(workers(8, 4.0 * (300 * 299 / 2) as f64) >= 3);
    }

    #[test]
    fn fold_runs_chunks_in_order() {
        let p = Partition::new(780, 4);
        let mut out = vec![0usize; p.len()];
        for_chunks(p.split_mut(&mut out), |(range, chunk)| {
            for (slot, idx) in chunk.iter_mut().zip(range) {
                *slot = idx;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| i == v));
        let order = fold_chunks(
            p.ranges(),
            |r| vec![r.start],
            Vec::new(),
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        assert_eq!(order, p.bounds[..p.chunks()].to_vec());
    }
}
