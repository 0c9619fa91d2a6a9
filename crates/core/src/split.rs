//! One partition of a candidate index range, and one crew of worker
//! threads that serves every candidate-length pass of a search loop.
//!
//! [`Partition`] cuts `[0, len)` into at most `workers` contiguous chunks
//! of equal size (±1). The gradient assembly, BinarizedAttack's PGD step
//! and GradMaxSearch's one pass per step (the assembly with the argmax
//! folded in) all split on the one `Partition` an attack builds for its
//! candidate set (see `GradKernel::partition`): each worker writes a
//! disjoint run of its output and reads the inputs it wrote itself in
//! the pass before, and results are combined in chunk order, so every
//! pass is bit-identical at any worker count. A cut may fall inside a row (the candidates
//! sharing a smaller endpoint); the row kernel then computes each part
//! in its own chunk, and a row it scatters is scattered in both, which
//! costs one row's wedges per cut.
//! ContinuousA's dense step cuts the packed upper triangle of its
//! `n × n` products the same way, on a crew of its own (`dense.rs`).
//!
//! [`with_crew`] spawns one worker per chunk past the first, once per
//! search loop, inside one `std::thread::scope`. Every pass of the loop
//! ([`Crew::run`]) then runs chunk `k` on worker `k` and chunk 0 on the
//! calling thread, so a worker always steps on the gradients it
//! assembled. Between passes the workers spin on a generation counter
//! for at most [`SPIN`], then block. A pass's inputs reach the workers
//! only through state they borrow for the crew's whole lifetime: locks
//! the caller writes between passes, and per-chunk [`Cells`], whose
//! buffers the caller moves in and out by value. Workers allocate
//! nothing. A partition of one chunk starts no crew and no thread.
//!
//! Dispatch cost per pass on a 2-core VM, for a 25 µs serial gap followed
//! by 100 µs of work on each thread: a scoped spawn and join 56–61 µs, a
//! parked worker woken through a `Barrier` 22 µs, a worker spinning on
//! the generation counter 2.5–5.7 µs.

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::RwLockWriteGuard;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// Least assembly work, in the gradient cost model's units (one
/// row-kernel adjacency touch; see `grad::assembly_cost`, which charges a
/// merge step 2.5 touches), worth one more worker. Derived from the cost
/// of one scoped spawn and join per pass (about 45 µs on a 2-core VM),
/// before the crew replaced the spawns; re-timing it against the crew's
/// handoff is open. Timing one assembly on one worker against two on
/// that VM (ER graphs of mean degree 13.5 and BA graphs, `Full` and
/// `TargetNeighborhood` sets), when the kernel still scattered or merged
/// a whole set, two workers broke even between 64k and 115k units when
/// scattering (0.80–0.90× at 64k, 1.04–1.07× at 80k, 1.45× at 158k) and
/// between 47k and 96k when merging (0.72–0.80× at 47k, 1.22–1.26× at
/// 96k), so two workers start at 80k.
pub(crate) const MIN_WORK: f64 = 40_000.0;

/// How long a crew thread spins before it blocks, waiting for the next
/// pass or for the pass's other chunks. Sized to the serial gap between
/// two passes of a search loop: a forward pass, the toggles and the
/// assembly-LRU lookup take about 25 µs on the `attack` benchmark
/// workload (n = 500, 124,750 candidates, 2-core VM). A longer gap finds
/// the workers blocked. A third to a half of the waits on that workload
/// outlast 50 µs, yet a 250 µs bound, which left under 2% of them
/// blocked, measured no faster over 8 alternated benchmark pairs.
pub(crate) const SPIN: Duration = Duration::from_micros(50);

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

    /// Chunk `k`'s index range.
    pub(crate) fn range(&self, k: usize) -> Range<usize> {
        self.bounds[k]..self.bounds[k + 1]
    }

    /// The chunks' index ranges, in order.
    pub(crate) fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.bounds.windows(2).map(|w| w[0]..w[1])
    }

    /// Splits a candidate-length slice along the chunks: each chunk's
    /// run of `items`, in order.
    pub(crate) fn split<'a, T>(&'a self, items: &'a [T]) -> impl Iterator<Item = &'a [T]> + 'a {
        debug_assert_eq!(items.len(), self.len());
        self.ranges().map(move |range| &items[range])
    }

    /// [`Partition::split`] for a mutable slice.
    pub(crate) fn split_mut<'a, T>(
        &'a self,
        items: &'a mut [T],
    ) -> impl Iterator<Item = &'a mut [T]> + 'a {
        debug_assert_eq!(items.len(), self.len());
        let mut rest = items;
        self.ranges().map(move |range| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
            rest = tail;
            head
        })
    }
}

/// Locks `m`, ignoring poison: a panic on a crew thread is re-raised on
/// the calling thread, so no caller goes on to read what it left behind.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, ignoring poison (see [`lock`]).
pub(crate) fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, ignoring poison (see [`lock`]).
pub(crate) fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Per-chunk state of a crew's passes. Chunk `k`'s entry is locked only
/// by the thread that runs chunk `k` during a pass and by the caller
/// between passes, so its lock is never contended.
#[derive(Debug)]
pub(crate) struct Cells<T>(Vec<Mutex<T>>);

impl<T> Cells<T> {
    /// One cell per item, in chunk order.
    pub(crate) fn new(items: impl IntoIterator<Item = T>) -> Self {
        Self(items.into_iter().map(Mutex::new).collect())
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Chunk `k`'s state.
    pub(crate) fn get(&self, k: usize) -> MutexGuard<'_, T> {
        lock(&self.0[k])
    }

    /// Folds the cells in chunk order, starting from `init`.
    pub(crate) fn fold<R>(&self, init: R, mut f: impl FnMut(R, &mut T) -> R) -> R {
        self.0
            .iter()
            .fold(init, |acc, cell| f(acc, &mut lock(cell)))
    }

    /// The cells' states, in chunk order.
    pub(crate) fn into_inner(self) -> impl Iterator<Item = T> {
        self.0
            .into_iter()
            .map(|cell| cell.into_inner().unwrap_or_else(PoisonError::into_inner))
    }
}

/// What a crew's threads share: the pass generation, the count of
/// chunks still running, and the lock a thread blocks on once it has
/// spun for [`SPIN`].
#[derive(Default)]
struct Signal {
    /// Bumped by the caller to start a pass.
    generation: AtomicU64,
    /// Set when the crew's loop is over, however it ended.
    stop: AtomicBool,
    /// Workers still running the current pass.
    pending: AtomicUsize,
    /// Threads blocked on `wake`.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
    /// The first panic a worker caught in the current pass.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Signal {
    /// Returns once `ready` holds: spins for up to [`SPIN`], then blocks
    /// until a [`Signal::notify`] finds it true.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        let start = Instant::now();
        while !ready() {
            if start.elapsed() >= SPIN {
                let mut guard = lock(&self.lock);
                // Counted before `ready` is re-checked: a notifier that
                // changes the state after this check sees the sleeper.
                self.sleepers.fetch_add(1, SeqCst);
                while !ready() {
                    guard = self
                        .wake
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                self.sleepers.fetch_sub(1, SeqCst);
                return;
            }
            std::hint::spin_loop();
        }
    }

    /// Wakes every blocked thread, after a state change they may wait
    /// for. Free while nobody sleeps.
    fn notify(&self) {
        if self.sleepers.load(SeqCst) > 0 {
            drop(lock(&self.lock));
            self.wake.notify_all();
        }
    }

    /// Worker `k`'s loop: runs `job(k)` once per pass until the crew
    /// stops. A panicking job is caught and handed to the caller.
    fn serve(&self, k: usize, job: &(dyn Fn(usize) + Sync)) {
        let mut seen = 0;
        loop {
            self.wait_until(|| self.stop.load(SeqCst) || self.generation.load(SeqCst) != seen);
            if self.stop.load(SeqCst) {
                return;
            }
            seen = self.generation.load(SeqCst);
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| job(k))) {
                lock(&self.panic).get_or_insert(payload);
            }
            if self.pending.fetch_sub(1, SeqCst) == 1 {
                self.notify();
            }
        }
    }
}

/// The handle a search loop runs its passes through (see [`with_crew`]).
pub(crate) struct Crew<'a> {
    job: &'a (dyn Fn(usize) + Sync),
    /// `None` for a single chunk: no workers.
    signal: Option<&'a Signal>,
    workers: usize,
}

impl Crew<'_> {
    /// Runs one pass: the job on every chunk, chunk 0 on the calling
    /// thread, and returns when all chunks are done. A worker's panic is
    /// re-raised here.
    pub(crate) fn run(&mut self) {
        let Some(signal) = self.signal else {
            return (self.job)(0);
        };
        signal.pending.store(self.workers, SeqCst);
        signal.generation.fetch_add(1, SeqCst);
        signal.notify();
        (self.job)(0);
        signal.wait_until(|| signal.pending.load(SeqCst) == 0);
        let payload = lock(&signal.panic).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Crew<'_> {
    /// Stops the workers however the loop ends: normally, through an
    /// early return, or by unwinding.
    fn drop(&mut self) {
        if let Some(signal) = self.signal {
            signal.stop.store(true, SeqCst);
            signal.notify();
        }
    }
}

/// Runs `body` with a crew for `chunks` chunks: one worker per chunk past
/// the first, spawned here and joined before this returns, however
/// `body` ends. Each [`Crew::run`] in `body` is one pass of `job` over
/// every chunk; `job(k)` always runs on the same thread, and `job(0)` on
/// the calling one. With one chunk nothing is spawned and a pass is a
/// plain call.
pub(crate) fn with_crew<R>(
    chunks: usize,
    job: impl Fn(usize) + Sync,
    body: impl FnOnce(&mut Crew<'_>) -> R,
) -> R {
    let job: &(dyn Fn(usize) + Sync) = &job;
    if chunks <= 1 {
        return body(&mut Crew {
            job,
            signal: None,
            workers: 0,
        });
    }
    let signal = Signal::default();
    std::thread::scope(|scope| {
        for k in 1..chunks {
            let signal = &signal;
            scope.spawn(move || signal.serve(k, job));
        }
        body(&mut Crew {
            job,
            signal: Some(&signal),
            workers: chunks - 1,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};

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
                let ranges: Vec<_> = (0..p.chunks()).map(|k| p.range(k)).collect();
                assert_eq!(ranges, p.ranges().collect::<Vec<_>>());
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
        // splitting three ways or more. A `Full` set's cost is at least 4
        // units per candidate.
        assert!(workers(8, 4.0 * (300 * 299 / 2) as f64) >= 3);
    }

    /// Runs `f` on its own thread and fails the test if it has not
    /// returned within a minute, so a crew that hangs fails instead of
    /// stalling the suite.
    fn returns<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the crew did not return")
    }

    #[test]
    fn every_pass_runs_each_chunk_exactly_once_on_a_fixed_thread() {
        returns(|| {
            let caller = thread::current().id();
            let cells: Cells<(usize, Option<ThreadId>)> = Cells::new(vec![(0, None); 4]);
            let job = |k: usize| {
                let mut cell = cells.get(k);
                cell.0 += 1;
                let me = thread::current().id();
                assert_eq!(*cell.1.get_or_insert(me), me, "chunk {k} moved threads");
            };
            with_crew(4, job, |crew| {
                for pass in 1..=200 {
                    crew.run();
                    cells.fold((), |(), cell| assert_eq!(cell.0, pass));
                }
            });
            let threads: Vec<ThreadId> = cells.into_inner().map(|c| c.1.unwrap()).collect();
            assert_eq!(threads[0], caller, "chunk 0 runs on the calling thread");
            for (k, t) in threads.iter().enumerate().skip(1) {
                assert!(!threads[..k].contains(t), "chunk {k} shares a thread");
            }
        });
    }

    #[test]
    fn results_fold_in_chunk_order() {
        returns(|| {
            let p = Partition::new(780, 4);
            let cells = Cells::new(p.ranges().map(|r| vec![usize::MAX; r.len()]));
            let job = |k: usize| {
                for (slot, idx) in cells.get(k).iter_mut().zip(p.range(k)) {
                    *slot = idx;
                }
            };
            with_crew(p.chunks(), job, |crew| crew.run());
            let order = cells.fold(Vec::new(), |mut acc, chunk| {
                acc.extend_from_slice(chunk);
                acc
            });
            assert_eq!(order, (0..780).collect::<Vec<_>>());
            let mut out = vec![0usize; p.len()];
            for (chunk, range) in p.split_mut(&mut out).zip(p.ranges()) {
                chunk.fill(range.start);
            }
            let starts: Vec<usize> = p.split(&out).map(|chunk| chunk[0]).collect();
            assert_eq!(starts, p.bounds[..p.chunks()].to_vec());
        });
    }

    #[test]
    fn a_panicking_job_is_reraised_on_the_caller() {
        for bad in [0usize, 2] {
            let caught = returns(move || {
                let passes = AtomicUsize::new(0);
                panic::catch_unwind(AssertUnwindSafe(|| {
                    let job = |k: usize| {
                        if k == bad && passes.load(SeqCst) == 3 {
                            panic!("chunk {k} failed");
                        }
                    };
                    with_crew(3, job, |crew| {
                        for _ in 0..10 {
                            crew.run();
                            passes.fetch_add(1, SeqCst);
                        }
                    })
                }))
                .map_err(|payload| payload.downcast_ref::<String>().cloned())
                .map(|()| passes.load(SeqCst))
            });
            let want = format!("chunk {bad} failed");
            assert_eq!(caught, Err(Some(want)), "bad chunk {bad}");
        }
    }

    #[test]
    fn an_early_return_stops_and_joins_the_workers() {
        // The shapes of a search loop's early exits: a `break` (a zero
        // gradient, a saturated search) and an error returned through
        // `?` (a failed forward pass or toggle).
        for stop_at in [0usize, 1, 5] {
            let (ran, result) = returns(move || {
                let ran = AtomicUsize::new(0);
                let job = |_: usize| {
                    ran.fetch_add(1, SeqCst);
                };
                let result = with_crew(3, job, |crew| -> Result<usize, String> {
                    for pass in 0.. {
                        if pass == stop_at {
                            return Err(format!("stopped at {pass}"));
                        }
                        crew.run();
                    }
                    Ok(0)
                });
                (ran.into_inner(), result)
            });
            assert_eq!(result, Err(format!("stopped at {stop_at}")));
            assert_eq!(ran, 3 * stop_at, "a stopped crew ran another pass");
            let ran = returns(move || {
                let ran = AtomicUsize::new(0);
                let job = |_: usize| {
                    ran.fetch_add(1, SeqCst);
                };
                with_crew(2, job, |crew| {
                    for _ in 0..stop_at {
                        crew.run();
                    }
                });
                ran.into_inner()
            });
            assert_eq!(ran, 2 * stop_at);
        }
    }

    #[test]
    fn a_single_chunk_spawns_no_thread() {
        let caller = thread::current().id();
        let seen = Mutex::new(Vec::new());
        with_crew(
            1,
            |k| lock(&seen).push((k, thread::current().id())),
            |crew| {
                crew.run();
                crew.run();
            },
        );
        assert_eq!(seen.into_inner().unwrap(), vec![(0, caller); 2]);
    }

    #[test]
    fn a_crew_idle_past_its_spin_bound_still_wakes() {
        returns(|| {
            let counts = Cells::new(vec![0usize; 3]);
            with_crew(
                3,
                |k| *counts.get(k) += 1,
                |crew| {
                    let signal = crew.signal.unwrap();
                    for pass in 1..=4 {
                        // Both workers stop spinning and block.
                        while signal.sleepers.load(SeqCst) < 2 {
                            thread::sleep(SPIN);
                        }
                        crew.run();
                        counts.fold((), |(), c| assert_eq!(*c, pass));
                    }
                },
            );
        });
    }
}
