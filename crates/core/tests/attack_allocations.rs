//! Large allocations per attack call.
//!
//! A counting global allocator tallies every allocation (and every
//! reallocation) of at least [`LARGE`] bytes. At 300 nodes a `Full`
//! candidate set has 44,850 pairs, so any candidate-length buffer is
//! large (a `Vec<bool>` is 44 KB) while node-length ones (2.4 KB per
//! `f64` vector) are not. Counted over one attack call on a warm
//! memoized session, reused as an orchestrator reuses it:
//!
//! * GradMaxSearch allocates the same number of large buffers at
//!   budget 5 as at budget 20, so no step allocates one;
//! * BinarizedAttack's count is pinned exactly, as a baseline to be
//!   ratcheted down.
//!
//! The allocator counts every thread's allocations, so this binary
//! holds this one test and nothing else.

// A `GlobalAlloc` implementation is `unsafe` by definition; this test
// binary wraps the system allocator and adds only a counter.
#![allow(unsafe_code)]

use ba_core::{AttackConfig, AttackSession, BinarizedAttack, GradMaxSearch, StructuralAttack};
use ba_graph::{generators, CsrGraph, NodeId};
use ba_oddball::OddBall;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The size from which an allocation counts: 32 KB.
const LARGE: usize = 32 << 10;

/// Allocations and reallocations of at least [`LARGE`] bytes so far.
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting large requests.
struct Counting;

fn count(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; the counter touches no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for this call are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for this call are `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's guarantees for this call are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for this call are `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// BinarizedAttack's large allocations per call on the instance below:
/// 40 iterations over two λ, budget 10, 2 threads, warm memoized
/// session.
const BINARIZED_LARGE_ALLOCS: usize = 27;

/// Large allocations during one call of `attack` at `budget`, and the
/// budgets the call reached.
fn large_allocs(
    attack: &dyn StructuralAttack,
    session: &mut AttackSession<'_>,
    budget: usize,
) -> (usize, usize) {
    let before = LARGE_ALLOCS.load(Relaxed);
    let outcome = attack.attack_with_session(session, budget).unwrap();
    let after = LARGE_ALLOCS.load(Relaxed);
    (after - before, outcome.max_budget())
}

#[test]
fn attacks_allocate_no_candidate_length_buffer_per_step() {
    let mut g = generators::erdos_renyi(300, 0.03, 77);
    generators::attach_isolated(&mut g, 78);
    let members: Vec<NodeId> = (0..12).map(|k| 7 + 24 * k).collect();
    generators::plant_near_clique(&mut g, &members, 1.0, 79);
    let model = OddBall::default().fit(&g).unwrap();
    let targets: Vec<NodeId> = model.top_k(3).into_iter().map(|(i, _)| i).collect();
    let csr = CsrGraph::from(&g);
    let mut session = AttackSession::new(&csr, &targets)
        .unwrap()
        .with_threads(2)
        .with_memo();
    let gradmax = GradMaxSearch::new(AttackConfig::default());
    let binarized = BinarizedAttack::new(AttackConfig::default())
        .with_iterations(40)
        .with_lambdas(vec![0.002, 0.02]);
    // Warm the session: its row scratch and its assembly LRU.
    large_allocs(&binarized, &mut session, 10);
    large_allocs(&gradmax, &mut session, 20);

    let (short, steps) = large_allocs(&gradmax, &mut session, 5);
    assert_eq!(steps, 5);
    let (long, steps) = large_allocs(&gradmax, &mut session, 20);
    assert_eq!(steps, 20, "the search must not saturate early");
    assert_eq!(short, long, "a GradMaxSearch step allocated a large buffer");

    let (binarized_allocs, _) = large_allocs(&binarized, &mut session, 10);
    assert_eq!(binarized_allocs, BINARIZED_LARGE_ALLOCS);
}
