//! `grad`: one full backward pass of the attack engine — `G_ij` for
//! every unordered candidate pair of a 1000-node, ~5000-edge
//! Erdős–Rényi graph — timed three ways:
//!
//! * **sparse** — [`ba_core::assemble_pair_grads`] over the frozen
//!   [`CsrGraph`], split across one worker per core: the row-blocked
//!   wedge scatter, with no `n×n` allocation;
//! * **row serial vs split** — the same kernel into a reused output
//!   buffer, as in the PGD loop, on one worker and across the threads;
//! * **dense** — [`ba_core::dense_pair_gradients`]: ContinuousA's dense
//!   step (`A²` and `A·diag(gE)·A` over the upper triangle), which a
//!   fractional adjacency needs, here on the binary one.
//!
//! Then the kernel on one worker against a [`ba_core::pair_grad`] loop
//! over a `TargetNeighborhood` list of 3 targets from the top-50 AScore
//! pool, whose one pair row `(x, t)` per `x < t` favours the plain loop.
//!
//! Before the split is timed, a host probe times pure integer arithmetic
//! split in two halves over two threads against both halves on one, and
//! reports the ratio as `host_split_speedup`: what the host grants any
//! two-thread split at that moment, whatever the code. On a loaded 2-core
//! VM it reads about 1.0× in phases where the kernel's split also fails.
//! It changes no verdict; a failed split check quotes it.
//!
//! Fails if sparse is less than 5× faster than dense (keeping dense
//! products out of the binary-graph attacks' hot path), if the split on
//! two or more threads is not faster than one worker, or if the TN
//! kernel takes over 1.25× the loop's time. Panics if the sparse, serial
//! and split outputs, or the kernel and the loop, differ in any bit.
//! `--quick` runs fewer repetitions.

use crate::{Profile, Verdict};
use ba_bench::{sample_from_pool, target_pool, time_best_of};
use ba_core::{
    assemble_pair_grads, assemble_pair_grads_into, dense_pair_gradients, node_grads, pair_grad,
    CandidateScope, Candidates,
};
use ba_graph::egonet::egonet_features;
use ba_graph::{generators, CsrGraph};
use ba_net::BenchReport;

const REQUIRED_SPEEDUP: f64 = 5.0;

/// Most time the kernel may take on the `TargetNeighborhood` list, as a
/// multiple of the per-pair loop's.
const TN_MAX_RATIO: f64 = 1.25;

/// Seed of the `TargetNeighborhood` target sample.
const TN_SEED: u64 = 1;

/// Xorshift steps in each half of the host probe: about 2.5 ms on a
/// 2-core VM, the scale of one serial row-kernel assembly here.
const PROBE_STEPS: u32 = 1 << 20;

/// The host probe: the best of `reps` runs of both probe halves on this
/// thread over the best of `reps` with one half on a scoped thread.
fn host_split_speedup(reps: usize) -> f64 {
    let half = |seed: u64| {
        let mut x = seed;
        for _ in 0..PROBE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x)
    };
    let serial_s = time_best_of(reps, || {
        half(1);
        half(2);
    });
    let split_s = time_best_of(reps, || {
        std::thread::scope(|s| {
            let other = s.spawn(|| half(1));
            half(2);
            other.join().expect("probe thread");
        });
    });
    serial_s / split_s
}

pub fn run(profile: &Profile) -> Verdict {
    let (sparse_reps, dense_reps, row_reps, tn_reps) = if profile.quick {
        (5, 1, 20, 60)
    } else {
        (20, 3, 50, 200)
    };

    // ~5000 edges: p = 0.01 on n = 1000 gives E[m] ≈ 4995.
    let n = 1000usize;
    let g = generators::erdos_renyi(n, 0.01, 7);
    let feats = egonet_features(&g);
    let targets: Vec<u32> = (0..10).collect();
    let ng = node_grads(&feats.n, &feats.e, &targets).expect("node grads");
    let candidates = Candidates::build(CandidateScope::Full, &g, &targets);
    let mask = vec![true; candidates.len()];
    let csr = CsrGraph::from(&g);
    let threads = ba_core::resolve_threads(0);

    let host_split_speedup = host_split_speedup(row_reps);

    // Sparse allocates its output, as the attacks' first assembly does.
    let mut sparse_out = Vec::new();
    let sparse_s = time_best_of(sparse_reps, || {
        sparse_out = assemble_pair_grads(&csr, &ng, &candidates, &mask, threads);
    });
    let mut serial_out = vec![0.0; candidates.len()];
    let row_serial_s = time_best_of(row_reps, || {
        assemble_pair_grads_into(&csr, &ng, &candidates, &mask, 1, &mut serial_out);
    });
    let mut split_out = vec![0.0; candidates.len()];
    let row_split_s = time_best_of(row_reps, || {
        assemble_pair_grads_into(&csr, &ng, &candidates, &mask, threads, &mut split_out);
    });
    let same_bits = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(
        same_bits(&serial_out, &split_out) && same_bits(&serial_out, &sparse_out),
        "split assembly differs from one worker"
    );
    let row_split_speedup = row_serial_s / row_split_s;

    let a = ba_linalg::Matrix::from_vec(n, n, ba_graph::adjacency::to_row_major(&g));
    let mut dense_out = Vec::new();
    let dense_s = time_best_of(dense_reps, || {
        dense_out = dense_pair_gradients(&a, &ng, &candidates, threads);
    });

    // Sparse and dense must agree to rounding.
    let max_diff = sparse_out
        .iter()
        .zip(&dense_out)
        .fold(0.0f64, |m, (s, d)| m.max((s - d).abs()));
    assert!(
        max_diff < 1e-9,
        "sparse/dense gradient mismatch: max |Δ| = {max_diff:e}"
    );

    // The TN kernel and loop are timed in alternation, so that host drift
    // hits both.
    let model = ba_oddball::OddBall::default().fit(&g).expect("OddBall fit");
    let tn_targets = sample_from_pool(&target_pool(&model, 50), 3, TN_SEED);
    let tn_ng = node_grads(&feats.n, &feats.e, &tn_targets).expect("node grads");
    let tn = Candidates::build(CandidateScope::TargetNeighborhood, &g, &tn_targets);
    let tn_mask = vec![true; tn.len()];
    let tn_kernel = |out: &mut [f64]| assemble_pair_grads_into(&csr, &tn_ng, &tn, &tn_mask, 1, out);
    let tn_loop =
        |out: &mut [f64]| tn.for_each(|idx, i, j| out[idx] = pair_grad(&csr, &tn_ng, i, j));
    let mut tn_kernel_out = vec![0.0; tn.len()];
    let mut tn_loop_out = vec![0.0; tn.len()];
    tn_kernel(&mut tn_kernel_out);
    tn_loop(&mut tn_loop_out);
    assert!(
        same_bits(&tn_kernel_out, &tn_loop_out),
        "TargetNeighborhood assembly differs from per-pair merges"
    );
    let (mut tn_kernel_s, mut tn_loop_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..tn_reps {
        tn_kernel_s = tn_kernel_s.min(time_best_of(1, || tn_kernel(&mut tn_kernel_out)));
        tn_loop_s = tn_loop_s.min(time_best_of(1, || tn_loop(&mut tn_loop_out)));
    }
    let tn_ratio = tn_kernel_s / tn_loop_s;

    eprintln!("TN targets: {tn_targets:?}");

    let speedup = dense_s / sparse_s;
    let report = BenchReport::new("grad")
        .metric("n", n as f64, "count")
        .metric("m", g.num_edges() as f64, "count")
        .metric("pairs", candidates.len() as f64, "count")
        .metric("threads", threads as f64, "count")
        .metric("sparse_s", sparse_s, "s")
        .metric("dense_s", dense_s, "s")
        .metric("speedup", speedup, "x")
        .metric("row_serial_ms", row_serial_s * 1e3, "ms")
        .metric("row_split_ms", row_split_s * 1e3, "ms")
        .metric("row_split_speedup", row_split_speedup, "x")
        .metric("host_split_speedup", host_split_speedup, "x")
        .metric("tn_pairs", tn.len() as f64, "count")
        .metric("tn_kernel_ms", tn_kernel_s * 1e3, "ms")
        .metric("tn_loop_ms", tn_loop_s * 1e3, "ms")
        .metric("tn_ratio", tn_ratio, "x");
    let mut failed = Vec::new();
    if speedup < REQUIRED_SPEEDUP {
        failed.push(format!(
            "sparse/dense speedup {speedup:.2}x (need ≥{REQUIRED_SPEEDUP}x)"
        ));
    }
    if threads >= 2 && row_split_speedup <= 1.0 {
        failed.push(format!(
            "row split speedup {row_split_speedup:.2}x (need >1x; \
             host_split_speedup {host_split_speedup:.2}x)"
        ));
    }
    if tn_ratio > TN_MAX_RATIO {
        failed.push(format!(
            "TN kernel/loop {tn_ratio:.2}x (need ≤{TN_MAX_RATIO}x)"
        ));
    }
    (report, failed)
}
