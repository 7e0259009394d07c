//! Deterministic population-parallel fitness evaluation.
//!
//! The GA's inner loop — decode every individual, score it — is
//! embarrassingly parallel: each cost is a pure function of one solution
//! string, the frozen resource view and the per-evolve prediction
//! table. This module chunks the population across scoped
//! `std` threads and writes every cost into its own pre-sized slot, so
//! the resulting cost vector is byte-identical to the sequential path no
//! matter how many workers run or how the OS schedules them. Everything
//! order-sensitive — RNG draws, selection, crossover, mutation — stays
//! on the driving thread.
//!
//! The pool is std-only (`std::thread::scope`): the workspace builds
//! fully offline against the vendored stand-ins, so no rayon. Spawned
//! OS threads are capped at the host's available parallelism — chunk
//! boundaries (and therefore results) depend only on the requested
//! thread count, never on the machine.

use crate::decode::DecodeScratch;
use crate::solution::Solution;
use std::sync::OnceLock;

/// Cached host parallelism: `std::thread::available_parallelism` reads
/// the cgroup filesystem on every call on Linux (tens of microseconds),
/// and this runs once per evaluation pass.
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Occupancy accounting for one evaluation pass (telemetry payload; the
/// numbers are pure functions of the input sizes, never of timing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Solutions evaluated.
    pub evaluated: usize,
    /// Workers engaged (driving thread included).
    pub workers: usize,
    /// Chunk size each worker was handed (the last may get less).
    pub chunk: usize,
}

impl EvalStats {
    /// Mean fraction of worker slots doing useful work in `[0, 1]`:
    /// 1.0 when the population splits evenly, lower when the tail chunk
    /// runs short.
    pub fn utilisation(&self) -> f64 {
        let slots = self.workers * self.chunk;
        if slots == 0 {
            0.0
        } else {
            self.evaluated as f64 / slots as f64
        }
    }
}

/// Evaluate `solutions` into `costs` (cleared and resized to match),
/// splitting the work over up to `threads` OS threads. `scratches` is
/// grown to one [`DecodeScratch`] per worker and reused across calls —
/// each worker owns exactly one scratch, so buffers never migrate
/// between threads mid-pass.
///
/// Determinism: `eval` must be a pure function of the solution (plus
/// whatever frozen context it captures). Cost `i` is written only to
/// slot `i`, workers share nothing mutable, and thread count only moves
/// chunk boundaries — so the output is identical for any `threads`.
pub fn evaluate_into<F>(
    threads: usize,
    solutions: &[Solution],
    costs: &mut Vec<f64>,
    scratches: &mut Vec<DecodeScratch>,
    eval: &F,
) -> EvalStats
where
    F: Fn(&Solution, &mut DecodeScratch) -> f64 + Sync,
{
    costs.clear();
    costs.resize(solutions.len(), 0.0);
    if solutions.is_empty() {
        return EvalStats::default();
    }
    let workers = threads.max(1).min(solutions.len());
    if scratches.len() < workers {
        scratches.resize_with(workers, DecodeScratch::default);
    }
    let chunk = solutions.len().div_ceil(workers);
    let stats = EvalStats {
        evaluated: solutions.len(),
        workers,
        chunk,
    };

    if workers == 1 {
        let scratch = &mut scratches[0];
        for (cost, sol) in costs.iter_mut().zip(solutions) {
            *cost = eval(sol, scratch);
        }
        return stats;
    }

    // Chunk boundaries are a function of `workers` alone, but the number
    // of OS threads actually spawned is capped at the host's parallelism:
    // oversubscribing a small machine only adds spawn and context-switch
    // cost, and running several chunks consecutively on one thread writes
    // exactly the same cost slots. Each chunk still owns its scratch.
    let spawn = workers.min(host_parallelism());
    let jobs: Vec<(&mut [f64], &[Solution], &mut DecodeScratch)> = costs
        .chunks_mut(chunk)
        .zip(solutions.chunks(chunk))
        .zip(scratches.iter_mut())
        .map(|((cc, sc), scratch)| (cc, sc, scratch))
        .collect();
    let per_thread = jobs.len().div_ceil(spawn);
    std::thread::scope(|scope| {
        let mut rest = jobs;
        // The driving thread keeps the first group for itself and spawns
        // workers for the rest, so a 1-group split never pays a spawn.
        let first: Vec<_> = rest.drain(..per_thread.min(rest.len())).collect();
        while !rest.is_empty() {
            let group: Vec<_> = rest.drain(..per_thread.min(rest.len())).collect();
            scope.spawn(move || {
                for (cc, sc, scratch) in group {
                    for (cost, sol) in cc.iter_mut().zip(sc) {
                        *cost = eval(sol, scratch);
                    }
                }
            });
        }
        for (cc, sc, scratch) in first {
            for (cost, sol) in cc.iter_mut().zip(sc) {
                *cost = eval(sol, scratch);
            }
        }
    });
    stats
}

/// Run `work` once over every item, splitting the items across up to
/// `threads` scoped OS threads (capped at host parallelism, driving
/// thread included). The island evolver uses this to advance whole
/// subpopulations concurrently: each item is processed exactly once, in
/// isolation, mutating only its own state — so results cannot depend on
/// the thread count or OS scheduling, only on the items themselves.
pub fn for_each_parallel<T, F>(threads: usize, items: &mut [T], work: &F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let workers = threads.max(1).min(items.len());
    if workers <= 1 {
        for item in items {
            work(item);
        }
        return;
    }
    let spawn = workers.min(host_parallelism());
    let chunk = items.len().div_ceil(workers);
    let mut chunks: Vec<&mut [T]> = items.chunks_mut(chunk).collect();
    let per_thread = chunks.len().div_ceil(spawn);
    std::thread::scope(|scope| {
        let first: Vec<_> = chunks.drain(..per_thread.min(chunks.len())).collect();
        while !chunks.is_empty() {
            let group: Vec<_> = chunks.drain(..per_thread.min(chunks.len())).collect();
            scope.spawn(move || {
                for ch in group {
                    for item in ch.iter_mut() {
                        work(item);
                    }
                }
            });
        }
        for ch in first {
            for item in ch {
                work(item);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_sim::RngStream;

    fn population(n: usize, m: usize, nproc: usize) -> Vec<Solution> {
        let mut rng = RngStream::root(42).derive("par-test");
        (0..n)
            .map(|_| Solution::random(m, nproc, &mut rng))
            .collect()
    }

    /// A cheap stand-in cost: pure in the solution, exercises the scratch.
    fn toy_cost(sol: &Solution, scratch: &mut DecodeScratch) -> f64 {
        scratch.idle_pockets.clear();
        sol.order
            .iter()
            .enumerate()
            .map(|(p, &t)| (p + 1) as f64 * t as f64 + sol.mapping[p].count() as f64)
            .sum()
    }

    #[test]
    fn thread_counts_agree_bit_for_bit() {
        let pop = population(37, 9, 4);
        let mut reference = Vec::new();
        let mut scratches = Vec::new();
        evaluate_into(1, &pop, &mut reference, &mut scratches, &toy_cost);
        for threads in [2, 3, 4, 8, 64] {
            let mut costs = Vec::new();
            let mut scratches = Vec::new();
            let stats = evaluate_into(threads, &pop, &mut costs, &mut scratches, &toy_cost);
            assert_eq!(costs, reference, "threads={threads}");
            assert_eq!(stats.evaluated, 37);
            assert!(stats.workers <= 37);
        }
    }

    #[test]
    fn scratches_grow_to_worker_count_and_persist() {
        let pop = population(16, 5, 2);
        let mut costs = Vec::new();
        let mut scratches = Vec::new();
        evaluate_into(4, &pop, &mut costs, &mut scratches, &toy_cost);
        assert_eq!(scratches.len(), 4);
        // A narrower follow-up pass keeps the extra scratches around.
        evaluate_into(2, &pop, &mut costs, &mut scratches, &toy_cost);
        assert_eq!(scratches.len(), 4);
    }

    #[test]
    fn empty_population_is_a_noop() {
        let mut costs = vec![1.0, 2.0];
        let mut scratches = Vec::new();
        let stats = evaluate_into(4, &[], &mut costs, &mut scratches, &toy_cost);
        assert!(costs.is_empty());
        assert_eq!(stats, EvalStats::default());
        assert_eq!(stats.utilisation(), 0.0);
    }

    #[test]
    fn utilisation_reflects_tail_chunks() {
        // 10 solutions over 4 workers: chunks of 3 → slots 12, used 10.
        let pop = population(10, 3, 2);
        let mut costs = Vec::new();
        let mut scratches = Vec::new();
        let stats = evaluate_into(4, &pop, &mut costs, &mut scratches, &toy_cost);
        assert_eq!(stats.chunk, 3);
        assert_eq!(stats.workers, 4);
        assert!((stats.utilisation() - 10.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn more_threads_than_solutions_is_clamped() {
        let pop = population(3, 4, 2);
        let mut costs = Vec::new();
        let mut scratches = Vec::new();
        let stats = evaluate_into(16, &pop, &mut costs, &mut scratches, &toy_cost);
        assert_eq!(stats.workers, 3);
        assert_eq!(costs.len(), 3);
    }
}
