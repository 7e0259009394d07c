//! Model-based reference oracles.
//!
//! Each oracle recomputes an answer the production code also computes,
//! by an independent (usually brute-force) method, so differential
//! tests can bound the real implementation from both sides:
//!
//! - [`brute_force_best`] — the true optimum of the GA's cost function
//!   over *every* ordering × node-mask assignment of a tiny instance.
//!   The GA can never beat it, so `ga_cost >= brute_cost` (ties
//!   allowed) on any instance the oracle can afford.
//! - [`fifo_reference`] — the arrival-order greedy schedule the FIFO
//!   baseline produces, built from the exhaustive per-task allocation
//!   search. The GA injects exactly this schedule as a heuristic seed,
//!   so `ga_cost <= fifo_cost` as well.
//! - [`matchmaking_reference`] — eq. 10's completion estimate
//!   (freetime + best predicted time over all processor counts),
//!   re-derived with a plain minimisation loop rather than the cached
//!   [`CachedEngine::best_time`] path.
//!
//! All oracles are *slow on purpose*: clarity over speed, so they stay
//! trustworthy.

use agentgrid_cluster::NodeMask;
use agentgrid_pace::{ApplicationModel, CachedEngine, ResourceModel};
use agentgrid_scheduler::fifo::best_allocation_exhaustive;
use agentgrid_scheduler::{decode, CostWeights, ResourceView, ScheduleCost, Solution, Task};
use agentgrid_sim::{SimDuration, SimTime};

/// An oracle's best schedule: its combined cost, the solution achieving
/// it, and how many candidates were evaluated to find it.
#[derive(Clone, Debug)]
pub struct OracleSchedule {
    /// Combined eq. 8 cost of the schedule (lower is better).
    pub cost: f64,
    /// The (order, mapping) pair achieving it.
    pub solution: Solution,
    /// Candidate schedules evaluated.
    pub evaluated: u64,
}

/// Evaluate one candidate solution exactly as the GA does.
pub fn cost_of(
    view: &ResourceView,
    tasks: &[Task],
    solution: &Solution,
    engine: &CachedEngine,
    weights: &CostWeights,
) -> f64 {
    let schedule = decode(view, tasks, solution, engine);
    ScheduleCost::of(&schedule, weights).combined(weights)
}

/// The true optimum of the combined cost function over every ordering
/// permutation × non-empty node mask assignment.
///
/// The search space is `m! * (2^n - 1)^m` decodes, so instances must be
/// tiny: at most 5 tasks and 4 processors (asserted), and callers
/// should keep `m! * (2^n - 1)^m` in the tens of thousands (e.g. 5
/// tasks on 2 nodes, 4 on 3, 3 on 4).
///
/// # Panics
/// If the instance exceeds 5 tasks or 4 processors, or is empty.
pub fn brute_force_best(
    view: &ResourceView,
    tasks: &[Task],
    engine: &CachedEngine,
    weights: &CostWeights,
) -> OracleSchedule {
    let m = tasks.len();
    let nproc = view.model.nproc;
    assert!(
        (1..=5).contains(&m),
        "brute force needs 1..=5 tasks, got {m}"
    );
    assert!(
        (1..=4).contains(&nproc),
        "brute force needs 1..=4 processors, got {nproc}"
    );

    let masks: Vec<NodeMask> = (1..(1u32 << nproc)).map(NodeMask).collect();
    let orders = permutations(m);

    let mut best: Option<OracleSchedule> = None;
    let mut evaluated = 0u64;
    // Odometer over per-task mask choices, restarted per ordering.
    let mut candidate = Solution {
        order: Vec::new(),
        mapping: vec![masks[0]; m],
    };
    for order in &orders {
        candidate.order = order.clone();
        let mut digits = vec![0usize; m];
        loop {
            for (slot, &d) in candidate.mapping.iter_mut().zip(&digits) {
                *slot = masks[d];
            }
            let cost = cost_of(view, tasks, &candidate, engine, weights);
            evaluated += 1;
            if best.as_ref().is_none_or(|b| cost < b.cost) {
                best = Some(OracleSchedule {
                    cost,
                    solution: candidate.clone(),
                    evaluated: 0,
                });
            }
            // Advance the odometer; carry past the last digit ends this
            // ordering.
            let mut i = 0;
            loop {
                if i == m {
                    break;
                }
                digits[i] += 1;
                if digits[i] < masks.len() {
                    break;
                }
                digits[i] = 0;
                i += 1;
            }
            if i == m {
                break;
            }
        }
    }
    let mut best = best.expect("at least one candidate");
    best.evaluated = evaluated;
    best
}

/// The arrival-order greedy schedule of the FIFO baseline: each task in
/// submission order takes the allocation minimising its own completion
/// (exhaustive over every non-empty subset of available nodes), with
/// ties broken towards fewer nodes then lower mask bits. This is the
/// rule of `policy::fifo_seed`, not of
/// [`FifoPolicy`](agentgrid_scheduler::FifoPolicy): that runs the
/// prefix search of `fifo::best_allocation` from a head-of-line floor
/// (no task starts before its predecessor), so its node sets can differ
/// on tied free times and its starts wherever the floor binds.
pub fn fifo_reference(
    view: &ResourceView,
    tasks: &[Task],
    engine: &CachedEngine,
    weights: &CostWeights,
) -> OracleSchedule {
    let mut node_free = view.node_free.clone();
    let mut mapping = Vec::with_capacity(tasks.len());
    for task in tasks {
        let alloc = best_allocation_exhaustive(
            &node_free,
            view.available,
            view.now,
            &task.app,
            &view.model,
            engine,
        );
        for node in alloc.mask.iter() {
            node_free[node] = alloc.completion;
        }
        mapping.push(alloc.mask);
    }
    let solution = Solution {
        order: (0..tasks.len()).collect(),
        mapping,
    };
    let cost = cost_of(view, tasks, &solution, engine, weights);
    OracleSchedule {
        cost,
        solution,
        evaluated: tasks.len() as u64,
    }
}

/// Eq. 10's completion estimate, re-derived independently: advertised
/// freetime (clamped to now) plus the minimum predicted execution time
/// over every processor count `1..=nproc`, taking the lowest count on
/// ties exactly as the production tie-break does.
pub fn matchmaking_reference(
    freetime: SimTime,
    now: SimTime,
    app: &ApplicationModel,
    model: &ResourceModel,
    engine: &CachedEngine,
) -> SimTime {
    let mut best = f64::INFINITY;
    for k in 1..=model.nproc {
        let t = engine.evaluate(app, model, k);
        if t < best {
            best = t;
        }
    }
    freetime.max(now) + SimDuration::from_secs_f64(best)
}

/// All permutations of `0..m` in a deterministic order.
fn permutations(m: usize) -> Vec<Vec<usize>> {
    fn recurse(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let x = rest.remove(i);
            prefix.push(x);
            recurse(prefix, rest, out);
            prefix.pop();
            rest.insert(i, x);
        }
    }
    let mut out = Vec::new();
    recurse(&mut Vec::new(), &mut (0..m).collect(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_cluster::{ExecEnv, GridResource};
    use agentgrid_pace::{AppId, ModelCurve, Platform, TabulatedModel};
    use agentgrid_scheduler::{Task, TaskId};
    use std::sync::Arc;

    fn app(id: u32, times: Vec<f64>) -> Arc<ApplicationModel> {
        Arc::new(
            ApplicationModel::new(
                AppId(id),
                "t",
                ModelCurve::Tabulated(TabulatedModel::new(times).unwrap()),
                (1.0, 1000.0),
            )
            .unwrap(),
        )
    }

    fn task(id: u64, app: Arc<ApplicationModel>, deadline_s: u64) -> Task {
        Task::new(
            TaskId(id),
            app,
            SimTime::ZERO,
            SimTime::from_secs(deadline_s),
            ExecEnv::Test,
        )
    }

    fn view(nproc: usize) -> ResourceView {
        let r = GridResource::new("S1", Platform::sgi_origin2000(), nproc);
        ResourceView::snapshot(&r, SimTime::ZERO).unwrap()
    }

    #[test]
    fn permutations_cover_the_factorial() {
        assert_eq!(permutations(1), vec![vec![0]]);
        let p3 = permutations(3);
        assert_eq!(p3.len(), 6);
        let p4 = permutations(4);
        assert_eq!(p4.len(), 24);
        // All distinct.
        for (i, a) in p4.iter().enumerate() {
            for b in &p4[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn brute_force_finds_the_obvious_optimum() {
        // One task that parallelises perfectly on 2 nodes: the optimum
        // must grab both.
        let engine = CachedEngine::new();
        let v = view(2);
        let a = app(1000, vec![10.0, 5.0]);
        let tasks = vec![task(0, a, 60)];
        let best = brute_force_best(&v, &tasks, &engine, &CostWeights::default());
        assert_eq!(best.evaluated, 3); // 1! * (2^2 - 1)
        assert_eq!(best.solution.mapping[0].count(), 2);
    }

    #[test]
    fn brute_force_never_beaten_by_any_candidate() {
        let engine = CachedEngine::new();
        let v = view(2);
        let a = app(1001, vec![8.0, 5.0]);
        let b = app(1002, vec![3.0, 2.9]);
        let tasks = vec![task(0, a.clone(), 30), task(1, b, 30), task(2, a, 90)];
        let w = CostWeights::default();
        let best = brute_force_best(&v, &tasks, &engine, &w);
        assert_eq!(best.evaluated, 6 * 27); // 3! * (2^2 - 1)^3
                                            // Spot-check a few hand-built candidates.
        for order in [vec![0, 1, 2], vec![2, 1, 0]] {
            for mask in [NodeMask(0b01), NodeMask(0b11)] {
                let cand = Solution {
                    order: order.clone(),
                    mapping: vec![mask; 3],
                };
                let c = cost_of(&v, &tasks, &cand, &engine, &w);
                assert!(c >= best.cost - 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "brute force needs 1..=5 tasks")]
    fn brute_force_rejects_oversized_instances() {
        let engine = CachedEngine::new();
        let v = view(2);
        let a = app(1003, vec![1.0]);
        let tasks: Vec<Task> = (0..6).map(|i| task(i, a.clone(), 60)).collect();
        brute_force_best(&v, &tasks, &engine, &CostWeights::default());
    }

    #[test]
    fn fifo_reference_is_bounded_by_the_optimum() {
        let engine = CachedEngine::new();
        let v = view(3);
        let a = app(1004, vec![9.0, 5.0, 4.0]);
        let b = app(1005, vec![2.0, 1.5, 1.4]);
        let tasks = vec![task(0, a, 30), task(1, b.clone(), 30), task(2, b, 40)];
        let w = CostWeights::default();
        let fifo = fifo_reference(&v, &tasks, &engine, &w);
        let best = brute_force_best(&v, &tasks, &engine, &w);
        assert!(
            fifo.cost >= best.cost - 1e-12,
            "greedy {} beat the optimum {}",
            fifo.cost,
            best.cost
        );
        assert!(fifo.solution.is_legitimate(3, 3));
    }

    #[test]
    fn matchmaking_reference_tracks_best_time() {
        // The cached best_time and the independent loop must agree.
        let engine = CachedEngine::new();
        let model = ResourceModel::new(Platform::sgi_origin2000(), 4).unwrap();
        let a = app(1006, vec![10.0, 6.0, 4.5, 4.4]);
        let now = SimTime::from_secs(3);
        let freetime = SimTime::from_secs(7);
        let est = matchmaking_reference(freetime, now, &a, &model, &engine);
        let (_, best_s) = engine.best_time(&a, &model);
        assert_eq!(
            est,
            freetime + SimDuration::from_secs_f64(best_s),
            "oracle and cached path disagree"
        );
        // A stale freetime clamps to now.
        let est2 = matchmaking_reference(SimTime::ZERO, now, &a, &model, &engine);
        assert_eq!(est2, now + SimDuration::from_secs_f64(best_s));
    }
}
