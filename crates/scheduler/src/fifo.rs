//! The first-come-first-served baseline (paper §4.1).
//!
//! "The FIFO scheduling does not change the order of tasks. Each task is
//! scheduled according to the time at which it arrives (also driven by the
//! PACE predictive data). All of the possible resource allocations (a
//! total of 2¹⁶−1 possibilities) are tried. As soon as the current best
//! solution is found, it is fixed and will not change as new tasks enter
//! the system."
//!
//! Two searches are provided: [`best_allocation_exhaustive`] literally
//! enumerates every non-empty subset of the available nodes, and
//! [`best_allocation`] exploits homogeneity (for a fixed subset size `k`
//! the completion time is minimised by the `k` earliest-free nodes) to
//! reach the same earliest completion in O(n²) evaluations. They agree on
//! that completion, which is all `exhaustive_matches_fast_search`
//! compares, but not always on the node set: when free times tie, the
//! prefix scan keeps its earliest-free order while the exhaustive search
//! takes the lowest mask. [`FifoPolicy`] uses the fast form.

use crate::system::{Host, LocalPolicy, StartedTask, Trigger};
use crate::task::{Task, TaskId};
use agentgrid_cluster::NodeMask;
use agentgrid_pace::{ApplicationModel, CachedEngine, ResourceModel};
use agentgrid_sim::{SimDuration, SimTime};

/// A fixed allocation produced by the FIFO search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FifoAllocation {
    /// Nodes the task will run on.
    pub mask: NodeMask,
    /// Start instant (all nodes in `mask` free).
    pub start: SimTime,
    /// Predicted completion instant.
    pub completion: SimTime,
}

fn allocation_for_mask(
    node_free: &[SimTime],
    now: SimTime,
    mask: NodeMask,
    app: &ApplicationModel,
    model: &ResourceModel,
    engine: &CachedEngine,
) -> FifoAllocation {
    let start = mask
        .iter()
        .map(|i| node_free[i].max(now))
        .fold(now, SimTime::max);
    let exec = engine.evaluate(app, model, mask.count());
    FifoAllocation {
        mask,
        start,
        completion: start + SimDuration::from_secs_f64(exec),
    }
}

/// Prefer earlier completion, then fewer nodes, then the lower mask value —
/// a total order so both searches pick canonical optima.
fn better(a: &FifoAllocation, b: &FifoAllocation) -> bool {
    (a.completion, a.mask.count(), a.mask.0) < (b.completion, b.mask.count(), b.mask.0)
}

/// O(n²) optimal search: for each subset size `k`, only the `k`
/// earliest-free available nodes can be optimal on a homogeneous resource.
///
/// # Panics
/// If `available` is empty.
pub fn best_allocation(
    node_free: &[SimTime],
    available: NodeMask,
    now: SimTime,
    app: &ApplicationModel,
    model: &ResourceModel,
    engine: &CachedEngine,
) -> FifoAllocation {
    assert!(!available.is_empty(), "no nodes available");
    let mut nodes: Vec<usize> = available.iter().collect();
    nodes.sort_by_key(|i| (node_free[*i].max(now), *i));
    let mut best: Option<FifoAllocation> = None;
    let mut mask = NodeMask::EMPTY;
    for &i in &nodes {
        mask.insert(i);
        let cand = allocation_for_mask(node_free, now, mask, app, model, engine);
        if best.as_ref().is_none_or(|b| better(&cand, b)) {
            best = Some(cand);
        }
    }
    best.expect("available is non-empty")
}

/// Literal enumeration of all 2ᵃ−1 non-empty subsets of the available
/// nodes (the paper's description). Exponential — intended for small
/// resources, tests and the FIFO ablation bench.
///
/// # Panics
/// If `available` is empty or has more than 24 nodes (2²⁴ subsets is the
/// sanity limit).
pub fn best_allocation_exhaustive(
    node_free: &[SimTime],
    available: NodeMask,
    now: SimTime,
    app: &ApplicationModel,
    model: &ResourceModel,
    engine: &CachedEngine,
) -> FifoAllocation {
    let nodes: Vec<usize> = available.iter().collect();
    assert!(!nodes.is_empty(), "no nodes available");
    assert!(nodes.len() <= 24, "exhaustive search limited to 24 nodes");
    let mut best: Option<FifoAllocation> = None;
    for bits in 1u32..(1u32 << nodes.len()) {
        let mask = NodeMask::from_indices(
            (0..nodes.len())
                .filter(|b| bits & (1 << b) != 0)
                .map(|b| nodes[b]),
        );
        let cand = allocation_for_mask(node_free, now, mask, app, model, engine);
        if best.as_ref().is_none_or(|b| better(&cand, b)) {
            best = Some(cand);
        }
    }
    best.expect("non-empty subset enumerated")
}

/// The FIFO policy state: a plan ledger extending the resource's committed
/// ledger with the fixed allocations of still-pending tasks.
#[derive(Clone, Debug)]
pub struct FifoPolicy {
    node_free: Vec<SimTime>,
    fixed: Vec<(TaskId, FifoAllocation)>,
    /// Start instant of the most recently fixed task. FIFO "does not
    /// change the order of tasks": a later arrival never starts before an
    /// earlier one, even when its nodes free up sooner — the head-of-line
    /// blocking that the GA experiments then eliminate.
    floor: SimTime,
}

impl FifoPolicy {
    /// A policy for a resource of `nproc` all-free nodes.
    pub fn new(nproc: usize) -> FifoPolicy {
        FifoPolicy {
            node_free: vec![SimTime::ZERO; nproc],
            fixed: Vec::new(),
            floor: SimTime::ZERO,
        }
    }

    /// Fix the allocation of a newly arrived task (never revisited).
    pub fn assign(
        &mut self,
        task: &Task,
        now: SimTime,
        available: NodeMask,
        model: &ResourceModel,
        engine: &CachedEngine,
    ) -> FifoAllocation {
        let earliest = now.max(self.floor);
        let alloc = best_allocation(
            &self.node_free,
            available,
            earliest,
            &task.app,
            model,
            engine,
        );
        for i in alloc.mask.iter() {
            self.node_free[i] = alloc.completion;
        }
        self.floor = alloc.start;
        self.fixed.push((task.id, alloc));
        alloc
    }

    /// The next fixed allocation awaiting dispatch (arrival order).
    pub fn peek_head(&self) -> Option<&(TaskId, FifoAllocation)> {
        self.fixed.first()
    }

    /// Remove and return the head allocation. Dispatch is strictly
    /// one-at-a-time: the caller must commit each dispatched allocation
    /// to the real ledger before testing the next head, otherwise two
    /// planned-sequential tasks sharing a node would both appear ready.
    pub fn pop_head(&mut self) -> Option<(TaskId, FifoAllocation)> {
        if self.fixed.is_empty() {
            None
        } else {
            Some(self.fixed.remove(0))
        }
    }

    /// Drop a fixed allocation that has not been dispatched (task
    /// cancellation). The plan ledger keeps the reservation — FIFO plans
    /// are fixed and never re-optimised — so the slot goes idle.
    /// Returns whether an allocation was removed.
    pub fn drop_task(&mut self, id: TaskId) -> bool {
        let before = self.fixed.len();
        self.fixed.retain(|(tid, _)| *tid != id);
        self.fixed.len() != before
    }

    /// The plan makespan: latest planned free time over all nodes.
    pub fn makespan(&self) -> SimTime {
        self.node_free
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max)
    }
}

impl LocalPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn absorb_removed_task(&mut self, _pos: usize, id: TaskId) {
        self.drop_task(id);
    }

    fn restart(&mut self, nproc: usize) {
        // The plan ledger only ever grows, so a restart rebuilds it.
        *self = FifoPolicy::new(nproc);
    }

    /// Fix an allocation for every pending task without one (the new
    /// arrival, or at the poll that ends a full outage the tasks held
    /// through it), then dispatch the prefix of fixed allocations whose
    /// node sets are actually free. With exact predictions the actual
    /// ledger and the plan ledger agree and this is precisely "start
    /// every task whose planned start has arrived"; under prediction
    /// noise it follows reality instead of the stale plan.
    fn dispatch(&mut self, host: &mut Host, now: SimTime, trigger: Trigger) -> Vec<StartedTask> {
        let available = host.resource.available_mask();
        // Fixed plans are never revisited, so a cancel only leaves its
        // slot idle; with every node down a new arrival is held.
        if trigger == Trigger::Cancel || (trigger == Trigger::Submit && available.is_empty()) {
            return Vec::new();
        }
        if !available.is_empty() {
            // Unplanned tasks sit at the tail of the pending queue, in
            // arrival order.
            for task in host.pending.iter().skip(self.fixed.len()) {
                self.assign(task, now, available, host.resource.model(), &host.engine);
            }
            host.plan_makespan = self.makespan();
        }
        let mut started = Vec::new();
        // One dispatch at a time: each commit updates the real ledger
        // before the next head is tested, so a pair of planned-sequential
        // tasks sharing a node can never both launch at the same instant.
        while let Some(&(id, alloc)) = self.peek_head() {
            if host.resource.free_time_of(alloc.mask) > now {
                break;
            }
            self.pop_head();
            let Some(pos) = host.pending.iter().position(|t| t.id == id) else {
                continue;
            };
            let task = host.pending.remove(pos);
            // Dispatch at the event instant: the plan's start can be in
            // the past (observed late via a poll) or in the future (an
            // under-running predecessor freed the nodes early).
            let predicted = alloc.completion.saturating_since(alloc.start);
            started.push(host.launch(task, alloc.mask, now, predicted));
        }
        started
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_cluster::ExecEnv;
    use agentgrid_pace::{AppId, ApplicationModel, ModelCurve, Platform, TabulatedModel};
    use std::sync::Arc;

    fn app(times: Vec<f64>) -> Arc<ApplicationModel> {
        Arc::new(
            ApplicationModel::new(
                AppId(0),
                "t",
                ModelCurve::Tabulated(TabulatedModel::new(times).unwrap()),
                (1.0, 1000.0),
            )
            .unwrap(),
        )
    }

    fn model(nproc: usize) -> ResourceModel {
        ResourceModel::new(Platform::sgi_origin2000(), nproc).unwrap()
    }

    #[test]
    fn picks_more_nodes_when_speedup_wins() {
        // 4 nodes idle; t(1)=40, t(4)=10: use all four.
        let engine = CachedEngine::new();
        let free = vec![SimTime::ZERO; 4];
        let a = app(vec![40.0, 20.0, 13.0, 10.0]);
        let alloc = best_allocation(
            &free,
            NodeMask::first_n(4),
            SimTime::ZERO,
            &a,
            &model(4),
            &engine,
        );
        assert_eq!(alloc.mask.count(), 4);
        assert_eq!(alloc.completion, SimTime::from_secs(10));
    }

    #[test]
    fn prefers_fewer_nodes_when_speedup_is_flat() {
        // t(k) = 10 for all k: one node, lowest index.
        let engine = CachedEngine::new();
        let free = vec![SimTime::ZERO; 4];
        let a = app(vec![10.0, 10.0, 10.0, 10.0]);
        let alloc = best_allocation(
            &free,
            NodeMask::first_n(4),
            SimTime::ZERO,
            &a,
            &model(4),
            &engine,
        );
        assert_eq!(alloc.mask, NodeMask::single(0));
    }

    #[test]
    fn waits_for_busy_nodes_only_when_worth_it() {
        // Nodes 0..=2 busy until t=100; node 3 idle. t(1)=10, t(4)=9:
        // starting now on node 3 (completes at 10) beats waiting (109).
        let engine = CachedEngine::new();
        let mut free = vec![SimTime::from_secs(100); 4];
        free[3] = SimTime::ZERO;
        let a = app(vec![10.0, 9.5, 9.2, 9.0]);
        let alloc = best_allocation(
            &free,
            NodeMask::first_n(4),
            SimTime::ZERO,
            &a,
            &model(4),
            &engine,
        );
        assert_eq!(alloc.mask, NodeMask::single(3));
        assert_eq!(alloc.completion, SimTime::from_secs(10));
    }

    #[test]
    fn exhaustive_matches_fast_search() {
        use rand::Rng;
        let mut rng = agentgrid_sim::RngStream::root(11);
        let engine = CachedEngine::new();
        for trial in 0..200 {
            let nproc = rng.gen_range(1..=8usize);
            let free: Vec<SimTime> = (0..nproc)
                .map(|_| SimTime::from_secs(rng.gen_range(0..50u64)))
                .collect();
            let times: Vec<f64> = (0..nproc).map(|_| rng.gen_range(1.0..60.0f64)).collect();
            let a = app(times);
            let m = model(nproc);
            let avail = NodeMask::first_n(nproc);
            let now = SimTime::from_secs(rng.gen_range(0..20u64));
            let fast = best_allocation(&free, avail, now, &a, &m, &engine);
            let full = best_allocation_exhaustive(&free, avail, now, &a, &m, &engine);
            assert_eq!(
                fast.completion, full.completion,
                "trial {trial}: fast {fast:?} vs exhaustive {full:?}"
            );
        }
    }

    #[test]
    fn respects_availability() {
        let engine = CachedEngine::new();
        let free = vec![SimTime::ZERO; 4];
        let a = app(vec![40.0, 20.0, 13.0, 10.0]);
        let avail = NodeMask::from_indices([1, 3]);
        let alloc = best_allocation(&free, avail, SimTime::ZERO, &a, &model(4), &engine);
        assert_eq!(alloc.mask, avail);
        assert_eq!(alloc.completion, SimTime::from_secs(20));
    }

    #[test]
    fn policy_fixes_allocations_in_arrival_order() {
        let engine = CachedEngine::new();
        let mut p = FifoPolicy::new(2);
        let a = app(vec![10.0, 10.0]); // flat: 1 node each
        let m = model(2);
        let avail = NodeMask::first_n(2);
        let mk_task = |id: u64| {
            Task::new(
                TaskId(id),
                a.clone(),
                SimTime::ZERO,
                SimTime::from_secs(1000),
                ExecEnv::Test,
            )
        };
        let a1 = p.assign(&mk_task(1), SimTime::ZERO, avail, &m, &engine);
        let a2 = p.assign(&mk_task(2), SimTime::ZERO, avail, &m, &engine);
        let a3 = p.assign(&mk_task(3), SimTime::ZERO, avail, &m, &engine);
        // Two start immediately on different nodes, the third queues.
        assert_eq!(a1.start, SimTime::ZERO);
        assert_eq!(a2.start, SimTime::ZERO);
        assert_ne!(a1.mask, a2.mask);
        assert_eq!(a3.start, SimTime::from_secs(10));
        assert_eq!(p.makespan(), SimTime::from_secs(20));

        // Dispatch takes the heads in arrival order.
        let heads: Vec<TaskId> = std::iter::from_fn(|| p.pop_head().map(|(id, _)| id)).collect();
        assert_eq!(heads, [TaskId(1), TaskId(2), TaskId(3)]);
        assert!(p.peek_head().is_none());
    }
}
