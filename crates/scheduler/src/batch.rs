//! A batch-queueing baseline in the Condor/LSF/LoadLeveler/PBS mould.
//!
//! The paper positions its scheduler against "batch queuing systems, such
//! as Condor, LSF, LoadLeveler and PBS, that address resource management
//! within a local grid" without performance prediction. This module
//! implements that class as a third local policy, beyond the paper's two,
//! so the evaluation can quantify what prediction-driven scheduling buys:
//!
//! * each job carries a **user-requested node count** (batch users write
//!   `machine_count = k` in their submit file; we emulate the user by
//!   requesting the application's reference-platform optimum);
//! * jobs start strictly **first-come-first-served**: the head of the
//!   queue waits until its k nodes are free;
//! * optional **EASY backfilling**: a later job may jump the queue if it
//!   fits on nodes outside the head job's reservation, or finishes before
//!   the head's earliest possible start — the classic conservative rule
//!   that never delays the head.

use crate::system::{Host, LocalPolicy, StartedTask, Trigger};
use crate::task::{Task, TaskId};
use agentgrid_cluster::{GridResource, NodeMask};
use agentgrid_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Batch-policy knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    /// Enable EASY backfilling (off = pure FCFS).
    pub backfill: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { backfill: true }
    }
}

/// One queued batch job.
#[derive(Clone, Copy, Debug, PartialEq)]
struct BatchJob {
    id: TaskId,
    /// User-requested node count (clamped to the resource size).
    nodes: usize,
    /// Predicted runtime at that node count, in seconds.
    runtime_s: f64,
}

/// A job the policy decided to start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchStart {
    /// The job.
    pub id: TaskId,
    /// Nodes assigned.
    pub mask: NodeMask,
    /// Predicted completion (start = the decision instant).
    pub completion: SimTime,
}

/// Reusable planning-ledger buffers: `try_start` and `plan_makespan`
/// both rebuild a virtual free-time ledger per call, and the scheduler
/// calls them on every completion — recycling the buffers mirrors the
/// GA decoder's `DecodeScratch` and keeps the event loop allocation-free
/// at steady state.
#[derive(Clone, Debug, Default)]
struct BatchScratch {
    /// Virtual per-node free instants.
    free_at: Vec<SimTime>,
    /// `(free instant, node)` pairs sorted for shadow-time computation.
    frees: Vec<(SimTime, usize)>,
    /// Nodes free right now.
    free_now: Vec<usize>,
    /// Backfill candidate node picks.
    pick: Vec<usize>,
}

impl BatchScratch {
    /// Refill `free_at` from the resource's actual ledger at `now`.
    fn load_ledger(&mut self, now: SimTime, resource: &GridResource) {
        self.free_at.clear();
        self.free_at
            .extend((0..resource.nproc()).map(|i| resource.node_free_at(i).max(now)));
    }

    /// Refill `free_now` with available nodes whose ledger time is `now`.
    fn collect_free_now(&mut self, now: SimTime, up: NodeMask) {
        self.free_now.clear();
        for i in 0..self.free_at.len() {
            if up.contains(i) && self.free_at[i] <= now {
                self.free_now.push(i);
            }
        }
    }

    /// Refill `frees` with available nodes sorted by (free time, node).
    fn collect_sorted_frees(&mut self, up: NodeMask) {
        self.frees.clear();
        for i in 0..self.free_at.len() {
            if up.contains(i) {
                self.frees.push((self.free_at[i], i));
            }
        }
        self.frees.sort();
    }
}

/// The FCFS(+backfill) queue state.
#[derive(Clone, Debug)]
pub struct BatchPolicy {
    config: BatchConfig,
    queue: VecDeque<BatchJob>,
    scratch: BatchScratch,
}

impl BatchPolicy {
    /// An empty queue under `config`.
    pub fn new(config: BatchConfig) -> BatchPolicy {
        BatchPolicy {
            config,
            queue: VecDeque::new(),
            scratch: BatchScratch::default(),
        }
    }

    /// Enqueue a job: `nodes` requested, `runtime_s` predicted at that
    /// width.
    pub fn enqueue(&mut self, id: TaskId, nodes: usize, runtime_s: f64) {
        self.queue.push_back(BatchJob {
            id,
            nodes: nodes.max(1),
            runtime_s: runtime_s.max(0.0),
        });
    }

    /// Remove a queued job (cancellation). Returns whether it was queued.
    pub fn remove(&mut self, id: TaskId) -> bool {
        let before = self.queue.len();
        self.queue.retain(|j| j.id != id);
        self.queue.len() != before
    }

    /// Jobs still waiting.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Start every job the FCFS(+backfill) rules allow at `now`, against
    /// the resource's *actual* ledger. Call again after each completion.
    pub fn try_start(&mut self, now: SimTime, resource: &GridResource) -> Vec<BatchStart> {
        let BatchPolicy {
            config,
            queue,
            scratch,
        } = self;
        let config = *config;
        let mut started = Vec::new();
        // Virtual ledger so one pass can start several jobs.
        scratch.load_ledger(now, resource);
        let up = resource.available_mask();

        loop {
            let mut started_one = false;
            // 1. Start the head if its nodes are free now.
            while let Some(head) = queue.front().copied() {
                let want = head.nodes.min(up.count().max(1));
                scratch.collect_free_now(now, up);
                if scratch.free_now.len() < want {
                    break;
                }
                let mask = NodeMask::from_indices(scratch.free_now.iter().copied().take(want));
                let completion = now + SimDuration::from_secs_f64(head.runtime_s);
                for i in mask.iter() {
                    scratch.free_at[i] = completion;
                }
                started.push(BatchStart {
                    id: head.id,
                    mask,
                    completion,
                });
                queue.pop_front();
                started_one = true;
            }

            // 2. EASY backfill: one scan over the rest of the queue.
            if config.backfill {
                if let Some(head) = queue.front().copied() {
                    let want = head.nodes.min(up.count().max(1));
                    // Shadow time: when the head could start (the want-th
                    // smallest free time over available nodes).
                    scratch.collect_sorted_frees(up);
                    let shadow = scratch.frees.get(want.saturating_sub(1)).map(|(t, _)| *t);
                    let reserved: NodeMask =
                        NodeMask::from_indices(scratch.frees.iter().take(want).map(|(_, i)| *i));

                    if let Some(shadow) = shadow {
                        let mut qi = 1;
                        while qi < queue.len() {
                            let job = queue[qi];
                            let want_j = job.nodes.min(up.count().max(1));
                            scratch.collect_free_now(now, up);
                            // Prefer nodes outside the head's reservation.
                            scratch.pick.clear();
                            scratch.pick.extend(
                                scratch
                                    .free_now
                                    .iter()
                                    .copied()
                                    .filter(|i| !reserved.contains(*i)),
                            );
                            let completion = now + SimDuration::from_secs_f64(job.runtime_s);
                            if scratch.pick.len() < want_j {
                                // Borrow reserved-but-free nodes only if the
                                // job returns them before the shadow time.
                                if completion <= shadow {
                                    scratch.pick.extend(
                                        scratch
                                            .free_now
                                            .iter()
                                            .copied()
                                            .filter(|i| reserved.contains(*i)),
                                    );
                                }
                            }
                            if scratch.pick.len() >= want_j {
                                let mask = NodeMask::from_indices(
                                    scratch.pick.iter().copied().take(want_j),
                                );
                                for i in mask.iter() {
                                    scratch.free_at[i] = completion;
                                }
                                started.push(BatchStart {
                                    id: job.id,
                                    mask,
                                    completion,
                                });
                                queue.remove(qi);
                                started_one = true;
                                // The reservation may have shifted; restart
                                // the outer loop for a fresh shadow.
                                break;
                            }
                            qi += 1;
                        }
                    }
                }
            }

            if !started_one {
                break;
            }
        }
        started
    }

    /// The plan makespan: simulate the remaining queue FCFS against the
    /// ledger and report when the last job would finish (the batch
    /// system's freetime estimate for service advertisement). Takes
    /// `&mut self` only to reuse the scratch ledger; the queue is not
    /// consumed.
    pub fn plan_makespan(&mut self, now: SimTime, resource: &GridResource) -> SimTime {
        let BatchPolicy { queue, scratch, .. } = self;
        scratch.load_ledger(now, resource);
        let up = resource.available_mask();
        let navail = up.count().max(1);
        let mut makespan = scratch.free_at.iter().copied().fold(now, SimTime::max);
        for job in queue.iter() {
            let want = job.nodes.min(navail);
            scratch.collect_sorted_frees(up);
            // During a full outage no queued job has a start to predict:
            // advertise the committed ledger alone.
            let Some(&(start, _)) = scratch.frees.get(want - 1) else {
                break;
            };
            let completion = start + SimDuration::from_secs_f64(job.runtime_s);
            for &(_, i) in scratch.frees.iter().take(want) {
                scratch.free_at[i] = completion;
            }
            makespan = makespan.max(completion);
        }
        makespan
    }
}

impl LocalPolicy for BatchPolicy {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn absorb_added_task(&mut self, task: &Task, host: &Host) {
        // The "user" requests the application's reference-optimum node
        // count; the batch system never second-guesses it.
        let (k, runtime) = host.engine.best_time(&task.app, host.resource.model());
        self.enqueue(task.id, k, runtime);
    }

    fn absorb_removed_task(&mut self, _pos: usize, id: TaskId) {
        self.remove(id);
    }

    /// Start every job the FCFS(+backfill) rules admit, in the order
    /// [`BatchPolicy::try_start`] admits them, and refresh the plan
    /// makespan.
    fn dispatch(&mut self, host: &mut Host, now: SimTime, _trigger: Trigger) -> Vec<StartedTask> {
        let starts = self.try_start(now, &host.resource);
        let mut started = Vec::with_capacity(starts.len());
        for b in starts {
            let Some(pos) = host.pending.iter().position(|t| t.id == b.id) else {
                continue;
            };
            let task = host.pending.remove(pos);
            let predicted = b.completion.saturating_since(now);
            started.push(host.launch(task, b.mask, now, predicted));
        }
        host.plan_makespan = self.plan_makespan(now, &host.resource);
        started
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_pace::Platform;

    fn resource(nproc: usize) -> GridResource {
        GridResource::new("B", Platform::sgi_origin2000(), nproc)
    }

    fn policy(backfill: bool) -> BatchPolicy {
        BatchPolicy::new(BatchConfig { backfill })
    }

    #[test]
    fn head_starts_when_nodes_free() {
        let r = resource(4);
        let mut p = policy(false);
        p.enqueue(TaskId(1), 2, 10.0);
        p.enqueue(TaskId(2), 2, 10.0);
        let started = p.try_start(SimTime::ZERO, &r);
        // Both fit side by side (second becomes head after first starts).
        assert_eq!(started.len(), 2);
        assert_eq!(started[0].mask.count(), 2);
        assert!(started[0].mask.and(started[1].mask).is_empty());
        assert_eq!(p.queued(), 0);
    }

    #[test]
    fn fcfs_blocks_behind_a_wide_head() {
        let mut r = resource(4);
        // Nodes 0-1 busy until t=100.
        r.commit(
            9,
            NodeMask::from_indices([0, 1]),
            SimTime::ZERO,
            SimTime::from_secs(100),
        );
        let mut p = policy(false);
        p.enqueue(TaskId(1), 4, 10.0); // head needs all 4: must wait
        p.enqueue(TaskId(2), 1, 5.0); // would fit now, but no backfill
        let started = p.try_start(SimTime::ZERO, &r);
        assert!(started.is_empty(), "pure FCFS must head-of-line block");
        assert_eq!(p.queued(), 2);
    }

    #[test]
    fn easy_backfill_uses_spare_nodes() {
        let mut r = resource(4);
        r.commit(
            9,
            NodeMask::from_indices([0, 1]),
            SimTime::ZERO,
            SimTime::from_secs(100),
        );
        let mut p = policy(true);
        p.enqueue(TaskId(1), 4, 10.0); // head: waits for t=100
        p.enqueue(TaskId(2), 1, 500.0); // long, but fits outside reservation?
        let started = p.try_start(SimTime::ZERO, &r);
        // Head reserves the 4 earliest-free nodes = all of them; node 2/3
        // are free now but reserved, and the job (500 s) would overrun the
        // shadow time (100) — it must NOT backfill.
        assert!(started.is_empty());

        // A short job that completes before the shadow time may borrow
        // reserved-but-free nodes.
        p.enqueue(TaskId(3), 1, 50.0);
        let started = p.try_start(SimTime::ZERO, &r);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].id, TaskId(3));
        assert!(started[0].completion <= SimTime::from_secs(100));
        assert_eq!(p.queued(), 2, "head and long job still wait");
    }

    #[test]
    fn backfill_never_delays_the_head() {
        let mut r = resource(4);
        r.commit(
            9,
            NodeMask::from_indices([0, 1, 2]),
            SimTime::ZERO,
            SimTime::from_secs(30),
        );
        let mut p = policy(true);
        p.enqueue(TaskId(1), 2, 10.0); // head: shadow = t=30 (needs 2 nodes; node 3 free + one at 30)
        p.enqueue(TaskId(2), 1, 100.0); // doesn't finish by 30, but node 3 is outside??
                                        // Reservation = node 3 (free now) + one of 0-2 (free at 30). The
                                        // backfill candidate needs 1 node; the only free node (3) is
                                        // reserved and the job overruns the shadow — must wait.
        let started = p.try_start(SimTime::ZERO, &r);
        assert!(started.is_empty());
    }

    #[test]
    fn wide_requests_are_clamped_to_resource() {
        let r = resource(2);
        let mut p = policy(true);
        p.enqueue(TaskId(1), 16, 10.0);
        let started = p.try_start(SimTime::ZERO, &r);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].mask.count(), 2);
    }

    #[test]
    fn remove_cancels_queued_jobs() {
        let mut r = resource(1);
        r.commit(
            9,
            NodeMask::single(0),
            SimTime::ZERO,
            SimTime::from_secs(50),
        );
        let mut p = policy(false);
        p.enqueue(TaskId(1), 1, 10.0);
        assert!(p.remove(TaskId(1)));
        assert!(!p.remove(TaskId(1)));
        assert_eq!(p.queued(), 0);
    }

    #[test]
    fn plan_makespan_simulates_the_queue() {
        let r = resource(2);
        let mut p = policy(false);
        p.enqueue(TaskId(1), 2, 10.0);
        p.enqueue(TaskId(2), 2, 10.0);
        // Sequential 2-wide jobs: 20 s.
        assert_eq!(p.plan_makespan(SimTime::ZERO, &r), SimTime::from_secs(20));
        assert_eq!(p.queued(), 2, "planning must not consume the queue");
    }

    #[test]
    fn plan_makespan_survives_a_full_outage() {
        let mut r = resource(2);
        r.commit(
            9,
            NodeMask::single(0),
            SimTime::ZERO,
            SimTime::from_secs(30),
        );
        r.set_node_available(0, false);
        r.set_node_available(1, false);
        let mut p = policy(true);
        p.enqueue(TaskId(1), 1, 10.0);
        assert!(p.try_start(SimTime::ZERO, &r).is_empty());
        assert_eq!(p.plan_makespan(SimTime::ZERO, &r), SimTime::from_secs(30));
    }
}
