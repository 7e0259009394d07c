//! The local-grid scheduling system (paper §2.2, Fig. 3).
//!
//! One [`SchedulerSystem`] per grid resource assembles the six functional
//! modules of Fig. 3: the communication module is the public API surface
//! (submit / results / service information), task management is the
//! pending queue with unique ids, GA scheduling or the FIFO baseline is
//! the policy, resource monitoring drives availability, task execution is
//! virtual (test mode — completions are reported back by the simulation
//! driver), and the PACE evaluation engine is shared through the
//! demand-driven cache.
//!
//! ### One dispatch path
//!
//! Every policy (FIFO, batch, the GA, min-min, max-min, sufferage and
//! annealing) sits behind one `LocalPolicy` trait object. The system
//! keeps everything else (queues, resource ledger, noise, telemetry) in
//! a `Host` and, on every event, lets the policy absorb the change and
//! then dispatch: the policy starts whatever is due through
//! `Host::launch`, the single routine that draws the noise factor,
//! commits the ledger and records the start. Policies differ only in
//! the hooks they implement.
//!
//! ### Event protocol
//!
//! The driver calls [`SchedulerSystem::submit`] on request arrival,
//! [`SchedulerSystem::on_task_complete`] when a previously returned
//! [`StartedTask`]'s completion instant arrives, and
//! [`SchedulerSystem::on_monitor_poll`] on the monitor's schedule. Every
//! call returns the tasks that began executing as a consequence; the
//! driver schedules their completion events. Because planned start times
//! always coincide with `now` or with the completion of a running task,
//! this protocol never misses a start.

use crate::batch::{BatchConfig, BatchPolicy};
use crate::fifo::FifoPolicy;
use crate::ga::{GaConfig, GaScheduler};
use crate::policy::{AnnealingPolicy, HeuristicPolicy, HeuristicRule, SaConfig};
use crate::task::{CompletedTask, Task, TaskId};
use agentgrid_cluster::{ExecEnv, GridResource, NodeMask, ResourceMonitor};
use agentgrid_pace::{ApplicationModel, CachedEngine, NoiseModel};
use agentgrid_sim::{RngStream, SimDuration, SimTime};
use agentgrid_telemetry::{Event, Telemetry};
use std::sync::Arc;

/// Which scheduling policy a system runs (Table 2's experiment knob,
/// plus the batch-queue baseline from the paper's related work, plus
/// the pluggable policy zoo of [`crate::policy`]).
#[derive(Clone, Debug)]
pub enum PolicyConfig {
    /// First-come-first-served with the exhaustive-equivalent allocation
    /// search, fixed at arrival.
    Fifo,
    /// The genetic-algorithm scheduler.
    Ga(GaConfig),
    /// Condor/LSF-style batch queueing: user-requested node counts,
    /// strict FCFS, optional EASY backfill — no performance-driven
    /// allocation choice.
    Batch(BatchConfig),
    /// The min-min batch heuristic (smallest best-completion first).
    MinMin,
    /// The max-min batch heuristic (largest best-completion first).
    MaxMin,
    /// The sufferage batch heuristic (largest best-vs-second-best gap
    /// first).
    Sufferage,
    /// Seeded simulated annealing over the two-part coding.
    Annealing(SaConfig),
}

/// The event that asked a policy to dispatch. Only FIFO tells them
/// apart: its fixed plans dispatch nothing on a cancel, nor on a
/// submit during a full outage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Trigger {
    /// A task was submitted.
    Submit,
    /// A pending task was cancelled.
    Cancel,
    /// A running task completed.
    Complete,
    /// The resource monitor polled.
    Poll,
}

/// A local scheduling policy as [`SchedulerSystem`] drives it. FIFO and
/// batch implement it directly; every [`Planner`](crate::policy::Planner)
/// (the GA, the heuristics, annealing) through one blanket impl.
pub(crate) trait LocalPolicy: Send + Sync {
    /// Stable lowercase identifier (`"fifo"`, `"ga"`, `"batch"`, …) —
    /// the same token the CLI, recordings and result JSON use.
    fn name(&self) -> &'static str;

    /// Wire telemetry, labelling events with the owning resource name.
    fn set_telemetry(&mut self, _telemetry: Telemetry, _label: &str) {}

    /// The tunable search budget, if the policy has one.
    fn budget(&self) -> Option<usize> {
        None
    }

    /// Adjust the search budget; returns whether the knob exists.
    fn set_budget(&mut self, _budget: usize) -> bool {
        false
    }

    /// `task` arrives; it is appended to the pending queue next.
    fn absorb_added_task(&mut self, _task: &Task, _host: &Host) {}

    /// Pending task `id` at index `pos` left the queue without starting
    /// (cancelled, drained or lost in a crash); later indices shift
    /// down by one.
    fn absorb_removed_task(&mut self, pos: usize, id: TaskId);

    /// The resource crashed; the policy restarts from a clean slate.
    fn restart(&mut self, _nproc: usize) {}

    /// Start whatever is due at `now` through [`Host::launch`] and
    /// refresh `host.plan_makespan` when the plan changed. Returns the
    /// started tasks in the order the driver schedules their completions.
    fn dispatch(&mut self, host: &mut Host, now: SimTime, trigger: Trigger) -> Vec<StartedTask>;
}

/// A task that has just started executing; the driver must schedule its
/// completion event at `completion`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StartedTask {
    /// The task.
    pub id: TaskId,
    /// Nodes it runs on.
    pub mask: NodeMask,
    /// Start instant.
    pub start: SimTime,
    /// Completion instant (test mode: prediction assumed accurate).
    pub completion: SimTime,
}

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The scheduler does not offer the requested execution environment.
    UnsupportedEnvironment,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnsupportedEnvironment => {
                f.write_str("requested execution environment is not supported")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

struct RunningTask {
    task: Task,
    mask: NodeMask,
    start: SimTime,
    completion: SimTime,
}

/// Everything a policy dispatches against apart from the policy itself,
/// kept apart from [`SchedulerSystem`] so the policy can borrow it
/// mutably while the system holds the policy.
pub(crate) struct Host {
    pub(crate) resource: GridResource,
    pub(crate) engine: Arc<CachedEngine>,
    /// Tasks queued but not yet executing, in arrival order.
    pub(crate) pending: Vec<Task>,
    running: Vec<RunningTask>,
    /// The makespan of the policy's latest plan, advertised as freetime.
    pub(crate) plan_makespan: SimTime,
    noise: NoiseModel,
    noise_rng: RngStream,
    telemetry: Telemetry,
}

impl Host {
    /// Start `task` on `mask` at `start`: its actual duration is the
    /// `predicted` one scaled by a draw from the prediction-error model,
    /// committed to the resource ledger before the caller picks the next
    /// launch.
    pub(crate) fn launch(
        &mut self,
        task: Task,
        mask: NodeMask,
        start: SimTime,
        predicted: SimDuration,
    ) -> StartedTask {
        let completion = if self.noise.is_exact() {
            start + predicted
        } else {
            let factor = self.noise.factor(&mut self.noise_rng);
            start + SimDuration::from_secs_f64(predicted.as_secs_f64() * factor)
        };
        self.resource.commit(task.id.0, mask, start, completion);
        self.telemetry.emit(start.ticks(), || Event::TaskStart {
            task: task.id.0,
            resource: self.resource.name().to_string(),
            nodes: mask.count() as u32,
            queue_wait: start.saturating_since(task.arrival).ticks(),
        });
        let started = StartedTask {
            id: task.id,
            mask,
            start,
            completion,
        };
        self.running.push(RunningTask {
            task,
            mask,
            start,
            completion,
        });
        started
    }
}

/// A performance-driven local grid scheduler (one per grid resource).
pub struct SchedulerSystem {
    host: Host,
    policy: Box<dyn LocalPolicy>,
    monitor: ResourceMonitor,
    supported_envs: Vec<ExecEnv>,
    completed: Vec<CompletedTask>,
}

impl SchedulerSystem {
    /// Build a scheduler for `resource` under `policy`, sharing the PACE
    /// cache `engine`. The GA draws randomness from `rng`.
    pub fn new(
        resource: GridResource,
        policy: PolicyConfig,
        engine: Arc<CachedEngine>,
        rng: RngStream,
    ) -> SchedulerSystem {
        let noise_rng = rng.derive("noise");
        let policy: Box<dyn LocalPolicy> = match policy {
            PolicyConfig::Fifo => Box::new(FifoPolicy::new(resource.nproc())),
            PolicyConfig::Ga(cfg) => Box::new(GaScheduler::new(cfg, rng)),
            PolicyConfig::Batch(cfg) => Box::new(BatchPolicy::new(cfg)),
            PolicyConfig::MinMin => Box::new(HeuristicPolicy::new(HeuristicRule::MinMin)),
            PolicyConfig::MaxMin => Box::new(HeuristicPolicy::new(HeuristicRule::MaxMin)),
            PolicyConfig::Sufferage => Box::new(HeuristicPolicy::new(HeuristicRule::Sufferage)),
            PolicyConfig::Annealing(cfg) => Box::new(AnnealingPolicy::new(cfg, rng)),
        };
        SchedulerSystem {
            host: Host {
                resource,
                engine,
                pending: Vec::new(),
                running: Vec::new(),
                plan_makespan: SimTime::ZERO,
                noise: NoiseModel::Exact,
                noise_rng,
                telemetry: Telemetry::disabled(),
            },
            policy,
            monitor: ResourceMonitor::default(),
            supported_envs: vec![ExecEnv::Mpi, ExecEnv::Pvm, ExecEnv::Test],
            completed: Vec::new(),
        }
    }

    /// Record task-lifecycle telemetry (submit/start/finish/deadline
    /// miss), and wire the planning kernel's per-event events (the GA's
    /// generations, every planner's solution checks). Disabled by
    /// default.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.policy
            .set_telemetry(telemetry.clone(), self.host.resource.name());
        self.host.telemetry = telemetry;
    }

    /// Enable a prediction-error model: from now on every dispatched
    /// task's *actual* duration is its prediction scaled by a factor
    /// drawn from `model`. Planning continues to use the raw predictions
    /// — the point of the paper's accuracy-sensitivity future work.
    pub fn set_noise(&mut self, model: NoiseModel) {
        self.host.noise = model;
    }

    /// The prediction-error model in force.
    pub fn noise(&self) -> NoiseModel {
        self.host.noise
    }

    /// The grid resource this scheduler manages.
    pub fn resource(&self) -> &GridResource {
        &self.host.resource
    }

    /// Mutable access to the monitor (for failure injection).
    pub fn monitor_mut(&mut self) -> &mut ResourceMonitor {
        &mut self.monitor
    }

    /// Execution environments offered (advertised in service info).
    pub fn supported_envs(&self) -> &[ExecEnv] {
        &self.supported_envs
    }

    /// Restrict the offered environments.
    pub fn set_supported_envs(&mut self, envs: Vec<ExecEnv>) {
        self.supported_envs = envs;
    }

    /// Whether the given environment is offered.
    pub fn supports(&self, env: ExecEnv) -> bool {
        self.supported_envs.contains(&env)
    }

    /// Tasks queued but not yet executing.
    pub fn queue_len(&self) -> usize {
        self.host.pending.len()
    }

    /// Tasks currently executing.
    pub fn running_len(&self) -> usize {
        self.host.running.len()
    }

    /// Finished tasks with their final allocations.
    pub fn completed(&self) -> &[CompletedTask] {
        &self.completed
    }

    /// The shared PACE evaluation cache.
    pub fn engine(&self) -> &Arc<CachedEngine> {
        &self.host.engine
    }

    /// The *freetime* this scheduler advertises (§3.2): the latest
    /// scheduling makespan — the earliest (approximate) instant its
    /// processors become available for more tasks.
    pub fn freetime(&self, now: SimTime) -> SimTime {
        self.host
            .plan_makespan
            .max(self.host.resource.makespan())
            .max(now)
    }

    /// Estimate the completion instant of a hypothetical task of `app`
    /// submitted now (eq. 10): advertised freetime plus the best predicted
    /// execution time over all processor counts.
    pub fn estimate_completion(&self, app: &ApplicationModel, now: SimTime) -> SimTime {
        let (_, best) = self.host.engine.best_time(app, self.host.resource.model());
        self.freetime(now) + SimDuration::from_secs_f64(best)
    }

    /// Submit a task (communication module input). Returns the tasks that
    /// started executing as an immediate consequence.
    pub fn submit(&mut self, task: Task, now: SimTime) -> Result<Vec<StartedTask>, SubmitError> {
        if !self.supports(task.env) {
            return Err(SubmitError::UnsupportedEnvironment);
        }
        self.host.telemetry.emit(now.ticks(), || Event::TaskSubmit {
            task: task.id.0,
            resource: self.host.resource.name().to_string(),
            deadline: task.deadline.ticks(),
        });
        self.policy.absorb_added_task(&task, &self.host);
        self.host.pending.push(task);
        let started = self.policy.dispatch(&mut self.host, now, Trigger::Submit);
        // Sampled *after* planning absorbed the submit, so checkers can
        // hold the advertised freetime against the instant and the ledger.
        self.host
            .telemetry
            .emit(now.ticks(), || Event::FreetimeSample {
                resource: self.host.resource.name().to_string(),
                freetime: self.freetime(now).ticks(),
                committed: self.host.resource.makespan().ticks(),
            });
        Ok(started)
    }

    /// Cancel a task that has not started executing ("task management
    /// also interfaces with the operations on the task queue, including
    /// adding, deleting or inserting tasks"). Running or unknown tasks
    /// are not cancellable; returns whether a task was removed. Under the
    /// GA the population absorbs the deletion; under FIFO the fixed
    /// allocation is dropped (its reserved slot simply goes unused —
    /// fixed plans are never re-optimised, matching the baseline's
    /// semantics).
    ///
    /// Returns `None` if the task was not pending; otherwise any tasks
    /// that started as a consequence of the re-plan (the caller must
    /// schedule their completions, as with [`SchedulerSystem::submit`]).
    pub fn cancel(&mut self, id: TaskId, now: SimTime) -> Option<Vec<StartedTask>> {
        let pos = self.host.pending.iter().position(|t| t.id == id)?;
        self.host.pending.remove(pos);
        self.policy.absorb_removed_task(pos, id);
        Some(self.policy.dispatch(&mut self.host, now, Trigger::Cancel))
    }

    /// Drain every *queued* task for a planned scale-down: pending tasks
    /// are removed and returned (sorted by id) for grid-level
    /// re-placement, while running tasks keep executing to completion —
    /// the graceful half of [`SchedulerSystem::crash`]. The resource
    /// ledger and completed history are untouched.
    pub fn drain_pending(&mut self, _now: SimTime) -> Vec<Task> {
        let mut drained = self.take_pending();
        drained.sort_by_key(|t| t.id.0);
        drained
    }

    /// Remove every pending task from the queue and the policy.
    fn take_pending(&mut self) -> Vec<Task> {
        // Tail first, so earlier indices stay valid.
        for (pos, task) in self.host.pending.iter().enumerate().rev() {
            self.policy.absorb_removed_task(pos, task.id);
        }
        std::mem::take(&mut self.host.pending)
    }

    /// The planned policy's search budget (GA: generations per event;
    /// annealing: iterations), or `None` when the policy has no such
    /// knob (FIFO, batch, the stateless heuristics).
    pub fn ga_generations(&self) -> Option<usize> {
        self.policy.budget()
    }

    /// Adjust the search budget at runtime (no-op for policies without
    /// one; returns whether the knob existed). Search budget only —
    /// queue contents and bookkeeping are untouched.
    pub fn set_ga_generations(&mut self, generations: usize) -> bool {
        self.policy.set_budget(generations)
    }

    /// The stable lowercase name of the policy in force (`"fifo"`,
    /// `"ga"`, `"batch"`, `"minmin"`, …).
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Whether `id` is currently executing here. The grid's chaos layer
    /// uses this to recognise completion events that outlived a crash.
    pub fn is_running(&self, id: TaskId) -> bool {
        self.host.running.iter().any(|r| r.task.id == id)
    }

    /// The recorded completion instant of a currently running task, or
    /// `None` if `id` is not running here. A genuine completion event
    /// always fires at exactly this instant, so the chaos layer can
    /// tell a live completion from one scheduled for a lost-and-
    /// resubmitted incarnation of the same task.
    pub fn running_completion(&self, id: TaskId) -> Option<SimTime> {
        self.host
            .running
            .iter()
            .find(|r| r.task.id == id)
            .map(|r| r.completion)
    }

    /// Crash this scheduler's resource at `now`: every running and
    /// queued task is lost and returned (sorted by id) for grid-level
    /// recovery, in-flight allocations are truncated on the resource
    /// ledger, and the plan is reset so a restarted scheduler starts
    /// from a clean slate. Completed-task history survives — it already
    /// happened.
    pub fn crash(&mut self, now: SimTime) -> Vec<Task> {
        let mut lost: Vec<Task> = self.host.running.drain(..).map(|r| r.task).collect();
        lost.append(&mut self.take_pending());
        self.host.resource.abort_running(now);
        self.policy.restart(self.host.resource.nproc());
        self.host.plan_makespan = SimTime::ZERO;
        lost.sort_by_key(|t| t.id.0);
        lost
    }

    /// Report that a running task's completion instant has arrived.
    /// Returns the tasks that started as a consequence.
    ///
    /// # Panics
    /// If `id` is running here with a different completion instant: the
    /// driver delivered a completion event scheduled for another
    /// incarnation of the task.
    pub fn on_task_complete(&mut self, id: TaskId, now: SimTime) -> Vec<StartedTask> {
        if let Some(pos) = self.host.running.iter().position(|r| r.task.id == id) {
            let r = self.host.running.swap_remove(pos);
            assert!(r.completion == now, "completion event at the wrong instant");
            let deadline = r.task.deadline;
            let met = r.completion <= deadline;
            let name = self.host.resource.name();
            self.host
                .telemetry
                .emit(r.completion.ticks(), || Event::TaskFinish {
                    task: id.0,
                    resource: name.to_string(),
                    deadline_met: met,
                });
            if !met {
                let late = r.completion.saturating_since(deadline);
                self.host
                    .telemetry
                    .emit(r.completion.ticks(), || Event::TaskDeadlineMiss {
                        task: id.0,
                        resource: name.to_string(),
                        late: late.ticks(),
                    });
            }
            self.completed.push(CompletedTask {
                resource: name.to_string(),
                task: r.task,
                mask: r.mask,
                start: r.start,
                completion: r.completion,
            });
        }
        self.policy.dispatch(&mut self.host, now, Trigger::Complete)
    }

    /// Run a monitor poll (availability refresh) and restart planning.
    pub fn on_monitor_poll(&mut self, now: SimTime) -> Vec<StartedTask> {
        self.monitor.poll(now, &mut self.host.resource);
        self.policy.dispatch(&mut self.host, now, Trigger::Poll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_pace::{AppId, ApplicationModel, ModelCurve, Platform, TabulatedModel};

    fn app(times: Vec<f64>) -> Arc<ApplicationModel> {
        // Distinct ids per model: the evaluation cache keys on the id.
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(0);
        Arc::new(
            ApplicationModel::new(
                AppId(NEXT.fetch_add(1, Ordering::Relaxed)),
                "t",
                ModelCurve::Tabulated(TabulatedModel::new(times).unwrap()),
                (1.0, 1000.0),
            )
            .unwrap(),
        )
    }

    fn mk_task(id: u64, app: &Arc<ApplicationModel>, deadline_s: u64) -> Task {
        Task::new(
            TaskId(id),
            app.clone(),
            SimTime::ZERO,
            SimTime::from_secs(deadline_s),
            ExecEnv::Test,
        )
    }

    fn fifo_system(nproc: usize) -> SchedulerSystem {
        system(PolicyConfig::Fifo, nproc, 1)
    }

    fn ga_system(nproc: usize, seed: u64) -> SchedulerSystem {
        system(PolicyConfig::Ga(GaConfig::default()), nproc, seed)
    }

    fn system(policy: PolicyConfig, nproc: usize, seed: u64) -> SchedulerSystem {
        SchedulerSystem::new(
            GridResource::new("S1", Platform::sgi_origin2000(), nproc),
            policy,
            Arc::new(CachedEngine::new()),
            RngStream::root(seed),
        )
    }

    /// One system per policy, all seven.
    fn every_policy(nproc: usize, seed: u64) -> Vec<SchedulerSystem> {
        [
            PolicyConfig::Fifo,
            PolicyConfig::Ga(GaConfig::default()),
            PolicyConfig::Batch(BatchConfig::default()),
            PolicyConfig::MinMin,
            PolicyConfig::MaxMin,
            PolicyConfig::Sufferage,
            PolicyConfig::Annealing(SaConfig::default()),
        ]
        .into_iter()
        .map(|policy| system(policy, nproc, seed))
        .collect()
    }

    /// Drive a system to quiescence, returning all completions in order.
    fn drain(system: &mut SchedulerSystem, mut started: Vec<StartedTask>) -> Vec<StartedTask> {
        let mut all = started.clone();
        while !started.is_empty() {
            started.sort_by_key(|s| (s.completion, s.id.0));
            let next = started.remove(0);
            let newly = system.on_task_complete(next.id, next.completion);
            all.extend(newly.iter().copied());
            started.extend(newly);
        }
        all
    }

    #[test]
    fn unsupported_environment_is_rejected() {
        let mut s = fifo_system(2);
        s.set_supported_envs(vec![ExecEnv::Mpi]);
        let a = app(vec![10.0, 6.0]);
        let err = s.submit(mk_task(1, &a, 100), SimTime::ZERO).unwrap_err();
        assert_eq!(err, SubmitError::UnsupportedEnvironment);
    }

    #[test]
    fn fifo_runs_tasks_to_completion() {
        let mut s = fifo_system(2);
        let a = app(vec![10.0, 10.0]);
        let mut started = Vec::new();
        for id in 1..=3 {
            started.extend(s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap());
        }
        assert_eq!(started.len(), 2, "two nodes, two immediate starts");
        drain(&mut s, started);
        assert_eq!(s.completed().len(), 3);
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.running_len(), 0);
        // Third task ran 10..20 on whichever node freed first.
        let last = s
            .completed()
            .iter()
            .find(|c| c.task.id == TaskId(3))
            .unwrap();
        assert_eq!(last.start, SimTime::from_secs(10));
        assert_eq!(last.completion, SimTime::from_secs(20));
    }

    #[test]
    fn ga_runs_tasks_to_completion() {
        let mut s = ga_system(4, 5);
        let a = app(vec![12.0, 8.0, 6.0, 5.0]);
        let mut started = Vec::new();
        for id in 1..=6 {
            started.extend(s.submit(mk_task(id, &a, 600), SimTime::ZERO).unwrap());
        }
        drain(&mut s, started);
        assert_eq!(s.completed().len(), 6);
        assert_eq!(s.queue_len(), 0);
        // Every completion honoured the PACE prediction for its node count.
        for c in s.completed() {
            let expected = s
                .engine()
                .evaluate(&c.task.app, s.resource().model(), c.mask.count());
            let got = c.completion.saturating_since(c.start).as_secs_f64();
            assert!((got - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn freetime_tracks_plan_makespan() {
        let mut s = fifo_system(1);
        let a = app(vec![10.0]);
        assert_eq!(s.freetime(SimTime::ZERO), SimTime::ZERO);
        s.submit(mk_task(1, &a, 1000), SimTime::ZERO).unwrap();
        s.submit(mk_task(2, &a, 1000), SimTime::ZERO).unwrap();
        assert_eq!(s.freetime(SimTime::ZERO), SimTime::from_secs(20));
        // freetime never reports the past.
        assert_eq!(s.freetime(SimTime::from_secs(50)), SimTime::from_secs(50));
    }

    #[test]
    fn estimate_completion_uses_best_processor_count() {
        let s = fifo_system(4);
        let a = app(vec![40.0, 20.0, 13.0, 10.0]);
        let eta = s.estimate_completion(&a, SimTime::ZERO);
        assert_eq!(eta, SimTime::from_secs(10));
    }

    #[test]
    fn ga_respects_deadlines_when_feasible() {
        let mut s = ga_system(4, 7);
        let a = app(vec![10.0; 4]);
        let mut started = Vec::new();
        for id in 1..=4 {
            started.extend(s.submit(mk_task(id, &a, 15), SimTime::ZERO).unwrap());
        }
        drain(&mut s, started);
        assert_eq!(s.completed().len(), 4);
        for c in s.completed() {
            assert!(c.met_deadline(), "{:?} missed", c.task.id);
        }
    }

    #[test]
    fn submissions_at_different_times_queue_correctly() {
        let mut s = fifo_system(1);
        let a = app(vec![10.0]);
        let st1 = s.submit(mk_task(1, &a, 1000), SimTime::ZERO).unwrap();
        assert_eq!(st1.len(), 1);
        // Second task arrives mid-execution of the first.
        let st2 = s
            .submit(mk_task(2, &a, 1000), SimTime::from_secs(4))
            .unwrap();
        assert!(st2.is_empty());
        let st3 = s.on_task_complete(TaskId(1), SimTime::from_secs(10));
        assert_eq!(st3.len(), 1);
        assert_eq!(st3[0].start, SimTime::from_secs(10));
    }

    #[test]
    fn monitor_poll_is_safe_noop_when_nothing_changed() {
        let mut s = ga_system(2, 9);
        let started = s.on_monitor_poll(SimTime::ZERO);
        assert!(started.is_empty());
    }

    #[test]
    fn noise_perturbs_actual_durations_but_loses_no_task() {
        use agentgrid_pace::NoiseModel;
        for mut s in every_policy(4, 21) {
            let name = s.policy_name();
            s.set_noise(NoiseModel::Uniform { rel: 0.4 });
            let a = app(vec![20.0, 12.0, 9.0, 8.0]);
            let mut started = Vec::new();
            for id in 1..=10 {
                started.extend(s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap());
            }
            drain(&mut s, started);
            assert_eq!(s.completed().len(), 10, "{name}");
            // Some durations must deviate from the prediction, all within
            // the ±40 % band.
            let mut deviated = 0;
            for c in s.completed() {
                let predicted =
                    s.engine()
                        .evaluate(&c.task.app, s.resource().model(), c.mask.count());
                let actual = c.completion.saturating_since(c.start).as_secs_f64();
                let ratio = actual / predicted;
                assert!(
                    (0.6..=1.4).contains(&ratio),
                    "{name}: ratio {ratio} outside the noise band"
                );
                if (ratio - 1.0).abs() > 1e-9 {
                    deviated += 1;
                }
            }
            assert!(deviated >= 8, "{name}: noise must actually perturb runs");
        }
    }

    #[test]
    fn noise_never_double_books_nodes() {
        use agentgrid_pace::NoiseModel;
        let mut s = fifo_system(2);
        s.set_noise(NoiseModel::LogNormal { sigma: 0.5 });
        let a = app(vec![10.0, 10.0]);
        let mut started = Vec::new();
        for id in 1..=12 {
            started.extend(s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap());
        }
        drain(&mut s, started);
        assert_eq!(s.completed().len(), 12);
        let mut per_node: Vec<Vec<(SimTime, SimTime)>> = vec![vec![]; 2];
        for alloc in s.resource().allocations() {
            for i in alloc.mask.iter() {
                per_node[i].push((alloc.start, alloc.end));
            }
        }
        for intervals in &mut per_node {
            intervals.sort();
            for w in intervals.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap under noise");
            }
        }
    }

    #[test]
    fn cancel_removes_pending_tasks_only() {
        for mut s in every_policy(1, 44) {
            let name = s.policy_name();
            let a = app(vec![10.0]);
            // Task 1 starts immediately; 2 and 3 queue behind it.
            let mut started = Vec::new();
            for id in 1..=3 {
                started.extend(s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap());
            }
            assert_eq!(s.queue_len(), 2, "{name}");
            // Running task is not cancellable.
            assert!(s.cancel(TaskId(1), SimTime::ZERO).is_none(), "{name}");
            // Unknown task is not cancellable.
            assert!(s.cancel(TaskId(99), SimTime::ZERO).is_none(), "{name}");
            // Pending task 2 is.
            let extra = s.cancel(TaskId(2), SimTime::ZERO).expect("task 2 pending");
            started.extend(extra);
            assert_eq!(s.queue_len(), 1, "{name}");
            drain(&mut s, started);
            let ids: Vec<u64> = s.completed().iter().map(|c| c.task.id.0).collect();
            assert!(
                ids.contains(&1) && ids.contains(&3) && !ids.contains(&2),
                "{name}: completed {ids:?}"
            );
        }
    }

    #[test]
    fn cancel_frees_ga_capacity_for_later_tasks() {
        let mut s = ga_system(1, 45);
        let a = app(vec![100.0]);
        let quick = app(vec![5.0]);
        let mut started = Vec::new();
        started.extend(s.submit(mk_task(1, &a, 10_000), SimTime::ZERO).unwrap());
        started.extend(s.submit(mk_task(2, &a, 10_000), SimTime::ZERO).unwrap());
        started.extend(s.submit(mk_task(3, &quick, 10_000), SimTime::ZERO).unwrap());
        // Cancel the queued long task; the quick task should now complete
        // right after the running one (t = 105) instead of t = 205.
        s.cancel(TaskId(2), SimTime::ZERO).expect("pending");
        drain(&mut s, started);
        let quick_done = s
            .completed()
            .iter()
            .find(|c| c.task.id == TaskId(3))
            .expect("quick task ran");
        assert_eq!(quick_done.completion, SimTime::from_secs(105));
    }

    #[test]
    fn cancel_of_running_task_with_pending_poll_leaves_no_ghost_completion() {
        // Regression: a cancel aimed at the *running* task while a monitor
        // poll is outstanding must refuse cleanly — the poll must not start
        // anything on the busy node, the already-scheduled completion event
        // must still land, and the task must complete exactly once.
        for mut s in every_policy(1, 46) {
            let name = s.policy_name();
            let a = app(vec![10.0]);
            let started = s.submit(mk_task(1, &a, 1000), SimTime::ZERO).unwrap();
            assert_eq!(started.len(), 1, "{name}: one node, one start");
            let completion = started[0].completion;
            assert!(s
                .submit(mk_task(2, &a, 1000), SimTime::ZERO)
                .unwrap()
                .is_empty());
            assert_eq!(s.queue_len(), 1, "{name}: task 2 queued behind");

            // The running task is not cancellable; nothing is disturbed.
            assert!(s.cancel(TaskId(1), SimTime::from_secs(2)).is_none());
            assert!(s.is_running(TaskId(1)), "{name}");
            assert_eq!(s.running_len(), 1, "{name}");
            assert_eq!(s.queue_len(), 1, "{name}");
            assert_eq!(s.running_completion(TaskId(1)), Some(completion));

            // The pending poll fires mid-run: the node is still busy, so
            // no task may start and the refused cancel must not resurface.
            let mid = s.on_monitor_poll(SimTime::from_secs(5));
            assert!(
                mid.is_empty(),
                "{name}: poll started {mid:?} on a busy node"
            );
            assert!(s.is_running(TaskId(1)), "{name}");
            assert_eq!(s.completed().len(), 0, "{name}: nothing completed yet");

            // The completion event scheduled at submit time still lands.
            let after = s.on_task_complete(TaskId(1), completion);
            drain(&mut s, after);

            let firsts = s
                .completed()
                .iter()
                .filter(|c| c.task.id == TaskId(1))
                .count();
            assert_eq!(firsts, 1, "{name}: exactly one completion for task 1");
            assert_eq!(s.completed().len(), 2, "{name}: both tasks ran");
            assert_eq!(s.queue_len(), 0, "{name}");
            assert_eq!(s.running_len(), 0, "{name}");
        }
    }

    #[test]
    fn crash_loses_queued_and_running_work() {
        for mut s in every_policy(1, 77) {
            let name = s.policy_name();
            let a = app(vec![10.0]);
            // Task 1 runs; 2 and 3 queue behind it.
            for id in 1..=3 {
                s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap();
            }
            assert!(s.is_running(TaskId(1)), "{name}");
            assert_eq!(s.queue_len(), 2, "{name}");
            let lost = s.crash(SimTime::from_secs(4));
            let ids: Vec<u64> = lost.iter().map(|t| t.id.0).collect();
            assert_eq!(ids, [1, 2, 3], "{name}: everything not completed is lost");
            assert_eq!(s.queue_len(), 0, "{name}");
            assert_eq!(s.running_len(), 0, "{name}");
            assert!(!s.is_running(TaskId(1)), "{name}");
            assert!(s.completed().is_empty(), "{name}");
            // The ledger is truncated at the crash: freetime == now.
            assert_eq!(
                s.freetime(SimTime::from_secs(4)),
                SimTime::from_secs(4),
                "{name}"
            );
            // The restarted scheduler accepts and completes new work.
            let started = s
                .submit(mk_task(4, &a, 1000), SimTime::from_secs(4))
                .unwrap();
            assert_eq!(started.len(), 1, "{name}");
            assert_eq!(started[0].start, SimTime::from_secs(4), "{name}");
            drain(&mut s, started);
            assert_eq!(s.completed().len(), 1, "{name}");
        }
    }

    #[test]
    fn crash_then_resubmit_completes_the_lost_tasks() {
        let mut s = ga_system(2, 78);
        let a = app(vec![10.0, 10.0]);
        let mut started = Vec::new();
        for id in 1..=4 {
            started.extend(s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap());
        }
        let lost = s.crash(SimTime::from_secs(3));
        assert_eq!(lost.len(), 4);
        // Re-submit everything at the restart instant, as the grid does.
        let mut started = Vec::new();
        for t in lost {
            started.extend(s.submit(t, SimTime::from_secs(30)).unwrap());
        }
        drain(&mut s, started);
        assert_eq!(s.completed().len(), 4);
        let ids: std::collections::BTreeSet<u64> =
            s.completed().iter().map(|c| c.task.id.0).collect();
        assert_eq!(ids.len(), 4, "each task completes exactly once");
    }

    #[test]
    fn policy_names_are_stable_tokens() {
        let names: Vec<&str> = every_policy(2, 1).iter().map(|s| s.policy_name()).collect();
        assert_eq!(
            names,
            [
                "fifo",
                "ga",
                "batch",
                "minmin",
                "maxmin",
                "sufferage",
                "anneal"
            ]
        );
    }

    #[test]
    fn exact_noise_matches_noiseless_run() {
        use agentgrid_pace::NoiseModel;
        let run = |with_noise: bool| {
            let mut s = ga_system(4, 33);
            if with_noise {
                s.set_noise(NoiseModel::Exact);
            }
            let a = app(vec![12.0, 8.0, 6.0, 5.0]);
            let mut started = Vec::new();
            for id in 1..=6 {
                started.extend(s.submit(mk_task(id, &a, 600), SimTime::ZERO).unwrap());
            }
            drain(&mut s, started);
            s.completed()
                .iter()
                .map(|c| (c.task.id.0, c.start, c.completion))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::batch::BatchConfig;
    use agentgrid_pace::{AppId, ApplicationModel, ModelCurve, Platform, TabulatedModel};

    fn app(times: Vec<f64>) -> Arc<ApplicationModel> {
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(1000);
        Arc::new(
            ApplicationModel::new(
                AppId(NEXT.fetch_add(1, Ordering::Relaxed)),
                "b",
                ModelCurve::Tabulated(TabulatedModel::new(times).unwrap()),
                (1.0, 1000.0),
            )
            .unwrap(),
        )
    }

    fn mk_task(id: u64, app: &Arc<ApplicationModel>, deadline_s: u64) -> Task {
        Task::new(
            TaskId(id),
            app.clone(),
            SimTime::ZERO,
            SimTime::from_secs(deadline_s),
            ExecEnv::Test,
        )
    }

    fn batch_system(nproc: usize, backfill: bool) -> SchedulerSystem {
        SchedulerSystem::new(
            GridResource::new("B1", Platform::sgi_origin2000(), nproc),
            PolicyConfig::Batch(BatchConfig { backfill }),
            Arc::new(CachedEngine::new()),
            RngStream::root(61),
        )
    }

    fn drain(system: &mut SchedulerSystem, mut started: Vec<StartedTask>) {
        while !started.is_empty() {
            started.sort_by_key(|s| (s.completion, s.id.0));
            let next = started.remove(0);
            started.extend(system.on_task_complete(next.id, next.completion));
        }
    }

    #[test]
    fn batch_runs_tasks_at_the_user_requested_width() {
        let mut s = batch_system(4, true);
        // Optimum is 4 nodes (monotone speedup).
        let a = app(vec![40.0, 20.0, 14.0, 10.0]);
        let mut started = Vec::new();
        for id in 1..=3 {
            started.extend(s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap());
        }
        drain(&mut s, started);
        assert_eq!(s.completed().len(), 3);
        for c in s.completed() {
            assert_eq!(c.mask.count(), 4, "batch honours the requested width");
            let dur = c.completion.saturating_since(c.start).as_secs_f64();
            assert!((dur - 10.0).abs() < 1e-6);
        }
        // Strictly sequential: 3 × 10 s.
        let last = s.completed().iter().map(|c| c.completion).max().unwrap();
        assert_eq!(last, SimTime::from_secs(30));
    }

    #[test]
    fn batch_backfill_beats_pure_fcfs_on_makespan() {
        // Wide job, then a narrow long job, then narrow short jobs: EASY
        // lets the short jobs fill the wide job's shadow.
        let wide = app(vec![100.0, 52.0, 36.0, 25.0]); // optimum 4 nodes
        let narrow = app(vec![8.0, 8.0, 8.0, 8.0]); // optimum 1 node
        let run = |backfill: bool| {
            let mut s = batch_system(4, backfill);
            let mut started = Vec::new();
            started.extend(s.submit(mk_task(1, &wide, 10_000), SimTime::ZERO).unwrap());
            started.extend(s.submit(mk_task(2, &wide, 10_000), SimTime::ZERO).unwrap());
            for id in 3..=6 {
                started.extend(
                    s.submit(mk_task(id, &narrow, 10_000), SimTime::ZERO)
                        .unwrap(),
                );
            }
            drain(&mut s, started);
            assert_eq!(s.completed().len(), 6);
            s.completed().iter().map(|c| c.completion).max().unwrap()
        };
        let fcfs = run(false);
        let easy = run(true);
        assert!(easy <= fcfs, "backfill must not worsen the makespan");
    }

    #[test]
    fn batch_freetime_reflects_the_queue() {
        let mut s = batch_system(2, true);
        let a = app(vec![10.0, 10.0]); // optimum 1 node
        s.submit(mk_task(1, &a, 1000), SimTime::ZERO).unwrap();
        s.submit(mk_task(2, &a, 1000), SimTime::ZERO).unwrap();
        s.submit(mk_task(3, &a, 1000), SimTime::ZERO).unwrap();
        // Two run now, one queued: freetime = 20 s.
        assert_eq!(s.freetime(SimTime::ZERO), SimTime::from_secs(20));
    }

    #[test]
    fn batch_cancel_removes_queued_jobs() {
        let mut s = batch_system(1, false);
        let a = app(vec![10.0]);
        let mut started = Vec::new();
        for id in 1..=3 {
            started.extend(s.submit(mk_task(id, &a, 1000), SimTime::ZERO).unwrap());
        }
        assert!(s.cancel(TaskId(2), SimTime::ZERO).is_some());
        assert!(s.cancel(TaskId(1), SimTime::ZERO).is_none(), "running");
        drain(&mut s, started);
        let ids: Vec<u64> = s.completed().iter().map(|c| c.task.id.0).collect();
        assert_eq!(ids.len(), 2);
        assert!(!ids.contains(&2));
    }
}
