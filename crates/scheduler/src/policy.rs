//! Pluggable local scheduling policies — the policy zoo.
//!
//! [`Planner`] is the contract of the *planned* scheduling kernels (the
//! GA, the batch heuristics, simulated annealing), which re-plan the
//! whole pending set on every event. One blanket impl turns every
//! planner into a policy that [`SchedulerSystem`](crate::SchedulerSystem)
//! drives through the same dispatch path as the FIFO and batch-queue
//! baselines; those fix allocations at arrival and implement only the
//! dispatch hooks, not [`Planner`].
//!
//! ### The contract
//!
//! A planner is called with the current [`ResourceView`] and the full
//! pending task set on every scheduling event and returns a complete
//! tentative schedule ([`PlanOutcome`]). The system launches the
//! placements whose start has arrived and re-plans on the next event.
//! Implementations must be:
//!
//! 1. **Deterministic** — decisions are a pure function of the inputs
//!    and the policy's own [`RngStream`]; thread counts, telemetry and
//!    wall clocks never influence an outcome.
//! 2. **FIFO-bounded** — the returned cost can never exceed the
//!    arrival-order greedy schedule's cost under the same
//!    [`ScheduleCost`] model. The GA guarantees this by injecting the
//!    greedy schedule as a population seed; the heuristics and the
//!    annealer guarantee it by evaluating [`fifo_seed`] as an explicit
//!    fallback/starting point. The verify crate's differential suite
//!    (`optimum ≤ policy ≤ FIFO`) holds every entrant to this bound.
//! 3. **Legitimacy-checked** — every committed solution is reported via
//!    `GaSolutionCheck` telemetry so the online invariant checker can
//!    audit it (the event predates the zoo; it covers all entrants).
//!
//! New entrants land with their oracle-bound test, a determinism
//! proptest and a fuzz-dimension entry (see DESIGN.md §15).

use crate::cost::{CostWeights, ScheduleCost};
use crate::decode::{decode, EvalContext, ResourceView};
use crate::fifo::best_allocation;
use crate::ga::engine::{greedy_seed, EvolveOutcome, GaScheduler};
use crate::solution::Solution;
use crate::system::{Host, StartedTask, Trigger};
use crate::task::{Task, TaskId};
use agentgrid_cluster::NodeMask;
use agentgrid_pace::CachedEngine;
use agentgrid_sim::{RngStream, SimDuration, SimTime};
use agentgrid_telemetry::{Event, Telemetry};
use rand::Rng;

/// The result of one planning call — re-exported from the GA engine
/// (all planned policies report through the same shape).
pub type PlanOutcome = EvolveOutcome;

/// A pluggable planning kernel (see the module docs for the
/// determinism / FIFO-bound / legitimacy contract).
pub trait Planner: Send + Sync {
    /// Stable lowercase identifier (`"ga"`, `"minmin"`, …) — the same
    /// token the CLI, recordings and result JSON use.
    fn name(&self) -> &'static str;

    /// Wire telemetry, labelling events with the owning resource name.
    fn set_telemetry(&mut self, telemetry: Telemetry, label: &str);

    /// A new task was appended to the pending queue (a planner that
    /// keeps no state between events ignores it).
    fn absorb_added_task(&mut self, _nproc: usize) {}

    /// Pending-queue index `task` was removed (started or cancelled);
    /// later indices shift down by one.
    fn absorb_removed_task(&mut self, _task: usize) {}

    /// Plan the full pending set against the current view, returning a
    /// tentative schedule whose due placements the system will commit.
    fn plan(&mut self, view: &ResourceView, tasks: &[Task], engine: &CachedEngine) -> PlanOutcome;

    /// The tunable search budget, if the policy has one (GA: generations
    /// per event; annealing: iterations; heuristics: none).
    fn budget(&self) -> Option<usize> {
        None
    }

    /// Adjust the search budget at runtime (the online tuner's knob).
    /// Returns whether the knob exists.
    fn set_budget(&mut self, _budget: usize) -> bool {
        false
    }
}

/// Every planner dispatches the same way: re-plan the whole pending set,
/// launch the placements due now, advertise the new plan's makespan.
impl<P: Planner> crate::system::LocalPolicy for P {
    fn name(&self) -> &'static str {
        Planner::name(self)
    }

    fn set_telemetry(&mut self, telemetry: Telemetry, label: &str) {
        Planner::set_telemetry(self, telemetry, label);
    }

    fn budget(&self) -> Option<usize> {
        Planner::budget(self)
    }

    fn set_budget(&mut self, budget: usize) -> bool {
        Planner::set_budget(self, budget)
    }

    fn absorb_added_task(&mut self, _task: &Task, host: &Host) {
        Planner::absorb_added_task(self, host.resource.nproc());
    }

    fn absorb_removed_task(&mut self, pos: usize, _id: TaskId) {
        Planner::absorb_removed_task(self, pos);
    }

    fn dispatch(&mut self, host: &mut Host, now: SimTime, _trigger: Trigger) -> Vec<StartedTask> {
        let Some(view) = ResourceView::snapshot(&host.resource, now) else {
            return Vec::new(); // full outage: hold everything
        };
        let outcome = self.plan(&view, &host.pending, &host.engine);
        host.plan_makespan = outcome.schedule.makespan;

        // Placements due now, in descending pending-index order so removal
        // keeps earlier indices (and the planner's absorbed indices) valid.
        let mut due: Vec<_> = outcome
            .schedule
            .placements
            .iter()
            .filter(|p| p.start <= now)
            .copied()
            .collect();
        due.sort_by_key(|p| std::cmp::Reverse(p.task));

        let mut started = Vec::with_capacity(due.len());
        for p in due {
            let task = host.pending.remove(p.task);
            Planner::absorb_removed_task(self, p.task);
            let predicted = p.completion.saturating_since(p.start);
            started.push(host.launch(task, p.mask, p.start, predicted));
        }
        started.sort_by_key(|s| (s.start, s.id.0));
        started
    }
}

impl Planner for GaScheduler {
    fn name(&self) -> &'static str {
        "ga"
    }

    fn set_telemetry(&mut self, telemetry: Telemetry, label: &str) {
        GaScheduler::set_telemetry(self, telemetry, label);
    }

    fn absorb_added_task(&mut self, nproc: usize) {
        GaScheduler::absorb_added_task(self, nproc);
    }

    fn absorb_removed_task(&mut self, task: usize) {
        GaScheduler::absorb_removed_task(self, task);
    }

    fn plan(&mut self, view: &ResourceView, tasks: &[Task], engine: &CachedEngine) -> PlanOutcome {
        self.evolve(view, tasks, engine)
    }

    fn budget(&self) -> Option<usize> {
        Some(self.config().generations_per_event)
    }

    fn set_budget(&mut self, budget: usize) -> bool {
        self.set_generations_per_event(budget);
        true
    }
}

/// The arrival-order greedy schedule with the FIFO baseline's *optimal*
/// per-task allocation search — task by task in submission order, each
/// taking the completion-minimising node set ([`best_allocation`], the
/// O(n²) equivalent of the paper's exhaustive 2¹⁶−1 enumeration). This
/// is byte-for-byte the schedule the verify crate's `fifo_reference`
/// oracle builds, so a policy that evaluates it as a fallback satisfies
/// `policy ≤ FIFO` by construction, not by luck.
pub fn fifo_seed(view: &ResourceView, tasks: &[Task], engine: &CachedEngine) -> Solution {
    let mut node_free = view.node_free.clone();
    let mut mapping = Vec::with_capacity(tasks.len());
    for task in tasks {
        let alloc = best_allocation(
            &node_free,
            view.available,
            view.now,
            &task.app,
            &view.model,
            engine,
        );
        // Canonicalise ties to the oracle's preference: among the
        // subsets sharing this (completion, width), the exhaustive
        // search picks the lowest mask value — the k lowest-indexed
        // nodes free by the start instant. `best_allocation` instead
        // keeps its earliest-free scan order, which can differ when
        // free times tie; re-pick so the seed is byte-identical to
        // `fifo_reference` and the ≤-FIFO bound holds on cost, not
        // just completion.
        let width = alloc.mask.count();
        let start = alloc
            .mask
            .iter()
            .map(|i| node_free[i].max(view.now))
            .max()
            .unwrap_or(view.now);
        let mut mask = NodeMask::EMPTY;
        for i in view.available.iter() {
            if node_free[i].max(view.now) <= start {
                mask.insert(i);
                if mask.count() == width {
                    break;
                }
            }
        }
        for i in mask.iter() {
            node_free[i] = alloc.completion;
        }
        mapping.push(mask);
    }
    Solution {
        order: (0..tasks.len()).collect(),
        mapping,
    }
}

/// Evaluate a candidate solution under the shared cost model, exactly
/// as the GA scores its population.
fn score(
    view: &ResourceView,
    tasks: &[Task],
    solution: &Solution,
    engine: &CachedEngine,
    weights: &CostWeights,
) -> (crate::decode::DecodedSchedule, f64) {
    let schedule = decode(view, tasks, solution, engine);
    let cost = ScheduleCost::of(&schedule, weights).combined(weights);
    (schedule, cost)
}

/// The plan for an empty pending set (shared by every planned policy).
fn empty_plan(view: &ResourceView, tasks: &[Task], engine: &CachedEngine) -> PlanOutcome {
    let empty = Solution {
        order: vec![],
        mapping: vec![],
    };
    PlanOutcome {
        schedule: decode(view, tasks, &empty, engine),
        cost: 0.0,
        generations: 0,
    }
}

/// Which batch-mode heuristic a [`HeuristicPolicy`] runs (the classic
/// independent-task mapping heuristics of the scheduling literature,
/// arxiv 1402.5205, transplanted onto the two-part coding scheme: the
/// per-task choice dimension is the multiprocessor width `k`, taken over
/// the `k` earliest-free nodes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeuristicRule {
    /// Schedule the task with the *smallest* best completion first —
    /// short tasks lock in early slots.
    MinMin,
    /// Schedule the task with the *largest* best completion first — big
    /// tasks claim capacity before the small ones fill the gaps.
    MaxMin,
    /// Schedule the task that would *suffer* most from losing its best
    /// slot (largest second-best − best completion gap) first.
    Sufferage,
}

impl HeuristicRule {
    /// The stable lowercase policy token.
    pub fn name(self) -> &'static str {
        match self {
            HeuristicRule::MinMin => "minmin",
            HeuristicRule::MaxMin => "maxmin",
            HeuristicRule::Sufferage => "sufferage",
        }
    }
}

/// How one task would fare if scheduled next: its best completion, the
/// width achieving it, and the sufferage gap to the second-best width.
struct TaskBid {
    completion: SimTime,
    k: usize,
    sufferage: SimDuration,
}

/// Best (and second-best) completion for task `t` over every width
/// `1..=n`, with `sorted` the available nodes ascending by free time:
/// the `k`-width start is the `k`-th earliest free instant, ties in
/// completion going to the narrower width.
fn bid(
    sorted: &[usize],
    node_free: &[SimTime],
    now: SimTime,
    ctx: &EvalContext,
    t: usize,
) -> TaskBid {
    let mut best: Option<(SimTime, usize)> = None;
    let mut second: Option<SimTime> = None;
    for k in 1..=sorted.len() {
        let start = node_free[sorted[k - 1]].max(now);
        let completion = start + SimDuration::from_secs_f64(ctx.exec_s(t, k));
        match best {
            None => best = Some((completion, k)),
            Some((bc, _)) if completion < bc => {
                second = Some(bc);
                best = Some((completion, k));
            }
            Some(_) => {
                if second.is_none_or(|s| completion < s) {
                    second = Some(completion);
                }
            }
        }
    }
    let (completion, k) = best.expect("at least one node available");
    TaskBid {
        completion,
        k,
        sufferage: second.map_or(SimDuration::ZERO, |s| s.saturating_since(completion)),
    }
}

/// Build the full schedule a batch heuristic produces: repeatedly pick
/// the rule's preferred unscheduled task, commit its best width on the
/// earliest-free nodes, update the simulated ledger, repeat. All ties
/// break towards the lower pending index, so the construction is a pure
/// function of the inputs.
fn heuristic_solution(view: &ResourceView, ctx: &EvalContext, rule: HeuristicRule) -> Solution {
    let m = ctx.task_count();
    let mut node_free = view.node_free.clone();
    let mut remaining: Vec<usize> = (0..m).collect();
    let mut order = Vec::with_capacity(m);
    let mut mapping = Vec::with_capacity(m);
    let mut sorted: Vec<usize> = Vec::new();
    while !remaining.is_empty() {
        sorted.clear();
        sorted.extend(view.available.iter());
        sorted.sort_by_key(|i| (node_free[*i], *i));
        let mut pick = 0usize;
        let mut pick_bid = bid(&sorted, &node_free, view.now, ctx, remaining[0]);
        for (pos, &t) in remaining.iter().enumerate().skip(1) {
            let cand = bid(&sorted, &node_free, view.now, ctx, t);
            let wins = match rule {
                HeuristicRule::MinMin => cand.completion < pick_bid.completion,
                HeuristicRule::MaxMin => cand.completion > pick_bid.completion,
                HeuristicRule::Sufferage => cand.sufferage > pick_bid.sufferage,
            };
            if wins {
                pick = pos;
                pick_bid = cand;
            }
        }
        let t = remaining.remove(pick);
        let mask = NodeMask::from_indices(sorted.iter().copied().take(pick_bid.k));
        for i in mask.iter() {
            node_free[i] = pick_bid.completion;
        }
        order.push(t);
        mapping.push(mask);
    }
    Solution { order, mapping }
}

/// A stateless batch-heuristic policy (min-min / max-min / sufferage):
/// rebuilds its schedule from scratch on every event and falls back to
/// the [`fifo_seed`] whenever the heuristic construction scores worse,
/// so the FIFO bound holds unconditionally.
pub struct HeuristicPolicy {
    rule: HeuristicRule,
    weights: CostWeights,
    telemetry: Telemetry,
    label: String,
}

impl HeuristicPolicy {
    /// A policy running `rule` under the default cost weights (the same
    /// eq. 8 weights the GA and the verify oracles use).
    pub fn new(rule: HeuristicRule) -> HeuristicPolicy {
        HeuristicPolicy {
            rule,
            weights: CostWeights::default(),
            telemetry: Telemetry::disabled(),
            label: String::new(),
        }
    }
}

impl Planner for HeuristicPolicy {
    fn name(&self) -> &'static str {
        self.rule.name()
    }

    fn set_telemetry(&mut self, telemetry: Telemetry, label: &str) {
        self.telemetry = telemetry;
        self.label = label.to_string();
    }

    fn plan(&mut self, view: &ResourceView, tasks: &[Task], engine: &CachedEngine) -> PlanOutcome {
        let m = tasks.len();
        if m == 0 {
            return empty_plan(view, tasks, engine);
        }
        let ctx = EvalContext::build(view, tasks, engine);
        let heuristic = heuristic_solution(view, &ctx, self.rule);
        let fallback = fifo_seed(view, tasks, engine);
        let (h_sched, h_cost) = score(view, tasks, &heuristic, engine, &self.weights);
        let (f_sched, f_cost) = score(view, tasks, &fallback, engine, &self.weights);
        let (solution, schedule, cost) = if h_cost <= f_cost {
            (heuristic, h_sched, h_cost)
        } else {
            (fallback, f_sched, f_cost)
        };
        self.telemetry
            .emit(view.now.ticks(), || Event::GaSolutionCheck {
                resource: self.label.clone(),
                tasks: m as u32,
                legit: solution.is_legitimate(m, view.model.nproc),
            });
        PlanOutcome {
            schedule,
            cost,
            generations: 0,
        }
    }
}

/// Tuning knobs of the simulated-annealing scheduler.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SaConfig {
    /// Neighbourhood moves evaluated per planning event.
    pub iterations: usize,
    /// Starting temperature as a fraction of the seed schedule's cost.
    pub initial_temp: f64,
    /// Geometric per-iteration cooling factor.
    pub cooling: f64,
    /// Cost-function weights (eq. 8).
    pub weights: CostWeights,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            iterations: 400,
            initial_temp: 0.25,
            cooling: 0.97,
            weights: CostWeights::default(),
        }
    }
}

/// A seeded simulated-annealing scheduler (the classic metaheuristic
/// entry of the survey, arxiv 1402.5205): starts from the [`fifo_seed`]
/// schedule, walks a swap/bit-flip neighbourhood over the two-part
/// coding, accepts uphill moves with probability `exp(-Δ/T)` under
/// geometric cooling, and returns the best solution visited — which can
/// therefore never score worse than the seed.
pub struct AnnealingPolicy {
    config: SaConfig,
    rng: RngStream,
    telemetry: Telemetry,
    label: String,
}

impl AnnealingPolicy {
    /// An annealer drawing randomness from `rng` (its only state — the
    /// walk restarts from the FIFO seed every event).
    pub fn new(config: SaConfig, rng: RngStream) -> AnnealingPolicy {
        AnnealingPolicy {
            config,
            rng,
            telemetry: Telemetry::disabled(),
            label: String::new(),
        }
    }
}

/// One neighbourhood move: swap two ordering positions, or toggle one
/// mapping bit (repaired to stay non-empty and within `nproc`).
fn perturb(solution: &Solution, nproc: usize, rng: &mut RngStream) -> Solution {
    let mut s = solution.clone();
    let m = s.order.len();
    if m >= 2 && rng.gen_range(0..2) == 0 {
        let i = rng.gen_range(0..m);
        let j = rng.gen_range(0..m);
        s.order.swap(i, j);
    } else {
        let p = rng.gen_range(0..m);
        let bit = rng.gen_range(0..nproc);
        let mut mask = s.mapping[p];
        mask.toggle(bit);
        s.mapping[p] = mask.clamp_to(nproc).ensure_nonempty(bit);
    }
    s
}

impl Planner for AnnealingPolicy {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn set_telemetry(&mut self, telemetry: Telemetry, label: &str) {
        self.telemetry = telemetry;
        self.label = label.to_string();
    }

    fn plan(&mut self, view: &ResourceView, tasks: &[Task], engine: &CachedEngine) -> PlanOutcome {
        let m = tasks.len();
        if m == 0 {
            return empty_plan(view, tasks, engine);
        }
        let nproc = view.model.nproc;
        let weights = self.config.weights;
        let mut current = fifo_seed(view, tasks, engine);
        let (mut best_sched, mut current_cost) = score(view, tasks, &current, engine, &weights);
        let mut best = current.clone();
        let mut best_cost = current_cost;
        let mut temp = (current_cost * self.config.initial_temp).max(1e-9);
        for _ in 0..self.config.iterations {
            let neighbour = perturb(&current, nproc, &mut self.rng);
            let (sched, cost) = score(view, tasks, &neighbour, engine, &weights);
            let delta = cost - current_cost;
            // The acceptance draw happens on every iteration, accepted
            // or not, so the walk is a pure function of the seed — not
            // of floating-point branch luck on the fast path.
            let roll: f64 = self.rng.gen();
            if delta < 0.0 || roll < (-delta / temp).exp() {
                current = neighbour;
                current_cost = cost;
                if cost < best_cost {
                    best = current.clone();
                    best_cost = cost;
                    best_sched = sched;
                }
            }
            temp *= self.config.cooling;
        }
        self.telemetry
            .emit(view.now.ticks(), || Event::GaSolutionCheck {
                resource: self.label.clone(),
                tasks: m as u32,
                legit: best.is_legitimate(m, nproc),
            });
        PlanOutcome {
            schedule: best_sched,
            cost: best_cost,
            generations: self.config.iterations,
        }
    }

    fn budget(&self) -> Option<usize> {
        Some(self.config.iterations)
    }

    fn set_budget(&mut self, budget: usize) -> bool {
        self.config.iterations = budget.max(1);
        true
    }
}

/// The arrival-order *greedy-width* seed the GA injects (k-earliest-free
/// scan) — exposed for tests comparing the two FIFO-equivalent seeds.
pub fn greedy_arrival_seed(view: &ResourceView, ctx: &EvalContext) -> Solution {
    greedy_seed(view, ctx, |i| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;
    use agentgrid_cluster::{ExecEnv, GridResource};
    use agentgrid_pace::{AppId, ApplicationModel, ModelCurve, Platform, TabulatedModel};
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

    fn mixed_tasks(nproc: usize) -> Vec<Task> {
        // Mixed widths and deadlines so the heuristics actually differ.
        let mut tasks = Vec::new();
        for i in 0..6u64 {
            let base = 4.0 + 3.0 * i as f64;
            let times: Vec<f64> = (1..=nproc).map(|k| base / (k as f64).powf(0.7)).collect();
            tasks.push(task(i, app(i as u32, times), 20 + 5 * i));
        }
        tasks
    }

    fn zoo() -> Vec<Box<dyn Planner>> {
        vec![
            Box::new(HeuristicPolicy::new(HeuristicRule::MinMin)),
            Box::new(HeuristicPolicy::new(HeuristicRule::MaxMin)),
            Box::new(HeuristicPolicy::new(HeuristicRule::Sufferage)),
            Box::new(AnnealingPolicy::new(
                SaConfig::default(),
                RngStream::root(7).derive("sa"),
            )),
        ]
    }

    #[test]
    fn every_policy_schedules_all_tasks_legitimately() {
        let engine = CachedEngine::new();
        let v = view(4);
        let tasks = mixed_tasks(4);
        for mut policy in zoo() {
            let out = policy.plan(&v, &tasks, &engine);
            assert_eq!(
                out.schedule.placements.len(),
                tasks.len(),
                "{} dropped tasks",
                policy.name()
            );
            assert!(out.cost.is_finite());
        }
    }

    #[test]
    fn every_policy_is_bounded_by_the_fifo_seed() {
        let engine = CachedEngine::new();
        let v = view(4);
        let tasks = mixed_tasks(4);
        let weights = CostWeights::default();
        let seed = fifo_seed(&v, &tasks, &engine);
        let (_, fifo_cost) = score(&v, &tasks, &seed, &engine, &weights);
        for mut policy in zoo() {
            let out = policy.plan(&v, &tasks, &engine);
            assert!(
                out.cost <= fifo_cost + 1e-9,
                "{} cost {} exceeds FIFO {}",
                policy.name(),
                out.cost,
                fifo_cost
            );
        }
    }

    #[test]
    fn empty_pending_set_yields_an_empty_plan() {
        let engine = CachedEngine::new();
        let v = view(2);
        for mut policy in zoo() {
            let out = policy.plan(&v, &[], &engine);
            assert!(out.schedule.placements.is_empty(), "{}", policy.name());
            assert_eq!(out.cost, 0.0);
        }
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let engine1 = CachedEngine::new();
        let engine2 = CachedEngine::new();
        let v = view(4);
        let tasks = mixed_tasks(4);
        let mut a = AnnealingPolicy::new(SaConfig::default(), RngStream::root(3).derive("sa"));
        let mut b = AnnealingPolicy::new(SaConfig::default(), RngStream::root(3).derive("sa"));
        let oa = a.plan(&v, &tasks, &engine1);
        let ob = b.plan(&v, &tasks, &engine2);
        assert_eq!(oa.cost.to_bits(), ob.cost.to_bits());
        assert_eq!(oa.schedule.placements, ob.schedule.placements);
    }

    #[test]
    fn heuristics_disagree_on_contended_instances() {
        // Not a correctness claim — a sanity check that the three rules
        // are actually distinct constructions, not three spellings of
        // the same schedule.
        let engine = CachedEngine::new();
        let v = view(3);
        let tasks = mixed_tasks(3);
        let ctx = EvalContext::build(&v, &tasks, &engine);
        let mm = heuristic_solution(&v, &ctx, HeuristicRule::MinMin);
        let xm = heuristic_solution(&v, &ctx, HeuristicRule::MaxMin);
        assert_ne!(mm.order, xm.order, "min-min and max-min agreed");
    }

    #[test]
    fn sufferage_prefers_the_task_with_most_to_lose() {
        // Task 0 is width-insensitive (sufferage ~0); task 1 collapses
        // badly off its best width. Sufferage must schedule task 1 first.
        let engine = CachedEngine::new();
        let v = view(2);
        let tasks = vec![
            task(0, app(10, vec![6.0, 6.0]), 100),
            task(1, app(11, vec![20.0, 5.0]), 100),
        ];
        let ctx = EvalContext::build(&v, &tasks, &engine);
        let s = heuristic_solution(&v, &ctx, HeuristicRule::Sufferage);
        assert_eq!(s.order[0], 1);
    }

    #[test]
    fn budget_knob_reaches_the_annealer() {
        let mut p = AnnealingPolicy::new(SaConfig::default(), RngStream::root(1));
        assert_eq!(p.budget(), Some(400));
        assert!(p.set_budget(10));
        assert_eq!(p.budget(), Some(10));
        let mut h = HeuristicPolicy::new(HeuristicRule::MinMin);
        assert_eq!(h.budget(), None);
        assert!(!h.set_budget(10));
    }
}
