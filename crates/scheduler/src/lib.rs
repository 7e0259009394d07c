#![warn(missing_docs)]

//! Performance-driven task scheduling for a local grid (paper §2).
//!
//! A local grid resource runs a scheduler that maintains a queue of
//! parallel tasks and decides, for each, *which nodes* run it and *in what
//! order* tasks go, using PACE predictions for every candidate allocation.
//! The paper's two scheduling policies are:
//!
//! * [`ga::GaScheduler`] — the paper's contribution: a genetic algorithm
//!   over a two-part coding scheme ([`solution::Solution`]: a task-ordering
//!   permutation plus one node-set mask per task), minimising a combined
//!   cost of makespan, front-weighted idle time and deadline-contract
//!   penalty (eqs. 6–9), with stochastic-remainder selection, specialised
//!   two-part crossover/mutation, and the ability to absorb task additions
//!   and deletions between generations.
//! * [`fifo::FifoPolicy`] — the comparison baseline: tasks keep arrival
//!   order; each is fixed, on arrival, to the allocation with the earliest
//!   predicted completion (the paper tries "all of the possible resource
//!   allocations (a total of 2¹⁶−1 possibilities)").
//!
//! Beside them sit the batch-queue baseline ([`batch::BatchPolicy`]) and
//! the planners of the policy zoo ([`policy`]: min-min, max-min,
//! sufferage, annealing). The GA and the zoo re-plan the whole queue on
//! every event behind [`policy::Planner`]; FIFO and batch fix each
//! allocation at arrival.
//!
//! [`system::SchedulerSystem`] is the Fig. 3 assembly: task management,
//! the scheduling policy, resource monitoring hooks, test-mode execution
//! and the service-information output consumed by the agent layer. It
//! drives all seven policies through one dispatch path and one launch
//! routine.

pub mod batch;
pub mod cost;
pub mod decode;
pub mod fifo;
pub mod ga;
pub mod gantt;
pub mod policy;
pub mod solution;
pub mod system;
pub mod task;

pub use batch::{BatchConfig, BatchPolicy};
pub use cost::{CostWeights, ScheduleCost};
pub use decode::{decode, DecodedSchedule, EvalContext, ResourceView};
pub use fifo::FifoPolicy;
pub use ga::{GaConfig, GaScheduler};
pub use gantt::{Gantt, GanttBar};
pub use policy::{
    fifo_seed, AnnealingPolicy, HeuristicPolicy, HeuristicRule, PlanOutcome, Planner, SaConfig,
};
pub use solution::Solution;
pub use system::{PolicyConfig, SchedulerSystem, StartedTask};
pub use task::{CompletedTask, Task, TaskId};
