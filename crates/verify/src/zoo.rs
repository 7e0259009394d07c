//! Shared differential-test instrumentation for the scheduler zoo.
//!
//! Every planned policy (GA, the batch heuristics, simulated annealing)
//! must satisfy the same bracket on any instance:
//!
//! ```text
//! brute-force optimum  ≤  policy cost  ≤  FIFO arrival-order greedy
//! ```
//!
//! The lower bound holds because the policies minimise the same
//! combined cost the exhaustive search enumerates; the upper bound
//! holds by construction — every entrant either starts from or falls
//! back to the FIFO seed (see `agentgrid_scheduler::policy`). This
//! module provides the seeded tiny-instance generator and the zoo
//! roster so the verify tests and the tournament bench enforce the
//! identical bracket from one definition.

use agentgrid_cluster::{ExecEnv, GridResource};
use agentgrid_pace::{AppId, ApplicationModel, CachedEngine, ModelCurve, Platform, TabulatedModel};
use agentgrid_scheduler::{
    AnnealingPolicy, GaConfig, GaScheduler, HeuristicPolicy, HeuristicRule, Planner, ResourceView,
    SaConfig, Task, TaskId,
};
use agentgrid_sim::{RngStream, SimTime};
use rand::Rng;
use std::sync::Arc;

/// A seeded tiny scheduling instance, small enough for
/// [`crate::oracle::brute_force_best`].
pub struct DiffInstance {
    /// The generating seed (printed on failure).
    pub seed: u64,
    /// Resource snapshot with staggered node availability.
    pub view: ResourceView,
    /// 2–5 tasks with random speedup curves and deadlines.
    pub tasks: Vec<Task>,
    /// A fresh evaluation engine.
    pub engine: CachedEngine,
}

/// Generate the seeded instance. Sizes keep the brute-force budget
/// `m! * (2^n - 1)^m` under ~60k decodes per instance.
pub fn diff_instance(seed: u64) -> DiffInstance {
    let mut rng = RngStream::root(seed).derive("verify/differential");
    let nproc = rng.gen_range(2..=4);
    let m = match nproc {
        2 => rng.gen_range(2..=5),
        3 => rng.gen_range(2..=4),
        _ => rng.gen_range(2..=3),
    };
    let r = GridResource::new("S1", Platform::sgi_origin2000(), nproc);
    let mut view = ResourceView::snapshot(&r, SimTime::ZERO).expect("all nodes up");
    // Stagger node availability so idle pockets and ordering matter.
    for free in view.node_free.iter_mut() {
        if rng.gen_range(0..2) == 1 {
            *free = SimTime::from_secs(rng.gen_range(0..6));
        }
    }
    let tasks = (0..m)
        .map(|i| {
            // A random speedup curve: t(1) in [2, 20]s, each extra
            // processor multiplying by [0.5, 1.1] — sometimes slower,
            // so wider is not always better.
            let mut t = 2.0 + rng.gen_range(0..1800) as f64 / 100.0;
            let mut times = vec![t];
            for _ in 1..nproc {
                t *= 0.5 + rng.gen_range(0..60) as f64 / 100.0;
                times.push(t);
            }
            let app = Arc::new(
                ApplicationModel::new(
                    AppId(i as u32),
                    "fuzz",
                    ModelCurve::Tabulated(TabulatedModel::new(times).expect("valid curve")),
                    (1.0, 1000.0),
                )
                .expect("valid model"),
            );
            Task::new(
                TaskId(i as u64),
                app,
                SimTime::ZERO,
                SimTime::from_secs(rng.gen_range(5..60)),
                ExecEnv::Test,
            )
        })
        .collect();
    DiffInstance {
        seed,
        view,
        tasks,
        engine: CachedEngine::new(),
    }
}

/// Everything needed to reproduce a failing seed by hand.
pub fn describe(inst: &DiffInstance) -> String {
    let mut out = format!(
        "seed {}: {} tasks on {} processors\n  node_free: {:?}\n",
        inst.seed,
        inst.tasks.len(),
        inst.view.model.nproc,
        inst.view
            .node_free
            .iter()
            .map(|t| t.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    for task in &inst.tasks {
        let times: Vec<f64> = (1..=inst.view.model.nproc)
            .map(|k| inst.engine.evaluate(&task.app, &inst.view.model, k))
            .collect();
        out.push_str(&format!(
            "  task {}: times {:?} deadline {}s\n",
            task.id.0,
            times,
            task.deadline.as_secs_f64()
        ));
    }
    out
}

/// The reduced GA configuration the differential tests run with — a
/// paper-shaped search at a test-sized budget.
pub fn diff_ga_config() -> GaConfig {
    GaConfig {
        population: 16,
        generations_per_event: 12,
        stall_generations: 5,
        ..GaConfig::default()
    }
}

/// Every *planned* zoo entrant, freshly constructed with RNG streams
/// derived from `seed` (one stream per entrant name, so adding an
/// entrant never shifts another's draws). FIFO and Batch are
/// fixed-allocation baselines, not planned policies — FIFO is the
/// bracket's upper oracle itself.
pub fn planned_zoo(seed: u64) -> Vec<Box<dyn Planner>> {
    vec![
        Box::new(GaScheduler::new(
            diff_ga_config(),
            RngStream::root(seed).derive("ga"),
        )),
        Box::new(HeuristicPolicy::new(HeuristicRule::MinMin)),
        Box::new(HeuristicPolicy::new(HeuristicRule::MaxMin)),
        Box::new(HeuristicPolicy::new(HeuristicRule::Sufferage)),
        Box::new(AnnealingPolicy::new(
            SaConfig::default(),
            RngStream::root(seed).derive("anneal"),
        )),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_reproducible() {
        let a = diff_instance(7);
        let b = diff_instance(7);
        assert_eq!(a.tasks.len(), b.tasks.len());
        assert_eq!(a.view.node_free, b.view.node_free);
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.deadline, y.deadline);
        }
    }

    #[test]
    fn the_roster_has_five_planned_entrants_with_stable_names() {
        let names: Vec<&str> = planned_zoo(1).iter().map(|p| p.name()).collect();
        assert_eq!(names, ["ga", "minmin", "maxmin", "sufferage", "anneal"]);
    }
}
