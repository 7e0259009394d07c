//! Property tests for the scheduling algorithms.

use agentgrid_cluster::{ExecEnv, GridResource, NodeMask};
use agentgrid_pace::{
    AppId, ApplicationModel, CachedEngine, ModelCurve, Platform, ResourceModel, TabulatedModel,
};
use agentgrid_scheduler::cost::scale_fitness;
use agentgrid_scheduler::decode::{decode, DecodeScratch, EvalContext, ResourceView};
use agentgrid_scheduler::fifo::{best_allocation, best_allocation_exhaustive};
use agentgrid_scheduler::ga::ops::{crossover, mutate};
use agentgrid_scheduler::ga::select::stochastic_remainder;
use agentgrid_scheduler::{CostWeights, ScheduleCost, Solution, Task, TaskId};
use agentgrid_sim::SimTime;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn app_with_id(id: u32, times: Vec<f64>) -> Arc<ApplicationModel> {
    Arc::new(
        ApplicationModel::new(
            AppId(id),
            "p",
            ModelCurve::Tabulated(TabulatedModel::new(times).unwrap()),
            (1.0, 1000.0),
        )
        .unwrap(),
    )
}

proptest! {
    /// Two-part crossover and mutation always produce legitimate
    /// solutions, for arbitrary sizes and seeds.
    #[test]
    fn operators_preserve_legitimacy(
        m in 1usize..30,
        nproc in 1usize..=32,
        seed in any::<u64>(),
        order_rate in 0.0f64..=1.0,
        bit_rate in 0.0f64..=0.5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = Solution::random(m, nproc, &mut rng);
        let b = Solution::random(m, nproc, &mut rng);
        let (c1, c2) = crossover(&a, &b, nproc, &mut rng);
        prop_assert!(c1.is_legitimate(m, nproc));
        prop_assert!(c2.is_legitimate(m, nproc));
        let mut c3 = c1;
        mutate(&mut c3, nproc, order_rate, bit_rate, &mut rng);
        prop_assert!(c3.is_legitimate(m, nproc));
    }

    /// Decoding any legitimate solution never double-books a node and
    /// every task appears exactly once.
    #[test]
    fn decode_is_conflict_free(
        m in 1usize..20,
        nproc in 1usize..=16,
        seed in any::<u64>(),
        deadline in 1u64..200,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sol = Solution::random(m, nproc, &mut rng);
        let times: Vec<f64> = (1..=nproc).map(|k| 30.0 / k as f64 + 1.0).collect();
        let tasks: Vec<Task> = (0..m)
            .map(|i| Task::new(
                TaskId(i as u64),
                app_with_id(i as u32, times.clone()),
                SimTime::ZERO,
                SimTime::from_secs(deadline),
                ExecEnv::Test,
            ))
            .collect();
        let resource = GridResource::new("R", Platform::sgi_origin2000(), nproc);
        let view = ResourceView::snapshot(&resource, SimTime::ZERO).unwrap();
        let engine = CachedEngine::new();
        let d = decode(&view, &tasks, &sol, &engine);

        prop_assert_eq!(d.placements.len(), m);
        let mut seen: Vec<bool> = vec![false; m];
        let mut per_node: Vec<Vec<(SimTime, SimTime)>> = vec![vec![]; nproc];
        for p in &d.placements {
            prop_assert!(!seen[p.task], "task placed twice");
            seen[p.task] = true;
            prop_assert!(!p.mask.is_empty());
            prop_assert!(p.completion > p.start);
            prop_assert!(p.completion <= d.makespan);
            for i in p.mask.iter() {
                per_node[i].push((p.start, p.completion));
            }
        }
        for intervals in &mut per_node {
            intervals.sort();
            for w in intervals.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "node double-booked");
            }
        }
        // Lateness is consistent with placements.
        let expected_late: f64 = d
            .placements
            .iter()
            .map(|p| p.completion.saturating_since(tasks[p.task].deadline).as_secs_f64())
            .sum();
        prop_assert!((d.lateness_s - expected_late).abs() < 1e-6);
    }

    /// The GA's evaluation path — decode through the per-evolve
    /// prediction table into a reused scratch, then score — matches the
    /// engine-backed full decode bit for bit across random
    /// mutation/crossover chains, with the scratch carried from step to
    /// step exactly as a GA worker carries it.
    #[test]
    fn context_decode_matches_engine_decode(
        m in 1usize..16,
        nproc in 1usize..=8,
        seed in any::<u64>(),
        steps in 1usize..25,
        order_rate in 0.0f64..=1.0,
        bit_rate in 0.0f64..=0.5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let times: Vec<f64> = (1..=nproc).map(|k| 45.0 / k as f64 + 2.0).collect();
        let tasks: Vec<Task> = (0..m)
            .map(|i| Task::new(
                TaskId(i as u64),
                app_with_id(i as u32, times.clone()),
                SimTime::ZERO,
                SimTime::from_secs(40 + (i as u64 % 7) * 10),
                ExecEnv::Test,
            ))
            .collect();
        let resource = GridResource::new("R", Platform::sgi_origin2000(), nproc);
        let view = ResourceView::snapshot(&resource, SimTime::ZERO).unwrap();
        let engine = CachedEngine::new();
        let ctx = EvalContext::build(&view, &tasks, &engine);
        let weights = CostWeights::default();
        let mut scratch = DecodeScratch::default();

        let mut parent = Solution::random(m, nproc, &mut rng);
        for step in 0..steps {
            // Alternate the GA's real variation operators.
            let child = if step % 3 == 2 {
                let partner = Solution::random(m, nproc, &mut rng);
                crossover(&parent, &partner, nproc, &mut rng).0
            } else {
                let mut c = parent.clone();
                mutate(&mut c, nproc, order_rate, bit_rate, &mut rng);
                c
            };
            let s = ctx.decode_into(&view, &child, &mut scratch);
            let got = ScheduleCost::of_parts(
                s.makespan_rel_s,
                &scratch.idle_pockets,
                s.lateness_s,
                s.alloc_node_s,
                &weights,
            )
            .combined(&weights);
            let d = decode(&view, &tasks, &child, &engine);
            let want = ScheduleCost::of(&d, &weights).combined(&weights);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "diverged at step {}", step);
            prop_assert_eq!(&scratch.placements, &d.placements);
            parent = child;
        }
    }

    /// The O(n²) FIFO search finds the same optimal completion time as
    /// the literal subset enumeration.
    #[test]
    fn fifo_fast_equals_exhaustive(
        nproc in 1usize..=8,
        frees in proptest::collection::vec(0u64..60, 8),
        times in proptest::collection::vec(1.0f64..60.0, 8),
        now in 0u64..30,
    ) {
        let node_free: Vec<SimTime> =
            frees.iter().take(nproc).map(|f| SimTime::from_secs(*f)).collect();
        let app = app_with_id(0, times.into_iter().take(nproc).collect());
        let model = ResourceModel::new(Platform::sgi_origin2000(), nproc).unwrap();
        let avail = NodeMask::first_n(nproc);
        let engine = CachedEngine::new();
        let now = SimTime::from_secs(now);
        let fast = best_allocation(&node_free, avail, now, &app, &model, &engine);
        let full = best_allocation_exhaustive(&node_free, avail, now, &app, &model, &engine);
        prop_assert_eq!(fast.completion, full.completion);
        prop_assert!(fast.start >= now);
    }

    /// Dynamic fitness scaling maps into [0,1] with at least one 1 (the
    /// best) and, for non-degenerate inputs, at least one 0 (the worst).
    #[test]
    fn fitness_scaling_bounds(costs in proptest::collection::vec(0.0f64..1e6, 1..100)) {
        let f = scale_fitness(&costs);
        prop_assert_eq!(f.len(), costs.len());
        for v in &f {
            prop_assert!((0.0..=1.0).contains(v));
        }
        prop_assert!(f.iter().any(|v| (*v - 1.0).abs() < 1e-12));
        let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if max > min {
            prop_assert!(f.contains(&0.0));
        }
    }

    /// Stochastic remainder selection returns exactly `target` valid
    /// indices, and awards at least the floor of each expectation.
    #[test]
    fn selection_respects_expectations(
        fitness in proptest::collection::vec(0.0f64..10.0, 1..30),
        target in 1usize..60,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sel = stochastic_remainder(&fitness, target, &mut rng);
        prop_assert_eq!(sel.len(), target);
        let sum: f64 = fitness.iter().sum();
        if sum > 0.0 {
            for (i, f) in fitness.iter().enumerate() {
                let expected = f * target as f64 / sum;
                let copies = sel.iter().filter(|x| **x == i).count();
                prop_assert!(
                    copies >= expected.floor() as usize,
                    "index {i}: {copies} < floor({expected})"
                );
            }
        }
        prop_assert!(sel.iter().all(|i| *i < fitness.len()));
    }
}
