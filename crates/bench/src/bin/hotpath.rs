//! GA hot-path benchmark: wall time per `evolve` call across the
//! paper's 12-resource case-study grid.
//!
//! * `1t`               — the single-population GA on one thread.
//! * `islands-{2,4,8}t` — the deterministic island model, with as many
//!   threads as islands so every island evolves concurrently.
//!
//! Island rows legitimately change the search (a different, partitioned
//! evolution), so their costs differ from the `1t` row's. Every row is
//! instead asserted bit-identical across thread counts: the island count
//! chooses the result, the thread count never does. A second section
//! times the fitness-evaluation path alone (decode + cost) and asserts it
//! agrees bit for bit with the engine-backed `decode` + `ScheduleCost::of`.
//!
//! Writes `BENCH_hotpath.json` (override with `--out PATH`); `--quick`
//! shrinks the workload for CI smoke runs. The JSON records the host's
//! available parallelism: on a single-core runner the island rows are
//! expected to stay flat.

use agentgrid::prelude::*;
use agentgrid_scheduler::decode::{decode, DecodeScratch, EvalContext, ResourceView};
use agentgrid_scheduler::{CostWeights, ScheduleCost, Solution};
use agentgrid_telemetry::json::{self, Value};
use std::sync::Arc;
use std::time::Instant;

struct Config {
    label: &'static str,
    threads: usize,
    islands: usize,
}

const CONFIGS: &[Config] = &[
    Config {
        label: "1t",
        threads: 1,
        islands: 1,
    },
    Config {
        label: "islands-2t",
        threads: 2,
        islands: 2,
    },
    Config {
        label: "islands-4t",
        threads: 4,
        islands: 4,
    },
    Config {
        label: "islands-8t",
        threads: 8,
        islands: 8,
    },
];

fn make_tasks(catalog: &Catalog, n: usize) -> Vec<Task> {
    (0..n)
        .map(|i| {
            let app = &catalog.apps()[i % catalog.len()];
            let (lo, hi) = app.deadline_bounds_s;
            Task::new(
                TaskId(i as u64),
                Arc::new(app.clone()),
                SimTime::ZERO,
                SimTime::from_secs_f64(lo + (hi - lo) * 0.5),
                ExecEnv::Test,
            )
        })
        .collect()
}

/// Nearest-rank percentile over an ascending-sorted sample set.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct Row {
    label: &'static str,
    threads: usize,
    islands: usize,
    samples: usize,
    p50_us: f64,
    p90_us: f64,
    mean_us: f64,
    /// Best-cost bit patterns per resource, for the determinism check.
    cost_bits: Vec<u64>,
}

fn ga_config(config: &Config, population: usize, generations: usize, threads: usize) -> GaConfig {
    GaConfig {
        population,
        generations_per_event: generations,
        stall_generations: generations,
        threads,
        islands: config.islands,
        ..GaConfig::default()
    }
}

fn measure(
    config: &Config,
    resources: &[(GridResource, Vec<Task>)],
    population: usize,
    generations: usize,
    iters: usize,
    seed: u64,
) -> Row {
    let engine = CachedEngine::new();
    let ga = ga_config(config, population, generations, config.threads);
    let mut samples = Vec::with_capacity(iters * resources.len());
    let mut cost_bits = vec![0u64; resources.len()];
    // One warm-up pass fills the evaluation cache so the measured
    // iterations see the steady state the real experiment driver sees.
    for round in 0..=iters {
        for (i, (resource, tasks)) in resources.iter().enumerate() {
            let view = ResourceView::snapshot(resource, SimTime::ZERO).expect("all nodes up");
            let mut scheduler = GaScheduler::new(ga, RngStream::root(seed).derive(resource.name()));
            let start = Instant::now();
            let outcome = scheduler.evolve(&view, tasks, &engine);
            let elapsed = start.elapsed().as_secs_f64() * 1e6;
            if round > 0 {
                samples.push(elapsed);
            }
            cost_bits[i] = outcome.cost.to_bits();
        }
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    Row {
        label: config.label,
        threads: config.threads,
        islands: config.islands,
        samples: samples.len(),
        p50_us: percentile(&samples, 0.50),
        p90_us: percentile(&samples, 0.90),
        mean_us: mean,
        cost_bits,
    }
}

/// One untimed evolve per resource at an arbitrary thread count — the
/// cheap probe behind the thread-invariance gate.
fn cost_bits_at(
    config: &Config,
    threads: usize,
    resources: &[(GridResource, Vec<Task>)],
    population: usize,
    generations: usize,
    seed: u64,
) -> Vec<u64> {
    let engine = CachedEngine::new();
    let ga = ga_config(config, population, generations, threads);
    resources
        .iter()
        .map(|(resource, tasks)| {
            let view = ResourceView::snapshot(resource, SimTime::ZERO).expect("all nodes up");
            let mut scheduler = GaScheduler::new(ga, RngStream::root(seed).derive(resource.name()));
            scheduler.evolve(&view, tasks, &engine).cost.to_bits()
        })
        .collect()
}

/// Nanoseconds per evaluation and evaluations per second of the GA's
/// fitness path.
struct EvalPath {
    ns_per_eval: f64,
    evals_per_sec: f64,
}

/// Measure the fitness-evaluation path alone — decode through the
/// per-evolve [`EvalContext`] into a reused scratch, then score — over a
/// fixed population, excluding the (by-design sequential) GA operators.
/// Asserts every cost is bit-identical to the engine-backed `decode` +
/// `ScheduleCost::of`.
fn measure_eval_path(
    resources: &[(GridResource, Vec<Task>)],
    population: usize,
    rounds: usize,
    seed: u64,
) -> EvalPath {
    let weights = CostWeights::default();
    let engine = CachedEngine::new();
    let mut evals = 0usize;
    let mut elapsed_s = 0.0;
    let mut rng = RngStream::root(seed).derive("hotpath-eval");
    for (ri, (resource, tasks)) in resources.iter().enumerate() {
        let view = ResourceView::snapshot(resource, SimTime::ZERO).expect("all nodes up");
        let nproc = view.model.nproc;
        let sols: Vec<Solution> = (0..population)
            .map(|_| Solution::random(tasks.len(), nproc, &mut rng))
            .collect();
        let ctx = EvalContext::build(&view, tasks, &engine);
        let mut scratch = DecodeScratch::default();
        let mut bits = vec![0u64; sols.len()];
        let t = Instant::now();
        for _ in 0..rounds {
            for (sol, slot) in sols.iter().zip(bits.iter_mut()) {
                let s = ctx.decode_into(&view, sol, &mut scratch);
                let cost = ScheduleCost::of_parts(
                    s.makespan_rel_s,
                    &scratch.idle_pockets,
                    s.lateness_s,
                    s.alloc_node_s,
                    &weights,
                )
                .combined(&weights);
                *slot = cost.to_bits();
            }
        }
        elapsed_s += t.elapsed().as_secs_f64();
        evals += rounds * sols.len();
        for (sol, got) in sols.iter().zip(&bits) {
            let d = decode(&view, tasks, sol, &engine);
            let want = ScheduleCost::of(&d, &weights).combined(&weights);
            assert_eq!(
                *got,
                want.to_bits(),
                "evaluation path diverged from the engine-backed decode on resource {ri}"
            );
        }
    }
    EvalPath {
        ns_per_eval: elapsed_s * 1e9 / evals as f64,
        evals_per_sec: evals as f64 / elapsed_s,
    }
}

fn main() {
    let (quick, seed) = agentgrid_bench::parse_args();
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| "BENCH_hotpath.json".to_string())
    };
    let (tasks_per_resource, population, generations, iters) = if quick {
        (8, 16, 4, 2)
    } else {
        (40, 50, 10, 15)
    };

    let topology = GridTopology::case_study();
    let catalog = Catalog::case_study();
    let resources: Vec<(GridResource, Vec<Task>)> = topology
        .resources
        .iter()
        .map(|r| {
            (
                GridResource::new(&r.name, r.platform.clone(), r.nproc),
                make_tasks(&catalog, tasks_per_resource),
            )
        })
        .collect();

    eprintln!(
        "hotpath: {} resources x {} tasks, pop {}, {} gens, {} iters{}",
        resources.len(),
        tasks_per_resource,
        population,
        generations,
        iters,
        if quick { " (quick)" } else { "" }
    );

    let rows: Vec<Row> = CONFIGS
        .iter()
        .map(|c| {
            let row = measure(c, &resources, population, generations, iters, seed);
            eprintln!(
                "  {:<11} threads={} islands={} p50 {:>9.1}us  p90 {:>9.1}us  mean {:>9.1}us",
                row.label, row.threads, row.islands, row.p50_us, row.p90_us, row.mean_us
            );
            row
        })
        .collect();

    // Determinism gate: each row is pinned across thread counts — the
    // same island count must replay the same evolution at any
    // `--ga-threads`.
    for (config, row) in CONFIGS.iter().zip(&rows) {
        for probe_threads in [1usize, 3] {
            if probe_threads == row.threads {
                continue;
            }
            let bits = cost_bits_at(
                config,
                probe_threads,
                &resources,
                population,
                generations,
                seed,
            );
            assert_eq!(
                bits, row.cost_bits,
                "{} changed its result at {} threads: islands must pin the search",
                row.label, probe_threads
            );
        }
    }
    eprintln!("  determinism: every row thread-invariant");

    let eval_rounds = if quick { 5 } else { 40 };
    let eval = measure_eval_path(&resources, population, eval_rounds, seed);
    eprintln!(
        "  {:<11} {:>8.1} ns/eval  ({:.2}M evals/s)",
        "eval",
        eval.ns_per_eval,
        eval.evals_per_sec / 1e6
    );

    let single_p50 = rows[0].p50_us;
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let doc = json::obj(vec![
        ("bench", json::s("hotpath")),
        (
            "description",
            json::s(
                "wall time per GaScheduler::evolve call; 1t = the single-population GA on \
                 one thread and the reference for speedup_vs_1t; island rows run the \
                 deterministic island model with one thread per island",
            ),
        ),
        (
            "workload",
            json::obj(vec![
                ("topology", json::s("case-study")),
                ("resources", json::num(resources.len() as f64)),
                ("tasks_per_resource", json::num(tasks_per_resource as f64)),
                ("population", json::num(population as f64)),
                ("generations_per_event", json::num(generations as f64)),
                ("iterations", json::num(iters as f64)),
                ("seed", json::num(seed as f64)),
                ("quick", Value::Bool(quick)),
            ]),
        ),
        (
            "environment",
            json::obj(vec![
                ("available_parallelism", json::num(parallelism as f64)),
                (
                    "note",
                    json::s(
                        "island rows only show wall-clock gains when available_parallelism \
                         > 1; on a single-core host they stay flat (or pay a small spawn \
                         tax)",
                    ),
                ),
            ]),
        ),
        (
            "rows",
            Value::Arr(
                rows.iter()
                    .map(|r| {
                        json::obj(vec![
                            ("label", json::s(r.label)),
                            ("threads", json::num(r.threads as f64)),
                            ("islands", json::num(r.islands as f64)),
                            ("samples", json::num(r.samples as f64)),
                            ("p50_us", json::num(r.p50_us)),
                            ("p90_us", json::num(r.p90_us)),
                            ("mean_us", json::num(r.mean_us)),
                            ("speedup_vs_1t", json::num(single_p50 / r.p50_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "evaluation_path",
            json::obj(vec![
                (
                    "description",
                    json::s(
                        "the GA's fitness-evaluation path alone (decode through the \
                         per-evolve prediction table + cost), excluding the by-design \
                         sequential GA operators",
                    ),
                ),
                (
                    "rows",
                    Value::Arr(vec![json::obj(vec![
                        ("label", json::s("eval")),
                        ("ns_per_eval", json::num(eval.ns_per_eval)),
                        ("evals_per_sec", json::num(eval.evals_per_sec)),
                    ])]),
                ),
            ]),
        ),
        ("thread_invariant", Value::Bool(true)),
    ]);
    std::fs::write(&out_path, doc.to_pretty()).expect("write bench output");
    eprintln!("wrote {out_path}");
    for row in &rows {
        println!(
            "{:<11} threads={} islands={} p50={:.1}us vs_1t={:.2}x",
            row.label,
            row.threads,
            row.islands,
            row.p50_us,
            single_p50 / row.p50_us
        );
    }
}
