//! Grid-layer scaling sweep (DESIGN.md §9).
//!
//! Runs experiment 3 (GA + agent discovery) over complete 4-ary agent
//! trees up to 1365 agents and measures end-to-end event throughput of
//! the grid layer — interned resource ids, incremental bookkeeping,
//! cached service-info templates and the timing-wheel event queue.
//!
//! The GA is deliberately tiny (population 8, 4 generations): this
//! bench isolates the grid layer's bookkeeping, and a paper-sized GA
//! would bury it under its own compute.
//!
//! A second sweep exercises the sharded event loop (DESIGN.md §13) at
//! scale: complete 4-ary trees of 5 461 and 21 845 agents — the latter
//! pushing 1 048 560 requests through the grid — run at shard counts
//! 1/2/4 plus a thread-count probe. Every sharded run is asserted
//! bit-identical to the sequential reference on events, horizon,
//! migrations, discovery hops and pull messages; the recorded speedups
//! are only meaningful on multi-core hosts (the merge barrier keeps
//! outcomes identical regardless, which is the point of the gate).
//!
//! Writes `BENCH_gridscale.json` (override with `--out PATH`); the
//! largest tree of the first sweep also gets a per-layer breakdown from
//! the telemetry aggregator. `--quick` shrinks both sweeps for CI smoke
//! runs.
//!
//! ```text
//! cargo run -p agentgrid-bench --bin gridscale --release
//! ```

use agentgrid::prelude::*;
use agentgrid_bench::{grid_totals, run_grid, run_grid_sharded, GridRun};
use agentgrid_telemetry::json::{self, Value};
use std::sync::Arc;
use std::time::Duration;

/// Everything the sweep records about one topology's run.
struct Row {
    topology: String,
    agents: usize,
    requests: usize,
    measured: Measured,
}

struct Measured {
    events: u64,
    wall: Duration,
    events_per_sec: f64,
    horizon_s: f64,
    migrations: usize,
    discovery_hops: u64,
    pull_messages: u64,
    utilisation_pct: f64,
    balance_pct: f64,
}

fn measure(run: &GridRun, topology: &GridTopology) -> Measured {
    let (_, utilisation_pct, balance_pct) = grid_totals(&run.grid, topology);
    Measured {
        events: run.events,
        wall: run.wall,
        events_per_sec: run.events_per_sec(),
        horizon_s: run.grid.horizon().as_secs_f64(),
        migrations: run.grid.migrations(),
        discovery_hops: run.grid.discovery_hops(),
        pull_messages: run.grid.pull_messages(),
        utilisation_pct,
        balance_pct,
    }
}

/// Every simulation outcome two runs of the same workload must agree
/// on. The shard sweep is the sharp edge: a merge-barrier bug shows up
/// here as a diverged event count or pull total.
fn assert_same_outcomes(label: &str, got: &Measured, want: &Measured) {
    assert_eq!(got.events, want.events, "{label}: event count diverged");
    assert_eq!(got.horizon_s, want.horizon_s, "{label}: horizon diverged");
    assert_eq!(
        got.migrations, want.migrations,
        "{label}: migrations diverged"
    );
    assert_eq!(
        got.discovery_hops, want.discovery_hops,
        "{label}: discovery hops diverged"
    );
    assert_eq!(
        got.pull_messages, want.pull_messages,
        "{label}: pull messages diverged"
    );
    assert_eq!(
        got.utilisation_pct, want.utilisation_pct,
        "{label}: utilisation diverged"
    );
    assert_eq!(
        got.balance_pct, want.balance_pct,
        "{label}: balance diverged"
    );
}

fn shape_workload(
    topology: &GridTopology,
    per_agent: usize,
    interarrival: SimDuration,
    seed: u64,
) -> WorkloadConfig {
    WorkloadConfig {
        requests: topology.resources.len() * per_agent,
        interarrival,
        seed,
        agents: topology.names(),
        environment: ExecEnv::Test,
    }
}

fn histogram_json(h: &LogLinearHistogram) -> Value {
    json::obj(vec![
        ("count", json::num(h.count() as f64)),
        ("mean", json::num(h.mean().unwrap_or(0.0))),
        ("p50", json::num(h.percentile(0.50).unwrap_or(0) as f64)),
        ("p90", json::num(h.percentile(0.90).unwrap_or(0) as f64)),
        ("max", json::num(h.max().unwrap_or(0) as f64)),
    ])
}

fn main() {
    let (quick, seed) = agentgrid_bench::parse_args();
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_gridscale.json".to_string());

    // Complete 4-ary trees: 21, 85, 341 and 1365 agents. The two big
    // shapes are the ones the §9 rework targets.
    let (shapes, per_agent): (&[u32], usize) = if quick {
        (&[2, 3], 4)
    } else {
        (&[3, 4, 5, 6], 8)
    };
    let branching = 4;
    let nproc = 8;
    let mut opts = RunOptions::fast();
    // Shrink the GA below even the `fast` tuning: any GA cycle spent
    // only dilutes the grid-layer throughput this bench exists to measure.
    opts.ga = GaConfig {
        population: 8,
        generations_per_event: 4,
        stall_generations: 2,
        ..GaConfig::default()
    };

    eprintln!(
        "gridscale: 4-ary trees {:?} levels, {} requests/agent, seed {}{}",
        shapes,
        per_agent,
        seed,
        if quick { " (quick)" } else { "" },
    );
    println!(
        "{:<10}{:>8}{:>10}{:>12}{:>14}",
        "grid", "agents", "requests", "wall", "events/s"
    );

    let mut rows: Vec<Row> = Vec::new();
    for &levels in shapes {
        let topology = GridTopology::tree(levels, branching, nproc);
        let agents = topology.resources.len();
        let workload = shape_workload(&topology, per_agent, SimDuration::from_secs(1), seed);
        let run = run_grid(&topology, &workload, &opts, false);
        let row = Row {
            topology: format!("{levels}lv x{branching}"),
            agents,
            requests: workload.requests,
            measured: measure(&run, &topology),
        };
        println!(
            "{:<10}{:>8}{:>10}{:>12}{:>14.0}",
            row.topology,
            agents,
            row.requests,
            format!("{:.2?}", row.measured.wall),
            row.measured.events_per_sec,
        );
        rows.push(row);
    }

    // Shard sweep (DESIGN.md §13): the big shapes the sharded loop
    // targets, run sequentially and at 2/4 shards, plus a thread-count
    // probe (4 shards on 1 worker). Each (levels, requests/agent,
    // interarrival, pull period) tuple bounds the horizon — and with it
    // the pull count, which scales as agents x horizon / period — while
    // the largest shape still pushes over a million requests. The
    // horizon is work-limited here (the flood of requests drains for
    // thousands of sim-seconds), so the 21 845-agent shape pulls on a
    // 60 s period: at 10 s it would process a quarter-billion pull
    // events per run, all measuring the same code path.
    let shard_shapes: &[(u32, usize, f64, u64)] = if quick {
        &[(4, 4, 0.1, 10)] // 85 agents, 340 requests
    } else {
        // 5 461 agents x 8 = 43 688 and 21 845 agents x 48 = 1 048 560.
        &[(7, 8, 0.02, 10), (8, 48, 0.002, 60)]
    };
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    type ShardRow = (
        String,
        usize,
        usize,
        f64,
        u64,
        Vec<(usize, Option<usize>, Measured)>,
    );
    let mut shard_rows: Vec<ShardRow> = Vec::new();
    if !shard_shapes.is_empty() {
        eprintln!(
            "shard sweep: {} worker thread(s) available{}",
            host_parallelism,
            if host_parallelism == 1 {
                " — speedups will be flat, equality gates still bind"
            } else {
                ""
            }
        );
        println!(
            "\n{:<10}{:>8}{:>10}{:>8}{:>9}{:>12}{:>14}{:>9}",
            "grid", "agents", "requests", "shards", "workers", "wall", "events/s", "vs seq"
        );
    }
    for &(levels, per_agent, interarrival_s, pull_period_s) in shard_shapes {
        let topology = GridTopology::tree(levels, branching, nproc);
        let agents = topology.resources.len();
        let workload = shape_workload(
            &topology,
            per_agent,
            SimDuration::from_secs_f64(interarrival_s),
            seed,
        );
        let mut opts = opts.clone();
        opts.advertisement = AdvertisementStrategy::PeriodicPull {
            period: SimDuration::from_secs(pull_period_s),
        };
        // FIFO local queues, discovery on. The sweep measures the event
        // loop, and at these request counts a GA local policy measures
        // only itself: the pre-advertisement arrival flood piles tasks
        // onto few resources and every submit then re-evolves a
        // thousands-deep chromosome — quadratic scheduler work that is
        // identical across shard counts and has its own bench
        // (`hotpath`). Advertisement pulls — the sharded event class —
        // don't depend on the local policy.
        let design = ExperimentDesign {
            number: 3,
            local_policy: LocalPolicy::Fifo,
            agents_enabled: true,
        };
        // (shards, workers): 1 is the plain sequential loop and the
        // reference every other row must match bit-for-bit; the
        // (4, Some(1)) probe pins thread-count invariance — same shard
        // geometry, one worker, identical outcomes. The probe runs on
        // the smaller shape only: one extra full pass over the million-
        // request shape buys nothing the 5 461-agent pass doesn't.
        let sweep: &[(usize, Option<usize>)] = if agents < 10_000 {
            &[(1, None), (2, None), (4, None), (4, Some(1))]
        } else {
            &[(1, None), (2, None), (4, None)]
        };
        let mut runs: Vec<(usize, Option<usize>, Measured)> = Vec::new();
        for &(shards, workers) in sweep {
            let run = run_grid_sharded(&topology, &workload, &opts, &design, shards, workers);
            let m = measure(&run, &topology);
            if let Some((_, _, reference)) = runs.first() {
                let label = format!("{levels}lv x{branching} shards={shards}");
                assert_same_outcomes(&label, &m, reference);
            }
            println!(
                "{:<10}{:>8}{:>10}{:>8}{:>9}{:>12}{:>14.0}{:>8.2}x",
                format!("{levels}lv x{branching}"),
                agents,
                workload.requests,
                shards,
                workers.map_or_else(|| "auto".into(), |w| w.to_string()),
                format!("{:.2?}", m.wall),
                m.events_per_sec,
                m.events_per_sec
                    / runs
                        .first()
                        .map_or(m.events_per_sec, |(_, _, r)| r.events_per_sec),
            );
            runs.push((shards, workers, m));
        }
        shard_rows.push((
            format!("{levels}lv x{branching}"),
            agents,
            workload.requests,
            interarrival_s,
            pull_period_s,
            runs,
        ));
    }

    // Per-layer breakdown of the largest shape via the telemetry
    // aggregator (a separate run: the recorder itself costs time).
    let breakdown = {
        let levels = *shapes.last().expect("non-empty sweep");
        let topology = GridTopology::tree(levels, branching, nproc);
        let workload = shape_workload(&topology, per_agent, SimDuration::from_secs(1), seed);
        let recorder = Arc::new(AggregateRecorder::new());
        let mut traced = opts.clone();
        traced.telemetry = Telemetry::new(recorder.clone());
        let run = run_grid(&topology, &workload, &traced, false);
        traced.telemetry.flush();
        let agg = recorder.snapshot();
        eprintln!(
            "breakdown ({}lv x{branching}, telemetry on): {} events in {:.2?}",
            levels, run.events, run.wall
        );
        json::obj(vec![
            ("topology", json::s(format!("{levels}lv x{branching}"))),
            (
                "counters",
                Value::Obj(
                    agg.counters
                        .iter()
                        .map(|(k, v)| (k.to_string(), json::num(*v as f64)))
                        .collect(),
                ),
            ),
            ("queue_wait_us", histogram_json(&agg.queue_wait_us)),
            ("discovery_hops", histogram_json(&agg.discovery_hops)),
            (
                "ga_generation_wall_us",
                histogram_json(&agg.ga_generation_wall_us),
            ),
            ("cache_hits", json::num(agg.cache_hits as f64)),
            ("cache_misses", json::num(agg.cache_misses as f64)),
        ])
    };

    let measured_json = |m: &Measured| {
        json::obj(vec![
            ("events", json::num(m.events as f64)),
            ("wall_s", json::num(m.wall.as_secs_f64())),
            ("events_per_sec", json::num(m.events_per_sec)),
            ("horizon_s", json::num(m.horizon_s)),
            ("migrations", json::num(m.migrations as f64)),
            ("discovery_hops", json::num(m.discovery_hops as f64)),
            ("pull_messages", json::num(m.pull_messages as f64)),
            ("utilisation_pct", json::num(m.utilisation_pct)),
            ("balance_pct", json::num(m.balance_pct)),
        ])
    };
    let doc = json::obj(vec![
        ("bench", json::s("gridscale")),
        (
            "description",
            json::s(
                "experiment-3 runs over complete 4-ary agent trees: interned ids, \
                 incremental bookkeeping and the timing-wheel queue",
            ),
        ),
        (
            "workload",
            json::obj(vec![
                ("branching", json::num(branching as f64)),
                ("nproc", json::num(nproc as f64)),
                ("requests_per_agent", json::num(per_agent as f64)),
                ("interarrival_s", json::num(1.0)),
                ("seed", json::num(seed as f64)),
                ("ga", json::s("tiny (population 8, 4 generations)")),
                ("quick", Value::Bool(quick)),
            ]),
        ),
        (
            "rows",
            Value::Arr(
                rows.iter()
                    .map(|row| {
                        json::obj(vec![
                            ("topology", json::s(row.topology.clone())),
                            ("agents", json::num(row.agents as f64)),
                            ("requests", json::num(row.requests as f64)),
                            ("measured", measured_json(&row.measured)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "shard_sweep",
            json::obj(vec![
                (
                    "description",
                    json::s(
                        "sharded event loop (DESIGN.md §13) at scale: every row is asserted \
                         bit-identical to the shards=1 sequential reference on events, horizon, \
                         migrations, discovery hops and pull messages; (shards=4, workers=1) \
                         probes thread-count invariance; FIFO local queues with discovery on \
                         (the GA measures only itself at these request counts and has its own \
                         bench)",
                    ),
                ),
                ("host_parallelism", json::num(host_parallelism as f64)),
                (
                    "shapes",
                    Value::Arr(
                        shard_rows
                            .iter()
                            .map(
                                |(topology, agents, requests, interarrival_s, period, runs)| {
                                    let reference = runs
                                        .first()
                                        .map(|(_, _, m)| m.events_per_sec)
                                        .unwrap_or(0.0);
                                    json::obj(vec![
                                        ("topology", json::s(topology.clone())),
                                        ("agents", json::num(*agents as f64)),
                                        ("requests", json::num(*requests as f64)),
                                        ("interarrival_s", json::num(*interarrival_s)),
                                        ("pull_period_s", json::num(*period as f64)),
                                        (
                                            "runs",
                                            Value::Arr(
                                                runs.iter()
                                                    .map(|(shards, workers, m)| {
                                                        json::obj(vec![
                                                            ("shards", json::num(*shards as f64)),
                                                            (
                                                                "workers",
                                                                workers.map_or(Value::Null, |w| {
                                                                    json::num(w as f64)
                                                                }),
                                                            ),
                                                            ("measured", measured_json(m)),
                                                            (
                                                                "speedup_vs_sequential",
                                                                json::num(
                                                                    m.events_per_sec
                                                                        / reference.max(1e-9),
                                                                ),
                                                            ),
                                                        ])
                                                    })
                                                    .collect(),
                                            ),
                                        ),
                                    ])
                                },
                            )
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("breakdown", breakdown),
    ]);
    std::fs::write(&out_path, doc.to_pretty()).expect("write bench output");
    eprintln!("wrote {out_path}");
}
