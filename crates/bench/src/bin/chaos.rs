//! Chaos soak: fault-rate sweep over the experiment-3 grid (DESIGN.md §10).
//!
//! Runs the GA + agent-discovery grid under increasingly hostile
//! [`FaultPlan`]s — advertisement-pull loss, then seeded crash storms
//! with loss on top — and checks the chaos layer's contract on every
//! row:
//!
//! * **completion** — every generated task completes, exactly once
//!   (`duplicate_completions == 0`), under any plan whose crashes all
//!   recover;
//! * **determinism** — each row is run twice from the same seeds and the
//!   telemetry streams must match event for event (host-clock GA fields
//!   normalised);
//! * **strict no-op** — the zero-fault row must be bit-identical (events
//!   processed, horizon, migrations, hops, pulls) to a plain run with no
//!   chaos layer at all.
//!
//! Writes `BENCH_chaos.json` (override with `--out PATH`); `--quick`
//! shrinks the grid and workload for CI smoke runs.
//!
//! ```text
//! cargo run -p agentgrid-bench --bin chaos --release
//! ```

use agentgrid::prelude::*;
use agentgrid_bench::{grid_totals, run_grid, GridRun};
use agentgrid_telemetry::json::{self, Value};
use std::sync::Arc;

/// Host-clock GA observations differ across identical virtual-time runs;
/// zero them before comparing streams.
fn normalise(mut events: Vec<TimedEvent>) -> Vec<TimedEvent> {
    for e in &mut events {
        match &mut e.event {
            Event::GaEvolve { wall_us, .. } => *wall_us = 0,
            Event::GaHotPath {
                evals_per_sec,
                pool_utilisation,
                ..
            } => {
                *evals_per_sec = 0.0;
                *pool_utilisation = 0.0;
            }
            _ => {}
        }
    }
    events
}

struct Row {
    label: &'static str,
    crashes: u64,
    pull_loss: f64,
    completed: usize,
    requests: usize,
    rejected: usize,
    duplicates: u64,
    recovered: u64,
    dropped: u64,
    retries_exhausted: u64,
    mean_recovery_latency_s: f64,
    max_recovery_latency_s: f64,
    advance_s: f64,
    horizon_s: f64,
    wall_s: f64,
}

fn run_row(
    label: &'static str,
    topology: &GridTopology,
    workload: &WorkloadConfig,
    opts: &RunOptions,
) -> (Row, GridRun) {
    // Two telemetry-recorded runs from the same seeds: the streams must
    // be identical or the chaos layer broke bit-reproducibility.
    let mut streams = Vec::new();
    let mut first: Option<GridRun> = None;
    for _ in 0..2 {
        let ring = Arc::new(RingRecorder::unbounded());
        let mut traced = opts.clone();
        traced.telemetry = Telemetry::new(ring.clone());
        let run = run_grid(topology, workload, &traced, false);
        traced.telemetry.flush();
        streams.push(normalise(ring.snapshot()));
        if first.is_none() {
            first = Some(run);
        }
    }
    assert_eq!(
        streams[0], streams[1],
        "{label}: same-seed runs diverged — chaos layer is nondeterministic"
    );
    let run = first.expect("first run recorded");

    let completed: usize = run.grid.schedulers().map(|s| s.completed().len()).sum();
    assert_eq!(
        completed + run.grid.rejected(),
        run.requests,
        "{label}: tasks unaccounted for"
    );
    assert_eq!(
        run.grid.duplicate_completions(),
        0,
        "{label}: a task completed twice"
    );

    let stats = run.grid.chaos_stats().unwrap_or_default();
    let (advance_s, _, _) = grid_totals(&run.grid, topology);
    let row = Row {
        label,
        crashes: stats.crashes,
        pull_loss: 0.0, // caller fills in
        completed,
        requests: run.requests,
        rejected: run.grid.rejected(),
        duplicates: run.grid.duplicate_completions(),
        recovered: stats.recovered_tasks,
        dropped: stats.dropped_messages,
        retries_exhausted: stats.retries_exhausted,
        mean_recovery_latency_s: stats.recovery_latency_mean_s,
        max_recovery_latency_s: stats.recovery_latency_max_s,
        advance_s,
        horizon_s: run.grid.horizon().as_secs_f64(),
        wall_s: run.wall.as_secs_f64(),
    };
    (row, run)
}

/// How much advance time (ε, bigger = finishing further ahead of the
/// deadlines) a faulted row lost against the fault-free row, as a
/// percentage of the fault-free magnitude. Positive = degraded.
fn degradation_pct(fault_free: f64, advance: f64) -> f64 {
    if fault_free.abs() < 1e-9 {
        return 0.0;
    }
    (fault_free - advance) / fault_free.abs() * 100.0
}

fn main() {
    let (quick, seed) = agentgrid_bench::parse_args();
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_chaos.json".to_string());

    // A complete 4-ary agent tree; the quick shape is CI-sized.
    let (levels, per_agent) = if quick { (2, 4) } else { (3, 8) };
    let topology = GridTopology::tree(levels, 4, 8);
    let names = topology.names();
    let workload = WorkloadConfig {
        requests: topology.resources.len() * per_agent,
        interarrival: SimDuration::from_secs(1),
        seed,
        agents: names.clone(),
        environment: ExecEnv::Test,
    };
    let mut opts = RunOptions::fast();
    opts.ga = GaConfig {
        population: 8,
        generations_per_event: 4,
        stall_generations: 2,
        ..GaConfig::default()
    };

    // Crash instants fall in the first half of the request window, so
    // every outage both matters (work is queued) and recovers in-run.
    let fault_horizon = SimTime::from_secs(workload.requests as u64);
    let max_outage = SimDuration::from_secs(20);
    let hardened = |plan: FaultPlan| {
        plan.with_act_ttl(SimDuration::from_secs(30))
            .with_dispatch_timeout(SimDuration::from_secs(2))
            .with_max_retries(24)
    };
    let plans: Vec<(&'static str, f64, FaultPlan)> = vec![
        ("fault-free", 0.0, FaultPlan::none()),
        (
            "loss-10",
            0.10,
            hardened(FaultPlan::none().with_pull_loss(0.10)),
        ),
        (
            "loss-30",
            0.30,
            hardened(FaultPlan::none().with_pull_loss(0.30)),
        ),
        (
            "crash-2",
            0.0,
            hardened(FaultPlan::random(
                seed ^ 0xc4a05,
                &names,
                fault_horizon,
                2,
                max_outage,
            )),
        ),
        (
            "crash-4-loss-20",
            0.20,
            hardened(
                FaultPlan::random(seed ^ 0xc4a05, &names, fault_horizon, 4, max_outage)
                    .with_pull_loss(0.20),
            ),
        ),
    ];

    eprintln!(
        "chaos: {}lv x4 tree ({} agents), {} requests, seed {}{}",
        levels,
        topology.resources.len(),
        workload.requests,
        seed,
        if quick { " (quick)" } else { "" }
    );
    println!(
        "{:<18}{:>8}{:>7}{:>11}{:>10}{:>9}{:>11}{:>12}",
        "plan", "crashes", "loss", "completed", "recovered", "dropped", "advance", "degradation"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut fault_free_advance = 0.0_f64;
    for (label, loss, plan) in plans {
        let mut run_opts = opts.clone();
        run_opts.chaos = plan;
        let (mut row, run) = run_row(label, &topology, &workload, &run_opts);
        row.pull_loss = loss;

        if label == "fault-free" {
            // The dormant layer must not perturb a single outcome of a
            // plain run with no chaos configured at all.
            let plain = run_grid(&topology, &workload, &opts, false);
            assert!(run.grid.chaos_stats().is_none(), "empty plan built state");
            assert_eq!(plain.events, run.events, "event count diverged");
            assert_eq!(plain.grid.horizon(), run.grid.horizon(), "horizon diverged");
            assert_eq!(
                plain.grid.migrations(),
                run.grid.migrations(),
                "migrations diverged"
            );
            assert_eq!(
                plain.grid.discovery_hops(),
                run.grid.discovery_hops(),
                "hops diverged"
            );
            assert_eq!(
                plain.grid.pull_messages(),
                run.grid.pull_messages(),
                "pulls diverged"
            );
            fault_free_advance = row.advance_s;
        }

        let degradation = degradation_pct(fault_free_advance, row.advance_s);
        println!(
            "{:<18}{:>8}{:>6.0}%{:>8}/{:<3}{:>9}{:>9}{:>10.1}s{:>11.1}%",
            row.label,
            row.crashes,
            row.pull_loss * 100.0,
            row.completed,
            row.requests,
            row.recovered,
            row.dropped,
            row.advance_s,
            degradation,
        );
        rows.push(row);
    }

    let doc = json::obj(vec![
        ("bench", json::s("chaos")),
        (
            "description",
            json::s(
                "experiment-3 grid under seeded fault plans (advert loss, crash storms); \
                 every row asserts all-tasks-complete-exactly-once and same-seed telemetry \
                 determinism; the zero-fault row is asserted bit-identical to a run with \
                 no chaos layer configured",
            ),
        ),
        (
            "workload",
            json::obj(vec![
                ("levels", json::num(levels as f64)),
                ("branching", json::num(4.0)),
                ("nproc", json::num(8.0)),
                ("agents", json::num(topology.resources.len() as f64)),
                ("requests", json::num(workload.requests as f64)),
                ("interarrival_s", json::num(1.0)),
                ("seed", json::num(seed as f64)),
                ("act_ttl_s", json::num(30.0)),
                ("dispatch_timeout_s", json::num(2.0)),
                ("max_retries", json::num(24.0)),
                ("quick", Value::Bool(quick)),
            ]),
        ),
        (
            "rows",
            Value::Arr(
                rows.iter()
                    .map(|r| {
                        let degradation = degradation_pct(fault_free_advance, r.advance_s);
                        json::obj(vec![
                            ("label", json::s(r.label)),
                            ("crashes", json::num(r.crashes as f64)),
                            ("pull_loss", json::num(r.pull_loss)),
                            (
                                "completion_rate",
                                json::num(r.completed as f64 / r.requests.max(1) as f64),
                            ),
                            ("completed", json::num(r.completed as f64)),
                            ("requests", json::num(r.requests as f64)),
                            ("rejected", json::num(r.rejected as f64)),
                            ("duplicate_completions", json::num(r.duplicates as f64)),
                            ("recovered_tasks", json::num(r.recovered as f64)),
                            ("dropped_messages", json::num(r.dropped as f64)),
                            ("retries_exhausted", json::num(r.retries_exhausted as f64)),
                            (
                                "mean_recovery_latency_s",
                                json::num(r.mean_recovery_latency_s),
                            ),
                            (
                                "max_recovery_latency_s",
                                json::num(r.max_recovery_latency_s),
                            ),
                            ("advance_s", json::num(r.advance_s)),
                            ("advance_degradation_pct", json::num(degradation)),
                            ("horizon_s", json::num(r.horizon_s)),
                            ("wall_s", json::num(r.wall_s)),
                            ("deterministic", Value::Bool(true)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&out_path, doc.to_pretty()).expect("write bench output");
    eprintln!("wrote {out_path}");
}
