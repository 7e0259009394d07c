//! Shared plumbing for the experiment binaries and Criterion benches.

use agentgrid::prelude::*;
use std::time::{Duration, Instant};

/// The paper's full case-study run: twelve 16-node resources, 600
/// requests at 1-second intervals, seed fixed across experiments.
pub fn paper_workload(seed: u64) -> (GridTopology, WorkloadConfig) {
    let topology = GridTopology::case_study();
    let workload = WorkloadConfig::case_study(topology.names(), seed);
    (topology, workload)
}

/// A scaled-down case study (same topology, fewer requests) for quick
/// smoke runs: pass `--quick` to the experiment binaries.
pub fn quick_workload(seed: u64) -> (GridTopology, WorkloadConfig) {
    let topology = GridTopology::case_study();
    let mut workload = WorkloadConfig::case_study(topology.names(), seed);
    workload.requests = 120;
    (topology, workload)
}

/// One finished experiment-3 grid run plus its throughput numbers.
pub struct GridRun {
    /// The grid, post-run, for reading counters and per-resource stats.
    pub grid: GridSystem,
    /// How many requests the workload generated.
    pub requests: usize,
    /// Simulation events processed to drain the run.
    pub events: u64,
    /// Wall time from bootstrap to the last event.
    pub wall: Duration,
}

impl GridRun {
    /// Simulation events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Run experiment 3 (GA + agent discovery) over a topology and workload
/// until the event queue drains.
pub fn run_grid(
    topology: &GridTopology,
    workload: &WorkloadConfig,
    opts: &RunOptions,
    gossip: bool,
) -> GridRun {
    let design = ExperimentDesign::experiment3();
    let mut config = GridConfig::new(design.local_policy, design.agents_enabled, workload.seed);
    config.ga = opts.ga;
    config.gossip = gossip;
    config.telemetry = opts.telemetry.clone();
    config.failure_policy = opts.failure_policy;
    config.chaos = opts.chaos.clone();
    let mut grid = GridSystem::new(topology, &opts.catalog, &config);
    let mut sim = Simulation::new();
    sim.set_telemetry(opts.telemetry.clone());
    let requests = workload.generate(&opts.catalog);
    let n_requests = requests.len();
    let t0 = Instant::now();
    grid.bootstrap(&mut sim, requests);
    while let Some(ev) = sim.step() {
        grid.handle(&mut sim, ev);
    }
    GridRun {
        grid,
        requests: n_requests,
        events: sim.processed(),
        wall: t0.elapsed(),
    }
}

/// [`run_grid`], but through the sharded event loop (DESIGN.md §13)
/// and with the design axes chosen by the caller: `shards > 1` batches
/// runs of advertisement pulls over contiguous agent-subtree shards on
/// worker threads; `shards == 1` is the plain sequential loop.
/// Outcomes are identical either way — `gridscale` asserts it — so the
/// two are interchangeable except for wall time.
pub fn run_grid_sharded(
    topology: &GridTopology,
    workload: &WorkloadConfig,
    opts: &RunOptions,
    design: &ExperimentDesign,
    shards: usize,
    shard_workers: Option<usize>,
) -> GridRun {
    let mut config = GridConfig::new(design.local_policy, design.agents_enabled, workload.seed);
    config.ga = opts.ga;
    config.telemetry = opts.telemetry.clone();
    config.failure_policy = opts.failure_policy;
    config.advertisement = opts.advertisement;
    config.chaos = opts.chaos.clone();
    let mut grid = GridSystem::new(topology, &opts.catalog, &config);
    let mut sim = Simulation::new();
    sim.set_telemetry(opts.telemetry.clone());
    let requests = workload.generate(&opts.catalog);
    let n_requests = requests.len();
    sim.reserve(n_requests + topology.resources.len() * 2);
    let t0 = Instant::now();
    grid.bootstrap(&mut sim, requests);
    if shards > 1 {
        let mut runner = ShardRunner::new(shards, shard_workers);
        while runner.pump(&mut grid, &mut sim, None, true) > 0 {}
    } else {
        while let Some(ev) = sim.step() {
            grid.handle(&mut sim, ev);
        }
    }
    GridRun {
        grid,
        requests: n_requests,
        events: sim.processed(),
        wall: t0.elapsed(),
    }
}

/// Total (ε, υ, β) metrics from a finished grid.
pub fn grid_totals(grid: &GridSystem, topology: &GridTopology) -> (f64, f64, f64) {
    let horizon = grid.horizon();
    let horizon_s = horizon.as_secs_f64().max(1e-9);
    let stats: Vec<ResourceStats> = topology
        .resources
        .iter()
        .map(|spec| {
            let s = grid
                .scheduler(&spec.name)
                .expect("scheduler per topology resource");
            ResourceStats::from_run(
                &spec.name,
                spec.nproc,
                s.resource().allocations(),
                s.completed(),
                horizon,
            )
        })
        .collect();
    let total = compute_grid(&stats, horizon_s);
    (total.advance_s, total.utilisation_pct, total.balance_pct)
}

/// Parse the common `--quick` / `--seed N` flags of the experiment bins.
pub fn parse_args() -> (bool, u64) {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2003);
    (quick, seed)
}
