//! The two batch workloads, `table3` and `gridscale`: build grids from a
//! generated workload, run their event loops, and time the loops either
//! plainly (end-to-end, in the thread's CPU time) or split by layer
//! (traced, in wall time).

use crate::gate::{self, ExperimentOutcome, GridOutcome};
use crate::host::thread_cpu;
use crate::recorder::LayerRecorder;
use crate::report::{Layers, Outcome};
use crate::stats::median;
use crate::{another_round_fits, pinned_options, Args};
use agentgrid::prelude::*;
use agentgrid::{collect_result, grid_config};
use agentgrid_telemetry::json;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One batch workload: a grid, its request stream, and the Table 2
/// designs run over it one after another.
pub struct Job {
    topology: GridTopology,
    workload: WorkloadConfig,
    opts: RunOptions,
    designs: Vec<ExperimentDesign>,
    /// Time one event in this many in traced runs (1 = every event).
    sample_every: u64,
    /// Set-ups measured in each set-up process (see `setup_median`).
    setup_samples: usize,
}

/// The paper case study: 12 resources, 600 requests at 1 s intervals,
/// seed 2003, experiments 1–3 in sequence with the default GA.
pub fn table3_job() -> Job {
    let (topology, workload) = agentgrid_bench::paper_workload(2003);
    Job {
        topology,
        workload,
        opts: pinned_options(),
        designs: ExperimentDesign::table2().to_vec(),
        sample_every: 1,
        setup_samples: 10,
    }
}

/// The committed `gridscale` shard-sweep row: experiment-3 dispatch with
/// FIFO local queues over a complete 4-ary tree of 5 461 agents with 8
/// nodes each, 8 requests per agent at 0.02 s intervals, 10 s pulls.
pub fn gridscale_job() -> Job {
    let topology = GridTopology::tree(7, 4, 8);
    let workload = WorkloadConfig {
        requests: topology.resources.len() * 8,
        interarrival: SimDuration::from_secs_f64(0.02),
        seed: 2003,
        agents: topology.names(),
        environment: ExecEnv::Test,
    };
    let mut opts = pinned_options();
    opts.advertisement = AdvertisementStrategy::PeriodicPull {
        period: SimDuration::from_secs(10),
    };
    Job {
        topology,
        workload,
        opts,
        designs: vec![ExperimentDesign {
            number: 3,
            local_policy: LocalPolicy::Fifo,
            agents_enabled: true,
        }],
        // 8.5 M events: three clock reads around every one of them
        // would nearly double the run.
        sample_every: 16,
        setup_samples: 3,
    }
}

/// A grid ready to run: set up, not yet stepped.
struct Prepared {
    design: ExperimentDesign,
    grid: GridSystem,
    sim: Simulation<GridEvent>,
    requests: usize,
}

impl Job {
    /// Program set-up for one design: `GridSystem::new`, workload
    /// generation and `bootstrap`.
    fn prepare(
        &self,
        design: &ExperimentDesign,
        recorder: Option<&Arc<LayerRecorder>>,
    ) -> Prepared {
        let mut opts = self.opts.clone();
        if let Some(r) = recorder {
            opts.telemetry = Telemetry::new(r.clone());
        }
        let config = grid_config(design, self.workload.seed, &opts);
        let mut grid = GridSystem::new(&self.topology, &opts.catalog, &config);
        let requests = self.workload.generate(&opts.catalog);
        let n = requests.len();
        let mut sim = Simulation::new();
        sim.set_telemetry(opts.telemetry.clone());
        sim.reserve(n + self.topology.resources.len() * 2);
        grid.bootstrap(&mut sim, requests);
        Prepared {
            design: *design,
            grid,
            sim,
            requests: n,
        }
    }

    /// Set up every design; returns the CPU time that took.
    fn setup_only(&self) -> Duration {
        let t0 = thread_cpu();
        for d in &self.designs {
            std::hint::black_box(self.prepare(d, None));
        }
        thread_cpu() - t0
    }
}

/// What one repetition (every design once) measured and produced.
struct Rep {
    /// CPU time of the event loops.
    cpu: Duration,
    /// Wall time of the event loops, which the traced layer rows split.
    wall: Duration,
    tasks: u64,
    completed: u64,
    experiments: Vec<ExperimentOutcome>,
    grid: GridOutcome,
    layers: Option<Layers>,
    /// Request-handling CPU times of an untraced repetition, ms.
    latencies_ms: Vec<f64>,
}

/// Run every design of `job` once. Untraced, only request events are
/// timed, for their handling latency; traced, the loop is split by layer
/// and the recorder is attached.
fn run_rep(job: &Job, traced: bool) -> Rep {
    let mut rep = Rep {
        cpu: Duration::ZERO,
        wall: Duration::ZERO,
        tasks: 0,
        completed: 0,
        experiments: Vec::new(),
        grid: GridOutcome {
            events: 0,
            pull_messages: 0,
            discovery_hops: 0,
            migrations: 0,
            horizon_s: 0.0,
        },
        layers: traced.then(Layers::default),
        latencies_ms: Vec::new(),
    };
    let recorder = traced.then(|| Arc::new(LayerRecorder::new()));
    let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
    for design in &job.designs {
        let Prepared {
            design,
            mut grid,
            mut sim,
            requests,
        } = job.prepare(design, recorder.as_ref());
        if !traced {
            rep.latencies_ms.reserve(requests);
        }

        let (wall, cpu) = (Instant::now(), thread_cpu());
        match rep.layers.as_mut() {
            None => drive_plain(&mut grid, &mut sim, &mut rep.latencies_ms),
            Some(layers) => drive_split(&mut grid, &mut sim, job.sample_every, layers),
        }
        rep.cpu += thread_cpu() - cpu;
        rep.wall += wall.elapsed();

        let result = collect_result(&design, &job.topology, &grid, requests);
        rep.experiments.push(ExperimentOutcome::of(&result));
        rep.tasks += requests as u64;
        rep.completed += grid.completed_tasks() as u64;
        rep.grid.events += sim.processed();
        rep.grid.pull_messages += grid.pull_messages();
        rep.grid.discovery_hops += grid.discovery_hops();
        rep.grid.migrations += grid.migrations() as u64;
        rep.grid.horizon_s = rep.grid.horizon_s.max(grid.horizon().as_secs_f64());
        let stats = grid.engine().stats();
        cache_hits += stats.hits;
        cache_misses += stats.misses;
    }
    if let (Some(layers), Some(recorder)) = (rep.layers.as_mut(), recorder) {
        let c = recorder.counts();
        let g = &rep.grid;
        for (name, value) in [
            ("scheduler.ga_evolve_s", c.ga_evolve_wall_us as f64 / 1e6),
            ("scheduler.ga_evolve_calls", c.ga_evolve_calls as f64),
            ("scheduler.ga_evolve_p50_us", c.ga_evolve_p50_us as f64),
            ("scheduler.ga_evolve_p99_us", c.ga_evolve_p99_us as f64),
            ("scheduler.ga_evaluations", c.ga_evaluations as f64),
            ("pace.cache_misses", c.cache_evaluate as f64),
            ("sim.events", g.events as f64),
            ("agents.pull_messages", g.pull_messages as f64),
            ("agents.discovery_hops", g.discovery_hops as f64),
            ("agents.migrations", g.migrations as f64),
            ("agents.escalation_hops", c.escalation_hops as f64),
        ] {
            layers.set(name, value);
        }
        if cache_hits + cache_misses > 0 {
            let ratio = cache_hits as f64 / (cache_hits + cache_misses) as f64;
            layers.set("pace.cache_hit_ratio", ratio);
        }
        if c.ga_evolve_wall_us > 0 {
            let evals_per_s = c.ga_evaluations as f64 / (c.ga_evolve_wall_us as f64 / 1e6);
            layers.set("scheduler.ga_evals_per_s", evals_per_s);
        }
        let top_level: f64 = ["sim.step_s"]
            .iter()
            .chain(&HANDLE_ROWS)
            .map(|n| layers.get(n))
            .sum();
        layers.set("residual_s", rep.wall.as_secs_f64() - top_level);
    }
    rep
}

/// The plain event loop (the `run_grid` shape), timing only request
/// events: the CPU time the grid takes to place a task when it arrives.
/// Each sample includes one read of the clock.
fn drive_plain(
    grid: &mut GridSystem,
    sim: &mut Simulation<GridEvent>,
    latencies_ms: &mut Vec<f64>,
) {
    while let Some(ev) = sim.step() {
        if let GridEvent::Request(_) = ev {
            let t = thread_cpu();
            grid.handle(sim, ev);
            latencies_ms.push((thread_cpu() - t).as_secs_f64() * 1e3);
        } else {
            grid.handle(sim, ev);
        }
    }
}

/// Which `core.handle_*` row an event's handling time belongs to.
fn class(ev: &GridEvent) -> usize {
    match ev {
        GridEvent::Request(_) => 0,
        GridEvent::TaskComplete { .. } => 1,
        GridEvent::AdvertisementPull { .. } => 2,
        _ => 3,
    }
}

const HANDLE_ROWS: [&str; 4] = [
    "core.handle_request_s",
    "core.handle_complete_s",
    "core.handle_pull_s",
    "core.handle_other_s",
];

/// The event loop split into `Simulation::step` and `GridSystem::handle`
/// by event class. One event in `every` is timed (chosen by a fixed
/// xorshift stream, so periodic event patterns do not alias with the
/// sample) and each row is scaled up by its class's exact event count.
fn drive_split(
    grid: &mut GridSystem,
    sim: &mut Simulation<GridEvent>,
    every: u64,
    layers: &mut Layers,
) {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut step_ns = 0u64;
    let mut step_samples = 0u64;
    let mut steps = 0u64;
    let mut handle_ns = [0u64; 4];
    let mut handle_samples = [0u64; 4];
    let mut counts = [0u64; 4];
    loop {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let timed = every <= 1 || state.is_multiple_of(every);
        let ev = if timed {
            let t0 = Instant::now();
            let ev = sim.step();
            let t1 = Instant::now();
            let Some(ev) = ev else { break };
            let k = class(&ev);
            grid.handle(sim, ev);
            let t2 = Instant::now();
            step_ns += (t1 - t0).as_nanos() as u64;
            step_samples += 1;
            handle_ns[k] += (t2 - t1).as_nanos() as u64;
            handle_samples[k] += 1;
            k
        } else {
            let Some(ev) = sim.step() else { break };
            let k = class(&ev);
            grid.handle(sim, ev);
            k
        };
        counts[ev] += 1;
        steps += 1;
    }
    // Each timed interval also contains one clock read; take it out.
    let clock = clock_read_ns();
    let scaled = |ns: u64, samples: u64, count: u64| {
        if samples == 0 {
            0.0
        } else {
            (ns as f64 / samples as f64 - clock).max(0.0) * count as f64 / 1e9
        }
    };
    layers.add("sim.step_s", scaled(step_ns, step_samples, steps));
    for k in 0..4 {
        layers.add(
            HANDLE_ROWS[k],
            scaled(handle_ns[k], handle_samples[k], counts[k]),
        );
    }
}

/// The median cost of one `Instant::now`, in nanoseconds.
fn clock_read_ns() -> f64 {
    let mut reads: Vec<f64> = (0..1001)
        .map(|_| {
            let t0 = Instant::now();
            let t1 = Instant::now();
            (t1 - t0).as_nanos() as f64
        })
        .collect();
    median(&mut reads).unwrap_or(0.0)
}

/// The median CPU time of `setup_samples` set-ups of a batch workload's
/// every design, in this process.
pub fn setup_median(kind: Kind) -> f64 {
    let job = job(kind);
    let mut setups: Vec<f64> = (0..job.setup_samples)
        .map(|_| job.setup_only().as_secs_f64())
        .collect();
    median(&mut setups).expect("set-up samples")
}

fn job(kind: Kind) -> Job {
    match kind {
        Kind::Table3 => table3_job(),
        Kind::Gridscale => gridscale_job(),
    }
}

/// Which batch workload a run measures.
#[derive(Clone, Copy)]
pub enum Kind {
    /// The paper case study.
    Table3,
    /// The 5 461-agent FIFO dispatch run.
    Gridscale,
}

/// Measure a batch workload for `args.seconds`.
///
/// Untraced, whole repetitions run back to back until the time is up
/// (wall time, so a run's length does not depend on the host's load);
/// traced, untraced and traced repetitions alternate so `trace_overhead`
/// compares neighbours' wall times. Either way at least one of each kind
/// runs.
pub fn run(kind: Kind, args: &Args) -> Outcome {
    let job = job(kind);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    loop {
        plain.push(run_rep(&job, false));
        if args.trace {
            traced.push(run_rep(&job, true));
        }
        if !another_round_fits(start, plain.len(), budget) {
            break;
        }
    }
    let peak_rss_mb = crate::host::peak_rss_mb();

    let mut out = Outcome::default();
    for rep in plain.iter().chain(&traced) {
        out.attempted += rep.tasks;
        out.failed += rep.tasks - rep.completed;
    }
    match kind {
        Kind::Table3 => {
            let want = gate::table3_reference();
            for rep in plain.iter().chain(&traced) {
                out.gate(gate::check_table3(&rep.experiments, &want));
            }
        }
        Kind::Gridscale => {
            let want = gate::gridscale_reference();
            for rep in plain.iter().chain(&traced) {
                out.gate(gate::check_gridscale(&rep.grid, &want));
            }
        }
    }
    out.problems.dedup();

    let tasks = plain[0].tasks as f64;
    if args.trace {
        let reps: Vec<Layers> = traced.iter().filter_map(|r| r.layers.clone()).collect();
        let mut layers = Layers::median(&reps);
        let wall = |reps: &[Rep]| {
            let mut w: Vec<f64> = reps.iter().map(|r| r.wall.as_secs_f64()).collect();
            median(&mut w).expect("at least one repetition")
        };
        layers.set("trace_overhead", wall(&traced) / wall(&plain));
        out.layers(&layers);
    } else {
        // Throughput over the whole timed phase: every repetition's tasks
        // over every repetition's CPU time.
        let cpu: f64 = plain.iter().map(|r| r.cpu.as_secs_f64()).sum();
        out.metric("tasks_per_s", tasks * plain.len() as f64 / cpu);
        let mut latencies: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect();
        out.latencies(&mut latencies);
        out.metric("peak_rss_mb", peak_rss_mb);
    }
    out.note("repetitions", json::num(plain.len() as f64));
    out.note("traced_repetitions", json::num(traced.len() as f64));
    out.note("tasks_per_repetition", json::num(tasks));
    out.note("workload_seed", json::num(job.workload.seed as f64));
    out
}
