//! Integration: node failures observed through grid-level monitor polls.

use agentgrid::prelude::*;
use agentgrid_cluster::monitor::AvailabilityChange;
use agentgrid_sim::SimDuration as D;

#[test]
fn grid_absorbs_a_mid_run_outage() {
    let topology = GridTopology::flat(2, 8);
    let workload = WorkloadConfig {
        requests: 40,
        interarrival: D::from_secs(2),
        seed: 51,
        agents: topology.names(),
        environment: ExecEnv::Test,
    };
    let opts = RunOptions::fast();
    let mut config = GridConfig::new(LocalPolicy::Ga, true, workload.seed);
    config.ga = opts.ga;
    let mut grid = GridSystem::new(&topology, &opts.catalog, &config);
    grid.enable_monitor_polls();

    // Half of R1's nodes die at t = 15 s and recover at t = 50 s; the
    // monitor polls every 10 s.
    {
        let s = grid.scheduler_mut("R1").expect("R1 exists");
        s.monitor_mut().set_period(D::from_secs(10));
        for node in 4..8 {
            s.monitor_mut().inject(AvailabilityChange {
                at: SimTime::from_secs(15),
                node,
                up: false,
            });
        }
        for node in 4..8 {
            s.monitor_mut().inject(AvailabilityChange {
                at: SimTime::from_secs(50),
                node,
                up: true,
            });
        }
    }

    let mut sim = Simulation::new();
    grid.bootstrap(&mut sim, workload.generate(&opts.catalog));
    while let Some(ev) = sim.step() {
        grid.handle(&mut sim, ev);
    }

    // Every task still completes despite the outage.
    let completed: usize = grid.schedulers().map(|s| s.completed().len()).sum();
    assert_eq!(completed, 40);
    assert!(!grid.work_remains());

    // No task that *started* strictly inside the observed outage window
    // used a dead node. (Tasks committed before — or by events processed
    // at the same instant as — the observing poll legitimately keep
    // their nodes: the staleness the paper's monitor design accepts.)
    let r1 = &grid.scheduler("R1").unwrap();
    for c in r1.completed() {
        if c.start > SimTime::from_secs(20) && c.start < SimTime::from_secs(50) {
            for node in c.mask.iter() {
                assert!(
                    node < 4,
                    "task {} started on dead node {node} at {}",
                    c.task.id,
                    c.start
                );
            }
        }
    }

    // R2 remained fully available and did some of the work.
    assert!(!grid.scheduler("R2").unwrap().completed().is_empty());
}

/// A task's `(id, start, completion)`, instants in ticks.
type TaskRun = (u64, u64, u64);

/// Per policy, every task's run sorted by id, for
/// [`full_outage_holds_tasks_until_recovery`].
const OUTAGE_PINS: [(&str, [TaskRun; 5]); 7] = [
    (
        "fifo",
        [
            (0, 2000000, 11000000),
            (1, 4000000, 52000000),
            (2, 30000000, 47000000),
            (3, 52000000, 93000000),
            (4, 93000000, 117000000),
        ],
    ),
    (
        "ga",
        [
            (0, 2000000, 11000000),
            (1, 4000000, 52000000),
            (2, 30000000, 47000000),
            (3, 47000000, 95000000),
            (4, 52000000, 77000000),
        ],
    ),
    (
        "batch",
        [
            (0, 2000000, 11000000),
            (1, 30000000, 71000000),
            (2, 71000000, 87000000),
            (3, 87000000, 128000000),
            (4, 128000000, 152000000),
        ],
    ),
    (
        "minmin",
        [
            (0, 2000000, 11000000),
            (1, 4000000, 52000000),
            (2, 30000000, 47000000),
            (3, 52000000, 100000000),
            (4, 47000000, 72000000),
        ],
    ),
    (
        "maxmin",
        [
            (0, 2000000, 11000000),
            (1, 4000000, 52000000),
            (2, 52000000, 69000000),
            (3, 30000000, 78000000),
            (4, 69000000, 94000000),
        ],
    ),
    (
        "sufferage",
        [
            (0, 2000000, 11000000),
            (1, 4000000, 52000000),
            (2, 30000000, 47000000),
            (3, 52000000, 100000000),
            (4, 47000000, 72000000),
        ],
    ),
    (
        "anneal",
        [
            (0, 2000000, 11000000),
            (1, 4000000, 52000000),
            (2, 30000000, 47000000),
            (3, 47000000, 95000000),
            (4, 52000000, 77000000),
        ],
    ),
];

#[test]
fn full_outage_holds_tasks_until_recovery() {
    // Every policy, including FIFO's assignment at the recovery poll of
    // the tasks it held through the outage: the only test of that path.
    let topology = GridTopology::flat(1, 2);
    let opts = RunOptions::fast();
    let workload = WorkloadConfig {
        requests: 5,
        interarrival: D::from_secs(2),
        seed: 5,
        agents: topology.names(),
        environment: ExecEnv::Test,
    };
    let mut got = Vec::new();
    for policy in PolicyKind::ALL {
        let mut config = GridConfig::new(policy, false, 5);
        config.ga = opts.ga;
        let mut grid = GridSystem::new(&topology, &opts.catalog, &config);
        grid.enable_monitor_polls();
        {
            let s = grid.scheduler_mut("R1").expect("R1 exists");
            s.monitor_mut().set_period(D::from_secs(5));
            for node in 0..2 {
                s.monitor_mut().inject(AvailabilityChange {
                    at: SimTime::from_secs(1),
                    node,
                    up: false,
                });
            }
            for node in 0..2 {
                s.monitor_mut().inject(AvailabilityChange {
                    at: SimTime::from_secs(30),
                    node,
                    up: true,
                });
            }
        }
        let mut sim = Simulation::new();
        // Requests start at t=2, after the outage begins but before the
        // first poll observes it; later arrivals hit the observed outage.
        grid.bootstrap(&mut sim, workload.generate(&opts.catalog));
        while let Some(ev) = sim.step() {
            grid.handle(&mut sim, ev);
        }
        let name = policy.token();
        let r1 = grid.scheduler("R1").unwrap();
        assert_eq!(
            r1.completed().len(),
            5,
            "{name}: held tasks must run after recovery"
        );
        // At least one task can only have started after the recovery poll.
        let late_start = r1
            .completed()
            .iter()
            .filter(|c| c.start >= SimTime::from_secs(30))
            .count();
        assert!(
            late_start > 0,
            "{name}: some tasks must have waited out the outage"
        );
        let mut runs: Vec<TaskRun> = r1
            .completed()
            .iter()
            .map(|c| (c.task.id.0, c.start.ticks(), c.completion.ticks()))
            .collect();
        runs.sort_unstable();
        got.push((name, runs));
    }
    let table: String = got
        .iter()
        .map(|(name, runs)| format!("    ({name:?}, {runs:?}),\n"))
        .collect();
    let pins: Vec<(&str, Vec<TaskRun>)> = OUTAGE_PINS
        .iter()
        .map(|(name, runs)| (*name, runs.to_vec()))
        .collect();
    assert_eq!(got, pins, "re-pinned table:\n{table}");
}
