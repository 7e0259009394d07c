//! Scalability of the agent hierarchy (the paper's second named
//! future-work item: "experiments to test the scalability of the system
//! will be carried out on a grid test-bed being built at Warwick").
//!
//! Runs experiment 3 (GA + agents) over complete agent trees of growing
//! size with request pressure proportional to grid capacity, and reports
//! the quantities the paper argues should stay flat or local:
//! discovery hops per placed task (locality), advertisement messages per
//! agent (neighbour-bounded traffic), and the load-balancing metrics.
//!
//! ```text
//! cargo run -p agentgrid-bench --bin scalability --release
//! ```

use agentgrid::prelude::*;
use agentgrid_bench::{grid_totals, run_grid};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("# Agent-hierarchy scalability sweep (experiment 3 config)");
    println!(
        "{:<22}{:>8}{:>10}{:>12}{:>12}{:>9}{:>8}{:>8}{:>10}",
        "grid", "agents", "requests", "hops/task", "msgs/agent", "eps(s)", "u(%)", "b(%)", "wall"
    );

    // (levels, branching): 12ish up to ~85 agents.
    let shapes: &[(u32, usize)] = if quick {
        &[(2, 3), (3, 3)]
    } else {
        &[(2, 3), (3, 3), (3, 4), (4, 3)]
    };

    for &(levels, branching) in shapes {
        for gossip in [false, true] {
            let topology = GridTopology::tree(levels, branching, 8);
            let agents = topology.resources.len();
            let workload = WorkloadConfig {
                // ~8 requests per resource, one per second.
                requests: agents * 8,
                interarrival: SimDuration::from_secs(1),
                seed: 2003,
                agents: topology.names(),
                environment: ExecEnv::Test,
            };
            let opts = if quick {
                RunOptions::fast()
            } else {
                RunOptions::paper()
            };

            let run = run_grid(&topology, &workload, &opts, gossip);
            let (advance, utilisation, balance) = grid_totals(&run.grid, &topology);
            let placed = workload.requests - run.grid.rejected();
            println!(
                "{:<22}{:>8}{:>10}{:>12.2}{:>12.1}{:>9.1}{:>8.1}{:>8.1}{:>9.2?}",
                format!(
                    "{levels}lv x{branching}{}",
                    if gossip { " +gossip" } else { "" }
                ),
                agents,
                workload.requests,
                run.grid.discovery_hops() as f64 / placed.max(1) as f64,
                run.grid.pull_messages() as f64 / agents as f64,
                advance,
                utilisation,
                balance,
                run.wall,
            );
        }
    }
    println!();
    println!("# hops/task stays well below the agent count under neighbour-only");
    println!("# discovery (requests resolve in a neighbourhood); msgs/agent grows");
    println!("# with the run length and node degree, not with total grid size.");
    println!("# Gossip (ACTs piggybacked on pulls) trades longer discovery walks");
    println!("# (requests chase the globally best resource through stale views)");
    println!("# for visibly better placement: higher utilisation and balance and");
    println!("# less lateness as the grid grows.");
}
