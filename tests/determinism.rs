//! Integration: bit-for-bit reproducibility.
//!
//! The paper relies on "the seed is set to the same so that the workload
//! for each experiment is identical"; we additionally guarantee that the
//! *entire run* — GA evolution included — is a pure function of the seed.

use agentgrid::prelude::*;

/// Zero the host wall-clock fields (`wall_us`, `evals_per_sec`) so two
/// telemetry streams of the same run compare equal: host timing is the
/// one thing no replay can reproduce.
fn scrub_wall_clock(events: Vec<TimedEvent>) -> Vec<TimedEvent> {
    events
        .into_iter()
        .map(|mut te| {
            match &mut te.event {
                Event::GaEvolve { wall_us, .. } => *wall_us = 0,
                Event::GaHotPath { evals_per_sec, .. } => *evals_per_sec = 0.0,
                _ => {}
            }
            te
        })
        .collect()
}

fn small() -> (GridTopology, WorkloadConfig) {
    let topology = GridTopology::flat(3, 4);
    let workload = WorkloadConfig {
        requests: 25,
        interarrival: SimDuration::from_secs(1),
        seed: 77,
        agents: topology.names(),
        environment: ExecEnv::Test,
    };
    (topology, workload)
}

#[test]
fn identical_seeds_give_identical_results() {
    let (topology, workload) = small();
    let design = ExperimentDesign::experiment3();
    let a = run_experiment(&design, &topology, &workload, &RunOptions::fast());
    let b = run_experiment(&design, &topology, &workload, &RunOptions::fast());
    assert_eq!(a, b);
    // Strong form: serialised bytes match.
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn telemetry_does_not_perturb_the_run() {
    // Recording a full trace must not change a single scheduling
    // decision: the instrumented run's results are byte-identical to the
    // uninstrumented run with the same seed.
    let (topology, workload) = small();
    let design = ExperimentDesign::experiment3();
    let plain = run_experiment(&design, &topology, &workload, &RunOptions::fast());

    let ring = std::sync::Arc::new(RingRecorder::unbounded());
    let mut opts = RunOptions::fast();
    opts.telemetry = Telemetry::new(ring.clone());
    let traced = run_experiment(&design, &topology, &workload, &opts);

    assert_eq!(plain, traced);
    assert_eq!(plain.to_json(), traced.to_json());
    assert!(
        !ring.snapshot().is_empty(),
        "the trace must actually record"
    );
}

#[test]
fn ga_threads_do_not_perturb_the_run() {
    // Parallel fitness evaluation must not change a single scheduling
    // decision: costs land in per-index slots and every RNG draw stays
    // on the driving thread, so any thread count reproduces the
    // sequential run byte for byte.
    let (topology, workload) = small();
    let design = ExperimentDesign::experiment3();
    let mut opts = RunOptions::fast();
    opts.ga.threads = 1;
    let sequential = run_experiment(&design, &topology, &workload, &opts);
    for threads in [2, 4, 8] {
        let mut opts = RunOptions::fast();
        opts.ga.threads = threads;
        let parallel = run_experiment(&design, &topology, &workload, &opts);
        assert_eq!(sequential, parallel, "threads={threads}");
        assert_eq!(
            sequential.to_json(),
            parallel.to_json(),
            "threads={threads}"
        );
    }
}

#[test]
fn shards_do_not_perturb_the_run() {
    // Sharded pull batching must not change a single scheduling decision
    // or telemetry event: the merge barrier replays every batch window
    // in `(time, seq)` order, so any shard/worker count reproduces the
    // sequential loop byte for byte. 85 agents put the bootstrap pull
    // wave over the inline threshold, so the scoped-thread path runs.
    let topology = GridTopology::tree(4, 4, 2);
    let workload = WorkloadConfig {
        requests: 40,
        interarrival: SimDuration::from_secs(1),
        seed: 2003,
        agents: topology.names(),
        environment: ExecEnv::Test,
    };
    let design = ExperimentDesign::experiment3();
    let run = |shards: usize, workers: Option<usize>| {
        let ring = std::sync::Arc::new(RingRecorder::unbounded());
        let mut opts = RunOptions::fast();
        opts.shards = shards;
        opts.shard_workers = workers;
        opts.telemetry = Telemetry::new(ring.clone());
        let result = run_experiment(&design, &topology, &workload, &opts);
        (result, scrub_wall_clock(ring.snapshot()))
    };
    let (sequential, sequential_events) = run(1, None);
    assert!(!sequential_events.is_empty());
    for (shards, workers) in [(2, None), (4, Some(1)), (4, Some(3)), (8, None)] {
        let (sharded, events) = run(shards, workers);
        assert_eq!(sequential, sharded, "shards={shards} workers={workers:?}");
        assert_eq!(sequential.to_json(), sharded.to_json(), "shards={shards}");
        assert_eq!(
            sequential_events, events,
            "shards={shards} workers={workers:?}: telemetry must match"
        );
    }
}

#[test]
fn every_zoo_policy_is_invariant_in_threads_and_shards() {
    // The Planner contract (DESIGN.md §15): every zoo entrant is a
    // pure function of the seed, so neither the GA thread count nor the
    // shard/worker split of the event loop may change a single byte of
    // the result. This is the generalisation of
    // `ga_threads_do_not_perturb_the_run` / `shards_do_not_perturb_the_run`
    // to the whole policy zoo.
    let (topology, workload) = small();
    for policy in PolicyKind::ALL {
        let design = ExperimentDesign {
            number: 0,
            local_policy: policy,
            agents_enabled: true,
        };
        let run = |threads: usize, shards: usize, workers: Option<usize>| {
            let mut opts = RunOptions::fast();
            opts.ga.threads = threads;
            opts.shards = shards;
            opts.shard_workers = workers;
            run_experiment(&design, &topology, &workload, &opts)
        };
        let baseline = run(1, 1, None);
        assert_eq!(
            baseline.total.tasks,
            workload.requests,
            "{}: not every request ran",
            policy.token()
        );
        for (threads, shards, workers) in [(4, 1, None), (1, 4, Some(2)), (8, 2, Some(3))] {
            let variant = run(threads, shards, workers);
            assert_eq!(
                baseline,
                variant,
                "{}: threads={threads} shards={shards} workers={workers:?}",
                policy.token()
            );
            assert_eq!(
                baseline.to_json(),
                variant.to_json(),
                "{}: serialised bytes must match",
                policy.token()
            );
        }
    }
}

/// 64-bit FNV-1a: pins a serialised result in one number.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(policy, noise, fault, completed tasks, FNV-1a of the result JSON)`
/// for every cell of [`every_policy_matches_the_pinned_fixture`].
const POLICY_PINS: [(&str, &str, &str, usize, u64); 42] = [
    ("fifo", "exact", "none", 25, 0x8d36901d1979be05),
    ("fifo", "exact", "crash", 25, 0xe35f0e024f38db76),
    ("fifo", "exact", "scale", 25, 0xa1f3a64698756beb),
    ("fifo", "lognormal", "none", 25, 0xd7fa6d8ffb38e4a7),
    ("fifo", "lognormal", "crash", 25, 0xaf942bd7acd6d1ac),
    ("fifo", "lognormal", "scale", 25, 0xbb627c8cb26ea6fd),
    ("ga", "exact", "none", 25, 0x32a50046a15e7e2f),
    ("ga", "exact", "crash", 25, 0x6ad834e0c5044613),
    ("ga", "exact", "scale", 25, 0x10094c9feea016ff),
    ("ga", "lognormal", "none", 25, 0xb2ba0fe69f6037d3),
    ("ga", "lognormal", "crash", 25, 0xcbfa1d794c2408d6),
    ("ga", "lognormal", "scale", 25, 0x02c4867a41f2c149),
    ("batch", "exact", "none", 25, 0x3605f2a080375df3),
    ("batch", "exact", "crash", 25, 0x85f904936f25ff24),
    ("batch", "exact", "scale", 25, 0xe4f818e79c821f3e),
    ("batch", "lognormal", "none", 25, 0x3cd50d8735b0772e),
    ("batch", "lognormal", "crash", 25, 0x14c03d87ce58712c),
    ("batch", "lognormal", "scale", 25, 0x16ee5ee1bca60207),
    ("minmin", "exact", "none", 25, 0x4e4b39917ba8f91d),
    ("minmin", "exact", "crash", 25, 0x9341a6de0d39f9a4),
    ("minmin", "exact", "scale", 25, 0xa45efe2e003c9bcd),
    ("minmin", "lognormal", "none", 25, 0x8f4271689ce51108),
    ("minmin", "lognormal", "crash", 25, 0x11dcd62163a441cc),
    ("minmin", "lognormal", "scale", 25, 0x20b2d07bfb1184a3),
    ("maxmin", "exact", "none", 25, 0x405225f899ee84aa),
    ("maxmin", "exact", "crash", 25, 0xbed2b77b7f708253),
    ("maxmin", "exact", "scale", 25, 0x9751db6bdff85360),
    ("maxmin", "lognormal", "none", 25, 0xbe35763fb397ff45),
    ("maxmin", "lognormal", "crash", 25, 0x05a441d06a7d8117),
    ("maxmin", "lognormal", "scale", 25, 0xb152d35a130e486d),
    ("sufferage", "exact", "none", 25, 0xd38db407adc8ff36),
    ("sufferage", "exact", "crash", 25, 0x2785a69a76a03177),
    ("sufferage", "exact", "scale", 25, 0x2b714e9cd62f582c),
    ("sufferage", "lognormal", "none", 25, 0xfb2fa7416f1a9689),
    ("sufferage", "lognormal", "crash", 25, 0xf9f275c7c9835c4b),
    ("sufferage", "lognormal", "scale", 25, 0xd0ab953f79e4b889),
    ("anneal", "exact", "none", 25, 0x242d0425e0ba4ff5),
    ("anneal", "exact", "crash", 25, 0x3cc85121965582bd),
    ("anneal", "exact", "scale", 25, 0x69fc66fec34151d4),
    ("anneal", "lognormal", "none", 25, 0x1e1b12c143d29d44),
    ("anneal", "lognormal", "crash", 25, 0xf8d88f16f571c4bc),
    ("anneal", "lognormal", "scale", 25, 0x1ea7d189b0092f82),
];

#[test]
fn every_policy_matches_the_pinned_fixture() {
    // Every local policy, under exact and noisy predictions, with no
    // fault, a crash and restart (`SchedulerSystem::crash`) and a
    // graceful scale-down cycle (`drain_pending`): the only fixture that
    // pins Batch and the zoo entrants, and every policy's fault paths,
    // against recorded values rather than against themselves.
    let (topology, workload) = small();
    let noises = [
        ("exact", NoiseModel::Exact),
        ("lognormal", NoiseModel::LogNormal { sigma: 0.3 }),
    ];
    let (down, up) = (SimTime::from_secs(6), SimTime::from_secs(16));
    let faults = [
        ("none", FaultPlan::none()),
        ("crash", FaultPlan::none().with_crash("R2", down, up)),
        ("scale", FaultPlan::none().with_scale_cycle("R3", down, up)),
    ];
    let mut got = Vec::new();
    for policy in PolicyKind::ALL {
        let design = ExperimentDesign {
            number: 0,
            local_policy: policy,
            agents_enabled: true,
        };
        for (noise_name, noise) in noises {
            for (fault_name, chaos) in &faults {
                let mut opts = RunOptions::fast();
                opts.noise = noise;
                opts.chaos = chaos.clone();
                let r = run_experiment(&design, &topology, &workload, &opts);
                let hash = fnv1a64(r.to_json().as_bytes());
                got.push((policy.token(), noise_name, *fault_name, r.total.tasks, hash));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(p, n, f, tasks, hash)| {
            format!("    ({p:?}, {n:?}, {f:?}, {tasks}, {hash:#018x}),\n")
        })
        .collect();
    assert_eq!(got, POLICY_PINS, "re-pinned table:\n{table}");
}

#[test]
fn matchmakers_are_deterministic_and_auction_changes_placement() {
    // Each matchmaker is a pure function of the seed; and the auction
    // actually reprices waits (it is not the freetime ranking renamed),
    // so on the heterogeneous case-study grid it must steer at least
    // one request differently from the freetime baseline.
    let topology = GridTopology::from_spec("case-study").unwrap();
    let mut workload = WorkloadConfig::case_study(topology.names(), 2003);
    workload.requests = 240;
    let design = ExperimentDesign::experiment3();
    let run = |kind: MatchmakerKind| {
        let mut opts = RunOptions::fast();
        opts.matchmaker = kind;
        run_experiment(&design, &topology, &workload, &opts)
    };
    for kind in MatchmakerKind::ALL {
        assert_eq!(run(kind), run(kind), "{}: reruns must match", kind.token());
    }
    assert_ne!(
        run(MatchmakerKind::Freetime),
        run(MatchmakerKind::Auction),
        "the auction never changed a placement — is it repricing at all?"
    );
}

#[test]
fn different_seeds_give_different_runs() {
    let (topology, mut workload) = small();
    let design = ExperimentDesign::experiment3();
    let a = run_experiment(&design, &topology, &workload, &RunOptions::fast());
    workload.seed = 78;
    let b = run_experiment(&design, &topology, &workload, &RunOptions::fast());
    assert_ne!(a, b, "seed must drive the whole run");
}

#[test]
fn workload_is_shared_across_designs() {
    // All three experiments must see the same request stream.
    let (_, workload) = small();
    let catalog = Catalog::case_study();
    let r1 = workload.generate(&catalog);
    let r2 = workload.generate(&catalog);
    assert_eq!(r1, r2);
}

#[test]
fn ga_determinism_is_per_resource() {
    // Adding a resource must not change the request stream (streams are
    // derived per label, not drawn from one global sequence).
    let catalog = Catalog::case_study();
    let t3 = GridTopology::flat(3, 4);
    let t4 = GridTopology::flat(4, 4);
    let w3 = WorkloadConfig {
        requests: 10,
        interarrival: SimDuration::from_secs(1),
        seed: 5,
        agents: t3.names(),
        environment: ExecEnv::Test,
    };
    let mut w4 = w3.clone();
    w4.agents = t4.names();
    let r3 = w3.generate(&catalog);
    let r4 = w4.generate(&catalog);
    // Arrival instants are structural (1 s apart) and must agree; the
    // random draws may differ since the agent list changed.
    for (a, b) in r3.iter().zip(&r4) {
        assert_eq!(a.at, b.at);
    }
}

#[test]
fn parallel_table3_matches_sequential() {
    let topology = GridTopology::flat(2, 4);
    let workload = WorkloadConfig {
        requests: 15,
        interarrival: SimDuration::from_secs(1),
        seed: 123,
        agents: topology.names(),
        environment: ExecEnv::Test,
    };
    let sequential = run_table3(&topology, &workload, &RunOptions::fast());
    let parallel = run_table3_parallel(&topology, &workload, &RunOptions::fast());
    assert_eq!(sequential, parallel);
}

#[test]
fn island_case_study_matches_the_pinned_fixture() {
    // Experiment 3 of the paper case study (seed 2003) with two GA
    // islands, pinned: no other fixture runs the island loop, so this is
    // what catches a change to its evaluation path that moves a decision.
    let topology = GridTopology::case_study();
    let workload = WorkloadConfig::case_study(topology.names(), 2003);
    let mut opts = RunOptions::paper();
    opts.ga.threads = 1;
    opts.ga.islands = 2;
    opts.shards = 1;
    let r = run_experiment(
        &ExperimentDesign::experiment3(),
        &topology,
        &workload,
        &opts,
    );
    assert_eq!(r.total.advance_s, 1.9315340100000027);
    assert_eq!(r.total.utilisation_pct, 77.40870098039218);
    assert_eq!(r.total.balance_pct, 89.0084244139118);
    assert_eq!(r.horizon_s, 850.0);
    assert_eq!(r.migrations, 412);
}
