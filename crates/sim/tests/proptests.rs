//! Property tests for the simulation substrate.

use agentgrid_sim::{EventQueue, RngStream, SimDuration, SimTime, Simulation};
use proptest::prelude::*;
use rand::RngCore;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

proptest! {
    /// The event queue delivers in (time, insertion) order for any
    /// sequence of pushes.
    #[test]
    fn queue_is_a_stable_priority_queue(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(*t), i);
        }
        // Reference: stable sort by time.
        let mut expected: Vec<(u64, usize)> =
            times.iter().copied().zip(0..times.len()).collect();
        expected.sort_by_key(|(t, i)| (*t, *i));
        let mut got = Vec::new();
        while let Some((t, i)) = q.pop() {
            got.push((t.ticks() / 1_000_000, i));
        }
        prop_assert_eq!(got, expected);
    }

    /// Interleaved push/pop never delivers an event earlier than one
    /// already delivered.
    #[test]
    fn delivery_times_are_monotone_under_interleaving(
        ops in proptest::collection::vec((0u64..1000, proptest::bool::ANY), 1..200)
    ) {
        let mut q = EventQueue::new();
        let mut last = None::<SimTime>;
        let mut pending_max = SimTime::ZERO;
        for (t, push) in ops {
            if push {
                // Keep pushes in the future of everything delivered, as
                // the simulation contract requires.
                let at = SimTime::from_secs(t).max(last.unwrap_or(SimTime::ZERO));
                pending_max = pending_max.max(at);
                q.push(at, ());
            } else if let Some((at, ())) = q.pop() {
                if let Some(prev) = last {
                    prop_assert!(at >= prev, "time went backwards");
                }
                last = Some(at);
            }
        }
    }

    /// The timing wheel delivers ANY schedule in exactly the order of a
    /// reference binary min-heap on `(time, seq)` — times spanning every
    /// wheel level plus the far-future overflow path, with interleaved
    /// pops (including pops while empty and same-instant re-pushes).
    #[test]
    fn wheel_matches_heap_for_any_schedule(
        ops in proptest::collection::vec(
            prop_oneof![
                // Push: tick chosen to exercise level-0 slots, mid
                // levels, the top level and the overflow heap.
                (0u64..200u64).prop_map(Some),                    // dense low ticks
                (0u64..5_000_000_000u64).prop_map(Some),                 // all wheel levels
                (u64::MAX - 1000..u64::MAX).prop_map(Some),              // overflow region
                Just(None),                                              // pop
            ],
            1..300,
        )
    ) {
        // The event is its push index, which is also its sequence number.
        let mut heap = BinaryHeap::new();
        let mut wheel = EventQueue::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Some(t) => {
                    let at = SimTime::from_ticks(t);
                    heap.push(Reverse((at, i)));
                    wheel.push(at, i);
                }
                None => {
                    prop_assert_eq!(heap.peek().map(|Reverse((at, _))| *at), wheel.peek_time());
                    prop_assert_eq!(heap.pop().map(|Reverse(e)| e), wheel.pop());
                }
            }
            prop_assert_eq!(heap.len(), wheel.len());
        }
        // Drain: every remaining event must come out identically.
        loop {
            let (a, b) = (heap.pop().map(|Reverse(e)| e), wheel.pop());
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
    }

    /// The simulation clock never goes backwards, whatever the schedule.
    #[test]
    fn clock_is_monotone(delays in proptest::collection::vec(0u64..100, 1..100)) {
        let mut sim: Simulation<u64> = Simulation::new();
        for (i, d) in delays.iter().enumerate() {
            sim.schedule(SimTime::from_secs(*d), i as u64);
        }
        let mut prev = SimTime::ZERO;
        while sim.step().is_some() {
            prop_assert!(sim.now() >= prev);
            prev = sim.now();
        }
        prop_assert_eq!(sim.processed(), delays.len() as u64);
    }

    /// Derived RNG streams are reproducible and label-separated.
    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let mut a = RngStream::root(seed).derive(&label);
        let mut b = RngStream::root(seed).derive(&label);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        // A different label must diverge quickly.
        let mut c = RngStream::root(seed).derive(&format!("{label}!"));
        let mut d = RngStream::root(seed).derive(&label);
        let same = (0..32).filter(|_| c.next_u64() == d.next_u64()).count();
        prop_assert!(same < 4);
    }

    /// SimTime arithmetic: (t + d) - t == d for in-range values.
    #[test]
    fn time_arithmetic_roundtrips(t in 0u64..1_000_000, d in 0u64..1_000_000) {
        let base = SimTime::from_secs(t);
        let dur = SimDuration::from_secs(d);
        let later = base + dur;
        prop_assert_eq!(later.saturating_since(base), dur);
        prop_assert_eq!(later - base, dur);
        prop_assert!((later.signed_secs_since(base) - d as f64).abs() < 1e-6);
    }
}
