//! The benchmark's own telemetry sink for traced runs.
//!
//! It counts the events the program already emits and keeps the
//! `GaEvolve` wall times in a fixed-bucket histogram, so recording an
//! event allocates nothing on the benchmark's side.

use agentgrid_telemetry::{Event, LogLinearHistogram, Micros, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counters for the event kinds the per-layer rows read.
#[derive(Default)]
pub struct LayerRecorder {
    ga_evolve_calls: AtomicU64,
    ga_evolve_wall_us: AtomicU64,
    ga_evaluations: AtomicU64,
    cache_evaluate: AtomicU64,
    escalation_hops: AtomicU64,
    ga_evolve_hist: Mutex<LogLinearHistogram>,
}

/// A snapshot of [`LayerRecorder`].
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// `ga_evolve` events.
    pub ga_evolve_calls: u64,
    /// Sum of `GaEvolve.wall_us`.
    pub ga_evolve_wall_us: u64,
    /// `GaEvolve.wall_us` 50th percentile.
    pub ga_evolve_p50_us: u64,
    /// `GaEvolve.wall_us` 99th percentile.
    pub ga_evolve_p99_us: u64,
    /// Sum of `GaHotPath.evaluations`.
    pub ga_evaluations: u64,
    /// `cache_evaluate` events (PACE cache misses).
    pub cache_evaluate: u64,
    /// `escalation_hop` events.
    pub escalation_hops: u64,
}

impl LayerRecorder {
    /// An empty recorder.
    pub fn new() -> LayerRecorder {
        LayerRecorder::default()
    }

    /// Current counts.
    pub fn counts(&self) -> Counts {
        let hist = self.ga_evolve_hist.lock().expect("histogram lock poisoned");
        Counts {
            ga_evolve_calls: self.ga_evolve_calls.load(Ordering::Relaxed),
            ga_evolve_wall_us: self.ga_evolve_wall_us.load(Ordering::Relaxed),
            ga_evolve_p50_us: hist.percentile(0.50).unwrap_or(0),
            ga_evolve_p99_us: hist.percentile(0.99).unwrap_or(0),
            ga_evaluations: self.ga_evaluations.load(Ordering::Relaxed),
            cache_evaluate: self.cache_evaluate.load(Ordering::Relaxed),
            escalation_hops: self.escalation_hops.load(Ordering::Relaxed),
        }
    }
}

impl Recorder for LayerRecorder {
    fn record(&self, _t: Micros, event: Event) {
        match event {
            Event::GaEvolve { wall_us, .. } => {
                self.ga_evolve_calls.fetch_add(1, Ordering::Relaxed);
                self.ga_evolve_wall_us.fetch_add(wall_us, Ordering::Relaxed);
                self.ga_evolve_hist
                    .lock()
                    .expect("histogram lock poisoned")
                    .record(wall_us);
            }
            Event::GaHotPath { evaluations, .. } => {
                self.ga_evaluations
                    .fetch_add(evaluations, Ordering::Relaxed);
            }
            Event::CacheEvaluate { .. } => {
                self.cache_evaluate.fetch_add(1, Ordering::Relaxed);
            }
            Event::EscalationHop { .. } => {
                self.escalation_hops.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_kinds_the_rows_read() {
        let r = LayerRecorder::new();
        for wall_us in [10, 20, 30] {
            r.record(
                0,
                Event::GaEvolve {
                    resource: "S1".into(),
                    generations: 1,
                    best_cost: 0.0,
                    converged: true,
                    wall_us,
                    cache_hits: 0,
                    cache_misses: 0,
                },
            );
        }
        r.record(
            0,
            Event::EscalationHop {
                task: 1,
                from: "S2".into(),
                to: "S1".into(),
            },
        );
        let c = r.counts();
        assert_eq!(c.ga_evolve_calls, 3);
        assert_eq!(c.ga_evolve_wall_us, 60);
        assert_eq!(c.ga_evolve_p50_us, 20);
        assert_eq!(c.escalation_hops, 1);
    }
}
