//! The metric vocabulary and what one measured run reports.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json` (a test keeps them in step): every workload reports
//! every end-to-end metric with tracing off and every per-layer metric
//! with tracing on. A per-layer row a workload's layers never touch
//! reads 0; the README's layer map says which rows each workload moves.

use agentgrid_telemetry::json::{self, Value};

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scheduler.ga_evolve_s", "s"),
    ("scheduler.ga_evolve_calls", "count"),
    ("scheduler.ga_evolve_p50_us", "us"),
    ("scheduler.ga_evolve_p99_us", "us"),
    ("scheduler.ga_evaluations", "count"),
    ("scheduler.ga_evals_per_s", "1/s"),
    ("pace.cache_misses", "count"),
    ("pace.cache_hit_ratio", "ratio"),
    ("sim.step_s", "s"),
    ("sim.events", "count"),
    ("core.handle_request_s", "s"),
    ("core.handle_complete_s", "s"),
    ("core.handle_pull_s", "s"),
    ("core.handle_other_s", "s"),
    ("agents.pull_messages", "count"),
    ("agents.discovery_hops", "count"),
    ("agents.migrations", "count"),
    ("agents.escalation_hops", "count"),
    ("http.service_p50_ms", "ms"),
    ("http.service_p99_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("admission.rejected", "count"),
    ("wal.records", "count"),
    ("wal.bytes", "bytes"),
    ("serve.cpu_s", "s"),
    ("wal.read_s", "s"),
    ("stream.parse_s", "s"),
    ("serve.replay_s", "s"),
    ("serve.drain_s", "s"),
    ("residual_s", "s"),
    ("trace_overhead", "ratio"),
];

/// Per-layer values of one traced repetition, in [`PER_LAYER`] order.
#[derive(Clone, Debug)]
pub struct Layers(pub Vec<f64>);

impl Default for Layers {
    fn default() -> Layers {
        Layers(vec![0.0; PER_LAYER.len()])
    }
}

impl Layers {
    /// Set one row by name. An unknown name is a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.0[i] = value;
    }

    /// Add to one row by name.
    pub fn add(&mut self, name: &str, value: f64) {
        let v = self.get(name);
        self.set(name, v + value);
    }

    /// Read one row by name.
    pub fn get(&self, name: &str) -> f64 {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.0[i]
    }

    /// Row-wise median over repetitions (counts repeat exactly, so this
    /// only smooths the times).
    pub fn median(reps: &[Layers]) -> Layers {
        let mut out = Layers::default();
        for i in 0..PER_LAYER.len() {
            let mut column: Vec<f64> = reps.iter().map(|r| r.0[i]).collect();
            out.0[i] = crate::stats::median(&mut column).unwrap_or(0.0);
        }
        out
    }
}

/// What one run of one workload reports, before the parent process adds
/// the host fingerprint.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (tasks, lines or replayed records).
    pub attempted: u64,
    /// Operations that failed: refused or unanswered lines, tasks that
    /// never completed.
    pub failed: u64,
    /// Correctness-gate mismatches; empty when every gate passed.
    pub problems: Vec<String>,
    /// `(name, value)` of every metric this run measured.
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-form facts printed beside the metrics (sample counts, pinned
    /// knobs, input sizes).
    pub notes: Vec<(&'static str, Value)>,
}

impl Outcome {
    /// Record an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Record `latency_p50_ms` and `latency_p90_ms` over `samples_ms`,
    /// noting the sample count.
    pub fn latencies(&mut self, samples_ms: &mut [f64]) {
        let p50 = crate::stats::percentile(samples_ms, 0.50).unwrap_or(0.0);
        let p90 = crate::stats::percentile(samples_ms, 0.90).unwrap_or(0.0);
        self.metric("latency_p50_ms", p50);
        self.metric("latency_p90_ms", p90);
        self.note("latency_samples", json::num(samples_ms.len() as f64));
    }

    /// Record every per-layer metric from `layers`.
    pub fn layers(&mut self, layers: &Layers) {
        for ((name, _), v) in PER_LAYER.iter().zip(&layers.0) {
            self.metrics.push((name, *v));
        }
    }

    /// Record a note.
    pub fn note(&mut self, key: &'static str, value: Value) {
        self.notes.push((key, value));
    }

    /// Record a gate result.
    pub fn gate(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.problems.push(e);
        }
    }

    /// The child-to-parent wire form.
    pub fn to_json(&self) -> Value {
        json::obj(vec![
            ("attempted", json::num(self.attempted as f64)),
            ("failed", json::num(self.failed as f64)),
            (
                "problems",
                Value::Arr(self.problems.iter().map(|p| json::s(p.clone())).collect()),
            ),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, v)| (n.to_string(), json::num(*v)))
                        .collect(),
                ),
            ),
            (
                "notes",
                Value::Obj(
                    self.notes
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The unit of a metric named in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics and units above, in the
    /// same order.
    #[test]
    fn tables_match_the_benchmark_contract() {
        let doc =
            Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Value::as_str)
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(Value::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect()
        };
        let ours = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn layers_round_trip_by_name() {
        let mut l = Layers::default();
        l.set("wal.records", 3.0);
        l.add("wal.records", 2.0);
        assert_eq!(l.get("wal.records"), 5.0);
        let m = Layers::median(&[l.clone(), Layers::default(), l]);
        assert_eq!(m.get("wal.records"), 5.0);
    }
}
