//! Correctness gates: a run only counts when its outputs are right.
//!
//! `table3` and `gridscale` must reproduce outcomes captured from the
//! program in `reference.json`; `serve-ingest` must log and apply every
//! accepted line exactly once; `serve-recover` must rebuild the report a
//! `--replay` of the same log produces, byte for byte.

use agentgrid::ExperimentResult;
use agentgrid_serve::{parse_line, ServeLine, WalRecovery};
use agentgrid_sim::SimTime;
use agentgrid_telemetry::json::{self, Value};

const REFERENCE: &str = include_str!("../reference.json");

/// The per-experiment numbers the `table3` gate compares.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentOutcome {
    /// Table 2 experiment number.
    pub number: u64,
    /// Total ε, seconds.
    pub epsilon_s: f64,
    /// Total υ, percent.
    pub upsilon_pct: f64,
    /// Total β, percent.
    pub beta_pct: f64,
    /// Latest completion, seconds.
    pub horizon_s: f64,
    /// Tasks that ran away from their submission agent.
    pub migrations: u64,
}

impl ExperimentOutcome {
    /// The gated fields of one experiment's result.
    pub fn of(r: &ExperimentResult) -> ExperimentOutcome {
        ExperimentOutcome {
            number: u64::from(r.design.number),
            epsilon_s: r.total.advance_s,
            upsilon_pct: r.total.utilisation_pct,
            beta_pct: r.total.balance_pct,
            horizon_s: r.horizon_s,
            migrations: r.migrations as u64,
        }
    }

    fn to_json(&self) -> Value {
        json::obj(vec![
            ("number", json::num(self.number as f64)),
            ("epsilon_s", json::num(self.epsilon_s)),
            ("upsilon_pct", json::num(self.upsilon_pct)),
            ("beta_pct", json::num(self.beta_pct)),
            ("horizon_s", json::num(self.horizon_s)),
            ("migrations", json::num(self.migrations as f64)),
        ])
    }

    fn from_json(v: &Value) -> ExperimentOutcome {
        let f = |k: &str| field(v, k);
        ExperimentOutcome {
            number: f("number") as u64,
            epsilon_s: f("epsilon_s"),
            upsilon_pct: f("upsilon_pct"),
            beta_pct: f("beta_pct"),
            horizon_s: f("horizon_s"),
            migrations: f("migrations") as u64,
        }
    }
}

/// The run totals the `gridscale` gate compares.
#[derive(Clone, Debug, PartialEq)]
pub struct GridOutcome {
    /// Simulation events delivered.
    pub events: u64,
    /// Advertisement pull messages.
    pub pull_messages: u64,
    /// Discovery hops.
    pub discovery_hops: u64,
    /// Migrated tasks.
    pub migrations: u64,
    /// Latest completion, seconds.
    pub horizon_s: f64,
}

impl GridOutcome {
    fn to_json(&self) -> Value {
        json::obj(vec![
            ("events", json::num(self.events as f64)),
            ("pull_messages", json::num(self.pull_messages as f64)),
            ("discovery_hops", json::num(self.discovery_hops as f64)),
            ("migrations", json::num(self.migrations as f64)),
            ("horizon_s", json::num(self.horizon_s)),
        ])
    }

    fn from_json(v: &Value) -> GridOutcome {
        let f = |k: &str| field(v, k);
        GridOutcome {
            events: f("events") as u64,
            pull_messages: f("pull_messages") as u64,
            discovery_hops: f("discovery_hops") as u64,
            migrations: f("migrations") as u64,
            horizon_s: f("horizon_s"),
        }
    }
}

fn field(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("reference.json: missing number {key}"))
}

fn reference(section: &str) -> Value {
    Value::parse(REFERENCE)
        .expect("reference.json parses")
        .get(section)
        .unwrap_or_else(|| panic!("reference.json: missing section {section}"))
        .clone()
}

/// The `table3` reference: experiments 1–3 of the paper case study.
pub fn table3_reference() -> Vec<ExperimentOutcome> {
    reference("table3")
        .get("experiments")
        .and_then(Value::as_arr)
        .expect("reference.json: table3.experiments")
        .iter()
        .map(ExperimentOutcome::from_json)
        .collect()
}

/// The `gridscale` reference: the committed 7-level shard-sweep row.
pub fn gridscale_reference() -> GridOutcome {
    GridOutcome::from_json(&reference("gridscale"))
}

/// Every experiment must equal its reference exactly.
pub fn check_table3(got: &[ExperimentOutcome], want: &[ExperimentOutcome]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let show = |v: &[ExperimentOutcome]| {
        Value::Arr(v.iter().map(ExperimentOutcome::to_json).collect()).to_compact()
    };
    Err(format!(
        "table3 outcome differs from reference.json: got {} want {}",
        show(got),
        show(want)
    ))
}

/// The run totals must equal the reference exactly.
pub fn check_gridscale(got: &GridOutcome, want: &GridOutcome) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    Err(format!(
        "gridscale outcome differs from reference.json: got {} want {}",
        got.to_json().to_compact(),
        want.to_json().to_compact()
    ))
}

/// What the service said about an ingest session.
#[derive(Clone, Debug)]
pub struct IngestCounts {
    /// Requests the service injected into the grid.
    pub injected: usize,
    /// Tasks completed.
    pub completed: usize,
    /// Lines the service skipped as unparseable or inapplicable.
    pub skipped: usize,
}

/// Exactly once: every line a `202` accepted is in the WAL, in order,
/// unchanged except for the schedule instant the service stamps on it
/// (never earlier than the line's own); the WAL holds nothing else and
/// no torn bytes; the service injected and completed each line once.
pub fn check_ingest(
    accepted: &[String],
    wal: &WalRecovery,
    counts: &IngestCounts,
) -> Result<(), String> {
    if wal.truncated_bytes != 0 {
        return Err(format!("wal has {} torn bytes", wal.truncated_bytes));
    }
    if wal.records.len() != accepted.len() {
        return Err(format!(
            "wal holds {} records for {} accepted lines",
            wal.records.len(),
            accepted.len()
        ));
    }
    let parse = |text: &str| match parse_line(text, SimTime::ZERO) {
        Ok(Some(ServeLine::Request(r))) => Ok(r),
        other => Err(format!("not a request line: {text} ({other:?})")),
    };
    for (i, (sent, rec)) in accepted.iter().zip(&wal.records).enumerate() {
        let (sent, logged) = (parse(sent)?, parse(&rec.line)?);
        let same = logged.agent == sent.agent
            && logged.application == sent.application
            && logged.deadline == sent.deadline
            && logged.environment == sent.environment
            && logged.at >= sent.at;
        if !same || rec.seq != i as u64 + 1 {
            return Err(format!(
                "wal record {} does not match accepted line {}: {}",
                rec.seq,
                i + 1,
                rec.line
            ));
        }
    }
    if counts.skipped != 0 {
        return Err(format!("service skipped {} lines", counts.skipped));
    }
    if counts.injected != accepted.len() || counts.completed != accepted.len() {
        return Err(format!(
            "{} lines accepted, {} injected, {} completed",
            accepted.len(),
            counts.injected,
            counts.completed
        ));
    }
    Ok(())
}

/// The recovered report must be byte-equal to the replayed one.
pub fn check_recover(recovered: &str, replayed: &str) -> Result<(), String> {
    if recovered == replayed {
        return Ok(());
    }
    let at = recovered
        .bytes()
        .zip(replayed.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(recovered.len().min(replayed.len()));
    Err(format!(
        "recovered report differs from --replay of the same log at byte {at} \
         ({} vs {} bytes)",
        recovered.len(),
        replayed.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentgrid_serve::wal::{encode_record, parse_wal};
    use agentgrid_serve::{WalRecord, WalWriter};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn the_reference_passes_its_own_gate() {
        let want = table3_reference();
        assert_eq!(want.len(), 3);
        assert!(check_table3(&want, &want).is_ok());
        let g = gridscale_reference();
        assert!(check_gridscale(&g, &g).is_ok());
    }

    #[test]
    fn a_perturbed_table3_reference_fails() {
        let want = table3_reference();
        let mut got = want.clone();
        got[1].epsilon_s = f64::from_bits(got[1].epsilon_s.to_bits() + 1);
        assert!(check_table3(&got, &want).is_err());
        let mut got = want.clone();
        got[2].migrations += 1;
        assert!(check_table3(&got, &want).is_err());
        assert!(check_table3(&want[..2], &want).is_err());
    }

    #[test]
    fn a_perturbed_gridscale_reference_fails() {
        let want = gridscale_reference();
        for perturb in [
            |g: &mut GridOutcome| g.events += 1,
            |g: &mut GridOutcome| g.pull_messages -= 1,
            |g: &mut GridOutcome| g.discovery_hops += 1,
            |g: &mut GridOutcome| g.migrations += 1,
            |g: &mut GridOutcome| g.horizon_s += 0.01,
        ] {
            let mut got = want.clone();
            perturb(&mut got);
            assert!(check_gridscale(&got, &want).is_err());
        }
    }

    fn line(i: u64) -> String {
        format!(
            "{{\"at_us\": {}, \"agent\": \"S1\", \"app\": \"sweep3d\", \"env\": \"test\", \"deadline_us\": {}}}",
            i * 1_000_000,
            i * 1_000_000 + 50_000_000
        )
    }

    fn wal_of(lines: &[String]) -> WalRecovery {
        // Tests run in parallel: one file per call.
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let n = CALLS.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("perfbench-gate-{}-{n}", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::resume(
            &path,
            agentgrid_serve::SyncPolicy::Off,
            &WalRecovery::default(),
        )
        .expect("open wal");
        for l in lines {
            w.append(l).expect("append");
        }
        drop(w);
        let rec = agentgrid_serve::read_wal(&path).expect("read wal");
        let _ = std::fs::remove_file(&path);
        rec
    }

    fn counts(n: usize) -> IngestCounts {
        IngestCounts {
            injected: n,
            completed: n,
            skipped: 0,
        }
    }

    #[test]
    fn exactly_once_ingest_passes() {
        let lines: Vec<String> = (0..5).map(line).collect();
        assert!(check_ingest(&lines, &wal_of(&lines), &counts(5)).is_ok());
    }

    #[test]
    fn a_dropped_line_fails_the_ingest_gate() {
        let lines: Vec<String> = (0..5).map(line).collect();
        for drop in 0..lines.len() {
            let mut logged = lines.clone();
            logged.remove(drop);
            assert!(check_ingest(&lines, &wal_of(&logged), &counts(5)).is_err());
        }
        // Logged but never applied, or applied twice.
        let wal = wal_of(&lines);
        for (injected, completed) in [(4, 4), (5, 4), (6, 6)] {
            let c = IngestCounts {
                injected,
                completed,
                skipped: 0,
            };
            assert!(check_ingest(&lines, &wal, &c).is_err());
        }
    }

    #[test]
    fn a_duplicated_or_altered_line_fails_the_ingest_gate() {
        let lines: Vec<String> = (0..3).map(line).collect();
        let mut twice = lines.clone();
        twice.push(lines[2].clone());
        assert!(check_ingest(&lines, &wal_of(&twice), &counts(3)).is_err());
        let mut altered = lines.clone();
        altered[1] = altered[1].replace("sweep3d", "fft");
        assert!(check_ingest(&lines, &wal_of(&altered), &counts(3)).is_err());
    }

    #[test]
    fn a_torn_wal_fails_the_ingest_gate() {
        let lines: Vec<String> = (0..3).map(line).collect();
        let mut bytes = Vec::new();
        for (i, l) in lines.iter().enumerate() {
            let r = WalRecord {
                seq: i as u64 + 1,
                epoch: 0,
                line: l.clone(),
            };
            bytes.extend_from_slice(encode_record(&r).as_bytes());
            bytes.push(b'\n');
        }
        bytes.extend_from_slice(b"{\"seq\": 4");
        assert!(check_ingest(&lines, &parse_wal(&bytes), &counts(3)).is_err());
    }

    #[test]
    fn a_differing_recovered_report_fails() {
        assert!(check_recover("{\"a\": 1}", "{\"a\": 1}").is_ok());
        assert!(check_recover("{\"a\": 1}", "{\"a\": 2}").is_err());
        assert!(check_recover("{\"a\": 1}", "{\"a\": 1} ").is_err());
    }
}
