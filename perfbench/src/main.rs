//! The agentgrid benchmark.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table3 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload (`table3`, `gridscale`, `serve-ingest` or
//! `serve-recover`) for `--seconds`, checks its outputs against the
//! workload's correctness gate, and prints the host fingerprint, every
//! metric by name with its unit, the `ops`/`ops_failed` counts, and as
//! the last line one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones (see README.md).
//!
//! The workload runs in a child process under a hard timeout; a child
//! that overruns is killed with SIGKILL (SIGTERM would start the
//! service's graceful drain, which can take minutes) and the run counts
//! as failed. The exit status is non-zero on a gate mismatch, a killed
//! or crashed child, or bad arguments.

mod gate;
mod grid;
mod host;
mod recorder;
mod report;
mod serve;
mod stats;

use agentgrid::RunOptions;
use agentgrid_telemetry::json::{self, Value};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The workloads. `BENCHMARK.json` lists `table3` and `serve-ingest`;
/// `gridscale` and `serve-recover` run by hand only: on a shared host
/// their speed swings too widely between runs to gate a change (see
/// README.md).
const WORKLOADS: [&str; 4] = ["table3", "gridscale", "serve-ingest", "serve-recover"];

/// A child still running this long after it started is killed, so a
/// whole run ends within 180 s.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

/// Fresh processes `setup_s` is measured in, each reporting the median of
/// its own few set-ups; `setup_s` is their mean. Set-up time depends on
/// the state of the process it runs in: on `table3` one process's
/// set-ups all take about 1.9 ms and another's all about 3.3 ms, so any
/// one process reads one mode or the other, while the mean over many
/// reads their mix.
const SETUP_PROCESSES: usize = 16;

/// Environment variables the program's defaults read. Each would change
/// what is measured without the result saying so; every knob they set is
/// pinned in code instead.
const REFUSED_ENV: [&str; 3] = ["GA_THREADS", "GA_ISLANDS", "SHARDS"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed for the generated request streams.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: u64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
    /// Internal: this process is the measuring child.
    child: bool,
    /// Internal: the child measures only set-up (see [`SETUP_PROCESSES`]).
    setup: bool,
}

const USAGE: &str = "usage: perfbench --workload <table3|gridscale|serve-ingest|serve-recover> \
                     --seed <n> --seconds <1-60> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = false;
    let mut setup = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--child" => {
                child = true;
                continue;
            }
            "--setup" => {
                setup = true;
                continue;
            }
            _ => {}
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => match number(&value)? {
                s @ 1..=60 => seconds = Some(s),
                s => return Err(format!("--seconds must be 1 to 60, got {s}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if setup && !child {
        return Err("--setup is internal to the measuring child".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        child,
        setup,
    })
}

/// Whether to start another round, as long as the average round so far:
/// yes while it would end no more than half a round past `budget`, so a
/// run's length stays within half a round of `--seconds`.
pub fn another_round_fits(start: Instant, rounds: usize, budget: Duration) -> bool {
    let elapsed = start.elapsed();
    rounds == 0 || elapsed + elapsed / (2 * rounds as u32) <= budget
}

/// The paper's run options with every knob the defaults would take from
/// the environment set explicitly: one GA evaluation thread, one island,
/// the sequential event loop.
pub fn pinned_options() -> RunOptions {
    let mut opts = RunOptions::paper();
    opts.ga.threads = 1;
    opts.ga.islands = 1;
    opts.shards = 1;
    opts.shard_workers = None;
    opts
}

fn knobs() -> Value {
    let opts = pinned_options();
    json::obj(vec![
        ("ga.threads", json::num(opts.ga.threads as f64)),
        ("ga.islands", json::num(opts.ga.islands as f64)),
        ("shards", json::num(opts.shards as f64)),
    ])
}

/// Scratch space for the run's files, inside the working directory.
fn work_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = PathBuf::from("perfbench").join("work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The child: measure, then print the outcome as one JSON line.
fn run_child(args: &Args) -> Result<(), String> {
    let dir = work_dir(args)?;
    let result = measure(args, &dir);
    let _ = std::fs::remove_dir(&dir);
    // Gone once no other run is using it.
    let _ = std::fs::remove_dir(dir.parent().expect("work dir has a parent"));
    println!("{}", result?.to_compact());
    Ok(())
}

/// The workload, or in a set-up process only its set-up.
fn measure(args: &Args, dir: &Path) -> Result<Value, String> {
    if args.setup {
        let setup_s = match args.workload.as_str() {
            "table3" => grid::setup_median(grid::Kind::Table3),
            "gridscale" => grid::setup_median(grid::Kind::Gridscale),
            "serve-ingest" => serve::ingest_setup_median(args, dir)?,
            _ => serve::recover_setup_median(args, dir)?,
        };
        return Ok(json::obj(vec![("setup_s", json::num(setup_s))]));
    }
    let out = match args.workload.as_str() {
        "table3" => grid::run(grid::Kind::Table3, args),
        "gridscale" => grid::run(grid::Kind::Gridscale, args),
        "serve-ingest" => serve::ingest(args, dir)?,
        _ => serve::recover(args, dir)?,
    };
    Ok(out.to_json())
}

/// `setup_s`: the mean over [`SETUP_PROCESSES`] fresh set-up processes
/// of each one's median set-up, all of them done by `deadline`.
fn measure_setup(exe: &Path, argv: &[String], deadline: Instant) -> Result<f64, String> {
    let mut medians = Vec::with_capacity(SETUP_PROCESSES);
    for _ in 0..SETUP_PROCESSES {
        let mut cmd = Command::new(exe);
        cmd.args(["--child", "--setup"]).args(argv);
        let v = run_with_timeout(cmd, deadline.saturating_duration_since(Instant::now()))?;
        let median = v
            .get("setup_s")
            .and_then(Value::as_f64)
            .ok_or("a set-up process printed no setup_s")?;
        medians.push(median);
    }
    Ok(medians.iter().sum::<f64>() / medians.len() as f64)
}

/// Run `cmd` with its stdout captured, killing it with SIGKILL if it is
/// still running after `timeout`; returns the JSON of its last line.
fn run_with_timeout(mut cmd: Command, timeout: Duration) -> Result<Value, String> {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start the measuring child: {e}"))?;
    let mut stdout = child.stdout.take().expect("child stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() >= timeout => {
                // `Child::kill` sends SIGKILL on Unix.
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("killed after {timeout:?} (timeout)"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("cannot wait for the child: {e}"));
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    let status = status?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    match text.lines().last().map(Value::parse) {
        Some(Ok(v)) => Ok(v),
        _ => Err("child printed no result".to_string()),
    }
}

/// The final line: the result record `BENCHMARK.json` runners read.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64)]) -> String {
    let metrics = Value::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                let unit = report::unit_of(name).unwrap_or("");
                (
                    name.clone(),
                    json::obj(vec![("value", json::num(*value)), ("unit", json::s(unit))]),
                )
            })
            .collect(),
    );
    json::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", json::num(attempted as f64)),
        ("failed", json::num(failed as f64)),
        ("metrics", metrics),
    ])
    .to_compact()
}

fn run_parent(args: &Args, argv: &[String]) -> ExitCode {
    let steal_before = host::steal_ticks();
    let started = Instant::now();
    let outcome = std::env::current_exe()
        .map_err(|e| format!("cannot find own executable: {e}"))
        .and_then(|exe| {
            let mut cmd = Command::new(&exe);
            cmd.arg("--child").args(argv);
            let v = run_with_timeout(cmd, CHILD_TIMEOUT)?;
            let setup_s = if args.trace {
                None
            } else {
                Some(measure_setup(&exe, argv, started + CHILD_TIMEOUT)?)
            };
            Ok((v, setup_s))
        });
    let steal_s = host::steal_seconds(steal_before, host::steal_ticks());

    let mut fingerprint = host::fingerprint();
    if let Value::Obj(fields) = &mut fingerprint {
        fields.push(("steal_s".to_string(), json::num(steal_s)));
    }
    println!("host {}", fingerprint.to_compact());
    println!("knobs {}", knobs().to_compact());

    let (v, setup_s) = match outcome {
        Ok(v) => v,
        Err(why) => {
            eprintln!("perfbench: {}: {why}", args.workload);
            println!("{} ops=1 ops_failed=1", args.workload);
            println!("{}", result_line(false, 1, 1, &[]));
            return ExitCode::FAILURE;
        }
    };
    let count = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    let (attempted, failed) = (count("attempted"), count("failed"));
    let problems: Vec<String> = v
        .get("problems")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| p.as_str().map(str::to_string))
        .collect();
    let mut metrics: Vec<(String, f64)> = setup_s
        .map(|s| ("setup_s".to_string(), s))
        .into_iter()
        .collect();
    if let Some(Value::Obj(fields)) = v.get("metrics") {
        metrics.extend(
            fields
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x))),
        );
    }
    let expected = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let mut correct = problems.is_empty();
    for (name, _) in expected {
        if !metrics.iter().any(|(n, _)| n == name) {
            eprintln!("perfbench: {}: metric {name} missing", args.workload);
            correct = false;
        }
    }
    for p in &problems {
        eprintln!("perfbench: {}: gate: {p}", args.workload);
    }

    if let Some(notes) = v.get("notes") {
        println!("notes {}", notes.to_compact());
    }
    if setup_s.is_some() {
        println!("setup_processes {SETUP_PROCESSES}");
    }
    println!("{} ops={attempted} ops_failed={failed}", args.workload);
    for (name, value) in &metrics {
        println!(
            "{:<28} {:>16.6} {}",
            name,
            value,
            report::unit_of(name).unwrap_or("")
        );
    }
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return match run_child(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", args.workload);
                ExitCode::FAILURE
            }
        };
    }
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: {var} is set; the benchmark pins GA threads, GA islands and shards \
             itself and refuses to run with it set"
        );
        return ExitCode::from(2);
    }
    run_parent(&args, &argv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload gridscale --seed 7 --seconds 20 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("gridscale", 7, 20, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload table3 --seed 1 --seconds 0 --trace 0",
            "--workload table3 --seed 1 --seconds 1 --trace 2",
            "--workload table3 --seconds 1 --trace 0",
            "--workload table3 --seed 1 --seconds 1 --trace",
            "--setup --workload table3 --seed 1 --seconds 1 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn the_setup_flag_is_for_the_child_only() {
        let a = parse_args(&argv(
            "--child --setup --workload table3 --seed 1 --seconds 1 --trace 0",
        ))
        .expect("valid");
        assert!(a.child && a.setup);
    }

    #[test]
    fn the_result_line_has_exactly_the_record_keys() {
        let line = result_line(true, 3, 0, &[("setup_s".to_string(), 0.5)]);
        let v = Value::parse(&line).expect("json");
        let Value::Obj(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn an_overrunning_child_is_killed_and_fails() {
        let mut cmd = Command::new("sleep");
        cmd.arg("30");
        let t0 = Instant::now();
        let why = run_with_timeout(cmd, Duration::from_millis(200)).expect_err("killed");
        assert!(why.contains("timeout"), "{why}");
        assert!(t0.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn a_finished_child_hands_over_its_last_line() {
        let mut cmd = Command::new("echo");
        cmd.arg("{\"attempted\": 1}");
        let v = run_with_timeout(cmd, Duration::from_secs(10)).expect("finished");
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn the_pinned_knobs_are_single_threaded_and_sequential() {
        let o = pinned_options();
        assert_eq!((o.ga.threads, o.ga.islands, o.shards), (1, 1, 1));
    }
}
