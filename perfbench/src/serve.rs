//! The two `serve` workloads: live ingestion over HTTP into a fresh
//! write-ahead log (`serve-ingest`), and restart on a long log
//! (`serve-recover`).

use crate::gate::{self, IngestCounts};
use crate::host;
use crate::report::{Layers, Outcome};
use crate::stats::{median, percentile};
use crate::{another_round_fits, pinned_options, Args};
use agentgrid::prelude::*;
use agentgrid_serve::wal::encode_record;
use agentgrid_serve::{
    parse_line, read_recording, read_wal, spawn_listener, write_request, AdmissionQueue,
    GridService, PacedOptions, ServeConfig, ServeReport, ServeShared, SyncPolicy, WalConfig,
    WalRecord, DEFAULT_ADMISSION_CAPACITY,
};
use agentgrid_telemetry::json;
use agentgrid_telemetry::prometheus;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Open-loop POST rate of the ingest client.
const POSTS_PER_S: u64 = 50;
/// Each POST is due at its slot on the 1/50 s grid plus a seeded offset
/// of up to this much. A strictly periodic client phase-locks with the
/// listener's 10 ms accept poll, and the median latency then depends on
/// the phase a run happens to start at; the offset spreads arrivals over
/// the poll period, as independent clients would.
const JITTER: Duration = Duration::from_millis(10);
/// Request lines per POST.
const LINES_PER_POST: usize = 4;
/// Sim-seconds per wall-second: 50 POST/s × 4 lines at 200× dilation is
/// one request per simulated second, the paper's rate.
const SPEED: f64 = 200.0;
/// Records in the log `serve-recover` restarts on.
const RECOVER_RECORDS: usize = 50_000;
/// Service start-ups measured in each `serve-ingest` set-up process.
const INGEST_SETUP_SAMPLES: usize = 3;
/// Start-ups on an empty log measured in each `serve-recover` set-up
/// process; each takes a fraction of a millisecond.
const RECOVER_SETUP_SAMPLES: usize = 20;

/// The served grid: the case study with FIFO local queues and agent
/// discovery, a WAL at `batch` sync when `wal` is given.
fn serve_config(seed: u64, wal: Option<&Path>) -> ServeConfig {
    ServeConfig {
        topology: GridTopology::case_study(),
        design: ExperimentDesign {
            number: 0,
            local_policy: LocalPolicy::Fifo,
            agents_enabled: true,
        },
        opts: pinned_options(),
        seed,
        verify: false,
        tune: None,
        wal: wal.map(|p| WalConfig {
            path: p.to_string_lossy().into_owned(),
            sync: SyncPolicy::Batch,
        }),
        record: None,
    }
}

/// `n` request lines for the case-study grid, one per simulated second,
/// drawn from `seed`.
fn request_lines(seed: u64, n: usize) -> Vec<String> {
    let topology = GridTopology::case_study();
    let mut workload = WorkloadConfig::case_study(topology.names(), seed);
    workload.requests = n;
    workload
        .generate(&Catalog::case_study())
        .iter()
        .map(write_request)
        .collect()
}

/// SplitMix64: the client's arrival offsets, reproducible from the seed.
struct SplitMix(u64);

impl SplitMix {
    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A scratch file inside the working directory, removed on drop.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(dir: &Path, name: &str) -> ScratchFile {
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        ScratchFile(path)
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One HTTP/1.1 exchange; returns the status code.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let head = String::from_utf8_lossy(&response);
    head.split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("malformed response: {head:?}")))
}

/// A live service: the paced loop on one thread, the listener on another.
struct Live {
    addr: SocketAddr,
    service: JoinHandle<Result<ServeReport, String>>,
    listener: JoinHandle<()>,
}

impl Live {
    /// Start the service and wait until its listener answers; returns
    /// the service and how long that took.
    fn start(cfg: ServeConfig) -> Result<(Live, Duration), String> {
        let t0 = Instant::now();
        let admission = Arc::new(AdmissionQueue::new(DEFAULT_ADMISSION_CAPACITY));
        let shared = ServeShared::new(admission.clone());
        let (addr, listener) = spawn_listener("127.0.0.1:0", shared.clone())?;
        let service = std::thread::spawn(move || {
            let paced = PacedOptions {
                speed: SPEED,
                status_every: Duration::ZERO,
                admission: Some(admission),
            };
            GridService::run_paced(&cfg, std::io::empty(), paced, Some(shared))
        });
        let live = Live {
            addr,
            service,
            listener,
        };
        // Any answer means the listener accepts connections.
        let deadline = t0 + Duration::from_secs(30);
        while http(addr, "GET", "/", "").is_err() {
            if Instant::now() > deadline {
                return Err("listener never answered".to_string());
            }
        }
        Ok((live, t0.elapsed()))
    }

    /// `POST /shutdown`, then wait for the drained report.
    fn stop(self) -> Result<ServeReport, String> {
        let code = http(self.addr, "POST", "/shutdown", "").map_err(|e| e.to_string())?;
        if code != 202 {
            return Err(format!("/shutdown answered {code}"));
        }
        let report = self
            .service
            .join()
            .map_err(|_| "service thread panicked".to_string())?;
        self.listener
            .join()
            .map_err(|_| "listener thread panicked".to_string())?;
        report
    }
}

/// Counts a serve report exposes through its Prometheus text.
fn event_count(report: &ServeReport, kind: &str) -> f64 {
    prometheus::parse(&report.metrics_text)
        .unwrap_or_default()
        .iter()
        .find(|s| s.name == "agentgrid_events_total" && s.label("kind") == Some(kind))
        .map_or(0.0, |s| s.value)
}

/// The per-layer rows every served run reports from its final report.
fn report_layers(report: &ServeReport, layers: &mut Layers) {
    layers.set("pace.cache_misses", event_count(report, "cache_evaluate"));
    layers.set("pace.cache_hit_ratio", report.result.cache_hit_ratio);
    layers.set("agents.pull_messages", report.result.pull_messages as f64);
    layers.set("agents.migrations", report.result.migrations as f64);
    layers.set(
        "agents.escalation_hops",
        event_count(report, "escalation_hop"),
    );
    layers.set("admission.rejected", report.ingest_rejected as f64);
}

/// What one ingest session measured.
struct Session {
    latencies_ms: Vec<f64>,
    service_ms: Vec<f64>,
    late_ms: Vec<f64>,
    lines: u64,
    failed_lines: u64,
    wall: Duration,
    serve_cpu: Duration,
    report: ServeReport,
    wal_records: usize,
    wal_bytes: u64,
    gate: Result<(), String>,
    /// The session's log, kept until the session is dropped.
    wal: ScratchFile,
}

/// One `serve-ingest` session: start a service on a fresh WAL, POST
/// `seconds × 50` batches on an open-loop schedule, shut down, check
/// exactly-once delivery against the WAL.
fn ingest_session(args: &Args, dir: &Path) -> Result<Session, String> {
    let wal = ScratchFile::new(dir, "ingest.wal");
    let (live, _) = Live::start(serve_config(args.seed, Some(&wal.0)))?;
    let posts = (args.seconds * POSTS_PER_S) as usize;
    let lines = request_lines(args.seed, posts * LINES_PER_POST);
    let period = Duration::from_secs(1) / POSTS_PER_S as u32;
    let mut rng = SplitMix(args.seed);
    let mut accepted: Vec<String> = Vec::with_capacity(lines.len());
    let mut latencies_ms = Vec::with_capacity(posts);
    let mut service_ms = Vec::with_capacity(posts);
    let mut late_ms = Vec::with_capacity(posts);
    let mut failed_lines = 0u64;

    let (cpu0, client_cpu0) = (host::process_cpu(), host::thread_cpu());
    let epoch = Instant::now();
    for (k, batch) in lines.chunks(LINES_PER_POST).enumerate() {
        let due = epoch + period * k as u32 + JITTER.mul_f64(rng.unit());
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let status = http(live.addr, "POST", "/ingest", &batch.join("\n"));
        let done = Instant::now();
        if matches!(status, Ok(202)) {
            accepted.extend_from_slice(batch);
        } else {
            failed_lines += batch.len() as u64;
        }
        latencies_ms.push((done - due).as_secs_f64() * 1e3);
        service_ms.push((done - sent).as_secs_f64() * 1e3);
        late_ms.push((sent - due).as_secs_f64() * 1e3);
    }
    let report = live.stop()?;
    let wall = epoch.elapsed();
    let client_cpu = host::thread_cpu().saturating_sub(client_cpu0);
    let serve_cpu = host::process_cpu()
        .saturating_sub(cpu0)
        .saturating_sub(client_cpu);

    let recovery = read_wal(&wal.0.to_string_lossy()).map_err(|e| format!("read wal: {e}"))?;
    let gate = gate::check_ingest(
        &accepted,
        &recovery,
        &IngestCounts {
            injected: report.injected,
            completed: report.completed,
            skipped: report.skipped_lines,
        },
    );
    Ok(Session {
        latencies_ms,
        service_ms,
        late_ms,
        lines: lines.len() as u64,
        failed_lines,
        wall,
        serve_cpu,
        report,
        wal_records: recovery.records.len(),
        wal_bytes: recovery.valid_bytes,
        gate,
        wal,
    })
}

/// Measure `serve-ingest`. Untraced: one session of `seconds`. Traced:
/// an untraced session, then the traced one; the service owns its
/// telemetry sinks, so the traced session adds only the benchmark's own
/// clock reads, and `trace_overhead` compares the two sessions' median
/// POST latency.
/// The traced run then restarts a service on the traced session's log,
/// for the recovery rows (`wal.read_s`, `stream.parse_s`,
/// `serve.replay_s`, `serve.drain_s`), and checks the restarted report
/// against `serve --replay` of the same log.
pub fn ingest(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let baseline = if args.trace {
        let s = ingest_session(args, dir)?;
        out.attempted += s.lines;
        out.failed += s.failed_lines;
        out.gate(s.gate.clone());
        Some(s)
    } else {
        None
    };
    let mut s = ingest_session(args, dir)?;
    out.attempted += s.lines;
    out.failed += s.failed_lines;
    out.gate(s.gate.clone());
    let samples = s.latencies_ms.len();

    if let Some(mut base) = baseline {
        let mut layers = Layers::default();
        report_layers(&s.report, &mut layers);
        let p = |v: &mut Vec<f64>, q| percentile(v, q).unwrap_or(0.0);
        layers.set("http.service_p50_ms", p(&mut s.service_ms, 0.50));
        layers.set("http.service_p99_ms", p(&mut s.service_ms, 0.99));
        layers.set("gen.late_p99_ms", p(&mut s.late_ms, 0.99));
        layers.set("wal.records", s.wal_records as f64);
        layers.set("wal.bytes", s.wal_bytes as f64);
        layers.set("serve.cpu_s", s.serve_cpu.as_secs_f64());
        layers.set(
            "residual_s",
            s.wall.as_secs_f64() - s.serve_cpu.as_secs_f64(),
        );
        layers.set(
            "trace_overhead",
            p(&mut s.latencies_ms, 0.50) / p(&mut base.latencies_ms, 0.50),
        );
        let cfg = serve_config(args.seed, Some(&s.wal.0));
        let restarted = restart(&cfg, true)?;
        let recovery = restarted.layers.expect("a traced restart has layer rows");
        for row in [
            "wal.read_s",
            "stream.parse_s",
            "serve.replay_s",
            "serve.drain_s",
        ] {
            layers.set(row, recovery.get(row));
        }
        out.gate(check_against_replay(
            args.seed,
            &s.wal.0,
            &restarted.report.result.to_json(),
        )?);
        out.layers(&layers);
    } else {
        out.metric("peak_rss_mb", host::peak_rss_mb());
        out.metric(
            "tasks_per_s",
            s.report.completed as f64 / s.wall.as_secs_f64(),
        );
        out.latencies(&mut s.latencies_ms);
    }
    out.note("posts", json::num(samples as f64));
    out.note("lines_per_post", json::num(LINES_PER_POST as f64));
    out.note("posts_per_s", json::num(POSTS_PER_S as f64));
    out.note("speed", json::num(SPEED));
    Ok(out)
}

/// The median of `serve-ingest` set-ups in this process: service start
/// until the listener answers, wall time.
pub fn ingest_setup_median(args: &Args, dir: &Path) -> Result<f64, String> {
    let mut setups = Vec::with_capacity(INGEST_SETUP_SAMPLES);
    for _ in 0..INGEST_SETUP_SAMPLES {
        let wal = ScratchFile::new(dir, "setup.wal");
        let (live, setup) = Live::start(serve_config(args.seed, Some(&wal.0)))?;
        live.stop()?;
        setups.push(setup.as_secs_f64());
    }
    Ok(median(&mut setups).expect("set-up samples"))
}

/// The median of `serve-recover` set-ups in this process: the service
/// starting on an empty log and draining, CPU time.
pub fn recover_setup_median(args: &Args, dir: &Path) -> Result<f64, String> {
    let mut setups = Vec::with_capacity(RECOVER_SETUP_SAMPLES);
    for _ in 0..RECOVER_SETUP_SAMPLES {
        let empty = ScratchFile::new(dir, "empty.wal");
        let t0 = host::thread_cpu();
        let mut svc = GridService::open_live(&serve_config(args.seed, Some(&empty.0)), false)?;
        svc.drain()?;
        setups.push((host::thread_cpu() - t0).as_secs_f64());
        drop(svc.into_report());
    }
    Ok(median(&mut setups).expect("set-up samples"))
}

/// A service restarted on the log at `wal` must report exactly what
/// `serve --replay` of the same log does.
fn check_against_replay(
    seed: u64,
    wal: &Path,
    restarted_json: &str,
) -> Result<Result<(), String>, String> {
    let text = std::fs::read_to_string(wal).map_err(|e| format!("read wal: {e}"))?;
    let (_, replay_lines) = read_recording(&text)?;
    let replayed = GridService::run_replay(&serve_config(seed, None), &replay_lines)?;
    Ok(gate::check_recover(
        restarted_json,
        &replayed.result.to_json(),
    ))
}

/// One timed restart on the log at `path`.
struct Restart {
    /// `open_live` + `drain`, CPU time.
    recovery_cpu: f64,
    /// `open_live` + `drain`, wall time.
    recovery_wall: f64,
    /// Traced: the restart, its report, and the separate read and parse;
    /// wall time.
    total: f64,
    layers: Option<Layers>,
    report: ServeReport,
}

/// Restart a service on `cfg`'s log and drain it. Traced, `read_wal` and
/// `parse_line` first run on their own, to split `open_live` into
/// reading, parsing and replay; what the restart spends outside those
/// rows and `drain` — building its report — is the residual.
fn restart(cfg: &ServeConfig, traced: bool) -> Result<Restart, String> {
    let path = &cfg
        .wal
        .as_ref()
        .expect("serve-recover runs with a WAL")
        .path;
    let mut layers = traced.then(Layers::default);
    let t0 = Instant::now();
    if let Some(layers) = layers.as_mut() {
        let recovery = read_wal(path).map_err(|e| format!("read wal: {e}"))?;
        let t1 = Instant::now();
        for r in &recovery.records {
            std::hint::black_box(parse_line(&r.line, SimTime::ZERO)?);
        }
        layers.set("wal.read_s", (t1 - t0).as_secs_f64());
        layers.set("stream.parse_s", t1.elapsed().as_secs_f64());
        layers.set("wal.records", recovery.records.len() as f64);
        layers.set("wal.bytes", recovery.valid_bytes as f64);
    }
    let (t_open, cpu) = (Instant::now(), host::thread_cpu());
    let mut svc = GridService::open_live(cfg, false)?;
    let t_drain = Instant::now();
    svc.drain()?;
    let recovery_cpu = (host::thread_cpu() - cpu).as_secs_f64();
    let done = Instant::now();
    let report = svc.into_report();
    let reported = Instant::now();
    if let Some(layers) = layers.as_mut() {
        let open_live = (t_drain - t_open).as_secs_f64();
        let split = layers.get("wal.read_s") + layers.get("stream.parse_s");
        // Replay is what open_live spent beyond reading and parsing.
        layers.set("serve.replay_s", open_live - split);
        layers.set("serve.drain_s", (done - t_drain).as_secs_f64());
        layers.set("residual_s", (reported - done).as_secs_f64());
        report_layers(&report, layers);
    }
    Ok(Restart {
        recovery_cpu,
        recovery_wall: (done - t_open).as_secs_f64(),
        total: (reported - t0).as_secs_f64(),
        layers,
        report,
    })
}

/// Measure `serve-recover`: write a log of 50 000 seeded records with
/// the program's own WAL encoder (preparation, not timed), restart on it
/// once to warm up, then restart — `GridService::open_live` + `drain` —
/// until `seconds` are up, timing each restart in CPU time. Traced runs
/// alternate plain and traced restarts and compare their wall times.
pub fn recover(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let wal = ScratchFile::new(dir, "recover.wal");
    let mut bytes = Vec::new();
    for (i, line) in request_lines(args.seed, RECOVER_RECORDS)
        .into_iter()
        .enumerate()
    {
        let record = WalRecord {
            seq: i as u64 + 1,
            epoch: 0,
            line,
        };
        bytes.extend_from_slice(encode_record(&record).as_bytes());
        bytes.push(b'\n');
    }
    // On disk before the first restart, as a crashed service leaves it.
    // Restarts append nothing, so the log stays as written.
    let mut file = std::fs::File::create(&wal.0).map_err(|e| format!("create wal: {e}"))?;
    file.write_all(&bytes)
        .and_then(|()| file.sync_all())
        .map_err(|e| format!("write wal: {e}"))?;
    drop(file);
    let cfg = serve_config(args.seed, Some(&wal.0));

    let mut out = Outcome::default();
    // Every restart is counted and checked against the first.
    let mut first_json: Option<String> = None;
    let mut check = |out: &mut Outcome, report: &ServeReport| {
        out.attempted += RECOVER_RECORDS as u64;
        out.failed += RECOVER_RECORDS.saturating_sub(report.completed) as u64;
        if report.wal.map_or(0, |w| w.replayed) != RECOVER_RECORDS as u64 {
            out.problems
                .push("a restart did not replay every record".to_string());
        }
        let json = report.result.to_json();
        match &first_json {
            Some(first) => out.gate(gate::check_recover(&json, first)),
            None => first_json = Some(json),
        }
    };
    check(&mut out, &restart(&cfg, false)?.report);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while plain.is_empty()
        || (args.trace && traced.is_empty())
        || another_round_fits(start, plain.len() + traced.len(), budget)
    {
        let trace_this = args.trace && plain.len() > traced.len();
        let r = restart(&cfg, trace_this)?;
        check(&mut out, &r.report);
        match r.layers {
            Some(layers) => traced.push((r.total, layers)),
            None => plain.push((r.recovery_cpu, r.recovery_wall)),
        }
    }
    let first_json = first_json.expect("at least one restart");
    out.gate(check_against_replay(args.seed, &wal.0, &first_json)?);
    out.problems.dedup();

    let n = plain.len();
    if args.trace {
        let layers: Vec<Layers> = traced.iter().map(|(_, l)| l.clone()).collect();
        let mut layers = Layers::median(&layers);
        let mut totals: Vec<f64> = traced.iter().map(|(t, _)| *t).collect();
        let traced_median = median(&mut totals).expect("a traced restart");
        let mut walls: Vec<f64> = plain.iter().map(|(_, w)| *w).collect();
        let plain_median = median(&mut walls).expect("a plain restart");
        layers.set("trace_overhead", traced_median / plain_median);
        out.layers(&layers);
    } else {
        out.metric("peak_rss_mb", host::peak_rss_mb());
        let restarts = out.attempted / RECOVER_RECORDS as u64;
        let completed_per_restart = (out.attempted - out.failed) as f64 / restarts as f64;
        // Throughput over every timed restart's CPU time.
        let cpu: f64 = plain.iter().map(|(c, _)| c).sum();
        out.metric("tasks_per_s", completed_per_restart * n as f64 / cpu);
        let mut ms: Vec<f64> = plain.iter().map(|(c, _)| c * 1e3).collect();
        out.latencies(&mut ms);
    }
    out.note("restarts", json::num(n as f64));
    out.note("traced_restarts", json::num(traced.len() as f64));
    out.note("records", json::num(RECOVER_RECORDS as f64));
    Ok(out)
}
