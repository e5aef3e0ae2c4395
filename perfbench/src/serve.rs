//! `serve-freerun` and `serve-paced`: the `webmon serve` daemon in
//! process, driven over its socket.
//!
//! A run is a sequence of identical sessions. Each session materializes the
//! instance, binds a fresh daemon with the default journal
//! (`--fsync every-chronon --snapshot-every 64`) and M-EDF(P), attaches one
//! subscriber that reads every event, and lets chronon 0 begin only once
//! the subscriber is attached. `serve-paced` adds an open-loop mutation
//! client on a second connection. The load generator is this process's
//! main thread (the subscriber) plus at most one client thread.

use crate::engine_large::serialize_us_per_event;
use crate::journal;
use crate::loadgen::{self, is_mutation_event, PlanShape, Planned, Request, Sent};
use crate::stats::{median, percentile};
use crate::wrap::{
    timer_overhead_ns, ClockLog, CountingExecutor, CountingPolicy, ExecutorStats, Gate, GateClock,
    PolicyStats, TracedClock,
};
use crate::{peak_rss_mb, Args, Metrics, Progress};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use webmon_cli::serve::{Daemon, DaemonOutcome, ServeOptions, ServeSession};
use webmon_core::engine::{MutationQueue, ScriptedMutations};
use webmon_core::fault::FaultConfig;
use webmon_core::model::Chronon;
use webmon_core::obs::{replay_events, Event, RunMetrics};
use webmon_core::policy::Policy;
use webmon_core::serve::{
    Clock, FreeClock, FsyncPolicy, JournalConfig, ProbeExecutor, ReplayExecutor, WallClock,
};
use webmon_sim::{Experiment, ExperimentConfig, PolicyKind, PolicySpec, TraceSpec};
use webmon_workload::{EiLength, RankSpec, WorkloadConfig};

/// How long the subscriber waits for a line before it counts the stream
/// as dropped.
const STALL_LIMIT: Duration = Duration::from_secs(15);

/// Journal snapshot cadence (`webmon serve`'s default).
const SNAPSHOT_EVERY: u32 = 64;

/// One serve workload's instance and traffic.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    name: &'static str,
    resources: u32,
    profiles: u32,
    rank: u16,
    budget: u32,
    horizon: Chronon,
    /// Milliseconds per chronon; 0 free-runs.
    chronon_ms: u64,
    /// Open-loop mutation traffic, if any.
    traffic: Option<PlanShape>,
}

impl Shape {
    /// `serve-freerun`: 500 resources, 500 profiles, `webmon serve`'s
    /// other defaults, free-running, one subscriber.
    pub fn freerun() -> Self {
        Shape {
            name: "serve-freerun",
            resources: 500,
            profiles: 500,
            rank: 5,
            budget: 1,
            horizon: 6000,
            chronon_ms: 0,
            traffic: None,
        }
    }

    /// `serve-paced`: 300 resources, 600 profiles, rank 3, C=2, 2 ms per
    /// chronon, a subscriber plus 50 requests/s of open-loop mutations.
    pub fn paced() -> Self {
        let horizon = 2500;
        Shape {
            name: "serve-paced",
            resources: 300,
            profiles: 600,
            rank: 3,
            budget: 2,
            horizon,
            chronon_ms: 2,
            traffic: Some(PlanShape {
                period_ms: 20,
                chronon_ms: 2,
                horizon,
                margin: 100,
            }),
        }
    }

    fn config(&self, seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            n_resources: self.resources,
            horizon: self.horizon,
            budget: self.budget,
            workload: WorkloadConfig {
                n_profiles: self.profiles,
                rank: RankSpec::UpTo {
                    k: self.rank,
                    beta: 0.0,
                },
                resource_alpha: 0.3,
                length: EiLength::Overwrite { max_len: Some(10) },
                distinct_resources: true,
                max_ceis: None,
                no_intra_resource_overlap: false,
            },
            trace: TraceSpec::Poisson { lambda: 20.0 },
            noise: None,
            repetitions: 1,
            seed,
        }
    }

    fn policy(&self) -> PolicySpec {
        PolicySpec::p(PolicyKind::MEdf)
    }
}

/// The wrappers' shared state in a traced session.
#[derive(Default)]
struct Probes {
    policy: Arc<PolicyStats>,
    executor: Arc<ExecutorStats>,
    clock: Arc<Mutex<ClockLog>>,
}

/// What the subscriber saw.
#[derive(Default)]
struct Stream {
    bytes: String,
    lines: u64,
    /// Receipt time of each `ChrononStart`, in stream order.
    starts: Vec<Instant>,
    /// Receipt time of each mutation event line, in stream order.
    mutation_events: Vec<Instant>,
    last_line: Option<Instant>,
    dropped: Option<String>,
}

/// One session's measurements.
#[derive(Default)]
struct Session {
    setup_s: f64,
    materialize_s: f64,
    rss_mb: f64,
    chronons_per_s: f64,
    journal_bytes: f64,
    hub_events: f64,
    hub_bytes: f64,
    lateness_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    ping_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    drain_wait_ms: Vec<f64>,
    loadgen_late_ms: Vec<f64>,
    acked: u64,
    effective: u64,
    layers: Option<Layers>,
}

/// One traced session's per-layer measurements.
#[derive(Default)]
struct Layers {
    busy_us: Vec<f64>,
    busy_s: f64,
    wait_share: f64,
    wake_late_us: Vec<f64>,
    score_calls: f64,
    score_s: f64,
    executor_probes: f64,
    executor_probe_us: f64,
    metrics: RunMetrics,
    serialize_us: f64,
    frames: f64,
    snapshots: f64,
    snapshot_bytes: f64,
    live_mutations: f64,
    frame_us: Vec<f64>,
    snapshot_ms: Vec<f64>,
    snapshot_parse_s: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Connects, attaches, and confirms the attach reply.
fn attach(addr: std::net::SocketAddr) -> io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(STALL_LIMIT))?;
    (&stream).write_all(b"attach\n")?;
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    if reply.trim_end() != r#"{"ok":"attached"}"# {
        return Err(io::Error::other(format!("attach refused: {reply}")));
    }
    Ok(reader)
}

/// Reads the event stream to its end.
fn subscribe(mut reader: BufReader<TcpStream>, stream: &mut Stream) {
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {
                let at = Instant::now();
                if line.starts_with(r#"{"ChrononStart""#) {
                    stream.starts.push(at);
                } else if line.starts_with(r#"{"CeiRegistered""#)
                    || line.starts_with(r#"{"CeiCancelled""#)
                    || line.starts_with(r#"{"BudgetReconfigured""#)
                {
                    stream.mutation_events.push(at);
                }
                stream.lines += 1;
                stream.last_line = Some(at);
                stream.bytes.push_str(&line);
            }
            Err(e) => {
                stream.dropped = Some(format!("subscriber stream ended: {e}"));
                return;
            }
        }
    }
}

/// Runs one daemon session and checks its outputs.
fn session(args: &Args, shape: Shape, index: usize, progress: &Progress) -> Option<Session> {
    let launch = Instant::now();
    let cfg = shape.config(args.seed);
    let exp = Experiment::materialize(cfg.clone());
    let materialize_s = launch.elapsed().as_secs_f64();
    let instance = exp.workloads()[0].instance.clone();
    let plan: Vec<Planned> = shape
        .traffic
        .map(|t| loadgen::plan(&instance, t, args.seed))
        .unwrap_or_default();

    let journal = JournalConfig {
        dir: args.scratch.join(format!("journal-{index}")),
        fsync: FsyncPolicy::EveryChronon,
        snapshot_every: SNAPSHOT_EVERY,
    };
    let journal_path = journal.path();
    let (addr, daemon) = match Daemon::bind("127.0.0.1:0").and_then(|d| Ok((d.local_addr()?, d))) {
        Ok(d) => d,
        Err(e) => {
            progress.fail(format!("{}: bind: {e}", shape.name));
            return None;
        }
    };
    let gate = Arc::new(Gate::default());
    let probes = args.trace.then(Probes::default);

    let engine = {
        let gate = Arc::clone(&gate);
        let instance = instance.clone();
        let traced = probes.as_ref().map(|p| {
            (
                Arc::clone(&p.policy),
                Arc::clone(&p.executor),
                Arc::clone(&p.clock),
            )
        });
        let journal = journal.clone();
        let seed = cfg.seed;
        thread::spawn(move || -> Result<DaemonOutcome, String> {
            let n_ceis = instance.ceis.len();
            let horizon = instance.epoch.len();
            let mut policy: Box<dyn Policy> = shape.policy().kind.build(seed);
            let mut executor: Box<dyn ProbeExecutor + Send> = Box::new(ReplayExecutor::faultless());
            let mut clock: Box<dyn Clock + Send> = if shape.chronon_ms == 0 {
                Box::new(FreeClock)
            } else {
                Box::new(WallClock::new(shape.chronon_ms))
            };
            if let Some((p, e, c)) = traced {
                policy = Box::new(CountingPolicy::new(policy, p));
                executor = Box::new(CountingExecutor::new(executor, e));
                clock = Box::new(TracedClock::new(clock, c));
            }
            let session = ServeSession {
                instance,
                policy,
                config: shape.policy().engine_config().with_shards(1),
                fault_config: FaultConfig::default(),
                script: ScriptedMutations::compile(&MutationQueue::new(), horizon, n_ceis),
            };
            let opts = ServeOptions {
                trace_out: None,
                journal: Some(journal),
                recover: false,
                resync_executor: true,
            };
            daemon
                .run_with(session, executor, |_| GateClock::new(clock, gate), opts)
                .map_err(|e| e.to_string())
        })
    };

    // The subscriber attaches before chronon 0 may begin. The short pause
    // covers the daemon handing the attached socket to its event hub,
    // which happens just after it writes the attach reply.
    let mut stream = Stream::default();
    let mut client = None;
    match attach(addr) {
        Ok(reader) => {
            thread::sleep(Duration::from_millis(2));
            gate.open();
            if let Some(traffic) = shape.traffic {
                let lines: Vec<(Duration, String)> =
                    plan.iter().map(|p| (p.due, p.request.line())).collect();
                let gate = Arc::clone(&gate);
                client = Some(thread::spawn(
                    move || -> io::Result<(Instant, Vec<Sent>)> {
                        let conn = TcpStream::connect(addr)?;
                        let anchor = gate
                            .anchor(STALL_LIMIT)
                            .ok_or_else(|| io::Error::other("chronon 0 never began"))?;
                        let drain = Duration::from_millis(traffic.chronon_ms * 200 + 2000);
                        Ok((anchor, loadgen::run_open_loop(conn, &lines, anchor, drain)?))
                    },
                ));
            }
            subscribe(reader, &mut stream);
        }
        Err(e) => {
            // Let the run go ahead unobserved so the daemon thread ends.
            gate.open();
            stream.dropped = Some(format!("attach: {e}"));
        }
    }
    let client = client.map(|c| {
        c.join()
            .unwrap_or_else(|_| Err(io::Error::other("client thread panicked")))
    });
    let outcome = engine
        .join()
        .unwrap_or_else(|_| Err("daemon thread panicked".to_string()));
    // Memory of the daemon and the load generator, before the output
    // checks and the traced run's journal replay add their own.
    let rss_mb = peak_rss_mb();

    progress.attempt();
    let mut failures: Vec<String> = Vec::new();
    let outcome = match outcome {
        Ok(o) => Some(o),
        Err(e) => {
            failures.push(format!("daemon: {e}"));
            None
        }
    };
    if let Some(o) = &outcome {
        if o.write_errors != 0 || !o.io_errors.is_empty() {
            failures.push(format!(
                "daemon write errors {}: {:?}",
                o.write_errors, o.io_errors
            ));
        }
        if o.events_written != stream.lines {
            failures.push(format!(
                "daemon wrote {} events, subscriber read {}",
                o.events_written, stream.lines
            ));
        }
    }
    if let Some(why) = &stream.dropped {
        failures.push(why.clone());
    }
    let horizon = instance.epoch.len();
    if stream.starts.len() != horizon as usize {
        failures.push(format!(
            "subscriber saw {} chronon starts of {horizon}",
            stream.starts.len()
        ));
    }

    let mut s = Session {
        setup_s: stream
            .starts
            .first()
            .map_or(0.0, |t| (*t - launch).as_secs_f64()),
        materialize_s,
        rss_mb,
        journal_bytes: std::fs::metadata(&journal_path).map_or(0.0, |m| m.len() as f64),
        hub_events: stream.lines as f64,
        hub_bytes: stream.bytes.len() as f64,
        ..Session::default()
    };
    if let (Some(first), Some(last)) = (stream.starts.first(), stream.last_line) {
        s.chronons_per_s = f64::from(horizon) / (last - *first).as_secs_f64();
    }

    match shape.traffic {
        None => {
            // Keystone contract: the daemon's event bytes equal the
            // simulator's JSONL trace of the same case.
            match exp.trace_spec(shape.policy(), 0, Vec::new()) {
                Ok((sim, _)) if sim == stream.bytes.as_bytes() => {}
                Ok((sim, _)) => failures.push(format!(
                    "daemon event bytes differ from the simulator's ({} vs {} bytes)",
                    stream.bytes.len(),
                    sim.len()
                )),
                Err(e) => failures.push(format!("simulator trace: {e}")),
            }
        }
        Some(traffic) => match client {
            Some(Ok((anchor, sent))) => {
                check_traffic(&plan, &sent, &stream, &mut s, progress, &mut failures);
                let period = Duration::from_millis(traffic.chronon_ms);
                s.lateness_ms = stream
                    .starts
                    .iter()
                    .enumerate()
                    .map(|(t, at)| ms(*at - anchor) - ms(period * t as u32))
                    .collect();
                match std::fs::read(&journal_path) {
                    Ok(buf) => check_journal(&buf, horizon, s.acked, &mut failures),
                    Err(e) => failures.push(format!("journal: {e}")),
                }
            }
            Some(Err(e)) => failures.push(format!("mutation client: {e}")),
            None => failures.push("mutation client never started".to_string()),
        },
    }

    if let (Some(p), Some(o)) = (&probes, &outcome) {
        s.layers = Some(layers(
            p,
            o,
            &stream,
            &journal_path,
            shape,
            index == 0,
            &mut failures,
        ));
    }
    for f in failures {
        progress.fail(format!("{} session {index}: {f}", shape.name));
    }
    let _ = std::fs::remove_dir_all(&journal.dir);
    Some(s)
}

/// Checks the mutation traffic of one `serve-paced` session and records
/// its latencies: every request answered `ok`, and every acked mutation's
/// event exactly once in the subscriber stream, in ack order.
fn check_traffic(
    plan: &[Planned],
    sent: &[Sent],
    stream: &Stream,
    s: &mut Session,
    progress: &Progress,
    failures: &mut Vec<String>,
) {
    progress.attempts(plan.len() as u64);
    let mut acked: Vec<(Request, Instant, Instant)> = Vec::new();
    for (i, p) in plan.iter().enumerate() {
        let Some(sent) = sent.get(i) else {
            failures.push(format!("request {i} ({:?}) never sent", p.request));
            continue;
        };
        s.loadgen_late_ms.push(ms(sent.sent - sent.due));
        match &sent.reply {
            None => failures.push(format!("request {i} ({:?}) unanswered", p.request)),
            Some((_, reply)) if *reply != p.request.ack() => {
                failures.push(format!("request {i} ({:?}) answered {reply}", p.request));
            }
            Some((at, _)) => {
                let ack = ms(*at - sent.due);
                s.ack_ms.push(ack);
                if p.request.is_mutation() {
                    acked.push((p.request, sent.due, *at));
                } else {
                    s.ping_ms.push(ack);
                }
            }
        }
    }

    let events: Vec<Event> = match replay_events(&stream.bytes) {
        Ok(events) => events.into_iter().filter(is_mutation_event).collect(),
        Err(e) => {
            failures.push(format!("subscriber stream does not parse: {e}"));
            return;
        }
    };
    s.acked = acked.len() as u64;
    for (i, (req, due, ack_at)) in acked.iter().enumerate() {
        match (events.get(i), stream.mutation_events.get(i)) {
            (Some(ev), Some(seen)) if req.produced(ev) => {
                s.effective += 1;
                s.apply_ms.push(ms(*seen - *due));
                // Negative when the event reached the subscriber before the ack
                // reached the client.
                s.drain_wait_ms
                    .push(ms(*seen - *ack_at) - ms(*ack_at - *seen));
            }
            (ev, _) => failures.push(format!(
                "acked mutation {i} ({req:?}) has no matching event in ack order (found {ev:?})"
            )),
        }
    }
    if events.len() > acked.len() {
        failures.push(format!(
            "{} mutation events for {} acked mutations",
            events.len(),
            acked.len()
        ));
    }
}

/// Per-layer measurements of one traced session.
fn layers(
    probes: &Probes,
    outcome: &DaemonOutcome,
    stream: &Stream,
    journal_path: &Path,
    shape: Shape,
    replay: bool,
    failures: &mut Vec<String>,
) -> Layers {
    let mut l = Layers {
        metrics: outcome.metrics.clone(),
        ..Layers::default()
    };
    let waits = probes.clock.lock().expect("clock log").clone();
    // Engine-thread busy time per chronon: from one wait's return to the
    // next wait's call.
    l.busy_us = waits
        .windows(2)
        .map(|w| (w[1].1 - w[0].2).as_secs_f64() * 1e6)
        .collect();
    l.busy_s = l.busy_us.iter().sum::<f64>() * 1e-6;
    if let (Some(first), Some(last)) = (waits.first(), waits.last()) {
        let wall = (last.2 - first.1).as_secs_f64();
        let waited: f64 = waits.iter().map(|w| (w.2 - w.1).as_secs_f64()).sum();
        l.wait_share = if wall > 0.0 { waited / wall } else { 0.0 };
        let period = Duration::from_millis(shape.chronon_ms);
        // Free-running chronons have no due time to be late against.
        if shape.chronon_ms > 0 {
            l.wake_late_us = waits
                .iter()
                .map(|&(t, _, ret)| {
                    let due = first.1 + period * t;
                    ret.saturating_duration_since(due).as_secs_f64() * 1e6
                })
                .collect();
        }
    }
    l.score_calls = probes.policy.calls() as f64;
    l.score_s = probes.policy.seconds(timer_overhead_ns());
    let n = probes.executor.probes.load(Ordering::Relaxed);
    l.executor_probes = n as f64;
    l.executor_probe_us = if n == 0 {
        0.0
    } else {
        probes.executor.probe_ns.load(Ordering::Relaxed) as f64 / n as f64 / 1e3
    };
    match replay_events(&stream.bytes) {
        Ok(events) => l.serialize_us = serialize_us_per_event(&events),
        Err(e) => failures.push(format!("subscriber stream does not parse: {e}")),
    }

    // The journal layer: walk what the run wrote; in the first session
    // also replay it into a fresh writer under the same fsync policy,
    // timing each append.
    let buf = match std::fs::read(journal_path) {
        Ok(buf) => buf,
        Err(e) => {
            failures.push(format!("journal: {e}"));
            return l;
        }
    };
    match journal::walk(&buf) {
        Ok(w) => {
            l.frames = w.frames().count() as f64;
            l.snapshots = w.snapshots().count() as f64;
            l.snapshot_bytes = w.snapshot_bytes() as f64;
            l.live_mutations = w.live_mutations() as f64;
            if replay {
                let path = journal_path.with_extension("replay");
                match journal::replay(&w, &path, FsyncPolicy::EveryChronon) {
                    Ok(r) => {
                        l.frame_us = r.frame_us;
                        l.snapshot_ms = r.snapshot_ms;
                        l.snapshot_parse_s = r.parse_s;
                    }
                    Err(e) => failures.push(e),
                }
                let _ = std::fs::remove_file(&path);
            }
        }
        Err(e) => failures.push(format!("journal: {e}")),
    }
    l
}

/// Checks one `serve-paced` journal: no torn tail, one frame per chronon
/// in order, and one live-mutation record per acked mutation.
fn check_journal(buf: &[u8], horizon: Chronon, acked: u64, failures: &mut Vec<String>) {
    let w = match journal::walk(buf) {
        Ok(w) => w,
        Err(e) => return failures.push(format!("journal: {e}")),
    };
    if let Some(torn) = &w.torn_tail {
        failures.push(format!("journal: {torn}"));
    }
    let frames: Vec<Chronon> = w.frames().map(|f| f.0).collect();
    if !frames.iter().copied().eq(0..horizon) {
        failures.push(format!(
            "journal has {} frames for {horizon} chronons, or out of order",
            frames.len()
        ));
    }
    if w.live_mutations() as u64 != acked {
        failures.push(format!(
            "journal holds {} live mutations, {acked} were acked",
            w.live_mutations()
        ));
    }
}

/// Mean of `f` over the sessions.
fn mean(sessions: &[Session], f: impl Fn(&Session) -> f64) -> f64 {
    sessions.iter().map(f).sum::<f64>() / sessions.len().max(1) as f64
}

/// All of `f`'s samples over the sessions.
fn pooled(sessions: &[Session], f: impl Fn(&Session) -> &[f64]) -> Vec<f64> {
    sessions.iter().flat_map(|s| f(s).iter().copied()).collect()
}

/// Runs the workload for `args.seconds` and fills `m`.
pub fn run(args: &Args, shape: Shape, progress: &Progress, m: &mut Metrics) {
    let mut sessions: Vec<Session> = Vec::new();
    let mut lengths: Vec<f64> = Vec::new();
    let start = Instant::now();
    // Whole sessions only: start another while it is expected to end in
    // time.
    while sessions.is_empty()
        || start.elapsed().as_secs_f64() + median(&lengths).unwrap_or(0.0) <= args.seconds
    {
        let t0 = Instant::now();
        match session(args, shape, sessions.len(), progress) {
            Some(s) => sessions.push(s),
            None => break,
        }
        if sessions.len() == 1 {
            m.e2e(args.trace, "peak_rss_mb", sessions[0].rss_mb, "MB");
        }
        lengths.push(t0.elapsed().as_secs_f64());
    }
    if sessions.is_empty() {
        return;
    }
    let trace = args.trace;
    let setup: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
    let rate: Vec<f64> = sessions.iter().map(|s| s.chronons_per_s).collect();
    m.e2e(trace, "setup_s", median(&setup).expect("sessions"), "s");
    m.e2e(
        trace,
        "chronons_per_s",
        median(&rate).expect("sessions"),
        "1/s",
    );
    m.line(format!(
        "{}: {} sessions of {} chronons; chronons/s per session {:?}",
        shape.name,
        sessions.len(),
        shape.horizon,
        rate.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));

    // End-to-end metrics outside the gated set (see README.md).
    m.set(
        "journal_mb",
        mean(&sessions, |s| s.journal_bytes) / 1e6,
        "MB",
    );
    if shape.traffic.is_some() {
        m.percentiles("ack_ms", &pooled(&sessions, |s| &s.ack_ms), "ms");
        m.percentiles("apply_ms", &pooled(&sessions, |s| &s.apply_ms), "ms");
        m.percentiles("lateness_ms", &pooled(&sessions, |s| &s.lateness_ms), "ms");
        m.percentiles("protocol.ping_ms", &pooled(&sessions, |s| &s.ping_ms), "ms");
        m.percentiles(
            "mutation.drain_wait_ms",
            &pooled(&sessions, |s| &s.drain_wait_ms),
            "ms",
        );
        let late = pooled(&sessions, |s| &s.loadgen_late_ms);
        m.set(
            "loadgen.late_ms.p99",
            percentile(&late, 99.0).unwrap_or(0.0),
            "ms",
        );
        m.summary("loadgen.late_ms", &late);
        let acked: u64 = sessions.iter().map(|s| s.acked).sum();
        let effective: u64 = sessions.iter().map(|s| s.effective).sum();
        m.set(
            "mutation.effective_ratio",
            effective as f64 / acked.max(1) as f64,
            "ratio",
        );
    }

    let traced: Vec<&Layers> = sessions.iter().filter_map(|s| s.layers.as_ref()).collect();
    if traced.is_empty() {
        return;
    }
    let n = traced.len() as f64;
    let per = |f: &dyn Fn(&Layers) -> f64| traced.iter().map(|l| f(l)).sum::<f64>() / n;
    let all = |f: &dyn Fn(&Layers) -> &[f64]| -> Vec<f64> {
        traced.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    m.set(
        "workload.materialize_s",
        median(&sessions.iter().map(|s| s.materialize_s).collect::<Vec<_>>()).expect("sessions"),
        "s",
    );
    let busy = all(&|l| &l.busy_us);
    m.set("engine.chronon_us.p50", median(&busy).unwrap_or(0.0), "us");
    m.set(
        "engine.chronon_us.p99",
        percentile(&busy, 99.0).unwrap_or(0.0),
        "us",
    );
    m.summary("engine.chronon_us", &busy);
    m.set(
        "engine.candidates.mean",
        per(&|l| l.metrics.candidate_set.mean().unwrap_or(0.0)),
        "count",
    );
    m.set(
        "engine.heap_pops",
        per(&|l| l.metrics.selection_steps as f64),
        "count",
    );
    m.set(
        "engine.probes",
        per(&|l| l.metrics.probes_issued as f64),
        "count",
    );
    m.set("policy.score_calls", per(&|l| l.score_calls), "count");
    let score_s = per(&|l| l.score_s);
    m.set("policy.score_s", score_s, "s");
    m.set("engine.self_s", per(&|l| l.busy_s) - score_s, "s");
    m.set("obs.serialize_us_per_event", per(&|l| l.serialize_us), "us");
    m.set("journal.bytes", mean(&sessions, |s| s.journal_bytes), "B");
    m.set("journal.frames", per(&|l| l.frames), "count");
    m.set("journal.snapshots", per(&|l| l.snapshots), "count");
    m.set("journal.snapshot_bytes", per(&|l| l.snapshot_bytes), "B");
    m.set(
        "journal.live_mutations",
        per(&|l| l.live_mutations),
        "count",
    );
    m.set("hub.events", mean(&sessions, |s| s.hub_events), "count");
    m.set("hub.bytes", mean(&sessions, |s| s.hub_bytes), "B");
    let frame_us = all(&|l| &l.frame_us);
    m.set(
        "journal.frame_us.p50",
        median(&frame_us).unwrap_or(0.0),
        "us",
    );
    m.set(
        "journal.frame_us.p99",
        percentile(&frame_us, 99.0).unwrap_or(0.0),
        "us",
    );
    m.summary("journal.frame_us", &frame_us);
    let snapshot_ms = all(&|l| &l.snapshot_ms);
    m.set(
        "journal.snapshot_ms.p50",
        median(&snapshot_ms).unwrap_or(0.0),
        "ms",
    );
    m.summary("journal.snapshot_ms", &snapshot_ms);
    m.set("executor.probes", per(&|l| l.executor_probes), "count");
    m.set("executor.probe_us", per(&|l| l.executor_probe_us), "us");
    m.set("clock.wait_share", per(&|l| l.wait_share), "ratio");
    let wake = all(&|l| &l.wake_late_us);
    if let Some(p99) = percentile(&wake, 99.0) {
        m.set("clock.wake_late_us.p99", p99, "us");
        m.summary("clock.wake_late_us", &wake);
    }

    // Where the engine thread's time goes, from the replayed session:
    // frame appends plus the snapshots' mean append time times their
    // count, against the session's busy time.
    let first = traced[0];
    let frames_s = first.frame_us.iter().sum::<f64>() * 1e-6;
    let snapshots_s = median(&first.snapshot_ms).unwrap_or(0.0) * 1e-3 * first.snapshots;
    if first.busy_s > 0.0 {
        m.line(format!(
            "{}: journal appends {:.4} s (frames {:.4} s, snapshots {:.4} s) = {:.1}% of {:.4} s engine-thread busy time",
            shape.name,
            frames_s + snapshots_s,
            frames_s,
            snapshots_s,
            100.0 * (frames_s + snapshots_s) / first.busy_s,
            first.busy_s
        ));
    }
    let parsed = first.snapshot_ms.len() as f64 * first.snapshot_bytes / first.snapshots.max(1.0);
    if first.snapshot_parse_s > 0.0 {
        m.line(format!(
            "{}: deserializing {} snapshots took {:.3} s ({:.3} MB/s), the cost scan_journal pays per snapshot",
            shape.name,
            first.snapshot_ms.len(),
            first.snapshot_parse_s,
            parsed / 1e6 / first.snapshot_parse_s
        ));
    }
}
