//! The webmon benchmark: one command, three workloads, end-to-end and
//! per-layer metrics.
//!
//! ```text
//! perfbench --workload engine-large|serve-freerun|serve-paced \
//!           --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! Every metric the run measured is printed as a `metric <name> <value>
//! <unit>` line; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` its
//! metrics are the end-to-end set ([`E2E`]); with `--trace 1` the run goes
//! through the counting wrappers of [`wrap`] and its metrics are the
//! per-layer set ([`PER_LAYER`]). `README.md` beside this crate maps each
//! layer metric to the end-to-end metric it should move.

mod engine_large;
mod journal;
mod loadgen;
mod serve;
mod stats;
mod wrap;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by `--trace 0` on every workload.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("chronons_per_s", "1/s"),
];

/// Per-layer metrics, printed by `--trace 1` on every workload. The
/// `traced.*` entries are the end-to-end metrics measured under the
/// wrappers; their change against the untraced run is the tracing
/// overhead.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("workload.materialize_s", "s"),
    ("engine.chronon_us.p50", "us"),
    ("engine.chronon_us.p99", "us"),
    ("engine.candidates.mean", "count"),
    ("engine.heap_pops", "count"),
    ("engine.probes", "count"),
    ("policy.score_calls", "count"),
    ("policy.score_s", "s"),
    ("engine.self_s", "s"),
    ("obs.serialize_us_per_event", "us"),
    ("journal.bytes", "B"),
    ("journal.frames", "count"),
    ("journal.snapshots", "count"),
    ("journal.snapshot_bytes", "B"),
    ("journal.live_mutations", "count"),
    ("hub.events", "count"),
    ("hub.bytes", "B"),
    ("traced.setup_s", "s"),
    ("traced.peak_rss_mb", "MB"),
    ("traced.ok_ratio", "ratio"),
    ("traced.chronons_per_s", "1/s"),
];

const USAGE: &str = "usage: perfbench --workload engine-large|serve-freerun|serve-paced \
                     --seed <n> --seconds <s> --trace 0|1";

/// The parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Whether the run goes through the tracing wrappers.
    pub trace: bool,
    /// Scratch directory for journals, inside the working directory.
    pub scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == key)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let workload = get("--workload")?.to_string();
    if !["engine-large", "serve-freerun", "serve-paced"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed expects an integer".to_string())?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scratch: PathBuf::from(".perfbench-run").join(std::process::id().to_string()),
    })
}

/// Operations attempted and failed so far, shared with the watchdog.
#[derive(Default)]
pub struct Progress {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Progress {
    /// Counts one attempted operation.
    pub fn attempt(&self) {
        self.attempts(1);
    }

    /// Counts `n` attempted operations.
    pub fn attempts(&self, n: u64) {
        self.attempted.fetch_add(n, Ordering::SeqCst);
    }

    /// Counts one failed operation and reports why on standard error.
    pub fn fail(&self, why: String) {
        self.failed.fetch_add(1, Ordering::SeqCst);
        eprintln!("FAILED: {why}");
    }

    fn counts(&self) -> (u64, u64) {
        (
            self.attempted.load(Ordering::SeqCst),
            self.failed.load(Ordering::SeqCst),
        )
    }
}

/// Everything a run measured, in measurement order, plus report lines.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
    lines: Vec<String>,
}

impl Metrics {
    /// Records metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.push((name.into(), value, unit));
    }

    /// Records an end-to-end metric; a traced run files it under
    /// `traced.<name>`.
    pub fn e2e(&mut self, traced: bool, name: &str, value: f64, unit: &'static str) {
        let name = if traced {
            format!("traced.{name}")
        } else {
            name.to_string()
        };
        self.set(name, value, unit);
    }

    /// Records `<base>.p50` and `<base>.p99` of `values` and a report line
    /// with the highest percentile the sample count supports.
    pub fn percentiles(&mut self, base: &str, values: &[f64], unit: &'static str) {
        if let Some(p50) = stats::median(values) {
            self.set(format!("{base}.p50"), p50, unit);
            let p99 = stats::percentile(values, 99.0).expect("nonempty");
            self.set(format!("{base}.p99"), p99, unit);
        }
        self.summary(base, values);
    }

    /// Adds a report line summarizing `values`.
    pub fn summary(&mut self, base: &str, values: &[f64]) {
        match stats::summarize(values) {
            Some(s) => self.line(format!("summary {base}: {s}")),
            None => self.line(format!("summary {base}: no samples")),
        }
    }

    /// Adds a free-form report line.
    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`). The
/// workloads read it after their first pass or session, before checking
/// its output: later ones reuse freed memory, but how much the allocator
/// keeps would then depend on how many fit in the run.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Formats a JSON number with all its digits (non-finite values, which
/// JSON cannot carry, become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: the contract's metric set for this mode, in order.
fn result_json(correct: bool, attempted: u64, failed: u64, m: &Metrics, trace: bool) -> String {
    let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &E2E };
    let metrics: Vec<String> = set
        .iter()
        .filter_map(|&(name, unit)| {
            m.get(name)
                .map(|v| format!(r#""{name}": {{"value": {}, "unit": "{unit}"}}"#, num(v)))
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        metrics.join(", ")
    )
}

/// Serializes the final output so the watchdog and the main thread never
/// both print a result.
static PRINTED: Mutex<bool> = Mutex::new(false);

/// Prints the report lines and the result line, once.
fn finish(progress: &Progress, m: &mut Metrics, trace: bool) {
    let mut printed = PRINTED.lock().expect("print lock");
    if *printed {
        return;
    }
    *printed = true;
    let (attempted, failed) = progress.counts();
    let attempted = attempted.max(1);
    let rss = if trace {
        "traced.peak_rss_mb"
    } else {
        "peak_rss_mb"
    };
    if m.get(rss).is_none() {
        m.e2e(trace, "peak_rss_mb", peak_rss_mb(), "MB");
    }
    m.e2e(
        trace,
        "ok_ratio",
        1.0 - failed as f64 / attempted as f64,
        "ratio",
    );
    let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &E2E };
    let mut correct = failed == 0;
    for &(name, _) in set {
        if m.get(name).is_none() {
            eprintln!("FAILED: metric {name} was not measured");
            correct = false;
        }
    }
    for line in &m.lines {
        println!("{line}");
    }
    for (name, value, unit) in &m.values {
        println!("metric {name} {} {unit}", num(*value));
    }
    println!("{}", result_json(correct, attempted, failed, m, trace));
}

/// Kills a run that passes its deadline: the run counts as failed, its
/// result line is printed, and the process exits (ending every thread it
/// started, the in-process daemon's included).
fn watchdog(deadline: Duration, progress: Arc<Progress>, scratch: PathBuf, trace: bool) {
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        progress.attempt();
        progress.fail(format!(
            "run passed its {:.0} s deadline",
            deadline.as_secs_f64()
        ));
        let _ = std::fs::remove_dir_all(&scratch);
        finish(&progress, &mut Metrics::default(), trace);
        std::process::exit(0);
    });
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let progress = Arc::new(Progress::default());
    // Whole sessions may overrun `--seconds` by one session; the deadline
    // leaves room for that and for the output checks, and ends the run
    // well inside the 180 s a run may take.
    let deadline = Duration::from_secs_f64((args.seconds * 2.0 + 40.0).min(170.0));
    watchdog(
        deadline,
        Arc::clone(&progress),
        args.scratch.clone(),
        args.trace,
    );

    let mut m = Metrics::default();
    m.line(format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    match args.workload.as_str() {
        "engine-large" => engine_large::run(&args, &progress, &mut m),
        "serve-freerun" => serve::run(&args, serve::Shape::freerun(), &progress, &mut m),
        _ => serve::run(&args, serve::Shape::paced(), &progress, &mut m),
    }
    let _ = std::fs::remove_dir_all(&args.scratch);
    let _ = args.scratch.parent().map(std::fs::remove_dir);
    m.line(format!("wall {:.3} s", started.elapsed().as_secs_f64()));
    finish(&progress, &mut m, args.trace);
}
