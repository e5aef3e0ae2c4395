//! Wrappers around the public traits the layers call — `Policy`, `Clock`,
//! `ProbeExecutor` and `Observer` — that count and time the calls passing
//! through them. The program itself carries no tracing: a traced run
//! differs from an untraced one only by these wrappers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use webmon_core::model::{Chronon, ResourceId};
use webmon_core::obs::{Event, MetricsObserver, Observer};
use webmon_core::policy::{Candidate, Policy, PolicyContext};
use webmon_core::serve::{Clock, ClockRelease, ProbeExecutor};

/// One `score` call in this many is timed; the total is scaled up from
/// the sample. Timing every call would double the cost of a call that
/// takes a few nanoseconds.
const SCORE_SAMPLE: u64 = 16;

/// Call counts and sampled time of a [`CountingPolicy`].
#[derive(Debug, Default)]
pub struct PolicyStats {
    calls: AtomicU64,
    timed: AtomicU64,
    timed_ns: AtomicU64,
}

impl PolicyStats {
    /// `score` calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Estimated seconds spent in `score`, net of the timer's own cost
    /// (`timer_ns` per timed call).
    pub fn seconds(&self, timer_ns: f64) -> f64 {
        let timed = self.timed.load(Ordering::Relaxed);
        if timed == 0 {
            return 0.0;
        }
        let per_call =
            (self.timed_ns.load(Ordering::Relaxed) as f64 / timed as f64 - timer_ns).max(0.0);
        per_call * self.calls() as f64 * 1e-9
    }
}

/// Nanoseconds an empty interval measures: what one `Instant::now` pair
/// adds to the interval it times.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let mut total = Duration::ZERO;
    for _ in 0..N {
        let start = Instant::now();
        total += std::hint::black_box(start.elapsed());
    }
    total.as_nanos() as f64 / f64::from(N)
}

/// A [`Policy`] that counts `score` calls and times a sample of them.
pub struct CountingPolicy {
    inner: Box<dyn Policy>,
    stats: Arc<PolicyStats>,
}

impl CountingPolicy {
    /// Wraps `inner`, accumulating into `stats`.
    pub fn new(inner: Box<dyn Policy>, stats: Arc<PolicyStats>) -> Self {
        CountingPolicy { inner, stats }
    }
}

impl Policy for CountingPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn spec(&self) -> String {
        self.inner.spec()
    }

    fn score(&self, ctx: &PolicyContext<'_>, cand: &Candidate<'_>) -> i64 {
        let n = self.stats.calls.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(SCORE_SAMPLE) {
            return self.inner.score(ctx, cand);
        }
        let start = Instant::now();
        let score = self.inner.score(ctx, cand);
        let ns = start.elapsed().as_nanos() as u64;
        self.stats.timed.fetch_add(1, Ordering::Relaxed);
        self.stats.timed_ns.fetch_add(ns, Ordering::Relaxed);
        score
    }

    fn stable_scores(&self) -> bool {
        self.inner.stable_scores()
    }
}

/// Shared state of a [`GateClock`]: whether chronon 0 may begin, and the
/// instant it was let through.
#[derive(Debug, Default)]
pub struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    open: bool,
    anchor: Option<Instant>,
}

impl Gate {
    /// Lets chronon 0 begin.
    pub fn open(&self) {
        self.state.lock().expect("gate lock").open = true;
        self.cv.notify_all();
    }

    /// Blocks until chronon 0 has been let through (or `timeout` passes)
    /// and returns the instant it was, the anchor of the chronon schedule.
    pub fn anchor(&self, timeout: Duration) -> Option<Instant> {
        let state = self.state.lock().expect("gate lock");
        let (state, _) = self
            .cv
            .wait_timeout_while(state, timeout, |s| s.anchor.is_none())
            .expect("gate lock");
        state.anchor
    }
}

/// Holds chronon 0 until [`Gate::open`], then defers to the inner clock.
/// The daemon starts its clock when it binds; the gate keeps the run from
/// starting before the benchmark's subscriber is attached, so the
/// subscriber sees every event and the schedule is anchored at a known
/// instant.
pub struct GateClock<C> {
    inner: C,
    gate: Arc<Gate>,
}

impl<C: Clock> GateClock<C> {
    /// Gates `inner` behind `gate`.
    pub fn new(inner: C, gate: Arc<Gate>) -> Self {
        GateClock { inner, gate }
    }
}

impl<C: Clock> Clock for GateClock<C> {
    fn wait_until(&mut self, t: Chronon) -> bool {
        if t == 0 {
            let state = self.gate.state.lock().expect("gate lock");
            let mut state = self
                .gate
                .cv
                .wait_while(state, |s| !s.open)
                .expect("gate lock");
            state.anchor = Some(Instant::now());
            drop(state);
            self.gate.cv.notify_all();
        }
        self.inner.wait_until(t)
    }

    fn release_handle(&self) -> ClockRelease {
        let inner = self.inner.release_handle();
        let gate = Arc::clone(&self.gate);
        Arc::new(move || {
            gate.open();
            inner();
        })
    }
}

/// `(chronon, call, return)` of each `wait_until`, in call order.
pub type ClockLog = Vec<(Chronon, Instant, Instant)>;

/// A [`Clock`] that records every wait.
pub struct TracedClock<C> {
    inner: C,
    log: Arc<Mutex<ClockLog>>,
}

impl<C: Clock> TracedClock<C> {
    /// Records `inner`'s waits into `log`.
    pub fn new(inner: C, log: Arc<Mutex<ClockLog>>) -> Self {
        TracedClock { inner, log }
    }
}

impl<C: Clock> Clock for TracedClock<C> {
    fn wait_until(&mut self, t: Chronon) -> bool {
        let call = Instant::now();
        let paced = self.inner.wait_until(t);
        let ret = Instant::now();
        self.log.lock().expect("clock log").push((t, call, ret));
        paced
    }

    fn release_handle(&self) -> ClockRelease {
        self.inner.release_handle()
    }
}

/// Probe counts and time of a [`CountingExecutor`].
#[derive(Debug, Default)]
pub struct ExecutorStats {
    /// `probe` calls.
    pub probes: AtomicU64,
    /// Nanoseconds inside `probe`.
    pub probe_ns: AtomicU64,
}

/// A [`ProbeExecutor`] that counts and times probes.
pub struct CountingExecutor<E> {
    inner: E,
    stats: Arc<ExecutorStats>,
}

impl<E: ProbeExecutor> CountingExecutor<E> {
    /// Wraps `inner`, accumulating into `stats`.
    pub fn new(inner: E, stats: Arc<ExecutorStats>) -> Self {
        CountingExecutor { inner, stats }
    }
}

impl<E: ProbeExecutor> ProbeExecutor for CountingExecutor<E> {
    fn begin_chronon(&mut self, t: Chronon) {
        self.inner.begin_chronon(t);
    }

    fn down_until(&self, resource: ResourceId) -> Option<Chronon> {
        self.inner.down_until(resource)
    }

    fn probe(&mut self, t: Chronon, resource: ResourceId, attempt: u32) -> bool {
        let start = Instant::now();
        let ok = self.inner.probe(t, resource, attempt);
        self.stats.probes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .probe_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        ok
    }

    fn fallible(&self) -> bool {
        self.inner.fallible()
    }

    fn descriptor(&self) -> String {
        self.inner.descriptor()
    }
}

/// The engine-large traced run's observer: aggregates the run's metrics,
/// times each chronon from `ChrononStart` to `ChrononEnd`, and keeps the
/// events so their serialization can be timed after the run.
#[derive(Default)]
pub struct TimingObserver {
    /// The run's aggregate metrics.
    pub metrics: MetricsObserver,
    /// Microseconds per chronon.
    pub chronon_us: Vec<f64>,
    /// Every event, in emission order.
    pub events: Vec<Event>,
    started: Option<Instant>,
}

impl Observer for TimingObserver {
    fn on_event(&mut self, event: Event) {
        match event {
            Event::ChrononStart { .. } => self.started = Some(Instant::now()),
            Event::ChrononEnd { .. } => {
                if let Some(start) = self.started.take() {
                    self.chronon_us.push(start.elapsed().as_secs_f64() * 1e6);
                }
            }
            _ => {}
        }
        self.metrics.on_event(event);
        self.events.push(event);
    }
}
