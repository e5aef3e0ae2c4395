//! The `serve-paced` load generator: an open-loop mutation client.
//!
//! The client stands for independent users who do not wait on each other:
//! request `i` is due at a fixed offset from the schedule's anchor and is
//! sent then, whether or not earlier requests have been answered. Latency
//! is measured from the due time, so a server stall also delays — and is
//! charged to — every request that fell due during it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use webmon_core::model::{Chronon, Instance};
use webmon_core::obs::Event;

/// One protocol line the mutation client sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `ping`.
    Ping,
    /// `register <cei>`.
    Register(u32),
    /// `cancel <cei>`.
    Cancel(u32),
    /// `set-budget <n>`.
    SetBudget(u32),
}

impl Request {
    /// The request line, newline included.
    pub fn line(self) -> String {
        match self {
            Request::Ping => "ping\n".to_string(),
            Request::Register(id) => format!("register {id}\n"),
            Request::Cancel(id) => format!("cancel {id}\n"),
            Request::SetBudget(b) => format!("set-budget {b}\n"),
        }
    }

    /// The daemon's `ok` reply to this request.
    pub fn ack(self) -> String {
        match self {
            Request::Ping => r#"{"ok":"pong"}"#.to_string(),
            Request::Register(id) => format!(r#"{{"ok":{{"register":{id}}}}}"#),
            Request::Cancel(id) => format!(r#"{{"ok":{{"cancel":{id}}}}}"#),
            Request::SetBudget(b) => format!(r#"{{"ok":{{"set-budget":{b}}}}}"#),
        }
    }

    /// Whether `event` is the event this mutation produces when drained
    /// (`false` for every event when the request is a ping).
    pub fn produced(self, event: &Event) -> bool {
        match (self, *event) {
            (Request::Register(id), Event::CeiRegistered { cei, .. }) => cei.0 == id,
            (Request::Cancel(id), Event::CeiCancelled { cei, .. }) => cei.0 == id,
            (Request::SetBudget(b), Event::BudgetReconfigured { budget, .. }) => budget == b,
            _ => false,
        }
    }

    /// Whether this request is a mutation (everything but `ping`).
    pub fn is_mutation(self) -> bool {
        self != Request::Ping
    }
}

/// Whether `event` is one a drained mutation emits.
pub fn is_mutation_event(event: &Event) -> bool {
    matches!(
        event,
        Event::CeiRegistered { .. } | Event::CeiCancelled { .. } | Event::BudgetReconfigured { .. }
    )
}

/// The shape of a request plan.
#[derive(Debug, Clone, Copy)]
pub struct PlanShape {
    /// Milliseconds between consecutive lines (20 ms = 50 lines/s).
    pub period_ms: u64,
    /// Milliseconds per chronon of the daemon's clock.
    pub chronon_ms: u64,
    /// Chronons in the run.
    pub horizon: Chronon,
    /// Chronons a mutation may take from its due time to its drain and
    /// still be sure to produce its event.
    pub margin: Chronon,
}

/// One planned request: when it is due, as an offset from the anchor of
/// the chronon schedule, and what it is.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    /// Due offset from the anchor.
    pub due: Duration,
    /// The request.
    pub request: Request,
}

/// SplitMix64: a small seeded generator for the plan's choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Candidates a registration picks among: the first this many untouched
/// CEIs released late enough.
const REGISTER_WINDOW: usize = 64;

/// Plans the request stream for one run over `instance`, from `seed`.
///
/// Every tenth line is a `ping`. The others are about 45% `register`, 45%
/// `cancel` and 10% `set-budget`, chosen so that each produces its event
/// whenever the daemon drains it within `margin` chronons of its due
/// chronon:
///
/// * `register` names an untouched CEI released at least `2 * margin`
///   chronons after the due chronon, so it is still unreleased when it
///   drains;
/// * `cancel` names a CEI this plan registered earlier and has not
///   cancelled, whose first window opens at least `margin` chronons after
///   the due chronon: it is live (registered) and cannot have been captured
///   or expired when the cancellation drains. With no such CEI the line
///   becomes a `register`;
/// * `set-budget` alternates 3 and 2 (the instance's budget is 2), so
///   every one changes the budget.
///
/// The plan stops `margin` chronons before the horizon, so every mutation
/// drains inside the run.
pub fn plan(instance: &Instance, shape: PlanShape, seed: u64) -> Vec<Planned> {
    let mut by_release: Vec<(Chronon, u32)> =
        instance.ceis.iter().map(|c| (c.release, c.id.0)).collect();
    by_release.sort_unstable();
    let mut untouched = vec![true; instance.ceis.len()];
    let mut registered: Vec<(Chronon, u32)> = Vec::new();
    let mut rng = Rng(seed ^ 0x5E57_E5ED);
    let mut budget = 2;
    let mut out = Vec::new();
    for i in 1u64.. {
        let due_ms = i * shape.period_ms;
        let due_chronon = (due_ms / shape.chronon_ms.max(1)) as Chronon;
        if due_chronon + shape.margin >= shape.horizon {
            break;
        }
        let roll = rng.below(100);
        registered.retain(|&(release, _)| release >= due_chronon + shape.margin);
        let request = if i % 10 == 0 {
            Request::Ping
        } else if (45..90).contains(&roll) && !registered.is_empty() {
            let (_, id) = registered.swap_remove(rng.below(registered.len()));
            Request::Cancel(id)
        } else if roll < 90 {
            let from = by_release.partition_point(|&(r, _)| r < due_chronon + 2 * shape.margin);
            let window: Vec<(Chronon, u32)> = by_release[from..]
                .iter()
                .filter(|&&(_, id)| untouched[id as usize])
                .take(REGISTER_WINDOW)
                .copied()
                .collect();
            if window.is_empty() {
                budget = 5 - budget;
                Request::SetBudget(budget)
            } else {
                let (release, id) = window[rng.below(window.len())];
                untouched[id as usize] = false;
                registered.push((release, id));
                Request::Register(id)
            }
        } else {
            budget = 5 - budget;
            Request::SetBudget(budget)
        };
        out.push(Planned {
            due: Duration::from_millis(due_ms),
            request,
        });
    }
    out
}

/// One sent request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sent {
    /// When it was due.
    pub due: Instant,
    /// When it went out.
    pub sent: Instant,
    /// When its reply line arrived, and the line.
    pub reply: Option<(Instant, String)>,
}

/// How often the client looks for replies while it waits for the next due
/// time. Socket read timeouts are rounded up to the kernel's tick (up to
/// 10 ms), too coarse to send on schedule, so the socket is nonblocking
/// and the client polls.
const POLL: Duration = Duration::from_micros(200);

/// Reads reply lines into `sent` (in order: replies on one connection come
/// back in request order) until `deadline` or the end of the stream.
/// Returns `false` at the end of the stream.
fn read_replies(
    reader: &mut BufReader<TcpStream>,
    buf: &mut String,
    sent: &mut [Sent],
    answered: &mut usize,
    deadline: Instant,
) -> io::Result<bool> {
    loop {
        match reader.read_line(buf) {
            Ok(0) => return Ok(false),
            Ok(_) if buf.ends_with('\n') => {
                let at = Instant::now();
                if let Some(s) = sent.get_mut(*answered) {
                    s.reply = Some((at, buf.trim_end().to_string()));
                    *answered += 1;
                }
                buf.clear();
            }
            // A partial line stays in `buf` until the next read ends it.
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let now = Instant::now();
                if now >= deadline {
                    return Ok(true);
                }
                std::thread::sleep(POLL.min(deadline - now));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Sends `lines` open-loop over `stream` — line `i` at `anchor + due_i` —
/// while reading replies, then waits up to `drain` for the outstanding
/// replies.
pub fn run_open_loop(
    stream: TcpStream,
    lines: &[(Duration, String)],
    anchor: Instant,
    drain: Duration,
) -> io::Result<Vec<Sent>> {
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut sent: Vec<Sent> = Vec::with_capacity(lines.len());
    let mut answered = 0;
    let mut buf = String::new();
    for (offset, line) in lines {
        let due = anchor + *offset;
        if !read_replies(&mut reader, &mut buf, &mut sent, &mut answered, due)? {
            break;
        }
        writer.write_all(line.as_bytes())?;
        sent.push(Sent {
            due,
            sent: Instant::now(),
            reply: None,
        });
    }
    let deadline = Instant::now() + drain;
    while answered < sent.len() && Instant::now() < deadline {
        let step = (Instant::now() + POLL).min(deadline);
        if !read_replies(&mut reader, &mut buf, &mut sent, &mut answered, step)? {
            break;
        }
    }
    Ok(sent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use webmon_core::engine::{Mutation, MutationSource};
    use webmon_core::fault::{FaultConfig, NoFaults};
    use webmon_core::model::CeiId;
    use webmon_core::OnlineEngine;
    use webmon_sim::{Experiment, ExperimentConfig, PolicyKind, PolicySpec, TraceSpec};
    use webmon_workload::{EiLength, RankSpec, WorkloadConfig};

    /// Feeds each planned mutation to the engine at a fixed chronon,
    /// without suppressing any natural release — the daemon's live path.
    struct PlanSource(Vec<Vec<Mutation>>);

    impl MutationSource for PlanSource {
        fn active(&self) -> bool {
            true
        }
        fn drain_at(&mut self, t: Chronon, out: &mut Vec<Mutation>) {
            if let Some(bucket) = self.0.get_mut(t as usize) {
                out.append(bucket);
            }
        }
        fn suppresses_release(&self, _cei: CeiId) -> bool {
            false
        }
    }

    #[derive(Default)]
    struct Recorder(Vec<Event>);

    impl webmon_core::obs::Observer for Recorder {
        fn on_event(&mut self, event: Event) {
            self.0.push(event);
        }
    }

    fn small_instance() -> Instance {
        let cfg = ExperimentConfig {
            n_resources: 60,
            horizon: 3000,
            budget: 2,
            workload: WorkloadConfig {
                n_profiles: 150,
                rank: RankSpec::UpTo { k: 3, beta: 0.0 },
                resource_alpha: 0.3,
                length: EiLength::Overwrite { max_len: Some(10) },
                distinct_resources: true,
                max_ceis: None,
                no_intra_resource_overlap: false,
            },
            trace: TraceSpec::Poisson { lambda: 20.0 },
            noise: None,
            repetitions: 1,
            seed: 7,
        };
        Experiment::materialize(cfg).workloads()[0].instance.clone()
    }

    #[test]
    fn generator_picks_only_mutations_that_produce_an_event() {
        let instance = small_instance();
        let shape = PlanShape {
            period_ms: 20,
            chronon_ms: 2,
            horizon: instance.epoch.len(),
            margin: 40,
        };
        for (seed, lag) in [(1, 1), (2, 20), (3, 39)] {
            let plan = plan(&instance, shape, seed);
            let count = |f: fn(&Request) -> bool| plan.iter().filter(|p| f(&p.request)).count();
            assert!(count(|r| matches!(r, Request::Register(_))) > 60);
            assert!(count(|r| matches!(r, Request::Cancel(_))) > 40);
            assert!(count(|r| matches!(r, Request::SetBudget(_))) > 10);
            assert!(count(|r| *r == Request::Ping) > 20);

            // Drain every mutation `lag` chronons after it fell due.
            let mut buckets = vec![Vec::new(); instance.epoch.len() as usize];
            let mutations: Vec<Request> = plan
                .iter()
                .filter(|p| p.request.is_mutation())
                .map(|p| {
                    let m = match p.request {
                        Request::Register(id) => Mutation::Register { cei: CeiId(id) },
                        Request::Cancel(id) => Mutation::Cancel { cei: CeiId(id) },
                        Request::SetBudget(budget) => Mutation::SetBudget { budget },
                        Request::Ping => unreachable!("filtered"),
                    };
                    let due_chronon = (p.due.as_millis() / 2) as Chronon;
                    buckets[(due_chronon + lag) as usize].push(m);
                    p.request
                })
                .collect();
            let mut rec = Recorder::default();
            let policy = PolicyKind::MEdf.build(seed);
            OnlineEngine::run_driven(
                &instance,
                policy.as_ref(),
                PolicySpec::p(PolicyKind::MEdf).engine_config(),
                &mut NoFaults,
                FaultConfig::default(),
                &mut PlanSource(buckets),
                &mut rec,
            );
            let events: Vec<Event> = rec.0.into_iter().filter(is_mutation_event).collect();
            assert_eq!(events.len(), mutations.len(), "seed {seed} lag {lag}");
            for (i, (req, ev)) in mutations.iter().zip(&events).enumerate() {
                assert!(req.produced(ev), "#{i}: {req:?} drained as {ev:?}");
            }
        }
    }

    #[test]
    fn a_server_stall_shows_in_latency_from_the_due_time() {
        const STALL_AT: usize = 5;
        const STALL: Duration = Duration::from_millis(300);
        const PERIOD: Duration = Duration::from_millis(10);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            let mut n = 0;
            while reader.read_line(&mut line).unwrap() > 0 {
                if n == STALL_AT {
                    std::thread::sleep(STALL);
                }
                writer.write_all(b"{\"ok\":\"pong\"}\n").unwrap();
                line.clear();
                n += 1;
            }
        });
        let lines: Vec<(Duration, String)> = (1..=40u32)
            .map(|i| (PERIOD * i, "ping\n".to_string()))
            .collect();
        let stream = TcpStream::connect(addr).unwrap();
        let anchor = Instant::now();
        let sent = run_open_loop(stream, &lines, anchor, Duration::from_secs(5)).unwrap();
        server.join().unwrap();

        assert_eq!(sent.len(), 40);
        let latency: Vec<Duration> = sent
            .iter()
            .map(|s| s.reply.as_ref().expect("answered").0 - s.due)
            .collect();
        // Open loop: the stall does not hold back sends.
        for s in &sent {
            assert!(s.sent - s.due < Duration::from_millis(100));
        }
        // Requests due during the stall wait out its remainder, measured
        // from their due time.
        for (i, l) in latency.iter().enumerate().skip(STALL_AT).take(20) {
            let remaining = STALL.saturating_sub(PERIOD * (i - STALL_AT) as u32);
            assert!(
                *l + Duration::from_millis(5) >= remaining,
                "#{i}: {l:?} < {remaining:?}"
            );
        }
        assert!(latency[STALL_AT] >= Duration::from_millis(290));
        // Well after the stall the server keeps up again.
        assert!(latency[39] < Duration::from_millis(100));
    }
}
