//! The serve workloads: a live `immersion_serve::start` server in a
//! child process, driven over HTTP by a generator in this process.
//!
//! A run has three phases, each with its own body stream drawn from the
//! seed: a closed loop of two connections with no think time (`sat_rps`),
//! then open loops at a nominal and a high rate whose latencies are timed
//! from each request's due time. If the server dies, its crash is
//! recorded with the requests in flight, those requests fail, and a fresh
//! server takes the rest of the schedule.

use crate::child::{ChildRun, Exit};
use crate::stats::{median, quantile, ratio};
use crate::trace::Span;
use crate::Ctx;
use immersion_campaign::hash::fnv1a64;
use immersion_desim::SplitMix64;
use immersion_power::chips::ChipModel;
use immersion_serve::api::chip_by_key;
use immersion_serve::{start, ServeConfig};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// HTTP worker threads of the server under test.
pub const SERVER_THREADS: usize = 2;
/// Client connections, all from this process.
pub const CONNECTIONS: usize = 2;
/// Fewest requests per open-loop phase: ten samples lie beyond p99.
pub const OPEN_LOOP_REQUESTS: usize = 1000;
/// A request not answered in this long fails.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);
/// A server that leaves a request unanswered this long has hung; it is
/// killed and restarted. The slowest healthy request (a search on a
/// 15-chip 8×8 stack) takes well under a second.
const HANG_LIMIT: Duration = Duration::from_secs(10);
/// How long a server may take to drain and exit once the run is done.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Open-loop rates, requests per second: 0.5× and 0.85× the `sat_rps`
/// this benchmark measured on the commit that introduced it (2 cores).
pub fn rates(workload: &str) -> (f64, f64) {
    let sat = if workload == "serve_distinct" {
        DISTINCT_SAT_RPS
    } else {
        REPEAT_SAT_RPS
    };
    (sat * 0.5, sat * 0.85)
}
const DISTINCT_SAT_RPS: f64 = 48.0;
const REPEAT_SAT_RPS: f64 = 4400.0;

/// Requests in an open-loop phase at `rate`: enough for 40 % of
/// `seconds`, and never fewer than [`OPEN_LOOP_REQUESTS`].
fn open_loop_len(rate: f64, seconds: f64) -> usize {
    ((rate * seconds * 0.4) as usize).max(OPEN_LOOP_REQUESTS)
}

const CHIPS: [&str; 4] = ["lp", "hf", "e5", "phi"];
const COOLINGS: [&str; 5] = ["air", "pipe", "oil", "fc", "water"];
const GRIDS: [u64; 2] = [5, 8];
const MAX_STACK: u64 = 15;
/// Share of distinct-workload designs re-drawn from the recent ones, so
/// the 8-entry warm-model pool both hits and misses.
const REUSE_SHARE: f64 = 0.5;
const RECENT_DESIGNS: usize = 6;

/// One request: its path and JSON body.
#[derive(Debug, Clone, PartialEq)]
pub struct Body {
    pub path: &'static str,
    pub text: String,
}

fn body_text(m: BTreeMap<String, Value>) -> String {
    serde_json::to_string(&Value::Map(m)).expect("request bodies serialize")
}

fn design_map(chip: &str, chips: u64, cooling: &str, grid: u64) -> BTreeMap<String, Value> {
    let mut m = BTreeMap::new();
    m.insert("chip".to_string(), Value::Str(chip.to_string()));
    m.insert("chips".to_string(), Value::U64(chips));
    m.insert("cooling".to_string(), Value::Str(cooling.to_string()));
    m.insert(
        "grid".to_string(),
        Value::Seq(vec![Value::U64(grid), Value::U64(grid)]),
    );
    m
}

fn chip_model(key: &str) -> ChipModel {
    chip_by_key(key).expect("generator uses known chip keys")
}

/// The distinct-body stream: 70 % evaluate and 30 % search over every
/// chip, cooling, stack height 1–15 and grid 5×5 or 8×8, with a
/// continuous frequency inside the chip's VFS table and a continuous
/// threshold, so no two bodies are equal.
pub struct DistinctGen {
    rng: SplitMix64,
    recent: Vec<(usize, u64, usize, u64)>,
}

impl DistinctGen {
    pub fn new(rng: SplitMix64) -> DistinctGen {
        DistinctGen {
            rng,
            recent: Vec::new(),
        }
    }

    pub fn next_body(&mut self) -> Body {
        let r = &mut self.rng;
        let design = if !self.recent.is_empty() && r.next_f64() < REUSE_SHARE {
            self.recent[r.next_below(self.recent.len() as u64) as usize]
        } else {
            let d = (
                r.next_below(CHIPS.len() as u64) as usize,
                1 + r.next_below(MAX_STACK),
                r.next_below(COOLINGS.len() as u64) as usize,
                GRIDS[r.next_below(GRIDS.len() as u64) as usize],
            );
            self.recent.push(d);
            if self.recent.len() > RECENT_DESIGNS {
                self.recent.remove(0);
            }
            d
        };
        let (chip, chips, cooling, grid) = design;
        let mut m = design_map(CHIPS[chip], chips, COOLINGS[cooling], grid);
        let threshold = 60.0 + 40.0 * r.next_f64();
        m.insert("threshold_c".to_string(), Value::F64(threshold));
        if r.next_below(10) < 7 {
            let vfs = chip_model(CHIPS[chip]).vfs;
            let (lo, hi) = (vfs.min_step().freq_ghz, vfs.max_step().freq_ghz);
            let f = lo + (hi - lo) * r.next_f64();
            m.insert("freq_ghz".to_string(), Value::F64(f));
            Body {
                path: "/v1/evaluate",
                text: body_text(m),
            }
        } else {
            Body {
                path: "/v1/search",
                text: body_text(m),
            }
        }
    }
}

/// The existing loadtest's palette: 16 evaluate bodies (lp|hf ×
/// water|oil × 1|2 chips × default|75 °C threshold) and 4 search bodies
/// (lp|hf × water|oil at 2 chips), all on a 5×5 grid.
pub fn palette() -> (Vec<Body>, Vec<Body>) {
    let mut evaluate = Vec::new();
    let mut search = Vec::new();
    for chip in ["lp", "hf"] {
        for cooling in ["water", "oil"] {
            for chips in [1, 2] {
                for threshold in [None, Some(75.0)] {
                    let mut m = design_map(chip, chips, cooling, 5);
                    if let Some(t) = threshold {
                        m.insert("threshold_c".to_string(), Value::F64(t));
                    }
                    evaluate.push(Body {
                        path: "/v1/evaluate",
                        text: body_text(m),
                    });
                }
            }
            search.push(Body {
                path: "/v1/search",
                text: body_text(design_map(chip, 2, cooling, 5)),
            });
        }
    }
    (evaluate, search)
}

/// A body stream for `workload`, drawn from `rng`.
pub enum BodyStream {
    Distinct(DistinctGen),
    Repeat(SplitMix64, Vec<Body>, Vec<Body>),
}

impl BodyStream {
    pub fn new(workload: &str, rng: SplitMix64) -> BodyStream {
        if workload == "serve_distinct" {
            BodyStream::Distinct(DistinctGen::new(rng))
        } else {
            let (e, s) = palette();
            BodyStream::Repeat(rng, e, s)
        }
    }

    pub fn next_body(&mut self) -> Body {
        match self {
            BodyStream::Distinct(g) => g.next_body(),
            BodyStream::Repeat(rng, e, s) => {
                let pool = if rng.next_below(10) < 7 { &*e } else { &*s };
                pool[rng.next_below(pool.len() as u64) as usize].clone()
            }
        }
    }
}

/// One planned request: due offset from the phase start (µs; 0 for
/// the closed loop) and body.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub due_us: u64,
    pub body: Body,
}

/// The run's three schedules: the closed-loop body list (a prefix is
/// sent) and the nominal and high open loops with Poisson arrivals.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub closed: Vec<Planned>,
    pub nominal: Vec<Planned>,
    pub high: Vec<Planned>,
}

fn open_loop(stream: &mut BodyStream, rng: &mut SplitMix64, n: usize, rate: f64) -> Vec<Planned> {
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            let u = rng.next_f64().min(1.0 - 1e-12);
            at += -(1.0 - u).ln() / rate;
            Planned {
                due_us: (at * 1e6) as u64,
                body: stream.next_body(),
            }
        })
        .collect()
}

/// The whole schedule, a pure function of the workload, the seed and
/// the run length.
pub fn schedule(workload: &str, seed: u64, seconds: f64) -> Schedule {
    let mut root = SplitMix64::new(seed);
    let mut closed_stream = BodyStream::new(workload, root.split());
    let mut nominal_stream = BodyStream::new(workload, root.split());
    let mut high_stream = BodyStream::new(workload, root.split());
    let (nominal_rps, high_rps) = rates(workload);
    let closed = (0..closed_cap(workload, seconds))
        .map(|_| Planned {
            due_us: 0,
            body: closed_stream.next_body(),
        })
        .collect();
    let n_nominal = open_loop_len(nominal_rps, seconds);
    let n_high = open_loop_len(high_rps, seconds);
    let nominal = open_loop(&mut nominal_stream, &mut root, n_nominal, nominal_rps);
    let high = open_loop(&mut high_stream, &mut root, n_high, high_rps);
    Schedule {
        closed,
        nominal,
        high,
    }
}

impl Schedule {
    /// FNV-1a over every planned request: equal digests mean equal
    /// bodies in equal order at equal due times.
    pub fn digest(&self) -> String {
        let mut bytes = Vec::new();
        for (tag, list) in [
            (b'c', &self.closed),
            (b'n', &self.nominal),
            (b'h', &self.high),
        ] {
            for p in list {
                bytes.push(tag);
                bytes.extend_from_slice(&p.due_us.to_le_bytes());
                bytes.extend_from_slice(p.body.path.as_bytes());
                bytes.extend_from_slice(p.body.text.as_bytes());
                bytes.push(b'\n');
            }
        }
        format!("{:016x}", fnv1a64(&bytes))
    }
}

fn emit(line: &str) {
    let out = std::io::stdout();
    let mut out = out.lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Child side: start the server with the program's defaults except
/// for an ephemeral port, two worker threads and `state_dir`, print
/// its address, and serve until stdin closes.
pub fn child_main(state_dir: &Path) -> Result<(), String> {
    let running = start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: SERVER_THREADS,
        state_dir: Some(state_dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server failed to start: {e}"))?;
    emit(&format!("A {}", running.addr()));
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    running.shutdown();
    Ok(())
}

fn serve_cmd(ctx: &Ctx, state_dir: &Path) -> Command {
    let mut cmd = Command::new(&ctx.exe);
    cmd.arg("child-serve").arg("--state").arg(state_dir);
    cmd
}

/// Wait for the child's `A <addr>` line, then poll `/healthz` until it
/// answers 200. Returns the address and the time since spawn.
fn await_healthy(run: &mut ChildRun, until: Instant) -> Option<(SocketAddr, f64)> {
    let addr: SocketAddr = loop {
        let line = run.next_line(until)?;
        if let Some(a) = line.text.strip_prefix("A ") {
            break a.parse().ok()?;
        }
    };
    let mut client = minihttp::Client::new(addr.to_string()).with_timeout(Duration::from_secs(5));
    while Instant::now() < until {
        if let Ok(r) = client.send("GET", "/healthz", b"") {
            if r.status == 200 {
                return Some((addr, run.spawned().elapsed().as_secs_f64()));
            }
        }
        if run.poll().is_some() {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

/// Spawn a server child and time it from spawn to the first `/healthz`
/// 200, then stop it.
pub fn setup_probe(ctx: &Ctx, dir: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut run =
        ChildRun::spawn(serve_cmd(ctx, dir), Duration::from_secs(30)).map_err(|e| e.to_string())?;
    let healthy = await_healthy(&mut run, Instant::now() + Duration::from_secs(30));
    run.kill();
    let _ = std::fs::remove_dir_all(dir);
    healthy
        .map(|(_, s)| s)
        .ok_or_else(|| "server child never became healthy".to_string())
}

#[derive(Default)]
struct Live {
    generation: u64,
    addr: Option<SocketAddr>,
    stop: bool,
}

/// Keeps one server child alive for a run: restarts it after a crash,
/// recording the exit and the requests that were in flight.
pub struct Supervisor {
    live: Mutex<Live>,
    changed: Condvar,
    in_flight: Mutex<BTreeMap<usize, (Instant, String)>>,
    crashes: Mutex<Vec<String>>,
    peak_rss_kb: AtomicU64,
    starts: AtomicUsize,
}

impl Supervisor {
    fn publish(&self, addr: Option<SocketAddr>) {
        let mut live = self.live.lock().expect("supervisor lock");
        live.addr = addr;
        if addr.is_some() {
            live.generation += 1;
        }
        self.changed.notify_all();
    }

    fn stopping(&self) -> bool {
        self.live.lock().expect("supervisor lock").stop
    }

    /// The live server (generation, address), waiting for a restart if
    /// none is up. `None` once the run is stopping or `until` passes.
    fn current(&self, until: Instant) -> Option<(u64, SocketAddr)> {
        let mut live = self.live.lock().expect("supervisor lock");
        loop {
            if live.stop {
                return None;
            }
            if let Some(a) = live.addr {
                return Some((live.generation, a));
            }
            let now = Instant::now();
            if now >= until {
                return None;
            }
            live = self
                .changed
                .wait_timeout(live, until - now)
                .expect("supervisor lock")
                .0;
        }
    }

    fn run(self: &Arc<Self>, ctx: &Ctx, state_dir: &Path, budget_end: Instant) {
        while !self.stopping() && Instant::now() < budget_end {
            let mut run =
                match ChildRun::spawn(serve_cmd(ctx, state_dir), budget_end - Instant::now()) {
                    Ok(r) => r,
                    Err(e) => {
                        self.crashes
                            .lock()
                            .expect("crash log")
                            .push(format!("spawn failed: {e}"));
                        break;
                    }
                };
            self.starts.fetch_add(1, Ordering::Relaxed);
            let Some((addr, _)) = await_healthy(&mut run, budget_end) else {
                let (exit, _, _) = run.finish();
                self.crashes
                    .lock()
                    .expect("crash log")
                    .push(format!("server never became healthy ({})", exit.label()));
                continue;
            };
            self.publish(Some(addr));
            let mut stdin = run.take_stdin();
            let mut stop_sent: Option<Instant> = None;
            let mut hung = false;
            let exit = loop {
                if self.stopping() && stop_sent.is_none() {
                    drop(stdin.take());
                    stop_sent = Some(Instant::now());
                }
                if let Some(exit) = run.poll() {
                    break exit;
                }
                if stop_sent.is_some_and(|t| t.elapsed() > SHUTDOWN_GRACE) {
                    run.kill();
                    self.crashes.lock().expect("crash log").push(format!(
                        "server did not shut down within {}s of its last request (killed)",
                        SHUTDOWN_GRACE.as_secs()
                    ));
                    break Exit::Code(0);
                }
                if self.oldest_in_flight() > HANG_LIMIT {
                    run.kill();
                    hung = true;
                    break Exit::Deadline;
                }
                std::thread::sleep(Duration::from_millis(10));
            };
            self.publish(None);
            let (_, _, rss) = run.finish();
            self.peak_rss_kb.fetch_max(rss, Ordering::Relaxed);
            if self.stopping() && exit.ok() {
                break;
            }
            let in_flight: Vec<String> =
                std::mem::take(&mut *self.in_flight.lock().expect("in-flight lock"))
                    .into_values()
                    .map(|(_, label)| label)
                    .collect();
            let how = if hung {
                format!(
                    "a hang (killed after {}s without a response)",
                    HANG_LIMIT.as_secs()
                )
            } else {
                exit.label()
            };
            self.crashes.lock().expect("crash log").push(format!(
                "server ended by {how} with requests in flight: [{}]",
                in_flight.join(", ")
            ));
        }
        let _ = std::fs::remove_dir_all(state_dir);
    }

    /// How long the oldest unanswered request has waited.
    fn oldest_in_flight(&self) -> Duration {
        let in_flight = self.in_flight.lock().expect("in-flight lock");
        in_flight
            .values()
            .map(|(t, _)| t.elapsed())
            .max()
            .unwrap_or_default()
    }

    fn stop(&self) {
        let mut live = self.live.lock().expect("supervisor lock");
        live.stop = true;
        self.changed.notify_all();
    }
}

/// What one request did.
#[derive(Debug, Clone)]
pub struct Sent {
    /// Index into its phase's schedule.
    pub index: usize,
    /// Latency from the due time (open loop) or send time (closed
    /// loop), seconds.
    pub latency_s: f64,
    /// Send time minus due time, seconds (open loop).
    pub late_s: f64,
    /// HTTP status, or `None` when the request got no response.
    pub status: Option<u16>,
    /// Response body.
    pub response: String,
}

impl Sent {
    pub fn ok(&self) -> bool {
        matches!(self.status, Some(s) if (200..300).contains(&s))
    }
}

/// One client connection that follows the supervisor across restarts.
struct Conn {
    id: usize,
    generation: u64,
    client: Option<minihttp::Client>,
}

impl Conn {
    fn send(&mut self, sup: &Supervisor, body: &Body, until: Instant) -> (Option<u16>, String) {
        let Some((generation, addr)) = sup.current(until) else {
            return (None, "no live server".into());
        };
        if self.generation != generation || self.client.is_none() {
            self.client =
                Some(minihttp::Client::new(addr.to_string()).with_timeout(REQUEST_TIMEOUT));
            self.generation = generation;
        }
        let client = self.client.as_mut().expect("client set above");
        sup.in_flight.lock().expect("in-flight lock").insert(
            self.id,
            (Instant::now(), format!("{} {}", body.path, body.text)),
        );
        // A failed request stays registered so the supervisor can name
        // it when it reaps the crashed server.
        match client.send("POST", body.path, body.text.as_bytes()) {
            Ok(r) => {
                sup.in_flight
                    .lock()
                    .expect("in-flight lock")
                    .remove(&self.id);
                (Some(r.status), r.text())
            }
            Err(e) => {
                self.client = None;
                (None, format!("request failed: {e}"))
            }
        }
    }
}

/// Closed loop: each connection sends the next unsent body as soon as
/// its previous response arrives, until `duration` passes or the list
/// runs out. Returns the requests and the elapsed seconds.
fn closed_loop(
    sup: &Supervisor,
    plan: &[Planned],
    duration: Duration,
    until: Instant,
) -> (Vec<Sent>, f64) {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let stop_at = (t0 + duration).min(until);
    let sent = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for id in 0..CONNECTIONS {
            let (next, sent) = (&next, &sent);
            s.spawn(move || {
                let mut conn = Conn {
                    id,
                    generation: 0,
                    client: None,
                };
                loop {
                    if Instant::now() >= stop_at {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = plan.get(i) else { break };
                    let t = Instant::now();
                    let (status, response) = conn.send(sup, &p.body, until);
                    sent.lock().expect("results lock").push(Sent {
                        index: i,
                        latency_s: t.elapsed().as_secs_f64(),
                        late_s: 0.0,
                        status,
                        response,
                    });
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    (sent.into_inner().expect("results lock"), elapsed)
}

/// Open loop: requests become due on their schedule whatever the
/// server does; each connection takes the earliest request not yet
/// sent, waits for its due time if early, and the latency runs from
/// the due time. Requests not sent by `until` fail.
fn open_loop_run(
    sup: &Supervisor,
    plan: &[Planned],
    until: Instant,
    spans: Option<&Mutex<Vec<Span>>>,
) -> Vec<Sent> {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let sent = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for id in 0..CONNECTIONS {
            let (next, sent) = (&next, &sent);
            s.spawn(move || {
                let mut conn = Conn {
                    id,
                    generation: 0,
                    client: None,
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = plan.get(i) else { break };
                    let due = t0 + Duration::from_micros(p.due_us);
                    let now = Instant::now();
                    if now >= until {
                        sent.lock().expect("results lock").push(Sent {
                            index: i,
                            latency_s: f64::INFINITY,
                            late_s: 0.0,
                            status: None,
                            response: "deadline".into(),
                        });
                        continue;
                    }
                    wait_until(due);
                    let send = Instant::now();
                    let late_s = send.saturating_duration_since(due).as_secs_f64();
                    let (status, response) = conn.send(sup, &p.body, until);
                    if let (Some(spans), 0) = (spans, i % 2) {
                        let ns = |t: Instant| t.duration_since(t0).as_nanos() as u64;
                        spans.lock().expect("span lock").push(Span {
                            name: format!("client{}", p.body.path.replace('/', ".")),
                            id: i as u64 + 1,
                            parent: None,
                            start_ns: ns(send),
                            end_ns: ns(Instant::now()),
                        });
                    }
                    sent.lock().expect("results lock").push(Sent {
                        index: i,
                        latency_s: due.elapsed().as_secs_f64(),
                        late_s,
                        status,
                        response,
                    });
                }
            });
        }
    });
    let mut v = sent.into_inner().expect("results lock");
    v.sort_by_key(|s| s.index);
    v
}

/// Sleep until `due` less a margin, then yield in a loop until `due`: a
/// sleeping thread wakes late by the scheduler's latency, which the
/// open loop would charge to the server.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(2);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Everything a serve run measured.
#[derive(Debug, Default)]
pub struct ServeRun {
    pub digest: String,
    /// From the closed loop's start to the last open-loop response.
    pub wall_s: f64,
    pub sat_rps: f64,
    pub closed: Vec<Sent>,
    pub nominal: Vec<Sent>,
    pub high: Vec<Sent>,
    pub schedule: Option<Schedule>,
    pub crashes: Vec<String>,
    pub server_starts: usize,
    pub peak_rss_mb: f64,
    pub metrics_text: String,
    pub healthz_rtt_us: Vec<f64>,
    /// Client spans of the even-indexed nominal requests (traced runs).
    pub client_spans: Vec<Span>,
}

impl ServeRun {
    /// Latency percentile over an open-loop phase, ms: the phase is cut
    /// into consecutive windows of [`OPEN_LOOP_REQUESTS`] requests (ten
    /// samples beyond p99 in each), and the median of the windows'
    /// percentiles is reported, so one stall moves one window. A failed
    /// request counts as slower than every answered one.
    pub fn latency_ms(sent: &[Sent], q: f64) -> f64 {
        let v: Vec<f64> = sent
            .iter()
            .map(|s| if s.ok() { s.latency_s } else { f64::INFINITY })
            .collect();
        let windows: Vec<f64> = v
            .chunks(OPEN_LOOP_REQUESTS)
            .filter(|w| w.len() == OPEN_LOOP_REQUESTS || v.len() < OPEN_LOOP_REQUESTS)
            .map(|w| quantile(w, q))
            .collect();
        median(&windows) * 1e3
    }
}

/// Closed-loop phase length.
pub fn closed_duration(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.2).max(0.5))
}

/// Bodies drawn for the closed loop: four times what the measured
/// saturation rate would use, so the list does not run out first.
fn closed_cap(workload: &str, seconds: f64) -> usize {
    let (nominal, _) = rates(workload);
    (nominal * 2.0 * 4.0 * closed_duration(seconds).as_secs_f64()) as usize + 100
}

/// Run one serve workload pass against a supervised server. With
/// `traced`, even-indexed nominal requests record a client span.
pub fn run(ctx: &Ctx, workload: &str, dir: &Path, traced: bool, budget_end: Instant) -> ServeRun {
    let _ = std::fs::remove_dir_all(dir);
    let sched = schedule(workload, ctx.seed, ctx.seconds);
    let mut out = ServeRun {
        digest: sched.digest(),
        ..ServeRun::default()
    };
    let sup = Arc::new(Supervisor {
        live: Mutex::new(Live::default()),
        changed: Condvar::new(),
        in_flight: Mutex::new(BTreeMap::new()),
        crashes: Mutex::new(Vec::new()),
        peak_rss_kb: AtomicU64::new(0),
        starts: AtomicUsize::new(0),
    });
    let state_dir: PathBuf = dir.join("server");
    std::thread::scope(|s| {
        let sup2 = Arc::clone(&sup);
        let state_dir = state_dir.clone();
        s.spawn(move || sup2.run(ctx, &state_dir, budget_end));
        if let Some((_, addr)) = sup.current(budget_end) {
            // Transport round trips on an idle server.
            let mut c = minihttp::Client::new(addr.to_string()).with_timeout(REQUEST_TIMEOUT);
            for _ in 0..20 {
                let t = Instant::now();
                if c.send("GET", "/healthz", b"").is_ok() {
                    out.healthz_rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        if workload == "serve_repeat" {
            // First sight of every palette body, one at a time, so the
            // timed phases see only store hits.
            let (e, srch) = palette();
            let warm: Vec<Planned> = e
                .into_iter()
                .chain(srch)
                .map(|body| Planned { due_us: 0, body })
                .collect();
            let mut conn = Conn {
                id: 0,
                generation: 0,
                client: None,
            };
            for p in &warm {
                conn.send(&sup, &p.body, budget_end);
            }
        }
        let t0 = Instant::now();
        let (closed, elapsed) = closed_loop(
            &sup,
            &sched.closed,
            closed_duration(ctx.seconds),
            budget_end,
        );
        out.sat_rps = closed.iter().filter(|s| s.ok()).count() as f64 / elapsed;
        out.closed = closed;
        let spans = Mutex::new(Vec::new());
        out.nominal = open_loop_run(&sup, &sched.nominal, budget_end, traced.then_some(&spans));
        out.high = open_loop_run(&sup, &sched.high, budget_end, None);
        out.wall_s = t0.elapsed().as_secs_f64();
        out.client_spans = spans.into_inner().expect("span lock");
        if let Some((_, addr)) = sup.current(Instant::now() + Duration::from_secs(1)) {
            let mut c = minihttp::Client::new(addr.to_string()).with_timeout(REQUEST_TIMEOUT);
            if let Ok(r) = c.send("GET", "/metrics", b"") {
                out.metrics_text = r.text();
            }
        }
        sup.stop();
    });
    out.crashes = sup.crashes.lock().expect("crash log").clone();
    out.server_starts = sup.starts.load(Ordering::Relaxed);
    out.peak_rss_mb = sup.peak_rss_kb.load(Ordering::Relaxed) as f64 / 1024.0;
    out.schedule = Some(sched);
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// Parse `name value` lines of `/metrics`.
pub fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), v.trim().parse().ok()?))
        })
        .collect()
}

/// The server-side latency quantile from the `/metrics` histogram, ms:
/// the upper bound of the bucket holding the `q`-quantile (the largest
/// finite bound for the overflow bucket). The histogram covers every
/// request the last server process answered.
pub fn server_quantile_ms(metrics: &BTreeMap<String, f64>, q: f64) -> f64 {
    let mut buckets: Vec<(f64, f64)> = metrics
        .iter()
        .filter_map(|(k, v)| {
            let le = k
                .strip_prefix("serve_latency_bucket_le_")?
                .strip_suffix("_us")?;
            Some((le.parse::<f64>().ok()?, *v))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total <= 0.0 {
        return f64::NAN;
    }
    let rank = (q * total).ceil().max(1.0);
    let largest_finite = immersion_serve::metrics::LATENCY_BOUNDS_US[15] as f64;
    buckets
        .iter()
        .find(|b| b.1 >= rank)
        .map_or(f64::NAN, |b| b.0.min(largest_finite) / 1e3)
}

/// Check every answered serve_repeat response: per (path, body), every timed
/// response is byte-identical. Returns the indices (into `all`) that
/// differ from the first timed response to the same body.
pub fn repeat_mismatches(all: &[(&Body, &Sent)]) -> Vec<usize> {
    let mut first: BTreeMap<(&str, &str), &str> = BTreeMap::new();
    let mut bad = Vec::new();
    for (i, (body, sent)) in all.iter().enumerate() {
        if !sent.ok() {
            continue;
        }
        let reference = *first
            .entry((body.path, body.text.as_str()))
            .or_insert(sent.response.as_str());
        if reference != sent.response {
            bad.push(i);
        }
    }
    bad
}

/// Share of `bodies` that occur once.
pub fn distinct_share(bodies: &[&Body]) -> f64 {
    let mut counts: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for b in bodies {
        *counts.entry((b.path, b.text.as_str())).or_default() += 1;
    }
    let once = counts.values().filter(|&&c| c == 1).count();
    ratio(once as f64, bodies.len() as f64)
}

/// p99 of the generator's lateness over the open-loop phases, ms.
pub fn late_ms_p99(run: &ServeRun) -> f64 {
    let v: Vec<f64> = run
        .nominal
        .iter()
        .chain(&run.high)
        .filter(|s| s.status.is_some())
        .map(|s| s.late_s * 1e3)
        .collect();
    quantile(&v, 0.99)
}

/// Median `/healthz` round trip, µs.
pub fn healthz_rtt_us(run: &ServeRun) -> f64 {
    median(&run.healthz_rtt_us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_gives_the_same_schedule_digest() {
        for w in ["serve_distinct", "serve_repeat"] {
            let a = schedule(w, 7, 2.0);
            let b = schedule(w, 7, 2.0);
            assert_eq!(a.digest(), b.digest());
            assert_eq!(a.nominal, b.nominal);
            assert_ne!(a.digest(), schedule(w, 8, 2.0).digest());
        }
    }

    #[test]
    fn distinct_bodies_never_repeat_and_span_the_design_range() {
        let s = schedule("serve_distinct", 3, 10.0);
        let all: Vec<&Body> = s
            .closed
            .iter()
            .chain(&s.nominal)
            .chain(&s.high)
            .map(|p| &p.body)
            .collect();
        assert_eq!(distinct_share(&all), 1.0);
        let search = all.iter().filter(|b| b.path == "/v1/search").count();
        let share = search as f64 / all.len() as f64;
        assert!((0.25..0.35).contains(&share), "search share {share}");
        let mut stacks = BTreeSet::new();
        for b in &all {
            let v: Value = serde_json::from_str(&b.text).unwrap();
            stacks.insert(v.get("chips").and_then(Value::as_u64).unwrap());
            let spec = immersion_serve::DesignSpec::from_value(&v).unwrap();
            let design = spec.design().unwrap();
            if let Some(f) = v.get("freq_ghz").and_then(Value::as_f64) {
                assert!(design.chip.vfs.step_at_or_below(f).is_some());
            }
        }
        assert_eq!(stacks.len(), 15);
    }

    #[test]
    fn repeat_palette_has_twenty_bodies() {
        let (e, s) = palette();
        assert_eq!((e.len(), s.len()), (16, 4));
        let all: Vec<&Body> = e.iter().chain(&s).collect();
        assert_eq!(distinct_share(&all), 1.0);
    }
}
