//! `watercool sanitize`: drive every instrumented lock site under the
//! concurrency sanitizer, then cross-validate the dynamic
//! lock-acquisition graph against the static R11 graph.
//!
//! The scenario arms the sanitizer once and walks the whole stack:
//! faultsim arm/probe (exclusivity → state edge), a deliberately
//! synchronized single-flight join (slots → joiners edge), rayon
//! fork-join regions, a cached campaign run (miss pass then hit pass),
//! and a live loopback server handling evaluate/campaign/metrics
//! traffic. `--stress N` appends N rounds of contended single-flight
//! entry plus parallel regions to shake out schedule-dependent races.
//!
//! Verdicts, in order of severity:
//!
//! 1. **Races** — any happens-before violation fails the run.
//! 2. **Unknown dynamic edges** — a lock order exercised at runtime
//!    that the static R11 graph never derived means the static
//!    analysis has a blind spot; fail so it gets taught.
//! 3. **Coverage debt** — static edges the scenario never exercised
//!    are reported as a percentage and ratcheted via
//!    `sanitize.ratchet` (counts only go up, like `lint.allow` in
//!    reverse): `--fix-ratchet` rewrites the floor after coverage
//!    improves.
//!
//! Artifacts land under `--out`: `sanitize_report.json` (full race /
//! edge / inventory report), `sanitize_report.sarif` (for code
//! scanning upload), and `lockgraph_dynamic.dot`.

use immersion_campaign::fsutil::atomic_write;
use immersion_campaign::{Campaign, Job, RunOptions};
use immersion_core::sanitizer;
use immersion_faultsim::FaultPlan;
use immersion_serve::flight::{Entry, SingleFlight};
use immersion_serve::ServeConfig;
use rayon::prelude::*;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The single-flight edge the joiner thread must record before the
/// leader publishes (see [`exercise_flight`]).
const FLIGHT_EDGE: (&str, &str) = ("serve::SingleFlight.slots", "serve::joiners");

/// Checked-in coverage floor, next to `lint.allow`.
const RATCHET_FILE: &str = "sanitize.ratchet";

/// Parsed `sanitize` subcommand flags.
pub struct SanitizeConfig {
    /// Extra contended rounds after the base scenario.
    pub stress: usize,
    /// Seed for the faultsim plan and stress-round key rotation.
    pub seed: u64,
    /// Artifact directory.
    pub out: PathBuf,
    /// Rewrite `sanitize.ratchet` to the achieved coverage.
    pub fix_ratchet: bool,
}

/// Run the full sanitize pass; `Ok` is the human summary, `Err` the
/// failure text (races, unknown edges, or a coverage regression).
pub fn run_and_report(cfg: &SanitizeConfig) -> Result<String, String> {
    let root = workspace_root()?;
    let static_graph = static_lock_edges(&root)?;

    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;

    let armed = sanitizer::install();
    exercise_faultsim(cfg.seed);
    exercise_flight(&armed)?;
    exercise_rayon(4096)?;
    exercise_thermal_solves()?;
    exercise_campaign(&cfg.out, cfg.seed)?;
    exercise_serve(&cfg.out)?;
    for round in 0..cfg.stress {
        stress_round(cfg.seed, round)?;
    }
    let report = armed.finish();

    write_artifacts(&cfg.out, &report)?;

    let dynamic: BTreeSet<(String, String)> = report
        .edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();
    let static_edges: BTreeSet<(String, String)> = static_graph.keys().cloned().collect();
    let unknown: Vec<&(String, String)> = dynamic.difference(&static_edges).collect();
    let covered = static_edges.intersection(&dynamic).count();
    let coverage_pct = if static_edges.is_empty() {
        100.0
    } else {
        100.0 * covered as f64 / static_edges.len() as f64
    };

    let ratchet_path = root.join(RATCHET_FILE);
    let floor = read_ratchet(&ratchet_path)?;
    if cfg.fix_ratchet {
        write_ratchet(&ratchet_path, covered)?;
    }

    let mut lines = vec![
        format!(
            "sanitize: {} race(s), {} dynamic lock edge(s), {} thread(s), {} fork region(s), \
             stress {}",
            report.races.len(),
            report.edges.len(),
            report.threads,
            report.regions,
            cfg.stress,
        ),
        format!(
            "static R11 graph: {} edge(s); exercised {covered} ({coverage_pct:.0}% coverage, \
             ratchet floor {floor})",
            static_edges.len(),
        ),
    ];
    for (from, to) in static_edges.difference(&dynamic) {
        lines.push(format!(
            "  coverage debt: static edge {from} -> {to} never exercised"
        ));
    }
    for note in &report.lockset_notes {
        lines.push(format!("  note: {note}"));
    }
    lines.push(format!(
        "artifacts: {}",
        cfg.out.join("sanitize_report.json").display()
    ));

    let mut failures = Vec::new();
    for race in &report.races {
        failures.push(format!(
            "RACE ({}) on `{}`: {} (tid {}) vs {} (tid {})",
            race.kind,
            race.name,
            race.first_loc,
            race.first_thread,
            race.second_loc,
            race.second_thread
        ));
    }
    for (from, to) in &unknown {
        failures.push(format!(
            "dynamic lock edge {from} -> {to} is absent from the static R11 graph \
             (static analysis blind spot — teach lockorder.rs about this acquisition)"
        ));
    }
    if covered < floor && !cfg.fix_ratchet {
        failures.push(format!(
            "coverage regression: {covered} static edge(s) exercised, ratchet floor is {floor} \
             ({RATCHET_FILE})"
        ));
    }

    let summary = lines.join("\n");
    if failures.is_empty() {
        Ok(summary)
    } else {
        Err(format!("{summary}\n{}", failures.join("\n")))
    }
}

/// Spawn a thread inside an instrumented fork region. Scenario
/// threads must be visible to the happens-before model: a plain
/// `std::thread::spawn` starts with an empty clock, so a later round
/// reusing a freed allocation (same shadow-cell instance id) would
/// read as a race against work the spawn already ordered.
fn spawn_tracked<F, T>(san: sanitizer::ForkToken, f: F) -> std::thread::JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::spawn(move || {
        sanitizer::task_start(san);
        let out = f();
        sanitizer::task_end(san);
        out
    })
}

fn workspace_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    immersion_lint::find_workspace_root(&cwd).ok_or_else(|| {
        "not inside a cargo workspace (no Cargo.toml with [workspace] above cwd)".to_string()
    })
}

/// The static R11 lock graph: `(from, to) → witness`.
fn static_lock_edges(root: &Path) -> Result<BTreeMap<(String, String), String>, String> {
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in immersion_lint::collect_sources(root).map_err(|e| e.to_string())? {
        let rel = match path.strip_prefix(root) {
            Ok(r) => r.to_string_lossy().replace('\\', "/"),
            Err(_) => path.to_string_lossy().into_owned(),
        };
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{rel}: {e}"))?;
        sources.push((rel, text));
    }
    let sem = immersion_lint::semantic::analyze(&sources);
    if !sem.errors.is_empty() {
        return Err(format!(
            "static lock graph unavailable:\n{}",
            sem.errors.join("\n")
        ));
    }
    Ok(sem.lock_graph().edges)
}

/// Arm a fault plan and probe a few sites: `install` takes the
/// exclusivity lock and then the plan state lock, exercising the
/// `faultsim::exclusivity() → faultsim::state()` edge.
fn exercise_faultsim(seed: u64) {
    let armed = immersion_faultsim::install(FaultPlan::new(seed));
    for site in ["sanitize::alpha", "sanitize::beta"] {
        let _ = immersion_faultsim::probe(site);
    }
    drop(armed);
}

/// Exercise the `serve::SingleFlight.slots → serve::joiners` edge
/// deterministically: the edge only exists while a joiner enters a
/// populated slot, so the leader must not publish until the joiner's
/// acquisition is visible in the dynamic graph.
fn exercise_flight(armed: &sanitizer::Armed) -> Result<(), String> {
    let group = Arc::new(SingleFlight::new());
    let token = match group.enter(&group, "sanitize-flight") {
        Entry::Leader(t) => t,
        Entry::Joined(_) => return Err("fresh single-flight group already had a flight".into()),
    };
    let san = sanitizer::fork();
    let joiner = {
        let group = Arc::clone(&group);
        spawn_tracked(san, move || match group.enter(&group, "sanitize-flight") {
            Entry::Joined(Ok(v)) => Ok(v.len()),
            Entry::Joined(Err(e)) => Err(format!("joined a failed flight: {e}")),
            Entry::Leader(t) => {
                // Raced past the publish; lead a trivial second flight
                // so the token is consumed.
                t.publish(Ok(Arc::new(String::new())));
                Err("joiner became leader before the edge was recorded".to_string())
            }
        })
    };
    // lint: wall-clock-ok — scenario timeout, not replay-critical.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let seen = armed
            .report()
            .edges
            .iter()
            .any(|e| e.from == FLIGHT_EDGE.0 && e.to == FLIGHT_EDGE.1);
        if seen {
            break;
        }
        if Instant::now() > deadline {
            token.publish(Ok(Arc::new(String::new())));
            let _ = joiner.join();
            return Err("single-flight joiner never recorded the slots -> joiners edge".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let joined = token.publish(Ok(Arc::new("sanitized".to_string())));
    let len = joiner
        .join()
        .map_err(|_| "single-flight joiner panicked".to_string())??;
    sanitizer::join(san);
    if joined != 1 || len != "sanitized".len() {
        return Err(format!(
            "single-flight join mismatch: {joined} joiner(s), payload len {len}"
        ));
    }
    Ok(())
}

/// Run a fork-join region on a dedicated pool, checking the result so
/// the parallel work is observably correct under instrumentation.
fn exercise_rayon(len: u64) -> Result<(), String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build()
        .map_err(|e| e.to_string())?;
    let sum = pool.install(|| {
        let mut v: Vec<u64> = (0..len).collect();
        v.par_iter_mut()
            .for_each(|x| *x = x.wrapping_mul(3).wrapping_add(1));
        v.iter().copied().fold(0u64, u64::wrapping_add)
    });
    // Sum of 3k+1 for k in 0..len.
    let expect = (0..len).fold(0u64, |a, k| {
        a.wrapping_add(k.wrapping_mul(3).wrapping_add(1))
    });
    if sum != expect {
        return Err(format!("parallel region corrupted data: {sum} != {expect}"));
    }
    Ok(())
}

/// Concurrent cold steady solves on one shared model. This drives the
/// `thermal::ThermalModel.solver` take/put from several threads at
/// once: the first solver takes the cached context, the others find
/// the slot empty and solve on fresh default contexts. Beyond
/// race-freedom, the solves must agree bitwise: all three run on the
/// global pool, and at a fixed pool width the CG arithmetic does not
/// depend on the schedule.
fn exercise_thermal_solves() -> Result<(), String> {
    use immersion_thermal::floorplan::{Floorplan, Rect};
    use immersion_thermal::stack3d::{CoolingParams, StackBuilder};

    let mut fp = Floorplan::new(0.01, 0.01);
    fp.add_block("DIE", Rect::new(0.0, 0.0, 0.01, 0.01))
        .map_err(|e| e.to_string())?;
    let model = Arc::new(
        StackBuilder::new(fp)
            .chips(2)
            .grid(6, 6)
            .cooling(CoolingParams::water_immersion())
            .build()
            .map_err(|e| e.to_string())?,
    );
    let san = sanitizer::fork();
    let mut solvers = Vec::new();
    for _ in 0..3 {
        let model = Arc::clone(&model);
        solvers.push(spawn_tracked(san, move || -> Result<Vec<f64>, String> {
            let mut p = model.zero_power();
            for die in 0..2 {
                p.set(die, "DIE", 15.0).map_err(|e| e.to_string())?;
            }
            let sol = model.solve_steady_cold(&p).map_err(|e| e.to_string())?;
            Ok(sol.into_temps())
        }));
    }
    let mut fields = Vec::new();
    for handle in solvers {
        fields.push(
            handle
                .join()
                .map_err(|_| "thermal solver thread panicked".to_string())??,
        );
    }
    sanitizer::join(san);
    for field in &fields[1..] {
        for (a, b) in field.iter().zip(&fields[0]) {
            if a.to_bits() != b.to_bits() {
                return Err(format!(
                    "concurrent steady solves disagree bitwise: {a:?} vs {b:?}"
                ));
            }
        }
    }
    Ok(())
}

/// A small multi-worker campaign run twice against the same cache
/// directory: the first pass stores entries (`sync_write`), the second
/// hits them (`sync_read`), and both drive the scheduler's tracked
/// mutex/condvar from several workers.
fn exercise_campaign(out: &Path, seed: u64) -> Result<(), String> {
    let build = || {
        let mut c = Campaign::new();
        for i in 0..6u64 {
            let mut cfg = BTreeMap::new();
            cfg.insert("scenario".to_string(), Value::Str("sanitize".to_string()));
            cfg.insert("cell".to_string(), Value::U64(i));
            cfg.insert("seed".to_string(), Value::U64(seed));
            c.add(Job::new(
                format!("sanitize-cell-{i}"),
                &Value::Map(cfg),
                move |_| Ok(Value::U64(i.wrapping_mul(37).wrapping_add(seed))),
            ));
        }
        c
    };
    let opts = RunOptions {
        workers: 3,
        cache_dir: Some(out.join("campaign-cache")),
        use_cache: true,
        ..RunOptions::default()
    };
    for pass in ["store", "hit"] {
        let report = build()
            .run(&opts, &|_| {})
            .map_err(|e| format!("campaign {pass} pass: {e}"))?;
        if !report.all_ok() {
            return Err(format!("campaign {pass} pass had failing jobs"));
        }
    }
    Ok(())
}

/// Boot a loopback server and drive the full store → flight → pool
/// pipeline: repeated evaluates (solve, then store hit), concurrent
/// clients on distinct grids (pool contention + eviction), a campaign
/// submit/poll cycle on the detached runner thread, and a metrics
/// scrape.
fn exercise_serve(out: &Path) -> Result<(), String> {
    let running = immersion_serve::start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 3,
        state_dir: Some(out.join("serve-state")),
        pool_capacity: 4,
    })
    .map_err(|e| format!("serve bind: {e}"))?;
    let addr = running.addr().to_string();
    let mut c = minihttp::Client::new(addr.clone());

    let body = r#"{"chip":"lp","chips":2,"cooling":"water","grid":[4,4]}"#;
    for pass in ["solve", "store-hit"] {
        let resp = post(&mut c, "/v1/evaluate", body)?;
        if resp.0 != 200 {
            return Err(format!(
                "evaluate ({pass}): status {} body {}",
                resp.0, resp.1
            ));
        }
    }

    let san = sanitizer::fork();
    let mut clients = Vec::new();
    for _ in 0..3 {
        let addr = addr.clone();
        clients.push(spawn_tracked(san, move || -> Result<(), String> {
            let mut c = minihttp::Client::new(addr);
            for grid in [4u32, 5, 6] {
                let body = format!(
                    r#"{{"chip":"lp","chips":2,"cooling":"water","grid":[{grid},{grid}]}}"#
                );
                let resp = post(&mut c, "/v1/evaluate", &body)?;
                if resp.0 != 200 {
                    return Err(format!("evaluate grid {grid}: status {}", resp.0));
                }
            }
            Ok(())
        }));
    }
    for handle in clients {
        handle
            .join()
            .map_err(|_| "serve client thread panicked".to_string())??;
    }
    sanitizer::join(san);

    let (status, text) = post(
        &mut c,
        "/v1/campaign",
        r#"{"chip":"lp","cooling":"water","max_chips":2,"grid":[4,4]}"#,
    )?;
    if status != 202 {
        return Err(format!("campaign submit: status {status} body {text}"));
    }
    let submitted: Value = serde_json::from_str(&text).map_err(|e| format!("submit JSON: {e}"))?;
    let id = submitted
        .get("id")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("campaign submit response lacks id: {text}"))?
        .to_string();
    // lint: wall-clock-ok — scenario timeout, not replay-critical.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = c
            .send("GET", &format!("/v1/campaign/{id}"), b"")
            .map_err(|e| format!("campaign poll: {e}"))?;
        if resp.status != 200 {
            return Err(format!("campaign poll: status {}", resp.status));
        }
        let s: Value = serde_json::from_str(&resp.text()).map_err(|e| format!("poll JSON: {e}"))?;
        match s.get("state").and_then(Value::as_str) {
            Some("done") => break,
            Some("failed") => return Err(format!("server campaign failed: {}", resp.text())),
            _ if Instant::now() > deadline => return Err("server campaign timed out".to_string()),
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }

    let metrics = c
        .send("GET", "/metrics", b"")
        .map_err(|e| format!("metrics: {e}"))?;
    if metrics.status != 200 {
        return Err(format!("metrics: status {}", metrics.status));
    }

    running.shutdown();
    Ok(())
}

fn post(c: &mut minihttp::Client, path: &str, body: &str) -> Result<(u16, String), String> {
    let resp = c
        .send("POST", path, body.as_bytes())
        .map_err(|e| format!("{path}: {e}"))?;
    Ok((resp.status, resp.text()))
}

/// One contended round: four threads race into the same single-flight
/// key (exactly one leads, the rest join or lead follow-up flights)
/// while each also runs a small parallel region. Any ordering the
/// scheduler produces must stay race-free.
fn stress_round(seed: u64, round: usize) -> Result<(), String> {
    let group = Arc::new(SingleFlight::new());
    let key = format!("stress-{}", (seed as usize).wrapping_add(round) % 7);
    let san = sanitizer::fork();
    let mut workers = Vec::new();
    for worker in 0..4u64 {
        let group = Arc::clone(&group);
        let key = key.clone();
        workers.push(spawn_tracked(san, move || -> Result<(), String> {
            match group.enter(&group, &key) {
                Entry::Leader(t) => {
                    let payload: u64 = (0..256u64)
                        .map(|k| k.wrapping_mul(worker + 1))
                        .fold(0, u64::wrapping_add);
                    t.publish(Ok(Arc::new(payload.to_string())));
                    Ok(())
                }
                Entry::Joined(Ok(_)) => Ok(()),
                Entry::Joined(Err(e)) => Err(format!("stress flight failed: {e}")),
            }
        }));
    }
    for handle in workers {
        handle
            .join()
            .map_err(|_| "stress worker panicked".to_string())??;
    }
    sanitizer::join(san);
    if round.is_multiple_of(32) {
        exercise_faultsim(seed.wrapping_add(round as u64));
        exercise_rayon(1024)?;
        exercise_thermal_solves()?;
    }
    Ok(())
}

fn write_artifacts(out: &Path, report: &sanitizer::report::Report) -> Result<(), String> {
    let json =
        serde_json::to_string_pretty(&report.to_json()).map_err(|e| format!("report JSON: {e}"))?;
    let sarif =
        serde_json::to_string_pretty(&report.to_sarif()).map_err(|e| format!("SARIF: {e}"))?;
    for (name, text) in [
        ("sanitize_report.json", json),
        ("sanitize_report.sarif", sarif),
        ("lockgraph_dynamic.dot", report.dynamic_dot()),
    ] {
        let path = out.join(name);
        atomic_write(&path, text.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Read the `covered_min N` floor from `sanitize.ratchet`. A missing
/// file means no floor yet (0).
fn read_ratchet(path: &Path) -> Result<usize, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    for line in text.lines() {
        if let Some(rest) = line.trim().strip_prefix("covered_min") {
            return rest
                .trim()
                .parse()
                .map_err(|_| format!("{}: bad covered_min line", path.display()));
        }
    }
    Err(format!("{}: no covered_min line", path.display()))
}

fn write_ratchet(path: &Path, covered: usize) -> Result<(), String> {
    let text = format!(
        "# Dynamic lock-graph coverage ratchet: the `watercool sanitize`\n\
         # scenario must exercise at least `covered_min` edges of the static\n\
         # R11 lock-order graph. Counts only go up — run\n\
         # `watercool sanitize --fix-ratchet` after improving coverage.\n\
         covered_min {covered}\n"
    );
    atomic_write(path, text.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))
}
