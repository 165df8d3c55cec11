//! End-to-end benchmark of the water-immersion pipeline.
//!
//! ```text
//! e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see README.md for why each exists):
//!
//! - `figures_npb`: the five experiment jobs that simulate NPB on archsim;
//! - `figures_thermal`: the other 25 experiment jobs of `campaign --quick`;
//! - `serve_distinct`: design queries whose bodies never repeat;
//! - `serve_repeat`: the loadtest's 20-body palette, answered from the store.
//!
//! Every run of the program happens in a child process with a deadline
//! (the `child-*` subcommands of this binary). With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` it
//! carries the per-layer split from the benchmark's own spans. A
//! detailed report goes to `.bench_e2e/reports/`.

mod child;
mod figures;
mod layers;
mod serve;
mod stats;
mod trace;

use serde_json::Value;
use stats::{median, quantile, ratio};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Everything a run needs to know.
pub struct Ctx {
    /// This executable, for spawning children.
    pub exe: PathBuf,
    /// The checkout root (the working directory).
    pub root: PathBuf,
    /// Scratch state under the checkout.
    pub state: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// A run ends within this, children included.
const RUN_BUDGET: Duration = Duration::from_secs(165);
/// Set-up is measured this many times per run; the median is reported.
const SETUP_PROBES: usize = 11;
/// A latency whose request failed reads as this many ms when it lands
/// on the reported percentile (no answer within the request timeout).
const FAILED_LATENCY_MS: f64 = 30_000.0;

pub const WORKLOADS: [&str; 4] = [
    "figures_npb",
    "figures_thermal",
    "serve_distinct",
    "serve_repeat",
];

/// One metric value with its unit.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What a workload run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    wrong: u64,
    metrics: Metrics,
    report: BTreeMap<String, Value>,
}

fn arg<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child-figures") => {
            let jobs: Vec<String> = arg(&args, "--jobs")
                .unwrap_or("")
                .split(',')
                .map(str::to_string)
                .collect();
            figures::child_main(
                &jobs,
                Path::new(arg(&args, "--cache").unwrap_or("cache")),
                Path::new(arg(&args, "--out").unwrap_or("out")),
                args.iter().any(|a| a == "--spans"),
            )
        }
        Some("child-serve") => {
            serve::child_main(Path::new(arg(&args, "--state").unwrap_or("state")))
        }
        Some("child-layers") => layers::child_main(
            arg(&args, "--workload").unwrap_or(""),
            arg(&args, "--items").map(Path::new),
            Path::new(arg(&args, "--store").unwrap_or("store")),
            arg(&args, "--from")
                .and_then(|f| f.parse().ok())
                .unwrap_or(0),
            args.iter().any(|a| a == "--spans"),
        ),
        _ => bench_main(&args),
    };
    if let Err(e) = result {
        eprintln!("e2e-bench: {e}");
        std::process::exit(2);
    }
}

fn bench_main(args: &[String]) -> Result<(), String> {
    let workload = arg(args, "--workload").ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            WORKLOADS.join("|")
        ));
    }
    let seed: u64 = arg(args, "--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = arg(args, "--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    let traced = arg(args, "--trace").unwrap_or("0") == "1";
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    for (_, golden) in figures::GOLDENS {
        if !root.join(golden).is_file() {
            return Err(format!("{golden} not found: run from the repository root"));
        }
    }
    let ctx = Ctx {
        exe: std::env::current_exe().map_err(|e| e.to_string())?,
        state: root.join(".bench_e2e"),
        root,
        seed,
        seconds: seconds.max(1.0),
    };
    let budget_end = Instant::now() + RUN_BUDGET;
    let tag = format!(
        "{workload}-{seed}-{}-{}",
        u8::from(traced),
        std::process::id()
    );
    let dir = ctx.state.join("runs").join(&tag);
    let mut out = if workload.starts_with("figures") {
        run_figures(&ctx, workload, &dir, traced, budget_end)
    } else {
        run_serve(&ctx, workload, &dir, traced, budget_end)
    };
    let _ = std::fs::remove_dir_all(&dir);

    let failed_frac = ratio(out.failed as f64, out.attempted as f64);
    if traced {
        out.metrics.insert("failed_frac", (failed_frac, "ratio"));
    }
    out.report
        .insert("workload".into(), Value::Str(workload.into()));
    out.report.insert("seed".into(), Value::U64(seed));
    out.report
        .insert("failed_frac".into(), Value::F64(failed_frac));
    out.report.insert(
        "available_parallelism".into(),
        Value::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
    );
    let metrics_json: BTreeMap<String, Value> = out
        .metrics
        .iter()
        .map(|(k, (v, u))| {
            let mut m = BTreeMap::new();
            m.insert("value".to_string(), Value::F64(*v));
            m.insert("unit".to_string(), Value::Str(u.to_string()));
            (k.to_string(), Value::Map(m))
        })
        .collect();
    out.report
        .insert("metrics".into(), Value::Map(metrics_json.clone()));
    let reports = ctx.state.join("reports");
    let _ = std::fs::create_dir_all(&reports);
    let report_path = reports.join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(traced)
    ));
    if let Ok(text) = serde_json::to_string_pretty(&Value::Map(out.report.clone())) {
        let _ = std::fs::write(&report_path, text);
    }
    eprintln!(
        "e2e-bench: {workload} seed {seed}: {} attempted, {} failed ({} wrong output); report {}",
        out.attempted,
        out.failed,
        out.wrong,
        report_path.display()
    );
    for (k, v) in &out.report {
        if k == "crashes" || k.ends_with("digest") || k.ends_with("share") {
            eprintln!("  {k}: {}", serde_json::to_string(v).unwrap_or_default());
        }
    }
    let mut line = BTreeMap::new();
    line.insert("correct".to_string(), Value::Bool(out.wrong == 0));
    line.insert("attempted".to_string(), Value::U64(out.attempted.max(1)));
    line.insert("failed".to_string(), Value::U64(out.failed));
    line.insert("metrics".to_string(), Value::Map(metrics_json));
    println!(
        "{}",
        serde_json::to_string(&Value::Map(line)).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn strs(v: &[String]) -> Value {
    Value::Seq(v.iter().map(|s| Value::Str(s.clone())).collect())
}

fn setup_median(mut probe: impl FnMut(usize) -> Result<f64, String>) -> (f64, Vec<String>) {
    let mut samples = Vec::new();
    let mut errors = Vec::new();
    for i in 0..SETUP_PROBES {
        match probe(i) {
            Ok(s) => samples.push(s),
            Err(e) => errors.push(e),
        }
    }
    (median(&samples), errors)
}

/// Per span name: (count, total seconds).
fn span_totals(spans: &[trace::Span]) -> BTreeMap<String, (u64, f64)> {
    trace::summarize(spans)
        .into_iter()
        .map(|(k, (n, total, _))| (k, (n, total)))
        .collect()
}

/// The per-layer metrics a layer pass yields.
fn layer_metrics(m: &mut Metrics, pass: &layers::LayerPass) {
    let totals = span_totals(&pass.spans);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.1);
    let mean_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| ratio(t.1, t.0 as f64) * 1e6)
    };
    let count = |name: &str| pass.counters.get(name).copied().unwrap_or(0) as f64;
    let archsim_s = total("archsim.run_npb_at") + total("archsim.system_run");
    m.insert("archsim.runs", (count("archsim.runs"), "count"));
    m.insert("archsim.busy_s", (archsim_s, "s"));
    m.insert(
        "archsim.minstr_per_s",
        (
            ratio(count("archsim.instructions"), archsim_s) / 1e6,
            "Minstr/s",
        ),
    );
    m.insert(
        "power.analyze_calls",
        (count("power.analyze_calls"), "count"),
    );
    m.insert("power.busy_s", (total("power.analyze"), "s"));
    m.insert("thermal.models", (count("thermal.models"), "count"));
    m.insert("thermal.assembly_s", (total("thermal.assembly"), "s"));
    m.insert("thermal.mg_setup_s", (total("thermal.mg_setup"), "s"));
    let nodes = if pass.nodes.is_empty() {
        0.0
    } else {
        median(&pass.nodes)
    };
    m.insert("thermal.nodes_p50", (nodes, "count"));
    m.insert("thermal.solves", (count("thermal.solves"), "count"));
    m.insert("thermal.solve_s", (total("thermal.solve"), "s"));
    m.insert("thermal.cg_iters", (count("thermal.cg_iters"), "count"));
    m.insert(
        "thermal.transient_steps",
        (count("thermal.transient_steps"), "count"),
    );
    m.insert(
        "thermal.transient_s",
        (total("thermal.transient_step"), "s"),
    );
    m.insert(
        "thermal.forking_solve_frac",
        (
            ratio(count("thermal.forking_solves"), count("thermal.solves")),
            "ratio",
        ),
    );
    m.insert("explorer.searches", (count("explorer.searches"), "count"));
    m.insert("explorer.probes", (count("explorer.probes"), "count"));
    m.insert("explorer.search_s", (total("explorer.search"), "s"));
    m.insert("serve.parse_us", (mean_us("serve.parse"), "us"));
    m.insert("serve.store_lookup_us", (mean_us("store.lookup"), "us"));
    m.insert("serve.store_write_us", (mean_us("store.write"), "us"));
}

fn layer_report(out: &mut Outcome, pass: &layers::LayerPass) {
    let summary: BTreeMap<String, Value> = trace::summarize(&pass.spans)
        .into_iter()
        .map(|(k, (n, total, own))| {
            let mut m = BTreeMap::new();
            m.insert("count".to_string(), Value::U64(n));
            m.insert("total_s".to_string(), Value::F64(total));
            m.insert("self_s".to_string(), Value::F64(own));
            (k, Value::Map(m))
        })
        .collect();
    out.report.insert("layer_spans".into(), Value::Map(summary));
    let spans: Vec<Value> = pass.spans.iter().map(|s| Value::Str(s.line())).collect();
    out.report.insert("spans".into(), Value::Seq(spans));
}

fn run_figures(
    ctx: &Ctx,
    workload: &str,
    dir: &Path,
    traced: bool,
    budget_end: Instant,
) -> Outcome {
    let jobs = figures::jobs_for(workload);
    let mut out = Outcome::default();
    let (setup_s, setup_errors) =
        setup_median(|i| figures::setup_probe(ctx, &jobs, &dir.join(format!("probe{i}"))));
    let t0 = Instant::now();
    let mut passes = Vec::new();
    // A traced run makes one untraced and one traced pass; a timed run
    // repeats passes while another fits in --seconds.
    loop {
        let spans = traced && passes.len() == 1;
        let p = figures::run_pass(ctx, &jobs, &dir.join("pass"), budget_end, spans);
        let wall = p.wall_s;
        passes.push(p);
        let done = if traced {
            passes.len() == 2
        } else {
            t0.elapsed().as_secs_f64() + wall > ctx.seconds
        };
        if done || Instant::now() + Duration::from_secs_f64(wall * 1.5) > budget_end {
            break;
        }
    }
    let mut crashes = Vec::new();
    let mut failures = Vec::new();
    for p in &passes {
        out.attempted += jobs.len() as u64;
        out.failed += (p.failed.len() + p.wrong.len()) as u64;
        out.wrong += p.wrong.len() as u64;
        crashes.extend(p.crashes.iter().cloned());
        failures.extend(p.failed.iter().map(|(j, why)| format!("{j}: {why}")));
        failures.extend(
            p.wrong
                .iter()
                .map(|j| format!("{j}: output differs from its reference")),
        );
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let durations: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.done.values().map(|(s, e)| (e - s) * 1e3))
        .collect();
    let completions: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.done.values().map(|(_, e)| e * 1e3))
        .collect();
    let throughput: Vec<f64> = passes
        .iter()
        .map(|p| ratio(p.done.len() as f64, p.wall_s))
        .collect();
    let m = &mut out.metrics;
    if traced {
        let lp = layers::run(
            ctx,
            workload,
            None,
            layers::figure_items(workload).len(),
            &dir.join("layers"),
            true,
            budget_end,
        );
        layer_metrics(m, &lp);
        let traced_pass = &passes[passes.len() - 1];
        let spans: Vec<f64> = traced_pass.done.values().map(|(s, e)| e - s).collect();
        m.insert("campaign.job_busy_s", (spans.iter().sum(), "s"));
        m.insert("campaign.queue_wait_s", (traced_pass.queue_wait_s, "s"));
        m.insert(
            "campaign.longest_job_s",
            (spans.iter().copied().fold(0.0, f64::max), "s"),
        );
        m.insert(
            "trace.overhead_frac",
            (ratio(traced_pass.wall_s, passes[0].wall_s) - 1.0, "ratio"),
        );
        serve_layer_zeros(m);
        let bad = lp
            .verdicts
            .iter()
            .filter(|v| !matches!(v, Some(Ok(()))))
            .count();
        out.attempted += lp.verdicts.len() as u64;
        out.failed += bad as u64;
        crashes.extend(lp.crashes.iter().cloned());
        layer_report(&mut out, &lp);
        let mut jobs_json = BTreeMap::new();
        for (j, (s, e)) in &traced_pass.done {
            jobs_json.insert(j.clone(), Value::Seq(vec![Value::F64(*s), Value::F64(*e)]));
        }
        out.report.insert("job_spans".into(), Value::Map(jobs_json));
    } else {
        m.insert("setup_s", (setup_s, "s"));
        m.insert("wall_s", (median(&walls), "s"));
        m.insert("sat_rps", (median(&throughput), "ops/s"));
        m.insert("p50_ms", (quantile(&durations, 0.5), "ms"));
        m.insert("p99_ms", (quantile(&durations, 0.99), "ms"));
        m.insert("p99_ms_high", (quantile(&completions, 0.99), "ms"));
        let rss = passes.iter().map(|p| p.peak_rss_mb).fold(0.0, f64::max);
        m.insert("peak_rss_mb", (rss, "MiB"));
    }
    out.report
        .insert("passes".into(), Value::U64(passes.len() as u64));
    out.report.insert("crashes".into(), strs(&crashes));
    out.report.insert("failures".into(), strs(&failures));
    out.report
        .insert("setup_errors".into(), strs(&setup_errors));
    out
}

/// Serve-only per-layer metrics on a figure workload: nothing ran.
fn serve_layer_zeros(m: &mut Metrics) {
    for (k, u) in [
        ("serve.server_p50_ms", "ms"),
        ("serve.server_p99_ms", "ms"),
        ("serve.http_overhead_ms", "ms"),
        ("minihttp.healthz_rtt_us", "us"),
        ("serve.store_hit_frac", "ratio"),
        ("serve.flight_join_frac", "ratio"),
        ("serve.pool_hit_frac", "ratio"),
        ("serve.solves_per_req", "ratio"),
        ("serve.distinct_frac", "ratio"),
        ("loadgen.late_ms_p99", "ms"),
    ] {
        m.insert(k, (0.0, u));
    }
}

fn run_serve(ctx: &Ctx, workload: &str, dir: &Path, traced: bool, budget_end: Instant) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, setup_errors) =
        setup_median(|i| serve::setup_probe(ctx, &dir.join(format!("probe{i}"))));
    let run = serve::run(ctx, workload, &dir.join("serve"), traced, budget_end);
    let sched = run
        .schedule
        .clone()
        .expect("serve::run returns its schedule");
    // Every request of the run, with its body, in phase order.
    let mut sent: Vec<(&serve::Body, &serve::Sent)> = Vec::new();
    for (plan, got) in [
        (&sched.closed, &run.closed),
        (&sched.nominal, &run.nominal),
        (&sched.high, &run.high),
    ] {
        sent.extend(got.iter().map(|s| (&plan[s.index].body, s)));
    }
    out.attempted = sent.len() as u64;
    let unanswered = sent.iter().filter(|(_, s)| !s.ok()).count() as u64;
    let mut wrong = 0u64;
    let mut failures: Vec<String> = sent
        .iter()
        .filter(|(_, s)| !s.ok())
        .take(20)
        .map(|(b, s)| format!("{} {} -> {:?} {}", b.path, b.text, s.status, s.response))
        .collect();

    // Outputs: distinct results against the benchmark's own direct
    // calls; repeat responses byte-identical per body. The layer pass
    // runs outside the timed window.
    let need_layers = traced || workload == "serve_distinct";
    let mut lp = layers::LayerPass::default();
    if need_layers {
        let items: Vec<String> = sent
            .iter()
            .map(|(b, s)| {
                let check = workload == "serve_distinct" && s.ok();
                layers::serve_line(b.path, &b.text, check.then_some(s.response.as_str()))
            })
            .collect();
        // Distinct bodies each need a solve or a search to check; two
        // processes halve the wait.
        let parts = if workload == "serve_distinct" { 2 } else { 1 };
        lp = layers::run_parts(
            ctx,
            workload,
            &items,
            parts,
            &dir.join("layers"),
            traced,
            budget_end,
        );
    }
    if workload == "serve_distinct" {
        for (i, (b, s)) in sent.iter().enumerate() {
            if !s.ok() {
                continue;
            }
            match lp.verdicts.get(i) {
                Some(Some(Ok(()))) => {}
                Some(Some(Err(why))) => {
                    wrong += 1;
                    failures.push(format!("{} {}: {why}", b.path, b.text));
                }
                _ => {
                    wrong += 1;
                    failures.push(format!("{} {}: not verified", b.path, b.text));
                }
            }
        }
    } else {
        for i in serve::repeat_mismatches(&sent) {
            wrong += 1;
            failures.push(format!(
                "{}: response differs from the first for this body: {}",
                sent[i].0.text, sent[i].1.response
            ));
        }
    }
    out.wrong = wrong;
    out.failed = unanswered + wrong;

    let lat = |v: &[serve::Sent], q: f64| {
        let ms = serve::ServeRun::latency_ms(v, q);
        if ms.is_finite() {
            ms
        } else {
            FAILED_LATENCY_MS
        }
    };
    let p50 = lat(&run.nominal, 0.5);
    let server = serve::parse_metrics(&run.metrics_text);
    let counter = |k: &str| server.get(k).copied().unwrap_or(0.0);
    let solve_shaped =
        counter("serve_store_hits") + counter("serve_flight_joins") + counter("serve_solves_total");
    let bodies: Vec<&serve::Body> = sent.iter().map(|(b, _)| *b).collect();
    let distinct = serve::distinct_share(&bodies);
    let store_hit = ratio(counter("serve_store_hits"), solve_shaped);
    let pool_hit = ratio(
        counter("serve_pool_hits"),
        counter("serve_pool_hits") + counter("serve_pool_builds"),
    );

    let m = &mut out.metrics;
    if traced {
        layer_metrics(m, &lp);
        let server_p50 = serve::server_quantile_ms(&server, 0.5);
        m.insert("serve.server_p50_ms", (server_p50, "ms"));
        m.insert(
            "serve.server_p99_ms",
            (serve::server_quantile_ms(&server, 0.99), "ms"),
        );
        m.insert("serve.http_overhead_ms", (p50 - server_p50, "ms"));
        m.insert(
            "minihttp.healthz_rtt_us",
            (serve::healthz_rtt_us(&run), "us"),
        );
        m.insert("serve.store_hit_frac", (store_hit, "ratio"));
        m.insert(
            "serve.flight_join_frac",
            (ratio(counter("serve_flight_joins"), solve_shaped), "ratio"),
        );
        m.insert("serve.pool_hit_frac", (pool_hit, "ratio"));
        m.insert(
            "serve.solves_per_req",
            (ratio(counter("serve_solves_total"), solve_shaped), "ratio"),
        );
        m.insert("serve.distinct_frac", (distinct, "ratio"));
        m.insert("loadgen.late_ms_p99", (serve::late_ms_p99(&run), "ms"));
        // Even-indexed nominal requests carried a client-side span; the
        // odd ones did not.
        let (even, odd): (Vec<_>, Vec<_>) =
            run.nominal.iter().cloned().partition(|s| s.index % 2 == 0);
        m.insert(
            "trace.overhead_frac",
            (ratio(lat(&even, 0.5), lat(&odd, 0.5)) - 1.0, "ratio"),
        );
        for (k, u) in [
            ("campaign.job_busy_s", "s"),
            ("campaign.queue_wait_s", "s"),
            ("campaign.longest_job_s", "s"),
        ] {
            m.insert(k, (0.0, u));
        }
        layer_report(&mut out, &lp);
        let client: Vec<Value> = run
            .client_spans
            .iter()
            .map(|s| Value::Str(s.line()))
            .collect();
        out.report.insert("client_spans".into(), Value::Seq(client));
    } else {
        m.insert("setup_s", (setup_s, "s"));
        m.insert("wall_s", (run.wall_s, "s"));
        m.insert("sat_rps", (run.sat_rps, "ops/s"));
        m.insert("p50_ms", (p50, "ms"));
        m.insert("p99_ms", (lat(&run.nominal, 0.99), "ms"));
        m.insert("p99_ms_high", (lat(&run.high, 0.99), "ms"));
        m.insert("peak_rss_mb", (run.peak_rss_mb, "MiB"));
    }
    let r = &mut out.report;
    r.insert("schedule_digest".into(), Value::Str(run.digest.clone()));
    r.insert("distinct_body_share".into(), Value::F64(distinct));
    r.insert("store_hit_share".into(), Value::F64(store_hit));
    r.insert("pool_hit_share".into(), Value::F64(pool_hit));
    r.insert(
        "forking_solve_share".into(),
        Value::F64(ratio(
            lp.counters
                .get("thermal.forking_solves")
                .copied()
                .unwrap_or(0) as f64,
            lp.counters.get("thermal.solves").copied().unwrap_or(0) as f64,
        )),
    );
    r.insert("server_starts".into(), Value::U64(run.server_starts as u64));
    for (name, phase) in [("nominal", &run.nominal), ("high", &run.high)] {
        let windows: Vec<Value> = phase
            .chunks(serve::OPEN_LOOP_REQUESTS)
            .map(|w| Value::F64(serve::ServeRun::latency_ms(w, 0.99)))
            .collect();
        r.insert(format!("{name}_window_p99_ms"), Value::Seq(windows));
    }
    let mut crashes = run.crashes.clone();
    crashes.extend(lp.crashes.iter().cloned());
    r.insert("crashes".into(), strs(&crashes));
    r.insert("failures".into(), strs(&failures));
    r.insert("setup_errors".into(), strs(&setup_errors));
    r.insert("requests".into(), Value::U64(sent.len() as u64));
    out
}
