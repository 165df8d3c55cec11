//! The benchmark's own calls into each layer, made in a child process
//! on the inputs a workload sends.
//!
//! For the serve workloads the items are the request bodies: the child
//! walks each through the same public entry points the server uses
//! (`DesignSpec::from_value`, `content_key`, `ResultStore::lookup`,
//! `CmpDesign::thermal_model`, `mcpat::analyze`,
//! `ThermalModel::solve_steady`, `max_frequency_searched`,
//! `ResultStore::store`) and, when given the server's response, checks
//! that it equals the direct result. For the figure workloads the items
//! are the design points the experiment jobs evaluate.
//!
//! Each item prints `B <i>` when it begins and `V <i> ok` or
//! `V <i> bad <why>` when it ends; counters print as `C <name> <n>` and
//! spans as `S` lines. A crash loses only the item in flight: the parent
//! restarts the child after it.

use crate::child::ChildRun;
use crate::trace::{Span, Tracer};
use crate::Ctx;
use immersion_archsim::{System, SystemConfig};
use immersion_campaign::Lookup;
use immersion_core::design::CmpDesign;
use immersion_core::explorer::max_frequency_searched;
use immersion_core::perf::run_npb_at;
use immersion_npb::{Benchmark, TraceGenerator};
use immersion_power::chips::{high_frequency_cmp, low_power_cmp, ChipModel};
use immersion_power::mcpat;
use immersion_power::vfs::VfsStep;
use immersion_serve::api::content_key;
use immersion_serve::{DesignSpec, ResultStore};
use immersion_thermal::grid::PowerAssignment;
use immersion_thermal::mg::{MgHierarchy, MgOptions};
use immersion_thermal::stack3d::CoolingParams;
use immersion_thermal::transient::TransientSolver;
use immersion_thermal::ThermalModel;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Models at or above this many nodes open parallel regions in a solve
/// (two chunks of the pool's 1,024-element split threshold).
pub const FORKING_NODES: usize = 2 * 1024;

/// `|Δ peak|` up to which a served evaluate matches the direct solve:
/// the server may warm-start CG from an earlier field, so the two
/// fields agree to the solver tolerance, not bit for bit.
pub const PEAK_TOLERANCE_C: f64 = 1e-4;

/// Warm-model pool size the child mirrors (the server's default).
const POOL: usize = 8;

/// NPB simulation settings of `Quality::quick()` and the seed the
/// figure jobs pass.
const OPS_PER_THREAD: u64 = 4_000;
const NPB_SEED: u64 = 42;

/// Transient steps per DTM design point, at the DTM study's 2 s step.
const TRANSIENT_STEPS: usize = 50;

fn emit(line: &str) {
    let out = std::io::stdout();
    let mut out = out.lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

struct Child {
    tracer: Tracer,
    counters: BTreeMap<&'static str, u64>,
    store: ResultStore,
    pool: Vec<(String, Arc<ThermalModel>)>,
    mg: bool,
}

impl Child {
    fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    fn flush_counters(&mut self) {
        for (k, v) in std::mem::take(&mut self.counters) {
            emit(&format!("C {k} {v}"));
        }
    }

    /// Assemble a design's model (and, when tracing, build the MG
    /// hierarchy on its matrix once more to time that step alone).
    fn assemble(&mut self, design: &CmpDesign) -> Result<ThermalModel, String> {
        let model = self
            .tracer
            .time("thermal.assembly", || design.thermal_model())
            .map_err(|e| format!("model build failed: {e}"))?;
        self.count("thermal.models", 1);
        emit(&format!("N {}", model.n_nodes()));
        if self.mg {
            self.tracer.time("thermal.mg_setup", || {
                MgHierarchy::build(model.matrix(), MgOptions::default(), None)
            });
        }
        Ok(model)
    }

    /// The pooled model for `key`, least recently used evicted first.
    fn pooled(&mut self, key: String, design: &CmpDesign) -> Result<Arc<ThermalModel>, String> {
        if let Some(i) = self.pool.iter().position(|(k, _)| *k == key) {
            let entry = self.pool.remove(i);
            let model = Arc::clone(&entry.1);
            self.pool.push(entry);
            return Ok(model);
        }
        let model = Arc::new(self.assemble(design)?);
        if self.pool.len() == POOL {
            self.pool.remove(0);
        }
        self.pool.push((key, Arc::clone(&model)));
        Ok(model)
    }

    /// `explorer::solve_at` for a design without leakage feedback,
    /// split into its power and thermal calls. Returns the peak die
    /// temperature.
    fn solve(
        &mut self,
        design: &CmpDesign,
        model: &ThermalModel,
        step: VfsStep,
    ) -> Result<f64, String> {
        let report = self
            .tracer
            .time("power.analyze", || mcpat::analyze(&design.chip, step, None));
        self.count("power.analyze_calls", 1);
        let power = assignment(design, model, &report)?;
        let sol = self
            .tracer
            .time("thermal.solve", || model.solve_steady(&power))
            .map_err(|e| format!("solve failed: {e}"))?;
        self.count("thermal.solves", 1);
        self.count("thermal.cg_iters", sol.iterations() as u64);
        if model.n_nodes() >= FORKING_NODES {
            self.count("thermal.forking_solves", 1);
        }
        Ok(sol.die_max())
    }

    fn search(&mut self, design: &CmpDesign, model: &ThermalModel) -> Option<VfsStep> {
        let (best, stats) = self.tracer.time("explorer.search", || {
            max_frequency_searched(design, model, true)
        });
        self.count("explorer.searches", 1);
        self.count("explorer.probes", stats.probes as u64);
        self.count("thermal.solves", stats.solves as u64);
        self.count("thermal.cg_iters", stats.cg_iterations as u64);
        if model.n_nodes() >= FORKING_NODES {
            self.count("thermal.forking_solves", stats.solves as u64);
        }
        best
    }
}

/// Every die of `design` at the per-block power of `report`, as
/// `explorer::power_at` builds it.
fn assignment(
    design: &CmpDesign,
    model: &ThermalModel,
    report: &mcpat::PowerReport,
) -> Result<PowerAssignment, String> {
    let mut power = model.zero_power();
    for die in 0..design.chips {
        for (block, &watts) in &report.per_block {
            power.set(die, block, watts).map_err(|e| e.to_string())?;
        }
    }
    Ok(power)
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// One request body through the serve pipeline's entry points; checks
/// `response` (the server's JSON reply) when given.
fn serve_item(c: &mut Child, path: &str, body: &str, response: Option<&str>) -> Result<(), String> {
    let parsed = c.tracer.time("serve.parse", || {
        let v: Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
        let spec = DesignSpec::from_value(&v).map_err(|e| e.message)?;
        Ok::<_, String>((v, spec))
    });
    let (value, spec) = parsed?;
    let evaluate = path == "/v1/evaluate";
    let freq = num(&value, "freq_ghz");
    let mut canonical = spec.canonical();
    if let (true, Value::Map(m)) = (evaluate, &mut canonical) {
        m.insert("freq_ghz".to_string(), freq.map_or(Value::Null, Value::F64));
    }
    let namespace = if evaluate { "eval" } else { "search" };
    let key = c
        .tracer
        .time("serve.content_key", || content_key(namespace, &canonical));
    let stored = c.tracer.time("store.lookup", || c.store.lookup(&key));
    let expected = match stored {
        Lookup::Hit(entry) => entry.output,
        Lookup::Miss | Lookup::Poisoned => {
            let design = spec.design().map_err(|e| e.message)?;
            let model = c.pooled(spec.pool_key(), &design)?;
            let mut r = BTreeMap::new();
            if evaluate {
                let step = match freq {
                    Some(f) => design
                        .chip
                        .vfs
                        .step_at_or_below(f)
                        .ok_or("freq below table")?,
                    None => design.chip.vfs.max_step(),
                };
                let peak = c.solve(&design, &model, step)?;
                let threshold = design.threshold();
                r.insert("peak_c".to_string(), Value::F64(peak));
                r.insert("threshold_c".to_string(), Value::F64(threshold));
                r.insert("feasible".to_string(), Value::Bool(peak <= threshold));
                let mut s = BTreeMap::new();
                s.insert("freq_ghz".to_string(), Value::F64(step.freq_ghz));
                s.insert("voltage_v".to_string(), Value::F64(step.voltage_v));
                r.insert("step".to_string(), Value::Map(s));
            } else {
                let best = c.search(&design, &model);
                let (f, v) = best.map_or((Value::Null, Value::Null), |s| {
                    (Value::F64(s.freq_ghz), Value::F64(s.voltage_v))
                });
                r.insert("feasible".to_string(), Value::Bool(best.is_some()));
                r.insert("max_freq_ghz".to_string(), f);
                r.insert("voltage_v".to_string(), v);
            }
            let result = Value::Map(r);
            c.tracer
                .time("store.write", || {
                    c.store.store(&key, namespace, canonical, result.clone(), 0)
                })
                .map_err(|e| e.to_string())?;
            result
        }
    };
    match response {
        None => Ok(()),
        Some(text) => {
            let got: Value =
                serde_json::from_str(text).map_err(|e| format!("bad response: {e}"))?;
            let got = got.get("result").ok_or("response has no result")?;
            results_match(evaluate, got, &expected)
        }
    }
}

/// Does a served result equal the direct one? Evaluate peaks agree to
/// [`PEAK_TOLERANCE_C`] (and feasibility may differ only that close to
/// the threshold); everything else must be equal.
pub fn results_match(evaluate: bool, got: &Value, expected: &Value) -> Result<(), String> {
    if !evaluate {
        for k in ["feasible", "max_freq_ghz", "voltage_v"] {
            if got.get(k) != expected.get(k) {
                return Err(format!(
                    "search {k}: got {:?}, expected {:?}",
                    got.get(k),
                    expected.get(k)
                ));
            }
        }
        return Ok(());
    }
    let (gp, ep) = (num(got, "peak_c"), num(expected, "peak_c"));
    let (Some(gp), Some(ep)) = (gp, ep) else {
        return Err("evaluate peak_c missing".into());
    };
    if (gp - ep).abs() > PEAK_TOLERANCE_C {
        return Err(format!("evaluate peak_c: got {gp}, expected {ep}"));
    }
    if got.get("step") != expected.get("step")
        || got.get("threshold_c") != expected.get("threshold_c")
    {
        return Err("evaluate step or threshold differs".into());
    }
    let threshold = num(expected, "threshold_c").unwrap_or(f64::NAN);
    if got.get("feasible") != expected.get("feasible") && (ep - threshold).abs() > PEAK_TOLERANCE_C
    {
        return Err("evaluate feasibility differs".into());
    }
    Ok(())
}

/// One design point of a figure workload.
#[derive(Debug, Clone)]
pub enum FigureItem {
    /// fig10–13: explorer search, then the NPB suite on archsim at the
    /// frequency found.
    Npb {
        chip: &'static str,
        chips: usize,
        cooling: CoolingParams,
    },
    /// prefetch: one NPB program on the 2-chip CMP at 2 GHz, prefetcher
    /// off and on.
    Prefetch(Benchmark),
    /// fig7/fig8-style: explorer search on an 8×8 design.
    Search {
        chip: &'static str,
        chips: usize,
        cooling: CoolingParams,
    },
    /// grid: one steady solve at the top step on an n×n die grid.
    Grid(usize),
    /// dtm: transient steps on the 4-chip high-frequency stack.
    Transient(CoolingParams),
}

fn chip(key: &str) -> ChipModel {
    if key == "lp" {
        low_power_cmp()
    } else {
        high_frequency_cmp()
    }
}

/// The design points a figure workload's layer pass evaluates: every
/// point of fig10–13 and prefetch for figures_npb; for figures_thermal,
/// fig7/fig8 stacks of 1, 4, 8, 12 and 15 chips under the five paper
/// coolings, the grid study's six die grids, and the DTM study's four
/// coolings.
pub fn figure_items(workload: &str) -> Vec<FigureItem> {
    let mut items = Vec::new();
    if workload == "figures_npb" {
        for (c, chips) in [("lp", 6), ("lp", 8), ("hf", 6), ("hf", 8)] {
            for cooling in [
                CoolingParams::water_pipe(),
                CoolingParams::mineral_oil(),
                CoolingParams::fluorinert(),
                CoolingParams::water_immersion(),
            ] {
                items.push(FigureItem::Npb {
                    chip: c,
                    chips,
                    cooling,
                });
            }
        }
        items.extend(Benchmark::all().into_iter().map(FigureItem::Prefetch));
    } else {
        for c in ["lp", "hf"] {
            for cooling in CoolingParams::paper_options() {
                for chips in [1, 4, 8, 12, 15] {
                    items.push(FigureItem::Search {
                        chip: c,
                        chips,
                        cooling,
                    });
                }
            }
        }
        items.extend([4, 8, 12, 16, 24, 32].map(FigureItem::Grid));
        items.extend(
            [
                CoolingParams::air(),
                CoolingParams::water_pipe(),
                CoolingParams::mineral_oil(),
                CoolingParams::water_immersion(),
            ]
            .map(FigureItem::Transient),
        );
    }
    items
}

fn figure_item(c: &mut Child, item: &FigureItem) -> Result<(), String> {
    match item {
        FigureItem::Npb {
            chip: k,
            chips,
            cooling,
        } => {
            let design = CmpDesign::new(chip(k), *chips, *cooling).with_grid(8, 8);
            let model = c.assemble(&design)?;
            if let Some(step) = c.search(&design, &model) {
                c.tracer
                    .time("power.analyze", || mcpat::analyze(&design.chip, step, None));
                c.count("power.analyze_calls", 1);
                let results = c.tracer.time("archsim.run_npb_at", || {
                    run_npb_at(&design, step.freq_ghz, OPS_PER_THREAD, NPB_SEED)
                });
                c.count("archsim.runs", results.len() as u64);
                let instr: u64 = results.iter().map(|r| r.stats.instructions).sum();
                c.count("archsim.instructions", instr);
            }
        }
        FigureItem::Prefetch(bench) => {
            for prefetch in [false, true] {
                let mut cfg = SystemConfig::baseline(2, 2.0);
                cfg.prefetch_next_line = prefetch;
                let gen = TraceGenerator::new(
                    bench.descriptor(),
                    cfg.threads(),
                    OPS_PER_THREAD,
                    NPB_SEED,
                );
                let stats = c
                    .tracer
                    .time("archsim.system_run", || System::new(cfg).run(&gen));
                c.count("archsim.runs", 1);
                c.count("archsim.instructions", stats.instructions);
            }
        }
        FigureItem::Search {
            chip: k,
            chips,
            cooling,
        } => {
            let design = CmpDesign::new(chip(k), *chips, *cooling).with_grid(8, 8);
            let model = c.assemble(&design)?;
            c.search(&design, &model);
        }
        FigureItem::Grid(n) => {
            let design = CmpDesign::new(high_frequency_cmp(), 4, CoolingParams::water_immersion())
                .with_grid(*n, *n);
            let model = c.assemble(&design)?;
            let step = design.chip.vfs.max_step();
            c.solve(&design, &model, step)?;
        }
        FigureItem::Transient(cooling) => {
            let design = CmpDesign::new(high_frequency_cmp(), 4, *cooling).with_grid(8, 8);
            let model = c.assemble(&design)?;
            let step = design.chip.vfs.max_step();
            let report = c
                .tracer
                .time("power.analyze", || mcpat::analyze(&design.chip, step, None));
            c.count("power.analyze_calls", 1);
            let power = assignment(&design, &model, &report)?;
            let mut solver = TransientSolver::new(&model, 2.0);
            for _ in 0..TRANSIENT_STEPS {
                c.tracer
                    .time("thermal.transient_step", || solver.step(&power))
                    .map_err(|e| e.to_string())?;
                c.count("thermal.transient_steps", 1);
            }
        }
    }
    Ok(())
}

/// One input line of a serve layer pass: `path \t body \t response`,
/// with `-` for no response.
pub fn serve_line(path: &str, body: &str, response: Option<&str>) -> String {
    format!("{path}\t{body}\t{}", response.unwrap_or("-"))
}

/// Child side: run items `from..` of the pass and exit.
pub fn child_main(
    workload: &str,
    items: Option<&Path>,
    store: &Path,
    from: usize,
    spans: bool,
) -> Result<(), String> {
    let mut c = Child {
        tracer: Tracer::new(spans),
        counters: BTreeMap::new(),
        store: ResultStore::open(store).map_err(|e| e.to_string())?,
        pool: Vec::new(),
        mg: spans,
    };
    match items {
        Some(file) => {
            let text = std::fs::read_to_string(file).map_err(|e| e.to_string())?;
            for (i, line) in text.lines().enumerate().skip(from) {
                emit(&format!("B {i}"));
                let mut f = line.splitn(3, '\t');
                let (path, body, response) = (
                    f.next().unwrap_or(""),
                    f.next().unwrap_or(""),
                    f.next().filter(|r| *r != "-"),
                );
                c.tracer.begin("request");
                let verdict = serve_item(&mut c, path, body, response);
                c.tracer.end();
                c.flush_counters();
                emit(&verdict_line(i, verdict));
            }
        }
        None => {
            for (i, item) in figure_items(workload).iter().enumerate().skip(from) {
                emit(&format!("B {i}"));
                c.tracer.begin("design_point");
                let verdict = figure_item(&mut c, item);
                c.tracer.end();
                c.flush_counters();
                emit(&verdict_line(i, verdict));
            }
        }
    }
    Ok(())
}

fn verdict_line(i: usize, verdict: Result<(), String>) -> String {
    match verdict {
        Ok(()) => format!("V {i} ok"),
        Err(e) => format!("V {i} bad {}", e.replace('\n', " ")),
    }
}

/// What a layer pass returned.
#[derive(Debug, Default)]
pub struct LayerPass {
    /// Per item: `None` if never finished, else the verdict.
    pub verdicts: Vec<Option<Result<(), String>>>,
    pub spans: Vec<Span>,
    pub counters: BTreeMap<String, u64>,
    pub nodes: Vec<f64>,
    pub crashes: Vec<String>,
}

/// Run a layer pass over `n_items` items in child processes, restarting
/// after the item in flight when a child crashes.
pub fn run(
    ctx: &Ctx,
    workload: &str,
    items: Option<&Path>,
    n_items: usize,
    dir: &Path,
    spans: bool,
    budget_end: Instant,
) -> LayerPass {
    let mut out = LayerPass {
        verdicts: vec![None; n_items],
        ..LayerPass::default()
    };
    let store = dir.join("store");
    let _ = std::fs::remove_dir_all(&store);
    let mut from = 0;
    let mut span_base = 0u64;
    while from < n_items && Instant::now() < budget_end {
        let mut cmd = Command::new(&ctx.exe);
        cmd.arg("child-layers")
            .arg("--workload")
            .arg(workload)
            .arg("--store")
            .arg(&store)
            .arg("--from")
            .arg(from.to_string());
        if let Some(f) = items {
            cmd.arg("--items").arg(f);
        }
        if spans {
            cmd.arg("--spans");
        }
        let Ok(mut run) = ChildRun::spawn(cmd, budget_end - Instant::now()) else {
            out.crashes.push("layer child failed to spawn".into());
            break;
        };
        let mut current = None;
        let mut max_id = 0u64;
        let mut handle = |text: &str, out: &mut LayerPass| {
            let mut it = text.splitn(3, ' ');
            let (tag, a, b) = (it.next(), it.next(), it.next());
            match (tag, a) {
                (Some("B"), Some(i)) => current = i.parse::<usize>().ok(),
                (Some("V"), Some(i)) => {
                    if let Ok(i) = i.parse::<usize>() {
                        let v = match b {
                            Some("ok") => Ok(()),
                            other => {
                                Err(other.unwrap_or("").trim_start_matches("bad ").to_string())
                            }
                        };
                        if let Some(slot) = out.verdicts.get_mut(i) {
                            *slot = Some(v);
                        }
                        current = None;
                    }
                }
                (Some("C"), Some(k)) => {
                    if let Some(n) = b.and_then(|n| n.parse::<u64>().ok()) {
                        *out.counters.entry(k.to_string()).or_default() += n;
                    }
                }
                (Some("N"), Some(n)) => {
                    if let Ok(n) = n.parse::<f64>() {
                        out.nodes.push(n);
                    }
                }
                (Some("S"), _) => {
                    if let Some(mut s) = Span::parse(text) {
                        // Ids restart in each child; keep them unique.
                        max_id = max_id.max(s.id);
                        s.id += span_base;
                        s.parent = s.parent.map(|p| p + span_base);
                        out.spans.push(s);
                    }
                }
                _ => {}
            }
        };
        loop {
            if let Some(line) = run.next_line(Instant::now() + Duration::from_millis(100)) {
                handle(&line.text, &mut out);
                continue;
            }
            if run.poll().is_some() {
                break;
            }
        }
        let (exit, rest, _) = run.finish();
        for line in rest {
            handle(&line.text, &mut out);
        }
        span_base += max_id;
        if exit.ok() {
            break;
        }
        let failed_at = current.unwrap_or(from);
        out.crashes.push(format!(
            "layer child ended by {} during item {failed_at}",
            exit.label()
        ));
        if let Some(slot) = out.verdicts.get_mut(failed_at) {
            *slot = Some(Err(exit.label()));
        }
        from = failed_at + 1;
    }
    let _ = std::fs::remove_dir_all(&store);
    out
}

/// Run a serve layer pass over `items` split into `parts` contiguous
/// ranges, each in its own child process at the same time. Separate
/// processes share no thread pool, so the split adds no concurrency
/// inside the program.
pub fn run_parts(
    ctx: &Ctx,
    workload: &str,
    items: &[String],
    parts: usize,
    dir: &Path,
    spans: bool,
    budget_end: Instant,
) -> LayerPass {
    let chunk = items.len().div_ceil(parts.max(1)).max(1);
    let results: Vec<LayerPass> = std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(k, part)| {
                s.spawn(move || {
                    let part_dir = dir.join(format!("part{k}"));
                    let file = part_dir.join("items.tsv");
                    let written = std::fs::create_dir_all(&part_dir)
                        .and_then(|()| std::fs::write(&file, part.join("\n")));
                    match written {
                        Ok(()) => run(
                            ctx,
                            workload,
                            Some(&file),
                            part.len(),
                            &part_dir,
                            spans,
                            budget_end,
                        ),
                        Err(e) => LayerPass {
                            verdicts: vec![None; part.len()],
                            crashes: vec![format!("could not write layer items: {e}")],
                            ..LayerPass::default()
                        },
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("layer pass thread"))
            .collect()
    });
    let mut out = LayerPass::default();
    for part in results {
        let base = out.spans.iter().map(|s| s.id).max().unwrap_or(0);
        out.verdicts.extend(part.verdicts);
        out.spans.extend(part.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in part.counters {
            *out.counters.entry(k).or_default() += v;
        }
        out.nodes.extend(part.nodes);
        out.crashes.extend(part.crashes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_results_match_within_tolerance_only() {
        let mk = |peak: f64| {
            let mut m = BTreeMap::new();
            m.insert("peak_c".to_string(), Value::F64(peak));
            m.insert("threshold_c".to_string(), Value::F64(80.0));
            m.insert("feasible".to_string(), Value::Bool(peak <= 80.0));
            Value::Map(m)
        };
        assert!(results_match(true, &mk(70.0), &mk(70.0 + 1e-6)).is_ok());
        assert!(results_match(true, &mk(70.0), &mk(70.1)).is_err());
    }
}
