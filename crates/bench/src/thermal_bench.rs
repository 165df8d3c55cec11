//! The `watercool bench thermal` workload: a fixed, repeatable solver
//! benchmark seeding the repo's perf trajectory.
//!
//! Three grid sizes of the 8-chip water-immersion fixture are solved
//! cold (ambient guess, solver state reset) and warm (second solve of
//! the same operating point) by Jacobi-preconditioned CG on thread
//! pools of width 1..=N, recording wall-clock, CG iterations, and
//! speedup vs. the 1-thread pool. On top of that, the explorer's binary
//! search runs warm- and cold-start on the same fixture to measure the
//! solver-state-reuse saving in CG iterations. CI gates on one
//! machine-independent number: mean cold CG iterations must not
//! regress >20% vs. the checked-in baseline.

use immersion_core::design::CmpDesign;
use immersion_core::explorer::max_frequency_searched;
use immersion_power::chips::low_power_cmp;
use immersion_thermal::stack3d::CoolingParams;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// How to run the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchConfig {
    /// Smoke mode: smallest grids, one repetition — CI-sized.
    pub smoke: bool,
    /// Widest thread pool to measure (1..=threads).
    pub threads: usize,
    /// Output path for the JSON report.
    pub out: String,
    /// Baseline JSON to compare against; >20% regression of mean cold
    /// CG iterations is an error.
    pub check: Option<String>,
}

impl Default for BenchConfig {
    fn default() -> BenchConfig {
        BenchConfig {
            smoke: false,
            threads: 4,
            out: "BENCH_thermal.json".to_string(),
            check: None,
        }
    }
}

/// One (grid, threads) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveCase {
    /// Lateral grid resolution (nx = ny).
    pub grid: usize,
    /// Thermal nodes in the model.
    pub nodes: usize,
    /// Thread-pool width used.
    pub threads: usize,
    /// Cold solve wall-clock, milliseconds (best of `reps`).
    pub cold_wall_ms: f64,
    /// Cold solve CG iterations.
    pub cold_iters: usize,
    /// Warm re-solve wall-clock, milliseconds (best of `reps`).
    pub warm_wall_ms: f64,
    /// Warm re-solve CG iterations.
    pub warm_iters: usize,
    /// Cold wall-clock of the 1-thread pool divided by this case's —
    /// the fork-join speedup.
    pub speedup_vs_1t: f64,
}

/// Warm- vs cold-start explorer search on the fixture.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchComparison {
    /// Binary-search probes (identical in both modes).
    pub probes: usize,
    /// Total CG iterations, every solve from the ambient guess.
    pub cold_cg_iterations: usize,
    /// Total CG iterations with full solver-state reuse.
    pub warm_cg_iterations: usize,
    /// `1 − warm/cold`, as a percentage.
    pub saving_pct: f64,
}

/// The full benchmark report written to `BENCH_thermal.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report format version.
    pub version: u32,
    /// Smoke mode?
    pub smoke: bool,
    /// Hardware threads the machine actually has — speedups are only
    /// meaningful when this is >= the pool width.
    pub threads_available: usize,
    /// Per-(grid, threads) solver measurements.
    pub cases: Vec<SolveCase>,
    /// Mean cold CG iterations across all cases — the CI regression
    /// gate.
    pub mean_cold_iters: f64,
    /// Explorer warm-vs-cold comparison on the 8-chip fixture.
    pub search: SearchComparison,
}

/// The 8-chip water-immersion fixture at lateral resolution `grid`.
fn fixture(grid: usize) -> CmpDesign {
    CmpDesign::new(low_power_cmp(), 8, CoolingParams::water_immersion()).with_grid(grid, grid)
}

/// Grid sizes measured per mode.
fn grids(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![8, 12, 16]
    } else {
        vec![8, 16, 32]
    }
}

/// Best-of-`reps` wall-clock of `f`, milliseconds.
fn best_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let mut last = f();
    let mut best = t0.elapsed().as_secs_f64() * 1e3;
    for _ in 1..reps {
        let t0 = Instant::now();
        last = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, last)
}

/// Run the benchmark and return the report (without writing it).
pub fn run_bench(cfg: &BenchConfig) -> Result<BenchReport, String> {
    let reps = if cfg.smoke { 1 } else { 3 };
    let threads_available =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut cases = Vec::new();

    for grid in grids(cfg.smoke) {
        let design = fixture(grid);
        let model = design.thermal_model().map_err(|e| e.to_string())?;
        let mut p = model.zero_power();
        for die in 0..8 {
            for block in design.chip.floorplan.blocks() {
                p.set(die, &block.name, 4.0).map_err(|e| e.to_string())?;
            }
        }
        let mut base_cold_ms = None;
        for threads in 1..=cfg.threads.max(1) {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .map_err(|e| e.to_string())?;
            let (cold_wall_ms, cold_iters) = pool.install(|| {
                best_ms(reps, || {
                    model.reset_solver_state();
                    model.solve_steady(&p).map(|s| s.iterations())
                })
            });
            let cold_iters = cold_iters.map_err(|e| e.to_string())?;
            let (warm_wall_ms, warm_iters) = pool.install(|| {
                model.reset_solver_state();
                let _ = model.solve_steady(&p);
                best_ms(reps, || model.solve_steady(&p).map(|s| s.iterations()))
            });
            let warm_iters = warm_iters.map_err(|e| e.to_string())?;
            let base = *base_cold_ms.get_or_insert(cold_wall_ms);
            cases.push(SolveCase {
                grid,
                nodes: model.n_nodes(),
                threads,
                cold_wall_ms,
                cold_iters,
                warm_wall_ms,
                warm_iters,
                speedup_vs_1t: if cold_wall_ms > 0.0 {
                    base / cold_wall_ms
                } else {
                    1.0
                },
            });
        }
    }

    // Explorer warm/cold comparison at the smoke-sized fixture with
    // leakage feedback on (the expensive, representative configuration).
    let design = fixture(8).with_leakage_feedback(true);
    let model = design.thermal_model().map_err(|e| e.to_string())?;
    let (_, cold) = max_frequency_searched(&design, &model, false);
    model.reset_solver_state();
    let (_, warm) = max_frequency_searched(&design, &model, true);
    let saving_pct = if cold.cg_iterations > 0 {
        (1.0 - warm.cg_iterations as f64 / cold.cg_iterations as f64) * 100.0
    } else {
        0.0
    };

    let mean_cold_iters =
        cases.iter().map(|c| c.cold_iters as f64).sum::<f64>() / cases.len().max(1) as f64;
    Ok(BenchReport {
        version: 3,
        smoke: cfg.smoke,
        threads_available,
        cases,
        mean_cold_iters,
        search: SearchComparison {
            probes: cold.probes,
            cold_cg_iterations: cold.cg_iterations,
            warm_cg_iterations: warm.cg_iterations,
            saving_pct,
        },
    })
}

/// Compare a fresh report against a checked-in baseline: mean cold CG
/// iterations must not regress by more than 20%.
pub fn check_against_baseline(report: &BenchReport, baseline_path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?;
    let baseline: BenchReport =
        serde_json::from_str(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
    let limit = baseline.mean_cold_iters * 1.20;
    if report.mean_cold_iters > limit {
        return Err(format!(
            "CG iteration regression: mean cold iterations {:.1} exceed \
             baseline {:.1} by more than 20% (limit {:.1})",
            report.mean_cold_iters, baseline.mean_cold_iters, limit
        ));
    }
    Ok(format!(
        "baseline check ok: mean cold iterations {:.1} vs baseline {:.1} (limit {:.1})",
        report.mean_cold_iters, baseline.mean_cold_iters, limit
    ))
}

/// Run, write the JSON report, optionally check the baseline; returns
/// the human-readable summary.
pub fn run_and_report(cfg: &BenchConfig) -> Result<String, String> {
    let report = run_bench(cfg)?;
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&cfg.out, json + "\n").map_err(|e| format!("{}: {e}", cfg.out))?;

    let mut out = format!(
        "thermal bench ({} mode, {} hardware thread(s)) -> {}\n",
        if cfg.smoke { "smoke" } else { "full" },
        report.threads_available,
        cfg.out
    );
    out.push_str("  grid  nodes threads  cold ms  warm ms  cold it  warm it  speedup\n");
    for c in &report.cases {
        out.push_str(&format!(
            "  {:>4} {:>6} {:>7} {:>8.2} {:>8.2} {:>8} {:>8} {:>7.2}x\n",
            c.grid,
            c.nodes,
            c.threads,
            c.cold_wall_ms,
            c.warm_wall_ms,
            c.cold_iters,
            c.warm_iters,
            c.speedup_vs_1t
        ));
    }
    out.push_str(&format!(
        "  search on 8-chip fixture: {} probes, cold {} vs warm {} CG iterations ({:.1}% saved)\n",
        report.search.probes,
        report.search.cold_cg_iterations,
        report.search.warm_cg_iterations,
        report.search.saving_pct
    ));
    if let Some(baseline) = &cfg.check {
        out.push_str("  ");
        out.push_str(&check_against_baseline(&report, baseline)?);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_produces_consistent_report() {
        let dir = std::env::temp_dir().join("watercool_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_thermal.json");
        let cfg = BenchConfig {
            smoke: true,
            threads: 2,
            out: out.display().to_string(),
            check: None,
        };
        let report = run_bench(&cfg).unwrap();
        // 3 grids x 2 pool widths.
        assert_eq!(report.cases.len(), 6);
        for c in &report.cases {
            assert!(c.cold_iters > 0);
            assert!(
                c.warm_iters <= 2,
                "warm re-solve of the same point is free, got {}",
                c.warm_iters
            );
            assert!(c.cold_wall_ms > 0.0);
        }
        assert!(report.search.probes > 0);
        assert!(
            report.search.warm_cg_iterations < report.search.cold_cg_iterations,
            "warm search must be cheaper"
        );
        assert!(report.search.saving_pct >= 30.0, "acceptance: >=30% saving");
    }

    #[test]
    fn baseline_check_flags_regressions_only() {
        let dir = std::env::temp_dir().join("watercool_bench_baseline_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        let mk = |mean: f64| BenchReport {
            version: 3,
            smoke: true,
            threads_available: 1,
            cases: Vec::new(),
            mean_cold_iters: mean,
            search: SearchComparison {
                probes: 1,
                cold_cg_iterations: 10,
                warm_cg_iterations: 5,
                saving_pct: 50.0,
            },
        };
        std::fs::write(&path, serde_json::to_string(&mk(100.0)).unwrap()).unwrap();
        let p = path.display().to_string();
        assert!(check_against_baseline(&mk(110.0), &p).is_ok());
        assert!(check_against_baseline(&mk(121.0), &p).is_err());
        assert!(check_against_baseline(&mk(90.0), &p).is_ok());
    }
}
