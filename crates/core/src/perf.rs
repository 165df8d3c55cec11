//! Application-performance coupling: §3.3 of the paper.
//!
//! For every cooling option, find the maximum sustainable frequency
//! (the §3.2 explorer), then run the nine NAS Parallel Benchmarks on
//! the cycle-approximate CMP simulator at that frequency. Execution
//! times relative to a reference cooling option are exactly the bars of
//! Figures 10–13.
//!
//! A simulation depends only on the CMP configuration (chips ×
//! frequency), never on the cooling that sustains it. Coolings often
//! share a frequency (mineral oil and fluorinert do in all four
//! figures), so [`run_npb_suites`] simulates each distinct
//! configuration once and hands its statistics to every cooling that
//! reached it.
//!
//! Simulations run one after another on the calling thread; each is
//! single-threaded and deterministic. They are not forked: a
//! nine-benchmark suite is far below the pool's split threshold, and
//! forking the (configuration, benchmark) cells with a minimum chunk of
//! one measured no faster on the NPB figure campaign, whose campaign
//! workers already keep every core busy, while raising its peak RSS.

use crate::design::CmpDesign;
use crate::explorer::max_frequency;
use immersion_archsim::{ExecStats, System, SystemConfig};
use immersion_npb::{Benchmark, TraceGenerator};
use serde::{Deserialize, Serialize};

/// Instructions simulated per thread for the figure-quality runs.
pub const DEFAULT_OPS_PER_THREAD: u64 = 100_000;

/// The outcome of one (cooling, benchmark) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NpbResult {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Cooling option name.
    pub cooling: String,
    /// Frequency the option sustains, GHz.
    pub freq_ghz: f64,
    /// Simulated execution statistics.
    pub stats: ExecStats,
}

/// All NPB results for one cooling option (or `None` when the option
/// cannot sustain the stack at any VFS step — the paper's missing
/// bars).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoolingRun {
    /// Cooling option name.
    pub cooling: String,
    /// The sustained frequency, if any.
    pub freq_ghz: Option<f64>,
    /// Per-benchmark results (empty when infeasible).
    pub results: Vec<NpbResult>,
}

/// Simulate the nine NPB programs on `design`'s CMP at the maximum
/// frequency its cooling sustains.
pub fn run_npb_suite(design: &CmpDesign, ops_per_thread: u64, seed: u64) -> CoolingRun {
    match max_frequency(design) {
        Some(step) => {
            let stats = simulate_suite(&config(design, step.freq_ghz), ops_per_thread, seed);
            feasible(design, step.freq_ghz, &stats)
        }
        None => infeasible(design),
    }
}

/// [`run_npb_suite`] for every design, simulating each distinct CMP
/// configuration once. Runs come back in `designs` order and equal
/// per-design [`run_npb_suite`] calls field for field.
pub fn run_npb_suites(designs: &[CmpDesign], ops_per_thread: u64, seed: u64) -> Vec<CoolingRun> {
    let freqs: Vec<Option<f64>> = designs
        .iter()
        .map(|d| max_frequency(d).map(|step| step.freq_ghz))
        .collect();
    // Distinct configurations in first-seen order; each feasible design
    // keeps the index of its configuration.
    let mut configs: Vec<SystemConfig> = Vec::new();
    let cells: Vec<Option<(f64, usize)>> = designs
        .iter()
        .zip(freqs)
        .map(|(design, freq)| {
            let f = freq?;
            let cfg = config(design, f);
            let i = configs.iter().position(|c| *c == cfg).unwrap_or_else(|| {
                configs.push(cfg);
                configs.len() - 1
            });
            Some((f, i))
        })
        .collect();
    let suites: Vec<Vec<ExecStats>> = configs
        .iter()
        .map(|cfg| simulate_suite(cfg, ops_per_thread, seed))
        .collect();
    designs
        .iter()
        .zip(cells)
        .map(|(design, cell)| match cell {
            Some((f, i)) => feasible(design, f, &suites[i]),
            None => infeasible(design),
        })
        .collect()
}

/// Simulate the suite at an explicit frequency (used by ablations).
pub fn run_npb_at(
    design: &CmpDesign,
    freq_ghz: f64,
    ops_per_thread: u64,
    seed: u64,
) -> Vec<NpbResult> {
    let stats = simulate_suite(&config(design, freq_ghz), ops_per_thread, seed);
    results(design, freq_ghz, &stats)
}

/// The CMP configuration `design` simulates at `freq_ghz`.
fn config(design: &CmpDesign, freq_ghz: f64) -> SystemConfig {
    SystemConfig::baseline(design.chips, freq_ghz)
}

/// One simulation per benchmark, in [`Benchmark::all`] order: the only
/// place the NPB experiments enter the simulator.
pub fn simulate_suite(cfg: &SystemConfig, ops_per_thread: u64, seed: u64) -> Vec<ExecStats> {
    Benchmark::all()
        .into_iter()
        .map(|bench| {
            let gen = TraceGenerator::new(bench.descriptor(), cfg.threads(), ops_per_thread, seed);
            System::new(*cfg).run(&gen)
        })
        .collect()
}

/// Label a suite's statistics with `design`'s cooling and the frequency.
fn results(design: &CmpDesign, freq_ghz: f64, stats: &[ExecStats]) -> Vec<NpbResult> {
    Benchmark::all()
        .into_iter()
        .zip(stats)
        .map(|(benchmark, stats)| NpbResult {
            benchmark,
            cooling: design.cooling.name.to_string(),
            freq_ghz,
            stats: stats.clone(),
        })
        .collect()
}

fn feasible(design: &CmpDesign, freq_ghz: f64, stats: &[ExecStats]) -> CoolingRun {
    CoolingRun {
        cooling: design.cooling.name.to_string(),
        freq_ghz: Some(freq_ghz),
        results: results(design, freq_ghz, stats),
    }
}

fn infeasible(design: &CmpDesign) -> CoolingRun {
    CoolingRun {
        cooling: design.cooling.name.to_string(),
        freq_ghz: None,
        results: Vec::new(),
    }
}

/// Execution times of `run` relative to `reference` (per benchmark,
/// reference = 1.0; lower is better). `None` when either side is
/// infeasible.
pub fn relative_times(run: &CoolingRun, reference: &CoolingRun) -> Option<Vec<(Benchmark, f64)>> {
    if run.freq_ghz.is_none() || reference.freq_ghz.is_none() {
        return None;
    }
    Some(
        run.results
            .iter()
            .zip(&reference.results)
            .map(|(r, base)| {
                debug_assert_eq!(r.benchmark, base.benchmark);
                (
                    r.benchmark,
                    r.stats.exec_time_secs / base.stats.exec_time_secs,
                )
            })
            .collect(),
    )
}

/// Geometric-mean relative time across the suite (the paper's "up to
/// 14 % on average" is over this kind of aggregate).
pub fn geomean_relative(rel: &[(Benchmark, f64)]) -> f64 {
    let log_sum: f64 = rel.iter().map(|(_, r)| r.ln()).sum();
    (log_sum / rel.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use immersion_power::chips::low_power_cmp;
    use immersion_thermal::stack3d::CoolingParams;

    fn design(cooling: CoolingParams) -> CmpDesign {
        CmpDesign::new(low_power_cmp(), 2, cooling).with_grid(8, 8)
    }

    #[test]
    fn suite_runs_and_orders_correctly() {
        let water = run_npb_suite(&design(CoolingParams::water_immersion()), 5_000, 11);
        assert!(water.freq_ghz.is_some());
        assert_eq!(water.results.len(), 9);
        for r in &water.results {
            assert!(r.stats.exec_time_secs > 0.0);
        }
    }

    #[test]
    fn higher_frequency_never_slows_a_benchmark() {
        let d = design(CoolingParams::water_immersion());
        let slow = run_npb_at(&d, 1.0, 5_000, 11);
        let fast = run_npb_at(&d, 2.0, 5_000, 11);
        for (s, f) in slow.iter().zip(&fast) {
            assert!(
                f.stats.exec_time_secs < s.stats.exec_time_secs,
                "{:?} got slower at 2.0 GHz",
                s.benchmark
            );
        }
    }

    #[test]
    fn ep_gains_most_cg_least_from_frequency() {
        let d = design(CoolingParams::water_immersion());
        let slow = run_npb_at(&d, 1.0, 20_000, 11);
        let fast = run_npb_at(&d, 2.0, 20_000, 11);
        let gain = |b: Benchmark| {
            let s = slow.iter().find(|r| r.benchmark == b).unwrap();
            let f = fast.iter().find(|r| r.benchmark == b).unwrap();
            s.stats.exec_time_secs / f.stats.exec_time_secs
        };
        let ep = gain(Benchmark::Ep);
        let cg = gain(Benchmark::Cg);
        assert!(ep > cg, "EP gain {ep} vs CG gain {cg}");
    }

    #[test]
    fn relative_times_against_self_are_unity() {
        let run = run_npb_suite(&design(CoolingParams::water_immersion()), 5_000, 11);
        let rel = relative_times(&run, &run).unwrap();
        for (b, r) in &rel {
            assert!((r - 1.0).abs() < 1e-12, "{b:?} rel {r}");
        }
        assert!((geomean_relative(&rel) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn suites_simulate_each_config_once_and_match_single_runs() {
        // Figure 11's quick designs (8 low-power chips, 8×8 grid), then
        // a design no frequency can sustain: 12 low-power chips in air.
        let mut designs: Vec<CmpDesign> = [
            CoolingParams::water_pipe(),
            CoolingParams::mineral_oil(),
            CoolingParams::fluorinert(),
            CoolingParams::water_immersion(),
        ]
        .into_iter()
        .map(|c| CmpDesign::new(low_power_cmp(), 8, c).with_grid(8, 8))
        .collect();
        let mut air = design(CoolingParams::air());
        air.chips = 12;
        designs.push(air);

        let suites = run_npb_suites(&designs, 1_000, 42);
        let singles: Vec<CoolingRun> = designs
            .iter()
            .map(|d| run_npb_suite(d, 1_000, 42))
            .collect();
        assert_eq!(suites, singles);

        let mut configs: Vec<SystemConfig> = Vec::new();
        for (d, run) in designs.iter().zip(&suites).take(4) {
            let cfg = config(d, run.freq_ghz.unwrap());
            if !configs.contains(&cfg) {
                configs.push(cfg);
            }
        }
        assert_eq!(configs.len(), 2, "fig11 coolings share frequencies");
        assert_eq!(suites[4].freq_ghz, None);
        assert!(suites[4].results.is_empty());
    }

    #[test]
    fn infeasible_cooling_yields_none() {
        // 12 low-power chips under air: not sustainable.
        let mut d = design(CoolingParams::air());
        d.chips = 12;
        let run = run_npb_suite(&d, 1_000, 11);
        assert!(run.freq_ghz.is_none());
        assert!(run.results.is_empty());
        let water = run_npb_suite(&design(CoolingParams::water_immersion()), 1_000, 11);
        assert!(relative_times(&run, &water).is_none());
    }
}
