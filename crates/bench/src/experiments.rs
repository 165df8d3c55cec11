//! One function per table/figure of the paper.
//!
//! Every function returns one or more [`Table`]s whose rows mirror the
//! corresponding figure's series. EXPERIMENTS.md records the
//! paper-vs-measured comparison these produce.

use immersion_coolant::circuit::PrototypeServer;
use immersion_coolant::flow::FlowSystem;
use immersion_coolant::pue::{annual_cooling_energy_kwh, pue, CoolingArchitecture};
use immersion_coolant::reliability::{
    failure_probability, mean_lifetime, BoardConfig, ComponentType,
};
use immersion_core::design::CmpDesign;
use immersion_core::dtm::{DtmController, PowerPhases};
use immersion_core::explorer::{frequency_vs_chips, max_frequency, solve_at};
use immersion_core::layout::{evaluate_pattern, optimize_annealed, optimize_exhaustive};
use immersion_core::perf::{geomean_relative, relative_times, run_npb_suites, CoolingRun};
use immersion_core::report::{fmt_freq, fmt_ratio, Table};
use immersion_power::chips::{
    all_chips, high_frequency_cmp, low_power_cmp, rapl_anchors, xeon_e5_2667v4, xeon_phi_7290,
    ChipModel,
};
use immersion_power::mcpat::{area_report, relative_power_curve};
use immersion_power::scaling::{irds_trajectory, project};
use immersion_thermal::stack3d::{CoolingParams, PackageParams};
use immersion_units::{Celsius, HeatTransferCoeff};
use serde::{Deserialize, Serialize};

/// Fidelity knobs: `full()` reproduces figure-quality settings,
/// `quick()` is for smoke tests and CI.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Quality {
    /// Die thermal-grid resolution.
    pub grid: (usize, usize),
    /// Simulated instructions per thread for NPB runs.
    pub ops_per_thread: u64,
    /// Monte-Carlo trials for reliability studies.
    pub trials: usize,
}

impl Quality {
    /// Figure-quality settings.
    pub fn full() -> Quality {
        Quality {
            grid: (16, 16),
            ops_per_thread: 100_000,
            trials: 20_000,
        }
    }

    /// Fast settings for smoke tests.
    pub fn quick() -> Quality {
        Quality {
            grid: (8, 8),
            ops_per_thread: 4_000,
            trials: 2_000,
        }
    }
}

fn design(chip: ChipModel, chips: usize, cooling: CoolingParams, q: Quality) -> CmpDesign {
    CmpDesign::new(chip, chips, cooling).with_grid(q.grid.0, q.grid.1)
}

// ----------------------------------------------------------------------------
// Tables
// ----------------------------------------------------------------------------

/// Table 1: the baseline 2-D CMP specification.
pub fn table1(_q: Quality) -> Vec<Table> {
    let lp = low_power_cmp();
    let hf = high_frequency_cmp();
    let cfg = immersion_archsim::SystemConfig::baseline(1, 2.0);
    let mut t = Table::new("Table 1: baseline 2-D CMP", &["field", "value"]);
    let mut row = |k: &str, v: String| {
        t.row(vec![k.to_string(), v]);
    };
    row("processor family", "x86-64".into());
    row("number of cores", format!("{}", lp.cores));
    row(
        "L1 I/D cache size",
        format!("32/{} KiB (line:{}B)", cfg.l1d_kib, cfg.line_bytes),
    );
    row("L1 cache latency", format!("{} cycle", cfg.l1_latency));
    row(
        "L2 cache size",
        format!("{} MiB (assoc:{})", cfg.l2_total_kib() / 1024, cfg.l2_assoc),
    );
    row("L2 cache latency", format!("{} cycles", cfg.l2_latency));
    row(
        "memory latency",
        format!(
            "{} cycles @ 2.0 GHz ({} ns)",
            cfg.dram_cycles(),
            cfg.dram_ns
        ),
    );
    let area: f64 = area_report(&lp).values().sum();
    row("area", format!("{:.0} mm2", area * 1e6));
    row(
        "max power (low-power)",
        format!(
            "{} W @ {} GHz",
            lp.max_power_watts,
            lp.vfs.max_step().freq_ghz
        ),
    );
    row(
        "max power (high-frequency)",
        format!(
            "{} W @ {} GHz",
            hf.max_power_watts,
            hf.vfs.max_step().freq_ghz
        ),
    );
    row("router pipeline", "[RC][VSA][ST/LT]".into());
    row(
        "buffer size",
        format!("{} flits per VC", cfg.vc_buffer_flits),
    );
    row("protocol", "MOESI directory".into());
    row("# of VCs", "3 (one per message class)".into());
    row(
        "on-chip topology",
        format!("{}x{} mesh", cfg.mesh_x, cfg.mesh_y),
    );
    row(
        "control / data packet size",
        format!("{} flit / {} flits", cfg.ctrl_flits, cfg.data_flits),
    );
    vec![t]
}

/// Table 2: the HotSpot-style simulation parameters.
pub fn table2(_q: Quality) -> Vec<Table> {
    let p = PackageParams::default();
    let mut t = Table::new(
        "Table 2: thermal simulation parameters",
        &["field", "value"],
    );
    let mut row = |k: &str, v: String| {
        t.row(vec![k.to_string(), v]);
    };
    row(
        "heatsink",
        format!(
            "{:.0}x{:.0}x{:.0} cm, 400 W/mK, {} m2 fin area",
            p.sink_side_m * 100.0,
            p.sink_side_m * 100.0,
            p.sink_thickness_m * 100.0,
            p.sink_fin_area_m2
        ),
    );
    row(
        "heat spreader",
        format!(
            "{:.0}x{:.0}x{:.1} cm, 400 W/mK",
            p.spreader_side_m * 100.0,
            p.spreader_side_m * 100.0,
            p.spreader_thickness_m * 100.0
        ),
    );
    row("parylene film", "120 um, 0.14 W/mK".into());
    row(
        "inter-die bond",
        format!(
            "{:.0} um glue (0.25 W/mK) + {:.1}% TSV/TCI metal",
            p.bond_thickness_m * 1e6,
            p.bond_metal_fraction * 100.0
        ),
    );
    row(
        "TIM",
        format!(
            "{:.0} um, 4.0 W/mK (HotSpot default; see DESIGN.md)",
            p.tim_thickness_m * 1e6
        ),
    );
    row("outside temp", "25 C".into());
    row(
        "h (air/oil/fluorinert/water)",
        "14 / 160 / 180 / 800 W/(m2K)".into(),
    );
    vec![t]
}

// ----------------------------------------------------------------------------
// Frequency-vs-chips figures (1, 7, 8, 17)
// ----------------------------------------------------------------------------

fn freq_vs_chips_table(
    title: &str,
    chip: ChipModel,
    max_chips: usize,
    coolings: &[CoolingParams],
    q: Quality,
) -> Table {
    let mut headers: Vec<String> = vec!["cooling".into()];
    headers.extend((1..=max_chips).map(|n| format!("{n}")));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(title, &headers_ref);
    for &cooling in coolings {
        let d = design(chip.clone(), 1, cooling, q);
        let series = frequency_vs_chips(&d, max_chips);
        let mut cells = vec![cooling.name.to_string()];
        cells.extend(series.iter().map(|(_, s)| fmt_freq(s.map(|x| x.freq_ghz))));
        t.row(cells);
    }
    t
}

/// Figure 1: max frequency vs stacked Xeon E5 chips (air / oil / water).
pub fn fig1(q: Quality) -> Vec<Table> {
    vec![freq_vs_chips_table(
        "Figure 1: max frequency vs stacked Xeon E5-2667v4 chips (GHz, 78 C)",
        xeon_e5_2667v4(),
        4,
        &[
            CoolingParams::air(),
            CoolingParams::mineral_oil(),
            CoolingParams::water_immersion(),
        ],
        q,
    )]
}

/// Figure 7: low-power CMP, five cooling options, 1–15 chips.
pub fn fig7(q: Quality) -> Vec<Table> {
    vec![freq_vs_chips_table(
        "Figure 7: max frequency vs chips, low-power CMP (GHz, 80 C)",
        low_power_cmp(),
        15,
        &CoolingParams::paper_options(),
        q,
    )]
}

/// Figure 8: high-frequency CMP, five cooling options, 1–15 chips.
pub fn fig8(q: Quality) -> Vec<Table> {
    vec![freq_vs_chips_table(
        "Figure 8: max frequency vs chips, high-frequency CMP (GHz, 80 C)",
        high_frequency_cmp(),
        15,
        &CoolingParams::paper_options(),
        q,
    )]
}

/// Figure 17: Xeon Phi 7290, five cooling options, 1–4 chips.
pub fn fig17(q: Quality) -> Vec<Table> {
    vec![freq_vs_chips_table(
        "Figure 17: max frequency vs stacked Xeon Phi 7290 chips (GHz, 80 C)",
        xeon_phi_7290(),
        4,
        &CoolingParams::paper_options(),
        q,
    )]
}

// ----------------------------------------------------------------------------
// Prototype and power curves (Figures 4, 6)
// ----------------------------------------------------------------------------

/// Figure 4: prototype chip temperature per cooling option.
pub fn fig4(_q: Quality) -> Vec<Table> {
    let proto = PrototypeServer::default();
    let (air, sink, full) = proto.figure4();
    let mut t = Table::new(
        "Figure 4: PRIMERGY TX1320 M2 chip temperature (C)",
        &["cooling option", "model", "paper"],
    );
    t.row(vec!["air".into(), format!("{air:.1}"), "76".into()]);
    t.row(vec![
        "heatsink in water".into(),
        format!("{sink:.1}"),
        "71".into(),
    ]);
    t.row(vec![
        "full immersion".into(),
        format!("{full:.1}"),
        "56".into(),
    ]);
    vec![t]
}

/// Figure 6: relative power vs frequency for the four chip models,
/// with the (synthetic) RAPL anchor points for the real chips.
pub fn fig6(_q: Quality) -> Vec<Table> {
    let mut tables = Vec::new();
    for chip in all_chips() {
        let curve = relative_power_curve(&chip);
        let mut t = Table::new(
            &format!("Figure 6: relative power vs frequency — {}", chip.name),
            &["freq (GHz)", "P/Pmax (model)", "P/Pmax (RAPL anchor)"],
        );
        let anchors = rapl_anchors(chip.name).unwrap_or_default();
        for (f, p) in curve {
            let anchor = anchors
                .iter()
                .find(|(af, _)| (af - f).abs() < 1e-9)
                .map(|&(_, ap)| ap);
            t.row(vec![
                format!("{f:.1}"),
                format!("{p:.3}"),
                fmt_ratio(anchor),
            ]);
        }
        tables.push(t);
    }
    tables
}

// ----------------------------------------------------------------------------
// Thermal maps (Figures 9, 16, 18)
// ----------------------------------------------------------------------------

fn thermal_map_tables(
    title: &str,
    chip: ChipModel,
    chips: usize,
    freq_ghz: f64,
    cooling: CoolingParams,
    flip: bool,
    q: Quality,
) -> Vec<Table> {
    let d = design(chip.clone(), chips, cooling, q).with_flip(flip);
    let model = d.thermal_model().expect("model builds");
    let step = chip
        .vfs
        .step_at_or_below(freq_ghz)
        .expect("frequency within VFS range");
    let sol = solve_at(&d, &model, step, None).expect("steady solve");
    let mut out = Vec::new();
    let mut summary = Table::new(
        &format!("{title} — per-layer summary"),
        &["layer", "min (C)", "max (C)", "CORE1 max", "L2 max"],
    );
    for die in 0..chips {
        let map = sol.die_map(die).expect("die map");
        let core_max = sol.block_max(die, "CORE1").or(sol.block_max(die, "TILE1"));
        let l2_max = sol.block_max(die, "L2_6").or(sol.block_max(die, "TILE18"));
        summary.row(vec![
            format!(
                "die {} ({})",
                die + 1,
                if die == 0 {
                    "bottom"
                } else if die == chips - 1 {
                    "top"
                } else {
                    "mid"
                }
            ),
            format!("{:.1}", map.min()),
            format!("{:.1}", map.max()),
            core_max.map(|v| format!("{v:.1}")).unwrap_or("-".into()),
            l2_max.map(|v| format!("{v:.1}")).unwrap_or("-".into()),
        ]);
    }
    out.push(summary);
    // ASCII art of the bottom and top dies (the figures' layer 1 and 4).
    for (label, die) in [("bottom", 0usize), ("top", chips - 1)] {
        let map = sol.die_map(die).expect("die map");
        let mut t = Table::new(
            &format!(
                "{title} — {label} die map ({:.1}..{:.1} C)",
                map.min(),
                map.max()
            ),
            &["ascii"],
        );
        for line in map.ascii().lines() {
            t.row(vec![line.to_string()]);
        }
        out.push(t);
    }
    out
}

/// Figure 9: thermal map, 4-chip high-frequency CMP at 3.6 GHz, water.
pub fn fig9(q: Quality) -> Vec<Table> {
    thermal_map_tables(
        "Figure 9: 4-chip high-frequency CMP @ 3.6 GHz, water",
        high_frequency_cmp(),
        4,
        3.6,
        CoolingParams::water_immersion(),
        false,
        q,
    )
}

/// Figure 16: the same with the §4.2 flip layout.
pub fn fig16(q: Quality) -> Vec<Table> {
    thermal_map_tables(
        "Figure 16: 4-chip high-frequency CMP @ 3.6 GHz, water, flip",
        high_frequency_cmp(),
        4,
        3.6,
        CoolingParams::water_immersion(),
        true,
        q,
    )
}

/// Figure 18: 4-chip Xeon Phi 7290 at 1.2 GHz, water.
pub fn fig18(q: Quality) -> Vec<Table> {
    thermal_map_tables(
        "Figure 18: 4-chip Xeon Phi 7290 @ 1.2 GHz, water",
        xeon_phi_7290(),
        4,
        1.2,
        CoolingParams::water_immersion(),
        false,
        q,
    )
}

// ----------------------------------------------------------------------------
// NPB execution times (Figures 10–13)
// ----------------------------------------------------------------------------

fn npb_figure(
    title: &str,
    chip: ChipModel,
    chips: usize,
    reference_name: &str,
    q: Quality,
) -> Vec<Table> {
    let coolings = [
        CoolingParams::water_pipe(),
        CoolingParams::mineral_oil(),
        CoolingParams::fluorinert(),
        CoolingParams::water_immersion(),
    ];
    let designs: Vec<CmpDesign> = coolings
        .iter()
        .map(|&c| design(chip.clone(), chips, c, q))
        .collect();
    let runs: Vec<CoolingRun> = run_npb_suites(&designs, q.ops_per_thread, 42);
    // Pick the requested reference; fall back to mineral oil when it is
    // infeasible (the paper does the same for Figure 11).
    let reference = runs
        .iter()
        .find(|r| r.cooling == reference_name && r.freq_ghz.is_some())
        .or_else(|| {
            runs.iter()
                .find(|r| r.cooling == "mineral-oil" && r.freq_ghz.is_some())
        })
        .expect("a reference cooling must be feasible")
        .clone();

    let mut t = Table::new(
        &format!(
            "{title} (relative to {}, lower is better)",
            reference.cooling
        ),
        &[
            "cooling", "freq", "BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP", "UA", "geomean",
        ],
    );
    for run in &runs {
        let mut cells = vec![run.cooling.clone(), fmt_freq(run.freq_ghz)];
        match relative_times(run, &reference) {
            Some(rel) => {
                for (_, r) in &rel {
                    cells.push(format!("{r:.3}"));
                }
                cells.push(format!("{:.3}", geomean_relative(&rel)));
            }
            None => cells.extend(std::iter::repeat_n("-".to_string(), 10)),
        }
        t.row(cells);
    }
    vec![t]
}

/// Figure 10: 6-chip low-power CMP, relative to water-pipe (24 threads).
pub fn fig10(q: Quality) -> Vec<Table> {
    npb_figure(
        "Figure 10: NPB times, 6-chip low-power CMP",
        low_power_cmp(),
        6,
        "water-pipe",
        q,
    )
}

/// Figure 11: 8-chip low-power CMP, relative to mineral oil (32
/// threads; the water pipe cannot sustain this stack).
pub fn fig11(q: Quality) -> Vec<Table> {
    npb_figure(
        "Figure 11: NPB times, 8-chip low-power CMP",
        low_power_cmp(),
        8,
        "mineral-oil",
        q,
    )
}

/// Figure 12: 6-chip high-frequency CMP, relative to water-pipe.
pub fn fig12(q: Quality) -> Vec<Table> {
    npb_figure(
        "Figure 12: NPB times, 6-chip high-frequency CMP",
        high_frequency_cmp(),
        6,
        "water-pipe",
        q,
    )
}

/// Figure 13: 8-chip high-frequency CMP, relative to water-pipe.
pub fn fig13(q: Quality) -> Vec<Table> {
    npb_figure(
        "Figure 13: NPB times, 8-chip high-frequency CMP",
        high_frequency_cmp(),
        8,
        "water-pipe",
        q,
    )
}

// ----------------------------------------------------------------------------
// Heat-transfer sweep and flip study (Figures 14, 15)
// ----------------------------------------------------------------------------

/// Figure 14: peak temperature vs heat-transfer coefficient for 4-chip
/// stacks of all four chip models at their maximum frequency.
pub fn fig14(q: Quality) -> Vec<Table> {
    let hs = [
        10.0, 14.0, 25.0, 50.0, 100.0, 160.0, 180.0, 400.0, 800.0, 1600.0, 3200.0, 5000.0,
    ];
    let mut headers: Vec<String> = vec!["h (W/m2K)".into()];
    headers.extend(all_chips().iter().map(|c| c.name.to_string()));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Figure 14: peak temperature (C) vs heat transfer coefficient, 4 chips @ fmax",
        &headers_ref,
    );
    for &h in &hs {
        let mut cells = vec![format!("{h:.0}")];
        for chip in all_chips() {
            let step = chip.vfs.max_step();
            let d = design(
                chip.clone(),
                4,
                CoolingParams::custom_immersion("sweep", HeatTransferCoeff::new(h)),
                q,
            );
            let model = d.thermal_model().expect("model builds");
            let temp = solve_at(&d, &model, step, None).expect("solve").die_max();
            cells.push(format!("{temp:.1}"));
        }
        t.row(cells);
    }
    vec![t]
}

/// Figure 15: temperature vs frequency with and without the flip, for
/// air and water on the 4-chip high-frequency CMP.
pub fn fig15(q: Quality) -> Vec<Table> {
    let chip = high_frequency_cmp();
    let mut t = Table::new(
        "Figure 15: peak temperature (C) vs frequency, 4-chip high-frequency CMP",
        &["freq (GHz)", "air", "air flip", "water", "water flip"],
    );
    let configs = [
        (CoolingParams::air(), false),
        (CoolingParams::air(), true),
        (CoolingParams::water_immersion(), false),
        (CoolingParams::water_immersion(), true),
    ];
    let models: Vec<_> = configs
        .iter()
        .map(|&(c, flip)| {
            let d = design(chip.clone(), 4, c, q).with_flip(flip);
            let m = d.thermal_model().expect("model builds");
            (d, m)
        })
        .collect();
    for &step in chip.vfs.steps() {
        let mut cells = vec![format!("{:.1}", step.freq_ghz)];
        for (d, m) in &models {
            let temp = solve_at(d, m, step, None).expect("solve").die_max();
            cells.push(format!("{temp:.1}"));
        }
        t.row(cells);
    }
    // Max sustainable frequencies under the 80 C threshold.
    let mut f = Table::new(
        "Figure 15 (derived): max frequency under 80 C",
        &["config", "max freq (GHz)"],
    );
    for ((c, flip), _) in configs.iter().zip(&models) {
        let d = design(chip.clone(), 4, *c, q).with_flip(*flip);
        f.row(vec![
            format!("{}{}", c.name, if *flip { " flip" } else { "" }),
            fmt_freq(max_frequency(&d).map(|s| s.freq_ghz)),
        ]);
    }
    vec![t, f]
}

// ----------------------------------------------------------------------------
// Reliability and PUE (§2.2–2.3, §4.4)
// ----------------------------------------------------------------------------

/// §2.2 test-board lifetime study.
pub fn lifetime(q: Quality) -> Vec<Table> {
    let mut t = Table::new(
        "Test-board component failures within 2 years underwater (120 um film)",
        &["component", "P(fail)", "paper (of 5 boards)"],
    );
    let cfg = BoardConfig::test_board(120.0);
    let paper: &[(&str, ComponentType, &str)] = &[
        ("USB", ComponentType::Usb, "0/5"),
        ("RJ45", ComponentType::Rj45, "1/5"),
        ("mPCIe", ComponentType::MPcie, "1/5"),
        ("PCIex4", ComponentType::PciEx4, "5/5"),
        ("CR2032", ComponentType::Cr2032, "5/5 (discharged)"),
        ("PGA", ComponentType::Pga, "0/5"),
        ("mega-AVR", ComponentType::MegaAvr, "0/5"),
    ];
    for &(name, kind, obs) in paper {
        let p = failure_probability(&cfg, kind, 2.0, q.trials, 7);
        t.row(vec![name.into(), format!("{p:.2}"), obs.into()]);
    }

    let mut f = Table::new(
        "Board lifetime vs film thickness and configuration (years, 10-y horizon)",
        &["configuration", "mean lifetime"],
    );
    for (label, cfg) in [
        ("test board, 50 um film", BoardConfig::test_board(50.0)),
        ("test board, 120 um film", BoardConfig::test_board(120.0)),
        ("test board, 150 um film", BoardConfig::test_board(150.0)),
        ("server, all submerged", BoardConfig::server_naive(120.0)),
        (
            "server, recommended placement",
            BoardConfig::server_recommended(120.0),
        ),
    ] {
        let life = mean_lifetime(&cfg, 10.0, q.trials, 13);
        f.row(vec![label.into(), format!("{life:.2}")]);
    }
    vec![t, f]
}

/// §4.4 PUE analysis.
pub fn pue_study(_q: Quality) -> Vec<Table> {
    let mut t = Table::new(
        "PUE by cooling architecture (1 MW IT load)",
        &["architecture", "PUE", "annual cooling energy (MWh)"],
    );
    for arch in CoolingArchitecture::all() {
        t.row(vec![
            arch.name.into(),
            format!("{:.3}", pue(&arch)),
            format!("{:.0}", annual_cooling_energy_kwh(&arch, 1000.0) / 1000.0),
        ]);
    }
    vec![t]
}

// ----------------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md)
// ----------------------------------------------------------------------------

/// Ablation: film thickness, TSV fraction, secondary path, leakage
/// feedback — all on the 6-chip high-frequency water design.
pub fn ablations(q: Quality) -> Vec<Table> {
    let chip = high_frequency_cmp();
    let mut t = Table::new(
        "Ablations: max frequency (GHz) of the 6-chip high-frequency CMP under water",
        &["variant", "max freq"],
    );
    let base = design(chip.clone(), 6, CoolingParams::water_immersion(), q);
    t.row(vec![
        "baseline".into(),
        fmt_freq(max_frequency(&base).map(|s| s.freq_ghz)),
    ]);

    // Film thickness sweep (50/120/150 um, plus none).
    for (label, film) in [
        ("film 50 um", Some(50e-6)),
        ("film 150 um", Some(150e-6)),
        ("no film (hypothetical)", None),
    ] {
        let mut cooling = CoolingParams::water_immersion();
        cooling.film_thickness_m = film;
        let d = design(chip.clone(), 6, cooling, q);
        t.row(vec![
            label.into(),
            fmt_freq(max_frequency(&d).map(|s| s.freq_ghz)),
        ]);
    }

    // TSV/TCI metal fraction.
    for (label, frac) in [("bond metal 0%", 0.0), ("bond metal 5%", 0.05)] {
        let p = PackageParams {
            bond_metal_fraction: frac,
            ..PackageParams::default()
        };
        let d = design(chip.clone(), 6, CoolingParams::water_immersion(), q).with_package(p);
        t.row(vec![
            label.into(),
            fmt_freq(max_frequency(&d).map(|s| s.freq_ghz)),
        ]);
    }

    // Secondary path off: board in air while the sink is in water.
    {
        let mut cooling = CoolingParams::water_immersion();
        cooling.board_h = immersion_thermal::stack3d::htc::AIR;
        let d = design(chip.clone(), 6, cooling, q);
        t.row(vec![
            "secondary path off (board in air)".into(),
            fmt_freq(max_frequency(&d).map(|s| s.freq_ghz)),
        ]);
    }

    // Leakage-temperature feedback.
    {
        let d = design(chip.clone(), 6, CoolingParams::water_immersion(), q)
            .with_leakage_feedback(true);
        t.row(vec![
            "leakage-temperature feedback".into(),
            fmt_freq(max_frequency(&d).map(|s| s.freq_ghz)),
        ]);
    }
    vec![t]
}

/// Grid-resolution convergence of the thermal solver.
pub fn grid_convergence(_q: Quality) -> Vec<Table> {
    let chip = high_frequency_cmp();
    let step = chip.vfs.max_step();
    let mut t = Table::new(
        "Thermal grid convergence: 4-chip high-frequency @ 3.6 GHz, water",
        &["die grid", "peak temp (C)"],
    );
    for n in [4usize, 8, 12, 16, 24, 32] {
        let d = CmpDesign::new(chip.clone(), 4, CoolingParams::water_immersion()).with_grid(n, n);
        let model = d.thermal_model().expect("model builds");
        let temp = solve_at(&d, &model, step, None).expect("solve").die_max();
        t.row(vec![format!("{n}x{n}"), format!("{temp:.2}")]);
    }
    vec![t]
}

// ----------------------------------------------------------------------------
// Extensions: DTM, layout optimization, flow engineering, IRDS scaling
// ----------------------------------------------------------------------------

/// Extension (§5.2): dynamic thermal management under each cooling
/// option — settled DVFS frequency and throttling residency.
pub fn dtm_study(q: Quality) -> Vec<Table> {
    let chip = high_frequency_cmp();
    let ctrl = DtmController::new(chip.temp_threshold_c, 4.0);
    let mut t = Table::new(
        "DTM on the 4-chip high-frequency CMP (80 C trip, worst-case load)",
        &[
            "cooling",
            "settled freq (GHz)",
            "peak temp (C)",
            "throttled %",
        ],
    );
    for cooling in [
        CoolingParams::air(),
        CoolingParams::water_pipe(),
        CoolingParams::mineral_oil(),
        CoolingParams::water_immersion(),
    ] {
        let d = design(chip.clone(), 4, cooling, q);
        let out = immersion_core::dtm::simulate(&d, PowerPhases::worst_case(), ctrl, 700.0, 2.0)
            .expect("dtm run");
        let half = out.freq_trace.len() / 2;
        let settled: f64 =
            out.freq_trace[half..].iter().sum::<f64>() / (out.freq_trace.len() - half) as f64;
        t.row(vec![
            cooling.name.into(),
            format!("{settled:.2}"),
            format!("{:.1}", out.peak_temp),
            format!("{:.0}", out.throttled_fraction * 100.0),
        ]);
    }
    vec![t]
}

/// Extension (conclusion, future work 1): thermal-aware rotation-
/// pattern optimization vs the paper's hand-picked flip.
pub fn layout_study(q: Quality) -> Vec<Table> {
    let chip = high_frequency_cmp();
    let step = chip.vfs.max_step();
    let mut t = Table::new(
        "Layout optimization: peak temp (C) of the 4-chip high-frequency CMP @ 3.6 GHz, water",
        &["layout", "pattern", "peak temp (C)"],
    );
    let d = design(chip.clone(), 4, CoolingParams::water_immersion(), q);
    let fmt_pat = |p: &[bool]| {
        p.iter()
            .map(|&r| if r { 'R' } else { '.' })
            .collect::<String>()
    };
    let plain = vec![false; 4];
    let flip = vec![false, true, false, true];
    t.row(vec![
        "no rotation".into(),
        fmt_pat(&plain),
        format!("{:.1}", evaluate_pattern(&d, step, &plain).expect("eval")),
    ]);
    t.row(vec![
        "paper flip".into(),
        fmt_pat(&flip),
        format!("{:.1}", evaluate_pattern(&d, step, &flip).expect("eval")),
    ]);
    let best = optimize_exhaustive(&d, step).expect("search");
    t.row(vec![
        format!("exhaustive optimum ({} evals)", best.evaluations),
        fmt_pat(&best.rotations),
        format!("{:.1}", best.peak_temp),
    ]);

    // A taller stack where exhaustive search is impractical.
    let d8 = design(chip.clone(), 8, CoolingParams::water_immersion(), q);
    let step8 = chip.vfs.step_at_or_below(2.0).expect("2.0 GHz step");
    let flip8: Vec<bool> = (0..8).map(|i| i % 2 == 1).collect();
    t.row(vec![
        "8-chip paper flip @ 2.0 GHz".into(),
        fmt_pat(&flip8),
        format!("{:.1}", evaluate_pattern(&d8, step8, &flip8).expect("eval")),
    ]);
    let annealed = optimize_annealed(&d8, step8, 60, 7).expect("anneal");
    t.row(vec![
        format!("8-chip annealed ({} evals)", annealed.evaluations),
        fmt_pat(&annealed.rotations),
        format!("{:.1}", annealed.peak_temp),
    ]);
    vec![t]
}

/// Extension (§4.1): the pump-power/heat-transfer trade-off for a
/// water tank cooling an 8-chip high-frequency stack (tall enough
/// that h genuinely limits the sustained power).
pub fn flow_study(q: Quality) -> Vec<Table> {
    let chip = high_frequency_cmp();
    // Benefit of h: the total chip power the stack sustains under the
    // threshold at that heat-transfer coefficient.
    let benefit = |h: f64| {
        let d = design(
            chip.clone(),
            8,
            CoolingParams::custom_immersion("flow", HeatTransferCoeff::new(h)),
            q,
        );
        match max_frequency(&d) {
            Some(step) => 8.0 * immersion_power::mcpat::analyze(&chip, step, None).total(),
            None => 0.0,
        }
    };
    let sys = FlowSystem::water_tank();
    let mut t = Table::new(
        "Flow engineering: net sustained power vs pump speed (8-chip HF stack)",
        &[
            "v (m/s)",
            "h (W/m2K)",
            "pump (W)",
            "sustained (W)",
            "net (W)",
        ],
    );
    for v in [0.05, 0.1, 0.2, 0.4, 0.8, 1.6] {
        let h = sys.h_at(v).raw();
        let pump = sys.pump_power_at(v);
        let sustained = benefit(h);
        t.row(vec![
            format!("{v:.2}"),
            format!("{h:.0}"),
            format!("{pump:.0}"),
            format!("{sustained:.1}"),
            format!("{:.1}", sustained - pump),
        ]);
    }
    let opt = sys.optimal_flow(0.05, 1.6, benefit);
    let mut o = Table::new(
        "Optimal operating point",
        &["v (m/s)", "h", "pump (W)", "net (W)"],
    );
    o.row(vec![
        format!("{:.2}", opt.v_m_per_s),
        format!("{:.0}", opt.h.raw()),
        format!("{:.0}", opt.pump_power_w),
        format!("{:.1}", opt.net_benefit_w),
    ]);
    vec![t, o]
}

/// Extension (§1): project the high-frequency CMP along the IRDS
/// trajectory (425 W by 2033) and ask which cooling options still hold
/// a 4-chip stack.
pub fn irds_study(q: Quality) -> Vec<Table> {
    let base = high_frequency_cmp();
    let mut t = Table::new(
        "IRDS power scaling: max frequency (GHz) of a 4-chip stack by year",
        &[
            "year",
            "chip W @ fmax",
            "air",
            "water-pipe",
            "mineral-oil",
            "water",
        ],
    );
    for node in irds_trajectory() {
        let chip = project(&base, &node);
        let mut cells = vec![
            node.name.to_string(),
            format!("{:.0}", chip.max_power_watts),
        ];
        for cooling in [
            CoolingParams::air(),
            CoolingParams::water_pipe(),
            CoolingParams::mineral_oil(),
            CoolingParams::water_immersion(),
        ] {
            let d = design(chip.clone(), 4, cooling, q);
            cells.push(fmt_freq(max_frequency(&d).map(|s| s.freq_ghz)));
        }
        t.row(cells);
    }
    vec![t]
}

/// Extension (§5.1 comparison): interlayer microchannel cooling vs
/// plain immersion — frequency vs stack height.
pub fn microchannel_study(q: Quality) -> Vec<Table> {
    use immersion_thermal::stack3d::MicrochannelParams;
    let chip = high_frequency_cmp();
    let mut headers: Vec<String> = vec!["cooling".into()];
    headers.extend((1..=12).map(|n| format!("{n}")));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Microchannels vs immersion: max frequency (GHz) vs chips, high-frequency CMP",
        &headers_ref,
    );
    for (label, mc) in [
        ("water immersion", None),
        (
            "immersion + microchannels",
            Some(MicrochannelParams::default()),
        ),
    ] {
        let mut cells = vec![label.to_string()];
        for n in 1..=12 {
            let mut d = design(chip.clone(), n, CoolingParams::water_immersion(), q);
            if let Some(m) = mc {
                d = d.with_microchannels(m);
            }
            cells.push(fmt_freq(max_frequency(&d).map(|s| s.freq_ghz)));
        }
        t.row(cells);
    }
    vec![t]
}

/// Extension (future work #2): dense node packing — IT density per
/// square metre of floor for each cooling style.
pub fn density_study(_q: Quality) -> Vec<Table> {
    use immersion_coolant::datacenter::PackingModel;
    let mut t = Table::new(
        "Node packing density (0.5 m boards)",
        &[
            "style",
            "boards/m2",
            "IT kW/m2 @ 250 W",
            "IT kW/m2 @ 1 kW",
            "facility kW/m2 @ 1 kW",
        ],
    );
    for m in PackingModel::all() {
        t.row(vec![
            m.name.into(),
            format!("{:.1}", m.boards_per_m2(0.5)),
            format!("{:.1}", m.it_density_w_per_m2(250.0, 0.5) / 1000.0),
            format!("{:.1}", m.it_density_w_per_m2(1000.0, 0.5) / 1000.0),
            format!("{:.1}", m.facility_density_w_per_m2(1000.0, 0.5) / 1000.0),
        ]);
    }
    vec![t]
}

/// Extension (§5.1-cited literature): thermal-TSV placement — uniform
/// bond fill vs the same metal clustered under the hot cores.
pub fn tsv_study(q: Quality) -> Vec<Table> {
    use immersion_thermal::stack3d::{StackBuilder, TsvPlacement};
    let chip = high_frequency_cmp();
    let step = chip.vfs.max_step();
    let report = immersion_power::mcpat::analyze(&chip, step, None);
    let mut t = Table::new(
        "Thermal-TSV placement: 4-chip high-frequency CMP @ 3.6 GHz, water (2% avg metal)",
        &["placement", "peak temp (C)"],
    );
    for (label, placement) in [
        ("uniform 2%", TsvPlacement::Uniform),
        (
            "8% under cores, 0% elsewhere",
            TsvPlacement::UnderBlocks {
                blocks: (1..=4).map(|i| format!("CORE{i}")).collect(),
                fraction_under: 0.08,
                fraction_elsewhere: 0.0,
            },
        ),
        (
            "8% under L2 (anti-optimal)",
            TsvPlacement::UnderBlocks {
                blocks: (1..=12).map(|i| format!("L2_{i}")).collect(),
                fraction_under: 0.0267,
                fraction_elsewhere: 0.0,
            },
        ),
    ] {
        let model = StackBuilder::new(chip.floorplan.clone())
            .chips(4)
            .grid(q.grid.0, q.grid.1)
            .cooling(CoolingParams::water_immersion())
            .tsv_placement(placement)
            .build()
            .expect("model builds");
        let mut p = model.zero_power();
        for die in 0..4 {
            for (b, &w) in &report.per_block {
                p.set(die, b, w).expect("block");
            }
        }
        let peak = model.solve_steady(&p).expect("solve").die_max();
        t.row(vec![label.into(), format!("{peak:.1}")]);
    }
    vec![t]
}

/// Capstone: a river-deployed farm of film-coated 4-chip nodes — the
/// §4.4 vision end to end (thermal + reliability + facility models).
pub fn riverfarm_study(q: Quality) -> Vec<Table> {
    use immersion_coolant::datacenter::PackingModel;
    use immersion_coolant::reliability::{mean_lifetime, temperature_acceleration, BoardConfig};
    let chip = high_frequency_cmp();
    let mut t = Table::new(
        "River farm: 4-chip nodes in natural water vs a conventional hall",
        &["metric", "river farm", "air hall"],
    );
    // Thermal: sustained frequency of each node.
    let mut river_cooling = CoolingParams::water_immersion();
    river_cooling.ambient = Celsius::new(18.0); // river water arrives pre-cooled
    let river = design(chip.clone(), 4, river_cooling, q);
    let hall = design(chip.clone(), 4, CoolingParams::air(), q);
    let f_river = max_frequency(&river).map(|s| s.freq_ghz);
    let f_hall = max_frequency(&hall).map(|s| s.freq_ghz);
    t.row(vec![
        "sustained frequency (GHz)".into(),
        fmt_freq(f_river),
        fmt_freq(f_hall),
    ]);
    // Node power at the sustained step.
    let node_w = |f: Option<f64>| {
        f.and_then(|f| chip.vfs.step_at_or_below(f))
            .map(|s| 4.0 * immersion_power::mcpat::analyze(&chip, s, None).total())
            .unwrap_or(0.0)
    };
    let (w_river, w_hall) = (node_w(f_river), node_w(f_hall));
    t.row(vec![
        "node power (W)".into(),
        format!("{w_river:.0}"),
        format!("{w_hall:.0}"),
    ]);
    // Facility: density and PUE.
    let frame = PackingModel::natural_water_frame();
    let hall_pack = PackingModel::air_hall();
    t.row(vec![
        "IT density (kW/m2)".into(),
        format!(
            "{:.1}",
            frame.it_density_w_per_m2(w_river.max(1.0), 0.5) / 1000.0
        ),
        format!(
            "{:.1}",
            hall_pack.it_density_w_per_m2(w_hall.max(1.0), 0.5) / 1000.0
        ),
    ]);
    t.row(vec![
        "PUE".into(),
        format!("{:.3}", immersion_coolant::pue::pue(&frame.architecture)),
        format!(
            "{:.3}",
            immersion_coolant::pue::pue(&hall_pack.architecture)
        ),
    ]);
    // Reliability: node lifetime in 18 C river water vs dry hall.
    let board = BoardConfig::server_recommended(150.0);
    let temp_factor = temperature_acceleration(18.0);
    let life_river = mean_lifetime(&board, 10.0, q.trials, 21) / temp_factor.max(1e-9);
    t.row(vec![
        "mean node lifetime (years)".into(),
        format!("{:.1}", life_river.min(10.0)),
        "8.0 (DIMM-limited)".into(),
    ]);
    vec![t]
}

/// Extension: stride-prefetcher ablation on the CMP simulator — per
/// benchmark change in L1 miss rate and execution time.
pub fn prefetch_study(q: Quality) -> Vec<Table> {
    use immersion_archsim::{System, SystemConfig};
    use immersion_npb::{Benchmark, TraceGenerator};
    let mut t = Table::new(
        "Stride prefetcher (distance 16) on the 2-chip CMP @ 2.0 GHz",
        &["benchmark", "miss rate off", "miss rate on", "speedup"],
    );
    for bench in Benchmark::all() {
        let run = |prefetch: bool| {
            let mut cfg = SystemConfig::baseline(2, 2.0);
            cfg.prefetch_next_line = prefetch;
            let gen = TraceGenerator::new(bench.descriptor(), cfg.threads(), q.ops_per_thread, 42);
            System::new(cfg).run(&gen)
        };
        let off = run(false);
        let on = run(true);
        t.row(vec![
            bench.name().into(),
            format!("{:.3}", off.l1_miss_rate),
            format!("{:.3}", on.l1_miss_rate),
            format!("{:.3}", off.exec_time_secs / on.exec_time_secs),
        ]);
    }
    vec![t]
}

// ----------------------------------------------------------------------------
// Registry
// ----------------------------------------------------------------------------

/// All experiments by name, in paper order.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig1",
    "fig4",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "lifetime",
    "pue",
    "ablations",
    "grid",
    "dtm",
    "layout",
    "flow",
    "irds",
    "prefetch",
    "microchannel",
    "density",
    "tsv",
    "riverfarm",
];

/// Run one experiment by name.
pub fn run_experiment(name: &str, q: Quality) -> Option<Vec<Table>> {
    Some(match name {
        "table1" => table1(q),
        "table2" => table2(q),
        "fig1" => fig1(q),
        "fig4" => fig4(q),
        "fig6" => fig6(q),
        "fig7" => fig7(q),
        "fig8" => fig8(q),
        "fig9" => fig9(q),
        "fig10" => fig10(q),
        "fig11" => fig11(q),
        "fig12" => fig12(q),
        "fig13" => fig13(q),
        "fig14" => fig14(q),
        "fig15" => fig15(q),
        "fig16" => fig16(q),
        "fig17" => fig17(q),
        "fig18" => fig18(q),
        "lifetime" => lifetime(q),
        "pue" => pue_study(q),
        "ablations" => ablations(q),
        "grid" => grid_convergence(q),
        "dtm" => dtm_study(q),
        "layout" => layout_study(q),
        "flow" => flow_study(q),
        "irds" => irds_study(q),
        "prefetch" => prefetch_study(q),
        "microchannel" => microchannel_study(q),
        "density" => density_study(q),
        "tsv" => tsv_study(q),
        "riverfarm" => riverfarm_study(q),
        _ => return None,
    })
}
