//! The `watercool` command-line interface: the library's capabilities
//! as a tool a downstream user can drive without writing Rust.
//!
//! ```text
//! watercool max-freq  --chip hf --chips 4 --cooling water [--flip]
//! watercool sweep     --chip lp --max-chips 12
//! watercool thermal-map --chip hf --chips 4 --cooling water --freq 3.6
//! watercool simulate  --benchmark CG --chips 2 --freq 2.0 --ops 50000 [--gem5-stats]
//! watercool export-flp --chip e5
//! watercool campaign  [--jobs N] [--filter GLOB] [--no-cache] [--quick] [--out DIR]
//! watercool faultsim  [--seed N] [--matrix | --site SITE --kind KIND] [--out DIR]
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency) and unit-tested
//! here; the binary in `src/bin/watercool.rs` is a thin wrapper.

use crate::campaign::{build_campaign, emit_csvs, SUMMARY_JOB};
use crate::experiments::{Quality, EXPERIMENTS};
use immersion_campaign::glob::glob_match;
use immersion_campaign::{Cache, Manifest, ProgressPrinter, RunOptions};
use immersion_core::design::CmpDesign;
use immersion_core::explorer::{frequency_vs_chips, max_frequency, solve_at};
use immersion_power::chips::{self, ChipModel};
use immersion_thermal::stack3d::CoolingParams;

/// A parsed command, ready to run.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Maximum sustainable frequency of one design.
    MaxFreq {
        /// Chip key.
        chip: String,
        /// Stack height.
        chips: usize,
        /// Cooling key.
        cooling: String,
        /// §4.2 flip layout.
        flip: bool,
    },
    /// Frequency-vs-chips sweep over all cooling options.
    Sweep {
        /// Chip key.
        chip: String,
        /// Maximum stack height.
        max_chips: usize,
    },
    /// ASCII thermal map of the hottest die.
    ThermalMap {
        /// Chip key.
        chip: String,
        /// Stack height.
        chips: usize,
        /// Cooling key.
        cooling: String,
        /// Operating frequency, GHz.
        freq: f64,
    },
    /// Run one NPB benchmark on the CMP simulator.
    Simulate {
        /// Benchmark name (BT..UA).
        benchmark: String,
        /// Stack height.
        chips: usize,
        /// Clock, GHz.
        freq: f64,
        /// Instructions per thread.
        ops: u64,
        /// Emit gem5-style stats.txt instead of a summary.
        gem5_stats: bool,
    },
    /// Print a chip's floorplan in HotSpot .flp format.
    ExportFlp {
        /// Chip key.
        chip: String,
    },
    /// Run the experiment suite through the campaign engine.
    Campaign {
        /// Worker threads (0 = one per available core).
        jobs: usize,
        /// Glob over job names; selected jobs pull in their deps.
        filter: Option<String>,
        /// Ignore existing cache entries (fresh results still stored).
        no_cache: bool,
        /// Smoke-test quality instead of figure quality.
        quick: bool,
        /// Directory for CSVs, the manifest, and the result cache.
        out: String,
        /// Extra attempts after a first failure.
        retries: u32,
    },
    /// Deterministic fault-injection conformance matrix (or one cell).
    Faultsim {
        /// Matrix seed; each cell derives its injection occurrence
        /// from it, so a seed plus a (site, kind) pair replays a cell
        /// exactly.
        seed: u64,
        /// Run the full site × kind matrix (default when no cell is
        /// named).
        matrix: bool,
        /// Replay one cell: the hook site to inject at.
        site: Option<String>,
        /// Replay one cell: the fault kind to inject.
        kind: Option<String>,
        /// Working directory for cell caches and the JSON report.
        out: String,
    },
    /// Fixed thermal-solver benchmark writing `BENCH_thermal.json`.
    BenchThermal {
        /// CI-sized workload (small grids, single repetition).
        smoke: bool,
        /// Widest thread pool to measure (1..=N).
        threads: usize,
        /// Output path for the JSON report.
        out: String,
        /// Baseline JSON; >20% regression of mean cold CG iterations fails.
        check: Option<String>,
    },
    /// Serve the models over HTTP (or load-test the service).
    Serve {
        /// Bind address.
        addr: String,
        /// HTTP worker threads.
        threads: usize,
        /// Run the deterministic load test instead of serving forever.
        loadtest: bool,
        /// Load-test seed (the whole workload derives from it).
        seed: u64,
        /// Load-test request count.
        requests: usize,
        /// Load-test concurrent client connections.
        clients: usize,
        /// Load-test report path.
        out: String,
        /// Baseline report; >20% regression of the latency proxies
        /// (solves/request, reuse rate) fails.
        check: Option<String>,
    },
    /// Run the repo's static-analysis rules (R1–R12) over the workspace.
    Lint {
        /// Rewrite lint.allow to the current violation counts.
        fix_allowlist: bool,
        /// Report rendering: `text` (default), `json`, or `sarif`.
        format: String,
        /// Write the workspace call graph as Graphviz DOT to this path.
        emit_callgraph: Option<String>,
        /// Write the R11 lock-order graph as Graphviz DOT to this path.
        emit_lockgraph: Option<String>,
        /// Skip the `target/lint-cache` incremental cache.
        no_cache: bool,
    },
    /// Run the concurrency-sanitizer scenario and cross-validate the
    /// dynamic lock graph against the static R11 graph.
    Sanitize {
        /// Extra contended rounds after the base scenario.
        stress: usize,
        /// Seed for the faultsim plan and stress-key rotation.
        seed: u64,
        /// Artifact directory.
        out: String,
        /// Rewrite `sanitize.ratchet` to the achieved coverage.
        fix_ratchet: bool,
    },
    /// Print usage.
    Help,
}

/// Parse a command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(String::as_str);
    let sub = it.next().ok_or_else(usage)?;
    let rest: Vec<&str> = it.collect();
    let get = |flag: &str| -> Option<&str> {
        rest.iter()
            .position(|&a| a == flag)
            .and_then(|i| rest.get(i + 1).copied())
    };
    let has = |flag: &str| rest.contains(&flag);
    let get_or = |flag: &str, default: &str| get(flag).unwrap_or(default).to_string();
    let num = |flag: &str, default: &str| -> Result<f64, String> {
        get_or(flag, default)
            .parse::<f64>()
            .map_err(|_| format!("{flag}: expected a number"))
    };
    match sub {
        "max-freq" => Ok(Command::MaxFreq {
            chip: get_or("--chip", "hf"),
            chips: num("--chips", "4")? as usize,
            cooling: get_or("--cooling", "water"),
            flip: has("--flip"),
        }),
        "sweep" => Ok(Command::Sweep {
            chip: get_or("--chip", "hf"),
            max_chips: num("--max-chips", "12")? as usize,
        }),
        "thermal-map" => Ok(Command::ThermalMap {
            chip: get_or("--chip", "hf"),
            chips: num("--chips", "4")? as usize,
            cooling: get_or("--cooling", "water"),
            freq: num("--freq", "3.6")?,
        }),
        "simulate" => Ok(Command::Simulate {
            benchmark: get_or("--benchmark", "CG"),
            chips: num("--chips", "2")? as usize,
            freq: num("--freq", "2.0")?,
            ops: num("--ops", "50000")? as u64,
            gem5_stats: has("--gem5-stats"),
        }),
        "export-flp" => Ok(Command::ExportFlp {
            chip: get_or("--chip", "hf"),
        }),
        "campaign" => Ok(Command::Campaign {
            jobs: num("--jobs", "0")? as usize,
            filter: get("--filter").map(str::to_string),
            no_cache: has("--no-cache"),
            quick: has("--quick"),
            out: get_or("--out", "results"),
            retries: num("--retries", "2")? as u32,
        }),
        "faultsim" => {
            let site = get("--site").map(str::to_string);
            let kind = get("--kind").map(str::to_string);
            if site.is_some() != kind.is_some() {
                return Err("faultsim: --site and --kind must be given together".to_string());
            }
            Ok(Command::Faultsim {
                seed: num("--seed", "42")? as u64,
                matrix: has("--matrix") || site.is_none(),
                site,
                kind,
                out: get_or("--out", "target/faultsim"),
            })
        }
        "bench" => match rest.first().copied() {
            Some("thermal") => Ok(Command::BenchThermal {
                smoke: has("--smoke"),
                threads: num("--threads", "4")? as usize,
                out: get_or("--out", "BENCH_thermal.json"),
                check: get("--check").map(str::to_string),
            }),
            other => Err(format!(
                "bench: expected a suite name ('thermal'), got {}\n{}",
                other.map_or("nothing".to_string(), |o| format!("'{o}'")),
                usage()
            )),
        },
        "serve" => Ok(Command::Serve {
            addr: get_or("--addr", "127.0.0.1:8080"),
            threads: num("--threads", "4")? as usize,
            loadtest: has("--loadtest"),
            seed: num("--seed", "42")? as u64,
            requests: num("--requests", "120")? as usize,
            clients: num("--clients", "4")? as usize,
            out: get_or("--out", "BENCH_serve.json"),
            check: get("--check").map(str::to_string),
        }),
        "lint" => {
            let format = get_or("--format", "text");
            if !matches!(format.as_str(), "text" | "json" | "sarif") {
                return Err(format!(
                    "--format: expected text|json|sarif, got '{format}'"
                ));
            }
            Ok(Command::Lint {
                fix_allowlist: has("--fix-allowlist"),
                format,
                emit_callgraph: get("--emit-callgraph").map(str::to_string),
                emit_lockgraph: get("--emit-lockgraph").map(str::to_string),
                no_cache: has("--no-cache"),
            })
        }
        "sanitize" => Ok(Command::Sanitize {
            stress: num("--stress", "0")? as usize,
            seed: num("--seed", "42")? as u64,
            out: get_or("--out", "target/sanitize"),
            fix_ratchet: has("--fix-ratchet"),
        }),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

/// Usage text.
pub fn usage() -> String {
    "usage: watercool <command> [flags]\n\
     commands:\n\
       max-freq    --chip lp|hf|e5|phi --chips N --cooling air|pipe|oil|fc|water [--flip]\n\
       sweep       --chip lp|hf|e5|phi --max-chips N\n\
       thermal-map --chip ... --chips N --cooling ... --freq GHz\n\
       simulate    --benchmark BT..UA --chips N --freq GHz --ops N [--gem5-stats]\n\
       export-flp  --chip lp|hf|e5|phi\n\
       campaign    [--jobs N] [--filter GLOB] [--no-cache] [--quick] [--out DIR] [--retries N]\n\
       faultsim    [--seed N] [--matrix | --site SITE --kind KIND] [--out DIR]\n\
       bench       thermal [--smoke] [--threads N] [--out PATH] [--check BASELINE]\n\
       serve       [--addr HOST:PORT] [--threads N] [--loadtest] [--seed N] [--requests N]\n\
                   [--clients N] [--out PATH] [--check BASELINE]\n\
       lint        [--fix-allowlist] [--format text|json|sarif] [--emit-callgraph PATH]\n\
                   [--emit-lockgraph PATH] [--no-cache]\n\
       sanitize    [--stress N] [--seed N] [--out DIR] [--fix-ratchet]"
        .to_string()
}

/// Resolve a chip key.
pub fn chip_by_key(key: &str) -> Result<ChipModel, String> {
    chips::chip_by_key(key)
        .cloned()
        .ok_or_else(|| format!("unknown chip '{key}' ({})", chips::CHIP_KEYS))
}

/// Resolve a cooling key.
pub fn cooling_by_key(key: &str) -> Result<CoolingParams, String> {
    CoolingParams::by_key(key)
        .ok_or_else(|| format!("unknown cooling '{key}' ({})", CoolingParams::KEYS))
}

/// Execute a parsed command, returning the text to print.
pub fn run(cmd: Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(usage()),
        Command::BenchThermal {
            smoke,
            threads,
            out,
            check,
        } => crate::thermal_bench::run_and_report(&crate::thermal_bench::BenchConfig {
            smoke,
            threads,
            out,
            check,
        }),
        Command::Serve {
            addr,
            threads,
            loadtest,
            seed,
            requests,
            clients,
            out,
            check,
        } => {
            use immersion_serve::loadgen;
            if !loadtest {
                return immersion_serve::run_forever(&immersion_serve::ServeConfig {
                    addr,
                    threads,
                    state_dir: None,
                    pool_capacity: 8,
                });
            }
            let report = loadgen::run_loadtest(&loadgen::LoadConfig {
                seed,
                requests,
                clients,
                threads,
            })?;
            let out_path = std::path::PathBuf::from(&out);
            loadgen::write_report(&report, &out_path)?;
            let det = |k: &str| -> String {
                report
                    .get("deterministic")
                    .and_then(|d| d.get(k))
                    .map(|v| serde_json::to_string(v).unwrap_or_default())
                    .unwrap_or_else(|| "?".to_string())
            };
            let timing = |k: &str| -> String {
                report
                    .get("timing")
                    .and_then(|t| t.get(k))
                    .map(|v| serde_json::to_string(v).unwrap_or_default())
                    .unwrap_or_else(|| "?".to_string())
            };
            let mut text = format!(
                "serve loadtest: seed {seed}, {} requests over {} client(s), {} server thread(s)\n\
                 distinct bodies {}, solves {}, deduped {} (reuse rate {})\n\
                 latency p50 {} us, p99 {} us, throughput {} req/s\n\
                 report: {}\n",
                det("requests"),
                det("clients"),
                det("threads"),
                det("distinct_bodies"),
                det("solves_total"),
                det("dedup_total"),
                det("reuse_rate"),
                timing("latency_p50_us"),
                timing("latency_p99_us"),
                timing("throughput_rps"),
                out_path.display(),
            );
            if let Some(baseline_path) = check {
                let baseline = loadgen::load_report(std::path::Path::new(&baseline_path))?;
                match loadgen::check_against_baseline(&report, &baseline) {
                    Ok(passes) => {
                        text.push_str(&format!("baseline check vs {baseline_path}:\n"));
                        for p in passes {
                            text.push_str(&format!("  ok: {p}\n"));
                        }
                    }
                    Err(failures) => {
                        let mut msg = format!("{text}baseline check vs {baseline_path} FAILED:\n");
                        for f in failures {
                            msg.push_str(&format!("  {f}\n"));
                        }
                        return Err(msg);
                    }
                }
            }
            Ok(text)
        }
        Command::Lint {
            fix_allowlist,
            format,
            emit_callgraph,
            emit_lockgraph,
            no_cache,
        } => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            let root = immersion_lint::find_workspace_root(&cwd)
                .ok_or("not inside a cargo workspace (no Cargo.toml with [workspace] above cwd)")?;
            if let Some(path) = emit_callgraph {
                let dot = immersion_lint::emit_callgraph_dot(&root)
                    .map_err(|e| e.to_string())?
                    .map_err(|errs| format!("call graph unavailable:\n{}", errs.join("\n")))?;
                std::fs::write(&path, dot).map_err(|e| format!("{path}: {e}"))?;
            }
            if let Some(path) = emit_lockgraph {
                let dot = immersion_lint::emit_lockgraph_dot(&root)
                    .map_err(|e| e.to_string())?
                    .map_err(|errs| format!("lock graph unavailable:\n{}", errs.join("\n")))?;
                std::fs::write(&path, dot).map_err(|e| format!("{path}: {e}"))?;
            }
            let report = immersion_lint::lint_workspace_with(&root, fix_allowlist, !no_cache)
                .map_err(|e| e.to_string())?;
            let text = match format.as_str() {
                "json" => immersion_lint::report::to_json(&report),
                "sarif" => immersion_lint::report::to_sarif(&report),
                _ => report.render(),
            };
            if report.is_clean() {
                Ok(text)
            } else {
                Err(text)
            }
        }
        Command::Sanitize {
            stress,
            seed,
            out,
            fix_ratchet,
        } => crate::sanitize::run_and_report(&crate::sanitize::SanitizeConfig {
            stress,
            seed,
            out: std::path::PathBuf::from(out),
            fix_ratchet,
        }),
        Command::Faultsim {
            seed,
            matrix,
            site,
            kind,
            out,
        } => {
            use crate::faultharness;
            use immersion_faultsim::FaultKind;
            let out_dir = std::path::PathBuf::from(&out);
            if let (Some(site), Some(kind_name)) = (site.as_deref(), kind.as_deref()) {
                let k = FaultKind::from_name(kind_name).ok_or_else(|| {
                    format!(
                        "unknown fault kind '{kind_name}' (one of: {})",
                        FaultKind::ALL
                            .iter()
                            .map(|k| k.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?;
                if site.starts_with("serve::") {
                    let cell = immersion_serve::faultcells::run_serve_single(
                        seed,
                        site,
                        k,
                        &out_dir.join("serve"),
                    )?;
                    let text = format!(
                        "serve cell {} / {} (seed {seed}): {} fault(s) fired, status {}, \
                         {} quarantined\n{}",
                        cell.site,
                        cell.kind,
                        cell.injected,
                        cell.fault_status,
                        cell.quarantined,
                        if cell.passed {
                            "all invariants held".to_string()
                        } else {
                            format!("FAILED: {}\nreplay: {}", cell.detail, cell.replay_line())
                        }
                    );
                    return if cell.passed { Ok(text) } else { Err(text) };
                }
                let cell = faultharness::run_single(seed, site, k, &out_dir)?;
                let text = format!(
                    "cell {} / {} (seed {seed}, occurrence {}): {} fault(s) fired, \
                     {} corrupt entr(ies) quarantined\n{}",
                    cell.site,
                    cell.kind,
                    cell.nth,
                    cell.injected,
                    cell.corrupt_entries,
                    if cell.passed {
                        "all invariants held".to_string()
                    } else {
                        format!("FAILED: {}\nreplay: {}", cell.detail, cell.replay_line())
                    }
                );
                if cell.passed {
                    Ok(text)
                } else {
                    Err(text)
                }
            } else {
                debug_assert!(matrix);
                let report = faultharness::run_matrix(seed, &out_dir)?;
                let report_path = out_dir.join("faultsim_report.json");
                let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                immersion_campaign::fsutil::atomic_write(&report_path, json.as_bytes())
                    .map_err(|e| e.to_string())?;
                let serve_report =
                    immersion_serve::faultcells::run_serve_matrix(seed, &out_dir.join("serve"))?;
                let serve_path = out_dir.join("faultsim_serve_report.json");
                let serve_json =
                    serde_json::to_string_pretty(&serve_report).map_err(|e| e.to_string())?;
                immersion_campaign::fsutil::atomic_write(&serve_path, serve_json.as_bytes())
                    .map_err(|e| e.to_string())?;
                let text = format!(
                    "{}report: {}\n\n{}report: {}",
                    report.render(),
                    report_path.display(),
                    serve_report.render(),
                    serve_path.display()
                );
                if report.passed() && serve_report.passed() {
                    Ok(text)
                } else {
                    Err(text)
                }
            }
        }
        Command::MaxFreq {
            chip,
            chips,
            cooling,
            flip,
        } => {
            let d = CmpDesign::new(chip_by_key(&chip)?, chips, cooling_by_key(&cooling)?)
                .with_flip(flip);
            match max_frequency(&d) {
                Some(step) => {
                    let model = d.thermal_model().map_err(|e| e.to_string())?;
                    let sol = solve_at(&d, &model, step, None).map_err(|e| e.to_string())?;
                    Ok(format!(
                        "{chip} x{chips} under {cooling}{}: {:.1} GHz (peak {:.1} C, threshold {:.0} C)",
                        if flip { " (flip)" } else { "" },
                        step.freq_ghz,
                        sol.die_max(),
                        d.threshold()
                    ))
                }
                None => Ok(format!(
                    "{chip} x{chips} under {cooling}: infeasible at every VFS step"
                )),
            }
        }
        Command::Sweep { chip, max_chips } => {
            let model = chip_by_key(&chip)?;
            let mut out = format!("max frequency (GHz) vs chips, {chip}:\n");
            for cooling in CoolingParams::paper_options() {
                let base = CmpDesign::new(model.clone(), 1, cooling).with_grid(8, 8);
                out.push_str(&format!("{:>12}", cooling.name));
                for (_, step) in frequency_vs_chips(&base, max_chips) {
                    match step {
                        Some(s) => out.push_str(&format!("{:>6.1}", s.freq_ghz)),
                        None => out.push_str(&format!("{:>6}", "-")),
                    }
                }
                out.push('\n');
            }
            Ok(out)
        }
        Command::ThermalMap {
            chip,
            chips,
            cooling,
            freq,
        } => {
            let model_chip = chip_by_key(&chip)?;
            let step = model_chip
                .vfs
                .step_at_or_below(freq)
                .ok_or(format!("{freq} GHz below this chip's VFS range"))?;
            let d = CmpDesign::new(model_chip, chips, cooling_by_key(&cooling)?);
            let model = d.thermal_model().map_err(|e| e.to_string())?;
            let sol = solve_at(&d, &model, step, None).map_err(|e| e.to_string())?;
            let map = sol.die_map(0).ok_or("no die map")?;
            Ok(format!(
                "bottom die at {:.1} GHz under {cooling} ({:.1}..{:.1} C):\n{}",
                step.freq_ghz,
                map.min(),
                map.max(),
                map.ascii()
            ))
        }
        Command::Simulate {
            benchmark,
            chips,
            freq,
            ops,
            gem5_stats,
        } => {
            use immersion_archsim::{System, SystemConfig};
            use immersion_npb::{Benchmark, TraceGenerator};
            let bench = Benchmark::all()
                .into_iter()
                .find(|b| b.name().eq_ignore_ascii_case(&benchmark))
                .ok_or(format!("unknown benchmark '{benchmark}' (BT..UA)"))?;
            let cfg = SystemConfig::baseline(chips, freq);
            let gen = TraceGenerator::new(bench.descriptor(), cfg.threads(), ops, 42);
            let stats = System::new(cfg).run(&gen);
            if gem5_stats {
                Ok(stats.to_stats_txt())
            } else {
                Ok(format!(
                    "{} on {chips} chip(s) @ {freq} GHz: {:.3} ms, IPC {:.3}, \
                     L1 miss {:.1}%, DRAM {} fetches, p50/p99 miss {}/{} ns",
                    bench.name(),
                    stats.exec_time_secs * 1e3,
                    stats.ipc,
                    stats.l1_miss_rate * 100.0,
                    stats.dram_accesses,
                    stats.p50_miss_latency_ns,
                    stats.p99_miss_latency_ns
                ))
            }
        }
        Command::ExportFlp { chip } => {
            let model = chip_by_key(&chip)?;
            Ok(immersion_thermal::hotspot_compat::to_flp(&model.floorplan))
        }
        Command::Campaign {
            jobs,
            filter,
            no_cache,
            quick,
            out,
            retries,
        } => {
            let q = if quick {
                Quality::quick()
            } else {
                Quality::full()
            };
            let c = build_campaign(q);
            let out_dir = std::path::PathBuf::from(&out);
            let cache_dir = out_dir.join("cache");
            let opts = RunOptions {
                workers: jobs,
                cache_dir: Some(cache_dir.clone()),
                use_cache: !no_cache,
                retries,
                filter: filter.clone(),
                ..RunOptions::default()
            };
            // The summary job depends on everything, so a filter that
            // matches it selects the whole suite.
            let total = match filter.as_deref() {
                None => c.len(),
                Some(g) if glob_match(g, SUMMARY_JOB) => c.len(),
                Some(g) => EXPERIMENTS.iter().filter(|n| glob_match(g, n)).count(),
            };
            let progress = ProgressPrinter::new(total);
            let report = c
                .run(&opts, &|ev| progress.handle(ev))
                .map_err(|e| e.to_string())?;
            let artifacts = emit_csvs(&c, &report, &out_dir)?;
            let cache = Cache::open(&cache_dir).map_err(|e| e.to_string())?;
            let mut manifest = Manifest::from_report(&report, jobs, Some(&cache));
            for (job, path) in &artifacts {
                manifest.add_artifact(job, path.display().to_string());
            }
            let manifest_path = out_dir.join("campaign_manifest.json");
            manifest.write(&manifest_path).map_err(|e| e.to_string())?;
            let completed = report.jobs.len() - report.failed - report.skipped;
            let summary = format!(
                "{} job(s): {completed} ok ({} from cache), {} failed, {} skipped \
                 in {:.1}s; cache hit rate {:.0}%\n\
                 {} CSV file(s) under {}; manifest at {}",
                report.jobs.len(),
                report.cache_hits,
                report.failed,
                report.skipped,
                report.wall_ms as f64 / 1000.0,
                report.cache_hit_rate() * 100.0,
                artifacts.len(),
                out_dir.display(),
                manifest_path.display()
            );
            if report.all_ok() {
                Ok(summary)
            } else {
                Err(summary)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_max_freq() {
        let cmd = parse(&args("max-freq --chip lp --chips 6 --cooling oil --flip")).unwrap();
        assert_eq!(
            cmd,
            Command::MaxFreq {
                chip: "lp".into(),
                chips: 6,
                cooling: "oil".into(),
                flip: true
            }
        );
    }

    #[test]
    fn defaults_apply() {
        let cmd = parse(&args("max-freq")).unwrap();
        assert_eq!(
            cmd,
            Command::MaxFreq {
                chip: "hf".into(),
                chips: 4,
                cooling: "water".into(),
                flip: false
            }
        );
    }

    #[test]
    fn parses_sanitize() {
        let cmd = parse(&args(
            "sanitize --stress 500 --seed 7 --out scratch --fix-ratchet",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Sanitize {
                stress: 500,
                seed: 7,
                out: "scratch".into(),
                fix_ratchet: true
            }
        );
        let cmd = parse(&args("sanitize")).unwrap();
        assert_eq!(
            cmd,
            Command::Sanitize {
                stress: 0,
                seed: 42,
                out: "target/sanitize".into(),
                fix_ratchet: false
            }
        );
    }

    #[test]
    fn rejects_unknown_command_and_bad_numbers() {
        assert!(parse(&args("frobnicate")).is_err());
        assert!(parse(&args("sweep --max-chips banana")).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn chip_and_cooling_keys_resolve() {
        for k in ["lp", "hf", "e5", "phi"] {
            assert!(chip_by_key(k).is_ok());
        }
        assert_eq!(
            chip_by_key("486").unwrap_err(),
            "unknown chip '486' (lp|hf|e5|phi)"
        );
        for k in ["air", "pipe", "oil", "fc", "water"] {
            assert!(cooling_by_key(k).is_ok());
        }
        assert_eq!(
            cooling_by_key("lava").unwrap_err(),
            "unknown cooling 'lava' (air|pipe|oil|fc|water)"
        );
    }

    #[test]
    fn max_freq_runs_end_to_end() {
        let out =
            run(parse(&args("max-freq --chip hf --chips 2 --cooling water")).unwrap()).unwrap();
        assert!(out.contains("GHz"), "{out}");
    }

    #[test]
    fn simulate_runs_and_emits_gem5_stats() {
        let out = run(parse(&args(
            "simulate --benchmark EP --chips 1 --freq 2.0 --ops 2000 --gem5-stats",
        ))
        .unwrap())
        .unwrap();
        assert!(out.contains("sim_insts"));
    }

    #[test]
    fn export_flp_is_parsable() {
        let out = run(parse(&args("export-flp --chip phi")).unwrap()).unwrap();
        let fp = immersion_thermal::hotspot_compat::from_flp(&out).unwrap();
        assert_eq!(fp.len(), 36);
    }

    #[test]
    fn parses_campaign_with_defaults_and_flags() {
        assert_eq!(
            parse(&args("campaign")).unwrap(),
            Command::Campaign {
                jobs: 0,
                filter: None,
                no_cache: false,
                quick: false,
                out: "results".into(),
                retries: 2,
            }
        );
        assert_eq!(
            parse(&args(
                "campaign --jobs 4 --filter fig1* --no-cache --quick --out /tmp/x --retries 0"
            ))
            .unwrap(),
            Command::Campaign {
                jobs: 4,
                filter: Some("fig1*".into()),
                no_cache: true,
                quick: true,
                out: "/tmp/x".into(),
                retries: 0,
            }
        );
    }

    #[test]
    fn parses_faultsim() {
        assert_eq!(
            parse(&args("faultsim")).unwrap(),
            Command::Faultsim {
                seed: 42,
                matrix: true,
                site: None,
                kind: None,
                out: "target/faultsim".into(),
            }
        );
        assert_eq!(
            parse(&args(
                "faultsim --seed 7 --site thermal::cg --kind diverge --out /tmp/fs"
            ))
            .unwrap(),
            Command::Faultsim {
                seed: 7,
                matrix: false,
                site: Some("thermal::cg".into()),
                kind: Some("diverge".into()),
                out: "/tmp/fs".into(),
            }
        );
        assert!(parse(&args("faultsim --site thermal::cg")).is_err());
        assert!(parse(&args("faultsim --kind diverge")).is_err());
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            parse(&args("serve")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:8080".into(),
                threads: 4,
                loadtest: false,
                seed: 42,
                requests: 120,
                clients: 4,
                out: "BENCH_serve.json".into(),
                check: None,
            }
        );
        assert_eq!(
            parse(&args(
                "serve --addr 0.0.0.0:9000 --threads 1 --loadtest --seed 7 --requests 30 \
                 --clients 2 --out /tmp/s.json --check BENCH_serve.json"
            ))
            .unwrap(),
            Command::Serve {
                addr: "0.0.0.0:9000".into(),
                threads: 1,
                loadtest: true,
                seed: 7,
                requests: 30,
                clients: 2,
                out: "/tmp/s.json".into(),
                check: Some("BENCH_serve.json".into()),
            }
        );
    }

    #[test]
    fn help_prints_usage() {
        let out = run(Command::Help).unwrap();
        assert!(out.contains("watercool"));
    }

    #[test]
    fn parses_bench_thermal() {
        assert_eq!(
            parse(&args("bench thermal")).unwrap(),
            Command::BenchThermal {
                smoke: false,
                threads: 4,
                out: "BENCH_thermal.json".into(),
                check: None,
            }
        );
        assert_eq!(
            parse(&args(
                "bench thermal --smoke --threads 2 --out /tmp/b.json --check BENCH_baseline.json"
            ))
            .unwrap(),
            Command::BenchThermal {
                smoke: true,
                threads: 2,
                out: "/tmp/b.json".into(),
                check: Some("BENCH_baseline.json".into()),
            }
        );
        assert!(parse(&args("bench")).is_err());
        assert!(parse(&args("bench quantum")).is_err());
    }
}
