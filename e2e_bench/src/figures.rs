//! The figure workloads: the experiment jobs of `campaign --quick`,
//! split into the five that simulate NPB on archsim and the other 25,
//! each run from a cold cache in a child process.
//!
//! A crash or a missed deadline ends that child. The jobs it had in
//! flight count as failed, with the signal recorded; the jobs it had
//! not yet started run in a fresh child, so one crashing job does not
//! hide the cost of the others.

use crate::child::{ChildRun, Exit};
use crate::trace::Span;
use crate::Ctx;
use immersion_bench::experiments::{run_experiment, Quality, EXPERIMENTS};
use immersion_campaign::hash::fnv1a64;
use immersion_campaign::{Campaign, Event, Job, RunOptions};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// The jobs that simulate NPB on archsim.
pub const NPB_JOBS: [&str; 5] = ["fig10", "fig11", "fig12", "fig13", "prefetch"];

/// Jobs whose tables must equal a checked-in golden file byte for byte.
pub const GOLDENS: [(&str, &str); 2] = [
    ("fig7", "tests/goldens/fig7_freq_vs_chips.csv"),
    ("fig10", "tests/goldens/fig10_npb_summary.csv"),
];

/// The jobs of a figure workload, in campaign registration order.
pub fn jobs_for(workload: &str) -> Vec<&'static str> {
    let npb = workload == "figures_npb";
    EXPERIMENTS
        .iter()
        .copied()
        .filter(|j| NPB_JOBS.contains(j) == npb)
        .collect()
}

fn emit(line: &str) {
    let out = std::io::stdout();
    let mut out = out.lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Child side: run `jobs` as one campaign with the program's default
/// widths and a cold cache under `cache`, streaming scheduler events as
/// `E` lines; each job writes its tables to `<out>/<job>.csv` as the
/// goldens store them (each CSV followed by a blank line).
/// With `spans`, each `run_experiment` call is printed as a span.
pub fn child_main(jobs: &[String], cache: &Path, out: &Path, spans: bool) -> Result<(), String> {
    let epoch = Instant::now();
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let mut campaign = Campaign::new();
    for (i, name) in jobs.iter().enumerate() {
        let name = name.clone();
        let csv_path = out.join(format!("{name}.csv"));
        let config = serde_json::Value::Str(format!("{name}@quick"));
        campaign.add(Job::new(name.clone(), &config, move |_| {
            let start = epoch.elapsed().as_nanos() as u64;
            let tables = run_experiment(&name, Quality::quick())
                .ok_or_else(|| format!("unknown experiment '{name}'"))?;
            if spans {
                let span = Span {
                    name: "run_experiment".into(),
                    id: i as u64 + 1,
                    parent: None,
                    start_ns: start,
                    end_ns: epoch.elapsed().as_nanos() as u64,
                };
                emit(&span.line());
            }
            // Written before the job reports done, so a later crash in
            // this process cannot lose a finished job's tables.
            let csv: String = tables.iter().map(|t| t.to_csv() + "\n").collect();
            std::fs::write(&csv_path, csv).map_err(|e| e.to_string())?;
            serde_json::to_value(&tables).map_err(|e| e.to_string())
        }));
    }
    let opts = RunOptions {
        cache_dir: Some(cache.to_path_buf()),
        ..RunOptions::default()
    };
    campaign
        .run(&opts, &|ev| match ev {
            Event::Started { job } => emit(&format!("E started {job}")),
            Event::Finished { job, .. } => emit(&format!("E finished {job}")),
            Event::Failed { job, error, .. } => emit(&format!("E failed {job} {error}")),
            Event::Skipped { job, .. } => emit(&format!("E failed {job} skipped")),
            _ => {}
        })
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// What one cold pass over a workload's jobs did.
#[derive(Debug, Default)]
pub struct Pass {
    /// From the first child's spawn until every job finished or failed.
    pub wall_s: f64,
    /// Finished jobs: (start, end) offsets from the pass start, seconds.
    pub done: BTreeMap<String, (f64, f64)>,
    /// Sum over jobs of start minus the spawn of the child that ran it.
    pub queue_wait_s: f64,
    /// Failed jobs and why.
    pub failed: Vec<(String, String)>,
    /// Finished jobs whose tables did not match their reference.
    pub wrong: Vec<String>,
    /// Peak resident memory over the pass's children, MiB.
    pub peak_rss_mb: f64,
    /// Spans the children printed.
    pub spans: Vec<Span>,
    /// One line per child that did not exit cleanly.
    pub crashes: Vec<String>,
}

fn figures_cmd(ctx: &Ctx, jobs: &[&str], cache: &Path, out: &Path, spans: bool) -> Command {
    let mut cmd = Command::new(&ctx.exe);
    cmd.arg("child-figures")
        .arg("--jobs")
        .arg(jobs.join(","))
        .arg("--cache")
        .arg(cache)
        .arg("--out")
        .arg(out);
    if spans {
        cmd.arg("--spans");
    }
    cmd
}

/// Time from spawning a figures child to its first `started` event.
pub fn setup_probe(ctx: &Ctx, jobs: &[&str], dir: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cmd = figures_cmd(ctx, jobs, &dir.join("cache"), &dir.join("out"), false);
    let mut run = ChildRun::spawn(cmd, Duration::from_secs(30)).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs(30);
    let result = loop {
        match run.next_line(deadline) {
            Some(l) if l.text.starts_with("E started ") => break Ok(l.at.as_secs_f64()),
            Some(_) => {}
            None if Instant::now() >= deadline || run.poll().is_some() => {
                break Err("figures child never started a job".to_string())
            }
            None => {}
        }
    };
    run.kill();
    let _ = std::fs::remove_dir_all(dir);
    result
}

/// Run `jobs` once from a cold cache under `dir`, restarting the child
/// for the not-yet-started jobs after a crash, until `budget_end`.
pub fn run_pass(ctx: &Ctx, jobs: &[&str], dir: &Path, budget_end: Instant, spans: bool) -> Pass {
    let _ = std::fs::remove_dir_all(dir);
    let cache = dir.join("cache");
    let out = dir.join("out");
    let mut pass = Pass::default();
    let t0 = Instant::now();
    let mut remaining: Vec<&str> = jobs.to_vec();
    let mut last_event = 0.0f64;
    while !remaining.is_empty() {
        let now = Instant::now();
        if now >= budget_end {
            break;
        }
        let cmd = figures_cmd(ctx, &remaining, &cache, &out, spans);
        let mut run = match ChildRun::spawn(cmd, budget_end - now) {
            Ok(r) => r,
            Err(e) => {
                pass.crashes.push(format!("spawn failed: {e}"));
                break;
            }
        };
        let base = run.spawned().duration_since(t0).as_secs_f64();
        let mut started: BTreeMap<String, f64> = BTreeMap::new();
        let mut ended: BTreeSet<String> = BTreeSet::new();
        let mut handle = |text: &str, at: f64, pass: &mut Pass| {
            let t = base + at;
            if let Some(job) = text.strip_prefix("E started ") {
                started.insert(job.to_string(), t);
                pass.queue_wait_s += at;
            } else if let Some(job) = text.strip_prefix("E finished ") {
                let s = started.get(job).copied().unwrap_or(t);
                pass.done.insert(job.to_string(), (s, t));
                ended.insert(job.to_string());
                last_event = last_event.max(t);
            } else if let Some(rest) = text.strip_prefix("E failed ") {
                let (job, why) = rest.split_once(' ').unwrap_or((rest, ""));
                pass.failed
                    .push((job.to_string(), format!("job error: {why}")));
                ended.insert(job.to_string());
                last_event = last_event.max(t);
            } else if let Some(span) = Span::parse(text) {
                pass.spans.push(span);
            }
        };
        loop {
            if let Some(line) = run.next_line(Instant::now() + Duration::from_millis(100)) {
                handle(&line.text, line.at.as_secs_f64(), &mut pass);
                continue;
            }
            if run.poll().is_some() {
                break;
            }
        }
        let (exit, rest, rss_kb) = run.finish();
        for line in rest {
            handle(&line.text, line.at.as_secs_f64(), &mut pass);
        }
        pass.peak_rss_mb = pass.peak_rss_mb.max(rss_kb as f64 / 1024.0);
        let exited_at = t0.elapsed().as_secs_f64();
        if !exit.ok() {
            let in_flight: Vec<&String> = started.keys().filter(|j| !ended.contains(*j)).collect();
            pass.crashes.push(format!(
                "child ended by {} at {:.2}s with jobs in flight: {}",
                exit.label(),
                exited_at,
                in_flight
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
            for job in in_flight {
                pass.failed.push((job.clone(), exit.label()));
            }
            last_event = last_event.max(exited_at);
        } else {
            // A clean exit must account for every job it was given.
            for job in &remaining {
                if !started.contains_key(*job) && !ended.contains(*job) {
                    pass.failed.push((job.to_string(), "never started".into()));
                }
            }
            last_event = last_event.max(exited_at);
            remaining.clear();
        }
        remaining.retain(|j| !started.contains_key(*j));
        // A child that died before starting any job would die again.
        if exit == Exit::Deadline || started.is_empty() {
            break;
        }
    }
    for job in remaining {
        pass.failed
            .push((job.to_string(), "not run: deadline or startup crash".into()));
    }
    pass.wall_s = last_event;
    pass.wrong = check_outputs(ctx, &out, pass.done.keys());
    let _ = std::fs::remove_dir_all(dir);
    pass
}

/// Compare each finished job's tables with its golden, or with the
/// digest the first run in this checkout recorded. Returns the jobs
/// that did not match.
fn check_outputs<'a>(ctx: &Ctx, out: &Path, done: impl Iterator<Item = &'a String>) -> Vec<String> {
    let mut wrong = Vec::new();
    for job in done {
        let Ok(actual) = std::fs::read(out.join(format!("{job}.csv"))) else {
            wrong.push(job.clone());
            continue;
        };
        let ok = match GOLDENS.iter().find(|(j, _)| j == job) {
            Some((_, golden)) => std::fs::read(ctx.root.join(golden)).is_ok_and(|g| g == actual),
            None => {
                let digest = format!("{:016x} {}", fnv1a64(&actual), actual.len());
                let path = ref_path(ctx, job);
                match std::fs::read_to_string(&path) {
                    Ok(expected) => expected.trim() == digest,
                    Err(_) => {
                        let _ = std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")));
                        std::fs::write(&path, &digest).is_ok()
                    }
                }
            }
        };
        if !ok {
            wrong.push(job.clone());
        }
    }
    wrong
}

fn ref_path(ctx: &Ctx, job: &str) -> PathBuf {
    ctx.state.join("ref").join(format!("{job}.digest"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_workloads_cover_every_experiment_once() {
        let npb = jobs_for("figures_npb");
        let thermal = jobs_for("figures_thermal");
        assert_eq!(npb.len(), 5);
        assert_eq!(thermal.len(), 25);
        let mut all: Vec<&str> = npb.iter().chain(thermal.iter()).copied().collect();
        all.sort_unstable();
        let mut expected: Vec<&str> = EXPERIMENTS.to_vec();
        expected.sort_unstable();
        assert_eq!(all, expected);
        assert_eq!(EXPERIMENTS.len(), 30);
    }

    #[test]
    fn a_crashed_child_counts_as_failed_jobs() {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("e2e-bench-crash-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let exe = dir.join("crashing-child");
        std::fs::write(
            &exe,
            "#!/bin/sh\necho 'E started table1'\necho 'E started fig7'\nkill -SEGV $$\n",
        )
        .unwrap();
        std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();
        let ctx = Ctx {
            exe,
            root: dir.clone(),
            state: dir.join("state"),
            seed: 1,
            seconds: 1.0,
        };
        let budget = Instant::now() + Duration::from_secs(20);
        let pass = run_pass(&ctx, &["table1", "fig7"], &dir.join("pass"), budget, false);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(pass.done.is_empty());
        assert_eq!(pass.failed.len(), 2);
        assert!(pass.failed.iter().all(|(_, why)| why == "signal 11"));
        assert_eq!(pass.crashes.len(), 1);
        assert!(pass.crashes[0].contains("signal 11") && pass.crashes[0].contains("fig7,table1"));
    }
}
