//! Async campaigns over HTTP: `POST /v1/campaign` accepts a
//! stack-height sweep, runs it on a background thread through the real
//! [`immersion_campaign`] scheduler (own cache directory per campaign,
//! so resubmitting an identical sweep is answered from cache), and
//! `GET /v1/campaign/{id}` polls its state.
//!
//! Lock discipline (lint R9): the registry mutex guards only the
//! id → status map. The campaign itself runs on a spawned thread that
//! takes the lock exactly twice — once flipping the entry to running
//! metadata, once publishing the terminal state — never across the
//! scheduler call.

use crate::api::{chip_by_key, cooling_by_key, shared_chip, ApiError, MAX_CHIPS, MAX_GRID};
use crate::metrics::Metrics;
use immersion_campaign::hash::fnv1a64;
use immersion_campaign::{Campaign, Job, RunOptions};
use immersion_core::design::CmpDesign;
use immersion_core::explorer::max_frequency_with_model;
use immersion_core::sanitizer;
use immersion_core::TrackedMutex;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};

/// Where a submitted campaign stands.
#[derive(Debug, Clone)]
enum State {
    Running,
    Done(Value),
    Failed(String),
}

#[derive(Debug, Clone)]
struct Status {
    state: State,
    jobs: usize,
    completed: Arc<AtomicU64>,
}

/// The id → campaign map behind the `/v1/campaign` endpoints. The map
/// sits behind an `Arc` so each background runner owns a handle to it
/// without borrowing the registry.
pub struct CampaignRegistry {
    entries: Arc<TrackedMutex<BTreeMap<String, Status>>>,
    seq: AtomicU64,
    dir: PathBuf,
}

impl CampaignRegistry {
    /// A registry caching campaign results under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> CampaignRegistry {
        CampaignRegistry {
            entries: Arc::new(TrackedMutex::new(
                "serve::CampaignRegistry.entries",
                BTreeMap::new(),
            )),
            seq: AtomicU64::new(0),
            dir: dir.into(),
        }
    }

    /// Handle `POST /v1/campaign`: validate the sweep, register it,
    /// kick off the background run, and return the poll handle.
    pub fn submit(&self, metrics: &Metrics, body: &Value) -> Result<Value, ApiError> {
        let chip_key = body
            .get("chip")
            .and_then(Value::as_str)
            .ok_or_else(|| ApiError::bad_request("missing required field 'chip'"))?
            .to_string();
        shared_chip(&chip_key)?;
        let cooling_key = body
            .get("cooling")
            .and_then(Value::as_str)
            .ok_or_else(|| ApiError::bad_request("missing required field 'cooling'"))?
            .to_string();
        cooling_by_key(&cooling_key)?;
        let max_chips = body
            .get("max_chips")
            .and_then(Value::as_u64)
            .ok_or_else(|| ApiError::bad_request("missing required field 'max_chips'"))?
            as usize;
        if max_chips == 0 || max_chips > MAX_CHIPS {
            return Err(ApiError::bad_request(format!(
                "'max_chips' must be in 1..={MAX_CHIPS}"
            )));
        }
        let grid = match body.get("grid") {
            None | Some(Value::Null) => (8usize, 8usize),
            Some(Value::Seq(s)) if s.len() == 2 => {
                let nx = s[0].as_u64().unwrap_or(0) as usize;
                let ny = s[1].as_u64().unwrap_or(0) as usize;
                if nx < 2 || ny < 2 || nx > MAX_GRID || ny > MAX_GRID {
                    return Err(ApiError::bad_request(format!(
                        "'grid' axes must be in 2..={MAX_GRID}"
                    )));
                }
                (nx, ny)
            }
            Some(_) => return Err(ApiError::bad_request("'grid' must be a [nx, ny] pair")),
        };

        // Canonical sweep config: the campaign cache keys derive from it.
        let mut canon = BTreeMap::new();
        canon.insert("chip".to_string(), Value::Str(chip_key.clone()));
        canon.insert("cooling".to_string(), Value::Str(cooling_key.clone()));
        canon.insert("max_chips".to_string(), Value::U64(max_chips as u64));
        canon.insert(
            "grid".to_string(),
            Value::Seq(vec![Value::U64(grid.0 as u64), Value::U64(grid.1 as u64)]),
        );
        let canon = Value::Map(canon);
        let canon_json = serde_json::to_string(&canon)
            .map_err(|e| ApiError::internal(format!("config unserializable: {e}")))?;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let id = format!("c{seq:04}-{:08x}", fnv1a64(canon_json.as_bytes()) as u32);

        let completed = Arc::new(AtomicU64::new(0));
        {
            let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
            sanitizer::shared_write(
                "serve::CampaignRegistry.map",
                sanitizer::obj_id(&*self.entries),
            );
            entries.insert(
                id.clone(),
                Status {
                    state: State::Running,
                    jobs: max_chips,
                    completed: Arc::clone(&completed),
                },
            );
        }
        metrics.campaigns_submitted.fetch_add(1, Ordering::Relaxed);

        let mut campaign = Campaign::new();
        for n in 1..=max_chips {
            let chip_key = chip_key.clone();
            let cooling_key = cooling_key.clone();
            let mut job_config = canon.as_map().cloned().unwrap_or_default();
            job_config.insert("job_chips".to_string(), Value::U64(n as u64));
            campaign.add(Job::new(
                format!("maxfreq-x{n}"),
                &Value::Map(job_config),
                move |_| {
                    let chip = chip_by_key(&chip_key).map_err(|e| e.message)?;
                    let cooling = cooling_by_key(&cooling_key).map_err(|e| e.message)?;
                    let design = CmpDesign::new(chip, n, cooling).with_grid(grid.0, grid.1);
                    let model = design.thermal_model().map_err(|e| e.to_string())?;
                    let mut out = BTreeMap::new();
                    out.insert("chips".to_string(), Value::U64(n as u64));
                    match max_frequency_with_model(&design, &model) {
                        Some(step) => {
                            out.insert("max_freq_ghz".to_string(), Value::F64(step.freq_ghz));
                            out.insert("voltage_v".to_string(), Value::F64(step.voltage_v));
                        }
                        None => {
                            out.insert("max_freq_ghz".to_string(), Value::Null);
                            out.insert("voltage_v".to_string(), Value::Null);
                        }
                    }
                    Ok(Value::Map(out))
                },
            ));
        }

        let opts = RunOptions {
            workers: 1,
            cache_dir: Some(self.dir.join(&id)),
            use_cache: true,
            retries: 1,
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            filter: None,
        };
        let entries_handle = Arc::clone(&self.entries);
        let thread_id = id.clone();
        // The detached runner is a task of a fork region so the
        // registry insert above happens-before everything it does; the
        // region is never joined (the thread may outlive the request).
        let san = sanitizer::fork();
        std::thread::spawn(move || {
            sanitizer::task_start(san);
            let counter = Arc::clone(&completed);
            let outcome = campaign.run(&opts, &move |ev| {
                if matches!(
                    ev,
                    immersion_campaign::Event::Finished { .. }
                        | immersion_campaign::Event::CacheHit { .. }
                ) {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            });
            let terminal = match outcome {
                Ok(report) if report.all_ok() => {
                    let mut m = BTreeMap::new();
                    m.insert("outputs".to_string(), Value::Map(report.outputs.clone()));
                    m.insert(
                        "cache_hits".to_string(),
                        Value::U64(report.cache_hits as u64),
                    );
                    m.insert("wall_ms".to_string(), Value::U64(report.wall_ms));
                    State::Done(Value::Map(m))
                }
                Ok(report) => State::Failed(format!(
                    "{} job(s) failed, {} skipped",
                    report.failed, report.skipped
                )),
                Err(e) => State::Failed(e.to_string()),
            };
            let mut entries = entries_handle
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            sanitizer::shared_write(
                "serve::CampaignRegistry.map",
                sanitizer::obj_id(&*entries_handle),
            );
            if let Some(status) = entries.get_mut(&thread_id) {
                status.state = terminal;
            }
            drop(entries);
            sanitizer::task_end(san);
        });

        let mut resp = BTreeMap::new();
        resp.insert("id".to_string(), Value::Str(id.clone()));
        resp.insert("jobs".to_string(), Value::U64(max_chips as u64));
        resp.insert("poll".to_string(), Value::Str(format!("/v1/campaign/{id}")));
        Ok(Value::Map(resp))
    }

    /// Handle `GET /v1/campaign/{id}`.
    pub fn status(&self, id: &str) -> Result<Value, ApiError> {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        sanitizer::shared_read(
            "serve::CampaignRegistry.map",
            sanitizer::obj_id(&*self.entries),
        );
        let status = entries
            .get(id)
            .ok_or_else(|| ApiError::not_found(format!("no campaign '{id}'")))?;
        let mut m = BTreeMap::new();
        m.insert("id".to_string(), Value::Str(id.to_string()));
        m.insert("jobs".to_string(), Value::U64(status.jobs as u64));
        m.insert(
            "completed".to_string(),
            Value::U64(status.completed.load(Ordering::Relaxed)),
        );
        match &status.state {
            State::Running => {
                m.insert("state".to_string(), Value::Str("running".to_string()));
            }
            State::Done(result) => {
                m.insert("state".to_string(), Value::Str("done".to_string()));
                m.insert("result".to_string(), result.clone());
            }
            State::Failed(err) => {
                m.insert("state".to_string(), Value::Str("failed".to_string()));
                m.insert("error".to_string(), Value::Str(err.clone()));
            }
        }
        Ok(Value::Map(m))
    }

    /// Ids known to the registry (insertion order).
    pub fn ids(&self) -> Vec<String> {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }
}
