//! The HTTP API surface: request schemas, the router, and the
//! batching + dedup request path.
//!
//! Every solve-shaped request travels the same pipeline:
//!
//! 1. **Canonicalise** the body into a sorted JSON map and hash it
//!    into a content key (`eval-<fnv64>` / `search-<fnv64>`).
//! 2. **Result store**: a valid entry for the key answers immediately
//!    (`source: "store"`), from the store's in-process index when this
//!    process has read the entry before; a poisoned entry is
//!    quarantined and falls through to recompute. Only the frequency
//!    is validated before this step, against the shared chip table: a
//!    hit builds no design and never touches the pool.
//! 3. **Single-flight**: identical bodies already being solved are
//!    joined, not re-solved (`source: "flight"`).
//! 4. **Leader path**: build the design, fetch (or build) its warm
//!    model from the bounded pool, solve with no locks held, persist
//!    to the store, publish to joiners (`source: "solved"`).
//!
//! Fault hooks: [`SERVE_PARSE`](faultsim::site::SERVE_PARSE) fires
//! before body parsing, [`SERVE_DISPATCH`](faultsim::site::SERVE_DISPATCH)
//! before a leader's solve, and the store write probes
//! [`SERVE_STORE`](faultsim::site::SERVE_STORE) internally. Each maps
//! an injected fault to a clean 5xx; a panic kind unwinds into
//! minihttp's `catch_unwind` (500) with the flight token's drop
//! publishing an error so joiners never hang.

use crate::campaigns::CampaignRegistry;
use crate::flight::{Entry, SingleFlight};
use crate::metrics::{InFlight, Metrics};
use crate::pool::ModelPool;
use crate::store::ResultStore;
use immersion_campaign::hash::fnv1a64;
use immersion_core::design::CmpDesign;
use immersion_core::explorer;
use immersion_faultsim::{self as faultsim, FaultKind};
use immersion_power::chips::{self, ChipModel};
use immersion_thermal::stack3d::CoolingParams;
use immersion_thermal::ThermalModel;
use minihttp::{Handler, Request, Response};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Hard cap on requested die-grid resolution (per axis): the service
/// bounds per-request cost, unlike the offline pipeline.
pub const MAX_GRID: usize = 32;

/// Hard cap on stack height (the paper studies 1–15).
pub const MAX_CHIPS: usize = 15;

/// Cap on the `delay_ms` test knob (documented; lets integration tests
/// hold a leader in flight while concurrent duplicates arrive).
pub const MAX_DELAY_MS: u64 = 2_000;

/// An API failure: status code plus a JSON-able message.
#[derive(Debug, Clone)]
pub struct ApiError {
    /// HTTP status.
    pub status: u16,
    /// Human-readable cause.
    pub message: String,
}

impl ApiError {
    /// 400.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            message: message.into(),
        }
    }

    /// 404.
    pub fn not_found(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 404,
            message: message.into(),
        }
    }

    /// 500.
    pub fn internal(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 500,
            message: message.into(),
        }
    }

    fn response(&self) -> Response {
        let mut body = BTreeMap::new();
        body.insert("error".to_string(), Value::Str(self.message.clone()));
        Response::json(
            self.status,
            serde_json::to_string(&Value::Map(body)).unwrap_or_else(|_| "{}".to_string()),
        )
    }
}

/// Everything a request handler can reach.
pub struct ServeState {
    /// Service counters.
    pub metrics: Metrics,
    /// Warm-model pool.
    pub pool: ModelPool,
    /// Single-flight dedup group.
    pub flight: Arc<SingleFlight>,
    /// Content-addressed result store.
    pub store: ResultStore,
    /// Async campaign registry.
    pub campaigns: CampaignRegistry,
}

/// One design point as the API accepts it.
#[derive(Debug, Clone)]
pub struct DesignSpec {
    /// Chip key (`lp|hf|e5|phi`).
    pub chip: String,
    /// Stack height.
    pub chips: usize,
    /// Cooling key (`air|pipe|oil|fc|water`).
    pub cooling: String,
    /// Die grid resolution.
    pub grid: (usize, usize),
    /// §4.2 flip layout.
    pub flip: bool,
    /// Leakage–temperature feedback.
    pub leakage_feedback: bool,
    /// Threshold override, °C.
    pub threshold: Option<f64>,
}

/// Resolve a chip key to the process-wide shared model, without
/// cloning it.
pub(crate) fn shared_chip(key: &str) -> Result<&'static ChipModel, ApiError> {
    chips::chip_by_key(key).ok_or_else(|| {
        ApiError::bad_request(format!("unknown chip '{key}' ({})", chips::CHIP_KEYS))
    })
}

/// Resolve a chip key to its model.
pub fn chip_by_key(key: &str) -> Result<ChipModel, ApiError> {
    shared_chip(key).cloned()
}

/// Resolve a cooling key to its parameters.
pub fn cooling_by_key(key: &str) -> Result<CoolingParams, ApiError> {
    CoolingParams::by_key(key).ok_or_else(|| {
        ApiError::bad_request(format!("unknown cooling '{key}' ({})", CoolingParams::KEYS))
    })
}

fn get_str(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_string)
}

fn get_usize(v: &Value, key: &str) -> Result<Option<usize>, ApiError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x.as_u64().map(|n| Some(n as usize)).ok_or_else(|| {
            ApiError::bad_request(format!("'{key}' must be a non-negative integer"))
        }),
    }
}

fn get_bool(v: &Value, key: &str) -> Result<bool, ApiError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(x) => x
            .as_bool()
            .ok_or_else(|| ApiError::bad_request(format!("'{key}' must be a boolean"))),
    }
}

fn get_f64(v: &Value, key: &str) -> Result<Option<f64>, ApiError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| ApiError::bad_request(format!("'{key}' must be a number"))),
    }
}

impl DesignSpec {
    /// Parse and validate a design from a JSON body.
    pub fn from_value(v: &Value) -> Result<DesignSpec, ApiError> {
        if v.as_map().is_none() {
            return Err(ApiError::bad_request("request body must be a JSON object"));
        }
        let chip = get_str(v, "chip")
            .ok_or_else(|| ApiError::bad_request("missing required field 'chip'"))?;
        shared_chip(&chip)?;
        let cooling = get_str(v, "cooling")
            .ok_or_else(|| ApiError::bad_request("missing required field 'cooling'"))?;
        cooling_by_key(&cooling)?;
        let chips = get_usize(v, "chips")?
            .ok_or_else(|| ApiError::bad_request("missing required field 'chips'"))?;
        if chips == 0 || chips > MAX_CHIPS {
            return Err(ApiError::bad_request(format!(
                "'chips' must be in 1..={MAX_CHIPS}"
            )));
        }
        let grid = match v.get("grid") {
            None | Some(Value::Null) => (8, 8),
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
            Some(_) => {
                return Err(ApiError::bad_request("'grid' must be a [nx, ny] pair"));
            }
        };
        Ok(DesignSpec {
            chip,
            chips,
            cooling,
            grid,
            flip: get_bool(v, "flip")?,
            leakage_feedback: get_bool(v, "leakage_feedback")?,
            threshold: get_f64(v, "threshold_c")?,
        })
    }

    /// The canonical JSON form: every field present, defaults filled
    /// in, keys sorted (the map is a `BTreeMap`). Hashing this makes
    /// semantically identical bodies collide regardless of spelling.
    pub fn canonical(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("chip".to_string(), Value::Str(self.chip.clone()));
        m.insert("chips".to_string(), Value::U64(self.chips as u64));
        m.insert("cooling".to_string(), Value::Str(self.cooling.clone()));
        m.insert(
            "grid".to_string(),
            Value::Seq(vec![
                Value::U64(self.grid.0 as u64),
                Value::U64(self.grid.1 as u64),
            ]),
        );
        m.insert("flip".to_string(), Value::Bool(self.flip));
        m.insert(
            "leakage_feedback".to_string(),
            Value::Bool(self.leakage_feedback),
        );
        m.insert(
            "threshold_c".to_string(),
            match self.threshold {
                Some(t) => Value::F64(t),
                None => Value::Null,
            },
        );
        Value::Map(m)
    }

    /// The pool key: the canonical design serialized *minus*
    /// `threshold_c`. The thermal model depends only on geometry and
    /// cooling — requests that differ only in frequency or threshold
    /// share a warm model, so threshold sweeps don't thrash the LRU.
    pub fn pool_key(&self) -> String {
        let canon = self.canonical();
        let mut m = canon.as_map().cloned().unwrap_or_default();
        m.remove("threshold_c");
        serde_json::to_string(&Value::Map(m)).unwrap_or_else(|_| format!("{self:?}"))
    }

    /// Build the design point.
    pub fn design(&self) -> Result<CmpDesign, ApiError> {
        let chip = chip_by_key(&self.chip)?;
        let cooling = cooling_by_key(&self.cooling)?;
        let mut d = CmpDesign::new(chip, self.chips, cooling)
            .with_grid(self.grid.0, self.grid.1)
            .with_flip(self.flip)
            .with_leakage_feedback(self.leakage_feedback);
        if let Some(t) = self.threshold {
            d = d.with_threshold(t);
        }
        Ok(d)
    }
}

/// The content key for a canonical body under an endpoint namespace.
pub fn content_key(namespace: &str, canonical: &Value) -> String {
    let json = serde_json::to_string(canonical).unwrap_or_default();
    format!("{namespace}-{:016x}", fnv1a64(json.as_bytes()))
}

/// Fetch the warm model for `spec` from the pool, building it outside
/// any lock on a miss.
fn pooled_model(state: &ServeState, spec: &DesignSpec) -> Result<Arc<ThermalModel>, ApiError> {
    let key = spec.pool_key();
    if let Some(model) = state.pool.get(&key) {
        state.metrics.pool_hits.fetch_add(1, Ordering::Relaxed);
        return Ok(model);
    }
    let built = spec
        .design()?
        .thermal_model()
        .map_err(|e| ApiError::internal(format!("model build failed: {e}")))?;
    state.metrics.pool_builds.fetch_add(1, Ordering::Relaxed);
    Ok(state.pool.admit(&key, built))
}

/// Where a response came from.
fn with_source(result: &Value, source: &str) -> Value {
    let mut m = BTreeMap::new();
    m.insert("source".to_string(), Value::Str(source.to_string()));
    m.insert("result".to_string(), result.clone());
    Value::Map(m)
}

/// The shared solve pipeline: store lookup, single-flight, leader
/// solve + store write. `compute` runs only on the leader, with no
/// locks held.
fn solve_deduped(
    state: &ServeState,
    namespace: &str,
    canonical: Value,
    delay_ms: u64,
    compute: impl FnOnce() -> Result<Value, ApiError>,
) -> Result<Value, ApiError> {
    let key = content_key(namespace, &canonical);
    if let Some(entry) = state.store.get(&key) {
        state.metrics.store_hits.fetch_add(1, Ordering::Relaxed);
        return Ok(with_source(&entry.output, "store"));
    }
    let token = match state.flight.enter(&state.flight, &key) {
        Entry::Joined(Ok(json)) => {
            state.metrics.flight_joins.fetch_add(1, Ordering::Relaxed);
            let value: Value = serde_json::from_str(&json)
                .map_err(|e| ApiError::internal(format!("flight payload unparsable: {e}")))?;
            return Ok(with_source(&value, "flight"));
        }
        Entry::Joined(Err(msg)) => {
            return Err(ApiError::internal(format!("joined flight failed: {msg}")));
        }
        Entry::Leader(token) => token,
    };
    // Double-check the store under leadership: a previous leader may
    // have published and retired its flight between this request's
    // first lookup and its `enter`. Without this, that window would
    // re-solve an already-stored body and break the "one solve per
    // distinct body" accounting the load test replays bit-for-bit.
    if let Some(entry) = state.store.get(&key) {
        state.metrics.store_hits.fetch_add(1, Ordering::Relaxed);
        let json = serde_json::to_string(&entry.output)
            .map_err(|e| ApiError::internal(format!("stored result unserializable: {e}")))?;
        token.publish(Ok(Arc::new(json)));
        return Ok(with_source(&entry.output, "store"));
    }
    // Batch-dispatch fault hook: a panic kind unwinds (the token's
    // drop publishes a clean error to any joiners); everything else
    // fails this request — and its joiners — with a clean 5xx.
    if let Some(kind) = faultsim::probe(faultsim::site::SERVE_DISPATCH) {
        if kind == FaultKind::Panic {
            faultsim::panic_now(faultsim::site::SERVE_DISPATCH);
        }
        let msg = format!(
            "injected {} at {}",
            kind.name(),
            faultsim::site::SERVE_DISPATCH
        );
        token.publish(Err(msg.clone()));
        return Err(ApiError::internal(msg));
    }
    if delay_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(delay_ms.min(MAX_DELAY_MS)));
    }
    let started = Instant::now(); // lint: wall-clock-ok
    let output = match compute() {
        Ok(v) => v,
        Err(e) => {
            token.publish(Err(e.message.clone()));
            return Err(e);
        }
    };
    state.metrics.solves_total.fetch_add(1, Ordering::Relaxed);
    let wall_ms = started.elapsed().as_millis() as u64;
    if let Err(e) = state
        .store
        .store(&key, namespace, canonical, output.clone(), wall_ms)
    {
        state.metrics.store_errors.fetch_add(1, Ordering::Relaxed);
        let msg = format!("result store write failed: {e}");
        token.publish(Err(msg.clone()));
        return Err(ApiError::internal(msg));
    }
    let json = serde_json::to_string(&output)
        .map_err(|e| ApiError::internal(format!("result unserializable: {e}")))?;
    let joined = token.publish(Ok(Arc::new(json)));
    state.metrics.observe_batch(1 + joined);
    Ok(with_source(&output, "solved"))
}

fn parse_body(req: &Request) -> Result<Value, ApiError> {
    // Request-parse fault hook: first thing the body path touches.
    if let Some(kind) = faultsim::probe(faultsim::site::SERVE_PARSE) {
        if kind == FaultKind::Panic {
            faultsim::panic_now(faultsim::site::SERVE_PARSE);
        }
        return Err(ApiError::internal(format!(
            "injected {} at {}",
            kind.name(),
            faultsim::site::SERVE_PARSE
        )));
    }
    let text = req
        .body_str()
        .ok_or_else(|| ApiError::bad_request("body is not UTF-8"))?;
    serde_json::from_str(text).map_err(|e| ApiError::bad_request(format!("malformed JSON: {e}")))
}

fn delay_of(body: &Value) -> Result<u64, ApiError> {
    match body.get("delay_ms") {
        None | Some(Value::Null) => Ok(0),
        Some(v) => v
            .as_u64()
            .map(|d| d.min(MAX_DELAY_MS))
            .ok_or_else(|| ApiError::bad_request("'delay_ms' must be a non-negative integer")),
    }
}

/// `POST /v1/evaluate`: one design-point thermal solve.
fn evaluate(state: &ServeState, req: &Request) -> Result<Value, ApiError> {
    let body = parse_body(req)?;
    let spec = DesignSpec::from_value(&body)?;
    let freq_ghz = get_f64(&body, "freq_ghz")?;
    let delay_ms = delay_of(&body)?;
    let mut canonical = spec.canonical();
    if let Value::Map(m) = &mut canonical {
        m.insert(
            "freq_ghz".to_string(),
            match freq_ghz {
                Some(f) => Value::F64(f),
                None => Value::Null,
            },
        );
    }
    let vfs = &shared_chip(&spec.chip)?.vfs;
    let step = match freq_ghz {
        Some(f) => vfs.step_at_or_below(f).ok_or_else(|| {
            ApiError::bad_request(format!("freq {f} GHz is below the chip's VFS table"))
        })?,
        None => vfs.max_step(),
    };
    solve_deduped(state, "eval", canonical, delay_ms, move || {
        let design = spec.design()?;
        let model = pooled_model(state, &spec)?;
        let sol = explorer::solve_at(&design, &model, step, None)
            .map_err(|e| ApiError::internal(format!("solve failed: {e}")))?;
        let peak = sol.die_max();
        let threshold = design.threshold();
        let mut r = BTreeMap::new();
        r.insert("peak_c".to_string(), Value::F64(peak));
        r.insert("threshold_c".to_string(), Value::F64(threshold));
        r.insert("feasible".to_string(), Value::Bool(peak <= threshold));
        let mut s = BTreeMap::new();
        s.insert("freq_ghz".to_string(), Value::F64(step.freq_ghz));
        s.insert("voltage_v".to_string(), Value::F64(step.voltage_v));
        r.insert("step".to_string(), Value::Map(s));
        Ok(Value::Map(r))
    })
}

/// `POST /v1/search`: explorer frequency search over the design.
fn search(state: &ServeState, req: &Request) -> Result<Value, ApiError> {
    let body = parse_body(req)?;
    let spec = DesignSpec::from_value(&body)?;
    let delay_ms = delay_of(&body)?;
    let canonical = spec.canonical();
    solve_deduped(state, "search", canonical, delay_ms, move || {
        let design = spec.design()?;
        let model = pooled_model(state, &spec)?;
        let (best, stats) = explorer::max_frequency_searched(&design, &model, true);
        let mut r = BTreeMap::new();
        r.insert("feasible".to_string(), Value::Bool(best.is_some()));
        match best {
            Some(step) => {
                r.insert("max_freq_ghz".to_string(), Value::F64(step.freq_ghz));
                r.insert("voltage_v".to_string(), Value::F64(step.voltage_v));
            }
            None => {
                r.insert("max_freq_ghz".to_string(), Value::Null);
                r.insert("voltage_v".to_string(), Value::Null);
            }
        }
        // Probe count is a structural property of the binary search —
        // deterministic — unlike solve/iteration counts, which depend
        // on warm state and stay out of the stored payload.
        r.insert("probes".to_string(), Value::U64(stats.probes as u64));
        Ok(Value::Map(r))
    })
}

/// `GET /metrics`: counters plus pool occupancy, as text.
fn metrics_text(state: &ServeState) -> String {
    let mut out = state.metrics.render_text();
    out.push_str(&format!("serve_pool_size {}\n", state.pool.len()));
    out.push_str(&format!(
        "serve_pool_evictions {}\n",
        state.pool.evictions()
    ));
    out.push_str(&format!("serve_store_entries {}\n", state.store.len()));
    out.push_str(&format!(
        "serve_store_quarantined {}\n",
        state.store.quarantined()
    ));
    for s in state.pool.shapes() {
        out.push_str(&format!(
            "serve_pool_shape_dim_{}_nnz_{}_entries {}\n",
            s.dim, s.nnz, s.entries
        ));
        out.push_str(&format!(
            "serve_pool_shape_dim_{}_nnz_{}_reuses {}\n",
            s.dim, s.nnz, s.reuses
        ));
    }
    out
}

fn json_ok(value: Value) -> Response {
    Response::json(
        200,
        serde_json::to_string(&value).unwrap_or_else(|_| "{}".to_string()),
    )
}

fn route(state: &ServeState, req: &Request) -> Response {
    let (path, _query) = req.path_and_query();
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            let mut m = BTreeMap::new();
            m.insert("status".to_string(), Value::Str("ok".to_string()));
            json_ok(Value::Map(m))
        }
        ("GET", "/metrics") => Response::text(200, metrics_text(state)),
        ("POST", "/v1/evaluate") => match evaluate(state, req) {
            Ok(v) => json_ok(v),
            Err(e) => e.response(),
        },
        ("POST", "/v1/search") => match search(state, req) {
            Ok(v) => json_ok(v),
            Err(e) => e.response(),
        },
        ("POST", "/v1/campaign") => {
            match parse_body(req).and_then(|body| state.campaigns.submit(&state.metrics, &body)) {
                Ok(v) => Response::json(
                    202,
                    serde_json::to_string(&v).unwrap_or_else(|_| "{}".to_string()),
                ),
                Err(e) => e.response(),
            }
        }
        ("GET", p) if p.starts_with("/v1/campaign/") => {
            let id = &p["/v1/campaign/".len()..];
            match state.campaigns.status(id) {
                Ok(v) => json_ok(v),
                Err(e) => e.response(),
            }
        }
        (_, p) => ApiError::not_found(format!("no route for {} {p}", req.method)).response(),
    }
}

/// Build the minihttp handler: routing wrapped in request accounting
/// (request counter, in-flight gauge, latency histogram, status
/// classes).
pub fn handler(state: Arc<ServeState>) -> Handler {
    Arc::new(move |req: &Request| {
        state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        let _in_flight = InFlight::enter(&state.metrics);
        let started = Instant::now(); // lint: wall-clock-ok
        let resp = route(&state, req);
        state
            .metrics
            .latency
            .observe_us(started.elapsed().as_micros() as u64);
        state.metrics.observe_status(resp.status);
        resp
    })
}

/// The accept gate: probes [`SERVE_ACCEPT`](faultsim::site::SERVE_ACCEPT)
/// once per incoming connection. Any armed fault refuses the
/// connection with a clean 503 — the gate runs on the acceptor thread,
/// where unwinding is never an option.
pub fn accept_gate() -> minihttp::AcceptGate {
    Arc::new(|| match faultsim::probe(faultsim::site::SERVE_ACCEPT) {
        None => Ok(()),
        Some(kind) => Err(format!(
            "injected {} at {}",
            kind.name(),
            faultsim::site::SERVE_ACCEPT
        )),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_spec_validates_and_canonicalises() {
        let body: Value =
            serde_json::from_str(r#"{"chip":"lp","chips":2,"cooling":"water"}"#).unwrap();
        let spec = DesignSpec::from_value(&body).unwrap();
        assert_eq!(spec.grid, (8, 8));
        assert!(!spec.flip);
        let canon = serde_json::to_string(&spec.canonical()).unwrap();
        // Defaults are materialised so spelling variants hash equally.
        assert!(canon.contains("\"grid\":[8,8]"), "{canon}");
        assert!(canon.contains("\"threshold_c\":null"), "{canon}");
    }

    #[test]
    fn equivalent_bodies_share_a_content_key() {
        let a: Value =
            serde_json::from_str(r#"{"chip":"lp","chips":2,"cooling":"water"}"#).unwrap();
        let b: Value = serde_json::from_str(
            r#"{"cooling":"water","chips":2,"chip":"lp","grid":[8,8],"flip":false}"#,
        )
        .unwrap();
        let ka = content_key("eval", &DesignSpec::from_value(&a).unwrap().canonical());
        let kb = content_key("eval", &DesignSpec::from_value(&b).unwrap().canonical());
        assert_eq!(ka, kb);
        let ks = content_key("search", &DesignSpec::from_value(&a).unwrap().canonical());
        assert_ne!(ka, ks, "endpoints namespace their keys");
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            r#"{"chips":2,"cooling":"water"}"#,
            r#"{"chip":"nope","chips":2,"cooling":"water"}"#,
            r#"{"chip":"lp","chips":0,"cooling":"water"}"#,
            r#"{"chip":"lp","chips":2,"cooling":"steam"}"#,
            r#"{"chip":"lp","chips":2,"cooling":"water","grid":[1,64]}"#,
            r#"{"chip":"lp","chips":2,"cooling":"water","grid":"big"}"#,
        ] {
            let v: Value = serde_json::from_str(bad).unwrap();
            let err = DesignSpec::from_value(&v).expect_err(bad);
            assert_eq!(err.status, 400, "{bad}");
        }
    }
}
