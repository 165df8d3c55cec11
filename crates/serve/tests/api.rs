//! Loopback integration tests for the `watercool serve` API surface:
//! real sockets, real worker threads, the full store → flight → pool
//! pipeline. Each test boots its own server on an ephemeral port with
//! a private state directory, so tests parallelise freely.

use immersion_serve::{start, Running, ServeConfig};
use serde_json::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Boot a server with a fresh, test-private state directory.
fn boot(tag: &str, threads: usize) -> (Running, PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "watercool-apitest-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let running = start(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        state_dir: Some(dir.clone()),
        pool_capacity: 8,
    })
    .expect("bind ephemeral port");
    (running, dir)
}

fn client(running: &Running) -> minihttp::Client {
    minihttp::Client::new(running.addr().to_string())
}

fn post(c: &mut minihttp::Client, path: &str, body: &str) -> (u16, Value) {
    let resp = c.send("POST", path, body.as_bytes()).expect("round trip");
    let v: Value = serde_json::from_str(&resp.text())
        .unwrap_or_else(|e| panic!("non-JSON body ({e}): {}", resp.text()));
    (resp.status, v)
}

fn get_text(c: &mut minihttp::Client, path: &str) -> (u16, String) {
    let resp = c.send("GET", path, b"").expect("round trip");
    (resp.status, resp.text())
}

/// Parse `name value` out of the /metrics text exposition.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.trim().parse().ok()))
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
}

const LP_WATER: &str = r#"{"chip":"lp","chips":2,"cooling":"water","grid":[4,4]}"#;

#[test]
fn evaluate_round_trips_and_second_hit_comes_from_store() {
    let (running, dir) = boot("eval", 2);
    let mut c = client(&running);

    let (status, v) = post(&mut c, "/v1/evaluate", LP_WATER);
    assert_eq!(status, 200, "{v:?}");
    assert_eq!(v.get("source").and_then(Value::as_str), Some("solved"));
    let result = v.get("result").expect("result field");
    assert!(result.get("peak_c").and_then(Value::as_f64).is_some());
    assert!(result.get("feasible").and_then(Value::as_bool).is_some());
    let step = result.get("step").expect("step field");
    assert!(step.get("freq_ghz").and_then(Value::as_f64).is_some());

    // Identical body again: answered from the result store, and the
    // stored result is byte-equal to the solved one.
    let (status2, v2) = post(&mut c, "/v1/evaluate", LP_WATER);
    assert_eq!(status2, 200);
    assert_eq!(v2.get("source").and_then(Value::as_str), Some("store"));
    assert_eq!(v2.get("result"), v.get("result"));

    let (_, m) = get_text(&mut c, "/metrics");
    assert_eq!(metric(&m, "serve_solves_total"), 1);
    assert_eq!(metric(&m, "serve_store_hits"), 1);

    running.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_repeated_body_is_answered_without_touching_the_model_pool() {
    let (running, dir) = boot("repeat", 1);
    let mut c = client(&running);
    for path in ["/v1/evaluate", "/v1/search"] {
        let (status, v) = post(&mut c, path, LP_WATER);
        assert_eq!(status, 200, "{v:?}");
        assert_eq!(v.get("source").and_then(Value::as_str), Some("solved"));
    }
    let (_, before) = get_text(&mut c, "/metrics");
    for _ in 0..3 {
        for path in ["/v1/evaluate", "/v1/search"] {
            let (status, v) = post(&mut c, path, LP_WATER);
            assert_eq!(status, 200, "{v:?}");
            assert_eq!(v.get("source").and_then(Value::as_str), Some("store"));
        }
    }
    let (_, after) = get_text(&mut c, "/metrics");
    for name in ["serve_pool_hits", "serve_pool_builds", "serve_solves_total"] {
        assert_eq!(metric(&after, name), metric(&before, name), "{name}");
    }
    assert_eq!(metric(&after, "serve_store_hits"), 6);

    running.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_frequency_below_the_vfs_table_is_a_400_before_the_store_is_read() {
    let (running, dir) = boot("lowfreq", 1);
    let mut c = client(&running);
    let body = r#"{"chip":"lp","chips":2,"cooling":"water","grid":[4,4],"freq_ghz":0.01}"#;
    for _ in 0..2 {
        let (status, v) = post(&mut c, "/v1/evaluate", body);
        assert_eq!(status, 400, "{v:?}");
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("freq 0.01 GHz is below the chip's VFS table")
        );
    }
    let (_, m) = get_text(&mut c, "/metrics");
    assert_eq!(metric(&m, "serve_solves_total"), 0);
    assert_eq!(metric(&m, "serve_pool_builds"), 0);
    assert_eq!(metric(&m, "serve_store_entries"), 0);

    running.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn search_round_trips_with_a_feasible_step() {
    let (running, dir) = boot("search", 2);
    let mut c = client(&running);

    let (status, v) = post(&mut c, "/v1/search", LP_WATER);
    assert_eq!(status, 200, "{v:?}");
    let result = v.get("result").expect("result field");
    assert_eq!(result.get("feasible").and_then(Value::as_bool), Some(true));
    assert!(result.get("max_freq_ghz").and_then(Value::as_f64).is_some());
    assert!(result.get("probes").and_then(Value::as_u64).is_some());

    running.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn malformed_and_invalid_bodies_get_clean_400s() {
    let (running, dir) = boot("badbody", 1);
    let mut c = client(&running);

    for (path, body) in [
        ("/v1/evaluate", "{not json"),
        ("/v1/evaluate", r#"{"chip":"lp"}"#),
        (
            "/v1/evaluate",
            r#"{"chip":"lp","chips":2,"cooling":"steam"}"#,
        ),
        ("/v1/search", "[1,2,3"),
        ("/v1/campaign", r#"{"chip":"lp","cooling":"water"}"#),
    ] {
        let (status, v) = post(&mut c, path, body);
        assert_eq!(status, 400, "{path} {body} -> {v:?}");
        assert!(v.get("error").and_then(Value::as_str).is_some(), "{v:?}");
    }

    // Errors must not have touched the solver path.
    let (_, m) = get_text(&mut c, "/metrics");
    assert_eq!(metric(&m, "serve_solves_total"), 0);
    assert_eq!(metric(&m, "serve_responses_4xx"), 5);

    running.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn unknown_chip_and_cooling_keys_get_their_exact_400_text() {
    let (running, dir) = boot("badkeys", 1);
    let mut c = client(&running);

    for (path, body, want) in [
        (
            "/v1/evaluate",
            r#"{"chip":"486","chips":2,"cooling":"water"}"#,
            "unknown chip '486' (lp|hf|e5|phi)",
        ),
        (
            "/v1/search",
            r#"{"chip":"lp","chips":2,"cooling":"lava"}"#,
            "unknown cooling 'lava' (air|pipe|oil|fc|water)",
        ),
        (
            "/v1/campaign",
            r#"{"chip":"486","cooling":"water","max_chips":2}"#,
            "unknown chip '486' (lp|hf|e5|phi)",
        ),
        (
            "/v1/campaign",
            r#"{"chip":"hf","cooling":"lava","max_chips":2}"#,
            "unknown cooling 'lava' (air|pipe|oil|fc|water)",
        ),
    ] {
        let (status, v) = post(&mut c, path, body);
        assert_eq!(status, 400, "{path} {body} -> {v:?}");
        assert_eq!(v.get("error").and_then(Value::as_str), Some(want), "{body}");
    }

    running.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn unknown_routes_are_404() {
    let (running, dir) = boot("routes", 1);
    let mut c = client(&running);
    let (status, text) = get_text(&mut c, "/v1/nope");
    assert_eq!(status, 404, "{text}");
    let (status, _) = get_text(&mut c, "/healthz");
    assert_eq!(status, 200);
    running.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// The single-flight satellite: N concurrent identical requests must
/// produce exactly one solve. The leader holds its solve open with the
/// documented `delay_ms` knob while the duplicates arrive.
#[test]
fn concurrent_identical_requests_solve_exactly_once() {
    let (running, dir) = boot("dedup", 4);
    let addr = running.addr().to_string();

    // All four threads post the same body (delay_ms is excluded from
    // the content key, but identical bodies make that irrelevant).
    let body = r#"{"chip":"lp","chips":2,"cooling":"water","grid":[4,4],"delay_ms":800}"#;
    let leader = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = minihttp::Client::new(addr);
            post(&mut c, "/v1/evaluate", body)
        })
    };
    // Give the leader a head start into its 800 ms dispatch window.
    std::thread::sleep(Duration::from_millis(150));
    let followers: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = minihttp::Client::new(addr);
                post(&mut c, "/v1/evaluate", body)
            })
        })
        .collect();

    let (status, lead_v) = leader.join().expect("leader thread");
    assert_eq!(status, 200, "{lead_v:?}");
    assert_eq!(lead_v.get("source").and_then(Value::as_str), Some("solved"));
    for f in followers {
        let (status, v) = f.join().expect("follower thread");
        assert_eq!(status, 200, "{v:?}");
        // Followers joined the flight or hit the store — never solved.
        let source = v.get("source").and_then(Value::as_str);
        assert!(
            source == Some("flight") || source == Some("store"),
            "follower source {source:?}"
        );
        assert_eq!(v.get("result"), lead_v.get("result"));
    }

    let mut c = client(&running);
    let (_, m) = get_text(&mut c, "/metrics");
    assert_eq!(metric(&m, "serve_solves_total"), 1, "\n{m}");
    assert_eq!(
        metric(&m, "serve_flight_joins") + metric(&m, "serve_store_hits"),
        3,
        "\n{m}"
    );

    running.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// Concurrent clients hammering a small body palette: responses for
/// the same body are identical across clients, and the solve count
/// equals the number of distinct bodies regardless of interleaving.
#[test]
fn concurrent_clients_agree_and_solves_match_distinct_bodies() {
    let (running, dir) = boot("determinism", 4);
    let addr = running.addr().to_string();

    let bodies: [&str; 3] = [
        r#"{"chip":"lp","chips":1,"cooling":"water","grid":[4,4]}"#,
        r#"{"chip":"lp","chips":2,"cooling":"oil","grid":[4,4]}"#,
        r#"{"chip":"hf","chips":1,"cooling":"water","grid":[4,4]}"#,
    ];
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = minihttp::Client::new(addr);
                bodies.map(|b| post(&mut c, "/v1/evaluate", b))
            })
        })
        .collect();
    let per_client: Vec<[(u16, Value); 3]> = handles
        .into_iter()
        .map(|h| h.join().expect("client"))
        .collect();

    for round in &per_client {
        for (i, (status, v)) in round.iter().enumerate() {
            assert_eq!(*status, 200, "body {i}: {v:?}");
            assert_eq!(
                v.get("result"),
                per_client[0][i].1.get("result"),
                "body {i} diverged across clients"
            );
        }
    }

    let mut c = client(&running);
    let (_, m) = get_text(&mut c, "/metrics");
    assert_eq!(
        metric(&m, "serve_solves_total"),
        bodies.len() as u64,
        "\n{m}"
    );
    assert_eq!(metric(&m, "serve_responses_5xx"), 0, "\n{m}");

    running.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn campaign_submits_polls_and_completes() {
    let (running, dir) = boot("campaign", 2);
    let mut c = client(&running);

    let (status, v) = post(
        &mut c,
        "/v1/campaign",
        r#"{"chip":"lp","cooling":"water","max_chips":2,"grid":[4,4]}"#,
    );
    assert_eq!(status, 202, "{v:?}");
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .expect("campaign id")
        .to_string();
    assert_eq!(
        v.get("poll").and_then(Value::as_str),
        Some(format!("/v1/campaign/{id}").as_str())
    );

    let deadline = Instant::now() + Duration::from_secs(60);
    let done = loop {
        let (status, text) = get_text(&mut c, &format!("/v1/campaign/{id}"));
        assert_eq!(status, 200, "{text}");
        let s: Value = serde_json::from_str(&text).expect("status JSON");
        match s.get("state").and_then(Value::as_str) {
            Some("done") => break s,
            Some("failed") => panic!("campaign failed: {text}"),
            _ => {
                assert!(Instant::now() < deadline, "campaign timed out: {text}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    assert!(done.get("result").is_some(), "{done:?}");

    let (status, text) = get_text(&mut c, "/v1/campaign/nope");
    assert_eq!(status, 404, "{text}");

    running.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// The full request sequence of this test, run against a private
/// server; returns every `(status, body)` in a deterministic order so
/// two runs can be compared byte-for-byte.
fn sanitizer_probe_sequence(tag: &str) -> Vec<(u16, String)> {
    let (running, dir) = boot(tag, 3);
    let addr = running.addr().to_string();
    let mut c = client(&running);
    let mut out = Vec::new();

    // Sequential: solve, then the byte-equal store hit.
    for _ in 0..2 {
        let resp = c
            .send("POST", "/v1/evaluate", LP_WATER.as_bytes())
            .expect("round trip");
        out.push((resp.status, resp.text()));
    }

    // Concurrent clients on distinct grids: every body is unique, so
    // each response is an independent fresh solve regardless of the
    // schedule, and the set is deterministic once ordered by grid.
    let mut handles = Vec::new();
    for grid in [5u32, 6, 7] {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut c = minihttp::Client::new(addr);
            let body =
                format!(r#"{{"chip":"lp","chips":2,"cooling":"water","grid":[{grid},{grid}]}}"#);
            let resp = c
                .send("POST", "/v1/evaluate", body.as_bytes())
                .expect("round trip");
            (resp.status, resp.text())
        }));
    }
    for h in handles {
        out.push(h.join().expect("client thread"));
    }

    running.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// Satellite of the concurrency-sanitizer work: the identical request
/// sequence, once disarmed and once under the armed sanitizer, must
/// produce byte-identical responses and a race-free report.
#[test]
fn sanitizer_armed_run_is_race_free_and_identical_to_disarmed() {
    let baseline = sanitizer_probe_sequence("san-off");

    let armed = immersion_core::sanitizer::install();
    let observed = sanitizer_probe_sequence("san-on");
    let report = armed.finish();

    assert!(
        report.races.is_empty(),
        "sanitizer races during armed serve run: {:?}",
        report.races
    );
    assert_eq!(baseline, observed, "armed run changed observable behaviour");
}
