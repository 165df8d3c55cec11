//! The shared key→model table: every key and alias resolves to the
//! model its constructor builds, unknown keys resolve to nothing, and
//! threads that race to make the first lookup all see the same models.
//!
//! This file is its own test binary, so the racing threads below make
//! the process's first lookups.

use immersion_power::chips::{
    chip_by_key, high_frequency_cmp, low_power_cmp, xeon_e5_2667v4, xeon_phi_7290, ChipModel,
};
use std::sync::Barrier;
use std::thread;

/// Every accepted key and alias, with the serialized model its
/// constructor builds. `ChipModel` has no `PartialEq`; its JSON form
/// holds every field.
fn expected() -> Vec<(&'static str, String)> {
    let json = |chip: ChipModel| serde_json::to_string(&chip).expect("chip serializes");
    vec![
        ("lp", json(low_power_cmp())),
        ("low-power", json(low_power_cmp())),
        ("hf", json(high_frequency_cmp())),
        ("high-frequency", json(high_frequency_cmp())),
        ("e5", json(xeon_e5_2667v4())),
        ("phi", json(xeon_phi_7290())),
    ]
}

#[test]
fn racing_first_lookups_agree_with_the_constructors() {
    const THREADS: usize = 4;
    let want = expected();
    let start = Barrier::new(THREADS);
    let seen: Vec<Vec<(&'static str, String)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (start, want) = (&start, &want);
                s.spawn(move || {
                    start.wait();
                    // Each thread walks the keys from a different one.
                    (0..want.len())
                        .map(|i| want[(i + t) % want.len()].0)
                        .map(|key| {
                            let chip = chip_by_key(key).expect("known key");
                            (key, serde_json::to_string(chip).expect("chip serializes"))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lookup thread"))
            .collect()
    });
    for got in seen {
        for (key, json) in got {
            let (_, want_json) = want.iter().find(|(k, _)| *k == key).expect("listed key");
            assert_eq!(&json, want_json, "{key}");
        }
    }
    // Every lookup of a key hands out the one shared model.
    for (key, _) in &want {
        assert!(std::ptr::eq(
            chip_by_key(key).unwrap(),
            chip_by_key(key).unwrap()
        ));
    }
}

#[test]
fn unknown_keys_resolve_to_nothing() {
    for key in ["", "486", "LP", "low_power", "hf ", "xeon"] {
        assert!(chip_by_key(key).is_none(), "{key:?}");
    }
}
