//! Regression tests for the fork-join pool: region lifetime, and pool
//! shutdown.
//!
//! A region lives on its opener's stack. The opener may return as soon
//! as it sees every chunk done and no helper left, so a helper must not
//! touch the region after the decrement that the opener waits on. Two
//! OS threads opening nested forking regions on a 2-wide pool make that
//! window hit often: a helper that writes into a returned opener's frame
//! corrupts whatever the frame holds next, which shows up as a wrong
//! sum, a panic, a SIGSEGV, or a lock that never comes free (caught by
//! the stall watchdog below).

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUNDS: u64 = 20_000;
const WIDTH: u64 = 4;
const STALL: Duration = Duration::from_secs(2);

/// Enough work per element that the pool's workers, not only the
/// opener, run chunks and exit regions.
fn work(x: u64) -> u64 {
    (0..200u64).fold(x, |acc, i| black_box(acc.wrapping_mul(31).wrapping_add(i))) & 0xffff
}

/// An outer region whose every chunk opens an inner region, both
/// forced to fork by a minimum chunk length of 1.
fn nested_sum(round: u64) -> u64 {
    (0..WIDTH)
        .into_par_iter()
        .with_min_len(1)
        .map(|i| {
            (0..WIDTH)
                .into_par_iter()
                .with_min_len(1)
                .map(|j| work(round + i * WIDTH + j))
                .sum::<u64>()
        })
        .sum()
}

fn expected_sum(round: u64) -> u64 {
    (0..WIDTH * WIDTH).map(|k| work(round + k)).sum()
}

#[test]
fn nested_regions_from_two_threads_outlive_their_helpers() {
    let pool = Arc::new(ThreadPoolBuilder::new().num_threads(2).build().unwrap());
    let rounds_done = Arc::new(AtomicU64::new(0));
    let openers: Vec<_> = (0..2)
        .map(|t| {
            let pool = Arc::clone(&pool);
            let rounds_done = Arc::clone(&rounds_done);
            std::thread::spawn(move || {
                pool.install(|| {
                    for round in 0..ROUNDS {
                        let r = round * 2 + t;
                        assert_eq!(nested_sum(r), expected_sum(r), "round {r}");
                        rounds_done.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
        })
        .collect();
    // Watchdog: a round takes microseconds, so a stall means a lock
    // that never came free.
    let (mut seen, mut since) = (0, Instant::now());
    while !openers.iter().all(|h| h.is_finished()) {
        std::thread::sleep(Duration::from_millis(20));
        let now = rounds_done.load(Ordering::Relaxed);
        if now != seen {
            (seen, since) = (now, Instant::now());
        }
        assert!(
            since.elapsed() < STALL,
            "no round finished for {STALL:?} after {seen} rounds: an opener hung"
        );
    }
    for opener in openers {
        opener.join().expect("an opener panicked");
    }
}

/// Dropping a pool must wake every idle worker. The shutdown flag and
/// its notification once could both land between a worker's flag check
/// and its wait, leaving that worker asleep and the drop's join hung.
/// Each short-lived pool below opens that window once per worker.
#[test]
fn dropping_pools_never_strands_a_worker() {
    const POOLS: usize = 3_000;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let dropper = std::thread::spawn(move || {
        for _ in 0..POOLS {
            let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
            let sum: u64 = pool.install(|| (0..64u64).into_par_iter().with_min_len(1).sum());
            assert_eq!(sum, 64 * 63 / 2);
        }
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(60)).is_ok(),
        "a pool drop hung joining its workers"
    );
    dropper.join().expect("the dropping thread panicked");
}
