//! Pins every `ExecStats` field of the nine NPB benchmarks at three
//! design points to values recorded from the simulator and checked in.
//!
//! The NPB CSVs print only a few fields, rounded; this test also
//! catches drift in the ones they never print (`noc.contention_ps`,
//! the latency percentiles, ...). Floats are compared bit for bit.
//! A change that is meant to move the simulator's output re-records
//! the table with
//! `cargo test --release -p immersion-archsim --test exec_stats_pin -- --ignored --nocapture`.

use immersion_archsim::{ExecStats, System, SystemConfig};
use immersion_npb::{Benchmark, TraceGenerator};

/// Ops per thread: long enough to fill L1s, evict and recall L2 lines
/// and contend on links, short enough for a debug-mode test run.
const OPS: u64 = 3_000;
const SEED: u64 = 42;

/// The design points: (chips, GHz, prefetcher on).
const POINTS: [(usize, f64, bool); 3] = [(1, 2.0, false), (2, 2.0, true), (8, 1.3, false)];

/// The field names, in the order [`fields`] lists them.
const NAMES: [&str; 18] = [
    "exec_time_secs",
    "cycles",
    "instructions",
    "mem_ops",
    "l1_miss_rate",
    "l2_hit_rate",
    "dram_accesses",
    "avg_miss_latency_ns",
    "barrier_fraction",
    "noc.packets",
    "noc.hops",
    "noc.flit_hops",
    "noc.contention_ps",
    "noc.vertical_hops",
    "ipc",
    "prefetches",
    "p50_miss_latency_ns",
    "p99_miss_latency_ns",
];

/// Every field of `s` as a `u64`; floats as their bits.
fn fields(s: &ExecStats) -> [u64; 18] {
    [
        s.exec_time_secs.to_bits(),
        s.cycles,
        s.instructions,
        s.mem_ops,
        s.l1_miss_rate.to_bits(),
        s.l2_hit_rate.to_bits(),
        s.dram_accesses,
        s.avg_miss_latency_ns.to_bits(),
        s.barrier_fraction.to_bits(),
        s.noc.packets,
        s.noc.hops,
        s.noc.flit_hops,
        s.noc.contention_ps,
        s.noc.vertical_hops,
        s.ipc.to_bits(),
        s.prefetches,
        s.p50_miss_latency_ns,
        s.p99_miss_latency_ns,
    ]
}

/// The statistics of every (point, benchmark) pair, points outermost,
/// benchmarks in [`Benchmark::all`] order.
fn simulate_all() -> Vec<(String, ExecStats)> {
    let mut out = Vec::new();
    for (chips, ghz, prefetch) in POINTS {
        let mut cfg = SystemConfig::baseline(chips, ghz);
        cfg.prefetch_next_line = prefetch;
        for bench in Benchmark::all() {
            let gen = TraceGenerator::new(bench.descriptor(), cfg.threads(), OPS, SEED);
            let label = format!("{bench:?} {chips} chip(s) {ghz} GHz prefetch={prefetch}");
            out.push((label, System::new(cfg).run(&gen)));
        }
    }
    out
}

#[test]
fn exec_stats_match_the_pinned_values() {
    let runs = simulate_all();
    assert_eq!(runs.len(), PINNED.len());
    let mut diffs = Vec::new();
    for ((label, stats), want) in runs.iter().zip(PINNED.iter()) {
        for ((name, got), want) in NAMES.iter().zip(fields(stats)).zip(want) {
            if got != *want {
                diffs.push(format!("{label}: {name} = {got:#x}, pinned {want:#x}"));
            }
        }
    }
    assert!(diffs.is_empty(), "ExecStats drifted:\n{}", diffs.join("\n"));
}

/// Prints [`PINNED`] as Rust source from the current simulator.
#[test]
#[ignore = "re-records the pinned table; run on purpose only"]
fn print_pinned_table() {
    println!("const PINNED: [[u64; 18]; {}] = [", POINTS.len() * 9);
    for (label, stats) in simulate_all() {
        println!("    // {label}");
        let row: Vec<String> = fields(&stats).iter().map(|v| format!("{v:#x}")).collect();
        println!("    [{}],", row.join(", "));
    }
    println!("];");
}

#[rustfmt::skip]
const PINNED: [[u64; 18]; 27] = [
    // Bt 1 chip(s) 2 GHz prefetch=false
    [0x3f1cb7c6ab4a9c06, 0x357dc, 0x2ee0, 0x105d, 0x3fefcd278a2cdb45, 0x3fe000fd1887f0ad, 0x102e, 0x4059899dbb7edcc4, 0x3f90308805b87703, 0x20bc, 0x69fb, 0x13c6b, 0x58228, 0x0, 0x3f8c0abfda9c5587, 0x0, 0x40, 0x40],
    // Cg 1 chip(s) 2 GHz prefetch=false
    [0x3f265579509b4563, 0x53334, 0x2ee0, 0x1c21, 0x3fee98831c5576b4, 0x3fe08ba3d8e5c6f5, 0x17f6, 0x405780c7e4561d39, 0x3fa53ebcbb456d09, 0x3d40, 0xc299, 0x21561, 0x26e120, 0x0, 0x3f82075fb018a9d5, 0x0, 0x40, 0x40],
    // Ep 1 chip(s) 2 GHz prefetch=false
    [0x3efdf59a87916a87, 0xdf37, 0x2ee0, 0x4a0, 0x3febbacf914c1bad, 0x3fe0000000000000, 0x402, 0x4059d216f485bd22, 0x3f9495e68244e4ad, 0x80c, 0x1a14, 0x4e24, 0xc92c0, 0x0, 0x3faae14346a76636, 0x0, 0x40, 0x40],
    // Ft 1 chip(s) 2 GHz prefetch=false
    [0x3f20d5835d4abc6f, 0x3eb63, 0x2ee0, 0x1548, 0x3fef99c0180f0966, 0x3fe02e62e62e62e6, 0x1213, 0x40571cecc6b59446, 0x3f949306ac229123, 0x2fbe, 0x95c0, 0x195c0, 0x248d6c, 0x0, 0x3f87eb4321b36bde, 0x0, 0x40, 0x40],
    // Is 1 chip(s) 2 GHz prefetch=false
    [0x3f25946f6bd13cfd, 0x50642, 0x2ee0, 0x1c2d, 0x3fed2b67f45bda18, 0x3fe05fb9775738fe, 0x1743, 0x4057c8b9f48d91a8, 0x3fa5021b5cf41023, 0x3a0e, 0xb7f5, 0x1fcad, 0x27f290, 0x0, 0x3f82a8a5ba2e94e6, 0x0, 0x40, 0x40],
    // Lu 1 chip(s) 2 GHz prefetch=false
    [0x3f202cb3674b12ce, 0x3c415, 0x2ee0, 0x12b6, 0x3fefd388b623b378, 0x3fe002a5f5682a5f, 0x121d, 0x4059246127c3d0b6, 0x3f919850555a8e3a, 0x263c, 0x7b01, 0x16949, 0xdcd34, 0x0, 0x3f88e4e6d4bb19ab, 0x0, 0x40, 0x40],
    // Mg 1 chip(s) 2 GHz prefetch=false
    [0x3f247c794d48de15, 0x4c513, 0x2ee0, 0x18cb, 0x3fef8fb5c910a86f, 0x3fe022b0ce5b101e, 0x162e, 0x405817eb0fddf9c9, 0x3f99fe5668538010, 0x3572, 0xaaa2, 0x1dd4e, 0x1fe028, 0x0, 0x3f83a7a29b58c95d, 0x0, 0x40, 0x40],
    // Sp 1 chip(s) 2 GHz prefetch=false
    [0x3f207782a9a439ed, 0x3d580, 0x2ee0, 0x12b6, 0x3fefed2ffe4a2e64, 0x3fe0014cfcaab88b, 0x1272, 0x405965e99bd41312, 0x3f9668da0cc7caca, 0x25d2, 0x79e4, 0x16a54, 0x77c04, 0x0, 0x3f8873ce71758075, 0x0, 0x40, 0x40],
    // Ua 1 chip(s) 2 GHz prefetch=false
    [0x3f22ed5c532be5d1, 0x46826, 0x2ee0, 0x1730, 0x3fef15640dccf021, 0x3fe027fb3d84dde6, 0x14ce, 0x40581e06373b3a29, 0x3f9b36afa206cc07, 0x30e6, 0x9b18, 0x1b560, 0x179af8, 0x0, 0x3f85461782d6d38b, 0x0, 0x40, 0x40],
    // Bt 2 chip(s) 2 GHz prefetch=true
    [0x3f08a26bd8c9b8cf, 0x16f15, 0x5dc0, 0x2097, 0x3fd9294541345121, 0x3fe00624c6d0cc90, 0x231b, 0x405a6f26b6526b65, 0x3fa72af7f5ff2d63, 0x48f8, 0x11064, 0x32540, 0x168a438, 0x244f, 0x3fa05859cf9ced41, 0x1708, 0x40, 0x80],
    // Cg 2 chip(s) 2 GHz prefetch=true
    [0x3f22e853d5aee270, 0x466fa, 0x5dc0, 0x3867, 0x3fea6ad6eb8ebe07, 0x3fe24256c0366e91, 0x46aa, 0x405760addfb30737, 0x3f98383c4477645a, 0xe6db, 0x34a4e, 0x83dba, 0x308b3f0, 0x74e6, 0x3f854bc1415013f6, 0x2765, 0x40, 0x80],
    // Ep 2 chip(s) 2 GHz prefetch=true
    [0x3eeb83bf11ce33aa, 0x6680, 0x5dc0, 0x92c, 0x3fd4d3147f588811, 0x3fe001e41b6b8d98, 0x875, 0x405b3ddd26de7dfd, 0x3fb77c90dbc90dbd, 0x110a, 0x3fb8, 0xbeb4, 0x9233bc, 0x88c, 0x3fbd44aed44aed45, 0x583, 0x40, 0x80],
    // Ft 2 chip(s) 2 GHz prefetch=true
    [0x3f177ce319593138, 0x2bbfe, 0x5dc0, 0x29ff, 0x3fe84fd12374a759, 0x3fe13df0c838d8d3, 0x2c01, 0x4054e0ca97f1f578, 0x3fa0210d42990f11, 0x97c2, 0x21a43, 0x54a17, 0x201f444, 0x4d3b, 0x3f91249ed31aef41, 0x1b8b, 0x40, 0x80],
    // Is 2 chip(s) 2 GHz prefetch=true
    [0x3f235d6a69555923, 0x4823d, 0x5dc0, 0x3865, 0x3fea6f2e55935f59, 0x3fe18e6233774dbf, 0x3ec7, 0x40579421d477b159, 0x3fa3852dfaaf883f, 0xc346, 0x2c498, 0x71860, 0x235b644, 0x6280, 0x3f84cafdb324e4fb, 0x1c6e, 0x40, 0x80],
    // Lu 2 chip(s) 2 GHz prefetch=true
    [0x3f111f84771501bc, 0x1fe4f, 0x5dc0, 0x256d, 0x3fe11e018cbb5b84, 0x3fe046ac3dca9e12, 0x299b, 0x40582d4cacd4cacd, 0x3f9d179a7620e6d3, 0x64f2, 0x171d2, 0x40c9e, 0x17f6a4c, 0x3289, 0x3f9783e309818a0d, 0x1a1e, 0x40, 0x80],
    // Mg 2 chip(s) 2 GHz prefetch=true
    [0x3f1902e3e8a5cee5, 0x2e965, 0x5dc0, 0x318a, 0x3fe5b1eb9259624e, 0x3fe14eedb60d21fa, 0x3417, 0x405544b913d4690b, 0x3f9a7a8535c21364, 0xa684, 0x2564d, 0x606d1, 0x24aff7c, 0x5407, 0x3f90194eb1fb1d2f, 0x2132, 0x40, 0x80],
    // Sp 2 chip(s) 2 GHz prefetch=true
    [0x3f10965038fd7790, 0x1ee56, 0x5dc0, 0x256d, 0x3fdf8e4816df3712, 0x3fe027f8d5d003c5, 0x2a04, 0x40595427048d54c2, 0x3f9f5e098a4219cd, 0x5e8a, 0x15c86, 0x3e9d2, 0x17fcbf4, 0x2f7b, 0x3f984665c0aec7a9, 0x1a35, 0x40, 0x80],
    // Ua 2 chip(s) 2 GHz prefetch=true
    [0x3f1f9557d1b44e62, 0x3ad42, 0x5dc0, 0x2e88, 0x3fe9d7c4db612397, 0x3fe141a27327a8ff, 0x38ba, 0x40576ac70d4e3cac, 0x3faaeb45bd14be9d, 0xa550, 0x255cf, 0x620ef, 0x1ef1630, 0x52b7, 0x3f897f6f949a70ae, 0x1d85, 0x40, 0x80],
    // Bt 8 chip(s) 1.3 GHz prefetch=false
    [0x3f25a68ecd4854d1, 0x3470f, 0x17700, 0x831d, 0x3fefd029db600bf6, 0x3fe001b0f53ae65c, 0x7f79, 0x4061e60790bbf6ab, 0x3fb4ec3c81042be1, 0x10aaf, 0x614e9, 0x11f509, 0x4427820, 0x2b82c, 0x3f8c9a7e003034d7, 0x0, 0x80, 0x80],
    // Cg 8 chip(s) 1.3 GHz prefetch=false
    [0x3f309fae3a37bd2a, 0x5087e, 0x17700, 0xe250, 0x3fee8d4189a67ed5, 0x3fe0748bea45ddca, 0xa940, 0x40603603da3efe47, 0x3fbb5e434dd17c29, 0x23e82, 0xc97f1, 0x1f3cdd, 0x10a45230, 0x5d1d8, 0x3f82a05d3b409058, 0x0, 0x80, 0x80],
    // Ep 8 chip(s) 1.3 GHz prefetch=false
    [0x3f07087c4e82934e, 0xdf29, 0x17700, 0x2584, 0x3feb77f33490946b, 0x3fdfb164b6f59559, 0x2029, 0x40624367533b901c, 0x3fb6def85bc1043f, 0x40d7, 0x17c22, 0x4700e, 0x1c93be7, 0xa9c9, 0x3faae2f2f9360e2b, 0x0, 0x80, 0x80],
    // Ft 8 chip(s) 1.3 GHz prefetch=false
    [0x3f2861c05f140b24, 0x3b0e8, 0x17700, 0xa874, 0x3fef953d8647da94, 0x3fe06e70080ae308, 0x7707, 0x405f5f39380faf58, 0x3fb70b82bd0739fb, 0x1d18e, 0xa14d5, 0x17fad5, 0xe857c55, 0x4b384, 0x3f89663b7c3a6b22, 0x0, 0x80, 0x80],
    // Is 8 chip(s) 1.3 GHz prefetch=false
    [0x3f2fa685eace2859, 0x4ca9a, 0x17700, 0xe20c, 0x3fed15f5c5a3f2c4, 0x3fe03ed75ac5082c, 0xa23d, 0x4060491243407a78, 0x3fba76ada5983e3d, 0x21730, 0xbc969, 0x1d8399, 0xd22e1a8, 0x5706d, 0x3f8390f624bc5341, 0x0, 0x80, 0x80],
    // Lu 8 chip(s) 1.3 GHz prefetch=false
    [0x3f27b8444fa61069, 0x39740, 0x17700, 0x963e, 0x3fefd26b96174bb4, 0x3fe03a05096e5ff0, 0x855b, 0x40612455898cd4d5, 0x3fb4c7cd9b1a6be3, 0x14e35, 0x77dc7, 0x14c88b, 0x6cc6968, 0x363da, 0x3f8a1bb5a4cb931c, 0x0, 0x80, 0x80],
    // Mg 8 chip(s) 1.3 GHz prefetch=false
    [0x3f2d2b5dfaec0d27, 0x46a73, 0x17700, 0xc6dd, 0x3fef95797c480786, 0x3fe06f0da8de2f17, 0x9711, 0x406022464a088531, 0x3fb423f04b40e34e, 0x200f9, 0xb320a, 0x1beb42, 0xeb9e691, 0x526d3, 0x3f853b01ec8c2ca3, 0x0, 0x80, 0x80],
    // Sp 8 chip(s) 1.3 GHz prefetch=false
    [0x3f28409da3a20a79, 0x3abe4, 0x17700, 0x963e, 0x3fefe603e9e70018, 0x3fe01babe5723646, 0x8c3c, 0x4061872bf5672887, 0x3fb447dd16378728, 0x13f75, 0x73a53, 0x14b89b, 0x5ae2b7e, 0x340da, 0x3f8988ee4aa372e5, 0x0, 0x80, 0x80],
    // Ua 8 chip(s) 1.3 GHz prefetch=false
    [0x3f2bf62c3b89b5df, 0x43ba4, 0x17700, 0xbba0, 0x3fef0fb0dd096163, 0x3fe041ef384c9b78, 0x94fe, 0x4060891d506d3136, 0x3fb5dfea1cdfc37b, 0x1c9ec, 0xa1cec, 0x19f154, 0xb5844f1, 0x4ab09, 0x3f8625c6bfa0cb85, 0x0, 0x80, 0x80],
];
