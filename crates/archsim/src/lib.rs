//! # immersion-archsim
//!
//! A gem5-like cycle-approximate simulator of the paper's 3-D chip
//! multiprocessor (Table 1):
//!
//! * in-order **cores** ([`cpu`]) executing the abstract per-thread op
//!   streams produced by `immersion-npb`'s trace generators;
//! * a two-level **cache hierarchy** ([`cache`]) — 32/128 KiB L1 I/D
//!   per core (1 cycle), twelve 1 MiB L2 banks per chip (6 cycles,
//!   8-way), 64 B lines — kept coherent by a **MOESI directory
//!   protocol** ([`coherence`]) with three message classes;
//! * a 4×4 **mesh NoC per chip** with vertical links between stacked
//!   chips ([`noc`]): dimension-order X-Y-Z routing, 3-stage routers
//!   (\[RC]\[VSA]\[ST/LT]), one virtual channel per message class,
//!   5-flit buffers, 1-flit control / 5-flit data packets;
//! * a fixed-wall-clock-latency **DRAM** (160 core cycles at 2.0 GHz ⇒
//!   80 ns), which is what makes memory-bound programs gain less from
//!   higher core frequency — the effect behind Figures 10–13;
//! * OpenMP-style **barriers** joining all threads.
//!
//! The simulator is trace-driven and fully deterministic: the same
//! configuration and seed produce the same cycle counts.
//!
//! ## Fidelity notes (vs gem5)
//!
//! The NoC is simulated at packet granularity with flit-time link
//! serialisation and per-class (virtual-channel) link reservations —
//! the standard "Garnet-lite" approximation — rather than per-flit
//! events; the directory serialises transactions per line (a blocking
//! home), which sidesteps the transient-race states of a full MOESI
//! implementation while preserving its traffic and latency structure.
//! Instruction fetch is assumed to hit in the 32 KiB L1I (the NPB
//! kernels are small loops).
//!
//! L2 set indices alias with the bank interleave. A line's home bank is
//! `(line / 64) % banks` and its set within the bank is taken from the
//! same low bits of the line index, so one bank reaches only
//! `2048 / gcd(banks, 2048)` of its 2,048 sets: 512 at 1 chip, 256 at 2
//! or 6 chips, and 64 at 8 chips, which is 1/32 of Table 1's L2. Large
//! working sets therefore miss in L2 sooner than the modelled capacity
//! implies.
//!
//! ## Example
//!
//! ```
//! use immersion_archsim::{SystemConfig, System};
//! use immersion_npb::{Benchmark, TraceGenerator};
//!
//! let cfg = SystemConfig::baseline(2, 2.0); // 2 chips at 2.0 GHz
//! let gen = TraceGenerator::new(
//!     Benchmark::Ep.descriptor(), cfg.threads(), 20_000, 42);
//! let stats = System::new(cfg).run(&gen);
//! assert!(stats.exec_time_secs > 0.0);
//! ```

pub mod cache;
pub mod coherence;
pub mod config;
pub mod cpu;
pub mod linemap;
pub mod noc;
pub mod system;

pub use config::SystemConfig;
pub use system::{ExecStats, System};
