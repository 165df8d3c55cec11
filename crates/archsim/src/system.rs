//! The full CMP: cores + L2/directory banks + NoC + DRAM + barriers,
//! driven by the discrete-event engine.
//!
//! See the crate docs for the architecture and the fidelity notes.

use crate::cache::{Access, CacheArray};
use crate::coherence::{CoreIds, DirEntry, DirUpdate, L1State, MsgKind};
use crate::config::SystemConfig;
use crate::cpu::{Core, CoreState};
use crate::linemap::LineMap;
use crate::noc::{Mesh, NocStats, Node};
use immersion_desim::{Clock, EventQueue, Histogram, Time};
use immersion_npb::trace::{Op, ThreadTrace};
use immersion_npb::TraceGenerator;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Sentinel requester meaning "invalidate without acking anyone"
/// (used for L2 victim recalls).
const NO_ACK: u32 = u32::MAX;

/// Max instructions a core retires per event before rescheduling
/// itself — bounds run-ahead skew between cores.
const STEP_QUANTUM: u64 = 8192;

/// A routed protocol message.
#[derive(Debug, Clone, Copy)]
struct Msg {
    kind: MsgKind,
    line: u64,
    /// Originating core for requests; `NO_ACK` for home-originated
    /// messages.
    sender: u32,
}

/// Event payloads.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Resume core execution.
    Step(u32),
    /// A message arrives at an L2/home bank.
    AtHome { bank: u32, msg: Msg },
    /// A message arrives at a core's L1 controller.
    AtCore { core: u32, msg: Msg },
    /// The DRAM access a home was blocked on completes.
    MemDone { bank: u32, line: u64 },
    /// A thread's barrier-arrive message reaches the master.
    BarrierArrive { core: u32 },
    /// The master's release message reaches a core.
    BarrierRelease { core: u32 },
}

/// Why a home has a line blocked.
#[derive(Debug, Clone, Copy)]
enum BusyKind {
    /// Waiting for the owner's `OwnerDone`.
    AwaitOwner,
    /// Waiting for DRAM; the original request and its pre-sent
    /// invalidation count ride along.
    AwaitMem {
        req: Msg,
        acks: u32,
        was_sharer: bool,
    },
}

struct Busy {
    kind: BusyKind,
    waiting: VecDeque<Msg>,
}

/// Per-line L2 metadata: dirty bit.
type L2Meta = bool;

/// One L2 bank with its directory slice.
struct Bank {
    node: Node,
    l2: CacheArray<L2Meta>,
    dir: LineMap<DirEntry>,
    busy: LineMap<Busy>,
    dram_accesses: u64,
}

/// End-of-run statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Simulated execution time, seconds.
    pub exec_time_secs: f64,
    /// Execution time in core cycles.
    pub cycles: u64,
    /// Total instructions retired.
    pub instructions: u64,
    /// Total memory instructions.
    pub mem_ops: u64,
    /// L1 miss rate over memory instructions.
    pub l1_miss_rate: f64,
    /// L2 hit rate over L2 accesses.
    pub l2_hit_rate: f64,
    /// DRAM line fetches.
    pub dram_accesses: u64,
    /// Mean L1-miss (transaction) latency, nanoseconds.
    pub avg_miss_latency_ns: f64,
    /// Fraction of core time spent waiting at barriers.
    pub barrier_fraction: f64,
    /// NoC statistics.
    pub noc: NocStats,
    /// Aggregate IPC (instructions / cycles / cores).
    pub ipc: f64,
    /// Prefetches issued (0 when the prefetcher is off).
    pub prefetches: u64,
    /// Median transaction latency, ns (power-of-two bucket resolution).
    pub p50_miss_latency_ns: u64,
    /// 99th-percentile transaction latency, ns.
    pub p99_miss_latency_ns: u64,
}

impl ExecStats {
    /// Render in gem5's `stats.txt` style: one `name value # comment`
    /// line per statistic, bracketed by begin/end markers — so existing
    /// gem5 post-processing scripts can consume our output.
    pub fn to_stats_txt(&self) -> String {
        let mut out = String::new();
        out.push_str("---------- Begin Simulation Statistics ----------\n");
        let mut line = |name: &str, value: String, desc: &str| {
            out.push_str(&format!("{name:<40} {value:>20}  # {desc}\n"));
        };
        line(
            "sim_seconds",
            format!("{:.9}", self.exec_time_secs),
            "Number of seconds simulated",
        );
        line(
            "sim_cycles",
            format!("{}", self.cycles),
            "Core cycles simulated",
        );
        line(
            "sim_insts",
            format!("{}", self.instructions),
            "Number of instructions committed",
        );
        line(
            "system.cpu.ipc_total",
            format!("{:.6}", self.ipc),
            "IPC: total IPC of all threads",
        );
        line(
            "system.cpu.dcache.overall_accesses",
            format!("{}", self.mem_ops),
            "number of overall (read+write) accesses",
        );
        line(
            "system.cpu.dcache.overall_miss_rate",
            format!("{:.6}", self.l1_miss_rate),
            "miss rate for overall accesses",
        );
        line(
            "system.l2.overall_hit_rate",
            format!("{:.6}", self.l2_hit_rate),
            "hit rate for overall accesses",
        );
        line(
            "system.mem_ctrls.num_reads",
            format!("{}", self.dram_accesses),
            "Number of DRAM line fetches",
        );
        line(
            "system.cpu.dcache.overall_avg_miss_latency",
            format!("{:.3}", self.avg_miss_latency_ns),
            "average overall miss latency (ns)",
        );
        line(
            "system.cpu.dcache.miss_latency_p50",
            format!("{}", self.p50_miss_latency_ns),
            "median miss latency (ns)",
        );
        line(
            "system.cpu.dcache.miss_latency_p99",
            format!("{}", self.p99_miss_latency_ns),
            "99th percentile miss latency (ns)",
        );
        line(
            "system.ruby.network.packets_injected",
            format!("{}", self.noc.packets),
            "Packets injected into the NoC",
        );
        line(
            "system.ruby.network.total_hops",
            format!("{}", self.noc.hops),
            "Total hops traversed",
        );
        line(
            "system.ruby.network.avg_hops",
            format!(
                "{:.4}",
                if self.noc.packets == 0 {
                    0.0
                } else {
                    self.noc.hops as f64 / self.noc.packets as f64
                }
            ),
            "Average hops per packet",
        );
        line(
            "system.cpu.prefetcher.num_issued",
            format!("{}", self.prefetches),
            "Prefetches issued",
        );
        line(
            "barrier_time_fraction",
            format!("{:.6}", self.barrier_fraction),
            "Fraction of core-time at barriers",
        );
        out.push_str("---------- End Simulation Statistics   ----------\n");
        out
    }
}

/// The simulator.
pub struct System {
    cfg: SystemConfig,
    clock: Clock,
    mesh: Mesh,
    cores: Vec<Core>,
    banks: Vec<Bank>,
    queue: EventQueue<Ev>,
    traces: Vec<Option<ThreadTrace>>,
    barrier_master: Node,
    barrier_count: usize,
    done_count: usize,
    finish: Time,
    stale_forwards: u64,
    /// Distribution of transaction latencies, nanoseconds.
    miss_latency_hist: Histogram,
}

impl System {
    /// Build a system for `cfg`.
    pub fn new(cfg: SystemConfig) -> System {
        let clock = Clock::from_ghz(cfg.freq_ghz);
        let cores = (0..cfg.threads())
            .map(|id| {
                let node = Node::new(id / cfg.cores_per_chip, id % cfg.cores_per_chip);
                Core::new(id as u32, node, cfg.l1d_kib, cfg.l1_assoc, cfg.line_bytes)
            })
            .collect();
        let banks = (0..cfg.total_l2_banks())
            .map(|b| {
                let chip = b / cfg.l2_banks_per_chip;
                let tile = cfg.cores_per_chip + b % cfg.l2_banks_per_chip;
                Bank {
                    node: Node::new(chip, tile),
                    l2: CacheArray::new(cfg.l2_bank_kib, cfg.l2_assoc, cfg.line_bytes),
                    dir: LineMap::default(),
                    busy: LineMap::default(),
                    dram_accesses: 0,
                }
            })
            .collect();
        System {
            cfg,
            clock,
            mesh: Mesh::new(cfg),
            cores,
            banks,
            queue: EventQueue::new(),
            traces: Vec::new(),
            barrier_master: Node::new(0, 0),
            barrier_count: 0,
            done_count: 0,
            finish: Time::ZERO,
            stale_forwards: 0,
            miss_latency_hist: Histogram::new(),
        }
    }

    /// The home bank of a line.
    fn home_of(&self, line: u64) -> u32 {
        ((line / self.cfg.line_bytes) % self.cfg.total_l2_banks() as u64) as u32
    }

    fn flits_of(&self, kind: MsgKind, data_sized: bool) -> u64 {
        if kind.carries_data() && data_sized {
            self.cfg.data_flits
        } else {
            self.cfg.ctrl_flits
        }
    }

    /// Route a message and schedule its arrival event.
    fn send_to_home(&mut self, from: Node, bank: u32, msg: Msg, now: Time, data_sized: bool) {
        let to = self.banks[bank as usize].node;
        let flits = self.flits_of(msg.kind, data_sized);
        let arrive = self.mesh.route(from, to, msg.kind.class(), flits, now);
        self.queue.schedule(arrive, 0, Ev::AtHome { bank, msg });
    }

    fn send_to_core(&mut self, from: Node, core: u32, msg: Msg, now: Time, data_sized: bool) {
        let to = self.cores[core as usize].node;
        let flits = self.flits_of(msg.kind, data_sized);
        let arrive = self.mesh.route(from, to, msg.kind.class(), flits, now);
        self.queue.schedule(arrive, 0, Ev::AtCore { core, msg });
    }

    /// Run the traces of `gen` to completion and report statistics.
    ///
    /// # Panics
    /// Panics if the generator's thread count differs from the
    /// configuration's.
    pub fn run(mut self, gen: &TraceGenerator) -> ExecStats {
        assert_eq!(
            gen.threads(),
            self.cfg.threads(),
            "trace threads must match the CMP's cores"
        );
        self.traces = (0..gen.threads())
            .map(|t| Some(gen.thread_stream(t)))
            .collect();
        for c in 0..self.cores.len() {
            self.queue.schedule(Time::ZERO, 1, Ev::Step(c as u32));
        }
        while let Some(ev) = self.queue.pop() {
            let now = ev.time;
            match ev.payload {
                Ev::Step(c) => self.step_core(c, now),
                Ev::AtHome { bank, msg } => self.home_handle(bank, msg, now),
                Ev::AtCore { core, msg } => self.core_handle(core, msg, now),
                Ev::MemDone { bank, line } => self.mem_done(bank, line, now),
                Ev::BarrierArrive { core } => self.barrier_arrive(core, now),
                Ev::BarrierRelease { core } => self.barrier_release(core, now),
            }
        }
        if self.done_count != self.cores.len() {
            for core in &self.cores {
                eprintln!(
                    "core {}: state {:?} pending {:?} inflight {:?} barrier_count {}",
                    core.id, core.state, core.pending, core.prefetch_inflight, self.barrier_count
                );
            }
        }
        assert!(
            self.done_count == self.cores.len(),
            "simulation drained with {} of {} threads unfinished — protocol deadlock",
            self.done_count,
            self.cores.len()
        );
        self.collect_stats()
    }

    // ----- core execution -------------------------------------------------

    fn step_core(&mut self, c: u32, now: Time) {
        let mut t = now;
        let mut retired: u64 = 0;
        loop {
            if retired >= STEP_QUANTUM {
                self.queue.schedule(t, 1, Ev::Step(c));
                return;
            }
            let op = match self.traces[c as usize].as_mut() {
                Some(trace) => trace.next(),
                // A Step event for a core whose stream is gone is a
                // stale wakeup; there is nothing left to retire.
                None => return,
            };
            let core = &mut self.cores[c as usize];
            match op {
                None => {
                    core.state = CoreState::Done;
                    self.done_count += 1;
                    if t > self.finish {
                        self.finish = t;
                    }
                    return;
                }
                Some(Op::Compute { int_ops, fp_ops }) => {
                    let n = (int_ops + fp_ops) as u64;
                    core.stats.instructions += n;
                    retired += n;
                    t += self.clock.cycles(n);
                }
                Some(Op::Load { addr }) | Some(Op::Store { addr }) => {
                    let is_write = matches!(op, Some(Op::Store { .. }));
                    core.stats.instructions += 1;
                    core.stats.mem_ops += 1;
                    retired += 1;
                    t += self.clock.cycles(self.cfg.l1_latency);
                    let hit = core.l1_satisfies(addr, is_write);
                    let line = core.l1d.line_of(addr);
                    let upgrade = !hit && is_write && core.l1d.probe(addr).is_some();
                    if !hit {
                        core.open_transaction(line, is_write, t, upgrade);
                    }
                    // Stride prefetch: run `prefetch_distance` lines
                    // ahead of every load, hit or miss.
                    if self.cfg.prefetch_next_line && !is_write {
                        let ahead = line + self.cfg.prefetch_distance * self.cfg.line_bytes;
                        self.issue_prefetch(c, ahead, t);
                    }
                    if hit {
                        continue;
                    }
                    // L1 miss or upgrade: request the line and block.
                    // A read whose line is already being prefetched can
                    // simply wait for that fill.
                    let core = &mut self.cores[c as usize];
                    let from = core.node;
                    let already_inflight = !is_write && core.prefetch_inflight.remove(&line);
                    if !already_inflight {
                        let kind = if is_write {
                            MsgKind::GetM
                        } else {
                            MsgKind::GetS
                        };
                        let home = self.home_of(line);
                        self.send_to_home(
                            from,
                            home,
                            Msg {
                                kind,
                                line,
                                sender: c,
                            },
                            t,
                            false,
                        );
                    }
                    return;
                }
                Some(Op::Barrier) => {
                    core.state = CoreState::AtBarrier;
                    core.barrier_arrived = t;
                    core.stats.barriers += 1;
                    let from = core.node;
                    let arrive = self.mesh.route(
                        from,
                        self.barrier_master,
                        crate::noc::MsgClass::Request,
                        self.cfg.ctrl_flits,
                        t,
                    );
                    self.queue
                        .schedule(arrive, 0, Ev::BarrierArrive { core: c });
                    return;
                }
            }
        }
    }

    /// Issue a non-blocking next-line prefetch (extension).
    fn issue_prefetch(&mut self, c: u32, line: u64, now: Time) {
        let core = &mut self.cores[c as usize];
        if core.l1d.probe(line).is_some()
            || core.prefetch_inflight.contains(&line)
            || core.pending.map(|p| p.line) == Some(line)
        {
            return;
        }
        core.prefetch_inflight.insert(line);
        core.stats.prefetches += 1;
        let from = core.node;
        let home = self.home_of(line);
        self.send_to_home(
            from,
            home,
            Msg {
                kind: MsgKind::GetS,
                line,
                sender: c,
            },
            now,
            false,
        );
    }

    fn barrier_arrive(&mut self, _core: u32, now: Time) {
        self.barrier_count += 1;
        if self.barrier_count == self.cores.len() {
            self.barrier_count = 0;
            for c in 0..self.cores.len() as u32 {
                let to = self.cores[c as usize].node;
                let arrive = self.mesh.route(
                    self.barrier_master,
                    to,
                    crate::noc::MsgClass::Response,
                    self.cfg.ctrl_flits,
                    now,
                );
                self.queue
                    .schedule(arrive, 0, Ev::BarrierRelease { core: c });
            }
        }
    }

    fn barrier_release(&mut self, c: u32, now: Time) {
        let core = &mut self.cores[c as usize];
        debug_assert_eq!(core.state, CoreState::AtBarrier);
        core.stats.barrier_wait_ps += now.saturating_sub(core.barrier_arrived).as_ps();
        core.state = CoreState::Running;
        self.queue.schedule(now, 1, Ev::Step(c));
    }

    // ----- L1 controller ---------------------------------------------------

    fn core_handle(&mut self, c: u32, msg: Msg, now: Time) {
        match msg.kind {
            MsgKind::FwdGetS { requester } => {
                let core = &mut self.cores[c as usize];
                let from = core.node;
                let (have, dirty) = match core.l1d.probe(msg.line) {
                    Some(st) => (true, st.dirty()),
                    None => match core.wb_buffer.get(&msg.line) {
                        Some(st) => (true, st.dirty()),
                        None => (false, false),
                    },
                };
                if !have {
                    // Stale forward (the copy was recalled in flight):
                    // answer as a clean owner so the requester and the
                    // home both make progress.
                    self.stale_forwards += 1;
                }
                let update = if have && dirty {
                    core.l1d.update_meta(msg.line, L1State::O);
                    DirUpdate::KeepOwnerAddSharer
                } else {
                    core.l1d.update_meta(msg.line, L1State::S);
                    DirUpdate::DropOwnerBothShare
                };
                self.send_to_core(
                    from,
                    requester,
                    Msg {
                        kind: MsgKind::Data {
                            to_state: L1State::S,
                            acks_expected: 0,
                        },
                        line: msg.line,
                        sender: c,
                    },
                    now,
                    true,
                );
                let home = self.home_of(msg.line);
                self.send_to_home(
                    from,
                    home,
                    Msg {
                        kind: MsgKind::OwnerDone { update, requester },
                        line: msg.line,
                        sender: c,
                    },
                    now,
                    false,
                );
            }
            MsgKind::FwdGetM {
                requester,
                acks_expected,
            } => {
                let core = &mut self.cores[c as usize];
                let from = core.node;
                core.l1d.invalidate(msg.line);
                self.send_to_core(
                    from,
                    requester,
                    Msg {
                        kind: MsgKind::Data {
                            to_state: L1State::M,
                            acks_expected,
                        },
                        line: msg.line,
                        sender: c,
                    },
                    now,
                    true,
                );
                let home = self.home_of(msg.line);
                self.send_to_home(
                    from,
                    home,
                    Msg {
                        kind: MsgKind::OwnerDone {
                            update: DirUpdate::Transfer,
                            requester,
                        },
                        line: msg.line,
                        sender: c,
                    },
                    now,
                    false,
                );
            }
            MsgKind::Inv { requester } => {
                let core = &mut self.cores[c as usize];
                let from = core.node;
                core.l1d.invalidate(msg.line);
                if requester != NO_ACK {
                    self.send_to_core(
                        from,
                        requester,
                        Msg {
                            kind: MsgKind::InvAck,
                            line: msg.line,
                            sender: c,
                        },
                        now,
                        false,
                    );
                }
            }
            MsgKind::Data {
                to_state,
                acks_expected,
            } => {
                let core = &mut self.cores[c as usize];
                // A grant answers the demand only when the line matches
                // AND the state suffices: a store must wait for its M
                // grant, not a racing prefetch's E/S grant.
                let is_demand = match core.pending.as_mut() {
                    Some(p) if p.line == msg.line && (!p.is_write || to_state == L1State::M) => {
                        p.have_data = true;
                        p.acks_needed += acks_expected as i64;
                        p.granted = if p.is_write { L1State::M } else { to_state };
                        true
                    }
                    _ => false,
                };
                if is_demand {
                    self.maybe_finish_transaction(c, now);
                } else {
                    // Prefetch fill (or a late duplicate): install
                    // without waking the core.
                    let core = &mut self.cores[c as usize];
                    core.prefetch_inflight.remove(&msg.line);
                    self.install_line(c, msg.line, to_state, now);
                }
            }
            MsgKind::InvAck => {
                let core = &mut self.cores[c as usize];
                // Acks for a transaction that already completed (e.g. a
                // store satisfied while its invalidations were still in
                // flight) are stale; only count acks for the line the
                // core is actually waiting on.
                match core.pending.as_mut() {
                    Some(p) if p.line == msg.line => {
                        p.acks_needed -= 1;
                        self.maybe_finish_transaction(c, now);
                    }
                    _ => {}
                }
            }
            MsgKind::WbAck => {
                self.cores[c as usize].wb_buffer.remove(&msg.line);
            }
            MsgKind::GetS | MsgKind::GetM | MsgKind::PutM | MsgKind::OwnerDone { .. } => {
                unreachable!("request-class message at a core: {:?}", msg.kind)
            }
        }
    }

    fn maybe_finish_transaction(&mut self, c: u32, now: Time) {
        if !self.cores[c as usize].transaction_complete() {
            return;
        }
        let Some(p) = self.cores[c as usize].pending.take() else {
            // transaction_complete() treats an idle core as complete;
            // with nothing pending there is nothing to install.
            return;
        };
        let latency_ps = now.saturating_sub(p.started).as_ps();
        self.cores[c as usize].stats.miss_latency_ps += latency_ps;
        self.miss_latency_hist.record(latency_ps / 1000); // ns buckets
        self.install_line(c, p.line, p.granted, now);
        self.cores[c as usize].state = CoreState::Running;
        self.queue.schedule(now, 1, Ev::Step(c));
    }

    /// Install (or upgrade) a line in a core's L1, writing back the
    /// victim if it was dirty or exclusive.
    fn install_line(&mut self, c: u32, line: u64, state: L1State, now: Time) {
        let core = &mut self.cores[c as usize];
        if core.l1d.probe(line).is_some() {
            core.l1d.update_meta(line, state);
        } else if let Access::MissEvict(victim, vstate) = core.l1d.access(line, state) {
            if matches!(vstate, L1State::M | L1State::O | L1State::E) {
                core.wb_buffer.insert(victim, vstate);
                let from = core.node;
                let dirty = vstate.dirty();
                let home = self.home_of(victim);
                self.send_to_home(
                    from,
                    home,
                    Msg {
                        kind: MsgKind::PutM,
                        line: victim,
                        sender: c,
                    },
                    now,
                    dirty,
                );
            }
        }
    }

    // ----- home / directory ------------------------------------------------

    fn home_handle(&mut self, b: u32, msg: Msg, now: Time) {
        match msg.kind {
            MsgKind::GetS | MsgKind::GetM | MsgKind::PutM => {
                if let Some(busy) = self.banks[b as usize].busy.get_mut(&msg.line) {
                    busy.waiting.push_back(msg);
                    return;
                }
                match msg.kind {
                    MsgKind::PutM => self.home_putm(b, msg, now),
                    _ => self.home_request(b, msg, now),
                }
            }
            MsgKind::OwnerDone { update, requester } => {
                {
                    let bank = &mut self.banks[b as usize];
                    let entry = bank.dir.entry(msg.line).or_default();
                    match update {
                        DirUpdate::Transfer => {
                            entry.owner = Some(requester);
                            entry.sharers = 0;
                        }
                        DirUpdate::KeepOwnerAddSharer => {
                            entry.add_sharer(requester);
                        }
                        DirUpdate::DropOwnerBothShare => {
                            if let Some(o) = entry.owner.take() {
                                entry.add_sharer(o);
                            }
                            entry.add_sharer(requester);
                        }
                    }
                }
                self.unblock(b, msg.line, now);
            }
            other => unreachable!("unexpected message at home: {other:?}"),
        }
    }

    /// Process a GetS/GetM for an unblocked line.
    fn home_request(&mut self, b: u32, msg: Msg, now: Time) {
        let t0 = now + self.clock.cycles(self.cfg.l2_latency);
        let req = msg.sender;
        let bank = &mut self.banks[b as usize];
        let bank_node = bank.node;
        let entry = bank.dir.entry(msg.line).or_default();
        // A requester listed as owner lost the line to its own
        // in-flight writeback; treat as no owner.
        if entry.owner == Some(req) {
            entry.owner = None;
        }
        let owner = entry.owner;
        let await_owner = || Busy {
            kind: BusyKind::AwaitOwner,
            waiting: VecDeque::new(),
        };

        match msg.kind {
            MsgKind::GetS => {
                if let Some(o) = owner {
                    bank.busy.insert(msg.line, await_owner());
                    self.send_to_core(
                        bank_node,
                        o,
                        Msg {
                            kind: MsgKind::FwdGetS { requester: req },
                            line: msg.line,
                            sender: NO_ACK,
                        },
                        t0,
                        false,
                    );
                    return;
                }
                // Serve from L2 or memory.
                if matches!(bank.l2.access(msg.line, false), Access::Hit) {
                    let to_state = if entry.is_idle() {
                        entry.owner = Some(req);
                        L1State::E
                    } else {
                        entry.add_sharer(req);
                        L1State::S
                    };
                    self.send_to_core(
                        bank_node,
                        req,
                        Msg {
                            kind: MsgKind::Data {
                                to_state,
                                acks_expected: 0,
                            },
                            line: msg.line,
                            sender: NO_ACK,
                        },
                        t0,
                        true,
                    );
                } else {
                    self.begin_mem(b, msg, 0, false, t0);
                }
            }
            MsgKind::GetM => {
                // Invalidate sharers (other than the requester) now; the
                // acks converge at the requester.
                let was_sharer = entry.is_sharer(req);
                let invalidate = CoreIds(entry.sharers & !(1 << req));
                let n_acks = invalidate.0.count_ones();
                entry.sharers = 0;
                // Without an owner, L2 (or an upgrading sharer's own
                // copy) supplies the line unless it must come from DRAM.
                let grant_now = owner.is_none()
                    && (matches!(bank.l2.access(msg.line, false), Access::Hit) || was_sharer);
                if grant_now {
                    entry.owner = Some(req);
                }
                if owner.is_some() {
                    bank.busy.insert(msg.line, await_owner());
                }
                for s in invalidate {
                    self.send_to_core(
                        bank_node,
                        s,
                        Msg {
                            kind: MsgKind::Inv { requester: req },
                            line: msg.line,
                            sender: NO_ACK,
                        },
                        t0,
                        false,
                    );
                }

                if let Some(o) = owner {
                    self.send_to_core(
                        bank_node,
                        o,
                        Msg {
                            kind: MsgKind::FwdGetM {
                                requester: req,
                                acks_expected: n_acks,
                            },
                            line: msg.line,
                            sender: NO_ACK,
                        },
                        t0,
                        false,
                    );
                } else if grant_now {
                    self.send_to_core(
                        bank_node,
                        req,
                        Msg {
                            kind: MsgKind::Data {
                                to_state: L1State::M,
                                acks_expected: n_acks,
                            },
                            line: msg.line,
                            sender: NO_ACK,
                        },
                        t0,
                        // An upgrading sharer needs no data flits.
                        !was_sharer,
                    );
                } else {
                    self.begin_mem(b, msg, n_acks, was_sharer, t0);
                }
            }
            _ => unreachable!(),
        }
    }

    fn begin_mem(&mut self, b: u32, req: Msg, acks: u32, was_sharer: bool, t0: Time) {
        let bank = &mut self.banks[b as usize];
        bank.dram_accesses += 1;
        bank.busy.insert(
            req.line,
            Busy {
                kind: BusyKind::AwaitMem {
                    req,
                    acks,
                    was_sharer,
                },
                waiting: VecDeque::new(),
            },
        );
        let done = t0 + Time::from_ns_f64(self.cfg.dram_ns);
        self.queue.schedule(
            done,
            0,
            Ev::MemDone {
                bank: b,
                line: req.line,
            },
        );
    }

    fn mem_done(&mut self, b: u32, line: u64, now: Time) {
        let Some(busy) = self.banks[b as usize].busy.get(&line) else {
            // Each begin_mem schedules exactly one MemDone, so an idle
            // line here means the entry was already resolved; the
            // completion is stale and carries no grant to deliver.
            return;
        };
        let BusyKind::AwaitMem {
            req,
            acks,
            was_sharer,
        } = busy.kind
        else {
            // Only begin_mem schedules MemDone, and it always installs
            // an AwaitMem entry for the line.
            unreachable!("MemDone while awaiting owner");
        };
        // Install the fetched line in L2 and grant it; the victim (never
        // the line itself) is recalled before the grant is sent.
        let bank = &mut self.banks[b as usize];
        let bank_node = bank.node;
        let victim = match bank.l2.access(line, false) {
            Access::MissEvict(v, _dirty) => Some(v),
            _ => None,
        };
        let entry = bank.dir.entry(line).or_default();
        let to_state = match req.kind {
            MsgKind::GetS => {
                if entry.is_idle() {
                    entry.owner = Some(req.sender);
                    L1State::E
                } else {
                    entry.add_sharer(req.sender);
                    L1State::S
                }
            }
            MsgKind::GetM => {
                entry.owner = Some(req.sender);
                entry.sharers = 0;
                L1State::M
            }
            _ => unreachable!(),
        };
        if let Some(v) = victim {
            self.recall_victim(b, v, now);
        }
        self.send_to_core(
            bank_node,
            req.sender,
            Msg {
                kind: MsgKind::Data {
                    to_state,
                    acks_expected: acks,
                },
                line,
                sender: NO_ACK,
            },
            now,
            !was_sharer,
        );
        self.unblock(b, line, now);
    }

    /// An L2 victim is dropped: tell any cached copies to go away
    /// (timing-approximate recall without ack collection).
    fn recall_victim(&mut self, b: u32, victim: u64, now: Time) {
        // A line with an in-flight transaction keeps its directory entry
        // (the L2 array drops the data, the directory does not forget) —
        // recalling it would race the forward already heading to its
        // owner.
        let bank = &mut self.banks[b as usize];
        if bank.busy.contains_key(&victim) {
            return;
        }
        let Some(entry) = bank.dir.remove(&victim) else {
            return;
        };
        let bank_node = bank.node;
        for t in entry.sharer_ids().chain(entry.owner) {
            self.send_to_core(
                bank_node,
                t,
                Msg {
                    kind: MsgKind::Inv { requester: NO_ACK },
                    line: victim,
                    sender: NO_ACK,
                },
                now,
                false,
            );
        }
    }

    fn home_putm(&mut self, b: u32, msg: Msg, now: Time) {
        let t0 = now + self.clock.cycles(self.cfg.l2_latency);
        let bank = &mut self.banks[b as usize];
        let bank_node = bank.node;
        let entry = bank.dir.entry(msg.line).or_default();
        // A PutM from a core that is no longer the owner is stale: the
        // line moved on while it was in flight.
        if entry.owner == Some(msg.sender) {
            entry.owner = None;
            let victim = match bank.l2.access(msg.line, true) {
                Access::MissEvict(v, _m) => Some(v),
                Access::Hit => {
                    bank.l2.update_meta(msg.line, true);
                    None
                }
                Access::Miss => None,
            };
            if let Some(v) = victim {
                self.recall_victim(b, v, now);
            }
        }
        self.send_to_core(
            bank_node,
            msg.sender,
            Msg {
                kind: MsgKind::WbAck,
                line: msg.line,
                sender: NO_ACK,
            },
            t0,
            false,
        );
    }

    /// Release a line and replay its queued requests in order.
    fn unblock(&mut self, b: u32, line: u64, now: Time) {
        let Some(busy) = self.banks[b as usize].busy.remove(&line) else {
            return;
        };
        for msg in busy.waiting {
            // Re-enter the normal path; the first replayed request may
            // re-block the line, queueing the rest again.
            self.home_handle(b, msg, now);
        }
    }

    // ----- reporting ---------------------------------------------------------

    fn collect_stats(&self) -> ExecStats {
        let instructions: u64 = self.cores.iter().map(|c| c.stats.instructions).sum();
        let mem_ops: u64 = self.cores.iter().map(|c| c.stats.mem_ops).sum();
        let misses: u64 = self.cores.iter().map(|c| c.stats.l1_misses).sum();
        let miss_lat: u64 = self.cores.iter().map(|c| c.stats.miss_latency_ps).sum();
        let barrier_ps: u64 = self.cores.iter().map(|c| c.stats.barrier_wait_ps).sum();
        let (l2_hits, l2_misses) = self.banks.iter().fold((0u64, 0u64), |(h, m), b| {
            (h + b.l2.hits(), m + b.l2.misses())
        });
        let dram: u64 = self.banks.iter().map(|b| b.dram_accesses).sum();
        let exec = self.finish.as_secs_f64();
        let cycles = self.clock.cycles_in(self.finish);
        ExecStats {
            exec_time_secs: exec,
            cycles,
            instructions,
            mem_ops,
            l1_miss_rate: if mem_ops == 0 {
                0.0
            } else {
                misses as f64 / mem_ops as f64
            },
            l2_hit_rate: if l2_hits + l2_misses == 0 {
                0.0
            } else {
                l2_hits as f64 / (l2_hits + l2_misses) as f64
            },
            dram_accesses: dram,
            avg_miss_latency_ns: if misses == 0 {
                0.0
            } else {
                miss_lat as f64 / misses as f64 / 1e3
            },
            barrier_fraction: if exec <= 0.0 {
                0.0
            } else {
                barrier_ps as f64 / 1e12 / (exec * self.cores.len() as f64)
            },
            noc: self.mesh.stats().clone(),
            ipc: if cycles == 0 {
                0.0
            } else {
                instructions as f64 / cycles as f64 / self.cores.len() as f64
            },
            prefetches: self.cores.iter().map(|c| c.stats.prefetches).sum(),
            p50_miss_latency_ns: self.miss_latency_hist.quantile(0.5).unwrap_or(0),
            p99_miss_latency_ns: self.miss_latency_hist.quantile(0.99).unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use immersion_npb::Benchmark;

    fn run(bench: Benchmark, chips: usize, ghz: f64, ops: u64) -> ExecStats {
        let cfg = SystemConfig::baseline(chips, ghz);
        let gen = TraceGenerator::new(bench.descriptor(), cfg.threads(), ops, 7);
        System::new(cfg).run(&gen)
    }

    #[test]
    fn completes_and_counts_instructions() {
        let stats = run(Benchmark::Ep, 1, 2.0, 10_000);
        assert_eq!(stats.instructions, 4 * 10_000);
        assert!(stats.exec_time_secs > 0.0);
        assert!(stats.ipc > 0.0 && stats.ipc <= 1.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(Benchmark::Cg, 2, 2.0, 5_000);
        let b = run(Benchmark::Cg, 2, 2.0, 5_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.dram_accesses, b.dram_accesses);
    }

    #[test]
    fn ep_is_faster_than_cg_per_instruction() {
        let ep = run(Benchmark::Ep, 1, 2.0, 20_000);
        let cg = run(Benchmark::Cg, 1, 2.0, 20_000);
        assert!(
            ep.ipc > cg.ipc,
            "EP ipc {} should beat CG ipc {}",
            ep.ipc,
            cg.ipc
        );
        assert!(cg.l1_miss_rate > ep.l1_miss_rate);
    }

    #[test]
    fn frequency_speeds_up_compute_more_than_memory_bound() {
        let ops = 20_000;
        let speedup = |b: Benchmark| {
            let slow = run(b, 1, 1.0, ops).exec_time_secs;
            let fast = run(b, 1, 3.6, ops).exec_time_secs;
            slow / fast
        };
        let ep = speedup(Benchmark::Ep);
        let cg = speedup(Benchmark::Cg);
        assert!(ep > cg, "EP speedup {ep} should exceed CG speedup {cg}");
        // EP tracks frequency far better than CG even at this short,
        // cold-miss-dominated trace length (longer traces approach the
        // 3.6x/1.0x ideal).
        assert!(ep > 1.8, "EP speedup {ep}");
        // CG leaves most of the frequency on the table (fixed-ns DRAM).
        assert!(cg < 1.7, "CG speedup {cg}");
    }

    #[test]
    fn more_chips_mean_more_aggregate_work() {
        // Same per-thread ops; 2 chips run 8 threads vs 4.
        let one = run(Benchmark::Ft, 1, 2.0, 5_000);
        let two = run(Benchmark::Ft, 2, 2.0, 5_000);
        assert_eq!(two.instructions, 2 * one.instructions);
        // Sharing across twice the threads slows each thread somewhat.
        assert!(two.exec_time_secs >= one.exec_time_secs * 0.9);
    }

    #[test]
    fn coherence_traffic_flows_for_shared_workloads() {
        let stats = run(Benchmark::Is, 2, 2.0, 10_000);
        assert!(stats.noc.packets > 0);
        assert!(stats.noc.hops > 0);
        assert!(stats.dram_accesses > 0);
        assert!(stats.l1_miss_rate > 0.01);
    }

    #[test]
    fn barriers_cost_time() {
        // LU has dense barriers; its barrier fraction must be visible.
        let lu = run(Benchmark::Lu, 2, 2.0, 20_000);
        assert!(lu.barrier_fraction > 0.0);
        assert!(lu.barrier_fraction < 0.9);
    }

    #[test]
    #[should_panic(expected = "trace threads")]
    fn thread_mismatch_panics() {
        let cfg = SystemConfig::baseline(2, 2.0);
        let gen = TraceGenerator::new(Benchmark::Ep.descriptor(), 4, 1_000, 7);
        System::new(cfg).run(&gen);
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use immersion_npb::Benchmark;

    fn run(bench: Benchmark, prefetch: bool, ops: u64) -> ExecStats {
        let mut cfg = SystemConfig::baseline(1, 2.0);
        cfg.prefetch_next_line = prefetch;
        let gen = TraceGenerator::new(bench.descriptor(), cfg.threads(), ops, 7);
        System::new(cfg).run(&gen)
    }

    #[test]
    fn prefetcher_off_issues_nothing() {
        let s = run(Benchmark::Mg, false, 10_000);
        assert_eq!(s.prefetches, 0);
    }

    #[test]
    fn prefetcher_helps_streaming_workloads() {
        // MG streams with a 64 B stride: the next-line prefetcher must
        // cut its miss rate and execution time.
        let off = run(Benchmark::Mg, false, 20_000);
        let on = run(Benchmark::Mg, true, 20_000);
        assert!(on.prefetches > 0);
        assert!(
            on.l1_miss_rate < off.l1_miss_rate * 0.9,
            "miss rate {} !< {}",
            on.l1_miss_rate,
            off.l1_miss_rate
        );
        assert!(
            on.exec_time_secs < off.exec_time_secs,
            "exec {} !< {}",
            on.exec_time_secs,
            off.exec_time_secs
        );
    }

    #[test]
    fn prefetcher_never_breaks_correctness() {
        // Same instruction counts, protocol still terminates, for a
        // sharing-heavy workload.
        let off = run(Benchmark::Is, false, 10_000);
        let on = run(Benchmark::Is, true, 10_000);
        assert_eq!(on.instructions, off.instructions);
        assert!(on.exec_time_secs > 0.0);
    }
}

#[cfg(test)]
mod latency_stats_tests {
    use super::*;
    use immersion_npb::Benchmark;

    #[test]
    fn latency_percentiles_are_ordered_and_plausible() {
        let cfg = SystemConfig::baseline(2, 2.0);
        let gen = TraceGenerator::new(Benchmark::Cg.descriptor(), cfg.threads(), 10_000, 7);
        let s = System::new(cfg).run(&gen);
        assert!(s.p50_miss_latency_ns > 0);
        assert!(s.p99_miss_latency_ns >= s.p50_miss_latency_ns);
        // A CG miss crosses the NoC and usually DRAM: tens of ns at
        // the median, bounded above by queueing (power-of-two buckets).
        assert!(s.p50_miss_latency_ns >= 10 && s.p50_miss_latency_ns <= 512);
        assert!(s.p99_miss_latency_ns <= 16_384);
    }
}

#[cfg(test)]
mod stats_txt_tests {
    use super::*;
    use immersion_npb::Benchmark;

    #[test]
    fn stats_txt_has_gem5_shape() {
        let cfg = SystemConfig::baseline(1, 2.0);
        let gen = TraceGenerator::new(Benchmark::Ep.descriptor(), cfg.threads(), 2_000, 7);
        let s = System::new(cfg).run(&gen);
        let txt = s.to_stats_txt();
        assert!(txt.starts_with("---------- Begin Simulation Statistics"));
        assert!(txt
            .trim_end()
            .ends_with("End Simulation Statistics   ----------"));
        assert!(txt.contains("sim_insts"));
        assert!(txt.contains("system.cpu.dcache.overall_miss_rate"));
        // Every stat line carries a gem5-style comment.
        for l in txt.lines().filter(|l| !l.starts_with('-')) {
            assert!(l.contains('#'), "line without comment: {l}");
        }
        // sim_insts value round-trips.
        let insts_line = txt.lines().find(|l| l.starts_with("sim_insts")).unwrap();
        let v: u64 = insts_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(v, s.instructions);
    }
}
