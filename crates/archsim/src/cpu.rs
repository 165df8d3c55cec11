//! The in-order core model.
//!
//! A core executes its thread's abstract op stream: compute batches
//! retire at one instruction per cycle; loads and stores probe the L1
//! and either continue (hit) or open a coherence transaction and block
//! (miss / upgrade); barriers block until every thread arrives. The
//! heavy lifting (protocol, NoC, events) lives in [`crate::system`] —
//! this module holds the per-core state and bookkeeping.

use crate::cache::CacheArray;
use crate::coherence::L1State;
use crate::linemap::{LineMap, LineSet};
use crate::noc::Node;
use immersion_desim::Time;

/// What a core is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Executing its stream.
    Running,
    /// Blocked on an outstanding memory transaction.
    BlockedOnMemory,
    /// Waiting at a barrier.
    AtBarrier,
    /// Stream exhausted.
    Done,
}

/// An outstanding miss/upgrade transaction.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    /// The line being acquired.
    pub line: u64,
    /// Store (needs M) or load (S/E suffices).
    pub is_write: bool,
    /// True once the data/grant arrived.
    pub have_data: bool,
    /// State granted with the data.
    pub granted: L1State,
    /// Invalidation acks still outstanding (may dip negative while
    /// acks overtake the data message).
    pub acks_needed: i64,
    /// When the transaction started (for latency stats).
    pub started: Time,
}

/// Per-core counters.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Memory instructions executed.
    pub mem_ops: u64,
    /// L1 misses (transactions opened).
    pub l1_misses: u64,
    /// Store upgrades (had the line in S/O, needed M).
    pub upgrades: u64,
    /// Sum of transaction latencies, ps.
    pub miss_latency_ps: u64,
    /// Prefetches issued.
    pub prefetches: u64,
    /// Barriers participated in.
    pub barriers: u64,
    /// Time spent blocked at barriers, ps.
    pub barrier_wait_ps: u64,
}

/// One simulated core.
pub struct Core {
    /// Core id (global across chips).
    pub id: u32,
    /// Mesh endpoint of this core's tile.
    pub node: Node,
    /// L1 data cache with MOESI state per line.
    pub l1d: CacheArray<L1State>,
    /// Execution state.
    pub state: CoreState,
    /// Outstanding transaction, if any.
    pub pending: Option<Pending>,
    /// Evicted-dirty (or exclusive) lines awaiting the home's WbAck;
    /// forwards are answered from here during the window.
    pub wb_buffer: LineMap<L1State>,
    /// Prefetch requests in flight (next-line prefetcher).
    pub prefetch_inflight: LineSet,
    /// When the core arrived at the current barrier.
    pub barrier_arrived: Time,
    /// Counters.
    pub stats: CoreStats,
}

impl Core {
    /// A fresh core at `node` with an L1 of `l1d_kib` KiB.
    pub fn new(id: u32, node: Node, l1d_kib: u64, assoc: usize, line_bytes: u64) -> Core {
        Core {
            id,
            node,
            l1d: CacheArray::new(l1d_kib, assoc, line_bytes),
            state: CoreState::Running,
            pending: None,
            wb_buffer: LineMap::default(),
            prefetch_inflight: LineSet::default(),
            barrier_arrived: Time::ZERO,
            stats: CoreStats::default(),
        }
    }

    /// Whether an access to `addr` hits locally: loads hit in any valid
    /// state; stores hit in M/E (E upgrades to M silently).
    pub fn l1_satisfies(&mut self, addr: u64, is_write: bool) -> bool {
        match self.l1d.probe(addr) {
            None => false,
            Some(state) => {
                if is_write {
                    if state.writable() {
                        if state == L1State::E {
                            self.l1d.update_meta(addr, L1State::M);
                        }
                        true
                    } else {
                        false
                    }
                } else {
                    state.readable()
                }
            }
        }
    }

    /// Open a transaction for `line`.
    pub fn open_transaction(&mut self, line: u64, is_write: bool, now: Time, upgrade: bool) {
        debug_assert!(self.pending.is_none(), "core {} double-miss", self.id);
        self.pending = Some(Pending {
            line,
            is_write,
            have_data: false,
            granted: L1State::S,
            acks_needed: 0,
            started: now,
        });
        self.state = CoreState::BlockedOnMemory;
        self.stats.l1_misses += 1;
        if upgrade {
            self.stats.upgrades += 1;
        }
    }

    /// Whether the pending transaction is finished (data + all acks).
    pub fn transaction_complete(&self) -> bool {
        self.pending
            .map(|p| p.have_data && p.acks_needed == 0)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> Core {
        Core::new(0, Node::new(0, 0), 4, 2, 64)
    }

    #[test]
    fn loads_hit_any_valid_state_stores_need_writable() {
        let mut c = core();
        c.l1d.access(0x100, L1State::S);
        assert!(c.l1_satisfies(0x100, false));
        assert!(!c.l1_satisfies(0x100, true), "S cannot take a store");
        c.l1d.update_meta(0x100, L1State::O);
        assert!(!c.l1_satisfies(0x100, true), "O cannot take a store");
        c.l1d.update_meta(0x100, L1State::M);
        assert!(c.l1_satisfies(0x100, true));
    }

    #[test]
    fn store_to_e_silently_upgrades() {
        let mut c = core();
        c.l1d.access(0x200, L1State::E);
        assert!(c.l1_satisfies(0x200, true));
        assert_eq!(c.l1d.probe(0x200), Some(L1State::M));
    }

    #[test]
    fn missing_line_never_satisfies() {
        let mut c = core();
        assert!(!c.l1_satisfies(0x300, false));
        assert!(!c.l1_satisfies(0x300, true));
    }

    #[test]
    fn transaction_lifecycle() {
        let mut c = core();
        c.open_transaction(0x400, true, Time::from_ns(1), false);
        assert_eq!(c.state, CoreState::BlockedOnMemory);
        assert!(!c.transaction_complete());
        let p = c.pending.as_mut().unwrap();
        p.acks_needed += 2;
        p.have_data = true;
        assert!(!c.transaction_complete());
        let p = c.pending.as_mut().unwrap();
        p.acks_needed -= 2;
        assert!(c.transaction_complete());
    }

    #[test]
    fn acks_may_overtake_data() {
        let mut c = core();
        c.open_transaction(0x500, true, Time::ZERO, true);
        let p = c.pending.as_mut().unwrap();
        p.acks_needed -= 1; // InvAck arrives first
        assert!(!c.transaction_complete());
        let p = c.pending.as_mut().unwrap();
        p.have_data = true;
        p.acks_needed += 1; // Data says one ack expected
        assert!(c.transaction_complete());
    }
}
