//! The MOESI directory protocol (Table 1: "Protocol: MOESI directory").
//!
//! Private L1 data caches are kept coherent by directories co-located
//! with the distributed shared L2 banks (the line's *home*). Three
//! message classes ride three virtual channels:
//!
//! * **Request** (core → home): `GetS`, `GetM`, `PutM`;
//! * **Forward** (home → remote L1): `FwdGetS`, `FwdGetM`, `Inv`;
//! * **Response** (anyone → core/home): `Data`, `InvAck`, `WbAck`,
//!   `OwnerDone`.
//!
//! The home serialises transactions per line (a *blocking* directory):
//! requests arriving for a busy line queue at the home and are replayed
//! in arrival order. That design removes the transient-state explosion
//! of a full MOESI implementation while preserving its message counts,
//! latencies and sharing behaviour — the quantities the evaluation
//! depends on. One genuine race remains — a forward chasing a line the
//! owner is in the middle of evicting — and is handled the way real
//! protocols do: the owner keeps evicted-dirty lines in a small
//! writeback buffer until the home acknowledges the `PutM`, so it can
//! still answer forwards from that buffer; the home drops the stale
//! `PutM` of a line whose ownership has since moved.

use serde::{Deserialize, Serialize};

/// L1 line states of MOESI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum L1State {
    /// Shared, read-only.
    #[default]
    S,
    /// Exclusive, clean — silently upgradable to M.
    E,
    /// Owned: dirty but shared; this cache answers forwards.
    O,
    /// Modified: dirty, sole copy.
    M,
}

impl L1State {
    /// Can a load be satisfied locally in this state?
    pub fn readable(self) -> bool {
        true // every valid MOESI state is readable
    }

    /// Can a store be satisfied locally (without a GetM)?
    pub fn writable(self) -> bool {
        matches!(self, L1State::M | L1State::E)
    }

    /// Is the line dirty (must write back on eviction)?
    pub fn dirty(self) -> bool {
        matches!(self, L1State::M | L1State::O)
    }
}

/// Directory entry for one line at its home bank.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DirEntry {
    /// The exclusive/dirty owner (a core id), if any (M/O/E at the
    /// owner).
    pub owner: Option<u32>,
    /// Bitmask of cores holding the line in S.
    pub sharers: u64,
}

impl DirEntry {
    /// No cached copies at all.
    pub fn is_idle(&self) -> bool {
        self.owner.is_none() && self.sharers == 0
    }

    /// Add a sharer.
    pub fn add_sharer(&mut self, core: u32) {
        self.sharers |= 1 << core;
    }

    /// Remove a sharer.
    pub fn remove_sharer(&mut self, core: u32) {
        self.sharers &= !(1 << core);
    }

    /// Is `core` recorded as a sharer?
    pub fn is_sharer(&self, core: u32) -> bool {
        self.sharers & (1 << core) != 0
    }

    /// Iterate over sharer core ids, in ascending order.
    pub fn sharer_ids(&self) -> CoreIds {
        CoreIds(self.sharers)
    }

    /// Number of sharers.
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count_ones()
    }
}

/// The core ids whose bits are set in a sharer bitmask, in ascending
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreIds(pub u64);

impl Iterator for CoreIds {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let id = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(id)
    }
}

/// Protocol messages (payload of a routed packet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MsgKind {
    /// Read request.
    GetS,
    /// Write/ownership request.
    GetM,
    /// Dirty writeback of an evicted M/O line.
    PutM,
    /// Home asks the owner to supply data to a reader.
    FwdGetS {
        /// The requesting core.
        requester: u32,
    },
    /// Home asks the owner to surrender the line to a writer. The
    /// home has already sent `acks_expected` invalidations whose acks
    /// converge at the requester; the owner copies the count into its
    /// data grant.
    FwdGetM {
        /// The requesting core.
        requester: u32,
        /// Invalidation acks the requester must collect.
        acks_expected: u32,
    },
    /// Home asks a sharer to invalidate; the ack goes to the requester.
    Inv {
        /// The requesting core collecting the acks.
        requester: u32,
    },
    /// Data grant to a requester.
    Data {
        /// State the requester installs the line in.
        to_state: L1State,
        /// Invalidation acks the requester must collect before
        /// proceeding (GetM only).
        acks_expected: u32,
    },
    /// A sharer's invalidation acknowledgement (sent to the requester).
    InvAck,
    /// Home acknowledges a PutM; the evicting core frees its writeback
    /// buffer entry.
    WbAck,
    /// The previous owner tells the home a forward completed, carrying
    /// the directory update (unblocks the line).
    OwnerDone {
        /// How the directory should change.
        update: DirUpdate,
        /// The requester of the forward that completed.
        requester: u32,
    },
}

/// Directory update carried by [`MsgKind::OwnerDone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirUpdate {
    /// FwdGetM completed: the requester is the new exclusive owner.
    Transfer,
    /// FwdGetS on a dirty line: the owner downgraded M→O and keeps
    /// ownership; the requester joins the sharers.
    KeepOwnerAddSharer,
    /// FwdGetS on a clean (E) line: the owner downgraded to S; both
    /// the old owner and the requester are sharers now.
    DropOwnerBothShare,
}

impl MsgKind {
    /// Which virtual channel the message rides.
    pub fn class(self) -> crate::noc::MsgClass {
        use crate::noc::MsgClass::*;
        match self {
            MsgKind::GetS | MsgKind::GetM | MsgKind::PutM => Request,
            MsgKind::FwdGetS { .. } | MsgKind::FwdGetM { .. } | MsgKind::Inv { .. } => Forward,
            MsgKind::Data { .. } | MsgKind::InvAck | MsgKind::WbAck | MsgKind::OwnerDone { .. } => {
                Response
            }
        }
    }

    /// Whether the message carries a cache line (5 flits) or is control
    /// (1 flit). `PutM` and `Data` carry data; a `Data` grant for an
    /// upgrading sharer is shrunk to control size by the caller.
    pub fn carries_data(self) -> bool {
        matches!(self, MsgKind::Data { .. } | MsgKind::PutM)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noc::MsgClass;

    #[test]
    fn state_predicates() {
        assert!(L1State::M.writable() && L1State::M.dirty());
        assert!(L1State::E.writable() && !L1State::E.dirty());
        assert!(!L1State::S.writable() && !L1State::S.dirty());
        assert!(!L1State::O.writable() && L1State::O.dirty());
        for s in [L1State::S, L1State::E, L1State::O, L1State::M] {
            assert!(s.readable());
        }
    }

    #[test]
    fn dir_entry_sharer_ops() {
        let mut d = DirEntry::default();
        assert!(d.is_idle());
        d.add_sharer(3);
        d.add_sharer(17);
        assert!(d.is_sharer(3) && d.is_sharer(17) && !d.is_sharer(4));
        assert_eq!(d.sharer_count(), 2);
        assert_eq!(d.sharer_ids().collect::<Vec<_>>(), vec![3, 17]);
        d.add_sharer(63);
        d.add_sharer(0);
        assert_eq!(d.sharer_ids().collect::<Vec<_>>(), vec![0, 3, 17, 63]);
        d.remove_sharer(0);
        d.remove_sharer(63);
        d.remove_sharer(3);
        assert!(!d.is_sharer(3));
        assert!(!d.is_idle());
        d.remove_sharer(17);
        assert!(d.is_idle());
    }

    #[test]
    fn message_classes_are_the_three_vcs() {
        assert_eq!(MsgKind::GetS.class(), MsgClass::Request);
        assert_eq!(MsgKind::PutM.class(), MsgClass::Request);
        assert_eq!(MsgKind::Inv { requester: 0 }.class(), MsgClass::Forward);
        assert_eq!(
            MsgKind::FwdGetM {
                requester: 1,
                acks_expected: 0
            }
            .class(),
            MsgClass::Forward
        );
        assert_eq!(MsgKind::InvAck.class(), MsgClass::Response);
        assert_eq!(
            MsgKind::Data {
                to_state: L1State::S,
                acks_expected: 0
            }
            .class(),
            MsgClass::Response
        );
    }

    #[test]
    fn data_sized_messages() {
        assert!(MsgKind::PutM.carries_data());
        assert!(MsgKind::Data {
            to_state: L1State::M,
            acks_expected: 2
        }
        .carries_data());
        assert!(!MsgKind::GetS.carries_data());
        assert!(!MsgKind::InvAck.carries_data());
    }
}
