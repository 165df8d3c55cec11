//! The 3-D mesh network-on-chip.
//!
//! Per chip: a 4×4 mesh of 3-stage wormhole routers (\[RC]\[VSA]\[ST/LT],
//! Table 1) with one virtual channel per message class (request /
//! forward / response — the three-class split that makes the MOESI
//! protocol deadlock-free). Stacked chips are joined by vertical
//! (TSV/TCI) links between corresponding routers; routing is
//! deterministic dimension-order X → Y → Z.
//!
//! Packets are simulated at packet granularity with flit-time link
//! serialisation: each hop waits for its output link's per-class
//! reservation, spends the 3-cycle router pipeline, and then occupies
//! the link for one cycle per flit. This keeps the simulator fast while
//! preserving distance, serialisation and class isolation — see the
//! crate docs for the fidelity discussion.

use crate::config::SystemConfig;
use immersion_desim::{Clock, Time};
use serde::{Deserialize, Serialize};

/// A network endpoint: a tile on a chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Node {
    /// Chip index (Z coordinate).
    pub chip: u16,
    /// Tile index within the chip's mesh, row-major.
    pub tile: u16,
}

impl Node {
    /// Construct a node.
    pub fn new(chip: usize, tile: usize) -> Node {
        Node {
            chip: chip as u16,
            tile: tile as u16,
        }
    }
}

/// Message class = virtual channel (Table 1: 3 VCs, one per class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MsgClass {
    /// Requests: GetS / GetM / PutM.
    Request = 0,
    /// Forwards and invalidations from the directory.
    Forward = 1,
    /// Data and acknowledgements.
    Response = 2,
}

/// Output directions of a router.
const DIR_E: usize = 0;
const DIR_W: usize = 1;
const DIR_N: usize = 2;
const DIR_S: usize = 3;
const DIR_UP: usize = 4;
const DIR_DOWN: usize = 5;
const N_DIRS: usize = 6;
const N_CLASSES: usize = 3;

/// Aggregate NoC statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NocStats {
    /// Packets routed.
    pub packets: u64,
    /// Total hops traversed.
    pub hops: u64,
    /// Total flits × hops (link occupancy).
    pub flit_hops: u64,
    /// Total queueing delay waiting for busy links, in picoseconds.
    pub contention_ps: u64,
    /// Vertical (inter-chip) hops.
    pub vertical_hops: u64,
}

/// The mesh interconnect with per-link per-class reservations.
pub struct Mesh {
    cfg: SystemConfig,
    clock: Clock,
    /// `next_free[node][dir][class]`, flattened.
    next_free: Vec<Time>,
    stats: NocStats,
}

impl Mesh {
    /// Build the NoC for a configuration.
    pub fn new(cfg: SystemConfig) -> Mesh {
        let nodes = cfg.chips * cfg.tiles_per_chip();
        Mesh {
            cfg,
            clock: Clock::from_ghz(cfg.freq_ghz),
            next_free: vec![Time::ZERO; nodes * N_DIRS * N_CLASSES],
            stats: NocStats::default(),
        }
    }

    #[inline]
    fn link_index(&self, node: Node, dir: usize, class: MsgClass) -> usize {
        let n = node.chip as usize * self.cfg.tiles_per_chip() + node.tile as usize;
        (n * N_DIRS + dir) * N_CLASSES + class as usize
    }

    /// Coordinates of a tile.
    #[inline]
    fn coords(&self, tile: u16) -> (usize, usize) {
        (
            tile as usize % self.cfg.mesh_x,
            tile as usize / self.cfg.mesh_x,
        )
    }

    /// Number of hops of the dimension-order route (diagnostic).
    pub fn hops(&self, src: Node, dst: Node) -> u64 {
        let (sx, sy) = self.coords(src.tile);
        let (dx, dy) = self.coords(dst.tile);
        (sx.abs_diff(dx) + sy.abs_diff(dy) + (src.chip).abs_diff(dst.chip) as usize) as u64
    }

    /// Route a packet of `flits` flits from `src` to `dst` on `class`,
    /// departing at `now`. Returns the arrival time of the packet tail
    /// at the destination, after contention.
    pub fn route(&mut self, src: Node, dst: Node, class: MsgClass, flits: u64, now: Time) -> Time {
        self.stats.packets += 1;
        let pipeline = self.clock.cycles(self.cfg.router_stages);
        let serialise = self.clock.cycles(flits);

        if src == dst {
            // Local delivery through the ejection port: one pipeline pass.
            return now + pipeline;
        }

        let mut t = now;
        let mut cur = src;
        loop {
            // Dimension-order next hop: X, then Y, then Z.
            let (cx, cy) = self.coords(cur.tile);
            let (dx, dy) = self.coords(dst.tile);
            let (dir, next) = if cx != dx {
                if cx < dx {
                    (DIR_E, Node::new(cur.chip as usize, cur.tile as usize + 1))
                } else {
                    (DIR_W, Node::new(cur.chip as usize, cur.tile as usize - 1))
                }
            } else if cy != dy {
                if cy < dy {
                    (
                        DIR_N,
                        Node::new(cur.chip as usize, cur.tile as usize + self.cfg.mesh_x),
                    )
                } else {
                    (
                        DIR_S,
                        Node::new(cur.chip as usize, cur.tile as usize - self.cfg.mesh_x),
                    )
                }
            } else if cur.chip != dst.chip {
                if cur.chip < dst.chip {
                    (DIR_UP, Node::new(cur.chip as usize + 1, cur.tile as usize))
                } else {
                    (
                        DIR_DOWN,
                        Node::new(cur.chip as usize - 1, cur.tile as usize),
                    )
                }
            } else {
                break;
            };

            let li = self.link_index(cur, dir, class);
            let free_at = self.next_free[li];
            let start = if free_at > t { free_at } else { t };
            self.stats.contention_ps += start.saturating_sub(t).as_ps();
            // Router pipeline, then the link is held for the packet's
            // flits (wormhole serialisation).
            let mut depart = start + pipeline;
            if dir == DIR_UP || dir == DIR_DOWN {
                depart += self.clock.cycles(self.cfg.vertical_hop_cycles);
                self.stats.vertical_hops += 1;
            }
            let tail = depart + serialise;
            self.next_free[li] = tail;
            self.stats.hops += 1;
            self.stats.flit_hops += flits;
            t = tail;
            cur = next;
        }
        t
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// The clock this mesh runs on.
    pub fn clock(&self) -> Clock {
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(chips: usize, ghz: f64) -> Mesh {
        Mesh::new(SystemConfig::baseline(chips, ghz))
    }

    #[test]
    fn hop_counts() {
        let m = mesh(2, 2.0);
        assert_eq!(m.hops(Node::new(0, 0), Node::new(0, 0)), 0);
        assert_eq!(m.hops(Node::new(0, 0), Node::new(0, 3)), 3);
        assert_eq!(m.hops(Node::new(0, 0), Node::new(0, 15)), 6);
        assert_eq!(m.hops(Node::new(0, 0), Node::new(1, 0)), 1);
        assert_eq!(m.hops(Node::new(0, 5), Node::new(1, 10)), 3);
    }

    #[test]
    fn latency_scales_with_distance() {
        let mut m = mesh(1, 2.0);
        let t1 = m.route(
            Node::new(0, 0),
            Node::new(0, 1),
            MsgClass::Request,
            1,
            Time::ZERO,
        );
        let mut m = mesh(1, 2.0);
        let t3 = m.route(
            Node::new(0, 0),
            Node::new(0, 3),
            MsgClass::Request,
            1,
            Time::ZERO,
        );
        assert!(t3 > t1);
        // 1 hop at 2 GHz: 3-stage pipeline + 1 flit = 4 cycles = 2000 ps.
        assert_eq!(t1, Time::from_ps(2000));
    }

    #[test]
    fn data_packets_take_longer_than_control() {
        let mut m = mesh(1, 2.0);
        let ctrl = m.route(
            Node::new(0, 0),
            Node::new(0, 3),
            MsgClass::Request,
            1,
            Time::ZERO,
        );
        let mut m = mesh(1, 2.0);
        let data = m.route(
            Node::new(0, 0),
            Node::new(0, 3),
            MsgClass::Response,
            5,
            Time::ZERO,
        );
        assert!(data > ctrl);
    }

    #[test]
    fn contention_serialises_same_link() {
        let mut m = mesh(1, 2.0);
        let a = m.route(
            Node::new(0, 0),
            Node::new(0, 1),
            MsgClass::Request,
            5,
            Time::ZERO,
        );
        let b = m.route(
            Node::new(0, 0),
            Node::new(0, 1),
            MsgClass::Request,
            5,
            Time::ZERO,
        );
        assert!(b > a, "second packet must queue behind the first");
        assert!(m.stats().contention_ps > 0);
    }

    #[test]
    fn classes_do_not_block_each_other() {
        let mut m = mesh(1, 2.0);
        let a = m.route(
            Node::new(0, 0),
            Node::new(0, 1),
            MsgClass::Request,
            5,
            Time::ZERO,
        );
        let b = m.route(
            Node::new(0, 0),
            Node::new(0, 1),
            MsgClass::Response,
            5,
            Time::ZERO,
        );
        // Different VCs: same physical link modelled per-class, so the
        // response is not delayed behind the request.
        assert_eq!(a, b);
    }

    #[test]
    fn vertical_hops_counted() {
        let mut m = mesh(4, 2.0);
        m.route(
            Node::new(0, 5),
            Node::new(3, 5),
            MsgClass::Request,
            1,
            Time::ZERO,
        );
        assert_eq!(m.stats().vertical_hops, 3);
    }

    #[test]
    fn higher_frequency_is_faster() {
        let mut slow = mesh(1, 1.0);
        let mut fast = mesh(1, 3.6);
        let a = slow.route(
            Node::new(0, 0),
            Node::new(0, 15),
            MsgClass::Request,
            5,
            Time::ZERO,
        );
        let b = fast.route(
            Node::new(0, 0),
            Node::new(0, 15),
            MsgClass::Request,
            5,
            Time::ZERO,
        );
        assert!(b < a);
    }

    #[test]
    fn local_delivery_is_one_pipeline() {
        let mut m = mesh(1, 2.0);
        let t = m.route(
            Node::new(0, 7),
            Node::new(0, 7),
            MsgClass::Response,
            5,
            Time::ZERO,
        );
        assert_eq!(t, Time::from_ps(1500)); // 3 cycles at 2 GHz
    }
}
