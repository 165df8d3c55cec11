//! Set-associative cache tag arrays with LRU replacement.
//!
//! Used for both the per-core L1D and the per-tile L2 banks. Only tags
//! are simulated (the simulator is trace-driven; data values never
//! matter), so a "cache" here is a set-indexed array of ways, each a
//! tag, an LRU stamp and per-line metadata, stored as three parallel
//! arrays.
//!
//! A valid way stores its line address with bit 0 set (lines are at
//! least 2-byte aligned, so that bit is otherwise always clear); a
//! stored tag of 0 means invalid. A set's block of ways is allocated
//! the first time the set is filled, so a fresh array holds only one
//! `u32` slot per set: an L2 bank costs 8 KB up front instead of the
//! ~272 KB of its full tag, LRU and metadata arrays, which a short
//! simulation mostly never touches.

use serde::{Deserialize, Serialize};

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Access<M> {
    /// Line present.
    Hit,
    /// Line absent; no eviction was needed for the fill.
    Miss,
    /// Line absent; filling evicted the returned line address, which
    /// held the returned metadata.
    MissEvict(u64, M),
}

/// Marks a stored tag as valid.
const VALID: u64 = 1;

/// A set-associative tag array holding per-line metadata `M`.
#[derive(Debug, Clone)]
pub struct CacheArray<M: Copy + Default> {
    sets: usize,
    /// Per set: 0 while the set was never filled, else 1 + the index of
    /// its block of `assoc` ways in `tags`, `lru` and `meta`.
    slot: Vec<u32>,
    /// Per way: `line | VALID`, or 0 when the way is invalid.
    tags: Vec<u64>,
    /// Per way: the clock value of its last fill or hit.
    lru: Vec<u64>,
    /// Per way: the line's metadata (meaningless while invalid).
    meta: Vec<M>,
    assoc: usize,
    line_shift: u32,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl<M: Copy + Default> CacheArray<M> {
    /// A cache of `size_kib` KiB with `assoc` ways and `line_bytes`
    /// lines.
    ///
    /// # Panics
    /// Panics unless sizes are powers of two and consistent, with lines
    /// of at least 2 bytes.
    pub fn new(size_kib: u64, assoc: usize, line_bytes: u64) -> Self {
        assert!(line_bytes.is_power_of_two() && line_bytes >= 2);
        let lines = size_kib * 1024 / line_bytes;
        assert!(lines as usize >= assoc && assoc >= 1);
        let sets = (lines as usize / assoc).next_power_of_two();
        CacheArray {
            sets,
            slot: vec![0; sets],
            tags: Vec::new(),
            lru: Vec::new(),
            meta: Vec::new(),
            assoc,
            line_shift: line_bytes.trailing_zeros(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The line-aligned address of `addr`.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    /// The index of `addr`'s set, the set's first way if the set was
    /// ever filled, and the tag a valid copy of `addr`'s line stores.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, Option<usize>, u64) {
        let line = self.line_of(addr);
        let set = ((line >> self.line_shift) as usize) & (self.sets - 1);
        let base = match self.slot[set] {
            0 => None,
            s => Some((s - 1) as usize * self.assoc),
        };
        (set, base, line | VALID)
    }

    /// The way holding `addr`'s line, if resident.
    #[inline]
    fn find(&self, addr: u64) -> Option<usize> {
        let (_, base, tag) = self.locate(addr);
        let base = base?;
        self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == tag)
            .map(|w| base + w)
    }

    /// Probe without changing state. Returns the metadata if present.
    pub fn probe(&self, addr: u64) -> Option<M> {
        self.find(addr).map(|i| self.meta[i])
    }

    /// Access `addr`: on a hit, refresh LRU and return `Hit`; on a
    /// miss, install the line (evicting the LRU way if all ways are
    /// valid) and return `Miss`/`MissEvict`.
    pub fn access(&mut self, addr: u64, meta_on_fill: M) -> Access<M> {
        self.clock += 1;
        if let Some(i) = self.find(addr) {
            self.lru[i] = self.clock;
            self.hits += 1;
            return Access::Hit;
        }
        self.misses += 1;
        // Fill: the first invalid way, else the first least-recently
        // used one. A set filled for the first time gets its block of
        // (all invalid) ways now.
        let (set, base, tag) = self.locate(addr);
        let base = match base {
            Some(base) => base,
            None => {
                let base = self.tags.len();
                self.slot[set] = (base / self.assoc + 1) as u32;
                self.tags.resize(base + self.assoc, 0);
                self.lru.resize(base + self.assoc, 0);
                self.meta.resize(base + self.assoc, M::default());
                base
            }
        };
        let ways = base..base + self.assoc;
        let victim = ways
            .clone()
            .find(|&i| self.tags[i] == 0)
            .or_else(|| ways.min_by_key(|&i| self.lru[i]))
            .unwrap_or(base);
        let evicted = self.tags[victim];
        let evicted_meta = self.meta[victim];
        self.tags[victim] = tag;
        self.lru[victim] = self.clock;
        self.meta[victim] = meta_on_fill;
        if evicted == 0 {
            Access::Miss
        } else {
            Access::MissEvict(evicted & !VALID, evicted_meta)
        }
    }

    /// Update the metadata of a resident line. Returns false if absent.
    pub fn update_meta(&mut self, addr: u64, meta: M) -> bool {
        match self.find(addr) {
            Some(i) => {
                self.meta[i] = meta;
                true
            }
            None => false,
        }
    }

    /// Invalidate a line. Returns its metadata if it was present.
    pub fn invalidate(&mut self, addr: u64) -> Option<M> {
        let i = self.find(addr)?;
        self.tags[i] = 0;
        Some(self.meta[i])
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in [0, 1] (zero when never accessed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hit_after_fill() {
        let mut c: CacheArray<()> = CacheArray::new(4, 2, 64);
        assert_eq!(c.access(0x1000, ()), Access::Miss);
        assert_eq!(c.access(0x1000, ()), Access::Hit);
        assert_eq!(c.access(0x1004, ()), Access::Hit, "same line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2-way, 64B lines, 4 KiB => 32 sets. Conflict three lines in
        // one set: set stride = 32*64 = 2048 bytes.
        let mut c: CacheArray<()> = CacheArray::new(4, 2, 64);
        let (a, b, d) = (0x0, 0x800 * 4, 0x800 * 8);
        assert_eq!(c.access(a, ()), Access::Miss);
        assert_eq!(c.access(b, ()), Access::Miss);
        c.access(a, ()); // refresh a: b is now LRU
        match c.access(d, ()) {
            Access::MissEvict(e, ()) => assert_eq!(e, b),
            x => panic!("expected eviction, got {x:?}"),
        }
        assert_eq!(c.access(a, ()), Access::Hit);
        assert!(matches!(c.access(b, ()), Access::MissEvict(..)));
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c: CacheArray<u8> = CacheArray::new(4, 2, 64);
        c.access(0x40, 7);
        assert_eq!(c.probe(0x40), Some(7));
        assert_eq!(c.probe(0x80), None);
        assert_eq!(c.hits(), 0, "probe must not count");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c: CacheArray<u8> = CacheArray::new(4, 2, 64);
        c.access(0x40, 3);
        assert_eq!(c.invalidate(0x40), Some(3));
        assert_eq!(c.probe(0x40), None);
        assert_eq!(c.invalidate(0x40), None);
    }

    #[test]
    fn update_meta_works_only_when_present() {
        let mut c: CacheArray<u8> = CacheArray::new(4, 2, 64);
        c.access(0x40, 1);
        assert!(c.update_meta(0x40, 9));
        assert_eq!(c.probe(0x40), Some(9));
        assert!(!c.update_meta(0x1_0000, 9));
    }

    #[test]
    fn working_set_behaviour() {
        // A working set that fits has ~perfect reuse hit rate; one that
        // is 4x the cache thrashes.
        let mut small: CacheArray<()> = CacheArray::new(64, 8, 64); // 64 KiB
        for _ in 0..4 {
            for a in (0..32 * 1024u64).step_by(64) {
                small.access(a, ());
            }
        }
        assert!(small.hit_rate() > 0.7, "fit: {}", small.hit_rate());

        let mut big: CacheArray<()> = CacheArray::new(64, 8, 64);
        for _ in 0..4 {
            for a in (0..256 * 1024u64).step_by(64) {
                big.access(a, ());
            }
        }
        assert!(big.hit_rate() < 0.1, "thrash: {}", big.hit_rate());
    }

    /// Reference model: one `(tag, lru, valid, meta)` record per way,
    /// with the replacement rule spelled out as a single scan (first
    /// invalid way, else the first with the smallest LRU stamp).
    struct Reference {
        sets: usize,
        ways: Vec<(u64, u64, bool, u8)>, // (tag, lru, valid, meta)
        assoc: usize,
        line_shift: u32,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl Reference {
        fn new(size_kib: u64, assoc: usize, line_bytes: u64) -> Self {
            let lines = size_kib * 1024 / line_bytes;
            let sets = (lines as usize / assoc).next_power_of_two();
            Reference {
                sets,
                ways: vec![(0, 0, false, 0); sets * assoc],
                assoc,
                line_shift: line_bytes.trailing_zeros(),
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn set_ways(&mut self, addr: u64) -> (u64, &mut [(u64, u64, bool, u8)]) {
            let line = addr >> self.line_shift << self.line_shift;
            let s = ((line >> self.line_shift) as usize) & (self.sets - 1);
            (line, &mut self.ways[s * self.assoc..(s + 1) * self.assoc])
        }

        fn probe(&mut self, addr: u64) -> Option<u8> {
            let (line, ways) = self.set_ways(addr);
            ways.iter().find(|w| w.2 && w.0 == line).map(|w| w.3)
        }

        fn access(&mut self, addr: u64, meta: u8) -> Access<u8> {
            self.clock += 1;
            let clock = self.clock;
            let (line, ways) = self.set_ways(addr);
            if let Some(w) = ways.iter_mut().find(|w| w.2 && w.0 == line) {
                w.1 = clock;
                self.hits += 1;
                return Access::Hit;
            }
            let mut victim = 0;
            let mut oldest = u64::MAX;
            for (i, w) in ways.iter().enumerate() {
                if !w.2 {
                    victim = i;
                    break;
                }
                if w.1 < oldest {
                    oldest = w.1;
                    victim = i;
                }
            }
            let old = ways[victim];
            ways[victim] = (line, clock, true, meta);
            self.misses += 1;
            if old.2 {
                Access::MissEvict(old.0, old.3)
            } else {
                Access::Miss
            }
        }

        fn update_meta(&mut self, addr: u64, meta: u8) -> bool {
            let (line, ways) = self.set_ways(addr);
            match ways.iter_mut().find(|w| w.2 && w.0 == line) {
                Some(w) => {
                    w.3 = meta;
                    true
                }
                None => false,
            }
        }

        fn invalidate(&mut self, addr: u64) -> Option<u8> {
            let (line, ways) = self.set_ways(addr);
            let w = ways.iter_mut().find(|w| w.2 && w.0 == line)?;
            w.2 = false;
            Some(w.3)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random operation sequences give the same results, victims,
        /// probes and counters as the reference. Addresses cover 12
        /// lines per set over 2 sets of a 4-way, 8-set, 64 B-line array
        /// (so sets overflow and evict), plus address 0. Ways exist
        /// only for sets an access has filled: none in a fresh array.
        #[test]
        fn matches_the_array_of_ways_reference(
            ops in proptest::collection::vec((0u8..5, 0u64..12, 0u64..2, 0u64..64, 0u8..255), 1..400)
        ) {
            let mut c: CacheArray<u8> = CacheArray::new(2, 4, 64);
            let mut r = Reference::new(2, 4, 64);
            prop_assert!(c.tags.is_empty() && c.lru.is_empty() && c.meta.is_empty());
            let mut filled = std::collections::BTreeSet::new();
            for &(kind, tag, set, offset, meta) in &ops {
                // Set stride: 8 sets × 64 B.
                let addr = if meta % 16 == 0 { 0 } else { tag * 512 + set * 64 + offset };
                match kind {
                    0 | 1 => {
                        filled.insert(addr / 64 % 8);
                        prop_assert_eq!(c.access(addr, meta), r.access(addr, meta))
                    }
                    2 => prop_assert_eq!(c.probe(addr), r.probe(addr)),
                    3 => prop_assert_eq!(c.update_meta(addr, meta), r.update_meta(addr, meta)),
                    _ => prop_assert_eq!(c.invalidate(addr), r.invalidate(addr)),
                }
                prop_assert_eq!((c.hits(), c.misses()), (r.hits, r.misses));
                let ways = 4 * filled.len();
                prop_assert_eq!((c.tags.len(), c.lru.len(), c.meta.len()), (ways, ways, ways));
            }
            for tag in 0..12 {
                for set in 0..2 {
                    let addr = tag * 512 + set * 64;
                    prop_assert_eq!(c.probe(addr), r.probe(addr));
                }
            }
        }
    }

    #[test]
    fn line_alignment() {
        let c: CacheArray<()> = CacheArray::new(4, 2, 64);
        assert_eq!(c.line_of(0x1234), 0x1200);
        assert_eq!(c.line_of(0x1240), 0x1240);
    }
}
