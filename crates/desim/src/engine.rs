//! The event queue at the heart of the simulator.
//!
//! The queue is a binary heap keyed by `(time, priority, seq)`. The
//! monotonically increasing sequence number breaks ties between events
//! scheduled for the same instant at the same priority, so a simulation
//! is a pure function of its inputs — an essential property both for
//! debugging and for the reproducibility claims of the experiment
//! harness. The heap compares the three as one packed `u128`,
//! `time << 64 | priority << 56 | seq`, which orders exactly as the
//! tuple does while sequence numbers stay below 2^56.

use crate::time::Time;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Dispatch priority within a single simulated instant.
///
/// Lower values are delivered first. The CMP simulator uses this to give
/// e.g. credit returns precedence over new flit injections at the same
/// edge.
pub type Priority = u8;

/// An event: an opaque payload due at a given time.
#[derive(Debug, Clone)]
pub struct Event<P> {
    /// When the event fires.
    pub time: Time,
    /// Dispatch priority within the instant (lower first).
    pub priority: Priority,
    /// Insertion order; used only for deterministic tie-breaking.
    pub seq: u64,
    /// The payload delivered to the handler.
    pub payload: P,
}

/// Sequence numbers occupy the low 56 bits of a packed key.
const SEQ_BITS: u32 = 56;

/// A pending event: its packed `(time, priority, seq)` key and payload,
/// ordered by the key alone.
#[derive(Debug)]
struct Keyed<P> {
    key: u128,
    payload: P,
}

impl<P> PartialEq for Keyed<P> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<P> Eq for Keyed<P> {}

impl<P> PartialOrd for Keyed<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<P> Ord for Keyed<P> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// A deterministic discrete-event queue.
///
/// See the crate-level docs for an example.
#[derive(Debug)]
pub struct EventQueue<P> {
    /// A min-heap on the packed key (`BinaryHeap` is a max-heap).
    heap: BinaryHeap<Reverse<Keyed<P>>>,
    next_seq: u64,
    now: Time,
    popped: u64,
}

impl<P> Default for EventQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> EventQueue<P> {
    /// An empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Time::ZERO,
            popped: 0,
        }
    }

    /// The time of the most recently popped event (time zero initially).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events delivered so far.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Number of events still pending.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at absolute time `time` with priority `priority`.
    ///
    /// # Panics
    /// Panics if `time` is in the simulated past — scheduling backwards in
    /// time is always a modelling bug — or after 2^56 events have been
    /// scheduled on one queue.
    pub fn schedule(&mut self, time: Time, priority: Priority, payload: P) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {} < now {}",
            time,
            self.now
        );
        let seq = self.next_seq;
        assert!(seq >> SEQ_BITS == 0, "event sequence numbers exhausted");
        self.next_seq += 1;
        let key =
            u128::from(time.as_ps()) << 64 | u128::from(priority) << SEQ_BITS | u128::from(seq);
        self.heap.push(Reverse(Keyed { key, payload }));
    }

    /// Schedule `payload` `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Time, priority: Priority, payload: P) {
        let t = self.now + delay;
        self.schedule(t, priority, payload);
    }

    /// Peek at the time of the next pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap
            .peek()
            .map(|e| Time::from_ps((e.0.key >> 64) as u64))
    }

    /// Remove and return the next event, advancing the simulated clock.
    pub fn pop(&mut self) -> Option<Event<P>> {
        let Reverse(Keyed { key, payload }) = self.heap.pop()?;
        let time = Time::from_ps((key >> 64) as u64);
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.popped += 1;
        Some(Event {
            time,
            priority: (key >> SEQ_BITS) as Priority,
            seq: key as u64 & ((1 << SEQ_BITS) - 1),
            payload,
        })
    }

    /// Drop all pending events (the clock keeps its position).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Interleaved schedules and pops deliver events in the order of
        /// sorting the pending ones by `(time, priority, seq)`. Offsets
        /// from `now` are small (so times and priorities collide), or
        /// reach `Time::MAX`.
        #[test]
        fn pops_in_time_priority_seq_order(
            ops in proptest::collection::vec((0u64..8, 0u8..3, 0u8..3), 1..300)
        ) {
            let mut q = EventQueue::new();
            let mut pending: Vec<(Time, Priority, u64, usize)> = Vec::new();
            let check_pop = |q: &mut EventQueue<usize>, pending: &mut Vec<(Time, Priority, u64, usize)>| {
                pending.sort();
                let want = (!pending.is_empty()).then(|| pending.remove(0));
                let got = q.pop().map(|e| (e.time, e.priority, e.seq, e.payload));
                (got, want)
            };
            for (i, &(offset, priority, pops)) in ops.iter().enumerate() {
                let ps = if offset == 7 { u64::MAX } else { q.now().as_ps().saturating_add(offset) };
                q.schedule(Time::from_ps(ps), priority, i);
                pending.push((Time::from_ps(ps), priority, i as u64, i));
                for _ in 0..pops {
                    let (got, want) = check_pop(&mut q, &mut pending);
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(q.len(), pending.len());
                }
            }
            while !pending.is_empty() {
                let (got, want) = check_pop(&mut q, &mut pending);
                prop_assert_eq!(got, want);
            }
            prop_assert!(q.pop().is_none());
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ps(30), 0, "c");
        q.schedule(Time::from_ps(10), 0, "a");
        q.schedule(Time::from_ps(20), 0, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_respects_priority_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ps(10), 1, "low-1");
        q.schedule(Time::from_ps(10), 0, "high-1");
        q.schedule(Time::from_ps(10), 1, "low-2");
        q.schedule(Time::from_ps(10), 0, "high-2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!["high-1", "high-2", "low-1", "low-2"]);
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ps(100), 0, ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_ps(100));
        assert_eq!(q.delivered(), 1);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ps(100), 0, 1u32);
        q.pop();
        q.schedule_in(Time::from_ps(50), 0, 2u32);
        let e = q.pop().unwrap();
        assert_eq!(e.time, Time::from_ps(150));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ps(100), 0, ());
        q.pop();
        q.schedule(Time::from_ps(50), 0, ());
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(Time::from_ps(i), 0, i);
        }
        assert_eq!(q.len(), 5);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|e| e.payload), None);
    }

    #[test]
    fn determinism_under_interleaved_scheduling() {
        // Two runs with identical scheduling must deliver identical orders.
        let run = || {
            let mut q = EventQueue::new();
            let mut order = Vec::new();
            q.schedule(Time::from_ps(5), 0, 100u32);
            q.schedule(Time::from_ps(5), 0, 200u32);
            while let Some(e) = q.pop() {
                order.push(e.payload);
                if e.payload < 1000 {
                    q.schedule_in(Time::from_ps(5), 0, e.payload * 2);
                }
            }
            order
        };
        assert_eq!(run(), run());
    }
}
