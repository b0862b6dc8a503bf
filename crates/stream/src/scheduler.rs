//! Event queue for the continuous tensor model.
//!
//! Algorithm 1 schedules, for each tuple, its next unit-boundary crossing.
//! This is a min-heap on `(due time, sequence)`; the sequence number makes
//! the pop order deterministic among simultaneous events (FIFO), which in
//! turn makes whole experiment runs reproducible.

use crate::tuple::StreamTuple;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled `w`-th boundary update for a tuple (fires at
/// `tuple.time + w·T`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledEvent {
    /// Absolute time at which the event fires.
    pub due: u64,
    /// FIFO tie-breaker among events with equal `due`.
    pub seq: u64,
    /// Which boundary this crossing is (`1 ..= W`).
    pub w: u32,
    /// The originating tuple.
    pub tuple: StreamTuple,
}

impl Eq for ScheduledEvent {}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-due first.
        other.due.cmp(&self.due).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of scheduled events with FIFO tie-breaking.
///
/// Pop order is the total order on `(due, seq)`, so a queue rebuilt by
/// [`EventQueue::from_events`] from [`EventQueue::events_in_order`]
/// replays exactly the same event sequence as the original — the
/// property engine snapshots rely on.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<ScheduledEvent>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending events (one per active tuple, Theorem 2).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules the `w`-th update for `tuple` at absolute time `due`.
    pub fn schedule(&mut self, due: u64, w: u32, tuple: StreamTuple) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { due, seq, w, tuple });
    }

    /// Pops the next event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: u64) -> Option<ScheduledEvent> {
        if self.heap.peek().is_some_and(|e| e.due <= now) {
            self.heap.pop()
        } else {
            None
        }
    }

    /// All pending events, sorted by `(due, seq)` — the exact pop order.
    /// Pop order is the total order on `(due, seq)` regardless of the
    /// heap's internal layout, so this canonical listing plus
    /// [`EventQueue::from_events`] reproduces the queue's behaviour
    /// bitwise (engine state capture).
    pub fn events_in_order(&self) -> Vec<ScheduledEvent> {
        let mut events: Vec<ScheduledEvent> = self.heap.iter().copied().collect();
        events.sort_unstable_by_key(|e| (e.due, e.seq));
        events
    }

    /// Sequence number the next [`EventQueue::schedule`] call will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Rebuilds a queue from captured events and the sequence counter.
    /// The heap layout may differ from the captured queue's, but the pop
    /// order — all that downstream code can observe — is identical.
    pub fn from_events(events: Vec<ScheduledEvent>, next_seq: u64) -> Self {
        EventQueue { heap: events.into(), next_seq }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tup(t: u64) -> StreamTuple {
        StreamTuple::new([0u32], 1.0, t)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 1, tup(0));
        q.schedule(10, 1, tup(0));
        q.schedule(20, 1, tup(0));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_due(100).unwrap().due, 10);
        assert_eq!(q.pop_due(100).unwrap().due, 20);
        assert_eq!(q.pop_due(100).unwrap().due, 30);
        assert!(q.pop_due(100).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn respects_now_cutoff() {
        let mut q = EventQueue::new();
        q.schedule(10, 1, tup(0));
        q.schedule(20, 1, tup(0));
        assert!(q.pop_due(5).is_none());
        assert!(q.pop_due(10).is_some()); // due == now fires
        assert!(q.pop_due(19).is_none());
        assert!(q.pop_due(20).is_some());
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = EventQueue::new();
        let a = StreamTuple::new([1u32], 1.0, 0);
        let b = StreamTuple::new([2u32], 1.0, 0);
        let c = StreamTuple::new([3u32], 1.0, 0);
        q.schedule(10, 1, a);
        q.schedule(10, 1, b);
        q.schedule(10, 1, c);
        assert_eq!(q.pop_due(10).unwrap().tuple, a);
        assert_eq!(q.pop_due(10).unwrap().tuple, b);
        assert_eq!(q.pop_due(10).unwrap().tuple, c);
    }
}
