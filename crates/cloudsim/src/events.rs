//! Time-ordered event queue for discrete-event simulation.
//!
//! The queue is generic over the event payload so the batch-service controller can define
//! its own event vocabulary (job arrivals, preemption notices, checkpoint completions, …)
//! without this crate knowing about it.  Events at equal timestamps are delivered in
//! insertion order, which keeps simulations deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation time in hours since the start of the experiment.
pub type SimTime = f64;

#[derive(Debug)]
struct QueuedEvent<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for QueuedEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for QueuedEvent<E> {}

impl<E> PartialOrd for QueuedEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for QueuedEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (then lowest seq) pops first.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic, time-ordered event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<QueuedEvent<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulation time (the timestamp of the most recently popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules an event at an absolute time.  Events scheduled in the past are clamped
    /// to the current time (they will be delivered next).
    pub fn schedule_at(&mut self, time: SimTime, payload: E) {
        let time = if time.is_finite() {
            time.max(self.now)
        } else {
            self.now
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(QueuedEvent { time, seq, payload });
    }

    /// Schedules an event `delay` hours after the current time.
    pub fn schedule_after(&mut self, delay: SimTime, payload: E) {
        self.schedule_at(self.now + delay.max(0.0), payload);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = self.heap.pop()?;
        self.now = ev.time;
        Some((ev.time, ev.payload))
    }

    /// Drops every pending event and resets the clock and the tie-break sequence, so the
    /// queue behaves exactly like [`EventQueue::new`] while keeping its allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.now = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, "c");
        q.schedule_at(1.0, "a");
        q.schedule_at(3.0, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((3.0, "b")));
        assert_eq!(q.pop(), Some((5.0, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule_at(2.0, 1);
        q.schedule_at(2.0, 2);
        q.schedule_at(2.0, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0.0);
        q.schedule_at(4.0, ());
        q.schedule_after(1.5, ());
        assert_eq!(q.heap.peek().map(|e| e.time), Some(1.5));
        q.pop();
        assert_eq!(q.now(), 1.5);
        q.pop();
        assert_eq!(q.now(), 4.0);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(10.0, "later");
        q.pop();
        assert_eq!(q.now(), 10.0);
        q.schedule_at(2.0, "stale");
        let (t, p) = q.pop().unwrap();
        assert_eq!(t, 10.0);
        assert_eq!(p, "stale");
        // non-finite times are also clamped
        q.schedule_at(f64::NAN, "nan");
        assert_eq!(q.pop().unwrap().0, 10.0);
    }

    #[test]
    fn cleared_queue_behaves_like_a_new_one() {
        let mut q = EventQueue::new();
        q.schedule_at(7.0, "old");
        q.schedule_at(9.0, "older");
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), 0.0);
        assert!(q.heap.peek().is_none());
        // the clock and the tie-break sequence restart: equal times pop in insertion order
        q.schedule_at(1.0, "a");
        q.schedule_at(1.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((1.0, "b")));
    }

    #[test]
    fn schedule_after_with_negative_delay_clamps() {
        let mut q = EventQueue::new();
        q.schedule_at(3.0, ());
        q.pop();
        q.schedule_after(-5.0, ());
        assert_eq!(q.pop().unwrap().0, 3.0);
    }
}
