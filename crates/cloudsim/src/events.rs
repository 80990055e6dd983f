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
    /// `(time bits << 64) | seq`: the delivery order as one integer.  Queued times are
    /// finite and non-negative (see [`EventQueue::schedule_at`]), and the bit patterns
    /// of such floats sort like their values once `−0.0` is folded into `+0.0`, so this
    /// orders exactly like comparing the times and then the sequence numbers.
    key: u128,
    /// The scheduled time, returned by `pop` as it was queued.
    time: SimTime,
    payload: E,
}

impl<E> QueuedEvent<E> {
    fn new(time: SimTime, seq: u64, payload: E) -> Self {
        let bits = (time + 0.0).to_bits();
        QueuedEvent {
            key: (u128::from(bits) << 64) | u128::from(seq),
            time,
            payload,
        }
    }
}

impl<E> PartialEq for QueuedEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        other.key.cmp(&self.key)
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
    /// to the current time (they will be delivered next), and so are non-finite times.
    pub fn schedule_at(&mut self, time: SimTime, payload: E) {
        let time = if time.is_finite() {
            time.max(self.now)
        } else {
            self.now
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(QueuedEvent::new(time, seq, payload));
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The queue as it was before events were ordered by one integer key: a heap
    /// compared by `time.partial_cmp`, then by `seq`.  Kept only as the oracle the
    /// keyed queue must match pop for pop.
    struct ReferenceQueue<E> {
        heap: BinaryHeap<ReferenceEvent<E>>,
        next_seq: u64,
        now: SimTime,
    }

    struct ReferenceEvent<E> {
        time: SimTime,
        seq: u64,
        payload: E,
    }

    impl<E> PartialEq for ReferenceEvent<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<E> Eq for ReferenceEvent<E> {}

    impl<E> PartialOrd for ReferenceEvent<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for ReferenceEvent<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time
                .partial_cmp(&self.time)
                .unwrap_or(Ordering::Equal)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    impl<E> ReferenceQueue<E> {
        fn new() -> Self {
            ReferenceQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: 0.0,
            }
        }

        fn schedule_at(&mut self, time: SimTime, payload: E) {
            let time = if time.is_finite() {
                time.max(self.now)
            } else {
                self.now
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(ReferenceEvent { time, seq, payload });
        }

        fn schedule_after(&mut self, delay: SimTime, payload: E) {
            self.schedule_at(self.now + delay.max(0.0), payload);
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let ev = self.heap.pop()?;
            self.now = ev.time;
            Some((ev.time, ev.payload))
        }

        fn clear(&mut self) {
            self.heap.clear();
            self.next_seq = 0;
            self.now = 0.0;
        }
    }

    /// A time drawn to collide often: a small grid (many equal times), signed zeros,
    /// NaN, infinities, and values below the clock.
    fn awkward_time(rng: &mut StdRng, now: SimTime) -> SimTime {
        match rng.gen_range(0..10) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => f64::NEG_INFINITY,
            5 => now - rng.gen_range(0.0..3.0),
            6 => now,
            _ => f64::from(rng.gen_range(0..12u32)) * 0.5,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        #[test]
        fn keyed_queue_pops_in_the_reference_order(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut queue = EventQueue::new();
            let mut reference = ReferenceQueue::new();
            for op in 0..rng.gen_range(1..400u32) {
                match rng.gen_range(0..20) {
                    0..=7 => {
                        let time = awkward_time(&mut rng, queue.now());
                        queue.schedule_at(time, op);
                        reference.schedule_at(time, op);
                    }
                    8..=10 => {
                        let delay = awkward_time(&mut rng, 0.0);
                        queue.schedule_after(delay, op);
                        reference.schedule_after(delay, op);
                    }
                    11..=18 => {
                        let got = queue.pop().map(|(t, e)| (t.to_bits(), e));
                        let want = reference.pop().map(|(t, e)| (t.to_bits(), e));
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        queue.clear();
                        reference.clear();
                    }
                }
                prop_assert_eq!(queue.now().to_bits(), reference.now.to_bits());
                prop_assert_eq!(queue.len(), reference.heap.len());
            }
            loop {
                let got = queue.pop().map(|(t, e)| (t.to_bits(), e));
                let want = reference.pop().map(|(t, e)| (t.to_bits(), e));
                prop_assert_eq!(got, want);
                if want.is_none() {
                    break;
                }
            }
        }
    }

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
