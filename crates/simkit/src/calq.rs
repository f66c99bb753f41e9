//! A calendar (bucket) queue: O(1) amortized pop for time-clustered loads.
//!
//! A calendar queue hashes each event into the bucket covering its
//! timestamp, keeps each small bucket sorted, and pops by walking a cursor
//! across the calendar. Scheduling is O(bucket size) and popping is O(1)
//! amortized — the cursor advances monotonically, so every bucket is
//! visited once per lap. A binary heap instead pays O(log n) per operation
//! against the whole pending set, so the calendar pays off when tens of
//! thousands of events are pending. With a few hundred pending — the
//! completions-only queue behind a [`crate::stream::ReplayStream`] — the
//! heap is as fast or faster (measured in `greener-core`'s
//! `SchedulerCore` docs).
//!
//! [`CalendarQueue`] implements [`EventScheduler`] with the exact
//! `(time, seq)` pop order of the reference [`EventQueue`] — the property
//! test at the bottom of this module drives both with proptest-generated
//! schedules (including same-timestamp FIFO ties) and asserts the streams
//! are identical, which is what makes the scheduler core swappable without
//! touching golden simulation results.
//!
//! Design notes:
//!
//! * Bucket width defaults to one hour ([`DEFAULT_BUCKET_SECS`]) — the
//!   natural grain of hourly-stepped simulations. Buckets are allocated
//!   lazily out to the furthest scheduled timestamp.
//! * Each bucket is a `Vec` sorted ascending by `(time, seq)` with a
//!   consumed-prefix index, so a pop inside a bucket is a bump of that
//!   index, not a memmove.
//! * Events beyond `MAX_BUCKETS` (~120 years at the default width) fall
//!   into a `BinaryHeap` overflow; every overflow timestamp is strictly
//!   later than every possible bucket timestamp, so the overflow only
//!   drains after the calendar is exhausted.
//!
//! [`EventQueue`]: crate::des::EventQueue

use crate::des::{EventScheduler, ScheduledEvent};
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// Default bucket width: one hour of simulated time.
pub const DEFAULT_BUCKET_SECS: u64 = 3_600;

/// Hard cap on the calendar length (~120 years of hourly buckets). Events
/// past this fall into the overflow heap instead of growing the calendar.
const MAX_BUCKETS: usize = 1 << 20;

/// One bucket slot. The payload is an `Option` so a pop can move it out of
/// the sorted bucket without cloning or shifting the tail; consumed slots
/// stay behind the bucket's `head` index until the cursor recycles them.
#[derive(Debug)]
struct Slot<E> {
    at: SimTime,
    seq: u64,
    event: Option<E>,
}

/// One calendar bucket: events sorted ascending by `(at, seq)`, with the
/// consumed prefix tracked by `head` (popping is an index bump).
#[derive(Debug)]
struct Bucket<E> {
    items: Vec<Slot<E>>,
    head: usize,
}

// Manual impl: `#[derive(Default)]` would demand `E: Default`, but an empty
// bucket needs no payload.
impl<E> Default for Bucket<E> {
    fn default() -> Self {
        Bucket {
            items: Vec::new(),
            head: 0,
        }
    }
}

impl<E> Bucket<E> {
    #[inline]
    fn is_exhausted(&self) -> bool {
        self.head >= self.items.len()
    }
}

/// A calendar/bucket event queue. See the module docs for the design and
/// [`EventScheduler`] for the behavioural contract it shares with
/// [`crate::des::EventQueue`].
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// Bucket `i` covers `[i*width, (i+1)*width)` seconds.
    buckets: Vec<Bucket<E>>,
    /// Bucket width in seconds.
    width: u64,
    /// First bucket that may still hold pending events.
    cursor: usize,
    /// Far-future events (bucket index ≥ `MAX_BUCKETS`).
    overflow: BinaryHeap<ScheduledEvent<E>>,
    now: SimTime,
    next_seq: u64,
    processed: u64,
    clamped: u64,
    pending: usize,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// An empty queue with hourly buckets.
    pub fn new() -> CalendarQueue<E> {
        Self::with_bucket_width(DEFAULT_BUCKET_SECS)
    }

    /// An empty queue with a custom bucket width in seconds (must be > 0).
    pub fn with_bucket_width(width_secs: u64) -> CalendarQueue<E> {
        assert!(width_secs > 0, "bucket width must be positive");
        CalendarQueue {
            buckets: Vec::new(),
            width: width_secs,
            cursor: 0,
            overflow: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            processed: 0,
            clamped: 0,
            pending: 0,
        }
    }

    /// An empty hourly-bucket queue with the calendar pre-sized to cover
    /// `horizon_secs` (events beyond it still work — the calendar grows).
    pub fn with_horizon(horizon_secs: u64) -> CalendarQueue<E> {
        let mut q = Self::new();
        let n = ((horizon_secs / q.width) as usize + 2).min(MAX_BUCKETS);
        q.buckets.reserve(n);
        q
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total number of events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of past-timestamp schedules that were clamped to `now`.
    #[inline]
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error: debug builds panic, release
    /// builds clamp to `now` (counted in [`CalendarQueue::clamped`]).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at}, now={}",
            self.now
        );
        if at < self.now {
            self.clamped += 1;
        }
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = (at.secs() / self.width) as usize;
        if idx >= MAX_BUCKETS {
            self.overflow.push(ScheduledEvent { at, seq, event });
        } else {
            if idx >= self.buckets.len() {
                self.buckets.resize_with(idx + 1, Bucket::default);
            }
            // The cursor may have advanced past this (empty) bucket while
            // searching for the next event; pull it back so the new event
            // is seen. `at >= now` keeps the clock monotone regardless.
            if idx < self.cursor {
                self.cursor = idx;
            }
            let b = &mut self.buckets[idx];
            let slot = Slot {
                at,
                seq,
                event: Some(event),
            };
            // Insert sorted by (at, seq). New events usually belong at the
            // tail (seq is globally increasing and drivers schedule forward
            // in time), so probe the tail before binary-searching.
            let key = (at, seq);
            if b.items.last().is_none_or(|l| (l.at, l.seq) < key) {
                b.items.push(slot);
            } else {
                let pos = b.head + b.items[b.head..].partition_point(|e| (e.at, e.seq) < key);
                b.items.insert(pos, slot);
            }
        }
        self.pending += 1;
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.pending == 0 {
            return None;
        }
        // Walk the cursor to the next non-exhausted bucket, recycling the
        // storage of exhausted ones as it passes (each bucket is cleared at
        // most once per pass, so the walk is O(1) amortized over a run).
        while self.cursor < self.buckets.len() {
            let b = &mut self.buckets[self.cursor];
            if b.is_exhausted() {
                b.items.clear();
                b.head = 0;
                self.cursor += 1;
                continue;
            }
            let slot = &mut b.items[b.head];
            let at = slot.at;
            let event = slot.event.take().expect("pending slot has a payload");
            b.head += 1;
            debug_assert!(at >= self.now, "calendar queue clock went backwards");
            self.now = at;
            self.processed += 1;
            self.pending -= 1;
            return Some((at, event));
        }
        // Calendar exhausted: drain the overflow (all of whose timestamps
        // are strictly beyond the calendar).
        let ev = self.overflow.pop()?;
        debug_assert!(ev.at >= self.now, "overflow clock went backwards");
        self.now = ev.at;
        self.processed += 1;
        self.pending -= 1;
        Some((ev.at, ev.event))
    }

    /// Timestamp of the next pending event, if any (non-mutating scan).
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.pending == 0 {
            return None;
        }
        for b in &self.buckets[self.cursor.min(self.buckets.len())..] {
            if !b.is_exhausted() {
                return Some(b.items[b.head].at);
            }
        }
        self.overflow.peek().map(|e| e.at)
    }

    /// Drop all pending events and reset the clock.
    pub fn reset(&mut self) {
        for b in &mut self.buckets {
            b.items.clear();
            b.head = 0;
        }
        self.cursor = 0;
        self.overflow.clear();
        self.now = SimTime::ZERO;
        self.next_seq = 0;
        self.processed = 0;
        self.clamped = 0;
        self.pending = 0;
    }
}

impl<E> EventScheduler<E> for CalendarQueue<E> {
    fn with_hints(_events: usize, horizon_secs: u64) -> Self {
        CalendarQueue::with_horizon(horizon_secs)
    }

    fn now(&self) -> SimTime {
        CalendarQueue::now(self)
    }

    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }

    fn processed(&self) -> u64 {
        CalendarQueue::processed(self)
    }

    fn clamped(&self) -> u64 {
        CalendarQueue::clamped(self)
    }

    fn schedule(&mut self, at: SimTime, event: E) {
        CalendarQueue::schedule(self, at, event)
    }

    fn peek_time(&self) -> Option<SimTime> {
        CalendarQueue::peek_time(self)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        CalendarQueue::pop(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::EventQueue;
    use crate::time::HOUR;

    #[test]
    fn pops_in_time_order_across_buckets() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime(30 * HOUR), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(2 * HOUR + 5), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.processed(), 3);
        assert_eq!(q.clamped(), 0);
    }

    #[test]
    fn ties_pop_fifo_within_a_bucket() {
        let mut q = CalendarQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_into_current_bucket() {
        // Pop an event mid-bucket, then schedule more events into the same
        // bucket (and into a bucket the cursor already passed over).
        let mut q = CalendarQueue::new();
        q.schedule(SimTime(100), 1);
        q.schedule(SimTime(5 * HOUR), 9);
        assert_eq!(q.pop(), Some((SimTime(100), 1)));
        // Cursor is in bucket 0; peek would walk to bucket 5. Schedule at
        // t=200 (bucket 0) afterwards and it must still pop first.
        assert_eq!(q.peek_time(), Some(SimTime(5 * HOUR)));
        q.schedule(SimTime(200), 2);
        assert_eq!(q.peek_time(), Some(SimTime(200)));
        assert_eq!(q.pop(), Some((SimTime(200), 2)));
        assert_eq!(q.pop(), Some((SimTime(5 * HOUR), 9)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_future_events_overflow_and_drain_last() {
        let mut q = CalendarQueue::new();
        let far = SimTime((MAX_BUCKETS as u64 + 7) * DEFAULT_BUCKET_SECS);
        q.schedule(far, "far");
        q.schedule(SimTime(1), "near");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime(1), "near")));
        assert_eq!(q.pop(), Some((far, "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn reset_clears_and_reuses() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime(3 * HOUR), ());
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.processed(), 0);
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_past_panics_in_debug() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime(2 * HOUR), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn clamped_counts_past_schedules_in_release() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime(2 * HOUR), ());
        q.pop();
        q.schedule(SimTime(5), ());
        assert_eq!(q.clamped(), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime(2 * HOUR), "clamped event fires at now");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Replay one schedule/pop script against both scheduler cores and
        /// assert the popped `(time, seq)` streams are identical.
        ///
        /// `ops` mixes scheduling (relative offsets, coarse-quantized so
        /// same-timestamp FIFO ties are common and buckets are crossed) with
        /// interleaved pops; both queues then drain fully.
        fn replay_and_compare(ops: &[(u8, u32)]) {
            let mut heap: EventQueue<u64> = EventQueue::new();
            let mut cal: CalendarQueue<u64> = CalendarQueue::new();
            let mut payload = 0u64;
            for &(kind, dt) in ops {
                if kind % 4 == 0 {
                    // Pop one event from both; streams must match, and
                    // each core's peek announces the time it pops.
                    let peeked = heap.peek_time();
                    assert_eq!(peeked, cal.peek_time());
                    let popped = heap.pop();
                    assert_eq!(peeked, popped.map(|(t, _)| t));
                    assert_eq!(popped, cal.pop());
                } else {
                    // Quantize offsets so distinct ops often collide on the
                    // same timestamp (FIFO-tie coverage) while still
                    // spanning multiple hour buckets.
                    let offset = (dt as u64 % 50) * 900;
                    let at = SimTime(heap.now().secs() + offset);
                    heap.schedule(at, payload);
                    cal.schedule(at, payload);
                    payload += 1;
                }
            }
            loop {
                let (h, c) = (heap.pop(), cal.pop());
                assert_eq!(h, c);
                if h.is_none() {
                    break;
                }
            }
            assert_eq!(heap.processed(), cal.processed());
        }

        proptest! {
            /// Satellite guarantee: the calendar queue and the binary-heap
            /// reference pop identical `(time, seq)` sequences for arbitrary
            /// schedules, including same-timestamp FIFO ties.
            #[test]
            fn calendar_matches_heap(ops in prop::collection::vec((0u8..8, 0u32..10_000), 1..300)) {
                replay_and_compare(&ops);
            }
        }

        #[test]
        fn calendar_matches_heap_on_tie_storm() {
            // Degenerate deterministic case: everything lands on one
            // timestamp, interleaved with pops.
            let mut ops = vec![(1u8, 0u32); 64];
            ops.extend([(0, 0); 16]);
            ops.extend([(1, 0); 32]);
            replay_and_compare(&ops);
        }
    }
}
