//! A replay event stream: pre-sorted arrivals, a periodic tick and a
//! scheduler core, merged in timestamp order.
//!
//! A trace replay knows two of its three event sources up front. Arrivals
//! come from a trace already sorted by time, and environment ticks fall at
//! fixed multiples of a period. Only the third source — events scheduled
//! while the replay runs, such as job completions — needs a priority
//! queue. [`ReplayStream`] therefore reads arrivals through a cursor and
//! ticks from a counter, and keeps the [`EventScheduler`] core for the
//! scheduled events alone. Arrivals are generated as the clock reaches
//! them instead of being pre-loaded, so the queue stays as small as the
//! set of pending scheduled events.
//!
//! The stream yields exactly what a pre-loaded queue would. Loading every
//! arrival, then every tick, then scheduling as the replay runs gives each
//! arrival a lower insertion sequence than every tick, and each tick a
//! lower one than every scheduled event. So at equal timestamps the
//! `(time, insertion seq)` order is arrival → tick → scheduled, with
//! arrivals in slice order and scheduled events FIFO. The property test
//! at the bottom of this module drives a stream and a pre-loaded
//! reference [`EventQueue`] with the same inputs, for both scheduler
//! cores, and asserts identical `(time, event)` streams.
//!
//! [`EventQueue`]: crate::des::EventQueue

use std::marker::PhantomData;

use crate::des::EventScheduler;
use crate::time::SimTime;

/// Something that arrives at a known time: one row of a pre-sorted
/// arrival slice.
pub trait Timed {
    /// When the row arrives.
    fn at(&self) -> SimTime;
}

impl Timed for SimTime {
    fn at(&self) -> SimTime {
        *self
    }
}

/// One event of a [`ReplayStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next<E> {
    /// The arrival at this index of the arrival slice.
    Arrival(usize),
    /// Tick number `k` (from 1), at `k × period`.
    Tick(u64),
    /// An event scheduled through [`ReplayStream::schedule`].
    Scheduled(E),
}

/// The merged event stream of one replay. See the module docs.
///
/// The stream owns the clock: `now` is the timestamp of the last event
/// popped from any source, and scheduling before it is the same logic
/// error it is for an [`EventScheduler`] (debug builds panic, release
/// builds clamp to `now` and count it in [`ReplayStream::clamped`]).
#[derive(Debug)]
pub struct ReplayStream<'a, T, E, Q> {
    arrivals: &'a [T],
    /// Index of the next arrival to pop.
    next_arrival: usize,
    /// Tick spacing in seconds.
    period: u64,
    /// Number of ticks, at `period, 2·period, …, ticks·period`.
    ticks: u64,
    /// Number of the next tick to pop (from 1).
    next_tick: u64,
    queue: Q,
    /// `queue.peek_time()`, kept current on schedule and pop, so choosing
    /// the next source never rescans the queue.
    queue_next: Option<SimTime>,
    now: SimTime,
    clamped: u64,
    _event: PhantomData<E>,
}

impl<'a, T: Timed, E, Q: EventScheduler<E>> ReplayStream<'a, T, E, Q> {
    /// A stream over `arrivals` (non-decreasing in [`Timed::at`]), `ticks`
    /// ticks every `period_secs` seconds, and `queue` for the events the
    /// replay schedules.
    pub fn new(arrivals: &'a [T], period_secs: u64, ticks: u64, queue: Q) -> Self {
        ReplayStream {
            arrivals,
            next_arrival: 0,
            period: period_secs,
            ticks,
            next_tick: 1,
            queue_next: queue.peek_time(),
            queue,
            now: SimTime::ZERO,
            clamped: 0,
            _event: PhantomData,
        }
    }

    /// Number of `schedule` calls whose timestamp lay in the past and was
    /// clamped to `now`.
    #[inline]
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Schedule `event` at absolute time `at`.
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
        self.queue.schedule(at, event);
        if self.queue_next.is_none_or(|t| at < t) {
            self.queue_next = Some(at);
        }
    }

    /// Pop the next event, advancing the clock to its timestamp. Ties
    /// resolve arrival → tick → scheduled.
    pub fn pop(&mut self) -> Option<(SimTime, Next<E>)> {
        let arrival = self.arrivals.get(self.next_arrival).map(Timed::at);
        let tick = (self.next_tick <= self.ticks).then(|| SimTime(self.next_tick * self.period));
        let queued = self.queue_next;
        let (at, next) = if let Some(a) =
            arrival.filter(|&a| tick.is_none_or(|t| a <= t) && queued.is_none_or(|q| a <= q))
        {
            self.next_arrival += 1;
            (a, Next::Arrival(self.next_arrival - 1))
        } else if let Some(t) = tick.filter(|&t| queued.is_none_or(|q| t <= q)) {
            self.next_tick += 1;
            (t, Next::Tick(self.next_tick - 1))
        } else {
            // Both cursors are exhausted or later: the queue is next (and
            // when it is empty too, the stream has ended).
            let (at, event) = self.queue.pop()?;
            self.queue_next = self.queue.peek_time();
            (at, Next::Scheduled(event))
        };
        debug_assert!(
            at >= self.now,
            "replay stream went backwards (arrivals out of order?): at={at}, now={}",
            self.now
        );
        self.now = at;
        Some((at, next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calq::CalendarQueue;
    use crate::des::EventQueue;
    use crate::time::HOUR;

    #[test]
    fn ties_resolve_arrival_tick_scheduled() {
        let arrivals = [SimTime(HOUR), SimTime(HOUR)];
        let mut s: ReplayStream<_, &str, EventQueue<_>> =
            ReplayStream::new(&arrivals, HOUR, 1, EventQueue::new());
        s.schedule(SimTime(HOUR), "first");
        s.schedule(SimTime(HOUR), "second");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime(HOUR), Next::Arrival(0)),
                (SimTime(HOUR), Next::Arrival(1)),
                (SimTime(HOUR), Next::Tick(1)),
                (SimTime(HOUR), Next::Scheduled("first")),
                (SimTime(HOUR), Next::Scheduled("second")),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_past_panics_in_debug() {
        let mut s: ReplayStream<SimTime, (), CalendarQueue<()>> =
            ReplayStream::new(&[], HOUR, 2, CalendarQueue::new());
        s.pop();
        s.schedule(SimTime(5), ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn clamped_counts_past_schedules_in_release() {
        let mut s: ReplayStream<SimTime, (), CalendarQueue<()>> =
            ReplayStream::new(&[], HOUR, 2, CalendarQueue::new());
        s.pop();
        s.schedule(SimTime(5), ());
        assert_eq!(s.clamped(), 1);
        assert_eq!(s.pop(), Some((SimTime(HOUR), Next::Scheduled(()))));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// The completions the script schedules after the `step`-th pop:
        /// zero, one or two, at offsets of 0–5 quarter hours (offset 0
        /// lands on the popped event's own second); none once the script
        /// runs out, so every replay drains.
        fn completions(script: &[(u8, u8)], step: usize, now: SimTime) -> Vec<SimTime> {
            let Some(&(count, offset)) = script.get(step) else {
                return Vec::new();
            };
            (0..count % 3)
                .map(|k| SimTime(now.secs() + ((offset as u64 + k as u64) % 6) * 900))
                .collect()
        }

        /// Every event in order: a pre-loaded reference `Q` (all arrivals,
        /// then all ticks, then completions as the replay schedules them).
        fn preloaded<Q: EventScheduler<Next<u64>>>(
            arrivals: &[SimTime],
            ticks: u64,
            script: &[(u8, u8)],
        ) -> Vec<(SimTime, Next<u64>)> {
            let mut q = Q::with_hints(0, 0);
            for (i, &t) in arrivals.iter().enumerate() {
                q.schedule(t, Next::Arrival(i));
            }
            for k in 1..=ticks {
                q.schedule(SimTime(k * HOUR), Next::Tick(k));
            }
            let mut out = Vec::new();
            let mut payload = 0;
            while let Some((now, ev)) = q.pop() {
                for at in completions(script, out.len(), now) {
                    q.schedule(at, Next::Scheduled(payload));
                    payload += 1;
                }
                out.push((now, ev));
            }
            assert_eq!(q.clamped(), 0);
            out
        }

        /// The same replay through a [`ReplayStream`] over core `Q`.
        fn streamed<Q: EventScheduler<u64>>(
            arrivals: &[SimTime],
            ticks: u64,
            script: &[(u8, u8)],
        ) -> Vec<(SimTime, Next<u64>)> {
            let mut s = ReplayStream::new(arrivals, HOUR, ticks, Q::with_hints(0, 0));
            let mut out = Vec::new();
            let mut payload = 0;
            while let Some((now, ev)) = s.pop() {
                for at in completions(script, out.len(), now) {
                    s.schedule(at, payload);
                    payload += 1;
                }
                out.push((now, ev));
            }
            assert_eq!(s.clamped(), 0);
            out
        }

        /// Sorted arrival times on a quarter-hour grid: gaps of 0–4
        /// quarters, so arrivals tie with each other, with ticks and with
        /// completions.
        fn arrival_times(gaps: &[u8]) -> Vec<SimTime> {
            gaps.iter()
                .scan(0u64, |t, &g| {
                    *t += (g % 5) as u64 * 900;
                    Some(SimTime(*t))
                })
                .collect()
        }

        fn check(gaps: &[u8], ticks: u64, script: &[(u8, u8)]) {
            let arrivals = arrival_times(gaps);
            let want = preloaded::<EventQueue<_>>(&arrivals, ticks, script);
            assert_eq!(
                preloaded::<CalendarQueue<_>>(&arrivals, ticks, script),
                want
            );
            assert_eq!(streamed::<EventQueue<_>>(&arrivals, ticks, script), want);
            assert_eq!(streamed::<CalendarQueue<_>>(&arrivals, ticks, script), want);
        }

        proptest! {
            /// The merged stream pops exactly the pre-loaded queue's
            /// `(time, event)` sequence on both scheduler cores, with
            /// same-second ties among all three sources.
            #[test]
            fn stream_matches_preloaded_queue(
                gaps in prop::collection::vec(0u8..10, 0..120),
                ticks in 0u64..40,
                script in prop::collection::vec((0u8..3, 0u8..6), 0..200),
            ) {
                check(&gaps, ticks, &script);
            }
        }

        #[test]
        fn stream_matches_preloaded_queue_on_tie_storm() {
            // Every arrival on the first tick's second, and each of the
            // first 64 pops schedules one completion on its own second.
            let mut gaps = [0u8; 16];
            gaps[0] = 4;
            check(&gaps, 3, &[(1, 0); 64]);
        }
    }
}
