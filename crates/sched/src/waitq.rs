//! The fit-indexed waiting queue.
//!
//! EASY backfill's inner loop asks one question millions of times per run:
//! *which queued jobs, in arrival order, could start right now without
//! delaying the blocked head job?* A flat `Vec` answers it by scanning the
//! whole queue per dispatch — on saturated scenarios that scan was ~50 % of
//! total wall time, and almost every visited job was rejected: either its
//! gang didn't fit the free GPUs, or it fit but failed the shadow-time test
//! (too long to finish before the head's reservation, too big for the spare
//! GPUs at the shadow).
//!
//! [`WaitQueue`] stores the queue once in arrival order and additionally
//! indexes live entries by **(gang size, ⌊log₂ duration⌋)** class. Policies
//! read it through a [`QueueView`] (see *Masked views* below). Backfill
//! iterates a position-ordered merge over only the classes that could still
//! produce an accept ([`QueueView::backfill_candidates`]):
//!
//! * classes whose gang exceeds the free GPUs are dropped (and re-dropped
//!   as `free` shrinks mid-dispatch);
//! * classes whose *entire duration range* exceeds the shadow window are
//!   dropped once the spare-GPU budget can no longer admit their size —
//!   every member would fail both accept conditions, so skipping them is
//!   decision-invisible;
//! * the single *boundary* class straddling the shadow window is examined
//!   item-by-item (its members need the exact duration test): the class
//!   lists store each entry's exact duration, so in the default **exact**
//!   mode ([`QueueView::backfill_candidates`]) the iterator applies that
//!   test itself and skips the provable rejects without yielding them —
//!   every candidate yielded is an accept. Visit-budgeted scans
//!   (`BackfillLimit::Depth`) use the **visiting** mode
//!   ([`QueueView::backfill_candidates_visiting`]), which still yields
//!   boundary rejects because the depth budget is defined over *visited*
//!   candidates; filtering them would change which candidates the budget
//!   covers, i.e. the decisions.
//!
//! Rejected candidates never mutate scheduler state, so pruning provable
//! rejects class-wise yields exactly the accepts of the classic full scan,
//! in exactly the same order — the driver's golden determinism test pins
//! this bit-for-bit, while visits collapse from *O(queue depth)* to
//! *O(accepts)* per exhaustive dispatch (~13 M → ~60 K class-pruned, then
//! to the accepts alone once the boundary class was filtered member-wise
//! on the saturated 90-day benchmark).
//!
//! # Shortest-first walk
//!
//! SJF asks a different question of the same index: *which jobs, shortest
//! first, fit the free GPUs?* [`QueueView::shortest_first`] answers it
//! without sorting the queue. The duration buckets cover disjoint,
//! ascending ranges, so walking them in order is walking the queue in
//! duration order; only one bucket's members are ever sorted, by the exact
//! `(duration, enqueued, position)` key the class lists and slots already
//! hold. Gang classes bigger than the GPUs free at the start of a bucket
//! are never gathered (a full sort would reject them too, since `free`
//! only shrinks), and the walk stops as soon as no GPU is free. Decisions
//! are the sort-everything SJF's, job for job; a property test keeps that
//! implementation as the oracle, and the deep-queue golden test pins whole
//! runs.
//!
//! On the perfbench `demand_sweep` campaign (traced, seed 7, 2-vCPU
//! x86-64 Xeon), SJF's summed dispatch time fell from 0.94–1.28 s to
//! 0.008–0.009 s, and the campaign's untraced wall time from ~2.2 s to
//! ~0.33 s, with an identical output digest.
//!
//! # Per-tier lists
//!
//! Green queues (§II-C) ask a third question: *which jobs of one queue
//! class, in arrival order, fit the free GPUs?* [`QueueView::first_fit`]
//! answers it from per-(queue class, gang size) position lists with the
//! same kind of position-ordered merge, over the gang sizes that still fit,
//! so a tier costs the jobs that fit rather than a scan of the whole queue.
//! The tier lists are separate from the (size × duration) index on
//! purpose: keying that index by queue class as well slowed EASY cells by
//! 40–65 % in a prototype.
//!
//! # Masked views
//!
//! The carbon gate (`crate::carbon::CarbonAwarePolicy`) holds back
//! deferrable jobs whose start deadline falls in one range, a
//! `DeferralRange`. It hands its base policy a [`QueueView`] of the
//! driver's queue with that range hidden instead of a filtered copy: every
//! walk above skips hidden entries, and positions are unchanged. A view is
//! plain `Copy` data, a queue reference plus an optional range, so
//! building one costs nothing and the driver's queue is never mutated.
//!
//! # Structure
//!
//! * `slots` — arrival-ordered entries; a removed entry leaves a tombstone
//!   until the front of the queue compacts past it. Positions are therefore
//!   stable for the lifetime of an entry, which is what keeps the per-class
//!   index lists sorted by construction.
//! * `classes[size · NB + bucket]` — ascending positions of live entries in
//!   that (gang size, duration bucket) class. Pushes append (positions
//!   increase monotonically); removals binary-search.
//! * `tiers[queue class][size]` — ascending positions of live entries of
//!   that queue class and gang size, maintained the same way.
//! * `pos_of` — job id → position, for O(1) removal when the driver applies
//!   a dispatch decision.

use greener_simkit::fastmap::FastMap;
use greener_simkit::time::SimTime;
use greener_workload::{Job, JobId, QueueClass};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::policy::QueuedJob;

/// Smallest duration exponent given its own bucket (2⁴ = 16 s); shorter
/// durations share bucket 0.
const MIN_EXP: u32 = 4;
/// Largest duration exponent given its own bucket (2²⁴ s ≈ 194 days);
/// longer durations share the top bucket.
const MAX_EXP: u32 = 24;
/// Number of duration buckets per gang size.
const NB: u32 = MAX_EXP - MIN_EXP + 1;

/// Bucket index for a nominal duration in seconds.
#[inline]
fn dur_bucket(d_secs: u64) -> u32 {
    let exp = 63 - (d_secs | 1).leading_zeros();
    exp.clamp(MIN_EXP, MAX_EXP) - MIN_EXP
}

/// Smallest duration a member of `bucket` can have.
#[inline]
fn bucket_lower(bucket: u32) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << (bucket + MIN_EXP)
    }
}

/// Largest duration a member of `bucket` can have.
#[cfg(test)]
fn bucket_upper(bucket: u32) -> u64 {
    if bucket == NB - 1 {
        u64::MAX
    } else {
        (1u64 << (bucket + MIN_EXP + 1)) - 1
    }
}

/// An arrival-ordered waiting queue with a (gang size × duration) fit
/// index and per-(queue class, gang size) tier lists.
///
/// See the module docs for the design. The driver owns one per run and
/// hands policies a [`QueueView`] of it; no policy keeps a queue of its
/// own.
#[derive(Debug, Default)]
pub struct WaitQueue {
    /// Arrival-ordered entries; `None` marks a removed entry (tombstone).
    slots: Vec<Option<QueuedJob>>,
    /// Index of the first live slot; everything before it is consumed.
    head: usize,
    /// Number of live entries.
    live: usize,
    /// `classes[size · NB + bucket]` = `(position, duration secs)` of live
    /// entries of that (gang size, duration bucket) class, ascending by
    /// position. The exact duration rides along so the boundary duration
    /// class can be filtered member-wise without touching `slots`.
    classes: Vec<Vec<(u32, u64)>>,
    /// `tiers[queue class][size]` = positions of live entries of that queue
    /// class and gang size, ascending.
    tiers: [Vec<Vec<u32>>; 3],
    /// Job id → slot position of live entries.
    pos_of: FastMap<JobId, u32>,
}

impl WaitQueue {
    /// An empty queue.
    pub fn new() -> WaitQueue {
        WaitQueue::default()
    }

    /// An empty queue with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> WaitQueue {
        WaitQueue {
            slots: Vec::with_capacity(cap),
            ..WaitQueue::default()
        }
    }

    /// Number of waiting jobs.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no jobs are waiting.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The index class of a job.
    #[inline]
    fn class_of(q: &QueuedJob) -> u32 {
        q.job.gpus * NB + dur_bucket(q.job.nominal_duration().0)
    }

    /// Append a job at the back of the queue.
    pub fn push(&mut self, q: QueuedJob) {
        // Gang sizes start at 1: the fit index has no size-0 row, and the
        // walks stop once no GPU is free.
        debug_assert!(q.job.gpus >= 1, "job {:?} has an empty gang", q.job.id);
        let pos = self.slots.len() as u32;
        let class = Self::class_of(&q) as usize;
        if class >= self.classes.len() {
            self.classes.resize_with(class + 1, Vec::new);
        }
        let tier = &mut self.tiers[q.job.queue as usize];
        let size = q.job.gpus as usize;
        if size >= tier.len() {
            tier.resize_with(size + 1, Vec::new);
        }
        // Positions grow monotonically, so appending keeps the lists sorted.
        self.classes[class].push((pos, q.job.nominal_duration().0));
        tier[size].push(pos);
        self.pos_of.insert(q.job.id, pos);
        self.slots.push(Some(q));
        self.live += 1;
    }

    /// Look up a waiting job by id.
    pub fn get(&self, id: JobId) -> Option<&QueuedJob> {
        let &pos = self.pos_of.get(&id)?;
        self.slots[pos as usize].as_ref()
    }

    /// Remove a job by id, returning it. The front of the queue compacts
    /// past any tombstones this leaves behind.
    pub fn remove(&mut self, id: JobId) -> Option<QueuedJob> {
        let pos = self.pos_of.remove(&id)?;
        let q = self.slots[pos as usize]
            .take()
            .expect("pos_of points at live slots");
        let list = &mut self.classes[Self::class_of(&q) as usize];
        let i = list
            .binary_search_by_key(&pos, |&(p, _)| p)
            .expect("live entry is in its class list");
        list.remove(i);
        let list = &mut self.tiers[q.job.queue as usize][q.job.gpus as usize];
        let i = list
            .binary_search(&pos)
            .expect("live entry is in its tier list");
        list.remove(i);
        self.live -= 1;
        while self.head < self.slots.len() && self.slots[self.head].is_none() {
            self.head += 1;
        }
        Some(q)
    }

    /// Iterate live jobs in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedJob> {
        self.slots[self.head..].iter().filter_map(|s| s.as_ref())
    }

    /// Iterate `(position, job)` pairs of live jobs in arrival order.
    /// Positions are stable identifiers usable with
    /// [`QueueView::backfill_candidates`].
    pub fn live_positions(&self) -> impl Iterator<Item = (u32, &QueuedJob)> {
        self.slots[self.head..]
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|q| ((self.head + i) as u32, q)))
    }

    /// The whole queue as a policy sees it: nothing hidden.
    #[inline]
    pub fn view(&self) -> QueueView<'_> {
        QueueView {
            queue: self,
            hidden: None,
        }
    }

    /// The live entry at a position taken from an index list.
    #[inline]
    fn live(&self, pos: u32) -> &QueuedJob {
        self.slots[pos as usize]
            .as_ref()
            .expect("fit index holds live positions")
    }

    /// Largest gang size with a class-table row.
    #[inline]
    fn max_size(&self) -> u32 {
        (self.classes.len() as u32).div_ceil(NB).saturating_sub(1)
    }
}

/// Deferrable jobs whose start deadline falls in `[from, until)`; with
/// `until = None` the range is unbounded above and also covers deferrable
/// jobs without a deadline. This is the set the carbon gate holds back in
/// one dispatch (`crate::carbon::CarbonAwarePolicy::deferral_range`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DeferralRange {
    /// Earliest start deadline in the range.
    pub(crate) from: SimTime,
    /// First start deadline past the range, if it is bounded.
    pub(crate) until: Option<SimTime>,
}

impl DeferralRange {
    /// Whether `job` falls in the range.
    #[inline]
    pub(crate) fn contains(&self, job: &Job) -> bool {
        job.deferrable
            && match job.start_deadline {
                Some(by) => by >= self.from && self.until.is_none_or(|u| by < u),
                None => self.until.is_none(),
            }
    }

    /// The smallest range covering both. Exact when the two overlap or
    /// touch, which two gates evaluated at the same dispatch always do:
    /// both ranges end at the forecast's first infinite hour or are
    /// unbounded, and each starts before it.
    fn union(self, other: DeferralRange) -> DeferralRange {
        DeferralRange {
            from: self.from.min(other.from),
            until: self.until.zip(other.until).map(|(a, b)| a.max(b)),
        }
    }
}

/// A [`WaitQueue`] as a policy sees it: the driver's queue, optionally with
/// one `DeferralRange` of jobs hidden. Plain `Copy` data; every walk skips
/// hidden entries and keeps positions as they are in the queue. See the
/// module docs' masked views.
#[derive(Debug, Clone, Copy)]
pub struct QueueView<'a> {
    queue: &'a WaitQueue,
    hidden: Option<DeferralRange>,
}

impl<'a> QueueView<'a> {
    /// The underlying queue, hidden entries included.
    #[inline]
    pub(crate) fn queue(&self) -> &'a WaitQueue {
        self.queue
    }

    /// This view with `range` hidden as well.
    pub(crate) fn without(self, range: DeferralRange) -> QueueView<'a> {
        QueueView {
            queue: self.queue,
            hidden: Some(self.hidden.map_or(range, |h| h.union(range))),
        }
    }

    /// Whether this view hides `q`.
    #[inline]
    pub(crate) fn hides(&self, q: &QueuedJob) -> bool {
        self.hidden.is_some_and(|r| r.contains(&q.job))
    }

    /// Iterate visible jobs in arrival order.
    pub fn iter(self) -> impl Iterator<Item = &'a QueuedJob> {
        self.live_positions().map(|(_, q)| q)
    }

    /// Iterate `(position, job)` pairs of visible jobs in arrival order.
    pub fn live_positions(self) -> impl Iterator<Item = (u32, &'a QueuedJob)> {
        self.queue
            .live_positions()
            .filter(move |(_, q)| !self.hides(q))
    }

    /// A fit-indexed iterator over visible jobs at positions strictly after
    /// `after`, in arrival order, pruned to candidates that could still be
    /// accepted by EASY backfill given:
    ///
    /// * `free` — GPUs free right now (classes with bigger gangs drop);
    /// * `d_max` — the shadow window in seconds: candidates finishing
    ///   within it are accepted unconditionally, so duration classes
    ///   entirely within `d_max` always qualify;
    /// * `spare` — the spare-GPU budget at the shadow: duration classes
    ///   entirely *beyond* `d_max` qualify only while their gang fits it.
    ///
    /// `free` and `spare` are re-passed (non-increasing) on every
    /// [`FitIter::next`] call so classes drop as the budgets shrink —
    /// mirroring exactly which jobs a full arrival-order scan with the same
    /// shrinking budgets could accept. This **exact** mode additionally
    /// applies the per-member duration test inside the boundary duration
    /// class, so *every* candidate yielded satisfies one of the two accept
    /// conditions under the budgets passed to that `next` call (the caller
    /// keeps the authoritative test; it just stops seeing the provable
    /// rejects). Visit-budgeted callers must use
    /// [`QueueView::backfill_candidates_visiting`] instead.
    ///
    /// Pass `d_max = u64::MAX` for a pure size-fit iteration (every
    /// duration class qualifies unconditionally).
    pub fn backfill_candidates(self, after: u32, free: u32, d_max: u64, spare: u32) -> FitIter<'a> {
        self.fit_iter(after, free, d_max, spare, true)
    }

    /// Like [`QueueView::backfill_candidates`], but the boundary duration
    /// class is yielded member-by-member *including* its provable rejects,
    /// exactly like the classic arrival-order scan visits them. Depth-
    /// budgeted backfill (`BackfillLimit::Depth`) needs this mode: its
    /// budget counts visited candidates, so filtering rejects out would
    /// change which candidates the budget covers — i.e. the decisions.
    pub fn backfill_candidates_visiting(
        self,
        after: u32,
        free: u32,
        d_max: u64,
        spare: u32,
    ) -> FitIter<'a> {
        self.fit_iter(after, free, d_max, spare, false)
    }

    /// Greedy shortest-job-first packing over the fit index: hand `accept`
    /// every visible job that fits the GPUs still free, taking jobs in
    /// ascending `(nominal duration, enqueued, position)` order; `free`
    /// shrinks by each accepted gang. The result equals sorting the whole
    /// queue, at the cost of one duration bucket's sort — see the module
    /// docs' shortest-first walk. `scratch` is a reusable buffer; its
    /// contents on entry are ignored.
    pub fn shortest_first(
        self,
        mut free: u32,
        scratch: &mut Vec<(u64, SimTime, u32)>,
        mut accept: impl FnMut(&QueuedJob),
    ) {
        if free == 0 {
            return;
        }
        let queue = self.queue;
        let max_size = queue.max_size();
        for bucket in 0..NB {
            scratch.clear();
            for size in 1..=max_size.min(free) {
                if let Some(list) = queue.classes.get((size * NB + bucket) as usize) {
                    scratch.extend(list.iter().filter_map(|&(pos, d)| {
                        let q = queue.live(pos);
                        (!self.hides(q)).then_some((d, q.enqueued, pos))
                    }));
                }
            }
            // Positions are unique, so the unstable sort is deterministic.
            scratch.sort_unstable();
            for &(_, _, pos) in scratch.iter() {
                let q = queue.live(pos);
                if q.job.gpus <= free {
                    free -= q.job.gpus;
                    accept(q);
                    if free == 0 {
                        return;
                    }
                }
            }
        }
    }

    /// Arrival-order first fit over one queue class: hand `accept` every
    /// visible job of `class` that `eligible` admits and that fits the GPUs
    /// still free, shrinking `free` by each accepted gang; returns the GPUs
    /// left. The walk merges the class's per-gang-size tier lists by
    /// position and drops a size once `free` falls below it, so it visits
    /// only jobs whose gang fits, and accepts the same jobs, in the same
    /// order, as a scan of the whole queue filtered to `class` would.
    pub fn first_fit(
        self,
        class: QueueClass,
        mut free: u32,
        mut eligible: impl FnMut(&QueuedJob) -> bool,
        mut accept: impl FnMut(&QueuedJob),
    ) -> u32 {
        let lists = &self.queue.tiers[class as usize];
        let top = (lists.len() as u32).saturating_sub(1).min(free);
        // Min-heap of (next position, gang size, cursor index), one entry
        // per gang size that still fits.
        let mut heap = BinaryHeap::new();
        for size in 1..=top {
            if let Some(&pos) = lists[size as usize].first() {
                heap.push(Reverse((pos, size, 0u32)));
            }
        }
        while free > 0 {
            let Some(Reverse((pos, size, cur))) = heap.pop() else {
                break;
            };
            // `free` only shrinks: a size that no longer fits never will.
            if size > free {
                continue;
            }
            if let Some(&next) = lists[size as usize].get(cur as usize + 1) {
                heap.push(Reverse((next, size, cur + 1)));
            }
            let q = self.queue.live(pos);
            if !self.hides(q) && eligible(q) {
                free -= size;
                accept(q);
            }
        }
        free
    }

    fn fit_iter(self, after: u32, free: u32, d_max: u64, spare: u32, exact: bool) -> FitIter<'a> {
        let max_size = self.queue.max_size();
        let mut heap = BinaryHeap::with_capacity(32);
        for size in 1..=max_size.min(free) {
            for bucket in 0..NB {
                let class = size * NB + bucket;
                let Some(list) = self.queue.classes.get(class as usize) else {
                    continue;
                };
                if list.is_empty() {
                    continue;
                }
                // A "long" class (every member outlives the shadow window)
                // only qualifies while its gang fits the spare budget.
                if bucket_lower(bucket) > d_max && size > spare {
                    continue;
                }
                // First candidate strictly after `after`.
                let cur = list.partition_point(|&(p, _)| p <= after);
                if cur < list.len() {
                    heap.push(Reverse((list[cur].0, class, cur as u32)));
                }
            }
        }
        FitIter {
            view: self,
            d_max,
            heap,
            exact,
        }
    }
}

impl FromIterator<QueuedJob> for WaitQueue {
    fn from_iter<T: IntoIterator<Item = QueuedJob>>(iter: T) -> WaitQueue {
        let mut q = WaitQueue::new();
        for j in iter {
            q.push(j);
        }
        q
    }
}

/// Position-ordered merge over the qualifying (size, duration) classes of
/// a [`QueueView`]. Produced by [`QueueView::backfill_candidates`].
#[derive(Debug)]
pub struct FitIter<'a> {
    view: QueueView<'a>,
    /// Shadow window (seconds) fixed at creation.
    d_max: u64,
    /// Min-heap of `(next position, class, cursor index)` — one entry per
    /// active class, keyed by that class's earliest unvisited position.
    heap: BinaryHeap<Reverse<(u32, u32, u32)>>,
    /// Exact mode: apply the per-member duration test in the boundary
    /// class and skip provable rejects instead of yielding them.
    exact: bool,
}

impl<'a> FitIter<'a> {
    /// The next visible candidate in arrival order that could still be
    /// accepted under the current budgets.
    ///
    /// `free` and `spare` must be ≤ every value passed previously (backfill
    /// only consumes GPUs); classes they disqualify are discarded
    /// permanently, exactly like a full scan with shrinking budgets would
    /// skip their members. In exact mode, skipped boundary-class rejects
    /// are likewise discarded permanently — sound for the same reason: the
    /// duration test is fixed at creation and the spare budget only
    /// shrinks, so a provable reject can never become an accept later.
    pub fn next(&mut self, free: u32, spare: u32) -> Option<&'a QueuedJob> {
        while let Some(Reverse((pos, class, cur))) = self.heap.pop() {
            let size = class / NB;
            let bucket = class % NB;
            // Budgets only shrink, so a class that no longer qualifies
            // never re-qualifies: drop it wholesale (don't re-push).
            if size > free {
                continue;
            }
            if bucket_lower(bucket) > self.d_max && size > spare {
                continue;
            }
            let list = &self.view.queue.classes[class as usize];
            let mut cur = cur as usize;
            debug_assert_eq!(list[cur].0, pos);
            if self.exact && size > spare && list[cur].1 > self.d_max {
                // Boundary-class provable reject (outlives the shadow
                // window, gang exceeds the spare budget): walk past the
                // contiguous run of rejects and re-queue the first member
                // that could still be accepted, so the position-ordered
                // merge stays intact without yielding the rejects.
                loop {
                    cur += 1;
                    if cur >= list.len() {
                        break;
                    }
                    if list[cur].1 <= self.d_max {
                        self.heap.push(Reverse((list[cur].0, class, cur as u32)));
                        break;
                    }
                }
                continue;
            }
            if cur + 1 < list.len() {
                self.heap
                    .push(Reverse((list[cur + 1].0, class, cur as u32 + 1)));
            }
            let q = self.view.queue.live(pos);
            if self.view.hides(q) {
                continue;
            }
            return Some(q);
        }
        None
    }
}

/// Running waiting-queue depth statistics — the scheduler-side hook for
/// queue-depth observation.
///
/// The driver's `QueueDepthProbe` (and anything else that samples queue
/// depth, e.g. the perfjson benchmark snapshot) feeds one depth sample per
/// observation into this accumulator instead of retaining a depth series:
/// max and mean are exact over the samples, and memory stays O(1)
/// regardless of horizon. Samples are whatever cadence the caller picks —
/// the driver samples at the top of every simulated hour, matching the
/// queue-depth column hourly telemetry used to carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DepthStats {
    /// Deepest observed queue.
    pub max: u32,
    /// Sum of observed depths (for the mean).
    pub sum: f64,
    /// Number of samples observed.
    pub samples: usize,
}

impl DepthStats {
    /// A fresh accumulator.
    pub fn new() -> DepthStats {
        DepthStats::default()
    }

    /// Record one queue-depth sample.
    pub fn record(&mut self, depth: u32) {
        self.max = self.max.max(depth);
        self.sum += depth as f64;
        self.samples += 1;
    }

    /// Mean observed depth (0 before any sample).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum / self.samples as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testutil::qjob;

    fn ids(q: &WaitQueue) -> Vec<u64> {
        q.iter().map(|j| j.job.id.0).collect()
    }

    /// Drain a size-only fit iteration (`d_max = MAX`).
    fn drain_fit(q: &WaitQueue, after: u32, budget: u32) -> Vec<u64> {
        let mut it = q.view().backfill_candidates(after, budget, u64::MAX, 0);
        let mut seen = Vec::new();
        while let Some(j) = it.next(budget, 0) {
            seen.push(j.job.id.0);
        }
        seen
    }

    #[test]
    fn depth_stats_track_max_and_mean() {
        let mut d = DepthStats::new();
        assert_eq!(d.mean(), 0.0);
        for depth in [3u32, 0, 5, 2] {
            d.record(depth);
        }
        assert_eq!(d.max, 5);
        assert_eq!(d.samples, 4);
        assert!((d.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn push_iter_preserves_arrival_order() {
        let q: WaitQueue = [qjob(3, 2, 1.0), qjob(1, 4, 1.0), qjob(2, 2, 1.0)]
            .into_iter()
            .collect();
        assert_eq!(ids(&q), vec![3, 1, 2]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn remove_by_id_and_compaction() {
        let mut q: WaitQueue = (0..5).map(|i| qjob(i, 1, 1.0)).collect();
        assert!(q.remove(JobId(2)).is_some());
        assert_eq!(ids(&q), vec![0, 1, 3, 4]);
        // Removing the front compacts head past the earlier tombstone.
        assert!(q.remove(JobId(0)).is_some());
        assert!(q.remove(JobId(1)).is_some());
        assert_eq!(ids(&q), vec![3, 4]);
        assert!(q.remove(JobId(2)).is_none(), "double remove");
        assert_eq!(q.len(), 2);
        assert!(q.get(JobId(3)).is_some());
        assert!(q.get(JobId(1)).is_none());
    }

    #[test]
    fn fit_iter_visits_fitting_jobs_in_arrival_order() {
        // Sizes: 8, 2, 16, 4, 2 at positions 0..5, mixed durations so the
        // merge crosses duration buckets too.
        let q: WaitQueue = [
            qjob(10, 8, 1.0),
            qjob(11, 2, 9.0),
            qjob(12, 16, 1.0),
            qjob(13, 4, 0.5),
            qjob(14, 2, 30.0),
        ]
        .into_iter()
        .collect();
        // After position 0 with budget 4: jobs 11 (2), 13 (4), 14 (2).
        assert_eq!(drain_fit(&q, 0, 4), vec![11, 13, 14]);
    }

    #[test]
    fn fit_iter_drops_classes_as_budget_shrinks() {
        let q: WaitQueue = [
            qjob(1, 4, 1.0),
            qjob(2, 2, 1.0),
            qjob(3, 4, 1.0),
            qjob(4, 1, 1.0),
        ]
        .into_iter()
        .collect();
        let mut it = q.view().backfill_candidates(0, 4, u64::MAX, 0);
        // Budget 4 admits job 2 (pos 1) first…
        assert_eq!(it.next(4, 0).unwrap().job.id.0, 2);
        // …then the budget shrinks to 1: the size-4 class (job 3) is
        // dropped and job 4 is the only remaining candidate.
        assert_eq!(it.next(1, 0).unwrap().job.id.0, 4);
        assert!(it.next(1, 0).is_none());
    }

    #[test]
    fn fit_iter_skips_removed_entries() {
        let mut q: WaitQueue = (0..6).map(|i| qjob(i, 2, 1.0)).collect();
        q.remove(JobId(2));
        q.remove(JobId(4));
        assert_eq!(drain_fit(&q, 0, 8), vec![1, 3, 5]);
    }

    #[test]
    fn long_classes_drop_without_spare_budget() {
        // A blocked head at position 0, then one short job (30 min, fits
        // the 1 h window) among long jobs (100 h, far beyond it). With no
        // spare budget, the long classes are pruned wholesale; the short
        // job still comes through.
        let q: WaitQueue = [
            qjob(9, 16, 1.0), // blocked head (candidates start after it)
            qjob(1, 2, 100.0),
            qjob(2, 2, 0.5),
            qjob(3, 2, 100.0),
            qjob(4, 4, 100.0),
        ]
        .into_iter()
        .collect();
        let d_max = 3_600; // 1 h shadow window
        let mut it = q.view().backfill_candidates(0, 8, d_max, 0);
        assert_eq!(it.next(8, 0).unwrap().job.id.0, 2);
        assert!(it.next(8, 0).is_none(), "long jobs are provable rejects");
        // With spare budget 2, the size-2 long jobs qualify again (in
        // arrival order), the size-4 one stays pruned.
        let mut it = q.view().backfill_candidates(0, 8, d_max, 2);
        let mut seen = Vec::new();
        while let Some(j) = it.next(8, 2) {
            seen.push(j.job.id.0);
        }
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn boundary_class_exact_vs_visiting() {
        // d_max falls inside a bucket: job 1 (1.2 h) fits the window, job 2
        // (1.8 h) outlives it with no spare budget — a provable reject.
        // Exact mode filters it member-wise;
        // visiting mode yields it like the classic scan, for depth-budgeted
        // callers. Position 0 is the blocked head.
        let q: WaitQueue = [qjob(9, 16, 1.0), qjob(1, 2, 1.2), qjob(2, 2, 1.8)]
            .into_iter()
            .collect();
        let d_max = (1.5 * 3_600.0) as u64;
        let mut it = q.view().backfill_candidates(0, 8, d_max, 0);
        let mut seen = Vec::new();
        while let Some(j) = it.next(8, 0) {
            seen.push(j.job.id.0);
        }
        assert_eq!(seen, vec![1], "exact mode filters the boundary reject");
        let mut it = q.view().backfill_candidates_visiting(0, 8, d_max, 0);
        let mut seen = Vec::new();
        while let Some(j) = it.next(8, 0) {
            seen.push(j.job.id.0);
        }
        assert_eq!(seen, vec![1, 2], "visiting mode yields the whole bucket");
        // With spare budget for the gang, exact mode yields job 2 too (the
        // spare-GPU accept condition holds).
        let mut it = q.view().backfill_candidates(0, 8, d_max, 2);
        let mut seen = Vec::new();
        while let Some(j) = it.next(8, 2) {
            seen.push(j.job.id.0);
        }
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn duration_buckets_are_contiguous_and_exhaustive() {
        // Every duration maps to exactly one bucket whose bounds contain
        // it, and bucket ranges tile [0, u64::MAX].
        let mut prev_upper: Option<u64> = None;
        for b in 0..NB {
            let (lo, hi) = (bucket_lower(b), bucket_upper(b));
            assert!(lo <= hi);
            if let Some(p) = prev_upper {
                assert_eq!(lo, p + 1, "gap before bucket {b}");
            }
            prev_upper = Some(hi);
        }
        assert_eq!(prev_upper, Some(u64::MAX));
        for d in [0u64, 1, 15, 16, 31, 32, 3_600, 86_400, 1 << 23, 1 << 30] {
            let b = dur_bucket(d);
            assert!(
                bucket_lower(b) <= d && d <= bucket_upper(b),
                "duration {d} outside bucket {b}"
            );
        }
    }

    mod props {
        use super::*;
        use crate::policy::testutil::{evolve, qjob_at};
        use greener_simkit::time::SimTime;
        use proptest::prelude::*;

        proptest! {
            /// Per-tier first fit yields exactly what a scan of the whole
            /// queue in arrival order, filtered to the tier, to visible jobs
            /// and to `eligible`, accepts with the same shrinking budget —
            /// across evolving pushes and removes, for every queue class,
            /// with and without a hidden deadline range.
            #[test]
            fn first_fit_matches_filtered_scan(
                ops in prop::collection::vec(((0u8..8, 1u32..17), (0usize..8, 0u64..200_000)), 1..80),
                steps in prop::collection::vec((0u32..17, 0usize..3, 0u64..4, 0u64..60), 80),
            ) {
                let mut queue = WaitQueue::new();
                let mut next_id = 0u64;
                for (&op, &(free, class, skip, from_h)) in ops.iter().zip(&steps) {
                    evolve(&mut queue, &mut next_id, op);
                    let class = QueueClass::ALL[class];
                    let mut view = queue.view();
                    if from_h < 48 {
                        view = view.without(DeferralRange {
                            from: SimTime::from_hours(from_h),
                            until: from_h.is_multiple_of(2).then(|| SimTime::from_hours(from_h + 30)),
                        });
                    }
                    // Skip every job whose id is a multiple of `skip + 2`.
                    let eligible = |q: &QueuedJob| !q.job.id.0.is_multiple_of(skip + 2);
                    let mut want = Vec::new();
                    let mut budget = free;
                    for q in queue.iter() {
                        if q.job.queue == class && !view.hides(q) && eligible(q)
                            && q.job.gpus <= budget
                        {
                            budget -= q.job.gpus;
                            want.push(q.job.id.0);
                        }
                    }
                    let mut got = Vec::new();
                    let left = view.first_fit(class, free, eligible, |q| got.push(q.job.id.0));
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(left, budget);
                }
            }

            /// The fit iterator yields exactly what a full arrival-order
            /// scan with the same (non-increasing) size budget yields when
            /// no duration pruning applies.
            #[test]
            fn fit_iter_matches_full_scan(
                sizes in prop::collection::vec(1u32..9, 1..60),
                removals in prop::collection::vec(0usize..60, 0..20),
                budget0 in 1u32..12,
            ) {
                let mut q = WaitQueue::new();
                for (i, &g) in sizes.iter().enumerate() {
                    q.push(qjob(i as u64, g, 1.0));
                }
                for &r in &removals {
                    if r < sizes.len() {
                        q.remove(JobId(r as u64));
                    }
                }
                // Reference: full scan over live entries after position 0,
                // shrinking the budget by each accepted job's size.
                let mut budget = budget0;
                let mut want = Vec::new();
                for (pos, j) in q.live_positions() {
                    if pos == 0 { continue; }
                    if j.job.gpus <= budget {
                        want.push(j.job.id.0);
                        budget -= j.job.gpus;
                    }
                }
                let mut budget = budget0;
                let mut got = Vec::new();
                let mut it = q.view().backfill_candidates(0, budget, u64::MAX, 0);
                while let Some(j) = it.next(budget, 0) {
                    got.push(j.job.id.0);
                    budget -= j.job.gpus;
                }
                prop_assert_eq!(got, want);
            }

            /// Duration pruning is sound: with arbitrary (fixed) budgets,
            /// exact mode yields *exactly* the jobs a full arrival-order
            /// scan would accept (the member-wise boundary filter removes
            /// every provable reject and nothing else), while visiting
            /// mode yields a superset — the same accepts plus boundary
            /// rejects — in arrival order.
            #[test]
            fn pruning_never_hides_an_accept(
                jobs in prop::collection::vec((1u32..9, 1u64..200_000), 1..50),
                free in 1u32..12,
                spare in 0u32..12,
                d_max in 0u64..300_000,
            ) {
                let mut q = WaitQueue::new();
                for (i, &(g, d_secs)) in jobs.iter().enumerate() {
                    q.push(qjob_at(i as u64, g, d_secs as f64 / 3_600.0, SimTime::ZERO));
                }
                // Reference accepts under *fixed* budgets.
                let mut accepts = Vec::new();
                for (pos, j) in q.live_positions() {
                    if pos == 0 { continue; }
                    let g = j.job.gpus;
                    let d = j.job.nominal_duration().0;
                    if g <= free && (d <= d_max || g <= spare) {
                        accepts.push(j.job.id.0);
                    }
                }
                // after=0 semantics: skip position 0 like the scan above.
                let mut it = q.view().backfill_candidates(0, free, d_max, spare);
                let mut yielded = Vec::new();
                while let Some(j) = it.next(free, spare) {
                    yielded.push(j.job.id.0);
                }
                // Exact mode == reference accepts, in order.
                prop_assert_eq!(&yielded, &accepts);
                let mut it = q.view().backfill_candidates_visiting(0, free, d_max, spare);
                let mut visited = Vec::new();
                while let Some(j) = it.next(free, spare) {
                    visited.push(j.job.id.0);
                }
                // Every reference accept is visited, in order.
                let mut vi = visited.iter();
                for a in &accepts {
                    prop_assert!(
                        vi.any(|v| v == a),
                        "accept {} missing from visited {:?}", a, visited
                    );
                }
                // Everything visited at least fits the free GPUs.
                for v in &visited {
                    let j = q.get(JobId(*v)).unwrap();
                    prop_assert!(j.job.gpus <= free);
                }
            }
        }
    }
}
