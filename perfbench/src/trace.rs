//! In-memory span recorder and wall-time attribution.
//!
//! A span is one call into a layer's public function, named
//! `<layer>.<fn>`, with its start and end (seconds since the tracer was
//! created), its parent span and an op id (the cell or shard it served).
//! Spans are kept in memory and written out when the run ends.
//!
//! Spans nest across threads: a shard span on a worker thread names the
//! orchestration span on the main thread as its parent. [`attribute`]
//! turns the spans into *wall-time self times*: every instant of the
//! traced interval is charged to the innermost spans active at that
//! instant (split evenly when several run at once on different threads),
//! or to `unattributed` when no span is active. The self times of all
//! spans plus the unattributed time therefore sum to the traced wall time
//! by construction. [`covered_s`] gives the union of a set of spans, from
//! which the run recomputes the remainder independently as a check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span (for parent links).
pub type SpanId = u64;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// `<layer>.<fn>`.
    pub name: &'static str,
    /// Cell or shard index the call served.
    pub op: u64,
    /// Seconds since the tracer's origin.
    pub start: f64,
    pub end: f64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Thread-safe span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the tracer's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span. `f` receives the span's id so calls it makes
    /// (on any thread) can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(Span {
                id,
                parent,
                name,
                op,
                start,
                end,
            });
        out
    }

    /// Every recorded span, sorted by start time.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("a span recorder panicked");
        spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
        spans
    }
}

/// Wall-time attribution of one traced interval.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Self time of each span, in the order of the input slice.
    pub self_s: Vec<f64>,
    /// Time inside the interval during which no span was active.
    pub unattributed_s: f64,
    /// Length of the interval.
    pub wall_s: f64,
}

impl Attribution {
    /// Sum of the self times of every span of `layer`.
    pub fn layer_self(&self, spans: &[Span], layer: &str) -> f64 {
        spans
            .iter()
            .zip(&self.self_s)
            .filter(|(s, _)| s.layer() == layer)
            .map(|(_, t)| t)
            .sum()
    }
}

/// Charge every instant of `[t0, t1]` to the innermost spans active at
/// that instant. A span is *innermost* at an instant when none of its
/// children is active then; when several innermost spans overlap (on
/// different threads) the instant is split evenly between them.
pub fn attribute(spans: &[Span], t0: f64, t1: f64) -> Attribution {
    let mut cuts: Vec<f64> = vec![t0, t1];
    for s in spans {
        cuts.push(s.start.clamp(t0, t1));
        cuts.push(s.end.clamp(t0, t1));
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();
    let index: std::collections::HashMap<SpanId, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut self_s = vec![0.0; spans.len()];
    let mut unattributed_s = 0.0;
    let mut active: Vec<usize> = Vec::new();
    let mut has_active_child = vec![false; spans.len()];
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        active.clear();
        active.extend((0..spans.len()).filter(|&i| spans[i].start <= a && spans[i].end >= b));
        for &i in &active {
            has_active_child[i] = false;
        }
        for &i in &active {
            if let Some(p) = spans[i].parent.and_then(|p| index.get(&p)) {
                has_active_child[*p] = true;
            }
        }
        let leaves: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| !has_active_child[i])
            .collect();
        if leaves.is_empty() {
            unattributed_s += b - a;
        } else {
            let share = (b - a) / leaves.len() as f64;
            for i in leaves {
                self_s[i] += share;
            }
        }
    }
    Attribution {
        self_s,
        unattributed_s,
        wall_s: t1 - t0,
    }
}

/// Length of the union of `spans` clipped to `[t0, t1]`.
pub fn covered_s<'a>(spans: impl IntoIterator<Item = &'a Span>, t0: f64, t1: f64) -> f64 {
    let mut intervals: Vec<(f64, f64)> = spans
        .into_iter()
        .map(|s| (s.start.clamp(t0, t1), s.end.clamp(t0, t1)))
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut covered, mut reach) = (0.0, t0);
    for (start, end) in intervals {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start,
            end,
        }
    }

    #[test]
    fn nested_spans_charge_self_time_and_name_the_gap() {
        let spans = vec![
            span(0, None, "campaign.run", 1.0, 9.0),
            span(1, Some(0), "replay.cell", 2.0, 5.0),
            span(2, Some(0), "replay.cell", 5.0, 6.0),
        ];
        let a = attribute(&spans, 0.0, 10.0);
        assert!((a.self_s[0] - 4.0).abs() < 1e-12);
        assert!((a.self_s[1] - 3.0).abs() < 1e-12);
        assert!((a.self_s[2] - 1.0).abs() < 1e-12);
        assert!((a.unattributed_s - 2.0).abs() < 1e-12);
        assert!((a.layer_self(&spans, "replay") - 4.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_split_wall_time_and_the_ledger_adds_up() {
        // Two shards on two threads under one orchestration span; the
        // second shard is the straggler.
        let spans = vec![
            span(0, None, "campaign.run", 0.0, 10.0),
            span(1, Some(0), "campaign.run_cells", 0.5, 3.0),
            span(2, Some(0), "campaign.run_cells", 0.5, 9.5),
            span(3, Some(2), "replay.cell", 1.0, 9.0),
        ];
        let a = attribute(&spans, 0.0, 10.0);
        let total: f64 = a.self_s.iter().sum::<f64>() + a.unattributed_s;
        assert!((total - 10.0).abs() < 1e-12);
        assert!((a.self_s[0] - 1.0).abs() < 1e-12);
        // The cell shares 1.0..3.0 with shard 1 and has 3.0..9.0 alone.
        assert!((a.self_s[3] - 7.0).abs() < 1e-12);
        assert!((a.self_s[1] - (0.25 + 1.0)).abs() < 1e-12);
        assert_eq!(a.unattributed_s, 0.0);
    }

    #[test]
    fn covered_time_is_the_union_of_the_spans() {
        let spans = vec![
            span(0, None, "campaign.run", 1.0, 4.0),
            span(1, None, "process.run_supervised", 3.0, 5.0),
            span(2, None, "paper.fig1", 7.0, 12.0),
        ];
        assert!((covered_s(&spans, 0.0, 10.0) - 7.0).abs() < 1e-12);
        // A child escaping its top-level span is time the attribution
        // charges to a layer but the union of top-level spans does not
        // cover.
        let escaped = vec![
            span(0, None, "campaign.run", 1.0, 4.0),
            span(1, Some(0), "replay.cell", 2.0, 6.0),
        ];
        let a = attribute(&escaped, 0.0, 10.0);
        let top = escaped.iter().filter(|s| s.parent.is_none());
        assert!((10.0 - covered_s(top, 0.0, 10.0) - a.unattributed_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_parent_links_across_threads() {
        let t = Tracer::new();
        t.span("campaign.run", None, 0, |root| {
            std::thread::scope(|s| {
                s.spawn(|| t.span("campaign.run_cells", Some(root), 1, |_| ()));
            });
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "campaign.run");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].layer(), "campaign");
    }
}
