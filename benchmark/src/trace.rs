//! Folding a `wisedb-obs` trace into per-span self times.
//!
//! The benchmark wraps each call into a layer in a span of its own
//! (`bench.offer`, `bench.tick`, `bench.train`, `bench.batch`); the product
//! emits spans below those, some on other threads (the server's workers
//! and scheduler, shard workers, training workers). All spans share one
//! process clock, and the loops are closed with one request in flight, so a
//! span's parent is simply the innermost earlier span whose interval
//! contains it, whatever thread it ran on (see [`fold`] for spans that a
//! descheduled thread closes late).
//!
//! A span's **self time** is its duration minus the part of its interval
//! its children cover. Summed over a tree that equals the root's duration
//! when children run one after another; where children run side by side
//! (two training workers, two shard workers) the sum counts busy time and
//! exceeds the root's wall time. [`Fold::self_sum_share`] reports which.

use std::collections::BTreeMap;

use wisedb_obs::{Event, Phase, Trace};

/// The benchmark's own spans: the roots of every tree.
pub const ROOTS: [&str; 4] = ["bench.offer", "bench.tick", "bench.train", "bench.batch"];

/// Product spans reported by name; the rest fold into `other`.
pub const PRODUCT_SPANS: [&str; 12] = [
    "serve.decode",
    "serve.dispatch",
    "serve.encode",
    "serve.tick",
    "serve.queue_wait",
    "serve.plan",
    "runtime.offer_batch",
    "runtime.plan",
    "search.solve",
    "train.model",
    "train.sample",
    "learn.fit_tree",
];

/// The clock ticks in whole microseconds, so a child may seem to stick
/// out of its parent by one tick at either end.
const SLACK_US: u64 = 2;

#[derive(Debug, Clone, Copy)]
struct Interval {
    name: &'static str,
    start: u64,
    end: u64,
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanRow {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

/// A folded trace.
#[derive(Debug, Clone, Default)]
pub struct Fold {
    pub rows: BTreeMap<&'static str, SpanRow>,
    /// Σ duration of the root `bench.*` spans.
    pub root_total_us: u64,
    pub events: usize,
}

impl Fold {
    /// Σ self time of every span under a root ÷ Σ root durations: 1 when
    /// every instant of a root is attributed exactly once.
    pub fn self_sum_share(&self) -> f64 {
        let selves: u64 = self.rows.values().map(|r| r.self_us).sum();
        ratio(selves, self.root_total_us)
    }

    /// Self time of `name` as a share of the root total; 0 when the span
    /// never occurred (a product span that is missing is not an error).
    pub fn self_share(&self, name: &str) -> f64 {
        ratio(
            self.rows.get(name).map_or(0, |r| r.self_us),
            self.root_total_us,
        )
    }

    /// Self-time share of every span not reported by name.
    pub fn other_share(&self) -> f64 {
        let other: u64 = self
            .rows
            .iter()
            .filter(|(name, _)| !ROOTS.contains(name) && !PRODUCT_SPANS.contains(name))
            .map(|(_, r)| r.self_us)
            .sum();
        ratio(other, self.root_total_us)
    }

    /// `bench.offer` self time ÷ `bench.offer` total: the client and
    /// socket share of a round trip no server span accounts for. 0 when
    /// the workload has no `bench.offer`.
    pub fn residual_share(&self) -> f64 {
        self.rows
            .get("bench.offer")
            .map_or(0.0, |r| ratio(r.self_us, r.total_us))
    }

    /// Mean duration of one `name` span, in microseconds.
    pub fn us_per_op(&self, name: &str) -> f64 {
        self.rows
            .get(name)
            .map_or(0.0, |r| ratio(r.total_us, r.count))
    }

    /// One line per span, widest first, for the human report.
    pub fn table(&self) -> String {
        let mut rows: Vec<_> = self.rows.iter().collect();
        rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.self_us));
        let mut out = format!(
            "{:<22} {:>9} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_us", "self_us", "self%"
        );
        for (name, r) in rows {
            out.push_str(&format!(
                "{:<22} {:>9} {:>12} {:>12} {:>6.1}%\n",
                name,
                r.count,
                r.total_us,
                r.self_us,
                100.0 * ratio(r.self_us, self.root_total_us)
            ));
        }
        out
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Closed spans of a trace: Begin/End pairs matched per thread, plus
/// Complete events. Unbalanced leftovers are dropped.
fn intervals(events: &[Event]) -> Vec<Interval> {
    let mut open: BTreeMap<u64, Vec<(&'static str, u64)>> = BTreeMap::new();
    let mut closed = Vec::new();
    for event in events {
        match event.phase {
            Phase::Begin => open
                .entry(event.tid)
                .or_default()
                .push((event.name, event.wall_us)),
            Phase::End => {
                if let Some(stack) = open.get_mut(&event.tid) {
                    if let Some(pos) = stack.iter().rposition(|(n, _)| *n == event.name) {
                        let (name, start) = stack.remove(pos);
                        closed.push(Interval {
                            name,
                            start,
                            end: event.wall_us.max(start),
                        });
                    }
                }
            }
            Phase::Complete { dur_us } => closed.push(Interval {
                name: event.name,
                start: event.wall_us,
                end: event.wall_us + dur_us,
            }),
            Phase::Instant => {}
        }
    }
    closed
}

/// Folds a trace: finds each span's parent and charges every span its
/// self time. Spans outside any `bench.*` root (set-up, teardown, idle
/// polls) are left out.
///
/// A span's parent is the innermost span still open when it starts that
/// also contains its end. A span whose end no open span contains was
/// closed late: on one CPU the scheduler thread is descheduled the moment
/// it hands a verdict over, and only records the end of its span after
/// the client has moved on. Such a span belongs to the innermost span
/// open at its start and is cut off where that one ends. Roots never
/// have a parent.
pub fn fold(trace: &Trace) -> Fold {
    let mut spans = intervals(&trace.events);
    // Parents sort before their children: earlier start, then longer.
    spans.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));

    let mut parent: Vec<Option<usize>> = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let span = spans[i];
        while stack
            .last()
            .is_some_and(|&top| spans[top].end + SLACK_US < span.start)
        {
            stack.pop();
        }
        if !ROOTS.contains(&span.name) {
            parent[i] = stack
                .iter()
                .rev()
                .copied()
                .find(|&p| spans[p].end + SLACK_US >= span.end)
                .or(stack.last().copied());
        }
        if let Some(p) = parent[i] {
            // Parents come first, so theirs is already cut to size.
            spans[i].end = span.end.min(spans[p].end).max(span.start);
        }
        stack.push(i);
    }

    // A span counts only if its chain of parents ends in a bench.* root.
    let mut rooted = vec![false; spans.len()];
    for i in 0..spans.len() {
        rooted[i] = match parent[i] {
            None => ROOTS.contains(&spans[i].name),
            Some(p) => rooted[p],
        };
    }

    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = *p {
            children[p].push((spans[i].start, spans[i].end));
        }
    }

    let mut out = Fold {
        events: trace.events.len(),
        ..Fold::default()
    };
    for (i, span) in spans.iter().enumerate() {
        if !rooted[i] {
            continue;
        }
        let duration = span.end - span.start;
        let row = out.rows.entry(span.name).or_default();
        row.count += 1;
        row.total_us += duration;
        row.self_us += duration - covered(&mut children[i]);
        if parent[i].is_none() {
            out.root_total_us += duration;
        }
    }
    out
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(phase: Phase, name: &'static str, tid: u64, wall_us: u64) -> Event {
        Event {
            seq: 0,
            phase,
            name,
            tid,
            wall_us,
            virt_ms: None,
            attrs: Vec::new(),
        }
    }

    fn span(name: &'static str, tid: u64, start: u64, end: u64) -> [Event; 2] {
        [
            event(Phase::Begin, name, tid, start),
            event(Phase::End, name, tid, end),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children_across_threads() {
        // One round trip: client 0..100, server dispatch 20..80 on another
        // thread with plan 30..60 inside, and a queue wait stamped
        // retroactively at 22..28.
        let mut events = Vec::new();
        events.extend(span("bench.offer", 1, 0, 100));
        events.extend(span("serve.dispatch", 2, 20, 80));
        events.extend(span("serve.plan", 3, 30, 60));
        events.push(event(
            Phase::Complete { dur_us: 6 },
            "serve.queue_wait",
            3,
            22,
        ));
        // Outside any root: ignored.
        events.extend(span("serve.decode", 2, 200, 210));
        let fold = fold(&Trace { events });

        assert_eq!(fold.root_total_us, 100);
        assert_eq!(fold.rows["bench.offer"].self_us, 40);
        assert_eq!(fold.rows["serve.dispatch"].self_us, 60 - 30 - 6);
        assert_eq!(fold.rows["serve.plan"].self_us, 30);
        assert_eq!(fold.rows["serve.queue_wait"].self_us, 6);
        assert!(!fold.rows.contains_key("serve.decode"));
        assert!((fold.self_sum_share() - 1.0).abs() < 1e-12);
        assert!((fold.residual_share() - 0.4).abs() < 1e-12);
        assert!((fold.self_share("serve.plan") - 0.3).abs() < 1e-12);
        assert_eq!(fold.self_share("search.solve"), 0.0);
        assert_eq!(fold.us_per_op("bench.offer"), 100.0);
        assert_eq!(fold.us_per_op("serve.plan"), 30.0);
    }

    #[test]
    fn side_by_side_children_count_busy_time() {
        // Two training workers overlap inside one train call: the parent
        // keeps only what neither covers, and the self-time sum exceeds
        // the root's wall time.
        let mut events = Vec::new();
        events.extend(span("bench.train", 1, 0, 100));
        events.extend(span("train.sample", 2, 10, 70));
        events.extend(span("train.sample", 3, 40, 90));
        let fold = fold(&Trace { events });
        assert_eq!(fold.rows["bench.train"].self_us, 20);
        assert_eq!(fold.rows["train.sample"].self_us, 110);
        assert_eq!(fold.rows["train.sample"].count, 2);
        assert!((fold.self_sum_share() - 1.3).abs() < 1e-12);
        assert_eq!(fold.residual_share(), 0.0);
    }

    #[test]
    fn unnamed_spans_fold_into_other_and_ticks_of_slack_are_forgiven() {
        let mut events = Vec::new();
        events.extend(span("bench.tick", 1, 10, 50));
        // Ends one clock tick after its parent: still a child, clipped.
        events.extend(span("shard.plan", 2, 20, 51));
        let fold = fold(&Trace { events });
        assert_eq!(fold.rows["bench.tick"].self_us, 10);
        assert_eq!(fold.rows["shard.plan"].total_us, 30);
        assert!((fold.other_share() - 30.0 / 40.0).abs() < 1e-12);
        assert!(fold.table().contains("shard.plan"));
    }

    #[test]
    fn a_span_closed_late_is_cut_off_where_its_parent_ends() {
        // One CPU: the scheduler thread hands the verdict over at 60 and
        // is descheduled; it records the end of its tick at 130, after the
        // client has finished this offer and begun the next.
        let mut events = Vec::new();
        events.extend(span("bench.offer", 1, 0, 100));
        events.extend(span("serve.dispatch", 2, 10, 70));
        events.extend(span("serve.tick", 3, 20, 130));
        events.extend(span("serve.plan", 3, 25, 55));
        events.extend(span("bench.offer", 1, 105, 200));
        events.extend(span("serve.dispatch", 2, 110, 190));
        let fold = fold(&Trace { events });
        assert_eq!(fold.root_total_us, 195);
        assert_eq!(fold.rows["bench.offer"].count, 2);
        assert_eq!(fold.rows["serve.tick"].total_us, 50, "cut off at 70");
        assert_eq!(fold.rows["serve.tick"].self_us, 20);
        assert_eq!(fold.rows["serve.plan"].self_us, 30);
        assert_eq!(fold.rows["serve.dispatch"].self_us, 10 + 80);
        assert_eq!(fold.rows["bench.offer"].self_us, 40 + 15);
        assert!((fold.self_sum_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_traces_fold_to_zeroes() {
        let fold = fold(&Trace { events: Vec::new() });
        assert_eq!(fold.self_sum_share(), 0.0);
        assert_eq!(fold.us_per_op("bench.offer"), 0.0);
        assert_eq!(fold.other_share(), 0.0);
    }
}
