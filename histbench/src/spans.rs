//! The benchmark's span sink: a [`Tracer`] that keeps every wall-clock
//! span in memory, plus the offline pass that rebuilds the span tree.
//!
//! The simulator reports a span when it ends, as `(phase, ns)`. The sink
//! stamps it with the current time, so a span is the interval
//! `[now - ns, now]`. Every span is emitted on the simulation thread
//! (batch workers are untraced), so spans arrive in end order and nest
//! properly; parents follow from interval containment.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use histmerge_obs::{Phase, TraceEvent, Tracer};

/// One recorded span, in nanoseconds since the sink was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The timed phase.
    pub phase: Phase,
    /// Start of the interval.
    pub start: u64,
    /// End of the interval (the moment the span was reported).
    pub end: u64,
}

impl Span {
    /// The span's duration.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Work counts summed from the merge steps' trace events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Σ `GraphBuilt.edges`.
    pub edges: u64,
    /// Σ `CycleBreak.backed_out`.
    pub backed_out: u64,
    /// Σ `CycleBreak.affected`.
    pub affected: u64,
    /// Σ `Rewrite.saved`.
    pub saved: u64,
}

/// A [`Tracer`] that keeps every span and the merge-step counts.
#[derive(Debug)]
pub struct SpanSink {
    origin: Instant,
    recorded: Mutex<(Vec<Span>, Counts)>,
}

impl SpanSink {
    /// An empty sink whose clock starts now.
    pub fn new() -> SpanSink {
        SpanSink { origin: Instant::now(), recorded: Mutex::new((Vec::new(), Counts::default())) }
    }

    /// Moves the recorded spans and counts out of the sink.
    pub fn take(&self) -> (Vec<Span>, Counts) {
        std::mem::take(&mut *self.recorded.lock().expect("span sink lock poisoned"))
    }
}

impl Tracer for SpanSink {
    fn record(&self, event: &TraceEvent) {
        let mut recorded = self.recorded.lock().expect("span sink lock poisoned");
        let (spans, counts) = &mut *recorded;
        match *event {
            TraceEvent::Span { phase, ns } => {
                let end = self.origin.elapsed().as_nanos() as u64;
                spans.push(Span { phase, start: end.saturating_sub(ns), end });
            }
            TraceEvent::GraphBuilt { edges, .. } => counts.edges += edges as u64,
            TraceEvent::CycleBreak { backed_out, affected } => {
                counts.backed_out += backed_out as u64;
                counts.affected += affected as u64;
            }
            TraceEvent::Rewrite { saved, .. } => counts.saved += saved as u64,
            _ => {}
        }
    }
}

/// The span tree: each span's parent, self time and request id.
#[derive(Debug)]
pub struct Tree {
    /// The spans, in end order.
    pub spans: Vec<Span>,
    /// The innermost span containing each span (`None` for roots).
    pub parent: Vec<Option<usize>>,
    /// Duration minus the part of the interval the children cover.
    pub self_ns: Vec<u64>,
    /// The ordinal of the enclosing (or own) `Sync` span, if any.
    pub request: Vec<Option<usize>>,
}

impl Tree {
    /// Rebuilds the tree from spans in end order. A span recorded earlier
    /// whose end lies inside a later span's interval is its descendant
    /// (a sibling reports before the next span starts, so it never does);
    /// the still-unparented ones among those are its children. A stack of
    /// unparented spans finds them in one pass.
    pub fn build(spans: Vec<Span>) -> Tree {
        let n = spans.len();
        let mut parent = vec![None; n];
        let mut covered = vec![0u64; n];
        let mut open: Vec<usize> = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            while let Some(&child) = open.last() {
                let c = spans[child];
                if c.end <= span.start {
                    break;
                }
                parent[child] = Some(i);
                covered[i] += c.end.min(span.end).saturating_sub(c.start.max(span.start));
                open.pop();
            }
            open.push(i);
        }
        let self_ns = spans.iter().zip(&covered).map(|(s, c)| s.ns().saturating_sub(*c)).collect();
        // Parents end after their children, so a reverse pass sees every
        // parent's request id before its children need it.
        let syncs: Vec<usize> = (0..n).filter(|&i| spans[i].phase == Phase::Sync).collect();
        let mut request = vec![None; n];
        for i in (0..n).rev() {
            request[i] = if spans[i].phase == Phase::Sync {
                syncs.binary_search(&i).ok()
            } else {
                parent[i].and_then(|p| request[p])
            };
        }
        Tree { spans, parent, self_ns, request }
    }

    /// Σ duration of the spans of `phase` whose parent passes `keep`.
    pub fn total(&self, phase: Phase, keep: impl Fn(Option<Phase>) -> bool) -> u64 {
        self.select(phase, keep).map(|i| self.spans[i].ns()).sum()
    }

    /// How many spans of `phase` have a parent that passes `keep`.
    pub fn count(&self, phase: Phase, keep: impl Fn(Option<Phase>) -> bool) -> usize {
        self.select(phase, keep).count()
    }

    /// Σ self time of the spans of `phase`.
    pub fn self_total(&self, phase: Phase) -> u64 {
        self.select(phase, |_| true).map(|i| self.self_ns[i]).sum()
    }

    /// Durations of the spans of `phase`, sorted ascending.
    pub fn durations(&self, phase: Phase) -> Vec<u64> {
        let mut ns: Vec<u64> = self.select(phase, |_| true).map(|i| self.spans[i].ns()).collect();
        ns.sort_unstable();
        ns
    }

    /// Σ duration of the spans that have no parent.
    pub fn root_total(&self) -> u64 {
        (0..self.spans.len())
            .filter(|&i| self.parent[i].is_none())
            .map(|i| self.spans[i].ns())
            .sum()
    }

    fn select<'a>(
        &'a self,
        phase: Phase,
        keep: impl Fn(Option<Phase>) -> bool + 'a,
    ) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&i| {
            self.spans[i].phase == phase && keep(self.parent[i].map(|p| self.spans[p].phase))
        })
    }

    /// Writes one JSON object per span to `path`.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"phase\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\
                 \"parent\":{},\"request\":{}}}",
                s.phase.name(),
                s.start,
                s.end,
                self.self_ns[i],
                opt(self.parent[i]),
                opt(self.request[i]),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histmerge_obs::TracerHandle;
    use std::sync::Arc;

    fn span(phase: Phase, start: u64, end: u64) -> Span {
        Span { phase, start, end }
    }

    #[test]
    fn nesting_follows_interval_containment() {
        // Sync [0,100] ⊃ MergePlan [5,50] ⊃ {Exec [10,20], GraphBuild [30,40]};
        // Install [60,70] is the plan's sibling; Scheduler [120,130] a root.
        let tree = Tree::build(vec![
            span(Phase::Exec, 10, 20),
            span(Phase::GraphBuild, 30, 40),
            span(Phase::MergePlan, 5, 50),
            span(Phase::Install, 60, 70),
            span(Phase::Sync, 0, 100),
            span(Phase::Scheduler, 120, 130),
        ]);
        assert_eq!(tree.parent, vec![Some(2), Some(2), Some(4), Some(4), None, None]);
        assert_eq!(tree.self_ns, vec![10, 10, 25, 10, 45, 10]);
        assert_eq!(tree.request, vec![Some(0), Some(0), Some(0), Some(0), Some(0), None]);
        assert_eq!(tree.root_total(), 110);
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // A grandchild is covered by its parent, not counted twice.
        let tree = Tree::build(vec![
            span(Phase::WalAppend, 12, 14),
            span(Phase::Install, 10, 20),
            span(Phase::Sync, 0, 40),
        ]);
        assert_eq!(tree.self_ns, vec![2, 8, 30]);
        assert_eq!(tree.self_total(Phase::Sync), 30);
    }

    #[test]
    fn request_ids_are_sync_ordinals() {
        let tree = Tree::build(vec![
            span(Phase::Reexecute, 1, 2),
            span(Phase::Sync, 0, 3),
            span(Phase::ParallelMerge, 4, 5),
            span(Phase::Install, 6, 7),
            span(Phase::Sync, 6, 9),
        ]);
        assert_eq!(tree.request, vec![Some(0), Some(0), None, Some(1), Some(1)]);
    }

    #[test]
    fn reexecute_inside_a_plan_is_told_apart_from_the_sync_level_one() {
        let tree = Tree::build(vec![
            span(Phase::Reexecute, 1, 2),
            span(Phase::MergePlan, 0, 3),
            span(Phase::Reexecute, 5, 8),
            span(Phase::Sync, 0, 10),
        ]);
        let in_plan = |p: Option<Phase>| p == Some(Phase::MergePlan);
        assert_eq!(tree.total(Phase::Reexecute, in_plan), 1);
        assert_eq!(tree.total(Phase::Reexecute, |p| !in_plan(p)), 3);
    }

    #[test]
    fn the_sink_records_spans_in_end_order_and_sums_counts() {
        let sink = Arc::new(SpanSink::new());
        let handle = TracerHandle::new(sink.clone());
        let outer = handle.span_start();
        let inner = handle.span_start();
        handle.emit(|| TraceEvent::GraphBuilt { hm_len: 1, hb_len: 2, edges: 3 });
        handle.emit(|| TraceEvent::CycleBreak { backed_out: 1, affected: 2 });
        handle.emit(|| TraceEvent::Rewrite { saved: 4, backed_out: 1 });
        handle.span_end(Phase::GraphBuild, inner);
        handle.span_end(Phase::MergePlan, outer);
        let (spans, counts) = sink.take();
        assert_eq!(counts, Counts { edges: 3, backed_out: 1, affected: 2, saved: 4 });
        let tree = Tree::build(spans);
        assert_eq!(tree.spans[0].phase, Phase::GraphBuild);
        assert_eq!(tree.parent, vec![Some(1), None]);
        assert!(sink.take().0.is_empty(), "take empties the sink");
    }
}
