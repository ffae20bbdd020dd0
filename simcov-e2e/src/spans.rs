//! Bench-side spans for the traced pass.
//!
//! Every call into a layer is wrapped in a span recorded from outside the
//! program: id, parent id, job id, name, start and end. Spans stay in
//! memory and are written as JSONL when the pass ends, so recording costs
//! one clock read and one short lock per call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Unique id (1-based).
    pub id: u64,
    /// The enclosing span, `None` for a root.
    pub parent: Option<u64>,
    /// The job the span belongs to.
    pub job: u64,
    /// Layer call name, e.g. `fsm.enumerate`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A thread-safe in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can open
    /// children. The span is recorded even if `f` returns an error value.
    pub fn span<R>(
        &self,
        parent: Option<u64>,
        job: u64,
        name: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span recorder lock is never held across a panic")
            .push(SpanRec {
                id,
                parent,
                job,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut v = self
            .spans
            .lock()
            .expect("span recorder lock is never held across a panic")
            .clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time of `span`: its duration minus the part of its interval that
/// its direct children cover. Children may overlap (parallel shards), so
/// the covered part is the union of their intervals, clipped to the
/// parent.
pub fn self_time_ns(span: &SpanRec, all: &[SpanRec]) -> u64 {
    let mut kids: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| {
            (
                c.start_ns.max(span.start_ns),
                c.end_ns.min(span.end_ns).max(span.start_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (lo, hi) in kids {
        let lo = lo.max(reach);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    span.dur_ns() - covered
}

/// The spans as JSONL, one object per line with its self time.
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\
             \"end_ns\":{},\"self_ns\":{}}}\n",
            s.id,
            s.job,
            s.name,
            s.start_ns,
            s.end_ns,
            self_time_ns(s, spans)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            job: 0,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, None, 0, 100),
            // Two overlapping children (parallel shards): [10, 40) ∪ [30, 60).
            rec(2, Some(1), 10, 40),
            rec(3, Some(1), 30, 60),
            // A grandchild is covered by its parent, not counted twice.
            rec(4, Some(2), 12, 20),
            // A child that overruns the parent is clipped.
            rec(5, Some(1), 90, 120),
        ];
        assert_eq!(self_time_ns(&spans[0], &spans), 100 - 50 - 10);
        assert_eq!(self_time_ns(&spans[1], &spans), 30 - 8);
        assert_eq!(self_time_ns(&spans[3], &spans), 8);
    }

    #[test]
    fn tracer_records_nesting_across_threads() {
        let tr = Tracer::default();
        tr.span(None, 7, "job", |root| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| tr.span(Some(root), 7, "fsm.flip", |_| ()));
                }
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "job").expect("root");
        assert_eq!(root.parent, None);
        assert!(spans
            .iter()
            .filter(|s| s.name == "fsm.flip")
            .all(|s| s.parent == Some(root.id) && s.job == 7));
        assert!(self_time_ns(root, &spans) <= root.dur_ns());
        let jsonl = to_jsonl(&spans);
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"parent\":null"));
    }
}
