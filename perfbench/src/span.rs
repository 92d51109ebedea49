//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in
//! a span (name, start, end, parent). Spans stay in memory and are
//! written out as JSON when the run ends; per-layer busy and self time
//! are computed from the span tree afterwards. With tracing off,
//! [`Tracer::span`] is a plain call, so untraced runs pay nothing.

use perfvec_json::{obj, Json};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans from any thread. Span ids are indices into the
/// recorded list, assigned when a span opens, so a parent always has a
/// smaller id than its children. Each thread keeps its own stack of
/// open spans; work handed to other threads names its parent
/// explicitly ([`Tracer::span_under`]).
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    open: Mutex<HashMap<ThreadId, Vec<usize>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            open: Mutex::new(HashMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The innermost span open on the calling thread.
    pub fn current(&self) -> Option<usize> {
        lock(&self.open)
            .get(&thread::current().id())
            .and_then(|s| s.last().copied())
    }

    /// Run `f` inside a span named `name`, child of the innermost span
    /// open on this thread. A no-op wrapper when tracing is off.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        self.span_under(self.current(), name, f)
    }

    /// Run `f` inside a span named `name` with an explicit parent: the
    /// form for work that a parallel region runs on other threads.
    pub fn span_under<T>(
        &self,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = lock(&self.spans);
            spans.push(Span {
                name,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            spans.len() - 1
        };
        let tid = thread::current().id();
        lock(&self.open).entry(tid).or_default().push(id);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        if let Some(stack) = lock(&self.open).get_mut(&tid) {
            stack.pop();
        }
        let mut spans = lock(&self.spans);
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        lock(&self.spans).clone()
    }
}

/// Busy and self time of every span name, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub busy_s: f64,
    pub self_s: f64,
    pub calls: u64,
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.dur_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Per-name totals: busy time (sum of durations, so spans that ran at
/// once on several threads add up), self time and calls.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.busy_s += s.dur_ns() as f64 * 1e-9;
        t.self_s += self_ns as f64 * 1e-9;
        t.calls += 1;
    }
    out
}

/// The spans as a JSON array (`id`, `name`, `parent`, `start_ns`,
/// `end_ns`, `self_ns`), for the trace file written at the end of a run.
pub fn spans_json(spans: &[Span]) -> Json {
    let selfs = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                obj(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.to_string())),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            sp("root", None, 0, 100),
            sp("a", Some(0), 10, 40),
            sp("a.inner", Some(1), 15, 35),
            sp("b", Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            sp("root", None, 0, 100),
            sp("w", Some(0), 10, 60),
            sp("w", Some(0), 30, 80),
            sp("w", Some(0), 70, 75),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![sp("root", None, 10, 20), sp("late", Some(0), 15, 40)];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root_duration() {
        let spans = vec![
            sp("run", None, 0, 1_000),
            sp("datasets", Some(0), 0, 100),
            sp("trainer", Some(0), 100, 700),
            sp("refit", Some(0), 700, 800),
            sp("refit.accumulate", Some(3), 700, 790),
            sp("eval", Some(0), 800, 1_000),
        ];
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 1_000);
    }

    #[test]
    fn layer_times_aggregate_by_name() {
        let spans = vec![
            sp("eval", None, 0, 100),
            sp("compose", Some(0), 0, 30),
            sp("compose", Some(0), 40, 70),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["compose"].calls, 2);
        assert!((t["compose"].busy_s - 60e-9).abs() < 1e-15);
        assert!((t["eval"].self_s - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_records_nesting_and_disabled_tracer_records_nothing() {
        let t = Tracer::new(true);
        let v = t.span("outer", || t.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", || 3), 3);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn spans_on_other_threads_take_the_parent_they_are_given() {
        let t = Tracer::new(true);
        t.span("outer", || {
            let parent = t.current();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| t.span_under(parent, "worker", || t.span("inner", || ())));
                }
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        for (id, s) in spans.iter().enumerate() {
            match s.name {
                "outer" => assert_eq!(s.parent, None),
                "worker" => assert_eq!(s.parent, Some(0)),
                _ => assert_eq!(spans[s.parent.unwrap()].name, "worker", "span {id}"),
            }
        }
        assert_eq!(t.current(), None);
    }
}
