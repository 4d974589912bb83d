//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: name, start, end and the span that was
//! open on the same thread when it started (its parent).  Spans are kept in
//! memory and written out once, when the run ends.  A layer's self time is
//! its span's duration minus the union of its children's intervals, so the
//! self times of one root's subtree always sum to the root's duration.

use moard_json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the span open on this
    /// thread (a root when none is).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// [`Tracer::span`] when tracing, a plain call otherwise.
pub fn maybe_span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Per-name totals over a span log.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: duration minus the union of its children.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let (mut lo, mut hi) = (kids[0].0, kids[0].1);
                for &(a, b) in &kids[1..] {
                    if a > hi {
                        covered += hi - lo;
                        (lo, hi) = (a, b);
                    } else {
                        hi = hi.max(b);
                    }
                }
                covered += hi - lo;
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.busy_ns += s.dur_ns();
        t.self_ns += selfs[&s.id];
    }
    out
}

/// The span log as a JSON document (`[id, parent, name, start_ns, end_ns]`
/// rows; parent 0 marks a root).
pub fn to_json(spans: &[Span]) -> Json {
    Json::array(spans.iter().map(|s| {
        Json::array([
            Json::from(s.id as u64),
            Json::from(s.parent.unwrap_or(0) as u64),
            Json::from(s.name),
            Json::from(s.start_ns),
            Json::from(s.end_ns),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_of_a_tree_sum_to_the_root() {
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                name: "root",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: Some(1),
                name: "a",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: Some(2),
                name: "b",
                start_ns: 20,
                end_ns: 30,
            },
            Span {
                id: 4,
                parent: Some(1),
                name: "a",
                start_ns: 50,
                end_ns: 60,
            },
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 60);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs.values().sum::<u64>(), 100);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["a"].count, 2);
        assert_eq!(totals["a"].busy_ns, 40);
    }
}
