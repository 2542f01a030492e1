//! In-memory span recorder for the traced run, and the self-time
//! arithmetic that turns spans into per-layer metrics.
//!
//! Spans are recorded by the benchmark around its calls into the
//! workspace crates; nothing inside the program is instrumented. Each
//! span has a name (the layer it times), a start and end in seconds
//! since the tracer was made, a parent, the thread it ran on, and the
//! id of the decision it belongs to. Work too fine-grained for one span
//! each (socket reads and writes, ~10⁵ per session) is recorded as an
//! [`Aggregate`]: a total duration and count charged to a parent span.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<usize>,
    /// Layer name, e.g. `runner.build`.
    pub name: &'static str,
    /// Decision (trial, session) this span belongs to.
    pub decision: u64,
    /// Small per-process thread number (0 is the first thread to record).
    pub thread: usize,
    /// Seconds since the tracer was made.
    pub start: f64,
    /// Seconds since the tracer was made (NaN while the span is open).
    pub end: f64,
}

/// Total time and count of many small intervals inside one span.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// The span the intervals happened in.
    pub parent: usize,
    /// Layer name, e.g. `wire.read_wait`.
    pub name: &'static str,
    /// Summed duration, seconds.
    pub seconds: f64,
    /// Number of intervals.
    pub count: u64,
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// This thread's small span-thread number.
fn thread_number() -> usize {
    THREAD.with(|t| *t)
}

#[derive(Default)]
struct Record {
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
}

/// Thread-safe span recorder; everything stays in memory until
/// [`Tracer::write_jsonl`].
pub struct Tracer {
    origin: Instant,
    record: Mutex<Record>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            record: Mutex::new(Record::default()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Record> {
        self.record.lock().expect("a traced thread panicked")
    }

    /// Run `f` inside a span; `f` receives the span's id so it can parent
    /// further spans on it.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        decision: u64,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let thread = thread_number();
        let id = {
            let mut rec = self.lock();
            let id = rec.spans.len();
            let start = self.now();
            rec.spans.push(Span {
                id,
                parent,
                name,
                decision,
                thread,
                start,
                end: f64::NAN,
            });
            id
        };
        let out = f(id);
        let end = self.now();
        self.lock().spans[id].end = end;
        out
    }

    /// Charge `count` small intervals totalling `seconds` to span `parent`.
    pub fn aggregate(&self, parent: usize, name: &'static str, seconds: f64, count: u64) {
        self.lock().aggregates.push(Aggregate {
            parent,
            name,
            seconds,
            count,
        });
    }

    /// Every span and aggregate recorded so far.
    pub fn snapshot(&self) -> (Vec<Span>, Vec<Aggregate>) {
        let rec = self.lock();
        (rec.spans.clone(), rec.aggregates.clone())
    }

    /// Write every span and aggregate as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let (spans, aggregates) = self.snapshot();
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"decision\":{},\"thread\":{},\"start\":{},\"end\":{}}}",
                s.id, parent, s.name, s.decision, s.thread, s.start, s.end
            )?;
        }
        for a in &aggregates {
            writeln!(
                out,
                "{{\"aggregate\":\"{}\",\"parent\":{},\"seconds\":{},\"count\":{}}}",
                a.name, a.parent, a.seconds, a.count
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it covered
/// by child spans on the same thread, minus its aggregates. Children on
/// other threads (trials on fold workers, the far end of a session) ran
/// concurrently and do not reduce their parent's self time.
pub fn self_times(spans: &[Span], aggregates: &[Aggregate]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].thread == s.thread {
                children[p].push((s.start, s.end));
            }
        }
    }
    let mut charged = vec![0.0; spans.len()];
    for a in aggregates {
        charged[a.parent] += a.seconds;
    }
    spans
        .iter()
        .zip(children)
        .zip(charged)
        .map(|((s, kids), agg)| s.end - s.start - covered(kids, s.start, s.end) - agg)
        .collect()
}

/// The traced wall clock split into layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Duration of the root span.
    pub wall: f64,
    /// The root span's own self time: traced time no layer span covers.
    pub unattributed: f64,
    /// Self time per layer name (spans and aggregates on the root's
    /// thread, the root excluded).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Partition {
    /// `|Σ layers + unattributed − wall|`: zero up to rounding when the
    /// spans nest properly.
    pub fn residual(&self) -> f64 {
        (self.layers.values().sum::<f64>() + self.unattributed - self.wall).abs()
    }
}

/// Split the root span's wall clock into layer self times. Every span
/// on the root's thread that descends from the root counts towards its
/// layer; spans on other threads are reported separately by the caller.
pub fn partition(spans: &[Span], aggregates: &[Aggregate], root: usize) -> Partition {
    let selfs = self_times(spans, aggregates);
    let thread = spans[root].thread;
    let descends = |mut id: usize| loop {
        if id == root {
            return true;
        }
        match spans[id].parent {
            Some(p) => id = p,
            None => return false,
        }
    };
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut in_partition = vec![false; spans.len()];
    for s in spans {
        if s.id != root && s.thread == thread && descends(s.id) {
            in_partition[s.id] = true;
            *layers.entry(s.name).or_default() += selfs[s.id];
        }
    }
    for a in aggregates {
        if a.parent == root || in_partition[a.parent] {
            *layers.entry(a.name).or_default() += a.seconds;
        }
    }
    Partition {
        wall: spans[root].end - spans[root].start,
        unattributed: selfs[root],
        layers,
    }
}

/// Durations of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        thread: usize,
        start: f64,
        end: f64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            decision: 0,
            thread,
            start,
            end,
        }
    }

    /// root [0,10] on thread 0 has children a [1,4] (with child a.x
    /// [2,3]) and b [5,9] (with a 0.5 s aggregate and two overlapping
    /// children b.y [5,7] and b.y [6,8]); w [0,10] runs on thread 1 and
    /// is parented on root.
    fn tree() -> (Vec<Span>, Vec<Aggregate>) {
        let spans = vec![
            span(0, None, "root", 0, 0.0, 10.0),
            span(1, Some(0), "a", 0, 1.0, 4.0),
            span(2, Some(1), "a.x", 0, 2.0, 3.0),
            span(3, Some(0), "b", 0, 5.0, 9.0),
            span(4, Some(3), "b.y", 0, 5.0, 7.0),
            span(5, Some(3), "b.y", 0, 6.0, 8.0),
            span(6, Some(0), "w", 1, 0.0, 10.0),
        ];
        let aggs = vec![Aggregate {
            parent: 3,
            name: "b.wait",
            seconds: 0.5,
            count: 7,
        }];
        (spans, aggs)
    }

    #[test]
    fn self_time_subtracts_same_thread_children_and_aggregates() {
        let (spans, aggs) = tree();
        let selfs = self_times(&spans, &aggs);
        // root: 10 − a(3) − b(4) = 3; the worker span does not count.
        assert_eq!(selfs[0], 3.0);
        assert_eq!(selfs[1], 2.0);
        assert_eq!(selfs[2], 1.0);
        // b: 4 − union([5,7],[6,8]) = 4 − 3 − aggregate 0.5.
        assert_eq!(selfs[3], 0.5);
        assert_eq!(selfs[6], 10.0);
    }

    #[test]
    fn partition_sums_to_the_wall_clock() {
        let (spans, aggs) = tree();
        let p = partition(&spans, &aggs, 0);
        assert_eq!(p.wall, 10.0);
        assert_eq!(p.unattributed, 3.0);
        assert_eq!(p.layers["a"], 2.0);
        assert_eq!(p.layers["a.x"], 1.0);
        assert_eq!(p.layers["b"], 0.5);
        // The two overlapping b.y spans keep their own self time (2 + 2);
        // their overlap is why b's self time counts the union only once.
        assert_eq!(p.layers["b.y"], 4.0);
        assert_eq!(p.layers["b.wait"], 0.5);
        assert!(!p.layers.contains_key("w"), "other threads stay out");
        // Overlapping siblings break the identity, and the residual shows it.
        assert!((p.residual() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_spans_and_sums_exactly() {
        let tr = Tracer::new();
        tr.span("root", None, 0, |root| {
            tr.span("a", Some(root), 1, |a| {
                tr.span("a.x", Some(a), 1, |_| std::hint::black_box(0));
                tr.aggregate(a, "a.wait", 0.0, 3);
            });
            tr.span("b", Some(root), 2, |_| ());
        });
        let (spans, aggs) = tr.snapshot();
        assert_eq!(spans.len(), 4);
        let p = partition(&spans, &aggs, 0);
        assert!(p.residual() < 1e-12, "{p:?}");
        let mut out = Vec::new();
        tr.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 5);
    }
}
