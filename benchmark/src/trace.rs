//! The traced pass: spans recorded from outside the library, around
//! the calls into each layer.
//!
//! The benchmark times every call it makes itself, and sees *inside* a
//! query through the two seams the engine already has: the
//! [`NetworkSource`] it reads the graph through and the
//! [`LowerBoundEstimator`] it asks for bounds. [`TracedSource`] and
//! [`TracedEstimator`] wrap those and accumulate time and call counts;
//! the thousands of leaf calls of one query become one span per
//! (query, layer) with a call count. A layer's self time is its span
//! minus its children — for a flat query, the query span minus its
//! `source` and `estimator` children.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use allfp::LowerBoundEstimator;
use roadnet::{Edge, NetworkSource, NodeId, PatternId, Point};
use traffic::CapeCodPattern;

use crate::json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position in the trace (ids are dense).
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Query the span belongs to; spans of one query share it.
    pub query: u32,
    /// Layer or call name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration, nanoseconds (summed over `calls` for a leaf span).
    pub dur_ns: u64,
    /// Calls aggregated into this span (1 for a call span).
    pub calls: u64,
}

/// In-memory span log, written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty trace starting now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Record a span that started at `start` and ran `dur_ns`; returns
    /// its id for children to name as parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        query: u32,
        start: Instant,
        dur_ns: u64,
        calls: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            query,
            name,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns,
            calls,
        });
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and call count of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, calls), s| (ns + s.dur_ns, calls + s.calls))
    }

    /// Write the trace as JSON lines (one span per line).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"query\": {}, \"name\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"calls\": {}}}",
                s.id,
                s.query,
                json::quote(s.name),
                s.start_ns,
                s.dur_ns,
                s.calls
            )?;
        }
        out.flush()
    }
}

/// Time and calls accumulated by a wrapper since it was last drained.
///
/// Relaxed atomics: the wrappers must be `Sync` to stand in for the
/// types they wrap, but every workload here is one client thread, and
/// the counters publish no other data.
#[derive(Debug, Default)]
pub struct Meter {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Meter {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// Take `(nanoseconds, calls)` accumulated since the last drain.
    pub fn drain(&self) -> (u64, u64) {
        (
            self.ns.swap(0, Ordering::Relaxed),
            self.calls.swap(0, Ordering::Relaxed),
        )
    }
}

/// A [`NetworkSource`] that meters every graph read it forwards.
pub struct TracedSource<'a, S: NetworkSource> {
    inner: &'a S,
    /// Time and calls spent inside `inner`.
    pub meter: Meter,
}

impl<'a, S: NetworkSource> TracedSource<'a, S> {
    /// Wrap `inner`.
    pub fn new(inner: &'a S) -> Self {
        TracedSource {
            inner,
            meter: Meter::default(),
        }
    }
}

impl<S: NetworkSource> NetworkSource for TracedSource<'_, S> {
    fn n_nodes(&self) -> usize {
        self.inner.n_nodes()
    }

    fn find_node(&self, node: NodeId) -> roadnet::Result<Point> {
        self.meter.time(|| self.inner.find_node(node))
    }

    fn successors(&self, node: NodeId) -> roadnet::Result<Vec<Edge>> {
        self.meter.time(|| self.inner.successors(node))
    }

    fn successors_into(&self, node: NodeId, buf: &mut Vec<Edge>) -> roadnet::Result<()> {
        self.meter.time(|| self.inner.successors_into(node, buf))
    }

    fn pattern(&self, id: PatternId) -> roadnet::Result<&CapeCodPattern> {
        self.meter.time(|| self.inner.pattern(id))
    }

    fn max_speed(&self) -> f64 {
        self.inner.max_speed()
    }

    fn euclidean(&self, a: NodeId, b: NodeId) -> roadnet::Result<f64> {
        self.meter.time(|| self.inner.euclidean(a, b))
    }
}

/// A [`LowerBoundEstimator`] that meters every bound it forwards.
pub struct TracedEstimator<'a> {
    inner: &'a dyn LowerBoundEstimator,
    /// Time and calls spent inside `inner`.
    pub meter: Meter,
}

impl<'a> TracedEstimator<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a dyn LowerBoundEstimator) -> Self {
        TracedEstimator {
            inner,
            meter: Meter::default(),
        }
    }
}

impl LowerBoundEstimator for TracedEstimator<'_> {
    fn travel_lower_bound(&self, from: NodeId, from_loc: Point, to: NodeId, to_loc: Point) -> f64 {
        self.meter
            .time(|| self.inner.travel_lower_bound(from, from_loc, to, to_loc))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::examples::paper_running_example;

    #[test]
    fn wrappers_forward_and_count() {
        let (net, ids) = paper_running_example();
        let traced = TracedSource::new(&net);
        assert_eq!(traced.n_nodes(), net.n_nodes());
        assert_eq!(traced.find_node(ids.s).unwrap(), *net.point(ids.s).unwrap());
        let mut buf = Vec::new();
        traced.successors_into(ids.s, &mut buf).unwrap();
        assert_eq!(buf, net.neighbors(ids.s).unwrap());
        let (_, calls) = traced.meter.drain();
        assert_eq!(calls, 2);
        assert_eq!(traced.meter.drain(), (0, 0));

        let naive = allfp::NaiveLb::new(net.max_speed());
        let est = TracedEstimator::new(&naive);
        let (a, b) = (*net.point(ids.s).unwrap(), *net.point(ids.e).unwrap());
        assert_eq!(
            est.travel_lower_bound(ids.s, a, ids.e, b),
            naive.travel_lower_bound(ids.s, a, ids.e, b)
        );
        assert_eq!(est.meter.drain().1, 1);
    }

    #[test]
    fn totals_group_by_name_and_jsonl_round_trips() {
        let mut tracer = Tracer::new();
        let t = Instant::now();
        let q = tracer.record("allfp", None, 7, t, 1000, 1);
        tracer.record("source", Some(q), 7, t, 300, 40);
        tracer.record("source", Some(q), 8, t, 200, 10);
        assert_eq!(tracer.total("source"), (500, 50));
        assert_eq!(tracer.total("allfp"), (1000, 1));

        let dir = std::env::temp_dir().join(format!("fp-benchmark-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        tracer.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let second = crate::json::Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(second.get("name").and_then(|n| n.as_str()), Some("source"));
        assert_eq!(second.get("calls").and_then(|n| n.as_f64()), Some(40.0));
    }
}
