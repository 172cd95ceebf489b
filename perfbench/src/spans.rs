//! In-memory spans recorded by the traced run around calls into each
//! layer's public functions. Spans are kept in memory and written once,
//! when the run ends, so recording costs one clock read and one short lock
//! per boundary.

use std::sync::Mutex;
use std::time::Instant;

use pandora_hdbscan::daemon::json::Json;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `mst.boruvka`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End of the interval; `None` while the span is open.
    pub end_ns: Option<u64>,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier.
    pub request: u64,
}

impl Span {
    /// Length of a closed span (0 while open).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |end| end - self.start_ns)
    }
}

/// Thread-safe span store.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Spans are appended or closed in one statement each, so a panic
        // elsewhere never leaves the vector half-updated.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a span and returns its id.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: None,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&self, id: SpanId) -> f64 {
        let end = self.now_ns();
        let mut spans = self.lock();
        let span = &mut spans[id];
        span.end_ns = Some(end);
        span.duration_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a span; returns its value and the span's seconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, request);
        let value = f();
        (value, self.close(id))
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Seconds of every closed span called `name`, in recording order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name && s.end_ns.is_some())
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Self seconds of every closed span called `name`.
    pub fn self_times_s(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        (0..spans.len())
            .filter(|&i| spans[i].name == name && spans[i].end_ns.is_some())
            .map(|i| self_time_ns(&spans, i) as f64 * 1e-9)
            .collect()
    }

    /// All spans as JSON rows (`id, name, start_ns, end_ns, self_ns,
    /// parent, request`), for writing out once the run ends.
    pub fn to_json(&self) -> Json {
        let spans = self.spans();
        let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Int(v as i64));
        Json::Arr(
            spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj(vec![
                        ("id", Json::Int(id as i64)),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::Int(s.start_ns as i64)),
                        ("end_ns", opt(s.end_ns)),
                        ("self_ns", Json::Int(self_time_ns(&spans, id) as i64)),
                        ("parent", opt(s.parent.map(|p| p as u64))),
                        ("request", Json::Int(s.request as i64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// covered by its direct children. Children that ran concurrently (on two
/// lanes) are merged first, so overlapping cover is subtracted once.
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let parent = &spans[id];
    let Some(end) = parent.end_ns else {
        return 0;
    };
    let start = parent.start_ns;
    let mut cover: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .filter_map(|s| {
            let (a, b) = (s.start_ns.max(start), s.end_ns?.min(end));
            (a < b).then_some((a, b))
        })
        .collect();
    cover.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in cover {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        covered += cb - ca;
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn span(start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns: start,
            end_ns: Some(end),
            parent,
            request: 0,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span(5, 25, None)];
        assert_eq!(self_time_ns(&spans, 0), 20);
    }

    #[test]
    fn sequential_children_are_subtracted() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 70, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 30);
    }

    #[test]
    fn overlapping_children_on_two_lanes_count_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(30, 90, Some(0)),
            // Nested inside the second child: not a direct child, ignored.
            span(35, 45, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 80);
        assert_eq!(self_time_ns(&spans, 2), 60 - 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span(50, 100, None),
            span(40, 60, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 50 - 10 - 10);
    }

    #[test]
    fn open_spans_report_zero() {
        let mut spans = vec![span(0, 10, None)];
        spans[0].end_ns = None;
        assert_eq!(self_time_ns(&spans, 0), 0);
    }

    #[test]
    fn recorder_children_overlap_across_threads() {
        let rec = Recorder::new();
        let parent = rec.open("parent", None, 1);
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for lane in 0..2u64 {
                let (rec, barrier) = (&rec, &barrier);
                s.spawn(move || {
                    let id = rec.open("child", Some(parent), 10 + lane);
                    // Both children are open here, so their intervals overlap.
                    barrier.wait();
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    rec.close(id);
                });
            }
        });
        rec.close(parent);
        let spans = rec.spans();
        let children: Vec<&Span> = spans.iter().filter(|s| s.name == "child").collect();
        assert_eq!(children.len(), 2);
        let longest = children.iter().map(|s| s.duration_ns()).max().expect("two");
        let sum: u64 = children.iter().map(|s| s.duration_ns()).sum();
        let own = self_time_ns(&spans, parent);
        // Overlap is subtracted once: self time exceeds duration − sum.
        assert!(own <= spans[parent].duration_ns() - longest);
        assert!(own > spans[parent].duration_ns().saturating_sub(sum));
        assert_eq!(rec.durations_s("child").len(), 2);
        assert_eq!(rec.self_times_s("parent").len(), 1);
    }
}
