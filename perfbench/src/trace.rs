//! In-memory span recording for the traced run, per-layer self time,
//! and a Chrome trace-event writer.
//!
//! A span is opened around one call into a layer's public API and
//! closed when the call returns. Spans carry their parent's id and the
//! sweep point's key, so every span of one point shares an identifier.
//! Nothing is written until the run ends.

use serde::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifies a span within one [`Tracer`].
pub type SpanId = u64;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// Key of the sweep point this span belongs to (empty for
    /// sweep-level spans).
    pub point: String,
    /// Small per-thread number, stable for the life of the process.
    pub tid: u64,
    pub start: Duration,
    pub end: Duration,
    /// Work counts recorded at the same boundary as the timing.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A span that has been opened but not yet closed.
pub struct Open {
    pub id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    point: String,
    start: Duration,
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`; tracers sharing
    /// an epoch write onto one timeline.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn open(&self, name: &'static str, parent: Option<SpanId>, point: &str) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            point: point.to_string(),
            start: self.epoch.elapsed(),
        }
    }

    pub fn close(&self, open: Open, counts: &[(&'static str, u64)]) {
        let end = self.epoch.elapsed();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            point: open.point,
            tid: TID.with(|t| *t),
            start: open.start,
            end,
            counts: counts.to_vec(),
        };
        self.spans
            .lock()
            .expect("a traced worker panicked while recording a span")
            .push(span);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        point: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, parent, point);
        let out = f();
        self.close(open, &[]);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("a traced worker panicked while recording a span")
    }
}

/// Total self time per span name: each span's duration minus the part
/// of its interval that its children cover. Children on other threads
/// may overlap one another; their union is subtracted once.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut children: BTreeMap<SpanId, Vec<(Duration, Duration)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(Duration::ZERO, |c| union_within(c, s.start, s.end));
        *out.entry(s.name).or_default() += s.duration().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &[(Duration, Duration)], lo: Duration, hi: Duration) -> Duration {
    let mut clipped: Vec<(Duration, Duration)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort();
    let mut total = Duration::ZERO;
    let mut current: Option<(Duration, Duration)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

/// Chrome trace-event JSON (complete `X` events, microsecond
/// timestamps) for several runs; each run gets its own `pid` so a
/// viewer shows them as separate processes.
pub fn chrome_json(runs: &[Vec<Span>]) -> Result<String, serde_json::Error> {
    let str_value = |s: &str| Value::Str(s.to_string());
    let mut events = Vec::new();
    for (pid, spans) in runs.iter().enumerate() {
        for s in spans {
            let mut args = vec![("id".to_string(), Value::Int(i128::from(s.id)))];
            if let Some(parent) = s.parent {
                args.push(("parent".to_string(), Value::Int(i128::from(parent))));
            }
            if !s.point.is_empty() {
                args.push(("point".to_string(), str_value(&s.point)));
            }
            for &(name, count) in &s.counts {
                args.push((name.to_string(), Value::Int(i128::from(count))));
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            events.push(Value::Map(vec![
                ("name".to_string(), str_value(s.name)),
                ("cat".to_string(), str_value(layer)),
                ("ph".to_string(), str_value("X")),
                ("ts".to_string(), Value::Float(s.start.as_secs_f64() * 1e6)),
                (
                    "dur".to_string(),
                    Value::Float(s.duration().as_secs_f64() * 1e6),
                ),
                ("pid".to_string(), Value::Int(pid as i128 + 1)),
                ("tid".to_string(), Value::Int(i128::from(s.tid))),
                ("args".to_string(), Value::Map(args)),
            ]));
        }
    }
    serde_json::to_string(&Value::Map(vec![
        ("traceEvents".to_string(), Value::Seq(events)),
        ("displayTimeUnit".to_string(), str_value("ms")),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            point: String::new(),
            tid: 1,
            start: Duration::from_millis(a),
            end: Duration::from_millis(b),
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, "sweep", 0, 100),
            // Two overlapping children (different threads): union 0..60.
            span(2, Some(1), "point", 0, 50),
            span(3, Some(1), "point", 10, 60),
            span(4, Some(2), "ga", 5, 45),
        ];
        let t = self_times(&spans);
        assert_eq!(t["sweep"], Duration::from_millis(40));
        assert_eq!(t["point"], Duration::from_millis(10 + 50));
        assert_eq!(t["ga"], Duration::from_millis(40));
    }

    #[test]
    fn chrome_output_is_json_with_one_event_per_span() {
        let spans = vec![
            span(1, None, "dse.sweep", 0, 2),
            span(2, Some(1), "sim.run", 0, 1),
        ];
        let json = chrome_json(&[spans]).unwrap();
        let value = serde_json::parse_value(&json).unwrap();
        let Value::Map(top) = value else {
            panic!("not an object")
        };
        let Value::Seq(events) = &top[0].1 else {
            panic!("no event list")
        };
        assert_eq!(events.len(), 2);
    }
}
