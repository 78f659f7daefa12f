//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a layer name, start and end (ns since the tracer began), the
//! span that caused it, and a key naming the scenario, request or
//! artifact it served. Spans stay in memory and are written out when the
//! run ends. An untraced run uses a disabled tracer: the same calls, with
//! nothing recorded.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id (unique within the tracer, starting at 1).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer (or workload step) name.
    pub name: &'static str,
    /// The scenario, request or artifact this span served.
    pub key: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// Span recorder; share by reference across threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span id to
    /// pass as the parent of nested spans (0 when disabled).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        key: impl Into<String>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        let span = Span { id, parent, name, key: key.into(), start_ns, end_ns };
        self.spans.lock().expect("span list poisoned by a panicking worker").push(span);
        out
    }

    /// Records an already measured interval (e.g. a server-side time
    /// read from a response), ending now.
    pub fn record(&self, name: &'static str, parent: Option<u64>, key: String, seconds: f64) {
        if !self.enabled {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let end_ns = self.now_ns();
        let start_ns = end_ns.saturating_sub((seconds * 1e9) as u64);
        let span = Span { id, parent, name, key, start_ns, end_ns };
        self.spans.lock().expect("span list poisoned by a panicking worker").push(span);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A copy of every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned by a panicking worker").clone()
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"key\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, in seconds: its duration minus the part of
/// that interval its child spans cover (children may overlap when they
/// ran on different threads).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 / 1e9)
        })
        .collect()
}

/// Self time summed per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut by_name = BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name).or_insert(0.0) += own[&s.id];
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, key: String::new(), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "sweep", 0, 100),
            span(2, Some(1), "artifact", 10, 50),
            span(3, Some(1), "artifact", 30, 70), // overlaps span 2
            span(4, Some(2), "engine", 20, 30),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 40e-9);
        assert_eq!(own[&2], 30e-9);
        assert_eq!(own[&3], 40e-9);
        assert_eq!(own[&4], 10e-9);
        let by_name = self_time_by_name(&spans);
        assert!((by_name["artifact"] - 70e-9).abs() < 1e-18);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let got = tracer.span("build", None, "k", |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(got, 7);
        assert!(tracer.spans().is_empty());

        let tracer = Tracer::new(true);
        tracer.span("a", None, "k", |id| tracer.span("b", id, "k", |_| ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
    }
}
