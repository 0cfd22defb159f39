//! The benchmark's own span recorder. Spans wrap the benchmark's calls into
//! each layer; nothing inside the program is instrumented. Spans stay in
//! memory and are written out once, when the traced pass ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// Id of a recorded span; `ROOT` is the parent of top-level spans.
pub type SpanId = u32;
pub const ROOT: SpanId = 0;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Thread-safe recorder; a disabled one reads no clock and takes no lock.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closes (and is recorded) when dropped.
pub struct Open<'a> {
    tracer: &'a Tracer,
    id: SpanId,
}

impl Open<'_> {
    /// Id to pass as the parent of spans this one causes.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let end_ns = self.tracer.now_ns();
        // A poisoned lock means a recording thread panicked; the run has
        // failed already, so losing this span is harmless.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[self.id as usize - 1].end_ns = end_ns;
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`. Ids are assigned at open time so a child
    /// can name its parent while the parent is still running.
    pub fn span(&self, name: &'static str, parent: SpanId) -> Open<'_> {
        let mut id = ROOT;
        if self.enabled {
            let start_ns = self.now_ns();
            let mut spans = self.spans.lock().expect("no recording thread panicked");
            id = spans.len() as SpanId + 1;
            spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns: start_ns,
            });
        }
        Open { tracer: self, id }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no recording thread panicked")
            .clone()
    }
}

/// Self time of a span: its duration minus the part its children cover.
/// Children of one parent here never overlap (each layer call returns
/// before the next starts), so their durations add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered: BTreeMap<SpanId, u64> = BTreeMap::new();
    for s in spans {
        *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns).saturating_sub(covered.get(&s.id).copied().unwrap_or(0)))
        .collect()
}

/// Total self time and count per span name, in first-seen order.
pub fn self_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(row) => {
                row.1 += self_ns;
                row.2 += 1;
            }
            None => out.push((s.name, self_ns, 1)),
        }
    }
    out
}

/// `trace.json` body: every span with its workload id, plus the computed
/// share table.
pub fn to_json(workload: &str, spans: &[Span], shares: &[(String, f64)]) -> Json {
    let selfs = self_times(spans);
    Json::obj([
        ("workload", Json::Str(workload.into())),
        (
            "shares_pct",
            Json::obj(shares.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .zip(selfs)
                    .map(|(s, self_ns)| {
                        Json::obj([
                            ("id", Json::Num(s.id as f64)),
                            ("parent", Json::Num(s.parent as f64)),
                            ("name", Json::Str(s.name.into())),
                            ("workload", Json::Str(workload.into())),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            ("self_ns", Json::Num(self_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(1, ROOT, "job", 0, 100),
            span(2, 1, "parse", 10, 30),
            span(3, 1, "run", 30, 90),
            span(4, 3, "inner", 40, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        assert_eq!(
            self_by_name(&spans),
            vec![
                ("job", 20, 1),
                ("parse", 20, 1),
                ("run", 50, 1),
                ("inner", 10, 1)
            ]
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let outer = t.span("outer", ROOT);
            let _inner = t.span("inner", outer.id());
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_name_a_still_open_parent() {
        let t = Tracer::new(true);
        {
            let outer = t.span("outer", ROOT);
            let _inner = t.span("inner", outer.id());
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
