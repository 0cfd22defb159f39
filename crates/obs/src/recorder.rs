//! The span store: one bounded ring per actor, plus the causal edges.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use impacc_vtime::{SimTime, SpanLane, SpanSink};
use parking_lot::Mutex;

use crate::{Edge, EventKind, Span};

/// Default per-actor span capacity of a full store (and its edge bound):
/// roomy enough for every fig harness while bounding memory on runaway
/// runs.
const DEFAULT_CAPACITY: usize = 1 << 20;

/// Does a *window* keep this kind's attributes? Bulk kinds (copies,
/// kernels, stalls, queue waits) are kept attribute-free — evaluating
/// their closures would put string formatting on every event of an
/// always-on recording. The rare, attribution-critical kinds keep full
/// detail.
fn window_keeps_attrs(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::Fault | EventKind::Retry | EventKind::Marker | EventKind::Anomaly
    )
}

/// One retained span. The actor name is the lane's registry key, not
/// repeated in every entry.
struct Event {
    kind: EventKind,
    t0: SimTime,
    t1: SimTime,
    attrs: Box<[(&'static str, String)]>,
}

/// Overwrite-oldest buffer of one actor's spans, plus the tallies the
/// flight triggers read.
#[derive(Default)]
struct Ring {
    buf: Vec<Event>,
    /// Oldest entry (= next overwrite position) once the buffer is full.
    head: usize,
    /// Entries overwritten so far.
    dropped: u64,
    /// Highest span end pushed.
    last_t1: SimTime,
    /// Fault-kind spans pushed.
    faults: u64,
}

impl Ring {
    fn oldest_first(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..].iter().chain(&self.buf[..self.head])
    }
}

/// One actor's ring behind its own lock: taken by the actor's thread, by
/// the scheduler when it emits that actor's stall, and by readers.
struct Lane {
    /// Spans retained; 0 on a disabled store.
    cap: usize,
    /// Full retention runs every attribute closure; a window runs those
    /// of the rare kinds only ([`window_keeps_attrs`]).
    full: bool,
    ring: Mutex<Ring>,
}

impl Lane {
    fn push(&self, ev: Event) {
        let mut r = self.ring.lock();
        r.last_t1 = r.last_t1.max(ev.t1);
        r.faults += u64::from(ev.kind == EventKind::Fault);
        if r.buf.len() < self.cap {
            r.buf.push(ev);
        } else {
            let head = r.head;
            r.buf[head] = ev;
            r.head = (head + 1) % self.cap;
            r.dropped += 1;
        }
    }
}

impl SpanLane for Lane {
    fn span(
        &self,
        label: &'static str,
        t0: SimTime,
        t1: SimTime,
        attrs: &mut dyn FnMut() -> Vec<(&'static str, String)>,
    ) {
        if self.cap == 0 {
            return;
        }
        // Unknown labels degrade to markers carrying the original label,
        // keeping EventKind closed without losing information.
        let (kind, attrs) = match EventKind::parse(label) {
            Some(k) if self.full || window_keeps_attrs(k) => (k, attrs()),
            Some(k) => (k, Vec::new()),
            None => {
                let mut a = attrs();
                a.push(("label", label.to_string()));
                (EventKind::Marker, a)
            }
        };
        self.push(Event {
            kind,
            t0,
            t1,
            attrs: attrs.into_boxed_slice(),
        });
    }

    fn keeps_attrs(&self, label: &'static str) -> bool {
        self.cap > 0 && (self.full || EventKind::parse(label).is_none_or(window_keeps_attrs))
    }
}

/// The flight view of a store ([`Recorder::window`]).
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// The last spans of each actor: actors sorted, per-actor emission
    /// order, attributes kept for faults, retries, markers and anomalies.
    pub spans: Vec<Span>,
    /// Per actor, the spans older than the view (actors with none are
    /// omitted).
    pub dropped: Vec<(String, u64)>,
}

struct Inner {
    enabled: bool,
    /// Retention, fixed before the run: `full` keeps every span with its
    /// attributes plus the causal edges, up to `cap` spans per actor; a
    /// window keeps the last `cap` spans per actor and no edges.
    full: AtomicBool,
    cap: AtomicUsize,
    /// Sorted by actor name, which is the order every read returns.
    lanes: Mutex<BTreeMap<String, Arc<Lane>>>,
    edges: Mutex<VecDeque<Edge>>,
    edges_dropped: AtomicU64,
}

/// A shared handle to the span store.
///
/// Cloning is cheap (one `Arc`); all clones observe the same state. The
/// recorder implements [`SpanSink`], so attach it to a run with
/// `SimConfig { sink: Some(recorder.sink()), .. }` or
/// `Launch::recorder(&recorder)`. Each actor registers once
/// ([`SpanSink::lane`]) and from then on pushes into its own ring through
/// the handle it got back; spans read back actors sorted, per-actor
/// emission order, whatever the engine's schedule was.
///
/// A recorder built with capacity 0 ([`Recorder::disabled`]) is inert:
/// `enabled()` is false, spans are discarded before attribute closures are
/// evaluated — calibration numbers are unchanged by a disabled recorder
/// in the loop.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.inner.cap.load(Ordering::Relaxed))
            .field("full", &self.is_full())
            .field("spans", &self.span_count())
            .finish()
    }
}

impl Recorder {
    fn build(cap: usize, full: bool) -> Recorder {
        Recorder {
            inner: Arc::new(Inner {
                enabled: cap > 0,
                full: AtomicBool::new(full),
                cap: AtomicUsize::new(cap),
                lanes: Mutex::new(BTreeMap::new()),
                edges: Mutex::new(VecDeque::new()),
                edges_dropped: AtomicU64::new(0),
            }),
        }
    }

    /// A full-retention store: every span with its attributes, at most
    /// `capacity` per actor (oldest dropped first), plus up to `capacity`
    /// causal edges. Capacity 0 builds a permanently disabled recorder.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder::build(capacity, true)
    }

    /// A full-retention store with `DEFAULT_CAPACITY` (2^20).
    pub fn new() -> Recorder {
        Recorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// A permanently disabled, zero-cost recorder.
    pub fn disabled() -> Recorder {
        Recorder::with_capacity(0)
    }

    /// A window store: the last `n` spans of each actor, attribute
    /// closures run for faults, retries, markers and anomalies only, no
    /// edges — cheap enough to leave on for every run.
    pub fn windowed(n: usize) -> Recorder {
        Recorder::build(n, false)
    }

    /// Switch a window store to full retention, `DEFAULT_CAPACITY` (2^20)
    /// spans per actor.
    /// Retention is fixed before the run: panics once an actor has
    /// registered. No-op on a full or disabled store.
    pub fn retain_all(&self) {
        if !self.inner.enabled || self.is_full() {
            return;
        }
        let lanes = self.inner.lanes.lock();
        assert!(
            lanes.is_empty(),
            "retention is fixed before the run: {} actors already record into this store",
            lanes.len()
        );
        self.inner.cap.store(DEFAULT_CAPACITY, Ordering::Relaxed);
        self.inner.full.store(true, Ordering::Relaxed);
    }

    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Does the store keep every span with attributes, and edges?
    pub fn is_full(&self) -> bool {
        self.inner.full.load(Ordering::Relaxed)
    }

    /// Edges are part of a full trace only: a window store keeps none.
    fn keeps_edges(&self) -> bool {
        self.inner.enabled && self.is_full()
    }

    /// Are `self` and `other` handles onto one store?
    pub fn same_store(&self, other: &Recorder) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// This recorder as an engine span sink.
    pub fn sink(&self) -> Arc<dyn SpanSink> {
        Arc::new(self.clone())
    }

    /// `actor`'s lane, created on first use with the store's retention.
    fn lane_of(&self, actor: &str) -> Arc<Lane> {
        let mut lanes = self.inner.lanes.lock();
        if let Some(lane) = lanes.get(actor) {
            return lane.clone();
        }
        let lane = Arc::new(Lane {
            cap: self.inner.cap.load(Ordering::Relaxed),
            full: self.is_full(),
            ring: Mutex::new(Ring::default()),
        });
        lanes.insert(actor.to_string(), lane.clone());
        lane
    }

    /// Record a span by actor name, attributes as given — the cold path
    /// for end-of-run anomaly spans and tests; a running actor records
    /// through its lane.
    pub fn record(&self, span: Span) {
        if !self.enabled() {
            return;
        }
        self.lane_of(&span.actor).push(Event {
            kind: span.kind,
            t0: span.t0,
            t1: span.t1,
            attrs: span.attrs.into_boxed_slice(),
        });
    }

    /// Record a causal edge directly. A window store keeps none.
    pub fn record_edge(&self, edge: Edge) {
        if !self.keeps_edges() {
            return;
        }
        let mut edges = self.inner.edges.lock();
        if edges.len() == self.inner.cap.load(Ordering::Relaxed) {
            edges.pop_front();
            self.inner.edges_dropped.fetch_add(1, Ordering::Relaxed);
        }
        edges.push_back(edge);
    }

    /// Fold over every lane in actor order.
    fn fold_rings<T>(&self, init: T, mut f: impl FnMut(T, &str, &Ring) -> T) -> T {
        let lanes = self.inner.lanes.lock();
        lanes
            .iter()
            .fold(init, |acc, (actor, lane)| f(acc, actor, &lane.ring.lock()))
    }

    /// The last `window` spans of each actor. `all_attrs` keeps what was
    /// recorded; otherwise attributes are those a window store would have
    /// kept.
    fn read(&self, window: usize, all_attrs: bool) -> Window {
        self.fold_rings(Window::default(), |mut out, actor, ring| {
            let skip = ring.buf.len().saturating_sub(window);
            let hidden = ring.dropped + skip as u64;
            if hidden > 0 {
                out.dropped.push((actor.to_string(), hidden));
            }
            out.spans
                .extend(ring.oldest_first().skip(skip).map(|ev| Span {
                    actor: actor.to_string(),
                    kind: ev.kind,
                    t0: ev.t0,
                    t1: ev.t1,
                    attrs: if all_attrs || window_keeps_attrs(ev.kind) {
                        ev.attrs.to_vec()
                    } else {
                        Vec::new()
                    },
                }));
            out
        })
    }

    /// Copy of every retained span: actors sorted, per-actor emission
    /// order — the same for every engine schedule.
    pub fn spans(&self) -> Vec<Span> {
        self.read(usize::MAX, true).spans
    }

    /// The flight view: what a window store of `n` spans per actor holds
    /// after the same run. On such a store this is the identity; on a full
    /// store it is computed here, and the two are equal.
    pub fn window(&self, n: usize) -> Window {
        self.read(n, false)
    }

    /// Copy of the retained causal edges: emission order, or content order
    /// once [`Recorder::canonicalize`] ran.
    pub fn edges(&self) -> Vec<Edge> {
        self.inner.edges.lock().iter().cloned().collect()
    }

    /// Number of retained spans.
    pub fn span_count(&self) -> usize {
        self.fold_rings(0, |n, _, ring| n + ring.buf.len())
    }

    /// Number of actors that have recorded or registered.
    pub fn actor_count(&self) -> usize {
        self.inner.lanes.lock().len()
    }

    /// Spans overwritten because their actor's ring was full.
    pub fn dropped(&self) -> u64 {
        self.fold_rings(0, |n, _, ring| n + ring.dropped)
    }

    /// Edges overwritten because the edge buffer was full.
    pub fn edges_dropped(&self) -> u64 {
        self.inner.edges_dropped.load(Ordering::Relaxed)
    }

    /// Highest span end recorded so far (0 before any span).
    pub fn last_vtime(&self) -> SimTime {
        self.fold_rings(SimTime::ZERO, |t, _, ring| t.max(ring.last_t1))
    }

    /// Fault-kind spans recorded — the chaos burst-trigger input.
    pub fn fault_fires(&self) -> u64 {
        self.fold_rings(0, |n, _, ring| n + ring.faults)
    }

    /// Sort the retained edges by content. Actors on different partitions
    /// emit concurrently, so raw edge order is racy; `Launch` calls this
    /// once when a run finishes, making the buffer byte-identical for every
    /// `IMPACC_PARALLEL` value. (Spans need no such step: they are stored
    /// per actor.) Idempotent.
    pub fn canonicalize(&self) {
        self.inner.edges.lock().make_contiguous().sort();
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl SpanSink for Recorder {
    fn enabled(&self) -> bool {
        Recorder::enabled(self)
    }

    fn lane(&self, actor: &str) -> Arc<dyn SpanLane> {
        self.lane_of(actor)
    }

    fn edge(
        &self,
        kind: &'static str,
        src_actor: &str,
        src_t: SimTime,
        dst_actor: &str,
        dst_t: SimTime,
        attrs: &mut dyn FnMut() -> Vec<(&'static str, String)>,
    ) {
        if !self.keeps_edges() {
            return;
        }
        let mut attrs = attrs();
        attrs.shrink_to_fit();
        self.record_edge(Edge {
            kind,
            src_actor: src_actor.to_string(),
            src_t,
            dst_actor: dst_actor.to_string(),
            dst_t,
            attrs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(actor: &str, kind: EventKind, t0: u64, t1: u64) -> Span {
        Span {
            actor: actor.into(),
            kind,
            t0: SimTime(t0),
            t1: SimTime(t1),
            attrs: Vec::new(),
        }
    }

    fn sink_span(r: &Recorder, actor: &str, label: &'static str, t0: u64, t1: u64) {
        r.lane(actor)
            .span(label, SimTime(t0), SimTime(t1), &mut Vec::new);
    }

    #[test]
    fn ring_drops_oldest() {
        let r = Recorder::with_capacity(2);
        r.record(span("a", EventKind::Kernel, 0, 1));
        r.record(span("a", EventKind::Kernel, 1, 2));
        r.record(span("a", EventKind::Kernel, 2, 3));
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].t0, SimTime(1));
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn ring_keeps_the_last_n_and_counts_overwrites() {
        let r = Recorder::windowed(3);
        for i in 0..10u64 {
            r.record(span("a", EventKind::Kernel, i, i + 1));
        }
        let spans = r.window(3).spans;
        assert_eq!(spans.len(), 3);
        // Oldest-first drain of the final window [7,8,9].
        assert_eq!(spans[0].t0, SimTime(7));
        assert_eq!(spans[2].t0, SimTime(9));
        assert_eq!(r.dropped(), 7);
        assert_eq!(r.last_vtime(), SimTime(10));
    }

    #[test]
    fn snapshot_is_actor_sorted_with_per_actor_order() {
        let r = Recorder::windowed(8);
        r.record(span("zeta", EventKind::Kernel, 0, 1));
        r.record(span("alpha", EventKind::Kernel, 5, 6));
        r.record(span("alpha", EventKind::Kernel, 7, 8));
        let spans = r.spans();
        let order: Vec<(&str, u64)> = spans.iter().map(|s| (s.actor.as_str(), s.t0.0)).collect();
        assert_eq!(order, vec![("alpha", 5), ("alpha", 7), ("zeta", 0)]);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.enabled());
        r.retain_all(); // capacity 0: cannot be enabled
        assert!(!r.enabled());
        r.record(span("a", EventKind::Kernel, 0, 1));
        assert_eq!(r.span_count(), 0);
        assert_eq!(r.actor_count(), 0);
        assert_eq!((r.dropped(), r.edges_dropped()), (0, 0));
    }

    #[test]
    fn sink_parses_labels_and_defers_attrs() {
        let r = Recorder::new();
        let mut calls = 0;
        r.lane("rank0")
            .span("HtoD", SimTime(5), SimTime(9), &mut || {
                calls += 1;
                vec![("bytes", "64".into())]
            });
        assert_eq!(calls, 1);
        let s = &r.spans()[0];
        assert_eq!(s.kind, EventKind::CopyHtoD);
        assert_eq!(s.attr("bytes"), Some("64"));

        // Disabled: closure must never run.
        let d = Recorder::disabled();
        d.lane("rank0")
            .span("HtoD", SimTime(5), SimTime(9), &mut || {
                panic!("attrs evaluated on a disabled recorder")
            });

        // Unknown label: marker + original label attr.
        sink_span(&r, "rank0", "exotic", 1, 1);
        let s = r.spans().pop().unwrap();
        assert_eq!(s.kind, EventKind::Marker);
        assert_eq!(s.attr("label"), Some("exotic"));
    }

    #[test]
    fn hot_kinds_skip_attr_closures_rare_kinds_keep_them() {
        let r = Recorder::windowed(8);
        let lane = r.lane("a");
        let mut calls = 0;
        lane.span("kernel", SimTime(0), SimTime(1), &mut || {
            calls += 1;
            vec![("bytes", "64".into())]
        });
        assert_eq!(calls, 0, "bulk kinds must not evaluate attrs");
        lane.span("fault", SimTime(1), SimTime(1), &mut || {
            calls += 1;
            vec![("site", "link_drop".into())]
        });
        assert_eq!(calls, 1);
        let spans = r.spans();
        assert!(spans[0].attrs.is_empty());
        assert_eq!(spans[1].attr("site"), Some("link_drop"));
        assert_eq!(r.fault_fires(), 1);
        // Unknown labels degrade to markers carrying the label.
        sink_span(&r, "a", "exotic", 2, 2);
        let s = r.spans().pop().unwrap();
        assert_eq!(s.kind, EventKind::Marker);
        assert_eq!(s.attr("label"), Some("exotic"));
        // The engine asks before formatting a stall's cause.
        assert!(!lane.keeps_attrs("stall"));
        assert!(lane.keeps_attrs("fault") && lane.keeps_attrs("exotic"));
        assert!(Recorder::new().lane("a").keeps_attrs("stall"));
        assert!(!Recorder::disabled().lane("a").keeps_attrs("fault"));
    }

    #[test]
    fn window_of_a_full_store_is_what_a_window_store_holds() {
        let feed = |r: &Recorder| {
            let lane = r.lane("rank0");
            for i in 0..5u64 {
                lane.span("kernel", SimTime(i), SimTime(i + 1), &mut || {
                    vec![("flops", i.to_string())]
                });
            }
            lane.span("retry", SimTime(5), SimTime(6), &mut || {
                vec![("site", "link_drop".into())]
            });
            sink_span(r, "rank1", "HtoD", 0, 2);
        };
        let (win, full) = (Recorder::windowed(3), Recorder::new());
        feed(&win);
        feed(&full);
        assert_eq!(full.span_count(), 7);
        assert_eq!(full.spans()[0].attr("flops"), Some("0"));
        let (w, f) = (win.window(3), full.window(3));
        assert_eq!(w.spans, f.spans);
        assert_eq!(
            w.spans,
            win.spans(),
            "the view of a window store is its content"
        );
        assert_eq!(w.dropped, f.dropped);
        assert_eq!(w.dropped, vec![("rank0".to_string(), 3)]);
        assert!(
            w.spans[0].attrs.is_empty(),
            "bulk attrs are not in the view"
        );
        assert_eq!(w.spans[2].attr("site"), Some("link_drop"));
        assert_eq!(win.last_vtime(), full.last_vtime());
    }

    #[test]
    fn retention_is_fixed_before_the_first_actor_registers() {
        let r = Recorder::windowed(4);
        assert!(!r.is_full());
        r.retain_all();
        assert!(r.is_full());
        sink_span(&r, "a", "kernel", 0, 1);
        r.retain_all(); // already full: nothing to change
        let late = Recorder::windowed(4);
        sink_span(&late, "a", "kernel", 0, 1);
        let widened = std::panic::catch_unwind(|| late.retain_all());
        assert!(widened.is_err(), "a running store cannot change retention");
    }

    #[test]
    fn window_store_keeps_no_edges() {
        let full = Recorder::new();
        full.edge("wake", "a", SimTime(0), "b", SimTime(1), &mut || {
            vec![("tag", "t".into())]
        });
        assert_eq!(full.edges().len(), 1);
        let win = Recorder::windowed(4);
        win.edge("wake", "a", SimTime(0), "b", SimTime(1), &mut || {
            panic!("edge attrs evaluated on a window store")
        });
        assert!(win.edges().is_empty());
    }

    #[test]
    fn overflow_surfaces_dropped_counters_one_tally_per_buffer() {
        let r = Recorder::with_capacity(2);
        r.record(span("a", EventKind::Kernel, 0, 1));
        r.record(span("a", EventKind::Kernel, 1, 2));
        assert_eq!(r.dropped(), 0);
        // Overflow: the span tally counts every overwritten span.
        r.record(span("a", EventKind::Kernel, 2, 3));
        r.record(span("a", EventKind::Kernel, 3, 4));
        assert_eq!(r.dropped(), 2);
        // Edge overflow has its own tally and leaves the span one alone.
        assert_eq!(r.edges_dropped(), 0);
        for i in 0..3 {
            r.edge("wake", "a", SimTime(i), "b", SimTime(i), &mut Vec::new);
        }
        assert_eq!(r.edges_dropped(), 1);
        assert_eq!(r.dropped(), 2);
    }
}
