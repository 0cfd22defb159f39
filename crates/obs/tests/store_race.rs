//! The span store under the engine's access pattern: every actor thread
//! pushes through its own lane, the scheduler pushes stalls into all of
//! them, and a reader takes flight views throughout. `ci.sh` also runs
//! this optimized, where the window for a race is widest.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use impacc_obs::{EventKind, Recorder, Span, SpanLane, SpanSink, Window};
use impacc_vtime::SimTime;

const ACTORS: usize = 4;
const PER_WRITER: u64 = 20_000;
const WINDOW: usize = 64;
/// Views kept for checking against the final stream.
const VIEWS: usize = 256;

/// Spans of each actor as `(kind, sequence number of its writer)`.
fn by_actor(spans: &[Span]) -> BTreeMap<&str, Vec<(EventKind, u64)>> {
    let mut out: BTreeMap<&str, Vec<(EventKind, u64)>> = BTreeMap::new();
    for s in spans {
        out.entry(&s.actor).or_default().push((s.kind, s.t0.0));
    }
    out
}

/// Hammer `store`; returns the views the reader took while the writers
/// ran, then the one it took after they finished.
fn hammer(store: &Recorder) -> (Vec<Window>, Window) {
    let lanes: Vec<Arc<dyn SpanLane>> = (0..ACTORS)
        .map(|i| store.lane(&format!("actor{i}")))
        .collect();
    // All writers and the reader start together; the reader runs for as
    // long as any writer does.
    let start = Barrier::new(ACTORS + 2);
    let writing = AtomicUsize::new(ACTORS + 1);
    let views = thread::scope(|s| {
        for lane in &lanes {
            s.spawn(|| {
                start.wait();
                for k in 0..PER_WRITER {
                    lane.span("kernel", SimTime(k), SimTime(k + 1), &mut Vec::new);
                }
                writing.fetch_sub(1, Ordering::SeqCst);
            });
        }
        // The scheduler's pattern: one thread, every lane in turn.
        s.spawn(|| {
            start.wait();
            for k in 0..PER_WRITER {
                for lane in &lanes {
                    lane.span("stall", SimTime(k), SimTime(k + 1), &mut Vec::new);
                }
            }
            writing.fetch_sub(1, Ordering::SeqCst);
        });
        let reader = s.spawn(|| {
            start.wait();
            let mut views = Vec::new();
            while writing.load(Ordering::SeqCst) > 0 {
                let view = store.window(WINDOW);
                if views.len() < VIEWS {
                    views.push(view);
                }
            }
            views
        });
        reader.join().expect("reader")
    });
    (views, store.window(WINDOW))
}

/// Each writer's spans keep their order in every lane, and a view shows a
/// contiguous piece of the lane: consecutive numbers from each writer.
fn assert_contiguous(view: &Window) {
    for (actor, stream) in by_actor(&view.spans) {
        assert!(stream.len() <= WINDOW, "{actor}: view larger than window");
        for kind in [EventKind::Kernel, EventKind::Stall] {
            let seq: Vec<u64> = stream.iter().filter(|e| e.0 == kind).map(|e| e.1).collect();
            assert!(
                seq.windows(2).all(|w| w[1] == w[0] + 1),
                "{actor}: {kind:?} spans out of order or missing in {seq:?}"
            );
        }
    }
}

#[test]
fn a_window_store_keeps_per_actor_order_and_counts_every_span() {
    let store = Recorder::windowed(WINDOW);
    let (views, last) = hammer(&store);
    for view in views.iter().chain([&last]) {
        assert_contiguous(view);
    }
    assert_eq!(
        last.spans,
        store.spans(),
        "the view of a window store is its content"
    );
    assert_eq!(store.span_count(), ACTORS * WINDOW);
    let pushed = 2 * PER_WRITER * ACTORS as u64;
    assert_eq!(store.span_count() as u64 + store.dropped(), pushed);
    let hidden: u64 = last.dropped.iter().map(|d| d.1).sum();
    assert_eq!(last.spans.len() as u64 + hidden, pushed);
}

#[test]
fn every_view_of_a_full_store_is_a_suffix_of_the_stream_so_far() {
    let store = Recorder::new();
    let (views, last) = hammer(&store);
    assert_eq!(store.dropped(), 0);
    assert_eq!(store.span_count() as u64, 2 * PER_WRITER * ACTORS as u64);
    let spans = store.spans();
    let truth = by_actor(&spans);
    // Where each actor's previous view ended: views only move forward.
    let mut seen_to: BTreeMap<String, usize> = BTreeMap::new();
    for view in views.iter().chain([&last]) {
        assert_contiguous(view);
        let dropped: BTreeMap<&str, u64> =
            view.dropped.iter().map(|(a, d)| (a.as_str(), *d)).collect();
        for (actor, part) in by_actor(&view.spans) {
            // The spans the view hides are exactly those before it.
            let from = dropped.get(actor).copied().unwrap_or(0) as usize;
            let to = from + part.len();
            assert_eq!(
                part,
                truth[actor][from..to],
                "{actor}: view is not a piece of the stream"
            );
            assert!(
                part.len() == WINDOW || from == 0,
                "{actor}: short view of a long stream"
            );
            let prev = seen_to.insert(actor.to_string(), to).unwrap_or(0);
            assert!(to >= prev, "{actor}: a later view ended earlier");
        }
    }
    for (actor, stream) in &truth {
        assert_eq!(
            seen_to[*actor],
            stream.len(),
            "{actor}: the last view ends the stream"
        );
    }
}
