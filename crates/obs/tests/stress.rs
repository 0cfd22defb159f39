//! Multi-thread stress: many OS threads hammer one shared recorder — the
//! DES runs one actor per thread, so the recorder must take concurrent
//! spans and counter updates without losing consistency.

use std::sync::Arc;
use std::thread;

use impacc_obs::{EventKind, Recorder, Span};
use impacc_vtime::SimTime;

const THREADS: u32 = 8;
const PER_THREAD: u64 = 5_000;

fn span(actor: String, i: u64) -> Span {
    Span {
        actor,
        kind: EventKind::Kernel,
        t0: SimTime(i),
        t1: SimTime(i + 1),
        attrs: Vec::new(),
    }
}

#[test]
fn concurrent_producers_never_corrupt_the_recorder() {
    let rec = Arc::new(Recorder::with_capacity(1 << 20));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let rec = rec.clone();
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    rec.record(span(format!("t{t}"), i));
                    rec.counter_inc("ops");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let total = u64::from(THREADS) * PER_THREAD;
    assert_eq!(rec.span_count() as u64, total);
    assert_eq!(rec.dropped(), 0);
    assert_eq!(rec.metrics().counters["ops"], total);
}

#[test]
fn ring_overflow_under_contention_drops_exactly_the_excess() {
    // The bound is per actor; all threads record as one.
    let cap = 1024;
    let rec = Arc::new(Recorder::with_capacity(cap));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let rec = rec.clone();
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    rec.record(span("shared".into(), i));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let total = u64::from(THREADS) * PER_THREAD;
    assert_eq!(rec.span_count(), cap);
    assert_eq!(rec.dropped(), total - cap as u64);
}
