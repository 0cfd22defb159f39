//! Integration tests: span ordering/nesting invariants under the
//! engine, its stall spans, and run-to-run determinism.

use impacc_obs::{EventKind, Recorder};
use impacc_vtime::{Latch, Sim, SimConfig, SimDur};

fn sim_with(rec: &Recorder) -> Sim {
    Sim::with_config(SimConfig {
        sink: Some(rec.sink()),
        ..SimConfig::default()
    })
}

#[test]
fn nested_spans_are_well_formed_per_actor() {
    let rec = Recorder::new();
    let mut sim = sim_with(&rec);
    sim.spawn("worker", |ctx| {
        let outer0 = ctx.now();
        for _ in 0..3 {
            let t0 = ctx.now();
            ctx.advance(SimDur::from_us(5), "inner");
            ctx.span("kernel", t0, ctx.now(), Vec::new);
        }
        ctx.span("handler_cmd", outer0, ctx.now(), Vec::new);
    });
    sim.run().unwrap();

    let spans = rec.spans();
    let worker: Vec<_> = spans.iter().filter(|s| s.actor == "worker").collect();
    assert_eq!(worker.len(), 4);
    // Spans arrive in completion order: the three inner kernels, then the
    // enclosing span emitted last.
    assert!(worker[..3].iter().all(|s| s.kind == EventKind::Kernel));
    assert_eq!(worker[3].kind, EventKind::HandlerCmd);
    // Well-nested: any two spans of one actor are disjoint or contained —
    // an actor runs one thing at a time, so no partial overlap.
    for a in &worker {
        for b in &worker {
            let disjoint = a.t1 <= b.t0 || b.t1 <= a.t0;
            let contains = (a.t0 <= b.t0 && b.t1 <= a.t1) || (b.t0 <= a.t0 && a.t1 <= b.t1);
            assert!(
                disjoint || contains,
                "overlap without nesting: {a:?} vs {b:?}"
            );
        }
    }
    // The inner spans exactly tile the outer one.
    assert_eq!(worker[0].t0, worker[3].t0);
    assert_eq!(worker[2].t1, worker[3].t1);
    assert_eq!(worker[3].dur(), SimDur::from_us(15));
}

#[test]
fn engine_emits_stall_spans_for_blocked_waits() {
    let rec = Recorder::new();
    let mut sim = sim_with(&rec);
    let latch = Latch::new();
    let l2 = latch.clone();
    sim.spawn("opener", move |ctx| {
        ctx.advance(SimDur::from_us(20), "work");
        l2.open(ctx);
    });
    sim.spawn("waiter", move |ctx| {
        latch.wait(ctx, "gate");
    });
    sim.run().unwrap();

    let spans = rec.spans();
    let stall = spans
        .iter()
        .find(|s| s.kind == EventKind::Stall && s.actor == "waiter")
        .expect("waiter's blocked time must surface as a stall span");
    assert_eq!(stall.attr("tag"), Some("gate"));
    assert_eq!(stall.dur(), SimDur::from_us(20));
}

#[test]
fn identical_runs_record_identical_spans() {
    let run = || {
        let rec = Recorder::new();
        let mut sim = sim_with(&rec);
        let latch = Latch::new();
        for i in 0..4u32 {
            let l = latch.clone();
            sim.spawn(format!("rank{i}"), move |ctx| {
                ctx.advance(SimDur::from_us(u64::from(i) + 1), "work");
                let t0 = ctx.now();
                ctx.advance(SimDur::from_us(2), "copy");
                ctx.span("HtoD", t0, ctx.now(), || {
                    vec![("bytes", (1024 * (i + 1)).to_string())]
                });
                if i == 0 {
                    l.open(ctx);
                } else {
                    l.wait(ctx, "barrier");
                }
            });
        }
        sim.run().unwrap();
        rec.spans()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "DES replay must record bit-identical spans");
}
