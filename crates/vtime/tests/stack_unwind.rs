//! What a blocking actor owns is dropped exactly once however its run
//! ends. A run that ends in a deadlock, in another actor's panic or at the
//! event limit leaves actors blocked in a wait, queued in an advance, or
//! registered but never granted: the frames of the first two unwind, the
//! closure of the third is dropped without running, and nothing the actors
//! captured outlives `run`. A misuse the engine finds while an actor's
//! stack is switched out (a wait on a stale token) unwinds that stack too.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use impacc_vtime::{Ctx, Sim, SimConfig, SimDur, SimError};

/// Drop counts per guard name, shared by every actor of a run.
#[derive(Default)]
struct Drops(Mutex<BTreeMap<&'static str, u32>>);

struct Guard {
    name: &'static str,
    drops: Arc<Drops>,
}

impl Drop for Guard {
    fn drop(&mut self) {
        *self.drops.0.lock().unwrap().entry(self.name).or_default() += 1;
    }
}

fn guard(name: &'static str, drops: &Arc<Drops>) -> Guard {
    Guard {
        name,
        drops: drops.clone(),
    }
}

fn small_stacks(max_events: u64, lookahead: SimDur) -> Sim {
    Sim::with_config(SimConfig {
        stack_size: 64 * 1024,
        max_events,
        lookahead,
        ..SimConfig::default()
    })
}

/// Blocks in a wait nobody ends, its guard on its frame.
fn blocked(sim: &mut Sim, part: u32, drops: &Arc<Drops>) {
    let drops = drops.clone();
    sim.spawn_on(part, "blocked", move |ctx| {
        let _g = guard("blocked", &drops);
        let tok = ctx.prepare_wait();
        ctx.wait(tok, "never");
    });
}

/// Queues one long advance, its guard on its frame.
fn queued(sim: &mut Sim, part: u32, drops: &Arc<Drops>) {
    let drops = drops.clone();
    sim.spawn_on(part, "queued", move |ctx| {
        let _g = guard("queued", &drops);
        ctx.advance(SimDur::from_secs(100), "sleep");
    });
}

/// Granted after every other actor at time zero (see each test), so the
/// run ends before its first grant. Its guard lives in its closure.
fn unstarted(sim: &mut Sim, part: u32, drops: &Arc<Drops>, ran: &Arc<AtomicBool>) {
    let (g, ran) = (guard("unstarted", drops), ran.clone());
    sim.spawn_on(part, "unstarted", move |_ctx| {
        ran.store(true, Ordering::SeqCst);
        drop(g);
    });
}

/// Every guard of `names` dropped once, nothing else dropped, and no actor
/// still holding `drops`.
fn assert_dropped_once(drops: Arc<Drops>, names: &[&'static str]) {
    let want: BTreeMap<_, _> = names.iter().map(|n| (*n, 1)).collect();
    assert_eq!(*drops.0.lock().unwrap(), want);
    assert_eq!(Arc::strong_count(&drops), 1, "an actor outlived the run");
}

#[test]
fn an_actor_panic_unwinds_blocked_and_queued_actors_and_drops_the_unstarted() {
    let (drops, ran) = (Arc::<Drops>::default(), Arc::new(AtomicBool::new(false)));
    // Zero lookahead: one queue, granted in registration order at time
    // zero, so `bad` panics before the unstarted actor's turn.
    let mut sim = small_stacks(u64::MAX, SimDur::ZERO);
    blocked(&mut sim, 0, &drops);
    queued(&mut sim, 0, &drops);
    sim.spawn_on(0, "bad", |_ctx: &Ctx| panic!("boom"));
    unstarted(&mut sim, 0, &drops, &ran);
    match sim.run() {
        Err(SimError::ActorPanic { actor, message }) => {
            assert_eq!((actor.as_str(), message.as_str()), ("bad", "boom"));
        }
        other => panic!("expected the panic, got {other:?}"),
    }
    assert!(
        !ran.load(Ordering::SeqCst),
        "a poisoned run started an actor"
    );
    assert_dropped_once(drops, &["blocked", "queued", "unstarted"]);
}

#[test]
fn the_event_limit_unwinds_blocked_and_queued_actors_and_drops_the_unstarted() {
    let (drops, ran) = (Arc::<Drops>::default(), Arc::new(AtomicBool::new(false)));
    // One worker grants the first window's partitions from the highest
    // index down: blocked, queued, then the spinner, whose in-window
    // advances trip the limit before partition 0 is granted.
    let mut sim = small_stacks(100, SimDur::from_ms(1));
    unstarted(&mut sim, 0, &drops, &ran);
    let spin = drops.clone();
    sim.spawn_on(1, "spinner", move |ctx| {
        let _g = guard("spinner", &spin);
        loop {
            ctx.advance(SimDur::from_ns(1), "spin");
        }
    });
    queued(&mut sim, 2, &drops);
    blocked(&mut sim, 3, &drops);
    match sim.run() {
        Err(SimError::EventLimit { limit }) => assert_eq!(limit, 100),
        other => panic!("expected the event limit, got {other:?}"),
    }
    assert!(
        !ran.load(Ordering::SeqCst),
        "a poisoned run started an actor"
    );
    assert_dropped_once(drops, &["blocked", "queued", "spinner", "unstarted"]);
}

#[test]
fn a_deadlock_unwinds_every_blocked_actor() {
    let drops = Arc::<Drops>::default();
    let mut sim = small_stacks(u64::MAX, SimDur::ZERO);
    blocked(&mut sim, 0, &drops);
    // Queued first, then blocked after its advance.
    let late = drops.clone();
    sim.spawn("late", move |ctx| {
        let _g = guard("late", &late);
        ctx.advance(SimDur::from_us(5), "w");
        let tok = ctx.prepare_wait();
        ctx.wait(tok, "never");
    });
    let done = drops.clone();
    sim.spawn("done", move |ctx| {
        let _g = guard("done", &done);
        ctx.advance(SimDur::from_us(1), "w");
    });
    match sim.run() {
        Err(SimError::Deadlock { detail }) => {
            assert!(
                detail.contains("'blocked'") && detail.contains("'late'"),
                "{detail}"
            );
        }
        other => panic!("expected a deadlock, got {other:?}"),
    }
    assert_dropped_once(drops, &["blocked", "done", "late"]);
}

/// About 1 KiB of locals per level, `depth` levels deep, suspending at the
/// bottom.
fn recurse(ctx: &Ctx, depth: u32) -> u64 {
    let mut locals = [0u8; 1024];
    locals[depth as usize % 1024] = depth as u8;
    std::hint::black_box(&mut locals);
    if depth == 0 {
        ctx.advance(SimDur::from_ns(1), "deep");
        return locals[0] as u64;
    }
    recurse(ctx, depth - 1) + locals[depth as usize % 1024] as u64
}

#[test]
fn an_actor_recursing_through_48_kib_completes_on_a_64_kib_stack() {
    let sum = Arc::new(Mutex::new(0));
    let mut sim = small_stacks(u64::MAX, SimDur::ZERO);
    for name in ["deep0", "deep1"] {
        let sum = sum.clone();
        sim.spawn(name, move |ctx| {
            *sum.lock().unwrap() += recurse(ctx, 47);
        });
    }
    let report = sim.run().expect("the recursion fits");
    assert_eq!(
        report.actor("deep1").unwrap().tag("deep"),
        SimDur::from_ns(1)
    );
    assert_eq!(*sum.lock().unwrap(), 2 * (0..48).sum::<u64>());
}

#[test]
fn a_wait_on_a_stale_token_is_reported_and_unwinds_the_waiter() {
    let drops = Arc::<Drops>::default();
    let mut sim = small_stacks(u64::MAX, SimDur::ZERO);
    let sloppy = drops.clone();
    sim.spawn("sloppy", move |ctx| {
        let _g = guard("sloppy", &sloppy);
        let stale = ctx.prepare_wait();
        let _current = ctx.prepare_wait();
        ctx.wait(stale, "idle");
    });
    let ran = Arc::new(AtomicBool::new(false));
    unstarted(&mut sim, 0, &drops, &ran);
    match sim.run() {
        Err(SimError::ActorPanic { actor, message }) => {
            assert_eq!(actor, "sloppy");
            assert!(message.contains("last prepare_wait"), "{message}");
        }
        other => panic!("expected the misuse to be reported, got {other:?}"),
    }
    assert!(!ran.load(Ordering::SeqCst));
    assert_dropped_once(drops, &["sloppy", "unstarted"]);
}
