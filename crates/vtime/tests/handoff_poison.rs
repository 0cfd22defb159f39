//! Poisoning in the handoff gap. The scheduler wakes actor threads only
//! after releasing its lock, so a poisoning — an actor panic, the event
//! limit, a deadlock — can land between a dispatcher's unlock and the wake
//! it recorded. Whatever the interleaving, every parked thread must be
//! woken and joined and `run()` must return the matching error; a lost or
//! downgraded wake shows as a hang, which the watchdog turns into a failure.

use std::sync::{mpsc, Once};
use std::time::Duration;

use impacc_vtime::{Sim, SimConfig, SimDur, SimError};

const ACTORS: usize = 64;
const STEPS: usize = 8;
const ITERATIONS: usize = 200;
/// Trips halfway through the storm.
const EVENT_LIMIT: u64 = (ACTORS * STEPS / 2) as u64;

#[derive(Clone, Copy, Debug)]
enum Fault {
    /// One actor panics mid-storm.
    Panic,
    /// The event limit trips mid-storm.
    EventLimit,
    /// Every actor blocks with nobody left to wake it.
    Deadlock,
}

/// A 64-actor tie storm (every advance is a handoff) that ends in `fault`.
fn storm(fault: Fault, parallelism: usize) -> Result<(), SimError> {
    let mut sim = Sim::with_config(SimConfig {
        stack_size: 64 * 1024,
        parallelism,
        lookahead: SimDur::from_ns(3),
        max_events: match fault {
            Fault::EventLimit => EVENT_LIMIT,
            _ => u64::MAX,
        },
        ..SimConfig::default()
    });
    for i in 0..ACTORS {
        sim.spawn(format!("storm{i}"), move |ctx| {
            for step in 0..STEPS {
                ctx.advance(SimDur::from_ns(1), "w");
                if matches!(fault, Fault::Panic) && i == 17 && step == STEPS / 2 {
                    panic!("boom");
                }
            }
            if matches!(fault, Fault::Deadlock) {
                let tok = ctx.prepare_wait();
                ctx.wait(tok, "never");
            }
        });
    }
    sim.run().map(|_| ())
}

/// Runs `ITERATIONS` storms per parallelism degree; the process dies if no
/// storm completes for 30 s.
fn storms_end_in(fault: Fault, matches: impl Fn(&SimError) -> bool) {
    // Thousands of expected actor panics: keep those, and only those, off
    // stderr (the hook is process-wide and the three tests run side by side).
    static QUIET_ACTORS: Once = Once::new();
    QUIET_ACTORS.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_actor = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("storm"));
            if !on_actor {
                default(info);
            }
        }));
    });
    let (beat, beats) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || loop {
        match beats.recv_timeout(Duration::from_secs(30)) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                eprintln!("handoff_poison: a {fault:?} storm hung for 30 s");
                std::process::abort();
            }
        }
    });
    for parallelism in [1, 4] {
        for i in 0..ITERATIONS {
            match storm(fault, parallelism) {
                Err(e) if matches(&e) => {}
                other => panic!("{fault:?} storm {i} at parallelism {parallelism}: got {other:?}"),
            }
            beat.send(()).expect("watchdog alive");
        }
    }
    drop(beat);
    watchdog.join().expect("watchdog");
}

#[test]
fn actor_panic_in_a_tie_storm_is_reported() {
    storms_end_in(
        Fault::Panic,
        |e| matches!(e, SimError::ActorPanic { actor, message } if actor == "storm17" && message == "boom"),
    );
}

#[test]
fn event_limit_in_a_tie_storm_is_reported() {
    storms_end_in(
        Fault::EventLimit,
        |e| matches!(e, SimError::EventLimit { limit } if *limit == EVENT_LIMIT),
    );
}

#[test]
fn deadlock_after_a_tie_storm_is_reported() {
    storms_end_in(
        Fault::Deadlock,
        |e| matches!(e, SimError::Deadlock { detail } if detail.contains("storm63")),
    );
}
