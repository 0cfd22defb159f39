//! The engine's grant protocol is wall-clock machinery only: a
//! handoff-heavy mix run straight on `impacc_vtime` keeps every
//! virtual-time observable — end time, event and fast-path counts, engine
//! metrics, per-actor tag breakdowns — at a pinned constant, for 1, 2 and 8
//! workers. (The full-stack programs are held byte-identical across worker
//! counts, spans and PROF json included, by `parallel_determinism.rs`.)

/// A handoff-heavy engine mix, run straight on `impacc_vtime`: ties on
/// every advance, `wait`/`wake` pairs, `wait_deadline` timers that fire
/// and timers that go stale, cross-partition `wake_at`, mid-run spawns
/// and daemons swept at shutdown — every path that parks and unparks an
/// actor thread. Four partitions, each running the same cast.
fn handoff_mix(parallelism: usize) -> impacc_vtime::SimReport {
    use impacc_vtime::{Sim, SimConfig, SimDur, SimTime, WaitToken, WakeReason};
    use std::sync::{Arc, Mutex};

    type Cell = Arc<Mutex<Option<WaitToken>>>;
    const PARTS: u32 = 4;
    let ns = SimDur::from_ns;
    let mut sim = Sim::with_config(SimConfig {
        parallelism,
        lookahead: ns(20),
        ..SimConfig::default()
    });
    let cross: Vec<Cell> = (0..PARTS).map(|_| Cell::default()).collect();
    for p in 0..PARTS {
        // Two tie-ing workers; the first also spawns mid-run.
        sim.spawn_on(p, format!("tie{p}a"), move |ctx| {
            for i in 0..200 {
                ctx.advance(ns(1), "tie");
                if i == 50 {
                    ctx.spawn(format!("child{p}"), move |c| {
                        for _ in 0..40 {
                            c.advance(ns(2), "child");
                        }
                    });
                }
                if i == 100 {
                    ctx.spawn_daemon(format!("late_d{p}"), |c| {
                        let tok = c.prepare_wait();
                        assert_eq!(c.wait(tok, "late_idle"), WakeReason::Shutdown);
                    });
                }
            }
            if p == 0 {
                // Alone past every other event: these advances elide.
                ctx.advance_until(SimTime::ZERO + ns(2000), "tail");
                for _ in 0..10 {
                    ctx.advance(ns(1), "tail");
                }
            }
        });
        sim.spawn_on(p, format!("tie{p}b"), move |ctx| {
            for _ in 0..200 {
                ctx.advance(ns(1), "tie");
            }
        });
        // wait/wake: pong resumes ping every 3 ns.
        let cell = Cell::default();
        let (c1, c2) = (cell.clone(), cell);
        sim.spawn_on(p, format!("ping{p}"), move |ctx| {
            for _ in 0..30 {
                let tok = ctx.prepare_wait();
                *c1.lock().unwrap() = Some(tok);
                assert_eq!(ctx.wait(tok, "ping_wait"), WakeReason::Signaled);
            }
        });
        sim.spawn_on(p, format!("pong{p}"), move |ctx| {
            for _ in 0..30 {
                ctx.advance(ns(3), "pong_work");
                if let Some(tok) = c2.lock().unwrap().take() {
                    if ctx.wake(tok) {
                        ctx.metrics().inc("pong_wakes");
                    }
                }
            }
        });
        // Deadline timers that fire: nobody wakes this actor.
        sim.spawn_on(p, format!("timer{p}"), move |ctx| {
            for _ in 0..20 {
                let tok = ctx.prepare_wait();
                let deadline = ctx.now() + ns(7);
                ctx.wait_deadline(tok, deadline, "timer_fire");
                assert_eq!(ctx.now(), deadline);
                ctx.metrics().inc("timers_fired");
            }
        });
        // Deadline timers that go stale: woken long before the deadline.
        let cell = Cell::default();
        let (c1, c2) = (cell.clone(), cell);
        sim.spawn_on(p, format!("stale{p}"), move |ctx| {
            for _ in 0..20 {
                let tok = ctx.prepare_wait();
                *c1.lock().unwrap() = Some(tok);
                let deadline = ctx.now() + ns(1000);
                ctx.wait_deadline(tok, deadline, "stale_wait");
                assert!(ctx.now() < deadline);
            }
        });
        sim.spawn_on(p, format!("kick{p}"), move |ctx| {
            for _ in 0..20 {
                ctx.advance(ns(5), "kick_work");
                if let Some(tok) = c2.lock().unwrap().take() {
                    if ctx.wake(tok) {
                        ctx.metrics().inc("timers_stale");
                    }
                }
            }
        });
        // Cross-partition wake_at: published at 0 ns, read at 500 ns — far
        // more than a lookahead apart, so the read is ordered.
        let mine = cross[p as usize].clone();
        sim.spawn_on(p, format!("xwait{p}"), move |ctx| {
            let tok = ctx.prepare_wait();
            *mine.lock().unwrap() = Some(tok);
            assert_eq!(ctx.wait(tok, "xwait"), WakeReason::Signaled);
            assert_eq!(ctx.now(), SimTime::ZERO + ns(600));
        });
        let theirs = cross[((p + 1) % PARTS) as usize].clone();
        sim.spawn_on(p, format!("xkick{p}"), move |ctx| {
            ctx.advance(ns(500), "xkick_sleep");
            let tok = theirs.lock().unwrap().take().expect("published at 0 ns");
            assert!(ctx.wake_at(tok, SimTime::ZERO + ns(600)));
        });
        // A daemon blocked from the start, swept at shutdown.
        sim.spawn_daemon_on(p, format!("svc{p}"), |ctx| loop {
            let tok = ctx.prepare_wait();
            if ctx.wait(tok, "svc_idle") == WakeReason::Shutdown {
                return;
            }
        });
    }
    sim.run().expect("handoff mix")
}

/// Every virtual-time observable of a report, as one line of text.
fn report_digest(r: &impacc_vtime::SimReport) -> String {
    let mut actors: Vec<String> = r
        .actors
        .iter()
        .map(|a| format!("{}:{:?}", a.name, a.tags))
        .collect();
    actors.sort();
    format!(
        "end={} events={} elided={} metrics={:?} actors=[{}]",
        r.end_time.0,
        r.events,
        r.handoffs_elided,
        r.metrics,
        actors.join(" ")
    )
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The mix's digest is pinned to the value the condvar-based engine
/// produced (captured on the commit before the futex-word handoff), at 1,
/// 2 and 8 workers.
#[test]
fn handoff_mix_digest_is_pinned() {
    const CONSERVATIVE: u64 = 0x10e3_0c8e_16ec_1839;
    for parallelism in [1, 2, 8] {
        let digest = report_digest(&handoff_mix(parallelism));
        assert_eq!(
            fnv1a(&digest),
            CONSERVATIVE,
            "parallelism {parallelism}: virtual-time observables moved ({:#018x}): {digest}",
            fnv1a(&digest)
        );
    }
}
