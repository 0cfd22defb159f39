//! Engine fast-path determinism: baton-handoff elision, sharded metric
//! accounting, and zero-copy send buffers are wall-clock optimizations
//! only. Running the same workload with elision on and forced off must
//! produce bit-identical virtual-time observables — end time, event
//! counts, engine metrics, per-actor tag breakdowns, and the recorded
//! span stream.

use impacc_apps::{jacobi_task, JacobiParams};
use impacc_bench::specs::psg_tasks;
use impacc_core::{Launch, MpiOpts, RunSummary, RuntimeOptions};
use impacc_machine::KernelCost;
use impacc_obs::Recorder;

fn assert_bit_identical(on: &RunSummary, off: &RunSummary) {
    assert_eq!(
        off.report.handoffs_elided, 0,
        "forced-off run must not elide"
    );
    assert_eq!(on.report.end_time, off.report.end_time, "virtual end time");
    assert_eq!(on.report.events, off.report.events, "dispatch count");
    assert_eq!(on.report.metrics, off.report.metrics, "engine metrics");
    assert_eq!(
        on.report.actors, off.report.actors,
        "per-actor tag breakdown"
    );
}

/// Figure-13-sized Jacobi (timing-only, phys-capped like the figure runs):
/// the full stack — ranks, queue daemons, node handlers, MPI matching.
#[test]
fn jacobi_is_bit_identical_with_and_without_elision() {
    let run = |elide: bool| -> (RunSummary, Vec<impacc_obs::Span>) {
        let rec = Recorder::new();
        let p = JacobiParams {
            n: 512,
            iters: 10,
            verify: false,
        };
        let s = Launch::new(psg_tasks(4), RuntimeOptions::impacc())
            .phys_cap(4096)
            .elide_handoff(elide)
            .recorder(&rec)
            .run(move |tc| jacobi_task(tc, &p))
            .expect("jacobi run");
        (s, rec.spans())
    };
    let (on, spans_on) = run(true);
    let (off, spans_off) = run(false);
    assert!(
        on.report.handoffs_elided > 0,
        "a jacobi run should hit the fast path at least once"
    );
    assert_bit_identical(&on, &off);
    assert_eq!(spans_on, spans_off, "span streams must match exactly");
}

/// Figure-5-sized exchange: kernel → device send → device recv on the
/// unified activity queue, repeated; exercises the COW send-buffer path
/// under both elision settings.
#[test]
fn unified_queue_exchange_is_bit_identical_with_and_without_elision() {
    const N: usize = 1 << 12;
    let run = |elide: bool| -> (RunSummary, Vec<impacc_obs::Span>) {
        let rec = Recorder::new();
        let s = Launch::new(psg_tasks(2), RuntimeOptions::impacc())
            .phys_cap(4096)
            .elide_handoff(elide)
            .recorder(&rec)
            .run(move |tc| {
                let peer = 1 - tc.rank();
                let buf0 = tc.malloc_f64(N);
                let buf1 = tc.malloc_f64(N);
                tc.acc_create(&buf0);
                tc.acc_create(&buf1);
                let cost = KernelCost::new(10.0 * N as f64, 16.0 * N as f64);
                for i in 0..8 {
                    tc.acc_kernel(Some(1), cost, || {});
                    tc.mpi_send(&buf0, 0, buf0.len, peer, i, MpiOpts::device().on_queue(1));
                    tc.mpi_recv(&buf1, 0, buf1.len, peer, i, MpiOpts::device().on_queue(1));
                    tc.acc_wait(1);
                }
            })
            .expect("exchange run");
        (s, rec.spans())
    };
    let (on, spans_on) = run(true);
    let (off, spans_off) = run(false);
    assert_bit_identical(&on, &off);
    assert_eq!(spans_on, spans_off, "span streams must match exactly");
}

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
        lookahead: if parallelism > 0 {
            ns(20)
        } else {
            SimDur::ZERO
        },
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
        // more than a lookahead apart, so the read is ordered in both engines.
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

/// The handoff protocol is wall-clock machinery only: the mix's digest is
/// pinned to the values the condvar-based engine produced (captured on the
/// commit before the futex-word handoff), for the legacy baton engine and
/// for the conservative engine at 1, 2 and 8 workers.
#[test]
fn handoff_mix_digest_is_pinned() {
    const LEGACY: u64 = 0x5af6_1c9f_7569_9e97;
    const CONSERVATIVE: u64 = 0x10e3_0c8e_16ec_1839;
    for (parallelism, want) in [
        (0, LEGACY),
        (1, CONSERVATIVE),
        (2, CONSERVATIVE),
        (8, CONSERVATIVE),
    ] {
        let digest = report_digest(&handoff_mix(parallelism));
        assert_eq!(
            fnv1a(&digest),
            want,
            "parallelism {parallelism}: virtual-time observables moved ({:#018x}): {digest}",
            fnv1a(&digest)
        );
    }
}
