//! Engine speed sweep: wall-clock throughput of the DES scheduler itself.
//!
//! Not a paper figure — this tracks the *simulator's* performance from PR
//! to PR so the Titan-scale experiments (Figs 10/12/13, 8,192 tasks) stay
//! runnable. Two advance patterns bracket the serial scheduler's
//! behaviour:
//!
//! * **phased**: actor `i` first advances into its own disjoint time
//!   window, then runs its advance loop alone at the front of the event
//!   heap — every advance finds no earlier event, so the baton-handoff
//!   elision fast path removes nearly all park/unpark round-trips (this is
//!   the compute-loop shape of a real rank between MPI calls);
//! * **uniform** strides (everyone advances 1 ns): every advance ties with
//!   the rest of the fleet, FIFO ordering forces a real handoff each time,
//!   and elision never fires — the worst case, and the proof that the fast
//!   path is not taken when ordering matters.
//!
//! Each pattern runs with elision on and off over a fixed total event
//! budget, so the elide-on/elide-off wall-clock ratio is one headline.
//!
//! The **cores sweep** attacks the case elision cannot touch: uniform
//! lockstep on the conservative parallel engine (each actor its own
//! partition, a fixed lookahead horizon). Inside a window an actor
//! advances lock-free to the horizon, so the per-step park/unpark that
//! dominates serial lockstep collapses to one grant per partition per
//! window — that, not host core count, is where the speedup comes from,
//! and results stay bit-identical (`parallel_determinism`).

use std::sync::Arc;
use std::time::Instant;

use impacc_flight::FlightRecorder;
use impacc_vtime::{Sim, SimConfig, SimDur, SpanSink};

use crate::util::{ctx_switches, full, quick, report_extra, Table};

/// Horizon for conservative lockstep points: strides are 1 ns, so a
/// 256 ns lookahead lets every partition batch ~256 advances per window
/// grant instead of parking on each one.
fn lockstep_lookahead() -> SimDur {
    SimDur::from_ns(256)
}

/// One measured point of the sweep.
#[derive(Clone, Debug)]
pub struct SpeedPoint {
    /// Number of actors (OS threads).
    pub actors: usize,
    /// Advance pattern ("phased" or "uniform").
    pub pattern: &'static str,
    /// Was handoff elision enabled?
    pub elide: bool,
    /// Conservative scheduler workers (0 = legacy serial engine).
    pub workers: usize,
    /// Wall-clock of `Sim::run`, milliseconds.
    pub wall_ms: f64,
    /// Scheduler events (dispatches plus in-window fast advances; equal
    /// across engines for the same workload).
    pub events: u64,
    /// Handoffs elided (0 when disabled or when every advance ties).
    pub elided: u64,
    /// Grants issued in windows that released ≥2 partitions (0 on the
    /// serial engine).
    pub parallel_advances: u64,
    /// Partitions left waiting at a closing horizon with work still
    /// queued (0 on the serial engine).
    pub horizon_stalls: u64,
    /// OS context switches (voluntary + involuntary, whole process) while
    /// `Sim::run` ran.
    pub ctx_switches: u64,
}

impl SpeedPoint {
    /// Events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ms / 1e3)
    }

    /// Wall-clock nanoseconds per event. On a uniform row every event is a
    /// tie, so this is the price of one baton handoff.
    pub fn ns_per_event(&self) -> f64 {
        self.wall_ms * 1e6 / self.events as f64
    }

    /// OS context switches per event; a handoff costs at least one.
    pub fn ctx_switches_per_event(&self) -> f64 {
        self.ctx_switches as f64 / self.events as f64
    }
}

/// Run one configuration: `actors` threads each advancing `iters` times.
/// `workers` = 0 measures the legacy serial engine; > 0 the conservative
/// parallel engine with that many scheduler workers (each top-level actor
/// modelling one simulated node, i.e. its own partition).
pub fn measure(actors: usize, iters: u64, phased: bool, elide: bool, workers: usize) -> SpeedPoint {
    measure_sink(actors, iters, phased, elide, workers, None)
}

/// [`measure`] with an optional span sink attached — how the flight
/// overhead gate prices the always-on recorder against a bare engine.
pub fn measure_sink(
    actors: usize,
    iters: u64,
    phased: bool,
    elide: bool,
    workers: usize,
    sink: Option<Arc<dyn SpanSink>>,
) -> SpeedPoint {
    let mut sim = Sim::with_config(SimConfig {
        stack_size: 128 * 1024, // thousands of threads at the top end
        elide_handoff: elide,
        parallelism: workers,
        lookahead: if workers > 0 {
            lockstep_lookahead()
        } else {
            SimDur::ZERO
        },
        sink,
        ..SimConfig::default()
    });
    for i in 0..actors {
        // Phased: actor i jumps into its own time window [i*(iters+2), ..)
        // first, so its 1 ns advance loop never meets another actor's
        // event and the fast path can fire on every iteration.
        let offset = if phased { i as u64 * (iters + 2) } else { 0 };
        sim.spawn(format!("t{i}"), move |ctx| {
            if offset > 0 {
                ctx.advance(SimDur::from_ns(offset), "phase");
            }
            for _ in 0..iters {
                ctx.advance(SimDur::from_ns(1), "w");
            }
        });
    }
    let switches0 = ctx_switches();
    let t0 = Instant::now();
    let report = sim.run().expect("speed workload must not fail");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let switches = ctx_switches() - switches0;
    SpeedPoint {
        actors,
        pattern: if phased { "phased" } else { "uniform" },
        elide,
        workers,
        wall_ms,
        events: report.events,
        elided: report.handoffs_elided,
        parallel_advances: report.parallel_advances,
        horizon_stalls: report.horizon_stalls,
        ctx_switches: switches,
    }
}

/// Actor counts for the sweep (2 → 8,192; trimmed in quick mode, the
/// largest point gated behind `IMPACC_BENCH_FULL=1`).
pub fn actor_counts() -> Vec<usize> {
    if quick() {
        vec![2, 8, 32, 128]
    } else if full() {
        vec![2, 8, 32, 128, 512, 2048, 8192]
    } else {
        vec![2, 8, 32, 128, 512, 2048]
    }
}

/// Total scheduler events per measured point (shared across the fleet so
/// big-actor points don't take proportionally longer).
fn event_budget() -> u64 {
    if quick() {
        32_000
    } else {
        256_000
    }
}

/// Worker counts for the conservative cores sweep (0 = serial baseline).
pub fn worker_counts() -> Vec<usize> {
    vec![0, 1, 2, 4, 8]
}

/// Run the sweep; returns the rendered report.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("Engine speed: wall-clock throughput of the DES scheduler\n\n");
    let budget = event_budget();
    let mut t = Table::new(&[
        "actors",
        "pattern",
        "elide",
        "wall ms",
        "events/sec",
        "elided %",
        "tie ns/event",
        "ctx switches/event",
    ]);
    let mut headline: Vec<(usize, f64)> = Vec::new();
    for &actors in &actor_counts() {
        let iters = (budget / actors as u64).max(4);
        for phased in [true, false] {
            let mut pair = [0.0f64; 2];
            for elide in [true, false] {
                let p = measure(actors, iters, phased, elide, 0);
                pair[if elide { 0 } else { 1 }] = p.wall_ms;
                // The handoff ledger: only uniform rows tie on every event.
                let (tie_ns, switches) = if phased {
                    ("-".to_string(), "-".to_string())
                } else {
                    (
                        format!("{:.0}", p.ns_per_event()),
                        format!("{:.2}", p.ctx_switches_per_event()),
                    )
                };
                if !phased && elide {
                    // Overwritten row by row: the largest fleet's values
                    // are the ones published.
                    report_extra("tie_ns_per_event", p.ns_per_event());
                    report_extra("ctx_switches_per_event", p.ctx_switches_per_event());
                }
                t.row(vec![
                    p.actors.to_string(),
                    p.pattern.to_string(),
                    if p.elide { "on" } else { "off" }.to_string(),
                    format!("{:.2}", p.wall_ms),
                    format!("{:.0}", p.events_per_sec()),
                    format!("{:.1}", 100.0 * p.elided as f64 / p.events as f64),
                    tie_ns,
                    switches,
                ]);
            }
            if phased {
                headline.push((actors, pair[1] / pair[0]));
            }
        }
    }
    out.push_str(&t.render());
    out.push_str("\nphased elide-off/elide-on wall-clock ratio:\n");
    for (actors, ratio) in headline {
        out.push_str(&format!("  {actors:>5} actors: {ratio:.2}x\n"));
    }
    out.push_str(
        "\nphased actors run their advance loops alone at the heap front, so\n\
         elision skips the park/unpark round-trip on nearly every advance\n\
         (the compute-loop shape of a real rank); uniform strides tie on\n\
         every advance, forcing the slow path — elision never fires there,\n\
         preserving FIFO determinism. Their last two columns price that\n\
         slow path: wall-clock per tie, and OS context switches per tie\n\
         (getrusage, voluntary + involuntary; one unpark/park pair should\n\
         cost about one).\n",
    );
    out.push_str(&cores_sweep(budget));
    out
}

/// The conservative cores sweep on the tie-dominated lockstep workload —
/// the shape elision cannot accelerate — plus the elided-vs-parallel
/// attribution line for each workload family. Publishes the lockstep
/// serial/parallel throughputs as `BENCH_speed.json` extras for the CI
/// gate.
fn cores_sweep(budget: u64) -> String {
    let actors = *actor_counts().last().expect("non-empty");
    let iters = (budget / actors as u64).max(4);
    let mut out = format!(
        "\nconservative cores sweep: uniform lockstep, {actors} actors x {iters} steps\n\n"
    );
    let mut t = Table::new(&[
        "workers",
        "wall ms",
        "events/sec",
        "speedup",
        "elided",
        "par advances",
        "horizon stalls",
    ]);
    let mut serial_wall = 0.0f64;
    for &workers in &worker_counts() {
        let p = measure(actors, iters, false, true, workers);
        if workers == 0 {
            serial_wall = p.wall_ms;
            report_extra("lockstep_serial_events_per_sec", p.events_per_sec());
        }
        let speedup = serial_wall / p.wall_ms;
        if workers == 4 {
            report_extra("lockstep_par4_events_per_sec", p.events_per_sec());
            report_extra("lockstep_par4_speedup", speedup);
            report_extra("lockstep_par4_handoffs_elided", p.elided as f64);
            report_extra(
                "lockstep_par4_parallel_advances",
                p.parallel_advances as f64,
            );
            report_extra("lockstep_par4_horizon_stalls", p.horizon_stalls as f64);
        }
        t.row(vec![
            if p.workers == 0 {
                "serial".to_string()
            } else {
                p.workers.to_string()
            },
            format!("{:.2}", p.wall_ms),
            format!("{:.0}", p.events_per_sec()),
            format!("{speedup:.2}x"),
            p.elided.to_string(),
            p.parallel_advances.to_string(),
            p.horizon_stalls.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nattribution per workload: phased compute loops are carried by\n\
         serial handoff elision (table above; uniform ties keep it at 0\n\
         there). Tie-dominated lockstep is carried by the conservative\n\
         engine: one grant per partition per lookahead window, with the\n\
         in-window steps taken on the lock-free fast path — those land in\n\
         the same `elided` counter, nonzero here precisely because\n\
         windowing removed the cross-actor ties. `parallel advances`\n\
         (grants in windows releasing several partitions) attributes the\n\
         engine's concurrency; `horizon stalls` counts partitions parked\n\
         at a closing window with work still queued — the conservative\n\
         protocol's synchronization cost.\n",
    );
    out
}

/// The `bench_speed --smoke` CI gate: the 8,192-actor tie-dominated
/// lockstep spec — the workload PR 2's elision could not accelerate —
/// must not regress vs the serial engine, and must hit the tentpole's
/// ≥2x wall-clock speedup at 4 workers. Event totals must match exactly
/// (the parallel engine is a wall-clock optimization only). Panics
/// (nonzero exit) on any violation; prints the measurements.
pub fn smoke() -> String {
    let actors = 8192;
    let iters = (256_000u64 / actors as u64).max(4);
    let serial = measure(actors, iters, false, true, 0);
    let par = measure(actors, iters, false, true, 4);
    // The serial engine's total includes one final teardown dispatch the
    // windowed scheduler does not issue; the per-actor work counts match.
    assert!(
        serial.events.abs_diff(par.events) <= 1,
        "engines must agree on the event total (serial {}, parallel {})",
        serial.events,
        par.events
    );
    let speedup = serial.wall_ms / par.wall_ms;
    assert!(
        speedup >= 2.0,
        "conservative lockstep speedup gate: {actors} actors x {iters} steps \
         ran {speedup:.2}x vs serial (serial {:.1} ms, 4 workers {:.1} ms); \
         the tentpole requires >=2x",
        serial.wall_ms,
        par.wall_ms
    );
    // Flight-recorder overhead gate: the always-on per-actor ring must
    // price in at no more than IMPACC_FLIGHT_OVERHEAD_PCT (default 10%)
    // of wall clock on the recorder-hostile phased compute loop — the
    // cheapest-per-event shape, so the worst case for relative overhead.
    // Best-of-3 on both sides damps scheduler noise.
    let budget_pct: f64 = std::env::var("IMPACC_FLIGHT_OVERHEAD_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);
    let (fa, fi) = (128usize, 2_000u64);
    let best = |with_flight: bool| -> f64 {
        (0..3)
            .map(|_| {
                let sink = with_flight.then(|| FlightRecorder::new().sink());
                measure_sink(fa, fi, true, true, 0, sink).wall_ms
            })
            .fold(f64::INFINITY, f64::min)
    };
    let bare = best(false);
    let flight = best(true);
    let overhead_pct = 100.0 * (flight - bare) / bare;
    assert!(
        overhead_pct <= budget_pct,
        "flight overhead gate: recorder-on run took {flight:.2} ms vs {bare:.2} ms bare \
         (+{overhead_pct:.1}%); budget is {budget_pct:.0}%"
    );
    format!(
        "speed smoke: {actors}-actor lockstep serial {:.1} ms -> 4 workers {:.1} ms \
         ({speedup:.2}x, gate >=2x), events {} vs {}, \
         parallel advances {}, horizon stalls {}, elided {}\n\
         flight overhead: {fa} actors x {fi} phased steps bare {bare:.2} ms, \
         recorder-on {flight:.2} ms (+{overhead_pct:.1}%, budget {budget_pct:.0}%)\n",
        serial.wall_ms,
        par.wall_ms,
        serial.events,
        par.events,
        par.parallel_advances,
        par.horizon_stalls,
        par.elided
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phased_pattern_elides_and_uniform_does_not() {
        let phased = measure(4, 200, true, true, 0);
        assert!(
            phased.elided > 4 * 200 / 2,
            "disjoint windows must hit the fast path on most advances \
             (got {} of {})",
            phased.elided,
            phased.events
        );
        let uni = measure(4, 200, false, true, 0);
        assert_eq!(uni.elided, 0, "uniform ties must never elide");
        let off = measure(4, 200, true, false, 0);
        assert_eq!(off.elided, 0);
        assert_eq!(off.events, phased.events, "elision must not change events");
    }

    #[test]
    fn conservative_lockstep_matches_serial_events_and_advances_in_parallel() {
        let serial = measure(8, 300, false, true, 0);
        let par = measure(8, 300, false, true, 4);
        // Modulo the serial engine's single teardown dispatch.
        assert!(
            serial.events.abs_diff(par.events) <= 1,
            "parallel engine must not change the event total \
             (serial {}, parallel {})",
            serial.events,
            par.events
        );
        assert_eq!(serial.parallel_advances, 0);
        assert!(
            par.parallel_advances > 0,
            "independent lockstep partitions must overlap inside windows"
        );
    }
}
