//! The four simulated-run workloads. Each function runs one repetition of
//! a fixed simulated problem through the layer's public entry point, with
//! `Launch`/`SimConfig` defaults only, and returns the run's deterministic
//! facts for the digest check.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use impacc_apps::{run_jacobi, JacobiParams};
use impacc_core::{Launch, MpiOpts, RuntimeOptions, TaskCtx};
use impacc_machine::presets;
use impacc_vtime::{Sim, SimConfig, SimDur, SimReport};

use crate::spec::Sizes;
use crate::trace::{SpanId, Tracer};

/// What a simulated run reports that must repeat bit-for-bit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimFacts {
    pub end_ps: u64,
    pub events: u64,
    pub elided: u64,
    pub parallel_advances: u64,
    pub horizon_stalls: u64,
    pub metrics: BTreeMap<String, u64>,
}

impl SimFacts {
    pub fn of(r: &SimReport) -> SimFacts {
        SimFacts {
            end_ps: r.end_time.0,
            events: r.events,
            elided: r.handoffs_elided,
            parallel_advances: r.parallel_advances,
            horizon_stalls: r.horizon_stalls,
            metrics: r.metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    /// Identity of a repetition: virtual end time, dispatch count and the
    /// sorted metrics map. Every repetition's digest must equal the
    /// warm-up's.
    pub fn digest(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!(
            "end_ps={} events={} {}",
            self.end_ps,
            self.events,
            metrics.join(" ")
        )
    }

    pub fn metric(&self, key: &str) -> u64 {
        self.metrics.get(key).copied().unwrap_or(0)
    }
}

/// 64 actors each advancing 1 ns 5,000 times: every advance ties with the
/// rest of the fleet, so every dispatch is a park/unpark pair.
pub fn lockstep(sz: &Sizes, tr: &Tracer, parent: SpanId) -> Result<SimFacts, String> {
    let build = tr.span("vtime.build", parent);
    let mut sim = Sim::with_config(SimConfig {
        stack_size: 128 * 1024,
        ..SimConfig::default()
    });
    let iters = sz.lockstep_iters;
    for i in 0..sz.lockstep_actors {
        sim.spawn(format!("t{i}"), move |ctx| {
            for _ in 0..iters {
                ctx.advance(SimDur::from_ns(1), "w");
            }
        });
    }
    drop(build);
    let _run = tr.span("vtime.run", parent);
    sim.run()
        .map(|r| SimFacts::of(&r))
        .map_err(|e| e.to_string())
}

/// Payload rank `rank` sends in `round`: eight f64s (64 B) that differ by
/// seed, sender and round, so a misrouted or stale message never matches.
fn storm_payload(seed: u64, rank: u32, round: u32) -> [f64; 8] {
    let base = (seed % 4096) as f64 * 65536.0 + rank as f64 * 8192.0 + round as f64;
    std::array::from_fn(|k| base + k as f64 * 0.125)
}

/// How `msg_storm` is launched; the defaults are the measured workload,
/// the variations feed the traced pass.
#[derive(Clone, Copy)]
pub struct StormOpts {
    pub rounds: u32,
    pub options: RuntimeOptions,
    /// Detach the always-on flight recorder (the `flight.overhead_pct` probe).
    pub flight_off: bool,
}

/// 8 ranks on 2 nodes × 4 GPUs, each doing `rounds` ring `mpi_sendrecv`s of
/// a 64 B host buffer and checking every payload received. Returns the
/// run's facts and the number of payload mismatches.
pub fn msg_storm(
    seed: u64,
    opts: StormOpts,
    tr: &Arc<Tracer>,
    parent: SpanId,
) -> Result<(SimFacts, u64), String> {
    let spec = {
        let _s = tr.span("machine.spec", parent);
        presets::test_cluster(2, 4)
    };
    let mut launch = Launch::new(spec, opts.options);
    if opts.flight_off {
        launch = launch.flight_off();
    }
    let mismatches = Arc::new(AtomicU64::new(0));
    let (bad, tracer, rounds) = (mismatches.clone(), tr.clone(), opts.rounds);
    let run = tr.span("core.launch_run", parent);
    let run_id = run.id();
    let summary = launch.run(move |tc: &TaskCtx| {
        let (me, n) = (tc.rank(), tc.size());
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        // Only rank 0's phases are spanned: one thread's timeline, no
        // cross-thread overlap to untangle.
        let phase = |name| (me == 0).then(|| tracer.span(name, run_id));
        let alloc = phase("rank0.alloc");
        let (sbuf, rbuf) = (tc.malloc(64), tc.malloc(64));
        drop(alloc);
        let exchange = phase("rank0.exchange");
        let mut wrong = 0u64;
        for round in 0..rounds {
            tc.host_view(&sbuf)
                .write_f64s(0, &storm_payload(seed, me, round));
            tc.mpi_sendrecv(&sbuf, right, &rbuf, left, 7, MpiOpts::host());
            let got = tc.host_view(&rbuf).read_f64s(0, 8);
            wrong += u64::from(got != storm_payload(seed, left, round));
        }
        drop(exchange);
        bad.fetch_add(wrong, Ordering::Relaxed);
    });
    drop(run);
    let summary = summary.map_err(|e| e.to_string())?;
    Ok((
        SimFacts::of(&summary.report),
        mismatches.load(Ordering::Relaxed),
    ))
}

/// Jacobi on PSG's 8 GPUs, `n=1024`, 100 sweeps, real f64 math, verified
/// against the serial oracle inside `run_jacobi` (a mismatch panics rank 0
/// and comes back as an error).
pub fn jacobi_real(
    sz: &Sizes,
    options: RuntimeOptions,
    tr: &Tracer,
    parent: SpanId,
) -> Result<SimFacts, String> {
    let spec = {
        let _s = tr.span("machine.spec", parent);
        presets::psg()
    };
    let _run = tr.span("apps.run_jacobi", parent);
    run_jacobi(
        spec,
        options,
        None,
        JacobiParams {
            n: sz.jacobi_n,
            iters: sz.jacobi_iters,
            verify: true,
        },
    )
    .map(|s| SimFacts::of(&s.report))
    .map_err(|e| e.to_string())
}

/// Jacobi on 512 Titan nodes with physical backing capped at 4 KiB per
/// allocation: ~1,500 OS threads, so thread spawn, stacks and a long ready
/// heap dominate.
pub fn fleet_scale(sz: &Sizes, tr: &Tracer, parent: SpanId) -> Result<SimFacts, String> {
    let spec = {
        let _s = tr.span("machine.spec", parent);
        presets::titan(sz.fleet_nodes)
    };
    let _run = tr.span("apps.run_jacobi", parent);
    run_jacobi(
        spec,
        RuntimeOptions::impacc(),
        Some(4096),
        JacobiParams {
            n: sz.fleet_n,
            iters: sz.fleet_iters,
            verify: false,
        },
    )
    .map(|s| SimFacts::of(&s.report))
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(end_ps: u64, events: u64, m: &[(&str, u64)]) -> SimFacts {
        SimFacts {
            end_ps,
            events,
            metrics: m.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            ..SimFacts::default()
        }
    }

    #[test]
    fn digest_ignores_insertion_order_and_wall_clock_fields() {
        let a = facts(10, 5, &[("HtoD", 1), ("DtoH", 2)]);
        let mut b = facts(10, 5, &[("DtoH", 2), ("HtoD", 1)]);
        // Elision counts are wall-clock scheduling outcomes, not results.
        b.elided = 99;
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_moves_with_every_result_field() {
        let base = facts(10, 5, &[("HtoD", 1)]);
        assert_ne!(base.digest(), facts(11, 5, &[("HtoD", 1)]).digest());
        assert_ne!(base.digest(), facts(10, 6, &[("HtoD", 1)]).digest());
        assert_ne!(base.digest(), facts(10, 5, &[("HtoD", 2)]).digest());
        assert_ne!(base.digest(), facts(10, 5, &[]).digest());
    }

    #[test]
    fn storm_payloads_differ_by_seed_sender_and_round() {
        let p = storm_payload(1, 2, 3);
        assert_ne!(p, storm_payload(2, 2, 3));
        assert_ne!(p, storm_payload(1, 3, 3));
        assert_ne!(p, storm_payload(1, 2, 4));
        assert_eq!(p, storm_payload(1, 2, 3));
    }
}
