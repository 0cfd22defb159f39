//! One workload in one process: set-up, timed repetitions, and — with
//! `--trace 1` — the traced pass and the probes. This is what the driver's
//! command runs, and what `run` re-executes once per workload so that
//! `peak_rss_mb` is per workload and workloads cannot warm each other.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use impacc_core::RuntimeOptions;
use impacc_serve::Serve;

use crate::json::Json;
use crate::probes::{self, Layer, Probes};
use crate::serve::{self, HotState, JobIds, ServeRep};
use crate::sim::{self, SimFacts, StormOpts};
use crate::spec::{self, Sizes, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, percentile, sorted};
use crate::sys::{self, Rusage, ThreadSampler};
use crate::trace::{self, Tracer, ROOT};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Fewest timed repetitions a full-size run reports a median over.
const MIN_REPS: usize = 3;
/// Hits the traced replay pushes through `Serve::submit` per job of the mix.
const REPLAY_HIT_PASSES: usize = 10;

pub struct OneArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One repetition at a tenth of the size.
    pub smoke: bool,
    /// Where `trace_<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// What one process reports: the driver's four keys plus `detail`, the
/// provenance and raw timings `run` folds into `result.json`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub detail: Json,
    /// Human-readable lines (share table, first error).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The last line of standard output, exactly as the contract words it.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        *name,
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str(unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
        .render()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Lockstep,
    MsgStorm,
    JacobiReal,
    FleetScale,
    ServeCold,
    ServeHot,
}

impl Kind {
    fn parse(name: &str) -> Result<Kind, String> {
        Ok(match name {
            "lockstep" => Kind::Lockstep,
            "msg_storm" => Kind::MsgStorm,
            "jacobi_real" => Kind::JacobiReal,
            "fleet_scale" => Kind::FleetScale,
            "serve_cold" => Kind::ServeCold,
            "serve_hot" => Kind::ServeHot,
            other => {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                return Err(format!(
                    "unknown workload {other:?} (one of {})",
                    known.join(", ")
                ));
            }
        })
    }

    /// The layers whose probes this workload's traced pass runs: the ones
    /// its share table multiplies out, and the ones README's table says
    /// should move it. Every probe has a home; none runs everywhere.
    fn probe_layers(self) -> &'static [Layer] {
        match self {
            Kind::Lockstep => &[Layer::Vtime],
            Kind::MsgStorm => &[Layer::Vtime, Layer::Core, Layer::Flight],
            Kind::JacobiReal => &[
                Layer::Vtime,
                Layer::Mem,
                Layer::Acc,
                Layer::Core,
                Layer::Coll,
                Layer::Apps,
            ],
            Kind::FleetScale => &[Layer::Vtime, Layer::Machine],
            Kind::ServeCold => &[Layer::Core, Layer::Coll, Layer::Array, Layer::Dsl],
            Kind::ServeHot => &[Layer::Dsl],
        }
    }
}

/// One repetition: an operation is the repetition itself (sim) or a job
/// (serve).
#[derive(Default)]
struct Rep {
    wall_s: f64,
    attempted: u64,
    failed: u64,
    error: Option<String>,
    facts: Option<SimFacts>,
    serve: Option<ServeRep>,
    allocs: u64,
    alloc_bytes: u64,
    usage: Rusage,
}

/// What set-up leaves behind for the repetitions.
enum State {
    Sim,
    Cold(Serve),
    Hot(HotState),
}

struct Runner {
    kind: Kind,
    sz: Sizes,
    seed: u64,
    state: State,
    /// The warm-up's digest; every sim repetition must reproduce it.
    reference: Option<String>,
    /// Keep each job's latency (the traced pass pools them). An end-to-end
    /// run drops them after every repetition so that `peak_rss_mb` is the
    /// program's memory, not the harness's sample vectors.
    keep_latencies: bool,
}

impl Runner {
    /// Input generation, `Serve::start` (and `serve_hot`'s one cold
    /// execution of its mix), then one untimed warm-up repetition. A
    /// failing warm-up fails the run: there is nothing to compare against.
    fn setup(
        kind: Kind,
        sz: Sizes,
        seed: u64,
        keep_latencies: bool,
        ids: &mut JobIds,
        off: &Arc<Tracer>,
    ) -> Result<Runner, String> {
        let state = match kind {
            Kind::ServeCold => State::Cold(serve::start_serve()),
            Kind::ServeHot => State::Hot(serve::hot_setup(ids, sz.serve_passes)?),
            _ => State::Sim,
        };
        let mut runner = Runner {
            kind,
            sz,
            seed,
            state,
            reference: None,
            keep_latencies,
        };
        let warm = runner.rep(ids, off, RuntimeOptions::impacc());
        if warm.failed != 0 {
            return Err(format!(
                "warm-up repetition failed: {}",
                warm.error.unwrap_or_default()
            ));
        }
        runner.reference = warm.facts.map(|f| f.digest());
        Ok(runner)
    }

    fn sim_once(
        &self,
        tr: &Arc<Tracer>,
        options: RuntimeOptions,
    ) -> Result<(SimFacts, u64), String> {
        match self.kind {
            Kind::Lockstep => sim::lockstep(&self.sz, tr, ROOT).map(|f| (f, 0)),
            Kind::MsgStorm => sim::msg_storm(
                self.seed,
                StormOpts {
                    rounds: self.sz.storm_rounds,
                    options,
                    flight_off: false,
                },
                tr,
                ROOT,
            ),
            Kind::JacobiReal => sim::jacobi_real(&self.sz, options, tr, ROOT).map(|f| (f, 0)),
            Kind::FleetScale => sim::fleet_scale(&self.sz, tr, ROOT).map(|f| (f, 0)),
            Kind::ServeCold | Kind::ServeHot => unreachable!("serve workloads run jobs"),
        }
    }

    /// One repetition. `options` is `impacc()` for everything measured;
    /// the traced pass also runs the baseline model once.
    fn rep(&mut self, ids: &mut JobIds, tr: &Arc<Tracer>, options: RuntimeOptions) -> Rep {
        let (allocs0, bytes0) = sys::alloc_totals();
        let usage0 = Rusage::now();
        let mut rep = Rep::default();
        match &self.state {
            State::Sim => {
                rep.attempted = 1;
                let t0 = Instant::now();
                let outcome = self.sim_once(tr, options);
                rep.wall_s = t0.elapsed().as_secs_f64();
                match outcome {
                    Ok((_, wrong)) if wrong > 0 => {
                        rep.error = Some(format!("{wrong} received payloads were wrong"));
                    }
                    Ok((facts, _)) => {
                        let moved = self.reference.as_ref().filter(|r| **r != facts.digest());
                        if let (Some(want), true) = (moved, options.is_impacc()) {
                            rep.error = Some(format!(
                                "digest differs from the warm-up's: {} vs {want}",
                                facts.digest()
                            ));
                        }
                        rep.facts = Some(facts);
                    }
                    Err(e) => rep.error = Some(e),
                }
                rep.failed = u64::from(rep.error.is_some());
            }
            State::Cold(serve) => match serve::cold_rep(serve, ids, self.sz.serve_passes) {
                Ok(s) => rep.take_serve(s),
                Err(e) => {
                    (rep.attempted, rep.failed, rep.error) = (1, 1, Some(e));
                }
            },
            State::Hot(hot) => rep.take_serve(serve::hot_rep(hot, self.sz.hot_resubmits)),
        }
        if let (Some(s), false) = (&mut rep.serve, self.keep_latencies) {
            s.latencies_ms = Vec::new();
        }
        let (allocs1, bytes1) = sys::alloc_totals();
        rep.allocs = allocs1 - allocs0;
        rep.alloc_bytes = bytes1 - bytes0;
        rep.usage = Rusage::now().since(&usage0);
        rep
    }

    /// Repetitions until `budget_s` has passed, and at least `min_reps`.
    /// Also returns the process's peak RSS as it stood after the first
    /// `min_reps` of them: how many more fit into the budget depends on the
    /// machine's speed that minute, and `serve_cold`'s cache grows with
    /// every repetition, so the peak is read after a fixed amount of work.
    fn reps(
        &mut self,
        ids: &mut JobIds,
        tr: &Arc<Tracer>,
        budget_s: f64,
        min_reps: usize,
    ) -> (Vec<Rep>, f64) {
        let t0 = Instant::now();
        let mut out = Vec::new();
        let mut peak_rss_mb = 0.0;
        while out.len() < min_reps || t0.elapsed().as_secs_f64() < budget_s {
            out.push(self.rep(ids, tr, RuntimeOptions::impacc()));
            if out.len() == min_reps {
                peak_rss_mb = sys::peak_rss_mb();
            }
        }
        (out, peak_rss_mb)
    }
}

impl Rep {
    fn take_serve(&mut self, s: ServeRep) {
        self.wall_s = s.wall_s;
        self.attempted = s.attempted;
        self.failed = s.failed;
        self.error = s.first_error.clone();
        self.serve = Some(s);
    }
}

fn walls(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.wall_s).collect()
}

pub fn run_one(
    a: &OneArgs,
    pinned_cpu: Option<usize>,
    stripped: &[String],
) -> Result<Outcome, String> {
    let kind = Kind::parse(&a.workload)?;
    let sz = if a.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let min_reps = if a.smoke { 1 } else { MIN_REPS };
    let budget_s = if a.smoke { 0.0 } else { a.seconds };
    let off = Arc::new(Tracer::new(false));
    let mut ids = JobIds::new(a.seed);

    let rounds = if a.trace || a.smoke { 1 } else { SETUP_ROUNDS };
    let mut setups = Vec::new();
    let mut runner = None;
    for _ in 0..rounds {
        drop(runner.take()); // joins the previous round's workers first
        let t0 = Instant::now();
        runner = Some(Runner::setup(kind, sz, a.seed, a.trace, &mut ids, &off)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut runner = runner.expect("at least one set-up round");

    let mut notes = Vec::new();
    let mut detail = vec![
        ("workload", Json::Str(a.workload.clone())),
        ("seed", Json::Num(a.seed as f64)),
        ("trace", Json::Bool(a.trace)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        (
            "stripped_env",
            Json::Arr(stripped.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
        ("setup_s", Json::nums(&setups)),
    ];

    let (reps, metrics) = if a.trace {
        // Sampled over the workload's own repetitions only: the probes
        // spawn fleets of their own.
        let sampler = ThreadSampler::start();
        let (reps, _) = runner.reps(&mut ids, &off, budget_s * 0.4, min_reps.min(2));
        let threads_peak = sampler.finish();
        let mut values = traced_pass(&mut runner, &mut ids, &reps, budget_s, a, &mut notes)?;
        values.push(("proc.threads_peak", threads_peak as f64));
        // The contract wants every per-layer metric on every workload; one
        // that does not apply to this workload reads 0.
        let metrics = PER_LAYER
            .iter()
            .map(|p| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == p.name)
                    .map_or(0.0, |v| v.1);
                (p.name, v, p.unit)
            })
            .collect();
        (reps, metrics)
    } else {
        let (reps, peak_rss_mb) = runner.reps(&mut ids, &off, budget_s, min_reps);
        let values = [median(&setups), median(&walls(&reps)), peak_rss_mb];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(e, v)| (e.name, v, e.unit))
            .collect();
        (reps, metrics)
    };
    drop(runner);

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    if let Some(e) = reps.iter().find_map(|r| r.error.as_ref()) {
        notes.push(format!("first failure: {e}"));
    }
    detail.push(("run_s", Json::nums(&walls(&reps))));
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        detail: Json::obj(detail),
        notes,
    })
}

/// Everything `--trace 1` adds after the untraced repetitions: traced
/// repetitions (sim) or the staged replay (serve), the baseline-model run,
/// the probes, the per-layer values and the share table.
fn traced_pass(
    runner: &mut Runner,
    ids: &mut JobIds,
    untraced: &[Rep],
    budget_s: f64,
    a: &OneArgs,
    notes: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let kind = runner.kind;
    let sz = runner.sz;
    let tr = Arc::new(Tracer::new(true));
    let off = Arc::new(Tracer::new(false));
    let run_s = median(&walls(untraced));
    // Exact counts come from the first repetition: its job seeds are the
    // same in every run of one `--seed`, however many repetitions fit.
    let first = untraced.first().expect("at least one untraced repetition");
    let mut v: Vec<(&'static str, f64)> = Vec::new();

    // Counts and cost proxies from the untraced repetitions.
    let med = |f: &dyn Fn(&Rep) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let allocs = med(&|r| r.allocs as f64);
    let events = match (&first.facts, &first.serve) {
        (Some(f), _) => f.events,
        (_, Some(s)) => s.events,
        _ => 0,
    } as f64;
    v.push(("vtime.events", events));
    v.push(("vtime.ns_per_event", per(run_s * 1e9, events)));
    v.push((
        "vtime.ctx_switches_per_event",
        per(med(&|r| r.usage.ctx_switches as f64), events),
    ));
    v.push(("alloc.count_per_event", per(allocs, events)));
    v.push((
        "alloc.bytes_per_event",
        per(med(&|r| r.alloc_bytes as f64), events),
    ));
    v.push(("proc.cpu_user_s", med(&|r| r.usage.user_s)));
    v.push(("proc.cpu_sys_s", med(&|r| r.usage.sys_s)));

    let mut msgs = 0.0;
    if let Some(f) = &first.facts {
        v.push(("vtime.elided_share", per(f.elided as f64, events)));
        v.push(("vtime.parallel_advances", f.parallel_advances as f64));
        v.push(("vtime.horizon_stalls", f.horizon_stalls as f64));
        for (name, key) in [
            ("mem.bytes_HtoD", "HtoD"),
            ("mem.bytes_DtoH", "DtoH"),
            ("mem.bytes_DtoD", "DtoD"),
            ("mem.bytes_HtoH", "HtoH"),
            ("mpi.bytes_sent", "mpi_bytes_sent"),
            ("core.fused_msgs", "fused_msgs"),
            ("coll.intra_bytes", "coll_intra_bytes"),
        ] {
            v.push((name, f.metric(key) as f64));
        }
        // The program keeps no message counter; msg_storm's own app code
        // sends exactly one message per rank per round.
        if kind == Kind::MsgStorm {
            msgs = 8.0 * sz.storm_rounds as f64;
        }
        v.push(("mpi.msgs", msgs));
        v.push(("mpi.us_per_msg", per(run_s * 1e6, msgs)));
        v.push(("core.virtual_end_us", f.end_ps as f64 / 1e6));
    }
    let mut jobs = 0.0;
    if let Some(s) = &first.serve {
        jobs = s.attempted as f64;
        let pooled: Vec<f64> = untraced
            .iter()
            .filter_map(|r| r.serve.as_ref())
            .flat_map(|s| s.latencies_ms.iter().copied())
            .collect();
        let pooled = sorted(&pooled);
        let rates: Vec<f64> = untraced
            .iter()
            .map(|r| (r.attempted - r.failed) as f64 / r.wall_s)
            .collect();
        v.push(("serve.jobs_per_s", median(&rates)));
        v.push(("serve.job_p50_ms", percentile(&pooled, 0.50)));
        v.push(("serve.job_p99_ms", percentile(&pooled, 0.99)));
        v.push(("serve.latency_samples", pooled.len() as f64));
        v.push(("serve.pending_peak", s.pending_peak as f64));
        v.push(("serve.backpressure_waits", s.backpressure_waits as f64));
        v.push(("serve.result_bytes", s.result_bytes as f64));
        v.push(("serve.cache_hit_rate", per(s.hits as f64, jobs)));
        v.push(("alloc.count_per_job", per(allocs, jobs)));
    }

    // The traced pass proper.
    let mut stage_us: Vec<(&'static str, f64)> = Vec::new();
    let overhead_pct;
    if spec::is_serve(&a.workload) {
        // `serve_cold` needs an engine holding a cached mix for the hit
        // part; `serve_hot` already has one.
        let own;
        let hot = match &runner.state {
            State::Hot(hot) => hot,
            _ => {
                own = serve::hot_setup(ids, 1)?;
                &own
            }
        };
        let hits = REPLAY_HIT_PASSES * hot.mix.len();
        let (cold_off, hit_off) = serve::replay(&off, ids, sz.serve_passes, hot, hits)?;
        let (cold_on, hit_on) = serve::replay(&tr, ids, sz.serve_passes, hot, hits)?;
        overhead_pct = (cold_on + hit_on - cold_off - hit_off) / (cold_off + hit_off) * 100.0;
        for (name, self_ns, count) in trace::self_by_name(&tr.spans()) {
            stage_us.push((name, self_ns as f64 / 1e3 / count as f64));
        }
        for (metric, span) in [
            ("serve.parse_us", "serve.parse"),
            ("serve.validate_us", "serve.validate"),
            ("serve.key_us", "serve.key"),
            ("serve.cache_get_us", "serve.cache_get"),
            ("serve.run_us", "serve.run"),
            ("serve.cache_put_us", "serve.cache_put"),
            ("serve.submit_hit_us", "serve.submit_hit"),
        ] {
            let us = stage_us
                .iter()
                .find(|(n, _)| *n == span)
                .map_or(0.0, |s| s.1);
            v.push((metric, us));
        }
    } else {
        let (traced, _) = runner.reps(ids, &tr, budget_s * 0.2, 1);
        if let Some(e) = traced.iter().find_map(|r| r.error.as_ref()) {
            return Err(format!("traced repetition failed: {e}"));
        }
        overhead_pct = (median(&walls(&traced)) - run_s) / run_s * 100.0;
        // Model output: the same problem under the legacy MPI+OpenACC
        // baseline, once.
        if matches!(kind, Kind::MsgStorm | Kind::JacobiReal) {
            let _s = tr.span("baseline_model_run", ROOT);
            let base = runner.rep(ids, &off, RuntimeOptions::baseline());
            let (Some(b), Some(f)) = (&base.facts, &first.facts) else {
                return Err(format!(
                    "baseline-model run failed: {}",
                    base.error.unwrap_or_default()
                ));
            };
            v.push((
                "core.virtual_speedup_vs_baseline",
                b.end_ps as f64 / f.end_ps as f64,
            ));
        }
    }
    v.push(("trace.overhead_pct", overhead_pct));

    let probes = probes::run(kind.probe_layers(), &sz, &tr)?;
    v.extend(probes.iter().copied());

    // Share table: unit cost x exact count / run_s, remainder unexplained.
    let shares = share_table(kind, &sz, run_s, events, jobs, first, &probes, &stage_us);
    notes.push(format!("share of run_s ({run_s:.3} s) by layer:"));
    let mut json_shares = Vec::new();
    for (metric, label, pct) in &shares {
        notes.push(format!("  {label:<34} {pct:6.1} %"));
        v.push((metric, *pct));
        json_shares.push((label.to_string(), *pct));
    }
    notes.push("self time by span:".to_string());
    for (name, self_ns, count) in trace::self_by_name(&tr.spans()) {
        notes.push(format!(
            "  {name:<34} {:10.3} ms over {count} spans",
            self_ns as f64 / 1e6
        ));
    }

    std::fs::create_dir_all(&a.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", a.out_dir.display()))?;
    let path = a.out_dir.join(format!("trace_{}.json", a.workload));
    std::fs::write(
        &path,
        trace::to_json(&a.workload, &tr.spans(), &json_shares).pretty(),
    )
    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(v)
}

/// `(per-layer metric, printed label, percent of run_s)` rows; the last is
/// the unexplained remainder. Each row is a probe's unit cost times a count
/// the run reports exactly.
#[allow(clippy::too_many_arguments)]
fn share_table(
    kind: Kind,
    sz: &Sizes,
    run_s: f64,
    events: f64,
    jobs: f64,
    first: &Rep,
    probes: &Probes,
    stage_us: &[(&'static str, f64)],
) -> Vec<(&'static str, String, f64)> {
    let probe = |name: &str| probes.iter().find(|(n, _)| *n == name).map_or(0.0, |p| p.1);
    let stage = |name: &str| {
        stage_us
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |s| s.1)
    };
    let pct = |secs: f64| secs / run_s * 100.0;
    let dispatch_s = events * probe("vtime.tie_ns_per_event") * 1e-9;
    let spawn_s = |actors: f64| actors * probe("vtime.spawn_us_per_actor") * 1e-6;
    let mut rows: Vec<(&'static str, String, f64)> = Vec::new();
    let mut row =
        |metric, label: &str, secs: f64| rows.push((metric, label.to_string(), pct(secs)));
    match kind {
        Kind::Lockstep => {
            row(
                "share.vtime_pct",
                "vtime: spawn + tie dispatches",
                spawn_s(sz.lockstep_actors as f64) + dispatch_s,
            );
        }
        Kind::MsgStorm => {
            let fused = first.facts.as_ref().map_or(0, |f| f.metric("fused_msgs")) as f64;
            row("share.vtime_pct", "vtime: dispatches", dispatch_s);
            row(
                "share.core_pct",
                "core: launch + handler mpsc hops",
                probe("core.launch_empty_us") * 1e-6 + fused * probe("core.mpsc_hop_ns") * 1e-9,
            );
            row(
                "share.flight_pct",
                "flight: always-on recorder",
                run_s * probe("flight.overhead_pct").max(0.0) / 100.0,
            );
        }
        Kind::JacobiReal => {
            let f = first.facts.as_ref();
            let copied: u64 = ["HtoD", "DtoH", "DtoD", "HtoH"]
                .iter()
                .map(|k| f.map_or(0, |f| f.metric(k)))
                .sum();
            row("share.vtime_pct", "vtime: dispatches", dispatch_s);
            row(
                "share.mem_pct",
                "mem: bytes copied",
                copied as f64 / (probe("mem.backing_copy_gbps") * 1e9),
            );
            row(
                "share.core_pct",
                "core: launch",
                probe("core.launch_empty_us") * 1e-6,
            );
            // The sweeps run twice: once distributed, once by the oracle.
            row(
                "share.apps_pct",
                "apps: stencil math, run + oracle",
                2.0 * sz.jacobi_iters as f64 * probe("apps.jacobi_sweep_ms") * 1e-3,
            );
        }
        Kind::FleetScale => {
            // One task, one handler and one delivery daemon per node.
            row(
                "share.vtime_pct",
                "vtime: spawn + dispatches",
                spawn_s(3.0 * sz.fleet_nodes as f64) + dispatch_s,
            );
            row(
                "share.machine_pct",
                "machine: cluster build",
                probe("machine.build_us") * 1e-6,
            );
        }
        Kind::ServeCold => {
            let front: f64 = ["parse", "validate", "key", "cache_get", "cache_put"]
                .iter()
                .map(|s| stage(&format!("serve.{s}")))
                .sum();
            row(
                "share.serve_front_pct",
                "serve: parse+validate+key+cache",
                jobs * front * 1e-6,
            );
            row(
                "share.serve_run_pct",
                "serve: run_job (all layers below)",
                jobs * stage("serve.run") * 1e-6,
            );
        }
        Kind::ServeHot => {
            row(
                "share.serve_front_pct",
                "serve: parse + submit on a hit",
                jobs * (stage("serve.parse") + stage("serve.submit_hit")) * 1e-6,
            );
        }
    }
    let explained: f64 = rows.iter().map(|r| r.2).sum();
    rows.push((
        "trace.unexplained_pct",
        "unexplained".to_string(),
        100.0 - explained,
    ));
    rows
}
