//! The benchmark's contract in one place: workload names, metric names,
//! units, directions and bounds. `BENCHMARK.json` is generated from these
//! tables (`impacc-benchmark spec`) and a unit test holds the two equal.

use crate::json::Json;

/// One workload: its name and the one line on why it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "lockstep",
        why: "64 actors x 5000 one-ns advances that all tie: every dispatch is a park/unpark pair, so only the vtime engine runs",
    },
    WorkloadDef {
        name: "msg_storm",
        why: "8 ranks x 4000 ring sendrecvs of 64 B, each payload checked: mpi matching, the core handler hop and fusion at their most work per byte",
    },
    WorkloadDef {
        name: "jacobi_real",
        why: "the paper's Jacobi on 8 PSG GPUs with real f64 math and bytes, verified against the serial oracle: a mem/acc change shows here only",
    },
    WorkloadDef {
        name: "fleet_scale",
        why: "Jacobi on 512 Titan nodes, about 1500 OS threads: thread spawn, stacks and a long ready heap; the Titan-scale shape of the paper's figures",
    },
    WorkloadDef {
        name: "serve_cold",
        why: "the shipped campaigns' 44 fault-free points, 88 distinct jobs per repetition submitted as the spool daemon does, 0 % cache hits: the whole stack behind a full serve queue",
    },
    WorkloadDef {
        name: "serve_hot",
        why: "the same 88-job mix resubmitted 450x per repetition, 100 % hits checked byte for byte: serve's parse, key and cache path with zero engine work",
    },
];

/// Problem sizes, calibrated once so that a repetition lasts 1-2.5 s at the
/// seed commit and then frozen; `smoke()` is a tenth of `full()`.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub lockstep_actors: usize,
    pub lockstep_iters: u64,
    pub storm_rounds: u32,
    pub jacobi_n: usize,
    pub jacobi_iters: usize,
    pub fleet_nodes: usize,
    pub fleet_n: usize,
    pub fleet_iters: usize,
    /// Passes over the 44-job campaign mix in one serve mix.
    pub serve_passes: usize,
    /// Times `serve_hot` resubmits the mix per repetition.
    pub hot_resubmits: usize,
    /// Divisor applied to every probe's iteration count.
    pub probe_div: u64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            lockstep_actors: 64,
            lockstep_iters: 5000,
            storm_rounds: 4000,
            jacobi_n: 1024,
            jacobi_iters: 100,
            fleet_nodes: 512,
            fleet_n: 4096,
            fleet_iters: 4,
            serve_passes: 2,
            hot_resubmits: 450,
            probe_div: 1,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            lockstep_iters: 500,
            storm_rounds: 400,
            jacobi_iters: 10,
            fleet_nodes: 51,
            serve_passes: 1,
            hot_resubmits: 45,
            probe_div: 10,
            ..Sizes::full()
        }
    }
}

pub fn is_serve(workload: &str) -> bool {
    workload.starts_with("serve_")
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may get worse. The timing
/// bounds are as wide as the contract allows because this shared 2-core
/// box is: with everything pinned, whole minutes run 20-40 % slower than
/// the next (README, "Noise"), so a tighter bound would reject a PR for
/// the hour it was measured in. A claimed gain, and a regression smaller
/// than the bound, is shown by alternating pairs of runs (`compare`).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
];

/// Where a per-layer metric must repeat bit-for-bit between runs of one
/// commit and one `--seed`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Exact {
    /// A measurement: nowhere.
    No,
    /// A count the program makes: on every workload.
    Everywhere,
    /// A count of the whole process (the allocator's): only where the baton
    /// engine runs one actor thread at a time. `fleet_scale`'s 1,500
    /// threads start and end concurrently and the serve workers run two
    /// jobs at once, and there the count moves in its seventh and third
    /// digit.
    OneThreadAtATime,
}

/// A per-layer metric.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub exact: Exact,
}

impl PerLayer {
    pub fn exact_on(&self, workload: &str) -> bool {
        match self.exact {
            Exact::No => false,
            Exact::Everywhere => true,
            Exact::OneThreadAtATime => ["lockstep", "msg_storm", "jacobi_real"].contains(&workload),
        }
    }
}

const fn per_layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    exact: Exact,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact,
    }
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    per_layer(name, unit, better, Exact::No)
}

const fn x(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    per_layer(name, unit, better, Exact::Everywhere)
}

pub const PER_LAYER: [PerLayer; 64] = [
    // vtime: the engine, per workload and as isolated probes
    x("vtime.events", "count", "lower"),
    m("vtime.ns_per_event", "ns", "lower"),
    x("vtime.elided_share", "ratio", "higher"),
    m("vtime.parallel_advances", "count", "higher"),
    x("vtime.horizon_stalls", "count", "lower"),
    m("vtime.ctx_switches_per_event", "count", "lower"),
    m("vtime.phased_ns_per_event", "ns", "lower"),
    m("vtime.tie_ns_per_event", "ns", "lower"),
    m("vtime.spawn_us_per_actor", "us", "lower"),
    // machine / mem / acc
    m("machine.build_us", "us", "lower"),
    m("mem.present_lookup_ns", "ns", "lower"),
    m("mem.backing_copy_gbps", "GB/s", "higher"),
    m("mem.snapshot_ns", "ns", "lower"),
    x("mem.bytes_HtoD", "bytes", "lower"),
    x("mem.bytes_DtoH", "bytes", "lower"),
    x("mem.bytes_DtoD", "bytes", "lower"),
    x("mem.bytes_HtoH", "bytes", "lower"),
    m("acc.kernel_us", "us", "lower"),
    // mpi / core / coll
    x("mpi.msgs", "count", "lower"),
    x("mpi.bytes_sent", "bytes", "lower"),
    m("mpi.us_per_msg", "us", "lower"),
    x("core.fused_msgs", "count", "higher"),
    m("core.launch_empty_us", "us", "lower"),
    m("core.mpsc_hop_ns", "ns", "lower"),
    m("coll.allreduce_us", "us", "lower"),
    x("coll.intra_bytes", "bytes", "lower"),
    // array / dsl / apps
    m("array.infer_us", "us", "lower"),
    m("dsl.compile_us", "us", "lower"),
    x("dsl.plan_ops", "count", "lower"),
    m("apps.jacobi_sweep_ms", "ms", "lower"),
    // serve: what the client saw, then the traced replay's stages
    m("serve.jobs_per_s", "1/s", "higher"),
    m("serve.job_p50_ms", "ms", "lower"),
    m("serve.job_p99_ms", "ms", "lower"),
    m("serve.latency_samples", "count", "higher"),
    m("serve.pending_peak", "count", "higher"),
    m("serve.backpressure_waits", "count", "lower"),
    m("serve.parse_us", "us", "lower"),
    m("serve.validate_us", "us", "lower"),
    m("serve.key_us", "us", "lower"),
    m("serve.cache_get_us", "us", "lower"),
    m("serve.run_us", "us", "lower"),
    m("serve.cache_put_us", "us", "lower"),
    m("serve.submit_hit_us", "us", "lower"),
    x("serve.result_bytes", "bytes", "lower"),
    x("serve.cache_hit_rate", "ratio", "higher"),
    // flight
    m("flight.overhead_pct", "%", "lower"),
    // noise-free cost proxies
    per_layer(
        "alloc.count_per_event",
        "count",
        "lower",
        Exact::OneThreadAtATime,
    ),
    per_layer(
        "alloc.bytes_per_event",
        "bytes",
        "lower",
        Exact::OneThreadAtATime,
    ),
    m("alloc.count_per_job", "count", "lower"),
    m("proc.cpu_user_s", "s", "lower"),
    m("proc.cpu_sys_s", "s", "lower"),
    m("proc.threads_peak", "count", "lower"),
    // model output: a wall-clock-only change must leave these identical
    x("core.virtual_end_us", "us", "lower"),
    x("core.virtual_speedup_vs_baseline", "ratio", "higher"),
    // the traced pass itself, and its share table (percent of run_s)
    m("trace.overhead_pct", "%", "lower"),
    m("trace.unexplained_pct", "%", "lower"),
    m("share.vtime_pct", "%", "lower"),
    m("share.machine_pct", "%", "lower"),
    m("share.mem_pct", "%", "lower"),
    m("share.core_pct", "%", "lower"),
    m("share.apps_pct", "%", "lower"),
    m("share.flight_pct", "%", "lower"),
    m("share.serve_front_pct", "%", "lower"),
    m("share.serve_run_pct", "%", "lower"),
];

/// Seconds one run measures (`run_seconds`): with repetitions of 1-2 s the
/// median is over five to nine of them, and the driver's 136 runs (each
/// also setting up three times) still fit its time cap.
pub const RUN_SECONDS: u64 = 10;

/// The `BENCHMARK.json` these tables describe.
pub fn benchmark_json() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str(s.to_string())).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("name", Json::Str(e.name.into())),
                            ("unit", Json::Str(e.unit.into())),
                            ("better", Json::Str(e.better.into())),
                            ("bound", Json::Num(e.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("name", Json::Str(p.name.into())),
                            ("unit", Json::Str(p.unit.into())),
                            ("better", Json::Str(p.better.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            Json::parse(&text).expect("BENCHMARK.json parses") == benchmark_json(),
            "regenerate with `impacc-benchmark spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|e| e.name));
        names.extend(PER_LAYER.iter().map(|p| p.name));
        assert!(names.iter().all(|n| name_ok(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        assert!(END_TO_END
            .iter()
            .all(|e| unit_ok(e.unit) && e.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|p| unit_ok(p.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(benchmark_json().pretty().len() <= 64 * 1024);
    }
}
