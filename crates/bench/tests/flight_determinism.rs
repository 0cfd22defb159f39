//! Flight-recorder determinism and non-interference.
//!
//! Three contracts from the observability tentpole:
//!
//! * **Dump determinism** — a flight dump is a pure function of the
//!   workload and trigger: the same run under `parallelism(1)` and
//!   `parallelism(4)` must serialize byte-identical `FLIGHT_*.json`
//!   bodies, because per-actor rings preserve each actor's program-order
//!   emission and the snapshot is actor-sorted.
//! * **The window is a view** — the dump read out of a full trace store
//!   is byte-identical to the one a window store holds after the same
//!   run, so a traced run records each span once.
//! * **Golden traces untouched** — attaching the always-on recorder must
//!   not move a single byte of the existing observability artifacts:
//!   chrome trace, `PROF_*.json` payload, end time, event count, or
//!   engine metrics of a healthy (non-anomalous) run.
//! * **A run is dumped on what went wrong** — through the one function
//!   that picks a finished run's trigger (`FlightRecorder::dump_run`).

use impacc_apps::exchange;
use impacc_bench::specs::titan_tasks;
use impacc_core::{Launch, MpiOpts, RunSummary, RuntimeOptions};
use impacc_flight::{FlightRecorder, Trigger, Watchdog};
use impacc_machine::{presets, FaultPlan, KernelCost, MachineSpec};
use impacc_obs::{chrome, Recorder};

const N: usize = 1 << 12;

/// The cross-node unified-queue exchange from `parallel_determinism`,
/// with a flight recorder riding along.
fn run_exchange(degree: usize, fr: Option<&FlightRecorder>, rec: Option<&Recorder>) -> RunSummary {
    let mut l = Launch::new(titan_tasks(2), RuntimeOptions::impacc())
        .phys_cap(4096)
        .parallelism(degree);
    l = match fr {
        Some(fr) => l.flight(fr).flight_label("flight_det"),
        None => l.flight_off(),
    };
    if let Some(rec) = rec {
        l = l.recorder(rec);
    }
    l.run_async(move |tc| async move {
        let peer = 1 - tc.rank();
        let buf0 = tc.malloc_f64(N).await;
        let buf1 = tc.malloc_f64(N).await;
        tc.acc_create(&buf0);
        tc.acc_create(&buf1);
        let cost = KernelCost::new(10.0 * N as f64, 16.0 * N as f64);
        for i in 0..8 {
            tc.acc_kernel(Some(1), cost, || {}).await;
            tc.mpi_send(&buf0, 0, buf0.len, peer, i, MpiOpts::device().on_queue(1))
                .await;
            tc.mpi_recv(&buf1, 0, buf1.len, peer, i, MpiOpts::device().on_queue(1))
                .await;
            tc.acc_wait(1).await;
        }
    })
    .expect("exchange run")
}

fn dump_bytes(degree: usize) -> String {
    dump_bytes_on(degree, &FlightRecorder::new())
}

fn dump_bytes_on(degree: usize, fr: &FlightRecorder) -> String {
    let s = run_exchange(degree, Some(fr), None);
    fr.dump(
        "flight_det",
        Trigger::Request,
        s.report.metrics.iter().map(|(k, v)| (*k, *v)),
        &[],
    )
    .to_json()
}

#[test]
fn flight_dump_is_bit_identical_across_parallelism() {
    let serial = dump_bytes(1);
    assert!(
        serial.contains("\"schema_version\""),
        "dumps are schema-versioned"
    );
    assert!(
        serial.contains("\"traceEvents\""),
        "dumps embed a chrome trace body"
    );
    let parallel = dump_bytes(4);
    assert_eq!(
        serial, parallel,
        "flight dump bytes must not depend on the scheduler's parallelism degree"
    );
    // And re-running at the same degree reproduces the bytes exactly.
    assert_eq!(serial, dump_bytes(1), "dump bytes must be reproducible");
}

#[test]
fn the_window_of_a_trace_store_dumps_what_a_window_store_dumps() {
    for degree in [1, 4] {
        let rec = Recorder::new();
        let view = dump_bytes_on(degree, &FlightRecorder::view_of(&rec));
        assert_eq!(
            dump_bytes(degree),
            view,
            "flight dump bytes must not depend on the store's retention @ p={degree}"
        );
        assert!(
            !rec.edges().is_empty() && rec.spans().iter().any(|s| s.attr("bytes").is_some()),
            "the store itself kept the whole trace"
        );
    }
}

#[test]
fn always_on_recorder_leaves_golden_observables_untouched() {
    let observe = |flight: bool| {
        let rec = Recorder::new();
        // Two handles onto one store: a launch records each span once.
        let fr = flight.then(|| FlightRecorder::view_of(&rec));
        let s = run_exchange(1, fr.as_ref(), Some(&rec));
        let spans = rec.spans();
        let chrome = impacc_obs::chrome::trace(&spans);
        let prof = impacc_prof::analyze(&spans, &rec.edges()).to_json("flight_det");
        (s, chrome, prof, fr)
    };
    let (base_s, base_chrome, base_prof, _) = observe(false);
    let (s, chrome, prof, fr) = observe(true);
    assert!(
        fr.is_some_and(|fr| fr.actor_count() > 0),
        "the flight recorder must actually have been recording"
    );
    assert_eq!(
        base_s.report.end_time, s.report.end_time,
        "virtual end time must not move"
    );
    assert_eq!(
        base_s.report.events, s.report.events,
        "event count must not move"
    );
    assert_eq!(
        base_s.report.metrics, s.report.metrics,
        "engine metrics must not move"
    );
    assert_eq!(
        base_chrome, chrome,
        "chrome trace bytes must be identical with the recorder attached"
    );
    assert_eq!(
        base_prof, prof,
        "PROF json payload must be identical with the recorder attached"
    );
}

/// The fig-5-class exchange (128 KiB buffers) on `spec` under `plan`,
/// dumped the way `Launch` dumps a run when a dump directory is set.
fn faulted_dump(label: &str, spec: MachineSpec, plan: FaultPlan, rounds: u32) -> String {
    let fr = FlightRecorder::new();
    let s = Launch::new(spec, RuntimeOptions::impacc())
        .chaos(plan)
        .flight(&fr)
        .run_async(move |tc| async move { exchange(&tc, 1 << 14, rounds, 0).await })
        .expect("faulted run");
    let pairs: Vec<(&str, u64)> = s.report.metrics.iter().map(|(k, v)| (*k, *v)).collect();
    let findings = Watchdog::check_counters(pairs.iter().copied());
    fr.dump_run(label, pairs.iter().copied(), &findings)
        .to_json()
}

#[test]
fn device_loss_is_dumped_on_its_anomaly_with_the_remap_marker() {
    let loss = || {
        let mut spec = presets::psg();
        spec.nodes[0].devices.truncate(2);
        faulted_dump(
            "chaos_device_loss",
            spec,
            FaultPlan::new(7).fail_device(0, 0),
            2,
        )
    };
    let json = loss();
    assert!(
        json.contains("\"schema_version\""),
        "flight dumps are schema-versioned"
    );
    assert!(
        json.contains("\"trigger\":\"anomaly\""),
        "a device loss is dumped on the watchdog's anomaly, not on request: {json}"
    );
    assert!(
        json.contains("device_loss"),
        "the watchdog must attribute the device loss: {json}"
    );
    assert!(
        json.contains("remap"),
        "the ring's last events must carry the remap marker: {json}"
    );
    assert!(chrome::structurally_valid(&json));
    assert_eq!(
        json,
        loss(),
        "flight dumps must be bit-reproducible for a fixed fault plan"
    );

    let links = faulted_dump(
        "chaos_links",
        presets::test_cluster(2, 1),
        FaultPlan::new(17).with_uniform_rate(0.1),
        4,
    );
    assert!(chrome::structurally_valid(&links));
}
