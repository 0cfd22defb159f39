//! Chaos sweep — fault rate vs completion time and goodput, plus the
//! device-loss graceful-degradation scenario.
//!
//! The workload is a fig-5-class exchange (kernel → copyout → send → recv
//! → copyin → kernel, repeated) run two ways:
//!
//! * **internode** on a two-node test cluster, so injected link drops,
//!   duplicates, delays and NIC brown-outs hit a real network path and the
//!   MPI engine's timeout/backoff retry machinery pays for them;
//! * **single-node** on a two-GPU PSG node with one device declared failed,
//!   so the §3.2 task-device mapper must remap the victim rank onto the
//!   survivor and the run still completes bit-correct.
//!
//! Every kernel checks its inputs (`math_ok` guards phys-capped runs), so
//! a faulted run that finishes *is* a correctness result: the recovery
//! paths delivered the right bytes, just later.

use impacc_apps::exchange;
use impacc_core::{Launch, RunSummary, RuntimeOptions};
use impacc_flight::{watchdog, FlightDump, FlightRecorder, Trigger, Watchdog};
use impacc_machine::{presets, FaultPlan, MachineSpec};

use crate::util::{gbps, quick, Table};

const N: usize = 1 << 14; // 128 KiB per buffer

/// Two nodes, one GPU each: sends cross the NIC, where the link fault
/// sites live.
pub fn internode_spec() -> MachineSpec {
    presets::test_cluster(2, 1)
}

/// One PSG node truncated to two GPUs: the device-loss remap scenario.
pub fn single_node_spec() -> MachineSpec {
    let mut s = presets::psg();
    s.nodes[0].devices.truncate(2);
    s
}

/// A launch of the chaos exchange on `spec` under an optional fault
/// plan. Callers add what they observe the run with (a recorder, a flight
/// recorder, the forced-off handoff path) before [`run_exchange`].
pub fn exchange_launch(spec: MachineSpec, plan: Option<FaultPlan>) -> Launch {
    let l = Launch::new(spec, RuntimeOptions::impacc());
    match plan {
        Some(p) => l.chaos(p),
        None => l,
    }
}

/// Run `rounds` of the chaos exchange on a configured launch.
pub fn run_exchange(l: Launch, rounds: u32) -> RunSummary {
    l.run(move |tc| exchange(tc, N, rounds, 0))
        .expect("chaos run")
}

fn metric(s: &RunSummary, key: &str) -> u64 {
    s.report.metrics.get(key).copied().unwrap_or(0)
}

/// The fixed seed every reported sweep uses — rerunning the binary must
/// reproduce the tables byte-for-byte.
pub const SWEEP_SEED: u64 = 17;

/// Run the chaos sweep; returns the rendered report.
pub fn run() -> String {
    let mut out = String::from(
        "Chaos: deterministic fault injection vs completion time and goodput\n\
         (fig-5-class exchange; uniform per-site fault rate, seed 17)\n\n",
    );
    let rates: &[f64] = if quick() {
        &[0.0, 0.1]
    } else {
        &[0.0, 0.01, 0.05, 0.1, 0.2]
    };
    let rounds = if quick() { 2 } else { 4 };
    let mut t = Table::new(&["fault rate", "elapsed", "retries", "link drops", "goodput"]);
    for &rate in rates {
        let plan = (rate > 0.0).then(|| FaultPlan::new(SWEEP_SEED).with_uniform_rate(rate));
        let s = run_exchange(exchange_launch(internode_spec(), plan), rounds);
        let secs = s.elapsed_secs();
        let bytes = metric(&s, "mpi_bytes_sent");
        t.row(vec![
            format!("{rate:.2}"),
            format!("{:.1}us", secs * 1e6),
            metric(&s, "retries").to_string(),
            metric(&s, "chaos_link_drop").to_string(),
            format!("{:.3}GB/s", gbps(bytes, secs)),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nretried sends pay the detection timeout plus exponential backoff, so\n\
         goodput falls faster than the raw drop rate; payloads stay bit-correct\n\
         (every consume kernel asserts its input).\n\n",
    );

    let mut t2 = Table::new(&["scenario", "elapsed", "device_remaps"]);
    for (name, plan) in [
        ("healthy", None),
        (
            "device n0.d0 failed",
            Some(FaultPlan::new(7).fail_device(0, 0)),
        ),
    ] {
        let s = run_exchange(exchange_launch(single_node_spec(), plan), rounds);
        t2.row(vec![
            name.to_string(),
            format!("{:.1}us", s.elapsed_secs() * 1e6),
            metric(&s, "device_remaps").to_string(),
        ]);
    }
    out.push_str(&t2.render());
    out.push_str(
        "\ndevice loss: the §3.2 mapper remaps the victim rank onto the node's\n\
         surviving GPU at launch; the run completes with both ranks sharing one\n\
         device instead of failing.\n",
    );
    out
}

/// Run one smoke scenario with a flight recorder attached and drain the
/// ring into a dump: trigger precedence is fault burst, then the first
/// deterministic watchdog anomaly, then plain request.
fn flight_dump_of(
    label: &str,
    spec: MachineSpec,
    plan: FaultPlan,
    rounds: u32,
) -> (RunSummary, FlightDump) {
    let fr = FlightRecorder::new();
    let s = run_exchange(exchange_launch(spec, Some(plan)).flight(&fr), rounds);
    let pairs: Vec<(&str, u64)> = s.report.metrics.iter().map(|(k, v)| (*k, *v)).collect();
    let mut anomalies = Watchdog::new().check_counters(&pairs);
    let trigger = if fr.fault_fires() >= watchdog::FAULT_BURST_THRESHOLD {
        Trigger::FaultBurst {
            fired: fr.fault_fires(),
            threshold: watchdog::FAULT_BURST_THRESHOLD,
        }
    } else if let Some(a) = anomalies.iter().find(|a| a.deterministic) {
        Trigger::Anomaly(a.rule.to_string())
    } else {
        Trigger::Request
    };
    anomalies.retain(|a| a.deterministic);
    let dump = fr.dump(
        label,
        trigger,
        s.report.metrics.iter().map(|(k, v)| (*k, *v)),
        &anomalies,
    );
    (s, dump)
}

/// Fixed-seed CI smoke: a faulted run must complete with `retries > 0` and
/// bit-correct payloads, and a device-loss run must finish via remap.
/// Both scenarios drain their flight rings into `FLIGHT_*.json` dumps in
/// the bench dir, and the device-loss dump is asserted reproducible and
/// fault-attributing before it is written. Panics (nonzero exit) on any
/// violation.
pub fn smoke() -> String {
    smoke_to(&impacc_core::config::bench_dir())
}

/// [`smoke`] with an explicit dump directory (tests point this at a
/// temp dir; the binary uses `IMPACC_BENCH_DIR`).
pub fn smoke_to(dir: &std::path::Path) -> String {
    let plan = FaultPlan::new(SWEEP_SEED).with_uniform_rate(0.1);
    let (s, dump) = flight_dump_of("chaos_smoke", internode_spec(), plan, 4);
    let retries = metric(&s, "retries");
    assert!(retries > 0, "faulted smoke run must retry at least once");

    let loss_dump_of = || {
        flight_dump_of(
            "chaos_device_loss",
            single_node_spec(),
            FaultPlan::new(7).fail_device(0, 0),
            2,
        )
    };
    let (loss, loss_dump) = loss_dump_of();
    let remaps = metric(&loss, "device_remaps");
    assert!(remaps >= 1, "device-loss smoke run must remap the victim");
    let loss_json = loss_dump.to_json();
    assert!(
        loss_json.contains("\"schema_version\""),
        "flight dumps are schema-versioned"
    );
    assert!(
        loss_json.contains("\"trigger\":\"anomaly\""),
        "a device loss is dumped on the watchdog's anomaly, not on request: {loss_json}"
    );
    assert!(
        loss_json.contains("device_loss"),
        "the watchdog must attribute the device loss: {loss_json}"
    );
    assert!(
        loss_json.contains("remap"),
        "the ring's last events must carry the remap marker: {loss_json}"
    );
    let (_, again) = loss_dump_of();
    assert_eq!(
        loss_json,
        again.to_json(),
        "flight dumps must be bit-reproducible for a fixed fault plan"
    );

    for d in [&dump, &loss_dump] {
        d.write(dir).expect("write flight dump");
    }
    format!(
        "chaos smoke ok: retries={retries}, link_drops={}, device_remaps={remaps}, \
         elapsed={:.1}us (payloads verified in-kernel)\n\
         flight dumps: {} (trigger={}), {} (trigger={})\n",
        metric(&s, "chaos_link_drop"),
        s.elapsed_secs() * 1e6,
        dump.file_name(),
        dump.trigger.label(),
        loss_dump.file_name(),
        loss_dump.trigger.label(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulted_run_is_slower_but_completes_correctly() {
        let clean = run_exchange(exchange_launch(internode_spec(), None), 2);
        let plan = FaultPlan::new(SWEEP_SEED).with_uniform_rate(0.1);
        let faulted = run_exchange(exchange_launch(internode_spec(), Some(plan)), 2);
        assert_eq!(metric(&clean, "retries"), 0);
        assert!(
            metric(&faulted, "retries") > 0,
            "a 10% uniform rate over 4 sends must retry"
        );
        assert!(
            faulted.elapsed_secs() > clean.elapsed_secs(),
            "recovery costs virtual time: {} vs {}",
            faulted.elapsed_secs(),
            clean.elapsed_secs()
        );
    }

    #[test]
    fn smoke_passes_and_dumps_flight_artifacts() {
        let dir = std::env::temp_dir().join(format!("impacc-chaos-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = smoke_to(&dir);
        assert!(out.contains("chaos smoke ok"));
        assert!(out.contains("FLIGHT_chaos_device_loss.json"));
        for name in ["FLIGHT_chaos_smoke.json", "FLIGHT_chaos_device_loss.json"] {
            let body = std::fs::read_to_string(dir.join(name)).expect("dump written");
            assert!(impacc_obs::chrome::structurally_valid(&body), "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
