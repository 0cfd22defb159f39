//! Fault-injection determinism: the same fault seed and workload must
//! produce identical virtual-time observables across reruns *and* across
//! scheduler worker counts. A chaos roll is a pure function of the seed,
//! the site and the rolling actor's own count there — never of wall clock,
//! recording state, or how partitions interleave in real time — and this
//! is the tier-1 guard on that claim.

use impacc_apps::{allreduce_rounds, exchange};
use impacc_core::{Launch, RunSummary, RuntimeOptions};
use impacc_machine::{presets, FaultPlan, MachineSpec};
use impacc_obs::{Edge, Recorder, Span};

/// The fixed fault seed of the exchange runs here (and of
/// `campaigns/chaos_sweep.campaign`).
const SWEEP_SEED: u64 = 17;

/// Two nodes, one GPU each: sends cross the NIC, where the link fault
/// sites live.
fn internode_spec() -> MachineSpec {
    presets::test_cluster(2, 1)
}

/// One PSG node truncated to two GPUs: the device-loss remap scenario.
fn single_node_spec() -> MachineSpec {
    let mut s = presets::psg();
    s.nodes[0].devices.truncate(2);
    s
}

/// A launch of the fig-5-class exchange (kernel → copyout → send → recv
/// → copyin → kernel) on `spec` under an optional fault plan; callers add
/// what they observe the run with before [`run_exchange`].
fn exchange_launch(spec: MachineSpec, plan: Option<FaultPlan>) -> Launch {
    let l = Launch::new(spec, RuntimeOptions::impacc());
    match plan {
        Some(p) => l.chaos(p),
        None => l,
    }
}

/// Run `rounds` of the exchange (128 KiB per buffer) on a configured
/// launch. Every consume kernel checks its input, so a faulted run that
/// finishes delivered the right bytes.
fn run_exchange(l: Launch, rounds: u32) -> RunSummary {
    l.run_async(move |tc| async move { exchange(&tc, 1 << 14, rounds, 0).await })
        .expect("chaos run")
}

/// Two nodes, four GPUs each: eight ranks with real intra-node sharing.
fn coll_spec() -> MachineSpec {
    presets::test_cluster(2, 4)
}

/// The mixed collective workload: small and large allreduces, a
/// communicator split (allgather inside), and barriers, under the
/// engine's own per-call selection — so faults land on both internode
/// collective edges and intra-node folds.
fn run_coll_chaos(l: Launch) -> RunSummary {
    l.run_async(|tc| async move {
        allreduce_rounds(&tc, 16, 2, 0).await;
        allreduce_rounds(&tc, 1 << 14, 1, 0).await;
        let sub = tc
            .mpi_comm_split((tc.rank() % 2) as i64, tc.rank() as i64)
            .await;
        assert_eq!(sub.size(), tc.size() / 2);
        tc.mpi_barrier().await;
        allreduce_rounds(&tc, 256, 1, 0).await;
        tc.mpi_barrier().await;
    })
    .expect("coll chaos run")
}

fn metric(s: &RunSummary, key: &str) -> u64 {
    s.report.metrics.get(key).copied().unwrap_or(0)
}

/// Worker counts every faulted program is held identical at: one, a
/// middling count, and more workers than partitions.
const DEGREES: [usize; 3] = [1, 2, 8];

type Observed = (RunSummary, Vec<Span>, Vec<Edge>);

/// `run` at every degree, and once more at the first: all bit-identical —
/// report, span stream, edge stream, derived profile. Returns the base run.
fn identical_everywhere(name: &str, run: impl Fn(usize) -> Observed) -> Observed {
    let base = run(DEGREES[0]);
    let prof = |o: &Observed| impacc_prof::analyze(&o.1, &o.2).to_json(name);
    for (what, degree) in [
        ("rerun", DEGREES[0]),
        ("p=2", DEGREES[1]),
        ("p=8", DEGREES[2]),
    ] {
        let other = run(degree);
        let (a, b) = (&base.0.report, &other.0.report);
        assert_eq!(a.end_time, b.end_time, "{name} {what}: virtual end time");
        assert_eq!(a.events, b.events, "{name} {what}: dispatch count");
        assert_eq!(a.metrics, b.metrics, "{name} {what}: engine metrics");
        assert_eq!(a.actors, b.actors, "{name} {what}: per-actor breakdown");
        assert_eq!(base.1, other.1, "{name} {what}: span stream");
        assert_eq!(base.2, other.2, "{name} {what}: edge stream");
        assert_eq!(prof(&base), prof(&other), "{name} {what}: PROF json");
    }
    base
}

#[test]
fn faulted_run_is_bit_identical_across_reruns_and_worker_counts() {
    let (s, spans, _) = identical_everywhere("chaos", |degree| {
        let rec = Recorder::new();
        let plan = FaultPlan::new(SWEEP_SEED).with_uniform_rate(0.1);
        let l = exchange_launch(internode_spec(), Some(plan))
            .parallelism(degree)
            .recorder(&rec);
        let s = run_exchange(l, 3);
        (s, rec.spans(), rec.edges())
    });
    // The injection actually fired — this is a faulted run, not a no-op —
    // and its fault spans reach the recorded trace.
    let retries = s.report.metrics.get("retries").copied().unwrap_or(0);
    assert!(retries > 0, "seeded 10% plan must cause retries");
    assert!(
        spans.iter().any(|s| s.kind == impacc_obs::EventKind::Fault),
        "fault spans must reach the recorded trace"
    );
}

/// Collectives under fault injection: the hierarchical engine's internode
/// edges traverse the link fault sites and its intra-node folds roll the
/// copy-fault site, and the whole mixed workload must stay bit-identical
/// for a fixed seed.
#[test]
fn faulted_collectives_are_bit_identical_across_reruns_and_worker_counts() {
    let (s, _, _) = identical_everywhere("coll", |degree| {
        let rec = Recorder::new();
        let plan = FaultPlan::new(23).with_uniform_rate(0.08);
        let l = Launch::new(coll_spec(), RuntimeOptions::impacc())
            .chaos(plan)
            .parallelism(degree)
            .recorder(&rec);
        let s = run_coll_chaos(l);
        (s, rec.spans(), rec.edges())
    });
    // The injection reached the collective paths: retries fired, and the
    // hierarchical engine actually ran (its phase counters are nonzero).
    let m = |k: &str| s.report.metrics.get(k).copied().unwrap_or(0);
    assert!(m("retries") > 0, "seeded 8% plan must cause retries");
    assert!(m("coll_algo_hier") > 0, "workload must take the hier path");
    assert!(
        m("coll_intra_bytes") > 0,
        "intra-node folds must be charged"
    );
}

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

/// A launch with a failed device completes: the §3.2 mapper remaps the
/// victim rank onto the node's surviving GPU.
#[test]
fn device_loss_completes_by_remap() {
    let healthy = run_exchange(exchange_launch(single_node_spec(), None), 2);
    let plan = FaultPlan::new(7).fail_device(0, 0);
    let lost = run_exchange(exchange_launch(single_node_spec(), Some(plan)), 2);
    assert_eq!(metric(&healthy, "device_remaps"), 0);
    assert!(
        metric(&lost, "device_remaps") >= 1,
        "device-loss run must remap the victim"
    );
}
