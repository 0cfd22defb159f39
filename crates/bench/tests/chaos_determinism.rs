//! Fault-injection determinism: the same fault seed and workload must
//! produce identical virtual-time observables across reruns *and* across
//! scheduler worker counts. A chaos roll is a pure function of the seed,
//! the site and the rolling actor's own count there — never of wall clock,
//! recording state, or how partitions interleave in real time — and this
//! is the tier-1 guard on that claim.

use impacc_bench::chaos::{exchange_launch, internode_spec, run_exchange, SWEEP_SEED};
use impacc_bench::coll::{coll_spec, run_coll_chaos};
use impacc_core::{Launch, RunSummary, RuntimeOptions};
use impacc_machine::FaultPlan;
use impacc_obs::{Edge, Recorder, Span};

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
