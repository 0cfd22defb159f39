//! Fault-injection determinism: the same fault seed and workload must
//! produce identical virtual-time observables across reruns *and* across
//! the scheduler's baton-handoff elision fast path. Chaos rolls are a pure
//! function of per-site counters, never of wall-clock, recording state, or
//! scheduling strategy — this is the tier-1 guard on that claim.

use impacc_bench::chaos::{exchange_launch, internode_spec, run_exchange, SWEEP_SEED};
use impacc_bench::coll::{coll_spec, run_coll_chaos};
use impacc_core::{Launch, RunSummary, RuntimeOptions};
use impacc_machine::FaultPlan;
use impacc_obs::{Recorder, Span};

fn faulted_run(elide: bool) -> (RunSummary, Vec<Span>, Vec<impacc_obs::Edge>) {
    let rec = Recorder::new();
    let plan = FaultPlan::new(SWEEP_SEED).with_uniform_rate(0.1);
    let l = exchange_launch(internode_spec(), Some(plan))
        .elide_handoff(elide)
        .recorder(&rec);
    let s = run_exchange(l, 3);
    (s, rec.spans(), rec.edges())
}

#[test]
fn faulted_run_is_bit_identical_across_reruns_and_elision() {
    let (on, spans_on, edges_on) = faulted_run(true);
    let (off, spans_off, edges_off) = faulted_run(false);
    let (again, spans_again, _) = faulted_run(true);

    // The injection actually fired — this is a faulted run, not a no-op.
    let retries = on.report.metrics.get("retries").copied().unwrap_or(0);
    assert!(retries > 0, "seeded 10% plan must cause retries");

    // Rerun with identical configuration: bit-identical.
    assert_eq!(on.report.end_time, again.report.end_time, "rerun end time");
    assert_eq!(on.report.metrics, again.report.metrics, "rerun metrics");
    assert_eq!(spans_on, spans_again, "rerun span stream");

    // Elision on vs off: the fast path must not perturb fault rolls.
    assert_eq!(
        off.report.handoffs_elided, 0,
        "forced-off run must not elide"
    );
    assert_eq!(on.report.end_time, off.report.end_time, "virtual end time");
    assert_eq!(on.report.events, off.report.events, "dispatch count");
    assert_eq!(on.report.metrics, off.report.metrics, "engine metrics");
    assert_eq!(on.report.actors, off.report.actors, "per-actor breakdown");
    assert_eq!(spans_on, spans_off, "span streams must match exactly");

    // The derived profile — fault/retry spans included — is byte-identical.
    let prof_on = impacc_prof::analyze(&spans_on, &edges_on).to_json("chaos");
    let prof_off = impacc_prof::analyze(&spans_off, &edges_off).to_json("chaos");
    assert_eq!(prof_on, prof_off, "PROF json must not depend on elision");
    assert!(
        prof_on.contains("\"fault\"") || retries == 0,
        "fault spans must reach the recorded trace"
    );
}

fn faulted_coll_run(elide: bool) -> (RunSummary, Vec<Span>, Vec<impacc_obs::Edge>) {
    let rec = Recorder::new();
    let plan = FaultPlan::new(23).with_uniform_rate(0.08);
    let l = Launch::new(coll_spec(), RuntimeOptions::impacc())
        .chaos(plan)
        .elide_handoff(elide)
        .recorder(&rec);
    let s = run_coll_chaos(l);
    (s, rec.spans(), rec.edges())
}

/// Collectives under fault injection: the hierarchical engine's internode
/// edges traverse the link fault sites and its intra-node folds roll the
/// copy-fault site, and the whole mixed workload must stay bit-identical
/// for a fixed seed — across reruns and across handoff elision.
#[test]
fn faulted_collectives_are_bit_identical_across_reruns_and_elision() {
    let (on, spans_on, edges_on) = faulted_coll_run(true);
    let (off, spans_off, edges_off) = faulted_coll_run(false);
    let (again, spans_again, _) = faulted_coll_run(true);

    // The injection reached the collective paths: retries fired, and the
    // hierarchical engine actually ran (its phase counters are nonzero).
    let m = |k: &str| on.report.metrics.get(k).copied().unwrap_or(0);
    assert!(m("retries") > 0, "seeded 8% plan must cause retries");
    assert!(m("coll_algo_hier") > 0, "workload must take the hier path");
    assert!(
        m("coll_intra_bytes") > 0,
        "intra-node folds must be charged"
    );

    assert_eq!(on.report.end_time, again.report.end_time, "rerun end time");
    assert_eq!(on.report.metrics, again.report.metrics, "rerun metrics");
    assert_eq!(spans_on, spans_again, "rerun span stream");

    assert_eq!(on.report.end_time, off.report.end_time, "virtual end time");
    assert_eq!(on.report.metrics, off.report.metrics, "engine metrics");
    assert_eq!(spans_on, spans_off, "span streams must match exactly");

    let prof_on = impacc_prof::analyze(&spans_on, &edges_on).to_json("coll");
    let prof_off = impacc_prof::analyze(&spans_off, &edges_off).to_json("coll");
    assert_eq!(prof_on, prof_off, "PROF json must not depend on elision");
}
