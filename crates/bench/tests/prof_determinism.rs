//! The profiler's output is a function of the virtual-time trace alone:
//! running the same workload with the baton-handoff elision fast path on
//! and off must produce byte-identical `PROF_*.json` documents. This is
//! the tier-1 guard that the fast path never leaks into recorded spans,
//! edges, or the critical path derived from them.

use impacc_apps::{jacobi_task, JacobiParams};
use impacc_core::{Launch, RuntimeOptions};
use impacc_obs::Recorder;

fn profile_jacobi(elide_handoff: bool) -> (impacc_prof::Report, f64) {
    let rec = Recorder::new();
    let p = JacobiParams {
        n: 512,
        iters: 6,
        verify: false,
    };
    let summary = Launch::new(impacc_bench::specs::psg_tasks(4), RuntimeOptions::impacc())
        .phys_cap(4096)
        .elide_handoff(elide_handoff)
        .recorder(&rec)
        .run(move |tc| jacobi_task(tc, &p))
        .expect("jacobi run");
    let report = impacc_prof::analyze(&rec.spans(), &rec.edges());
    let secs = summary.elapsed_secs();
    (report, secs)
}

#[test]
fn critical_path_is_identical_with_and_without_handoff_elision() {
    let (fast, secs_fast) = profile_jacobi(true);
    let (slow, secs_slow) = profile_jacobi(false);

    // Both executions agree on the virtual end time...
    assert_eq!(secs_fast, secs_slow, "virtual elapsed time must match");
    assert_eq!(fast.end_ps, slow.end_ps, "trace end must match");

    // ...and the full serialized profile is byte-identical.
    assert_eq!(
        fast.to_json("fig14"),
        slow.to_json("fig14"),
        "PROF json must not depend on the handoff-elision fast path"
    );

    // Internal consistency: blame tiles the run, and the trace end agrees
    // with the run summary's wall-clock-in-virtual-seconds.
    assert_eq!(fast.blame_total(), fast.end_ps);
    let end_secs = fast.end_ps as f64 / 1e12;
    let rel = (end_secs - secs_fast).abs() / secs_fast.max(1e-12);
    assert!(
        rel < 0.02,
        "trace end {end_secs}s should match summary {secs_fast}s"
    );
}
