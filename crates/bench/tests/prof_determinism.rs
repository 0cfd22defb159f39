//! The profiler's output is a function of the virtual-time trace alone:
//! the same workload on one scheduler worker and on four must produce
//! byte-identical `PROF_*.json` documents, and the profile must agree with
//! the run it describes.

use impacc_apps::{jacobi_task, JacobiParams};
use impacc_core::{Launch, RuntimeOptions};
use impacc_obs::Recorder;

fn profile_jacobi(workers: usize) -> (impacc_prof::Report, f64) {
    let rec = Recorder::new();
    let p = JacobiParams {
        n: 512,
        iters: 6,
        verify: false,
    };
    let summary = Launch::new(impacc_bench::specs::psg_tasks(4), RuntimeOptions::impacc())
        .phys_cap(4096)
        .parallelism(workers)
        .recorder(&rec)
        .run_async(move |tc| {
            let p = p.clone();
            async move { jacobi_task(&tc, &p).await }
        })
        .expect("jacobi run");
    let report = impacc_prof::analyze(&rec.spans(), &rec.edges());
    let secs = summary.elapsed_secs();
    (report, secs)
}

#[test]
fn critical_path_is_identical_across_worker_counts() {
    let (one, secs_one) = profile_jacobi(1);
    let (four, secs_four) = profile_jacobi(4);

    // Both executions agree on the virtual end time...
    assert_eq!(secs_one, secs_four, "virtual elapsed time must match");
    assert_eq!(one.end_ps, four.end_ps, "trace end must match");

    // ...and the full serialized profile is byte-identical.
    assert_eq!(
        one.to_json("fig14"),
        four.to_json("fig14"),
        "PROF json must not depend on the worker count"
    );

    // Internal consistency: blame tiles the run, and the trace end agrees
    // with the run summary's wall-clock-in-virtual-seconds.
    assert_eq!(one.blame_total(), one.end_ps);
    let end_secs = one.end_ps as f64 / 1e12;
    let rel = (end_secs - secs_one).abs() / secs_one.max(1e-12);
    assert!(
        rel < 0.02,
        "trace end {end_secs}s should match summary {secs_one}s"
    );
}
