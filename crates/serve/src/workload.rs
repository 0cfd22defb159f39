//! Job execution: build the machine, run the workload, serialize the
//! deterministic result body.
//!
//! Every byte of a [`JobOutcome`]'s result is a pure function of the
//! job's canonical form: virtual end time, engine event count, task
//! count and the engine metric counters — never wall-clock. That purity
//! is what lets the cache return stored bytes in place of re-execution
//! and still claim bit-identical responses.

use std::collections::BTreeMap;

use impacc_core::{Launch, RunSummary, RuntimeOptions};
use impacc_flight::{Anomaly, FlightRecorder};
use impacc_machine::{FaultPlan, MachineSpec};
use impacc_obs::{json, Recorder};

use crate::job::JobSpec;

/// A completed execution: the deterministic result body plus the
/// optional per-job critical-path profile.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Deterministic result JSON (`JOB_<key>.json` body, cache value).
    pub result: String,
    /// `PROF_<key>.json` body when the job asked for one.
    pub prof: Option<String>,
    /// Virtual end time in picoseconds: the body's `end_ps`.
    pub end_ps: u64,
    /// The run's engine counters — serve's aggregate feed and its dumps.
    /// Not part of the cached bytes (already embedded in `result`).
    pub metrics: BTreeMap<String, u64>,
    /// The deterministic watchdog findings of the run (`Launch`'s pass);
    /// a non-empty list marks the job degraded.
    pub anomalies: Vec<Anomaly>,
}

/// Build the job's machine from its preset fields.
pub fn machine_of(job: &JobSpec) -> Result<MachineSpec, String> {
    match job.preset() {
        Some(p) => Ok((p.build)(job)),
        None => Err(format!("unknown machine preset {:?}", job.spec)),
    }
}

fn fault_plan(job: &JobSpec) -> Option<FaultPlan> {
    if job.chaos_rate == 0.0 && job.fail_device.is_empty() {
        return None;
    }
    let mut plan = FaultPlan::new(job.chaos_seed).with_uniform_rate(job.chaos_rate);
    for &(n, d) in &job.fail_device {
        plan = plan.fail_device(n, d);
    }
    Some(plan)
}

/// Execute one job and serialize its deterministic result body. `Err` is
/// a readable reason (bad machine, engine error); panics inside the
/// simulation are caught by the worker pool, not here.
pub fn run_job(job: &JobSpec) -> Result<JobOutcome, String> {
    run_job_flight(job, None)
}

/// [`run_job`] on a caller-owned flight recorder: the job records into its
/// store. That never changes the result bytes (flight is observability
/// only) — but keeps the last spans of the run available for a
/// post-mortem dump if the job fails, and carries the job/campaign
/// correlation marker every span stream starts with. A `prof=1` job
/// switches the store to full retention before it starts; the dump is
/// then the window view of the trace.
pub fn run_job_flight(
    job: &JobSpec,
    flight: Option<&FlightRecorder>,
) -> Result<JobOutcome, String> {
    run_job_keyed(job, &job.key(), flight)
}

/// [`run_job_flight`] for a caller that already holds the job's content
/// address (`key` must be `job.key()`): the worker pool keys a job once,
/// at admission.
pub(crate) fn run_job_keyed(
    job: &JobSpec,
    key: &str,
    flight: Option<&FlightRecorder>,
) -> Result<JobOutcome, String> {
    let spec = machine_of(job)?;
    let row = job.workload.row();
    let body = (row.body)(job)?;
    // One store per job. A profile needs every span and edge, so a
    // `prof=1` job widens the caller's store, or brings its own when the
    // caller has none that records.
    let flight = flight.filter(|fr| fr.enabled() || !job.prof);
    let rec = job.prof.then(|| match flight {
        Some(fr) => {
            fr.retain_all();
            Recorder::clone(fr)
        }
        None => Recorder::new(),
    });
    let mut l = Launch::new(spec, RuntimeOptions::impacc());
    if let Some(plan) = fault_plan(job) {
        l = l.chaos(plan);
    }
    // A field the row does not read is not in the key, so it must not
    // reach the run either.
    if let Some(algo) = job.algo.filter(|_| row.reads.contains(&"algo")) {
        l = l.coll_algo(algo);
    }
    if let Some(rec) = &rec {
        l = l.recorder(rec);
    }
    if let Some(fr) = flight {
        l = l.flight(fr).flight_label(format!("job_{key}"));
    }
    let marker = (key.to_string(), job.campaign.clone());
    let summary = l
        .run_async(move |tc| {
            if tc.rank() == 0 {
                // Zero-width correlation marker: ties every span stream
                // back to the job (and campaign) it belongs to.
                // `Ctx::event` dispatches no scheduler event, so result
                // bytes are untouched.
                let (key, campaign) = marker.clone();
                tc.ctx().event("marker", move || {
                    let mut attrs = vec![("phase", "job".to_string()), ("job", key)];
                    if !campaign.is_empty() {
                        attrs.push(("campaign", campaign));
                    }
                    attrs
                });
            }
            body(tc)
        })
        .map_err(|e| format!("run failed: {e:?}"))?;
    let prof = rec
        .map(|rec| impacc_prof::analyze(&rec.spans(), &rec.edges()).to_json(&format!("job_{key}")));
    let metrics = summary
        .report
        .metrics
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    Ok(JobOutcome {
        result: result_json(key, &job.canonical(), &summary),
        prof,
        end_ps: summary.report.end_time.0,
        metrics,
        anomalies: summary
            .anomalies
            .into_iter()
            .filter(|a| a.deterministic)
            .collect(),
    })
}

/// Serialize the result body: schema version, key, canonical job echo,
/// virtual end time (integer picoseconds), event count, task count, and
/// every engine metric — all integers, so the bytes are reproducible.
fn result_json(key: &str, canonical: &str, s: &RunSummary) -> String {
    let mut out = format!(
        "{{\"schema_version\":{},\"key\":{},\"code_version\":{},\"job\":{},\"end_ps\":{},\"events\":{},\"tasks\":{},\"metrics\":{{",
        impacc_obs::SCHEMA_VERSION,
        json::string(key),
        json::string(crate::code_version()),
        json::string(canonical),
        s.report.end_time.0,
        s.report.events,
        s.tasks.len(),
    );
    for (i, (k, v)) in s.report.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json::string(k));
        out.push(':');
        out.push_str(&v.to_string());
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_jobs_produce_identical_bytes() {
        let job = JobSpec::parse("workload=allreduce\nelems=32\nrounds=1\ngpus=2").unwrap();
        let a = run_job(&job).unwrap();
        let b = run_job(&job).unwrap();
        assert_eq!(a.result, b.result, "determinism is the cache's contract");
        assert!(a.result.contains("\"end_ps\":"));
        assert!(a.result.contains("\"metrics\":{"));
        assert!(a.prof.is_none());
    }

    #[test]
    fn seed_changes_key_but_runs_still_verify() {
        let a = JobSpec::parse("workload=allreduce\nelems=32\nrounds=1\nseed=1").unwrap();
        let b = JobSpec::parse("workload=allreduce\nelems=32\nrounds=1\nseed=2").unwrap();
        assert_ne!(a.key(), b.key());
        run_job(&a).unwrap();
        run_job(&b).unwrap();
    }

    #[test]
    fn exchange_and_chaos_jobs_complete() {
        let job = JobSpec::parse(
            "workload=exchange\nnodes=2\ngpus=1\nrounds=2\nchaos_rate=0.05\nchaos_seed=17",
        )
        .unwrap();
        let out = run_job(&job).unwrap();
        assert!(out.result.contains("\"mpi_bytes_sent\":"));
        // Same plan, same bytes: the chaos schedule is part of the key.
        let again = run_job(&job).unwrap();
        assert_eq!(out.result, again.result);
    }

    #[test]
    fn a_field_the_row_does_not_read_never_reaches_the_run() {
        // `algo` is keyed for allreduce alone, so it may steer allreduce
        // alone: two requests with one key must have one answer.
        let text = "workload=jacobi\nspec=psg\nnodes=1\ngpus=4\nn=16\niters=2";
        let plain = JobSpec::parse(text).unwrap();
        let forced = JobSpec::parse(&format!("{text}\nalgo=flat")).unwrap();
        assert!(forced.algo.is_some());
        assert_eq!(plain.key(), forced.key());
        assert_eq!(
            run_job(&plain).unwrap().result,
            run_job(&forced).unwrap().result
        );
    }

    #[test]
    fn array_workloads_complete_and_are_deterministic() {
        for text in [
            "workload=stencil3d\nnodes=2\ngpus=2\nn=8\niters=3",
            "workload=stencil2d\nnodes=1\ngpus=2\nn=16\niters=3\nhalo=2",
            "workload=redblack\nnodes=1\ngpus=2\nn=16\niters=3",
        ] {
            let job = JobSpec::parse(text).unwrap();
            let a = run_job(&job).unwrap();
            let b = run_job(&job).unwrap();
            assert_eq!(a.result, b.result, "{text}: cache contract");
            assert!(
                a.result.contains("\"array_halo_bytes\":"),
                "{text}: array halo traffic must reach the result metrics"
            );
        }
    }

    #[test]
    fn faulted_stencil3d_job_is_deterministic() {
        let job = JobSpec::parse(
            "workload=stencil3d\nnodes=2\ngpus=1\nn=8\niters=3\nchaos_rate=0.05\nchaos_seed=29",
        )
        .unwrap();
        let a = run_job(&job).unwrap();
        let b = run_job(&job).unwrap();
        assert_eq!(a.result, b.result, "seeded chaos is part of the key");
    }

    #[test]
    fn dsl_jobs_run_and_are_deterministic() {
        for text in [
            "workload=dsl\nprogram=jacobi\nnodes=2\ngpus=2\nparams=n:24,iters:3",
            "workload=dsl\nprogram=dot\nnodes=1\ngpus=2\nparams=n:512",
            "workload=dsl\nprogram=stencil2d\nnodes=2\ngpus=1\nparams=n:24,iters:2",
        ] {
            let job = JobSpec::parse(text).unwrap();
            let a = run_job(&job).unwrap();
            let b = run_job(&job).unwrap();
            assert_eq!(a.result, b.result, "{text}: cache contract");
            assert!(
                a.result.contains("src_hash="),
                "{text}: the canonical echo must carry the source hash"
            );
        }
    }

    #[test]
    fn prof_jobs_emit_a_profile_without_changing_the_result() {
        let plain = JobSpec::parse("workload=allreduce\nelems=32\nrounds=1").unwrap();
        let prof = JobSpec::parse("workload=allreduce\nelems=32\nrounds=1\nprof=1").unwrap();
        assert_eq!(plain.key(), prof.key(), "prof is observability only");
        let a = run_job(&plain).unwrap();
        let b = run_job(&prof).unwrap();
        assert_eq!(a.result, b.result);
        let pj = b.prof.expect("profile requested");
        assert!(pj.contains("\"schema_version\""));
        assert!(pj.contains("\"critical_path\""));
    }
}
