//! A serve campaign rendered as one table — the repo's sweeps that are
//! not paper figures (`campaigns/*.campaign`: collectives, distributed
//! arrays, compiled DSL programs, fault injection).
//!
//! Each job runs through [`impacc_serve::run_job`], in campaign order, so
//! a row is the body the serve daemon caches for that job, not a second
//! harness's copy of it. Columns:
//!
//! * `point` — the job's canonical pairs that vary among the campaign's
//!   jobs of its workload (plus `workload=` when the campaign mixes
//!   several). A DSL job's `program` shows the campaign's spelling of it;
//!   its canonical value is the whole normal form, which `src_hash` pins.
//! * `elapsed` — virtual end time.
//! * each counter of `COUNTERS` that is nonzero in some row.

use std::path::Path;

use impacc_serve::{run_job, Campaign, JobSpec};

use crate::util::Table;

/// The counters a sweep may show, in column order.
const COUNTERS: [&str; 7] = [
    "mpi_bytes_sent",
    "coll_intra_bytes",
    "array_halo_bytes",
    "array_cells",
    "retries",
    "chaos_link_drop",
    "device_remaps",
];

/// Run every job of the campaign file at `path`; returns the report.
pub fn run(path: &Path) -> Result<String, String> {
    let campaign = Campaign::load(path)?;
    let jobs = &campaign.jobs;
    let outs = jobs
        .iter()
        .map(|j| run_job(j).map_err(|e| format!("{}: {e}", j.canonical())))
        .collect::<Result<Vec<_>, _>>()?;
    let count = |i: usize, c: &str| outs[i].metrics.get(c).copied().unwrap_or(0);
    let shown: Vec<&str> = COUNTERS
        .into_iter()
        .filter(|c| (0..outs.len()).any(|i| count(i, c) > 0))
        .collect();
    let mut t = Table::new(&[&["point", "elapsed"][..], &shown[..]].concat());
    for (i, point) in points(jobs).into_iter().enumerate() {
        let mut row = vec![point, format!("{:.1}us", outs[i].end_ps as f64 / 1e6)];
        row.extend(shown.iter().map(|c| count(i, c).to_string()));
        t.row(row);
    }
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    Ok(format!(
        "sweep {stem}: {} jobs (elapsed is virtual time)\n\n{}",
        jobs.len(),
        t.render()
    ))
}

/// Each job's `point` column: see the module docs.
fn points(jobs: &[JobSpec]) -> Vec<String> {
    let pairs: Vec<Vec<(String, String)>> = jobs
        .iter()
        .map(|j| {
            j.canonical()
                .split(' ')
                .map(|pair| {
                    let (k, v) = pair.split_once('=').expect("canonical pairs are key=value");
                    let v = if k == "program" { &j.program } else { v };
                    (k.to_string(), v.to_string())
                })
                .collect()
        })
        .collect();
    let mixed = jobs.iter().any(|j| j.workload != jobs[0].workload);
    let varies = |job: &JobSpec, key: &str, value: &str| {
        if key == "workload" {
            return mixed;
        }
        jobs.iter().zip(&pairs).any(|(other, theirs)| {
            other.workload == job.workload && !theirs.iter().any(|(k, v)| k == key && v == value)
        })
    };
    jobs.iter()
        .zip(&pairs)
        .map(|(job, own)| {
            own.iter()
                .filter(|(k, v)| varies(job, k, v))
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_point_names_what_varies_within_its_workload() {
        let c = Campaign::parse(
            "workload=allreduce\nsweep elems = 16, 32\n---\n\
             workload=exchange\nnodes=2\ngpus=1\nsweep rounds = 1, 2\n",
        )
        .unwrap();
        assert_eq!(
            points(&c.jobs),
            [
                "elems=16 workload=allreduce",
                "elems=32 workload=allreduce",
                "rounds=1 workload=exchange",
                "rounds=2 workload=exchange",
            ]
        );
        let c = Campaign::parse("workload=dsl\nprogram=dot\ngpus=2\nsweep nodes = 1, 2\n").unwrap();
        assert_eq!(points(&c.jobs), ["nodes=1", "nodes=2"]);
    }
}
