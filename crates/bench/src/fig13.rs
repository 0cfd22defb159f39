//! Figures 13 & 14 — Jacobi strong scaling and the device-to-device
//! communication-time breakdown.
//!
//! Figure 13: speedup over the MPI+OpenACC 1-task run for 1K–8K meshes on
//! PSG, up to 128 tasks on Beacon, 128+ on Titan.
//!
//! Figure 14: total device-to-device communication time on PSG — IMPACC's
//! single direct DtoD transfer vs the baseline's DtoH + HtoH + HtoD chain.

use impacc_apps::{jacobi_task, run_jacobi, JacobiParams};
use impacc_core::{Launch, RunSummary, RuntimeOptions};
use impacc_obs::{breakdown, chrome, Recorder};

use crate::specs::{beacon_tasks, psg_tasks, titan_tasks};
use crate::util::{quick, Table};

const ITERS: usize = 50;

fn jacobi_iters(
    spec: impacc_machine::MachineSpec,
    opts: RuntimeOptions,
    n: usize,
    iters: usize,
) -> RunSummary {
    run_jacobi(
        spec,
        opts,
        Some(4096),
        JacobiParams {
            n,
            iters,
            verify: false,
        },
    )
    .expect("jacobi run")
}

fn jacobi(spec: impacc_machine::MachineSpec, opts: RuntimeOptions, n: usize) -> RunSummary {
    jacobi_iters(spec, opts, n, ITERS)
}

/// Copy-time metric attributable to the sweeps alone: the same run with
/// zero sweeps (setup `copyin`s only) is subtracted out.
fn sweep_metric(
    spec_fn: impl Fn() -> impacc_machine::MachineSpec,
    opts: RuntimeOptions,
    n: usize,
    key: &'static str,
) -> f64 {
    let with = jacobi_iters(spec_fn(), opts, n, ITERS);
    let setup = jacobi_iters(spec_fn(), opts, n, 0);
    let ps = with.report.metrics.get(key).copied().unwrap_or(0)
        - setup.report.metrics.get(key).copied().unwrap_or(0);
    ps as f64 / 1e12
}

/// Mesh sizes for the PSG panels.
pub fn psg_sizes() -> Vec<usize> {
    if quick() {
        vec![1024]
    } else {
        vec![1024, 2048, 4096, 8192]
    }
}

/// Run Figure 13; returns the rendered report.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("Figure 13: Jacobi strong scaling (speedup over MPI+OpenACC 1-task)\n\n");

    for n in psg_sizes() {
        let base1 = jacobi(psg_tasks(1), RuntimeOptions::baseline(), n).elapsed_secs();
        let mut t = Table::new(&["tasks", "IMPACC", "MPI+OpenACC"]);
        for tasks in [1usize, 2, 4, 8] {
            let i = jacobi(psg_tasks(tasks), RuntimeOptions::impacc(), n).elapsed_secs();
            let b = jacobi(psg_tasks(tasks), RuntimeOptions::baseline(), n).elapsed_secs();
            t.row(vec![
                tasks.to_string(),
                format!("{:.2}x", base1 / i),
                format!("{:.2}x", base1 / b),
            ]);
        }
        out.push_str(&format!("PSG, {0}x{0} mesh:\n{1}\n", n, t.render()));
    }

    // (e) Beacon.
    let n = if quick() { 2048 } else { 8192 };
    let base1 = jacobi(beacon_tasks(1), RuntimeOptions::baseline(), n).elapsed_secs();
    let mut t = Table::new(&["tasks", "IMPACC", "MPI+OpenACC"]);
    let counts: Vec<usize> = if quick() {
        vec![1, 8, 32]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64, 128]
    };
    for tasks in counts {
        let i = jacobi(beacon_tasks(tasks), RuntimeOptions::impacc(), n).elapsed_secs();
        let b = jacobi(beacon_tasks(tasks), RuntimeOptions::baseline(), n).elapsed_secs();
        t.row(vec![
            tasks.to_string(),
            format!("{:.2}x", base1 / i),
            format!("{:.2}x", base1 / b),
        ]);
    }
    out.push_str(&format!("Beacon, {0}x{0} mesh:\n{1}\n", n, t.render()));

    // (f) Titan, normalized to 128 tasks.
    let n = if quick() { 4096 } else { 16384 };
    let counts: Vec<usize> = if quick() {
        vec![128, 256]
    } else {
        vec![128, 256, 512, 1024]
    };
    let base = jacobi(titan_tasks(counts[0]), RuntimeOptions::baseline(), n).elapsed_secs();
    let mut t = Table::new(&["tasks", "IMPACC", "MPI+OpenACC"]);
    for tasks in counts {
        let i = jacobi(titan_tasks(tasks), RuntimeOptions::impacc(), n).elapsed_secs();
        let b = jacobi(titan_tasks(tasks), RuntimeOptions::baseline(), n).elapsed_secs();
        t.row(vec![
            tasks.to_string(),
            format!("{:.2}x", base / i),
            format!("{:.2}x", base / b),
        ]);
    }
    out.push_str(&format!(
        "Titan, {0}x{0} mesh (normalized to 128-task MPI+X):\n{1}\n",
        n,
        t.render()
    ));
    out.push_str(
        "paper: IMPACC ahead on PSG via direct DtoD halos; on Beacon the gap\n\
         opens as communication dominates (16-64 tasks); communication-bound\n\
         at 128+ tasks everywhere.\n",
    );
    out
}

/// Run Figure 14 (DtoD communication-time breakdown on PSG).
pub fn run_fig14() -> String {
    run_fig14_traced(None)
}

/// [`run_fig14`], optionally dumping a Chrome trace of one IMPACC and one
/// baseline Jacobi run (merged as two trace processes) to `trace`, and
/// appending a span-derived copy breakdown that reproduces the figure's
/// stacks directly from the timeline.
pub fn run_fig14_traced(trace: Option<&str>) -> String {
    let mut out = String::new();
    out.push_str("Figure 14: Jacobi device-to-device communication time on PSG (ms aggregate)\n\n");
    let sizes = if quick() {
        vec![1024]
    } else {
        vec![2048, 4096, 8192]
    };
    let mut t = Table::new(&[
        "tasks",
        "mesh",
        "IMPACC DtoD",
        "MPI+X DtoH",
        "MPI+X HtoH",
        "MPI+X HtoD",
        "MPI+X total",
    ]);
    for &n in &sizes {
        for tasks in [2usize, 4, 8] {
            let ms = |opts: RuntimeOptions, key: &'static str| {
                sweep_metric(|| psg_tasks(tasks), opts, n, key) * 1e3
            };
            let i_dtod = ms(RuntimeOptions::impacc(), "t_DtoD");
            let b_dtoh = ms(RuntimeOptions::baseline(), "t_DtoH");
            let b_htoh = ms(RuntimeOptions::baseline(), "t_HtoH");
            let b_htod = ms(RuntimeOptions::baseline(), "t_HtoD");
            t.row(vec![
                tasks.to_string(),
                format!("{n}"),
                format!("{i_dtod:.3}"),
                format!("{b_dtoh:.3}"),
                format!("{b_htoh:.3}"),
                format!("{b_htod:.3}"),
                format!("{:.3}", b_dtoh + b_htoh + b_htod),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\npaper: IMPACC needs a single direct transfer over PCIe; MPI+OpenACC\n\
         adds host CPU and system-memory hops (DtoH + HtoH + HtoD).\n",
    );
    if let Some(path) = trace {
        out.push('\n');
        out.push_str(&trace_fig14(path));
    }
    out
}

/// Capture one IMPACC and one baseline Jacobi run with a span recorder,
/// write the merged Chrome trace to `path`, and return the span-derived
/// copy breakdown (sweep phase only — the setup `copyin`s are cut off at
/// the jacobi `phase=sweep` marker).
fn trace_fig14(path: &str) -> String {
    let n = if quick() { 1024 } else { 4096 };
    let tasks = 4;
    let traced = |opts: RuntimeOptions| {
        let rec = Recorder::new();
        let p = JacobiParams {
            n,
            iters: ITERS,
            verify: false,
        };
        Launch::new(psg_tasks(tasks), opts)
            .phys_cap(4096)
            .recorder(&rec)
            .run_async(move |tc| {
                let p = p.clone();
                async move { jacobi_task(&tc, &p, None).await }
            })
            .expect("jacobi run");
        rec.spans()
    };
    let i_spans = traced(RuntimeOptions::impacc());
    let b_spans = traced(RuntimeOptions::baseline());

    let mut out = format!(
        "Span-derived sweep copy breakdown ({tasks} tasks, {n}x{n} mesh; baseline = 1.0):\n"
    );
    let rows = vec![
        breakdown::CopyBreakdown::from_spans(
            "MPI+OpenACC",
            &b_spans,
            breakdown::phase_entered(&b_spans, "sweep"),
        ),
        breakdown::CopyBreakdown::from_spans(
            "IMPACC",
            &i_spans,
            breakdown::phase_entered(&i_spans, "sweep"),
        ),
    ];
    out.push_str(&breakdown::copy_table(&rows));

    match chrome::write_trace_groups(
        std::path::Path::new(path),
        &[("impacc", &i_spans), ("baseline", &b_spans)],
    ) {
        Ok(()) => out.push_str(&format!(
            "\nChrome trace written to {path} ({} + {} spans); open via ui.perfetto.dev\n",
            i_spans.len(),
            b_spans.len()
        )),
        Err(e) => out.push_str(&format!("\nwarning: could not write {path}: {e}\n")),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impacc_dtod_time_is_fraction_of_baseline_chain() {
        // Large enough rows that the transfers are bandwidth- (not
        // latency-) bound, as in the paper's mesh sizes.
        let n = 4096;
        let i_dtod = sweep_metric(|| psg_tasks(4), RuntimeOptions::impacc(), n, "t_DtoD");
        let b_chain = sweep_metric(|| psg_tasks(4), RuntimeOptions::baseline(), n, "t_DtoH")
            + sweep_metric(|| psg_tasks(4), RuntimeOptions::baseline(), n, "t_HtoH")
            + sweep_metric(|| psg_tasks(4), RuntimeOptions::baseline(), n, "t_HtoD");
        assert!(i_dtod > 0.0);
        assert!(
            b_chain > 2.0 * i_dtod,
            "baseline chain {b_chain} vs IMPACC DtoD {i_dtod}"
        );
    }

    fn traced_spans(opts: RuntimeOptions, n: usize) -> Vec<impacc_obs::Span> {
        let rec = Recorder::new();
        let p = JacobiParams {
            n,
            iters: 10,
            verify: false,
        };
        Launch::new(psg_tasks(4), opts)
            .phys_cap(4096)
            .recorder(&rec)
            .run_async(move |tc| {
                let p = p.clone();
                async move { jacobi_task(&tc, &p, None).await }
            })
            .unwrap();
        rec.spans()
    }

    #[test]
    fn span_breakdown_reproduces_fig14_ratio() {
        // The acceptance shape: per-copy-kind span totals (sweep phase
        // only) must show IMPACC's direct DtoD as a fraction of the
        // baseline's DtoH + HtoH + HtoD chain. Needs a bandwidth-bound
        // mesh: at 1024 the per-row transfers are latency-dominated and
        // the chain advantage shrinks below the asserted 2x.
        let i = traced_spans(RuntimeOptions::impacc(), 2048);
        let b = traced_spans(RuntimeOptions::baseline(), 2048);
        let ib =
            breakdown::CopyBreakdown::from_spans("i", &i, breakdown::phase_entered(&i, "sweep"));
        let bb =
            breakdown::CopyBreakdown::from_spans("b", &b, breakdown::phase_entered(&b, "sweep"));
        let chain = bb.secs[0] + bb.secs[1] + bb.secs[2]; // HtoH + HtoD + DtoH
        assert!(ib.secs[3] > 0.0, "IMPACC sweep must run on DtoD spans");
        assert!(
            chain > 2.0 * ib.secs[3],
            "baseline chain {chain} vs IMPACC DtoD {}",
            ib.secs[3]
        );
        let doc = chrome::trace_groups(&[("impacc", &i), ("baseline", &b)]);
        assert!(chrome::structurally_valid(&doc));
    }

    #[test]
    fn tracing_does_not_perturb_virtual_time() {
        let p = JacobiParams {
            n: 512,
            iters: 5,
            verify: false,
        };
        for opts in [RuntimeOptions::impacc(), RuntimeOptions::baseline()] {
            let plain = run_jacobi(psg_tasks(2), opts, Some(4096), p.clone()).unwrap();
            let rec = Recorder::new();
            let traced = {
                let p = p.clone();
                Launch::new(psg_tasks(2), opts)
                    .phys_cap(4096)
                    .recorder(&rec)
                    .run_async(move |tc| {
                        let p = p.clone();
                        async move { jacobi_task(&tc, &p, None).await }
                    })
                    .unwrap()
            };
            assert!(rec.span_count() > 0);
            assert_eq!(
                plain.elapsed_secs().to_bits(),
                traced.elapsed_secs().to_bits(),
                "recording must not change virtual time"
            );
            assert_eq!(plain.report.metrics, traced.report.metrics);
        }
    }

    #[test]
    fn impacc_leads_across_psg_task_counts() {
        let n = 2048;
        let base1 = jacobi(psg_tasks(1), RuntimeOptions::baseline(), n).elapsed_secs();
        for tasks in [2usize, 8] {
            let i = jacobi(psg_tasks(tasks), RuntimeOptions::impacc(), n).elapsed_secs();
            let b = jacobi(psg_tasks(tasks), RuntimeOptions::baseline(), n).elapsed_secs();
            assert!(
                base1 / i > base1 / b,
                "{tasks} tasks: IMPACC {:.2}x vs baseline {:.2}x",
                base1 / i,
                base1 / b
            );
        }
    }
}
