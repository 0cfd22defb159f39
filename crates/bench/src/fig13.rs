//! Figures 13 & 14 — Jacobi strong scaling and the device-to-device
//! communication-time breakdown.
//!
//! Figure 13: speedup over the MPI+OpenACC 1-task run for 1K–8K meshes on
//! PSG, up to 128 tasks on Beacon, 128+ on Titan.
//!
//! Figure 14: total device-to-device communication time on PSG — IMPACC's
//! single direct DtoD transfer vs the baseline's DtoH + HtoH + HtoD chain.

use impacc_core::{RunSummary, RuntimeOptions};
use impacc_obs::{breakdown, chrome, Recorder, Span};

use crate::panel::{figure, App, Panel};
use crate::specs::{beacon_tasks, psg_tasks, titan_tasks};
use crate::util::{quick, Table};

const ITERS: usize = 50;

/// The copy-time metrics of `ITERS` sweeps alone on `tasks` PSG tasks:
/// the same run with zero sweeps (setup `copyin`s only) is subtracted
/// out. Returns the metric reader, in seconds.
fn sweep_metrics(tasks: usize, opts: RuntimeOptions, n: usize) -> impl Fn(&str) -> f64 {
    let run = |iters| App::Jacobi(n, iters).run(psg_tasks(tasks), opts);
    let (with, setup) = (run(ITERS), run(0));
    let ps = |s: &RunSummary, key: &str| s.report.metrics.get(key).copied().unwrap_or(0);
    move |key| (ps(&with, key) - ps(&setup, key)) as f64 / 1e12
}

/// The spans of one `iters`-sweep Jacobi on 4 PSG tasks.
fn traced_spans(opts: RuntimeOptions, n: usize, iters: usize) -> Vec<Span> {
    let rec = Recorder::new();
    App::Jacobi(n, iters).run_with(psg_tasks(4), opts, Some(&rec));
    rec.spans()
}

/// Per-copy-kind span totals of the sweep phase alone: the setup
/// `copyin`s end at the Jacobi `phase=sweep` marker.
fn sweep_copies(label: &str, spans: &[Span]) -> breakdown::CopyBreakdown {
    breakdown::CopyBreakdown::from_spans(label, spans, breakdown::phase_entered(spans, "sweep"))
}

/// Figure 13's panels, in print order.
pub fn panels() -> Vec<Panel> {
    let jacobi = |n| App::Jacobi(n, ITERS);
    let sizes = if quick() {
        vec![1024]
    } else {
        vec![1024, 2048, 4096, 8192]
    };
    let mut panels: Vec<Panel> = sizes
        .into_iter()
        .map(|n| {
            let title = format!("PSG, {n}x{n} mesh");
            Panel::new(title, psg_tasks, vec![1, 2, 4, 8], jacobi(n))
        })
        .collect();
    let (n, counts) = if quick() {
        (2048, vec![1, 8, 32])
    } else {
        (8192, vec![1, 2, 4, 8, 16, 32, 64, 128])
    };
    let title = format!("Beacon, {n}x{n} mesh");
    panels.push(Panel::new(title, beacon_tasks, counts, jacobi(n)));
    let (n, counts) = if quick() {
        (4096, vec![128, 256])
    } else {
        (16384, vec![128, 256, 512, 1024])
    };
    let title = format!("Titan, {n}x{n} mesh (normalized to 128-task MPI+X)");
    panels.push(Panel::new(title, titan_tasks, counts, jacobi(n)));
    panels
}

/// Run Figure 13; returns the rendered report.
pub fn run() -> String {
    figure(
        "Figure 13: Jacobi strong scaling (speedup over MPI+OpenACC 1-task)\n\n",
        &panels(),
        "paper: IMPACC ahead on PSG via direct DtoD halos; on Beacon the gap\n\
         opens as communication dominates (16-64 tasks); communication-bound\n\
         at 128+ tasks everywhere.\n",
    )
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
    let mut out = "Figure 14: Jacobi device-to-device communication time on PSG (ms aggregate)\n\n"
        .to_string();
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
            let i = sweep_metrics(tasks, RuntimeOptions::impacc(), n);
            let b = sweep_metrics(tasks, RuntimeOptions::baseline(), n);
            let ms = [i("t_DtoD"), b("t_DtoH"), b("t_HtoH"), b("t_HtoD")].map(|s| s * 1e3);
            let mut row = vec![tasks.to_string(), n.to_string()];
            row.extend(ms.iter().map(|v| format!("{v:.3}")));
            row.push(format!("{:.3}", ms[1] + ms[2] + ms[3]));
            t.row(row);
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
/// sweep copy breakdown.
fn trace_fig14(path: &str) -> String {
    let n = if quick() { 1024 } else { 4096 };
    let i_spans = traced_spans(RuntimeOptions::impacc(), n, ITERS);
    let b_spans = traced_spans(RuntimeOptions::baseline(), n, ITERS);
    let mut out =
        format!("Span-derived sweep copy breakdown (4 tasks, {n}x{n} mesh; baseline = 1.0):\n");
    let rows = [
        sweep_copies("MPI+OpenACC", &b_spans),
        sweep_copies("IMPACC", &i_spans),
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
        let i_dtod = sweep_metrics(4, RuntimeOptions::impacc(), n)("t_DtoD");
        let baseline = sweep_metrics(4, RuntimeOptions::baseline(), n);
        let b_chain = baseline("t_DtoH") + baseline("t_HtoH") + baseline("t_HtoD");
        assert!(i_dtod > 0.0);
        assert!(
            b_chain > 2.0 * i_dtod,
            "baseline chain {b_chain} vs IMPACC DtoD {i_dtod}"
        );
    }

    #[test]
    fn span_breakdown_reproduces_fig14_ratio() {
        // The acceptance shape: per-copy-kind span totals (sweep phase
        // only) must show IMPACC's direct DtoD as a fraction of the
        // baseline's DtoH + HtoH + HtoD chain. Needs a bandwidth-bound
        // mesh: at 1024 the per-row transfers are latency-dominated and
        // the chain advantage shrinks below the asserted 2x.
        let i = traced_spans(RuntimeOptions::impacc(), 2048, 10);
        let b = traced_spans(RuntimeOptions::baseline(), 2048, 10);
        let (ib, bb) = (sweep_copies("i", &i), sweep_copies("b", &b));
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
        let jacobi = App::Jacobi(512, 5);
        for opts in [RuntimeOptions::impacc(), RuntimeOptions::baseline()] {
            let plain = jacobi.run(psg_tasks(2), opts);
            let rec = Recorder::new();
            let traced = jacobi.run_with(psg_tasks(2), opts, Some(&rec));
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
        let jacobi = App::Jacobi(2048, ITERS);
        let base1 = jacobi.secs(psg_tasks(1), RuntimeOptions::baseline());
        for tasks in [2usize, 8] {
            let i = jacobi.secs(psg_tasks(tasks), RuntimeOptions::impacc());
            let b = jacobi.secs(psg_tasks(tasks), RuntimeOptions::baseline());
            assert!(
                base1 / i > base1 / b,
                "{tasks} tasks: IMPACC {:.2}x vs baseline {:.2}x",
                base1 / i,
                base1 / b
            );
        }
    }
}
