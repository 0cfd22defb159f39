//! Figures 10 & 11 — DGEMM strong scaling and execution-time breakdown.
//!
//! Figure 10: speedup over the MPI+OpenACC single-task run, for
//! (a–d) PSG with 1K–8K matrices and 1–8 tasks, (e) Beacon up to 128
//! tasks, (f) Titan with 24K matrices from 128 tasks up.
//!
//! Figure 11 reuses the PSG runs: normalized execution-time breakdown
//! (kernel / device copies / communication) per configuration.
//!
//! Paper's shape: the baseline stops scaling (or regresses) on small
//! matrices where communication dominates; IMPACC keeps scaling thanks to
//! aliasing + fused copies + the unified queue; on Titan both degrade
//! past 1024 nodes with IMPACC up to ~1.6× ahead.

use impacc_core::RuntimeOptions;

use crate::panel::{figure, App, Form, Panel};
use crate::specs::{beacon_tasks, psg_tasks, titan_tasks};
use crate::util::{comm_secs, copy_secs, kernel_secs, quick, Table};

/// The PSG matrix sizes for panels (a)–(d).
pub fn psg_sizes() -> Vec<usize> {
    if quick() {
        vec![1024, 2048]
    } else {
        vec![1024, 2048, 4096, 8192]
    }
}

/// Figure 10's panels, in print order.
pub fn panels() -> Vec<Panel> {
    let mut panels: Vec<Panel> = psg_sizes()
        .into_iter()
        .map(|n| {
            let title = format!("PSG, {n}x{n}");
            Panel::new(title, psg_tasks, vec![1, 2, 4, 8], App::Dgemm(n))
        })
        .collect();
    let (n, counts) = if quick() {
        (1024, vec![1, 4, 16])
    } else {
        (4096, vec![1, 2, 4, 8, 16, 32, 64, 128])
    };
    let title = format!("Beacon, {n}x{n}");
    panels.push(Panel::new(title, beacon_tasks, counts, App::Dgemm(n)));
    let (n, counts) = if quick() {
        (4096, vec![128, 256])
    } else {
        (24576, vec![128, 256, 512, 1024, 2048, 4096, 8192])
    };
    let title = format!("Titan, {n}x{n} (normalized to 128-task MPI+X)");
    panels.push(Panel {
        form: Form::SpeedupRatio,
        ..Panel::new(title, titan_tasks, counts, App::Dgemm(n))
    });
    panels
}

/// Run Figure 10; returns the rendered report.
pub fn run() -> String {
    figure(
        "Figure 10: DGEMM strong scaling (speedup over MPI+OpenACC 1-task)\n\n",
        &panels(),
        "paper: baseline degrades on small PSG matrices while IMPACC scales;\n\
         IMPACC pulls ahead from 32 Beacon tasks; on Titan both degrade past\n\
         1024 nodes, IMPACC up to ~1.6x ahead at 1024.\n",
    )
}

/// Run Figure 11 (execution-time breakdown on PSG).
pub fn run_fig11() -> String {
    let mut out = "Figure 11: DGEMM execution-time breakdown on PSG\n\
         (seconds of aggregate activity; normalized to the MPI+X 1-task total per size)\n\n"
        .to_string();
    for n in psg_sizes() {
        let runs: Vec<_> = [1usize, 2, 4, 8]
            .into_iter()
            .flat_map(|tasks| {
                [
                    ("IMPACC", RuntimeOptions::impacc()),
                    ("MPI+X", RuntimeOptions::baseline()),
                ]
                .map(|(label, opts)| (tasks, label, App::Dgemm(n).run(psg_tasks(tasks), opts)))
            })
            .collect();
        // The 1-task MPI+X run is the second one launched.
        let base_total = runs[1].2.elapsed_secs();
        let mut t = Table::new(&[
            "tasks",
            "runtime",
            "kernel",
            "copies",
            "comm",
            "total(norm)",
        ]);
        for (tasks, label, s) in &runs {
            t.row(vec![
                tasks.to_string(),
                label.to_string(),
                format!("{:.4}", kernel_secs(s)),
                format!("{:.4}", copy_secs(s)),
                format!("{:.4}", comm_secs(s)),
                format!("{:.2}", s.elapsed_secs() / base_total),
            ]);
        }
        out.push_str(&format!("PSG, {0}x{0}:\n{1}\n", n, t.render()));
    }
    out.push_str(
        "paper: IMPACC dramatically reduces communication time for small\n\
         matrices; kernels dominate (and hide communication) at 8K.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impacc_scales_where_baseline_stalls_small_psg() {
        let dgemm = App::Dgemm(512);
        let b1 = dgemm.secs(psg_tasks(1), RuntimeOptions::baseline());
        let b8 = dgemm.secs(psg_tasks(8), RuntimeOptions::baseline());
        let i8 = dgemm.secs(psg_tasks(8), RuntimeOptions::impacc());
        let impacc_speedup = b1 / i8;
        let baseline_speedup = b1 / b8;
        assert!(
            impacc_speedup > baseline_speedup,
            "IMPACC {impacc_speedup:.2}x vs baseline {baseline_speedup:.2}x"
        );
    }

    #[test]
    fn gap_narrows_as_matrices_grow() {
        // Kernel time grows as n^3 while communication grows as n^2, so
        // the baseline's disadvantage must shrink with n (Figure 10/11).
        let ratio_at = |n: usize| {
            let i = App::Dgemm(n).secs(psg_tasks(4), RuntimeOptions::impacc());
            let b = App::Dgemm(n).secs(psg_tasks(4), RuntimeOptions::baseline());
            b / i
        };
        let small = ratio_at(512);
        let large = ratio_at(8192);
        assert!(small > large, "gap must narrow: {small:.2} -> {large:.2}");
        assert!(large < 2.0, "8K should be kernel-dominated: {large:.2}");
    }
}
