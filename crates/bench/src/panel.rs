//! One runner for the four §4.2 applications, and the scaling panel
//! Figures 10, 12, 13 and 15 are made of: IMPACC against MPI+OpenACC at
//! each task count, every point launched once and normalized to the first
//! row's MPI+OpenACC run.

use impacc_apps::{
    dgemm_task, ep_task, jacobi_task, lulesh_task, DgemmParams, EpClass, EpParams, JacobiParams,
    LuleshParams,
};
use impacc_core::{Launch, RunSummary, RuntimeOptions};
use impacc_machine::MachineSpec;
use impacc_obs::Recorder;

use crate::specs::Machine;
use crate::util::Table;

/// One of the §4.2 applications at one problem size.
#[derive(Clone, Copy, Debug)]
pub enum App {
    /// DGEMM on `n×n` matrices.
    Dgemm(usize),
    /// NAS EP at a problem class.
    Ep(EpClass),
    /// Jacobi: an `n×n` mesh, `iters` sweeps.
    Jacobi(usize, usize),
    /// LULESH: `s³` elements per task, `iters` time steps.
    Lulesh(usize, usize),
}

impl App {
    /// Launch the app over `spec` under `opts`, with `rec` attached when
    /// given. Every app but EP stores at most 4 KiB of each allocation
    /// ([`Launch::phys_cap`]): the runs are timed, not checked, and the cap
    /// keeps the Titan-scale points in memory.
    pub fn run_with(
        self,
        spec: MachineSpec,
        opts: RuntimeOptions,
        rec: Option<&Recorder>,
    ) -> RunSummary {
        let mut l = Launch::new(spec, opts);
        if !matches!(self, App::Ep(_)) {
            l = l.phys_cap(4096);
        }
        if let Some(rec) = rec {
            l = l.recorder(rec);
        }
        let verify = false;
        match self {
            App::Dgemm(n) => {
                let p = DgemmParams { n, verify };
                l.run_async(move |tc| {
                    let p = p.clone();
                    async move { dgemm_task(&tc, &p).await }
                })
            }
            App::Ep(class) => {
                let (total_pairs, sample_pairs) = (class.pairs(), 1 << 10);
                let p = EpParams {
                    total_pairs,
                    sample_pairs,
                };
                l.run_async(move |tc| {
                    let p = p.clone();
                    async move {
                        ep_task(&tc, &p).await;
                    }
                })
            }
            App::Jacobi(n, iters) => {
                let p = JacobiParams { n, iters, verify };
                l.run_async(move |tc| {
                    let p = p.clone();
                    async move { jacobi_task(&tc, &p, None).await }
                })
            }
            App::Lulesh(s, iters) => {
                let p = LuleshParams { s, iters, verify };
                l.run_async(move |tc| {
                    let p = p.clone();
                    async move { lulesh_task(&tc, &p).await }
                })
            }
        }
        .unwrap_or_else(|e| panic!("{self:?} run: {e}"))
    }

    /// [`App::run_with`] without a recorder.
    pub fn run(self, spec: MachineSpec, opts: RuntimeOptions) -> RunSummary {
        self.run_with(spec, opts, None)
    }

    /// The run's virtual end time in seconds.
    pub fn secs(self, spec: MachineSpec, opts: RuntimeOptions) -> f64 {
        self.run(spec, opts).elapsed_secs()
    }
}

/// How a panel prints IMPACC's time `i` and MPI+OpenACC's `b` against
/// the normalization time `base`.
#[derive(Clone, Copy, Debug)]
pub enum Form {
    /// Speedups `base / t`, as `{:.2}x`.
    Speedup,
    /// [`Form::Speedup`] plus an `IMPACC/MPI+X` column `b / i`.
    SpeedupRatio,
    /// Normalized times `t / base`, as `{:.2}`, plus an `IMPACC/MPI+X`
    /// column `i / b` as `{:.3}`.
    TimeRatio,
}

/// One scaling panel: `app` on `machine(tasks)` for each of `counts`.
pub struct Panel {
    /// The line above the table, without its colon.
    pub title: String,
    /// The machine for each task count.
    pub machine: Machine,
    /// Task counts, one row each.
    pub counts: Vec<usize>,
    /// What runs at each count.
    pub app: App,
    /// How the rows print.
    pub form: Form,
}

impl Panel {
    /// A panel of speedups ([`Form::Speedup`]).
    pub fn new(title: String, machine: Machine, counts: Vec<usize>, app: App) -> Panel {
        Panel {
            title,
            machine,
            counts,
            app,
            form: Form::Speedup,
        }
    }

    /// Launch the panel's `2 × counts.len()` runs and render it.
    pub fn render(&self) -> String {
        let mut header = vec!["tasks", "IMPACC", "MPI+OpenACC"];
        if !matches!(self.form, Form::Speedup) {
            header.push("IMPACC/MPI+X");
        }
        let mut t = Table::new(&header);
        let (app, machine, mut norm) = (self.app, self.machine, None);
        for &tasks in &self.counts {
            let i = app.secs(machine(tasks), RuntimeOptions::impacc());
            let b = app.secs(machine(tasks), RuntimeOptions::baseline());
            let base = *norm.get_or_insert(b);
            let values = match self.form {
                Form::Speedup => vec![base / i, base / b],
                Form::SpeedupRatio => vec![base / i, base / b, b / i],
                Form::TimeRatio => vec![i / base, b / base, i / b],
            };
            let mut row = vec![tasks.to_string()];
            for (k, v) in values.into_iter().enumerate() {
                row.push(match self.form {
                    Form::TimeRatio if k == 2 => format!("{v:.3}"),
                    Form::TimeRatio => format!("{v:.2}"),
                    _ => format!("{v:.2}x"),
                });
            }
            t.row(row);
        }
        format!("{}:\n{}\n", self.title, t.render())
    }
}

/// A figure of panels: `head`, each panel in order, then `note`.
pub fn figure(head: &str, panels: &[Panel], note: &str) -> String {
    let body: String = panels.iter().map(Panel::render).collect();
    format!("{head}{body}{note}")
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::specs::psg_tasks;

    static MACHINES: AtomicUsize = AtomicUsize::new(0);

    fn counted_psg(tasks: usize) -> MachineSpec {
        MACHINES.fetch_add(1, Ordering::Relaxed);
        psg_tasks(tasks)
    }

    #[test]
    fn a_panel_runs_each_point_once_and_normalizes_to_its_first_row() {
        let panel = Panel::new("PSG".into(), counted_psg, vec![1, 2, 4], App::Dgemm(256));
        let text = panel.render();
        assert_eq!(MACHINES.load(Ordering::Relaxed), 2 * panel.counts.len());
        let first = text.lines().nth(3).expect("first row");
        assert!(first.trim_end().ends_with("1.00x"), "{text}");
    }

    /// The cells of `text`'s table rows (after the title, header and rule).
    fn cells(text: &str) -> Vec<Vec<String>> {
        let rows = text.lines().skip(3).filter(|l| !l.trim().is_empty());
        rows.map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect()
    }

    /// Whether `ratio` (printed to two places or more) is `i / b` for the
    /// two-place values `i` and `b`, allowing for the rounding of all three.
    fn quotient_of_rounded(ratio: f64, i: f64, b: f64) -> bool {
        let q = i / b;
        (ratio - q).abs() <= q * (0.005 / i + 0.005 / b) + 0.005
    }

    #[test]
    fn a_time_ratio_panel_prints_normalized_times_and_a_three_place_ratio() {
        let panel = Panel {
            form: Form::TimeRatio,
            ..Panel::new("PSG".into(), psg_tasks, vec![1, 2], App::Dgemm(256))
        };
        let text = panel.render();
        assert!(
            text.lines().nth(1).unwrap().ends_with("IMPACC/MPI+X"),
            "{text}"
        );
        let rows = cells(&text);
        assert_eq!(rows.len(), 2, "{text}");
        assert_eq!(
            rows[0][2], "1.00",
            "first row's baseline is the norm: {text}"
        );
        for row in &rows {
            let [i, b, ratio] = [1, 2, 3].map(|k| row[k].parse::<f64>().expect("a number"));
            assert_eq!(row[3].split('.').nth(1).map(str::len), Some(3), "{text}");
            assert!(quotient_of_rounded(ratio, i, b), "ratio is i/b: {text}");
        }
    }

    #[test]
    fn a_speedup_ratio_panel_adds_the_baseline_over_impacc_column() {
        let panel = Panel {
            form: Form::SpeedupRatio,
            ..Panel::new("PSG".into(), psg_tasks, vec![1, 2], App::Dgemm(256))
        };
        let text = figure("head\n", &[panel], "note\n");
        let body = text
            .strip_prefix("head\n")
            .and_then(|t| t.strip_suffix("note\n"));
        let body = body.unwrap_or_else(|| panic!("head, panel, note: {text}"));
        assert!(body.starts_with("PSG:\n"), "{text}");
        let rows = cells(body);
        assert_eq!(rows.len(), 2, "{text}");
        assert_eq!(
            rows[0][2], "1.00x",
            "first row's baseline is the norm: {text}"
        );
        for row in &rows {
            let [i, b, ratio] = [1, 2, 3].map(|k| {
                let v = row[k].strip_suffix('x').expect("a speedup");
                v.parse::<f64>().expect("a number")
            });
            // Speedups are base/i and base/b, so their quotient is b/i.
            assert!(quotient_of_rounded(ratio, i, b), "ratio is b/i: {text}");
        }
    }
}
