//! Critical-path profiling plumbing shared by the figure binaries and the
//! standalone `prof` bin.
//!
//! Any of `fig5`, `fig12`, `fig14` re-run one representative configuration
//! with a span/edge recorder attached when `--critical-path` is passed,
//! feed the trace to [`impacc_prof::analyze`],
//! print the text report, and persist a deterministic `PROF_<name>.json`
//! next to the `BENCH_*.json` artifacts.

use std::path::PathBuf;

use impacc_apps::EpClass;
use impacc_core::RuntimeOptions;
use impacc_obs::{chrome, Recorder};
use impacc_prof::Report;

use crate::fig5;
use crate::panel::App;
use crate::specs::psg_tasks;
use crate::util::quick;

/// Where `PROF_<name>.json` is written: `$IMPACC_BENCH_DIR` when set, else
/// the current directory (mirrors `BenchReport::path`).
pub fn prof_path(name: &str) -> PathBuf {
    impacc_core::config::bench_dir().join(format!("PROF_{name}.json"))
}

/// Analyze a recorded run, persist `PROF_<name>.json` (and optionally a
/// critical-path-highlighted Chrome trace), and return the text report
/// plus the analysis itself.
pub fn report_and_persist(name: &str, rec: &Recorder, trace: Option<&str>) -> (String, Report) {
    let spans = rec.spans();
    let report = impacc_prof::analyze(&spans, &rec.edges());
    debug_assert_eq!(
        report.blame_total(),
        report.end_ps,
        "critical-path blame must tile the run exactly"
    );
    let mut out = report.render_text(name);
    let path = prof_path(name);
    match std::fs::write(&path, report.to_json(name)) {
        Ok(()) => out.push_str(&format!("\nprofile written to {}\n", path.display())),
        Err(e) => out.push_str(&format!(
            "\nwarning: could not write {}: {e}\n",
            path.display()
        )),
    }
    if let Some(tpath) = trace {
        let crit: Vec<chrome::CritSeg> = report
            .path
            .iter()
            .map(|p| chrome::CritSeg {
                actor: p.actor.clone(),
                kind: p.kind.clone(),
                t0: p.t0,
                t1: p.t1,
            })
            .collect();
        match chrome::write_trace_with_critical_path(std::path::Path::new(tpath), &spans, &crit) {
            Ok(()) => out.push_str(&format!(
                "critical-path Chrome trace written to {tpath}; open via ui.perfetto.dev\n"
            )),
            Err(e) => out.push_str(&format!("warning: could not write {tpath}: {e}\n")),
        }
    }
    (out, report)
}

/// Record the named figure workload's representative run: fig 5's
/// unified-queue exchange, fig 12's EP (class A on 4 PSG tasks: pure
/// compute plus a single allreduce) or fig 14's Jacobi (IMPACC on 4 PSG
/// tasks: the DtoD-heavy workload the what-if projections are most
/// interesting on). An unknown name is a readable error.
pub fn record(name: &str) -> Result<Recorder, String> {
    let rec = Recorder::new();
    let impacc = RuntimeOptions::impacc();
    match name {
        "fig5" => {
            let style = fig5::Style::UnifiedQueue;
            fig5::launch(style)
                .recorder(&rec)
                .run_async(move |tc| async move { fig5::exchange(&tc, style).await })
                .expect("figure 5 run");
        }
        "fig12" => {
            App::Ep(EpClass::A).run_with(psg_tasks(4), impacc, Some(&rec));
        }
        "fig14" => {
            let n = if quick() { 512 } else { 2048 };
            App::Jacobi(n, 10).run_with(psg_tasks(4), impacc, Some(&rec));
        }
        other => {
            return Err(format!(
                "unknown profile workload {other:?}; available: fig5, fig12, fig14"
            ))
        }
    }
    Ok(rec)
}

/// Render the ranked slack view of a report (the `prof --slack` output):
/// top off-path segments by how much they could grow before joining the
/// critical path.
pub fn render_slack(name: &str, r: &Report) -> String {
    let us = |ps: u64| ps as f64 / 1e6;
    let mut out = format!(
        "slack: {name} — top {} off-path segments by grow-room before joining \
         the critical path\n",
        r.slack.len()
    );
    if r.slack.is_empty() {
        out.push_str("  (none: every work segment sits on the critical path)\n");
    }
    for s in &r.slack {
        out.push_str(&format!(
            "  [{:>12.3} .. {:>12.3}] us  {:<12} on {:<16} slack {:>12.3} us\n",
            us(s.t0.0),
            us(s.t1.0),
            s.kind,
            s.actor,
            us(s.slack_ps)
        ));
    }
    out
}

/// Profile the named figure workload; returns the text report section, or
/// a readable error for an unknown workload name (callers exit nonzero).
/// `trace` optionally writes a critical-path-highlighted Chrome trace;
/// `slack` selects the ranked off-path slack view instead of the full
/// blame report.
pub fn profile_figure(name: &str, trace: Option<&str>, slack: bool) -> Result<String, String> {
    let rec = record(name)?;
    let (out, report) = report_and_persist(name, &rec, trace);
    Ok(if slack {
        render_slack(name, &report)
    } else {
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use impacc_obs::EventKind;

    #[test]
    fn fig14_profile_blames_dtod_and_projects_improvement() {
        let rec = record("fig14").unwrap();
        let r = impacc_prof::analyze(&rec.spans(), &rec.edges());
        assert!(r.end_ps > 0);
        assert_eq!(r.blame_total(), r.end_ps, "blame tiles the run");
        // Jacobi halos ride direct DtoD copies under IMPACC, so the
        // zero-cost-DtoD what-if must predict a faster run (the measured
        // fig 14 direction).
        let proj = r.what_if["zero_cost_dtod"];
        assert!(
            proj < r.end_ps,
            "zero-DtoD projection {proj} should beat measured {}",
            r.end_ps
        );
        // Edges were recorded: wakes at minimum, plus the fused-message
        // machinery.
        assert!(r.edges > 0, "causal edges must be recorded");
    }

    #[test]
    fn fig12_profile_agrees_with_measured_null_ablation() {
        // Fig 12's measured result: EP is pure compute and IMPACC ==
        // MPI+OpenACC ("nothing to optimize"). The single-trace what-if
        // must agree in direction: removing DtoD copies from the critical
        // path projects (essentially) no speedup.
        let rec = record("fig12").unwrap();
        let r = impacc_prof::analyze(&rec.spans(), &rec.edges());
        assert!(r.end_ps > 0);
        assert_eq!(r.blame_total(), r.end_ps);
        let proj = r.what_if["zero_cost_dtod"];
        let delta = (r.end_ps - proj) as f64 / r.end_ps as f64;
        assert!(
            delta < 0.05,
            "EP projection should be ~null, got {:.1}% speedup",
            delta * 100.0
        );
        // And compute (kernel + untracked host work) dominates the path.
        let compute = r.blame_by_kind.get("kernel").copied().unwrap_or(0)
            + r.blame_by_kind
                .get(impacc_prof::COMPUTE)
                .copied()
                .unwrap_or(0);
        assert!(
            compute as f64 > 0.5 * r.end_ps as f64,
            "EP critical path should be compute-dominated"
        );
    }

    #[test]
    fn fig5_profile_covers_the_exchange() {
        let rec = record("fig5").unwrap();
        let r = impacc_prof::analyze(&rec.spans(), &rec.edges());
        assert_eq!(r.blame_total(), r.end_ps);
        assert!(r.end_ps > 0);
        // The exchange moves data: some copy kind must sit on the path.
        let any_copy = EventKind::ALL
            .iter()
            .filter(|k| k.is_copy())
            .any(|k| r.blame_by_kind.contains_key(k.label()));
        assert!(any_copy, "blame: {:?}", r.blame_by_kind);
    }
}
