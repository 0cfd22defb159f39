//! Figures 4 & 5 — the paper's motivating example: the same
//! kernel → send → recv → kernel exchange written three ways, and where
//! the host thread's time goes in each.
//!
//! * (a) fully synchronous MPI+OpenACC: blocking kernels and blocking
//!   MPI — the host idles through every operation.
//! * (b) asynchronous MPI+OpenACC: `async` queues and `MPI_Isend/Irecv`,
//!   but explicit `acc wait` / `MPI_Waitall` synchronization points
//!   between the two orthogonal streamlines.
//! * (c) the IMPACC unified activity queue: everything (kernels *and*
//!   MPI calls) rides queue 1 in order; the host never blocks until the
//!   final wait — and is free to do other work meanwhile.

use impacc_apps::math_ok;
use impacc_core::{Launch, MpiOpts, Rank, RunSummary, RuntimeOptions};
use impacc_machine::{presets, KernelCost, MachineSpec};
use impacc_obs::{chrome, Recorder};

use crate::util::Table;

/// Which of Figure 4's three listings to run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Style {
    /// Figure 4(a).
    Synchronous,
    /// Figure 4(b).
    AsyncWithWaits,
    /// Figure 4(c).
    UnifiedQueue,
}

const N: usize = 1 << 18; // 2 Mi bytes per buffer

/// One kernel → send/recv → kernel exchange between two ranks, synchronized
/// the way `style` says.
pub async fn exchange(tc: &Rank, style: Style) {
    let peer = 1 - tc.rank();
    let me = tc.rank() as f64;
    let buf0 = tc.malloc_f64(N).await;
    let buf1 = tc.malloc_f64(N).await;
    tc.acc_create(&buf0);
    tc.acc_create(&buf1);
    let cost = KernelCost::new(10.0 * N as f64, 16.0 * N as f64);

    let produce = {
        let d = tc.dev_view(&buf0);
        move || {
            if math_ok(&d) {
                d.with_f64s_mut(0, N, |out| out.fill(me));
            }
        }
    };
    let consume = {
        let d = tc.dev_view(&buf1);
        let expect = peer as f64;
        move || {
            if math_ok(&d) {
                assert_eq!(d.read_f64s(0, 1)[0], expect);
            }
        }
    };

    match style {
        Style::Synchronous => {
            // kernel - copyout - send - recv - copyin - kernel, all blocking.
            tc.acc_kernel(None, cost, produce).await;
            tc.acc_update_host(&buf0, 0, buf0.len, None).await;
            let sreq = tc
                .mpi_isend(&buf0, 0, buf0.len, peer, 0, MpiOpts::host())
                .await;
            tc.mpi_recv(&buf1, 0, buf1.len, peer, 0, MpiOpts::host())
                .await;
            sreq.completion(tc.ctx()).await;
            tc.acc_update_device(&buf1, 0, buf1.len, None).await;
            tc.acc_kernel(None, cost, consume).await;
        }
        Style::AsyncWithWaits => {
            // async ops, but the host must bridge MPI and OpenACC with
            // explicit synchronization points.
            tc.acc_kernel(Some(1), cost, produce).await;
            tc.acc_update_host(&buf0, 0, buf0.len, Some(1)).await;
            tc.acc_wait(1).await;
            let reqs = vec![
                tc.mpi_isend(&buf0, 0, buf0.len, peer, 0, MpiOpts::host())
                    .await,
                tc.mpi_irecv(&buf1, 0, buf1.len, peer, 0, MpiOpts::host())
                    .await,
            ];
            tc.mpi_waitall(&reqs).await;
            tc.acc_update_device(&buf1, 0, buf1.len, Some(1)).await;
            tc.acc_kernel(Some(1), cost, consume).await;
            tc.acc_wait(1).await;
        }
        Style::UnifiedQueue => {
            // Figure 4(c): one queue carries everything; the host stays
            // free and does its own work concurrently.
            tc.acc_kernel(Some(1), cost, produce).await;
            tc.mpi_send(&buf0, 0, buf0.len, peer, 0, MpiOpts::device().on_queue(1))
                .await;
            tc.mpi_recv(&buf1, 0, buf1.len, peer, 0, MpiOpts::device().on_queue(1))
                .await;
            tc.acc_kernel(Some(1), cost, consume).await;
            tc.host_compute(100e-6).await; // the CPU cycles the paper says we save
            tc.acc_wait(1).await;
        }
    }
}

fn spec() -> MachineSpec {
    let mut s = presets::psg();
    s.nodes[0].devices.truncate(2);
    s
}

/// The figure's launch for one style: the baseline runtime for (a) and
/// (b), IMPACC for (c). Run [`exchange`] on it, after attaching a
/// recorder if the timeline is wanted.
pub fn launch(style: Style) -> Launch {
    let opts = match style {
        Style::UnifiedQueue => RuntimeOptions::impacc(),
        _ => RuntimeOptions::baseline(),
    };
    Launch::new(spec(), opts).phys_cap(4096)
}

/// Run one style; returns the summary.
pub fn run_style(style: Style) -> RunSummary {
    launch(style)
        .run_async(move |tc| async move { exchange(&tc, style).await })
        .expect("figure 5 run")
}

/// Host time stalled on synchronization or blocking transfers (MPI waits,
/// acc waits, and synchronous copies executed on the host thread),
/// averaged over the two ranks.
pub fn host_blocked_secs(s: &RunSummary) -> f64 {
    let ranks = ["rank0", "rank1"];
    ranks
        .iter()
        .map(|r| {
            let a = s.report.actor(r).expect("rank actor");
            ["mpi_wait", "acc_wait", "HtoD", "DtoH", "kernel"]
                .iter()
                .map(|t| a.tag(t).as_secs_f64())
                .sum::<f64>()
        })
        .sum::<f64>()
        / ranks.len() as f64
}

/// Run Figure 5; returns the rendered report.
pub fn run() -> String {
    run_traced(None)
}

/// [`run`], optionally dumping a merged Chrome trace of the three styles
/// (one trace process each) to `trace` — the figure's timelines, live.
pub fn run_traced(trace: Option<&str>) -> String {
    let mut out = String::new();
    out.push_str(
        "Figures 4/5: synchronization timelines for one kernel-send-recv-kernel\n\
         exchange (2 MiB buffers, two GPUs on one PSG node)\n\n",
    );
    let mut t = Table::new(&["style", "total", "host blocked", "blocked %"]);
    let mut groups = Vec::new();
    for (name, style) in [
        ("(a) synchronous", Style::Synchronous),
        ("(b) async + waits", Style::AsyncWithWaits),
        ("(c) unified queue", Style::UnifiedQueue),
    ] {
        let rec = trace.map(|_| Recorder::new());
        let mut l = launch(style);
        if let Some(rec) = &rec {
            l = l.recorder(rec);
        }
        let s = l
            .run_async(move |tc| async move { exchange(&tc, style).await })
            .expect("figure 5 run");
        let total = s.elapsed_secs();
        let blocked = host_blocked_secs(&s);
        t.row(vec![
            name.into(),
            format!("{:.1}us", total * 1e6),
            format!("{:.1}us", blocked * 1e6),
            format!("{:.0}%", blocked / total * 100.0),
        ]);
        if let Some(rec) = rec {
            groups.push((name, rec.spans()));
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\npaper (Figure 5): (a) wastes the host on every operation; (b) frees\n\
         parts but still synchronizes across the MPI/OpenACC boundary; (c)\n\
         keeps the host free until one final wait, and runs fastest.\n",
    );
    if let Some(path) = trace {
        let refs: Vec<(&str, &[impacc_obs::Span])> = groups
            .iter()
            .map(|(name, spans)| (*name, spans.as_slice()))
            .collect();
        match chrome::write_trace_groups(std::path::Path::new(path), &refs) {
            Ok(()) => out.push_str(&format!(
                "\nChrome trace written to {path} ({} spans); open via ui.perfetto.dev\n",
                groups.iter().map(|(_, s)| s.len()).sum::<usize>()
            )),
            Err(e) => out.push_str(&format!("\nwarning: could not write {path}: {e}\n")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unified_queue_is_fastest_and_least_blocked() {
        let a = run_style(Style::Synchronous);
        let b = run_style(Style::AsyncWithWaits);
        let c = run_style(Style::UnifiedQueue);
        assert!(
            c.elapsed_secs() < a.elapsed_secs(),
            "(c) {} vs (a) {}",
            c.elapsed_secs(),
            a.elapsed_secs()
        );
        assert!(
            c.elapsed_secs() <= b.elapsed_secs() * 1.02,
            "(c) {} vs (b) {}",
            c.elapsed_secs(),
            b.elapsed_secs()
        );
        // The unified queue's host does 100us of its own work and still
        // blocks less than the synchronous style.
        assert!(host_blocked_secs(&c) < host_blocked_secs(&a));
    }

    #[test]
    fn all_styles_compute_the_same_thing() {
        // The data assertions live inside the kernels; full backing makes
        // them real.
        for style in [
            Style::Synchronous,
            Style::AsyncWithWaits,
            Style::UnifiedQueue,
        ] {
            let opts = match style {
                Style::UnifiedQueue => RuntimeOptions::impacc(),
                _ => RuntimeOptions::baseline(),
            };
            Launch::new(spec(), opts)
                .run_async(move |tc| async move { exchange(&tc, style).await })
                .unwrap();
        }
    }
}
