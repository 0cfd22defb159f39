//! Ablation studies: isolate the contribution of each IMPACC technique
//! called out in DESIGN.md.

use impacc_core::{Launch, MpiOpts, Rank, RuntimeOptions};
use impacc_machine::MachineSpec;

use crate::panel::App;
use crate::specs::{beacon_tasks, psg_tasks};
use crate::util::{fmt_bytes, quick, size_sweep, Table};

/// How much of the small-matrix DGEMM win is node heap aliasing?
pub fn aliasing() -> String {
    let mut t = Table::new(&["n", "IMPACC", "no-aliasing", "baseline", "aliasing share"]);
    let sizes = if quick() {
        vec![512]
    } else {
        vec![512, 1024, 2048, 4096]
    };
    for n in sizes {
        let secs = |opts| App::Dgemm(n).secs(psg_tasks(8), opts);
        let full = secs(RuntimeOptions::impacc());
        let noalias = secs(RuntimeOptions {
            aliasing: false,
            ..RuntimeOptions::impacc()
        });
        let base = secs(RuntimeOptions::baseline());
        let share = if base > full {
            (noalias - full) / (base - full)
        } else {
            0.0
        };
        t.row(vec![
            n.to_string(),
            format!("{full:.5}s"),
            format!("{noalias:.5}s"),
            format!("{base:.5}s"),
            format!("{:.0}%", share * 100.0),
        ]);
    }
    let head = "Ablation: node heap aliasing (DGEMM on PSG, 8 tasks)";
    format!("{head}\n\n{}", t.render())
}

/// What do the unified activity queues buy at high task counts?
pub fn unified_queue() -> String {
    let n = if quick() { 512 } else { 2048 };
    let mut t = Table::new(&["tasks", "IMPACC", "no-unified-queue", "gain"]);
    let counts = if quick() {
        vec![16]
    } else {
        vec![16, 32, 64, 128]
    };
    for tasks in counts {
        let secs = |opts| App::Dgemm(n).secs(beacon_tasks(tasks), opts);
        let full = secs(RuntimeOptions::impacc());
        let sync = secs(RuntimeOptions {
            unified_queue: false,
            ..RuntimeOptions::impacc()
        });
        t.row(vec![
            tasks.to_string(),
            format!("{full:.5}s"),
            format!("{sync:.5}s"),
            format!("{:.2}x", sync / full),
        ]);
    }
    let head = "Ablation: unified activity queue (DGEMM on Beacon)";
    format!("{head}\n\n{}", t.render())
}

/// Eight PSG tasks with every GPU on socket 0: the default compact
/// binding then strands half the tasks on the far socket.
fn skewed_psg() -> MachineSpec {
    let mut spec = psg_tasks(8);
    for d in &mut spec.nodes[0].devices {
        d.socket = 0;
    }
    spec
}

/// LULESH on [`skewed_psg`], pinned and unpinned, in seconds.
fn pinned_unpinned(s: usize, iters: usize) -> (f64, f64) {
    let secs = |numa_pinning| {
        let opts = RuntimeOptions {
            numa_pinning,
            ..RuntimeOptions::impacc()
        };
        App::Lulesh(s, iters).secs(skewed_psg(), opts)
    };
    (secs(true), secs(false))
}

/// NUMA pinning inside a full application (LULESH on PSG).
pub fn pinning() -> String {
    let (pinned, unpinned) = pinned_unpinned(if quick() { 16 } else { 48 }, 4);
    let mut t = Table::new(&["config", "time", "vs pinned"]);
    t.row(vec![
        "pinned".into(),
        format!("{pinned:.5}s"),
        "1.00x".into(),
    ]);
    t.row(vec![
        "unpinned".into(),
        format!("{unpinned:.5}s"),
        format!("{:.2}x", unpinned / pinned),
    ]);
    format!(
        "Ablation: NUMA-friendly task-CPU pinning\n\
         (LULESH, 8 tasks on a skewed PSG node: all GPUs on socket 0)\n\n{}",
        t.render()
    )
}

/// Per-message handler overhead vs payload size: where fusion pays off.
pub fn handler_overhead() -> String {
    let mut out = String::new();
    out.push_str(
        "Ablation: message-command/handler overhead vs payload size\n\
         (intra-node ping on PSG; fusion vs system-MPI staging in IMPACC mode)\n\n",
    );
    let mut t = Table::new(&["size", "fused", "unfused", "baseline", "fusion gain"]);
    let max = if quick() { 1 << 14 } else { 1 << 22 };
    for bytes in size_sweep(64, max, 8) {
        let run = |opts: RuntimeOptions| -> f64 {
            let app = move |tc: Rank| async move {
                if tc.rank() >= 2 {
                    return;
                }
                let buf = tc.malloc(bytes).await;
                for i in 0..8 {
                    if tc.rank() == 0 {
                        tc.mpi_send(&buf, 0, bytes, 1, i, MpiOpts::host()).await;
                    } else {
                        tc.mpi_recv(&buf, 0, bytes, 0, i, MpiOpts::host()).await;
                    }
                }
            };
            Launch::new(psg_tasks(2), opts)
                .phys_cap(4096)
                .run_async(app)
                .unwrap()
                .elapsed_secs()
        };
        let fused = run(RuntimeOptions::impacc());
        let mut nofuse = RuntimeOptions::impacc();
        nofuse.fusion = false;
        let unfused = run(nofuse);
        let base = run(RuntimeOptions::baseline());
        t.row(vec![
            fmt_bytes(bytes),
            format!("{:.2}us", fused * 1e6),
            format!("{:.2}us", unfused * 1e6),
            format!("{:.2}us", base * 1e6),
            format!("{:.2}x", base / fused),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nsmall messages: command overhead ~ IPC overhead (the Beacon LULESH\n\
         effect); large messages: one copy vs two wins decisively.\n",
    );
    out
}

/// Run all ablations.
pub fn run() -> String {
    format!(
        "{}\n{}\n{}\n{}",
        aliasing(),
        unified_queue(),
        pinning(),
        handler_overhead()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabling_aliasing_slows_dgemm() {
        let secs = |aliasing| {
            let opts = RuntimeOptions {
                aliasing,
                ..RuntimeOptions::impacc()
            };
            App::Dgemm(512).secs(psg_tasks(8), opts)
        };
        let (full, noalias) = (secs(true), secs(false));
        assert!(noalias > full, "aliasing must help: {noalias} vs {full}");
    }

    #[test]
    fn disabling_pinning_slows_lulesh() {
        // Boundary transfers must be large enough for the PCIe path to
        // outweigh scheduling noise (the paper's per-task problems are).
        let (pinned, unpinned) = pinned_unpinned(48, 3);
        assert!(unpinned > pinned, "{unpinned} vs {pinned}");
    }
}
