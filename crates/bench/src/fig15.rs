//! Figure 15 — LULESH weak scaling: task counts are perfect cubes
//! (1, 8, 27, 64, 125, 1000, 3375, 8000), per-task problem size fixed.
//!
//! Paper's shape: on a PSG node IMPACC wins (NUMA pinning + message fusion
//! without inter-process communication); on Beacon IMPACC is ~5% *slower*
//! (nothing to fuse profitably in host-to-host internode traffic, plus
//! message-command/handler overhead); at large Titan scales both are
//! kernel-dominated and weak-scale almost linearly.

use impacc_apps::{run_lulesh, LuleshParams};
use impacc_core::RuntimeOptions;

use crate::specs::{beacon_tasks, psg_tasks, titan_tasks};
use crate::util::{quick, Table};

fn lulesh(spec: impacc_machine::MachineSpec, opts: RuntimeOptions, s: usize) -> f64 {
    run_lulesh(
        spec,
        opts,
        Some(4096),
        LuleshParams {
            s,
            iters: if quick() { 2 } else { 4 },
            verify: false,
        },
    )
    .expect("lulesh run")
    .elapsed_secs()
}

/// Run Figure 15; returns the rendered report.
pub fn run() -> String {
    // Per-system per-task problem sizes, like the paper (whose Figure 15
    // graph titles differ per system: the 12 GB PSG GPUs take larger
    // per-task problems than the 8 GB Beacon MICs).
    let (s_psg, s_beacon, s_titan) = if quick() { (16, 8, 8) } else { (48, 20, 32) };
    let mut out = String::new();
    out.push_str(
        "Figure 15: LULESH weak scaling (PSG 48^3, Beacon 20^3, Titan 32^3 per task)\n\
         (time normalized to MPI+OpenACC 1-task; weak scaling => flat is ideal)\n\n",
    );

    // PSG: a single node fits 1 and 8 tasks.
    let s = s_psg;
    let base1 = lulesh(psg_tasks(1), RuntimeOptions::baseline(), s);
    let mut t = Table::new(&["tasks", "IMPACC", "MPI+OpenACC", "IMPACC/MPI+X"]);
    for tasks in [1usize, 8] {
        let i = lulesh(psg_tasks(tasks), RuntimeOptions::impacc(), s);
        let b = lulesh(psg_tasks(tasks), RuntimeOptions::baseline(), s);
        t.row(vec![
            tasks.to_string(),
            format!("{:.2}", i / base1),
            format!("{:.2}", b / base1),
            format!("{:.3}", i / b),
        ]);
    }
    out.push_str(&format!("PSG:\n{}\n", t.render()));

    // Beacon: cubes up to 125 tasks over 32 nodes.
    let s = s_beacon;
    let base1 = lulesh(beacon_tasks(1), RuntimeOptions::baseline(), s);
    let mut t = Table::new(&["tasks", "IMPACC", "MPI+OpenACC", "IMPACC/MPI+X"]);
    let counts: Vec<usize> = if quick() {
        vec![1, 8]
    } else {
        vec![1, 8, 27, 64, 125]
    };
    for tasks in counts {
        let i = lulesh(beacon_tasks(tasks), RuntimeOptions::impacc(), s);
        let b = lulesh(beacon_tasks(tasks), RuntimeOptions::baseline(), s);
        t.row(vec![
            tasks.to_string(),
            format!("{:.2}", i / base1),
            format!("{:.2}", b / base1),
            format!("{:.3}", i / b),
        ]);
    }
    out.push_str(&format!("Beacon:\n{}\n", t.render()));

    // Titan: large cubes, normalized to the 125-task baseline.
    let s = s_titan;
    let counts: Vec<usize> = if quick() {
        vec![125, 216]
    } else {
        vec![125, 216, 512, 1000, 3375, 8000]
    };
    let base = lulesh(titan_tasks(counts[0]), RuntimeOptions::baseline(), s);
    let mut t = Table::new(&["tasks", "IMPACC", "MPI+OpenACC", "IMPACC/MPI+X"]);
    for tasks in counts {
        let i = lulesh(titan_tasks(tasks), RuntimeOptions::impacc(), s);
        let b = lulesh(titan_tasks(tasks), RuntimeOptions::baseline(), s);
        t.row(vec![
            tasks.to_string(),
            format!("{:.2}", i / base),
            format!("{:.2}", b / base),
            format!("{:.3}", i / b),
        ]);
    }
    out.push_str(&format!(
        "Titan (normalized to 125-task MPI+X):\n{}\n",
        t.render()
    ));
    out.push_str(
        "paper: IMPACC faster on PSG (pinning + fusion), ~5% slower on Beacon\n\
         (handler/message-command overhead, nothing to fuse), both ~linear on\n\
         Titan at large problem sizes.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psg_single_node_impacc_wins() {
        // Paper-scale per-task problem: faces are large enough that fused
        // single copies beat the message-command overhead.
        let s = 48;
        let i = lulesh(psg_tasks(8), RuntimeOptions::impacc(), s);
        let b = lulesh(psg_tasks(8), RuntimeOptions::baseline(), s);
        assert!(i < b, "IMPACC {i} vs baseline {b}");
    }

    #[test]
    fn beacon_multinode_gap_is_small() {
        // 27 tasks over 7 Beacon nodes: mostly internode host-to-host.
        // The paper reports IMPACC ~5% behind; accept anything from a
        // small win to ~15% behind.
        let s = 12;
        let i = lulesh(beacon_tasks(27), RuntimeOptions::impacc(), s);
        let b = lulesh(beacon_tasks(27), RuntimeOptions::baseline(), s);
        let ratio = i / b;
        assert!(
            (0.85..1.2).contains(&ratio),
            "Beacon LULESH should be a wash, IMPACC/baseline = {ratio:.3}"
        );
    }
}
